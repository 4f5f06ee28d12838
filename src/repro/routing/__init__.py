"""Routing: the Theorem-4.1 sorting router, family routers, BFS tables."""

from .disjoint import edge_disjoint_paths, node_disjoint_paths, path_diversity
from .families import (
    debruijn_route,
    ecube_route,
    star_route,
    star_route_length_bound,
)
from .superip import SuperIPRouter, verify_route
from .table import NextHopTable, shortest_path

__all__ = [
    "debruijn_route",
    "edge_disjoint_paths",
    "ecube_route",
    "NextHopTable",
    "node_disjoint_paths",
    "path_diversity",
    "shortest_path",
    "star_route",
    "star_route_length_bound",
    "SuperIPRouter",
    "verify_route",
]
