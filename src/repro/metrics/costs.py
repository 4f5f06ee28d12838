"""Composite cost figures of merit — DD-cost, ID-cost, II-cost (Section 5).

* **DD-cost** = node degree × diameter (Fig. 2).  Under unit node capacity
  and packet switching, light-traffic latency is roughly proportional to it.
* **ID-cost** = inter-cluster degree × diameter (Fig. 4).  Models fixed
  per-module off-module capacity (pin-out constraint).
* **II-cost** = inter-cluster degree × inter-cluster diameter (Fig. 5).
  Models the regime where off-module transmissions dominate delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.network import Network

from .clustering import ModuleAssignment, intercluster_summary
from .distances import average_distance, diameter

__all__ = ["NetworkCosts", "dd_cost", "id_cost", "ii_cost", "measure_costs"]


@dataclass(frozen=True)
class NetworkCosts:
    """All of the paper's figures of merit for one network + clustering."""

    name: str
    num_nodes: int
    degree: int
    diameter: int
    avg_distance: float
    i_degree: float
    i_diameter: int
    avg_i_distance: float
    max_module_size: int

    @property
    def dd_cost(self) -> float:
        """Degree × diameter (Fig. 2)."""
        return self.degree * self.diameter

    @property
    def id_cost(self) -> float:
        """I-degree × diameter (Fig. 4)."""
        return self.i_degree * self.diameter

    @property
    def ii_cost(self) -> float:
        """I-degree × I-diameter (Fig. 5)."""
        return self.i_degree * self.i_diameter

    def row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "network": self.name,
            "N": self.num_nodes,
            "degree": self.degree,
            "diameter": self.diameter,
            "avg_dist": round(self.avg_distance, 3),
            "I-degree": round(self.i_degree, 3),
            "I-diameter": self.i_diameter,
            "avg_I-dist": round(self.avg_i_distance, 3),
            "DD": round(self.dd_cost, 1),
            "ID": round(self.id_cost, 1),
            "II": round(self.ii_cost, 1),
            "module": self.max_module_size,
        }


def dd_cost(degree: float, diam: float) -> float:
    """Degree × diameter."""
    return degree * diam


def id_cost(i_degree: float, diam: float) -> float:
    """Inter-cluster degree × diameter."""
    return i_degree * diam


def ii_cost(i_degree: float, i_diameter: float) -> float:
    """Inter-cluster degree × inter-cluster diameter."""
    return i_degree * i_diameter


def measure_costs(
    net: Network,
    assignment: ModuleAssignment,
    assume_vertex_transitive: bool = False,
) -> NetworkCosts:
    """Measure every cost metric of ``net`` under ``assignment`` exactly.

    This is the slow-but-exact path used to validate the closed-form tables
    in :mod:`repro.analysis.formulas` on constructible sizes.
    """
    # diameter first: on a disconnected graph its error is the one raised
    diam = diameter(net, assume_vertex_transitive=assume_vertex_transitive)
    inter = intercluster_summary(assignment)
    return NetworkCosts(
        name=net.name,
        num_nodes=net.num_nodes,
        degree=net.max_degree,
        diameter=diam,
        avg_distance=average_distance(net, assume_vertex_transitive=assume_vertex_transitive),
        i_degree=inter.i_degree,
        i_diameter=inter.i_diameter,
        avg_i_distance=inter.avg_i_distance,
        max_module_size=inter.max_module_size,
    )
