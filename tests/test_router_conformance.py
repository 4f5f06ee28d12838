"""Conformance of the Theorem-4.1 sorting router across label encodings.

One :class:`SuperIPRouter` serves IP-label super graphs (a
:class:`~repro.core.superip.NucleusSpec` nucleus, plain and symmetric) and
explicit-nucleus super graphs (a nucleus :class:`~repro.core.network.Network`).
Every case routes all ordered pairs up to 256 nodes, else 2 000 seeded
pairs, and checks:

* every hop is an arc of the graph (an out-arc on directed graphs);
* every route is within ``max_route_length()`` = ``l·D_G + t``;
* the per-pair route lengths, and ``max_route_length()``, equal digests
  recorded from the two routers this one replaced;
* on explicit nuclei the paths themselves equal the recorded digest.
  (IP-label routes may take a different one of several equally short
  nucleus sub-paths, so only their lengths are pinned.)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import networks as nw
from repro.core.network import Network
from repro.core.permutation import cyclic_shift_left
from repro.core.superip import NucleusSpec
from repro.core.superip import SuperGeneratorSet as SGS
from repro.metrics.distances import diameter
from repro.networks import nuclei
from repro.networks.hier import explicit_super_graph
from repro.routing import SuperIPRouter

Q1, Q2 = nuclei.hypercube_nucleus(1), nuclei.hypercube_nucleus(2)
CCC3 = nw.cube_connected_cycles(3)

#: name -> (graph builder, nucleus, super-generator set, symmetric)
CASES = {
    "hsn(3,Q2)": (lambda: nw.hsn(3, Q2), Q2, SGS.transpositions(3), False),
    "sym-hsn(3,Q1)": (
        lambda: nw.hsn(3, Q1, symmetric=True), Q1, SGS.transpositions(3), True
    ),
    "sym-hsn(2,Q2)": (
        lambda: nw.hsn(2, Q2, symmetric=True), Q2, SGS.transpositions(2), True
    ),
    "ring-cn(3,Q2)": (lambda: nw.ring_cn(3, Q2), Q2, SGS.ring(3), False),
    "sym-ring-cn(3,Q2)": (
        lambda: nw.ring_cn(3, Q2, symmetric=True), Q2, SGS.ring(3), True
    ),
    "complete-cn(4,Q1)": (
        lambda: nw.complete_cn(4, Q1), Q1, SGS.complete_shifts(4), False
    ),
    "sym-complete-cn(4,Q1)": (
        lambda: nw.complete_cn(4, Q1, symmetric=True), Q1, SGS.complete_shifts(4), True
    ),
    "super-flip(4,Q1)": (lambda: nw.super_flip(4, Q1), Q1, SGS.flips(4), False),
    "sym-super-flip(4,Q1)": (
        lambda: nw.super_flip(4, Q1, symmetric=True), Q1, SGS.flips(4), True
    ),
    "rcc(3,3)": (
        lambda: nw.rcc(3, 3), nuclei.complete_nucleus(3), SGS.transpositions(3), False
    ),
    "macro-star-like(2,3)": (
        lambda: nw.macro_star_like(2, 3), nuclei.star_nucleus(3),
        SGS.transpositions(2), False,
    ),
    "directed-cn(3,Q2)": (lambda: nw.directed_cn(3, Q2), Q2, SGS.directed_ring(3), False),
    "cyclic-petersen(2)": (
        lambda: nw.cyclic_petersen_network(2), nw.petersen(), SGS.ring(2), False
    ),
    "hsn(2,ccc(3))": (lambda: nw.hsn(2, CCC3), CCC3, SGS.transpositions(2), False),
}

#: name -> (nodes, max_route_length, route-length digest, path digest)
RECORDED = {
    "hsn(3,Q2)": (64, 8, "6345b8963ce11857", None),
    "sym-hsn(3,Q1)": (48, 7, "3dfab4aaffc548c2", None),
    "sym-hsn(2,Q2)": (32, 6, "51d2e8acc435ef1b", None),
    "ring-cn(3,Q2)": (64, 8, "a2d0abf08f079816", None),
    "sym-ring-cn(3,Q2)": (192, 9, "e1fb8205faec4038", None),
    "complete-cn(4,Q1)": (16, 7, "739761c93f26374b", None),
    "sym-complete-cn(4,Q1)": (64, 8, "74344f1385e0a03c", None),
    "super-flip(4,Q1)": (16, 7, "ef9fd60234b86a8a", None),
    "sym-super-flip(4,Q1)": (384, 10, "9f76014e23f76039", None),
    "rcc(3,3)": (27, 5, "bc790764ab59962e", None),
    "macro-star-like(2,3)": (36, 7, "1a2c9f3e4db31610", None),
    "directed-cn(3,Q2)": (64, 8, "1f7e5c663670f00d", None),
    "cyclic-petersen(2)": (100, 5, "9c82cbc3bb503302", "8e5b4dcab58a5759"),
    "hsn(2,ccc(3))": (576, 13, "74ec20e788af1073", "9f4dc95f2311ea5c"),
}


def pairs(n: int) -> np.ndarray:
    """All ordered pairs up to 256 nodes, else 2 000 seeded pairs."""
    if n <= 256:
        s, d = np.divmod(np.arange(n * n), n)
        return np.column_stack([s, d])
    return np.random.default_rng(2026).integers(0, n, (2000, 2))


def test_every_case_is_recorded():
    assert set(CASES) == set(RECORDED)
    explicit = {name for name, (_, nuc, _, _) in CASES.items() if isinstance(nuc, Network)}
    assert explicit == {name for name, rec in RECORDED.items() if rec[3]}


@pytest.mark.parametrize("name", list(CASES))
def test_router_conformance(name):
    build, nucleus, sgs, symmetric = CASES[name]
    nodes, bound, length_digest, path_digest = RECORDED[name]
    g = build()
    r = SuperIPRouter(nucleus, sgs, symmetric=symmetric)
    assert g.num_nodes == nodes
    assert r.max_route_length() == bound
    csr = g.adjacency_csr()  # out-arcs on directed graphs
    lengths, h = [], hashlib.sha256()
    for s, d in pairs(g.num_nodes):
        path = r.route_nodes(g, int(s), int(d))
        assert path[0] == s and path[-1] == d
        for u, v in zip(path, path[1:]):
            assert v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]], (name, u, v)
        assert len(path) - 1 <= bound
        lengths.append(len(path) - 1)
        h.update(np.asarray(path, dtype=np.int64).tobytes() + b"|")
    digest = hashlib.sha256(np.asarray(lengths, dtype=np.int64).tobytes()).hexdigest()
    assert digest[:16] == length_digest
    if path_digest is not None:
        assert h.hexdigest()[:16] == path_digest


def test_symmetric_explicit_nucleus():
    """Blocks of a symmetric explicit graph are (color, state) pairs; the
    router realizes the destination's color arrangement, and its bound
    ``l·D_G + t_S`` is attained."""
    sgs = SGS.ring(3)
    nucleus = nw.complete_graph(3)
    g = explicit_super_graph(nucleus, sgs, symmetric=True)
    r = SuperIPRouter(nucleus, sgs, symmetric=True)
    csr = g.adjacency_csr()
    longest = 0
    for s, d in pairs(g.num_nodes):
        path = r.route_nodes(g, int(s), int(d))
        assert path[0] == s and path[-1] == d
        for u, v in zip(path, path[1:]):
            assert v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        longest = max(longest, len(path) - 1)
    assert longest == r.max_route_length() == diameter(g)


def test_one_way_nucleus_moves_follow_generators():
    """A nucleus whose generator has no inverse in the set (the directed
    3-cycle) on a directed CN: the nucleus step may only apply generators
    forward, so every hop is still an out-arc.  Lengths match the recorded
    digest.  ``max_route_length()`` takes the nucleus diameter over those
    forward moves (2, where the undirected 3-cycle has 1), so its bound
    ``3·2 + t = 8`` (``t = 2``) holds for every route and equals the
    graph's diameter."""
    c3 = NucleusSpec("C3", (0, 1, 2), (cyclic_shift_left(3, 1),))
    g = nw.directed_cn(3, c3)
    r = SuperIPRouter(c3, SGS.directed_ring(3))
    csr = g.adjacency_csr()
    lengths = []
    for s, d in pairs(g.num_nodes):
        path = r.route_nodes(g, int(s), int(d))
        assert path[0] == s and path[-1] == d
        for u, v in zip(path, path[1:]):
            assert v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        lengths.append(len(path) - 1)
    digest = hashlib.sha256(np.asarray(lengths, dtype=np.int64).tobytes()).hexdigest()
    assert digest[:16] == "1355776d2f61649c"
    assert max(lengths) <= r.max_route_length() == 8
