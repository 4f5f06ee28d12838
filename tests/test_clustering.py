"""Tests for module assignment and the Section-5 inter-cluster metrics."""

import numpy as np
import pytest

from repro import networks as nw
from repro.metrics.clustering import (
    ModuleAssignment,
    average_intercluster_distance,
    contiguous_modules,
    intercluster_degree,
    intercluster_diameter,
    intercluster_distances,
    intercluster_summary,
    modules_by_key,
    nucleus_modules,
    offmodule_links_per_node,
    split_modules,
    subcube_modules,
)

from .oracles import zero_one_intermodule_distances


class TestAssignments:
    def test_nucleus_modules_hsn(self):
        g = nw.hsn_hypercube(2, 3)
        ma = nucleus_modules(g)
        assert ma.num_modules == 8  # M^(l-1)
        assert ma.max_module_size == 8  # M
        assert ma.modules_internally_connected()

    def test_nucleus_modules_count_general(self):
        g = nw.hsn_hypercube(3, 2)
        ma = nucleus_modules(g)
        assert ma.num_modules == 16
        assert set(ma.module_sizes) == {4}

    def test_nucleus_modules_requires_kinds(self):
        q = nw.hypercube_ip(3)  # all generators are NUCLEUS kind -> 1 module
        ma = nucleus_modules(q)
        assert ma.num_modules == 1

    def test_subcube_modules(self):
        q = nw.hypercube(5)
        ma = subcube_modules(q, 2)
        assert ma.num_modules == 8
        assert ma.max_module_size == 4
        assert ma.modules_internally_connected()

    def test_contiguous_modules(self):
        r = nw.ring(12)
        ma = contiguous_modules(r, 3)
        assert ma.num_modules == 4
        assert ma.modules_internally_connected()

    def test_contiguous_invalid(self):
        with pytest.raises(ValueError):
            contiguous_modules(nw.ring(6), 0)

    def test_modules_by_key(self):
        s = nw.star_graph(4)
        ma = modules_by_key(s, lambda lab: lab[2:])
        assert ma.num_modules == 12  # 4!/2!
        assert ma.max_module_size == 2

    def test_split_modules(self):
        g = nw.hsn_hypercube(2, 4)  # nucleus copies of 16
        ma = split_modules(nucleus_modules(g), 4)
        assert ma.max_module_size == 4
        assert ma.num_modules == 16 * 4

    def test_split_modules_keeps_small(self):
        g = nw.hsn_hypercube(2, 2)
        ma = split_modules(nucleus_modules(g), 16)
        assert ma.num_modules == nucleus_modules(g).num_modules

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ModuleAssignment(nw.ring(5), np.zeros(3, dtype=int))

    def test_members(self):
        ma = contiguous_modules(nw.ring(6), 2)
        assert list(ma.members(0)) == [0, 1]

    def test_repr(self):
        ma = contiguous_modules(nw.ring(6), 2)
        assert "modules=3" in repr(ma)


class TestOffModuleLinks:
    def test_hsn_offmodule_counts(self):
        """§5.3: HSN(l, G) has at most l−1 off-module links per node."""
        for l in (2, 3, 4):
            g = nw.hsn_hypercube(l, 2)
            off = offmodule_links_per_node(nucleus_modules(g))
            assert off.max() == l - 1

    def test_ring_cn_offmodule_counts(self):
        """§5.3: ring-CN has 1 (l=2) or 2 (l≥3) off-module links per node."""
        for l, expect in ((2, 1), (3, 2), (4, 2)):
            g = nw.ring_cn_hypercube(l, 2)
            off = offmodule_links_per_node(nucleus_modules(g))
            assert off.max() == expect

    def test_hypercube_offmodule(self):
        q = nw.hypercube(7)
        off = offmodule_links_per_node(subcube_modules(q, 3))
        assert (off == 4).all()  # n - c

    def test_intercluster_degree_formula_hsn(self):
        g = nw.hsn_hypercube(2, 3)
        ideg = intercluster_degree(nucleus_modules(g))
        assert ideg == pytest.approx((2 - 1) * (1 - 1 / 8))


class TestInterclusterDistances:
    def test_hsn_quotient_is_gh(self):
        """HSN module quotient = generalized hypercube → I-diameter l−1."""
        for l in (2, 3):
            g = nw.hsn_hypercube(l, 2)
            ma = nucleus_modules(g)
            assert intercluster_diameter(ma) == l - 1

    def test_hcn_i_diameter_is_one(self):
        g = nw.hsn_hypercube(2, 3)
        assert intercluster_diameter(nucleus_modules(g)) == 1

    def test_quotient_equals_zero_one_bfs(self):
        """On nucleus modules the I-distances are the module-quotient
        distances and must agree with the scalar 0/1-weight BFS."""
        g = nw.hsn_hypercube(3, 2)
        ma = nucleus_modules(g)
        fast = intercluster_distances(ma)
        slow = zero_one_intermodule_distances(ma)
        assert (fast == slow).all()

    def test_zero_one_fallback_on_disconnected_modules(self):
        # modules that are NOT internally connected: stripes of a ring
        r = nw.ring(8)
        ma = ModuleAssignment(r, np.arange(8) % 2)
        assert not ma.modules_internally_connected()
        d = intercluster_distances(ma)  # exact on any assignment
        assert d[0, 1] == 1 and d[0, 0] == 0

    def test_average_i_distance_hcn(self):
        """For HCN (l=2): avg I-distance = P(different module) ≈ 1."""
        g = nw.hsn_hypercube(2, 3)
        ma = nucleus_modules(g)
        n, m = g.num_nodes, 8
        expected = (n - m) / (n - 1)  # pairs in different modules need 1 hop
        assert average_intercluster_distance(ma) == pytest.approx(expected)

    def test_average_i_distance_zero_when_single_module(self):
        q = nw.hypercube_ip(3)
        assert average_intercluster_distance(nucleus_modules(q)) == 0.0

    def test_summary(self):
        g = nw.hsn_hypercube(2, 2)
        s = intercluster_summary(nucleus_modules(g))
        assert s.i_diameter == 1
        assert s.i_degree == pytest.approx(0.75)
        assert s.num_modules == 4
        assert "i_degree" in repr(s)

    def test_subcube_vs_dense_modules_tradeoff(self):
        """Bigger modules strictly reduce the I-diameter of a hypercube."""
        q = nw.hypercube(6)
        d3 = intercluster_diameter(subcube_modules(q, 3))
        d4 = intercluster_diameter(subcube_modules(q, 4))
        assert d3 == 3 and d4 == 2

    def test_superip_beats_hypercube_ii(self):
        """The paper's headline: super-IP graphs dominate on II-cost."""
        h = nw.hsn_hypercube(3, 2)  # 64 nodes
        q = nw.hypercube(6)  # 64 nodes
        hs = intercluster_summary(nucleus_modules(h))
        qs = intercluster_summary(subcube_modules(q, 2))  # modules of 4, like h
        assert hs.i_degree * hs.i_diameter < qs.i_degree * qs.i_diameter
