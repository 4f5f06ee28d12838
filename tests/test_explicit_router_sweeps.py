"""Tests for the explicit-nucleus router, load sweeps, de Bruijn nucleus,
and the paper's §5.3 worked numeric examples."""

import numpy as np
import pytest

from repro import metrics as mt
from repro import networks as nw
from repro.core.superip import SuperGeneratorSet
from repro.networks.hier import explicit_super_graph
from repro.routing import SuperIPRouter, verify_route
from repro.sim import (
    offered_load_sweep,
    on_off_module_delay,
    saturation_rate,
    uniform_delay,
    unit_offmodule_capacity,
)


class TestExplicitRouter:
    @pytest.mark.parametrize("sgs_factory,l", [
        (SuperGeneratorSet.transpositions, 2),
        (SuperGeneratorSet.ring, 3),
        (SuperGeneratorSet.flips, 3),
    ])
    def test_petersen_routes_valid_and_bounded(self, sgs_factory, l):
        sgs = sgs_factory(l)
        nuc = nw.petersen()
        g = explicit_super_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        bound = r.max_route_length()
        rng = np.random.default_rng(0)
        for _ in range(40):
            s, d = rng.integers(0, g.num_nodes, 2)
            path = r.route_nodes(g, int(s), int(d))
            assert path[0] == s and path[-1] == d
            assert verify_route(g, path)
            assert len(path) - 1 <= bound

    def test_bound_is_diameter(self):
        """For cyclic Petersen networks the sorting router's bound equals
        the exact BFS diameter (Theorem 4.1 is tight here too)."""
        sgs = SuperGeneratorSet.transpositions(2)
        nuc = nw.petersen()
        g = explicit_super_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        assert r.max_route_length() == mt.diameter(g) == 5

    def test_trivial(self):
        sgs = SuperGeneratorSet.ring(2)
        nuc = nw.petersen()
        g = explicit_super_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        assert r.route_nodes(g, 5, 5) == [5]

    def test_works_with_any_explicit_nucleus(self):
        nuc = nw.cube_connected_cycles(3)
        sgs = SuperGeneratorSet.transpositions(2)
        g = explicit_super_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)
        path = r.route_nodes(g, 0, g.num_nodes - 1)
        assert verify_route(g, path)
        assert len(path) - 1 <= r.max_route_length()


class TestLoadSweeps:
    def test_latency_monotone_in_rate(self):
        q = nw.hypercube(5)
        rows = offered_load_sweep(q, uniform_delay(q), [0.01, 0.2, 0.5], cycles=100)
        lats = [r["mean_latency"] for r in rows]
        assert lats[0] <= lats[-1]
        assert all(r["delivered"] > 0 for r in rows)

    def test_sweep_throughput_orders_networks(self):
        """Under fixed per-node off-module capacity, the network with the
        smaller average I-distance sustains higher delivered throughput at
        every saturating rate (§5.2's throughput claim, via the sweep)."""
        rates = [0.2, 0.4]
        q = nw.hypercube(6)
        ma_q = mt.subcube_modules(q, 3)
        h = nw.hsn_hypercube(2, 3)
        ma_h = mt.nucleus_modules(h)
        rows_q = offered_load_sweep(
            q, unit_offmodule_capacity(q, ma_q, off_scale=10), rates, cycles=100
        )
        rows_h = offered_load_sweep(
            h, unit_offmodule_capacity(h, ma_h, off_scale=10), rates, cycles=100
        )
        for rq, rh in zip(rows_q, rows_h):
            assert rh["throughput"] > rq["throughput"]

    def test_saturation_rate_detects_blowup(self):
        """A ring driven hard must show a finite saturation rate while the
        same ring under featherweight load does not."""
        r = nw.ring(16)
        sat = saturation_rate(
            r, uniform_delay(r), [0.005, 0.3, 0.8], cycles=150
        )
        assert sat <= 0.8

    def test_saturation_inf_when_light(self):
        r = nw.ring(8)
        sat = saturation_rate(r, uniform_delay(r), [0.001, 0.002], cycles=50)
        assert sat == float("inf")


class TestDeBruijnNucleus:
    def test_matches_explicit(self):
        import networkx as nx

        for n in (2, 3, 4):
            a = nw.debruijn_nucleus(n).build()
            b = nw.debruijn(2, n)
            assert nx.is_isomorphic(a.to_networkx(), b.to_networkx())

    def test_cn_over_debruijn(self):
        """CN(l, dB): fixed degree ≤ 6, diameter l·n + l − 1."""
        nuc = nw.debruijn_nucleus(2)
        g = nw.ring_cn(2, nuc)
        assert g.num_nodes == 16
        assert mt.diameter(g) == 2 * nuc.diameter() + 1

    def test_no_symmetric_variant(self):
        with pytest.raises(ValueError, match="distinct"):
            nw.ring_cn(2, nw.debruijn_nucleus(2), symmetric=True)


class TestPaperWorkedNumbers:
    """§5.3's concrete sentences, as formula-level checks."""

    def test_17_cube_offmodule_links(self):
        """'a node in a 17-cube has 14 (or 13) off-module links' with a
        3-cube (or 4-cube) per module."""
        from repro.analysis.formulas import hypercube_point

        assert hypercube_point(17, module_bits=3).i_degree == 14
        assert hypercube_point(17, module_bits=4).i_degree == 13

    def test_8_star_offmodule_links(self):
        """'a node in a 8-star has 6 (or 5) off-module links' — consistent
        with k-substar modules for k = 2 (or 3): off-links = n − k."""
        from repro.analysis.formulas import star_point

        assert star_point(8, module_substar=2).i_degree == 6
        assert star_point(8, module_substar=3).i_degree == 5

    def test_ring_cn_offmodule_values(self):
        """'equal to 1 when l = 2 and 2 when l >= 3' — measured exactly in
        test_clustering; here the formula-level I-degree stays <= those."""
        from repro.analysis.formulas import ring_cn_point

        assert ring_cn_point(2, 16, 4, 4).i_degree <= 1
        for l in (3, 4, 5):
            assert ring_cn_point(l, 16, 4, 4).i_degree <= 2

    def test_hsn_family_offmodule_values(self):
        """'the corresponding numbers for an l-level HSN, complete-CN, or
        super-flip network are 1,2,3,4 ... when l = 2,3,4,5'."""
        from repro.analysis.formulas import (
            complete_cn_point,
            hsn_point,
            super_flip_point,
        )

        for l, expect in ((2, 1), (3, 2), (4, 3), (5, 4)):
            for fn in (hsn_point, complete_cn_point, super_flip_point):
                pt = fn(l, 16, 4, 4)
                assert pt.i_degree <= expect
                assert pt.i_degree > expect - 1  # the bound is near-tight


class TestRouterDrivenSimulation:
    def test_sorting_router_drives_simulator(self):
        """The Theorem-4.1 router plugs into the packet simulator as a
        distributed (table-free) next-hop function: all packets deliver,
        with bounded stretch vs shortest-path routing."""
        import numpy as np

        from repro.core.superip import build_super_ip_graph
        from repro.routing import SuperIPRouter
        from repro.sim import PacketSimulator, uniform_random

        nuc = nw.hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(2)
        g = build_super_ip_graph(nuc, sgs)
        r = SuperIPRouter(nuc, sgs)

        rng = np.random.default_rng(0)
        injections = uniform_random(g, 0.05, 100, rng)
        sorter = PacketSimulator(g, next_hop=r.next_hop_function(g)).run(injections)
        shortest = PacketSimulator(g).run(injections)
        assert sorter.undelivered == 0
        assert sorter.delivered == shortest.delivered
        assert sorter.mean_hops <= 2.0 * shortest.mean_hops

    def test_hop_guard_trips_on_loops(self):
        import pytest as _pytest

        from repro.sim import PacketSimulator

        r = nw.ring(6)

        def bad_next_hop(u, dst):
            return (u + 1) % 6 if u != 3 else 2  # 2 <-> 3 ping-pong

        sim = PacketSimulator(r, next_hop=bad_next_hop)
        with _pytest.raises(RuntimeError, match="hop guard"):
            sim.run([(0, 2, 5)])
