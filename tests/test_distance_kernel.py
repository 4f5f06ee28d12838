"""Oracle matrix for the bit-parallel BFS kernel and its three consumers.

* dense mode — :func:`bfs_distances` against
  ``scipy.sparse.csgraph.shortest_path`` on every registered family
  (directed ones included) and on degenerate graphs;
* reduction mode — eccentricities / diameter / average distance /
  distance summary, exactly equal to reductions of the dense matrix;
* 0/1 mode — :func:`intercluster_distances` against the scalar 0/1-BFS
  in :mod:`tests.oracles`;
* :class:`NextHopTable` against tables derived from csgraph distances,
  directed families included (hops are out-arcs toward ``dst``).
"""

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro import obs
from repro.core.network import Network, RoutingError
from repro.metrics import clustering, measure_costs
from repro.metrics.clustering import (
    ModuleAssignment,
    contiguous_modules,
    intercluster_distances,
    intercluster_summary,
    nucleus_modules,
    split_modules,
)
from repro.metrics.distances import (
    approx_average_distance,
    average_distance,
    bfs_distances,
    diameter,
    distance_summary,
    eccentricities,
    is_connected,
)
from repro.networks import REGISTRY, build, directed_cn, hypercube_nucleus, ring
from repro.routing import NextHopTable

from .oracles import zero_one_intermodule_distances

#: small parameters for every registered family
FAMILY_PARAMS = {
    "ring": dict(n=7),
    "path": dict(n=5),
    "mesh": dict(dims=(3, 4)),
    "torus": dict(dims=(3, 3)),
    "kary_ncube": dict(k=3, n=2),
    "hypercube": dict(n=4),
    "folded_hypercube": dict(n=4),
    "generalized_hypercube": dict(radices=(2, 3)),
    "complete": dict(n=5),
    "petersen": {},
    "star": dict(n=4),
    "pancake": dict(n=4),
    "bubble_sort": dict(n=4),
    "debruijn": dict(d=2, n=3),
    "kautz": dict(d=2, n=2),
    "shuffle_exchange": dict(n=3),
    "ccc": dict(n=3),
    "butterfly": dict(n=3),
    "hcn": dict(n=2),
    "hfn": dict(n=2),
    "hsn": dict(l=2, n=2),
    "ring_cn": dict(l=3, n=1),
    "complete_cn": dict(l=2, n=2),
    "super_flip": dict(l=2, n=2),
    "rcc": dict(l=2, m=3),
    "macro_star": dict(l=2, n=2),
    "macro_star_like": dict(l=2, n=2),
    "rotator": dict(n=4),
    "scc": dict(n=3),
    "cyclic_petersen": dict(l=2),
    "qcn": dict(l=2, n=4, merge_bits=2),
    "hse": dict(l=2, n=2),
    "hhn": dict(l=2, n=2),
    "rhsn": dict(levels=2, n=1),
    "hypercube_ip": dict(n=3),
    "star_ip": dict(n=4),
    "pancake_ip": dict(n=4),
    "shuffle_exchange_ip": dict(n=3),
    "debruijn_ip": dict(n=3),
}


def _networks() -> dict[str, Network]:
    nets = {name: build(name, **params) for name, params in FAMILY_PARAMS.items()}
    nets["debruijn-directed"] = build("debruijn", d=2, n=3, directed=True)
    nets["kautz-directed"] = build("kautz", d=2, n=2, directed=True)
    nets["directed-CN(3,Q1)"] = directed_cn(3, hypercube_nucleus(1))
    return nets


NETWORKS = _networks()
DIRECTED = sorted(name for name, g in NETWORKS.items() if g.directed)
UNDIRECTED = sorted(name for name, g in NETWORKS.items() if not g.directed)
SOURCE_COUNTS = (1, 63, 64, 65, 130)

#: the directed graph on which the old quotient shortcut under-reported
COUNTEREXAMPLE = Network(
    [(i,) for i in range(5)], [0, 2, 1, 4, 0, 3, 3], [1, 1, 4, 0, 3, 2, 4], directed=True
)
COUNTEREXAMPLE_MODULES = np.array([0, 0, 1, 2, 3])


def oracle(net: Network, sources) -> np.ndarray:
    """csgraph hop distances from ``sources`` along out-arcs, ``-1`` unreached."""
    d = csgraph.shortest_path(
        net.adjacency_csr(), directed=True, unweighted=True, indices=np.asarray(sources)
    )
    return np.where(np.isinf(d), -1, d).astype(np.int32)


def sources_for(n: int, count: int) -> np.ndarray:
    """``count`` seeded sources; duplicates whenever ``count > n``."""
    rng = np.random.default_rng(count * 1009 + n)
    return rng.integers(0, n, size=count)


def random_digraph(seed: int) -> Network:
    """Small seeded random digraph (multi-arcs, loops and sinks included)."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(4, 12))
    arcs = int(rng.integers(n, 3 * n))
    return Network(
        [(i,) for i in range(n)], rng.integers(0, n, arcs), rng.integers(0, n, arcs),
        directed=True,
    )


def test_every_registered_family_is_covered():
    assert set(FAMILY_PARAMS) == set(REGISTRY)
    assert {"rotator", "debruijn_ip", "directed-CN(3,Q1)"} <= set(DIRECTED)


# ----------------------------------------------------------------------
# dense mode
# ----------------------------------------------------------------------
class TestDenseMode:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    @pytest.mark.parametrize("count", SOURCE_COUNTS)
    def test_matches_csgraph(self, name, count):
        net = NETWORKS[name]
        src = sources_for(net.num_nodes, count)
        got = bfs_distances(net, src)
        assert got.dtype == np.int32 and got.shape == (count, net.num_nodes)
        assert np.array_equal(got, oracle(net, src))

    @pytest.mark.parametrize("name", DIRECTED)
    def test_directed_is_distance_from_source(self, name):
        net = NETWORKS[name]
        full = bfs_distances(net, np.arange(net.num_nodes))
        assert np.array_equal(full, oracle(net, np.arange(net.num_nodes)))
        # orientation matters on these graphs: the transpose differs
        assert not np.array_equal(full, full.T)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_digraphs(self, seed):
        net = random_digraph(seed)
        src = np.arange(net.num_nodes)
        assert np.array_equal(bfs_distances(net, src), oracle(net, src))

    def test_empty_in_lists_after_the_last_busy_row(self):
        # node 2 has two in-arcs; node 3, the last row, has none
        net = Network([(i,) for i in range(4)], [0, 1, 0], [2, 2, 1], directed=True)
        assert bfs_distances(net, [1]).tolist() == [[-1, 0, 1, -1]]

    def test_raw_sparse_matrix_input(self):
        net = NETWORKS["rotator"]
        src = np.arange(net.num_nodes)
        got = bfs_distances(net.adjacency_csr().tocoo(), src)
        assert np.array_equal(got, oracle(net, src))

    def test_duplicate_sources_get_identical_rows(self):
        net = NETWORKS["hsn"]
        got = bfs_distances(net, [3, 3, 5, 3])
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[3])
        assert np.array_equal(got, oracle(net, [3, 3, 5, 3]))

    def test_zero_arc_graph(self):
        net = Network([(i,) for i in range(4)], [], [])
        got = bfs_distances(net, [0, 2, 2])
        expect = np.full((3, 4), -1, dtype=np.int32)
        expect[[0, 1, 2], [0, 2, 2]] = 0
        assert np.array_equal(got, expect)

    def test_single_node(self):
        net = Network([(0,)], [], [])
        assert bfs_distances(net, [0]).tolist() == [[0]]
        assert eccentricities(net).tolist() == [0]
        assert diameter(net) == 0 and average_distance(net) == 0.0
        s = distance_summary(net)
        assert (s.diameter, s.radius, s.average) == (0, 0, 0.0)

    def test_isolated_node(self):
        # a triangle plus node 3 with no arcs
        net = Network([(i,) for i in range(4)], [0, 1, 2], [1, 2, 0])
        got = bfs_distances(net, [0, 3])
        assert got.tolist() == [[0, 1, 1, -1], [-1, -1, -1, 0]]
        assert not is_connected(net)
        with pytest.raises(ValueError, match="disconnected; eccentricity undefined"):
            eccentricities(net)
        with pytest.raises(ValueError, match="graph is disconnected"):
            average_distance(net)

    def test_no_sources(self):
        got = bfs_distances(NETWORKS["ring"], [])
        assert got.shape == (0, 7) and got.dtype == np.int32

    def test_counters(self):
        obs.reset()
        obs.enable()
        try:
            bfs_distances(NETWORKS["ring"], [0, 1, 2])
            counters = obs.report()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["metrics.bfs.sweeps"] == 1
        assert counters["metrics.bfs.sources"] == 3
        assert counters["metrics.bfs.levels"] == 4  # ring(7): levels 0..3


# ----------------------------------------------------------------------
# reduction mode
# ----------------------------------------------------------------------
class TestReductionMode:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_equals_dense_reductions(self, name):
        net = NETWORKS[name]
        n = net.num_nodes
        d = bfs_distances(net, np.arange(n))
        ecc = d.max(axis=1)
        avg = int(d.sum()) / (n * (n - 1))
        assert np.array_equal(eccentricities(net), ecc)
        assert diameter(net) == int(ecc.max())
        assert average_distance(net) == avg  # exact, float bits included
        s = distance_summary(net)
        assert (s.diameter, s.radius, s.num_nodes) == (int(ecc.max()), int(ecc.min()), n)
        assert s.average == avg

    @pytest.mark.parametrize("chunk", [1, 63, 64, 65, 130])
    def test_chunk_sizes_agree(self, chunk):
        net = NETWORKS["macro_star"]
        d = bfs_distances(net, np.arange(net.num_nodes))
        assert np.array_equal(eccentricities(net, chunk=chunk), d.max(axis=1))
        assert average_distance(net, chunk=chunk) == int(d.sum()) / (
            net.num_nodes * (net.num_nodes - 1)
        )

    @pytest.mark.parametrize("name", ["star", "hypercube", "rotator"])
    def test_vertex_transitive_shortcut(self, name):
        net = NETWORKS[name]
        n = net.num_nodes
        d0 = bfs_distances(net, [0])
        assert diameter(net, assume_vertex_transitive=True) == int(d0.max())
        assert average_distance(net, assume_vertex_transitive=True) == float(d0.sum()) / (n - 1)
        s = distance_summary(net, assume_vertex_transitive=True)
        assert (s.diameter, s.radius) == (int(d0.max()), int(d0.max()))
        assert s.average == float(d0.sum()) / (n - 1)

    def test_eccentricities_of_chosen_sources(self):
        net = NETWORKS["cyclic_petersen"]
        src = sources_for(net.num_nodes, 130)
        assert np.array_equal(eccentricities(net, sources=src), oracle(net, src).max(axis=1))

    def test_sampled_average_equals_dense(self):
        net = NETWORKS["hhn"]
        n = net.num_nodes
        src = np.random.default_rng(7).choice(n, size=40, replace=False)
        d = bfs_distances(net, src)
        got = approx_average_distance(net, 40, np.random.default_rng(7))
        assert got == float(d.sum()) / (40 * (n - 1))


# ----------------------------------------------------------------------
# 0/1 mode
# ----------------------------------------------------------------------
def _assignments():
    cases = {}
    for l in (2, 3):
        g = build("hsn", l=l, n=2)
        cases[f"nucleus-hsn({l},2)"] = nucleus_modules(g)
    g = build("hsn", l=2, n=3)
    for size in (2, 3, 5):
        cases[f"split-hsn(2,3)<={size}"] = split_modules(nucleus_modules(g), size)
    for stripes in (2, 3):
        r = ring(12)
        cases[f"ring-stripes-{stripes}"] = ModuleAssignment(r, np.arange(12) % stripes)
    cases["ring-contiguous"] = contiguous_modules(ring(12), 4)
    for seed, name in enumerate(
        ["petersen", "ccc", "hse", "rotator", "debruijn-directed", "directed-CN(3,Q1)",
         "debruijn_ip", "kautz-directed"]
    ):
        net = NETWORKS[name]
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, max(3, net.num_nodes // 3)))
        cases[f"random-{name}"] = ModuleAssignment(net, rng.integers(0, k, net.num_nodes))
    for seed in range(30):
        # modules entered at one strong component and left from another
        # exercise the cost-0 closure
        net = random_digraph(seed)
        modules = np.random.default_rng(seed).integers(0, net.num_nodes // 2, net.num_nodes)
        cases[f"random-digraph-{seed}"] = ModuleAssignment(net, modules)
    cases["directed-counterexample"] = ModuleAssignment(COUNTEREXAMPLE, COUNTEREXAMPLE_MODULES)
    return cases


ASSIGNMENTS = _assignments()


class TestZeroOneMode:
    @pytest.mark.parametrize("case", sorted(ASSIGNMENTS))
    def test_matches_zero_one_bfs(self, case):
        ma = ASSIGNMENTS[case]
        got = intercluster_distances(ma)
        assert got.dtype == np.int32
        assert got.shape == (ma.num_modules, ma.num_modules)
        assert np.array_equal(got, zero_one_intermodule_distances(ma))

    def test_directed_counterexample_pinned(self):
        """Module 0 is strongly disconnected (0 -> 1 only); reaching module 2
        from module 1 needs 1 -> 4 -> 0 -> 3 -> 2, four off-module arcs."""
        ma = ModuleAssignment(COUNTEREXAMPLE, COUNTEREXAMPLE_MODULES)
        assert not ma.modules_internally_connected()
        assert intercluster_distances(ma).tolist() == [
            [0, 2, 1, 1],
            [1, 0, 4, 2],
            [2, 1, 0, 1],
            [1, 3, 2, 0],
        ]

    def test_closure_over_free_arcs_between_components(self):
        """Module 1 = {1, 2} with only 1 -> 2 inside: entered at 1, left
        from 2, so reaching module 2 from module 0 crosses it for free."""
        net = Network([(i,) for i in range(4)], [0, 1, 2], [1, 2, 3], directed=True)
        ma = ModuleAssignment(net, np.array([0, 1, 1, 2]))
        assert intercluster_distances(ma).tolist() == [[0, 1, 2], [-1, 0, 1], [-1, -1, 0]]

    def test_unreachable_module_is_minus_one(self):
        # two triangles, one module each plus a singleton module
        net = Network.from_edge_list(
            [(i,) for i in range(7)], [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        ma = ModuleAssignment(net, np.array([0, 0, 0, 1, 1, 1, 2]))
        got = intercluster_distances(ma)
        assert np.array_equal(got, zero_one_intermodule_distances(ma))
        assert got.tolist() == [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]
        with pytest.raises(ValueError, match="disconnected across modules"):
            intercluster_summary(ma)

    @pytest.mark.parametrize("case", sorted(ASSIGNMENTS))
    def test_internally_connected_is_strong_connectivity(self, case):
        ma = ASSIGNMENTS[case]
        csr = ma.net.adjacency_csr()
        expect = True
        for m in range(ma.num_modules):
            nodes = ma.members(m)
            sub = csr[nodes][:, nodes]
            ncomp, _ = csgraph.connected_components(sub, directed=True, connection="strong")
            expect &= ncomp == 1
        assert ma.modules_internally_connected() == expect

    def test_summary_computes_the_matrix_once(self, monkeypatch):
        calls = []
        real = clustering.intercluster_distances

        def counting(assignment):
            calls.append(assignment)
            return real(assignment)

        monkeypatch.setattr(clustering, "intercluster_distances", counting)
        g = build("hsn", l=2, n=3)
        clustering.intercluster_summary(nucleus_modules(g))
        assert len(calls) == 1
        measure_costs(g, nucleus_modules(g))
        assert len(calls) == 2


# ----------------------------------------------------------------------
# next-hop tables built on the dense kernel
# ----------------------------------------------------------------------
def oracle_table(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-id neighbour one step closer to each destination."""
    n = net.num_nodes
    dist = oracle(net, np.arange(n))
    csr = net.adjacency_csr()
    table = np.empty((n, n), dtype=np.int32)
    for dst in range(n):
        for u in range(n):
            nbrs = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
            closer = nbrs[dist[dst, nbrs] == dist[dst, u] - 1]
            table[dst, u] = dst if u == dst else closer.min()
    return table, dist


class TestNextHopTable:
    @pytest.mark.parametrize("name", UNDIRECTED)
    def test_matches_csgraph_tables(self, name):
        net = NETWORKS[name]
        table, dist = oracle_table(net)
        built = NextHopTable(net, with_distances=True)
        assert np.array_equal(built.table, table)
        assert np.array_equal(built.dist, dist)

    @pytest.mark.parametrize("name", DIRECTED)
    def test_directed_tables_follow_out_arcs(self, name):
        net = NETWORKS[name]
        n = net.num_nodes
        built = NextHopTable(net, with_distances=True)  # strict: must not raise
        assert (built.table >= 0).all()
        # dist[dst, u] is the hop count from u to dst along out-arcs
        assert np.array_equal(built.dist, oracle(net, np.arange(n)).T)
        csr = net.adjacency_csr()
        for dst in range(n):
            for u in range(n):
                v = int(built.table[dst, u])
                if u == dst:
                    assert v == dst
                    continue
                assert v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
                assert built.dist[dst, v] == built.dist[dst, u] - 1

    def test_isolated_tail_keeps_the_last_arc(self):
        # nodes 2 and 4 are isolated; node 3 is the last node with arcs
        net = Network([(i,) for i in range(5)], [0, 1, 0], [3, 3, 1])
        built = NextHopTable(net, allow_unreachable=True)
        assert built.table.tolist() == [
            [0, 0, -1, 0, -1],
            [1, 1, -1, 1, -1],
            [-1, -1, 2, -1, -1],
            [3, 3, -1, 3, -1],
            [-1, -1, -1, -1, 4],
        ]

    def test_disconnected_message_unchanged(self):
        net = Network.from_edge_list(
            [(i,) for i in range(6)],
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
            name="two-triangles",
        )
        with pytest.raises(RoutingError) as err:
            NextHopTable(net)
        assert str(err.value) == (
            "network 'two-triangles' is disconnected: node 3 cannot reach node 0 "
            "(and possibly others); pass allow_unreachable=True to route within "
            "components"
        )

    def test_isolated_message_unchanged(self):
        net = Network([(i,) for i in range(4)], [0, 1, 2], [1, 2, 0], name="tri+1")
        with pytest.raises(RoutingError) as err:
            NextHopTable(net)
        assert str(err.value) == (
            "cannot build a next-hop table on 'tri+1': node 3 is isolated (no arcs); "
            "pass allow_unreachable=True to route within components"
        )
