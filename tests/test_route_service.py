"""Tests for the route-serving layer (repro.serve) and the NextHopTable
query-path hardening that shipped with it: batched-vs-scalar bit-identity,
mmap round-trips and shard routing, multi-worker shared-table determinism,
and the id/chunk/shape validation bugfixes pinned by exact message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache, networks, obs
from repro.cache import cached_next_hop_table
from repro.core.network import Network, RoutingError
from repro.routing.table import NextHopTable
from repro.serve import (
    ResolveBatch,
    RouteService,
    ServiceSpec,
    merge_batches,
    parallel_resolve,
    run_load_test,
    seeded_queries,
    shard_row_starts,
    verify_against_scalar,
    worker_backends,
)


@pytest.fixture()
def disk_cache(tmp_path):
    """A fresh artifact cache installed as the process default
    (``min_nodes=1`` so the tiny test instances are cached too)."""
    store = cache.configure(tmp_path / "cache", min_nodes=1)
    try:
        yield store
    finally:
        cache.set_cache(None)


@pytest.fixture()
def counters():
    """Enabled obs registry; yields a callable returning current counters."""
    obs.reset()
    obs.enable()
    try:
        yield lambda: dict(obs.report()["counters"])
    finally:
        obs.disable()
        obs.reset()


def _split_graph() -> Network:
    """Two components (0-1 and 2-3) for unreachable-pair tests."""
    return Network.from_edge_list(
        [(i,) for i in range(4)], [(0, 1), (2, 3)], name="split"
    )


# ----------------------------------------------------------------------
# NextHopTable query-path hardening (the bugfix satellites)
# ----------------------------------------------------------------------
def test_query_rejects_out_of_range_ids_exact_message():
    t = NextHopTable(networks.ring(8), with_distances=True)
    with pytest.raises(
        ValueError,
        match=r"source node id -1 is out of range for 'ring\(8\)' \(valid ids: 0\.\.7\)",
    ):
        t.next_hop(-1, 3)
    with pytest.raises(
        ValueError,
        match=r"destination node id 8 is out of range for 'ring\(8\)' \(valid ids: 0\.\.7\)",
    ):
        t.next_hop(0, 8)


def test_all_query_methods_validate_both_roles():
    t = NextHopTable(networks.ring(8), with_distances=True)
    for fn in (t.next_hop, t.distance, t.next_hops, t.path):
        with pytest.raises(ValueError, match="source node id -1 is out of range"):
            fn(-1, 0)
        with pytest.raises(ValueError, match="destination node id 99 is out of range"):
            fn(0, 99)
    # valid queries still behave
    assert t.next_hop(0, 2) == 1
    assert t.distance(0, 4) == 4
    assert t.path(0, 2) == [0, 1, 2]
    assert t.next_hops(0, 4) == [1, 7]


def test_negative_id_no_longer_wraps_around():
    # the old behavior: table[-1, ...] silently read node n-1's row
    t = NextHopTable(networks.ring(8))
    with pytest.raises(ValueError, match="out of range"):
        t.path(2, -1)


def test_nonpositive_chunk_rejected_exact_message():
    g = networks.ring(8)
    with pytest.raises(
        ValueError, match="chunk must be a positive BFS batch size, got -1"
    ):
        NextHopTable(g, chunk=-1)
    with pytest.raises(
        ValueError, match="chunk must be a positive BFS batch size, got 0"
    ):
        NextHopTable(g, chunk=0)
    # chunk=1 is the smallest legal batch and must build a correct table
    assert np.array_equal(NextHopTable(g, chunk=1).table, NextHopTable(g).table)


def test_from_arrays_validates_dist_shape_exact_message():
    g = networks.ring(8)
    t = NextHopTable(g, with_distances=True)
    with pytest.raises(
        ValueError,
        match=r"distance matrix shape \(4, 4\) does not match 'ring\(8\)' \(8 nodes\)",
    ):
        NextHopTable.from_arrays(g, t.table, dist=np.zeros((4, 4), dtype=np.int32))
    # a matching dist still round-trips
    rt = NextHopTable.from_arrays(g, t.table, dist=t.dist)
    assert rt.distance(0, 4) == 4


def test_cached_table_hit_restores_usable_dist(disk_cache):
    g = networks.build("hypercube", n=4)
    t1 = cached_next_hop_table(g, with_distances=True)
    t2 = cached_next_hop_table(g, with_distances=True)  # cache hit
    ref = NextHopTable(g, with_distances=True)
    for u, dst in [(0, 15), (3, 12), (7, 7)]:
        assert t2.distance(u, dst) == ref.distance(u, dst)
        assert t2.next_hops(u, dst) == ref.next_hops(u, dst)
    assert np.array_equal(t1.dist, t2.dist)


def test_cached_table_miss_materializes_arrays_once(disk_cache, monkeypatch):
    calls = []
    orig = NextHopTable.to_arrays

    def counting(self):
        calls.append(1)
        return orig(self)

    monkeypatch.setattr(NextHopTable, "to_arrays", counting)
    obs.reset()
    obs.enable()  # artifact sink active: the old code called to_arrays twice
    try:
        g = networks.build("hypercube", n=4)
        cached_next_hop_table(g, with_distances=True)
    finally:
        obs.disable()
        obs.reset()
    assert len(calls) == 1


# ----------------------------------------------------------------------
# RouteService: batched vs scalar bit-identity
# ----------------------------------------------------------------------
FUZZ_NETS = [
    ("ring", dict(n=17)),
    ("hypercube", dict(n=5)),
    ("hsn_hypercube", dict(l=2, n=3)),
]


@pytest.mark.parametrize("family,params", FUZZ_NETS)
def test_resolve_bit_identical_to_scalar_walk(family, params):
    net = getattr(networks, family)(**params)
    table = NextHopTable(net, with_distances=True)
    svc = RouteService.from_table(table)
    src, dst = seeded_queries(net.num_nodes, 400, seed=11)
    batch = svc.resolve(src, dst, paths=True)
    assert len(batch) == 400
    for i in range(len(batch)):
        s, d = int(src[i]), int(dst[i])
        assert batch.path_list(i) == table.path(s, d)
        assert int(batch.distance[i]) == table.distance(s, d)
        expect_hop = d if s == d else table.next_hop(s, d)
        assert int(batch.next_hop[i]) == expect_hop


def test_resolve_on_directed_rotator_follows_out_arcs():
    net = networks.build("rotator", n=4)
    svc = RouteService.from_table(NextHopTable(net, with_distances=True))
    n = net.num_nodes
    src, dst = np.divmod(np.arange(n * n), n)
    batch = svc.resolve(src, dst, paths=True)
    csr = net.adjacency_csr()
    for i in range(len(batch)):
        path = batch.path_list(i)
        assert path[0] == src[i] and path[-1] == dst[i]
        assert len(path) - 1 == batch.distance[i]
        for u, v in zip(path, path[1:]):
            assert v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]]


def test_verify_against_scalar_helper_counts(disk_cache):
    net = networks.build("hypercube", n=4)
    table = cached_next_hop_table(net, with_distances=True)
    svc = RouteService.open(net)
    src, dst = seeded_queries(net.num_nodes, 500, seed=2)
    checked, mismatches = verify_against_scalar(svc, table, src, dst, sample=100)
    assert checked == 100
    assert mismatches == 0


def test_resolve_without_stored_distances_walks_table():
    net = networks.hypercube(4)
    table = NextHopTable(net)  # no dist matrix
    svc = RouteService.from_table(table)
    assert not svc.has_distances
    ref = NextHopTable(net, with_distances=True)
    src, dst = seeded_queries(net.num_nodes, 200, seed=5)
    got = svc.distances(src, dst)
    want = np.array([ref.distance(int(s), int(d)) for s, d in zip(src, dst)])
    assert np.array_equal(got, want)


def test_resolve_validates_ids_and_lengths():
    svc = RouteService.from_table(NextHopTable(networks.ring(8)))
    with pytest.raises(
        ValueError,
        match=r"source node id -3 at position 1 is out of range for "
        r"'ring\(8\)' \(valid ids: 0\.\.7\)",
    ):
        svc.resolve([0, -3, 2], [1, 1, 1])
    with pytest.raises(
        ValueError, match="destination node id 8 at position 0 is out of range"
    ):
        svc.resolve([0], [8])
    with pytest.raises(ValueError, match="same length"):
        svc.resolve([0, 1], [2])


def test_resolve_unreachable_raises_routing_error():
    net = _split_graph()
    table = NextHopTable(net, with_distances=True, allow_unreachable=True)
    svc = RouteService.from_table(table)
    ok = svc.resolve([0, 2], [1, 3], paths=True)
    assert ok.path_lists() == [[0, 1], [2, 3]]
    with pytest.raises(
        RoutingError, match=r"no route from node 0 to node 3 in 'split'"
    ):
        svc.resolve([1, 0], [0, 3])


def test_resolve_batch_path_helpers():
    svc = RouteService.from_table(NextHopTable(networks.ring(6), with_distances=True))
    batch = svc.resolve([2, 4], [2, 1], paths=True)
    assert batch.path_list(0) == [2]
    assert batch.path_list(1) == [4, 3, 2, 1]  # smallest-id tie-break
    no_paths = svc.resolve([0], [1])
    with pytest.raises(ValueError, match="without paths=True"):
        no_paths.path_list(0)


# ----------------------------------------------------------------------
# mmap round-trip and sharding
# ----------------------------------------------------------------------
def test_open_is_mmap_backed_and_round_trips(disk_cache, counters):
    net = networks.build("hsn", l=2, n=3)
    svc = RouteService.open(net)
    assert svc.source == "mmap"
    assert svc.mmap_backed  # every block is an np.memmap view
    assert counters().get("serve.open.mmap", 0) == 1
    # a second open maps the same spills without rebuilding
    before = counters().get("routing.table.builds", 0)
    svc2 = RouteService.open(net)
    assert svc2.mmap_backed
    assert counters().get("routing.table.builds", 0) == before
    src, dst = seeded_queries(net.num_nodes, 300, seed=1)
    a, b = svc.resolve(src, dst, paths=True), svc2.resolve(src, dst, paths=True)
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.paths, b.paths)


def test_open_without_cache_falls_back_to_memory(counters):
    assert cache.get_cache() is None
    svc = RouteService.open(networks.hypercube(4))
    assert svc.source == "memory"
    assert not svc.mmap_backed
    assert counters().get("serve.open.memory", 0) == 1
    with pytest.raises(ValueError, match="not mmap-backed"):
        svc.spec()


def test_shard_row_starts_partitions():
    assert shard_row_starts(10, 1) == (0, 10)
    assert shard_row_starts(10, 4) == (0, 2, 5, 7, 10)
    assert shard_row_starts(3, 3) == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
        shard_row_starts(10, 0)


def test_shard_row_starts_rejects_more_shards_than_rows_exact_message():
    # the old behavior silently clamped 8 shards to 3, hiding the
    # misconfiguration (and producing fewer spills than requested)
    with pytest.raises(
        ValueError,
        match=r"shards must be <= num_nodes \(3\), got 8: more shards than "
        r"dst rows would create empty shard blocks",
    ):
        shard_row_starts(3, 8)
    with pytest.raises(ValueError, match=r"shards must be <= num_nodes \(0\), got 1"):
        shard_row_starts(0, 1)


def test_resolve_rejects_empty_queries_exact_message():
    svc = RouteService.from_table(NextHopTable(networks.ring(8)))
    with pytest.raises(
        ValueError,
        match=r"source ids are empty: resolve\(\) requires at least one query",
    ):
        svc.resolve([], [])
    with pytest.raises(
        ValueError,
        match=r"destination ids are empty: resolve\(\) requires at least one query",
    ):
        svc.resolve([0], np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="source ids are empty"):
        svc.distances([], [0])


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_sharded_resolve_matches_unsharded(disk_cache, shards):
    net = networks.build("hsn", l=2, n=3)
    flat = RouteService.open(net)
    sharded = RouteService.open(net, shards=shards)
    assert sharded.shards == shards
    assert sharded.mmap_backed
    src, dst = seeded_queries(net.num_nodes, 500, seed=3)
    a = flat.resolve(src, dst, paths=True)
    b = sharded.resolve(src, dst, paths=True)
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.paths, b.paths)


def test_spec_round_trip_reopens_mmap(disk_cache):
    net = networks.build("hypercube", n=5)
    svc = RouteService.open(net, shards=2)
    spec = svc.spec()
    assert isinstance(spec, ServiceSpec)
    assert spec.num_nodes == 32 and len(spec.table_paths) == 2
    clone = RouteService.from_spec(spec)
    assert clone.mmap_backed
    src, dst = seeded_queries(net.num_nodes, 200, seed=9)
    a, b = svc.resolve(src, dst), clone.resolve(src, dst)
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)


def test_corrupt_spill_falls_back_to_memory(disk_cache, counters):
    net = networks.build("hypercube", n=4)
    RouteService.open(net)  # writes the spills
    for spill in disk_cache.root.glob("*/*.npy"):
        spill.write_bytes(b"garbage")
    svc = RouteService.open(net)
    assert svc.source == "memory"
    assert counters().get("cache.error", 0) >= 1
    ref = NextHopTable(net, with_distances=True)
    src, dst = seeded_queries(net.num_nodes, 100, seed=0)
    want = np.array([ref.distance(int(s), int(d)) for s, d in zip(src, dst)])
    assert np.array_equal(svc.distances(src, dst), want)


def test_load_mmap_arrays_are_read_only(disk_cache):
    from repro.cache import cache_key

    key = cache_key("serve.shard.test", probe=1)
    disk_cache.export_mmap(key, {"table": np.arange(12, dtype=np.int32)})
    arr = disk_cache.load_mmap(key, "table")
    assert isinstance(arr, np.memmap)
    assert arr.flags.writeable is False
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = 99


def test_from_spec_blocks_are_read_only_and_resolve_never_copies(disk_cache):
    net = networks.build("hypercube", n=5)
    spec = RouteService.open(net, shards=2).spec()
    svc = RouteService.from_spec(spec)
    blocks = svc._blocks + (svc._dist_blocks or [])
    for b in blocks:
        assert isinstance(b, np.memmap)
        assert b.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            b[0, 0] = 1
    # a full resolve (gathers + path materialization) must not trigger a
    # copy-on-write of any shard: the same read-only memmaps stay in place
    src, dst = seeded_queries(net.num_nodes, 500, seed=6)
    svc.resolve(src, dst, paths=True)
    for before, after in zip(blocks, svc._blocks + (svc._dist_blocks or [])):
        assert after is before
        assert isinstance(after, np.memmap)
        assert after.flags.writeable is False


def test_cache_clear_removes_spills(disk_cache):
    net = networks.build("hypercube", n=4)
    RouteService.open(net)
    assert list(disk_cache.root.glob("*/*.npy"))
    disk_cache.clear()
    assert not list(disk_cache.root.glob("*/*.npy"))


# ----------------------------------------------------------------------
# multi-worker shared-table determinism
# ----------------------------------------------------------------------
def test_parallel_resolve_bit_identical_at_jobs_4(disk_cache):
    net = networks.build("hsn", l=2, n=3)
    svc = RouteService.open(net, shards=2)
    src, dst = seeded_queries(net.num_nodes, 2_000, seed=4)
    serial = parallel_resolve(svc, src, dst, jobs=1, batch=300, paths=True)
    fanned = parallel_resolve(svc, src, dst, jobs=4, batch=300, paths=True)
    assert np.array_equal(serial.next_hop, fanned.next_hop)
    assert np.array_equal(serial.distance, fanned.distance)
    assert np.array_equal(serial.paths, fanned.paths)
    assert np.array_equal(serial.src, src) and np.array_equal(serial.dst, dst)


def test_workers_share_table_via_mmap(disk_cache):
    net = networks.build("hypercube", n=5)
    svc = RouteService.open(net, shards=2)
    probes = worker_backends(svc, jobs=4)
    assert probes  # at least one worker answered
    assert all(p == {"mmap": True, "shards": 2} for p in probes)


def test_parallel_resolve_requires_spec_for_fanout():
    svc = RouteService.from_table(NextHopTable(networks.ring(8)))
    # serial path never needs a spec
    out = parallel_resolve(svc, [0, 1], [4, 5], jobs=1)
    assert out.distance.tolist() == [4, 4]
    with pytest.raises(ValueError, match="not mmap-backed"):
        parallel_resolve(svc, list(range(8)), list(range(8)), jobs=2, batch=2)


def test_merge_batches_validates_and_pads():
    with pytest.raises(ValueError, match="empty batch list"):
        merge_batches([])
    svc = RouteService.from_table(NextHopTable(networks.ring(8)))
    a = svc.resolve([0], [1], paths=True)  # width 2
    b = svc.resolve([0], [4], paths=True)  # width 5
    merged = merge_batches([a, b])
    assert isinstance(merged, ResolveBatch)
    assert merged.paths.shape == (2, 5)
    assert merged.path_lists() == [[0, 1], [0, 1, 2, 3, 4]]


# ----------------------------------------------------------------------
# load harness + CLI
# ----------------------------------------------------------------------
def test_run_load_test_report(disk_cache):
    net = networks.build("hypercube", n=4)
    table = cached_next_hop_table(net, with_distances=True)
    svc = RouteService.open(net)
    rep = run_load_test(
        svc, table, queries=2_000, batch=500, seed=0, verify_sample=200
    )
    assert rep["queries"] == 2_000 and rep["batches"] == 4
    assert rep["mmap"] is True and rep["backend"] == "mmap"
    assert rep["verified"] == 200 and rep["mismatches"] == 0
    assert rep["qps"] > 0 and rep["p99_ms"] >= rep["p50_ms"] >= 0


def test_seeded_queries_are_deterministic():
    a_src, a_dst = seeded_queries(32, 100, seed=7)
    b_src, b_dst = seeded_queries(32, 100, seed=7)
    c_src, c_dst = seeded_queries(32, 100, seed=8)
    assert np.array_equal(a_src, b_src) and np.array_equal(a_dst, b_dst)
    assert not (np.array_equal(a_src, c_src) and np.array_equal(a_dst, c_dst))
    assert a_src.min() >= 0 and a_src.max() < 32


def test_cli_serve_bench_smoke(tmp_path, capsys):
    from repro.__main__ import main

    d = str(tmp_path / "c")
    try:
        rc = main(
            ["serve", "bench", "--network", "hypercube", "--param", "n=4",
             "--cache-dir", d, "--queries", "2000", "--batch", "500",
             "--verify-sample", "200"]
        )
    finally:
        cache.set_cache(None)
    assert rc == 0
    out = capsys.readouterr().out
    assert '"mismatches": 0' in out
    assert '"backend": "mmap"' in out


def test_cli_serve_query(capsys):
    from repro.__main__ import main

    assert main(
        ["serve", "query", "--network", "ring", "--param", "n=8",
         "--src", "0", "--dst", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 -> 3" in out and "[0, 1, 2, 3]" in out


def test_cli_serve_bench_jobs_requires_cache():
    from repro.__main__ import main

    with pytest.raises(SystemExit, match="--cache-dir"):
        main(
            ["serve", "bench", "--network", "ring", "--param", "n=8",
             "--jobs", "2", "--queries", "100", "--batch", "50"]
        )
