"""The benchmark's own tests: smoke-size runs emit every declared metric,
and corrupted outputs are counted as failed.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_declared_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == child.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == child.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    code, out = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", str(trace), "--size", "smoke",
    )
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def _serve_oracle(n=3):
    from repro import networks
    from repro.routing.table import NextHopTable
    from repro.serve import RouteService

    net = networks.build("hsn", l=2, n=n)
    svc = RouteService.from_table(NextHopTable(net, with_distances=True))
    adj = workloads.oracle_adjacency(net)
    dist = workloads.oracle_distances(adj, np.arange(net.num_nodes))
    rng = np.random.default_rng(0)
    src = rng.integers(0, net.num_nodes, 300)
    dst = rng.integers(0, net.num_nodes, 300)
    return svc.resolve(src, dst, paths=True), adj.toarray() > 0, dist


def test_flipped_next_hop_counts_as_failed():
    batch, arcs, dist = _serve_oracle()
    rng = np.random.default_rng(1)
    assert workloads.check_batch(batch, arcs, dist, rng, len(batch)) == (len(batch), 0)
    i = int(np.flatnonzero(batch.src != batch.dst)[0])
    hops = batch.next_hop.copy()
    hops[i] = batch.src[i]  # a node is never its own next hop
    bad = dataclasses.replace(batch, next_hop=hops)
    attempted, failed = workloads.check_batch(bad, arcs, dist, rng, len(batch))
    assert attempted == len(batch) and failed == 1


def test_corrupted_path_counts_as_failed():
    batch, arcs, dist = _serve_oracle()
    i = int(np.argmax(batch.distance))
    paths = batch.paths.copy()
    paths[i, 1] = paths[i, 0]
    bad = dataclasses.replace(batch, paths=paths)
    _, failed = workloads.check_batch(bad, arcs, dist, np.random.default_rng(1), len(batch))
    assert failed == 1


def test_wrong_cost_row_counts_as_failed(tmp_path):
    wl = workloads.Evaluate("smoke", 0, tmp_path)
    wl.setup()
    costs, split = wl.iteration()
    assert wl.check([(costs, split)]) == (10, 0)
    wrong = dataclasses.replace(costs, diameter=costs.diameter + 1)
    assert wl.check([(wrong, split)]) == (10, 1)


def test_wrong_node_count_counts_as_failed(tmp_path):
    wl = workloads.Construct("smoke", 0, tmp_path)
    wl.setup()
    out = wl.iteration()
    attempted, failed = wl.check([out])
    assert failed == 0
    out[0]["num_nodes"] += 1
    assert wl.check([out]) == (attempted, 1)


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "bench.iteration", "t0": 0.0, "t1": 10.0, "dur": 10.0, "depth": 0},
        {"name": "bench.metrics.a", "t0": 1.0, "t1": 5.0, "dur": 4.0, "depth": 1},
        {"name": "bench.core.b", "t0": 2.0, "t1": 3.0, "dur": 1.0, "depth": 2},
        {"name": "routing.c", "t0": 6.0, "t1": 8.0, "dur": 2.0, "depth": 1},
    ]
    tracing.attach_self_time(spans)
    assert [s["self"] for s in spans] == [4.0, 3.0, 1.0, 2.0]
    layers = tracing.layer_self_times(spans)
    assert layers["metrics"] == 3.0 and layers["core"] == 1.0
    assert layers["routing"] == 2.0 and layers["unspanned"] == 4.0
