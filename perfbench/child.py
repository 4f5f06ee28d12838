"""Runs one workload in this (fresh) process and prints its result.

Started by ``run.py`` with the thread caps and environment set.  Prints one
JSON line with ``correct``, ``attempted``, ``failed``, ``metrics`` and
``report`` (every figure by name and unit, for the table ``run.py`` prints).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "networks.build_s": "s",
    "core.closure_nodes_per_s": "nodes/s",
    "core.network.csr_s": "s",
    "core.network.label_roundtrip_s": "s",
    "metrics.distances.diameter_s": "s",
    "metrics.distances.average_distance_s": "s",
    "metrics.distances.bfs_sources": "count",
    "metrics.distances.sources_per_s": "sources/s",
    "metrics.distances.bytes_computed": "bytes",
    "metrics.clustering.nucleus_s": "s",
    "metrics.clustering.split_s": "s",
    "routing.table.build_s": "s",
    "routing.table.rows_per_s": "rows/s",
    "routing.table.bytes_computed": "bytes",
    "sim.ctor_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "events/s",
    "sim.max_queue_depth": "count",
    "serve.open_s": "s",
    "serve.spill_bytes": "bytes",
    "cache.spill_s": "s",
    "cache.store_s": "s",
    "serve.resolve_hops_qps": "queries/s",
    "serve.resolve_paths_qps": "queries/s",
    "serve.batch_p50_ms": "ms",
    "serve.batch_p99_ms": "ms",
    "serve.batches": "count",
    "self.networks_s": "s",
    "self.core_s": "s",
    "self.metrics_s": "s",
    "self.routing_s": "s",
    "self.sim_s": "s",
    "self.serve_s": "s",
    "self.cache_s": "s",
    "self.unspanned_s": "s",
    "trace.overhead_frac": "ratio",
}


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def settle() -> None:
    """Start each timed unit from the same state: the program's in-process
    LRU caches empty and no garbage left for the collector."""
    from repro.cache import clear_memory_caches

    clear_memory_caches()
    gc.collect()


def timed_setups(wl, reps: int) -> list[float]:
    """Set the workload up ``reps`` times from cold; returns each time."""
    times = []
    for _ in range(reps):
        settle()
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        wl.make_inputs()
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(wl, seconds: float, around=None):
    """Repeat ``wl.iteration()`` until ``seconds`` have passed (at least once).

    ``around`` (traced runs) is called before each iteration and returns a
    context manager the iteration runs in.  Returns ``(times, outputs, error,
    peak)``: an exception ends the loop and is returned as ``error``, and
    ``peak`` is the peak RSS in MiB after the first iteration.  Later
    iterations can grow the heap a little each, so the peak is read at that
    fixed point rather than at the end, which depends on the run's length.
    """
    times, outputs, peak = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        settle()
        try:
            if around is None:
                t0 = time.perf_counter()
                out = wl.iteration()
                dt = time.perf_counter() - t0
            else:
                with around():
                    t0 = time.perf_counter()
                    out = wl.iteration()
                    dt = time.perf_counter() - t0
        except Exception as exc:  # a raised output counts as a failed one
            return times, outputs, exc, peak
        times.append(dt)
        outputs.append(out)
        if peak is None:
            peak = peak_rss_mb()
        if time.perf_counter() >= deadline:
            return times, outputs, None, peak


def per_layer(spans, rep, passes, wl, base_run_s, traced_run_s, untraced_extra):
    """Every ``PER_LAYER`` metric, per traced pass (one set-up + one iteration).

    A layer the workload never enters reads 0.
    """
    from tracing import layer_self_times, totals

    by = totals(spans)

    def dur(name):
        return by[name]["dur"] if name in by else 0.0

    def attr(name, key):
        return by[name]["attrs"].get(key, 0) if name in by else 0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    counters, gauges = rep["counters"], rep["gauges"]
    clustering = {"nucleus": 0.0, "split": 0.0}
    for s in spans:
        if s["name"] == "bench.metrics.clustering.intercluster_distances":
            kind = "split" if "|<=" in s["attrs"]["assignment"] else "nucleus"
            clustering[kind] += s["dur"]
    table_n2 = sum(
        s["attrs"]["n"] ** 2 for s in spans if s["name"] == "routing.table.build"
    )
    hops, paths = "bench.serve.resolve_hops", "bench.serve.resolve_paths"
    m = {
        "networks.build_s": dur("bench.networks.build"),
        "core.closure_nodes_per_s": rate(
            attr("closure.build.fast", "nodes"), dur("closure.build.fast")
        ),
        "core.network.csr_s": dur("bench.core.network.adjacency_csr"),
        "core.network.label_roundtrip_s": dur("bench.core.network.label_roundtrip"),
        "metrics.distances.diameter_s": dur("bench.metrics.distances.diameter"),
        "metrics.distances.average_distance_s": dur(
            "bench.metrics.distances.average_distance"
        ),
        "metrics.distances.bfs_sources": attr("bench.metrics.distances.bfs", "sources"),
        "metrics.distances.sources_per_s": rate(
            attr("bench.metrics.distances.bfs", "sources"), dur("bench.metrics.distances.bfs")
        ),
        "metrics.distances.bytes_computed": attr("bench.metrics.distances.bfs", "bytes"),
        "metrics.clustering.nucleus_s": clustering["nucleus"],
        "metrics.clustering.split_s": clustering["split"],
        "routing.table.build_s": dur("routing.table.build"),
        "routing.table.rows_per_s": rate(
            attr("routing.table.build", "n"), dur("routing.table.build")
        ),
        # int32 next-hop table, plus the int32 distance matrix when kept
        "routing.table.bytes_computed": table_n2 * 4 * wl.table_arrays,
        "sim.ctor_s": dur("bench.sim.ctor"),
        "sim.run_s": dur("bench.sim.run"),
        "sim.events": counters.get("sim.events", 0),
        "sim.events_per_s": gauges.get("sim.events_per_sec", 0.0),
        "sim.max_queue_depth": gauges.get("sim.max_queue_depth", 0),
        "serve.open_s": dur("bench.serve.open"),
        "serve.spill_bytes": wl.spill_bytes(),
        "cache.spill_s": dur("bench.cache.export_mmap"),
        "cache.store_s": dur("bench.cache.store"),
        "serve.resolve_hops_qps": rate(attr(hops, "queries"), dur(hops)),
        "serve.resolve_paths_qps": rate(attr(paths, "queries"), dur(paths)),
        "serve.batch_p50_ms": untraced_extra.get("serve_batch_p50_ms", (0.0,))[0],
        "serve.batch_p99_ms": untraced_extra.get("serve_batch_p99_ms", (0.0,))[0],
        "serve.batches": untraced_extra.get("serve_batches", (0,))[0],
        "trace.overhead_frac": traced_run_s / base_run_s - 1.0,
    }
    for layer, seconds in layer_self_times(spans).items():
        m[f"self.{layer}_s"] = seconds
    # totals over the traced phase -> per pass (rates and gauges excepted)
    per_pass = {
        k for k, u in PER_LAYER.items() if u in ("s", "count", "bytes")
    } - {"sim.max_queue_depth", "serve.batches", "serve.spill_bytes"}
    return {
        k: {"value": m[k] / passes if k in per_pass else m[k], "unit": u}
        for k, u in PER_LAYER.items()
    }


def end_to_end(wl, setup_times, times, outputs, peak) -> dict:
    """Every ``END_TO_END`` metric of the untraced loop."""
    nan = float("nan")
    values = {
        "setup_s": median(setup_times),
        "run_s": median(times) if times else nan,
        "items_per_s": median([wl.items(o) / t for o, t in zip(outputs, times)])
        if outputs
        else nan,
        "peak_rss_mb": peak if peak is not None else peak_rss_mb(),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](size, seed, SCRATCH)
    try:
        setup_times = timed_setups(wl, wl.setup_reps)
        budget = seconds / 2 if trace else seconds
        times, outputs, error, peak = timed_loop(wl, budget)
        extra = wl.extra_metrics(outputs, times) if outputs else {}
        layers, traced_outputs = None, []
        if trace and error is None:
            layers, traced_outputs, error = traced_phase(wl, budget, median(times), extra)
        checked = outputs + traced_outputs
        attempted, failed = wl.check(checked) if checked else (0, 0)
        if error is not None:
            print(f"{name}: iteration raised {error!r}", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
    finally:
        wl.teardown()
    if layers is not None:
        metrics = layers
        report = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    else:
        metrics = end_to_end(wl, setup_times, times, outputs, peak)
        report = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
        report["iterations"] = (len(times), "count")
        report.update(extra)
    report["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def traced_phase(wl, budget, base_run_s, untraced_extra):
    """Passes of set-up + iteration with ``repro.obs`` tracing to memory."""
    from contextlib import contextmanager

    from repro import obs
    from tracing import PASS_SPAN, SETUP_SPAN, ITERATION_SPAN, TraceCapture, install

    capture = TraceCapture()
    obs.reset()
    obs.enable(trace=capture.stream)
    undo = install()
    passes = 0

    @contextmanager
    def one_pass():
        nonlocal passes
        with obs.span(PASS_SPAN):
            with obs.span(SETUP_SPAN):
                wl.setup()
            with obs.span(ITERATION_SPAN):
                yield
        passes += 1

    try:
        times, outputs, error, _ = timed_loop(wl, budget, around=one_pass)
    finally:
        undo()
        rep = obs.report()
        obs.disable()
        obs.reset()
    if error is not None:
        return None, outputs, error
    metrics = per_layer(
        capture.spans(), rep, passes, wl, base_run_s, median(times), untraced_extra
    )
    return metrics, outputs, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full")
    args = ap.parse_args(argv)

    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
