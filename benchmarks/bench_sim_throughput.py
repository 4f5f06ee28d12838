"""Simulator throughput: the batched event core vs the reference oracle.

The event-driven rewrite of :class:`repro.sim.PacketSimulator` exists to
make million-packet load sweeps routine; this bench holds it to that:

* **speedup** — on a >= 100k-packet uniform-load run the event core must
  deliver >= 10x the reference engine's packets/sec, while producing the
  exact same ``SimStats`` (the equality is asserted, not assumed);
* **scale** — a 1,000,000-packet run must finish in under 60 s.

Methodology mirrors ``bench_obs_overhead.py``: GC parked during timing,
and the speedup is the median of ``PAIRS`` interleaved paired ratios —
each pair times the event core and then the reference back to back, so a
burst of load on a shared machine slows both halves of one pair instead
of skewing a lone reference run against a best-of event time.  Every
pair also asserts the two engines' ``SimStats`` are equal.  Results are
printed as JSON; set
``REPRO_BENCH_TRAJECTORY=<path>`` to append the record to a JSONL
trajectory file for tracking across commits.

Run directly (exits non-zero on regression)::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

import numpy as np

from repro import networks as nw
from repro.sim import (
    PacketSimulator,
    ReferencePacketSimulator,
    uniform_random_array,
)

MIN_SPEEDUP = 10.0  # event core vs reference, packets/sec
MILLION_BUDGET_S = 60.0  # wall-clock budget for the 1M-packet run
PAIRS = 5

# comparison workload: 256-node hypercube, ~104k packets of uniform load
CMP_LOG2 = 8
CMP_RATE = 0.45
CMP_CYCLES = 900
SEED = 0

# scale workload: ~1.0M packets on the same topology
BIG_RATE = 1.0
BIG_CYCLES = 3907


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    net = nw.hypercube(CMP_LOG2)
    w = uniform_random_array(
        net, CMP_RATE, CMP_CYCLES, np.random.default_rng(SEED)
    )
    npkt = len(w)
    assert npkt >= 100_000, f"comparison workload too small: {npkt}"

    held = {}

    def _event():
        held["event"] = PacketSimulator(net).run(w)

    ref_sim = ReferencePacketSimulator(net)

    def _ref():
        held["ref"] = ref_sim.run(w)

    pairs = []
    for _ in range(PAIRS):
        pairs.append((_timed(_event), _timed(_ref)))
        if held["event"] != held["ref"]:
            print("FAIL: engines disagree on the comparison workload", file=sys.stderr)
            return 1

    speedup = float(np.median([r / e for e, r in pairs]))
    dt_event = float(np.median([e for e, _ in pairs]))
    dt_ref = float(np.median([r for _, r in pairs]))
    pps_event = npkt / dt_event
    pps_ref = npkt / dt_ref

    big = uniform_random_array(
        net, BIG_RATE, BIG_CYCLES, np.random.default_rng(SEED)
    )
    big_stats = None

    def _big():
        nonlocal big_stats
        big_stats = PacketSimulator(net).run(big)

    dt_big = _timed(_big)

    record = {
        "bench": "sim_throughput",
        "network": net.name,
        "packets": npkt,
        "event_s": round(dt_event, 4),
        "reference_s": round(dt_ref, 4),
        "event_pps": round(pps_event),
        "reference_pps": round(pps_ref),
        "speedup": round(speedup, 2),
        "speedup_pairs": [round(r / e, 2) for e, r in pairs],
        "million_packets": len(big),
        "million_s": round(dt_big, 2),
        "million_pps": round(len(big) / dt_big),
        "million_delivered": big_stats.delivered,
    }
    print(json.dumps(record))
    traj = os.environ.get("REPRO_BENCH_TRAJECTORY")
    if traj:
        with open(traj, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    ok = True
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: event core speedup {speedup:.1f}x < {MIN_SPEEDUP:.0f}x "
            f"({pps_event:,.0f} vs {pps_ref:,.0f} packets/sec)",
            file=sys.stderr,
        )
        ok = False
    if dt_big > MILLION_BUDGET_S:
        print(
            f"FAIL: {len(big):,} packets took {dt_big:.1f}s "
            f"(budget {MILLION_BUDGET_S:.0f}s)",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"OK: {speedup:.1f}x over reference at {npkt:,} packets; "
            f"{len(big):,} packets in {dt_big:.1f}s "
            f"({len(big) / dt_big:,.0f} packets/sec)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
