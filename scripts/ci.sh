#!/usr/bin/env bash
# Full CI gate: static analysis + tier-1 test suite + benchmark harness
# tests + overhead budgets + example smoke tests.
#
# Usage:  scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static analysis: custom lint (repro.check) =="
python -m repro.check lint src

echo
echo "== static analysis: paper-invariant contract sweep =="
python -m repro.check contracts

echo
echo "== static analysis: determinism & cache-soundness dataflow =="
python -m repro.check dataflow src

echo
echo "== static analysis: kernel-perf hot-path lint =="
python -m repro.check perf src

echo
echo "== static analysis: shape & broadcast lint =="
python -m repro.check shapes src

echo
echo "== static analysis: ruff =="
if command -v ruff > /dev/null 2>&1; then
    ruff check src
elif python -c "import ruff" > /dev/null 2>&1; then
    python -m ruff check src
else
    echo "skipped (ruff not installed; pip install -e '.[test]')"
fi

echo
echo "== static analysis: mypy (strict perimeter: core + networks) =="
if python -c "import mypy" > /dev/null 2>&1; then
    python -m mypy src/repro/core src/repro/networks
else
    echo "skipped (mypy not installed; pip install -e '.[test]')"
fi

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== benchmark harness tests (perfbench/ lies outside tier-1 testpaths) =="
python -m pytest perfbench/tests -q

echo
echo "== observability disabled-path overhead budget (<2%) =="
python benchmarks/bench_obs_overhead.py

echo
echo "== degraded-mode simulator no-fault overhead budget (<5%) =="
python benchmarks/bench_fault_overhead.py

echo
echo "== simulator throughput budgets (>=10x vs reference, 1M pkts <60s) =="
python benchmarks/bench_sim_throughput.py

echo
echo "== simulator artifact hash: seeded run reproduces one fingerprint =="
python - <<'PYEOF'
import numpy as np
from repro import networks
from repro.check.sanitize import artifact_fingerprint
from repro.sim import (
    PacketSimulator,
    ReferencePacketSimulator,
    uniform_random_array,
)

net = networks.build("hsn", l=2, n=3)  # 64 nodes
w = uniform_random_array(net, 0.3, 80, np.random.default_rng(7))
fps = [
    artifact_fingerprint(cls(net).run(w).as_dict())
    for cls in (PacketSimulator, PacketSimulator, ReferencePacketSimulator)
]
assert fps[0] == fps[1], f"event core not reproducible: {fps[0]} != {fps[1]}"
assert fps[0] == fps[2], f"event core diverged from reference: {fps[0]} != {fps[2]}"
print(f"seeded sim fingerprint {fps[0]} stable across reruns and engines")
PYEOF
echo "OK"

echo
echo "== percolation + orbit-collapse budgets (>=10x collapse, sweep <30s) =="
python benchmarks/bench_percolation.py

echo
echo "== percolation CLI smoke (coarse grid, threshold estimate) =="
python -m repro faults percolation --smoke > /dev/null
echo "OK"

echo
echo "== route-serving budgets (>=100k qps, mmap-shared, bit-identical) =="
python benchmarks/bench_route_service.py

echo
echo "== serve CLI smoke (small replay, scalar equality assert) =="
SERVE_CACHE="$(mktemp -d)"
SERVE_TRAJ="$SERVE_CACHE/trajectory.jsonl"
REPRO_BENCH_TRAJECTORY="$SERVE_TRAJ" python -m repro serve bench \
    --network hypercube --param n=6 --queries 20000 --batch 5000 \
    --shards 2 --jobs 2 --verify-sample 1000 \
    --cache-dir "$SERVE_CACHE" > /dev/null
python - "$SERVE_TRAJ" <<'PYEOF'
import json, sys
# the bench replay above must have appended one JSONL trajectory record
# with a clean scalar cross-check
(rec,) = [json.loads(line) for line in open(sys.argv[1])]
assert rec["mismatches"] == 0 and rec["verified"] == 1000, rec
assert rec["backend"] == "mmap" and rec["mmap"], rec
PYEOF
rm -rf "$SERVE_CACHE"
echo "OK"

echo
echo "== fault-tolerance example smoke test =="
python examples/fault_tolerance.py > /dev/null
echo "OK"

echo
echo "== parallel/cache layer budgets (serial <3%, warm rebuild >=5x) =="
python benchmarks/bench_parallel_sweep.py

echo
echo "== cache determinism: same sweep twice, warm hit + identical JSON =="
python - <<'PYEOF'
import json, tempfile
from repro import cache, networks, obs
from repro.fault.sweep import fault_sweep

with tempfile.TemporaryDirectory() as d:
    cache.configure(d)
    obs.reset(); obs.enable()
    g1 = networks.build("hsn", l=2, n=3)  # 64 nodes: cold build + store
    run1 = json.dumps(fault_sweep(g1, [0, 2], trials=2, cycles=40, jobs=1))
    c1 = obs.report()["counters"]
    assert c1.get("cache.miss", 0) >= 1 and c1.get("cache.store", 0) >= 1, c1
    obs.reset()
    g2 = networks.build("hsn", l=2, n=3)  # warm: loaded from the cache
    run2 = json.dumps(fault_sweep(g2, [0, 2], trials=2, cycles=40, jobs=2))
    c2 = obs.report()["counters"]
    assert c2.get("cache.hit", 0) >= 1, c2
    assert run1 == run2, "cached + parallel sweep diverged from cold serial run"
    obs.disable(); obs.reset()
    cache.set_cache(None)
print("cache hit on rerun; cold-serial and warm-parallel JSON identical")
PYEOF
echo "OK"

echo
echo "== runtime determinism sanitizer (serial/parallel + cold/warm hashes) =="
python -m repro.check sanitize --smoke

echo
echo "== runtime perf sanitizer (perimeter escapes + per-unit budgets) =="
python -m repro.check perf --measure --smoke

echo
echo "== runtime shape sanitizer (recorded workload shape contracts) =="
python -m repro.check shapes --measure --smoke

echo
echo "CI OK"
