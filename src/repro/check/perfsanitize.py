"""Profile-guided perf sanitizer (``python -m repro.check perf --measure``).

The static pass (:mod:`repro.check.perf`) reasons about the *declared*
hot-path perimeter; this module closes the loop at runtime.  It runs a
fixed set of seeded micro-workloads — one per perimeter kernel family —
and checks two things the AST cannot see:

* **SAN004 — hot function outside the perimeter.**  Each workload runs
  once under :mod:`cProfile`; any function in the scanned tree whose own
  (``tottime``) share of the profile exceeds a threshold but is *not* in
  the statically-closed hot perimeter is reported.  This is the recall
  backstop for the perimeter's precision-first typed-edge closure: a
  kernel the static pass missed cannot stay hidden once it actually
  burns cycles.
* **SAN005 — per-unit cost regression.**  Each workload also runs
  un-profiled (best of ``repeats``) and reports a per-unit cost
  (µs per node / packet / mask-row / signature).  Costs are compared
  against ``benchmarks/perf_budgets.json``; a measured cost above its
  recorded budget is a regression finding.  Budgets are recorded with a
  generous (default 6x) margin over the measuring machine so that normal
  scheduling noise never trips the gate — only an asymptotic or
  constant-factor regression does.

``--update-budgets`` re-measures and rewrites the budget file for the
profile being run (``smoke`` or ``full``), preserving the other profile's
entries.  Findings reuse the shared :class:`~repro.check.findings.Report`
model, so rendering and exit codes match every other tier.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro import obs

from .findings import Finding, Report

__all__ = [
    "PERF_SANITIZE_RULES",
    "Workload",
    "WORKLOADS",
    "Measurement",
    "run_workload",
    "perimeter_frame_index",
    "hot_frames",
    "load_budgets",
    "update_budgets",
    "perf_sanitize",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.5)
PERF_SANITIZE_RULES: dict[str, str] = {
    "SAN004": "profiled-hot function outside the declared hot-path perimeter",
    "SAN005": "perimeter kernel per-unit cost exceeds its recorded budget",
}

#: default budget file, relative to the repo root (CI runs from there)
DEFAULT_BUDGETS_PATH = "benchmarks/perf_budgets.json"
#: headroom multiplier applied by ``--update-budgets`` over the measured cost
BUDGET_MARGIN = 6.0
#: SAN004 fires only above max(_FLOOR_S, _FRAC * profile total) own-time
_FLOOR_S = 0.05
_FRAC = 0.10


# ----------------------------------------------------------------------
# seeded micro-workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One seeded micro-benchmark exercising a perimeter kernel family.

    ``prepare(smoke)`` does all setup (network builds, injection draws,
    cached-group materialization) *outside* the measured region and
    returns a thunk; calling the thunk runs the kernel once and returns
    the number of units processed (nodes, packets, mask rows, ...).
    """

    name: str
    kernel: str  #: perimeter root qualname this workload exercises
    unit: str  #: what "per-unit" means in the budget file
    prepare: Callable[[bool], Callable[[], int]]


def _wl_closure(smoke: bool) -> Callable[[], int]:
    from repro.core.ipgraph import build_ip_graph
    from repro.core.permutation import from_cycles

    k = 6 if smoke else 7
    seed = tuple(range(k))
    gens = [from_cycles(k, [(0, i)]) for i in range(1, k)]

    def run() -> int:
        return build_ip_graph(seed, gens, name="perfsan-star").num_nodes

    return run


def _wl_routing(smoke: bool) -> Callable[[], int]:
    from repro.networks import build
    from repro.routing.table import NextHopTable

    net = build("hsn", l=2, n=3) if smoke else build("hypercube", n=9)

    def run() -> int:
        NextHopTable(net)
        return net.num_nodes

    return run


def _wl_sim(smoke: bool) -> Callable[[], int]:
    import numpy as np

    from repro.networks import build
    from repro.sim.simulator import PacketSimulator
    from repro.sim.workloads import uniform_random_array

    net = build("hsn", l=2, n=3)
    rng = np.random.default_rng(12345)
    cycles = 50 if smoke else 400
    inj = uniform_random_array(net, 0.2, cycles, rng)
    sim = PacketSimulator(net)

    def run() -> int:
        sim.run(inj)
        return len(inj)

    return run


def _wl_serve(smoke: bool) -> Callable[[], int]:
    from repro.networks import build
    from repro.routing.table import NextHopTable
    from repro.serve import RouteService
    from repro.serve.harness import seeded_queries

    net = build("hsn", l=2, n=3) if smoke else build("hypercube", n=9)
    svc = RouteService.from_table(NextHopTable(net, with_distances=True))
    count = 50_000 if smoke else 500_000
    src, dst = seeded_queries(net.num_nodes, count, seed=0)

    def run() -> int:
        svc.resolve(src, dst)
        return count

    return run


def _wl_percolation(smoke: bool) -> Callable[[], int]:
    import numpy as np

    from repro.fault.percolation import masked_components
    from repro.networks import build

    net = build("hsn", l=2, n=3)
    rng = np.random.default_rng(6789)
    batch = 64 if smoke else 1024
    node_alive = rng.random((batch, net.num_nodes)) > 0.1

    def run() -> int:
        masked_components(net, node_alive=node_alive)
        return batch * net.num_nodes

    return run


def _wl_orbits(smoke: bool) -> Callable[[], int]:
    from repro.fault.orbits import cached_automorphism_group, fault_signature
    from repro.networks import build

    net = build("hypercube", n=3) if smoke else build("hypercube", n=4)
    # materialize the group here so the thunk times the signature kernel,
    # not VF2 enumeration (which is deliberately outside the perimeter)
    group = cached_automorphism_group(net)
    patterns = list(itertools.combinations(range(net.num_nodes), 2))

    def run() -> int:
        for p in patterns:
            fault_signature(net, p, group=group)
        return len(patterns)

    return run


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "closure_fast",
        "repro.core.ipgraph.build_ip_graph",
        "node",
        _wl_closure,
    ),
    Workload(
        "routing_table",
        "repro.routing.table.NextHopTable.__init__",
        "node",
        _wl_routing,
    ),
    Workload(
        "sim_run",
        "repro.sim.simulator.PacketSimulator.run",
        "packet",
        _wl_sim,
    ),
    Workload(
        "route_resolve",
        "repro.serve.service.RouteService.resolve",
        "query",
        _wl_serve,
    ),
    Workload(
        "percolation",
        "repro.fault.percolation.masked_components",
        "mask-entry",
        _wl_percolation,
    ),
    Workload(
        "orbit_signatures",
        "repro.fault.orbits.fault_signature",
        "signature",
        _wl_orbits,
    ),
)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """Best-of-N timing plus one profiled pass for a workload."""

    workload: str
    unit: str
    units: int
    seconds: float  #: best un-profiled wall time
    profile: cProfile.Profile  #: one profiled pass (for SAN004)

    @property
    def per_unit_us(self) -> float:
        return self.seconds / self.units * 1e6 if self.units else 0.0


def run_workload(w: Workload, smoke: bool = False, repeats: int = 3) -> Measurement:
    """Measure one workload: warm-up, ``repeats`` timed runs (best kept),
    then one profiled run for SAN004 attribution.

    The warm-up pass absorbs one-time costs (imports, artifact caches)
    so the timed passes see the steady-state kernel.
    """
    thunk = w.prepare(smoke)
    units = thunk()  # warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - t0)
    prof = cProfile.Profile()
    prof.enable()
    thunk()
    prof.disable()
    return Measurement(w.name, w.unit, units, best, prof)


# ----------------------------------------------------------------------
# SAN004: profile attribution against the static perimeter
# ----------------------------------------------------------------------
def perimeter_frame_index(
    paths: Iterable[str | Path] = ("src",),
    kernels=None,
) -> tuple[dict[tuple[str, str], list[int]], str]:
    """Map the statically-closed hot perimeter to profiler frame keys.

    Returns ``((realpath, funcname) -> [def linenos], scan_root)`` for
    every function the perimeter reaches.  cProfile keys frames by
    ``(filename, co_firstlineno, funcname)``; decorated functions put
    ``co_firstlineno`` on the first decorator, so matching tolerates a
    small lineno offset rather than demanding equality.
    """
    from .callgraph import build_callgraph
    from .perf import hot_path_perimeter

    cg = build_callgraph(paths)
    perimeter = hot_path_perimeter(cg, kernels)
    index: dict[tuple[str, str], list[int]] = {}
    for qual in perimeter.reached:
        fn = cg.functions.get(qual)
        if fn is None:
            continue
        key = (os.path.realpath(fn.path), fn.name)
        index.setdefault(key, []).append(fn.lineno)
    roots = [os.path.realpath(str(p)) for p in paths]
    return index, roots[0] if roots else ""


def hot_frames(
    prof: cProfile.Profile,
    floor_s: float = _FLOOR_S,
    frac: float = _FRAC,
) -> list[tuple[str, int, str, float, float]]:
    """Frames whose own time clears the SAN004 threshold.

    Returns ``(realpath, firstlineno, funcname, tottime, total)`` rows,
    hottest first.  ``total`` is the profile-wide sum of own times, so
    the threshold adapts to the workload: ``max(floor_s, frac * total)``.
    """
    prof.create_stats()
    stats = prof.stats  # type: ignore[attr-defined]
    total = sum(row[2] for row in stats.values())  # tt = inline own time
    threshold = max(floor_s, frac * total)
    out = []
    for (filename, lineno, funcname), (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt >= threshold and filename and not filename.startswith("<"):
            out.append((os.path.realpath(filename), lineno, funcname, tt, total))
    out.sort(key=lambda r: -r[3])
    return out


def _frame_in_perimeter(
    index: dict[tuple[str, str], list[int]],
    path: str,
    lineno: int,
    funcname: str,
    tolerance: int = 8,
) -> bool:
    linenos = index.get((path, funcname))
    if not linenos:
        return False
    return any(abs(lineno - ln) <= tolerance for ln in linenos)


def _under(root: str, path: str) -> bool:
    return bool(root) and path.startswith(root + os.sep)


# ----------------------------------------------------------------------
# SAN005: budgets
# ----------------------------------------------------------------------
def load_budgets(path: str | Path) -> dict:
    """Load the budget file; ``{}`` when absent (SAN005 then skips)."""
    p = Path(path)
    if not p.exists():
        return {}
    with open(p) as fh:
        return json.load(fh)


def update_budgets(
    path: str | Path,
    measurements: Iterable[Measurement],
    profile: str,
    margin: float = BUDGET_MARGIN,
) -> dict:
    """Write measured costs x ``margin`` as the ``profile`` budgets,
    preserving the other profile's entries; returns the written dict."""
    data = load_budgets(path)
    data.setdefault("_meta", {}).update(
        {
            "margin": margin,
            "unit": "per_unit_us",
            "generated_by": "python -m repro.check perf --measure --update-budgets",
            "note": (
                "budgets are measured-cost x margin on the recording machine; "
                "regenerate after intentional kernel changes or hardware moves"
            ),
        }
    )
    prof = data.setdefault("profiles", {}).setdefault(profile, {})
    for m in measurements:
        prof[m.workload] = {
            "per_unit_us": round(m.per_unit_us * margin, 3),
            "measured_us": round(m.per_unit_us, 3),
            "units": m.units,
            "unit": m.unit,
        }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def perf_sanitize(
    paths: Iterable[str | Path] = ("src",),
    smoke: bool = False,
    budgets_path: str | Path = DEFAULT_BUDGETS_PATH,
    update: bool = False,
    workloads: Iterable[Workload] | None = None,
    kernels=None,
    floor_s: float = _FLOOR_S,
    frac: float = _FRAC,
    repeats: int = 3,
) -> Report:
    """Run the seeded workloads and report SAN004/SAN005 findings.

    ``smoke`` selects the small workload sizes (and the ``smoke`` budget
    profile); ``update=True`` rewrites that profile's budgets from the
    measurement instead of comparing (SAN004 still runs).  ``workloads``
    and ``kernels`` exist for fixture tests; production callers use the
    registered :data:`WORKLOADS` against :data:`~repro.check.perf.HOT_PERIMETER`.
    """
    wls = tuple(workloads) if workloads is not None else WORKLOADS
    profile_name = "smoke" if smoke else "full"
    report = Report()
    reg = obs.registry()
    with obs.span("check.perfsan", profile=profile_name, workloads=len(wls)):
        index, scan_root = perimeter_frame_index(paths, kernels)
        budgets = {} if update else (
            load_budgets(budgets_path).get("profiles", {}).get(profile_name, {})
        )
        measurements: list[Measurement] = []
        for w in wls:
            m = run_workload(w, smoke=smoke, repeats=repeats)
            measurements.append(m)
            where = f"perf[{w.name}]"

            # SAN004: hot frames inside the scanned tree, outside the
            # perimeter.  The check harness itself is exempt (it drives
            # the profiler), as are frames outside the scanned root
            # (numpy, scipy, stdlib).
            report.checked += 1
            harness = os.path.realpath(os.path.dirname(__file__))
            for path, lineno, funcname, tt, total in hot_frames(
                m.profile, floor_s, frac
            ):
                if not _under(scan_root, path) or _under(harness, path):
                    continue
                if _frame_in_perimeter(index, path, lineno, funcname):
                    continue
                rel = os.path.relpath(path)
                report.add(
                    Finding(
                        where,
                        0,
                        "SAN004",
                        f"`{funcname}` ({rel}:{lineno}) burned {tt:.3f}s of "
                        f"{total:.3f}s profiled ({tt / total:.0%}) but is not "
                        f"in the declared hot-path perimeter — add it to "
                        f"HOT_PERIMETER (or stop calling it per element)",
                    )
                )
                reg.incr("check.perfsan.escapes")

            # SAN005: per-unit cost vs budget
            budget = budgets.get(w.name)
            if budget is not None:
                report.checked += 1
                limit = float(budget["per_unit_us"])
                if m.per_unit_us > limit:
                    report.add(
                        Finding(
                            where,
                            0,
                            "SAN005",
                            f"{w.kernel} costs {m.per_unit_us:.3f}us per "
                            f"{m.unit} ({m.units} units in {m.seconds:.4f}s), "
                            f"over the {limit:.3f}us budget in "
                            f"{budgets_path} — a perf regression, or rerun "
                            f"--update-budgets after an intentional change",
                        )
                    )
                    reg.incr("check.perfsan.regressions")
            reg.incr("check.perfsan.workloads")
        if update:
            update_budgets(budgets_path, measurements, profile_name)
    return report
