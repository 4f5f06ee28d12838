"""Runtime shape sanitizer (``python -m repro.check shapes --measure``).

The static pass (:mod:`repro.check.shapes`) proves what it can from
source; this module closes the loop at runtime.  It re-runs the perf
tier's seeded micro-workloads (:data:`repro.check.perfsanitize.WORKLOADS`
— closure build, next-hop table, simulator, route resolve, percolation,
orbit signatures) through their shape-recording thunks and checks every
recorded array against the committed contracts:

* **SAN006 — concrete shape/dtype drift.**  Each workload's ``record()``
  thunk runs the kernel once and returns the named arrays it produces
  (the CSR arrays of the built closure, the ``(n, n)`` table and
  distance matrices, the query-aligned resolve outputs, the ``(B, n)``
  component labels, ...).  Because every workload is fully seeded, the
  concrete shapes are deterministic, so the check is exact equality
  against ``benchmarks/shape_contracts.json`` — a changed rank, extent,
  or dtype is a contract break (or an intentional change that must
  re-record).  Arrays recorded without a contract, and contracted arrays
  that stopped being recorded, are drift too.

``--update-contracts`` re-records and rewrites the contracts for the
profile being run (``smoke`` or ``full``), preserving the other
profile's entries — the same profile store
(:func:`~repro.check.perfsanitize.write_profile`) as SAN005's
``--update-budgets``.  Findings reuse the shared
:class:`~repro.check.findings.Report` model.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro import obs

from .findings import Finding, Report
from .perfsanitize import WORKLOADS, Workload, load_profiles, write_profile

__all__ = [
    "SHAPE_SANITIZE_RULES",
    "record_shapes",
    "update_contracts",
    "shape_sanitize",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.6)
SHAPE_SANITIZE_RULES: dict[str, str] = {
    "SAN006": "recorded workload array shape/dtype drifts from its contract",
}

#: default contract file, relative to the repo root (CI runs from there)
DEFAULT_CONTRACTS_PATH = "benchmarks/shape_contracts.json"


def record_shapes(workload: Workload, smoke: bool = False) -> dict[str, dict]:
    """Run one workload's ``record()`` thunk and flatten its arrays to
    ``{name: {shape, dtype}}``."""
    import numpy as np

    _run, record = workload.prepare(smoke)
    out: dict[str, dict] = {}
    for name, arr in record().items():
        a = np.asarray(arr)
        out[name] = {"shape": [int(d) for d in a.shape], "dtype": str(a.dtype)}
    return out


def update_contracts(
    path: str | Path,
    recorded: dict[str, dict[str, dict]],
    profile: str,
) -> dict:
    """Write ``recorded`` (workload -> array -> shape/dtype) as the
    ``profile`` contracts, preserving the other profile's entries;
    returns the written dict."""
    meta = {
        "generated_by": "python -m repro.check shapes --measure --update-contracts",
        "note": (
            "exact shapes/dtypes of the seeded check workloads; "
            "re-record after an intentional kernel geometry change"
        ),
    }
    return write_profile(path, profile, recorded, meta)


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def shape_sanitize(
    smoke: bool = False,
    contracts_path: str | Path = DEFAULT_CONTRACTS_PATH,
    update: bool = False,
    workloads: Iterable[Workload] | None = None,
) -> Report:
    """Run the seeded workloads' shape recorders and report SAN006
    findings.

    ``smoke`` selects the small workload sizes (and the ``smoke``
    contract profile); ``update=True`` rewrites that profile's contracts
    from the recording instead of comparing.  ``workloads`` exists for
    fixture tests; production callers use the registered
    :data:`~repro.check.perfsanitize.WORKLOADS`.
    """
    wls = tuple(workloads) if workloads is not None else WORKLOADS
    profile_name = "smoke" if smoke else "full"
    report = Report()
    reg = obs.registry()
    with obs.span("check.shapesan", profile=profile_name, workloads=len(wls)):
        contracts = {} if update else (
            load_profiles(contracts_path).get("profiles", {}).get(profile_name, {})
        )
        recorded: dict[str, dict[str, dict]] = {}
        for wl in wls:
            got = record_shapes(wl, smoke=smoke)
            recorded[wl.name] = got
            reg.incr("check.shapesan.workloads")
            want = contracts.get(wl.name)
            if want is None:
                continue  # un-contracted workload: nothing to compare yet
            report.checked += 1
            where = f"shapes[{wl.name}]"
            for name in sorted(set(want) | set(got)):
                w, g = want.get(name), got.get(name)
                if w is None:
                    msg = (
                        f"{wl.kernel} now records array `{name}` "
                        f"{tuple(g['shape'])} {g['dtype']} with no contract "
                        f"in {contracts_path} — record it with "
                        f"--update-contracts"
                    )
                elif g is None:
                    msg = (
                        f"{wl.kernel} no longer records array `{name}` "
                        f"(contracted as {tuple(w['shape'])} {w['dtype']} "
                        f"in {contracts_path})"
                    )
                elif w["shape"] != g["shape"] or w["dtype"] != g["dtype"]:
                    msg = (
                        f"{wl.kernel} array `{name}` is "
                        f"{tuple(g['shape'])} {g['dtype']} but the "
                        f"contract in {contracts_path} says "
                        f"{tuple(w['shape'])} {w['dtype']} — a geometry "
                        f"regression, or rerun --update-contracts after "
                        f"an intentional change"
                    )
                else:
                    continue
                report.add(Finding(where, 0, "SAN006", msg))
                reg.incr("check.shapesan.drift")
        if update:
            update_contracts(contracts_path, recorded, profile_name)
    return report
