"""Runtime shape sanitizer (``python -m repro.check shapes --measure``).

The static pass (:mod:`repro.check.shapes`) proves what it can from
source; this module closes the loop at runtime.  It re-runs the perf
tier's seeded micro-workloads (:data:`repro.check.perfsanitize.WORKLOADS`
— closure build, next-hop table, simulator, route resolve, percolation,
orbit signatures) with a lightweight shape recorder and checks every
recorded array against the committed contracts:

* **SAN006 — concrete shape/dtype drift.**  Each workload's probe runs
  the kernel once and records the named arrays it produces (the CSR
  arrays of the built closure, the ``(n, n)`` table and distance
  matrices, the query-aligned resolve outputs, the ``(B, n)`` component
  labels, ...).  Because every workload is fully seeded, the concrete
  shapes are deterministic, so the check is exact equality against
  ``benchmarks/shape_contracts.json`` — a changed rank, extent, or dtype
  is a contract break (or an intentional change that must re-record).
  Arrays recorded without a contract, and contracted arrays that stopped
  being recorded, are drift too.

``--update-contracts`` re-records and rewrites the contracts for the
profile being run (``smoke`` or ``full``), preserving the other
profile's entries — the same flow as SAN005's ``--update-budgets``.
Findings reuse the shared :class:`~repro.check.findings.Report` model.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro import obs

from .findings import Finding, Report

__all__ = [
    "SHAPE_SANITIZE_RULES",
    "ShapeProbe",
    "SHAPE_PROBES",
    "record_shapes",
    "load_contracts",
    "update_contracts",
    "shape_sanitize",
]

#: rule code -> one-line summary (catalog in DESIGN.md §7.6)
SHAPE_SANITIZE_RULES: dict[str, str] = {
    "SAN006": "recorded workload array shape/dtype drifts from its contract",
}

#: default contract file, relative to the repo root (CI runs from there)
DEFAULT_CONTRACTS_PATH = "benchmarks/shape_contracts.json"


@dataclass(frozen=True)
class ShapeProbe:
    """One seeded workload with a shape recorder attached.

    ``collect(smoke)`` runs the workload's kernel once (same seeds and
    sizes as the perf tier's :data:`~repro.check.perfsanitize.WORKLOADS`)
    and returns the named ndarrays whose geometry the contract pins.
    """

    name: str
    kernel: str  #: perimeter root qualname this probe exercises
    collect: Callable[[bool], dict]


def _probe_closure(smoke: bool) -> dict:
    from repro.core.ipgraph import build_ip_graph
    from repro.core.permutation import from_cycles

    k = 6 if smoke else 7
    seed = tuple(range(k))
    gens = [from_cycles(k, [(0, i)]) for i in range(1, k)]
    net = build_ip_graph(seed, gens, name="shapesan-star")
    csr = net.adjacency_csr()
    return {"indptr": csr.indptr, "indices": csr.indices, "data": csr.data}


def _probe_routing(smoke: bool) -> dict:
    from repro.networks import build
    from repro.routing.table import NextHopTable

    net = build("hsn", l=2, n=3) if smoke else build("hypercube", n=9)
    table = NextHopTable(net, with_distances=True)
    assert table.dist is not None
    return {"table": table.table, "dist": table.dist}


def _probe_sim(smoke: bool) -> dict:
    import numpy as np

    from repro.networks import build
    from repro.sim.simulator import PacketSimulator
    from repro.sim.workloads import uniform_random_array

    net = build("hsn", l=2, n=3)
    rng = np.random.default_rng(12345)
    cycles = 50 if smoke else 400
    inj = uniform_random_array(net, 0.2, cycles, rng)
    PacketSimulator(net).run(inj)
    csr = net.adjacency_csr()
    return {"injections": inj, "indptr": csr.indptr, "indices": csr.indices}


def _probe_serve(smoke: bool) -> dict:
    from repro.networks import build
    from repro.routing.table import NextHopTable
    from repro.serve import RouteService
    from repro.serve.harness import seeded_queries

    net = build("hsn", l=2, n=3) if smoke else build("hypercube", n=9)
    svc = RouteService.from_table(NextHopTable(net, with_distances=True))
    count = 50_000 if smoke else 500_000
    src, dst = seeded_queries(net.num_nodes, count, seed=0)
    batch = svc.resolve(src, dst, paths=True)
    assert batch.paths is not None
    return {
        "src": batch.src,
        "dst": batch.dst,
        "next_hop": batch.next_hop,
        "distance": batch.distance,
        "paths": batch.paths,
    }


def _probe_percolation(smoke: bool) -> dict:
    import numpy as np

    from repro.fault.percolation import masked_components
    from repro.networks import build

    net = build("hsn", l=2, n=3)
    rng = np.random.default_rng(6789)
    batch = 64 if smoke else 1024
    node_alive = rng.random((batch, net.num_nodes)) > 0.1
    labels = masked_components(net, node_alive=node_alive)
    return {"node_alive": node_alive, "labels": labels}


def _probe_orbits(smoke: bool) -> dict:
    import numpy as np

    from repro.fault.orbits import cached_automorphism_group, fault_signature
    from repro.networks import build

    net = build("hypercube", n=3) if smoke else build("hypercube", n=4)
    group = cached_automorphism_group(net)
    sig = fault_signature(net, (0, 3), group=group)
    return {"group": group, "signature": np.asarray(sig, dtype=np.int64)}


SHAPE_PROBES: tuple[ShapeProbe, ...] = (
    ShapeProbe(
        "closure_fast", "repro.core.ipgraph.build_ip_graph", _probe_closure
    ),
    ShapeProbe(
        "routing_table", "repro.routing.table.NextHopTable.__init__", _probe_routing
    ),
    ShapeProbe("sim_run", "repro.sim.simulator.PacketSimulator.run", _probe_sim),
    ShapeProbe(
        "route_resolve", "repro.serve.service.RouteService.resolve", _probe_serve
    ),
    ShapeProbe(
        "percolation", "repro.fault.percolation.masked_components", _probe_percolation
    ),
    ShapeProbe(
        "orbit_signatures", "repro.fault.orbits.fault_signature", _probe_orbits
    ),
)


def record_shapes(probe: ShapeProbe, smoke: bool = False) -> dict[str, dict]:
    """Run one probe and flatten its arrays to ``{name: {shape, dtype}}``."""
    import numpy as np

    out: dict[str, dict] = {}
    for name, arr in probe.collect(smoke).items():
        a = np.asarray(arr)
        out[name] = {"shape": [int(d) for d in a.shape], "dtype": str(a.dtype)}
    return out


# ----------------------------------------------------------------------
# contracts file
# ----------------------------------------------------------------------
def load_contracts(path: str | Path) -> dict:
    """Load the contract file; ``{}`` when absent (SAN006 then skips)."""
    p = Path(path)
    if not p.exists():
        return {}
    with open(p) as fh:
        return json.load(fh)


def update_contracts(
    path: str | Path,
    recorded: dict[str, dict[str, dict]],
    profile: str,
) -> dict:
    """Write ``recorded`` (workload -> array -> shape/dtype) as the
    ``profile`` contracts, preserving the other profile's entries;
    returns the written dict."""
    data = load_contracts(path)
    data.setdefault("_meta", {}).update(
        {
            "generated_by": (
                "python -m repro.check shapes --measure --update-contracts"
            ),
            "note": (
                "exact shapes/dtypes of the seeded check workloads; "
                "re-record after an intentional kernel geometry change"
            ),
        }
    )
    prof = data.setdefault("profiles", {}).setdefault(profile, {})
    for workload, arrays in recorded.items():
        prof[workload] = arrays
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def shape_sanitize(
    smoke: bool = False,
    contracts_path: str | Path = DEFAULT_CONTRACTS_PATH,
    update: bool = False,
    probes: Iterable[ShapeProbe] | None = None,
) -> Report:
    """Run the shape probes and report SAN006 findings.

    ``smoke`` selects the small workload sizes (and the ``smoke``
    contract profile); ``update=True`` rewrites that profile's contracts
    from the recording instead of comparing.  ``probes`` exists for
    fixture tests; production callers use :data:`SHAPE_PROBES`.
    """
    pbs = tuple(probes) if probes is not None else SHAPE_PROBES
    profile_name = "smoke" if smoke else "full"
    report = Report()
    reg = obs.registry()
    with obs.span("check.shapesan", profile=profile_name, workloads=len(pbs)):
        contracts = {} if update else (
            load_contracts(contracts_path).get("profiles", {}).get(profile_name, {})
        )
        recorded: dict[str, dict[str, dict]] = {}
        for probe in pbs:
            got = record_shapes(probe, smoke=smoke)
            recorded[probe.name] = got
            reg.incr("check.shapesan.workloads")
            want = contracts.get(probe.name)
            if want is None:
                continue  # un-contracted workload: nothing to compare yet
            report.checked += 1
            where = f"shapes[{probe.name}]"
            for name in sorted(set(want) | set(got)):
                w, g = want.get(name), got.get(name)
                if w is None:
                    report.add(
                        Finding(
                            where,
                            0,
                            "SAN006",
                            f"{probe.kernel} now records array `{name}` "
                            f"{tuple(g['shape'])} {g['dtype']} with no contract "
                            f"in {contracts_path} — record it with "
                            f"--update-contracts",
                        )
                    )
                    reg.incr("check.shapesan.drift")
                elif g is None:
                    report.add(
                        Finding(
                            where,
                            0,
                            "SAN006",
                            f"{probe.kernel} no longer records array `{name}` "
                            f"(contracted as {tuple(w['shape'])} {w['dtype']} "
                            f"in {contracts_path})",
                        )
                    )
                    reg.incr("check.shapesan.drift")
                elif w["shape"] != g["shape"] or w["dtype"] != g["dtype"]:
                    report.add(
                        Finding(
                            where,
                            0,
                            "SAN006",
                            f"{probe.kernel} array `{name}` is "
                            f"{tuple(g['shape'])} {g['dtype']} but the "
                            f"contract in {contracts_path} says "
                            f"{tuple(w['shape'])} {w['dtype']} — a geometry "
                            f"regression, or rerun --update-contracts after "
                            f"an intentional change",
                        )
                    )
                    reg.incr("check.shapesan.drift")
        if update:
            update_contracts(contracts_path, recorded, profile_name)
    return report
