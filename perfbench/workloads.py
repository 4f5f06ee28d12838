"""The four benchmark workloads and their output oracles.

Each workload has three parts:

* ``setup()`` makes the inputs ready (its time is ``setup_s``);
* ``iteration()`` is one fixed unit of work, repeated until the run's
  seconds are spent (its median wall time is ``run_s``);
* ``check(outputs)`` compares every iteration's outputs with an oracle that
  does not share the code under test, returning ``(attempted, failed)``.

Inputs come from the seed alone.  The program receives only the generated
traffic and query arrays.  Every call into a layer sits in a ``bench.*``
span, which costs nothing while ``repro.obs`` is disabled (the timed runs)
and names the call in the traced run.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro import cache, networks, obs

SIZES = ("full", "smoke")


def oracle_adjacency(net) -> sp.csr_matrix:
    """Undirected 0/1 adjacency built straight from the arc arrays, so the
    oracles do not go through ``Network.adjacency_csr``."""
    n = net.num_nodes
    keep = net.edges_src != net.edges_dst
    src, dst = net.edges_src[keep], net.edges_dst[keep]
    data = np.ones(2 * len(src), dtype=np.int8)
    adj = sp.coo_matrix(
        (data, (np.concatenate([src, dst]), np.concatenate([dst, src]))), shape=(n, n)
    ).tocsr()
    adj.data[:] = 1
    return adj


def oracle_distances(adj: sp.csr_matrix, sources) -> np.ndarray:
    """Hop distances from ``sources`` (rows) by scipy's unweighted search."""
    d = csgraph.shortest_path(adj, unweighted=True, indices=np.asarray(sources))
    return np.where(np.isinf(d), -1, d).astype(np.int64)


class Workload:
    """Shared timing-free plumbing; subclasses fill in the three parts."""

    name = ""
    setup_reps = 15
    #: int32 arrays of N² entries each next-hop table build returns
    table_arrays = 1

    def __init__(self, size: str, seed: int, scratch: Path):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.size = size
        self.seed = int(seed)
        self.scratch = scratch

    def make_inputs(self) -> None:
        """Generate the seeded inputs once, after the first set-up (untimed)."""

    def teardown(self) -> None:
        """Release whatever ``setup`` left behind."""

    def items(self, output) -> int:
        """Units of work one iteration completed (for ``items_per_s``)."""
        raise NotImplementedError

    def extra_metrics(self, outputs: list, times: list[float]) -> dict:
        """Workload-specific end-to-end figures (the human-readable table)."""
        return {}

    def spill_bytes(self) -> int:
        """Bytes of the serving spills the last set-up wrote."""
        return 0


# ----------------------------------------------------------------------
# evaluate: exact Section-5 cost rows
# ----------------------------------------------------------------------
class Evaluate(Workload):
    """``measure_costs`` of HSN(2,Q_n) under nucleus modules, plus the
    I-metrics of a smaller HSN under nucleus modules split into chunks that
    are not internally connected (the 0/1-BFS fallback path)."""

    name = "evaluate"
    # row network n, split network n, split module size, and the two values
    # without a closed form, recorded once from the seed code:
    # (average distance of the row network, (I-degree, I-diameter,
    # average I-distance) of the split row)
    PARAMS = {
        "full": dict(row_n=5, split_n=4, split_size=4,
                     avg_distance=5.448099951124145,
                     split_row=(4.5, 5, 2.5558823529411763)),
        "smoke": dict(row_n=3, split_n=3, split_size=2,
                      avg_distance=3.5257936507936507,
                      split_row=(4.0, 5, 2.488095238095238)),
    }

    def __init__(self, size, seed, scratch):
        super().__init__(size, seed, scratch)
        self.p = self.PARAMS[size]

    def setup(self) -> None:
        with obs.span("bench.networks.build"):
            self.row_net = networks.build("hsn", l=2, n=self.p["row_n"])
        with obs.span("bench.networks.build"):
            self.split_net = networks.build("hsn", l=2, n=self.p["split_n"])

    def iteration(self):
        from repro.metrics import (
            intercluster_summary,
            measure_costs,
            nucleus_modules,
            split_modules,
        )

        with obs.span("bench.metrics.costs.measure_costs"):
            costs = measure_costs(self.row_net, nucleus_modules(self.row_net))
        with obs.span("bench.metrics.clustering.intercluster_summary"):
            modules = split_modules(nucleus_modules(self.split_net), self.p["split_size"])
            split = intercluster_summary(modules)
        return costs, split

    def items(self, output) -> int:
        # ordered node pairs whose distances the two rows cover
        a, b = self.row_net.num_nodes, self.split_net.num_nodes
        return a * (a - 1) + b * (b - 1)

    def check(self, outputs) -> tuple[int, int]:
        from repro.analysis.formulas import hsn_point

        n = self.p["row_n"]
        # Theorem 4.3 gives the diameter l*D_G + t; hsn_point carries it and
        # the exact l = 2 inter-cluster metrics
        point = hsn_point(2, 1 << n, n, n, nucleus_name=f"Q{n}")
        i_deg, i_diam, avg_i = self.p["split_row"]
        attempted = failed = 0
        for costs, split in outputs:
            checks = [
                costs.num_nodes == point.num_nodes,
                costs.degree == point.degree,
                costs.diameter == point.diameter == 2 * n + 1,
                math.isclose(costs.avg_distance, self.p["avg_distance"], rel_tol=1e-12),
                math.isclose(costs.i_degree, point.i_degree, rel_tol=1e-12),
                costs.i_diameter == point.i_diameter,
                math.isclose(costs.avg_i_distance, point.avg_i_distance, rel_tol=1e-12),
                math.isclose(split.i_degree, i_deg, rel_tol=1e-12),
                split.i_diameter == i_diam,
                math.isclose(split.avg_i_distance, avg_i, rel_tol=1e-12),
            ]
            attempted += len(checks)
            failed += checks.count(False)
        return attempted, failed


# ----------------------------------------------------------------------
# simulate: seeded uniform traffic through the packet simulator
# ----------------------------------------------------------------------
class Simulate(Workload):
    """``PacketSimulator(net)`` plus ``.run`` on seeded uniform traffic."""

    name = "simulate"
    PARAMS = {
        "full": dict(n=5, rate=0.5, cycles=200, prefix=512),
        "smoke": dict(n=3, rate=0.5, cycles=20, prefix=64),
    }

    def __init__(self, size, seed, scratch):
        super().__init__(size, seed, scratch)
        self.p = self.PARAMS[size]
        self.sim = None
        self.traffic = None

    def setup(self) -> None:
        with obs.span("bench.networks.build"):
            self.net = networks.build("hsn", l=2, n=self.p["n"])

    def make_inputs(self) -> None:
        from repro.sim.workloads import uniform_random_array

        if self.traffic is None:
            self.traffic = uniform_random_array(
                self.net, self.p["rate"], self.p["cycles"], np.random.default_rng(self.seed)
            )

    def iteration(self):
        from repro.sim import PacketSimulator

        self.sim = None  # drop the previous table before building the next
        with obs.span("bench.sim.ctor"):
            sim = PacketSimulator(self.net)
        with obs.span("bench.sim.run"):
            stats = sim.run(self.traffic)
        self.sim = sim
        return stats

    def items(self, output) -> int:
        return int(output.delivered)

    def extra_metrics(self, outputs, times):
        rates = [o.delivered / t for o, t in zip(outputs, times)]
        return {"sim_pkts_per_s": (float(np.median(rates)), "pkts/s")}

    def check(self, outputs) -> tuple[int, int]:
        from repro.check.sanitize import artifact_fingerprint
        from repro.sim import ReferencePacketSimulator

        injected = len(self.traffic)
        first = outputs[0]
        checks = []
        for st in outputs:
            checks += [st.injected == injected, st.delivered == injected, st == first]
        # seeded prefix: the event core and the per-event reference engine,
        # routed by the same table, must produce one SimStats fingerprint
        prefix = self.traffic[: self.p["prefix"]]
        core = self.sim.run(prefix)
        ref = ReferencePacketSimulator(self.net, next_hop=self.sim.next_hop).run(prefix)
        checks.append(
            artifact_fingerprint(core.as_dict()) == artifact_fingerprint(ref.as_dict())
        )
        # and every prefix packet took a shortest path
        srcs, inv = np.unique(prefix[:, 1], return_inverse=True)
        dist = oracle_distances(oracle_adjacency(self.net), srcs)
        want = int(dist[inv, prefix[:, 2]].sum())
        checks.append(core.delivered == len(prefix))
        checks.append(math.isclose(core.mean_hops * core.delivered, want, rel_tol=1e-12))
        return len(checks), checks.count(False)

    def teardown(self) -> None:
        self.sim = None


# ----------------------------------------------------------------------
# serve: closed-loop replay through the mmap-backed route service
# ----------------------------------------------------------------------
class Serve(Workload):
    """One client replays seeded queries in fixed batches (closed loop),
    every 4th batch with ``paths=True``, against ``RouteService.open``."""

    name = "serve"
    setup_reps = 5
    table_arrays = 2  # opened with_distances=True
    PATHS_EVERY = 4
    PARAMS = {
        "full": dict(n=5, batch=2000, batches=2000, kept=2, kept_queries=512,
                     verify_sample=2000),
        "smoke": dict(n=3, batch=100, batches=40, kept=2, kept_queries=50,
                      verify_sample=200),
    }

    def __init__(self, size, seed, scratch):
        super().__init__(size, seed, scratch)
        self.p = self.PARAMS[size]
        self.svc = None
        self.cache_dir: str | None = None
        self.src = self.dst = None
        self.kept_rng = np.random.default_rng([self.seed, 1])

    def _drop_cache(self) -> None:
        self.svc = None
        cache.set_cache(None)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def setup(self) -> None:
        from repro.serve import RouteService

        self._drop_cache()
        # a fresh, empty cache every time: the table build and the spill
        # are set-up work, never a load of an earlier run's artifacts
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=self.scratch)
        cache.configure(self.cache_dir)
        with obs.span("bench.networks.build"):
            self.net = networks.build("hsn", l=2, n=self.p["n"])
        with obs.span("bench.serve.open"):
            self.svc = RouteService.open(self.net, with_distances=True)

    def make_inputs(self) -> None:
        from repro.serve.harness import seeded_queries

        if self.src is None:
            count = self.p["batch"] * self.p["batches"]
            self.src, self.dst = seeded_queries(self.net.num_nodes, count, self.seed)

    def iteration(self):
        b, nb = self.p["batch"], self.p["batches"]
        svc, src, dst = self.svc, self.src, self.dst
        keep = set(self.kept_rng.choice(nb, size=self.p["kept"], replace=False).tolist())
        lat = np.empty(nb)
        kept = []
        perf = time.perf_counter
        for k in range(nb):
            paths = k % self.PATHS_EVERY == self.PATHS_EVERY - 1
            s, d = src[k * b : (k + 1) * b], dst[k * b : (k + 1) * b]
            kind = "bench.serve.resolve_paths" if paths else "bench.serve.resolve_hops"
            with obs.span(kind, queries=b):
                t0 = perf()
                out = svc.resolve(s, d, paths=paths)
                lat[k] = perf() - t0
            if k in keep:
                kept.append(out)
        return {"latency_s": lat, "kept": kept, "queries": b * nb}

    def items(self, output) -> int:
        return output["queries"]

    def extra_metrics(self, outputs, times):
        lat_ms = np.concatenate([o["latency_s"] for o in outputs]) * 1e3
        queries = sum(o["queries"] for o in outputs)
        return {
            "serve_qps": (queries / sum(times), "queries/s"),
            "serve_batch_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "serve_batch_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
            "serve_batches": (int(lat_ms.size), "count"),
        }

    def check(self, outputs) -> tuple[int, int]:
        from repro.cache import cached_next_hop_table
        from repro.serve.harness import verify_against_scalar

        adj = oracle_adjacency(self.net)
        dist = oracle_distances(adj, np.arange(self.net.num_nodes))
        arcs = adj.toarray() > 0
        rng = np.random.default_rng([self.seed, 2])
        attempted = failed = 0
        for o in outputs:
            for batch in o["kept"]:
                a, f = check_batch(batch, arcs, dist, rng, self.p["kept_queries"])
                attempted += a
                failed += f
        # the batched gathers against the scalar walk over the stored table
        table = cached_next_hop_table(self.net, with_distances=True)
        checked, mismatches = verify_against_scalar(
            self.svc, table, self.src, self.dst, self.p["verify_sample"], seed=self.seed
        )
        return attempted + checked, failed + mismatches

    def spill_bytes(self) -> int:
        spec = self.svc.spec()
        return sum(Path(p).stat().st_size for p in spec.table_paths + spec.dist_paths)

    def teardown(self) -> None:
        self._drop_cache()


def check_batch(batch, arcs: np.ndarray, dist: np.ndarray, rng, sample: int):
    """Check ``sample`` queries of one ``ResolveBatch`` against BFS
    distances ``dist`` (``dist[u, v]``) and the dense 0/1 arc matrix ``arcs``.

    A query passes when its distance is the shortest one, its first hop is
    an arc one step closer to ``dst`` (or ``dst`` itself when
    ``src == dst``), and, with paths, the path walks arcs from ``src`` to
    ``dst`` in exactly ``distance`` hops.  Returns ``(attempted, failed)``.
    """
    q = len(batch)
    idx = np.sort(rng.choice(q, size=min(sample, q), replace=False))
    src, dst = batch.src[idx], batch.dst[idx]
    hop = batch.next_hop[idx].astype(np.int64)
    d = dist[src, dst]
    ok = np.asarray(batch.distance[idx]) == d
    same = src == dst
    in_range = (hop >= 0) & (hop < arcs.shape[0])
    hop_c = np.where(in_range, hop, 0)
    is_arc = arcs[src, hop_c]
    closer = dist[hop_c, dst] == d - 1
    ok &= np.where(same, hop == dst, in_range & is_arc & closer)
    if batch.paths is not None:
        for j, i in enumerate(idx.tolist()):
            if not ok[j]:
                continue
            path = np.asarray(batch.path_list(i))
            ok[j] = (
                len(path) == d[j] + 1
                and path[0] == src[j]
                and path[-1] == dst[j]
                and path.min() >= 0
                and bool(arcs[path[:-1], path[1:]].all())
            )
    return int(idx.size), int((~ok).sum())


# ----------------------------------------------------------------------
# construct: closure-dominated network builds
# ----------------------------------------------------------------------
class Construct(Workload):
    """``networks.build`` without an artifact cache, then ``adjacency_csr``
    and a sampled label round-trip on each network."""

    name = "construct"
    # (family, l, n, symmetric) over the nucleus Q_n
    FULL = [("hsn", 3, 5, False), ("ring_cn", 4, 4, False),
            ("super_flip", 4, 4, False), ("hsn", 3, 4, True)]
    SMOKE = [("hsn", 2, 3, False), ("ring_cn", 3, 2, False),
             ("super_flip", 3, 2, False), ("hsn", 2, 2, True)]
    SAMPLE = {"full": 10_000, "smoke": 50}

    def __init__(self, size, seed, scratch):
        super().__init__(size, seed, scratch)
        self.specs = self.FULL if size == "full" else self.SMOKE
        self.sample = self.SAMPLE[size]
        self.rng = np.random.default_rng(self.seed)

    @staticmethod
    def _build(family, l, n, symmetric):
        with obs.span("bench.networks.build"):
            return networks.build(family, l=l, n=n, symmetric=symmetric)

    def setup(self) -> None:
        # warm-up builds of each family at its smallest size, so lazy
        # imports and first-call costs are paid before timing
        for family, l, n, symmetric in self.SMOKE:
            self._build(family, l, n, symmetric)

    def iteration(self):
        out = []
        for family, l, n, symmetric in self.specs:
            net = self._build(family, l, n, symmetric)
            net.adjacency_csr()
            ids = self.rng.integers(0, net.num_nodes, self.sample)
            with obs.span("bench.core.network.label_roundtrip"):
                back = [net.node_of(net.label_of(i)) for i in ids.tolist()]
            deg = net.degrees()
            out.append({
                "spec": (family, l, n, symmetric),
                "num_nodes": net.num_nodes,
                "min_degree": int(deg.min()),
                "max_degree": int(deg.max()),
                "ids": ids,
                "back": np.asarray(back),
            })
        return out

    def items(self, output) -> int:
        return sum(r["num_nodes"] for r in output)

    def extra_metrics(self, outputs, times):
        rates = [self.items(o) / t for o, t in zip(outputs, times)]
        return {"build_nodes_per_s": (float(np.median(rates)), "nodes/s")}

    def check(self, outputs) -> tuple[int, int]:
        checks = []
        for output in outputs:
            for r in output:
                family, l, n, symmetric = r["spec"]
                # Theorem 3.2: M^l nodes, l!·M^l for the symmetric variant
                nodes = (1 << n) ** l * (math.factorial(l) if symmetric else 1)
                supers = 2 if family == "ring_cn" and l > 2 else l - 1
                checks += [
                    r["num_nodes"] == nodes,
                    r["max_degree"] == n + supers,
                    r["min_degree"] >= n,
                    r["min_degree"] == r["max_degree"] or not symmetric,
                    bool(np.array_equal(r["ids"], r["back"])),
                ]
        return len(checks), checks.count(False)


WORKLOADS = {w.name: w for w in (Evaluate, Simulate, Serve, Construct)}
