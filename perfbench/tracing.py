"""Traced-run support: span wrappers around layer entry points, in-memory
trace capture, and per-layer self time.

The traced run is separate from the timed runs.  It enables ``repro.obs``
with a trace sink that writes to memory, so every span the program already
emits (``closure.build.fast``, ``routing.table.build``, ``sim.run``,
``serve.resolve``) lands next to the benchmark's own ``bench.*`` spans.
The benchmark opens those around the layer calls it makes itself.  Calls
made from inside another layer (``measure_costs`` calling ``diameter``,
everything calling ``Network.adjacency_csr``) are reached by
:func:`install`, which replaces the public function in the namespace its
caller looks it up in and restores it afterwards.  No program file changes.
"""

from __future__ import annotations

import functools
import io
import json
from collections import defaultdict

#: span-name prefix -> layer (module of ``repro``) it is charged to
_LAYER_PREFIXES = (
    ("bench.networks.", "networks"),
    ("bench.core.", "core"),
    ("closure.", "core"),
    ("bench.metrics.", "metrics"),
    ("routing.", "routing"),
    ("bench.sim.", "sim"),
    ("sim.", "sim"),
    ("bench.serve.", "serve"),
    ("serve.", "serve"),
    ("bench.cache.", "cache"),
)
LAYERS = ("networks", "core", "metrics", "routing", "sim", "serve", "cache")

# roots the benchmark opens around each traced pass; time under them that
# no layer span covers is the benchmark's own glue
PASS_SPAN = "bench.pass"
SETUP_SPAN = "bench.setup"
ITERATION_SPAN = "bench.iteration"


def layer_of(name: str) -> str | None:
    """The layer a span name is charged to (``None`` for benchmark roots)."""
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


def _spanned(obs, name: str, fn, attrs=None):
    """``fn`` wrapped in an obs span; ``attrs(args, kwargs, result)`` may
    attach attributes once the call returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name) as sp:
            out = fn(*args, **kwargs)
            if attrs is not None:
                sp.set(**attrs(args, kwargs, out))
            return out

    return wrapper


def install():
    """Wrap the nested layer entry points in spans; returns an undo callable.

    Each target is patched in the namespace its in-program caller resolves
    it from, so the wrapper sees the calls the program makes, not only the
    benchmark's.
    """
    from repro import obs
    from repro.cache import artifacts
    from repro.core import network
    from repro.metrics import clustering, costs, distances

    def _bfs_attrs(args, kwargs, out):
        return {"sources": int(out.shape[0]), "bytes": int(out.nbytes)}

    def _assignment_attrs(args, kwargs, out):
        assignment = args[0] if args else kwargs["assignment"]
        return {"assignment": assignment.name}

    targets = [
        (network.Network, "adjacency_csr", "bench.core.network.adjacency_csr", None),
        (costs, "diameter", "bench.metrics.distances.diameter", None),
        (costs, "average_distance", "bench.metrics.distances.average_distance", None),
        (distances, "bfs_distances", "bench.metrics.distances.bfs", _bfs_attrs),
        (
            clustering,
            "intercluster_distances",
            "bench.metrics.clustering.intercluster_distances",
            _assignment_attrs,
        ),
        (artifacts.ArtifactCache, "export_mmap", "bench.cache.export_mmap", None),
        (artifacts.ArtifactCache, "store_network", "bench.cache.store", None),
        (artifacts.ArtifactCache, "store_arrays", "bench.cache.store", None),
    ]
    saved = []
    for owner, attr, span_name, attrs in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _spanned(obs, span_name, original, attrs))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


class TraceCapture:
    """Keeps the trace stream in memory until :meth:`spans` parses it."""

    def __init__(self) -> None:
        self.stream = io.StringIO()

    def spans(self) -> list[dict]:
        """Every ``span`` event, each with ``children`` and ``self`` added."""
        events = [json.loads(line) for line in self.stream.getvalue().splitlines()]
        spans = [e for e in events if e["type"] == "span"]
        attach_self_time(spans)
        return spans


def attach_self_time(spans: list[dict]) -> None:
    """Set ``self`` = duration minus the time direct children cover.

    Spans come from one thread and close in LIFO order, so a span's
    children are exactly the spans one level deeper whose interval lies
    inside it, and siblings never overlap.
    """
    order = sorted(spans, key=lambda s: (s["t0"], s["depth"]))
    stack: list[dict] = []
    for s in order:
        s["children"] = 0.0
        while stack and stack[-1]["depth"] >= s["depth"]:
            stack.pop()
        if stack:
            stack[-1]["children"] += s["dur"]
        stack.append(s)
    for s in spans:
        s["self"] = s["dur"] - s["children"]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer, plus ``unspanned`` (benchmark roots)."""
    out = dict.fromkeys(LAYERS, 0.0)
    out["unspanned"] = 0.0
    for s in spans:
        layer = layer_of(s["name"])
        if layer is not None:
            out[layer] += s["self"]
        elif s["name"] in (SETUP_SPAN, ITERATION_SPAN):
            out["unspanned"] += s["self"]
    return out


def totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds, and summed numeric attrs."""
    out: dict[str, dict] = defaultdict(lambda: {"count": 0, "dur": 0.0, "attrs": {}})
    for s in spans:
        t = out[s["name"]]
        t["count"] += 1
        t["dur"] += s["dur"]
        for k, v in s["attrs"].items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                t["attrs"][k] = t["attrs"].get(k, 0) + v
    return out
