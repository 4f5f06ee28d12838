"""Observability for the IP-graph pipeline: metrics, timers, trace events.

The package exposes one process-wide switchboard:

* :func:`enable` / :func:`disable` / :func:`enabled` — master switch,
  optionally attaching a JSONL trace sink (see :mod:`repro.obs.trace`);
* :func:`registry` — the live :class:`~repro.obs.registry.MetricsRegistry`
  when enabled, a shared no-op twin otherwise;
* :func:`span` / :func:`timed` — wall-clock timing blocks that feed both
  the registry's timer summaries and (when attached) the trace sink, with
  proper nesting;
* :func:`trace_instant` — point events inside a span (per-BFS-level
  frontier sizes, batch marks);
* :func:`report` — JSON-serializable snapshot; :func:`format_report` — the
  plain-text table the CLI prints under ``--profile``.

**Disabled is the default and costs nothing.**  ``registry()`` and
``span()`` return shared singletons whose methods do nothing, and
instrumented kernels accumulate per-iteration tallies in locals, touching
the registry a constant number of times per call.  Benchmarked in
``benchmarks/bench_obs_overhead.py`` (<2% on a closure build).

Example::

    from repro import obs

    obs.enable(trace="run.jsonl")
    with obs.span("experiment", network="hsn"):
        g = build_ip_graph(seed, gens)
    print(obs.format_report())
    obs.disable()
"""

from __future__ import annotations

import functools
import time
from typing import IO

from .registry import NOOP_REGISTRY, MetricsRegistry, NoopRegistry, Summary
from .trace import SpanHandle, TraceSink

__all__ = [
    "MetricsRegistry",
    "NoopRegistry",
    "NOOP_REGISTRY",
    "Summary",
    "TraceSink",
    "SpanHandle",
    "enable",
    "disable",
    "enabled",
    "registry",
    "span",
    "timed",
    "timer",
    "trace_instant",
    "trace_sink",
    "report",
    "format_report",
    "reset",
    "artifact",
    "artifact_sink",
    "set_artifact_sink",
]

_enabled: bool = False
_registry = MetricsRegistry()
_trace: TraceSink | None = None
_owns_stream: bool = False


# ----------------------------------------------------------------------
# master switch
# ----------------------------------------------------------------------
def enable(trace: str | IO[str] | None = None) -> None:
    """Turn instrumentation on, optionally attaching a JSONL trace sink.

    ``trace`` may be a path (opened for writing, closed by
    :func:`disable`) or an open text stream (left open).  Calling
    :func:`enable` again replaces any previous sink.
    """
    global _enabled, _trace, _owns_stream
    if _trace is not None:
        _close_trace()
    if trace is not None:
        if hasattr(trace, "write"):
            stream, _owns_stream = trace, False
        else:
            stream, _owns_stream = open(trace, "w"), True
        _trace = TraceSink(stream)
    _enabled = True


def disable() -> None:
    """Turn instrumentation off and flush/close the trace sink, if any."""
    global _enabled
    _close_trace()
    _enabled = False


def _close_trace() -> None:
    global _trace, _owns_stream
    if _trace is None:
        return
    _trace.flush()
    if _owns_stream:
        _trace.stream.close()
    _trace = None
    _owns_stream = False


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return _enabled


def registry() -> MetricsRegistry:
    """The live registry when enabled, the shared no-op twin otherwise."""
    return _registry if _enabled else NOOP_REGISTRY


def trace_sink() -> TraceSink | None:
    """The attached trace sink, or ``None``."""
    return _trace


def reset() -> None:
    """Clear all recorded metrics (the enable/disable state is untouched)."""
    _registry.reset()


# ----------------------------------------------------------------------
# spans and timers
# ----------------------------------------------------------------------
class _Span:
    """Times its body into the registry and (if attached) the trace sink."""

    __slots__ = ("name", "attrs", "elapsed", "_t0", "_handle")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0
        self._t0 = 0.0
        self._handle: SpanHandle | None = None

    def set(self, **attrs) -> "_Span":
        """Attach attributes (visible in the trace event), chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        if _trace is not None:
            # share the attrs dict so .set() after entry is still seen
            self._handle = SpanHandle(_trace, self.name, self.attrs)
            _trace._begin(self._handle)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        _registry.observe_timer(self.name, self.elapsed)
        if self._handle is not None:
            _trace.end(self._handle)
            self._handle = None


class _NoopSpan:
    """Shared disabled-path span: no state, no allocations."""

    __slots__ = ()
    elapsed = 0.0

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def span(name: str, /, **attrs):
    """A timing block: ``with obs.span("closure.build", n=64) as sp: ...``.

    Records a timer summary under ``name`` and, when a trace sink is
    attached, emits a nested ``span`` JSONL event.  Returns a shared no-op
    object when instrumentation is disabled.
    """
    if not _enabled:
        return NOOP_SPAN
    return _Span(name, attrs)


def timer(name: str):
    """Alias of :func:`span` for timing-only call sites."""
    return span(name)


def timed(name: str | None = None):
    """Decorator timing every call of the wrapped function as a span.

    The span name defaults to the function's qualified name.  Disabled
    instrumentation short-circuits straight into the wrapped function.
    """

    def deco(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def trace_instant(name: str, /, **attrs) -> None:
    """Emit a point event to the trace sink (no-op without a sink)."""
    if _trace is not None:
        _trace.instant(name, **attrs)


# ----------------------------------------------------------------------
# artifact hooks (runtime sanitizer)
# ----------------------------------------------------------------------
_artifact_sink = None


def set_artifact_sink(sink) -> None:
    """Install (or, with ``None``, remove) the process-wide artifact sink.

    While a sink is installed, instrumented production points — built
    networks in :func:`repro.networks.registry.build`, per-task results in
    :func:`repro.parallel.run_tasks`, routing tables in
    :func:`repro.cache.tables.cached_next_hop_table` — hand every
    intermediate artifact to ``sink(name, obj)``.  The runtime sanitizer
    (:mod:`repro.check.sanitize`) uses this to hash the artifact stream of
    a run; with no sink installed (the default) :func:`artifact` is a
    single ``None`` check.
    """
    global _artifact_sink
    _artifact_sink = sink


def artifact_sink():
    """The installed artifact sink, or ``None``.

    Call sites with non-trivial artifact *preparation* cost (e.g. a table
    re-serialization) should gate on this before building the object to
    hand to :func:`artifact`.
    """
    return _artifact_sink


def artifact(name: str, obj) -> None:
    """Offer one intermediate artifact to the installed sink (no-op without
    one).  The object is passed as-is — hashing/serialization is the
    sink's job, so the disabled path costs one attribute read."""
    if _artifact_sink is not None:
        _artifact_sink(name, obj)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report() -> dict:
    """Snapshot of the live registry plus the switchboard state."""
    out = _registry.report()
    out["enabled"] = _enabled
    out["trace_events"] = _trace.events_written if _trace is not None else 0
    return out


def _fmt(v, unit: float = 1.0, digits: int = 3) -> str:
    if v is None:
        return "-"
    return f"{v * unit:.{digits}f}"


def format_report(rep: dict | None = None) -> str:
    """Render a report dict as the plain-text table shown by ``--profile``."""
    rep = report() if rep is None else rep
    lines: list[str] = []
    timers = rep.get("timers", {})
    if timers:
        lines.append("-- timers --------------------------------------------------")
        lines.append(
            f"{'name':<34} {'count':>6} {'total(s)':>9} {'mean(ms)':>9} "
            f"{'p99(ms)':>9} {'max(ms)':>9}"
        )
        for name, s in timers.items():
            lines.append(
                f"{name:<34} {s['count']:>6} {_fmt(s['total']):>9} "
                f"{_fmt(s['mean'], 1e3):>9} {_fmt(s['p99'], 1e3):>9} "
                f"{_fmt(s['max'], 1e3):>9}"
            )
    values = rep.get("values", {})
    if values:
        lines.append("-- distributions -------------------------------------------")
        lines.append(
            f"{'name':<34} {'count':>6} {'mean':>9} {'p50':>9} {'p99':>9} {'max':>9}"
        )
        for name, s in values.items():
            lines.append(
                f"{name:<34} {s['count']:>6} {_fmt(s['mean']):>9} "
                f"{_fmt(s['p50']):>9} {_fmt(s['p99']):>9} {_fmt(s['max']):>9}"
            )
    counters = rep.get("counters", {})
    if counters:
        lines.append("-- counters ------------------------------------------------")
        for name, v in counters.items():
            lines.append(f"{name:<34} {v}")
    gauges = rep.get("gauges", {})
    if gauges:
        lines.append("-- gauges --------------------------------------------------")
        for name, v in gauges.items():
            lines.append(f"{name:<34} {_fmt(v)}")
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
