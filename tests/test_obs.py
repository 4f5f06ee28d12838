"""Tests for the observability layer (repro.obs)."""

import io
import json

import pytest

from repro import obs
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry, Summary
from repro.obs.trace import TraceSink


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with obs disabled and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestRegistry:
    def test_counters_accumulate(self):
        r = MetricsRegistry()
        r.incr("a")
        r.incr("a", 2)
        r.incr("b", 5)
        assert r.counters == {"a": 3, "b": 5}

    def test_gauges(self):
        r = MetricsRegistry()
        r.gauge("g", 1.5)
        r.gauge("g", 2.5)  # last write wins
        r.gauge_max("m", 3)
        r.gauge_max("m", 1)  # lower value ignored
        assert r.gauges == {"g": 2.5, "m": 3}

    def test_observe_summary(self):
        r = MetricsRegistry()
        for v in [1, 2, 3, 4, 100]:
            r.observe("h", v)
        s = r.values["h"]
        assert s.count == 5
        assert s.total == 110
        assert s.min == 1
        assert s.max == 100
        assert s.mean == 22
        assert s.percentile(50) == 3

    def test_timer_accumulates(self):
        r = MetricsRegistry()
        with r.timer("t"):
            pass
        with r.timer("t"):
            pass
        s = r.timers["t"]
        assert s.count == 2
        assert s.total >= 0
        assert s.min <= s.max

    def test_reset(self):
        r = MetricsRegistry()
        r.incr("a")
        r.gauge("g", 1)
        r.observe("h", 1)
        r.observe_timer("t", 0.1)
        r.reset()
        assert r.report() == {"counters": {}, "gauges": {}, "timers": {}, "values": {}}

    def test_report_roundtrips_through_json(self):
        r = MetricsRegistry()
        r.incr("count", 3)
        r.incr("ratio", 0.5)
        r.gauge("g", 2.25)
        for v in range(10):
            r.observe("h", v)
        r.observe_timer("t", 0.25)
        rep = r.report()
        assert json.loads(json.dumps(rep)) == rep

    def test_summary_percentiles(self):
        s = Summary()
        for v in range(101):
            s.observe(v)
        assert s.percentile(0) == 0
        assert s.percentile(50) == 50
        assert s.percentile(99) == 99
        assert s.percentile(100) == 100


class TestDisabledNoop:
    def test_registry_identity(self):
        assert obs.registry() is NOOP_REGISTRY
        assert obs.registry() is obs.registry()

    def test_span_identity(self):
        # disabled spans are one shared object — no allocations per call
        assert obs.span("a") is obs.span("b")
        assert obs.span("a") is obs.NOOP_SPAN
        assert obs.timer("x") is obs.NOOP_SPAN

    def test_noop_timer_identity(self):
        assert NOOP_REGISTRY.timer("a") is NOOP_REGISTRY.timer("b")

    def test_noop_records_nothing(self):
        reg = obs.registry()
        reg.incr("a")
        reg.gauge("g", 1)
        reg.observe("h", 1)
        with reg.timer("t"):
            pass
        with obs.span("s", x=1) as sp:
            sp.set(y=2)
        assert reg.report() == {"counters": {}, "gauges": {}, "timers": {}, "values": {}}
        assert obs.report()["counters"] == {}
        assert obs.report()["timers"] == {}

    def test_timed_decorator_passthrough(self):
        calls = []

        @obs.timed("f")
        def f(x):
            calls.append(x)
            return x + 1

        assert f(1) == 2
        assert calls == [1]
        assert obs.report()["timers"] == {}


class TestEnabledFacade:
    def test_enable_switches_registry(self):
        obs.enable()
        assert obs.registry() is not NOOP_REGISTRY
        obs.registry().incr("a")
        assert obs.report()["counters"] == {"a": 1}
        obs.disable()
        assert obs.registry() is NOOP_REGISTRY
        # metrics survive disable until reset
        assert obs.report()["counters"] == {"a": 1}

    def test_span_times_into_registry(self):
        obs.enable()
        with obs.span("work"):
            with obs.span("inner"):
                pass
        rep = obs.report()
        assert rep["timers"]["work"]["count"] == 1
        assert rep["timers"]["inner"]["count"] == 1

    def test_timed_decorator_records(self):
        obs.enable()

        @obs.timed()
        def g():
            return 7

        assert g() == 7
        [(name, s)] = obs.report()["timers"].items()
        assert "g" in name
        assert s["count"] == 1

    def test_report_roundtrips_through_json(self):
        obs.enable()
        obs.registry().incr("n", 2)
        with obs.span("s"):
            pass
        rep = obs.report()
        assert json.loads(json.dumps(rep)) == rep

    def test_format_report_mentions_everything(self):
        obs.enable()
        obs.registry().incr("my.counter", 4)
        obs.registry().gauge("my.gauge", 1.0)
        obs.registry().observe("my.dist", 3)
        with obs.span("my.timer"):
            pass
        text = obs.format_report()
        for needle in ("my.counter", "my.gauge", "my.dist", "my.timer"):
            assert needle in text


class TestTraceSink:
    def _events(self, buf):
        return [json.loads(line) for line in buf.getvalue().splitlines()]

    def test_nested_spans_close_in_order(self):
        buf = io.StringIO()
        sink = TraceSink(buf)
        with sink.span("outer", a=1):
            with sink.span("middle"):
                sink.instant("tick", i=0)
                with sink.span("inner"):
                    pass
        sink.flush()
        ev = self._events(buf)
        # spans are emitted on close: innermost first
        assert [e["name"] for e in ev] == ["tick", "inner", "middle", "outer"]
        by_name = {e["name"]: e for e in ev}
        assert by_name["outer"]["depth"] == 0
        assert by_name["outer"]["parent"] is None
        assert by_name["middle"]["depth"] == 1
        assert by_name["middle"]["parent"] == "outer"
        assert by_name["inner"]["depth"] == 2
        assert by_name["inner"]["parent"] == "middle"
        assert by_name["tick"]["depth"] == 2
        assert by_name["outer"]["attrs"] == {"a": 1}
        for name in ("outer", "middle", "inner"):
            e = by_name[name]
            assert e["t1"] >= e["t0"]
            assert e["dur"] == pytest.approx(e["t1"] - e["t0"])

    def test_out_of_order_close_raises(self):
        sink = TraceSink(io.StringIO())
        outer = sink.span("outer")
        inner = sink.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            sink.end(outer)

    def test_flush_with_open_span_raises(self):
        sink = TraceSink(io.StringIO())
        sink.span("open").__enter__()
        with pytest.raises(RuntimeError, match="still open"):
            sink.flush()

    def test_span_exception_still_emits(self):
        buf = io.StringIO()
        sink = TraceSink(buf)
        with pytest.raises(ValueError):
            with sink.span("boom"):
                raise ValueError("x")
        sink.flush()
        ev = self._events(buf)
        assert [e["name"] for e in ev] == ["boom"]

    def test_facade_trace_to_stream(self):
        buf = io.StringIO()
        obs.enable(trace=buf)
        with obs.span("outer", kind="test") as sp:
            sp.set(total=5)
            obs.trace_instant("mark", level=1)
        obs.disable()  # flushes; must not close caller's stream
        ev = self._events(buf)
        assert [e["name"] for e in ev] == ["mark", "outer"]
        assert ev[1]["attrs"] == {"kind": "test", "total": 5}
        assert not buf.closed

    def test_facade_trace_to_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(trace=str(path))
        with obs.span("a"):
            pass
        obs.disable()
        ev = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(ev) == 1 and ev[0]["name"] == "a"


class TestInstrumentedKernels:
    def test_closure_metrics_recorded(self):
        from repro.core.ipgraph import build_ip_graph
        from repro.core.permutation import transposition

        gens = [transposition(4, 0, i) for i in range(1, 4)]
        obs.enable()
        build_ip_graph(tuple(range(4)), gens)
        obs.disable()
        rep = obs.report()
        assert rep["counters"]["closure.fast.nodes"] == 24
        assert rep["counters"]["closure.fast.arcs"] == 72
        # every non-discovery arc is a dedup hit
        assert rep["counters"]["closure.fast.dedup_hits"] == 72 - 23
        assert rep["timers"]["closure.build.fast"]["count"] == 1
        # one frontier per BFS level of the star graph S4: 1, 3, 6, 9, 5
        fast = rep["values"]["closure.fast.level_frontier"]
        assert fast["count"] == 5
        assert fast["max"] == 9

    def test_closure_trace_covers_build(self, tmp_path):
        from repro.core.ipgraph import build_ip_graph
        from repro.core.permutation import transposition

        path = tmp_path / "t.jsonl"
        obs.enable(trace=str(path))
        build_ip_graph(tuple(range(4)), [transposition(4, 0, i) for i in (1, 2, 3)])
        obs.disable()
        ev = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [e for e in ev if e["type"] == "span"]
        levels = [e for e in ev if e["name"] == "closure.level"]
        assert any(s["name"] == "closure.build.fast" for s in spans)
        assert levels and all(e["parent"] == "closure.build.fast" for e in levels)
        frontiers = [e["attrs"]["frontier"] for e in levels]
        assert sum(e["attrs"].get("new_nodes", 0) for e in levels) == 24 - 1
        assert frontiers[0] == 1

    def test_routing_metrics_recorded(self):
        from repro.networks.classic import hypercube
        from repro.routing.table import NextHopTable

        g = hypercube(3)
        obs.enable()
        table = NextHopTable(g)
        table.path(0, 7)
        obs.disable()
        rep = obs.report()
        assert rep["counters"]["routing.table.builds"] == 1
        assert rep["counters"]["routing.table.nodes"] == 8
        assert rep["counters"]["routing.routes"] == 1
        assert rep["values"]["routing.hops"]["count"] == 1
        assert rep["values"]["routing.hops"]["max"] == 3  # antipodal in Q3
        assert rep["timers"]["routing.table.build"]["count"] == 1

    def test_sim_metrics_recorded(self):
        from repro.networks.classic import hypercube
        from repro.sim.simulator import PacketSimulator

        g = hypercube(3)
        obs.enable()
        stats = PacketSimulator(g).run([(0, 0, 7), (0, 3, 4)])
        obs.disable()
        rep = obs.report()
        assert stats.delivered == 2
        assert rep["counters"]["sim.runs"] == 1
        assert rep["counters"]["sim.packets_injected"] == 2
        assert rep["counters"]["sim.packets_delivered"] == 2
        assert rep["counters"]["sim.events"] >= 2
        assert rep["values"]["sim.latency"]["count"] == 2
        assert rep["timers"]["sim.run"]["count"] == 1
