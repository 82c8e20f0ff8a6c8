"""Telemetry subsystem: tracer nesting, metric snapshots/diffs,
Chrome-trace export, end-to-end instrumentation coverage, the
cross-process campaign merge and the trace-summary tool."""

from __future__ import annotations

import io
import json
import logging
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import (
    AVIONICS,
    SEA_LEVEL,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
)
from repro.campaign.runner import _evaluate_batch, clear_analyzer_cache
from repro.core.sertopt import Sertopt, SertoptConfig
from repro.telemetry import (
    NULL_METRICS,
    NULL_TELEMETRY,
    NULL_TRACER,
    MetricsRegistry,
    NullTelemetry,
    NullTracer,
    Span,
    Telemetry,
    Tracer,
    aggregate_spans,
    chrome_trace,
    chrome_trace_events,
    enable_console_logging,
    format_report,
    json_summary,
    resolve,
    span_coverage,
    validate_chrome_trace,
    write_chrome_trace,
)

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


class FakeClock:
    """Deterministic ns clock: each call returns the next scripted tick."""

    def __init__(self, *ticks: int) -> None:
        self._ticks = list(ticks)

    def __call__(self) -> int:
        return self._ticks.pop(0)


def small_traced_spec(tel, **overrides) -> CampaignSpec:
    defaults = dict(
        circuits=("c17",),
        charges_fc=(4.0, 16.0),
        environments=(SEA_LEVEL, AVIONICS),
        n_vectors=200,
        seed=3,
        telemetry=tel,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# ---------------------------------------------------------------- tracer


class TestTracer:
    def test_nesting_and_parentage(self):
        tracer = Tracer(clock=FakeClock(0, 10, 40, 100))
        with tracer.span("outer", phase=1):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()  # finish order: inner first
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        assert (inner.start_ns, inner.end_ns) == (10, 40)
        assert (outer.start_ns, outer.end_ns) == (0, 100)
        assert outer.attrs == {"phase": 1}
        assert outer.duration_ns == 100
        assert len(tracer) == 2

    def test_span_ids_unique_and_clear(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [span.span_id for span in tracer.spans()]
        assert len(set(ids)) == 5
        tracer.clear()
        assert len(tracer) == 0

    def test_record_parents_under_open_span(self):
        tracer = Tracer(clock=FakeClock(0, 1000))
        with tracer.span("execute"):
            tracer.record("pool_spinup", 100, 300, workers=2)
        spinup, execute = tracer.spans()
        assert spinup.parent_id == execute.span_id
        assert (spinup.start_ns, spinup.end_ns) == (100, 300)
        assert spinup.attrs == {"workers": 2}
        # Outside any open span a recorded interval is a root.
        tracer.record("orphan", 5, 6)
        assert tracer.spans()[-1].parent_id == 0

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock(0, 50))
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("propagates")
        (span,) = tracer.spans()
        assert span.end_ns == 50

    def test_sibling_threads_get_independent_stacks(self):
        tracer = Tracer()
        gate = threading.Barrier(2)

        def work(name: str) -> None:
            with tracer.span(name):
                gate.wait(timeout=5)  # both spans provably open at once

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = tracer.spans()
        assert {span.name for span in spans} == {"t0", "t1"}
        # Concurrent roots, not accidental parent/child.
        assert all(span.parent_id == 0 for span in spans)
        assert len({span.tid for span in spans}) == 2

    def test_span_dict_round_trip(self):
        tracer = Tracer(clock=FakeClock(3, 9))
        with tracer.span("s", key="value"):
            pass
        (span,) = tracer.spans()
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()

    def test_extend_accepts_spans_and_dicts(self):
        source = Tracer(clock=FakeClock(0, 1, 2, 3))
        with source.span("a"):
            pass
        with source.span("b"):
            pass
        sink = Tracer()
        sink.extend([source.spans()[0], source.spans()[1].to_dict()])
        assert [span.name for span in sink.spans()] == ["a", "b"]


class TestNullPaths:
    def test_null_singletons_are_inert(self):
        assert not NULL_TELEMETRY.enabled
        with NULL_TELEMETRY.span("ignored", anything=1):
            pass
        NULL_TELEMETRY.metrics.add("counter")
        NULL_TELEMETRY.tracer.record("x", 0, 1)
        assert len(NULL_TELEMETRY.tracer) == 0
        assert NULL_TELEMETRY.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_METRICS.snapshot()["counters"] == {}

    def test_resolve(self):
        assert resolve(None) is NULL_TELEMETRY
        tel = Telemetry()
        assert resolve(tel) is tel
        assert resolve(NULL_TELEMETRY) is NULL_TELEMETRY


# --------------------------------------------------------------- metrics


class TestMetrics:
    def test_counters_gauges_timers(self):
        metrics = MetricsRegistry()
        metrics.add("calls")
        metrics.add("calls", 4)
        metrics.gauge("depth", 7.0)
        metrics.add_time("phase", 0.25, count=2)
        snap = metrics.snapshot()
        assert snap["counters"]["calls"] == 5
        assert snap["gauges"]["depth"] == 7.0
        assert snap["timers"]["phase"] == {"total_s": 0.25, "count": 2}

    def test_time_context_records_one_sample(self):
        metrics = MetricsRegistry()
        with metrics.time("tick"):
            pass
        bucket = metrics.snapshot()["timers"]["tick"]
        assert bucket["count"] == 1
        assert bucket["total_s"] >= 0.0

    def test_diff_is_exact(self):
        metrics = MetricsRegistry()
        metrics.add("a", 2)
        before = metrics.snapshot()
        metrics.add("a", 3)
        metrics.add("b")
        metrics.gauge("g", 1.5)
        metrics.add_time("t", 0.5)
        delta = MetricsRegistry.diff(before, metrics.snapshot())
        assert delta["counters"] == {"a": 3, "b": 1}
        assert delta["gauges"] == {"g": 1.5}
        assert delta["timers"] == {"t": {"total_s": 0.5, "count": 1}}
        # Self-diff is empty (counters/timers) — snapshots are stable.
        snap = metrics.snapshot()
        again = MetricsRegistry.diff(snap, snap)
        assert again["counters"] == {} and again["timers"] == {}

    def test_merge_folds_shipped_snapshot(self):
        local = MetricsRegistry()
        local.add("shared", 1)
        shipped = MetricsRegistry()
        shipped.add("shared", 2)
        shipped.add("remote_only", 5)
        shipped.add_time("t", 1.0)
        local.merge(shipped.snapshot())
        snap = local.snapshot()
        assert snap["counters"] == {"shared": 3, "remote_only": 5}
        assert snap["timers"]["t"] == {"total_s": 1.0, "count": 1}


# ------------------------------------------------------------- exporters


def _fake_spans():
    """A hand-built two-level tree plus a second-process root."""
    tracer = Tracer(clock=FakeClock(0, 100, 400, 500, 500, 1000))
    with tracer.span("root"):
        with tracer.span("child"):
            pass  # 100..400
        with tracer.span("instant"):
            pass  # 500..500, zero-length
    return tracer.spans()


class TestExporters:
    def test_chrome_events_balanced_and_monotone(self):
        events = chrome_trace_events(_fake_spans())
        assert [e["ph"] for e in events] == ["B", "B", "E", "B", "E", "E"]
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        begins = [e for e in events if e["ph"] == "B"]
        assert [e["name"] for e in begins] == ["root", "child", "instant"]
        # Zero-length spans are widened to 1 ns so viewers render them.
        instant_b = next(e for e in begins if e["name"] == "instant")
        instant_e = events[events.index(instant_b) + 1]
        assert instant_e["ts"] > instant_b["ts"]

    def test_validate_clean_and_dirty(self):
        assert validate_chrome_trace(chrome_trace(_fake_spans())) == []
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "E", "ts": 1, "pid": 1, "tid": 1}]}
        )
        assert problems  # unbalanced E must be reported

    def test_aggregate_self_time(self):
        rows = aggregate_spans(_fake_spans())
        assert rows["root"]["count"] == 1
        assert rows["root"]["total_s"] == pytest.approx(1e-6)
        # Self = 1000 ns minus the 300 ns child (instant contributes 0).
        assert rows["root"]["self_s"] == pytest.approx(700e-9)
        assert rows["child"]["self_s"] == pytest.approx(300e-9)

    def test_span_coverage(self):
        assert span_coverage(_fake_spans(), "root") == pytest.approx(0.3)
        assert span_coverage((), "missing") == 0.0

    def test_json_summary_and_report(self):
        tel = Telemetry()
        tel.tracer.extend(_fake_spans())
        tel.metrics.add("calls", 3)
        summary = json_summary(tel)
        assert {"spans", "metrics"} <= set(summary)
        assert summary["metrics"]["counters"]["calls"] == 3
        report = format_report(tel)
        assert "root" in report and "calls" in report

    def test_write_chrome_trace_file(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "trace.json", _fake_spans(), metadata={"mode": "test"}
        )
        payload = json.loads(Path(path).read_text())
        assert payload["otherData"]["mode"] == "test"
        assert validate_chrome_trace(payload) == []


# ------------------------------------------- end-to-end instrumentation


class TestTracedOptimize:
    @pytest.fixture(scope="class")
    def traced(self, request):
        from repro.circuit.iscas85 import iscas85_circuit
        from repro.core.aserta import AsertaConfig

        tel = Telemetry()
        opt = Sertopt(
            iscas85_circuit("c17"),
            config=SertoptConfig(
                max_evaluations=6,
                seed=3,
                aserta=AsertaConfig(n_vectors=200, seed=3),
            ),
            telemetry=tel,
        )
        result = opt.optimize()
        return tel, result

    def test_trace_valid_and_covered(self, traced):
        tel, _ = traced
        spans = tel.tracer.spans()
        assert validate_chrome_trace(chrome_trace(spans)) == []
        # Acceptance bar: the phase spans account for >=90% of the
        # optimize() wall time — nothing substantial runs untraced.
        assert span_coverage(spans, "sertopt.optimize") >= 0.90
        names = {span.name for span in spans}
        assert {
            "sertopt.optimize",
            "sertopt.setup",
            "sertopt.delay_space",
            "sertopt.final_match",
            "optimizer.search",
            "matcher.match_batch",
            "aserta.analyze",
        } <= names

    def test_counters_populated(self, traced):
        tel, result = traced
        counters = tel.metrics.snapshot()["counters"]
        assert counters["optimizer.runs"] == 1
        assert (
            counters["optimizer.evaluations"]
            == result.optimizer_result.evaluations
        )
        assert counters["matcher.match_batch.calls"] >= 1
        assert counters["matcher.lanes"] >= counters["matcher.match_batch.calls"]
        assert (
            counters["optimizer.probes.speculated"]
            >= counters["optimizer.probes.replayed"]
        )

    def test_disabled_is_silent(self):
        from repro.circuit.iscas85 import iscas85_circuit

        from repro.core.aserta import AsertaConfig

        opt = Sertopt(
            iscas85_circuit("c17"),
            config=SertoptConfig(
                max_evaluations=4,
                seed=3,
                aserta=AsertaConfig(n_vectors=200, seed=3),
            ),
        )
        assert opt.telemetry is NULL_TELEMETRY
        opt.optimize()
        assert len(opt.telemetry.tracer) == 0


# ------------------------------------------------------------- campaigns


class TestCampaignTelemetry:
    def run_traced(self, parallel: bool, **overrides):
        tel = Telemetry()
        clear_analyzer_cache()
        spec = small_traced_spec(tel, **overrides)
        outcome = CampaignRunner(spec, store=ResultStore()).run(parallel=parallel)
        return tel, outcome

    def test_serial_run_traced_end_to_end(self):
        tel, outcome = self.run_traced(parallel=False)
        spans = tel.tracer.spans()
        assert validate_chrome_trace(chrome_trace(spans)) == []
        assert span_coverage(spans, "campaign.run") >= 0.90
        names = {span.name for span in spans}
        assert {
            "campaign.run",
            "campaign.plan",
            "campaign.execute",
            "campaign.batch",
            "campaign.finalize",
            "aserta.analyze",
        } <= names
        counters = tel.metrics.snapshot()["counters"]
        assert counters["campaign.scenarios.computed"] == outcome.computed
        assert counters["campaign.runs"] == 1

    def test_mode_invariant_counters_match_exactly(self):
        """The work metrics are a mode-independent contract: a pooled
        run (or its serial fallback) must count exactly the same
        analyses as the serial run — nothing recomputed, nothing lost
        in the worker merge."""
        invariant = (
            "campaign.scenarios.computed",
            "campaign.analyses.run",
            "campaign.analyses.shared",
            "aserta.analyze.calls",
        )
        tel_serial, _ = self.run_traced(parallel=False)
        tel_pooled, _ = self.run_traced(parallel=True)
        serial = tel_serial.metrics.snapshot()
        pooled = tel_pooled.metrics.snapshot()
        delta = MetricsRegistry.diff(serial, pooled)
        for name in invariant:
            assert serial["counters"][name] > 0
            assert name not in delta["counters"], (
                name,
                serial["counters"].get(name),
                pooled["counters"].get(name),
            )

    def test_worker_ship_path_merges(self):
        """The exact payload a pool worker returns (fresh handle,
        picklable dict) folds into a runner-side handle without span-id
        collisions — exercised directly so it is covered even where the
        sandbox has no process pool."""
        spec = small_traced_spec(None)
        keys = spec.scenarios()
        items = [
            (key, spec.assignments[key.assignment], spec.environment_by_name(key.environment))
            for key in keys
        ]
        clear_analyzer_cache()
        _, stats = _evaluate_batch(
            keys[0].structural_group(), spec.aserta_config(), items,
            ship_telemetry=True,
        )
        payload = stats["telemetry"]
        pickle.dumps(payload)  # must survive the pickle boundary
        tel = Telemetry()
        with tel.span("campaign.run"):
            tel.merge(payload)
        spans = tel.tracer.spans()
        assert validate_chrome_trace(chrome_trace(spans)) == []
        assert "campaign.batch" in {span.name for span in spans}
        assert tel.metrics.snapshot()["counters"]["campaign.batches"] == 1
        # Shipped spans keep their own pid; the runner span keeps ours.
        assert {span.name for span in spans if span.pid == spans[0].pid}

    def test_serial_spans_share_runner_ids_without_collision(self):
        """Serial batches record into the runner's live tracer — span
        ids must stay unique per (pid, id) or the Chrome export would
        interleave B/E pairs."""
        tel, _ = self.run_traced(parallel=False)
        seen = set()
        for span in tel.tracer.spans():
            key = (span.pid, span.span_id)
            assert key not in seen
            seen.add(key)

    def test_pool_fallback_warns(self, monkeypatch, caplog):
        from repro.campaign import pool as pool_mod

        def boom(self):
            raise pool_mod.WorkerPoolError("sandbox denies fork")

        monkeypatch.setattr(pool_mod.WorkerPool, "start", boom)
        # Two charges -> two batches, so the runner actually reaches for
        # the pool (a single batch is clamped to one worker and never
        # tries it).
        spec = small_traced_spec(None)
        with caplog.at_level(logging.WARNING, logger="repro.campaign.runner"):
            outcome = CampaignRunner(
                spec, store=ResultStore(), max_workers=2
            ).run(parallel=True)
        assert outcome.mode == "serial"
        assert outcome.computed == spec.size()
        assert any(
            "falling back to serial" in record.getMessage()
            for record in caplog.records
        )

    def test_telemetry_never_enters_digests(self):
        plain = small_traced_spec(None)
        traced = small_traced_spec(Telemetry())
        assert [key.digest() for key in plain.scenarios()] == [
            key.digest() for key in traced.scenarios()
        ]
        for key in traced.scenarios():
            assert "telemetry" not in key.to_json_dict()


# ---------------------------------------------------------------- logging


class TestConsoleLogging:
    def test_enable_console_logging_captures_debug(self):
        stream = io.StringIO()
        handler = enable_console_logging(logging.DEBUG, stream=stream)
        try:
            logging.getLogger("repro.test_channel").debug("hello from repro")
        finally:
            logging.getLogger("repro").removeHandler(handler)
            logging.getLogger("repro").setLevel(logging.NOTSET)
        assert "hello from repro" in stream.getvalue()

    def test_reenable_replaces_handler(self):
        first = enable_console_logging(logging.INFO, stream=io.StringIO())
        second = enable_console_logging(logging.INFO, stream=io.StringIO())
        root = logging.getLogger("repro")
        try:
            assert first not in root.handlers
            assert second in root.handlers
        finally:
            root.removeHandler(second)
            root.setLevel(logging.NOTSET)

    def test_import_installs_null_handler(self):
        import repro  # noqa: F401 - side effect under test

        root = logging.getLogger("repro")
        assert any(
            isinstance(handler, logging.NullHandler) for handler in root.handlers
        )


# ----------------------------------------------------- trace summary tool


class TestTraceSummaryTool:
    @pytest.fixture()
    def tool(self):
        sys.path.insert(0, str(TOOLS_DIR))
        try:
            import trace_summary

            yield trace_summary
        finally:
            sys.path.remove(str(TOOLS_DIR))

    def test_summarize_matches_aggregate(self, tool, tmp_path):
        spans = _fake_spans()
        path = write_chrome_trace(tmp_path / "t.json", spans)
        rows = tool.summarize_events(tool.load_events(path))
        by_name = {row["name"]: row for row in rows}
        # Same self-time answer as the in-package aggregator (µs vs s),
        # modulo the 1 ns widening the exporter applies to zero-length
        # spans so viewers can render them.
        for name, row in aggregate_spans(spans).items():
            assert by_name[name]["self_us"] == pytest.approx(
                row["self_s"] * 1e6, abs=2e-3
            )
        assert rows[0]["name"] == "root"  # largest self-time first

    def test_main_prints_table(self, tool, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "t.json", _fake_spans())
        assert tool.main([str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "self" in out and "root" in out
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_main_rejects_garbage(self, tool, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert tool.main([str(bad)]) == 1
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}')
        assert tool.main([str(empty)]) == 1
