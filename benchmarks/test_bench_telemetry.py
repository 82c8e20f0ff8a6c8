"""Telemetry overhead benchmark — the instrumentation must be free
when it is off.

Times ``AsertaAnalyzer.analyze()`` on c432 with telemetry disabled (the
default null-object path) against an uninstrumented replica of the
pre-telemetry analyze body running on the same warmed analyzer, and
gates the overhead at 3%.  The enabled-telemetry cost is measured and
reported in ``BENCH_telemetry.json`` but *not* gated — recording spans
is allowed to cost something; the contract is that not asking for them
costs nothing.  Also exports the example Chrome traces the CI bench job
uploads: a traced c432 ``Sertopt.optimize()`` and a traced two-worker
campaign, each validated and held to the >=90% span-coverage bar.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conformance import paired_times
from repro.campaign import SEA_LEVEL, CampaignRunner, CampaignSpec, ResultStore
from repro.campaign.environments import AVIONICS
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer
from repro.core.electrical_masking import (
    default_sample_widths,
    electrical_masking,
)
from repro.core.sertopt import Sertopt, SertoptConfig
from repro.core.unreliability import build_report_from_arrays
from repro.tech.library import ParameterAssignment
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    span_coverage,
    validate_chrome_trace,
    write_chrome_trace,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_telemetry.json"
TRACE_JSON = REPO_ROOT / "BENCH_telemetry_trace.json"
#: Acceptance gate: disabled telemetry within 3% of the uninstrumented body.
MAX_DISABLED_OVERHEAD = 0.03
#: Acceptance bar for the exported traces (shared with tests).
MIN_COVERAGE = 0.90


def _analyze_baseline(analyzer: AsertaAnalyzer) -> float:
    """The pre-telemetry analyze() body: identical calls, no spans, no
    counters.  Returns the unreliability total so bit-equality against
    the instrumented path can be asserted."""
    assignment = ParameterAssignment()
    elec = analyzer.electrical_view(assignment, vectorized=True)
    sample_widths = default_sample_widths(elec, analyzer.config.n_sample_widths)
    masking = electrical_masking(
        analyzer.circuit,
        elec,
        sample_widths=sample_widths,
        structure=analyzer.structure,
    )
    assert masking.arrays is not None
    arrays = elec.arrays()
    report = build_report_from_arrays(
        analyzer.circuit.name,
        masking.arrays,
        generated=arrays["generated_width_ps"],
        sizes=arrays["size"],
    )
    return report.total


def _paired_overhead(
    base_fn, other_fn, pairs: int
) -> tuple[float, float, float]:
    """``(overhead, base_s, other_s)`` from interleaved paired sampling
    (:func:`conformance.paired_times`).

    Separate best-of passes per side showed measured "overheads" of
    either sign with magnitudes at the 3% gate itself; on a host whose
    absolute timings drifted 25% within one run, the paired medians
    stay within ~1%.  ``base_s``/``other_s`` are the median per-call
    times, reported for the table.
    """
    base_s, other_s = paired_times(base_fn, other_fn, pairs)
    return other_s / base_s - 1.0, base_s, other_s


def test_disabled_telemetry_overhead_gate(benchmark):
    circuit = iscas85_circuit("c432")
    analyzer = AsertaAnalyzer(circuit)  # no telemetry: the null path

    # Warm every lazy cache, and pin correctness: the instrumented
    # analyze() and the uninstrumented replica must agree bit-for-bit.
    instrumented_total = analyzer.analyze().total
    baseline_total = _analyze_baseline(analyzer)
    assert instrumented_total == baseline_total

    pairs = 250  # ~1.5 s of interleaved samples per measurement
    disabled_overhead, baseline_s, disabled_s = _paired_overhead(
        lambda: _analyze_baseline(analyzer),
        lambda: analyzer.analyze(),
        pairs,
    )
    if disabled_overhead > MAX_DISABLED_OVERHEAD:
        # Shared runners jitter; re-measure once (lower median wins)
        # before declaring a regression.  The real null-path cost is a
        # handful of no-op attribute lookups per analyze() — nanoseconds
        # against a tens-of-milliseconds analysis.
        retry_overhead, rebase_s, redis_s = _paired_overhead(
            lambda: _analyze_baseline(analyzer),
            lambda: analyzer.analyze(),
            pairs,
        )
        disabled_overhead = min(disabled_overhead, retry_overhead)
        baseline_s = min(baseline_s, rebase_s)
        disabled_s = min(disabled_s, redis_s)

    # Enabled cost: reported for the table, never gated.  Paired against
    # the same uninstrumented body (which never touches the handle), so
    # the reported figure gets the same drift cancellation as the gate.
    traced = Telemetry()
    analyzer.telemetry = traced
    try:
        enabled_overhead, __, enabled_s = _paired_overhead(
            lambda: _analyze_baseline(analyzer),
            lambda: analyzer.analyze(),
            pairs,
        )
    finally:
        from repro.telemetry import NULL_TELEMETRY

        analyzer.telemetry = NULL_TELEMETRY
    benchmark.pedantic(lambda: analyzer.analyze(), iterations=3, rounds=3)

    payload = {
        "bench": "telemetry_overhead",
        "unix_time": time.time(),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "circuit": "c432",
        "gates": circuit.gate_count,
        "config": {
            "n_vectors": analyzer.config.n_vectors,
            "n_sample_widths": analyzer.config.n_sample_widths,
            "charge_fc": analyzer.config.charge_fc,
        },
        "baseline_analyze_s": baseline_s,
        "disabled_analyze_s": disabled_s,
        "enabled_analyze_s": enabled_s,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "unreliability_total": instrumented_total,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(
        f"\ntelemetry c432 analyze: baseline {baseline_s * 1e3:.1f} ms, "
        f"disabled {disabled_s * 1e3:.1f} ms ({disabled_overhead:+.1%}), "
        f"enabled {enabled_s * 1e3:.1f} ms ({enabled_overhead:+.1%}) "
        f"-> {BENCH_JSON.name}"
    )
    assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled-telemetry analyze() is {disabled_overhead:.1%} slower "
        f"than the uninstrumented body (gate {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_traced_c432_optimize_exports_valid_trace():
    """The acceptance scenario: a traced end-to-end c432 optimize()
    exports a valid Chrome trace whose phase spans cover >=90% of the
    wall time.  The trace file is the artifact CI uploads."""
    from repro.core.aserta import AsertaConfig

    tel = Telemetry()
    result = Sertopt(
        iscas85_circuit("c432"),
        config=SertoptConfig(
            max_evaluations=8,
            seed=0,
            aserta=AsertaConfig(n_vectors=1000, seed=0),
        ),
        telemetry=tel,
    ).optimize()
    assert result.optimized.total <= result.baseline.total + 1e-9
    spans = tel.tracer.spans()
    trace = chrome_trace(spans, metadata={"scenario": "c432 optimize"})
    assert validate_chrome_trace(trace) == []
    coverage = span_coverage(spans, "sertopt.optimize")
    assert coverage >= MIN_COVERAGE, f"coverage {coverage:.1%}"
    write_chrome_trace(
        TRACE_JSON, spans, metadata={"scenario": "c432 optimize"}
    )
    print(
        f"\ntraced c432 optimize: {len(spans)} spans, "
        f"coverage {coverage:.1%} -> {TRACE_JSON.name}"
    )


def test_traced_two_worker_campaign_trace_is_valid():
    """A traced campaign forced onto two workers merges every worker's
    span buffer onto one timeline that still validates and covers the
    run (falls back to the serial timeline in pool-less sandboxes —
    the same bars apply either way)."""
    from repro.campaign.runner import clear_analyzer_cache

    tel = Telemetry()
    clear_analyzer_cache()
    spec = CampaignSpec(
        circuits=("c17",),
        charges_fc=(4.0, 16.0),
        environments=(SEA_LEVEL, AVIONICS),
        n_vectors=500,
        seed=3,
        telemetry=tel,
    )
    with CampaignRunner(spec, store=ResultStore(), max_workers=2) as runner:
        outcome = runner.run(parallel=True)
    assert outcome.computed == spec.size()
    spans = tel.tracer.spans()
    assert validate_chrome_trace(chrome_trace(spans)) == []
    coverage = span_coverage(spans, "campaign.run")
    assert coverage >= MIN_COVERAGE, f"coverage {coverage:.1%}"
    if outcome.mode == "parallel":
        # Worker spans really crossed the process boundary...
        assert len({span.pid for span in spans}) >= 2
        # ...and the overhead decomposition is on the same timeline.
        names = {span.name for span in spans}
        assert "campaign.pool_spinup" in names
        assert "campaign.steal" in names
        assert "campaign.stream_recv" in names
    clear_analyzer_cache()
    print(
        f"\ntraced campaign ({outcome.mode}): {len(spans)} spans, "
        f"coverage {coverage:.1%}"
    )
