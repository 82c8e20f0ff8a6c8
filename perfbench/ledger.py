"""Traced-run ledger: span recording around public layer entry points.

The benchmark measures end-to-end numbers with nothing installed.  A
traced round installs thin wrappers around the public functions and
methods of each layer (:data:`LAYERS`), on the name the *caller* looks
up: ``repro.core.*`` modules bind functions with ``from ... import``, so
``repro.core.aserta.batched_electrical_arrays`` is patched rather than
``repro.tech.electrical_view.batched_electrical_arrays``, and methods are
patched on their class.  Each call records one span on a
:class:`repro.telemetry.Tracer` (name, start, end, parent; a request is
the ``request.<flow>`` span at the root of a span's parent chain), kept
in memory; :func:`layer_metrics` turns the spans of the traced rounds
into the per-layer ledger, and ``repro.telemetry.export`` writes them as
the Chrome trace that ``tools/trace_summary.py`` reads.

Forked campaign workers never see the wrappers (the pool is forked
before any are installed); campaign layer numbers come from the public
``CampaignOutcome`` fields instead, and worker batches are placed on the
timeline as synthetic spans from their ``perf_counter_ns`` endpoints.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from typing import Any, Callable

from repro.telemetry.export import aggregate_spans
from repro.telemetry.tracer import Tracer


def _lanes(result) -> dict[str, int]:
    return {"lanes": len(result)}


def _lanes_of_arrays(result) -> dict[str, int]:
    return {"lanes": len(result["delay_ps"])}


def _lanes_of_match(result) -> dict[str, int]:
    return {"lanes": len(result.cell_idx)}


def _evaluations(result) -> dict[str, int]:
    return {"evaluations": int(result.evaluations)}


#: ``(module, attribute path, span name, counts-from-result)`` for every
#: wrapped entry point.  The module is where the caller looks the name
#: up; a dotted attribute path is a method patched on its class.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    # engine — structural artifacts (build-or-serve)
    ("repro.engine.engine", "AnalysisEngine.p_matrix", "engine.p_matrix", None),
    ("repro.engine.engine", "AnalysisEngine.masking_structure",
     "engine.masking_structure", None),
    ("repro.engine.engine", "AnalysisEngine.sweep_plan", "engine.sweep_plan", None),
    # tech — electrical annotation and the timing-repair model
    ("repro.core.aserta", "batched_electrical_arrays",
     "tech.batched_electrical_arrays", _lanes_of_arrays),
    ("repro.tech.electrical_view", "CircuitElectrical.__init__",
     "tech.CircuitElectrical", None),
    ("repro.core.matching", "continuous_delay_arrays",
     "tech.continuous_delay_arrays", None),
    # core.electrical_masking — the Section-3.2 sweep
    ("repro.core.aserta", "electrical_masking", "core.electrical_masking", None),
    ("repro.core.aserta", "electrical_masking_many",
     "core.electrical_masking_many", _lanes),
    # core.unreliability — the Equation 3-4 reduction
    ("repro.core.aserta", "build_report_from_arrays",
     "core.build_report_from_arrays", None),
    ("repro.core.aserta", "gate_contributions", "core.gate_contributions", None),
    # sta and power
    ("repro.core.aserta", "analyze_timing_batch", "sta.analyze_timing_batch", None),
    ("repro.core.matching", "analyze_timing_batch", "sta.analyze_timing_batch", None),
    ("repro.core.aserta", "circuit_energy_batch", "power.circuit_energy_batch", None),
    # core.matching — discrete cell matching
    ("repro.core.matching", "MatchingEngine.match_with_timing_batch",
     "core.match_with_timing_batch", _lanes_of_match),
    ("repro.core.matching", "MatchingEngine.match_batch", "core.match_batch", None),
    ("repro.core.matching", "MatchingEngine.match_with_timing",
     "core.match_with_timing", None),
    # core.cost — Equation 5
    ("repro.core.cost", "CostEvaluator.evaluate_batch", "core.evaluate_batch",
     _lanes),
    # core.optimizers
    ("repro.core.sertopt", "run_optimizer", "core.run_optimizer", _evaluations),
    # core.delay_assignment
    ("repro.core.delay_assignment", "DelaySpace.__init__", "core.DelaySpace", None),
    ("repro.core.delay_assignment", "DelaySpace.describe",
     "core.DelaySpace.describe", None),
    # core.sertopt
    ("repro.core.sertopt", "size_for_speed", "core.size_for_speed", None),
    ("repro.core.sertopt", "Sertopt.optimize", "core.optimize", None),
    # core.aserta — the analyzer entry points
    ("repro.core.aserta", "AsertaAnalyzer.__init__", "core.AsertaAnalyzer.init", None),
    ("repro.core.aserta", "AsertaAnalyzer.analyze", "core.analyze", None),
    ("repro.core.aserta", "AsertaAnalyzer.analyze_many", "core.analyze_many",
     _lanes),
    # campaign — the result store (pool and batch numbers come from
    # CampaignOutcome, since forked workers cannot return spans)
    ("repro.campaign.store", "ResultStore.__init__", "campaign.store.load", None),
    ("repro.campaign.store", "ResultStore.add", "campaign.store.add", None),
    ("repro.campaign.store", "ResultStore.__contains__", "campaign.store.lookup", None),
    ("repro.campaign.store", "ResultStore.get", "campaign.store.lookup", None),
)

#: Flow entry points: their own time is flow glue, not a layer, so they
#: do not count as coverage in ``trace.unattributed_frac``.
ENTRY_POINTS = frozenset(
    {"core.AsertaAnalyzer.init", "core.analyze", "core.analyze_many", "core.optimize"}
)

#: The end-to-end metric (and workload) each layer should move, by
#: metric-name prefix; printed with every traced run.
TARGETS = {
    "engine.": "cold_estimate_s (iscas most), setup_s",
    "tech.": "reports_per_s and lanes_per_s (wide most), optimize_s",
    "core.electrical_masking": "reports_per_s, lanes_per_s, peak_rss_mb (wide)",
    "core.build_report_from_arrays": "reports_per_s (wide)",
    "core.gate_contributions": "lanes_per_s (wide)",
    "sta.": "lanes_per_s, optimize_s",
    "power.": "lanes_per_s, optimize_s",
    "core.match": "optimize_s",
    "core.evaluate_batch": "optimize_s",
    "core.run_optimizer": "optimize_s",
    "core.optimizer.": "optimize_s",
    "core.DelaySpace": "optimize_s",
    "core.size_for_speed": "optimize_s",
    "core.optimize.": "optimize_s",
    "core.AsertaAnalyzer.init": "cold_estimate_s, setup_s",
    "core.analyze.": "reports_per_s, scenarios_per_s",
    "core.analyze_many.": "lanes_per_s, optimize_s",
    "campaign.pool.": "scenarios_per_s",
    "campaign.batch.": "scenarios_per_s",
    "campaign.store.add": "scenarios_per_s",
    "campaign.store.load": "resume_s",
    "campaign.store.lookup": "resume_s",
    "trace.": "none (trace health)",
}


def target_of(metric: str) -> str:
    return TARGETS[max((p for p in TARGETS if metric.startswith(p)), key=len)]


def _wrap(original: Callable, name: str, tracer: Tracer, counts_of) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
        if counts_of is not None:
            span.attrs.update(counts_of(result))
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every :data:`LAYERS` wrapper for the ``with`` body."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, counts_of in LAYERS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(original, name, tracer, counts_of))
            patched.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _union_s(intervals: list[tuple[int, int]]) -> float:
    covered = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            covered += end - start
            cursor = end
        elif end > cursor:
            covered += end - cursor
            cursor = end
    return covered / 1e9


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round span totals: ``<name>.busy_s``, ``.calls``, ``.self_s``
    and every count a layer recorded (``.lanes``, ``.evaluations``), plus
    the coverage and engine-scope numbers the ledger reports."""
    rounds = max(1, rounds)
    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}

    @functools.cache
    def root_of(span_id: int) -> int:
        parent_id = by_id[span_id].parent_id
        return span_id if parent_id not in by_id else root_of(parent_id)

    def ancestors(span):
        while span.parent_id in by_id:
            span = by_id[span.parent_id]
            yield span

    requests = [span for span in spans if span.name.startswith("request.")]
    layers = [span for span in spans if not span.name.startswith("request.")]
    metrics: dict[str, float] = {}
    for name, bucket in aggregate_spans(layers).items():
        metrics[f"{name}.busy_s"] = bucket["total_s"] / rounds
        metrics[f"{name}.calls"] = bucket["count"] / rounds
        metrics[f"{name}.self_s"] = bucket["self_s"] / rounds
    counts: dict[str, int] = {}
    for span in layers:
        for key, value in span.attrs.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
    metrics.update({name: value / rounds for name, value in counts.items()})

    # Optimizer usefulness: evaluations the search counted over the
    # candidate lanes actually scored inside it.
    scored = sum(
        span.attrs.get("lanes", 0)
        for span in layers
        if span.name == "core.evaluate_batch"
        and any(a.name == "core.run_optimizer" for a in ancestors(span))
    )
    evaluations = counts.get("core.run_optimizer.evaluations", 0)
    metrics["core.optimizer.evaluations"] = evaluations / rounds
    metrics["core.optimizer.lanes_scored"] = scored / rounds
    metrics["core.optimizer.useful_ratio"] = evaluations / scored if scored else 0.0

    # Coverage: request wall time not under any non-entry layer span.
    by_request: dict[int, list] = {}
    for span in layers:
        by_request.setdefault(root_of(span.span_id), []).append(span)
    wall = uncovered = 0.0
    estimate_wall = estimate_p_matrix = 0.0
    p_matrix_elsewhere = 0
    for root in requests:
        flow = root.name.removeprefix("request.")
        members = by_request.get(root.span_id, [])
        intervals = [
            (max(s.start_ns, root.start_ns), min(s.end_ns, root.end_ns))
            for s in members
            if s.name not in ENTRY_POINTS and s.end_ns > root.start_ns
            and s.start_ns < root.end_ns
        ]
        wall += root.duration_s
        uncovered += root.duration_s - _union_s(intervals)
        p_matrix = [s for s in members if s.name == "engine.p_matrix"]
        if flow == "estimate":
            estimate_wall += root.duration_s
            estimate_p_matrix += sum(s.duration_s for s in p_matrix)
        elif flow in ("score", "optimize"):
            p_matrix_elsewhere += len(p_matrix)
    metrics["trace.unattributed_frac"] = uncovered / wall if wall else 0.0
    metrics["engine.p_matrix.estimate_share"] = (
        estimate_p_matrix / estimate_wall if estimate_wall else 0.0
    )
    metrics["engine.p_matrix.calls_score_optimize"] = p_matrix_elsewhere / rounds
    return metrics


def overhead_frac(traced_s: list[float], untraced_s: list[float]) -> float:
    """Median traced round time over median untraced round time, minus 1
    (traced round ``i`` does the same work as untraced round ``i``)."""
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
