"""ASERTA core benchmarks — analysis hot paths, gated against floors.

Two gated measurements on c432 at the paper-default configuration,
both written into ``BENCH_aserta.json``:

* ``analyze`` — dict-based reference engine vs. the vectorized array
  engine through the same analyzer (one structural pass, identical
  inputs).  Floor: the array path at least 3x faster than the seed
  implementation.
* ``sweep`` — the fused, plan-compiled Section-3.2 population sweep
  (:func:`electrical_masking_many` with a precompiled
  :class:`~repro.core.sweep_plan.SweepPlan`) vs. the unfused per-level
  loop on a 16-lane mixed-assignment population.  Floor: at least 2x,
  asserted only after the two paths are verified *bitwise identical*
  on the exact tensors being timed.

Both gates use the interleaved paired-median protocol
(:func:`conformance.gated_speedup`): timing each side in its own
best-of pass lets slow drift — thermal throttle, host contention under
a shared VM — land entirely on whichever side ran second, which made
single-pass speedups jitter by tens of percent.  A gate miss triggers
one re-measurement before declaring a regression.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conformance import gated_speedup, mixed_assignments
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer
from repro.core.electrical_masking import (
    default_sample_widths_batch,
    electrical_masking_many,
)
from repro.tech.electrical_view import (
    batched_electrical_arrays,
    stack_cell_param_arrays,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_aserta.json"
#: Acceptance floor: vectorized analyze() vs the seed implementation.
MIN_SPEEDUP = 3.0
#: Acceptance floor: fused plan-compiled sweep vs the unfused loop.
MIN_SWEEP_SPEEDUP = 2.0
#: Lanes in the sweep-gate population (the campaign batch sweet spot).
SWEEP_LANES = 16


def _merge_bench(updates: dict) -> None:
    """Read-merge-write ``BENCH_aserta.json`` — two tests share the
    file, and either may run (or rerun) first."""
    payload: dict = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
            if isinstance(existing, dict):
                payload = existing
        except (ValueError, OSError):
            payload = {}
    payload.update(updates)
    payload["bench"] = "aserta_analyze"
    payload["unix_time"] = time.time()
    payload["scale"] = os.environ.get("REPRO_BENCH_SCALE", "fast")
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def test_aserta_vectorization_speedup(benchmark):
    circuit = iscas85_circuit("c432")
    analyzer = AsertaAnalyzer(circuit)  # paper defaults: 10k vectors, 16 fC

    # Warm every lazy cache (LUTs, stacked tensors) for both engines so
    # the measurement compares steady-state analysis cost only.
    reference_report = analyzer.analyze(engine="reference")
    array_report = analyzer.analyze(engine="array")
    assert array_report.total > 0.0
    relative = abs(array_report.total - reference_report.total) / (
        reference_report.total
    )
    assert relative <= 1e-9

    speedup, before_s, after_s = gated_speedup(
        lambda: analyzer.analyze(engine="reference"),
        lambda: analyzer.analyze(engine="array"),
        pairs=15,
        floor=MIN_SPEEDUP,
    )
    benchmark.pedantic(
        lambda: analyzer.analyze(engine="array"), iterations=5, rounds=3
    )

    _merge_bench(
        {
            "circuit": "c432",
            "config": {
                "n_vectors": analyzer.config.n_vectors,
                "n_sample_widths": analyzer.config.n_sample_widths,
                "charge_fc": analyzer.config.charge_fc,
            },
            "gates": circuit.gate_count,
            "before": {"engine": "reference", "analyze_s": before_s},
            "after": {"engine": "array", "analyze_s": after_s},
            "speedup": speedup,
            "after_analyses_per_s": 1.0 / after_s if after_s > 0 else None,
            "unreliability_total": array_report.total,
            "relative_error_vs_reference": relative,
        }
    )

    print(
        f"\nASERTA c432 analyze: reference {before_s * 1e3:.1f} ms, "
        f"array {after_s * 1e3:.1f} ms -> {speedup:.1f}x "
        f"-> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized analyze() only {speedup:.2f}x faster than the "
        f"reference (acceptance floor {MIN_SPEEDUP}x)"
    )


def test_fused_sweep_speedup(benchmark):
    circuit = iscas85_circuit("c432")
    analyzer = AsertaAnalyzer(circuit)
    idx = analyzer.indexed
    assignments = mixed_assignments(circuit, seed=2005, count=SWEEP_LANES)
    params = stack_cell_param_arrays(idx, assignments)
    arrays = batched_electrical_arrays(
        circuit, analyzer.tables, params, charge_fc=analyzer.config.charge_fc
    )
    delays = arrays["delay_ps"]
    generated = arrays["generated_width_ps"]
    samples = default_sample_widths_batch(
        idx, delays, generated, analyzer.config.n_sample_widths
    )
    plan = analyzer.sweep_plan

    def fused():
        return electrical_masking_many(
            analyzer.structure, delays, generated, samples, plan=plan,
        )

    def unfused():
        return electrical_masking_many(
            analyzer.structure, delays, generated, samples, plan=plan,
            fused=False,
        )

    # The gate only means something if the two paths compute the same
    # thing: the fused sweep's contract is *bitwise* identity on the
    # exact tensors being timed (warms both paths too).
    np.testing.assert_array_equal(fused(), unfused())

    speedup, unfused_s, fused_s = gated_speedup(
        unfused, fused, pairs=61, floor=MIN_SWEEP_SPEEDUP
    )
    benchmark.pedantic(fused, iterations=5, rounds=3)

    _merge_bench(
        {
            "sweep": {
                "circuit": "c432",
                "lanes": SWEEP_LANES,
                "bitwise_identical": True,
                "unfused_s": unfused_s,
                "fused_s": fused_s,
                "speedup": speedup,
                "fused_sweeps_per_s": 1.0 / fused_s if fused_s > 0 else None,
            }
        }
    )

    print(
        f"\nASERTA c432 {SWEEP_LANES}-lane sweep: unfused "
        f"{unfused_s * 1e3:.2f} ms, fused {fused_s * 1e3:.2f} ms -> "
        f"{speedup:.2f}x -> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"fused sweep only {speedup:.2f}x faster than the unfused loop "
        f"(acceptance floor {MIN_SWEEP_SPEEDUP}x)"
    )
