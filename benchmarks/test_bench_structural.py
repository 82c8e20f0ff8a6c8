"""Structural-engine benchmark — event-driven walk vs. batched simulator.

Runs the Section-3.1 structural pass (the ``P_ij`` estimate) on c5315 —
the circuit the ROADMAP flagged as "seconds per netlist" under the
event-driven walk — through both engines on identical vectors, asserts
the batched live-pair kernel is at least 3x faster *and* bit-identical,
then times the warm path: a second analyzer over a shared artifact
cache, whose construction must perform zero fault-simulation work.
Both sides are timed with the shared interleaved paired-median protocol
(:func:`conformance.gated_speedup`).  Emits ``BENCH_structural.json``
alongside the other ``BENCH_*.json`` artifacts uploaded by CI.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conformance import gated_speedup
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.engine import AnalysisEngine
from repro.engine.structural import (
    CompiledStructuralCircuit,
    structural_matrix_batched,
    structural_matrix_event,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_structural.json"
#: The acceptance floor: batched structural pass vs the event-driven
#: seed estimator, cold, on c5315.
MIN_SPEEDUP = 3.0
CIRCUIT = "c5315"
SEED = 0
#: Interleaved event/batched call pairs; the event walk alone takes
#: ~20 s per call here, so three pairs already cost a minute.
PAIRS = 3


def test_structural_batching_speedup(benchmark, scale):
    n_vectors = scale.sensitization_vectors
    circuit = iscas85_circuit(CIRCUIT)
    # Compile outside the timed region on both sides: the event path's
    # equivalents (BitParallelSimulator plan, fanout maps) are likewise
    # built once per circuit, and the compiled schedule is a cached
    # artifact in production.
    compiled = CompiledStructuralCircuit(circuit.indexed())

    def run_batched() -> np.ndarray:
        return structural_matrix_batched(
            circuit, n_vectors, seed=SEED, compiled=compiled
        )

    def run_event() -> np.ndarray:
        return structural_matrix_event(circuit, n_vectors, seed=SEED)

    np.testing.assert_array_equal(run_batched(), run_event())
    speedup, event_s, batched_s = gated_speedup(
        run_event, run_batched, pairs=PAIRS, floor=MIN_SPEEDUP
    )
    benchmark.pedantic(run_batched, iterations=1, rounds=3)

    # Warm path: a fresh analyzer over a shared engine must build with
    # zero fault-simulation work (pure artifact-cache hits).
    engine = AnalysisEngine()
    config = AsertaConfig(n_vectors=n_vectors, seed=SEED)
    started = time.perf_counter()
    cold_analyzer = AsertaAnalyzer(circuit, config, engine=engine)
    cold_build_s = time.perf_counter() - started
    assert engine.structural_sim_runs == 1

    started = time.perf_counter()
    warm_analyzer = AsertaAnalyzer(circuit, config, engine=engine)
    warm_report = warm_analyzer.analyze()
    warm_build_analyze_s = time.perf_counter() - started
    assert engine.structural_sim_runs == 1, "warm analyzer re-simulated"
    assert engine.cache.stats.by_kind["p_matrix"]["hits"] >= 1
    assert warm_report.total > 0.0
    assert warm_report.total == cold_analyzer.analyze().total

    payload = {
        "bench": "structural_pass",
        "unix_time": time.time(),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "circuit": CIRCUIT,
        "n_vectors": n_vectors,
        "seed": SEED,
        "gates": circuit.gate_count,
        "outputs": len(circuit.outputs),
        "before": {"engine": "event", "structural_s": event_s},
        "after": {
            "engine": "batched",
            "structural_s": batched_s,
            # Evaluates only the (site, gate) pairs with a live fan-in,
            # in one reused signal-major buffer.
            "kernel": "live_pairs",
        },
        "speedup": speedup,
        "protocol": {"timing": "interleaved paired median", "pairs": PAIRS},
        "warm": {
            "cold_analyzer_build_s": cold_build_s,
            "warm_build_plus_analyze_s": warm_build_analyze_s,
            "structural_sim_runs": engine.structural_sim_runs,
            "cache": engine.stats(),
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(
        f"\nstructural pass {CIRCUIT} ({n_vectors} vectors): "
        f"event {event_s:.2f} s, batched {batched_s:.2f} s "
        f"-> {speedup:.1f}x; warm analyzer build+analyze "
        f"{warm_build_analyze_s * 1e3:.0f} ms (0 simulations) "
        f"-> {BENCH_JSON.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched structural pass only {speedup:.2f}x faster than the "
        f"event-driven path (acceptance floor {MIN_SPEEDUP}x)"
    )
    # The warm path must never be slower than a cold structural pass —
    # it does strictly less work (no simulation at all).
    assert warm_build_analyze_s < event_s
