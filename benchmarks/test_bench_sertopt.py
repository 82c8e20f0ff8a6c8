"""SERTOPT benchmark — the serial objective vs. the batched pipeline.

Two gated measurements on c432 at the paper-default
:class:`SertoptConfig` (150 cost evaluations, 10 000 sensitization
vectors, the coordinate driver):

* **Matcher kernel** — the level-batched ``match_batch`` (one
  ``(lanes, gates, cells)`` block per reverse logic level) against a
  loop of the scalar per-gate ``match`` over the same coordinate-probe
  population, asserted to pick *identical cells* before anything is
  timed.  Floor :data:`MIN_MATCH_SPEEDUP`.
* **End-to-end ≥ 4×** — the serial one-candidate-at-a-time objective
  (``batched_evaluation=False``) vs. the batched default, which must
  visit the identical coordinate trajectory (equal ``x``, equal
  evaluation counts, per-evaluation costs within 1e-9 relative).

Emits ``BENCH_sertopt.json`` for the CI benchmark artifact upload and
``docs/performance.md`` regeneration.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conformance import assert_lanes_match_scalar, gated_speedup, lane_targets
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.baseline import size_for_speed
from repro.core.matching import MatchingEngine
from repro.core.sertopt import Sertopt, SertoptConfig
from repro.engine import AnalysisEngine
from repro.experiments.table1_optimization import PAPER_MENUS
from repro.tech.electrical_view import CircuitElectrical
from repro.tech.library import CellLibrary

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sertopt.json"
#: Matcher floor: level-batched ``match_batch`` vs a loop of scalar
#: ``match`` on the same paper-default probe population.  Twelve
#: idle-host runs of this gate's paired-median measurement on a 2-vCPU
#: VM gave 7.9-9.4x (median 8.7x); the floor keeps headroom for shared
#: runners.
MIN_MATCH_SPEEDUP = 5.0
#: End-to-end floor: serial objective vs batched optimize().
MIN_E2E_SPEEDUP = 4.0
CIRCUIT = "c432"
#: Lanes of the matcher microbenchmark — the round-0 population of the
#: default coordinate probe chunk (4 dimensions × ± probes).
MATCH_LANES = 8
#: Interleaved scalar/level call pairs per matcher measurement (~1 s).
MATCH_PAIRS = 25


def _optimize(circuit, library, engine, batched: bool):
    config = SertoptConfig(batched_evaluation=batched)
    sertopt = Sertopt(circuit, library=library, config=config, engine=engine)
    started = time.perf_counter()
    result = sertopt.optimize()
    return result, time.perf_counter() - started


def _probe_population(circuit, base_targets, seed=0, lanes=MATCH_LANES):
    """Coordinate-probe-shaped delay targets: each lane perturbs a
    handful of gates multiplicatively, like a sparse nullspace move."""
    idx = circuit.indexed()
    rng = np.random.default_rng(seed)
    targets = np.tile(base_targets, (lanes, 1))
    for lane in range(lanes):
        picks = rng.choice(idx.gate_rows, size=6, replace=False)
        targets[lane, picks] *= rng.uniform(0.5, 2.0, picks.size)
    return targets


def test_sertopt_level_batched_speedup(benchmark):
    circuit = iscas85_circuit(CIRCUIT)
    vdds, vths = PAPER_MENUS[CIRCUIT]
    library = CellLibrary.paper_library(vdds=vdds, vths=vths)

    # ------------------------------------------------------------------
    # Matcher kernel: scalar match loop vs level-batched, cells checked.
    # ------------------------------------------------------------------
    baseline = size_for_speed(circuit, library)
    elec = CircuitElectrical(circuit, baseline, use_tables=False)
    idx = circuit.indexed()
    base_targets = idx.gather(elec.delay_ps)
    ramps = dict(elec.input_ramp_ps)
    targets = _probe_population(circuit, base_targets)
    matcher = MatchingEngine(circuit, library)
    lane_maps = [
        lane_targets(matcher, targets, lane) for lane in range(MATCH_LANES)
    ]

    def scalar():
        return [
            matcher.match(lane_map, ramps, anchor=baseline)
            for lane_map in lane_maps
        ]

    def level():
        return matcher.match_batch(targets, ramps, anchor=baseline)

    # The gate only means something if both sides pick the same cells
    # (warms both paths too).
    assert_lanes_match_scalar(matcher, level(), targets, ramps, baseline)

    match_speedup, scalar_s, level_s = gated_speedup(
        scalar, level, pairs=MATCH_PAIRS, floor=MIN_MATCH_SPEEDUP
    )

    # ------------------------------------------------------------------
    # End-to-end optimize(): serial vs batched, one shared analysis
    # engine so the structural pass is paid once.
    # ------------------------------------------------------------------
    engine = AnalysisEngine()
    _optimize(circuit, library, engine, batched=True)  # warm

    serial_result, serial_s = _optimize(circuit, library, engine, False)
    batched_result, batched_s = _optimize(circuit, library, engine, True)
    if serial_s / batched_s < MIN_E2E_SPEEDUP:
        # Shared CI runners jitter; best-of-two before declaring a
        # regression.  Locally serial/batched is ~6x.
        __, serial_s2 = _optimize(circuit, library, engine, False)
        __, batched_s2 = _optimize(circuit, library, engine, True)
        serial_s = min(serial_s, serial_s2)
        batched_s = min(batched_s, batched_s2)
    e2e_speedup = serial_s / batched_s
    benchmark.pedantic(
        lambda: _optimize(circuit, library, engine, batched=True),
        iterations=1,
        rounds=1,
    )

    # The deterministic coordinate search must visit identical points on
    # an identical budget; the costs agree to 1e-9 relative (energy/area
    # reductions reassociate).
    serial_opt = serial_result.optimizer_result
    batched_opt = batched_result.optimizer_result
    assert np.array_equal(serial_opt.x, batched_opt.x)
    assert serial_opt.evaluations == batched_opt.evaluations
    serial_history = np.array(serial_opt.history)
    batched_history = np.array(batched_opt.history)
    assert serial_history.shape == batched_history.shape
    relative = np.abs(serial_history - batched_history) / np.abs(serial_history)
    assert float(relative.max()) <= 1e-9

    payload = {
        "bench": "sertopt_optimize",
        "unix_time": time.time(),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "note": "paper-default SertoptConfig regardless of scale",
        "circuit": CIRCUIT,
        "config": {
            "optimizer": "coordinate",
            "max_evaluations": SertoptConfig().max_evaluations,
            "n_vectors": SertoptConfig().aserta.n_vectors,
        },
        "gates": circuit.gate_count,
        "evaluations": batched_opt.evaluations,
        "before": {"objective": "serial", "optimize_s": serial_s},
        "after": {
            "objective": "batched, level-batched matcher",
            "optimize_s": batched_s,
        },
        "speedup": e2e_speedup,
        "matcher": {
            "lanes": MATCH_LANES,
            "scalar_ms": scalar_s * 1e3,
            "level_ms": level_s * 1e3,
            "speedup": match_speedup,
        },
        "max_history_relative_difference": float(relative.max()),
        "unreliability_reduction": batched_result.unreliability_reduction,
        "delay_ratio": batched_result.delay_ratio,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(
        f"\nSERTOPT {CIRCUIT} optimize ({batched_opt.evaluations} evals): "
        f"serial {serial_s:.2f} s, batched {batched_s:.2f} s -> "
        f"{e2e_speedup:.1f}x end-to-end; {MATCH_LANES}-lane matcher "
        f"scalar {scalar_s * 1e3:.1f} ms, level-batched "
        f"{level_s * 1e3:.1f} ms -> {match_speedup:.2f}x "
        f"-> {BENCH_JSON.name}"
    )
    assert match_speedup >= MIN_MATCH_SPEEDUP, (
        f"level-batched match_batch only {match_speedup:.2f}x faster than "
        f"a loop of scalar match (floor {MIN_MATCH_SPEEDUP}x)"
    )
    assert e2e_speedup >= MIN_E2E_SPEEDUP, (
        f"batched optimize() only {e2e_speedup:.2f}x faster than the serial "
        f"objective (acceptance floor {MIN_E2E_SPEEDUP}x)"
    )
