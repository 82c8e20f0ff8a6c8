"""Reusable reference-vs-fast conformance harness.

Every fast path in the repo is gated by a differential against its slow
reference: the vectorized masking sweep against the dict walk, the
fused sweep plan against the unfused per-level loop, the
characterization tables against the scalar gate model, the continuous
model's population annotation against its scalar walk, the batched
structural estimator against the event-driven one, the
level-batched matcher against the scalar per-gate ``match``, and the
population SERTOPT objective against the same search run one candidate
at a time (:func:`serial_search`).  The assertions those suites share
live here, so ``test_differential``, ``test_batched_core``,
``test_engine_structural``, ``test_batched_sertopt``, the SERTOPT bench
and the conformance matrix (``test_conformance_matrix``) state one
contract in one place.

Comparison discipline: the fused sweep, every batched/serial pair and
the matcher are held to *bitwise* equality
(``np.testing.assert_array_equal`` or exact ``==``, no epsilon);
comparisons that cross a float reduction-order change use
:data:`RTOL`.

This module is deliberately not named ``test_*``: pytest never collects
it, test files import it (the ``tests/`` directory is on ``sys.path``
under pytest's rootdir import mode).
"""

from __future__ import annotations

import gc
import itertools
import time

import numpy as np
import pytest

from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.circuit.iscas85 import iscas85_circuit, iscas85_names
from repro.core.cost import CostEvaluator
from repro.core.electrical_masking import (
    default_sample_widths,
    default_sample_widths_batch,
    electrical_masking,
    electrical_masking_many,
)
from repro.core.optimizers import run_optimizer
from repro.engine.structural import (
    structural_matrix_batched,
    structural_matrix_event,
)
from repro.sta.timing import analyze_timing
from repro.tech.electrical_view import (
    CircuitElectrical,
    batched_electrical_arrays,
    continuous_electrical_arrays,
    stack_cell_param_arrays,
)
from repro.tech import gate_electrical as ge
from repro.tech.glitch import generated_width_ps
from repro.tech.library import CellParams, ParameterAssignment

#: Reassociation noise bound for comparisons that cross a float
#: reduction order change (energy/area/cost); everything structural is
#: held to exact equality instead.
RTOL = 1e-9

#: Generator-family circuits for the conformance matrix — one per
#: flavor plus a deep chain (the regime where Equation-2 denominators
#: underflow and routes get dropped).
CONFORMANCE_SPECS = [
    GeneratorSpec("conf-control", 6, 3, 40, 5, seed=2, flavor="control"),
    GeneratorSpec("conf-alu", 8, 4, 70, 6, seed=17, flavor="alu"),
    GeneratorSpec("conf-parity", 5, 2, 30, 4, seed=33, flavor="parity"),
    GeneratorSpec("conf-deep", 4, 2, 48, 12, seed=71, flavor="control"),
]

#: The full conformance circuit axis: every bundled ISCAS-85 netlist
#: plus the generator families.
CONFORMANCE_CIRCUITS = list(iscas85_names()) + [
    spec.name for spec in CONFORMANCE_SPECS
]


def conformance_circuit(name: str):
    """Materialize one circuit of the conformance axis by name."""
    for spec in CONFORMANCE_SPECS:
        if spec.name == name:
            return generate_circuit(spec)
    return iscas85_circuit(name)


def mixed_assignment(circuit, seed: int) -> ParameterAssignment:
    """A non-uniform assignment hitting several table cells per axis."""
    rng = np.random.default_rng(seed)
    assignment = ParameterAssignment()
    for gate in circuit.gates():
        if rng.random() < 0.5:
            continue
        assignment.set(
            gate.name,
            CellParams(
                size=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                length_nm=float(rng.choice([70.0, 100.0, 150.0])),
                vdd=float(rng.choice([0.8, 1.0, 1.2])),
                vth=float(rng.choice([0.2, 0.3])),
            ),
        )
    return assignment


def mixed_assignments(circuit, seed: int, count: int) -> list[ParameterAssignment]:
    """A population of non-uniform assignments (sparser overrides than
    :func:`mixed_assignment` so lanes differ from each other)."""
    rng = np.random.default_rng(seed)
    out = []
    for __ in range(count):
        assignment = ParameterAssignment()
        for gate in circuit.gates():
            if rng.random() < 0.4:
                continue
            assignment.set(
                gate.name,
                CellParams(
                    size=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                    length_nm=float(rng.choice([70.0, 100.0, 150.0])),
                    vdd=float(rng.choice([0.8, 1.0, 1.2])),
                    vth=float(rng.choice([0.2, 0.3])),
                ),
            )
        out.append(assignment)
    return out


# ---------------------------------------------------------------------------
# Section-3.2 sweep: fused plan vs. the unfused reference loop
# ---------------------------------------------------------------------------


def assert_fused_sweep_conforms_single(analyzer, assignment) -> None:
    """One-candidate path: the fused plan against the unfused per-level
    loop, bitwise."""
    circuit = analyzer.circuit
    elec = analyzer.electrical_view(assignment)
    samples = default_sample_widths(elec, analyzer.config.n_sample_widths)
    reference = electrical_masking(
        circuit, elec, sample_widths=samples,
        structure=analyzer.structure, fused=False,
    )
    fused = electrical_masking(
        circuit, elec, sample_widths=samples, structure=analyzer.structure,
    )
    assert reference.arrays is not None and fused.arrays is not None
    np.testing.assert_array_equal(
        fused.arrays.ws, reference.arrays.ws,
        err_msg=f"{circuit.name}: fused ws vs unfused",
    )
    np.testing.assert_array_equal(
        fused.arrays.expected, reference.arrays.expected,
        err_msg=f"{circuit.name}: fused expected vs unfused",
    )


def assert_fused_sweep_conforms_batch(analyzer, assignments) -> None:
    """Population path: fused ``electrical_masking_many`` against the
    unfused batch loop, bitwise."""
    circuit = analyzer.circuit
    idx = analyzer.indexed
    params = stack_cell_param_arrays(idx, assignments)
    arrays = batched_electrical_arrays(
        circuit, analyzer.tables, params, charge_fc=analyzer.config.charge_fc
    )
    samples = default_sample_widths_batch(
        idx,
        arrays["delay_ps"],
        arrays["generated_width_ps"],
        analyzer.config.n_sample_widths,
    )
    reference = electrical_masking_many(
        analyzer.structure,
        arrays["delay_ps"],
        arrays["generated_width_ps"],
        samples,
        fused=False,
    )
    fused = electrical_masking_many(
        analyzer.structure,
        arrays["delay_ps"],
        arrays["generated_width_ps"],
        samples,
    )
    np.testing.assert_array_equal(
        fused, reference,
        err_msg=f"{circuit.name}: fused batch expected vs unfused",
    )


# ---------------------------------------------------------------------------
# Masking sweep: vectorized array core vs. the scalar dict reference
# ---------------------------------------------------------------------------


def assert_masking_results_agree(vectorized, reference, rtol=RTOL) -> None:
    """Sample widths, per-(gate, output) tables and expected widths of
    the array pass against the scalar dict walk."""
    np.testing.assert_allclose(
        vectorized.sample_widths, reference.sample_widths, rtol=0
    )
    assert set(reference.tables) == set(vectorized.tables)
    for gate, row in reference.tables.items():
        assert set(row) == set(vectorized.tables[gate]), gate
        for output, table in row.items():
            np.testing.assert_allclose(
                vectorized.tables[gate][output], table,
                rtol=rtol, atol=1e-15, err_msg=f"{gate}->{output}",
            )
    assert set(reference.expected) == set(vectorized.expected)
    for gate, row in reference.expected.items():
        assert set(row) == set(vectorized.expected[gate]), gate
        for output, width in row.items():
            assert vectorized.expected[gate][output] == pytest.approx(
                width, rel=rtol, abs=1e-15
            ), (gate, output)


def assert_reports_agree(arrays_report, reference_report, rtol=RTOL) -> None:
    """Full ``analyze`` reports: total, per-gate sizes, generated widths
    and contributions of the array engine against the reference engine."""
    assert arrays_report.total == pytest.approx(
        reference_report.total, rel=rtol
    )
    ref_gates = reference_report.unreliability.per_gate
    arr_gates = arrays_report.unreliability.per_gate
    assert set(ref_gates) == set(arr_gates)
    for name, entry in ref_gates.items():
        got = arr_gates[name]
        assert got.size == entry.size
        assert got.generated_width_ps == pytest.approx(
            entry.generated_width_ps, rel=rtol, abs=1e-15
        )
        assert set(got.widths_by_output) == set(entry.widths_by_output)
        assert got.contribution == pytest.approx(
            entry.contribution, rel=rtol, abs=1e-15
        )


# ---------------------------------------------------------------------------
# Characterization tables: one array pass per table vs. the scalar model
# ---------------------------------------------------------------------------


def conformance_gate_pairs() -> list[tuple]:
    """Every ``(gate type, fan-in)`` pair of the conformance circuits,
    in a stable order."""
    pairs = set()
    for name in CONFORMANCE_CIRCUITS:
        pairs.update(conformance_circuit(name).indexed().group_pairs)
    return sorted(pairs, key=lambda pair: (pair[0].value, pair[1]))


def assert_tables_match_model(tables, gtype, fanin) -> None:
    """Every cell of the six tables of one ``(gate type, fan-in)`` pair
    against the scalar gate model at that grid point, bit for bit.

    The model is called once per grid point on the grids' own values,
    with ``inf`` where the gate cannot switch (``vdd <= vth``).
    """

    def switching(model):
        def cell(size, length, vdd, vth, *rest):
            if vdd <= vth:
                return np.inf
            return model(gtype, fanin, size, length, vdd, vth, *rest)

        return cell

    def glitch(gtype, fanin, size, length, vdd, vth, load, charge):
        node_cap = ge.self_capacitance_ff(gtype, fanin, size) + load
        current = ge.drive_current_ua(gtype, fanin, size, length, vdd, vth)
        return generated_width_ps(charge, node_cap, current, vdd)

    models = {
        "delay": switching(ge.propagation_delay_ps),
        "ramp": switching(ge.output_ramp_ps),
        "glitch": switching(glitch),
        "static_power": switching(ge.static_power_uw),
        "input_cap": lambda *point: ge.input_capacitance_ff(gtype, fanin, *point),
        "dynamic_energy": lambda *point: ge.dynamic_energy_fj(gtype, fanin, *point),
    }
    grids = {
        "size": tables.sizes,
        "length": tables.lengths_nm,
        "vdd": tables.vdds,
        "vth": tables.vths,
        "load": tables.loads_ff,
        "ramp": tables.ramps_ps,
        "charge": tables.charges_fc,
    }
    for kind, model in models.items():
        table = tables._get(kind, gtype, fanin)
        axes = [grids[name] for name in table.axis_names]
        want = np.empty(tuple(len(axis) for axis in axes))
        for index in itertools.product(*(range(len(axis)) for axis in axes)):
            want[index] = model(*(axis[i] for axis, i in zip(axes, index)))
        got = tables.stacked_values(kind, ((gtype, fanin),))[0]
        np.testing.assert_array_equal(
            got.view(np.uint64),
            want.view(np.uint64),
            err_msg=f"{kind} table of {gtype.value}{fanin}",
        )


# ---------------------------------------------------------------------------
# Continuous model: population annotation vs. the scalar per-gate walk
# ---------------------------------------------------------------------------


def off_grid_assignments(circuit, seed: int, count: int) -> list[ParameterAssignment]:
    """Assignments with every cell parameter drawn uniformly, so cells
    sit between the table grid points — the continuous model's whole
    input space, including Vth values where ``np.exp`` and ``math.exp``
    round differently."""
    rng = np.random.default_rng(seed)
    out = []
    for __ in range(count):
        assignment = ParameterAssignment()
        for gate in circuit.gates():
            assignment.set(
                gate.name,
                CellParams(
                    size=float(rng.uniform(0.5, 4.0)),
                    length_nm=float(rng.uniform(70.0, 300.0)),
                    vdd=float(rng.uniform(0.8, 1.2)),
                    vth=float(rng.uniform(0.1, 0.35)),
                ),
            )
        out.append(assignment)
    return out


def assert_continuous_lanes_match_scalar(circuit, assignments, charge_fc) -> None:
    """Every field of :func:`continuous_electrical_arrays`, per lane and
    through ``CircuitElectrical(use_tables=False)`` (lane 0), against
    the scalar walk ``vectorized=False``, compared as ``uint64`` bit
    patterns."""
    params = stack_cell_param_arrays(circuit.indexed(), assignments)
    lanes = continuous_electrical_arrays(circuit, params, charge_fc)
    for lane, assignment in enumerate(assignments):
        oracle = CircuitElectrical(
            circuit, assignment, use_tables=False, charge_fc=charge_fc,
            vectorized=False,
        ).arrays()
        single = CircuitElectrical(
            circuit, assignment, use_tables=False, charge_fc=charge_fc
        ).arrays()
        assert set(lanes) == set(single) == set(oracle)
        for field, want in oracle.items():
            context = f"{circuit.name} at {charge_fc} fC, lane {lane}: {field}"
            np.testing.assert_array_equal(
                lanes[field][lane].view(np.uint64), want.view(np.uint64),
                err_msg=f"{context} (population)",
            )
            np.testing.assert_array_equal(
                single[field].view(np.uint64), want.view(np.uint64),
                err_msg=f"{context} (lane 0)",
            )


# ---------------------------------------------------------------------------
# Structural engine: batched fault-site sweep vs. event-driven walk
# ---------------------------------------------------------------------------


def assert_structural_bit_identical(circuit, n_vectors: int, seed: int) -> None:
    """Both structural estimators simulate the same packed vectors, so
    every ``P_ij`` must be *bit-identical* — no tolerance."""
    event = structural_matrix_event(circuit, n_vectors, seed=seed)
    batched = structural_matrix_batched(circuit, n_vectors, seed=seed)
    np.testing.assert_array_equal(batched, event)


# ---------------------------------------------------------------------------
# Matcher: level-batched population matcher vs. the scalar per-gate walk
# ---------------------------------------------------------------------------


def lane_targets(engine, targets: np.ndarray, lane: int) -> dict[str, float]:
    """The name-keyed target mapping scalar ``match`` takes for one lane
    of a ``(B, V)`` target population."""
    idx = engine.circuit.indexed()
    return {
        name: float(targets[lane, idx.index[name]])
        for name in engine._reverse_order
    }


def assert_lanes_match_scalar(
    engine, state, targets, ramps, anchor=None, max_delay_ps=None,
    context: str = "",
) -> None:
    """Every lane of a batched match state picks exactly the cells the
    scalar oracle picks for that lane's targets: ``match``, or
    ``match_with_timing`` against ``max_delay_ps`` when it is given."""
    order = engine.circuit.indexed().order
    for lane in range(targets.shape[0]):
        lane_map = lane_targets(engine, targets, lane)
        if max_delay_ps is None:
            serial = engine.match(lane_map, ramps, anchor=anchor)
        else:
            serial = engine.match_with_timing(
                lane_map, ramps, max_delay_ps, anchor=anchor
            )
        batched = state.assignment(lane, order)
        for name in engine._reverse_order:
            assert batched[name] == serial[name], (context, lane, name)


# ---------------------------------------------------------------------------
# SERTOPT: the population objective vs. the one-candidate-at-a-time search
# ---------------------------------------------------------------------------


def scalar_candidate(sertopt, result):
    """``x -> (assignment, CostBreakdown)`` for ``result``'s search,
    one candidate at a time: scalar ``match_with_timing`` on
    ``result.delay_space``'s targets, anchored on
    ``result.baseline_assignment``, costed by
    :meth:`CostEvaluator.evaluate` — the same targets, ramps and repair
    cap :meth:`Sertopt.optimize` derives from that baseline."""
    circuit = sertopt.circuit
    config = sertopt.config
    baseline = result.baseline_assignment
    space = result.delay_space
    evaluator = CostEvaluator(sertopt.analyzer, baseline, weights=config.weights)
    elec = CircuitElectrical(
        circuit, baseline, use_tables=False, vectorized=False
    )
    ramps = dict(elec.input_ramp_ps)
    cap = (
        analyze_timing(circuit, elec.delay_ps).delay_ps
        * config.weights.timing_cap
    )

    def realize(x: np.ndarray):
        assignment = sertopt.matcher.match_with_timing(
            space.assigned_delays(x), ramps, cap, anchor=baseline
        )
        return assignment, evaluator.evaluate(assignment)

    return realize


def serial_search(sertopt, result):
    """Re-run ``result``'s search with the scalar driver
    (``run_optimizer`` with no ``objective_batch``) over the
    :func:`scalar_candidate` objective, with its rounded-coefficient
    value cache — the oracle of the population objective
    :meth:`Sertopt.optimize` runs.  Returns the ``OptimizeResult``."""
    config = sertopt.config
    realize = scalar_candidate(sertopt, result)
    cache: dict[bytes, float] = {}

    def objective(x: np.ndarray) -> float:
        key = np.round(x, 4).tobytes()
        if key not in cache:
            cache[key] = realize(x)[1].total
        return cache[key]

    return run_optimizer(
        config.optimizer,
        objective,
        np.zeros(result.delay_space.dimension),
        bounds_halfwidth=config.coefficient_bound_ps,
        max_evaluations=config.max_evaluations,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# Wall-clock gates: interleaved paired medians
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def paired_times(before_fn, after_fn, pairs: int) -> tuple[float, float]:
    """``(before_s, after_s)`` per-call medians from interleaved paired
    sampling — the protocol every wall-clock bench gate uses.

    Timing each side in its own best-of pass lets slow drift (thermal
    throttle, host contention under a shared VM) land entirely on
    whichever side ran second.  Instead the sides run as ``pairs``
    back-to-back single-call pairs, alternating which goes first so
    "second call runs warmer" order bias splits evenly; the per-side
    medians discard preempted outliers, and GC is held off for the
    bounded duration so a collection cannot skew one sample.
    """
    before_times: list[float] = []
    after_times: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for index in range(pairs):
            first, second = (
                (before_fn, after_fn) if index % 2 == 0
                else (after_fn, before_fn)
            )
            started = time.perf_counter()
            first()
            middle = time.perf_counter()
            second()
            ended = time.perf_counter()
            if index % 2 == 0:
                before_times.append(middle - started)
                after_times.append(ended - middle)
            else:
                after_times.append(middle - started)
                before_times.append(ended - middle)
    finally:
        if gc_was_enabled:
            gc.enable()
    return _median(before_times), _median(after_times)


def gated_speedup(
    before_fn, after_fn, pairs: int, floor: float
) -> tuple[float, float, float]:
    """``(speedup, before_s, after_s)`` from :func:`paired_times`; one
    re-measurement on a gate miss (shared CI runners can jitter a whole
    pass), keeping whichever round measured the higher ratio."""
    before_s, after_s = paired_times(before_fn, after_fn, pairs)
    if before_s / after_s < floor:
        retry_before, retry_after = paired_times(before_fn, after_fn, pairs)
        if retry_before / retry_after > before_s / after_s:
            before_s, after_s = retry_before, retry_after
    return before_s / after_s, before_s, after_s
