"""Differential tests for the candidate-population (batched) pipeline.

Every batched layer — electrical annotation, continuous-model delays,
static timing, the Section-3.2 masking sweep, ``analyze_many``, batched
matching with and without timing repair, and the batched cost —
is compared lane by lane against its one-candidate counterpart.  The
contract is strict: matched cells, unreliability totals and timing are
*bit-identical* (the batched SERTOPT trajectory equivalence rests on
exactly this), while energy/area/cost agree to 1e-9 relative (dense
reductions re-associate the sums).
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance import (
    RTOL,
    assert_lanes_match_scalar,
    mixed_assignments as _mixed_assignments,
)
from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.circuit.iscas85 import iscas85_circuit, iscas85_names
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.baseline import size_for_speed
from repro.core.cost import CostEvaluator
from repro.core.electrical_masking import (
    default_sample_widths,
    default_sample_widths_batch,
    electrical_masking,
    electrical_masking_many,
)
from repro.core.matching import MatchingEngine
from repro.errors import AnalysisError, OptimizationError
from repro.sta.timing import analyze_timing, analyze_timing_batch
from repro.tech.electrical_view import (
    CircuitElectrical,
    batched_electrical_arrays,
    cell_param_arrays,
    continuous_delay_arrays,
    stack_cell_param_arrays,
)
from repro.tech.library import CellLibrary, ParameterAssignment
from repro.telemetry import Telemetry

SPECS = [
    GeneratorSpec("batch-control", 6, 3, 40, 5, seed=2, flavor="control"),
    GeneratorSpec("batch-alu", 8, 4, 70, 6, seed=17, flavor="alu"),
    GeneratorSpec("batch-parity", 5, 2, 30, 4, seed=33, flavor="parity"),
]
ISCAS = ["c17", "c432", "c499"]


def _circuits():
    for name in ISCAS:
        yield name, iscas85_circuit(name)
    for spec in SPECS:
        yield spec.name, generate_circuit(spec)


@pytest.fixture(
    params=ISCAS + [s.name for s in SPECS],
    ids=ISCAS + [s.name for s in SPECS],
    scope="module",
)
def case(request):
    circuits = dict(_circuits())
    circuit = circuits[request.param]
    analyzer = AsertaAnalyzer(circuit, AsertaConfig(n_vectors=256, seed=7))
    assignments = _mixed_assignments(circuit, seed=11, count=4)
    return circuit, analyzer, assignments


class TestBatchedElectrical:
    def test_table_annotation_lanes_bitwise(self, case):
        circuit, analyzer, assignments = case
        params = stack_cell_param_arrays(circuit.indexed(), assignments)
        batch = batched_electrical_arrays(circuit, analyzer.tables, params)
        for lane, assignment in enumerate(assignments):
            single = analyzer.electrical_view(assignment).arrays()
            for field in ("delay_ps", "generated_width_ps", "node_cap_ff",
                          "static_power_uw", "area_units", "load_ff"):
                np.testing.assert_array_equal(
                    batch[field][lane], single[field], err_msg=field
                )

    def test_continuous_delays_lanes_bitwise(self, case):
        circuit, __a, assignments = case
        idx = circuit.indexed()
        params = stack_cell_param_arrays(idx, assignments)
        batch = continuous_delay_arrays(circuit, params)["delay_ps"]
        for lane, assignment in enumerate(assignments):
            scalar = CircuitElectrical(
                circuit, assignment, use_tables=False, vectorized=False
            )
            np.testing.assert_array_equal(
                batch[lane], idx.gather(scalar.delay_ps)
            )

    def test_single_lane_equals_population_lane(self, case):
        """Lane values are independent of batch size (the property that
        lets the optimizer mix B=1 and B=16 calls freely)."""
        circuit, analyzer, assignments = case
        idx = circuit.indexed()
        params = stack_cell_param_arrays(idx, assignments)
        batch = batched_electrical_arrays(circuit, analyzer.tables, params)
        solo = batched_electrical_arrays(
            circuit,
            analyzer.tables,
            {field: values[1:2] for field, values in params.items()},
        )
        for field in ("delay_ps", "generated_width_ps", "static_power_uw"):
            np.testing.assert_array_equal(batch[field][1], solo[field][0])


class TestBatchedTiming:
    def test_lanes_match_scalar_walk(self, case):
        circuit, __a, assignments = case
        idx = circuit.indexed()
        params = stack_cell_param_arrays(idx, assignments)
        delays = continuous_delay_arrays(circuit, params)["delay_ps"]
        report = analyze_timing_batch(idx, delays)
        for lane, assignment in enumerate(assignments):
            scalar = analyze_timing(
                circuit,
                CircuitElectrical(
                    circuit, assignment, use_tables=False, vectorized=False
                ).delay_ps,
            )
            assert report.delay_ps[lane] == scalar.delay_ps
            for name in scalar.arrival_ps:
                row = idx.index[name]
                assert report.arrival_ps[lane, row] == scalar.arrival_ps[name]
                assert report.required_ps[lane, row] == scalar.required_ps[name]

    def test_negative_delay_rejected(self, c432):
        idx = c432.indexed()
        delays = np.zeros((1, idx.n_signals))
        delays[0, idx.gate_rows[0]] = -1.0
        with pytest.raises(AnalysisError):
            analyze_timing_batch(idx, delays)


class TestBatchedMasking:
    def test_sample_width_rows_bitwise(self, case):
        circuit, analyzer, assignments = case
        idx = circuit.indexed()
        params = stack_cell_param_arrays(idx, assignments)
        arrays = batched_electrical_arrays(circuit, analyzer.tables, params)
        rows = default_sample_widths_batch(
            idx, arrays["delay_ps"], arrays["generated_width_ps"], 10
        )
        for lane, assignment in enumerate(assignments):
            single = default_sample_widths(
                analyzer.electrical_view(assignment), 10
            )
            np.testing.assert_array_equal(rows[lane], single)

    def test_expected_matrix_lanes_bitwise(self, case):
        circuit, analyzer, assignments = case
        idx = circuit.indexed()
        params = stack_cell_param_arrays(idx, assignments)
        arrays = batched_electrical_arrays(circuit, analyzer.tables, params)
        samples = default_sample_widths_batch(
            idx, arrays["delay_ps"], arrays["generated_width_ps"], 10
        )
        expected = electrical_masking_many(
            analyzer.structure,
            arrays["delay_ps"],
            arrays["generated_width_ps"],
            samples,
        )
        for lane, assignment in enumerate(assignments):
            single = electrical_masking(
                circuit,
                analyzer.electrical_view(assignment),
                structure=analyzer.structure,
            )
            assert single.arrays is not None
            np.testing.assert_array_equal(
                expected[lane], single.arrays.expected
            )

    def test_bad_shapes_rejected(self, case):
        circuit, analyzer, __ = case
        idx = circuit.indexed()
        with pytest.raises(AnalysisError):
            electrical_masking_many(
                analyzer.structure,
                np.zeros((2, idx.n_signals + 1)),
                np.zeros((2, idx.n_signals + 1)),
                np.ones((2, 4)),
            )
        with pytest.raises(AnalysisError):
            electrical_masking_many(
                analyzer.structure,
                np.zeros((2, idx.n_signals)),
                np.zeros((2, idx.n_signals)),
                np.ones((2, 4)),  # non-increasing rows
            )


class TestAnalyzeMany:
    def test_totals_bit_consistent_with_analyze(self, case):
        circuit, analyzer, assignments = case
        batch = analyzer.analyze_many(assignments)
        for lane, assignment in enumerate(assignments):
            report = analyzer.analyze(assignment)
            assert batch.totals[lane] == report.total
            assert batch.delay_ps[lane] == analyze_timing(
                circuit, report.electrical.delay_ps
            ).delay_ps

    def test_energy_and_area_close(self, case):
        from repro.power.area import circuit_area
        from repro.power.energy import circuit_energy

        circuit, analyzer, assignments = case
        batch = analyzer.analyze_many(assignments)
        for lane, assignment in enumerate(assignments):
            elec = analyzer.electrical_view(assignment)
            energy = circuit_energy(circuit, elec, analyzer.probabilities)
            assert batch.energy_fj[lane] == pytest.approx(
                energy.total_fj, rel=RTOL
            )
            assert batch.area[lane] == pytest.approx(
                circuit_area(circuit, elec), rel=RTOL
            )

    def test_chunking_changes_nothing(self, case):
        __c, analyzer, assignments = case
        whole = analyzer.analyze_many(assignments)
        chunked = analyzer.analyze_many(assignments, max_batch_bytes=1)
        np.testing.assert_array_equal(whole.totals, chunked.totals)
        np.testing.assert_array_equal(whole.delay_ps, chunked.delay_ps)

    def test_param_arrays_entry_point(self, case):
        circuit, analyzer, assignments = case
        params = stack_cell_param_arrays(circuit.indexed(), assignments)
        by_params = analyzer.analyze_many(params=params)
        by_assignments = analyzer.analyze_many(assignments)
        np.testing.assert_array_equal(by_params.totals, by_assignments.totals)

    def test_exactly_one_input_required(self, case):
        __c, analyzer, assignments = case
        with pytest.raises(AnalysisError):
            analyzer.analyze_many()
        with pytest.raises(AnalysisError):
            analyzer.analyze_many(
                assignments,
                params=stack_cell_param_arrays(
                    analyzer.indexed, assignments
                ),
            )

    def test_continuous_model_lanes_match_analyze(self):
        """``use_tables=False`` analyzers run the same population body
        on the continuous annotation: each lane's total equals its
        analyze() total bitwise, from assignments or from raw parameter
        arrays alike, and delay, energy and area agree with the scalar
        walk's timing, energy and area."""
        from repro.power.area import circuit_area
        from repro.power.energy import circuit_energy

        circuit = iscas85_circuit("c17")
        analyzer = AsertaAnalyzer(
            circuit, AsertaConfig(n_vectors=256, seed=3, use_tables=False)
        )
        assignments = _mixed_assignments(circuit, seed=5, count=3)
        batch = analyzer.analyze_many(assignments)
        for lane, assignment in enumerate(assignments):
            assert batch.totals[lane] == analyzer.analyze(assignment).total
            scalar = analyzer.electrical_view(assignment, vectorized=False)
            assert batch.delay_ps[lane] == analyze_timing(
                circuit, scalar.delay_ps
            ).delay_ps
            assert batch.energy_fj[lane] == pytest.approx(
                circuit_energy(
                    circuit, scalar, analyzer.probabilities
                ).total_fj,
                rel=RTOL,
            )
            assert batch.area[lane] == pytest.approx(
                circuit_area(circuit, scalar), rel=RTOL
            )
        by_params = analyzer.analyze_many(
            params=stack_cell_param_arrays(circuit.indexed(), assignments)
        )
        np.testing.assert_array_equal(by_params.totals, batch.totals)


class TestBatchedMatching:
    @pytest.fixture(scope="class")
    def matcher_case(self):
        circuit = iscas85_circuit("c432")
        library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
        baseline = size_for_speed(circuit, library)
        elec = CircuitElectrical(circuit, baseline, use_tables=False)
        engine = MatchingEngine(circuit, library)
        idx = circuit.indexed()
        base_targets = idx.gather(elec.delay_ps)
        ramps = dict(elec.input_ramp_ps)
        return circuit, engine, baseline, base_targets, ramps, idx

    def _target_population(self, base_targets, idx, seed, count):
        rng = np.random.default_rng(seed)
        rows = idx.gate_rows
        targets = np.tile(base_targets, (count, 1))
        for lane in range(count):
            picks = rng.choice(rows, size=max(1, rows.size // 6), replace=False)
            targets[lane, picks] = np.maximum(
                0.5, targets[lane, picks] * rng.uniform(0.4, 3.0, picks.size)
            )
        return targets

    def test_match_batch_equals_serial_match(self, matcher_case):
        circuit, engine, baseline, base_targets, ramps, idx = matcher_case
        targets = self._target_population(base_targets, idx, seed=1, count=5)
        state = engine.match_batch(targets, ramps, anchor=baseline)
        for lane in range(targets.shape[0]):
            serial = engine.match(
                {
                    name: float(targets[lane, idx.index[name]])
                    for name in engine._reverse_order
                },
                ramps,
                anchor=baseline,
            )
            batched = state.assignment(lane, idx.order)
            for name in engine._reverse_order:
                assert batched[name] == serial[name], (lane, name)

    def test_match_with_timing_batch_equals_serial(self, matcher_case):
        circuit, engine, baseline, base_targets, ramps, idx = matcher_case
        # Aggressively slowed targets force the repair loop to engage.
        targets = self._target_population(base_targets, idx, seed=3, count=4)
        targets[2] = base_targets * 4.0
        cap = analyze_timing(
            circuit, {n: base_targets[idx.index[n]] for n in engine._reverse_order}
        ).delay_ps * 1.25
        state = engine.match_with_timing_batch(
            targets, ramps, cap, anchor=baseline
        )
        for lane in range(targets.shape[0]):
            serial = engine.match_with_timing(
                {
                    name: float(targets[lane, idx.index[name]])
                    for name in engine._reverse_order
                },
                ramps,
                cap,
                anchor=baseline,
            )
            batched = state.assignment(lane, idx.order)
            for name in engine._reverse_order:
                assert batched[name] == serial[name], (lane, name)

    def test_validation(self, matcher_case):
        __c, engine, baseline, base_targets, ramps, idx = matcher_case
        with pytest.raises(OptimizationError):
            engine.match_batch(base_targets, ramps)  # 1-D targets
        with pytest.raises(OptimizationError):
            engine.match_with_timing_batch(
                base_targets[np.newaxis, :], ramps, 0.0
            )

    def test_param_arrays_match_materialized(self, matcher_case):
        circuit, engine, baseline, base_targets, ramps, idx = matcher_case
        state = engine.match_batch(
            base_targets[np.newaxis, :], ramps, anchor=baseline
        )
        params = state.param_arrays()
        materialized = cell_param_arrays(idx, state.assignment(0, idx.order))
        for field in ("size", "length_nm", "vdd", "vth"):
            np.testing.assert_array_equal(params[field][0], materialized[field])


class TestLevelBatchedMatcher:
    """Level-batched matcher vs the scalar per-gate walk: *exact*
    differentials.

    The contract of the level-batched schedule is that every lane picks
    exactly the cells scalar :meth:`MatchingEngine.match` (and
    ``match_with_timing``) picks for its targets — across every
    ISCAS'85 netlist, the generator families, and the level-shape edge
    cases (single-gate levels, fan-out-bearing primary outputs).
    """

    LIBRARY = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2,))

    def _random_targets(self, circuit, lanes, seed):
        idx = circuit.indexed()
        rng = np.random.default_rng(seed)
        targets = rng.uniform(0.5, 400.0, size=(lanes, idx.n_signals))
        return targets

    @pytest.mark.parametrize("name", iscas85_names())
    def test_all_iscas_bitwise(self, name):
        circuit = iscas85_circuit(name)
        lanes = 4 if circuit.gate_count < 1000 else 2
        targets = self._random_targets(circuit, lanes, seed=13)
        ramps = {}
        anchor = ParameterAssignment()
        engine = MatchingEngine(circuit, self.LIBRARY)
        full = engine.match_batch(targets, ramps, anchor=anchor)
        assert_lanes_match_scalar(
            engine, full, targets, ramps, anchor, context=f"{name} full pass"
        )

    @pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
    def test_generator_circuits_bitwise(self, spec):
        circuit = generate_circuit(spec)
        targets = self._random_targets(circuit, 5, seed=21)
        engine = MatchingEngine(circuit, self.LIBRARY)
        assert_lanes_match_scalar(
            engine, engine.match_batch(targets, {}, anchor=None), targets,
            {}, context=spec.name,
        )

    def test_chain_single_gate_levels(self):
        """A pure inverter chain: every reverse level holds one gate."""
        from repro.circuit.gate import GateType
        from repro.circuit.netlist import Circuit

        circuit = Circuit("chain")
        signal = circuit.add_input("a")
        for step in range(12):
            signal = circuit.add_gate(f"n{step}", GateType.NOT, [signal])
        circuit.mark_output(signal)
        assert int(circuit.indexed().reverse_level.max()) == 12
        targets = self._random_targets(circuit, 6, seed=3)
        engine = MatchingEngine(circuit, self.LIBRARY)
        assert_lanes_match_scalar(
            engine, engine.match_batch(targets, {}, anchor=None), targets,
            {}, context="chain",
        )

    def test_po_with_fanout_latch_order(self):
        """A primary output that also drives gates: the latch cap must
        add *after* the successor pin caps, as in the scalar walk."""
        from repro.circuit.gate import GateType
        from repro.circuit.netlist import Circuit

        circuit = Circuit("po-fanout")
        a = circuit.add_input("a")
        b = circuit.add_input("b")
        mid = circuit.add_gate("mid", GateType.NAND, [a, b])
        circuit.mark_output(mid)  # PO *and* internal driver
        for branch in range(3):
            leaf = circuit.add_gate(f"leaf{branch}", GateType.NOR, [mid, a])
            circuit.mark_output(leaf)
        targets = self._random_targets(circuit, 4, seed=5)
        engine = MatchingEngine(circuit, self.LIBRARY)
        assert_lanes_match_scalar(
            engine, engine.match_batch(targets, {}, anchor=None), targets,
            {}, context="po-fanout",
        )

    @pytest.mark.parametrize("name", ["c432", "c499", "c880"])
    def test_match_with_timing_batch_schedules_agree(self, name):
        """Timing repair, re-matching the moving lanes with the full
        level pass, lands on the scalar ``match_with_timing`` cells."""
        circuit = iscas85_circuit(name)
        library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
        baseline = size_for_speed(circuit, library)
        elec = CircuitElectrical(circuit, baseline, use_tables=False)
        idx = circuit.indexed()
        base_targets = idx.gather(elec.delay_ps)
        ramps = dict(elec.input_ramp_ps)
        cap = analyze_timing(circuit, elec.delay_ps).delay_ps * 1.25
        rng = np.random.default_rng(41)
        targets = np.tile(base_targets, (4, 1))
        targets[1] = base_targets * 3.0  # forces the repair loop
        for lane in (0, 2, 3):
            picks = rng.choice(idx.gate_rows, size=20, replace=False)
            targets[lane, picks] *= rng.uniform(0.5, 3.0, picks.size)
        tel = Telemetry()
        engine = MatchingEngine(circuit, library, telemetry=tel)
        assert_lanes_match_scalar(
            engine,
            engine.match_with_timing_batch(
                targets, ramps, cap, anchor=baseline
            ),
            targets, ramps, baseline, max_delay_ps=cap,
            context=f"{name} timing repair",
        )
        # The first pass plus at least one repair re-match.
        counters = tel.metrics.snapshot()["counters"]
        assert counters["matcher.match_batch.calls"] >= 2

    def test_scalar_match_agrees_with_level_batch(self):
        circuit = iscas85_circuit("c17")
        library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
        engine = MatchingEngine(circuit, library)
        targets = self._random_targets(circuit, 1, seed=51)
        assert_lanes_match_scalar(
            engine, engine.match_batch(targets, {}, anchor=None), targets, {}
        )

    def test_empty_population(self):
        circuit = iscas85_circuit("c17")
        idx = circuit.indexed()
        empty = np.empty((0, idx.n_signals))
        engine = MatchingEngine(circuit, self.LIBRARY)
        state = engine.match_batch(empty, {}, anchor=None)
        assert state.cell_idx.shape == (0, idx.n_signals)


class TestBatchedCost:
    def test_evaluate_batch_matches_serial(self):
        circuit = iscas85_circuit("c432")
        analyzer = AsertaAnalyzer(circuit, AsertaConfig(n_vectors=512, seed=1))
        baseline = size_for_speed(circuit)
        evaluator = CostEvaluator(analyzer, baseline)
        assignments = _mixed_assignments(circuit, seed=21, count=4)
        totals = evaluator.evaluate_batch(assignments)
        for lane, assignment in enumerate(assignments):
            serial = evaluator.evaluate(assignment).total
            assert totals[lane] == pytest.approx(serial, rel=RTOL)
