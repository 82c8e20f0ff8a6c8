"""Edge cases of the population entry points (``analyze_many``,
``evaluate_batch``) around the fused sweep plan.

The plan is compiled once per circuit and cached on the
masking structure and in the artifact cache — so the cases that could
plausibly poison or bypass that cache are pinned here: degenerate
population sizes, populations larger than the memory-capped chunk,
duplicate candidates sharing lanes, and in-place mutation of an
assignment object between calls (the plan must depend on the netlist
only, never on any assignment it has seen).
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance import mixed_assignments
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.baseline import size_for_speed
from repro.core.cost import CostEvaluator
from repro.errors import AnalysisError
from repro.tech.library import CellParams, ParameterAssignment


@pytest.fixture(scope="module")
def analyzer():
    return AsertaAnalyzer(
        iscas85_circuit("c432"),
        AsertaConfig(n_vectors=128, seed=7, n_sample_widths=6),
    )


@pytest.fixture(scope="module")
def evaluator(analyzer):
    return CostEvaluator(analyzer, size_for_speed(analyzer.circuit))


class TestPopulationSizes:
    def test_empty_population_fails_loudly(self, analyzer, evaluator):
        with pytest.raises(AnalysisError):
            analyzer.analyze_many([])
        with pytest.raises(AnalysisError):
            analyzer.analyze_many(
                params={
                    field: np.empty((0, analyzer.indexed.n_signals))
                    for field in ("size", "length_nm", "vdd", "vth")
                }
            )
        with pytest.raises(AnalysisError):
            evaluator.evaluate_batch([])

    def test_single_lane_equals_serial(self, analyzer, evaluator):
        assignment = mixed_assignments(analyzer.circuit, seed=3, count=1)[0]
        batch = analyzer.analyze_many([assignment])
        assert len(batch) == 1
        assert batch.totals[0] == analyzer.analyze(assignment).total
        total = evaluator.evaluate_batch([assignment])
        assert total.shape == (1,)
        assert total[0] == pytest.approx(
            evaluator.evaluate(assignment).total, rel=1e-9
        )

    def test_population_wider_than_chunk(self, analyzer):
        """``max_batch_bytes=1`` forces one-lane chunks, so every lane
        crosses a chunk boundary; totals must not notice."""
        assignments = mixed_assignments(analyzer.circuit, seed=5, count=6)
        whole = analyzer.analyze_many(assignments)
        sliced = analyzer.analyze_many(assignments, max_batch_bytes=1)
        np.testing.assert_array_equal(sliced.totals, whole.totals)
        for lane, assignment in enumerate(assignments):
            assert whole.totals[lane] == analyzer.analyze(assignment).total


class TestDuplicateCandidates:
    def test_duplicate_lanes_are_bitwise_equal(self, analyzer):
        """The same assignment object in several lanes: all its lanes
        agree with each other and with the serial analysis."""
        a, b = mixed_assignments(analyzer.circuit, seed=9, count=2)
        batch = analyzer.analyze_many([a, b, a, a])
        serial = analyzer.analyze(a).total
        assert batch.totals[0] == serial
        assert batch.totals[2] == serial
        assert batch.totals[3] == serial
        assert batch.totals[1] == analyzer.analyze(b).total


class TestMutationBetweenCalls:
    def test_mutating_a_candidate_does_not_poison_the_plan(self, analyzer):
        """``ParameterAssignment`` is mutable; the compiled plan (and
        the masking structure it hangs off) must be assignment-free, so
        mutating a previously-analyzed object changes *that lane only*
        on the next call — and reverting it restores the original
        totals bit for bit."""
        mutated, control = mixed_assignments(analyzer.circuit, seed=13, count=2)
        gate = next(analyzer.circuit.gates()).name
        original_cell = mutated[gate]
        before = analyzer.analyze_many([mutated, control])
        plan_before = analyzer.sweep_plan

        mutated.set(gate, CellParams(size=3.0, vdd=0.8))
        after = analyzer.analyze_many([mutated, control])
        # The plan is reused, not silently rebuilt per call...
        assert analyzer.sweep_plan is plan_before
        # ... the untouched lane is bit-stable across the mutation...
        assert after.totals[1] == before.totals[1]
        # ... the mutated lane tracks the mutation (fresh serial run)...
        assert after.totals[0] == analyzer.analyze(mutated).total
        assert after.totals[0] != before.totals[0]
        # ... and reverting restores the original totals exactly.
        mutated.set(gate, original_cell)
        reverted = analyzer.analyze_many([mutated, control])
        np.testing.assert_array_equal(reverted.totals, before.totals)

    def test_mutation_between_param_array_calls(self, analyzer):
        """The raw ``params`` entry point: mutating the caller's arrays
        in place between calls must likewise only affect later calls'
        inputs, never cached state."""
        from repro.tech.electrical_view import stack_cell_param_arrays

        assignments = mixed_assignments(analyzer.circuit, seed=17, count=2)
        params = stack_cell_param_arrays(analyzer.indexed, assignments)
        before = analyzer.analyze_many(params=params)
        row = analyzer.indexed.gate_rows[0]
        params["size"][0, row] *= 2.0
        after = analyzer.analyze_many(params=params)
        assert after.totals[1] == before.totals[1]
        assert after.totals[0] != before.totals[0]
