"""Batched SERTOPT: optimizer-budget accounting and flow equivalence.

The contract under test: with a batched objective, the deterministic
coordinate driver visits *identical points in identical order on an
identical budget* as the scalar driver — speculative population probes
never count — and the end-to-end ``Sertopt.optimize`` flow returns the
same ``OptimizeResult.x``/``evaluations`` with per-evaluation costs
equal to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaConfig
from repro.core.optimizers import (
    minimize_annealing,
    minimize_coordinate,
    minimize_slsqp,
    run_optimizer,
)
from repro.core.sertopt import Sertopt, SertoptConfig
from repro.errors import OptimizationError
from repro.tech.library import CellLibrary


class _Plateau:
    """A piecewise-constant objective (like the matched cost surface):
    floors create exact ties, the worst case for trajectory equality."""

    def __init__(self):
        self.calls: list[np.ndarray] = []

    def value(self, x: np.ndarray) -> float:
        quantized = np.floor(np.asarray(x) / 7.0)
        return float(np.sum(quantized**2) + 0.25 * np.sum(np.abs(quantized)))

    def __call__(self, x: np.ndarray) -> float:
        self.calls.append(np.array(x))
        return self.value(x)

    def batch(self, X: np.ndarray) -> np.ndarray:
        self.calls.append(np.array(X))
        return np.array([self.value(x) for x in X])


class TestCoordinateBatchedAccounting:
    def test_identical_points_budget_and_result(self):
        for budget in (7, 23, 60, 150):
            serial_obj = _Plateau()
            serial = minimize_coordinate(
                serial_obj, np.full(6, 3.0), 50.0, budget, seed=4
            )
            batched_obj = _Plateau()
            batched = minimize_coordinate(
                batched_obj,
                np.full(6, 3.0),
                50.0,
                budget,
                seed=4,
                objective_batch=batched_obj.batch,
            )
            assert serial.evaluations == batched.evaluations, budget
            assert serial.history == batched.history, budget
            np.testing.assert_array_equal(serial.x, batched.x)
            assert serial.value == batched.value

    def test_speculative_probes_do_not_count(self):
        obj = _Plateau()
        result = minimize_coordinate(
            obj, np.zeros(8), 40.0, 10, seed=0, objective_batch=obj.batch
        )
        assert result.evaluations == 10
        assert len(result.history) == 10
        # The batch calls evaluated more points than were counted —
        # that is the speculation; the budget only sees the replay.
        evaluated = sum(
            c.shape[0] if c.ndim == 2 else 1 for c in obj.calls
        )
        assert evaluated >= result.evaluations

    def test_chunk_size_invariant(self):
        reference = None
        for chunk in (1, 3, 8, 64):
            obj = _Plateau()
            result = minimize_coordinate(
                obj,
                np.full(5, -2.0),
                30.0,
                40,
                seed=9,
                objective_batch=obj.batch,
                batch_chunk=chunk,
            )
            if reference is None:
                reference = result
            else:
                assert result.history == reference.history
                np.testing.assert_array_equal(result.x, reference.x)

    def test_bad_chunk_rejected(self):
        obj = _Plateau()
        with pytest.raises(OptimizationError):
            minimize_coordinate(
                obj, np.zeros(2), 1.0, 5,
                objective_batch=obj.batch, batch_chunk=0,
            )


class TestOtherDriversBatched:
    @staticmethod
    def quadratic(x):
        return float(np.sum((x - 1.0) ** 2))

    def batch(self, X):
        return np.array([self.quadratic(x) for x in X])

    def test_annealing_budget_and_best_tracking(self):
        result = minimize_annealing(
            self.quadratic, np.zeros(3), 5.0, 37, seed=1,
            objective_batch=self.batch,
        )
        assert result.evaluations == 37
        assert len(result.history) == 37
        assert self.quadratic(result.x) == pytest.approx(result.value)
        assert result.value <= self.quadratic(np.zeros(3))

    def test_slsqp_batched_gradient_improves(self):
        result = minimize_slsqp(
            self.quadratic, np.zeros(3), 5.0, 200, fd_step=0.1,
            objective_batch=self.batch,
        )
        assert result.value < 0.05
        assert result.evaluations <= 200

    def test_dispatch_passes_batch(self):
        for method in ("slsqp", "annealing", "coordinate"):
            result = run_optimizer(
                method, self.quadratic, np.zeros(2), 5.0, 30, seed=2,
                objective_batch=self.batch,
            )
            assert result.evaluations <= 30


class TestSertoptFlowEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        circuit = iscas85_circuit("c432")
        library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
        shared = dict(
            max_evaluations=50,
            seed=0,
            aserta=AsertaConfig(n_vectors=1200, seed=0),
        )
        serial = Sertopt(
            circuit, library=library,
            config=SertoptConfig(batched_evaluation=False, **shared),
        ).optimize()
        batched = Sertopt(
            circuit, library=library,
            config=SertoptConfig(batched_evaluation=True, **shared),
        ).optimize()
        return serial, batched

    def test_identical_search_trajectory(self, pair):
        serial, batched = pair
        np.testing.assert_array_equal(
            serial.optimizer_result.x, batched.optimizer_result.x
        )
        assert (
            serial.optimizer_result.evaluations
            == batched.optimizer_result.evaluations
        )

    def test_costs_within_tolerance(self, pair):
        serial, batched = pair
        hs = np.array(serial.optimizer_result.history)
        hb = np.array(batched.optimizer_result.history)
        assert hs.shape == hb.shape
        assert float(np.max(np.abs(hs - hb) / np.abs(hs))) <= 1e-9

    def test_same_optimized_assignment(self, pair):
        serial, batched = pair
        circuit = iscas85_circuit("c432")
        for gate in circuit.gates():
            assert serial.optimized_assignment[gate.name] == (
                batched.optimized_assignment[gate.name]
            )
        assert serial.unreliability_reduction == pytest.approx(
            batched.unreliability_reduction, rel=1e-9
        )

    def test_use_tables_false_falls_back_to_serial_objective(self):
        """The population pipeline is table-path only; a continuous-model
        analyzer must quietly keep the serial objective instead of
        crashing on the first evaluation."""
        circuit = iscas85_circuit("c17")
        config = SertoptConfig(
            max_evaluations=8,
            seed=1,
            aserta=AsertaConfig(n_vectors=300, seed=1, use_tables=False),
        )
        result = Sertopt(circuit, config=config).optimize()
        assert result.optimizer_result.evaluations <= 8
        assert result.optimized.total <= result.baseline.total + 1e-9

    def test_batched_annealing_runs_and_respects_budget(self):
        circuit = iscas85_circuit("c432")
        library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
        config = SertoptConfig(
            optimizer="annealing",
            max_evaluations=25,
            seed=3,
            aserta=AsertaConfig(n_vectors=800, seed=3),
        )
        result = Sertopt(circuit, library=library, config=config).optimize()
        assert result.optimizer_result.evaluations <= 25
        assert result.optimized.total <= result.baseline.total + 1e-9
