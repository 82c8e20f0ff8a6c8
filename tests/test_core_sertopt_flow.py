"""End-to-end tests of the SERTOPT flow and the baseline sizing."""

import numpy as np
import pytest

from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.baseline import size_for_speed
from repro.core.sertopt import Sertopt, SertoptConfig
from repro.errors import OptimizationError
from repro.sta.timing import analyze_timing
from repro.tech.electrical_view import CircuitElectrical
from repro.tech.library import CellLibrary, NOMINAL_CELL, ParameterAssignment


class TestBaseline:
    def test_sizing_never_slows_circuit(self, c432):
        library = CellLibrary.paper_library()
        nominal_delay = analyze_timing(
            c432,
            CircuitElectrical(
                c432, ParameterAssignment(), use_tables=False
            ).delay_ps,
        ).delay_ps
        sized = size_for_speed(c432, library)
        sized_delay = analyze_timing(
            c432,
            CircuitElectrical(c432, sized, use_tables=False).delay_ps,
        ).delay_ps
        assert sized_delay <= nominal_delay

    def test_baseline_keeps_nominal_voltages(self, c432):
        sized = size_for_speed(c432)
        for gate in c432.gates():
            cell = sized[gate.name]
            assert cell.vdd == NOMINAL_CELL.vdd
            assert cell.vth == NOMINAL_CELL.vth
            assert cell.length_nm == NOMINAL_CELL.length_nm


class TestSertoptConfig:
    def test_validation(self):
        with pytest.raises(OptimizationError):
            SertoptConfig(max_evaluations=0)
        with pytest.raises(OptimizationError):
            SertoptConfig(coefficient_bound_ps=-1.0)


class TestSertoptFlow:
    @pytest.fixture(scope="class")
    def result(self):
        circuit = iscas85_circuit("c432")
        config = SertoptConfig(
            max_evaluations=40,
            seed=0,
            aserta=AsertaConfig(n_vectors=1500, seed=0),
        )
        library = CellLibrary.paper_library(
            vdds=(0.8, 1.0), vths=(0.2, 0.3)
        )
        return Sertopt(circuit, library=library, config=config).optimize()

    def test_result_never_worse_than_baseline(self, result):
        assert result.optimized.total <= (
            result.baseline.total + 1e-9
        )

    def test_ratios_computed(self, result):
        assert result.area_ratio > 0.0
        assert result.energy_ratio > 0.0
        assert 0.5 < result.delay_ratio < 1.6

    def test_reduction_bounded(self, result):
        assert -0.05 <= result.unreliability_reduction <= 1.0

    def test_voltages_within_menu(self, result):
        assert set(result.vdds_used()) <= {0.8, 1.0}
        assert set(result.vths_used()) <= {0.2, 0.3}

    def test_vdd_ordering_in_result(self, result):
        circuit = iscas85_circuit("c432")
        assignment = result.optimized_assignment
        for gate in circuit.gates():
            for successor in circuit.fanouts(gate.name):
                assert assignment[gate.name].vdd >= (
                    assignment[successor].vdd - 1e-12
                )

    def test_delay_space_reported(self, result):
        assert result.delay_space_info["dimension"] >= 0
        assert result.delay_space_info["gates"] == iscas85_circuit(
            "c432"
        ).gate_count

    def test_runtime_recorded(self, result):
        assert result.runtime_s > 0.0


class TestSertoptReuse:
    CONFIG = SertoptConfig(
        max_evaluations=12, seed=0, aserta=AsertaConfig(n_vectors=300, seed=0)
    )

    def test_delay_space_info_is_lazy(self, c432, monkeypatch):
        """optimize() never ranks the path matrix; the rank (an SVD) runs
        only when delay_space_info is first read."""
        sertopt = Sertopt(c432, config=self.CONFIG)

        def forbidden(*args, **kwargs):
            raise AssertionError("matrix_rank ran inside optimize()")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "matrix_rank", forbidden)
            result = sertopt.optimize()
        info = result.delay_space_info
        assert info["gates"] == c432.gate_count
        assert 0 <= info["dimension"] <= info["gates"]
        assert info["rank"] == np.linalg.matrix_rank(result.delay_space.matrix)
        assert result.delay_space_info is info

    def test_repeat_optimize_reuses_the_matcher(self, c432):
        """One matching engine (cell arrays, level plan) serves every
        optimize() call of an instance, and a repeat reproduces the run."""
        sertopt = Sertopt(c432, config=self.CONFIG)
        first = sertopt.optimize()
        matcher = sertopt.matcher
        plan = matcher._level_plan()
        second = sertopt.optimize()
        assert sertopt.matcher is matcher
        assert matcher._level_plan() is plan
        np.testing.assert_array_equal(
            second.optimizer_result.x, first.optimizer_result.x
        )
        assert second.optimized.total == first.optimized.total
        for gate in c432.gates():
            assert (
                second.optimized_assignment[gate.name]
                == first.optimized_assignment[gate.name]
            )


class TestSertoptFindsImprovement:
    def test_c432_improves_with_reasonable_budget(self):
        """The headline reproduction: SERTOPT reduces c432-like
        unreliability by a double-digit percentage."""
        circuit = iscas85_circuit("c432")
        config = SertoptConfig(
            max_evaluations=60,
            seed=0,
            aserta=AsertaConfig(n_vectors=2000, seed=0),
        )
        library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
        result = Sertopt(circuit, library=library, config=config).optimize()
        assert result.unreliability_reduction > 0.10
        assert result.delay_ratio < 1.40
