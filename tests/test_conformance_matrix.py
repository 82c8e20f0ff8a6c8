"""The conformance matrix: every fast path against its oracle.

Every axis that promises equivalence with a reference implementation is
re-asserted here through one shared harness (:mod:`conformance`):

* **fused sweep** — the compiled Section-3.2 sweep plan against the
  unfused per-level loop, across *all* bundled ISCAS-85 circuits and
  the generator families, one-candidate and population paths both,
  bitwise;
* **engine** — ``analyze(engine="array")`` against the scalar
  reference walk (small circuits: the dict walk is the slow seed path);
* **tables** — every cell of the six characterization table kinds,
  on every gate pair of the matrix, against the scalar gate model at
  that grid point, bitwise;
* **continuous model** — every field of the continuous model's
  population annotation, per lane and as ``CircuitElectrical``'s lane
  0, against the scalar walk ``vectorized=False`` at 0, 16 and 64 fC,
  bitwise;
* **structural** — the analyzer's ``P_ij`` (the live-pair kernel
  behind the artifact cache) against the event-driven oracle
  ``structural_matrix_event``, and the totals an analyzer computes
  from either matrix, bit for bit;
* **matcher** — every lane of the level-batched population matcher
  against the scalar per-gate ``match``, exact cell equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance import (
    CONFORMANCE_CIRCUITS,
    CONFORMANCE_SPECS,
    assert_continuous_lanes_match_scalar,
    assert_fused_sweep_conforms_batch,
    assert_fused_sweep_conforms_single,
    assert_lanes_match_scalar,
    assert_reports_agree,
    assert_tables_match_model,
    conformance_circuit,
    conformance_gate_pairs,
    mixed_assignment,
    mixed_assignments,
    off_grid_assignments,
)
from repro.circuit.gate import GateType
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.matching import MatchingEngine
from repro.engine import AnalysisEngine, p_matrix_key, structural_matrix_event
from repro.engine.artifacts import KIND_COMPILED, KIND_P_MATRIX, KIND_STRUCTURE
from repro.tech.library import CellLibrary
from repro.tech.table_builder import TechnologyTables

N_VECTORS = 64
SEED = 7

#: Circuits small enough for the scalar dict-walk reference engine.
SMALL_CIRCUITS = ["c17", "c432", "c499"] + [s.name for s in CONFORMANCE_SPECS]


@pytest.fixture(scope="session")
def analyzer_cache():
    """One analyzer per conformance circuit, shared across the matrix
    (the structural simulation is the expensive part; every axis test
    reuses it)."""
    cache: dict[str, AsertaAnalyzer] = {}

    def get(name: str) -> AsertaAnalyzer:
        analyzer = cache.get(name)
        if analyzer is None:
            analyzer = AsertaAnalyzer(
                conformance_circuit(name),
                AsertaConfig(n_vectors=N_VECTORS, seed=SEED, n_sample_widths=6),
            )
            cache[name] = analyzer
        return analyzer

    return get


class TestFusedSweepAxis:
    """Fused plan vs. unfused loop, full circuit axis."""

    @pytest.mark.parametrize("name", CONFORMANCE_CIRCUITS)
    def test_single_candidate_conforms(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignment = mixed_assignment(analyzer.circuit, seed=13)
        assert_fused_sweep_conforms_single(analyzer, assignment)

    @pytest.mark.parametrize("name", CONFORMANCE_CIRCUITS)
    def test_population_conforms(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignments = mixed_assignments(analyzer.circuit, seed=11, count=2)
        assert_fused_sweep_conforms_batch(analyzer, assignments)


class TestEngineAxis:
    """Array engine vs. the scalar reference walk (the seed path)."""

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_reports_agree(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        assignment = mixed_assignment(analyzer.circuit, seed=17)
        assert_reports_agree(
            analyzer.analyze(assignment, engine="array"),
            analyzer.analyze(assignment, engine="reference"),
        )


class TestTablesAxis:
    """Characterization tables vs. the scalar gate model, their oracle."""

    @pytest.fixture(scope="class")
    def tables(self):
        return TechnologyTables()

    @pytest.mark.parametrize(
        "pair", conformance_gate_pairs(), ids=lambda p: f"{p[0].value}{p[1]}"
    )
    def test_every_cell_bitwise(self, pair, tables):
        assert_tables_match_model(tables, *pair)

    def test_non_switching_cells_bitwise(self):
        """The default grids have no cell with ``vdd <= vth``; these do
        (equal and below), and those cells are ``inf`` in every table."""
        tables = TechnologyTables(vdds=(0.2, 0.6, 1.0), vths=(0.1, 0.2, 0.3))
        assert_tables_match_model(tables, GateType.NAND, 2)

    def test_stacks_read_only_and_never_persisted(self, tmp_path):
        """Stacks are shared by aliasing, so they refuse writes; and an
        analyzer build caches no table artifact in memory or on disk."""
        tables = TechnologyTables()
        engine = AnalysisEngine(cache_dir=tmp_path)
        analyzer = AsertaAnalyzer(
            conformance_circuit("c17"),
            AsertaConfig(n_vectors=N_VECTORS, seed=SEED),
            tables=tables,
            engine=engine,
        )
        stack = tables.stacked_values("delay", analyzer.indexed.group_pairs)
        with pytest.raises(ValueError):
            stack[...] = 0.0
        assert set(engine.cache.stats.by_kind) <= {
            KIND_P_MATRIX, KIND_STRUCTURE, KIND_COMPILED,
        }
        files = [path.name for path in tmp_path.rglob("*") if path.is_file()]
        assert files
        assert all(
            name.startswith(f"{KIND_P_MATRIX}-") and name.endswith(".npz")
            for name in files
        ), files


class TestContinuousModelAxis:
    """The continuous model's population annotation vs. its scalar walk."""

    @pytest.mark.parametrize("name", CONFORMANCE_CIRCUITS)
    def test_every_field_bitwise(self, name):
        circuit = conformance_circuit(name)
        assignments = off_grid_assignments(circuit, seed=29, count=2)
        for charge_fc in (0.0, 16.0, 64.0):
            assert_continuous_lanes_match_scalar(
                circuit, assignments, charge_fc
            )


class TestStructuralEngineAxis:
    """The analyzer's P_ij vs. the event-driven oracle."""

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_p_matrix_and_totals_bitwise(self, name, analyzer_cache):
        analyzer = analyzer_cache(name)
        circuit = analyzer.circuit
        oracle = structural_matrix_event(circuit, N_VECTORS, SEED)
        np.testing.assert_array_equal(analyzer.p_matrix, oracle)
        # An analyzer served the oracle's matrix from its cache (no
        # simulation of its own) reports the same totals.
        engine = AnalysisEngine()
        engine.cache.put(
            p_matrix_key(circuit, N_VECTORS, SEED), {"p_matrix": oracle}
        )
        served = AsertaAnalyzer(circuit, analyzer.config, engine=engine)
        assert engine.structural_sim_runs == 0
        assignment = mixed_assignment(circuit, seed=19)
        assert served.analyze(assignment).total == analyzer.analyze(
            assignment
        ).total


class TestLevelBatchedAxis:
    """Level-batched population matcher vs. the scalar per-gate walk."""

    LIBRARY = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2,))

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_match_batch_bitwise(self, name):
        circuit = conformance_circuit(name)
        idx = circuit.indexed()
        rng = np.random.default_rng(23)
        targets = rng.uniform(0.5, 400.0, size=(3, idx.n_signals))
        engine = MatchingEngine(circuit, self.LIBRARY)
        assert_lanes_match_scalar(
            engine, engine.match_batch(targets, {}, anchor=None), targets,
            {}, context=name,
        )
