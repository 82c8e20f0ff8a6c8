"""The conformance matrix: every fast path against its oracle.

Every axis that promises equivalence with a reference implementation is
re-asserted here through one shared harness (:mod:`conformance`):

* **fused sweep** — the compiled Section-3.2 sweep plan against the
  unfused per-level loop, across *all* bundled ISCAS-85 circuits and
  the generator families, one-candidate and population paths both,
  bitwise;
* **engine** — ``analyze(engine="array")`` against the scalar
  reference walk (small circuits: the dict walk is the slow seed path);
* **structural_engine** — the config axis end-to-end: an analyzer
  pinned to the event-driven estimator produces the same ``P_ij`` and
  the same totals as the batched default, bit for bit;
* **matcher** — every lane of the level-batched population matcher
  against the scalar per-gate ``match``, exact cell equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance import (
    CONFORMANCE_CIRCUITS,
    CONFORMANCE_SPECS,
    assert_fused_sweep_conforms_batch,
    assert_fused_sweep_conforms_single,
    assert_lanes_match_scalar,
    assert_reports_agree,
    conformance_circuit,
    mixed_assignment,
    mixed_assignments,
)
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.matching import MatchingEngine
from repro.tech.library import CellLibrary

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

    def get(name: str, **overrides) -> AsertaAnalyzer:
        key = name + repr(sorted(overrides.items()))
        analyzer = cache.get(key)
        if analyzer is None:
            analyzer = AsertaAnalyzer(
                conformance_circuit(name),
                AsertaConfig(
                    n_vectors=N_VECTORS, seed=SEED, n_sample_widths=6,
                    **overrides,
                ),
            )
            cache[key] = analyzer
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


class TestStructuralEngineAxis:
    """The config axis end-to-end: event-driven vs. batched P_ij."""

    @pytest.mark.parametrize("name", SMALL_CIRCUITS)
    def test_p_matrix_and_totals_bitwise(self, name, analyzer_cache):
        batched = analyzer_cache(name)
        event = analyzer_cache(name, structural_engine="event")
        np.testing.assert_array_equal(event.p_matrix, batched.p_matrix)
        assignment = mixed_assignment(batched.circuit, seed=19)
        assert event.analyze(assignment).total == batched.analyze(
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
