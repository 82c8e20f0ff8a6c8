"""Differential tests of the batched structural engine.

The acceptance contract is *exact* equality: the batched fault-site
simulator and the event-driven seed estimator simulate the same packed
random vectors (same seed, same word layout), so every ``P_ij`` count —
and therefore every probability — must be bit-identical.  Asserted
across all 11 bundled ISCAS-85 circuits, the generator-family circuits
and the hand-built fixtures, at several fault-site block sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformance import assert_structural_bit_identical
from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.circuit.iscas85 import iscas85_circuit, iscas85_names
from repro.engine.structural import (
    CompiledStructuralCircuit,
    pick_block_sites,
    sparse_paths_from_matrix,
    structural_matrix_batched,
    structural_matrix_event,
)
from repro.errors import SimulationError
from repro.logicsim.sensitization import (
    observability,
    observability_matrix,
    sensitization_matrix,
    sensitization_probabilities,
)

#: Two packed words, with a partial tail word — exercises lane masking.
N_VECTORS = 96
SEED = 7

GENERATOR_SPECS = [
    GeneratorSpec("eng-control", 6, 3, 40, 5, seed=2, flavor="control"),
    GeneratorSpec("eng-alu", 8, 4, 70, 6, seed=17, flavor="alu"),
    GeneratorSpec("eng-parity", 5, 2, 30, 4, seed=33, flavor="parity"),
    GeneratorSpec("eng-deep", 4, 2, 48, 12, seed=71, flavor="control"),
]


@pytest.mark.parametrize("name", iscas85_names())
def test_bit_identical_on_iscas(name):
    assert_structural_bit_identical(iscas85_circuit(name), N_VECTORS, SEED)


@pytest.mark.parametrize(
    "spec", GENERATOR_SPECS, ids=[s.name for s in GENERATOR_SPECS]
)
def test_bit_identical_on_generator_circuits(spec):
    assert_structural_bit_identical(generate_circuit(spec), 200, spec.seed)


@pytest.mark.parametrize("fixture", ["chain4", "diamond", "two_output"])
def test_bit_identical_on_fixtures(fixture, request):
    assert_structural_bit_identical(request.getfixturevalue(fixture), 70, 3)


@pytest.mark.parametrize("block_sites", [1, 3, 64, 10_000])
def test_block_size_never_changes_the_result(c432, block_sites):
    """Any site blocking (one site, tiny blocks, whole circuit at once)
    produces the same matrix — blocking is purely an execution knob."""
    reference = structural_matrix_batched(c432, N_VECTORS, seed=SEED)
    blocked = structural_matrix_batched(
        c432, N_VECTORS, seed=SEED, block_sites=block_sites
    )
    np.testing.assert_array_equal(blocked, reference)


def test_compiled_schedule_is_reusable(c432):
    compiled = CompiledStructuralCircuit(c432.indexed())
    a = structural_matrix_batched(c432, 64, seed=1, compiled=compiled)
    b = structural_matrix_batched(c432, 64, seed=2, compiled=compiled)
    c = structural_matrix_batched(c432, 64, seed=1, compiled=compiled)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b), "different seeds must differ"


def test_compiled_schedule_rejects_foreign_circuit(c17, chain4):
    compiled = CompiledStructuralCircuit(chain4.indexed())
    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 64, compiled=compiled)


def test_matrix_shape_diagonal_and_inputs(two_output):
    idx = two_output.indexed()
    p = structural_matrix_batched(two_output, 128, seed=0)
    assert p.shape == (idx.n_signals, idx.n_outputs)
    # P_jj = 1 on every primary output, regardless of vectors.
    diagonal = p[idx.output_rows, idx.col_of_row[idx.output_rows]]
    np.testing.assert_array_equal(diagonal, 1.0)
    # Primary-input rows are estimated too (the transient reference
    # simulator shares the site list with the seed estimator).
    assert p[: len(two_output.inputs)].any()
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_sparse_view_round_trips_exactly(c17):
    """Dense -> sparse matches the seed estimator dict exactly, and
    sparse -> dense recovers the matrix losslessly."""
    idx = c17.indexed()
    p = structural_matrix_batched(c17, 500, seed=1)
    sparse = sparse_paths_from_matrix(idx, p)
    assert sparse == sensitization_probabilities(c17, 500, seed=1)
    np.testing.assert_array_equal(idx.output_matrix(sparse), p)


def test_dispatch_and_wrapper(c17):
    """The logicsim compatibility wrapper equals both estimators, and
    densifies a given estimate instead of simulating."""
    wrapped = sensitization_matrix(c17, 128, seed=2)
    np.testing.assert_array_equal(
        wrapped, structural_matrix_batched(c17, 128, seed=2)
    )
    np.testing.assert_array_equal(
        wrapped, structural_matrix_event(c17, 128, seed=2)
    )
    paths = sensitization_probabilities(c17, 128, seed=2)
    np.testing.assert_array_equal(
        sensitization_matrix(c17, sensitized_paths=paths), wrapped
    )


def test_rejects_bad_arguments(c17, chain4):
    from repro.logicsim.bitsim import BitParallelSimulator

    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 0)
    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 64, block_sites=0)
    with pytest.raises(SimulationError):
        structural_matrix_batched(c17, 64, simulator=BitParallelSimulator(chain4))


def test_pick_block_sites_respects_budget():
    assert pick_block_sites(1000, 100, max_block_bytes=1 << 20) == 1
    assert pick_block_sites(10, 1, max_block_bytes=1 << 30) == 256
    assert pick_block_sites(1000, 100, max_block_bytes=0) == 1


class TestObservabilitySharedImplementation:
    def test_dict_view_matches_matrix_view(self, c432):
        paths = sensitization_probabilities(c432, 300, seed=4)
        obs = observability(paths)
        idx = c432.indexed()
        dense = observability_matrix(idx.output_matrix(paths))
        assert set(obs) == set(idx.order)
        for row, name in enumerate(idx.order):
            assert obs[name] == pytest.approx(dense[row], rel=1e-12, abs=0.0)

    def test_clipped_to_one_and_po_is_one(self, c17):
        paths = sensitization_probabilities(c17, 300, seed=4)
        obs = observability(paths)
        assert all(0.0 <= value <= 1.0 for value in obs.values())
        for out in c17.outputs:
            assert obs[out] == 1.0

    def test_analyzer_observability_routes_through_matrix(self, c17_analyzer):
        obs = c17_analyzer.observability()
        dense = observability_matrix(c17_analyzer.p_matrix)
        idx = c17_analyzer.indexed
        assert obs == {
            name: float(dense[row]) for row, name in enumerate(idx.order)
        }


class TestSiteMasks:
    """Per-(row, site) liveness masks: each (level, group) runs either
    the dense rectangle or the gathered live pairs, and both must
    reproduce the event-driven estimator exactly — across block sizes
    (one site, several blocks, the whole circuit in one block) and at
    three packed words with a partial tail."""

    CIRCUITS = ("c432", "c499", "parity")
    N_VECTORS = 130

    @staticmethod
    def _circuit(name):
        if name == "parity":
            return generate_circuit(
                GeneratorSpec("live-parity", 6, 3, 60, 6, seed=5, flavor="parity")
            )
        return iscas85_circuit(name)

    def _assert_forced_branch(self, monkeypatch, density: float) -> None:
        import repro.engine.structural as structural

        monkeypatch.setattr(structural, "DENSE_LIVE_DENSITY", density)
        for name in self.CIRCUITS:
            circuit = self._circuit(name)
            event = structural_matrix_event(circuit, self.N_VECTORS, seed=SEED)
            n = circuit.indexed().n_signals
            for block_sites in (1, 8, n):
                forced = structural_matrix_batched(
                    circuit, self.N_VECTORS, seed=SEED, block_sites=block_sites
                )
                np.testing.assert_array_equal(
                    forced, event, err_msg=f"{name}, block_sites={block_sites}"
                )

    def test_forced_sparse_path_bit_identical(self, monkeypatch):
        """Every group takes the gathered live-pair branch."""
        self._assert_forced_branch(monkeypatch, 1.0)

    def test_forced_dense_path_bit_identical(self, monkeypatch):
        """Every group takes the dense rectangle, live pairs or not."""
        self._assert_forced_branch(monkeypatch, -1.0)

    def test_compiled_schedule_is_linear_in_netlist_size(self):
        """The compiled schedule stores gate rows and fan-in rows only —
        no per-signal reachability bitsets, in the schedule or beside it."""
        idx = iscas85_circuit("c5315").indexed()
        compiled = CompiledStructuralCircuit(idx)
        stored = sum(
            rows.nbytes + fanins.nbytes
            for __, entries in compiled.schedule
            for __, rows, fanins in entries
        )
        stored += sum(
            value.nbytes
            for value in vars(compiled).values()
            if isinstance(value, np.ndarray)
        )
        assert stored == 8 * (idx.n_gates + idx.fanin_src.size)


@given(
    n_gates=st.integers(min_value=8, max_value=60),
    depth=st.integers(min_value=2, max_value=10),
    flavor=st.sampled_from(["control", "alu", "parity"]),
    circuit_seed=st.integers(min_value=0, max_value=2**16),
    block_sites=st.sampled_from([1, 2, 5, 16, None]),
    n_vectors=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=25, deadline=None)
def test_batched_matches_event_on_random_circuits(
    n_gates, depth, flavor, circuit_seed, block_sites, n_vectors
):
    """Any generated circuit, any blocking, any vector count (including
    a single lane and partial tail words): batched == event, bitwise."""
    spec = GeneratorSpec(
        "prop", 4, 3, n_gates, depth, seed=circuit_seed, flavor=flavor
    )
    circuit = generate_circuit(spec)
    event = structural_matrix_event(circuit, n_vectors, seed=circuit_seed)
    batched = structural_matrix_batched(
        circuit, n_vectors, seed=circuit_seed, block_sites=block_sites
    )
    np.testing.assert_array_equal(batched, event)
