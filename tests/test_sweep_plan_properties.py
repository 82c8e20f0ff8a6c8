"""Hypothesis properties of the fused sweep plan.

Three invariants that must hold for *every* parameter assignment, not
just the hand-picked differential cases:

* **plan vs. unfused, bitwise** — the fused execution of the
  compiled :class:`~repro.core.sweep_plan.SweepPlan` reproduces the
  unfused per-level loop exactly, for any assignment the generator
  draws (single-candidate and population paths);
* **lane-permutation invariance** — lanes of the batched sweep are
  independent: permuting the candidate axis of every input permutes
  the output rows identically, bit for bit;
* **chunk invariance** — ``analyze_many``'s ``max_batch_bytes`` (and
  its :meth:`CostEvaluator.evaluate_batch` passthrough) is a pure
  execution knob: any chunking produces bitwise-identical totals.

Examples are deliberately few and the circuits small — each example
runs a full masking sweep; the value is in the random assignments, not
in volume.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformance import (
    assert_fused_sweep_conforms_batch,
    assert_fused_sweep_conforms_single,
    mixed_assignments,
)
from repro.circuit.generator import GeneratorSpec, generate_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.baseline import size_for_speed
from repro.core.cost import CostEvaluator
from repro.core.electrical_masking import (
    default_sample_widths_batch,
    electrical_masking_many,
)
from repro.tech.electrical_view import (
    batched_electrical_arrays,
    stack_cell_param_arrays,
)

SPEC = GeneratorSpec("plan-prop", 8, 4, 70, 6, seed=17, flavor="alu")
SETTINGS = dict(max_examples=12, deadline=None)

_CACHE: dict[str, AsertaAnalyzer] = {}


def _analyzer() -> AsertaAnalyzer:
    """One module-wide analyzer: every example reuses the structural
    simulation and the compiled sweep plan (that reuse under changing
    assignments is itself part of what is being tested)."""
    analyzer = _CACHE.get("plan-prop")
    if analyzer is None:
        analyzer = AsertaAnalyzer(
            generate_circuit(SPEC),
            AsertaConfig(n_vectors=128, seed=SPEC.seed, n_sample_widths=6),
        )
        _CACHE["plan-prop"] = analyzer
    return analyzer


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(**SETTINGS)
def test_plan_matches_unfused_single_bitwise(seed):
    analyzer = _analyzer()
    assignment = mixed_assignments(analyzer.circuit, seed, count=1)[0]
    assert_fused_sweep_conforms_single(analyzer, assignment)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(**SETTINGS)
def test_plan_matches_unfused_batch_bitwise(seed):
    analyzer = _analyzer()
    assignments = mixed_assignments(analyzer.circuit, seed, count=3)
    assert_fused_sweep_conforms_batch(analyzer, assignments)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    perm_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(**SETTINGS)
def test_lane_permutation_invariance(seed, perm_seed):
    """Permuting the candidate axis of every input permutes the output
    rows identically — lanes never leak into each other."""
    analyzer = _analyzer()
    idx = analyzer.indexed
    assignments = mixed_assignments(analyzer.circuit, seed, count=4)
    params = stack_cell_param_arrays(idx, assignments)
    arrays = batched_electrical_arrays(
        analyzer.circuit, analyzer.tables, params,
        charge_fc=analyzer.config.charge_fc,
    )
    samples = default_sample_widths_batch(
        idx, arrays["delay_ps"], arrays["generated_width_ps"],
        analyzer.config.n_sample_widths,
    )
    expected = electrical_masking_many(
        analyzer.structure,
        arrays["delay_ps"],
        arrays["generated_width_ps"],
        samples,
        plan=analyzer.sweep_plan,
    )
    perm = np.random.default_rng(perm_seed).permutation(len(assignments))
    permuted = electrical_masking_many(
        analyzer.structure,
        np.ascontiguousarray(arrays["delay_ps"][perm]),
        np.ascontiguousarray(arrays["generated_width_ps"][perm]),
        np.ascontiguousarray(samples[perm]),
        plan=analyzer.sweep_plan,
    )
    np.testing.assert_array_equal(permuted, expected[perm])


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    max_batch_bytes=st.sampled_from([1, 4096, 1 << 14, 1 << 20, 1 << 28]),
)
@settings(**SETTINGS)
def test_chunking_invariance_of_analyze_many(seed, max_batch_bytes):
    analyzer = _analyzer()
    assignments = mixed_assignments(analyzer.circuit, seed, count=5)
    whole = analyzer.analyze_many(assignments)
    chunked = analyzer.analyze_many(
        assignments, max_batch_bytes=max_batch_bytes
    )
    # The batched contract: unreliability and delay are bit-identical;
    # energy/area reduce over chunk-shaped slices and may reassociate.
    np.testing.assert_array_equal(chunked.totals, whole.totals)
    np.testing.assert_array_equal(chunked.delay_ps, whole.delay_ps)
    np.testing.assert_allclose(chunked.energy_fj, whole.energy_fj, rtol=1e-9)
    np.testing.assert_allclose(chunked.area, whole.area, rtol=1e-9)


@pytest.fixture(scope="module")
def evaluator():
    analyzer = _analyzer()
    return CostEvaluator(analyzer, size_for_speed(analyzer.circuit))


@given(max_batch_bytes=st.sampled_from([1, 1 << 14, 1 << 28]))
@settings(max_examples=3, deadline=None)
def test_chunking_invariance_of_evaluate_batch(evaluator, max_batch_bytes):
    assignments = mixed_assignments(evaluator.analyzer.circuit, 31, count=4)
    whole = evaluator.evaluate_batch(assignments)
    chunked = evaluator.evaluate_batch(
        assignments, max_batch_bytes=max_batch_bytes
    )
    # Cost totals fold in the energy/area terms, which reassociate
    # across chunk widths — the contract here is 1e-9 relative.
    np.testing.assert_allclose(chunked, whole, rtol=1e-9)
