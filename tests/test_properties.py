"""Analysis invariants, property-tested across *all* bundled ISCAS circuits.

Three paper-level properties must hold on every benchmark circuit, not
just c17:

* **Lemma 1** — a glitch wide enough to traverse any gate unattenuated
  arrives with expected width ``w * P_ij`` (the widest sample width is
  constructed to sit in that regime);
* **monotonicity in charge** — injecting more charge can only widen the
  generated glitches (the LUT is monotone in its charge axis), so the
  circuit unreliability is non-decreasing in the injected charge;
* **``P_jj = 1``** — a strike on a primary-output gate is latched
  regardless of the random vectors.

Vector counts are deliberately small: these are structural properties
that hold for any ``P_ij`` estimate, and the largest bundled circuits
(c6288, c7552) are thousands of gates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.iscas85 import iscas85_circuit, iscas85_names
from repro.core.aserta import AsertaAnalyzer, AsertaConfig

ALL_CIRCUITS = iscas85_names()
N_VECTORS = 128
SEED = 11


@pytest.fixture(scope="session")
def analyzer_cache():
    cache: dict[str, AsertaAnalyzer] = {}

    def get(name: str) -> AsertaAnalyzer:
        analyzer = cache.get(name)
        if analyzer is None:
            analyzer = AsertaAnalyzer(
                iscas85_circuit(name),
                AsertaConfig(n_vectors=N_VECTORS, seed=SEED, n_sample_widths=6),
            )
            cache[name] = analyzer
        return analyzer

    return get


@pytest.mark.parametrize("name", ALL_CIRCUITS)
def test_po_diagonal_is_one(name, analyzer_cache):
    """P_jj = 1 on every primary output of every bundled circuit."""
    analyzer = analyzer_cache(name)
    circuit = analyzer.circuit
    for output in circuit.outputs:
        assert analyzer.sensitized_paths[output][output] == 1.0
    # ... and the dense view agrees.
    idx = analyzer.indexed
    diagonal = analyzer.structure.p_matrix[
        idx.output_rows, idx.col_of_row[idx.output_rows]
    ]
    np.testing.assert_array_equal(diagonal, 1.0)


@pytest.mark.parametrize("name", ALL_CIRCUITS)
def test_lemma1_wide_glitch_regime(name, analyzer_cache):
    """W_ij -> w_i * P_ij for the widest sample, on every circuit.

    A few routes are dropped: where P_ij > 0 but every successor has
    S_is * P_sj == 0 exactly (the sensitization reconverges, or the
    sampled vectors missed it), the Equation-2 denominator is exactly
    zero and the gate routes nothing to that output.  Dropping can only
    *lose* width — so the lemma is asserted as an exact upper bound
    everywhere plus exact equality on the (overwhelming) majority of
    routes.
    """
    analyzer = analyzer_cache(name)
    report = analyzer.analyze()
    masking = report.masking
    assert masking.arrays is not None
    idx = analyzer.indexed
    wide = masking.sample_widths[-1]
    p = analyzer.structure.p_matrix
    internal = ~idx.is_input & ~idx.is_output
    top = masking.arrays.ws[:, :, -1]
    mask = internal[:, np.newaxis] & (p > 0.0)
    assert mask.any(), "no internal gate reaches an output"
    arrived = top[mask]
    bound = wide * p[mask]
    assert np.all(arrived <= bound * (1.0 + 1e-9))
    equal = np.isclose(arrived, bound, rtol=1e-6)
    assert equal.mean() > 0.98, f"lemma holds on only {equal.mean():.2%}"


@pytest.mark.parametrize("name", ALL_CIRCUITS)
def test_equation2_share_identity_dense(name, analyzer_cache):
    """sum_s pi_isj * P_sj = P_ij wherever the Equation-2 denominator
    is nonzero — the normalization Lemma 1 rests on, checked on the
    dense structure of every bundled circuit.

    Every share is also finite and at most P_ij / P_sj: the denominator
    includes the edge's own term S_is * P_sj, which is why an exact-zero
    test is the only cutoff Equation 2 needs.
    """
    analyzer = analyzer_cache(name)
    structure = analyzer.structure
    idx = analyzer.indexed
    p = structure.p_matrix
    shares = structure.edge_shares
    assert np.all(np.isfinite(shares))
    p_src, p_dst = p[idx.edge_src], p[idx.edge_dst]
    reaches = p_dst > 0.0
    assert np.all(shares[~reaches] == 0.0)
    bound = p_src[reaches] / p_dst[reaches]
    assert np.all(shares[reaches] <= bound * (1.0 + 1e-12))
    recovered = np.zeros_like(p)
    np.add.at(
        recovered,
        idx.edge_src,
        structure.edge_shares * p[idx.edge_dst],
    )
    internal = ~idx.is_input & ~idx.is_output
    routed = recovered[internal] > 0.0
    assert routed.any()
    np.testing.assert_allclose(
        recovered[internal][routed], p[internal][routed], rtol=1e-9
    )


@pytest.mark.parametrize("name", ALL_CIRCUITS)
def test_unreliability_monotone_in_charge(name, analyzer_cache):
    """More injected charge never decreases the circuit unreliability."""
    analyzer = analyzer_cache(name)
    totals = [
        analyzer.analyze(charge_fc=q).total for q in (0.0, 8.0, 16.0, 32.0)
    ]
    assert totals[0] == 0.0
    for lower, higher in zip(totals, totals[1:]):
        assert higher >= lower
