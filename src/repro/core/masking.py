"""Logical-masking mathematics (paper Section 3.1, Equation 2).

``S_is`` — probability that gate ``s`` is *sensitized* to its fan-in
``i``: every other fan-in holds its non-controlling value (1 for
AND/NAND, 0 for OR/NOR; XOR-class and single-input gates always
propagate).

``pi_isj`` — the share of gate ``i``'s glitch routed through successor
``s`` on the way to output ``j``::

    pi_isj = S_is * P_ij / sum_k S_ik * P_kj        (k over successors of i)

chosen, as the paper requires, so that ``sum_s pi_isj * P_sj = P_ij``
(the normalization Lemma 1 relies on).

Two implementations live here: the scalar, name-keyed functions the
paper-shaped code and the tests read, and :class:`MaskingStructure` —
the same mathematics reduced once over the circuit's
:class:`~repro.circuit.indexed.IndexedCircuit` edge arrays, giving the
dense ``(E, O)`` share matrix the vectorized Section-3.2 sweep consumes.
Everything in the structure is *structural* (it depends on the netlist,
the static probabilities and ``P_ij``, never on a parameter assignment),
so an analyzer builds it once and reuses it for every ``analyze`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.circuit.gate import GateType
from repro.circuit.indexed import IndexedCircuit
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError


def sensitization_to_input(
    circuit: Circuit,
    probabilities: Mapping[str, float],
    fanin_name: str,
    gate_name: str,
) -> float:
    """``S_is``: probability that ``gate_name`` passes a glitch arriving
    on ``fanin_name``."""
    gate = circuit.gate(gate_name)
    if fanin_name not in gate.fanins:
        raise AnalysisError(
            f"{fanin_name!r} is not a fan-in of {gate_name!r}"
        )
    if gate.gtype in (GateType.BUF, GateType.NOT, GateType.XOR, GateType.XNOR):
        return 1.0
    product = 1.0
    for other in gate.fanins:
        if other == fanin_name:
            continue
        p_one = probabilities[other]
        if gate.gtype in (GateType.AND, GateType.NAND):
            product *= p_one
        else:  # OR / NOR: non-controlling value is 0
            product *= 1.0 - p_one
    return product


def propagation_shares(
    circuit: Circuit,
    probabilities: Mapping[str, float],
    sensitized_paths: Mapping[str, Mapping[str, float]],
    gate_name: str,
    output_name: str,
) -> dict[str, float]:
    """``pi_isj`` for every successor ``s`` of ``gate_name`` (Equation 2).

    Returns an empty mapping when the gate cannot reach the output
    (``P_ij = 0``) or no successor offers a sensitizable route (the
    denominator is exactly zero).
    """
    p_ij = sensitized_paths.get(gate_name, {}).get(output_name, 0.0)
    if p_ij <= 0.0:
        return {}
    successors = circuit.fanouts(gate_name)
    weights: dict[str, float] = {}
    denominator = 0.0
    for successor in successors:
        s_is = sensitization_to_input(circuit, probabilities, gate_name, successor)
        p_sj = sensitized_paths.get(successor, {}).get(output_name, 0.0)
        weight = s_is * p_sj
        if weight > 0.0:
            weights[successor] = s_is
            denominator += weight
    if denominator == 0.0:
        return {}
    return {
        successor: s_is * p_ij / denominator
        for successor, s_is in weights.items()
    }


@dataclass(frozen=True)
class MaskingStructure:
    """Dense, assignment-independent form of Equations 1-prep and 2.

    Edge arrays follow ``indexed.edge_src`` / ``indexed.edge_dst`` order
    (CSR by source, successors in :meth:`Circuit.fanouts` order), so
    array reductions accumulate in the same sequence as the scalar
    reference code.
    """

    indexed: IndexedCircuit
    #: ``P_ij`` densified: ``(V, O)``.
    p_matrix: np.ndarray
    #: ``pi_isj`` per edge and output: ``(E, O)``.
    edge_shares: np.ndarray
    #: Edge-id batches for the reverse sweep, grouped by source logic
    #: level in descending order; sources are internal (non-input,
    #: non-PO) signals only, so every batch reads only finished rows.
    sweep_batches: tuple[np.ndarray, ...]


def edge_sensitizations(
    circuit: Circuit,
    probabilities: Mapping[str, float],
    indexed: IndexedCircuit | None = None,
) -> np.ndarray:
    """``S_is`` for every fanout edge, aligned with ``indexed.edge_src``.

    Computed destination-by-destination (each gate's fan-in list is a
    handful of entries) and scattered onto the edge array; this runs once
    per analyzer, not per analysis.
    """
    idx = circuit.indexed() if indexed is None else indexed
    # Missing entries must fail loudly, exactly like the scalar path's
    # probabilities[other] KeyError — a silent 0.0 default would zero
    # the Equation-2 shares and under-report unreliability.
    present = np.zeros(idx.n_signals, dtype=bool)
    for name in probabilities:
        row = idx.index.get(name)
        if row is not None:
            present[row] = True
    if idx.fanin_src.size:
        missing_rows = np.unique(idx.fanin_src[~present[idx.fanin_src]])
        if missing_rows.size:
            names = [idx.order[row] for row in missing_rows[:5]]
            raise AnalysisError(
                f"probabilities missing for fan-in signals {names}"
            )
    prob = idx.gather(probabilities)
    edge_s = np.zeros(idx.n_edges)
    slot = idx.edge_slot
    for s_row in idx.gate_rows:
        gtype = idx.gtypes[s_row]
        fanins = idx.fanins_of(s_row)
        s = int(s_row)
        if gtype in (GateType.BUF, GateType.NOT, GateType.XOR, GateType.XNOR):
            for i_row in fanins:
                edge_s[slot[(int(i_row), s)]] = 1.0
            continue
        factors = (
            prob[fanins]
            if gtype in (GateType.AND, GateType.NAND)
            else 1.0 - prob[fanins]
        )
        # Fan-ins are unique by Gate construction, so position masking
        # is the "all others" product of the scalar path.
        for t, i_row in enumerate(fanins):
            others = np.delete(factors, t)
            edge_s[slot[(int(i_row), s)]] = float(np.prod(others))
    return edge_s


def masking_structure(
    circuit: Circuit,
    probabilities: Mapping[str, float],
    sensitized_paths: Mapping[str, Mapping[str, float]] | None = None,
    indexed: IndexedCircuit | None = None,
    p_matrix: np.ndarray | None = None,
) -> MaskingStructure:
    """Build the dense Equation-2 structure for one circuit.

    ``P_ij`` comes either sparse (``sensitized_paths``, densified here)
    or already dense (``p_matrix`` over ``indexed`` row/column order, as
    the batched structural engine produces it) — exactly one of the two
    must be given.
    """
    idx = circuit.indexed() if indexed is None else indexed
    if (sensitized_paths is None) == (p_matrix is None):
        raise AnalysisError(
            "pass exactly one of sensitized_paths or p_matrix"
        )
    if p_matrix is not None:
        p = np.asarray(p_matrix, dtype=np.float64)
        if p.shape != (idx.n_signals, idx.n_outputs):
            raise AnalysisError(
                f"p_matrix shape {p.shape} does not match "
                f"({idx.n_signals}, {idx.n_outputs})"
            )
    else:
        assert sensitized_paths is not None
        p = idx.output_matrix(sensitized_paths)
    edge_s = edge_sensitizations(circuit, probabilities, idx)

    # denom[i, j] = sum over successors s of S_is * P_sj (zero-weight
    # terms add exactly 0.0, so this equals the scalar running sum).
    denom = np.zeros((idx.n_signals, idx.n_outputs))
    np.add.at(denom, idx.edge_src, edge_s[:, np.newaxis] * p[idx.edge_dst])

    with np.errstate(divide="ignore", invalid="ignore"):
        shares = (edge_s[:, np.newaxis] * p[idx.edge_src]) / denom[idx.edge_src]
    # The scalar path drops successors with no sensitizable route to j
    # (S_is * P_sj == 0) and whole rows whose denominator is exactly
    # zero.  No other cutoff is needed: the denominator includes the
    # edge's own term S_is * P_sj, so pi_isj <= P_ij / P_sj
    # <= n_vectors * P_ij (a sampled P_sj > 0 is at least 1 / n_vectors).
    shares = np.where(p[idx.edge_dst] > 0.0, shares, 0.0)
    shares = np.where(denom[idx.edge_src] > 0.0, shares, 0.0)

    # The level schedule is pure topology; serve it from the indexed
    # view's cached sweep plan (identical batch order by construction).
    batches, __slots = idx.sweep_index_plan()
    return MaskingStructure(
        indexed=idx,
        p_matrix=p,
        edge_shares=shares,
        sweep_batches=batches,
    )


def verify_share_identity(
    circuit: Circuit,
    probabilities: Mapping[str, float],
    sensitized_paths: Mapping[str, Mapping[str, float]],
    gate_name: str,
    output_name: str,
) -> tuple[float, float]:
    """Returns ``(sum_s pi_isj * P_sj, P_ij)`` — equal by construction.

    Exposed for the property-based tests of the Equation-2 identity the
    paper states ("pi_isj should have the property that
    sum_k pi_ikj P_kj = P_ij").
    """
    shares = propagation_shares(
        circuit, probabilities, sensitized_paths, gate_name, output_name
    )
    total = 0.0
    for successor, share in shares.items():
        total += share * sensitized_paths.get(successor, {}).get(output_name, 0.0)
    p_ij = sensitized_paths.get(gate_name, {}).get(output_name, 0.0)
    return total, p_ij
