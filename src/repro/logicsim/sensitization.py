"""Sensitized-path probabilities P_ij by fault-injection simulation.

``P_ij`` is the probability that at least one path from the output of
gate ``i`` to primary output ``j`` is sensitized (paper Section 3.1).
Exact computation is NP-complete for reconvergent circuits [Najm-Hajj],
so ASERTA estimates it with zero-delay simulation of random vectors (the
paper uses 10 000, following Mohanram-Touba [5]): for each vector,
``i``'s value is complemented and the change propagated; output ``j``
flips exactly when some path is sensitized.

The propagation is event-driven over packed 64-vector words: a gate is
re-evaluated only if one of its fan-ins actually changed in some lane,
so the touched region usually collapses to a narrow cone.
"""

from __future__ import annotations

import heapq
from typing import Mapping

import numpy as np

from repro.circuit.gate import evaluate_words
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.logicsim.bitsim import BitParallelSimulator
from repro.logicsim.vectors import lane_mask, random_input_words

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def sensitization_probabilities(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    simulator: BitParallelSimulator | None = None,
) -> dict[str, dict[str, float]]:
    """Estimate ``P_ij`` for every gate ``i`` and primary output ``j``.

    Returns a sparse mapping ``{gate: {output: probability}}`` holding
    only structurally-reachable, non-zero-support pairs, with the
    guaranteed diagonal ``P_jj = 1`` for primary outputs (a strike on a
    PO gate is latched regardless of vectors, per the paper).

    Primary-input signals are included as well (strikes on input pads
    are not analyzed by ASERTA, but the transient reference simulator
    shares this code path).
    """
    if n_vectors < 1:
        raise SimulationError(f"need at least one vector, got {n_vectors}")
    sim = simulator if simulator is not None else BitParallelSimulator(circuit)
    if sim.circuit is not circuit:
        raise SimulationError("simulator was compiled for a different circuit")
    inputs = random_input_words(len(circuit.inputs), n_vectors, seed)
    base = sim.simulate(inputs)
    mask = lane_mask(n_vectors)

    result: dict[str, dict[str, float]] = {}
    for name in sim.order:
        diffs = _flip_and_observe(circuit, sim, base, name, mask)
        row: dict[str, float] = {}
        for out_name, diff_words in diffs.items():
            count = int(np.bitwise_count(diff_words).sum())
            if count:
                row[out_name] = count / n_vectors
        if circuit.is_output(name):
            row[name] = 1.0
        result[name] = row
    return result


def _flip_and_observe(
    circuit: Circuit,
    sim: BitParallelSimulator,
    base: np.ndarray,
    source: str,
    mask: np.ndarray,
) -> dict[str, np.ndarray]:
    """Propagate a complement of ``source`` and return PO difference words.

    Event-driven: maintains an overlay of changed values, visiting gates
    in topological-index order so every gate is evaluated at most once.
    """
    index = sim.index
    overlay: dict[int, np.ndarray] = {}
    source_row = index[source]
    overlay[source_row] = (base[source_row] ^ _FULL) & mask

    heap: list[int] = []
    queued: set[int] = set()

    def enqueue(row: int) -> None:
        if row not in queued:
            queued.add(row)
            heapq.heappush(heap, row)

    for successor in circuit.fanouts(source):
        enqueue(index[successor])

    while heap:
        row = heapq.heappop(heap)
        name = sim.order[row]
        gate = circuit.gate(name)
        fanin_words = [
            overlay.get(index[f], base[index[f]]) for f in gate.fanins
        ]
        new_value = evaluate_words(gate.gtype, fanin_words) & mask
        if np.array_equal(new_value, base[row] & mask):
            overlay.pop(row, None)
            continue
        overlay[row] = new_value
        for successor in circuit.fanouts(name):
            enqueue(index[successor])

    diffs: dict[str, np.ndarray] = {}
    for out_name in circuit.outputs:
        row = index[out_name]
        new_value = overlay.get(row)
        if new_value is not None:
            delta = (new_value ^ base[row]) & mask
            if delta.any():
                diffs[out_name] = delta
    return diffs


def sensitization_matrix(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    simulator: BitParallelSimulator | None = None,
    sensitized_paths: Mapping[str, Mapping[str, float]] | None = None,
) -> np.ndarray:
    """Dense ``(V, O)`` form of ``P_ij`` over ``circuit.indexed()``.

    Row order is the indexed circuit's topological order; columns are
    primary outputs in declaration order.  Pass ``sensitized_paths`` to
    densify an existing estimate instead of re-simulating; otherwise the
    estimate comes from the live-pair kernel
    (:func:`repro.engine.structural.structural_matrix_batched`), which
    matches the per-site walk in this module bit for bit.  This is the
    thin compatibility wrapper for callers that want the matrix without
    an analyzer.
    """
    if sensitized_paths is not None:
        return circuit.indexed().output_matrix(sensitized_paths)
    from repro.engine.structural import structural_matrix_batched

    return structural_matrix_batched(
        circuit, n_vectors, seed, simulator=simulator
    )


def union_observability(row_sums: np.ndarray) -> np.ndarray:
    """``min(1, sum_j P_ij)`` from per-gate row sums.

    *The* single definition of the upper-bounded union summary — the
    dense matrix view (:func:`observability_matrix`), the sparse-dict
    view (:func:`observability`), analyzer reports and campaign
    summaries all reduce through it, so they cannot drift.
    """
    return np.minimum(1.0, np.asarray(row_sums, dtype=np.float64))


def observability_matrix(p_matrix: np.ndarray) -> np.ndarray:
    """Per-row union observability over a dense ``(V, O)`` matrix."""
    return union_observability(
        np.asarray(p_matrix, dtype=np.float64).sum(axis=1)
    )


def observability(
    sensitization: Mapping[str, Mapping[str, float]],
) -> dict[str, float]:
    """Name-keyed union observability of a sparse estimate.

    A convenience summary used in reports, not by the ASERTA algorithm
    itself.  O(nnz): the sparse rows are summed directly and clamped by
    the shared reduction.
    """
    totals = union_observability(
        np.fromiter(
            (sum(row.values()) for row in sensitization.values()),
            dtype=np.float64,
            count=len(sensitization),
        )
    )
    return {
        gate: float(totals[i]) for i, gate in enumerate(sensitization)
    }
