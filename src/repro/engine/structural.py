"""Batched fault-site simulation: the Section-3.1 structural pass.

The seed estimator (:func:`repro.logicsim.sensitization.sensitization_probabilities`)
walks one fault site at a time: flip gate ``i``'s packed values, push an
event-driven overlay through its fanout cone, count output differences.
That is one Python-level heap iteration *per touched gate per site* —
the dominant per-circuit cost once the electrical pass was vectorized.

This module replaces the walk with a **level-synchronized, fault-site-
batched** simulator:

* fault sites are processed in blocks of ``S`` sites; the faulty values
  of a block live in one signal-major ``(V, S, W)`` ``uint64`` buffer
  (64 vectors per word), allocated once per call and reused by every
  block;
* gates are evaluated level by level through the compiled schedule,
  one :func:`~repro.circuit.gate.evaluate_words` call per
  ``(level, gate-type/fan-in group)`` — every site in the block
  advances together;
* a per-``(row, site)`` **liveness mask** marks the faulty values that
  differ from the fault-free base.  A gate is evaluated only for the
  sites where one of its fan-ins is live, as gathered ``(gate, site)``
  pairs — or as the dense ``(gates, sites)`` rectangle when most pairs
  of the group are live.  A pair with no live fan-in reproduces the
  base value, so skipping it is exact;
* a site's own row stays pinned at "complemented" for its lane, exactly
  like the event overlay pins the flipped source.

Because both implementations perform exact zero-delay simulation of the
*same* random vectors (same seed, same packing), the resulting ``P_ij``
counts are **bit-identical** — asserted across every bundled circuit by
``tests/test_engine_structural.py``.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gate import GateType, evaluate_words
from repro.circuit.indexed import IndexedCircuit
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.logicsim.bitsim import BitParallelSimulator
from repro.logicsim.vectors import lane_mask, random_input_words
from repro.telemetry import resolve

#: Default ceiling on the fault-site buffer (bytes) — blocks shrink on
#: large circuits so memory stays flat while throughput stays high.
DEFAULT_MAX_BLOCK_BYTES = 1 << 27

#: Hard cap on sites per block (beyond this, gather sizes stop helping).
MAX_BLOCK_SITES = 256

#: Live-pair density above which a (level, group) evaluation runs the
#: dense ``(gates, sites)`` rectangle instead of the gathered live
#: pairs.  Near-dense groups favour the rectangle (contiguous gathers
#: beat fancy indexing there); on wide circuits most gates of a level
#: sit outside most sites' fanout cones, and the gathered pairs skip
#: them.
DENSE_LIVE_DENSITY = 0.5


class CompiledStructuralCircuit:
    """Assignment- and protocol-independent simulation schedule.

    Everything here depends only on the netlist structure, so one
    compiled instance serves every ``(n_vectors, seed)`` estimate of a
    circuit and is a natural citizen of the content-addressed artifact
    cache (keyed by :func:`repro.engine.artifacts.compiled_key`).
    """

    def __init__(self, indexed: IndexedCircuit) -> None:
        idx = indexed
        self.indexed = idx
        # Evaluation schedule: for each logic level >= 1, the gate rows
        # (ascending) grouped by (gate type, fan-in count) with their
        # dense (fan-in, gate) row matrices — the unit of one vectorized
        # evaluate_words call.
        schedule: list[tuple[int, list[tuple[GateType, np.ndarray, np.ndarray]]]] = []
        gate_rows = idx.gate_rows
        gate_levels = idx.level[gate_rows]
        for level in np.unique(gate_levels):
            at_level = gate_rows[gate_levels == level]
            entries = []
            for gid in np.unique(idx.group_id[at_level]):
                rows = at_level[idx.group_id[at_level] == gid]
                gtype, nfi = idx.group_pairs[gid]
                fanins = idx.fanin_src[
                    idx.fanin_ptr[rows][np.newaxis, :]
                    + np.arange(nfi, dtype=np.int64)[:, np.newaxis]
                ]
                entries.append((gtype, rows, fanins))
            schedule.append((int(level), entries))
        self.schedule = schedule


def pick_block_sites(
    n_signals: int, n_words: int, max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES
) -> int:
    """Sites per block so the fault-site buffer stays under the byte budget."""
    per_site = max(1, n_signals * n_words * 8)
    return int(max(1, min(MAX_BLOCK_SITES, max_block_bytes // per_site)))


def structural_matrix_batched(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    simulator: BitParallelSimulator | None = None,
    compiled: CompiledStructuralCircuit | None = None,
    block_sites: int | None = None,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    telemetry=None,
) -> np.ndarray:
    """Dense ``(V, O)`` estimate of ``P_ij`` by batched fault simulation.

    Bit-identical to the event-driven estimator on the same
    ``(n_vectors, seed)``: row order is the indexed circuit's
    topological order, columns are primary outputs in declaration
    order, and the guaranteed diagonal ``P_jj = 1`` is applied exactly
    as the sparse estimator does.  ``telemetry`` records one
    ``structural.block`` span per fault-site block.
    """
    tel = resolve(telemetry)
    if n_vectors < 1:
        raise SimulationError(f"need at least one vector, got {n_vectors}")
    sim = simulator if simulator is not None else BitParallelSimulator(circuit)
    if sim.circuit is not circuit:
        raise SimulationError("simulator was compiled for a different circuit")
    idx = circuit.indexed()
    if compiled is None:
        compiled = CompiledStructuralCircuit(idx)
    elif compiled.indexed is not idx:
        raise SimulationError(
            "compiled structural schedule belongs to a different circuit"
        )

    inputs = random_input_words(len(circuit.inputs), n_vectors, seed)
    base = sim.simulate(inputs)
    mask = lane_mask(n_vectors)
    n = idx.n_signals
    n_words = base.shape[1]
    if block_sites is None:
        block_sites = pick_block_sites(n, n_words, max_block_bytes)
    if block_sites < 1:
        raise SimulationError(f"block_sites must be >= 1, got {block_sites}")
    block_sites = min(block_sites, n)

    # values[row, s] holds row's words under the fault at site s of the
    # current block; live[row, s] marks the entries that differ from
    # the base row.  A block ends by restoring its changed entries,
    # except in the rows it rewrote whole (dense): those stay *held*
    # until the next block rewrites them whole again or restores them
    # before writing single pairs.  On near-dense circuits most rows
    # are rewritten whole by every block, so most restores are skipped.
    values = np.empty((n, block_sites, n_words), dtype=np.uint64)
    values[:] = base[:, np.newaxis]
    flat = values.reshape(n * block_sites, n_words)
    live = np.zeros((n, block_sites), dtype=bool)
    held = np.zeros(n, dtype=bool)

    counts = np.zeros((n, idx.n_outputs), dtype=np.int64)
    levels = idx.level
    out_rows = idx.output_rows
    for start in range(0, n, block_sites):
        stop = min(start + block_sites, n)
        with tel.span("structural.block", start=start, stop=stop):
            width = stop - start
            block = values[:, :width]
            block_live = live[:, :width]
            site_rows = np.arange(start, stop, dtype=np.int64)
            local = site_rows - start
            # The sweep starts above the block's lowest site level; held
            # rows at or below it are restored here.
            min_level = int(levels[site_rows].min())
            low = np.flatnonzero(held & (levels <= min_level))
            block[low] = base[low, np.newaxis]
            block_live[low] = False
            # Each site's own row is pinned to "every valid lane
            # complemented" and never re-evaluated for its own lane.
            block[site_rows, local] = base[site_rows] ^ mask
            block_live[site_rows, local] = True

            rewritten = np.zeros(n, dtype=bool)
            for level, entries in compiled.schedule:
                if level <= min_level:
                    continue
                for gtype, rows, fanins in entries:
                    fan_live = block_live[fanins].any(axis=0)
                    pinned = None
                    if rows[0] < stop and rows[-1] >= start:
                        own = np.flatnonzero((rows >= start) & (rows < stop))
                        pinned = rows[own]
                        fan_live[own, pinned - start] = False
                    n_live = np.count_nonzero(fan_live)
                    if n_live > DENSE_LIVE_DENSITY * fan_live.size:
                        faulty = evaluate_words(
                            gtype, list(block.take(fanins, axis=0))
                        )
                        block[rows] = faulty
                        block_live[rows] = (
                            faulty != base[rows, np.newaxis]
                        ).any(axis=2)
                        rewritten[rows] = True
                    else:
                        # Only live pairs are written below, so held
                        # rows must get their base values back first.
                        stale = rows[held[rows]]
                        if stale.size:
                            block[stale] = base[stale, np.newaxis]
                            block_live[stale] = False
                        elif n_live == 0:
                            continue
                        if n_live:
                            g_idx, s_idx = np.nonzero(fan_live)
                            faulty = evaluate_words(
                                gtype,
                                list(flat.take(
                                    fanins[:, g_idx] * block_sites + s_idx,
                                    axis=0,
                                )),
                            )
                            targets = rows[g_idx]
                            flat[targets * block_sites + s_idx] = faulty
                            block_live[targets, s_idx] = (
                                faulty != base.take(targets, axis=0)
                            ).any(axis=1)
                    if pinned is not None:
                        # Own rows were rewritten or restored under
                        # their own fault too; put the pins back.
                        block[pinned, pinned - start] = base[pinned] ^ mask
                        block_live[pinned, pinned - start] = True

            cols, s_idx = np.nonzero(block_live[out_rows])
            hit_rows = out_rows[cols]
            counts[start + s_idx, cols] = np.bitwise_count(
                block[hit_rows, s_idx] ^ base[hit_rows]
            ).sum(axis=1)

            changed, s_idx = np.nonzero(block_live & ~rewritten[:, np.newaxis])
            flat[changed * block_sites + s_idx] = base.take(changed, axis=0)
            block_live[changed, s_idx] = False
            held = rewritten

    p = counts / float(n_vectors)
    p[idx.output_rows, idx.col_of_row[idx.output_rows]] = 1.0
    return p


def structural_matrix_event(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    simulator: BitParallelSimulator | None = None,
) -> np.ndarray:
    """Dense ``(V, O)`` matrix from the event-driven seed estimator.

    The escape hatch (``structural_engine="event"``) and the baseline
    the batched engine is differential-tested and benchmarked against.
    """
    from repro.logicsim.sensitization import sensitization_probabilities

    sparse = sensitization_probabilities(
        circuit, n_vectors=n_vectors, seed=seed, simulator=simulator
    )
    return circuit.indexed().output_matrix(sparse)


def structural_matrix(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    engine: str = "batched",
    simulator: BitParallelSimulator | None = None,
    compiled: CompiledStructuralCircuit | None = None,
) -> np.ndarray:
    """Dispatch to one structural estimator by name."""
    if engine == "batched":
        return structural_matrix_batched(
            circuit, n_vectors, seed, simulator=simulator, compiled=compiled
        )
    if engine == "event":
        return structural_matrix_event(
            circuit, n_vectors, seed, simulator=simulator
        )
    raise SimulationError(
        f"structural engine must be 'batched' or 'event', got {engine!r}"
    )


def sparse_paths_from_matrix(
    indexed: IndexedCircuit, p_matrix: np.ndarray
) -> dict[str, dict[str, float]]:
    """Sparse ``{gate: {output: P_ij}}`` view of a dense matrix.

    The exact inverse of :meth:`IndexedCircuit.output_matrix` under the
    estimator's sparsity rule (an entry exists iff it is non-zero; the
    ``P_jj = 1`` diagonal is always non-zero), so round-tripping either
    way is lossless.
    """
    outputs = indexed.circuit.outputs
    result: dict[str, dict[str, float]] = {}
    for row, name in enumerate(indexed.order):
        cols = np.flatnonzero(p_matrix[row])
        result[name] = {outputs[col]: float(p_matrix[row, col]) for col in cols}
    return result
