"""The compiled Section-3.2 sweep: per-level work precomputed once.

The unfused sweep in :mod:`repro.core.electrical_masking` re-derives,
on *every* call and for *every* logic level, the same index artifacts:
the level's destination rows, the Equation-2 share gather, the fan-out
slot decomposition, and the ``_take_last`` gather grids — then
interpolates and scatters **dense** ``(B, E, O, k)`` level tensors.
Dense is the wrong shape for this computation: the Equation-2 shares
are overwhelmingly zero (a gate contributes only to the handful of
primary outputs its fan-out cone reaches — 10–15% of the ``(edge,
output)`` pairs on the ISCAS-85 circuits), so most of the gather,
interpolation, multiply and scatter traffic moves exact ``+0.0``
contributions that cannot change a single bit of the result.

A :class:`SweepPlan` compiles the sweep down to its live work:

* the topology-only schedule (edge batches by source level, fan-out
  accumulation order) comes from
  :meth:`~repro.circuit.indexed.IndexedCircuit.sweep_index_plan`,
  computed once per circuit and cached on the indexed view;
* per level, only the **live pairs** — ``(edge, output)`` with a
  nonzero share — are kept, factored through their unique
  ``(destination, output)`` cells so each interpolation runs once per
  cell and is expanded onto pairs with one cheap single-axis take
  (:attr:`PlanLevel.pair_cell`);
* every gather and scatter goes through **precomputed flat offsets**
  into the raveled ``WS`` tensor (:meth:`SweepPlan._offsets`), so each
  access is one integer add plus a 1-D fancy index — NumPy's fast
  path — instead of a multi-array broadcast index;
* the scatter replays the reference accumulation order per target
  cell: pairs are slotted by occurrence rank of their ``(source,
  output)`` cell in edge-major order (:attr:`PlanLevel.slots`),
  exactly the order the unfused loop's ``np.add.at`` decomposition
  adds them in.

Dropping the zero-share work is bitwise-neutral: the ``WS`` tensor
holds only nonnegative finite widths (never ``-0.0``), a zero share
times a finite contribution is exactly ``+0.0``, and ``x + 0.0 == x``
bit for bit for every such ``x``.  Each live contribution is computed
with the identical expression and added in the identical per-cell
order, so the fused execution is bitwise identical to the unfused loop
— the conformance matrix and the Hypothesis suite pin this.  Plans are
cached on the :class:`~repro.core.masking.MaskingStructure` and,
across analyzers, in the engine's
:class:`~repro.engine.cache.ArtifactCache`
(:func:`repro.engine.artifacts.sweep_plan_key`).

Interpolating once per unique cell and then copying onto its pairs
produces the same doubles each duplicate pair would have computed from
the same inputs; multiplication is commutative at the bit level in
IEEE-754, and ``x *= a; x += y`` produces the same doubles as
``x * a + y`` — which is why the in-place level kernel in
:meth:`SweepPlan.run_batch` reproduces the unfused expression exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.masking import MaskingStructure
from repro.errors import AnalysisError


@dataclass(frozen=True)
class PlanLevel:
    """Everything precomputable about one reverse-sweep level.

    ``cstart:cstop`` slices this level's gather cells, ``pstart:pstop``
    its live pairs, out of the plan's concatenated cell/pair axes.  A
    *cell* is a unique ``(destination row, output)`` whose table is
    interpolated once; a *pair* is a live ``(edge, output)`` that
    expands a cell's interpolated value, weights it with its Equation-2
    share and accumulates onto its ``(source row, output)`` target.
    """

    cstart: int
    cstop: int
    pstart: int
    pstop: int
    #: Pair -> local cell index, ``(P,)`` — the expansion gather.
    pair_cell: np.ndarray
    #: Nonzero Equation-2 shares, shaped ``(1, P, 1)`` to broadcast over
    #: lanes and inner samples.
    share: np.ndarray
    #: Local pair positions per occurrence rank of the scatter target —
    #: replaying them in rank order reproduces the reference
    #: ``np.add.at`` accumulation order per target cell.
    slots: tuple


@dataclass(frozen=True)
class SweepPlan:
    """Compiled execution plan of the Section-3.2 reverse sweep.

    Bound to one :class:`~repro.core.masking.MaskingStructure` (the
    shares are baked into the levels).
    """

    n_signals: int
    n_outputs: int
    #: Destination row / output column per gather cell, concatenated
    #: over levels.
    cell_dst: np.ndarray
    cell_out: np.ndarray
    #: Source row / output column per live pair, concatenated.
    pair_src: np.ndarray
    pair_out: np.ndarray
    levels: tuple[PlanLevel, ...]
    #: Flat-offset cache keyed by ``(n_lanes, k+1)`` — raveled-WS
    #: addresses of every gather cell and scatter target.
    _offset_cache: dict = field(default_factory=dict, repr=False)

    def _offsets(
        self, n_lanes: int, n_anchors: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(gather, scatter)`` flat indices into ``ws.reshape(-1)``:
        ``gather`` addresses anchor 0 of each (lane, cell) table —
        adding a bracket index lands on an interpolation endpoint —
        and ``scatter`` addresses anchor 1 of each (lane, pair) target,
        so adding ``0..k-1`` spans the writable inner samples.  Shapes
        are ``(B, C, 1)`` / ``(B, P, 1)``; cached — the offsets depend
        only on the tensor shape, never on the data."""
        key = (n_lanes, n_anchors)
        offsets = self._offset_cache.get(key)
        if offsets is None:
            gather = (
                self.cell_dst * self.n_outputs + self.cell_out
            ) * n_anchors
            scatter = (
                self.pair_src * self.n_outputs + self.pair_out
            ) * n_anchors + 1
            lane_stride = self.n_signals * self.n_outputs * n_anchors
            lanes = np.arange(n_lanes, dtype=np.int64) * lane_stride
            offsets = (
                lanes[:, np.newaxis, np.newaxis]
                + gather[np.newaxis, :, np.newaxis],
                lanes[:, np.newaxis, np.newaxis]
                + scatter[np.newaxis, :, np.newaxis],
            )
            self._offset_cache[key] = offsets
        return offsets

    def run_batch(
        self,
        ws: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        frac: np.ndarray,
    ) -> None:
        """Execute the sweep over a population, in place on ``ws``.

        ``ws`` is the ``(B, V, O, k+1)`` anchored table tensor with the
        PO rows already seeded; ``low``/``high``/``frac`` are the
        ``(B, V, k)`` Equation-1 bracket tensors.

        Per level: gather the live successor interpolation endpoints
        through the flat offsets, interpolate once per unique
        ``(destination, output)`` cell, expand onto the live pairs,
        weight with the nonzero Equation-2 shares, and scatter-add onto
        the ``(source, output)`` targets slot by slot in the reference
        accumulation order.
        """
        if ws.shape[1] != self.n_signals or ws.shape[2] != self.n_outputs:
            raise AnalysisError(
                f"sweep plan built for ({self.n_signals}, {self.n_outputs}) "
                f"cannot run a {ws.shape} tensor"
            )
        if not ws.flags.c_contiguous:
            raise AnalysisError(
                "sweep plan needs a C-contiguous WS tensor (the flat "
                "gather offsets assume the default row-major layout)"
            )
        if not self.levels:
            return
        ws_flat = ws.reshape(-1)
        low_c = low[:, self.cell_dst]
        high_c = high[:, self.cell_dst]
        frac_c = frac[:, self.cell_dst]
        omf_c = 1.0 - frac_c
        gather, scatter = self._offsets(ws.shape[0], ws.shape[3])
        m_grid = np.arange(ws.shape[3] - 1, dtype=np.int64).reshape(1, 1, -1)
        for level in self.levels:
            if level.pstart == level.pstop:
                continue
            csl = slice(level.cstart, level.cstop)
            cells = gather[:, csl]
            idx = cells + low_c[:, csl]
            t_lo = ws_flat[idx]
            np.add(cells, high_c[:, csl], out=idx)
            t_hi = ws_flat[idx]
            t_lo *= omf_c[:, csl]
            t_hi *= frac_c[:, csl]
            t_lo += t_hi
            contribution = t_lo[:, level.pair_cell]
            contribution *= level.share
            targets = scatter[:, level.pstart:level.pstop]
            for pos in level.slots:
                ws_flat[targets[:, pos] + m_grid] += contribution[:, pos]


def _occurrence_slots(keys: np.ndarray) -> tuple:
    """Positions per occurrence rank of each key, ranks in first-seen
    order: slot ``r`` holds (ascending) the positions that are the
    ``r``-th occurrence of their key.  Replaying ``target[keys[pos]] +=
    value[pos]`` slot by slot accumulates duplicates of a key in
    position order — the ``np.add.at`` reference semantics — while
    every individual slot is duplicate-free and safe for one fancy
    in-place add."""
    if keys.size == 0:
        return ()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.empty(keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    group_start = np.maximum.accumulate(
        np.where(new_group, np.arange(keys.size), 0)
    )
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.arange(keys.size) - group_start
    return tuple(
        np.flatnonzero(ranks == rank)
        for rank in range(int(ranks.max()) + 1)
    )


def build_sweep_plan(structure: MaskingStructure) -> SweepPlan:
    """Compile ``structure`` into a :class:`SweepPlan`.

    The topology schedule (edge batches per level) is served from the
    indexed circuit's cached
    :meth:`~repro.circuit.indexed.IndexedCircuit.sweep_index_plan`;
    the live-pair extraction, cell factorization and scatter slotting
    are built here from the Equation-2 shares.
    """
    idx = structure.indexed
    batches, _slots = idx.sweep_index_plan()
    n_outputs = idx.n_outputs
    levels: list[PlanLevel] = []
    cell_dst_parts: list[np.ndarray] = []
    cell_out_parts: list[np.ndarray] = []
    pair_src_parts: list[np.ndarray] = []
    pair_out_parts: list[np.ndarray] = []
    ccursor = 0
    pcursor = 0
    for edges in batches:
        dst = idx.edge_dst[edges]
        src = idx.edge_src[edges]
        share = structure.edge_shares[edges]
        # Live pairs in edge-major order — the reference loop's
        # element order, which the slot replay must preserve.
        pair_edge, pair_out = np.nonzero(share != 0.0)
        n_pairs = int(pair_edge.size)
        pair_src = src[pair_edge]
        pair_share = np.ascontiguousarray(share[pair_edge, pair_out])
        # Unique (destination, output) gather cells of this level.
        cell_key, pair_cell = np.unique(
            dst[pair_edge] * n_outputs + pair_out, return_inverse=True
        )
        n_cells = int(cell_key.size)
        levels.append(
            PlanLevel(
                cstart=ccursor,
                cstop=ccursor + n_cells,
                pstart=pcursor,
                pstop=pcursor + n_pairs,
                pair_cell=np.ascontiguousarray(pair_cell, dtype=np.int64),
                share=pair_share.reshape(1, n_pairs, 1),
                slots=_occurrence_slots(pair_src * n_outputs + pair_out),
            )
        )
        cell_dst_parts.append(cell_key // n_outputs)
        cell_out_parts.append(cell_key % n_outputs)
        pair_src_parts.append(pair_src)
        pair_out_parts.append(pair_out)
        ccursor += n_cells
        pcursor += n_pairs

    def _concat(parts: list[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.ascontiguousarray(np.concatenate(parts), dtype=np.int64)

    return SweepPlan(
        n_signals=idx.n_signals,
        n_outputs=n_outputs,
        cell_dst=_concat(cell_dst_parts),
        cell_out=_concat(cell_out_parts),
        pair_src=_concat(pair_src_parts),
        pair_out=_concat(pair_out_parts),
        levels=tuple(levels),
    )


def sweep_plan_for(structure: MaskingStructure) -> SweepPlan:
    """The plan for ``structure``, cached on the structure (the same
    ``object.__setattr__`` idiom as the slot cache — a frozen dataclass
    with memoized derived state).

    The compiled content is assignment-independent, so candidate
    batches of any width and any mutation of assignments between calls
    reuse one plan safely.
    """
    plan = getattr(structure, "_sweep_plan", None)
    if plan is None:
        plan = build_sweep_plan(structure)
        object.__setattr__(structure, "_sweep_plan", plan)
    return plan
