"""Delay-assignment to cell-library matching (paper Section 4).

SERTOPT's optimizer works on a continuous delay vector; this module
realizes a delay assignment with actual cells.  Exactly as the paper
describes, the circuit is traversed from primary outputs to primary
inputs: PO loads are fixed (the latch), so PO gates are matched first;
once a gate's cell is chosen its input capacitance is known, which fixes
its predecessors' loads, and so on.  The only constraint is the
no-level-shifter rule: a gate's VDD must be >= every successor's VDD.

Matching is vectorized twice over: for each (gate type, fan-in) the
engine precomputes per-cell drive slopes and capacitances, and the
population matcher scores *all gates of one reverse logic level* for
*all candidate lanes* in a single ``(lanes, gates, cells)`` block — a
gate's match depends only on its successors' chosen cells, and every
successor lives at a strictly smaller reverse level, so one block per
level is the exact dependency order of the paper's PO-to-PI walk.  The
fan-out load sums accumulate slot by slot in declaration order (never
``reduceat``, which would reassociate the floating-point adds), so
every lane picks bitwise the cells the scalar :meth:`MatchingEngine.match`
picks for its targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.circuit.gate import GateType
from repro.circuit.netlist import Circuit
from repro.errors import OptimizationError
from repro.sta.timing import analyze_timing, analyze_timing_batch
from repro.tech.electrical_view import CircuitElectrical, continuous_delay_arrays
from repro.tech import constants as k
from repro.tech import gate_electrical as ge
from repro.tech.library import (
    CellLibrary,
    CellParams,
    NOMINAL_CELL,
    ParameterAssignment,
)
from repro.telemetry import resolve
from repro.units import PS_PER_FF_V_PER_UA


class _CellArrays:
    """Per-(gate type, fan-in) vectorized cell characterization."""

    def __init__(self, gtype: GateType, fanin: int, cells: tuple[CellParams, ...]):
        self.cells = cells
        #: Cell -> position; cells are unique, so this is equivalent to
        #: (and much faster than) ``cells.index(...)`` anchor lookups.
        self.cell_pos = {cell: idx for idx, cell in enumerate(cells)}
        self._frugality: dict[tuple[float, float, float], np.ndarray] = {}
        self.vdd_min = min(cell.vdd for cell in cells)
        n = len(cells)
        self.slope = np.empty(n)       # ps per fF of output capacitance
        self.self_cap = np.empty(n)    # fF
        self.input_cap = np.empty(n)   # fF per pin
        self.vdd = np.empty(n)
        self.leak_uw = np.empty(n)
        self.area = np.empty(n)
        for idx, cell in enumerate(cells):
            current = ge.drive_current_ua(
                gtype, fanin, cell.size, cell.length_nm, cell.vdd, cell.vth
            )
            self.slope[idx] = PS_PER_FF_V_PER_UA * cell.vdd / (2.0 * current)
            self.self_cap[idx] = ge.self_capacitance_ff(gtype, fanin, cell.size)
            self.input_cap[idx] = ge.input_capacitance_ff(
                gtype, fanin, cell.size, cell.length_nm
            )
            self.vdd[idx] = cell.vdd
            self.leak_uw[idx] = ge.static_power_uw(
                gtype, fanin, cell.size, cell.length_nm, cell.vdd, cell.vth
            )
            self.area[idx] = ge.area_units(gtype, fanin, cell.size, cell.length_nm)

    def delays_ps(self, load_ff: float, ramp_ps: float) -> np.ndarray:
        """Delay of every cell at this load and input ramp."""
        return (
            self.slope * (self.self_cap + load_ff)
            + k.RAMP_DELAY_FRACTION * ramp_ps
        )

    def frugality(
        self,
        energy_weight_ps_per_fj: float,
        area_weight_ps: float,
        leakage_weight_ps_per_uw: float,
    ) -> np.ndarray:
        """The per-cell frugality score term, cached per weight tuple.

        Computed with exactly the expression of the scalar matcher, so
        cached and freshly-computed scores agree bitwise.
        """
        key = (energy_weight_ps_per_fj, area_weight_ps, leakage_weight_ps_per_uw)
        cached = self._frugality.get(key)
        if cached is None:
            dynamic_proxy = (self.self_cap + self.input_cap) * self.vdd**2
            cached = (
                energy_weight_ps_per_fj * dynamic_proxy
                + area_weight_ps * self.area
                + leakage_weight_ps_per_uw * self.leak_uw
            )
            self._frugality[key] = cached
        return cached


@dataclass
class BatchMatchState:
    """Matched cells for a population of delay-target vectors.

    Arrays are ``(B, V)`` over ``circuit.indexed()`` rows; ``cell_idx``
    indexes into ``cells`` (the library's cell tuple) and is ``-1`` on
    non-gate rows.  ``input_cap``/``vdd`` carry the chosen cells' pin
    capacitance and supply so an incremental rematch can start from a
    previous state without re-deriving them.
    """

    cells: tuple[CellParams, ...]
    cell_idx: np.ndarray
    input_cap: np.ndarray
    vdd: np.ndarray

    def param_arrays(
        self, lanes: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Stacked ``(L, V)`` cell-parameter arrays for ``lanes`` (all
        lanes when omitted), with :data:`NOMINAL_CELL` defaults on
        non-gate rows — exactly the shape
        :func:`repro.tech.electrical_view.cell_param_arrays` produces
        for the materialized assignments."""
        idx = self.cell_idx if lanes is None else self.cell_idx[lanes]
        luts = {
            "size": np.array([c.size for c in self.cells]),
            "length_nm": np.array([c.length_nm for c in self.cells]),
            "vdd": np.array([c.vdd for c in self.cells]),
            "vth": np.array([c.vth for c in self.cells]),
        }
        defaults = {
            "size": NOMINAL_CELL.size,
            "length_nm": NOMINAL_CELL.length_nm,
            "vdd": NOMINAL_CELL.vdd,
            "vth": NOMINAL_CELL.vth,
        }
        chosen = idx >= 0
        out: dict[str, np.ndarray] = {}
        for field, lut in luts.items():
            arr = np.full(idx.shape, defaults[field], dtype=np.float64)
            arr[chosen] = lut[idx[chosen]]
            out[field] = arr
        return out

    def assignment(self, lane: int, order: tuple[str, ...]) -> ParameterAssignment:
        """Materialize lane ``lane`` as a :class:`ParameterAssignment`."""
        built = ParameterAssignment()
        row_cells = self.cell_idx[lane]
        for row, name in enumerate(order):
            if row_cells[row] >= 0:
                built.set(name, self.cells[row_cells[row]])
        return built


class _LevelBlock:
    """Precomputed score block for one reverse logic level.

    Row ``g`` of every ``(gates, cells)`` array characterizes gate
    ``rows[g]`` under its own ``(gate type, fan-in)`` cell table; the
    fan-out slot lists replay the scalar matcher's load accumulation —
    slot ``k`` holds, for every gate with at least ``k + 1`` fan-outs,
    its ``k``-th successor in declaration order, so adding the slots in
    order performs exactly the per-gate sequential sum.
    """

    def __init__(self, engine: "MatchingEngine", idx, rows: np.ndarray) -> None:
        circuit = engine.circuit
        fanout_lists = [
            tuple(idx.index[s] for s in circuit.fanouts(idx.order[row]))
            for row in rows
        ]
        # Sort the level's gates by fan-out count, descending (stable):
        # the gates slot ``k`` touches are then always a *prefix* of the
        # level, so every per-slot update is a plain slice instead of a
        # fancy-index gather — and any `flatnonzero` gate subset keeps
        # the prefix property, because a subsequence of a non-increasing
        # sequence is non-increasing.
        order = np.argsort(
            [-len(f) for f in fanout_lists], kind="stable"
        )
        self.rows = rows[order]
        fanout_lists = [fanout_lists[pos] for pos in order]
        gate_arrays = []
        wire_base = np.empty(rows.size)
        for pos, row in enumerate(self.rows):
            gate = circuit.gate(idx.order[row])
            gate_arrays.append(engine._cell_arrays(gate.gtype, gate.fanin_count))
            wire_base[pos] = k.WIRE_CAP_PER_FANOUT_FF * max(
                1, len(fanout_lists[pos])
            )
        self.gate_arrays = gate_arrays
        self.wire_base = wire_base
        self.is_out = idx.is_output[self.rows]
        self.out_cols = np.flatnonzero(self.is_out)

        self.slope = np.stack([a.slope for a in gate_arrays])
        self.self_cap = np.stack([a.self_cap for a in gate_arrays])
        self.input_cap = np.stack([a.input_cap for a in gate_arrays])
        self.vdd = np.stack([a.vdd for a in gate_arrays])
        #: ``(2, G, C)`` chosen-cell attribute stack — one gather pulls
        #: both the input capacitance and the supply of the winners.
        self.icap_vdd = np.stack([self.input_cap, self.vdd])
        self.vdd_min = np.array([a.vdd_min for a in gate_arrays])
        self.vdd_min_level = float(self.vdd_min.min())
        self.gate_ar = np.arange(rows.size, dtype=np.int64)[np.newaxis, :]
        #: Per-anchor-row cache of ``(ga, apos)`` anchor positions.
        self._anchor_slots: tuple | None = None
        #: ``[start, end)`` of this block in the engine's concatenated
        #: plan arrays; assigned by ``MatchingEngine._level_plan``.
        self.span = (0, rows.size)

        self.fo_counts = np.array(
            [len(f) for f in fanout_lists], dtype=np.int64
        )
        self.max_deg = int(self.fo_counts.max(initial=0))
        self.fo_slots = np.full(
            (rows.size, self.max_deg), -1, dtype=np.int64
        )
        for pos, fanouts in enumerate(fanout_lists):
            self.fo_slots[pos, : len(fanouts)] = fanouts
        #: Full-level slot plan: slot ``j`` is ``(end, fo)`` — gates
        #: ``[:end]`` (a prefix, by the sort above) gain successor
        #: ``fo[g]`` as their ``j``-th fan-out load contribution.
        self.slots: list[tuple[int, np.ndarray]] = []
        for slot in range(self.max_deg):
            end = int(np.count_nonzero(self.fo_counts > slot))
            self.slots.append((end, self.fo_slots[:end, slot]))

        self._frugality: dict[tuple[float, float, float], np.ndarray] = {}

    def frugality(self, key: tuple[float, float, float]) -> np.ndarray:
        """Stacked ``(gates, cells)`` frugality rows for one weight
        tuple, sourced from the per-group caches so the values are the
        per-gate arrays bit for bit."""
        cached = self._frugality.get(key)
        if cached is None:
            cached = np.stack([a.frugality(*key) for a in self.gate_arrays])
            self._frugality[key] = cached
        return cached

    def anchor_slots(self, anchor_row: np.ndarray):
        """``(positions, ga, apos)`` — per-gate anchor cell indices plus
        the nonnegative (position, cell) pairs — cached per anchor-row
        array (the engine hands the same array for every match against
        one anchor)."""
        cached = self._anchor_slots
        if cached is None or cached[0] is not anchor_row:
            positions = anchor_row[self.rows]
            ga = np.flatnonzero(positions >= 0)
            cached = (anchor_row, positions, ga, positions[ga])
            self._anchor_slots = cached
        return cached[1], cached[2], cached[3]


class MatchingEngine:
    """Matches delay assignments onto a discrete cell library.

    :meth:`match` is the scalar per-gate walk (the oracle); the
    population matcher :meth:`match_batch` scores one
    ``(lanes, gates, cells)`` block per reverse logic level and picks
    bitwise the same cells.  ``telemetry`` records
    ``matcher.match_batch`` spans and the dirty-wave counters
    (``matcher.pairs.rescored`` / ``matcher.pairs.total``) quantifying
    how much scoring work the delta fast path avoids.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        telemetry=None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.telemetry = resolve(telemetry)
        self._arrays: dict[tuple[GateType, int], _CellArrays] = {}
        self._reverse_order = tuple(
            name for name in circuit.reverse_topological_order()
            if not circuit.gate(name).is_input
        )

    def _cell_arrays(self, gtype: GateType, fanin: int) -> _CellArrays:
        key = (gtype, fanin)
        arrays = self._arrays.get(key)
        if arrays is None:
            arrays = _CellArrays(gtype, fanin, self.library.cells())
            self._arrays[key] = arrays
        return arrays

    def _ramp_row(self, input_ramps) -> np.ndarray:
        """Dense per-row input-ramp estimates (``PRIMARY_INPUT_RAMP_PS``
        where the mapping has no entry, as the scalar matcher assumes)."""
        if isinstance(input_ramps, np.ndarray):
            return input_ramps
        idx = self.circuit.indexed()
        out = np.full(idx.n_signals, k.PRIMARY_INPUT_RAMP_PS)
        for name, value in input_ramps.items():
            row = idx.index.get(name)
            if row is not None:
                out[row] = float(value)
        return out

    def _anchor_row(self, anchor: ParameterAssignment | None) -> np.ndarray | None:
        """Per-row anchor cell positions (-1 where absent/ineligible).

        Cached per anchor object: SERTOPT anchors every match of a run
        on the one baseline assignment, so the name-keyed walk happens
        once instead of once per ``match_batch`` call.
        """
        if anchor is None:
            return None
        cached = getattr(self, "_anchor_cache", None)
        if (
            cached is not None
            and cached[0] is anchor
            and cached[1] == anchor.version
        ):
            return cached[2]
        idx = self.circuit.indexed()
        out = np.full(idx.n_signals, -1, dtype=np.int64)
        for name in self._reverse_order:
            gate = self.circuit.gate(name)
            arrays = self._cell_arrays(gate.gtype, gate.fanin_count)
            out[idx.index[name]] = arrays.cell_pos.get(anchor[name], -1)
        self._anchor_cache = (anchor, anchor.version, out)
        return out

    def match(
        self,
        target_delays: Mapping[str, float],
        input_ramps: Mapping[str, float],
        anchor: ParameterAssignment | None = None,
        energy_weight_ps_per_fj: float = 0.6,
        area_weight_ps: float = 0.03,
        leakage_weight_ps_per_uw: float = 5.0,
        anchor_bonus_ps: float = 0.5,
    ) -> ParameterAssignment:
        """Pick, for every gate, the eligible cell whose delay is closest
        to its target.

        ``input_ramps`` supplies the expected input transition time per
        gate (the baseline circuit's ramps are a good estimate — ramps
        only contribute a small additive delay term).

        The score is the delay error in ps plus small, explicitly-priced
        frugality terms (switching-energy proxy, area, leakage), so that
        among cells within a picosecond or two of the target the cheaper
        cell wins — without them a gratuitous 1.2 V pick near a primary
        output would cascade the VDD-ordering floor over the whole fan-in
        cone.

        ``anchor`` (typically the baseline assignment) receives a score
        bonus of ``anchor_bonus_ps``: when the target delay is what the
        anchor cell already delivers, matching reproduces the anchor
        instead of wandering across quantization ties, so the
        zero-perturbation point of SERTOPT's search coincides with the
        baseline circuit.
        """
        assignment, __ = self._match_once(
            target_delays,
            input_ramps,
            anchor,
            energy_weight_ps_per_fj,
            area_weight_ps,
            leakage_weight_ps_per_uw,
            anchor_bonus_ps,
        )
        return assignment

    def match_with_timing(
        self,
        target_delays: Mapping[str, float],
        input_ramps: Mapping[str, float],
        max_delay_ps: float,
        anchor: ParameterAssignment | None = None,
        repair_rounds: int = 3,
    ) -> ParameterAssignment:
        """Match, then repair timing against ``max_delay_ps``.

        The delay targets handed to SERTOPT's matcher are timing-neutral
        by construction, but the *realized* cells overshoot: the slow
        corner of the library is coarse, and gates asked to speed up may
        already be at the fastest cell.  Each repair round runs static
        timing on the realized delays and shrinks the targets of
        negative-slack gates proportionally, pulling the violating paths
        back under the constraint while leaving slack regions at their
        assigned (glitch-absorbing) delays — the iterative form of the
        paper's "best matching ... that yield delays closest to the
        assigned delays" under its timing constraint.
        """
        if max_delay_ps <= 0.0:
            raise OptimizationError(f"max_delay_ps must be > 0, got {max_delay_ps}")
        targets = dict(target_delays)
        assignment, __ = self._match_once(targets, input_ramps, anchor)
        for __r in range(repair_rounds):
            # Repair against the *true* electrical view, not matching's
            # internal estimate: slow cells also slow their successors
            # through larger output ramps, which the per-gate estimate
            # (built on baseline ramps) cannot see.
            realized = CircuitElectrical(
                self.circuit, assignment, use_tables=False
            ).delay_ps
            report = analyze_timing(self.circuit, realized)
            if report.delay_ps <= max_delay_ps * 1.001:
                break
            scale = max_delay_ps / report.delay_ps
            adjusted = False
            for name in realized:
                slack_vs_cap = (
                    report.slack_ps(name) + max_delay_ps - report.delay_ps
                )
                if slack_vs_cap < 0.0:
                    shrunk = realized[name] * scale
                    if shrunk < targets[name]:
                        targets[name] = shrunk
                        adjusted = True
            if not adjusted:
                break
            assignment, __ = self._match_once(targets, input_ramps, anchor)
        return assignment

    def match_batch(
        self,
        targets: np.ndarray,
        input_ramps,
        anchor: ParameterAssignment | None = None,
        reference: BatchMatchState | None = None,
        changed: np.ndarray | None = None,
        energy_weight_ps_per_fj: float = 0.6,
        area_weight_ps: float = 0.03,
        leakage_weight_ps_per_uw: float = 5.0,
        anchor_bonus_ps: float = 0.5,
    ) -> BatchMatchState:
        """One reverse-topological matching pass over a *population*.

        ``targets`` is ``(B, V)`` over indexed rows (gate rows
        meaningful).  Lane ``b`` chooses exactly the cells
        :meth:`match` would choose for target vector ``b`` — the same
        score arithmetic runs vectorized across lanes, so ties resolve
        identically.

        ``reference`` + ``changed`` enable the delta-aware fast path: a
        coordinate probe perturbs one nullspace direction, so only gates
        whose own target changed — or with a successor whose *chosen
        cell* changed — can match differently than the reference state.
        Dirtiness propagates source-ward exactly along that rule (a
        recomputed gate that re-picks its reference cell stops the
        wave), and untouched ``(lane, gate)`` entries are copied from
        the reference, never rescored.  ``reference`` arrays may be
        ``(V,)`` (one shared reference) or ``(B, V)`` (per-lane, as the
        timing-repair rematch uses).
        """
        targets = np.asarray(targets, dtype=np.float64)
        idx = self.circuit.indexed()
        if targets.ndim != 2 or targets.shape[1] != idx.n_signals:
            raise OptimizationError(
                f"expected (B, {idx.n_signals}) targets, got {targets.shape}"
            )
        if reference is not None and changed is None:
            raise OptimizationError(
                "match_batch needs the changed mask when a reference "
                "state is supplied"
            )
        ramp_row = self._ramp_row(input_ramps)
        anchor_row = self._anchor_row(anchor)
        frug_key = (
            energy_weight_ps_per_fj, area_weight_ps, leakage_weight_ps_per_uw
        )
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.add("matcher.match_batch.calls")
            tel.metrics.add("matcher.lanes", targets.shape[0])
        with tel.span(
            "matcher.match_batch",
            lanes=targets.shape[0],
            delta=reference is not None,
        ):
            return self._match_batch_levelwise(
                targets, ramp_row, anchor_row, reference, changed,
                frug_key, anchor_bonus_ps,
            )

    def _level_plan(self) -> tuple[_LevelBlock, ...]:
        """Per-reverse-level score blocks (empty levels dropped).

        Alongside the blocks, the concatenated per-gate arrays
        (``_plan_rows``, ``_plan_wire``) let one call gather its
        call-wide tensors once and hand each level a plain slice.
        """
        plan = getattr(self, "_levels", None)
        if plan is None:
            idx = self.circuit.indexed()
            plan = tuple(
                _LevelBlock(self, idx, rows)
                for rows in idx.reverse_level_rows()
                if rows.size
            )
            start = 0
            for blk in plan:
                blk.span = (start, start + blk.rows.size)
                start += blk.rows.size
            self._plan_rows = (
                np.concatenate([blk.rows for blk in plan])
                if plan
                else np.empty(0, dtype=np.int64)
            )
            self._plan_wire = (
                np.concatenate([blk.wire_base for blk in plan])
                if plan
                else np.empty(0)
            )
            self._levels = plan
        return plan

    def _score_level(
        self,
        blk: _LevelBlock,
        gsel: np.ndarray | None,
        loadv: np.ndarray,
        vddf: np.ndarray,
        row_targets: np.ndarray,
        ramp_term: np.ndarray,
        anchor_row: np.ndarray | None,
        active_mask: np.ndarray | None,
        frug_key: tuple[float, float, float],
        anchor_bonus_ps: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one level block; return ``(best, icap_vdd_of_best)``.

        ``gsel`` restricts the block to a gate subset (delta path);
        ``active_mask`` marks which ``(lane, gate)`` entries are live —
        only they participate in the no-eligible-cell check, entries
        outside it merely ride along in the rectangle.  Every arithmetic
        expression matches the scalar matcher operation for operation,
        so the chosen cells are bitwise those of the scalar walk.
        """
        if gsel is None:
            slope, self_cap = blk.slope, blk.self_cap
            vdd_cells = blk.vdd
            frug = blk.frugality(frug_key)
            gate_ar = blk.gate_ar
            icap_vdd = blk.icap_vdd
            if anchor_row is None:
                ga = None
            else:
                __, ga, apos = blk.anchor_slots(anchor_row)
        else:
            slope, self_cap = blk.slope[gsel], blk.self_cap[gsel]
            vdd_cells = blk.vdd[gsel]
            frug = blk.frugality(frug_key)[gsel]
            gate_ar = np.arange(gsel.size, dtype=np.int64)[np.newaxis, :]
            icap_vdd = blk.icap_vdd[:, gsel]
            if anchor_row is None:
                ga = None
            else:
                positions, __, __ = blk.anchor_slots(anchor_row)
                sub_positions = positions[gsel]
                ga = np.flatnonzero(sub_positions >= 0)
                apos = sub_positions[ga]

        delays = (
            slope[np.newaxis, :, :]
            * (self_cap[np.newaxis, :, :] + loadv[:, :, np.newaxis])
            + ramp_term[np.newaxis, :, np.newaxis]
        )
        # score = |delay - target| + frugality, built in place; the
        # anchor bonus lands before the ineligible fill below, so an
        # ineligible anchor cell still scores inf — exactly the masked
        # arithmetic (and the bit pattern) of the scalar matcher.
        score = np.abs(delays - row_targets[:, :, np.newaxis])
        score += frug[np.newaxis, :, :]
        if ga is not None and ga.size:
            score[:, ga, apos] -= anchor_bonus_ps
        # Fast path for the common no-constraint case: every group's
        # cell menu shares one VDD floor minimum, so one level-wide
        # comparison decides whether the eligibility mask is all-true
        # (score stays as built — the same values the masked path
        # produces, in fewer kernels).
        if float(vddf.max(initial=0.0)) - 1e-12 > blk.vdd_min_level:
            eligible = (
                vdd_cells[np.newaxis, :, :] >= vddf[:, :, np.newaxis] - 1e-12
            )
            ok = eligible.any(axis=2)
            if not ok.all():
                if active_mask is not None:
                    ok = ok | ~active_mask
                if not ok.all():
                    rows = blk.rows if gsel is None else blk.rows[gsel]
                    bad = int(np.flatnonzero(~ok.all(axis=0))[0])
                    name = self.circuit.indexed().order[rows[bad]]
                    raise OptimizationError(
                        f"no library cell satisfies the VDD floor for gate "
                        f"{name!r}; extend the library's VDD menu"
                    )
            score[~eligible] = np.inf
        best = np.argmin(score, axis=2)
        return best, icap_vdd[:, gate_ar, best]

    def _match_batch_levelwise(
        self,
        targets: np.ndarray,
        ramp_row: np.ndarray,
        anchor_row: np.ndarray | None,
        reference: BatchMatchState | None,
        changed: np.ndarray | None,
        frug_key: tuple[float, float, float],
        anchor_bonus_ps: float,
    ) -> BatchMatchState:
        """The level-batched population matcher.

        One ``(lanes, gates, cells)`` score block per reverse logic
        level: every successor of a level's gates was finalized at a
        smaller reverse level, so the block sees exactly the loads and
        VDD floors the scalar walk would.
        Fan-out load updates accumulate slot by slot in declaration
        order (a fixed-order segment sum, never ``reduceat``), keeping
        the chosen cells bitwise identical.  The delta fast path scores
        only the rectangle of lanes × gates the dirty wave can reach,
        with untouched entries copied from the reference.
        """
        idx = self.circuit.indexed()
        n_lanes = targets.shape[0]
        plan = self._level_plan()
        cells = self.library.cells()
        rows_all = self._plan_rows
        # Call-wide tensors, one gather each; every level reads a plain
        # slice (the blocks are laid out contiguously in level order).
        targets_all = targets[:, rows_all]
        ramp_all = k.RAMP_DELAY_FRACTION * ramp_row[rows_all]
        loadv_all = np.repeat(self._plan_wire[np.newaxis, :], n_lanes, axis=0)
        vddf_all = np.zeros((n_lanes, rows_all.size))

        if reference is None:
            cell_idx = np.full((n_lanes, idx.n_signals), -1, dtype=np.int64)
            # The chosen input capacitance and supply live stacked in one
            # ``(2, B, V)`` tensor so load accumulation reads and winner
            # write-back each cost a single kernel for both quantities.
            state = np.zeros((2, n_lanes, idx.n_signals))
            input_cap, vdd = state[0], state[1]

            for blk in plan:
                rows = blk.rows
                s, e = blk.span
                loadv = loadv_all[:, s:e]
                vddf = vddf_all[:, s:e]
                for end, fo in blk.slots:
                    loadv[:, :end] += input_cap[:, fo]
                    vddf[:, :end] = np.maximum(vddf[:, :end], vdd[:, fo])
                if blk.out_cols.size:
                    loadv[:, blk.out_cols] += k.LATCH_CAP_FF
                best, chosen = self._score_level(
                    blk,
                    None,
                    loadv,
                    vddf,
                    targets_all[:, s:e],
                    ramp_all[s:e],
                    anchor_row,
                    None,
                    frug_key,
                    anchor_bonus_ps,
                )
                cell_idx[:, rows] = best
                state[:, :, rows] = chosen

            if self.telemetry.enabled:
                pairs = n_lanes * rows_all.size
                self.telemetry.metrics.add("matcher.pairs.rescored", pairs)
                self.telemetry.metrics.add("matcher.pairs.total", pairs)
            return BatchMatchState(
                cells=cells, cell_idx=cell_idx, input_cap=input_cap, vdd=vdd
            )

        shape = (n_lanes, idx.n_signals)
        changed = np.asarray(changed, dtype=bool)
        cell_idx = np.broadcast_to(reference.cell_idx, shape).copy()
        state = np.empty((2, n_lanes, idx.n_signals))
        state[0] = reference.input_cap
        state[1] = reference.vdd
        input_cap, vdd = state[0], state[1]
        dirty = np.zeros(shape, dtype=bool)
        mask_all = changed[:, rows_all]
        track = self.telemetry.enabled
        rescored = 0

        for blk in plan:
            rows = blk.rows
            s, e = blk.span
            # Exact per-lane dirtiness: a (lane, gate) entry rescores
            # iff its own target changed or a successor's chosen cell
            # did — the dirty wave of the scalar walk, one slot slice
            # per fan-out position.
            mask = mask_all[:, s:e]
            for end, fo in blk.slots:
                mask[:, :end] |= dirty[:, fo]
            gsel = np.flatnonzero(mask.any(axis=0))
            if gsel.size == 0:
                continue
            # Mostly-active levels run the slice-based full-level block:
            # scoring the few inactive gates costs less than subsetting
            # every tensor, and their writes are mask-gated anyway.
            if 3 * gsel.size >= 2 * rows.size:
                gsel_idx = None
                rows_g = rows
                sub_mask = mask
                loadv = loadv_all[:, s:e]
                vddf = vddf_all[:, s:e]
                for end, fo in blk.slots:
                    loadv[:, :end] += input_cap[:, fo]
                    vddf[:, :end] = np.maximum(vddf[:, :end], vdd[:, fo])
                if blk.out_cols.size:
                    loadv[:, blk.out_cols] += k.LATCH_CAP_FF
                row_targets = targets_all[:, s:e]
                ramp_term = ramp_all[s:e]
            else:
                gsel_idx = gsel
                rows_g = rows[gsel]
                sub_mask = mask[:, gsel]
                sub_counts = blk.fo_counts[gsel]
                sub_slots = blk.fo_slots[gsel]
                loadv = np.repeat(
                    blk.wire_base[gsel][np.newaxis, :], n_lanes, axis=0
                )
                vddf = np.zeros((n_lanes, gsel.size))
                for slot in range(blk.max_deg):
                    # The fan-out-count sort survives subsetting, so the
                    # gates with a slot-`slot` successor are a prefix.
                    end = int(np.count_nonzero(sub_counts > slot))
                    if end == 0:
                        break
                    fo = sub_slots[:end, slot]
                    loadv[:, :end] += input_cap[:, fo]
                    vddf[:, :end] = np.maximum(vddf[:, :end], vdd[:, fo])
                out_sel = np.flatnonzero(blk.is_out[gsel])
                if out_sel.size:
                    loadv[:, out_sel] += k.LATCH_CAP_FF
                row_targets = targets_all[:, s:e][:, gsel]
                ramp_term = ramp_all[s:e][gsel]

            best, chosen = self._score_level(
                blk,
                gsel_idx,
                loadv,
                vddf,
                row_targets,
                ramp_term,
                anchor_row,
                sub_mask,
                frug_key,
                anchor_bonus_ps,
            )
            previous = cell_idx[:, rows_g]
            new_cells = np.where(sub_mask, best, previous)
            cell_idx[:, rows_g] = new_cells
            state[:, :, rows_g] = np.where(
                sub_mask[np.newaxis], chosen, state[:, :, rows_g]
            )
            dirty[:, rows_g] = sub_mask & (new_cells != previous)
            if track:
                rescored += int(sub_mask.sum())

        if track:
            self.telemetry.metrics.add("matcher.pairs.rescored", rescored)
            self.telemetry.metrics.add(
                "matcher.pairs.total", n_lanes * rows_all.size
            )
        return BatchMatchState(
            cells=cells, cell_idx=cell_idx, input_cap=input_cap, vdd=vdd
        )

    def match_with_timing_batch(
        self,
        targets: np.ndarray,
        input_ramps,
        max_delay_ps: float,
        anchor: ParameterAssignment | None = None,
        repair_rounds: int = 3,
    ) -> BatchMatchState:
        """:meth:`match_with_timing` for a population of target vectors.

        Lane ``b`` reproduces the serial flow exactly: the realized
        delays the repair consults come from the batched continuous
        model (bitwise equal to the scalar ``use_tables=False``
        annotation), timing via the batched STA, and the
        shrink-negative-slack update applies the same expressions — so
        the per-round convergence decisions, and therefore the final
        cells, are identical per lane.  Repair rematches run delta-style
        against the lane's own previous round.
        """
        if max_delay_ps <= 0.0:
            raise OptimizationError(
                f"max_delay_ps must be > 0, got {max_delay_ps}"
            )
        idx = self.circuit.indexed()
        targets = np.array(targets, dtype=np.float64)
        state = self.match_batch(targets, input_ramps, anchor)

        gate_row_mask = np.zeros(idx.n_signals, dtype=bool)
        gate_row_mask[idx.gate_rows] = True
        active = np.ones(targets.shape[0], dtype=bool)
        for __r in range(repair_rounds):
            lanes = np.flatnonzero(active)
            if lanes.size == 0:
                break
            if self.telemetry.enabled:
                self.telemetry.metrics.add("matcher.repair_rounds")
            realized = continuous_delay_arrays(
                self.circuit, state.param_arrays(lanes)
            )["delay_ps"]
            timing = analyze_timing_batch(idx, realized)
            ok = timing.delay_ps <= max_delay_ps * 1.001
            active[lanes[ok]] = False
            if ok.all():
                break
            rem = ~ok
            sub = lanes[rem]
            scale = max_delay_ps / timing.delay_ps[rem]
            slack_vs_cap = (
                timing.required_ps[rem] - timing.arrival_ps[rem]
                + max_delay_ps
                - timing.delay_ps[rem][:, np.newaxis]
            )
            shrunk = realized[rem] * scale[:, np.newaxis]
            update = (
                (slack_vs_cap < 0.0)
                & (shrunk < targets[sub])
                & gate_row_mask[np.newaxis, :]
            )
            adjusted = update.any(axis=1)
            active[sub[~adjusted]] = False
            moving = sub[adjusted]
            if moving.size == 0:
                break
            targets[moving] = np.where(
                update[adjusted], shrunk[adjusted], targets[moving]
            )
            partial = self.match_batch(
                targets[moving],
                input_ramps,
                anchor,
                reference=BatchMatchState(
                    cells=state.cells,
                    cell_idx=state.cell_idx[moving],
                    input_cap=state.input_cap[moving],
                    vdd=state.vdd[moving],
                ),
                changed=update[adjusted],
            )
            state.cell_idx[moving] = partial.cell_idx
            state.input_cap[moving] = partial.input_cap
            state.vdd[moving] = partial.vdd
        return state

    def _match_once(
        self,
        target_delays: Mapping[str, float],
        input_ramps: Mapping[str, float],
        anchor: ParameterAssignment | None = None,
        energy_weight_ps_per_fj: float = 0.6,
        area_weight_ps: float = 0.03,
        leakage_weight_ps_per_uw: float = 5.0,
        anchor_bonus_ps: float = 0.5,
    ) -> tuple[ParameterAssignment, dict[str, float]]:
        """One reverse-topological matching pass.

        Returns the assignment and the *realized* per-gate delays under
        the final loads (consistent because successors are fixed before
        their predecessors are matched).
        """
        assignment = ParameterAssignment()
        realized: dict[str, float] = {}
        chosen_input_cap: dict[str, float] = {}
        chosen_vdd: dict[str, float] = {}

        for name in self._reverse_order:
            gate = self.circuit.gate(name)
            target = target_delays.get(name)
            if target is None:
                raise OptimizationError(f"no target delay for gate {name!r}")

            fanouts = self.circuit.fanouts(name)
            load = k.WIRE_CAP_PER_FANOUT_FF * max(1, len(fanouts))
            vdd_floor = 0.0
            for successor in fanouts:
                load += chosen_input_cap[successor]
                vdd_floor = max(vdd_floor, chosen_vdd[successor])
            if self.circuit.is_output(name):
                load += k.LATCH_CAP_FF

            arrays = self._cell_arrays(gate.gtype, gate.fanin_count)
            ramp = float(input_ramps.get(name, k.PRIMARY_INPUT_RAMP_PS))
            delays = arrays.delays_ps(load, ramp)
            eligible = arrays.vdd >= vdd_floor - 1e-12
            if not np.any(eligible):
                raise OptimizationError(
                    f"no library cell satisfies VDD >= {vdd_floor} for "
                    f"gate {name!r}; extend the library's VDD menu"
                )
            error = np.abs(delays - float(target))
            frugality = arrays.frugality(
                energy_weight_ps_per_fj, area_weight_ps, leakage_weight_ps_per_uw
            )
            score = np.where(eligible, error + frugality, np.inf)
            if anchor is not None:
                anchor_index = arrays.cell_pos.get(anchor[name], -1)
                if anchor_index >= 0 and eligible[anchor_index]:
                    score[anchor_index] -= anchor_bonus_ps
            best = int(np.argmin(score))
            cell = arrays.cells[best]
            assignment.set(name, cell)
            realized[name] = float(delays[best])
            chosen_input_cap[name] = float(arrays.input_cap[best])
            chosen_vdd[name] = float(arrays.vdd[best])

        return assignment, realized
