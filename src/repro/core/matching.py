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

#: Frugality terms of the match score, in ps of delay error per unit:
#: switching-energy proxy (fJ), relative area, and leakage (uW).
ENERGY_WEIGHT_PS_PER_FJ = 0.6
AREA_WEIGHT_PS = 0.03
LEAKAGE_WEIGHT_PS_PER_UW = 5.0
#: Score bonus of the anchor (baseline) cell, ps.
ANCHOR_BONUS_PS = 0.5
#: Timing-repair rounds of the ``match_with_timing*`` methods.
REPAIR_ROUNDS = 3


class _CellArrays:
    """Per-(gate type, fan-in) vectorized cell characterization."""

    def __init__(self, gtype: GateType, fanin: int, cells: tuple[CellParams, ...]):
        self.cells = cells
        #: Cell -> position; cells are unique, so this is equivalent to
        #: (and much faster than) ``cells.index(...)`` anchor lookups.
        self.cell_pos = {cell: idx for idx, cell in enumerate(cells)}
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
        #: The per-cell frugality score term.
        dynamic_proxy = (self.self_cap + self.input_cap) * self.vdd**2
        self.frugality = (
            ENERGY_WEIGHT_PS_PER_FJ * dynamic_proxy
            + AREA_WEIGHT_PS * self.area
            + LEAKAGE_WEIGHT_PS_PER_UW * self.leak_uw
        )

    def delays_ps(self, load_ff: float, ramp_ps: float) -> np.ndarray:
        """Delay of every cell at this load and input ramp."""
        return (
            self.slope * (self.self_cap + load_ff)
            + k.RAMP_DELAY_FRACTION * ramp_ps
        )


@dataclass
class BatchMatchState:
    """Matched cells for a population of delay-target vectors.

    ``cell_idx`` is ``(B, V)`` over ``circuit.indexed()`` rows; it
    indexes into ``cells`` (the library's cell tuple) and is ``-1`` on
    non-gate rows.
    """

    cells: tuple[CellParams, ...]
    cell_idx: np.ndarray

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
        # fancy-index gather.
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
        self.wire_base = wire_base
        self.out_cols = np.flatnonzero(idx.is_output[self.rows])

        self.slope = np.stack([a.slope for a in gate_arrays])
        self.self_cap = np.stack([a.self_cap for a in gate_arrays])
        self.input_cap = np.stack([a.input_cap for a in gate_arrays])
        self.vdd = np.stack([a.vdd for a in gate_arrays])
        #: Stacked ``(gates, cells)`` frugality rows — the per-group
        #: arrays bit for bit.
        self.frugality = np.stack([a.frugality for a in gate_arrays])
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

        #: Slot plan: slot ``j`` is ``(end, fo)`` — gates ``[:end]`` (a
        #: prefix, by the sort above) gain successor ``fo[g]`` as their
        #: ``j``-th fan-out load contribution.
        self.slots: list[tuple[int, np.ndarray]] = []
        for slot in range(len(fanout_lists[0])):
            column = [f[slot] for f in fanout_lists if len(f) > slot]
            self.slots.append((len(column), np.array(column, dtype=np.int64)))

    def anchor_slots(self, anchor_row: np.ndarray):
        """``(ga, apos)`` — the level positions with an anchor cell and
        those cells' indices — cached per anchor-row array (the engine
        hands the same array for every match against one anchor)."""
        cached = self._anchor_slots
        if cached is None or cached[0] is not anchor_row:
            positions = anchor_row[self.rows]
            ga = np.flatnonzero(positions >= 0)
            cached = (anchor_row, ga, positions[ga])
            self._anchor_slots = cached
        return cached[1], cached[2]


class MatchingEngine:
    """Matches delay assignments onto a discrete cell library.

    :meth:`match` is the scalar per-gate walk (the oracle); the
    population matcher :meth:`match_batch` scores one
    ``(lanes, gates, cells)`` block per reverse logic level and picks
    bitwise the same cells.  ``telemetry`` records
    ``matcher.match_batch`` spans and the call, lane and repair-round
    counters.
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
    ) -> ParameterAssignment:
        """Pick, for every gate, the eligible cell whose delay is closest
        to its target.

        ``input_ramps`` supplies the expected input transition time per
        gate (the baseline circuit's ramps are a good estimate — ramps
        only contribute a small additive delay term).

        The score is the delay error in ps plus small, explicitly-priced
        frugality terms (switching-energy proxy, area, leakage, weighted
        by :data:`ENERGY_WEIGHT_PS_PER_FJ`, :data:`AREA_WEIGHT_PS` and
        :data:`LEAKAGE_WEIGHT_PS_PER_UW`), so that
        among cells within a picosecond or two of the target the cheaper
        cell wins — without them a gratuitous 1.2 V pick near a primary
        output would cascade the VDD-ordering floor over the whole fan-in
        cone.

        ``anchor`` (typically the baseline assignment) receives a score
        bonus of :data:`ANCHOR_BONUS_PS`: when the target delay is what the
        anchor cell already delivers, matching reproduces the anchor
        instead of wandering across quantization ties, so the
        zero-perturbation point of SERTOPT's search coincides with the
        baseline circuit.
        """
        assignment, __ = self._match_once(target_delays, input_ramps, anchor)
        return assignment

    def match_with_timing(
        self,
        target_delays: Mapping[str, float],
        input_ramps: Mapping[str, float],
        max_delay_ps: float,
        anchor: ParameterAssignment | None = None,
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
        for __r in range(REPAIR_ROUNDS):
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
    ) -> BatchMatchState:
        """One reverse-topological matching pass over a *population*.

        ``targets`` is ``(B, V)`` over indexed rows (gate rows
        meaningful).  Lane ``b`` chooses exactly the cells
        :meth:`match` would choose for target vector ``b`` — the same
        score arithmetic runs vectorized across lanes, so ties resolve
        identically.
        """
        targets = np.asarray(targets, dtype=np.float64)
        idx = self.circuit.indexed()
        if targets.ndim != 2 or targets.shape[1] != idx.n_signals:
            raise OptimizationError(
                f"expected (B, {idx.n_signals}) targets, got {targets.shape}"
            )
        ramp_row = self._ramp_row(input_ramps)
        anchor_row = self._anchor_row(anchor)
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.add("matcher.match_batch.calls")
            tel.metrics.add("matcher.lanes", targets.shape[0])
        with tel.span("matcher.match_batch", lanes=targets.shape[0]):
            return self._match_batch_levelwise(targets, ramp_row, anchor_row)

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
        loadv: np.ndarray,
        vddf: np.ndarray,
        row_targets: np.ndarray,
        ramp_term: np.ndarray,
        anchor_row: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one level block; return ``(best, icap_vdd_of_best)``.

        Every arithmetic expression matches the scalar matcher operation
        for operation, so the chosen cells are bitwise those of the
        scalar walk.
        """
        delays = (
            blk.slope[np.newaxis, :, :]
            * (blk.self_cap[np.newaxis, :, :] + loadv[:, :, np.newaxis])
            + ramp_term[np.newaxis, :, np.newaxis]
        )
        # score = |delay - target| + frugality, built in place; the
        # anchor bonus lands before the ineligible fill below, so an
        # ineligible anchor cell still scores inf — exactly the masked
        # arithmetic (and the bit pattern) of the scalar matcher.
        score = np.abs(delays - row_targets[:, :, np.newaxis])
        score += blk.frugality[np.newaxis, :, :]
        if anchor_row is not None:
            ga, apos = blk.anchor_slots(anchor_row)
            if ga.size:
                score[:, ga, apos] -= ANCHOR_BONUS_PS
        # Fast path for the common no-constraint case: every group's
        # cell menu shares one VDD floor minimum, so one level-wide
        # comparison decides whether the eligibility mask is all-true
        # (score stays as built — the same values the masked path
        # produces, in fewer kernels).
        if float(vddf.max(initial=0.0)) - 1e-12 > blk.vdd_min_level:
            eligible = (
                blk.vdd[np.newaxis, :, :] >= vddf[:, :, np.newaxis] - 1e-12
            )
            ok = eligible.any(axis=2)
            if not ok.all():
                bad = int(np.flatnonzero(~ok.all(axis=0))[0])
                name = self.circuit.indexed().order[blk.rows[bad]]
                raise OptimizationError(
                    f"no library cell satisfies the VDD floor for gate "
                    f"{name!r}; extend the library's VDD menu"
                )
            score[~eligible] = np.inf
        best = np.argmin(score, axis=2)
        return best, blk.icap_vdd[:, blk.gate_ar, best]

    def _match_batch_levelwise(
        self,
        targets: np.ndarray,
        ramp_row: np.ndarray,
        anchor_row: np.ndarray | None,
    ) -> BatchMatchState:
        """The level-batched population matcher.

        One ``(lanes, gates, cells)`` score block per reverse logic
        level: every successor of a level's gates was finalized at a
        smaller reverse level, so the block sees exactly the loads and
        VDD floors the scalar walk would.
        Fan-out load updates accumulate slot by slot in declaration
        order (a fixed-order segment sum, never ``reduceat``), keeping
        the chosen cells bitwise identical.
        """
        idx = self.circuit.indexed()
        n_lanes = targets.shape[0]
        plan = self._level_plan()
        rows_all = self._plan_rows
        # Call-wide tensors, one gather each; every level reads a plain
        # slice (the blocks are laid out contiguously in level order).
        targets_all = targets[:, rows_all]
        ramp_all = k.RAMP_DELAY_FRACTION * ramp_row[rows_all]
        loadv_all = np.repeat(self._plan_wire[np.newaxis, :], n_lanes, axis=0)
        vddf_all = np.zeros((n_lanes, rows_all.size))
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
                blk, loadv, vddf, targets_all[:, s:e], ramp_all[s:e], anchor_row
            )
            cell_idx[:, rows] = best
            state[:, :, rows] = chosen
        return BatchMatchState(cells=self.library.cells(), cell_idx=cell_idx)

    def match_with_timing_batch(
        self,
        targets: np.ndarray,
        input_ramps,
        max_delay_ps: float,
        anchor: ParameterAssignment | None = None,
    ) -> BatchMatchState:
        """:meth:`match_with_timing` for a population of target vectors.

        Lane ``b`` reproduces the serial flow exactly: the realized
        delays the repair consults come from the batched continuous
        model (bitwise equal to the scalar ``use_tables=False``
        annotation), timing via the batched STA, and the
        shrink-negative-slack update applies the same expressions — so
        the per-round convergence decisions, and therefore the final
        cells, are identical per lane.  Each repair round re-matches
        the lanes whose targets moved with a full :meth:`match_batch`
        pass.
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
        for __r in range(REPAIR_ROUNDS):
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
            state.cell_idx[moving] = self.match_batch(
                targets[moving], input_ramps, anchor
            ).cell_idx
        return state

    def _match_once(
        self,
        target_delays: Mapping[str, float],
        input_ramps: Mapping[str, float],
        anchor: ParameterAssignment | None = None,
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
            score = np.where(eligible, error + arrays.frugality, np.inf)
            if anchor is not None:
                anchor_index = arrays.cell_pos.get(anchor[name], -1)
                if anchor_index >= 0 and eligible[anchor_index]:
                    score[anchor_index] -= ANCHOR_BONUS_PS
            best = int(np.argmin(score))
            cell = arrays.cells[best]
            assignment.set(name, cell)
            realized[name] = float(delays[best])
            chosen_input_cap[name] = float(arrays.input_cap[best])
            chosen_vdd[name] = float(arrays.vdd[best])

        return assignment, realized
