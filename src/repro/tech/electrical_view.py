"""Per-gate electrical state for one circuit + parameter assignment.

:class:`CircuitElectrical` is the shared substrate under ASERTA, the
static timing analyzer, the power model and the transient reference
simulator.  Given a circuit and a :class:`ParameterAssignment` it
computes, in one forward topological pass:

* the capacitive load on every signal (successor input pins + wire,
  plus the latch capacitance at primary outputs),
* input ramps (worst predecessor output ramp) and propagation delays,
* output node capacitances and strike-generated glitch widths,
* per-gate leakage power, switching-energy weights and layout area.

``use_tables=True`` routes every electrical query through the
interpolated :class:`~repro.tech.table_builder.TechnologyTables` (the
paper's ASERTA architecture); ``use_tables=False`` evaluates the
continuous model directly (the "SPICE" reference path).

The table path runs *vectorized* by default, as lane 0 of the
population annotation :func:`batched_electrical_arrays`: per-axis grid
brackets are computed once for the whole gate population
(:func:`repro.tech.lut.bracket_queries`), gates carry a table id from
the circuit's :class:`~repro.circuit.indexed.IndexedCircuit` grouping,
and each table *kind* resolves in a single gather through the stacked
value tensor (:meth:`TechnologyTables.stacked_values` +
:func:`repro.tech.lut.stacked_lookup`), with loads and ramps reduced
over the CSR adjacency arrays.  ``vectorized=False`` keeps the original
per-gate loop — the reference against which the array path is
differential-tested and benchmarked.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gate import GateType
from repro.circuit.netlist import Circuit
from repro.errors import TechnologyError
from repro.tech import constants as k
from repro.tech import gate_electrical as ge
from repro.tech.glitch import generated_width_ps
from repro.tech.library import ParameterAssignment
from repro.tech.lut import bracket_queries, stacked_lookup
from repro.tech.table_builder import TechnologyTables, default_tables
from repro.units import PS_PER_FF_V_PER_UA


def cell_param_arrays(
    indexed, assignment: ParameterAssignment
) -> dict[str, np.ndarray]:
    """Dense per-row ``size`` / ``length_nm`` / ``vdd`` / ``vth`` arrays
    for one assignment over an :class:`IndexedCircuit`.

    The single place the default-fill-plus-override-scatter semantics
    live (overrides naming unknown signals are ignored; dtype is pinned
    to float64 so int-valued ``CellParams`` cannot truncate float
    overrides); both the electrical annotation and the analyzer's Eq-3
    size weights read it.
    """
    n = indexed.n_signals
    default = assignment.default
    arrays = {
        "size": np.full(n, default.size, dtype=np.float64),
        "length_nm": np.full(n, default.length_nm, dtype=np.float64),
        "vdd": np.full(n, default.vdd, dtype=np.float64),
        "vth": np.full(n, default.vth, dtype=np.float64),
    }
    for name, cell in assignment.overrides().items():
        row = indexed.index.get(name)
        if row is None:
            continue
        arrays["size"][row] = cell.size
        arrays["length_nm"][row] = cell.length_nm
        arrays["vdd"][row] = cell.vdd
        arrays["vth"][row] = cell.vth
    return arrays


def stack_cell_param_arrays(
    indexed, assignments
) -> dict[str, np.ndarray]:
    """``(B, V)`` parameter arrays for a sequence of assignments —
    :func:`cell_param_arrays` stacked along a leading candidate axis."""
    per = [cell_param_arrays(indexed, a) for a in assignments]
    if not per:
        raise TechnologyError("need at least one assignment to stack")
    return {
        field: np.stack([p[field] for p in per])
        for field in ("size", "length_nm", "vdd", "vth")
    }


def _population_loads(indexed, input_cap: np.ndarray) -> np.ndarray:
    """``(B, V)`` capacitive loads from per-row input-pin capacitances.

    The bit-identity-critical accumulation both batched annotations
    share: wire capacitance per fan-out branch, successor pins summed
    in CSR edge order (``np.add.at`` — the scalar walks' sequential
    order), then the latch capacitance at primary outputs.
    """
    fanout_counts = np.diff(indexed.fanout_ptr)
    base_load = k.WIRE_CAP_PER_FANOUT_FF * np.maximum(
        1, fanout_counts
    ).astype(np.float64)
    load = np.tile(base_load, (input_cap.shape[0], 1))
    # Unique-source slots replay np.add.at's per-source CSR accumulation
    # order (successor caps add in fan-out declaration order) with plain
    # fancy-index adds — same bits, far fewer scatter passes.
    for srcs, dsts in indexed.fanout_slot_plan():
        load[:, srcs] += input_cap[:, dsts]
    load[:, indexed.is_output] += k.LATCH_CAP_FF
    return load


def _population_input_ramps(indexed, out_ramp: np.ndarray) -> np.ndarray:
    """``(B, V)`` worst-predecessor input ramps (CSR max; exact)."""
    ramp_in = np.zeros(out_ramp.shape)
    has_fanins = np.diff(indexed.fanin_ptr) > 0
    if has_fanins.any():
        ramp_in[:, has_fanins] = np.maximum.reduceat(
            out_ramp[:, indexed.fanin_src],
            indexed.fanin_ptr[:-1][has_fanins],
            axis=1,
        )
    return ramp_in


def batched_electrical_arrays(
    circuit: Circuit,
    tables: TechnologyTables,
    params: dict[str, np.ndarray],
    charge_fc: float = k.DEFAULT_CHARGE_FC,
) -> dict[str, np.ndarray]:
    """The vectorized table-path annotation for a *population* of
    parameter assignments in one pass.

    ``params`` carries ``(B, V)`` ``size``/``length_nm``/``vdd``/``vth``
    arrays over ``circuit.indexed()`` rows (see
    :func:`stack_cell_param_arrays`); the result maps every field of
    :meth:`CircuitElectrical.arrays` to a ``(B, V)`` array.  Lanes are
    independent (same gathers, same CSR accumulation order per lane),
    and the single-assignment table path is this function at ``B = 1``,
    so lane ``b`` is bit-identical to annotating assignment ``b`` alone
    — the property the batched SERTOPT objective's equivalence contract
    rests on.
    """
    idx = circuit.indexed()
    if not idx.group_pairs:
        raise TechnologyError(
            "batched annotation needs at least one logic gate; use the "
            "scalar path for feed-through circuits"
        )
    size = np.asarray(params["size"], dtype=np.float64)
    length = np.asarray(params["length_nm"], dtype=np.float64)
    vdd = np.asarray(params["vdd"], dtype=np.float64)
    vth = np.asarray(params["vth"], dtype=np.float64)
    if size.ndim != 2 or size.shape[1] != idx.n_signals:
        raise TechnologyError(
            f"expected (B, {idx.n_signals}) parameter arrays, got {size.shape}"
        )
    n_lanes, n = size.shape
    rows = idx.gate_rows
    gid = np.broadcast_to(idx.group_id[rows], (n_lanes, rows.size))
    pairs = idx.group_pairs

    br_size = bracket_queries(tables.sizes, size[:, rows], "size")
    br_length = bracket_queries(tables.lengths_nm, length[:, rows], "length")
    br_vdd = bracket_queries(tables.vdds, vdd[:, rows], "vdd")
    br_vth = bracket_queries(tables.vths, vth[:, rows], "vth")
    cell_br = [br_size, br_length, br_vdd, br_vth]

    input_cap = np.zeros((n_lanes, n))
    input_cap[:, rows] = stacked_lookup(
        tables.stacked_values("input_cap", pairs), gid, [br_size, br_length]
    )
    load = _population_loads(idx, input_cap)
    br_load = bracket_queries(tables.loads_ff, load[:, rows], "load")

    out_ramp = np.full((n_lanes, n), k.PRIMARY_INPUT_RAMP_PS)
    out_ramp[:, rows] = stacked_lookup(
        tables.stacked_values("ramp", pairs), gid, cell_br + [br_load]
    )
    ramp_in = _population_input_ramps(idx, out_ramp)
    br_ramp = bracket_queries(tables.ramps_ps, ramp_in[:, rows], "ramp")
    br_charge = bracket_queries(
        tables.charges_fc, np.float64(charge_fc), "charge"
    )

    delay = np.zeros((n_lanes, n))
    delay[:, rows] = stacked_lookup(
        tables.stacked_values("delay", pairs), gid, cell_br + [br_load, br_ramp]
    )
    width = np.zeros((n_lanes, n))
    width[:, rows] = stacked_lookup(
        tables.stacked_values("glitch", pairs), gid,
        cell_br + [br_load, br_charge],
    )
    leak = np.zeros((n_lanes, n))
    leak[:, rows] = stacked_lookup(
        tables.stacked_values("static_power", pairs), gid, cell_br
    )

    node_cap = np.zeros((n_lanes, n))
    area = np.zeros((n_lanes, n))
    self_cap_factors = np.array(
        [ge.self_cap_factor(gtype, fanin) for gtype, fanin in pairs]
    )
    transistor_counts = np.array(
        [float(ge.transistor_count(gtype, fanin)) for gtype, fanin in pairs]
    )
    gid_rows = idx.group_id[rows]
    width_nm = size[:, rows] * k.WIDTH_PER_SIZE_NM
    node_cap[:, rows] = (
        k.DRAIN_CAP_PER_NM_FF * width_nm * self_cap_factors[gid_rows]
        + load[:, rows]
    )
    area[:, rows] = (
        transistor_counts[gid_rows]
        * size[:, rows]
        * (length[:, rows] / k.NOMINAL_LENGTH_NM)
    )

    return {
        "load_ff": load,
        "input_ramp_ps": ramp_in,
        "output_ramp_ps": out_ramp,
        "delay_ps": delay,
        "node_cap_ff": node_cap,
        "generated_width_ps": width,
        "static_power_uw": leak,
        "area_units": area,
        "size": size,
        "length_nm": length,
        "vdd": vdd,
        "vth": vth,
    }


def continuous_delay_arrays(
    circuit: Circuit, params: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Per-gate delays of the continuous ("SPICE") model for a
    population of assignments: ``(B, V)`` ``delay_ps`` (and the load /
    ramp intermediates) mirroring the ``use_tables=False`` scalar
    annotation operation for operation.

    This is the realized-delay view SERTOPT's timing repair consults;
    lane ``b`` reproduces
    ``CircuitElectrical(circuit, assignment_b, use_tables=False).delay_ps``
    bitwise (same formulas, same accumulation order), which keeps the
    batched repair decisions identical to the serial path's.
    """
    idx = circuit.indexed()
    size = np.asarray(params["size"], dtype=np.float64)
    length = np.asarray(params["length_nm"], dtype=np.float64)
    vdd = np.asarray(params["vdd"], dtype=np.float64)
    vth = np.asarray(params["vth"], dtype=np.float64)
    n_lanes, n = size.shape
    rows = idx.gate_rows
    pairs = idx.group_pairs
    gid_rows = idx.group_id[rows]
    icf = np.array([ge.input_cap_factor(g, f) for g, f in pairs])
    scf = np.array([ge.self_cap_factor(g, f) for g, f in pairs])
    div = np.array([ge.drive_divisor(g, f) for g, f in pairs])

    width_nm = size[:, rows] * k.WIDTH_PER_SIZE_NM
    input_cap = np.zeros((n_lanes, n))
    input_cap[:, rows] = (
        k.GATE_CAP_PER_NM_FF
        * width_nm
        * (length[:, rows] / k.NOMINAL_LENGTH_NM)
        * icf[gid_rows]
    )
    load = _population_loads(idx, input_cap)

    current = (
        k.CURRENT_SCALE_UA
        * (width_nm / length[:, rows])
        * (vdd[:, rows] - vth[:, rows]) ** k.ALPHA
        / div[gid_rows]
    )
    self_cap = k.DRAIN_CAP_PER_NM_FF * width_nm * scf[gid_rows]
    total_cap = self_cap + load[:, rows]
    step = (
        PS_PER_FF_V_PER_UA * total_cap * vdd[:, rows] / (2.0 * current)
    )
    out_ramp = np.full((n_lanes, n), k.PRIMARY_INPUT_RAMP_PS)
    out_ramp[:, rows] = k.RAMP_OF_DELAY * step
    ramp_in = _population_input_ramps(idx, out_ramp)
    delay = np.zeros((n_lanes, n))
    delay[:, rows] = step + k.RAMP_DELAY_FRACTION * ramp_in[:, rows]
    return {
        "delay_ps": delay,
        "load_ff": load,
        "input_ramp_ps": ramp_in,
        "output_ramp_ps": out_ramp,
    }


class CircuitElectrical:
    """Electrical annotation of a circuit under one parameter assignment."""

    def __init__(
        self,
        circuit: Circuit,
        assignment: ParameterAssignment,
        tables: TechnologyTables | None = None,
        use_tables: bool = True,
        charge_fc: float = k.DEFAULT_CHARGE_FC,
        clock_period_ps: float = k.CLOCK_PERIOD_PS,
        vectorized: bool | None = None,
    ) -> None:
        if charge_fc < 0.0:
            raise TechnologyError(f"charge must be >= 0, got {charge_fc}")
        if clock_period_ps <= 0.0:
            raise TechnologyError(f"clock period must be > 0, got {clock_period_ps}")
        self.circuit = circuit
        self.assignment = assignment
        self.use_tables = use_tables
        self.tables = tables if tables is not None else default_tables()
        self.charge_fc = charge_fc
        self.clock_period_ps = clock_period_ps
        # The continuous ("SPICE") model is scalar code; only the table
        # path has an array implementation.
        self.vectorized = use_tables if vectorized is None else (
            vectorized and use_tables
        )

        #: Name-keyed views, materialized lazily by the property
        #: accessors (the vectorized path never builds them unless a
        #: dict-reading caller asks; the scalar path fills them as it
        #: annotates).
        self._views: dict[str, dict[str, float]] = {}

        #: Dense per-row arrays over ``circuit.indexed()`` (the array
        #: analysis path); populated by the vectorized annotation, built
        #: on demand otherwise.
        self._arrays: dict[str, np.ndarray] | None = None

        if self.vectorized:
            self._annotate_arrays()
        else:
            self._annotate()

    # ------------------------------------------------------------------
    # Lazy name-keyed views
    # ------------------------------------------------------------------
    #
    # Eight dict views used to be materialized eagerly on every
    # construction — an ~8·V Python loop per analyze() call that the
    # array analysis path never reads.  They are now built on first
    # access from the dense arrays (the ElectricalMaskingResult
    # pattern); the scalar reference path obtains the same dicts empty
    # and fills them during annotation, so its attribute writes are
    # unchanged in behaviour.

    def _view(self, field: str, gates_only: bool) -> dict[str, float]:
        view = self._views.get(field)
        if view is None:
            if self._arrays is not None and field in self._arrays:
                idx = self.circuit.indexed()
                values = self._arrays[field]
                order = idx.order
                rows = idx.gate_rows if gates_only else range(idx.n_signals)
                view = {order[row]: float(values[row]) for row in rows}
            else:
                view = {}
            self._views[field] = view
        return view

    @property
    def load_ff(self) -> dict[str, float]:
        return self._view("load_ff", gates_only=False)

    @property
    def input_ramp_ps(self) -> dict[str, float]:
        return self._view("input_ramp_ps", gates_only=True)

    @property
    def output_ramp_ps(self) -> dict[str, float]:
        return self._view("output_ramp_ps", gates_only=False)

    @property
    def delay_ps(self) -> dict[str, float]:
        return self._view("delay_ps", gates_only=True)

    @property
    def node_cap_ff(self) -> dict[str, float]:
        return self._view("node_cap_ff", gates_only=True)

    @property
    def generated_width_ps(self) -> dict[str, float]:
        return self._view("generated_width_ps", gates_only=True)

    @property
    def static_power_uw(self) -> dict[str, float]:
        return self._view("static_power_uw", gates_only=True)

    @property
    def area_units(self) -> dict[str, float]:
        return self._view("area_units", gates_only=True)

    # ------------------------------------------------------------------
    # Scalar annotation (the reference path)
    # ------------------------------------------------------------------

    def _input_cap(self, name: str) -> float:
        gate = self.circuit.gate(name)
        params = self.assignment[name]
        if self.use_tables:
            return self.tables.input_cap_ff(gate.gtype, gate.fanin_count, params)
        return ge.input_capacitance_ff(
            gate.gtype, gate.fanin_count, params.size, params.length_nm
        )

    def _compute_load(self, name: str) -> float:
        fanouts = self.circuit.fanouts(name)
        load = k.WIRE_CAP_PER_FANOUT_FF * max(1, len(fanouts))
        for successor in fanouts:
            load += self._input_cap(successor)
        if self.circuit.is_output(name):
            load += k.LATCH_CAP_FF
        return load

    def _annotate(self) -> None:
        circuit = self.circuit
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            self.load_ff[name] = self._compute_load(name)
            if gate.is_input:
                self.output_ramp_ps[name] = k.PRIMARY_INPUT_RAMP_PS
                continue
            params = self.assignment[name]
            gtype, fanin = gate.gtype, gate.fanin_count
            load = self.load_ff[name]
            ramp_in = max(self.output_ramp_ps[f] for f in gate.fanins)
            self.input_ramp_ps[name] = ramp_in

            if self.use_tables:
                delay = self.tables.delay_ps(gtype, fanin, params, load, ramp_in)
                out_ramp = self.tables.output_ramp_ps(gtype, fanin, params, load)
                width = self.tables.generated_width_ps(
                    gtype, fanin, params, load, self.charge_fc
                )
                leak = self.tables.static_power_uw(gtype, fanin, params)
            else:
                delay = ge.propagation_delay_ps(
                    gtype, fanin, params.size, params.length_nm,
                    params.vdd, params.vth, load, ramp_in,
                )
                out_ramp = ge.output_ramp_ps(
                    gtype, fanin, params.size, params.length_nm,
                    params.vdd, params.vth, load,
                )
                current = ge.drive_current_ua(
                    gtype, fanin, params.size, params.length_nm,
                    params.vdd, params.vth,
                )
                node_cap = ge.self_capacitance_ff(gtype, fanin, params.size) + load
                width = generated_width_ps(
                    self.charge_fc, node_cap, current, params.vdd
                )
                leak = ge.static_power_uw(
                    gtype, fanin, params.size, params.length_nm,
                    params.vdd, params.vth,
                )
            self.delay_ps[name] = delay
            self.output_ramp_ps[name] = out_ramp
            self.node_cap_ff[name] = (
                ge.self_capacitance_ff(gtype, fanin, params.size) + load
            )
            self.generated_width_ps[name] = width
            self.static_power_uw[name] = leak
            self.area_units[name] = ge.area_units(
                gtype, fanin, params.size, params.length_nm
            )

    # ------------------------------------------------------------------
    # Array annotation (the vectorized table path)
    # ------------------------------------------------------------------

    def _annotate_arrays(self) -> None:
        idx = self.circuit.indexed()
        if not idx.group_pairs:
            # Gate-less (pure feed-through) circuit: nothing to batch,
            # and np.stack of zero tables is an error — the scalar loop
            # handles it directly.
            self._annotate()
            return
        # Lane 0 of the population annotation at B = 1: one code path
        # for analyze() and analyze_many(), bitwise by construction.
        params = {
            field: values[np.newaxis, :]
            for field, values in cell_param_arrays(idx, self.assignment).items()
        }
        lanes = batched_electrical_arrays(
            self.circuit, self.tables, params, self.charge_fc
        )
        self._arrays = {field: values[0] for field, values in lanes.items()}

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------

    def native_arrays(self) -> dict[str, np.ndarray] | None:
        """The dense arrays if already available, without building them.

        Non-``None`` whenever the vectorized annotation ran (or a
        caller already paid for :meth:`arrays`); consumers like
        ``default_sample_widths`` use it to stay on the array path
        without forcing a gather on the scalar reference path.
        """
        return self._arrays

    def arrays(self) -> dict[str, np.ndarray]:
        """Dense per-row views over ``circuit.indexed()``.

        Populated natively by the vectorized annotation; gathered from
        the dicts (and cached) when the scalar reference or continuous
        model produced them.
        """
        if self._arrays is None:
            idx = self.circuit.indexed()
            self._arrays = {
                "load_ff": idx.gather(self.load_ff),
                "input_ramp_ps": idx.gather(self.input_ramp_ps),
                "output_ramp_ps": idx.gather(self.output_ramp_ps),
                "delay_ps": idx.gather(self.delay_ps),
                "node_cap_ff": idx.gather(self.node_cap_ff),
                "generated_width_ps": idx.gather(self.generated_width_ps),
                "static_power_uw": idx.gather(self.static_power_uw),
                "area_units": idx.gather(self.area_units),
            }
        return self._arrays

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def gate_size(self, name: str) -> float:
        """The size Z_i used as the strike-cross-section weight (Eq 3)."""
        return self.assignment[name].size

    def total_area(self) -> float:
        """Total layout area in relative units."""
        if self._arrays is not None and "area_units" in self._arrays:
            return float(self._arrays["area_units"].sum())
        return sum(self.area_units.values())

    def total_static_power_uw(self) -> float:
        if self._arrays is not None and "static_power_uw" in self._arrays:
            return float(self._arrays["static_power_uw"].sum())
        return sum(self.static_power_uw.values())

    def static_energy_fj(self) -> float:
        """Leakage energy over one clock period, fJ."""
        return self.total_static_power_uw() * self.clock_period_ps / 1000.0

    def dynamic_energy_weight_fj(self, name: str) -> float:
        """Energy of one output transition of gate ``name`` (C_node V^2)."""
        params = self.assignment[name]
        return self.node_cap_ff[name] * params.vdd * params.vdd
