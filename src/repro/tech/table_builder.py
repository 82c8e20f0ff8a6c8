"""Builds the paper's SPICE look-up tables from the analytical gate model.

ASERTA's inputs are tables "for delays, static energies, dynamic
energies, output ramp and gate input capacitances for different types of
gates, fan-ins, sizes, channel lengths, VDDs, Vths, input ramps and load
capacitances", plus a generated-glitch-width table (Section 3).  The
paper fixes one injected charge and defers a charge axis to future work;
this implementation includes the charge axis (exercised by the ABL-Q
extension experiment) while defaulting to the fixed 16 fC the paper uses.

Tables are built lazily per ``(gate type, fan-in)`` and kept for the
life of the instance.  Each is one NumPy evaluation of the array twins
in :mod:`repro.tech.gate_electrical` over the ``ij`` meshgrid of its
axes; every cell is bit-identical to the scalar model function at that
grid point, which is the tables' oracle.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.circuit.gate import GateType
from repro.errors import TableError, TechnologyError
from repro.tech import constants as k
from repro.tech import gate_electrical as ge
from repro.tech.glitch import generated_width_array
from repro.tech.library import CellParams
from repro.tech.lut import GridTable

DEFAULT_SIZE_GRID: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0)
DEFAULT_LENGTH_GRID: tuple[float, ...] = (70.0, 100.0, 150.0, 250.0, 300.0)
DEFAULT_VDD_GRID: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2)
DEFAULT_VTH_GRID: tuple[float, ...] = (0.1, 0.2, 0.3, 0.35)
DEFAULT_LOAD_GRID: tuple[float, ...] = (0.1, 0.3, 0.8, 2.0, 5.0, 12.0, 30.0, 80.0)
DEFAULT_RAMP_GRID: tuple[float, ...] = (5.0, 20.0, 60.0)
DEFAULT_CHARGE_GRID: tuple[float, ...] = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: The four cell axes every switching table starts with.
_CELL = ("size", "length", "vdd", "vth")


class TechnologyTables:
    """Lazy cache of interpolated characterization tables.

    ``use_tables=False`` callers (the transient reference simulator)
    bypass this class and evaluate :mod:`repro.tech.gate_electrical`
    directly; the difference between the two paths is precisely the
    interpolation error that the Fig-3 correlation experiment measures.
    """

    def __init__(
        self,
        sizes: Iterable[float] = DEFAULT_SIZE_GRID,
        lengths_nm: Iterable[float] = DEFAULT_LENGTH_GRID,
        vdds: Iterable[float] = DEFAULT_VDD_GRID,
        vths: Iterable[float] = DEFAULT_VTH_GRID,
        loads_ff: Iterable[float] = DEFAULT_LOAD_GRID,
        ramps_ps: Iterable[float] = DEFAULT_RAMP_GRID,
        charges_fc: Iterable[float] = DEFAULT_CHARGE_GRID,
    ) -> None:
        self.sizes = tuple(sizes)
        self.lengths_nm = tuple(lengths_nm)
        self.vdds = tuple(vdds)
        self.vths = tuple(vths)
        self.loads_ff = tuple(loads_ff)
        self.ramps_ps = tuple(ramps_ps)
        self.charges_fc = tuple(charges_fc)
        for axis_name, axis in (
            ("sizes", self.sizes),
            ("lengths_nm", self.lengths_nm),
            ("vdds", self.vdds),
            ("vths", self.vths),
            ("loads_ff", self.loads_ff),
            ("ramps_ps", self.ramps_ps),
            ("charges_fc", self.charges_fc),
        ):
            if len(axis) == 0 or any(b <= a for a, b in zip(axis, axis[1:])):
                raise TableError(f"grid {axis_name!r} must be strictly increasing")
        # The array build does not validate per cell, so a non-physical
        # grid is refused here, with the error the scalar model raises.
        for axis_name, lowest, positive in (
            ("sizes", self.sizes[0], True),
            ("lengths_nm", self.lengths_nm[0], True),
            ("vths", self.vths[0], False),
            ("loads_ff", self.loads_ff[0], False),
            ("ramps_ps", self.ramps_ps[0], False),
            ("charges_fc", self.charges_fc[0], False),
        ):
            if lowest <= 0.0 if positive else lowest < 0.0:
                bound = "positive" if positive else "non-negative"
                raise TechnologyError(
                    f"grid {axis_name!r} must be {bound}, got {lowest}"
                )
        self._grids = {
            "size": self.sizes,
            "length": self.lengths_nm,
            "vdd": self.vdds,
            "vth": self.vths,
            "load": self.loads_ff,
            "ramp": self.ramps_ps,
            "charge": self.charges_fc,
        }
        self._cache: dict[tuple[str, GateType, int], GridTable] = {}
        self._stack_cache: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------

    def _get(self, kind: str, gtype: GateType, fanin: int) -> GridTable:
        key = (kind, gtype, fanin)
        table = self._cache.get(key)
        if table is None:
            # Cells with vdd <= vth cannot switch: their current is nan
            # or 0, and each builder replaces them with inf.
            with np.errstate(divide="ignore", invalid="ignore"):
                table = getattr(self, f"_build_{kind}")(gtype, fanin)
            self._cache[key] = table
        return table

    def stacked_values(
        self, kind: str, pairs: tuple[tuple[GateType, int], ...]
    ) -> np.ndarray:
        """``(len(pairs), *grid_shape)`` value tensor for one table kind.

        Every ``(gate type, fan-in)`` table of a kind samples the same
        grids, so their value arrays stack into one tensor indexable by
        a per-gate table id — the shape
        :func:`~repro.tech.lut.stacked_lookup` consumes.  Cached per
        ``(kind, pairs)``; circuits sharing gate populations share the
        stack, so it is read-only: a write by one consumer would corrupt
        every other.
        """
        key = (kind, pairs)
        stack = self._stack_cache.get(key)
        if stack is None:
            stack = np.stack(
                [self._get(kind, gtype, fanin).values for gtype, fanin in pairs]
            )
            stack.setflags(write=False)
            self._stack_cache[key] = stack
        return stack

    def _mesh(self, *names: str) -> tuple[list, list[np.ndarray]]:
        """The named axes and their ``ij`` meshgrid, one array per axis."""
        axes = [(name, self._grids[name]) for name in names]
        grids = np.meshgrid(
            *(np.array(grid, dtype=np.float64) for __, grid in axes),
            indexing="ij",
        )
        return axes, grids

    @staticmethod
    def _node(gtype, fanin, size, length, vdd, vth, load):
        """Output-node capacitance and drive current over a mesh."""
        node_cap = (
            ge.self_capacitance_array(size, ge.self_cap_factor(gtype, fanin))
            + load
        )
        current = ge.drive_current_array(
            size, length, vdd, vth, ge.drive_divisor(gtype, fanin)
        )
        return node_cap, current

    def _build_delay(self, gtype: GateType, fanin: int) -> GridTable:
        axes, (size, length, vdd, vth, load, ramp) = self._mesh(
            *_CELL, "load", "ramp"
        )
        node_cap, current = self._node(gtype, fanin, size, length, vdd, vth, load)
        step = ge.step_delay_array(node_cap, vdd, current)
        delay = step + k.RAMP_DELAY_FRACTION * ramp
        return GridTable(axes, np.where(vdd > vth, delay, np.inf))

    def _build_ramp(self, gtype: GateType, fanin: int) -> GridTable:
        axes, (size, length, vdd, vth, load) = self._mesh(*_CELL, "load")
        node_cap, current = self._node(gtype, fanin, size, length, vdd, vth, load)
        step = ge.step_delay_array(node_cap, vdd, current)
        return GridTable(axes, np.where(vdd > vth, k.RAMP_OF_DELAY * step, np.inf))

    def _build_glitch(self, gtype: GateType, fanin: int) -> GridTable:
        axes, (size, length, vdd, vth, load, charge) = self._mesh(
            *_CELL, "load", "charge"
        )
        node_cap, current = self._node(gtype, fanin, size, length, vdd, vth, load)
        width = generated_width_array(charge, node_cap, current, vdd)
        return GridTable(axes, np.where(vdd > vth, width, np.inf))

    def _build_input_cap(self, gtype: GateType, fanin: int) -> GridTable:
        axes, (size, length) = self._mesh("size", "length")
        factor = ge.input_cap_factor(gtype, fanin)
        return GridTable(axes, ge.input_capacitance_array(size, length, factor))

    def _build_static_power(self, gtype: GateType, fanin: int) -> GridTable:
        axes, (size, length, vdd, vth) = self._mesh(*_CELL)
        power = ge.static_power_array(
            size, length, vdd, vth, ge.leakage_stacks(gtype, fanin)
        )
        return GridTable(axes, np.where(vdd > vth, power, np.inf))

    def _build_dynamic_energy(self, gtype: GateType, fanin: int) -> GridTable:
        axes, (size, load, vdd) = self._mesh("size", "load", "vdd")
        total_cap = (
            ge.self_capacitance_array(size, ge.self_cap_factor(gtype, fanin))
            + load
        )
        return GridTable(axes, total_cap * vdd * vdd)

    # ------------------------------------------------------------------
    # Interpolated queries (the ASERTA-facing API)
    # ------------------------------------------------------------------

    def delay_ps(
        self,
        gtype: GateType,
        fanin: int,
        params: CellParams,
        load_ff: float,
        ramp_ps: float,
    ) -> float:
        return self._get("delay", gtype, fanin).lookup(
            size=params.size,
            length=params.length_nm,
            vdd=params.vdd,
            vth=params.vth,
            load=load_ff,
            ramp=ramp_ps,
        )

    def output_ramp_ps(
        self, gtype: GateType, fanin: int, params: CellParams, load_ff: float
    ) -> float:
        return self._get("ramp", gtype, fanin).lookup(
            size=params.size,
            length=params.length_nm,
            vdd=params.vdd,
            vth=params.vth,
            load=load_ff,
        )

    def generated_width_ps(
        self,
        gtype: GateType,
        fanin: int,
        params: CellParams,
        load_ff: float,
        charge_fc: float = k.DEFAULT_CHARGE_FC,
    ) -> float:
        return self._get("glitch", gtype, fanin).lookup(
            size=params.size,
            length=params.length_nm,
            vdd=params.vdd,
            vth=params.vth,
            load=load_ff,
            charge=charge_fc,
        )

    def input_cap_ff(self, gtype: GateType, fanin: int, params: CellParams) -> float:
        return self._get("input_cap", gtype, fanin).lookup(
            size=params.size, length=params.length_nm
        )

    def static_power_uw(
        self, gtype: GateType, fanin: int, params: CellParams
    ) -> float:
        return self._get("static_power", gtype, fanin).lookup(
            size=params.size,
            length=params.length_nm,
            vdd=params.vdd,
            vth=params.vth,
        )

    def dynamic_energy_fj(
        self, gtype: GateType, fanin: int, params: CellParams, load_ff: float
    ) -> float:
        return self._get("dynamic_energy", gtype, fanin).lookup(
            size=params.size, load=load_ff, vdd=params.vdd
        )

    def cached_table_count(self) -> int:
        return len(self._cache)


_DEFAULT_TABLES: TechnologyTables | None = None


def default_tables() -> TechnologyTables:
    """Process-wide shared table cache: every analysis in one process
    reuses one instance and the stacks it has built."""
    global _DEFAULT_TABLES
    if _DEFAULT_TABLES is None:
        _DEFAULT_TABLES = TechnologyTables()
    return _DEFAULT_TABLES


def reset_default_tables() -> TechnologyTables | None:
    """Drop the shared table singleton; returns the previous instance.

    The singleton accumulates lazily built :class:`GridTable` objects
    and their stacked tensors for the life of the process, so anything
    measuring a *cold* analysis (the campaign throughput benchmark, a
    profiling session) must reset it or the measurement silently rides
    whatever earlier analyses in the same process already paid for.
    Live analyzers holding a reference keep their (warm) instance; only
    the next :func:`default_tables` call builds a fresh one.
    """
    global _DEFAULT_TABLES
    previous = _DEFAULT_TABLES
    _DEFAULT_TABLES = None
    return previous
