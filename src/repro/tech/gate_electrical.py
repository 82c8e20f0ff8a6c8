"""Gate-level electrical model: delay, ramps, capacitances, energies.

Single-stage CMOS gate model on top of :mod:`repro.tech.mosfet`, with
logical-effort-style corrections for gate type and fan-in (series device
stacks weaken drive; wider input structures add capacitance).  These are
the "SPICE runs" of this reproduction, which the transient reference
simulator calls directly.

Each ``*_array`` function is the array twin of the scalar function
above it: the same operations in the same order over broadcast arrays,
so every element is bit-identical to the scalar call, which is its
oracle.  The table builder and the continuous population model use
them.  Twins take the gate type's factor (:func:`drive_divisor`,
:func:`input_cap_factor`, :func:`self_cap_factor`,
:func:`leakage_stacks`) instead of
``(gtype, fanin)``, so one call can mix gate types, and they do not
validate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.gate import GateType
from repro.errors import TechnologyError
from repro.tech import constants as k
from repro.tech import mosfet
from repro.units import PS_PER_FF_V_PER_UA, THERMAL_VOLTAGE_V


def drive_divisor(gtype: GateType, fanin: int) -> float:
    """How much the worst-case input weakens the gate's drive current.

    Series NMOS stacks (NAND-like) and the heavier series PMOS stacks
    (NOR-like) divide the available restoring current; XOR-class gates
    pay for their pass/complementary structure.
    """
    if fanin < 1:
        raise TechnologyError(f"fan-in must be >= 1, got {fanin}")
    if gtype in (GateType.BUF, GateType.NOT):
        return 1.0
    if gtype in (GateType.AND, GateType.NAND):
        return 1.0 + 0.45 * (fanin - 1)
    if gtype in (GateType.OR, GateType.NOR):
        return 1.0 + 0.60 * (fanin - 1)
    if gtype in (GateType.XOR, GateType.XNOR):
        return 1.6 + 0.40 * (fanin - 2)
    raise TechnologyError(f"primary inputs have no drive ({gtype})")


def input_cap_factor(gtype: GateType, fanin: int) -> float:
    """Logical-effort-like multiplier on per-input gate capacitance."""
    if fanin < 1:
        raise TechnologyError(f"fan-in must be >= 1, got {fanin}")
    if gtype in (GateType.BUF, GateType.NOT):
        return 1.0
    if gtype in (GateType.AND, GateType.NAND):
        return (fanin + 2.0) / 3.0
    if gtype in (GateType.OR, GateType.NOR):
        return (2.0 * fanin + 1.0) / 3.0
    if gtype in (GateType.XOR, GateType.XNOR):
        return 2.0
    raise TechnologyError(f"primary inputs have no input capacitance ({gtype})")


def self_cap_factor(gtype: GateType, fanin: int) -> float:
    """Parasitic (drain) capacitance multiplier for the output node."""
    if fanin < 1:
        raise TechnologyError(f"fan-in must be >= 1, got {fanin}")
    base = 1.0 + 0.30 * (fanin - 1)
    if gtype in (GateType.XOR, GateType.XNOR):
        return 1.5 * base
    return base


def transistor_count(gtype: GateType, fanin: int) -> int:
    """Transistors in the static-CMOS realization (for area and leakage)."""
    if gtype in (GateType.BUF, GateType.NOT):
        return 2 * (2 if gtype is GateType.BUF else 1)
    if gtype in (GateType.NAND, GateType.NOR):
        return 2 * fanin
    if gtype in (GateType.AND, GateType.OR):
        return 2 * fanin + 2
    if gtype in (GateType.XOR, GateType.XNOR):
        return 4 * fanin + 2
    raise TechnologyError(f"primary inputs have no transistors ({gtype})")


def leakage_stacks(gtype: GateType, fanin: int) -> float:
    """Leaking device stacks the gate's leakage scales with."""
    return max(1.0, transistor_count(gtype, fanin) / 4.0)


def drive_current_ua(
    gtype: GateType,
    fanin: int,
    size: float,
    length_nm: float,
    vdd: float,
    vth: float,
) -> float:
    """Restoring/output drive current through the worst-case stack, uA."""
    width = mosfet.size_to_width_nm(size)
    return mosfet.on_current_ua(width, length_nm, vdd, vth) / drive_divisor(
        gtype, fanin
    )


def drive_current_array(size, length_nm, vdd, vth, divisor):
    """Array twin of :func:`drive_current_ua` (``divisor`` is
    :func:`drive_divisor`); ``nan`` where ``vdd < vth``."""
    width = size * k.WIDTH_PER_SIZE_NM
    return (
        k.CURRENT_SCALE_UA
        * (width / length_nm)
        * np.power(vdd - vth, k.ALPHA)
        / divisor
    )


def input_capacitance_ff(
    gtype: GateType, fanin: int, size: float, length_nm: float
) -> float:
    """Capacitance presented by one input pin of the gate, fF."""
    width = mosfet.size_to_width_nm(size)
    return mosfet.gate_capacitance_ff(width, length_nm) * input_cap_factor(
        gtype, fanin
    )


def input_capacitance_array(size, length_nm, factor):
    """Array twin of :func:`input_capacitance_ff` (``factor`` is
    :func:`input_cap_factor`)."""
    width = size * k.WIDTH_PER_SIZE_NM
    return (
        k.GATE_CAP_PER_NM_FF * width * (length_nm / k.NOMINAL_LENGTH_NM) * factor
    )


def self_capacitance_ff(
    gtype: GateType, fanin: int, size: float
) -> float:
    """Parasitic capacitance the gate contributes to its own output, fF."""
    width = mosfet.size_to_width_nm(size)
    return mosfet.drain_capacitance_ff(width) * self_cap_factor(gtype, fanin)


def self_capacitance_array(size, factor):
    """Array twin of :func:`self_capacitance_ff` (``factor`` is
    :func:`self_cap_factor`)."""
    width = size * k.WIDTH_PER_SIZE_NM
    return k.DRAIN_CAP_PER_NM_FF * width * factor


def propagation_delay_ps(
    gtype: GateType,
    fanin: int,
    size: float,
    length_nm: float,
    vdd: float,
    vth: float,
    load_ff: float,
    input_ramp_ps: float = 0.0,
) -> float:
    """Gate propagation delay in ps, to the 50% crossing.

    Step-input delay is the time for the drive current to move the
    output node (self + external load) across half the supply, plus a
    fraction of the input ramp (a slow input turns the gate on late).
    """
    if load_ff < 0.0:
        raise TechnologyError(f"load must be >= 0, got {load_ff} fF")
    if input_ramp_ps < 0.0:
        raise TechnologyError(f"input ramp must be >= 0, got {input_ramp_ps} ps")
    current = drive_current_ua(gtype, fanin, size, length_nm, vdd, vth)
    total_cap = self_capacitance_ff(gtype, fanin, size) + load_ff
    step = PS_PER_FF_V_PER_UA * total_cap * vdd / (2.0 * current)
    return step + k.RAMP_DELAY_FRACTION * input_ramp_ps


def step_delay_array(total_cap_ff, vdd, current_ua):
    """Array twin of :func:`propagation_delay_ps`'s step-input term: the
    time ``current_ua`` takes to move ``total_cap_ff`` across half the
    supply, ps."""
    return PS_PER_FF_V_PER_UA * total_cap_ff * vdd / (2.0 * current_ua)


def output_ramp_ps(
    gtype: GateType,
    fanin: int,
    size: float,
    length_nm: float,
    vdd: float,
    vth: float,
    load_ff: float,
) -> float:
    """Output transition time (ramp) in ps, proportional to step delay."""
    step = propagation_delay_ps(gtype, fanin, size, length_nm, vdd, vth, load_ff)
    return k.RAMP_OF_DELAY * step


def dynamic_energy_fj(
    gtype: GateType, fanin: int, size: float, load_ff: float, vdd: float
) -> float:
    """Energy of one full output transition, fJ (``C V^2``)."""
    if load_ff < 0.0:
        raise TechnologyError(f"load must be >= 0, got {load_ff} fF")
    total_cap = self_capacitance_ff(gtype, fanin, size) + load_ff
    return total_cap * vdd * vdd


def static_power_uw(
    gtype: GateType,
    fanin: int,
    size: float,
    length_nm: float,
    vdd: float,
    vth: float,
) -> float:
    """Leakage power in uW (= uA * V), scaled by the leaking stack count."""
    width = mosfet.size_to_width_nm(size)
    per_stack = mosfet.leakage_current_ua(width, length_nm, vth)
    return per_stack * leakage_stacks(gtype, fanin) * vdd


def static_power_array(size, length_nm, vdd, vth, stacks):
    """Array twin of :func:`static_power_uw` (``stacks`` is
    :func:`leakage_stacks`).

    The subthreshold exponential is one ``math.exp`` per distinct Vth,
    as the scalar leakage model evaluates it: ``np.exp``'s vectorized
    loop need not match libm to the last ulp.
    """
    levels, which = np.unique(vth, return_inverse=True)
    scale = k.SUBTHRESHOLD_N * THERMAL_VOLTAGE_V
    leak = np.array([math.exp(-v / scale) for v in levels.tolist()])
    leak = leak[which].reshape(np.shape(vth))
    width = size * k.WIDTH_PER_SIZE_NM
    return k.LEAKAGE_SCALE_UA * (width / length_nm) * leak * stacks * vdd


def area_units(gtype: GateType, fanin: int, size: float, length_nm: float) -> float:
    """Relative layout area: transistor count x size x (L / L_nominal)."""
    return (
        transistor_count(gtype, fanin)
        * size
        * (length_nm / k.NOMINAL_LENGTH_NM)
    )
