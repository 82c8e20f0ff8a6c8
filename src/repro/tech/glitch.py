"""Glitch generation and propagation models (paper Section 2, Equation 1).

Equation 1 of the paper approximates the width ``w_o`` of a glitch after
passing through a gate of propagation delay ``d``, for an input glitch
of width ``w_i``::

    w_o = 0             if w_i <  d
    w_o = 2 (w_i - d)   if d <= w_i <= 2 d
    w_o = w_i           if w_i >  2 d

The function is continuous, non-decreasing in ``w_i`` and non-increasing
in ``d`` — slow gates attenuate harder, which is half of the tension
SERTOPT balances (the other half: slow gates *generate* wider glitches,
:func:`generated_width_ps`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TechnologyError
from repro.tech import constants as k
from repro.units import PS_PER_FF_V_PER_UA


def propagate_width(width_in_ps: float, delay_ps: float) -> float:
    """Equation 1: output glitch width for one gate traversal."""
    if width_in_ps < 0.0:
        raise TechnologyError(f"glitch width must be >= 0, got {width_in_ps}")
    if delay_ps < 0.0:
        raise TechnologyError(f"gate delay must be >= 0, got {delay_ps}")
    if width_in_ps < delay_ps:
        return 0.0
    if width_in_ps <= 2.0 * delay_ps:
        return 2.0 * (width_in_ps - delay_ps)
    return float(width_in_ps)


def propagate_width_array(widths_ps: np.ndarray, delay_ps: float) -> np.ndarray:
    """Vectorized Equation 1 over an array of input widths."""
    if delay_ps < 0.0:
        raise TechnologyError(f"gate delay must be >= 0, got {delay_ps}")
    widths = np.asarray(widths_ps, dtype=np.float64)
    if np.any(widths < 0.0):
        raise TechnologyError("glitch widths must be >= 0")
    doubled = 2.0 * (widths - delay_ps)
    out = np.where(widths > 2.0 * delay_ps, widths, doubled)
    return np.where(widths < delay_ps, 0.0, out)


def propagate_width_grid_batch(
    widths_ps: np.ndarray, delays_ps: np.ndarray
) -> np.ndarray:
    """Equation 1 over whole circuits at once: ``(B, V, k)`` output
    widths from per-candidate ``(B, k)`` sample widths and ``(B, V)``
    delays.

    This is :func:`propagate_width_array` evaluated for every candidate
    and gate in one shot — the inner kernel of the vectorized
    Section-3.2 sweep.
    """
    widths = np.asarray(widths_ps, dtype=np.float64)
    delays = np.asarray(delays_ps, dtype=np.float64)
    if np.any(widths < 0.0):
        raise TechnologyError("glitch widths must be >= 0")
    if np.any(delays < 0.0):
        raise TechnologyError("gate delays must be >= 0")
    w = widths[:, np.newaxis, :]
    d = delays[:, :, np.newaxis]
    doubled = 2.0 * (w - d)
    out = np.where(w > 2.0 * d, w, doubled)
    return np.where(w < d, 0.0, out)


def critical_charge_fc(node_capacitance_ff: float, vdd: float) -> float:
    """Charge needed to pull the struck node across the VDD/2 threshold."""
    if node_capacitance_ff <= 0.0:
        raise TechnologyError("node capacitance must be positive")
    if vdd <= 0.0:
        raise TechnologyError("VDD must be positive")
    return node_capacitance_ff * vdd / 2.0


def generated_width_ps(
    charge_fc: float,
    node_capacitance_ff: float,
    restore_current_ua: float,
    vdd: float,
) -> float:
    """Width of the glitch generated by a particle strike on a node.

    A strike deposits ``charge_fc``; if it exceeds the critical charge
    (the amount that moves the node past the VDD/2 logic threshold) the
    node stays upset until the driving gate's restoring current removes
    the excess.  The width grows *sublinearly* with the linear
    charge-removal time ``(Q - Qcrit)/I`` (exponent
    :data:`repro.tech.constants.SET_SATURATION_EXPONENT`): the excursion
    clips at the supply rails and recovers along an exponential tail, so
    weakening the driver widens the pulse by less than the drive loss.
    All of the paper's Fig-1 directions hold — anything that weakens the
    driver (smaller size, longer channel, lower VDD, higher Vth) widens
    the generated glitch — while the width-to-delay ratio shrinks as a
    gate is slowed, which is what makes electrical masking optimizable
    (the premise of the paper's Section 2 discussion).
    """
    if charge_fc < 0.0:
        raise TechnologyError(f"injected charge must be >= 0, got {charge_fc}")
    if restore_current_ua <= 0.0:
        raise TechnologyError("restoring current must be positive")
    critical = critical_charge_fc(node_capacitance_ff, vdd)
    if charge_fc <= critical:
        return 0.0
    excess = charge_fc - critical
    removal_ps = PS_PER_FF_V_PER_UA * excess / restore_current_ua
    return k.STRIKE_TAU_PS + k.SET_WIDTH_SCALE_PS * removal_ps**k.SET_SATURATION_EXPONENT


def generated_width_array(charge_fc, node_capacitance_ff, restore_current_ua, vdd):
    """Array twin of :func:`generated_width_ps`: 0 at or below the
    critical charge.  No validation: callers pass physical values.

    The saturation power goes through ``np.float_power``, which matches
    the scalar's Python ``**`` bit for bit; ``np.power`` does not (it
    is up to 2 ulp off on some inputs).
    """
    critical = node_capacitance_ff * vdd / 2.0
    removal_ps = PS_PER_FF_V_PER_UA * (charge_fc - critical) / restore_current_ua
    upset = charge_fc > critical
    width = k.STRIKE_TAU_PS + k.SET_WIDTH_SCALE_PS * np.float_power(
        np.where(upset, removal_ps, 0.0), k.SET_SATURATION_EXPONENT
    )
    return np.where(upset, width, 0.0)
