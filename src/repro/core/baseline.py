"""Timing-driven baseline sizing (the paper's starting point).

The paper's Table-1 baselines are ISCAS'85 circuits "optimized for speed
using Synopsys Design Compiler", then fixed at L = 70 nm, VDD = 1 V,
Vth = 0.2 V.  :func:`size_for_speed` reproduces that starting point with
a greedy critical-path sizing loop: repeatedly upsize the gates on the
critical path (which shortens their own delay at the cost of loading
their predecessors) until the circuit delay stops improving or the size
menu is exhausted.
"""

from __future__ import annotations

from dataclasses import replace

from repro.circuit.netlist import Circuit
from repro.sta.timing import analyze_timing_batch, critical_path
from repro.tech.electrical_view import (
    cell_param_arrays,
    continuous_delay_arrays,
)
from repro.tech.library import CellLibrary, CellParams, NOMINAL_CELL, ParameterAssignment


def size_for_speed(
    circuit: Circuit,
    library: CellLibrary | None = None,
    max_rounds: int = 12,
) -> ParameterAssignment:
    """Greedy speed-oriented sizing at the nominal operating point.

    Only gate *size* varies (like the paper's baseline); channel length,
    VDD and Vth stay at the nominal cell's values.  Returns the
    resulting assignment.

    Delay probes run through the batched continuous model
    (:func:`continuous_delay_arrays` is bitwise equal to the scalar
    ``use_tables=False`` annotation), so the sizing decisions — and the
    returned baseline — are unchanged from the original scalar loop,
    just cheaper.  The baseline is defined on the continuous model, so
    no technology tables are involved.
    """
    sizes = sorted(library.sizes) if library is not None else [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    assignment = ParameterAssignment(default=NOMINAL_CELL)
    indexed = circuit.indexed()

    def delay_rows(asg: ParameterAssignment):
        params = {
            field: values[None, :]
            for field, values in cell_param_arrays(indexed, asg).items()
        }
        return continuous_delay_arrays(circuit, params)["delay_ps"]

    def circuit_delay(asg: ParameterAssignment) -> float:
        return float(analyze_timing_batch(indexed, delay_rows(asg)).delay_ps[0])

    best_delay = circuit_delay(assignment)
    for __ in range(max_rounds):
        delays = delay_rows(assignment)[0]
        path = critical_path(
            circuit, indexed.scatter(delays, indexed.gate_rows)
        )
        candidate = assignment.copy()
        changed = False
        for name in path:
            current = candidate[name]
            larger = [s for s in sizes if s > current.size]
            if larger:
                candidate.set(name, replace(current, size=larger[0]))
                changed = True
        if not changed:
            break
        new_delay = circuit_delay(candidate)
        if new_delay >= best_delay:
            break
        best_delay = new_delay
        assignment = candidate
    return assignment
