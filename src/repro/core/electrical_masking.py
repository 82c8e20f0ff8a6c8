"""Electrical masking: the reverse-topological expected-width pass.

This is the paper's Section 3.2 algorithm, verbatim:

1. choose ``k`` sample glitch widths ``ws_k`` (the paper uses 10);
2. walk the circuit from primary outputs back to inputs, computing for
   every gate ``i`` the expected width ``WS_ijk`` that a glitch of width
   ``ws_k`` *at i's output* would have on arrival at primary output
   ``j``:

   * a PO gate maps every sample to itself (``WS_jjk = ws_k``) and, as
     the paper specifies, contributes nothing to other outputs;
   * an internal gate attenuates each sample through each successor
     ``s`` (Equation 1 with ``s``'s delay), looks up the successor's
     expected width by linear interpolation, and combines successors
     with the Equation-2 shares ``pi_isj``;

3. the expected width ``W_ij`` for the *generated* glitch ``w_i`` is
   interpolated out of the same table.

One pass costs ``O((V + E) * k * |outputs|)``; Lemma 1 (wide glitches
arrive with expected width ``w * P_ij``) holds by construction and is
property-tested.

Two implementations share that contract.  The array path sweeps a
*population*: :func:`electrical_masking_many` keeps the whole ``WS``
table of ``B`` candidates as one ``(B, V, O, k+1)`` tensor over the
indexed circuit, sweeps levels output-side-first, and resolves each
level's gates in a handful of NumPy reductions (Equation 1 via
:func:`~repro.tech.glitch.propagate_width_grid_batch`, the successor
lookup as a gathered linear interpolation, Equation 2 as an ``(E, O)``
share matrix from :class:`~repro.core.masking.MaskingStructure`);
:func:`electrical_masking` is lane 0 of the same body at ``B = 1``.
:func:`electrical_masking_reference` is the original dict-of-dicts
per-gate walk, kept as the differential-testing and benchmarking
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.circuit.indexed import IndexedCircuit
from repro.circuit.netlist import Circuit
from repro.core.masking import (
    DEFAULT_SHARE_EPSILON,
    MaskingStructure,
    masking_structure,
    propagation_shares,
)
from repro.core.sweep_plan import SweepPlan, sweep_plan_for
from repro.errors import AnalysisError
from repro.tech.electrical_view import CircuitElectrical
from repro.tech.glitch import propagate_width_array, propagate_width_grid_batch
from repro.tech.lut import bracket_queries_rows


_TAKE_GRIDS: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}


def _take_last(tab: np.ndarray, ind: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(tab, ind, axis=-1)`` without the per-call
    wrapper overhead — the sweeps below gather twice per level batch, so
    the index-grid construction is worth keeping lean (grids are cached
    per leading shape; the sweep revisits a handful of shapes)."""
    lead = tab.shape[:-1]
    grids = _TAKE_GRIDS.get(lead)
    if grids is None:
        if len(_TAKE_GRIDS) >= 256:
            _TAKE_GRIDS.clear()
        grids = tuple(
            np.ogrid[tuple(slice(n) for n in lead) + (slice(0, 1),)][:-1]
        )
        _TAKE_GRIDS[lead] = grids
    return tab[grids + (ind,)]


def _sweep_slots(structure: MaskingStructure):
    """Fan-out slot decomposition of every sweep batch.

    Served from the indexed circuit's cached topology schedule
    (:meth:`~repro.circuit.indexed.IndexedCircuit.sweep_index_plan`,
    which also feeds the compiled :class:`~repro.core.sweep_plan.SweepPlan`):
    within a batch, occurrence ``j`` of each source row forms a
    *unique-index* slot, so ``inner[srcs] += weighted[pos]`` per slot
    replays the exact per-element ``np.add.at`` accumulation order (a
    gate's successor contributions add in fan-out declaration order)
    with ordinary fancy-index adds.
    """
    __batches, slots = structure.indexed.sweep_index_plan()
    return slots


@dataclass(frozen=True)
class MaskingArrays:
    """Dense form of one electrical-masking pass."""

    indexed: IndexedCircuit
    #: Anchored ``WS`` tensor: ``ws[i, j, 1 + m]`` is ``WS_ijm`` and
    #: ``ws[i, j, 0] == 0`` (the "vanished glitch" interpolation anchor).
    ws: np.ndarray
    #: ``expected[i, j]`` is ``W_ij`` — dense Equation-3 weights.
    expected: np.ndarray

    @cached_property
    def populated_columns(self) -> dict[int, np.ndarray]:
        """Output columns with a populated ``WS`` table, per gate row.

        This is *the* sparsity rule of every name-keyed view (tables,
        expected widths, report ``widths_by_output``): an output appears
        exactly when the gate's table has a non-zero column for it —
        matching the reference pass, which stores a row only when its
        accumulated table is non-zero.
        """
        mask = self.ws.any(axis=2)
        return {
            int(row): np.flatnonzero(mask[row])
            for row in self.indexed.gate_rows
        }


class ElectricalMaskingResult:
    """Expected output glitch widths for one circuit + assignment.

    The array path carries the dense tensors; ``tables`` and
    ``expected`` — the original name-keyed views every existing caller
    reads — materialize lazily from them (or are supplied directly by
    the dict-based reference pass).
    """

    def __init__(
        self,
        sample_widths: np.ndarray,
        tables: dict[str, dict[str, np.ndarray]] | None = None,
        expected: dict[str, dict[str, float]] | None = None,
        arrays: MaskingArrays | None = None,
    ) -> None:
        if arrays is None and (tables is None or expected is None):
            raise AnalysisError(
                "ElectricalMaskingResult needs either dict tables or arrays"
            )
        #: The k sample widths ``ws_k`` (ascending, ps).
        self.sample_widths = sample_widths
        self.arrays = arrays
        self._tables = tables
        self._expected = expected

    @property
    def tables(self) -> dict[str, dict[str, np.ndarray]]:
        """``tables[i][j]`` is the length-k array ``WS_ijk``."""
        if self._tables is None:
            assert self.arrays is not None
            idx = self.arrays.indexed
            ws = self.arrays.ws
            outputs = idx.circuit.outputs
            self._tables = {
                idx.order[row]: {
                    outputs[col]: ws[row, col, 1:].copy() for col in cols
                }
                for row, cols in self.arrays.populated_columns.items()
            }
        return self._tables

    @property
    def expected(self) -> dict[str, dict[str, float]]:
        """``expected[i][j]`` is ``W_ij`` — expected width at output j
        for the strike-generated glitch at gate i."""
        if self._expected is None:
            assert self.arrays is not None
            idx = self.arrays.indexed
            exp = self.arrays.expected
            outputs = idx.circuit.outputs
            self._expected = {
                idx.order[row]: {
                    outputs[col]: float(exp[row, col]) for col in cols
                }
                for row, cols in self.arrays.populated_columns.items()
            }
        return self._expected

    def expected_width(self, gate_name: str, output_name: str) -> float:
        if self.arrays is not None:
            idx = self.arrays.indexed
            row = idx.index.get(gate_name)
            col = idx.output_col.get(output_name)
            if row is None or col is None:
                return 0.0
            return float(self.arrays.expected[row, col])
        return self.expected.get(gate_name, {}).get(output_name, 0.0)


def _sample_width_grid(
    min_delay: float, max_delay: float, widest: float, n_samples: int
) -> np.ndarray:
    """The one home of the sample-width grid formula.

    Every entry point (dict view, dense arrays, candidate batches)
    reduces its electrical state to ``(min delay, max delay, widest
    generated glitch)`` and calls this — the grids, and therefore the
    interpolated masking results, stay bitwise identical across paths.
    """
    low = max(min_delay * 0.5, 1e-3)
    high = max(2.2 * max_delay, 1.1 * widest, low * 4.0)
    return np.geomspace(low, high, n_samples)


def default_sample_widths(
    elec: CircuitElectrical, n_samples: int = 10
) -> np.ndarray:
    """Sample widths spanning "fully masked" to "propagates everywhere".

    The top sample exceeds twice the largest gate delay and the largest
    generated width, so it traverses any gate unattenuated (the Lemma-1
    regime); the bottom sample sits below the smallest delay.  Points
    are geometrically spaced, concentrating resolution where Equation 1
    is nonlinear.
    """
    if n_samples < 2:
        raise AnalysisError(f"need at least 2 sample widths, got {n_samples}")
    arrays = elec.native_arrays()
    if arrays is not None:
        # Array path: the same min/max reductions over the dense rows,
        # without materializing the name-keyed dict views.  Gate rows
        # only, exactly the population the dicts carry.
        rows = elec.circuit.indexed().gate_rows
        delay_rows = arrays["delay_ps"][rows]
        delays_arr = delay_rows[delay_rows > 0.0]
        if delays_arr.size == 0:
            raise AnalysisError("circuit has no gates with positive delay")
        width_rows = arrays["generated_width_ps"][rows]
        widest = float(width_rows.max()) if width_rows.size else 0.0
        return _sample_width_grid(
            float(delays_arr.min()), float(delays_arr.max()), widest, n_samples
        )
    delays = [d for d in elec.delay_ps.values() if d > 0.0]
    widths = [w for w in elec.generated_width_ps.values()]
    if not delays:
        raise AnalysisError("circuit has no gates with positive delay")
    return _sample_width_grid(
        min(delays), max(delays), max(widths, default=0.0), n_samples
    )


def _check_samples(sample_widths: np.ndarray) -> np.ndarray:
    samples = np.asarray(sample_widths, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 2 or np.any(np.diff(samples) <= 0.0):
        raise AnalysisError("sample widths must be a strictly increasing 1-D array")
    return samples


def electrical_masking(
    circuit: Circuit,
    elec: CircuitElectrical,
    probabilities: Mapping[str, float] | None = None,
    sensitized_paths: Mapping[str, Mapping[str, float]] | None = None,
    sample_widths: np.ndarray | None = None,
    structure: MaskingStructure | None = None,
    epsilon: float = DEFAULT_SHARE_EPSILON,
    plan: SweepPlan | None = None,
    fused: bool = True,
) -> ElectricalMaskingResult:
    """Run the Section-3.2 pass for one candidate over the array core.

    ``structure`` carries the assignment-independent Equation-2 shares;
    pass a prebuilt one (as :class:`~repro.core.aserta.AsertaAnalyzer`
    does) to amortize it over repeated analyses of one circuit.  A
    supplied structure *replaces* ``probabilities`` and
    ``sensitized_paths`` (which may then be omitted) — it must have
    been built from the same estimates, or the shares reflect stale
    ``P_ij``; a structure built from a different netlist is rejected
    (different live objects with identical content are accepted, which
    is what lets the artifact cache serve structures across circuit
    copies).  ``epsilon`` is the Equation-2 route-dropping cutoff, used
    only when the structure is built here.

    The sweep is lane 0 of the population body
    :func:`electrical_masking_many` runs, at ``B = 1``.  ``fused`` (the
    default) executes it through the compiled
    :class:`~repro.core.sweep_plan.SweepPlan` — bitwise identical to
    the unfused per-level loop, which ``fused=False`` keeps available as
    the in-tree reference for the differential suite.  ``plan``
    short-cuts the per-structure plan cache when the caller already
    holds one.
    """
    samples = (
        default_sample_widths(elec) if sample_widths is None
        else _check_samples(sample_widths)
    )
    if structure is None:
        if probabilities is None or sensitized_paths is None:
            raise AnalysisError(
                "electrical_masking needs probabilities and "
                "sensitized_paths when no structure is supplied"
            )
        structure = masking_structure(
            circuit, probabilities, sensitized_paths, epsilon=epsilon
        )
    elif (
        structure.indexed.circuit is not circuit
        and structure.indexed.circuit.content_digest()
        != circuit.content_digest()
    ):
        raise AnalysisError(
            "masking structure was built for a different circuit "
            f"({structure.indexed.circuit.name!r} vs {circuit.name!r})"
        )
    arrays = elec.arrays()
    ws, expected = _sweep_lanes(
        structure,
        arrays["delay_ps"][np.newaxis, :],
        arrays["generated_width_ps"][np.newaxis, :],
        samples[np.newaxis, :],
        plan,
        fused,
    )
    return ElectricalMaskingResult(
        sample_widths=samples,
        arrays=MaskingArrays(
            indexed=structure.indexed, ws=ws[0], expected=expected[0]
        ),
    )


def default_sample_widths_batch(
    indexed: IndexedCircuit,
    delays: np.ndarray,
    generated: np.ndarray,
    n_samples: int = 10,
) -> np.ndarray:
    """Per-candidate ``(B, k)`` sample-width grids.

    Row ``b`` equals :func:`default_sample_widths` of candidate ``b``'s
    electrical view bitwise: the min/max reductions are exact, and each
    row's grid comes from the same scalar ``np.geomspace`` call.
    """
    if n_samples < 2:
        raise AnalysisError(f"need at least 2 sample widths, got {n_samples}")
    rows = indexed.gate_rows
    delay_rows = np.asarray(delays, dtype=np.float64)[:, rows]
    width_rows = np.asarray(generated, dtype=np.float64)[:, rows]
    out = np.empty((delay_rows.shape[0], n_samples))
    for lane in range(delay_rows.shape[0]):
        lane_delays = delay_rows[lane][delay_rows[lane] > 0.0]
        if lane_delays.size == 0:
            raise AnalysisError("circuit has no gates with positive delay")
        widest = (
            float(width_rows[lane].max()) if width_rows[lane].size else 0.0
        )
        out[lane] = _sample_width_grid(
            float(lane_delays.min()),
            float(lane_delays.max()),
            widest,
            n_samples,
        )
    return out


def electrical_masking_many(
    structure: MaskingStructure,
    delays: np.ndarray,
    generated: np.ndarray,
    sample_widths: np.ndarray,
    plan: SweepPlan | None = None,
    fused: bool = True,
) -> np.ndarray:
    """The Section-3.2 sweep for a *population* of candidates at once.

    ``delays`` and ``generated`` are ``(B, V)`` per-candidate electrical
    annotations; ``sample_widths`` is the ``(B, k)`` per-candidate grid.
    Returns the dense ``(B, V, O)`` Equation-3 expected-width matrix —
    the only masking output the batched cost loop needs, so per-candidate
    ``WS`` dict views and reports are never materialized.

    Lanes are independent: lane ``b`` performs the exact operation
    sequence :func:`electrical_masking` performs on candidate ``b``
    alone (the same body at ``B = 1``), so the expected-width matrices —
    and the Equation-4 totals reduced from them — are bit-identical to
    the one-candidate path.

    ``fused`` (the default) runs the sweep through the compiled
    :class:`~repro.core.sweep_plan.SweepPlan`, bitwise identical to the
    unfused per-level loop, which ``fused=False`` preserves as the
    differential reference.
    """
    idx = structure.indexed
    delays = np.asarray(delays, dtype=np.float64)
    samples = np.asarray(sample_widths, dtype=np.float64)
    generated = np.asarray(generated, dtype=np.float64)
    if delays.ndim != 2 or delays.shape[1] != idx.n_signals:
        raise AnalysisError(
            f"expected (B, {idx.n_signals}) delays, got {delays.shape}"
        )
    if samples.ndim != 2 or samples.shape[0] != delays.shape[0]:
        raise AnalysisError(
            "sample widths must be (B, k) aligned with the delay batch"
        )
    if np.any(np.diff(samples, axis=1) <= 0.0):
        raise AnalysisError("sample widths must be strictly increasing rows")
    return _sweep_lanes(structure, delays, generated, samples, plan, fused)[1]


def _sweep_lanes(
    structure: MaskingStructure,
    delays: np.ndarray,
    generated: np.ndarray,
    samples: np.ndarray,
    plan: SweepPlan | None,
    fused: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The population sweep body: ``(ws, expected)`` for validated
    ``(B, V)`` delays / generated widths and ``(B, k)`` sample grids —
    the anchored ``(B, V, O, k+1)`` ``WS`` tensor and the ``(B, V, O)``
    Equation-3 weights."""
    idx = structure.indexed
    n_lanes, n_samples = samples.shape
    anchored_x = np.concatenate(
        (np.zeros((n_lanes, 1)), samples), axis=1
    )
    ws = np.zeros((n_lanes, idx.n_signals, idx.n_outputs, n_samples + 1))

    # Step (ii): PO gates present the samples directly to their latch
    # and nothing to other latches.
    po_rows = idx.output_rows
    po_cols = idx.col_of_row[po_rows]
    ws[:, po_rows, po_cols, 1:] = samples[:, np.newaxis, :]

    # Equation 1 for the whole circuit: what each gate (as a successor)
    # does to every sample width, and where that lands on the anchored
    # grid (the same clamped-bracket semantics as every table lookup).
    attenuated = propagate_width_grid_batch(samples, delays)
    low, high, frac = bracket_queries_rows(anchored_x, attenuated, "width")

    # Step (iii), one logic level at a time from the output side: gather
    # successor tables, interpolate at the attenuated widths, combine
    # with the Equation-2 shares, scatter-add onto the sources.
    if fused:
        if plan is None:
            plan = sweep_plan_for(structure)
        plan.run_batch(ws, low, high, frac)
    else:
        inner = ws[..., 1:]
        edge_share = structure.edge_shares
        edge_dst = idx.edge_dst
        for edges, batch_slots in zip(
            structure.sweep_batches, _sweep_slots(structure)
        ):
            dst = edge_dst[edges]
            tab = ws[:, dst]
            f = frac[:, dst][:, :, np.newaxis, :]
            t_lo = _take_last(tab, low[:, dst][:, :, np.newaxis, :])
            t_hi = _take_last(tab, high[:, dst][:, :, np.newaxis, :])
            contribution = t_lo * (1.0 - f) + t_hi * f
            weighted = (
                edge_share[edges][np.newaxis, :, :, np.newaxis] * contribution
            )
            for pos, srcs in batch_slots:
                inner[:, srcs] += weighted[:, pos]

    # Step (iv): expected widths for the generated glitches, one
    # interpolation per (gate, output) out of the same tensor.
    g_low, g_high, g_frac = bracket_queries_rows(
        anchored_x, generated, "width"
    )
    g_lo = _take_last(ws, g_low[:, :, np.newaxis, np.newaxis])
    g_hi = _take_last(ws, g_high[:, :, np.newaxis, np.newaxis])
    expected = (
        g_lo[..., 0] * (1.0 - g_frac[:, :, np.newaxis])
        + g_hi[..., 0] * g_frac[:, :, np.newaxis]
    )
    # A PO gate's generated glitch reaches its own latch unattenuated.
    expected[:, po_rows, po_cols] = generated[:, po_rows]
    return ws, expected


def electrical_masking_reference(
    circuit: Circuit,
    elec: CircuitElectrical,
    probabilities: Mapping[str, float],
    sensitized_paths: Mapping[str, Mapping[str, float]],
    sample_widths: np.ndarray | None = None,
    epsilon: float = DEFAULT_SHARE_EPSILON,
) -> ElectricalMaskingResult:
    """The original per-gate dict walk (the seed implementation).

    Kept verbatim as the baseline the vectorized pass is differential-
    tested and benchmarked against; see the module docstring.
    """
    samples = (
        default_sample_widths(elec) if sample_widths is None
        else _check_samples(sample_widths)
    )

    tables: dict[str, dict[str, np.ndarray]] = {}
    expected: dict[str, dict[str, float]] = {}
    # Interpolations are anchored at (0, 0): a vanished glitch has zero
    # expected width (plain np.interp would clamp sub-sample queries up
    # to the smallest sample's value).
    anchored_x = np.concatenate(([0.0], samples))

    def interp_anchored(query, table: np.ndarray):
        return np.interp(query, anchored_x, np.concatenate(([0.0], table)))

    for name in circuit.reverse_topological_order():
        gate = circuit.gate(name)
        if gate.is_input:
            continue

        if circuit.is_output(name):
            # Step (ii): a PO gate presents samples (and its own generated
            # glitch) directly to its latch, and nothing to other latches.
            tables[name] = {name: samples.copy()}
            expected[name] = {name: float(elec.generated_width_ps[name])}
            continue

        # Step (iii): attenuate each sample through each successor, look
        # up the successor's expected widths, combine with pi_isj.
        row = sensitized_paths.get(name, {})
        table_row: dict[str, np.ndarray] = {}
        attenuated: dict[str, np.ndarray] = {}
        interp_cache: dict[tuple[str, str], np.ndarray] = {}
        for output_name, p_ij in row.items():
            if p_ij <= 0.0:
                continue
            shares = propagation_shares(
                circuit, probabilities, sensitized_paths, name, output_name,
                epsilon=epsilon,
            )
            if not shares:
                continue
            accumulated = np.zeros_like(samples)
            for successor, share in shares.items():
                key = (successor, output_name)
                contribution = interp_cache.get(key)
                if contribution is None:
                    successor_table = tables.get(successor, {}).get(output_name)
                    if successor_table is None:
                        contribution = np.zeros_like(samples)
                    else:
                        widths_out = attenuated.get(successor)
                        if widths_out is None:
                            delay = elec.delay_ps[successor]
                            widths_out = propagate_width_array(samples, delay)
                            attenuated[successor] = widths_out
                        contribution = interp_anchored(
                            widths_out, successor_table
                        )
                    interp_cache[key] = contribution
                accumulated += share * contribution
            if accumulated.any():
                table_row[output_name] = accumulated
        tables[name] = table_row

        # Step (iv): expected widths for this gate's generated glitch.
        generated = float(elec.generated_width_ps[name])
        expected[name] = {
            output_name: float(interp_anchored(generated, table))
            for output_name, table in table_row.items()
        }

    return ElectricalMaskingResult(
        sample_widths=samples, tables=tables, expected=expected
    )
