"""ASERTA: Accurate Soft-ERror Tolerance Analysis (paper Section 3).

The analyzer is split along the paper's own seams:

* the *structural* ingredients — static probabilities ``p_i`` and
  sensitized-path probabilities ``P_ij`` — depend only on the netlist
  and are resolved once per circuit (``AsertaAnalyzer.__init__``),
  through the :class:`~repro.engine.engine.AnalysisEngine`: the batched
  fault-site simulator on a cold cache, a pure artifact lookup on a
  warm one;
* the *electrical* ingredients — generated glitch widths, delays,
  the expected-width propagation — depend on the parameter assignment
  and are recomputed by every :meth:`AsertaAnalyzer.analyze` call,
  which is what SERTOPT invokes in its inner loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Circuit
from repro.core.electrical_masking import (
    ElectricalMaskingResult,
    default_sample_widths,
    default_sample_widths_batch,
    electrical_masking,
    electrical_masking_many,
    electrical_masking_reference,
)
from repro.core.unreliability import (
    UnreliabilityReport,
    build_report,
    build_report_from_arrays,
    gate_contributions,
    total_unreliability,
)
from repro.engine.engine import AnalysisEngine, get_default_engine
from repro.engine.structural import sparse_paths_from_matrix
from repro.errors import AnalysisError, TechnologyError
from repro.logicsim.bitsim import BitParallelSimulator
from repro.logicsim.probability import static_probabilities
from repro.power.energy import activity_row, circuit_energy_batch
from repro.sta.timing import analyze_timing_batch
from repro.tech import constants as k
from repro.telemetry import resolve
from repro.tech.electrical_view import (
    CircuitElectrical,
    batched_electrical_arrays,
    continuous_electrical_arrays,
    stack_cell_param_arrays,
)
from repro.tech.library import ParameterAssignment
from repro.tech.table_builder import TechnologyTables, default_tables

#: Ceiling on one batch's ``(B, V, O, k+1)`` masking tensor, bytes —
#: :meth:`AsertaAnalyzer.analyze_many` splits larger populations into
#: chunks so memory stays flat on wide circuits.
DEFAULT_MAX_BATCH_BYTES = 1 << 28


@dataclass(frozen=True)
class AsertaConfig:
    """Knobs of one ASERTA analysis (defaults are the paper's protocol).

    Each field is an *analysis input*: changing any of them changes the
    estimate (and, in campaigns, the scenario digest), except that
    ``input_probability`` is pinned at 0.5 for now (see its comment).
    Units: charges in fC, probabilities dimensionless, widths counted
    (the sample-width grid itself is derived in ps).

    >>> AsertaConfig().n_vectors, AsertaConfig().n_sample_widths
    (10000, 10)
    >>> AsertaConfig(n_vectors=2000, seed=1).seed
    1
    """

    #: Random vectors for the P_ij estimate (paper: 10 000, as in [5]).
    n_vectors: int = 10000
    #: Seed for the random vectors.
    seed: int = 0
    #: Number of sample glitch widths in the electrical-masking pass
    #: (paper: 10).
    n_sample_widths: int = 10
    #: Injected charge per strike, fC (paper: fixed; 16 fC in Fig 1).
    charge_fc: float = k.DEFAULT_CHARGE_FC
    #: Static probability assumed at every primary input (paper: 0.5).
    #: Only 0.5 is accepted: the Section-3.1 simulation draws uniform
    #: input bits, so any other value would reach the Equation-2
    #: sensitizations and the activities but not ``P_ij``.
    input_probability: float = 0.5
    #: Route electrical queries through the interpolated look-up tables
    #: (the ASERTA architecture); False evaluates the continuous model.
    use_tables: bool = True

    def __post_init__(self) -> None:
        if self.n_vectors < 1:
            raise AnalysisError(f"n_vectors must be >= 1, got {self.n_vectors}")
        if self.n_sample_widths < 2:
            raise AnalysisError(
                f"n_sample_widths must be >= 2, got {self.n_sample_widths}"
            )
        if self.charge_fc < 0.0:
            raise AnalysisError(f"charge_fc must be >= 0, got {self.charge_fc}")
        if self.input_probability != 0.5:
            raise AnalysisError(
                f"input_probability must be 0.5, got {self.input_probability}: "
                "the P_ij simulation draws uniform input bits, so another "
                "value would mix two input models"
            )


@dataclass(frozen=True)
class AsertaBatch:
    """Dense metrics for a population of assignments (one row each).

    The batched analysis path deliberately skips building per-candidate
    :class:`AsertaReport`\\ s — no ``WS`` dict views, no per-gate report
    entries — because the SERTOPT inner loop only consumes these four
    reductions.  Call :meth:`AsertaAnalyzer.analyze` on the winning
    assignment for the full lazy report.
    """

    #: Equation-4 circuit unreliability ``U`` per candidate.
    totals: np.ndarray
    #: Circuit delay (longest path) per candidate, ps.
    delay_ps: np.ndarray
    #: Total per-cycle energy (dynamic + static) per candidate, fJ.
    energy_fj: np.ndarray
    #: Total relative layout area per candidate.
    area: np.ndarray

    def __len__(self) -> int:
        return int(self.totals.shape[0])


@dataclass(frozen=True)
class AsertaReport:
    """Everything one ASERTA run produces.

    ``unreliability`` holds the Equation-3/4 breakdown (``.total`` is
    the circuit unreliability U, in ps of vulnerable time per strike
    class), ``masking`` the Section-3.2 expected-width tables,
    ``electrical`` the annotated delays/widths/loads (ps, ps, fF) the
    analysis was computed from, and ``runtime_s`` the wall time of this
    analysis in seconds.
    """

    unreliability: UnreliabilityReport
    masking: ElectricalMaskingResult
    electrical: CircuitElectrical
    runtime_s: float

    @property
    def total(self) -> float:
        return self.unreliability.total


class AsertaAnalyzer:
    """Reusable analyzer bound to one circuit.

    Construction resolves the structure-only work (10 000-vector
    sensitization simulation, static probabilities, Equation-2 shares)
    through the analysis ``engine`` — simulated once, then served from
    the compiled-artifact cache for every later analyzer of the same
    circuit and protocol; each :meth:`analyze` evaluates one parameter
    assignment.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) records
    per-phase spans (``aserta.init.*``, ``aserta.electrical``,
    ``aserta.masking_sweep``, ``aserta.reduce``) and counters; ``None``
    (the default) makes every instrumentation point a no-op.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: AsertaConfig | None = None,
        tables: TechnologyTables | None = None,
        engine: AnalysisEngine | None = None,
        telemetry=None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.config = config if config is not None else AsertaConfig()
        self.tables = tables if tables is not None else default_tables()
        self.engine = engine if engine is not None else get_default_engine()
        self.telemetry = resolve(telemetry)
        self.simulator = BitParallelSimulator(circuit)
        self.probabilities = static_probabilities(
            circuit, self.config.input_probability
        )
        #: Dense integer view shared by every array pass.
        self.indexed = circuit.indexed()
        if self.config.use_tables:
            with self.telemetry.span("aserta.init.warm_tables"):
                self.engine.warm_stacked_tables(
                    self.tables, self.indexed.group_pairs
                )
        #: Dense ``(V, O)`` sensitized-path probabilities — simulated by
        #: the live-pair structural kernel or served from the artifact
        #: cache.
        with self.telemetry.span(
            "aserta.init.structural",
            circuit=circuit.name,
            n_vectors=self.config.n_vectors,
        ):
            self.p_matrix = self.engine.p_matrix(
                circuit,
                self.config.n_vectors,
                self.config.seed,
                simulator=self.simulator,
            )
        #: Assignment-independent Equation-2 structure (dense shares),
        #: resolved once and reused by every :meth:`analyze` call.
        with self.telemetry.span(
            "aserta.init.masking_structure", circuit=circuit.name
        ):
            self.structure = self.engine.masking_structure(
                circuit,
                self.probabilities,
                self.config.n_vectors,
                self.config.seed,
                self.config.input_probability,
            )
        #: Compiled Section-3.2 sweep plan (fused per-level gathers and
        #: slot schedule), cached on the structure and shared by
        #: :meth:`analyze` and :meth:`analyze_many`.
        with self.telemetry.span(
            "aserta.init.sweep_plan", circuit=circuit.name
        ):
            self.sweep_plan = self.engine.sweep_plan(self.structure)
        self._sensitized_paths: dict[str, dict[str, float]] | None = None
        self._activity_row: np.ndarray | None = None

    @property
    def sensitized_paths(self) -> dict[str, dict[str, float]]:
        """Sparse ``{gate: {output: P_ij}}`` view of :attr:`p_matrix`.

        Materialized lazily: the array analysis path never touches it,
        so a warm analyzer pays nothing for the dict view unless the
        reference engine or a dict-reading caller asks for it.
        """
        if self._sensitized_paths is None:
            self._sensitized_paths = sparse_paths_from_matrix(
                self.indexed, self.p_matrix
            )
        return self._sensitized_paths

    def observability(self) -> dict[str, float]:
        """Per-gate ``min(1, sum_j P_ij)`` via the shared dense summary
        (:func:`repro.logicsim.sensitization.observability_matrix`)."""
        from repro.logicsim.sensitization import observability_matrix

        return self.indexed.scatter(observability_matrix(self.p_matrix))

    def electrical_view(
        self,
        assignment: ParameterAssignment,
        charge_fc: float | None = None,
        vectorized: bool = True,
    ) -> CircuitElectrical:
        """The annotated electrical state for ``assignment``.

        ``charge_fc`` overrides the configured injected charge (used by
        the charge-sweep extension without re-estimating P_ij);
        ``vectorized=False`` runs the scalar per-gate walk (the oracle).
        """
        return CircuitElectrical(
            self.circuit,
            assignment,
            tables=self.tables,
            use_tables=self.config.use_tables,
            charge_fc=self.config.charge_fc if charge_fc is None else charge_fc,
            vectorized=vectorized,
        )

    def analyze(
        self,
        assignment: ParameterAssignment | None = None,
        sample_widths: np.ndarray | None = None,
        charge_fc: float | None = None,
        n_sample_widths: int | None = None,
        engine: str = "array",
    ) -> AsertaReport:
        """Estimate circuit unreliability under ``assignment``.

        ``n_sample_widths`` overrides the configured sample-width count
        without a second electrical pass (used by the campaign engine's
        analysis-config axis); ``sample_widths`` overrides the sampled
        widths entirely.  ``engine`` selects the implementation:
        ``"array"`` (the vectorized core) or ``"reference"`` (the
        original per-gate dict walk, kept for differential testing and
        benchmarking).
        """
        if engine not in ("array", "reference"):
            raise AnalysisError(
                f"engine must be 'array' or 'reference', got {engine!r}"
            )
        started = time.perf_counter()
        telemetry = self.telemetry
        telemetry.metrics.add("aserta.analyze.calls")
        assignment = assignment if assignment is not None else ParameterAssignment()
        with telemetry.span(
            "aserta.analyze", circuit=self.circuit.name, engine=engine
        ):
            with telemetry.span("aserta.electrical"):
                elec = self.electrical_view(
                    assignment,
                    charge_fc=charge_fc,
                    vectorized=engine == "array",
                )
                if sample_widths is None:
                    sample_widths = default_sample_widths(
                        elec,
                        self.config.n_sample_widths
                        if n_sample_widths is None
                        else n_sample_widths,
                    )
            if engine == "array":
                with telemetry.span("aserta.masking_sweep"):
                    masking = electrical_masking(
                        self.circuit,
                        elec,
                        sample_widths=sample_widths,
                        structure=self.structure,
                        plan=self.sweep_plan,
                    )
                with telemetry.span("aserta.reduce"):
                    assert masking.arrays is not None
                    arrays = elec.arrays()
                    report = build_report_from_arrays(
                        self.circuit.name,
                        masking.arrays,
                        generated=arrays["generated_width_ps"],
                        sizes=arrays["size"],
                    )
            else:
                with telemetry.span("aserta.masking_sweep"):
                    masking = electrical_masking_reference(
                        self.circuit,
                        elec,
                        self.probabilities,
                        self.sensitized_paths,
                        sample_widths,
                    )
                with telemetry.span("aserta.reduce"):
                    sizes = {
                        gate.name: assignment[gate.name].size
                        for gate in self.circuit.gates()
                    }
                    report = build_report(
                        self.circuit.name,
                        generated_widths=elec.generated_width_ps,
                        sizes=sizes,
                        expected=masking.expected,
                    )
        runtime = time.perf_counter() - started
        return AsertaReport(
            unreliability=report,
            masking=masking,
            electrical=elec,
            runtime_s=runtime,
        )

    @property
    def activities(self) -> np.ndarray:
        """Dense per-row switching activities (assignment-independent),
        built once and shared by every batched energy reduction."""
        if self._activity_row is None:
            self._activity_row = activity_row(self.indexed, self.probabilities)
        return self._activity_row

    def analyze_many(
        self,
        assignments=None,
        params: dict[str, np.ndarray] | None = None,
        charge_fc: float | None = None,
        n_sample_widths: int | None = None,
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
    ) -> AsertaBatch:
        """Analyze a *population* of assignments through one array pass.

        ``assignments`` is a sequence of :class:`ParameterAssignment`;
        alternatively ``params`` supplies the stacked ``(B, V)``
        ``size``/``length_nm``/``vdd``/``vth`` arrays directly (what the
        batched matcher produces), skipping the dict scatter entirely.
        Candidate assignments are stacked into the existing LUT gathers,
        the Section-3.2 sweep runs over a ``(B, V, O, k+1)`` tensor
        (chunked under ``max_batch_bytes``), and Equations 3-4 reduce
        per candidate — no per-candidate :class:`AsertaReport` is built.

        Lane ``b`` of :attr:`AsertaBatch.totals` is bit-identical to
        ``analyze(assignment_b).total`` (the differential test suite
        pins this); delay is exactly equal, energy and area match to
        float reassociation.  Both device models run this one body;
        ``config.use_tables`` only picks the population annotation.
        A non-physical cell on a gate row of ``params`` and a negative
        charge raise :class:`~repro.errors.TechnologyError`, as the
        scalar model does.
        """
        if (assignments is None) == (params is None):
            raise AnalysisError(
                "pass exactly one of assignments or params to analyze_many"
            )
        if (
            len(assignments) if assignments is not None
            else params["size"].shape[0]
        ) < 1:
            raise AnalysisError("analyze_many needs at least one candidate")
        idx = self.indexed
        if not idx.group_pairs:
            raise AnalysisError("circuit has no gates with positive delay")
        charge = self.config.charge_fc if charge_fc is None else charge_fc
        if charge < 0.0:
            raise TechnologyError(f"charge must be >= 0, got {charge}")
        if params is None:
            params = stack_cell_param_arrays(idx, assignments)
        else:
            _check_cells(idx, params)
        n_lanes = params["size"].shape[0]
        n_k = (
            self.config.n_sample_widths
            if n_sample_widths is None
            else n_sample_widths
        )
        per_lane = idx.n_signals * idx.n_outputs * (n_k + 1) * 8
        chunk = int(max(1, min(n_lanes, max_batch_bytes // max(1, per_lane))))

        telemetry = self.telemetry
        telemetry.metrics.add("aserta.analyze_many.calls")
        telemetry.metrics.add("aserta.analyze_many.lanes", n_lanes)
        totals = np.empty(n_lanes)
        delay = np.empty(n_lanes)
        energy = np.empty(n_lanes)
        area = np.empty(n_lanes)
        with telemetry.span(
            "aserta.analyze_many", circuit=self.circuit.name, lanes=n_lanes
        ):
            for start in range(0, n_lanes, chunk):
                stop = min(start + chunk, n_lanes)
                part = {
                    field: np.ascontiguousarray(values[start:stop])
                    for field, values in params.items()
                }
                with telemetry.span("aserta.electrical", lanes=stop - start):
                    if self.config.use_tables:
                        arrays = batched_electrical_arrays(
                            self.circuit, self.tables, part, charge_fc=charge
                        )
                    else:
                        arrays = continuous_electrical_arrays(
                            self.circuit, part, charge_fc=charge
                        )
                    samples = default_sample_widths_batch(
                        idx,
                        arrays["delay_ps"],
                        arrays["generated_width_ps"],
                        n_k,
                    )
                with telemetry.span(
                    "aserta.masking_sweep", lanes=stop - start
                ):
                    expected = electrical_masking_many(
                        self.structure,
                        arrays["delay_ps"],
                        arrays["generated_width_ps"],
                        samples,
                        plan=self.sweep_plan,
                    )
                # Equations 3-4 lane by lane over contiguous slices: the
                # exact reductions of the single-candidate path, so totals
                # stay bit-consistent with analyze().
                with telemetry.span("aserta.reduce", lanes=stop - start):
                    for lane in range(stop - start):
                        totals[start + lane] = total_unreliability(
                            gate_contributions(
                                part["size"][lane], expected[lane]
                            )
                        )
                    delay[start:stop] = analyze_timing_batch(
                        idx, arrays["delay_ps"]
                    ).delay_ps
                    energy[start:stop] = circuit_energy_batch(
                        idx, arrays, self.activities
                    )
                    area[start:stop] = arrays["area_units"][
                        :, idx.gate_rows
                    ].sum(axis=1)
        return AsertaBatch(
            totals=totals, delay_ps=delay, energy_fj=energy, area=area
        )


def _check_cells(idx, params: dict[str, np.ndarray]) -> None:
    """Refuse a ``params`` lane holding, on a gate row, a cell that
    :class:`~repro.tech.library.CellParams` would refuse (the population
    annotations evaluate without checking)."""
    size, length, vdd, vth = (
        np.asarray(params[field], dtype=np.float64)
        for field in ("size", "length_nm", "vdd", "vth")
    )
    if size.ndim != 2 or size.shape[1] != idx.n_signals:
        raise TechnologyError(
            f"expected (B, {idx.n_signals}) parameter arrays, got {size.shape}"
        )
    physical = (size > 0.0) & (length > 0.0) & (vth >= 0.0) & (vdd > vth)
    bad = np.argwhere(~physical[:, idx.gate_rows])
    if bad.size:
        lane, row = int(bad[0, 0]), int(idx.gate_rows[bad[0, 1]])
        cell = [float(a[lane, row]) for a in (size, length, vdd, vth)]
        raise TechnologyError(
            f"lane {lane}, gate {idx.order[row]!r}: non-physical cell "
            f"(size, length_nm, vdd, vth) = {tuple(cell)}"
        )
