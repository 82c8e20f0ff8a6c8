"""SERTOPT: Soft-ERror Tolerance OPTimization (paper Section 4).

One :meth:`Sertopt.optimize` call performs the paper's flow:

1. start from a speed-optimized baseline at the nominal operating point
   (L = 70 nm, VDD = 1 V, Vth = 0.2 V);
2. build the path topology matrix and its nullspace
   (:class:`repro.core.delay_assignment.DelaySpace`), so delay
   assignments can vary without disturbing (represented) path delays;
3. search the nullspace coefficients with the configured optimizer;
   every candidate is matched onto the discrete cell library in reverse
   topological order (:class:`repro.core.matching.MatchingEngine`) and
   scored with the Equation-5 cost
   (:class:`repro.core.cost.CostEvaluator`), whose unreliability term
   comes from a full ASERTA analysis;
4. report baseline-vs-optimized ratios — the columns of the paper's
   Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.circuit.netlist import Circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.core.baseline import size_for_speed
from repro.core.cost import CostBreakdown, CostEvaluator, CostWeights
from repro.core.delay_assignment import DelaySpace
from repro.core.matching import MatchingEngine
from repro.core.optimizers import OptimizeResult, run_optimizer
from repro.engine.engine import AnalysisEngine
from repro.errors import OptimizationError
from repro.sta.timing import analyze_timing
from repro.tech.electrical_view import CircuitElectrical
from repro.tech.library import CellLibrary, ParameterAssignment
from repro.tech.table_builder import TechnologyTables
from repro.telemetry import resolve


@dataclass(frozen=True)
class SertoptConfig:
    """SERTOPT knobs (defaults sized for ISCAS'85-scale circuits)."""

    weights: CostWeights = field(default_factory=CostWeights)
    #: Optimizer: "coordinate" (systematic +-probes along each
    #: timing-neutral direction; deterministic and the most robust on
    #: the piecewise-constant matched objective), "annealing", or
    #: "slsqp" (the paper's SQP, with a coarse finite-difference step).
    optimizer: str = "coordinate"
    #: Cost evaluations allowed for the search.
    max_evaluations: int = 150
    #: Paths used to build the topology matrix (exhaustive below this).
    max_paths: int = 800
    #: Cap on the nullspace dimension explored (None = full nullspace).
    max_dimension: int | None = 24
    #: Half-width of the box on nullspace coefficients, in ps.  Large on
    #: purpose: electrical masking only bites once gates on glitch routes
    #: are slowed into the d ~ w/2 regime, hundreds of ps for 16 fC
    #: strikes, and the library's slow corner (L = 300 nm, 0.8 V,
    #: Vth = 0.3 V) is reachable only with swings of that order.
    coefficient_bound_ps: float = 300.0
    #: Seed for path sampling and stochastic optimizers.
    seed: int = 0
    #: ASERTA settings used inside the cost loop.
    aserta: AsertaConfig = field(default_factory=AsertaConfig)

    def __post_init__(self) -> None:
        if self.max_evaluations < 1:
            raise OptimizationError("max_evaluations must be >= 1")
        if self.coefficient_bound_ps <= 0.0:
            raise OptimizationError("coefficient_bound_ps must be > 0")


@dataclass(frozen=True)
class SertoptResult:
    """Everything one SERTOPT run produces (one Table-1 row).

    ``baseline``/``optimized`` are Equation-5 :class:`CostBreakdown`\\ s
    of the speed-optimized starting point and the returned assignment;
    the ``*_ratio`` properties are optimized-over-baseline (delay,
    energy, area — dimensionless), and
    :attr:`unreliability_reduction` is the fractional decrease in U,
    the paper's headline column.  ``runtime_s`` is wall seconds for the
    whole flow.
    """

    circuit_name: str
    baseline_assignment: ParameterAssignment
    optimized_assignment: ParameterAssignment
    baseline: CostBreakdown
    optimized: CostBreakdown
    optimizer_result: OptimizeResult
    delay_space: DelaySpace = field(repr=False, compare=False)
    runtime_s: float

    @cached_property
    def delay_space_info(self) -> dict[str, int]:
        """Size of the timing-neutral search space (gates, paths, rank,
        dimension).  Computed on first read: the rank is an SVD of the
        path matrix, which :meth:`Sertopt.optimize` itself never needs."""
        return self.delay_space.describe()

    @property
    def unreliability_reduction(self) -> float:
        """Fractional decrease in U (the paper's headline column)."""
        return self.optimized.unreliability_reduction

    @property
    def area_ratio(self) -> float:
        return self.optimized.area_ratio

    @property
    def energy_ratio(self) -> float:
        return self.optimized.energy_ratio

    @property
    def delay_ratio(self) -> float:
        return self.optimized.delay_ratio

    def vdds_used(self) -> tuple[float, ...]:
        return self.optimized_assignment.distinct_vdds()

    def vths_used(self) -> tuple[float, ...]:
        return self.optimized_assignment.distinct_vths()


class _BatchedObjective:
    """The SERTOPT objective, in population form.

    Implements the :data:`repro.core.optimizers.BatchObjective`
    protocol: a ``(B, D)`` stack of nullspace coefficient vectors maps
    to delay-target vectors (the exact per-candidate arithmetic of
    ``DelaySpace.assigned_delays``), is matched as one level-batched
    pass with timing repair, and is costed through
    :meth:`CostEvaluator.evaluate_batch`, which rides the analyzer's
    ``analyze_many`` array pass.  :meth:`single` is the scalar view the
    optimizer drivers take.  Values are cached under rounded-coefficient
    keys, so speculative driver probes never recompute a visited point.
    """

    def __init__(
        self,
        circuit: Circuit,
        space: DelaySpace,
        engine: MatchingEngine,
        evaluator: CostEvaluator,
        ramps: dict[str, float],
        repair_cap_ps: float,
        baseline: ParameterAssignment,
    ) -> None:
        self.space = space
        self.engine = engine
        self.evaluator = evaluator
        self.repair_cap_ps = repair_cap_ps
        self.baseline = baseline
        indexed = circuit.indexed()
        self.n_signals = indexed.n_signals
        self.space_rows = np.array(
            [indexed.index[name] for name in space.gate_order], dtype=np.int64
        )
        self.ramp_row = engine._ramp_row(ramps)
        self.cache: dict[bytes, float] = {}

    @staticmethod
    def _key(x: np.ndarray) -> bytes:
        return np.round(x, 4).tobytes()

    def _target_row(self, x: np.ndarray) -> np.ndarray:
        """Dense per-row delay targets for one coefficient vector —
        bitwise the values of ``space.assigned_delays(x)``."""
        from repro.core.delay_assignment import MIN_DELAY_PS

        vector = np.maximum(
            self.space.base + self.space.delta(x), MIN_DELAY_PS
        )
        out = np.zeros(self.n_signals)
        out[self.space_rows] = vector
        return out

    def single(self, x: np.ndarray) -> float:
        """Scalar objective routed through the batched pipeline, so
        every value a search consumes comes from one code path."""
        return float(self(np.asarray(x, dtype=np.float64)[np.newaxis, :])[0])

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        values = np.empty(X.shape[0])
        lanes_by_key: dict[bytes, list[int]] = {}
        for lane in range(X.shape[0]):
            lanes_by_key.setdefault(self._key(X[lane]), []).append(lane)
        pending: list[tuple[bytes, list[int]]] = []
        for key, lanes in lanes_by_key.items():
            cached = self.cache.get(key)
            if cached is not None:
                values[lanes] = cached
            else:
                pending.append((key, lanes))
        if pending:
            targets = np.stack(
                [self._target_row(X[lanes[0]]) for __, lanes in pending]
            )
            state = self.engine.match_with_timing_batch(
                targets,
                self.ramp_row,
                self.repair_cap_ps,
                anchor=self.baseline,
            )
            totals = self.evaluator.evaluate_batch(
                params=state.param_arrays()
            )
            for (key, lanes), value in zip(pending, totals):
                self.cache[key] = float(value)
                values[lanes] = value
        return values


class Sertopt:
    """The SERTOPT flow bound to one circuit and one cell library.

    Construct with a :class:`~repro.circuit.netlist.Circuit`, optionally
    a :class:`~repro.tech.library.CellLibrary` (default: the paper's
    Table-1 library), a :class:`SertoptConfig` and a shared
    :class:`~repro.engine.engine.AnalysisEngine` (lets the
    sizing-invariant structural pass come from the artifact cache);
    then call :meth:`optimize`, which returns a :class:`SertoptResult`.
    One instance may optimize repeatedly — the analyzer and the
    matching engine (its per-cell arrays and compiled level plan) are
    reused across calls; the delay space is rebuilt on every call,
    because it derives from that call's baseline delays.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) records the
    ``sertopt.optimize`` span tree — setup, delay-space construction,
    the optimizer search and the final match — and is threaded through
    the analyzer, the matching engine and the optimizer driver so their
    spans nest underneath.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary | None = None,
        config: SertoptConfig | None = None,
        tables: TechnologyTables | None = None,
        analyzer: AsertaAnalyzer | None = None,
        engine: AnalysisEngine | None = None,
        telemetry=None,
    ) -> None:
        self.circuit = circuit
        self.library = library if library is not None else CellLibrary.paper_library()
        self.config = config if config is not None else SertoptConfig()
        self._telemetry = telemetry
        self.telemetry = resolve(telemetry)
        # The engine is where the inner loop's structural reuse lives:
        # P_ij and the Equation-2 shares are sizing-invariant, so every
        # candidate assignment the optimizer scores shares the one
        # cached structural pass — and an engine warmed by an earlier
        # campaign or analyzer hands it over without any simulation.
        self.analyzer = (
            analyzer
            if analyzer is not None
            else AsertaAnalyzer(
                circuit, config=self.config.aserta, tables=tables,
                engine=engine, telemetry=telemetry,
            )
        )
        if analyzer is not None and telemetry is not None:
            # A pre-built (possibly cached) analyzer keeps its state but
            # records into this run's telemetry.
            self.analyzer.telemetry = self.telemetry
        self.matcher = MatchingEngine(circuit, self.library, telemetry=telemetry)

    def optimize(
        self, baseline: ParameterAssignment | None = None
    ) -> SertoptResult:
        """Run the full SERTOPT flow; see the module docstring."""
        started = time.perf_counter()
        config = self.config
        with self.telemetry.span(
            "sertopt.optimize",
            circuit=self.circuit.name,
            optimizer=config.optimizer,
        ):
            return self._optimize(baseline, started)

    def _optimize(
        self, baseline: ParameterAssignment | None, started: float
    ) -> SertoptResult:
        config = self.config
        tel = self.telemetry
        with tel.span("sertopt.setup"):
            if baseline is None:
                baseline = size_for_speed(self.circuit, self.library)

            evaluator = CostEvaluator(
                self.analyzer, baseline, weights=config.weights
            )
            # Delay targets and ramps come from the same continuous model
            # the matching engine evaluates (the paper's "SPICE library"),
            # so the zero perturbation reproduces the baseline cells
            # exactly; the cost's unreliability term still runs through
            # ASERTA's tables.
            target_elec = CircuitElectrical(
                self.circuit, baseline, use_tables=False
            )
            engine = self.matcher
            ramps = dict(target_elec.input_ramp_ps)
            baseline_delay = analyze_timing(
                self.circuit, target_elec.delay_ps
            ).delay_ps
            repair_cap_ps = baseline_delay * config.weights.timing_cap
        with tel.span("sertopt.delay_space"):
            space = DelaySpace(
                self.circuit,
                target_elec.delay_ps,
                max_paths=config.max_paths,
                seed=config.seed,
                max_dimension=config.max_dimension,
            )

        if space.dimension == 0:
            # No timing-neutral direction exists (e.g. one path per gate):
            # the baseline is returned unchanged.
            breakdown = evaluator.evaluate(baseline)
            return SertoptResult(
                circuit_name=self.circuit.name,
                baseline_assignment=baseline,
                optimized_assignment=baseline,
                baseline=evaluator.baseline_breakdown,
                optimized=breakdown,
                optimizer_result=OptimizeResult(
                    x=np.zeros(0), value=breakdown.total, evaluations=1
                ),
                delay_space=space,
                runtime_s=time.perf_counter() - started,
            )

        objective = _BatchedObjective(
            self.circuit, space, engine, evaluator,
            ramps, repair_cap_ps, baseline,
        )
        x0 = np.zeros(space.dimension)
        search = run_optimizer(
            config.optimizer,
            objective.single,
            x0,
            bounds_halfwidth=config.coefficient_bound_ps,
            max_evaluations=config.max_evaluations,
            seed=config.seed,
            objective_batch=objective,
            telemetry=self._telemetry,
        )

        with tel.span("sertopt.final_match"):
            best_assignment = engine.match_with_timing(
                space.assigned_delays(search.x), ramps, repair_cap_ps,
                anchor=baseline,
            )
            best_breakdown = evaluator.evaluate(best_assignment)
            # Never return something worse than the untouched baseline.
            if best_breakdown.total > evaluator.weights.total_weight:
                best_assignment = baseline
                best_breakdown = evaluator.evaluate(baseline)

        return SertoptResult(
            circuit_name=self.circuit.name,
            baseline_assignment=baseline,
            optimized_assignment=best_assignment,
            baseline=evaluator.baseline_breakdown,
            optimized=best_breakdown,
            optimizer_result=search,
            delay_space=space,
            runtime_s=time.perf_counter() - started,
        )
