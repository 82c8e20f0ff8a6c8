"""Campaign execution: serial or process-parallel, with analyzer reuse.

The expensive part of every scenario is *structural*: the 10k-vector
``P_ij`` estimation performed by ``AsertaAnalyzer.__init__`` depends only
on ``ScenarioKey.structural_group()`` — (circuit, n_vectors, seed,
input probability, table routing) — not on charge, assignment,
environment or sample-width count.  The runner therefore

* groups scenarios by structural group and dispatches *batches*, so one
  analyzer build is amortized over the whole batch;
* keeps a per-worker-process analyzer cache, so a worker handed two
  batches of the same group builds the analyzer once;
* within a batch, shares the electrical analysis across environments
  (the environment axis is pure post-scaling of ``U``).

Scenarios already present in the :class:`ResultStore` are skipped before
any work is dispatched, which is the resume path.  Parallel execution
uses a pre-forked :class:`~repro.campaign.pool.WorkerPool` — workers
fork once per runner (or are handed in and shared across runs), warm up
from the on-disk artifact cache, steal batches from a shared queue and
stream results back so the store is appended to as they arrive.
Anything that prevents the pool from working (a sandbox without process
spawning, a non-picklable custom assignment) falls back to the serial
path rather than failing the campaign, and a worker dying mid-run
demotes only the *remaining* batches to serial execution.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

from repro.campaign.environments import Environment
from repro.campaign.pool import (
    WorkerPool,
    WorkerPoolBroken,
    WorkerPoolError,
)
from repro.campaign.spec import CampaignSpec, ScenarioKey
from repro.campaign.store import ResultStore, ScenarioResult
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.engine.engine import (
    AnalysisEngine,
    get_default_engine,
    set_default_engine,
)
from repro.errors import CampaignError
from repro.tech.library import ParameterAssignment
from repro.telemetry import Telemetry, resolve

_LOG = logging.getLogger(__name__)

#: One unit of dispatched work: the key plus the (picklable) objects the
#: worker needs to evaluate it.
WorkItem = tuple[ScenarioKey, ParameterAssignment, Environment]

#: Per-process analyzer cache, keyed by ``ScenarioKey.structural_group()``
#: plus the cache directory (the one place that axis list is defined).
#: Lives at module scope so ProcessPoolExecutor workers reuse analyzers
#: across batches without any coordination.
_ANALYZER_CACHE: dict[tuple, AsertaAnalyzer] = {}

#: Per-process analyzer reuse counters — the observable the parallel
#: regression tests assert on (wall-clock is too noisy for CI).
_WORKER_STATS = {"analyzer_builds": 0, "analyzer_reuses": 0}

#: Auto-mode amortization threshold: grids with fewer pending analysis
#: units than this run serially — process-pool startup (interpreter +
#: NumPy import, table rebuild per worker) costs more than it saves on
#: small grids, which is exactly the parallel-slower-than-serial
#: regression ``BENCH_campaign.json`` recorded.  Forcing
#: ``parallel=True`` still dispatches regardless of grid size.
PARALLEL_MIN_UNITS = 16

#: Per-process engine handles, one per cache directory.  Workers build
#: the handle lazily on first use, so every batch a worker is handed
#: shares one compiled-artifact cache (and, with a ``cache_dir``, the
#: same on-disk store as every other worker and every later run).
_ENGINE_HANDLES: dict[str, AnalysisEngine] = {}


def clear_analyzer_cache() -> None:
    """Drop this process's analyzer, engine and artifact caches.

    Forked worker processes inherit the parent's caches, so a warmed
    parent gives workers the structural pass for free; benchmarks call
    this to measure honestly-cold runs, and long-lived services can call
    it to bound memory.  (On-disk artifact stores are left in place —
    they are the *deliberately* persistent tier.)
    """
    _ANALYZER_CACHE.clear()
    _ENGINE_HANDLES.clear()
    _WORKER_STATS["analyzer_builds"] = 0
    _WORKER_STATS["analyzer_reuses"] = 0
    set_default_engine(None)


def _engine_for(cache_dir: str | None) -> AnalysisEngine:
    """This process's engine handle for one cache directory."""
    if cache_dir is None:
        return get_default_engine()
    engine = _ENGINE_HANDLES.get(cache_dir)
    if engine is None:
        engine = AnalysisEngine(cache_dir=cache_dir)
        _ENGINE_HANDLES[cache_dir] = engine
    return engine


def analyzer_for(
    group: tuple, config: AsertaConfig, cache_dir: str | None = None
) -> AsertaAnalyzer:
    """This process's cached analyzer for one structural group.

    Builds (and caches) on first use; campaign summaries and reports
    share it so they ride whatever this process already paid for.
    """
    key = (group, cache_dir)
    analyzer = _ANALYZER_CACHE.get(key)
    if analyzer is None:
        circuit_name = group[0]
        analyzer = AsertaAnalyzer(
            iscas85_circuit(circuit_name),
            config,
            engine=_engine_for(cache_dir),
        )
        _ANALYZER_CACHE[key] = analyzer
        _WORKER_STATS["analyzer_builds"] += 1
    else:
        _WORKER_STATS["analyzer_reuses"] += 1
    return analyzer


def _analysis_unit(key: ScenarioKey) -> tuple:
    """Axis values one electrical analysis depends on beyond the
    structural group — scenarios sharing a unit (i.e. differing only in
    environment) share one analysis."""
    return (key.charge_fc, key.assignment_digest, key.n_sample_widths)


def _evaluate_batch(
    group: tuple,
    config: AsertaConfig,
    items: Sequence[WorkItem],
    cache_dir: str | None = None,
    telemetry=None,
    ship_telemetry: bool = False,
) -> tuple[list[ScenarioResult], dict]:
    """Evaluate one batch of scenarios sharing a structural group.

    Runs in a worker process under parallel execution and in the main
    process under serial execution — the results are identical because
    every analysis is fully determined by (circuit, config, charge,
    assignment).  ``cache_dir`` selects the worker's compiled-artifact
    cache handle (shared across batches and, on disk, across workers
    and runs).

    Alongside the results, returns a per-batch stats record — the
    worker pid, the process-cumulative analyzer build/reuse counters,
    and the batch's phase timings (``analyzer_build_s``/``analyze_s``
    against ``wall_s``, plus raw ``perf_counter_ns`` endpoints so the
    runner can place the batch on the merged campaign timeline) — so
    callers can assert structural-pass reuse and phase accounting
    directly instead of inferring them from wall-clock.

    ``telemetry`` (serial path) records spans and metrics into the
    caller's live handle; ``ship_telemetry=True`` (worker processes —
    a :class:`~repro.telemetry.Telemetry` does not cross the pickle
    boundary) records into a fresh local handle and returns its
    picklable payload under ``stats["telemetry"]`` for the runner to
    merge.  Engine cache work done by the batch is recorded as
    ``campaign.engine.*`` counter deltas of ``engine.stats()``, so
    shared (possibly pre-warmed) engines are never mutated.
    """
    tel = Telemetry() if ship_telemetry else resolve(telemetry)
    batch_started_ns = time.perf_counter_ns()
    engine_before: dict = {}
    if tel.enabled:
        # Snapshot before the analyzer build: the structural fault
        # simulation (the expensive engine work) runs inside
        # AsertaAnalyzer.__init__, so a post-build snapshot would miss it.
        engine_before = _engine_for(cache_dir).stats()
    build_started = time.perf_counter()
    with tel.span("campaign.analyzer_build", circuit=group[0]):
        analyzer = analyzer_for(group, config, cache_dir)
    build_s = time.perf_counter() - build_started
    previous_tel = None
    if tel.enabled:
        # Cached analyzers (including ones inherited by a forked
        # worker) keep their warmed state but record into this batch's
        # telemetry; restored afterwards so untraced callers of the
        # process-wide cache see no change.
        previous_tel = analyzer.telemetry
        analyzer.telemetry = tel
    analysis_cache: dict[tuple, tuple[float, float]] = {}
    results: list[ScenarioResult] = []
    analyze_s = 0.0
    fresh = 0
    try:
        with tel.span(
            "campaign.batch", circuit=group[0], items=len(items)
        ):
            for key, assignment, env in items:
                cache_key = _analysis_unit(key)
                cached = analysis_cache.get(cache_key)
                if cached is None:
                    analyze_started = time.perf_counter()
                    report = analyzer.analyze(
                        assignment,
                        charge_fc=key.charge_fc,
                        n_sample_widths=key.n_sample_widths,
                    )
                    analyze_s += time.perf_counter() - analyze_started
                    fresh += 1
                    total, runtime = report.total, report.runtime_s
                    analysis_cache[cache_key] = (total, 0.0)
                else:
                    total, runtime = cached
                rates = env.rates(total)
                results.append(
                    ScenarioResult(
                        key=key,
                        unreliability_total=total,
                        fit=rates.fit,
                        mission_upset_probability=rates.mission_upset_probability,
                        analyze_runtime_s=runtime,
                    )
                )
    finally:
        if previous_tel is not None:
            analyzer.telemetry = previous_tel
    if tel.enabled:
        for name, value in analyzer.engine.stats().items():
            if not isinstance(value, (int, float)):
                continue  # nested breakdowns (e.g. "by_kind") are not counters
            delta = value - engine_before.get(name, 0)
            if delta:
                tel.metrics.add(f"campaign.engine.{name}", delta)
        tel.metrics.add("campaign.batches")
        tel.metrics.add("campaign.scenarios.computed", len(results))
        tel.metrics.add("campaign.analyses.run", fresh)
        tel.metrics.add("campaign.analyses.shared", len(items) - fresh)
    batch_ended_ns = time.perf_counter_ns()
    stats = {
        "pid": os.getpid(),
        "group": group,
        "analyzer_builds": _WORKER_STATS["analyzer_builds"],
        "analyzer_reuses": _WORKER_STATS["analyzer_reuses"],
        # Process-cumulative fault simulations: 0 on a worker that
        # served every structural pass from the (disk) artifact cache —
        # the observable behind the warm-handoff benchmark gate.
        "structural_sim_runs": _engine_for(cache_dir).structural_sim_runs,
        "wall_s": (batch_ended_ns - batch_started_ns) / 1e9,
        "analyzer_build_s": build_s,
        "analyze_s": analyze_s,
        "started_at_ns": batch_started_ns,
        "ended_at_ns": batch_ended_ns,
    }
    if ship_telemetry:
        stats["telemetry"] = tel.ship()
    return results, stats


@dataclass(frozen=True)
class CampaignOutcome:
    """What one :meth:`CampaignRunner.run` produced."""

    #: Every scenario result, in the spec's deterministic grid order
    #: (freshly computed and store-served alike).
    results: tuple[ScenarioResult, ...]
    #: Scenarios evaluated by this run.
    computed: int
    #: Scenarios served from the store without any work.
    skipped: int
    #: Wall-clock time of the whole run, seconds.
    wall_s: float
    #: Sum of per-scenario analysis times (the serial-equivalent cost).
    analyze_s: float
    #: "serial" or "parallel".
    mode: str
    #: Worker processes used (1 for serial).
    workers: int
    #: Per-batch worker stats (pid plus stable ``worker`` label under
    #: parallel execution, cumulative analyzer build/reuse counters at
    #: batch completion, and the batch's phase timings —
    #: ``wall_s``/``analyzer_build_s``/``analyze_s`` plus raw
    #: ``started_at_ns``/``ended_at_ns`` timeline endpoints; parallel
    #: batches add the pool's measured ``steal_wait_ns`` and
    #: ``sent_at_ns``/``received_at_ns`` shipping endpoints).  Serial
    #: batches appear in dispatch order, parallel batches in completion
    #: (stream-arrival) order.  Empty when the run had no work.  This
    #: is the observable the parallel-reuse and phase-accounting tests
    #: assert on.
    batch_stats: tuple[dict, ...] = ()
    #: Parallel mode only: the pool's *measured* fork-to-ready spin-up
    #: (process start + engine handle + disk-cache preload in every
    #: worker), paid inside this run.  0.0 under serial execution and
    #: when the run reused an already-started resident pool — the
    #: amortization the pre-forked pool exists to provide.
    pool_spinup_s: float = 0.0
    #: Parallel mode only: total measured result-shipping time — the
    #: sum over batches of (parent receive - worker send).  Streaming
    #: overlaps shipping with computation, so this is overhead *volume*,
    #: not a wall-clock tail.  0.0 under serial.
    result_recv_s: float = 0.0

    @property
    def scenarios_per_second(self) -> float:
        total = self.computed + self.skipped
        return total / self.wall_s if self.wall_s > 0.0 else 0.0

    def analyzer_builds_by_worker(self) -> dict[str, int]:
        """Structural analyzer builds per worker (final counters).

        Keyed by the pool's stable worker labels (``w0``, ``w1``, …;
        ``main`` for serially executed batches), never raw pids —
        labels are comparable across runs and machines, which is what
        lets ``BENCH_campaign.json`` commit them without churning.
        """
        final: dict[str, int] = {}
        for stats in self.batch_stats:
            worker = stats.get("worker", "main")
            final[worker] = max(
                final.get(worker, 0), stats["analyzer_builds"]
            )
        return final


class CampaignRunner:
    """Evaluates a :class:`CampaignSpec`, reading/writing a store.

    Scenarios already present in the ``store`` (by digest) are skipped;
    the rest are analyzed serially or process-parallel.
    ``parallel=None`` (default) picks serial below
    ``parallel_min_units`` analysis units — pool spin-up dominates
    small grids — and parallel above it; an already-started resident
    pool waives the threshold (its spin-up is paid) but never the
    multi-CPU requirement.  ``max_workers`` sizes the pool.

    The parallel path runs on a pre-forked
    :class:`~repro.campaign.pool.WorkerPool`.  Pass one via ``pool`` to
    share a warm pool across runners and runs (the caller owns its
    lifetime); otherwise the runner forks its own on the first parallel
    run, keeps it resident for later runs, and tears it down in
    :meth:`close` (the runner is also a context manager).  Freshly
    computed results are appended to the store *as they stream in*, so
    an interrupted run resumes from the last completed batch, not the
    last completed run.

    :meth:`run` returns a :class:`CampaignOutcome` whose ``results``
    follow the spec's deterministic grid order regardless of execution
    mode.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore | None = None,
        max_workers: int | None = None,
        parallel_min_units: int = PARALLEL_MIN_UNITS,
        pool: WorkerPool | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise CampaignError(f"max_workers must be >= 1, got {max_workers}")
        if parallel_min_units < 0:
            raise CampaignError(
                f"parallel_min_units must be >= 0, got {parallel_min_units}"
            )
        self.spec = spec
        self.store = store if store is not None else ResultStore()
        self.max_workers = max_workers
        self.parallel_min_units = parallel_min_units
        self.pool = pool
        self._owns_pool = False

    def close(self) -> None:
        """Shut down the runner-owned worker pool, if one was forked.

        Pools handed in by the caller are left running — they may be
        shared with other runners (that is the point of passing one).
        """
        if self._owns_pool and self.pool is not None:
            self.pool.close()
            self.pool = None
            self._owns_pool = False

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _batches(
        self, pending: Sequence[ScenarioKey], workers: int
    ) -> list[tuple[tuple, AsertaConfig, list[WorkItem], str | None]]:
        """Group pending scenarios by structural group, then split the
        groups into at most ~``workers`` roughly even batches so a short
        group list still saturates the pool.

        Chunk boundaries fall only *between* analysis units — the items
        sharing one ``(charge, assignment, sample-width count)`` — never
        inside one, so the environment axis is always served from a
        single electrical analysis no matter how many chunks a group is
        split into or which execution mode runs them.

        The batch sequence interleaves groups round-robin (first chunk
        of every circuit, then second chunks, ...): a pool of W workers
        then starts on W *distinct* circuits, and a worker that finishes
        a chunk most likely picks up another chunk of a circuit it has
        already compiled — per-worker analyzer/engine reuse instead of
        every worker rebuilding every circuit's structural pass.
        """
        groups: dict[tuple, dict[tuple, list[WorkItem]]] = {}
        for key in pending:
            item: WorkItem = (
                key,
                self.spec.assignments[key.assignment],
                self.spec.environment_by_name(key.environment),
            )
            groups.setdefault(key.structural_group(), {}).setdefault(
                _analysis_unit(key), []
            ).append(item)
        per_group = max(1, workers // max(1, len(groups)))
        chunked: list[list[tuple[tuple, AsertaConfig, list[WorkItem], str | None]]] = []
        for group, units in groups.items():
            config = self.spec.aserta_config()
            unit_lists = list(units.values())
            n_chunks = min(per_group, len(unit_lists))
            size = math.ceil(len(unit_lists) / n_chunks)
            group_batches = []
            for start in range(0, len(unit_lists), size):
                chunk = [
                    item
                    for unit_items in unit_lists[start : start + size]
                    for item in unit_items
                ]
                group_batches.append(
                    (group, config, chunk, self.spec.cache_dir)
                )
            chunked.append(group_batches)
        batches: list[tuple[tuple, AsertaConfig, list[WorkItem], str | None]] = []
        for round_index in range(max((len(g) for g in chunked), default=0)):
            for group_batches in chunked:
                if round_index < len(group_batches):
                    batches.append(group_batches[round_index])
        return batches

    def _pending_units(self, pending: Sequence[ScenarioKey]) -> int:
        """Distinct electrical analyses the pending scenarios cost."""
        return len(
            {(key.structural_group(), _analysis_unit(key)) for key in pending}
        )

    def run(self, parallel: bool | None = None) -> CampaignOutcome:
        """Evaluate every scenario not already in the store.

        ``parallel=None`` auto-selects: parallel when there is more than
        one batch of work, more than one CPU, *and* either the pending
        grid is at least ``parallel_min_units`` analysis units or a
        resident pool is already started (its spin-up — the fixed cost
        that made small grids slower parallel than serial — is already
        paid).  ``parallel=True`` forces dispatch regardless of grid
        size and falls back to serial execution if a worker pool cannot
        be used.

        Freshly computed results are appended to the store as each
        batch completes — streamed from the workers under parallel
        execution — so a run interrupted mid-campaign has persisted
        everything it finished.

        With ``spec.telemetry`` set, the run records a ``campaign.run``
        span tree (plan / execute / finalize; parallel execution adds a
        measured ``campaign.pool_spinup`` span when the pool starts
        inside this run, plus per-batch measured ``campaign.steal`` and
        ``campaign.stream_recv`` spans) and merges every worker's
        shipped span buffer and metric snapshot into the one handle —
        the cross-process campaign timeline.
        """
        started = time.perf_counter()
        tel = resolve(self.spec.telemetry)
        ship = tel.enabled
        with tel.span("campaign.run", scenarios=self.spec.size()):
            with tel.span("campaign.plan"):
                keys = self.spec.scenarios()
                pending = [
                    key for key in keys if key.digest() not in self.store
                ]
                skipped = len(keys) - len(pending)

                cpus = _usable_cpus()
                workers = (
                    self.max_workers if self.max_workers is not None else cpus
                )
                batches = self._batches(pending, workers)
                workers = max(1, min(workers, len(batches)))
                if parallel is None:
                    pool_ready = self.pool is not None and self.pool.started
                    parallel = (
                        workers > 1
                        and cpus > 1
                        and (
                            pool_ready
                            or self._pending_units(pending)
                            >= self.parallel_min_units
                        )
                    )

            mode = "serial"
            computed: list[ScenarioResult] = []
            batch_stats: list[dict] = []
            pool_spinup_s = 0.0
            result_recv_s = 0.0
            with tel.span("campaign.execute", batches=len(batches)):
                if parallel and workers > 1 and _dispatchable(batches):
                    dispatched = self._run_parallel(
                        batches, workers, ship, tel
                    )
                    if dispatched is not None:
                        computed, batch_stats, pool_spinup_s, result_recv_s = (
                            dispatched
                        )
                        mode = "parallel"
                        workers = self.pool.workers if self.pool else workers
                if mode == "serial":
                    workers = 1
                    for group, config, items, cache_dir in batches:
                        results, stats = _evaluate_batch(
                            group, config, items, cache_dir,
                            telemetry=self.spec.telemetry,
                        )
                        computed.extend(results)
                        batch_stats.append(stats)
                        for result in results:
                            self.store.add(result)

            # Workers record into fresh local handles (a Telemetry does
            # not pickle); their shipped payloads merge here, after which
            # the stats records carried home are payload-free.
            for stats in batch_stats:
                payload = stats.pop("telemetry", None)
                if payload is not None:
                    tel.merge(payload)

            with tel.span("campaign.finalize"):
                ordered: list[ScenarioResult] = []
                for key in keys:
                    digest = key.digest()
                    result = self.store.get(digest)
                    if result is None:  # pragma: no cover - defensive
                        raise CampaignError(
                            f"scenario {digest} was never evaluated"
                        )
                    ordered.append(result)

        wall = time.perf_counter() - started
        if ship:
            tel.metrics.add("campaign.runs")
            tel.metrics.add("campaign.scenarios.total", len(keys))
            tel.metrics.add("campaign.scenarios.skipped", skipped)
        return CampaignOutcome(
            results=tuple(ordered),
            computed=len(computed),
            skipped=skipped,
            wall_s=wall,
            analyze_s=sum(result.analyze_runtime_s for result in computed),
            mode=mode,
            workers=workers,
            batch_stats=tuple(batch_stats),
            pool_spinup_s=pool_spinup_s,
            result_recv_s=result_recv_s,
        )

    def _pool_for_run(self, workers: int) -> tuple[WorkerPool | None, float]:
        """The pool this run executes on, starting it if necessary.

        Returns ``(pool, spinup_s)`` where ``spinup_s`` is the measured
        fork-to-ready time when the pool was started *inside this call*
        and 0.0 when an already-resident pool was reused (its spin-up
        was paid earlier — the amortization).  Returns ``(None, 0.0)``
        when no pool can be brought up, which sends the caller to the
        serial path.
        """
        pool = self.pool
        created = False
        if pool is None:
            pool = WorkerPool(workers, cache_dir=self.spec.cache_dir)
            created = True
        started_here = not pool.started
        try:
            spinup_s = pool.start()
        except WorkerPoolError as exc:
            _LOG.warning(
                "worker pool unavailable (%s); falling back to serial "
                "execution", exc,
            )
            if created:
                pool.close()
            elif self._owns_pool:
                self.pool = None
                self._owns_pool = False
            return None, 0.0
        if created:
            self.pool = pool
            self._owns_pool = True
        return pool, spinup_s if started_here else 0.0

    def _run_parallel(
        self,
        batches: Sequence[tuple[tuple, AsertaConfig, list[WorkItem], str | None]],
        workers: int,
        ship: bool = False,
        tel=None,
    ) -> tuple[list[ScenarioResult], list[dict], float, float] | None:
        """Stream the batches through the resident worker pool.

        Returns ``None`` when no pool can be brought up at all (a
        sandbox that denies fork — the caller falls back to the serial
        path, logging a WARNING).  A worker *dying* mid-run demotes
        only the not-yet-completed batches to in-process execution, so
        the work already streamed back is never recomputed.  Exceptions
        raised by analysis code inside a worker re-raise here as
        themselves, exactly as on the serial path.

        Each completed batch is appended to the store the moment it
        arrives.  With ``ship=True``, per-batch measured
        ``campaign.steal`` (worker blocked on the shared queue) and
        ``campaign.stream_recv`` (worker send to parent receive) spans
        are recorded into ``tel`` from the workers' own
        ``perf_counter_ns`` endpoints (machine-wide comparable), and a
        measured ``campaign.pool_spinup`` span when the pool started
        inside this run.
        """
        tel = resolve(tel)
        spinup_started_ns = time.perf_counter_ns()
        pool, spinup_s = self._pool_for_run(workers)
        if pool is None:
            return None
        if ship and spinup_s > 0.0:
            tel.tracer.record(
                "campaign.pool_spinup",
                spinup_started_ns,
                time.perf_counter_ns(),
                workers=pool.workers,
            )
        results: list[ScenarioResult] = []
        batch_stats: list[dict] = []
        done: set[int] = set()
        recv_s = 0.0

        def _take(batch_index: int, batch_results, stats) -> None:
            nonlocal recv_s
            done.add(batch_index)
            results.extend(batch_results)
            batch_stats.append(stats)
            for result in batch_results:
                self.store.add(result)
            # Per-(worker, kind) synthetic trace lanes: these intervals
            # describe worker-side activity, so on the parent's own tid
            # they would interleave with the live span stack (and each
            # other) and break B/E nesting in the exported trace.
            worker = stats.get("worker", "?")
            lane_base = 2 * int(worker[1:]) if worker[1:].isdigit() else 0
            received_ns = stats.get("received_at_ns")
            sent_ns = stats.get("sent_at_ns")
            if received_ns is not None and sent_ns is not None:
                recv_s += max(0.0, (received_ns - sent_ns) / 1e9)
                if ship:
                    tel.tracer.record(
                        "campaign.stream_recv",
                        sent_ns,
                        max(sent_ns, received_ns),
                        lane=lane_base + 2,
                        worker=worker,
                        batch=batch_index,
                    )
            if ship and "steal_started_at_ns" in stats:
                tel.tracer.record(
                    "campaign.steal",
                    stats["steal_started_at_ns"],
                    stats["steal_started_at_ns"] + stats["steal_wait_ns"],
                    lane=lane_base + 1,
                    worker=worker,
                    batch=batch_index,
                )

        try:
            for batch_index, batch_results, stats in pool.run_batches(
                batches, ship_telemetry=ship
            ):
                _take(batch_index, batch_results, stats)
        except WorkerPoolBroken as exc:
            # The pool is gone; whatever already streamed back is safe
            # in the store.  Finish the remaining batches in-process
            # rather than failing (or recomputing) the campaign.
            _LOG.warning(
                "worker pool broke mid-run (%s); finishing %d remaining "
                "batch(es) serially", exc, len(batches) - len(done),
            )
            if self.pool is pool:
                self.pool = None
                self._owns_pool = False
            for batch_index, (group, config, items, cache_dir) in enumerate(
                batches
            ):
                if batch_index in done:
                    continue
                batch_results, stats = _evaluate_batch(
                    group, config, items, cache_dir,
                    telemetry=self.spec.telemetry,
                )
                _take(batch_index, batch_results, stats)
        return results, batch_stats, spinup_s, recv_s


def _dispatchable(batches: Sequence[tuple]) -> bool:
    """Whether the work can cross a process boundary.  Custom assignment
    or environment subclasses may not pickle; those campaigns run
    serially instead of failing."""
    import pickle

    try:
        pickle.dumps(batches)
    except Exception:
        return False
    return True


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset``, a container cpuset), which
    ``os.cpu_count()`` ignores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
