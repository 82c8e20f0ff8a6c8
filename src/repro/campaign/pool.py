"""A resident, pre-forked worker pool for campaign execution.

``concurrent.futures.ProcessPoolExecutor`` made every ``run()`` pay the
pool's fixed costs on the critical path: processes were spawned lazily
at first ``submit``, each worker re-imported NumPy and rebuilt its
engine handle mid-campaign, batches were assigned statically, and
results arrived only at the barrier join.  On the committed bench grid
that stack of fixed costs made 2 workers *slower* than serial (0.56×).

:class:`WorkerPool` moves every fixed cost off the critical path:

* **Pre-forked**: :meth:`start` forks the workers once and blocks until
  every worker reports ready — the spin-up is *measured* (and paid at a
  time of the caller's choosing), not interleaved with the first batch.
* **Warm**: during spin-up each worker builds its
  :class:`~repro.engine.engine.AnalysisEngine` handle for the pool's
  ``cache_dir`` and promotes the on-disk artifact tier into memory
  (:meth:`~repro.engine.engine.AnalysisEngine.warm_start`), so the
  first batch starts from whatever ``P_ij`` matrices earlier runs
  already paid for.
* **Dynamic stealing**: batches go onto one shared queue; a worker that
  finishes early steals the next batch instead of idling behind a
  static round-robin assignment.  Per-batch ``steal_wait_ns`` records
  exactly how long each worker sat blocked on the queue.
* **Streaming**: :meth:`run_batches` is a generator that yields each
  batch's results the moment they arrive, so the caller can append to
  its :class:`~repro.campaign.store.ResultStore` incrementally — a
  crash mid-campaign loses only the batches still in flight.
* **Resident**: the pool outlives a single ``run()``.  A
  :class:`~repro.campaign.runner.CampaignRunner` handed a pool shares
  it across runs (and with other runners), which is the
  analysis-as-a-service execution shape: fork once, analyze forever.

Worker failures surface precisely: an exception raised by analysis
code inside a worker is re-raised in the parent as itself (pickled
round-trip, with a ``repr`` fallback for unpicklable exceptions); a
worker *dying* (OOM kill, segfault) raises :class:`WorkerPoolBroken`,
which the runner treats as "finish this run serially".
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_mod
import pickle
import time
from typing import Iterator, Sequence

from repro.errors import CampaignError

_LOG = logging.getLogger(__name__)

#: Seconds between liveness checks while blocked on the result queue.
_POLL_S = 0.1


class WorkerPoolError(CampaignError):
    """The pool could not be created or used."""


class WorkerPoolBroken(WorkerPoolError):
    """A worker process died with work outstanding.

    Raised from :meth:`WorkerPool.start` or mid-stream from
    :meth:`WorkerPool.run_batches`; the pool is unusable afterwards
    (``close()`` it) and the caller decides how to finish the remaining
    work — the campaign runner falls back to the serial path.
    """


def _worker_main(index: int, cache_dir, task_queue, result_queue) -> None:
    """One pool worker: warm up, report ready, then steal batches.

    Runs in a forked child.  The import of the runner module is
    deferred to here so ``pool`` and ``runner`` can import each other
    at module level without a cycle (the fork inherits the parent's
    already-imported module anyway).
    """
    from repro.campaign import runner as _runner

    # A forked worker inherits the parent's analyzer/engine caches —
    # deliberately (a warmed parent hands workers the structural pass
    # for free) — but its build/reuse counters must start at zero so
    # per-worker accounting (builds + reuses == batches handled) holds
    # for the pool's own lifetime.  A batch served from an inherited
    # cache counts as a reuse, which is exactly what it is.
    _runner._WORKER_STATS["analyzer_builds"] = 0
    _runner._WORKER_STATS["analyzer_reuses"] = 0
    warm_started_ns = time.perf_counter_ns()
    preloaded = 0
    try:
        engine = _runner._engine_for(cache_dir)
        preloaded = engine.warm_start()
    except Exception:  # pragma: no cover - warm-up is best-effort
        _LOG.exception("worker w%d warm-up failed; starting cold", index)
    warm_s = (time.perf_counter_ns() - warm_started_ns) / 1e9
    result_queue.put(("ready", index, os.getpid(), warm_s, preloaded))

    while True:
        steal_started_ns = time.perf_counter_ns()
        task = task_queue.get()
        steal_wait_ns = time.perf_counter_ns() - steal_started_ns
        if task is None:
            break
        batch_index, group, config, items, batch_cache_dir, ship = task
        try:
            results, stats = _runner._evaluate_batch(
                group, config, items, batch_cache_dir,
                telemetry=None, ship_telemetry=ship,
            )
            stats["worker"] = f"w{index}"
            stats["steal_started_at_ns"] = steal_started_ns
            stats["steal_wait_ns"] = steal_wait_ns
            stats["sent_at_ns"] = time.perf_counter_ns()
            result_queue.put(("result", index, batch_index, results, stats))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = None
            result_queue.put(
                ("error", index, batch_index, payload, repr(exc))
            )
            if not isinstance(exc, Exception):  # pragma: no cover
                raise  # KeyboardInterrupt and friends still kill the worker


class WorkerPool:
    """``workers`` pre-forked campaign processes around a shared queue.

    ``cache_dir`` is the on-disk artifact cache the workers warm up
    from (and write back to); pass the campaign spec's.  The pool is a
    context manager; :meth:`start` may be called explicitly (to control
    *when* the spin-up is paid and read :attr:`spinup_s`) or left to the
    first :meth:`run_batches` call.

    >>> pool = WorkerPool(workers=2)
    >>> pool.worker_labels
    ('w0', 'w1')
    >>> pool.started
    False
    """

    def __init__(
        self,
        workers: int,
        cache_dir: str | None = None,
        start_timeout_s: float = 120.0,
    ) -> None:
        if workers < 1:
            raise WorkerPoolError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.start_timeout_s = start_timeout_s
        #: Measured seconds from fork to every worker ready (fork +
        #: engine handle + disk-tier preload); 0.0 until started.
        self.spinup_s = 0.0
        #: Artifacts each worker promoted from disk during warm-up,
        #: keyed by worker label.
        self.preloaded_by_worker: dict[str, int] = {}
        self._processes: list[multiprocessing.Process] = []
        self._task_queue = None
        self._result_queue = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._processes)

    @property
    def worker_labels(self) -> tuple[str, ...]:
        """Stable worker identities (``w0`` … ``wN-1``) — these, not
        PIDs, are what batch stats and bench JSON key on."""
        return tuple(f"w{i}" for i in range(self.workers))

    def start(self) -> float:
        """Fork the workers and block until all report ready.

        Idempotent (returns the recorded spin-up on a started pool).
        Raises :class:`WorkerPoolError` when processes cannot be forked
        at all and :class:`WorkerPoolBroken` when a worker dies during
        warm-up.
        """
        if self._closed:
            raise WorkerPoolError("pool is closed")
        if self.started:
            return self.spinup_s
        ctx = multiprocessing.get_context()
        started_ns = time.perf_counter_ns()
        try:
            self._task_queue = ctx.Queue()
            self._result_queue = ctx.Queue()
            for index in range(self.workers):
                process = ctx.Process(
                    target=_worker_main,
                    args=(
                        index,
                        self.cache_dir,
                        self._task_queue,
                        self._result_queue,
                    ),
                    daemon=True,
                    name=f"campaign-w{index}",
                )
                process.start()
                self._processes.append(process)
        except (ImportError, NotImplementedError, OSError) as exc:
            self._abandon()
            raise WorkerPoolError(
                f"cannot fork worker processes: {exc}"
            ) from exc
        ready = 0
        deadline = time.monotonic() + self.start_timeout_s
        while ready < self.workers:
            message = self._next_message(deadline, waiting_for="ready")
            if message[0] != "ready":  # pragma: no cover - defensive
                continue  # a result cannot precede its worker's ready
            __, index, __pid, __warm_s, preloaded = message
            self.preloaded_by_worker[f"w{index}"] = preloaded
            ready += 1
        self.spinup_s = (time.perf_counter_ns() - started_ns) / 1e9
        _LOG.debug(
            "worker pool ready: %d workers in %.3fs (preloaded %s)",
            self.workers, self.spinup_s, self.preloaded_by_worker,
        )
        return self.spinup_s

    def _next_message(self, deadline: float, waiting_for: str):
        """One message off the result queue, watching worker liveness."""
        while True:
            try:
                return self._result_queue.get(timeout=_POLL_S)
            except queue_mod.Empty:
                dead = [
                    p.name for p in self._processes if p.exitcode is not None
                ]
                if dead:
                    self._abandon()
                    raise WorkerPoolBroken(
                        f"worker(s) {dead} died while the pool waited "
                        f"for {waiting_for}"
                    ) from None
                if time.monotonic() > deadline:
                    self._abandon()
                    raise WorkerPoolBroken(
                        f"timed out after {self.start_timeout_s}s waiting "
                        f"for {waiting_for}"
                    ) from None

    def run_batches(
        self,
        batches: Sequence[tuple],
        ship_telemetry: bool = False,
    ) -> Iterator[tuple[int, list, dict]]:
        """Stream the batches through the pool.

        ``batches`` are the runner's ``(group, config, items,
        cache_dir)`` tuples.  All of them are enqueued up front — the
        workers steal dynamically — and ``(batch_index, results,
        stats)`` triples are yielded in *completion* order as each
        arrives, so the caller can persist incrementally.  ``stats`` is
        the worker's batch record extended with the pool fields
        (``worker``, ``steal_started_at_ns``/``steal_wait_ns``,
        ``sent_at_ns``) plus the parent-side ``received_at_ns``.

        With ``ship_telemetry=True`` each worker records its batch into
        a fresh telemetry handle and ships the payload under
        ``stats["telemetry"]`` for the caller to merge.

        Worker-raised exceptions re-raise here as themselves;
        :class:`WorkerPoolBroken` means a worker died mid-run.
        """
        self.start()
        for batch_index, (group, config, items, cache_dir) in enumerate(
            batches
        ):
            self._task_queue.put(
                (batch_index, group, config, items, cache_dir,
                 ship_telemetry)
            )
        outstanding = len(batches)
        # No per-batch deadline: analysis batches are minutes-long at
        # production scale, so only worker death (not slowness) breaks
        # the stream.
        deadline = float("inf")
        while outstanding:
            message = self._next_message(deadline, waiting_for="results")
            kind = message[0]
            if kind == "ready":  # pragma: no cover - restarted pool
                continue
            if kind == "error":
                __, index, batch_index, payload, fallback = message
                outstanding -= 1
                self._drain_tasks()
                exc = None
                if payload is not None:
                    try:
                        exc = pickle.loads(payload)
                    except Exception:
                        exc = None
                if exc is not None:
                    raise exc
                raise WorkerPoolError(
                    f"worker w{index} failed on batch {batch_index}: "
                    f"{fallback}"
                )
            __, index, batch_index, results, stats = message
            stats["received_at_ns"] = time.perf_counter_ns()
            outstanding -= 1
            yield batch_index, results, stats

    def _drain_tasks(self) -> None:
        """Pull unclaimed tasks back off the queue after a failure so
        the surviving workers go idle instead of burning through a
        campaign the caller is about to abort."""
        if self._task_queue is None:
            return
        while True:
            try:
                self._task_queue.get_nowait()
            except (queue_mod.Empty, OSError):
                return

    def _abandon(self) -> None:
        """Tear down without the polite sentinel handshake."""
        for process in self._processes:
            if process.exitcode is None:
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        self._processes.clear()
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_queue = None
        self._result_queue = None
        self._closed = True

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed and not self._processes:
            return
        if self._task_queue is not None:
            self._drain_tasks()
            try:
                for __ in self._processes:
                    self._task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.exitcode is None:  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        self._processes.clear()
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
        self._task_queue = None
        self._result_queue = None
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
