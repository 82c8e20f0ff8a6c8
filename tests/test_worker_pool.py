"""The pre-forked campaign worker pool: lifecycle, resident reuse
across runs, dynamic stealing stats, streaming persistence, measured
telemetry spans, and failure demotion."""

from __future__ import annotations

import os

import pytest

from repro.campaign import (
    AVIONICS,
    SEA_LEVEL,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    WorkerPool,
    WorkerPoolBroken,
    WorkerPoolError,
)
from repro.campaign.runner import clear_analyzer_cache
from repro.telemetry import Telemetry


def pool_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        circuits=("c17", "c432"),
        charges_fc=(4.0, 8.0, 16.0),
        environments=(SEA_LEVEL, AVIONICS),
        n_vectors=200,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def run_parallel_or_skip(runner: CampaignRunner, **kwargs):
    outcome = runner.run(parallel=True, **kwargs)
    if outcome.mode != "parallel":
        pytest.skip("worker pool unavailable in this sandbox")
    return outcome


def comparable(outcome):
    """Result identity minus ``analyze_runtime_s`` (wall-clock noise)."""
    return [
        (r.digest(), r.unreliability_total, r.fit, r.mission_upset_probability)
        for r in outcome.results
    ]


class TestPoolLifecycle:
    def test_validation(self):
        with pytest.raises(WorkerPoolError):
            WorkerPool(workers=0)

    def test_labels_and_started_flag(self):
        pool = WorkerPool(workers=3)
        assert pool.worker_labels == ("w0", "w1", "w2")
        assert not pool.started
        assert pool.spinup_s == 0.0
        pool.close()  # closing an unstarted pool is fine

    def test_start_is_idempotent_and_measured(self):
        with WorkerPool(workers=2) as pool:
            try:
                first = pool.start()
            except WorkerPoolError:
                pytest.skip("cannot fork in this sandbox")
            assert first > 0.0
            assert pool.started
            assert pool.start() == first  # no second fork
            assert set(pool.preloaded_by_worker) == {"w0", "w1"}

    def test_close_is_idempotent(self):
        pool = WorkerPool(workers=2)
        try:
            pool.start()
        except WorkerPoolError:
            pytest.skip("cannot fork in this sandbox")
        pool.close()
        pool.close()
        with pytest.raises(WorkerPoolError):
            pool.start()  # a closed pool stays closed


class TestResidentPool:
    def test_runner_reuses_its_pool_across_runs(self):
        clear_analyzer_cache()
        with CampaignRunner(
            pool_spec(), store=ResultStore(), max_workers=2
        ) as runner:
            first = run_parallel_or_skip(runner)
            assert first.pool_spinup_s > 0.0  # forked inside this run
            pool = runner.pool
            assert pool is not None and pool.started
            runner.store = ResultStore()  # fresh store: same work again
            second = run_parallel_or_skip(runner)
            assert runner.pool is pool  # same resident pool
            assert second.pool_spinup_s == 0.0  # spin-up amortized away
            assert second.computed == pool_spec().size()
        assert runner.pool is None  # close() tore the owned pool down
        clear_analyzer_cache()

    def test_shared_pool_is_not_closed_by_runner(self):
        spec = pool_spec()
        pool = WorkerPool(workers=2, cache_dir=spec.cache_dir)
        try:
            pool.start()
        except WorkerPoolError:
            pytest.skip("cannot fork in this sandbox")
        with pool:
            with CampaignRunner(
                spec, store=ResultStore(), max_workers=2, pool=pool
            ) as first_runner:
                a = run_parallel_or_skip(first_runner)
            assert pool.started  # caller owns the lifetime, not the runner
            with CampaignRunner(
                spec, store=ResultStore(), max_workers=2, pool=pool
            ) as second_runner:
                b = run_parallel_or_skip(second_runner)
            assert a.pool_spinup_s == 0.0  # started before either run
            assert b.pool_spinup_s == 0.0
            assert comparable(a) == comparable(b)

    def test_resident_pool_waives_auto_mode_threshold(self, monkeypatch):
        """Auto mode refuses small grids because pool spin-up dominates
        them — but a resident, already-started pool has no spin-up left
        to pay, so it is used (given real CPUs to use it on)."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        spec = pool_spec()
        store = ResultStore()
        with CampaignRunner(spec, store=store, max_workers=2) as runner:
            units = runner._pending_units(list(spec.scenarios()))
            assert units < runner.parallel_min_units  # below the threshold
            cold = runner.run()  # auto: serial, pool never started
            assert cold.mode == "serial"
            try:
                runner.pool = WorkerPool(2, cache_dir=spec.cache_dir)
                runner._owns_pool = True
                runner.pool.start()
            except WorkerPoolError:
                pytest.skip("cannot fork in this sandbox")
            runner.store = ResultStore()
            warm = runner.run()  # auto again: resident pool wins now
            assert warm.mode == "parallel"

    def test_auto_mode_plans_by_affinity_not_cpu_count(self, monkeypatch):
        """Auto mode sizes its plan by the CPUs the process may run on
        (a ``taskset`` or container cpuset), not by every CPU of the
        machine, so it cannot oversubscribe."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        planned = []
        with CampaignRunner(pool_spec(), store=ResultStore()) as runner:
            plan = runner._batches

            def spy(pending, workers):
                planned.append(workers)
                return plan(pending, workers)

            monkeypatch.setattr(runner, "_batches", spy)
            outcome = runner.run()
        assert planned == [1]
        assert outcome.mode == "serial" and outcome.workers == 1


class TestStreamingAndStats:
    def test_parallel_batches_stream_into_store(self, tmp_path):
        """Every freshly computed result is persisted by the time run()
        returns, and parallel batch stats carry the pool's measured
        stealing/shipping fields keyed by stable worker labels."""
        clear_analyzer_cache()
        spec = pool_spec()
        store = ResultStore(tmp_path / "store.jsonl")
        with CampaignRunner(spec, store=store, max_workers=2) as runner:
            outcome = run_parallel_or_skip(runner)
        assert len(ResultStore(tmp_path / "store.jsonl")) == spec.size()
        labels = set()
        for stats in outcome.batch_stats:
            assert stats["worker"] in ("w0", "w1")
            labels.add(stats["worker"])
            assert stats["steal_wait_ns"] >= 0
            assert stats["sent_at_ns"] <= stats["received_at_ns"]
            assert stats["ended_at_ns"] <= stats["sent_at_ns"]
        assert labels  # at least one worker computed something
        builds = outcome.analyzer_builds_by_worker()
        assert set(builds) <= {"w0", "w1"}
        clear_analyzer_cache()

    def test_serial_batches_are_labeled_main(self):
        outcome = CampaignRunner(pool_spec(), store=ResultStore()).run(
            parallel=False
        )
        assert set(outcome.analyzer_builds_by_worker()) == {"main"}

    def test_measured_spans_replace_reconstructed_ones(self):
        """The traced parallel run records *measured* pool_spinup /
        steal / stream_recv spans; the reconstructed result_recv
        estimate is gone."""
        tel = Telemetry()
        spec = pool_spec(telemetry=tel)
        with CampaignRunner(spec, store=ResultStore(), max_workers=2) as r:
            run_parallel_or_skip(r)
        names = {span.name for span in tel.tracer.spans()}
        assert "campaign.pool_spinup" in names  # pool started in-run
        assert "campaign.steal" in names
        assert "campaign.stream_recv" in names
        assert "campaign.result_recv" not in names
        spans = {span.name: span for span in tel.tracer.spans()}
        assert spans["campaign.steal"].attrs["worker"].startswith("w")

    def test_resident_pool_records_no_spinup_span(self):
        tel = Telemetry()
        spec = pool_spec(telemetry=tel)
        with CampaignRunner(spec, store=ResultStore(), max_workers=2) as r:
            run_parallel_or_skip(r)  # forks: spinup span recorded once
            before = sum(
                1 for s in tel.tracer.spans()
                if s.name == "campaign.pool_spinup"
            )
            r.store = ResultStore()
            run_parallel_or_skip(r)  # resident: no new spinup span
            after = sum(
                1 for s in tel.tracer.spans()
                if s.name == "campaign.pool_spinup"
            )
        assert before == after == 1


class TestFailureModes:
    def test_worker_exception_reraises_in_parent(self):
        spec = pool_spec(circuits=("c17",), charges_fc=(4.0, 8.0))
        runner = CampaignRunner(spec, store=ResultStore(), max_workers=2)
        batches = runner._batches(list(spec.scenarios()), workers=2)
        group, config, items, cache_dir = batches[0]
        bogus = (("no-such-circuit",) + group[1:], config, items, cache_dir)
        with WorkerPool(workers=2) as pool:
            try:
                pool.start()
            except WorkerPoolError:
                pytest.skip("cannot fork in this sandbox")
            with pytest.raises(Exception) as excinfo:
                list(pool.run_batches([bogus]))
            assert "no-such-circuit" in str(excinfo.value)
            # The pool survives an analysis error: the workers are
            # alive and the next (valid) batch still runs.
            index, results, stats = next(iter(pool.run_batches(batches[:1])))
            assert index == 0 and results

    def test_dead_pool_demotes_remaining_batches_to_serial(self):
        """A pool whose workers died mid-campaign finishes the run
        in-process instead of failing it (or recomputing streamed
        results)."""
        clear_analyzer_cache()
        spec = pool_spec()
        pool = WorkerPool(workers=2, cache_dir=spec.cache_dir)
        try:
            pool.start()
        except WorkerPoolError:
            pytest.skip("cannot fork in this sandbox")
        for process in pool._processes:
            process.terminate()
        for process in pool._processes:
            process.join(timeout=10.0)
        store = ResultStore()
        with CampaignRunner(
            spec, store=store, max_workers=2, pool=pool
        ) as runner:
            outcome = runner.run(parallel=True)
            assert runner.pool is None  # broken pool was dropped
        assert outcome.computed == spec.size()
        assert len(store) == spec.size()
        serial = CampaignRunner(spec, store=ResultStore()).run(parallel=False)
        assert comparable(outcome) == comparable(serial)
        clear_analyzer_cache()

    def test_run_batches_on_dead_pool_raises_broken(self):
        pool = WorkerPool(workers=1)
        try:
            pool.start()
        except WorkerPoolError:
            pytest.skip("cannot fork in this sandbox")
        for process in pool._processes:
            process.terminate()
        for process in pool._processes:
            process.join(timeout=10.0)
        spec = pool_spec(circuits=("c17",))
        runner = CampaignRunner(spec, store=ResultStore())
        batches = runner._batches(list(spec.scenarios()), workers=1)
        with pytest.raises(WorkerPoolBroken):
            list(pool.run_batches(batches))
