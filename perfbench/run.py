"""The repository benchmark: four ASERTA/SERTOPT flows end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload iscas --seed 1 --seconds 10 --trace 0

Each run generates its inputs from ``--seed``, sets up (technology
tables, artifact cache, worker pool, warm analyzers), then times rounds
of the estimate, score, optimize and campaign flows (see ``flows.py``)
for at least ``--seconds`` and ``flows.MIN_ROUNDS`` rounds, checks the simulated
outputs, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer ledger
(``ledger.py``), writing the spans to ``perfbench/out/`` as a Chrome
trace for ``tools/trace_summary.py``.  The lines before it give the run
metadata and a digest of every simulated output, so two commits can be
shown to simulate identically.

BLAS pools default to one thread (``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS``, unless already set): several processes share the
CPUs during a campaign, and spinning BLAS threads distort timings.
Single-process measurements, set-up included, are in process CPU seconds
(see ``flows.py``) plus the worker pool's wall-clock spin-up; the
campaign compute run is wall-clock.  ``peak_rss_mb`` comes from a child
forked before set-up (see ``memory.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import flows  # noqa: E402
import ledger  # noqa: E402
import memory  # noqa: E402
from repro.telemetry.export import write_chrome_trace  # noqa: E402
from repro.telemetry.tracer import NULL_TRACER, Tracer  # noqa: E402


def _metadata(args) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "REPRO_ARRAY_BACKEND": os.environ.get("REPRO_ARRAY_BACKEND"),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(flows.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the worker pool is shut down.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    workload = flows.WORKLOADS[args.workload]
    inputs = flows.Inputs(workload, args.seed)
    checks = flows.Checks()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    state = None
    try:
        tables_s = flows.warm_tables(workload)
        started = time.perf_counter()
        probe = None if args.trace else memory.measure(workload, inputs)
        probe_s = time.perf_counter() - started
        repeats = []
        for index in range(flows.SETUP_REPEATS):
            if state is not None:
                state.close()
                state = None
            started = flows.CLOCK()
            state = flows.build_state(workload, inputs, work / f"artifacts-{index}")
            # The workers warm up in their own processes, which this
            # process's CPU clock does not see: add the pool's wall-clock
            # fork-to-ready time.
            spinup_s = state.pool.spinup_s if state.pool is not None else 0.0
            repeats.append(flows.CLOCK() - started + spinup_s)
        setup_s = tables_s + statistics.median(repeats)

        tracer = Tracer()
        outputs = flows.Outputs()
        untraced: list[flows.Round] = []
        traced: list[flows.Round] = []
        started = time.perf_counter()
        while (
            len(untraced) + len(traced) < flows.MIN_ROUNDS
            or (args.trace and len(traced) < 2)
            or time.perf_counter() - started < args.seconds
        ):
            # Traced round i repeats untraced round i's work (the optimizer
            # instances rotate by round index), so the two compare.
            if args.trace and len(traced) < len(untraced):
                with ledger.installed(tracer):
                    traced.append(flows.run_round(
                        len(traced), workload, inputs, state, tracer, checks,
                        outputs,
                    ))
            else:
                untraced.append(flows.run_round(
                    len(untraced), workload, inputs, state, NULL_TRACER,
                    checks, outputs,
                ))
        rounds = untraced + traced
        timed_s = time.perf_counter() - started

        started = time.perf_counter()
        flows.check_campaign_samples(state, inputs, rounds[0].outcomes[0], checks)
        flows.check_golden(ROOT, checks)
        spice_corr = flows.spice_correlation(inputs, checks)
        if probe is not None:
            memory.check_outputs(probe, outputs, checks)
        checks_s = time.perf_counter() - started

        if args.trace:
            values = ledger.layer_metrics(tracer, len(traced))
            values.update(flows.counted_layers(traced, state.pool))
            values["trace.overhead_frac"] = ledger.overhead_frac(
                [r.clock_s for r in traced], [r.clock_s for r in untraced]
            )
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            write_chrome_trace(trace_path, tracer.spans())
        else:
            values = flows.end_to_end(
                workload, untraced, outputs, setup_s, spice_corr,
                probe["peak_rss_mb"],
            )
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    error_rate = checks.failed / max(1, checks.attempted)
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'error_rate':<44} {error_rate:>14.6g} fraction", file=sys.stderr)

    meta = _metadata(args)
    meta.update(
        rounds=len(rounds),
        traced_rounds=len(traced),
        phase_s={"tables": tables_s, "memory_probe": probe_s, "setups": repeats,
                 "timed": timed_s, "checks": checks_s},
        error_rate=error_rate,
        samples=flows.samples(untraced),
    )
    if args.trace:
        meta["layer_targets"] = {name: ledger.target_of(name) for name in metrics}
    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        "digest "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "sha256": outputs.digest(),
                "outputs": outputs.values,
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
