"""Command-line campaign driver.

Examples::

    # 2 circuits x 3 charges x 2 environments, parallel, persistent store
    python -m repro.campaign --circuits c17 c432 --charges 4 8 16 \\
        --environments sea-level avionics --store campaign.jsonl

    # re-summarize an existing store without computing anything
    python -m repro.campaign --circuits c17 c432 --charges 4 8 16 \\
        --environments sea-level avionics --store campaign.jsonl
    # (completed scenarios are skipped, so the second run is instant)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.campaign.environments import ENVIRONMENTS, environment
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import STORE_BACKENDS, ResultStore
from repro.campaign.summarize import format_runtime_accounting, summarize
from repro.errors import CampaignError, ReproError
from repro.tech import constants as k
from repro.tech.library import CellParams, ParameterAssignment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run a batch soft-error analysis campaign over a "
        "circuit x charge x environment x assignment grid.",
    )
    parser.add_argument(
        "--circuits", nargs="+", required=True, metavar="NAME",
        help="ISCAS-85 circuit names (e.g. c17 c432 c499)",
    )
    parser.add_argument(
        "--charges", nargs="+", type=float, default=[4.0, 8.0, k.DEFAULT_CHARGE_FC],
        metavar="FC", help="injected charges in fC (default: 4 8 16)",
    )
    parser.add_argument(
        "--environments", nargs="+", default=["sea-level", "avionics"],
        choices=sorted(ENVIRONMENTS), metavar="ENV",
        help=f"environment presets (choices: {', '.join(sorted(ENVIRONMENTS))})",
    )
    parser.add_argument(
        "--sizes", nargs="+", type=float, default=[1.0], metavar="Z",
        help="uniform gate sizes, one assignment per value "
        "(1.0 is named 'nominal', others 'sizeZ')",
    )
    parser.add_argument(
        "--n-vectors", type=int, default=2000,
        help="random vectors for the P_ij estimate (default: 2000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sensitization seed")
    parser.add_argument(
        "--sample-widths", nargs="+", type=int, default=[10], metavar="K",
        help="sample glitch-width counts, one analysis config per value",
    )
    parser.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent result store; completed scenarios are skipped "
        "on re-runs.  A .sqlite/.sqlite3/.db suffix selects the SQLite "
        "backend (concurrent-writer safe, O(1) resume), anything else "
        "JSONL",
    )
    parser.add_argument(
        "--store-backend", default="auto",
        choices=list(STORE_BACKENDS),
        help="override the suffix-based store backend selection",
    )
    parser.add_argument(
        "--compact-store", action="store_true",
        help="rewrite the store without redundant history after the "
        "run (JSONL: drop superseded lines, atomic rename; SQLite: "
        "checkpoint + VACUUM)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk compiled-artifact cache (P_ij matrices, LUT "
        "tensors); re-runs and other campaigns sharing the directory "
        "skip the structural fault simulation",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--serial", action="store_true", help="force single-process execution"
    )
    mode.add_argument(
        "--parallel", action="store_true", help="force process-parallel execution"
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome/Perfetto trace of the run (spans from "
        "every worker process merged onto one timeline); open it at "
        "https://ui.perfetto.dev or chrome://tracing",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry report (span totals + metric "
        "counters) after the summary tables",
    )
    return parser


def _assignments(sizes: Sequence[float]) -> dict[str, ParameterAssignment]:
    assignments: dict[str, ParameterAssignment] = {}
    for size in sizes:
        name = "nominal" if size == 1.0 else f"size{size:g}"
        if name in assignments:
            raise CampaignError(f"duplicate --sizes value: {size:g}")
        assignments[name] = ParameterAssignment(CellParams(size=size))
    return assignments


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        telemetry = None
        if args.trace_out or args.metrics:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        spec = CampaignSpec(
            circuits=tuple(args.circuits),
            charges_fc=tuple(args.charges),
            environments=tuple(environment(name) for name in args.environments),
            assignments=_assignments(args.sizes),
            n_vectors=args.n_vectors,
            seed=args.seed,
            sample_width_counts=tuple(args.sample_widths),
            cache_dir=args.cache_dir,
            telemetry=telemetry,
        )
        store = (
            ResultStore(args.store, backend=args.store_backend)
            if args.store
            else ResultStore()
        )
        parallel = True if args.parallel else False if args.serial else None
        with store, CampaignRunner(
            spec, store=store, max_workers=args.workers
        ) as runner:
            outcome = runner.run(parallel=parallel)
            summary = summarize(outcome)
            print(summary.format_fit_table())
            print()
            print(summary.format_best_table())
            print()
            print(format_runtime_accounting(outcome))
            if args.compact_store:
                dropped = store.compact()
                print(f"compacted store: {dropped} redundant record(s) dropped")
            if store.path is not None:
                print(
                    f"store: {store.path} ({len(store)} results, "
                    f"{store.backend_name} backend)"
                )
        if telemetry is not None and args.metrics:
            from repro.telemetry import format_report

            print()
            print(format_report(telemetry))
        if telemetry is not None and args.trace_out:
            from repro.telemetry import write_chrome_trace

            path = write_chrome_trace(
                args.trace_out,
                telemetry.tracer.spans(),
                metadata={"mode": outcome.mode, "workers": outcome.workers},
            )
            print(f"trace: {path} ({len(telemetry.tracer)} spans)")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
