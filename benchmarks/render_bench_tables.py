#!/usr/bin/env python
"""Render ``docs/performance.md`` (and the README summary table) from
the committed ``BENCH_*.json`` files.

The benchmark suite (``pytest benchmarks``) measures every hot path and
writes one JSON per bench under the gitignored ``build/bench/``; this
script turns the committed copies of those JSONs at the repository root
into the human-readable performance documentation, so the numbers in
the docs are *generated*, never hand-maintained.

Usage:

    python benchmarks/render_bench_tables.py            # rewrite files
    python benchmarks/render_bench_tables.py --check    # fail on drift

Refreshing the committed numbers is one command line — run the benches,
copy the five JSONs to the root, render — so the BENCH files and the
docs only ever change together:

    PYTHONPATH=src python -m pytest benchmarks -q && cp build/bench/BENCH_{aserta,structural,sertopt,campaign,telemetry}.json . && python benchmarks/render_bench_tables.py

``--check`` regenerates everything in memory and exits non-zero if the
committed ``docs/performance.md`` or the marker-delimited block in
``README.md`` differs — CI runs it in the docs job, so a re-run of the
benchmarks (or an edit to this script) must be accompanied by the
regenerated documentation.

The output is deterministic for fixed JSON inputs: timestamps are
ignored and numbers are rounded at render time.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The gate floors are read by importing the benchmark modules, which in
# turn import the repro package and the shared tests/ conformance
# harness — make both importable regardless of how this script is run.
for _extra in (ROOT / "src", ROOT / "tests"):
    if str(_extra) not in sys.path:
        sys.path.insert(0, str(_extra))
DOC_PATH = ROOT / "docs" / "performance.md"
README_PATH = ROOT / "README.md"
MARKER_BEGIN = "<!-- BENCH-TABLES:BEGIN (generated by benchmarks/render_bench_tables.py — do not edit) -->"
MARKER_END = "<!-- BENCH-TABLES:END -->"
#: The refresh command line of the module docstring, interpolated into
#: the doc as a value so its shell braces stay literal.
REGENERATE_COMMAND = (
    "PYTHONPATH=src python -m pytest benchmarks -q && "
    "cp build/bench/BENCH_{aserta,structural,sertopt,campaign,telemetry}.json . && "
    "python benchmarks/render_bench_tables.py"
)

HEADER = """\
# Performance

*Generated by [`benchmarks/render_bench_tables.py`](../benchmarks/render_bench_tables.py)
from the committed `BENCH_*.json` files — do not edit by hand; refresh
with the command under [Regenerating](#regenerating).  CI fails if this
file drifts from the JSONs.*

Every number below was measured by a gated benchmark: the named floor
is asserted on every CI run, so a regression on any of these paths
fails the build rather than silently landing.
"""


def _load(name: str) -> dict:
    path = ROOT / name
    if not path.exists():
        raise SystemExit(
            f"{name} missing — run `PYTHONPATH=src python -m pytest "
            f"benchmarks -q` and copy it from build/bench/ first"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def _floor(module: str, constant: str) -> float:
    """Read a gate floor straight from the benchmark module, so the
    rendered docs can never disagree with the asserted gate."""
    path = ROOT / "benchmarks" / f"{module}.py"
    spec = importlib.util.spec_from_file_location(module, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return float(getattr(mod, constant))


def _ms(seconds: float) -> str:
    value = seconds * 1e3
    if value >= 100:
        return f"{value:.0f} ms"
    return f"{value:.1f} ms"


def _s(seconds: float) -> str:
    return f"{seconds:.2f} s"


def _x(ratio: float) -> str:
    return f"{ratio:.1f}×"


def _pct(fraction: float) -> str:
    return f"{fraction:+.1%}"


def summary_rows(data: dict[str, dict], floors: dict[str, float]):
    """The PR 2–6 trajectory table, one row per hot path."""
    aserta = data["aserta"]
    structural = data["structural"]
    sertopt = data["sertopt"]
    campaign = data["campaign"]
    telemetry = data["telemetry"]
    warm = structural["warm"]
    matcher = sertopt["matcher"]
    sweep = aserta["sweep"]
    return [
        (
            "PR 2",
            f"`AsertaAnalyzer.analyze()` ({aserta['circuit']}, paper defaults)",
            _ms(aserta["before"]["analyze_s"]) + " (dict walk)",
            _ms(aserta["after"]["analyze_s"]) + " (array core)",
            _x(aserta["speedup"]),
            f"≥ {floors['aserta']:g}× (`BENCH_aserta.json`)",
        ),
        (
            "PR 3",
            f"Structural `P_ij` pass ({structural['circuit']}, "
            f"{structural['n_vectors']} vectors)",
            _s(structural["before"]["structural_s"]) + " (event walk)",
            _s(structural["after"]["structural_s"]) + " (live-pair kernel)",
            _x(structural["speedup"]),
            f"≥ {floors['structural']:g}× (`BENCH_structural.json`)",
        ),
        (
            "PR 3",
            f"Warm analyzer build ({structural['circuit']})",
            _s(warm["cold_analyzer_build_s"]) + " (cold)",
            _s(warm["warm_build_plus_analyze_s"]) + " (artifact cache)",
            _x(
                warm["cold_analyzer_build_s"]
                / warm["warm_build_plus_analyze_s"]
            ),
            "0 sims asserted (`tests/test_engine_cache.py`)",
        ),
        (
            "PR 4–5",
            f"`Sertopt.optimize()` ({sertopt['circuit']}, paper defaults)",
            _s(sertopt["before"]["optimize_s"]) + " (serial objective)",
            _s(sertopt["after"]["optimize_s"]) + " (level-batched)",
            _x(sertopt["speedup"]),
            f"≥ {floors['sertopt_e2e']:g}× (`BENCH_sertopt.json`)",
        ),
        (
            "PR 5",
            f"`MatchingEngine.match_batch` ({sertopt['circuit']}, "
            f"{matcher['lanes']}-lane population)",
            _ms(matcher["scalar_ms"] / 1e3) + " (scalar `match` loop)",
            _ms(matcher["level_ms"] / 1e3) + " (level-batched)",
            _x(matcher["speedup"]),
            f"≥ {floors['sertopt_match']:g}× (`BENCH_sertopt.json`)",
        ),
        (
            "PR 8",
            f"Fused §3.2 sweep ({sweep['circuit']}, "
            f"{sweep['lanes']}-lane population)",
            _ms(sweep["unfused_s"]) + " (per-level loop)",
            _ms(sweep["fused_s"]) + " (compiled plan)",
            _x(sweep["speedup"]),
            f"≥ {floors['sweep']:g}× (`BENCH_aserta.json`)",
        ),
        (
            "PR 1–2",
            f"Campaign resume ({campaign['grid']['scenarios']} scenarios, "
            "warm store)",
            _ms(campaign["serial_cold"]["wall_s"]) + " (cold)",
            _ms(campaign["serial_warm"]["wall_s"]) + " (resumed)",
            _x(campaign["serial_warm"]["speedup_vs_cold"]),
            "asserted (`BENCH_campaign.json`)",
        ),
        (
            "PR 7",
            f"Parallel campaign ({campaign['grid']['scenarios']} scenarios, "
            f"resident {campaign['parallel']['workers']}-worker pool)",
            _ms(campaign["serial_cold"]["wall_s"]) + " (serial cold)",
            _ms(campaign["parallel"]["wall_s"]) + " (warm-artifact pool)",
            _x(campaign["parallel"]["speedup_vs_serial_cold"]),
            f"≥ {floors['campaign_parallel']:g}× (`BENCH_campaign.json`)",
        ),
        (
            "PR 6",
            f"Telemetry off ({telemetry['circuit']} `analyze()`, "
            "null-object path)",
            _ms(telemetry["baseline_analyze_s"]) + " (uninstrumented)",
            _ms(telemetry["disabled_analyze_s"]) + " (instrumented, off)",
            _pct(telemetry["disabled_overhead"]) + " overhead",
            f"≤ {floors['telemetry']:.0%} (`BENCH_telemetry.json`)",
        ),
    ]


def _table(headers, rows):
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for __ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_summary(data, floors) -> str:
    return _table(
        ("PR", "Hot path", "Before", "After", "Speedup", "CI gate"),
        summary_rows(data, floors),
    )


def render_doc(data, floors) -> str:
    aserta = data["aserta"]
    structural = data["structural"]
    sertopt = data["sertopt"]
    campaign = data["campaign"]
    telemetry = data["telemetry"]
    matcher = sertopt["matcher"]
    parts = [HEADER]
    parts.append("## Speedup trajectory (PR 2 → PR 8)\n")
    parts.append(render_summary(data, floors))
    parts.append(
        f"""
## Analysis (`BENCH_aserta.json`)

One full ASERTA pass on {aserta['circuit']} ({aserta['gates']} gates,
{aserta['config']['n_vectors']} sensitization vectors,
{aserta['config']['n_sample_widths']} sample widths): the reference
dict-walk implementation needs {_ms(aserta['before']['analyze_s'])};
the array core needs {_ms(aserta['after']['analyze_s'])} —
≈ {aserta['after_analyses_per_s']:.0f} analyses/s, relative error vs
the reference ≤ {aserta['relative_error_vs_reference']:.1e}.

The population sweep behind `analyze_many` / `evaluate_batch` — the
Section-3.2 electrical-masking recursion over a
{aserta['sweep']['lanes']}-lane candidate batch on
{aserta['sweep']['circuit']} — runs through a precompiled
`SweepPlan` (live nonzero-share pairs, flat-offset gathers; see
[architecture.md](architecture.md)): the unfused per-level loop needs
{_ms(aserta['sweep']['unfused_s'])}, the compiled plan
{_ms(aserta['sweep']['fused_s'])}
({_x(aserta['sweep']['speedup'])}, gated at ≥ {floors['sweep']:g}×).
The two paths are asserted *bitwise identical* before timing.

## Structural engine (`BENCH_structural.json`)

The Section-3.1 `P_ij` estimate on {structural['circuit']}
({structural['gates']} gates, {structural['outputs']} outputs,
{structural['n_vectors']} vectors): event-driven walk
{_s(structural['before']['structural_s'])} vs batched fault-site
simulation {_s(structural['after']['structural_s'])}
({_x(structural['speedup'])}, gated at ≥ {floors['structural']:g}×,
medians of {structural['protocol']['pairs']} interleaved pairs;
bit-identical counts).  The batched kernel evaluates only the
(site, gate) pairs with a live fan-in.  A warm analyzer
build (content-addressed artifact cache) takes
{_s(structural['warm']['warm_build_plus_analyze_s'])} against
{_s(structural['warm']['cold_analyzer_build_s'])} cold, with
{structural['warm']['structural_sim_runs']} structural simulation run
for the whole cold+warm sequence.

## Optimization (`BENCH_sertopt.json`)

`Sertopt.optimize()` on {sertopt['circuit']} at paper defaults
({sertopt['config']['max_evaluations']} cost evaluations,
{sertopt['config']['n_vectors']} vectors, the coordinate driver),
evaluations sharing one analysis engine:

| Flow | Wall | vs serial |
| --- | --- | --- |
| Serial objective (PR 1) | {_s(sertopt['before']['optimize_s'])} | 1.0× |
| Batched populations, level-batched matcher (PR 5) | {_s(sertopt['after']['optimize_s'])} | {_x(sertopt['speedup'])} |

Both flows visit the identical coordinate trajectory (≤ 1e-9 relative
costs; measured
{sertopt['max_history_relative_difference']:.1e}).  The matcher kernel
itself — `match_batch` on a {matcher['lanes']}-lane candidate
population — takes {_ms(matcher['level_ms'] / 1e3)} against
{_ms(matcher['scalar_ms'] / 1e3)} for a loop of the scalar per-gate
`match` over the same lanes ({_x(matcher['speedup'])}, gated at
≥ {floors['sertopt_match']:g}×), choosing identical cells.

## Campaigns (`BENCH_campaign.json`)

A {campaign['grid']['scenarios']}-scenario grid
({' / '.join(campaign['grid']['circuits'])},
{len(campaign['grid']['charges_fc'])} charges, 2 environments,
{campaign['grid']['n_vectors']} vectors): cold serial run
{_ms(campaign['serial_cold']['wall_s'])}
({campaign['serial_cold']['scenarios_per_s']:.0f} scenarios/s); resumed
against the warm store {_ms(campaign['serial_warm']['wall_s'])}
({_x(campaign['serial_warm']['speedup_vs_cold'])}).

The same grid on a *resident* {campaign['parallel']['workers']}-worker
`WorkerPool` (forked once, spin-up
{_ms(campaign['parallel']['pool_spinup_s'])}, workers serving
structural passes from the on-disk artifact cache the cold run filled)
takes {_ms(campaign['parallel']['wall_s'])} —
{_x(campaign['parallel']['speedup_vs_serial_cold'])} vs serial cold,
gated at ≥ {floors['campaign_parallel']:g}× with
{campaign['parallel']['structural_sim_runs']} structural simulations in
any worker and exactly one analyzer build per structural group
(per-worker counters keyed by stable `w0`/`w1` labels:
{json.dumps(campaign['parallel']['analyzer_builds_by_worker'])}).
Serial and parallel runs return bit-identical result digests.  The
SQLite store backend reproduces the JSONL summary exactly
(`summary_equal_to_jsonl:
{str(campaign['sqlite_backend']['summary_equal_to_jsonl']).lower()}`),
and auto mode still picks serial below the `parallel_min_units` floor
when no resident pool exists
(`auto_mode: {campaign['auto_mode']}`).

## Telemetry (`BENCH_telemetry.json`)

The observability layer (see [observability.md](observability.md)) is
gated on being free when disabled: `analyze()` on
{telemetry['circuit']} through the instrumented code with telemetry
*off* (the null-object path) costs
{_ms(telemetry['disabled_analyze_s'])} against
{_ms(telemetry['baseline_analyze_s'])} for an uninstrumented replica of
the same body — {_pct(telemetry['disabled_overhead'])}, gated at
≤ {floors['telemetry']:.0%}.  With spans and counters recording, the
same analysis costs {_ms(telemetry['enabled_analyze_s'])}
({_pct(telemetry['enabled_overhead'])}, reported but not gated).  The
bench also exports `build/bench/BENCH_telemetry_trace.json`, a
validated Chrome trace of a full c432 `Sertopt.optimize()`, uploaded as
a CI artifact.

## Regenerating

The benches write their JSON under the gitignored `build/bench/`, so a
test run never touches the committed files.  One command line runs
them, copies the five JSONs to the repository root and re-renders this
file and the README block:

```sh
{REGENERATE_COMMAND}
```

CI runs `python benchmarks/render_bench_tables.py --check`.
"""
    )
    return "\n".join(parts)


def render_readme(readme_text: str, data, floors) -> str:
    block = (
        MARKER_BEGIN
        + "\n"
        + render_summary(data, floors)
        + "\n\nFull details and per-bench numbers: "
        + "[docs/performance.md](docs/performance.md).\n"
        + MARKER_END
    )
    begin = readme_text.find(MARKER_BEGIN)
    end = readme_text.find(MARKER_END)
    if begin == -1 or end == -1:
        raise SystemExit(
            f"README.md is missing the {MARKER_BEGIN!r} / {MARKER_END!r} "
            "markers"
        )
    return readme_text[:begin] + block + readme_text[end + len(MARKER_END):]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify docs/performance.md and the README block are "
        "up to date instead of rewriting them",
    )
    args = parser.parse_args(argv)

    data = {
        "aserta": _load("BENCH_aserta.json"),
        "structural": _load("BENCH_structural.json"),
        "sertopt": _load("BENCH_sertopt.json"),
        "campaign": _load("BENCH_campaign.json"),
        "telemetry": _load("BENCH_telemetry.json"),
    }
    floors = {
        "aserta": _floor("test_bench_aserta", "MIN_SPEEDUP"),
        "sweep": _floor("test_bench_aserta", "MIN_SWEEP_SPEEDUP"),
        "structural": _floor("test_bench_structural", "MIN_SPEEDUP"),
        "sertopt_e2e": _floor("test_bench_sertopt", "MIN_E2E_SPEEDUP"),
        "sertopt_match": _floor("test_bench_sertopt", "MIN_MATCH_SPEEDUP"),
        "telemetry": _floor("test_bench_telemetry", "MAX_DISABLED_OVERHEAD"),
        "campaign_parallel": _floor(
            "test_bench_campaign", "MIN_PARALLEL_SPEEDUP"
        ),
    }

    doc = render_doc(data, floors)
    readme = render_readme(
        README_PATH.read_text(encoding="utf-8"), data, floors
    )

    if args.check:
        stale = []
        if not DOC_PATH.exists() or DOC_PATH.read_text(encoding="utf-8") != doc:
            stale.append(str(DOC_PATH.relative_to(ROOT)))
        if README_PATH.read_text(encoding="utf-8") != readme:
            stale.append("README.md (BENCH-TABLES block)")
        if stale:
            print(
                "stale generated performance tables: "
                + ", ".join(stale)
                + "\nrun `python benchmarks/render_bench_tables.py` and "
                "commit the result",
                file=sys.stderr,
            )
            return 1
        print("performance tables up to date")
        return 0

    DOC_PATH.parent.mkdir(parents=True, exist_ok=True)
    DOC_PATH.write_text(doc, encoding="utf-8")
    README_PATH.write_text(readme, encoding="utf-8")
    print(f"wrote {DOC_PATH.relative_to(ROOT)} and the README block")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
