"""Benchmark configuration.

Each benchmark regenerates one paper artifact (figure or table) and
asserts its qualitative shape, while pytest-benchmark captures the
runtime.  ``REPRO_BENCH_SCALE`` selects the protocol size:

    REPRO_BENCH_SCALE=fast    (default; CI-friendly)
    REPRO_BENCH_SCALE=medium
    REPRO_BENCH_SCALE=paper   (the paper's protocol: 10 000 vectors,
                               50 reference vectors, full circuit list)

Every bench writes its JSON record (and the telemetry bench its example
Chrome trace) under :data:`BENCH_OUT` through the ``bench_path``
fixture.  That directory is gitignored, so running the suite never
rewrites the committed ``BENCH_*.json`` files that
``docs/performance.md`` is rendered from; refreshing them is one
explicit step (see ``benchmarks/render_bench_tables.py``).
"""

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentScale

#: Output directory of every bench file (gitignored).
BENCH_OUT = Path(__file__).resolve().parent.parent / "build" / "bench"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return ExperimentScale.named(os.environ.get("REPRO_BENCH_SCALE", "fast"))


@pytest.fixture(scope="session")
def bench_path():
    """``bench_path(name)`` is the path a bench writes ``name`` to,
    under :data:`BENCH_OUT` (created on first use)."""

    def path(name: str) -> Path:
        BENCH_OUT.mkdir(parents=True, exist_ok=True)
        return BENCH_OUT / name

    return path
