"""The generated performance doc shows the refresh command verbatim.

``benchmarks/render_bench_tables.py`` documents the one command line
that refreshes the committed ``BENCH_*.json`` files; the "Regenerating"
section of ``docs/performance.md`` must print that same line, with its
shell brace list intact.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "render_bench_tables.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("render_bench_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_doc_shows_the_documented_refresh_command():
    module = _load_script()
    (command,) = [
        line.strip()
        for line in module.__doc__.splitlines()
        if line.strip().startswith("PYTHONPATH=src python -m pytest benchmarks")
    ]
    assert module.REGENERATE_COMMAND == command
    doc = (ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    assert f"\n{command}\n" in doc
