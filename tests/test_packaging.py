"""Every third-party module the package imports is a declared runtime
dependency.

The imports are collected from ``src/repro/**/*.py`` with :mod:`ast`
(top-level package of every ``import`` / ``from ... import``, relative
imports skipped); the standard library and ``repro`` itself are
dropped.  ``[project].dependencies`` is read from ``pyproject.toml``
without a TOML library, since Python 3.10 has no :mod:`tomllib`.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages() -> set[str]:
    packages: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                packages.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                packages.add(node.module.split(".")[0])
    return packages


def _declared_dependencies() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    listing = re.search(
        r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S
    )
    assert listing, "[project] declares no dependencies"
    requirements = re.findall(r"[\"']([^\"']+)[\"']", listing.group(1))
    return {
        re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def test_third_party_imports_are_declared_dependencies():
    third_party = (
        _imported_packages() - set(sys.stdlib_module_names) - {"repro"}
    )
    assert third_party, "no third-party imports found; the scan is broken"
    declared = _declared_dependencies()
    missing = {name for name in third_party if name.lower() not in declared}
    assert not missing, (
        f"imported by src/repro but missing from [project].dependencies: "
        f"{sorted(missing)}"
    )
