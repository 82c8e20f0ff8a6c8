"""The traced benchmark's layer wrappers resolve against the library.

``perfbench/ledger.py`` patches every entry point in ``ledger.LAYERS``
by the name its caller looks up.  A renamed or deleted name there makes
``python3 perfbench/run.py --trace 1`` die with a ``KeyError`` only
after a full set-up; entering ``ledger.installed()`` once resolves every
name, so this test catches it in the tier-1 run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from repro.telemetry.tracer import Tracer

LEDGER = Path(__file__).resolve().parent.parent / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_every_layer_installs_and_restores():
    ledger = _load_ledger()
    names = [(module, path) for module, path, *__ in ledger.LAYERS]
    before = [_current(module, path) for module, path in names]
    with ledger.installed(Tracer()):
        during = [_current(module, path) for module, path in names]
    after = [_current(module, path) for module, path in names]
    assert all(w is not o for w, o in zip(during, before))
    assert all(a is o for a, o in zip(after, before))
