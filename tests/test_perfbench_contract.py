"""The benchmark's tracer wraps the package's functions and methods by name.

``perfbench/tracer.py`` looks each listed name up with ``getattr`` and fails
on a missing one, so renaming or removing any of them breaks traced runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(path: tuple[str, ...]) -> bool:
    target = importlib.import_module(f"mtbehave.{path[0]}")
    for attr in path[1:]:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def test_every_traced_name_exists():
    tracer = load_tracer()
    names = [*tracer.FUNCTIONS, *tracer.METHODS]
    assert tracer.FUNCTIONS and tracer.METHODS
    assert [".".join(name) for name in names if not resolves(name)] == []
