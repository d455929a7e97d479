"""The benchmark's tracer wraps the package's functions and methods by name.

``perfbench/tracer.py`` looks each listed name up with ``getattr`` and fails
on a missing one, so renaming or removing any of them breaks traced runs. It
counts a cache hit for a request whose ``ResponseCache.get`` returned one.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from test_acceptance import build_stub_workspace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parent.parent / "src"


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


def modules_loaded_by(statement: str) -> list[str]:
    """The ``mtbehave`` modules in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    code = f"import sys; {statement}; print(*sorted(name for name in sys.modules if name.startswith('mtbehave')))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.split()


def test_the_package_loads_no_module_and_the_cli_loads_every_traced_one():
    # the tracer's install reads these seven from sys.modules right after importing the CLI
    traced = ["cli", "corpus", "segmentation", "casegen", "judge", "report", "backends"]
    assert modules_loaded_by("import mtbehave") == ["mtbehave"]
    assert set(modules_loaded_by("import mtbehave.cli")) >= {"mtbehave", *(f"mtbehave.{name}" for name in traced)}


def test_every_request_of_a_traced_warm_stage_counts_as_a_cache_hit(tmp_path):
    # perfbench's own check asks only that hits + misses == requests
    config = build_stub_workspace(tmp_path)
    document = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**document, "cache_root": "cache"}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for stage in ("generate", "judge"):  # fill the cache
        subprocess.run([sys.executable, "-m", "mtbehave.cli", stage, "--config", str(config)],
                       env=env, capture_output=True, check=True)
    trace_file = tmp_path / "judge.trace.json"
    subprocess.run([sys.executable, str(TRACER), str(trace_file), "judge", "--config", str(config)],
                   env=env, capture_output=True, check=True)
    counts = json.loads(trace_file.read_text(encoding="utf-8"))["counts"]
    requests = sum(count for name, count in counts.items() if name.endswith(".requests"))
    assert counts["backends.translator.requests"] > 0 and counts["backends.scorer_ref_based.requests"] > 0
    assert counts["backends.cache.hits"] == requests
    assert counts.get("backends.cache.misses", 0) == 0
    assert counts.get("backends.cache.puts", 0) == 0
