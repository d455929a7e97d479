"""The six commands against the benchmark's independent checker, on drawn workspaces.

``perfbench.check.check_run`` recomputes every artifact of a run from the
workspace alone with its own model of the method (``perfbench/oracle.py``).
Here hypothesis draws the workspace (seed, capability, cases per pair, jobs and
corpus size), the six commands run in this process through ``main()`` with the
benchmark's own sweep, gold and format arguments, and the checker must find no
problem. The capability is ``general`` or ``noun``: the workspace builder plants
its outcome groups for no other. A draw is left out when the checker cannot model
its ``eval.json`` (see the test).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # perfbench sits at the repository root
from perfbench import check, workspace  # noqa: E402

from conftest import run_cli  # noqa: E402

SWEEP_GRID = (workspace.SWEEP_ALPHAS, workspace.SWEEP_BETAS)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    capability=st.sampled_from(["general", "noun"]),
    per_pair=st.integers(1, 3),
    jobs=st.sampled_from([1, 2]),
    n_pairs=st.integers(12, 30),
)
def test_every_artifact_agrees_with_the_oracle(seed, capability, per_pair, jobs, n_pairs):
    with tempfile.TemporaryDirectory() as temp:
        ws = Path(temp)
        table, predictions = workspace.build_workspace(ws, seed, n_pairs, capability, per_pair)
        # The checker recomputes eval.json only where every ratio is defined: a draw whose
        # gold marks no case that fails as erroneous makes its ``_rate`` divide by zero.
        assume(any(
            row["is_erroneous"] and not predictions[row["case_id"].split("-")[0]]["passed"]
            for row in check.read_jsonl(ws / "gold.jsonl")
        ))
        config = workspace.write_config(ws, capability, per_pair, seed, jobs, table, cache=False, endpoint=None)
        extra = {
            "sweep": ["--alphas", ",".join(f"{a:g}" for a in SWEEP_GRID[0]),
                      "--betas", ",".join(f"{b:g}" for b in SWEEP_GRID[1])],
            "eval": ["--gold", ws / "gold.jsonl"],
            "report": ["--format", "markdown"],
        }
        for stage in check.STAGES:
            result = run_cli([stage, "--config", config, *extra.get(stage, [])])
            assert result.exit_code == 0, f"{stage}: {result.output}"
        assert check.check_run(ws, ws / "out", SWEEP_GRID, workspace.BACKEND_IDS["translator"]) == []
