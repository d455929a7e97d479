"""Frozen artifact bytes for the whole CLI pipeline on the C07 stub workspace.

C07 compares two runs of the same code, so it cannot notice a refactor that
changes artifact bytes. This test runs all six stages once and compares the
sha256 of every artifact with digests recorded before the artifact codec
replaced the hand-written readers and writers. ``manifest.json`` is left out:
it holds timestamps.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from click.testing import CliRunner

from mtbehave.cli import main as cli_main

from test_acceptance import build_stub_workspace

EXPECTED_SHA256 = {
    "segments.jsonl": "c3eaf4129ebe427ebeb4e13a5de737afb88368b4eaaf445e042bf47d28154d7b",
    "cases.jsonl": "27c8032b286df4998b0647d6cf95f5cc591cf47c36e1be3a7ad828db52155ff2",
    "records.jsonl": "63debcc51bfdb4bae8b1a6190e719bf1796a1b3c66f1856fc5f45d3bcfd05510",
    "verdicts.jsonl": "df6332aca2b0210717a5a3eb231562b163f4b5252d794c4fb3b5d6fe4d42f3e1",
    "sweep.json": "17894d2e236b99986d460fb8d78316d7b8cc3692cbebd26c4ce65bad538f355a",
    "sweep.md": "7fbeadee666d96e7cb24236c07c0ae70e5ffe8bbbd16f14a40fd2b4c57f73066",
    "eval.json": "5aee028e565bef36ed14a070aea639b6dbbf26520ef75a33fa4e1ad8785d381a",
    "report.md": "fa7a69d4d1f0a58156e05a67eaa9cc7a7077c186fdb26e8d2d3ceaf71daea392",
    "report.json": "5af43ac138e65383fe416c17636497ed284cb902350e7487de556f92304e251e",
    "report.csv": "40bdc441b35a0c19dcecb049b656871d5f0c5e64ba1a5a8735c9191aad1b5568",
}


def write_gold(root: Path) -> Path:
    """Gold rows for all 50 C07 cases: pairs 25-49 erroneous, 45-49 off the edit."""
    lines = []
    for i in range(50):
        erroneous = i >= 25
        lines.append(
            json.dumps(
                {
                    "case_id": f"p{i:02d}-noun-000",
                    "system_id": "stub-mt",
                    "is_erroneous": erroneous,
                    "error_spans": [[0, 1]] if erroneous else [],
                    "edited_spans_on_y_prime": [[1, 2]] if i >= 45 else [[0, 1]],
                }
            )
        )
    path = root / "gold.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_pipeline_artifacts_keep_their_bytes(tmp_path):
    config = build_stub_workspace(tmp_path)
    gold = write_gold(tmp_path)
    out = tmp_path / "out"
    runner = CliRunner()
    for stage, *extra in (
        ["extract"],
        ["generate"],
        ["judge"],
        ["sweep"],
        ["eval", "--gold", str(gold)],
        ["report", "--format", "markdown"],
        ["report", "--format", "json"],
        ["report", "--format", "csv"],
    ):
        result = runner.invoke(cli_main, [stage, "--config", str(config), *extra])
        assert result.exit_code == 0, result.output

    assert sorted(p.name for p in out.iterdir()) == sorted([*EXPECTED_SHA256, "manifest.json"])
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in EXPECTED_SHA256
    }
    assert digests == EXPECTED_SHA256
