"""End-to-end tests of the command-line pipeline against stub backends."""

from __future__ import annotations

import atexit
import codecs
import gc
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import mtbehave
from mtbehave import __version__, codec, corpus, segmentation
from mtbehave.backends import BackendSpec, HttpStatusError, Kind, ResponseCache, StubParams, _StubTransport
from mtbehave.casegen import STATUS_KEPT, FilterStatus, TestCase as Case, read_cases
from mtbehave.cli import (
    CorpusFiles,
    ManifestEntry,
    RunConfig,
    RunManifest,
    _freeze_the_heap_at_exit,
    build_parser,
    load_run_config,
)
from mtbehave.codec import from_row, json_text, row_keys, to_row, write_jsonl
from mtbehave.corpus import load_annotations, load_pairs
from mtbehave.judge import FailReason, TranslationRecord, Verdict
from mtbehave.report import GoldErrorAnnotation, load_gold
from mtbehave.segmentation import MAX_PLANS_PER_PAIR, Capability

from conftest import backend_reads, cache_rows, damage_cache_row, run_cli
from dumpers import load_report
from test_acceptance import build_stub_workspace
from test_pipeline_bytes import EXPECTED_SHA256, write_gold as write_c07_gold

SENTENCES = {
    "base": "the little shop closed early today",
    "edited": "the little store closed early today",
}

# the system under test translates both the base and the edited source
# perfectly, so the single generated noun case passes under the defaults
TRANSLATOR_TABLE = {
    SENTENCES["base"]: "商店 很早 关门",
    SENTENCES["edited"]: "门店 很早 关门",
}

# A well-formed manifest entry, for tests that break one of its keys.
ENTRY = {
    "stage": "generate",
    "tool_version": __version__,
    "config_digest": "0" * 64,
    "seed": 7,
    "inputs": {},
    "outputs": {"out/cases.jsonl": "0" * 64},
    "started_at": "2026-01-01T00:00:00+00:00",
    "finished_at": "2026-01-01T00:00:01+00:00",
}


def backend_section():
    return {
        "infill": {
            "backend_id": "stub-infill",
            "transport": "stub",
            "stub_params": {"src": "store", "ref": "门店"},
        },
        "scorer_ref_free": {
            "backend_id": "stub-qe",
            "transport": "stub",
            "stub_params": {"mode": "constant", "value": 0.9},
        },
        "translator": {
            "backend_id": "stub-mt",
            "transport": "stub",
            "stub_params": {"table": TRANSLATOR_TABLE},
        },
        "scorer_ref_based": {
            "backend_id": "stub-f1",
            "transport": "stub",
            "stub_params": {"mode": "unigram_f1"},
        },
    }


def write_corpus(root: Path) -> None:
    (root / "pairs.tsv").write_text(
        f"p1\t{SENTENCES['base']}\t商店 很早 关门\n"
        "p2\the ran home fast just now\t他 跑了 回家 很快\n"
        "p3\tx y\t甲 乙\n",
        encoding="utf-8",
    )
    (root / "alignments.txt").write_text(
        "2-0 3-2 4-1\n0-0 1-1 2-2 3-3\n\n", encoding="utf-8"
    )
    rows = [
        {
            "id": "p1",
            "pos": ["OTHER", "OTHER", "NOUN", "VERB", "ADV", "OTHER"],
            "past_perfect": [False] * 6,
            "ne": [],
            "phrases_src": [],
            "phrases_ref": [],
        },
        {
            "id": "p2",
            "pos": ["OTHER", "VERB", "OTHER", "ADV", "OTHER", "OTHER"],
            "past_perfect": [False] * 6,
            "ne": [],
            "phrases_src": [],
            "phrases_ref": [],
        },
        {
            "id": "p3",
            "pos": ["OTHER", "OTHER"],
            "past_perfect": [False, False],
            "ne": [],
            "phrases_src": [],
            "phrases_ref": [],
        },
    ]
    (root / "annotations.jsonl").write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
        encoding="utf-8",
    )


def config_document(**changes) -> dict:
    config = {
        "corpus": {
            "pairs": "pairs.tsv",
            "alignments": "alignments.txt",
            "annotations": "annotations.jsonl",
        },
        "capability": "noun",
        "per_pair": 1,
        "seed": 7,
        "judge": {"alpha": 0.8, "beta": 0.05},
        "cache_root": "cache",
        "output_dir": "out",
        "backends": backend_section(),
    }
    config.update(changes)
    return config


def write_document(path: Path, document: object) -> Path:
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(json.dumps(document, ensure_ascii=False, indent=1), encoding="utf-8")
    return path


def write_config(root: Path, name="config.json", **changes) -> Path:
    return write_document(root / name, config_document(**changes))


def workspace(root: Path) -> Path:
    write_corpus(root)
    return write_config(root)


def invoke(*args):
    return run_cli(args)


def run_ok(*args):
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return result


class TestExtract:
    def test_writes_all_editable_segments(self, tmp_path):
        config = workspace(tmp_path)
        result = run_ok("extract", "--config", config)
        # p1 has 3 solely aligned words, p2 has 4, p3 is unaligned
        assert "extracted 7 editable segments from 3 pairs" in result.output
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / "segments.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 7
        assert rows[0] == {
            "pair_id": "p1",
            "src_span": [2, 3],
            "ref_span": [0, 1],
            "kind": "word",
            "pos_class": "NOUN",
            "ne_type": None,
            "tense_eligible": False,
        }

    def test_missing_config_is_a_usage_error(self, tmp_path):
        result = invoke("extract", "--config", tmp_path / "nope.json")
        assert result.exit_code == 1
        assert "config file not found" in result.output

    def test_invalid_alignment_is_a_data_error(self, tmp_path):
        config = workspace(tmp_path)
        (tmp_path / "alignments.txt").write_text("9-0\n0-0\n\n", encoding="utf-8")
        result = invoke("extract", "--config", config)
        assert result.exit_code == 2
        assert "src index 9 out of range" in result.output

    def test_an_output_dir_that_is_a_file_is_an_error_without_a_traceback(self, tmp_path):
        config = workspace(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(mtbehave.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "mtbehave.cli", "extract", "--config", str(config),
             "--output-dir", str(blocker)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and str(blocker) in result.stderr
        assert "Traceback" not in result.stderr
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"


class TestOneExtraction:
    """``extract`` and ``generate`` extract each pair's segments once, the same way."""

    @pytest.mark.parametrize("stage", ["extract", "generate"])
    def test_a_stage_loads_the_corpus_once_and_extracts_each_pair_once(self, tmp_path, monkeypatch, stage):
        calls = Counter()
        for original in (corpus.load_corpus, segmentation.extract_editable):

            def counted(*args, _original=original, **kwargs):
                calls[_original.__name__] += 1
                return _original(*args, **kwargs)

            # wherever a module of the package holds the function, as perfbench's tracer does
            for name, module in list(sys.modules.items()):
                if name.partition(".")[0] == "mtbehave":
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, counted)
        run_ok(stage, "--config", build_stub_workspace(tmp_path))
        assert calls == {"load_corpus": 1, "extract_editable": 50}

    @pytest.mark.parametrize("capability", ["noun", "verb", "adv"])
    def test_every_case_masks_reference_spans_that_extract_lists_for_its_pair(self, tmp_path, capability):
        config = build_stub_workspace(tmp_path)
        run_ok("extract", "--config", config)
        run_ok("generate", "--config", config, "--capability", capability)
        listed = {}
        for line in (tmp_path / "out" / "segments.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            listed.setdefault(row["pair_id"], set()).add(tuple(row["ref_span"]))
        cases = read_cases(tmp_path / "out" / "cases.jsonl")
        assert len(cases) == 50
        for case in cases:
            assert case.masked_ref_spans and set(case.masked_ref_spans) <= listed[case.pair_id]


class TestGenerate:
    def test_generates_and_keeps_the_noun_case(self, tmp_path):
        config = workspace(tmp_path)
        result = run_ok("generate", "--config", config)
        assert (
            "generated 1 cases for noun (kept 1, identical 0, quality-dropped 0, errors 0)"
            in result.output
        )
        cases = read_cases(tmp_path / "out" / "cases.jsonl")
        (case,) = cases
        assert case.case_id == "p1-noun-000"
        assert case.filter_status == STATUS_KEPT
        assert case.source_prime == tuple(SENTENCES["edited"].split(" "))
        assert case.reference_prime == ("门店", "很早", "关门")

    def test_reruns_are_byte_identical(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config, "--output-dir", tmp_path / "o1")
        run_ok("generate", "--config", config, "--output-dir", tmp_path / "o2")
        first = (tmp_path / "o1" / "cases.jsonl").read_bytes()
        second = (tmp_path / "o2" / "cases.jsonl").read_bytes()
        assert first == second

    def test_quality_filter_drops_a_length_changing_fill(self, tmp_path):
        write_corpus(tmp_path)
        backends = backend_section()
        # a three-token fill shifts the stub length-ratio score from
        # 3/6 to 3/8, a 0.125 drop, which beta 0.05 rejects
        backends["infill"]["stub_params"] = {"src": "big box store", "ref": "门店"}
        del backends["scorer_ref_free"]["stub_params"]
        config = write_config(
            tmp_path, "longfill.json", backends=backends, output_dir="out_longfill"
        )
        result = run_ok("generate", "--config", config)
        assert "kept 0, identical 0, quality-dropped 1, errors 0" in result.output

    def test_truncated_cache_entry_is_recomputed_and_rewritten(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        cases = (tmp_path / "out" / "cases.jsonl").read_bytes()
        cache = ResponseCache(tmp_path / "cache")
        rows = cache_rows(cache)
        (key,) = [key for key in rows if key[0] == "stub-infill"]
        whole = rows[key][1]
        damage_cache_row(cache, *key, value=whole[: len(whole) // 2])
        run_ok("generate", "--config", config)
        assert cache_rows(cache)[key] == rows[key]
        assert (tmp_path / "out" / "cases.jsonl").read_bytes() == cases

    def test_a_mask_token_in_the_pairs_file_is_a_data_error_before_any_request(
        self, tmp_path, monkeypatch
    ):
        config = workspace(tmp_path)
        pairs = tmp_path / "pairs.tsv"
        text = pairs.read_text(encoding="utf-8")
        pairs.write_text(text.replace("x y", "x <mask>"), encoding="utf-8")
        monkeypatch.setattr(
            _StubTransport, "send", lambda self, request: pytest.fail("a backend was called")
        )
        result = invoke("generate", "--config", config)
        assert result.exit_code == 2
        assert f"{pairs}:3: source contains the mask token '<mask>'" in result.output
        assert not (tmp_path / "out" / "cases.jsonl").exists()

    def test_a_fill_that_leaves_the_mask_errors_its_case(self, tmp_path):
        # No corpus token holds the mask, so one in a fill is a slot the model left
        # unfilled; kept, its case would blame the MT system for translating it.
        config = build_stub_workspace(tmp_path)
        document = json.loads(config.read_text(encoding="utf-8"))
        document["backends"]["infill"]["stub_params"] = {"src": "<mask>", "ref": "<mask>"}
        write_document(config, document)
        result = run_ok("generate", "--config", config)
        assert "(kept 0, identical 0, quality-dropped 0, errors 50)" in result.output
        cases = read_cases(tmp_path / "out" / "cases.jsonl")
        assert {(case.error_kind, case.error) for case in cases} == {
            ("parse", "the English fill still holds '<mask>'")
        }

    def test_missing_backend_is_a_usage_error(self, tmp_path):
        write_corpus(tmp_path)
        config = write_config(tmp_path, "nobackends.json", backends={})
        result = invoke("generate", "--config", config)
        assert result.exit_code == 1
        assert "config declares no 'infill' backend" in result.output


class TestJudge:
    def test_passes_the_faithful_translation(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        result = run_ok("judge", "--config", config)
        out = tmp_path / "out"
        assert (
            f"judged 1 cases for stub-mt: pass rate 100.00 "
            f"(alpha=0.8, beta=0.05, errored 0) -> {out / 'verdicts.jsonl'}"
        ) in result.output
        assert (out / "records.jsonl").is_file()
        verdict = json.loads((out / "verdicts.jsonl").read_text().splitlines()[0])
        assert verdict["case_id"] == "p1-noun-000"
        assert verdict["passed"] is True

    def test_needs_generated_cases_first(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("judge", "--config", config)
        assert result.exit_code == 1
        assert "run generate first" in result.output

    def test_unreachable_alpha_fails_every_case(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        result = run_ok("judge", "--config", config, "--alpha", "1.1")
        assert "pass rate 0.00 (alpha=1.1," in result.output

    def test_excluding_every_verdict_is_a_data_error(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        result = invoke(
            "judge", "--config", config, "--alpha", "1.1", "--exclude-low-base"
        )
        assert result.exit_code == 2
        assert "no verdicts to aggregate" in result.output

    def test_no_kept_case_is_a_data_error(self, tmp_path):
        write_corpus(tmp_path)
        backends = backend_section()
        backends["infill"]["stub_params"] = {"src": "shop", "ref": "商店"}  # the masked words
        config = write_config(tmp_path, backends=backends)
        run_ok("generate", "--config", config)
        result = invoke("judge", "--config", config)
        assert result.exit_code == 2
        assert "error: no scored records to judge" in result.output

    def test_excluding_low_base_changes_only_the_printed_pass_rate(self, tmp_path):
        config = build_stub_workspace(tmp_path)  # pairs 40-49 fail on low base quality
        run_ok("generate", "--config", config)
        summaries, artifacts = [], []
        for flags in ([], ["--exclude-low-base"]):
            summaries.append(run_ok("judge", "--config", config, *flags).stdout)
            run_ok("report", "--config", config)
            artifacts.append({name: (tmp_path / "out" / name).read_bytes() for name in ("verdicts.jsonl", "report.md")})
        assert "judged 50 cases for stub-mt: pass rate 60.00" in summaries[0]
        assert "judged 40 cases for stub-mt: pass rate 75.00" in summaries[1]
        assert artifacts[0]["verdicts.jsonl"].count(b'"low_base_quality"') == 10
        assert artifacts[0] == artifacts[1]

    def test_cold_replay_cache_is_a_backend_error(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        backends = backend_section()
        backends["translator"] = {"backend_id": "replay-mt", "transport": "replay_cache"}
        replay_config = write_config(
            tmp_path, "replay.json", backends=backends, cache_root="cold_cache"
        )
        result = invoke("judge", "--config", replay_config)
        assert result.exit_code == 3
        assert "all 1 cases failed with backend errors" in result.output


class TestSweep:
    def test_grid_artifacts(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        result = run_ok(
            "sweep", "--config", config, "--alphas", "0.5,0.9", "--betas", "0,0.5"
        )
        assert "swept 4 threshold cells" in result.output
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert payload["alphas"] == [0.5, 0.9]
        assert payload["betas"] == [0.0, 0.5]
        # the single record scores 1.0 on both sides, so every cell passes
        assert [cell["pass_rate"] for cell in payload["cells"]] == [100.0] * 4
        expected_md = (
            "| alpha \\ beta | 0 | 0.5 |\n"
            "|---|---|---|\n"
            "| 0.5 | 100.00 | 100.00 |\n"
            "| 0.9 | 100.00 | 100.00 |\n"
        )
        assert (tmp_path / "out" / "sweep.md").read_text() == expected_md

    def test_empty_list_items_are_skipped(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        sweeps = []
        for alphas in ("0.5,0.9", "0.5,,0.9"):
            run_ok("sweep", "--config", config, "--alphas", alphas)
            sweeps.append((tmp_path / "out" / "sweep.json").read_bytes())
        assert sweeps[0] == sweeps[1]

    def test_bad_threshold_list_is_a_usage_error(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("sweep", "--config", config, "--alphas", "abc")
        assert result.exit_code == 1
        assert result.stderr.startswith("usage: mtbehave sweep ")
        assert "mtbehave sweep: error: argument --alphas: must be comma-separated numbers, got 'abc'" in result.stderr

    def test_needs_score_records_first(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("sweep", "--config", config)
        assert result.exit_code == 1
        assert "run judge first" in result.output


def write_gold(root: Path, erroneous: bool) -> Path:
    row = {
        "case_id": "p1-noun-000",
        "system_id": "stub-mt",
        "is_erroneous": erroneous,
        "error_spans": [[0, 1]] if erroneous else [],
        "edited_spans_on_y_prime": [[0, 1]],
    }
    path = root / "gold.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    return path


class TestEval:
    def test_defined_metrics(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        # alpha is unreachable, so the verdict fails and gets flagged
        run_ok("judge", "--config", config, "--alpha", "1.1")
        gold = write_gold(tmp_path, erroneous=True)
        result = run_ok("eval", "--config", config, "--gold", gold)
        assert "precision 100.00, recall 100.00" in result.output
        assert "errors overlapping the edited position: 100.00" in result.output
        payload = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert payload == {
            "precision": 100.0,
            "recall": 100.0,
            "error_position_pct": 100.0,
            "undefined": {},
        }

    def test_undefined_metrics_are_reported_not_zeroed(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)  # the case passes: nothing flagged
        gold = write_gold(tmp_path, erroneous=True)
        result = run_ok("eval", "--config", config, "--gold", gold)
        assert "precision/recall undefined (ZeroFlagged" in result.output
        payload = json.loads((tmp_path / "out" / "eval.json").read_text())
        assert payload["precision"] is None
        assert payload["recall"] is None
        assert payload["error_position_pct"] is None
        assert set(payload["undefined"]) == {"precision_recall", "error_position"}

    def test_missing_gold_file_is_a_usage_error(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        result = invoke("eval", "--config", config, "--gold", tmp_path / "none.jsonl")
        assert result.exit_code == 1
        assert "gold file not found" in result.output

    def test_gold_missing_a_case_is_a_data_error(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        gold = tmp_path / "gold.jsonl"
        gold.write_text("", encoding="utf-8")
        result = invoke("eval", "--config", config, "--gold", gold)
        assert result.exit_code == 2
        assert "no gold annotation for case 'p1-noun-000'" in result.output


class TestReport:
    def prepare(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        return config

    def test_markdown(self, tmp_path):
        config = self.prepare(tmp_path)
        run_ok("report", "--config", config, "--format", "markdown")
        expected = (
            "| MT System | Noun | Avg |\n"
            "|---|---|---|\n"
            "| stub-mt | **100.00** | **100.00** |\n"
            "| Size | 1 | 1 |\n"
        )
        assert (tmp_path / "out" / "report.md").read_text() == expected

    def test_csv(self, tmp_path):
        config = self.prepare(tmp_path)
        run_ok("report", "--config", config, "--format", "csv")
        expected = (
            "capability,system_id,pass_rate,size,errored,best\n"
            "noun,stub-mt,100.00,1,0,true\n"
        )
        assert (tmp_path / "out" / "report.csv").read_text() == expected

    def test_json_loads_back(self, tmp_path):
        config = self.prepare(tmp_path)
        run_ok("report", "--config", config, "--format", "json")
        rows = load_report(tmp_path / "out" / "report.json")
        assert len(rows) == 1
        assert (rows[0].system_id, rows[0].pass_rate, rows[0].is_best) == (
            "stub-mt",
            100.0,
            True,
        )

    def test_unknown_format_is_a_usage_error(self, tmp_path):
        config = self.prepare(tmp_path)
        result = invoke("report", "--config", config, "--format", "yaml")
        assert result.exit_code == 1
        assert result.stderr.startswith("usage: mtbehave report ")
        assert "mtbehave report: error: argument --format: invalid choice: 'yaml'" in result.stderr

    def test_empty_verdicts_file_is_a_data_error(self, tmp_path):
        config = self.prepare(tmp_path)
        (tmp_path / "out" / "verdicts.jsonl").write_bytes(b"")
        result = invoke("report", "--config", config)
        assert result.exit_code == 2
        assert "error: the verdicts file is empty; nothing to report" in result.output

    def test_needs_verdicts_first(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("report", "--config", config)
        assert result.exit_code == 1
        assert "run judge first" in result.output


class TestManifest:
    def test_each_stage_appends_an_entry(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("extract", "--config", config)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [entry["stage"] for entry in manifest] == ["extract", "generate", "judge"]
        expected_digest = hashlib.sha256(config.read_bytes()).hexdigest()
        for entry in manifest:
            assert entry["tool_version"] == __version__
            assert entry["config_digest"] == expected_digest
            assert entry["seed"] == 7
        pairs_digest = hashlib.sha256((tmp_path / "pairs.tsv").read_bytes()).hexdigest()
        assert manifest[0]["inputs"][str(tmp_path / "pairs.tsv")] == pairs_digest
        assert str(tmp_path / "out" / "segments.jsonl") in manifest[0]["outputs"]

        run_ok("sweep", "--config", config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest) == 4 and manifest[3]["stage"] == "sweep"

    def test_a_file_has_one_key_however_the_config_path_is_spelled(self, tmp_path, monkeypatch):
        config = workspace(tmp_path)
        monkeypatch.chdir(tmp_path)
        for spelling in ("config.json", config):
            run_ok("extract", "--config", spelling)
            run_ok("generate", "--config", spelling)
        expected = [("extract", [str(tmp_path / "out" / "segments.jsonl")]),
                    ("generate", [str(tmp_path / "out" / "cases.jsonl")])]
        manifest = read_manifest(tmp_path)
        assert [(entry["stage"], list(entry["outputs"])) for entry in manifest] == expected
        assert stale_outputs(manifest) == []

        # a manifest written with relative keys collapses on the next run from its directory
        for entry in manifest:
            entry["outputs"] = {os.path.relpath(name): digest for name, digest in entry["outputs"].items()}
        (tmp_path / "out" / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        run_ok("extract", "--config", "config.json")
        run_ok("generate", "--config", "config.json")
        assert [(entry["stage"], list(entry["outputs"])) for entry in read_manifest(tmp_path)] == expected

    def test_corrupt_manifest_is_a_data_error_before_any_write(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        out = tmp_path / "out"
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:40])
        before = sorted((p.name, p.read_bytes()) for p in out.iterdir())
        result = invoke("judge", "--config", config)
        assert result.exit_code == 2
        assert f"error: {manifest}: not valid JSON: " in result.output
        assert sorted((p.name, p.read_bytes()) for p in out.iterdir()) == before

    def test_a_manifest_nested_too_deep_is_a_data_error(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        manifest = tmp_path / "out" / "manifest.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        result = invoke("judge", "--config", config)
        assert (result.exit_code, result.stdout) == (2, "")
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith(f"error: {manifest}: not valid JSON: maximum recursion depth")
        assert result.stderr.count("\n") == 1

    def test_a_manifest_that_starts_with_a_byte_order_mark_is_read_past_it(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        manifest = tmp_path / "out" / "manifest.json"
        manifest.write_bytes(codecs.BOM_UTF8 + manifest.read_bytes())
        run_ok("judge", "--config", config)
        assert [entry["stage"] for entry in read_manifest(tmp_path)] == ["generate", "judge"]

    def test_a_bad_byte_after_a_byte_order_mark_names_its_line_and_file_offset(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        manifest = tmp_path / "out" / "manifest.json"
        blob = codecs.BOM_UTF8 + manifest.read_bytes().replace(b'"generate"', b'"gener\xffate"')
        manifest.write_bytes(blob)
        line, position = blob[: blob.index(b"\xff")].count(b"\n") + 1, blob.index(b"\xff")
        before = file_states(tmp_path)
        result = invoke("judge", "--config", config)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == (
            f"error: {manifest}:{line}: 'utf-8' codec can't decode byte 0xff in position {position}: "
            "invalid start byte\n"
        )
        assert file_states(tmp_path) == before

    def test_reruns_keep_one_entry_per_file_and_every_output_digest_current(self, tmp_path):
        config = workspace(tmp_path)
        for _ in range(3):
            run_full_pipeline(tmp_path, config)
        run_ok("report", "--config", config, "--format", "csv")
        run_ok("report", "--config", config, "--format", "json")
        manifest = read_manifest(tmp_path)
        assert [entry["stage"] for entry in manifest] == [*FULL_PIPELINE, "report", "report"]
        assert stale_outputs(manifest) == []

    def test_rerunning_generate_and_judge_leaves_no_stale_output_digest(self, tmp_path):
        config = workspace(tmp_path)
        run_full_pipeline(tmp_path, config)
        run_ok("generate", "--config", config, "--seed", "8")
        run_ok("judge", "--config", config)
        manifest = read_manifest(tmp_path)
        assert [entry["stage"] for entry in manifest] == ["extract", "sweep", "eval", "report", "generate", "judge"]
        assert stale_outputs(manifest) == []

    def test_an_old_manifest_collapses_to_one_entry_per_stage(self, tmp_path):
        config = workspace(tmp_path)
        run_full_pipeline(tmp_path, config)
        path = tmp_path / "out" / "manifest.json"
        path.write_text(json.dumps(read_manifest(tmp_path) * 60), encoding="utf-8")
        run_full_pipeline(tmp_path, config)
        manifest = read_manifest(tmp_path)
        assert [entry["stage"] for entry in manifest] == FULL_PIPELINE
        assert stale_outputs(manifest) == []

    @pytest.mark.parametrize(
        "stage, slot",
        [("generate", "infill"), ("judge", "translator"), ("generate", "scorer_ref_free"), ("judge", "scorer_ref_based")],
    )
    def test_a_stage_that_exits_3_records_the_files_it_wrote(self, tmp_path, monkeypatch, stage, slot):
        config = workspace(tmp_path)
        run_full_pipeline(tmp_path, config)
        stub_send = _StubTransport.send

        def send(self, request):
            if self.spec.kind == slot:
                raise HttpStatusError(503)
            return stub_send(self, request)

        monkeypatch.setattr(_StubTransport, "send", send)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        cold_cache = tmp_path / "cold_cache"
        cold_cache.mkdir()
        result = invoke(stage, "--config", config, "--cache-root", cold_cache)
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: all 1 cases failed with backend errors (first: HTTP 503)\n"
        assert stale_outputs(read_manifest(tmp_path)) == []

    def test_a_stage_that_exits_2_records_the_files_it_wrote(self, tmp_path):
        config = workspace(tmp_path)
        run_full_pipeline(tmp_path, config)
        # judge writes records.jsonl and verdicts.jsonl, then finds no verdict to rate
        result = invoke("judge", "--config", config, "--alpha", "1.5", "--exclude-low-base")
        assert (result.exit_code, result.output.strip()) == (2, "error: no verdicts to aggregate")
        assert stale_outputs(read_manifest(tmp_path)) == []

    def test_ctrl_c_after_a_rewritten_output_records_that_file_alone(self, tmp_path, monkeypatch):
        config = workspace(tmp_path)
        run_full_pipeline(tmp_path, config)
        backends = backend_section()
        backends["translator"]["stub_params"] = {"table": {}}  # records.jsonl changes
        other = write_config(tmp_path, name="other.json", backends=backends)

        def interrupt(records, judge_config):
            raise KeyboardInterrupt

        monkeypatch.setattr("mtbehave.cli.judge_records", interrupt)
        result = invoke("judge", "--config", other)
        assert (result.exit_code, result.output.strip()) == (130, "error: interrupted")
        manifest = read_manifest(tmp_path)
        assert stale_outputs(manifest) == []
        assert manifest[-1]["stage"] == "judge"
        assert list(manifest[-1]["outputs"]) == [str(tmp_path / "out" / "records.jsonl")]

    def test_ctrl_c_inside_a_write_leaves_that_file_out_of_the_entry(self, tmp_path, monkeypatch):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)

        def rows_then_interrupt(verdicts):
            yield from map(to_row, verdicts[:1])
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "mtbehave.cli.write_verdicts", lambda verdicts, path: write_jsonl(path, rows_then_interrupt(verdicts))
        )
        result = invoke("judge", "--config", config)
        assert (result.exit_code, result.stdout, result.stderr) == (130, "", "error: interrupted\n")
        out = tmp_path / "out"
        assert sorted(path.name for path in out.iterdir()) == ["cases.jsonl", "manifest.json", "records.jsonl"]
        manifest = read_manifest(tmp_path)
        assert [entry["stage"] for entry in manifest] == ["generate", "judge"]
        assert list(manifest[-1]["outputs"]) == [str(out / "records.jsonl")]
        assert stale_outputs(manifest) == []

    @pytest.mark.parametrize(
        "entries, reason",
        [
            ([1], "[0]: expected an object, got 1"),
            ([["outputs"]], "[0]: expected an object, got ['outputs']"),
            ([{"stage": "generate"}], "[0]: missing fields: ['tool_version', 'config_digest', 'seed', "
             "'inputs', 'outputs', 'started_at', 'finished_at']"),
            ([{"stage": "generate", "outputs": []}], "[0].outputs must be an object, got []"),
            ([ENTRY, {**ENTRY, "seed": "7"}], "[1].seed must be an integer, got '7'"),
            ([ENTRY, {**ENTRY, "inputs": []}], "[1].inputs must be an object, got []"),
            ([{"inputs": {"a": 1}}], "[0].inputs['a'] must be a string, got 1"),
            ([ENTRY, {k: v for k, v in ENTRY.items() if k != "finished_at"}],
             "[1]: missing fields: ['finished_at']"),
            ([ENTRY, {**ENTRY, "metrics": {}}], "[1]: unknown fields: ['metrics']"),
            (ENTRY, f"expected a list, got {ENTRY!r}"),
        ],
        ids=["number", "list", "no outputs", "outputs list", "seed string", "inputs list", "input digest number",
             "no finished_at", "unknown key", "an entry, not a list"],
    )
    def test_a_manifest_of_other_items_is_a_data_error_before_any_write(self, tmp_path, entries, reason):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        out = tmp_path / "out"
        manifest = out / "manifest.json"
        manifest.write_text(json.dumps(entries), encoding="utf-8")
        before = file_states(tmp_path)
        result = invoke("judge", "--config", config)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert (result.stdout, result.stderr) == ("", f"error: {manifest}: {reason}\n")
        assert file_states(tmp_path) == before

    def test_a_c07_manifest_decodes_and_a_sweep_rerun_keeps_the_other_entries_bytes(self, tmp_path):
        config = build_stub_workspace(tmp_path)
        gold = write_c07_gold(tmp_path)
        for stage in FULL_PIPELINE:
            run_ok(stage, "--config", config, *(["--gold", gold] if stage == "eval" else []))
        path = tmp_path / "out" / "manifest.json"

        def decoded() -> list[ManifestEntry]:
            """The manifest's entries, after checking that encoding them gives the file's bytes."""
            entries = RunManifest.load(path).entries
            assert path.read_text(encoding="utf-8") == json_text([to_row(entry) for entry in entries])
            return entries

        before = decoded()
        assert [(type(entry), entry.stage) for entry in before] == [(ManifestEntry, stage) for stage in FULL_PIPELINE]
        run_ok("sweep", "--config", config)
        after = decoded()
        assert after[:5] == [entry for entry in before if entry.stage != "sweep"]
        assert (after[5].stage, after[5].outputs) == ("sweep", before[3].outputs)


FULL_PIPELINE = ["extract", "generate", "judge", "sweep", "eval", "report"]


@pytest.fixture(scope="module")
def judged_c07(tmp_path_factory) -> Path:
    """The C07 workspace after generate and judge, with a gold file; tests edit copies."""
    root = tmp_path_factory.mktemp("c07")
    config = build_stub_workspace(root)
    run_ok("generate", "--config", config)
    run_ok("judge", "--config", config)
    write_c07_gold(root)
    return root


def run_c07(root: Path, *report_formats: str) -> None:
    """Every stage on the C07 workspace at ``root``, the report once in each format."""
    config = root / "config.json"
    for stage in FULL_PIPELINE[:-1]:
        run_ok(stage, "--config", config, *(["--gold", root / "gold.jsonl"] if stage == "eval" else []))
    for report_format in report_formats:
        run_ok("report", "--config", config, "--format", report_format)


def test_every_stage_plans_its_records_without_a_warning(tmp_path):
    # A record type's codec plan evaluates its fields' annotations and builds their
    # decoders the first time a stage reads or writes one; the json report plans
    # CapabilityReport, and the run config its nested records.
    build_stub_workspace(tmp_path)
    write_c07_gold(tmp_path)
    codec._plan.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_c07(tmp_path, "json")


def test_a_leading_byte_order_mark_leaves_every_artifact_byte(tmp_path):
    build_stub_workspace(tmp_path)
    write_c07_gold(tmp_path)
    for name in ("pairs.tsv", "alignments.txt", "annotations.jsonl", "gold.jsonl"):
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    run_c07(tmp_path, "markdown", "json", "csv")
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in EXPECTED_SHA256}
    assert digests == EXPECTED_SHA256


def test_a_cached_row_of_another_type_leaves_every_artifact_byte(tmp_path):
    config = build_stub_workspace(tmp_path)
    cache = ResponseCache(tmp_path / "cache")
    for stage in ("generate", "judge"):
        run_ok(stage, "--config", config, "--cache-root", cache.root)
    rows = cache_rows(cache)
    # a value of another JSON type in one row per slot, and a NaN score
    stored = [("stub-infill", "7"), ("stub-qe", "true"), ("stub-mt", "7"), ("stub-f1", '"abc"'), ("stub-f1", "NaN")]
    damaged = {}
    for backend_id, value in stored:
        key = sorted(key for key in rows if key[0] == backend_id and key not in damaged)[0]
        damage_cache_row(cache, *key, value=value)
        damaged[key] = rows[key]
    for stage in ("generate", "judge"):
        run_ok(stage, "--config", config, "--cache-root", cache.root)
    names = ("cases.jsonl", "records.jsonl", "verdicts.jsonl")
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in names}
    assert digests == {name: EXPECTED_SHA256[name] for name in names}
    assert cache_rows(cache) == rows  # each damaged row holds its answer again


# Each row artifact a stage reads back: the stage, the row's type, and how a bad row is named.
READERS = {
    "out/cases.jsonl": (["judge"], Case, "case record"),
    "out/records.jsonl": (["sweep"], TranslationRecord, "record"),
    "out/verdicts.jsonl": (["report"], Verdict, "verdict"),
    "gold.jsonl": (["eval", "--gold", "{root}/gold.jsonl"], GoldErrorAnnotation, "gold row"),
}


def read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def set_key(path: Path, key: str, value, select) -> int:
    """Give ``key`` the ``value`` in each row ``select(index, row)`` picks; the first one's line."""
    rows = read_rows(path)
    picked = [index for index, row in enumerate(rows) if select(index, row)]
    for index in picked:
        rows[index][key] = value
    write_jsonl(path, rows)
    return picked[0] + 1


def run_reader(root: Path, artifact: str):
    stage = [arg.format(root=root) for arg in READERS[artifact][0]]
    return invoke(*stage, "--config", root / "config.json")


def first_row(index, row) -> bool:
    return index == 0


def every_row(index, row) -> bool:
    return True


def failing_verdict(index, row) -> bool:
    return row["passed"] is False


def passing_verdict(index, row) -> bool:
    return row["passed"] is True


class TestMistypedRows:
    @pytest.mark.parametrize(
        "artifact, key, value, select, reason",
        [
            pytest.param("out/cases.jsonl", "x_prime", 5, first_row,
                         "x_prime must be a list, got 5", id="x_prime number"),
            pytest.param("out/cases.jsonl", "x_prime", [1, 2], first_row,
                         "x_prime[0] must be a string, got 1", id="x_prime numbers"),
            pytest.param("out/records.jsonl", "qual_y", "a", first_row,
                         "qual_y must be a number, got 'a'", id="qual_y text"),
            pytest.param("out/verdicts.jsonl", "passed", "false", failing_verdict,
                         "passed must be a boolean, got 'false'", id="passed text"),
            # json reads the bare tokens NaN and Infinity, which JSON does not have;
            # a NaN qual_y fails no comparison, so every case would pass
            pytest.param("out/records.jsonl", "qual_y", float("nan"), every_row,
                         "qual_y must be a number, got nan", id="qual_y NaN"),
            pytest.param("out/records.jsonl", "qual_y", float("inf"), first_row,
                         "qual_y must be a number, got inf", id="qual_y Infinity"),
            # a verdict's reason is one the judge gives, and a passing case has none
            pytest.param("out/verdicts.jsonl", "fail_reason", "bogus", failing_verdict,
                         "fail_reason must be one of ['low_base_quality', 'large_diff'], got 'bogus'",
                         id="fail_reason unknown"),
            pytest.param("out/verdicts.jsonl", "fail_reason", "large_diff", passing_verdict,
                         "fail_reason 'large_diff' contradicts passed True", id="fail_reason on a pass"),
        ],
    )
    def test_exits_2_naming_file_line_and_key(self, judged_c07, tmp_path, artifact, key, value, select, reason):
        root = shutil.copytree(judged_c07, tmp_path / "c07")
        line = set_key(root / artifact, key, value, select)
        result = run_reader(root, artifact)
        assert (result.exit_code, result.stdout) == (2, "")
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == f"error: {root / artifact}:{line}: bad {READERS[artifact][2]}: {reason}\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_another_json_type_exits_2_or_reads_as_the_field_type(self, judged_c07, data):
        """One key of an artifact's first row gets a JSON value of another type. The stage
        that reads the file exits 2 with one error line naming the file, line and key, or
        the value reads as the field's type and the stage does what it does with the value
        written as that type."""
        artifact = data.draw(st.sampled_from(sorted(READERS)))
        _, cls, what = READERS[artifact]
        row = read_rows(judged_c07 / artifact)[0]
        key = data.draw(st.sampled_from(sorted(row)))
        value = data.draw(JSON_VALUES.filter(lambda value: type(value) is not type(row[key])))
        try:
            decoded = from_row(cls, {**row, key: value})
        except ValueError:
            with edited_copy(judged_c07, artifact, key, value) as (root, result, _):
                assert isinstance(result.exception, SystemExit) and result.exit_code == 2
                assert result.stderr.startswith(f"error: {root / artifact}:1: bad {what}: ")
                assert key in result.stderr and result.stderr.count("\n") == 1
        else:
            (name,) = [name for name, field_key in zip(cls._fields, row_keys(cls)) if field_key == key]
            assert has_type(getattr(decoded, name), cls, name)
            with edited_copy(judged_c07, artifact, key, value) as (root, result, outputs):
                assert result.exception is None or isinstance(result.exception, SystemExit)
                run = (result.exit_code, result.output.replace(str(root), "ROOT"), outputs)
            with edited_copy(judged_c07, artifact, key, to_row(decoded)[key]) as (root, result, outputs):
                assert run == (result.exit_code, result.output.replace(str(root), "ROOT"), outputs)


def test_a_verdict_whose_case_is_not_kept_exits_2_naming_the_case(judged_c07, tmp_path):
    # A verdict left from an earlier generate would count in the pass rate, and so
    # would hide that a kept case has none.
    root = shutil.copytree(judged_c07, tmp_path / "c07")
    set_key(root / "out/cases.jsonl", "filter_status", "dropped_quality", lambda _, row: row["case_id"] == "p00-noun-000")
    verdicts = root / "out/verdicts.jsonl"
    write_jsonl(verdicts, [row for row in read_rows(verdicts) if row["case_id"] != "p01-noun-000"])
    result = invoke("report", "--config", root / "config.json")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: verdict for case 'p00-noun-000', which is dropped_quality, not kept\n"
    assert not (root / "out/report.md").exists()


@pytest.mark.parametrize(
    "artifact, what, key",
    [
        ("annotations.jsonl", "annotation record", "p00"),
        ("out/cases.jsonl", "case record", "p00-noun-000"),
        ("out/records.jsonl", "record", ("p00-noun-000", "stub-mt")),
        ("out/verdicts.jsonl", "verdict", ("p00-noun-000", "stub-mt")),
        ("gold.jsonl", "gold row", ("p00-noun-000", "stub-mt")),
    ],
    ids=["annotations", "cases", "records", "verdicts", "gold"],
)
def test_a_repeated_row_exits_2_naming_file_line_and_key(judged_c07, tmp_path, artifact, what, key):
    # Each pass rate counts every case, record and verdict once, and eval each gold row.
    root = shutil.copytree(judged_c07, tmp_path / "c07")
    path = root / artifact
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + lines[:1]), encoding="utf-8")
    if artifact in READERS:
        result = run_reader(root, artifact)
    else:
        result = invoke("extract", "--config", root / "config.json")
    assert (result.exit_code, result.stdout) == (2, "")
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == f"error: {path}:{len(lines) + 1}: duplicate {what} {key!r}\n"


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),  # JSON has no NaN or infinity
    st.text(max_size=4),
    st.lists(st.integers(0, 3) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@contextmanager
def edited_copy(workspace: Path, artifact: str, key: str, value):
    """A copy of ``workspace`` whose ``artifact`` has ``key`` = ``value`` on line 1, after
    the stage that reads it ran: (root, CLI result, the bytes of the other outputs but
    the manifest)."""
    with tempfile.TemporaryDirectory() as temp:
        root = shutil.copytree(workspace, Path(temp) / "c07")
        set_key(root / artifact, key, value, first_row)
        result = run_reader(root, artifact)
        outputs = {
            path.name: path.read_bytes()
            for path in (root / "out").iterdir()
            if path.name != "manifest.json" and path != root / artifact
        }
        yield root, result, outputs


def has_type(value, cls: type, name: str) -> bool:
    """Whether ``value`` has the outer type of the field ``name`` of ``cls``."""
    hint = get_type_hints(cls)[name]
    options = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    return any(type(value) is (get_origin(option) or option) for option in options)


def run_full_pipeline(root: Path, config: Path) -> None:
    gold = write_gold(root, erroneous=True)
    for stage in FULL_PIPELINE:
        run_ok(stage, "--config", config, *(["--gold", gold] if stage == "eval" else []))


def read_manifest(root: Path) -> list:
    return json.loads((root / "out" / "manifest.json").read_text(encoding="utf-8"))


def stale_outputs(manifest: list) -> list:
    """(stage, file) for each output whose recorded digest is not the file's."""
    return [
        (entry["stage"], name)
        for entry in manifest
        for name, digest in entry["outputs"].items()
        if not Path(name).is_file() or hashlib.sha256(Path(name).read_bytes()).hexdigest() != digest
    ]


def file_states(root: Path) -> dict:
    """Every file under ``root``: its size, modification time and content digest."""
    return {
        str(path.relative_to(root)): (
            path.stat().st_size,
            path.stat().st_mtime_ns,
            hashlib.sha256(path.read_bytes()).hexdigest(),
        )
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestResponseCacheFile:
    def test_a_warm_rerun_leaves_every_cache_file_alone(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        before = file_states(tmp_path / "cache")
        assert list(before) == ["cache.sqlite"]
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        assert file_states(tmp_path / "cache") == before

    def test_a_warm_rerun_reads_each_backend_once_per_stage(self, tmp_path, sql_statements):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        for stage, slots in (("generate", ["infill", "scorer_ref_free"]),
                             ("judge", ["translator", "scorer_ref_based"])):
            sql_statements.clear()
            run_ok(stage, "--config", config)
            expected = sorted(backend_section()[slot]["backend_id"] for slot in slots)
            assert sorted(backend_reads(sql_statements)) == expected
            assert [s for s in sql_statements if s.startswith(("INSERT", "BEGIN"))] == []

    @pytest.mark.parametrize("stage", ["generate", "judge"])
    def test_a_cache_file_that_is_not_a_database_exits_1(self, tmp_path, stage):
        config = workspace(tmp_path)
        if stage == "judge":
            run_ok("generate", "--config", config)
        path = tmp_path / "cache" / "cache.sqlite"
        path.parent.mkdir(exist_ok=True)
        path.write_text("these are not the answers you are looking for\n" * 20, encoding="utf-8")
        out = tmp_path / "out"
        before = file_states(out) if out.exists() else {}
        result = invoke(stage, "--config", config)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"error: {path}: unusable response cache" in result.output
        assert (file_states(out) if out.exists() else {}) == before

    def test_a_rerun_after_exit_3_sends_only_the_unanswered_requests(self, tmp_path, monkeypatch):
        backends = backend_section()
        backends["scorer_ref_free"]["max_retries"] = 1
        write_corpus(tmp_path)
        config = write_config(tmp_path, backends=backends)
        sent, refused = [], {SENTENCES["base"]}
        stub_send = _StubTransport.send

        def send(self, request):
            sent.append((self.spec.kind, request.get("src")))
            if request.get("src") in refused:  # the original pair's QE, on every attempt
                raise HttpStatusError(503)
            return stub_send(self, request)

        monkeypatch.setattr(_StubTransport, "send", send)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        result = invoke("generate", "--config", config)
        assert result.exit_code == 3, result.output
        assert "all 1 cases failed with backend errors" in result.output
        assert sorted(sent) == [
            ("infill", None),
            ("scorer_ref_free", SENTENCES["base"]),
            ("scorer_ref_free", SENTENCES["base"]),
            ("scorer_ref_free", SENTENCES["edited"]),
        ]
        sent.clear()
        refused.clear()
        result = run_ok("generate", "--config", config)
        assert "kept 1," in result.output
        assert sent == [("scorer_ref_free", SENTENCES["base"])]

    def test_ctrl_c_keeps_the_answers_already_received(self, tmp_path, monkeypatch):
        config = workspace(tmp_path)
        stub_send = _StubTransport.send

        def send(self, request):
            if self.spec.kind == "scorer_ref_free":
                raise KeyboardInterrupt
            return stub_send(self, request)

        monkeypatch.setattr(_StubTransport, "send", send)
        result = invoke("generate", "--config", config)
        assert (result.exit_code, result.output.strip()) == (130, "error: interrupted")
        assert not (tmp_path / "out" / "cases.jsonl").exists()
        rows = cache_rows(ResponseCache(tmp_path / "cache"))
        assert [key[0] for key in rows] == ["stub-infill"]

    def test_sigint_during_a_request_exits_130_and_leaves_the_artifacts(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        before = file_states(tmp_path / "out")
        with socket.socket() as listener:  # accepts a connection and never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(30)
            backends = backend_section()
            backends["infill"] = {
                "backend_id": "http-infill",
                "transport": "http",
                "endpoint": f"http://127.0.0.1:{listener.getsockname()[1]}/infill",
                "timeout": 30,
                "max_retries": 0,
            }
            http_config = write_config(tmp_path, name="http.json", backends=backends)
            src = os.path.dirname(os.path.dirname(mtbehave.__file__))
            process = subprocess.Popen(
                [sys.executable, "-m", "mtbehave.cli", "generate", "--config", str(http_config)],
                env={**os.environ, "PYTHONPATH": src},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                connection, _ = listener.accept()
                with connection:
                    process.send_signal(signal.SIGINT)
                    _, stderr = process.communicate(timeout=10)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.communicate()
        assert (process.returncode, stderr.strip()) == (130, "error: interrupted")
        assert file_states(tmp_path / "out") == before

    def test_sigint_at_jobs_4_ends_the_requests_in_flight_without_retrying(self, tmp_path):
        # General cases at per_pair 3 send 6 infill requests: 4 in flight, 2 queued.
        timeout, jobs = 2, 4
        config = workspace(tmp_path)
        run_ok("generate", "--config", config, "--capability", "general", "--per-pair", "3")
        before = file_states(tmp_path / "out")
        with socket.socket() as listener:  # accepts connections and never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(30)
            backends = backend_section()
            backends["infill"] = {
                "backend_id": "http-infill",
                "transport": "http",
                "endpoint": f"http://127.0.0.1:{listener.getsockname()[1]}/infill",
                "timeout": timeout,
                "max_retries": 2,
            }
            http_config = write_config(
                tmp_path, name="http.json", backends=backends, capability="general", per_pair=3, jobs=jobs
            )
            src = os.path.dirname(os.path.dirname(mtbehave.__file__))
            process = subprocess.Popen(
                [sys.executable, "-m", "mtbehave.cli", "generate", "--config", str(http_config)],
                env={**os.environ, "PYTHONPATH": src},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            connections = []
            try:
                while len(connections) < jobs:
                    connections.append(listener.accept()[0])
                interrupted_at = time.monotonic()
                process.send_signal(signal.SIGINT)
                _, stderr = process.communicate(timeout=20)
                elapsed = time.monotonic() - interrupted_at
                listener.settimeout(0)
                with pytest.raises(BlockingIOError):  # no retry and no queued request connected
                    connections.append(listener.accept()[0])
            finally:
                for connection in connections:
                    connection.close()
                if process.poll() is None:
                    process.kill()
                    process.communicate()
        assert (process.returncode, stderr.strip()) == (130, "error: interrupted")
        assert elapsed < timeout + 1  # each request ran one attempt; three take 6.75 s with backoff
        assert file_states(tmp_path / "out") == before


def with_slot(slot, spec):
    return config_document(backends={**backend_section(), slot: spec})


def with_corpus(**files):
    return config_document(corpus=files)


# (config document, error message): each config is wrong in one way, and
# `generate`, which reads every key and builds the infill slot, exits 1 on it.
# "{config}" stands for the config file's path.
CONFIG_ERRORS = [
    pytest.param(
        config_document(per_pair=MAX_PLANS_PER_PAIR + 1),
        f"{{config}}: per_pair must be between 1 and {MAX_PLANS_PER_PAIR}, got {MAX_PLANS_PER_PAIR + 1}",
        id="per_pair out of range",
    ),
    pytest.param(
        config_document(per_pair="3"), "{config}: per_pair must be an integer, got '3'", id="per_pair string"
    ),
    pytest.param(config_document(jobs=0), "{config}: jobs must be at least 1, got 0", id="jobs 0"),
    pytest.param(config_document(seed=1.5), "{config}: seed must be an integer, got 1.5", id="seed float"),
    pytest.param(config_document(seed=True), "{config}: seed must be an integer, got True", id="seed bool"),
    pytest.param(
        config_document(judge=[0.8]), "{config}: judge: expected an object, got [0.8]", id="judge list"
    ),
    pytest.param(
        config_document(judge={"beta": -0.1}),
        "{config}: judge: beta must not be negative",
        id="negative beta",
    ),
    pytest.param(
        config_document(backends=["infill"]),
        "{config}: backends must be an object, got ['infill']",
        id="backends list",
    ),
    pytest.param(
        config_document(backends={**backend_section(), "ranker": {}}),
        "{config}: backends['ranker'] must be one of "
        "['infill', 'translator', 'scorer_ref_based', 'scorer_ref_free'], got 'ranker'",
        id="unknown slot",
    ),
    pytest.param(with_slot("infill", "stub"), "backend 'infill' must be an object", id="slot string"),
    pytest.param(
        with_slot("infill", {"backend_id": "i", "transport": "pigeon"}),
        "backend 'infill': transport must be one of ['http', 'replay_cache', 'stub'], got 'pigeon'",
        id="unknown transport",
    ),
    pytest.param(
        with_slot("infill", {"transport": "stub"}),
        "backend 'infill': missing fields: ['backend_id']",
        id="spec without backend_id",
    ),
    pytest.param(
        config_document(exclude_low_base="yes"),
        "{config}: exclude_low_base must be a boolean, got 'yes'",
        id="exclude_low_base string",
    ),
    pytest.param(
        [config_document()],
        "{config}: expected an object, got " + repr([config_document()]).replace("{", "{{").replace("}", "}}"),
        id="config list",
    ),
    pytest.param(
        with_corpus(pairs="pairs.tsv", alignments="alignments.txt"),
        "{config}: corpus: missing fields: ['annotations']",
        id="corpus without annotations",
    ),
    pytest.param(
        config_document(corpus="pairs.tsv"),
        "{config}: corpus: expected an object, got 'pairs.tsv'",
        id="corpus string",
    ),
    pytest.param(
        {key: value for key, value in config_document().items() if key != "corpus"},
        "{config}: missing fields: ['corpus']",
        id="no corpus",
    ),
    pytest.param(
        config_document(judge={"alpah": 0.7}),
        "{config}: judge: unknown fields: ['alpah']",
        id="unknown judge key",
    ),
    pytest.param(
        with_corpus(
            pairs="pairs.tsv",
            alignments="alignments.txt",
            annotations="annotations.jsonl",
            gold="gold.jsonl",
        ),
        "{config}: corpus: unknown fields: ['gold']",
        id="unknown corpus key",
    ),
    pytest.param(
        config_document(judge={"alpha": True}),
        "{config}: judge.alpha must be a number, got True",
        id="bool alpha",
    ),
    pytest.param(
        config_document(judge={"beta": "0.05"}),
        "{config}: judge.beta must be a number, got '0.05'",
        id="string beta",
    ),
    # a path key must be a string: no directory "5" or "True" gets made
    pytest.param(config_document(output_dir=5), "{config}: output_dir must be a string, got 5", id="output_dir number"),
    pytest.param(
        config_document(cache_root=True), "{config}: cache_root must be a string, got True", id="cache_root bool"
    ),
    pytest.param(
        with_corpus(pairs=["pairs.tsv"], alignments="alignments.txt", annotations="annotations.jsonl"),
        "{config}: corpus.pairs must be a string, got ['pairs.tsv']",
        id="corpus path list",
    ),
    pytest.param(
        b'{"seed": "\xff"}',
        "{config}:1: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
        id="config not UTF-8",
    ),
    pytest.param(
        with_slot("infill", {"backend_id": 5, "transport": "stub"}),
        "backend 'infill': backend_id must be a string, got 5",
        id="backend_id number",
    ),
    pytest.param(
        with_slot("infill", {"backend_id": "i", "transport": "stub", "timeout": True}),
        "backend 'infill': timeout must be a number, got True",
        id="timeout bool",
    ),
    pytest.param(
        with_slot("infill", {"backend_id": "i", "transport": "stub", "timeout": "5"}),
        "backend 'infill': timeout must be a number, got '5'",
        id="timeout string",
    ),
    pytest.param(
        with_slot("infill", {"backend_id": "i", "transport": "stub", "max_retries": 1.5}),
        "backend 'infill': max_retries must be an integer, got 1.5",
        id="max_retries float",
    ),
    pytest.param(
        with_slot("infill", {"backend_id": "i", "transport": "http", "endpoint": "file:///etc/hostname"}),
        "backend 'infill': endpoint must be an http:// or https:// URL with a host: 'file:///etc/hostname'",
        id="file endpoint",
    ),
]


class TestConfigValidation:
    def test_unknown_keys_are_rejected(self, tmp_path):
        write_corpus(tmp_path)
        config = write_config(tmp_path, "weird.json", goat=1)
        result = invoke("extract", "--config", config)
        assert result.exit_code == 1
        assert result.stderr == f"error: {config}: unknown fields: ['goat']\n"

    def test_invalid_json_is_rejected(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{", encoding="utf-8")
        result = invoke("extract", "--config", config)
        assert result.exit_code == 1
        assert "not valid JSON" in result.output

    def test_a_bad_byte_names_its_line(self, tmp_path):
        write_corpus(tmp_path)
        blob = json.dumps(config_document(), indent=1).encode("utf-8").replace(b'"out"', b'"o\xffut"')
        config = write_document(tmp_path / "config.json", blob)
        line, position = blob[: blob.index(b"\xff")].count(b"\n") + 1, blob.index(b"\xff")
        assert line > 1
        before = sorted(tmp_path.rglob("*"))
        result = invoke("generate", "--config", config)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == (
            f"error: {config}:{line}: 'utf-8' codec can't decode byte 0xff in position {position}: "
            "invalid start byte\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_a_config_nested_too_deep_is_rejected(self, tmp_path):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        result = invoke("sweep", "--config", config)
        assert (result.exit_code, result.stdout) == (1, "")
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith(f"error: {config}: not valid JSON: maximum recursion depth")
        assert result.stderr.count("\n") == 1

    def test_unknown_capability_is_rejected(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("generate", "--config", config, "--capability", "sarcasm")
        assert result.exit_code == 1
        assert "error: argument --capability: invalid choice: 'sarcasm' (choose from " in result.stderr
        valid = result.stderr.split("(choose from ")[1].removesuffix(")\n").replace("'", "").split(", ")
        assert valid == [capability.value for capability in Capability]
        result = invoke("generate", "--config", write_config(tmp_path, capability="sarcasm"))
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {tmp_path / 'config.json'}: capability must be one of "
            f"{[capability.value for capability in Capability]}, got 'sarcasm'\n"
        )

    def test_only_the_stages_that_read_the_corpus_need_its_files(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        (tmp_path / "alignments.txt").unlink()
        run_ok("sweep", "--config", config)
        run_ok("eval", "--config", config, "--gold", write_gold(tmp_path, erroneous=True))
        run_ok("report", "--config", config)
        for command in ("extract", "generate"):
            result = invoke(command, "--config", config)
            assert result.exit_code == 1
            assert f"corpus alignments file not found: {tmp_path / 'alignments.txt'}" in result.output
        (tmp_path / "annotations.jsonl").unlink()
        run_ok("judge", "--config", config)  # reads only the pairs file of the corpus
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        (judged,) = [entry for entry in manifest if entry["stage"] == "judge"]
        assert list(judged["inputs"]) == [str(tmp_path / "pairs.tsv"), str(tmp_path / "out" / "cases.jsonl")]

    @pytest.mark.parametrize("document, message", CONFIG_ERRORS)
    def test_each_config_error_exits_1_with_its_message(self, tmp_path, document, message):
        write_corpus(tmp_path)
        config = write_document(tmp_path / "bad.json", document)
        before = sorted(tmp_path.rglob("*"))
        result = invoke("generate", "--config", config)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error: {message.format(config=config)}\n"
        assert sorted(tmp_path.rglob("*")) == before  # no file or directory made

    def test_an_unset_auth_variable_exits_1_before_any_request(self, tmp_path, monkeypatch):
        # Exit 3 would say that every case failed upstream; no request has left.
        monkeypatch.delenv("MTBEHAVE_UNSET_KEY", raising=False)
        write_corpus(tmp_path)
        spec = {"backend_id": "i", "transport": "http", "endpoint": "http://127.0.0.1:9/infill",
                "auth_env_var": "MTBEHAVE_UNSET_KEY"}
        config = write_document(tmp_path / "auth.json", with_slot("infill", spec))
        before = sorted(tmp_path.rglob("*"))
        result = invoke("generate", "--config", config)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "error: backend 'infill': environment variable MTBEHAVE_UNSET_KEY is not set\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_null_reads_as_an_absent_key(self, tmp_path):
        write_corpus(tmp_path)
        nulls = dict.fromkeys(["output_dir", "cache_root", "per_pair", "seed", "jobs"])
        config = write_config(tmp_path, "nulls.json", judge={"alpha": None}, **nulls)
        result = run_ok("generate", "--config", config)
        assert f"-> {tmp_path / 'out' / 'cases.jsonl'}" in result.output
        result = run_ok("judge", "--config", config)
        assert "(alpha=0.8, beta=0.05, errored 0)" in result.output
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == ["out"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest[0]["seed"] == 0

    def test_a_null_is_absent_in_every_object(self, tmp_path):
        write_corpus(tmp_path)
        backends = backend_section()
        backends["infill"].update(timeout=None, stub_params={"src": None, "ref": "门店"})
        config = write_config(tmp_path, "nulls.json", backends=backends)
        run_ok("generate", "--config", config)
        cases = [json.loads(line) for line in (tmp_path / "out" / "cases.jsonl").read_text().splitlines()]
        assert cases and all("thing" in case["x_prime"] for case in cases)
        # a null slot is absent, whether its name is a backend kind or not
        config = write_config(tmp_path, "null_slots.json", backends={**backend_section(), "infill": None, "mt": None})
        result = invoke("generate", "--config", config)
        assert result.exit_code == 1
        assert "config declares no 'infill' backend" in result.output

    def test_a_flag_overrides_one_judge_key_and_keeps_the_other(self, tmp_path):
        config = write_config(tmp_path, judge={"alpha": 0.5, "beta": 0.2})
        write_corpus(tmp_path)
        run_ok("generate", "--config", config)
        result = run_ok("judge", "--config", config, "--beta", "0.1")
        assert "(alpha=0.5, beta=0.1," in result.output
        result = invoke("judge", "--config", config, "--beta", "-1")
        assert result.exit_code == 1
        assert result.stderr == "error: beta must not be negative\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "0"], "jobs must be at least 1, got 0"),
            (["--per-pair", str(MAX_PLANS_PER_PAIR + 1)],
             f"per_pair must be between 1 and {MAX_PLANS_PER_PAIR}, got {MAX_PLANS_PER_PAIR + 1}"),
            (["--beta", "nan"], "alpha and beta must be finite"),
        ],
        ids=["jobs 0", "per_pair out of range", "beta nan"],
    )
    def test_a_flag_value_meets_the_checks_of_a_config_value(self, tmp_path, flags, message):
        config = workspace(tmp_path)
        result = invoke("generate", "--config", config, *flags)
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"error: {message}\n")

    def test_a_flag_path_is_used_as_given(self, tmp_path, monkeypatch):
        config = workspace(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        run_ok("generate", "--config", config, "--output-dir", "flagged", "--cache-root", "answers")
        assert (elsewhere / "flagged" / "cases.jsonl").is_file()
        assert (elsewhere / "answers").is_dir()
        assert not (tmp_path / "flagged").exists() and not (tmp_path / "answers").exists()

    def test_a_bad_spec_fails_only_the_stage_that_builds_its_slot(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        backends = backend_section()
        backends["translator"]["transport"] = "nope"
        config = write_config(tmp_path, backends=backends)
        run_ok("extract", "--config", config)
        run_ok("generate", "--config", config)
        run_ok("sweep", "--config", config)
        run_ok("eval", "--config", config, "--gold", write_gold(tmp_path, erroneous=True))
        run_ok("report", "--config", config)
        result = invoke("judge", "--config", config)
        assert result.exit_code == 1
        reason = "transport must be one of ['http', 'replay_cache', 'stub'], got 'nope'"
        assert f"error: backend 'translator': {reason}" in result.output

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alphas", "0.5,nan", "--alphas must be finite numbers, got 'nan'"),
            ("--alphas", "inf", "--alphas must be finite numbers, got 'inf'"),
            ("--betas", "nan", "--betas must be finite numbers, got 'nan'"),
            ("--betas", "0.05,-0.1", "--betas must not be negative, got -0.1"),
            # sweep.json would list the cell twice; sweep.md and the summary, once
            ("--alphas", "0.5,0.9,.5", "--alphas lists .5 more than once"),
            ("--betas", "0.05,0.05", "--betas lists 0.05 more than once"),
        ],
    )
    def test_a_bad_sweep_grid_value_names_its_flag(self, tmp_path, flag, value, message):
        # checked as the flags are parsed: no judge stage has run here
        config = workspace(tmp_path)
        result = invoke("sweep", "--config", config, f"{flag}={value}")
        assert result.exit_code == 1
        assert result.stderr.startswith("usage: mtbehave sweep ")
        # argparse names the flag: "--alphas lists .5 ..." reads "argument --alphas: lists .5 ..."
        assert f"mtbehave sweep: error: argument {flag}: {message.removeprefix(flag + ' ')}\n" in result.stderr

    @pytest.mark.parametrize(
        "slot, stub_params, message",
        [
            ("scorer_ref_free", {"mode": "constant"}, "stub scorer mode 'constant' needs a 'value'"),
            (
                "scorer_ref_free",
                {"mode": "constant", "value": "abc"},
                "stub_params: value must be a number, got 'abc'",
            ),
            ("scorer_ref_free", {"mode": "bogus"}, "unknown stub scorer mode 'bogus'"),
            ("translator", {"table": ["x"]}, "stub_params: table must be an object, got ['x']"),
            (
                "scorer_ref_free",
                {"mdoe": "constant", "value": 0.9},
                "stub_params: unknown fields: ['mdoe']",
            ),
            ("translator", {"table": {"x": 7}}, "stub_params: table['x'] must be a string, got 7"),
            ("infill", {"src": 7, "ref": "门店"}, "stub_params: src must be a string, got 7"),
            ("infill", {"src": "store", "ref": ["门店"]}, "stub_params: ref must be a string, got ['门店']"),
            # the codec's number rule: a bool, text, NaN or an infinity is no score
            ("scorer_ref_free", {"mode": "constant", "value": True}, "stub_params: value must be a number, got True"),
            ("scorer_ref_free", {"mode": "constant", "value": "0.5"}, "stub_params: value must be a number, got '0.5'"),
            ("scorer_ref_free", {"mode": "constant", "value": "nan"}, "stub_params: value must be a number, got 'nan'"),
            ("scorer_ref_free", {"mode": "constant", "value": float("inf")},
             "stub_params: value must be a number, got inf"),
            # any kind's parameter must be well-typed, not only the one its stub reads
            ("scorer_ref_free", {"table": {"x": 7}}, "stub_params: table['x'] must be a string, got 7"),
        ],
        ids=["constant without value", "constant value abc", "unknown mode", "table list",
             "unknown key", "table value 7", "src 7", "ref list", "value true", "value text",
             "value text nan", "value Infinity", "scorer table value 7"],
    )
    def test_bad_stub_params_exit_1_when_the_backend_is_built(self, tmp_path, slot, stub_params, message):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        spec = {**backend_section()[slot], "stub_params": stub_params}
        bad = write_document(tmp_path / "bad.json", with_slot(slot, spec))
        before = file_states(tmp_path)
        result = invoke("judge" if slot == "translator" else "generate", "--config", bad)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"error: backend {slot!r}: {message}" in result.output
        assert file_states(tmp_path) == before

    def test_backend_slot_kind_mismatch_is_rejected(self, tmp_path):
        write_corpus(tmp_path)
        backends = backend_section()
        backends["infill"]["kind"] = "translator"
        config = write_config(tmp_path, "mismatch.json", backends=backends)
        result = invoke("generate", "--config", config)
        assert result.exit_code == 1
        assert "declares mismatched kind" in result.output


def test_the_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Key | Type | Default | Flag | Read by |\n|---|---|---|---|---|\n")[1]
    rows = table.split("\n\n")[0].splitlines()
    listed = [row.split("|")[1].strip().strip("`") for row in rows]
    assert listed == list(RunConfig._fields)


# Each input whose error the README quotes: (name, the config file's bytes or document, the manifest's entries).
README_ERRORS = [
    ("bool alpha", config_document(judge={"alpha": True}), None),
    ("unknown judge key", config_document(judge={"alpah": 0.7}), None),
    ("config byte", b'{\n "seed": 7,\n "output_dir": "\xff"\n}\n', None),
    ("manifest seed", config_document(), [ENTRY, {**ENTRY, "seed": "7"}]),
    ("manifest entry key", config_document(), [ENTRY, {k: v for k, v in ENTRY.items() if k != "finished_at"}]),
]


def test_the_readme_quotes_each_config_and_manifest_error_as_printed(tmp_path, monkeypatch):
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split())
    quoted = re.findall(r"`(error: (?:run\.json|out/manifest\.json)[^`]*)`", readme)
    printed = []
    for name, document, entries in README_ERRORS:
        root = tmp_path / name.replace(" ", "_")
        (root / "out").mkdir(parents=True)
        monkeypatch.chdir(root)
        write_document(root / "run.json", document)
        if entries is not None:
            write_document(root / "out" / "manifest.json", entries)
        result = invoke("extract", "--config", "run.json")
        assert (result.exit_code, result.stdout) == (2 if entries else 1, ""), name
        printed.append(result.stderr.removesuffix("\n"))
    assert sorted(quoted) == sorted(printed)


def test_the_readme_lists_every_stub_parameter():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = " ".join(readme.split()).split("The stub parameters are ")[1].split(".")[0]
    assert re.findall(r"`(\w+)`", sentence) == list(StubParams._fields)


def test_the_readme_lists_every_capability_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("\nCapabilities: ")[1].split(".")[0]
    assert re.findall(r"`(\w+)`", sentence) == [capability.value for capability in Capability]


@pytest.mark.parametrize(
    "opening, closing, values",
    [
        ("Valid POS tags are ", ".", corpus.POS_TAGS),
        ("`filter_status` (", ";", get_args(FilterStatus)),
        ("A `fail_reason` is `null`, ", ", and", get_args(FailReason)),
        ("`transport` is one of ", ":", get_args(get_type_hints(BackendSpec)["transport"])),
        ("Four slots, ", ", all", get_args(Kind)),
    ],
    ids=["POS tags", "filter_status", "fail_reason", "transports", "kinds"],
)
def test_the_readme_lists_each_closed_set_in_order(opening, closing, values):
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split())
    sentence = readme.split(opening)[1].split(closing)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(values)


def test_the_readme_names_each_pos_prompt_word_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("prompts name the masked class ")[1].split(" respectively")[0]
    words = [capability.word for capability in Capability if capability.tag is not None]
    assert re.findall(r"`(\w+)`", sentence) == words


def test_the_readme_examples_load(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```(?:json)?\n(.*?)```", readme, re.DOTALL)
    (pairs,) = [block for block in blocks if block.startswith("p1\t")]
    (annotation,) = [block for block in blocks if block.startswith('{"id"')]
    (gold,) = [block for block in blocks if block.startswith('{"case_id"')]
    for name, text in (("pairs.tsv", pairs), ("annotations.jsonl", annotation), ("gold.jsonl", gold)):
        lines = text if name == "pairs.tsv" else json.dumps(json.loads(text), ensure_ascii=False) + "\n"
        (tmp_path / name).write_text(lines, encoding="utf-8")
    note = load_annotations(tmp_path / "annotations.jsonl", load_pairs(tmp_path / "pairs.tsv"))["p1"]
    assert (note.pos[1], note.ne_spans, note.phrase_spans_src) == ("NOUN", ((1, 2, "ORG"),), ((0, 2),))
    row = load_gold(tmp_path / "gold.jsonl")[("p1-noun-000", "mt")]
    assert (row.is_erroneous, row.error_spans, row.edited_spans) == (True, ((0, 1),), ((0, 2),))


def test_the_readme_minimal_config_loads_with_its_paths_beside_it(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```(?:json)?\n(.*?)```", readme, re.DOTALL)
    (document,) = [block for block in blocks if block.startswith('{\n  "corpus"')]
    study = tmp_path / "study"
    study.mkdir()
    (study / "run.json").write_text(document, encoding="utf-8")
    config, _ = load_run_config(study / "run.json")
    assert config.corpus == CorpusFiles(study / "pairs.tsv", study / "alignments.txt", study / "annotations.jsonl")
    assert (config.cache_root, config.output_dir) == (study / "cache", study / "out")
    assert (config.capability, config.per_pair, config.seed) == (Capability.NOUN, 3, 7)
    assert list(config.backends) == ["infill", "scorer_ref_free", "translator", "scorer_ref_based"]


@pytest.mark.parametrize(
    "name, command, newline",
    [
        ("out/cases.jsonl", "judge", b"\n"),
        ("out/records.jsonl", "sweep", b"\n"),
        ("out/verdicts.jsonl", "report", b"\n"),
        ("out/verdicts.jsonl", "report", b"\r"),
        ("gold.jsonl", "eval", b"\n"),
        ("annotations.jsonl", "extract", b"\n"),
        ("pairs.tsv", "extract", b"\n"),
        ("alignments.txt", "extract", b"\n"),
    ],
    ids=["cases", "records", "verdicts", "verdicts with CR line ends", "gold", "annotations", "pairs", "alignments"],
)
def test_a_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, name, command, newline):
    config = workspace(tmp_path)
    run_ok("generate", "--config", config)
    run_ok("judge", "--config", config)
    gold = write_gold(tmp_path, erroneous=True)
    path = tmp_path / name
    text = path.read_bytes().replace(b"\n", newline)
    path.write_bytes(text + b"\xff")
    line = text.count(newline) + 1
    result = invoke(command, "--config", config, *(["--gold", gold] if command == "eval" else []))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: {path}:{line}: "
        f"'utf-8' codec can't decode byte 0xff in position {len(text)}: invalid start byte\n"
    )


# The flags of each command besides --config and --output-dir: the config
# values it reads and its own inputs.
COMMAND_FLAGS = {
    "extract": [],
    "generate": ["--cache-root", "--seed", "--jobs", "--capability", "--per-pair", "--beta"],
    "judge": ["--cache-root", "--jobs", "--alpha", "--beta", "--exclude-low-base"],
    "sweep": ["--alphas", "--betas"],
    "eval": ["--gold"],
    "report": ["--format"],
}


def parser_flags() -> dict[str, list[str]]:
    """Each command's flags but --help, in the order its parser declares them."""
    commands = next(action.choices for action in build_parser()._actions if action.choices)
    return {
        name: [flag for action in command._actions for flag in action.option_strings if flag != "--help"]
        for name, command in commands.items()
    }


def test_the_readme_lists_every_command_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Command    | Flags")[1].split("\n\n")[0].splitlines()[2:]
    listed = {}
    for row in table:
        name, flags = (cell.strip().strip("`") for cell in row.split("|")[1:3])
        listed[name] = [] if flags == "none" else flags.split()
    assert listed == {
        name: [flag for flag in flags if flag not in ("--config", "--output-dir")]
        for name, flags in parser_flags().items()
    }


class TestCommandFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        taken = {name: sorted(flags) for name, flags in parser_flags().items()}
        assert taken == {
            name: sorted(["--config", "--output-dir", *flags])
            for name, flags in COMMAND_FLAGS.items()
        }
        assert sum(len(flags) for flags in taken.values()) == 27

    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("sweep", "--config", config, "--alpha", "0.5")
        assert result.exit_code == 1
        assert "--alpha" in result.output

    @pytest.mark.parametrize(
        "args, usage",
        [
            (["extract"], "usage: mtbehave extract "),
            (["extract", "--config", "config.json", "--bogus"], "usage: mtbehave extract "),
            (["--bogus", "extract"], "usage: mtbehave extract "),
            (["translate"], "usage: mtbehave [--help] [--version] COMMAND ..."),
            (["generate", "--config", "config.json", "--per", "2"], "usage: mtbehave generate "),
            (["sweep", "--config", "c.json", "--alpha", "0.5"], "usage: mtbehave sweep "),
        ],
        ids=[
            "missing --config", "unknown flag", "unknown group flag", "unknown command", "prefix flag",
            "flag of another command",
        ],
    )
    def test_usage_errors_exit_1(self, args, usage):
        result = invoke(*args)
        assert result.exit_code == 1
        assert result.stderr.startswith(usage)

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_every_command_has_help(self, command):
        result = invoke(command, "--help")
        assert result.exit_code == 0
        assert all(flag in result.stdout for flag in ["--config", "--output-dir", *COMMAND_FLAGS[command]])

    def test_generate_help_names_every_capability(self):
        result = invoke("generate", "--help")
        assert result.exit_code == 0
        assert ", ".join(capability.value for capability in Capability) in " ".join(result.stdout.split())

    def test_version(self):
        result = invoke("--version")
        assert (result.exit_code, result.stdout) == (0, f"mtbehave, version {__version__}\n")

    @pytest.mark.parametrize("args", [["extract", "--config", "config.json"], ["extract", "--help"], ["--version"]])
    def test_a_closed_stdout_exits_1_without_a_traceback(self, tmp_path, args):
        workspace(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)  # so writing to stdout fails with a broken pipe
        # buffered, as usual, stdout fails only when it is flushed
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        try:
            result = subprocess.run(
                [sys.executable, "-m", "mtbehave.cli", *args],
                cwd=tmp_path,
                env={**env, "PYTHONPATH": os.path.dirname(os.path.dirname(mtbehave.__file__))},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, "")

    def test_main_registers_the_exit_freeze_once(self, monkeypatch):
        registered = []
        monkeypatch.setattr(atexit, "register", registered.append)
        _freeze_the_heap_at_exit.cache_clear()  # as in a new process
        try:
            for _ in range(3):
                assert invoke("--version").exit_code == 0
        finally:
            _freeze_the_heap_at_exit.cache_clear()  # so the next call registers with the real atexit
        assert registered == [gc.freeze]

    def test_importing_the_cli_leaves_the_collector_alone(self):
        code = "import gc, mtbehave.cli; print(gc.isenabled(), gc.get_freeze_count())"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mtbehave.__file__))},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.split() == ["True", "0"]

    def test_importing_the_cli_loads_only_the_standard_library(self):
        # Each stage is a process of its own: a module that its start-up loads, every stage pays for.
        code = (
            "import sys; before = set(sys.modules); import mtbehave.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mtbehave.__file__))},
            capture_output=True,
            text=True,
            check=True,
        )
        loaded = result.stdout.split()
        assert "mtbehave.cli" in loaded
        assert [
            name
            for name in loaded
            if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "mtbehave"
        ] == []
        assert {"dataclasses", "inspect", "csv"}.isdisjoint(loaded)

    def test_only_generate_needs_a_capability(self, tmp_path):
        config = workspace(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        del data["capability"]
        config.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        result = invoke("generate", "--config", config)
        assert result.exit_code == 1
        assert "a capability is required" in result.output
        run_ok("generate", "--config", config, "--capability", "noun")
        run_ok("extract", "--config", config)
        run_ok("judge", "--config", config)
        run_ok("sweep", "--config", config)
        run_ok("eval", "--config", config, "--gold", write_gold(tmp_path, erroneous=True))
        run_ok("report", "--config", config)
        assert (tmp_path / "out" / "report.md").is_file()
