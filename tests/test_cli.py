"""End-to-end tests of the command-line pipeline against stub backends."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from mtbehave import __version__
from mtbehave.backends import HttpStatusError, ResponseCache, _StubTransport
from mtbehave.casegen import STATUS_KEPT, read_cases
from mtbehave.cli import RunConfig, main
from mtbehave.segmentation import MAX_PLANS_PER_PAIR

from conftest import cache_rows, damage_cache_row
from dumpers import load_report

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
    return CliRunner().invoke(main, [str(a) for a in args])


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
        assert "all 1 translation attempts failed" in result.output


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

    def test_bad_threshold_list_is_a_usage_error(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        result = invoke("sweep", "--config", config, "--alphas", "abc")
        assert result.exit_code == 1
        assert "--alphas must be comma-separated numbers" in result.output

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
        assert "unknown report format 'yaml'" in result.output

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

    def test_corrupt_manifest_is_a_data_error_before_any_write(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        out = tmp_path / "out"
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:40])
        before = sorted((p.name, p.read_bytes()) for p in out.iterdir())
        result = invoke("judge", "--config", config)
        assert result.exit_code == 2
        assert f"error: {manifest}: unreadable manifest" in result.output
        assert sorted((p.name, p.read_bytes()) for p in out.iterdir()) == before


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

        def send(self, request, context=None):
            sent.append((self.spec.kind, request.get("src")))
            if request.get("src") in refused:  # the original pair's QE, on every attempt
                raise HttpStatusError(503)
            return stub_send(self, request, context)

        monkeypatch.setattr(_StubTransport, "send", send)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        result = invoke("generate", "--config", config)
        assert result.exit_code == 3, result.output
        assert "all 1 infill attempts failed" in result.output
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

        def send(self, request, context=None):
            if self.spec.kind == "scorer_ref_free":
                raise KeyboardInterrupt
            return stub_send(self, request, context)

        monkeypatch.setattr(_StubTransport, "send", send)
        result = invoke("generate", "--config", config)
        assert (result.exit_code, result.output.strip()) == (1, "Aborted!")
        assert not (tmp_path / "out" / "cases.jsonl").exists()
        rows = cache_rows(ResponseCache(tmp_path / "cache"))
        assert [key[0] for key in rows] == ["stub-infill"]


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
        f"per_pair must be between 1 and {MAX_PLANS_PER_PAIR}, got {MAX_PLANS_PER_PAIR + 1}",
        id="per_pair out of range",
    ),
    pytest.param(
        config_document(per_pair="3"), "per_pair must be an integer, got '3'", id="per_pair string"
    ),
    pytest.param(config_document(jobs=0), "jobs must be at least 1, got 0", id="jobs 0"),
    pytest.param(config_document(seed=1.5), "seed must be an integer, got 1.5", id="seed float"),
    pytest.param(config_document(seed=True), "seed must be an integer, got True", id="seed bool"),
    pytest.param(
        config_document(judge=[0.8]), "{config}: judge section must be an object", id="judge list"
    ),
    pytest.param(
        config_document(judge={"beta": -0.1}),
        "bad judge thresholds: beta must not be negative",
        id="negative beta",
    ),
    pytest.param(
        config_document(backends=["infill"]),
        "{config}: backends section must be an object",
        id="backends list",
    ),
    pytest.param(with_slot("infill", "stub"), "backend 'infill' must be an object", id="slot string"),
    pytest.param(
        with_slot("infill", {"backend_id": "i", "transport": "pigeon"}),
        "backend 'infill': unknown transport 'pigeon'",
        id="unknown transport",
    ),
    pytest.param(
        with_slot("infill", {"transport": "stub"}),
        "backend 'infill': backend spec is missing 'backend_id'",
        id="spec without backend_id",
    ),
    pytest.param(
        config_document(exclude_low_base="yes"),
        "exclude_low_base must be a boolean",
        id="exclude_low_base string",
    ),
    pytest.param([config_document()], "{config}: config must be a JSON object", id="config list"),
    pytest.param(
        with_corpus(pairs="pairs.tsv", alignments="alignments.txt"),
        "{config}: corpus section must name pairs, alignments, and annotations files",
        id="corpus without annotations",
    ),
    pytest.param(
        config_document(corpus="pairs.tsv"),
        "{config}: corpus section must name pairs, alignments, and annotations files",
        id="corpus string",
    ),
    pytest.param(
        config_document(judge={"alpah": 0.7}),
        "{config}: unknown judge keys: ['alpah']",
        id="unknown judge key",
    ),
    pytest.param(
        with_corpus(
            pairs="pairs.tsv",
            alignments="alignments.txt",
            annotations="annotations.jsonl",
            gold="gold.jsonl",
        ),
        "{config}: unknown corpus keys: ['gold']",
        id="unknown corpus key",
    ),
    pytest.param(
        config_document(judge={"alpha": True}),
        "bad judge thresholds: alpha must be a number, got True",
        id="bool alpha",
    ),
    pytest.param(
        config_document(judge={"beta": "0.05"}),
        "bad judge thresholds: beta must be a number, got '0.05'",
        id="string beta",
    ),
    pytest.param(b'{"seed": "\xff"}', "{config}: not valid JSON", id="config not UTF-8"),
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
]


class TestConfigValidation:
    def test_unknown_keys_are_rejected(self, tmp_path):
        write_corpus(tmp_path)
        config = write_config(tmp_path, "weird.json", goat=1)
        result = invoke("extract", "--config", config)
        assert result.exit_code == 1
        assert "unknown config keys: ['goat']" in result.output

    def test_invalid_json_is_rejected(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{", encoding="utf-8")
        result = invoke("extract", "--config", config)
        assert result.exit_code == 1
        assert "not valid JSON" in result.output

    def test_unknown_capability_is_rejected(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("generate", "--config", config, "--capability", "sarcasm")
        assert result.exit_code == 1
        assert "unknown capability 'sarcasm'" in result.output

    def test_only_the_stages_that_read_the_corpus_need_its_files(self, tmp_path):
        config = workspace(tmp_path)
        run_ok("generate", "--config", config)
        run_ok("judge", "--config", config)
        (tmp_path / "alignments.txt").unlink()
        run_ok("sweep", "--config", config)
        run_ok("eval", "--config", config, "--gold", write_gold(tmp_path, erroneous=True))
        run_ok("report", "--config", config)
        result = invoke("extract", "--config", config)
        assert result.exit_code == 1
        assert f"corpus alignments file not found: {tmp_path / 'alignments.txt'}" in result.output

    @pytest.mark.parametrize("document, message", CONFIG_ERRORS)
    def test_each_config_error_exits_1_with_its_message(self, tmp_path, document, message):
        write_corpus(tmp_path)
        config = write_document(tmp_path / "bad.json", document)
        result = invoke("generate", "--config", config)
        assert result.exit_code == 1
        assert f"error: {message.format(config=config)}" in result.output

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

    def test_a_flag_overrides_one_judge_key_and_keeps_the_other(self, tmp_path):
        config = write_config(tmp_path, judge={"alpha": 0.5, "beta": 0.2})
        write_corpus(tmp_path)
        run_ok("generate", "--config", config)
        result = run_ok("judge", "--config", config, "--beta", "0.1")
        assert "(alpha=0.5, beta=0.1," in result.output
        result = invoke("judge", "--config", config, "--beta", "-1")
        assert result.exit_code == 1
        assert "bad judge thresholds: beta must not be negative" in result.output

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
        assert "error: backend 'translator': unknown transport 'nope'" in result.output

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alphas", "0.5,nan", "--alphas must be finite numbers, got 'nan'"),
            ("--alphas", "inf", "--alphas must be finite numbers, got 'inf'"),
            ("--betas", "nan", "--betas must be finite numbers, got 'nan'"),
            ("--betas", "0.05,-0.1", "--betas must not be negative, got -0.1"),
        ],
    )
    def test_a_bad_sweep_grid_value_names_its_flag(self, tmp_path, flag, value, message):
        # checked before the records are read: no judge stage has run here
        config = workspace(tmp_path)
        result = invoke("sweep", "--config", config, f"{flag}={value}")
        assert result.exit_code == 1
        assert f"error: {message}" in result.output

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
    assert listed == [item.name for item in fields(RunConfig) if "read" in item.metadata]


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


class TestCommandFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        taken = {
            name: sorted(opt for param in command.params for opt in param.opts)
            for name, command in main.commands.items()
        }
        assert taken == {
            name: sorted(["--config", "--output-dir", *flags])
            for name, flags in COMMAND_FLAGS.items()
        }
        assert sum(len(command.params) for command in main.commands.values()) == 27

    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path):
        config = workspace(tmp_path)
        result = invoke("sweep", "--config", config, "--alpha", "0.5")
        assert result.exit_code == 1
        assert "--alpha" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["extract"],
            ["extract", "--config", "config.json", "--bogus"],
            ["--bogus", "extract"],
            ["translate"],
        ],
        ids=["missing --config", "unknown flag", "unknown group flag", "unknown command"],
    )
    def test_usage_errors_exit_1(self, args):
        result = invoke(*args)
        assert result.exit_code == 1
        assert "Usage:" in result.output

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
