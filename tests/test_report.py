"""Tests for the diagnostic report views and their renderers."""

from __future__ import annotations

import json

import pytest

from mtbehave.casegen import STATUS_DROPPED_IDENTICAL, STATUS_KEPT, TestCase as Case
from mtbehave.corpus import CorpusError
from mtbehave.judge import Verdict
from mtbehave.report import (
    CapabilityReport,
    GoldErrorAnnotation,
    MissingGold,
    MissingProjection,
    ZeroFlagged,
    ZeroGoldErrors,
    capability_table,
    emit_report,
    error_position_analysis,
    load_gold,
    precision_recall,
    render_report_csv,
    render_report_markdown,
    sweep_markdown,
)
from mtbehave.segmentation import Capability

from dumpers import load_report


def case(case_id, capability=Capability.NOUN, status=STATUS_KEPT):
    return Case(case_id, "p1", capability, seed=1, filter_status=status)


def passing(case_id, system_id="mt"):
    return Verdict(case_id, system_id, 0.9, 0.9, 0.0, True, None)


def failing(case_id, system_id="mt"):
    return Verdict(case_id, system_id, 0.9, 0.5, 0.4, False, "large_diff")


def gold_row(case_id, erroneous, error_spans=(), edited=(), system_id="mt"):
    return GoldErrorAnnotation(
        case_id, system_id, erroneous, tuple(error_spans), tuple(edited)
    )


def table_fixture():
    """Two systems over noun and tense cases, with one errored record.

    sysA: noun 3/4 pass, tense 2/2.  sysB: noun 1/3 pass (n4's record
    errored so it has no verdict), tense 2/2.
    """
    cases = [
        case("n1"), case("n2"), case("n3"), case("n4"),
        case("n5", status=STATUS_DROPPED_IDENTICAL),  # dropped, not in size
        case("t1", Capability.TENSE), case("t2", Capability.TENSE),
    ]
    verdicts = [
        passing("n1", "sysA"), passing("n2", "sysA"),
        passing("n3", "sysA"), failing("n4", "sysA"),
        passing("n1", "sysB"), failing("n2", "sysB"), failing("n3", "sysB"),
        passing("t1", "sysA"), passing("t2", "sysA"),
        passing("t1", "sysB"), passing("t2", "sysB"),
    ]
    return verdicts, cases


class TestCapabilityTable:
    def test_rows_sizes_and_best_flags(self):
        verdicts, cases = table_fixture()
        rows = capability_table(verdicts, cases)
        assert [(r.capability, r.system_id) for r in rows] == [
            (Capability.NOUN, "sysA"),
            (Capability.NOUN, "sysB"),
            (Capability.TENSE, "sysA"),
            (Capability.TENSE, "sysB"),
        ]
        noun_a, noun_b, tense_a, tense_b = rows
        assert (noun_a.pass_rate, noun_a.size, noun_a.errored) == (75.0, 4, 0)
        # 1/3 = 33.33 after rounding; the dropped n5 never counts
        assert (noun_b.pass_rate, noun_b.size, noun_b.errored) == (33.33, 4, 1)
        assert noun_a.is_best and not noun_b.is_best

    def test_ties_flag_every_tied_row(self):
        verdicts, cases = table_fixture()
        rows = capability_table(verdicts, cases)
        tense_rows = [r for r in rows if r.capability is Capability.TENSE]
        assert [r.is_best for r in tense_rows] == [True, True]

    def test_unknown_case_is_rejected(self):
        with pytest.raises(ValueError, match="unknown case 'ghost'"):
            capability_table([passing("ghost")], [case("n1")])

    def test_more_verdicts_than_kept_cases_is_rejected(self):
        verdicts = [passing("n1"), passing("n1")]
        with pytest.raises(ValueError, match="more verdicts"):
            capability_table(verdicts, [case("n1")])


class TestPrecisionRecall:
    def gold(self):
        return {
            ("c1", "mt"): gold_row("c1", True, [(0, 2)], [(0, 2)]),
            ("c2", "mt"): gold_row("c2", True, [(1, 3)], [(1, 3)]),
            ("c3", "mt"): gold_row("c3", False),
            ("c4", "mt"): gold_row("c4", False),
            ("c5", "mt"): gold_row("c5", True, [(0, 1)], [(0, 1)]),
            ("c6", "mt"): gold_row("c6", False),
        }

    def test_hand_computed_counts(self):
        # flagged c1, c2, c3; gold errors c1, c2, c5; true positives c1, c2
        verdicts = [
            failing("c1"), failing("c2"), failing("c3"),
            passing("c4"), passing("c5"), passing("c6"),
        ]
        precision, recall = precision_recall(verdicts, self.gold())
        assert precision == 66.67  # 2/3
        assert recall == 66.67  # 2/3

    def test_nothing_flagged_is_undefined(self):
        verdicts = [passing("c1"), passing("c5")]
        with pytest.raises(ZeroFlagged):
            precision_recall(verdicts, self.gold())

    def test_no_gold_errors_is_undefined(self):
        verdicts = [failing("c3"), passing("c4")]
        with pytest.raises(ZeroGoldErrors):
            precision_recall(verdicts, self.gold())

    def test_missing_gold_row_is_an_error(self):
        with pytest.raises(MissingGold, match="case 'c9'"):
            precision_recall([failing("c9")], self.gold())


class TestErrorPositionAnalysis:
    def test_hand_computed_share(self):
        verdicts = [failing("q1"), failing("q2"), failing("q3"), passing("q4")]
        gold = {
            # error (2,4) touches edit (3,5) at token 3 -> hit
            ("q1", "mt"): gold_row("q1", True, [(2, 4)], [(3, 5)]),
            # half-open spans: (0,1) and (1,2) share nothing -> miss
            ("q2", "mt"): gold_row("q2", True, [(0, 1)], [(1, 2)]),
            ("q3", "mt"): gold_row("q3", True, [(5, 6)], [(0, 2), (5, 8)]),
            ("q4", "mt"): gold_row("q4", False),
        }
        assert error_position_analysis(verdicts, gold) == 66.67  # 2/3

    def test_flagged_but_clean_cases_do_not_qualify(self):
        verdicts = [failing("q1"), failing("q2")]
        gold = {
            ("q1", "mt"): gold_row("q1", True, [(0, 1)], [(0, 1)]),
            ("q2", "mt"): gold_row("q2", False),  # not erroneous, so ignored
        }
        assert error_position_analysis(verdicts, gold) == 100.0

    def test_no_qualifying_cases_is_undefined(self):
        verdicts = [passing("q1")]
        gold = {("q1", "mt"): gold_row("q1", True, [(0, 1)], [(0, 1)])}
        with pytest.raises(ZeroGoldErrors):
            error_position_analysis(verdicts, gold)

    def test_qualifying_case_needs_a_projection(self):
        verdicts = [failing("q1")]
        gold = {("q1", "mt"): gold_row("q1", True, [(0, 1)], edited=())}
        with pytest.raises(MissingProjection, match="case 'q1'"):
            error_position_analysis(verdicts, gold)


class TestGoldErrorAnnotation:
    def test_error_spans_require_an_erroneous_label(self):
        with pytest.raises(ValueError, match="non-erroneous"):
            gold_row("c1", False, error_spans=[(0, 1)])

    @pytest.mark.parametrize("span", [(2, 2), (3, 1), (-1, 2)])
    def test_degenerate_spans_are_rejected(self, span):
        with pytest.raises(ValueError, match="not a valid span"):
            gold_row("c1", True, error_spans=[span])


def gold_line(case_id, erroneous, error_spans=(), edited=(), system_id="mt"):
    return json.dumps(
        {
            "case_id": case_id,
            "system_id": system_id,
            "is_erroneous": erroneous,
            "error_spans": [list(span) for span in error_spans],
            "edited_spans_on_y_prime": [list(span) for span in edited],
        }
    )


class TestLoadGold:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            gold_line("c1", True, [(0, 2)], [(1, 3)]) + "\n" + gold_line("c2", False) + "\n",
            encoding="utf-8",
        )
        gold = load_gold(path)
        assert set(gold) == {("c1", "mt"), ("c2", "mt")}
        assert gold[("c1", "mt")] == gold_row("c1", True, [(0, 2)], [(1, 3)])

    def test_duplicate_key_is_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            gold_line("c1", False) + "\n" + gold_line("c1", False) + "\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match="gold.jsonl:2: duplicate gold row"):
            load_gold(path)

    def test_non_boolean_label_is_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        line = gold_line("c1", True, [(0, 1)], [(0, 1)]).replace("true", "1")
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="gold.jsonl:1: is_erroneous must be a boolean"):
            load_gold(path)

    def test_spans_on_clean_translation_are_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        bad = gold_line("c1", True, [(0, 1)]).replace("true", "false")
        path.write_text(bad + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="gold.jsonl:1: bad gold row"):
            load_gold(path)


class TestRenderers:
    def rows(self):
        verdicts, cases = table_fixture()
        return capability_table(verdicts, cases)

    def test_markdown_table(self):
        # sysB's average is (33.33 + 100.0) / 2 = 66.66 after float rounding
        expected = (
            "| MT System | Noun | Tense | Avg |\n"
            "|---|---|---|---|\n"
            "| sysA | **75.00** | **100.00** | **87.50** |\n"
            "| sysB | 33.33 | **100.00** | 66.66 |\n"
            "| Size | 4 | 2 | 6 |\n"
        )
        assert render_report_markdown(self.rows()) == expected

    def test_markdown_dashes_for_missing_cells(self):
        rows = [
            CapabilityReport(Capability.NOUN, "sysA", 75.0, 4, 0, True),
            CapabilityReport(Capability.TENSE, "sysB", 50.0, 2, 0, True),
        ]
        text = render_report_markdown(rows)
        assert "| sysA | **75.00** | - | **75.00** |" in text
        assert "| sysB | - | **50.00** | 50.00 |" in text

    def test_csv_table(self):
        expected = (
            "capability,system_id,pass_rate,size,errored,best\n"
            "noun,sysA,75.00,4,0,true\n"
            "noun,sysB,33.33,4,1,false\n"
            "tense,sysA,100.00,2,0,true\n"
            "tense,sysB,100.00,2,0,true\n"
        )
        assert render_report_csv(self.rows()) == expected

    def test_json_round_trips(self, tmp_path):
        path = tmp_path / "report.json"
        rows = self.rows()
        emit_report(rows, "json", path)
        assert load_report(path) == rows

    def test_emitted_bytes_are_deterministic(self, tmp_path):
        first = tmp_path / "a.md"
        second = tmp_path / "b.md"
        emit_report(self.rows(), "markdown", first)
        emit_report(self.rows(), "markdown", second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            emit_report(self.rows(), "yaml", tmp_path / "r.yaml")


class TestSweepMarkdown:
    def test_two_by_two_grid(self):
        grid = {
            (0.8, 0.05): 75.0,
            (0.8, 0.1): 100.0,
            (0.9, 0.05): 50.0,
            (0.9, 0.1): 75.0,
        }
        expected = (
            "| alpha \\ beta | 0.05 | 0.1 |\n"
            "|---|---|---|\n"
            "| 0.8 | 75.00 | 100.00 |\n"
            "| 0.9 | 50.00 | 75.00 |\n"
        )
        assert sweep_markdown(grid) == expected
