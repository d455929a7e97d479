"""Tests for case judging, pass-rate aggregation, sweeps, and record scoring."""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import given, strategies as st

from mtbehave.backends import Backend, BackendSpec, HttpStatusError, _StubTransport
from mtbehave.casegen import STATUS_DROPPED_IDENTICAL, STATUS_KEPT, TestCase as Case
from mtbehave.corpus import CorpusError
from mtbehave.judge import (
    FAIL_LARGE_DIFF,
    FAIL_LOW_BASE_QUALITY,
    EmptyVerdictSet,
    JudgeConfig,
    TranslationRecord,
    Verdict,
    judge_case,
    judge_records,
    pass_rate,
    read_records,
    read_verdicts,
    score_records,
    sweep,
    write_records,
    write_verdicts,
)
from mtbehave.segmentation import Capability

from conftest import HoldingTransport, RecordingTransport, make_pair, signalling, stub_backend


def record(qual_y, qual_y_prime, case_id="c1", **kwargs):
    return TranslationRecord(
        case_id,
        "sys",
        y="译文",
        y_prime="改译",
        qual_y=qual_y,
        qual_y_prime=qual_y_prime,
        **kwargs,
    )


def verdict(passed, case_id="c1"):
    reason = None if passed else FAIL_LARGE_DIFF
    return Verdict(case_id, "sys", 1.0, 1.0, 0.0, passed, reason)


class TestJudgeConfig:
    def test_defaults(self):
        config = JudgeConfig()
        assert (config.alpha, config.beta) == (0.8, 0.05)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            JudgeConfig(beta=-0.01)

    def test_non_finite_thresholds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            JudgeConfig(alpha=math.inf)


class TestJudgeCase:
    def test_passes_when_base_is_good_and_diff_is_small(self):
        v = judge_case(record(0.85, 0.83), JudgeConfig())
        assert v.passed
        assert v.fail_reason is None
        assert v.diff == abs(0.85 - 0.83)

    def test_low_base_quality_fails(self):
        v = judge_case(record(0.79, 0.79), JudgeConfig())
        assert not v.passed
        assert v.fail_reason == FAIL_LOW_BASE_QUALITY

    def test_large_diff_fails(self):
        v = judge_case(record(0.90, 0.80), JudgeConfig())
        assert not v.passed
        assert v.fail_reason == FAIL_LARGE_DIFF

    def test_improvement_beyond_beta_also_fails(self):
        # the comparison is on |qual_y - qual_y'|, direction does not matter
        v = judge_case(record(0.85, 0.95), JudgeConfig())
        assert v.fail_reason == FAIL_LARGE_DIFF

    def test_low_base_takes_precedence_over_large_diff(self):
        v = judge_case(record(0.5, 0.9), JudgeConfig())
        assert v.fail_reason == FAIL_LOW_BASE_QUALITY

    def test_base_quality_exactly_alpha_passes(self):
        v = judge_case(record(0.8, 0.8), JudgeConfig())
        assert v.passed

    def test_diff_exactly_beta_passes(self):
        # 1.0 and 0.75 are binary-exact, so the diff is exactly 0.25
        v = judge_case(record(1.0, 0.75), JudgeConfig(beta=0.25))
        assert v.passed

    def test_comparison_is_exact_with_no_epsilon(self):
        # in floats 0.90 - 0.85 = 0.050000000000000044, a hair over beta,
        # and the judge deliberately does not forgive it
        v = judge_case(record(0.90, 0.85), JudgeConfig(beta=0.05))
        assert not v.passed
        assert v.fail_reason == FAIL_LARGE_DIFF
        # while 0.85 - 0.80 = 0.04999999999999993 sneaks under the same beta
        assert judge_case(record(0.85, 0.80), JudgeConfig(beta=0.05)).passed

    def test_unscored_record_cannot_be_judged(self):
        bare = TranslationRecord("c1", "sys")
        with pytest.raises(ValueError, match="was not scored"):
            judge_case(bare, JudgeConfig())

    def test_errored_record_cannot_be_judged(self):
        failed = record(0.9, 0.9, error="boom", error_kind="backend")
        with pytest.raises(ValueError, match="was not scored"):
            judge_case(failed, JudgeConfig())


class TestJudgeRecords:
    def test_skips_errored_records(self):
        records = [
            record(0.9, 0.9, case_id="a"),
            TranslationRecord("b", "sys", error="boom", error_kind="backend"),
            record(0.5, 0.5, case_id="c"),
        ]
        verdicts = judge_records(records, JudgeConfig())
        assert [v.case_id for v in verdicts] == ["a", "c"]


class TestPassRate:
    def test_three_of_four(self):
        verdicts = [verdict(True), verdict(True), verdict(True), verdict(False)]
        assert pass_rate(verdicts) == 75.0

    def test_rounds_to_two_decimals(self):
        verdicts = [verdict(True)] * 455 + [verdict(False)] * 39
        # 455 / 494 = 0.9210526..., so 92.11 after rounding
        assert pass_rate(verdicts) == 92.11

    def test_empty_set_is_undefined(self):
        with pytest.raises(EmptyVerdictSet):
            pass_rate([])

    @given(st.lists(st.booleans(), min_size=1, max_size=400))
    def test_matches_the_float_formula(self, outcomes):
        verdicts = [verdict(passed) for passed in outcomes]
        k = sum(outcomes)
        assert pass_rate(verdicts) == round(100 * k / len(outcomes), 2)


class TestSweep:
    # all quantities are sixteenths, so every comparison below is exact
    def records(self):
        return [
            record(0.9375, 0.9375, case_id="a"),
            record(0.875, 0.625, case_id="b"),
            record(0.5, 0.5, case_id="c"),
            record(0.9375, 0.875, case_id="d"),
        ]

    def test_hand_computed_grid(self):
        grid = sweep(self.records(), alphas=[0.5, 0.875], betas=[0.0625, 0.25])
        # (0.5, 0.0625): b fails on diff 0.25           -> 3/4
        # (0.5, 0.25):   everything passes              -> 4/4
        # (0.875, 0.0625): b fails on diff, c on base   -> 2/4
        # (0.875, 0.25): only c fails on base           -> 3/4
        assert grid == {
            (0.5, 0.0625): 75.0,
            (0.5, 0.25): 100.0,
            (0.875, 0.0625): 50.0,
            (0.875, 0.25): 75.0,
        }

    def test_grid_is_monotone(self):
        alphas = [0.5, 0.875]
        betas = [0.0625, 0.25]
        grid = sweep(self.records(), alphas, betas)
        for beta in betas:
            assert grid[(0.875, beta)] <= grid[(0.5, beta)]
        for alpha in alphas:
            assert grid[(alpha, 0.0625)] <= grid[(alpha, 0.25)]

    def test_errored_records_do_not_move_the_grid(self):
        noisy = self.records() + [
            TranslationRecord("x", "sys", error="boom", error_kind="backend")
        ]
        assert sweep(noisy, [0.5], [0.25]) == sweep(self.records(), [0.5], [0.25])

    def test_only_errored_records_is_undefined(self):
        only_errors = [TranslationRecord("x", "sys", error="boom")]
        with pytest.raises(EmptyVerdictSet):
            sweep(only_errors, [0.8], [0.05])


def chat_upstream(table):
    """Fake chat endpoint that translates via an exact-match table."""

    def send(request):
        text = request["messages"][-1]["content"]
        return {"choices": [{"message": {"content": table[text]}}]}

    return send


def scoring_pairs():
    pairs = (make_pair("p1", "the shop closed", "商店 关门"), make_pair("p2", "he ran home", "他 跑了 回家"))
    return {pair.pair_id: pair for pair in pairs}


def kept_case(case_id, pair_id, source_prime, reference_prime):
    return Case(
        case_id,
        pair_id,
        Capability.NOUN,
        seed=1,
        filter_status=STATUS_KEPT,
        source_prime=tuple(source_prime.split(" ")),
        reference_prime=tuple(reference_prime.split(" ")),
    )


TRANSLATIONS = {
    "the shop closed": "商店 关门",
    "the store closed": "商店 关门",  # the system misses the store/shop edit
    "he ran home": "他 跑了 回家",
    "he walked home": "他 走了 回家",
}


def translator(transport=None, cache=None):
    spec = BackendSpec("mt-under-test", "translator", "stub")
    if transport is None:
        transport = chat_upstream(TRANSLATIONS)
    if not hasattr(transport, "send"):
        transport = RecordingTransport(transport)
    return Backend(spec, cache=cache, transport=transport)


class TestScoreRecords:
    def cases(self):
        return [
            kept_case("c1", "p1", "the store closed", "门店 关门"),
            Case("c2", "p1", Capability.NOUN, None, None, STATUS_DROPPED_IDENTICAL, seed=1),
            kept_case("c3", "p2", "he walked home", "他 走了 回家"),
        ]

    def scorer(self):
        return stub_backend("f1", "scorer_ref_based", mode="unigram_f1")

    def test_translates_and_scores_kept_cases_only(self):
        records = score_records(self.cases(), scoring_pairs(), translator(), self.scorer())
        assert [r.case_id for r in records] == ["c1", "c3"]
        first, second = records
        assert first.system_id == "mt-under-test"
        assert (first.y, first.y_prime) == ("商店 关门", "商店 关门")
        assert first.qual_y == 1.0
        # hypothesis "商店 关门" vs reference "门店 关门": one shared token,
        # so F1 = 2 * 1 / (2 + 2) = 0.5
        assert first.qual_y_prime == 0.5
        assert (second.qual_y, second.qual_y_prime) == (1.0, 1.0)
        assert all(r.error is None for r in records)

    def test_jobs_preserve_case_order(self):
        sequential = score_records(self.cases(), scoring_pairs(), translator(), self.scorer())
        parallel = score_records(
            self.cases(), scoring_pairs(), translator(), self.scorer(), jobs=4
        )
        assert [r.case_id for r in parallel] == [r.case_id for r in sequential]
        assert [r.qual_y_prime for r in parallel] == [r.qual_y_prime for r in sequential]

    def test_backend_failure_is_recorded_not_raised(self):
        def send(request):
            text = request["messages"][-1]["content"]
            if "ran" in text:
                raise HttpStatusError(400)
            return {"choices": [{"message": {"content": TRANSLATIONS[text]}}]}

        records = score_records(self.cases(), scoring_pairs(), translator(send), self.scorer())
        by_id = {r.case_id: r for r in records}
        assert by_id["c1"].error is None
        assert by_id["c3"].error_kind == "backend"
        assert by_id["c3"].qual_y is None

    def sibling_cases(self):
        """Two kept cases on p1, one on p2."""
        return [
            kept_case("c1", "p1", "the store closed", "门店 关门"),
            kept_case("c2", "p1", "the shop opened", "商店 开门"),
            kept_case("c3", "p2", "he walked home", "他 走了 回家"),
        ]

    @staticmethod
    def refusing(text):
        """Recorded chat upstream that answers 400 for one source text."""
        table = {**TRANSLATIONS, "the shop opened": "商店 开门"}

        def send(request):
            source = request["messages"][-1]["content"]
            if source == text:
                raise HttpStatusError(400, "refused")
            return {"choices": [{"message": {"content": table[source]}}]}

        return RecordingTransport(send)

    def test_base_translation_failure_marks_every_case_of_the_pair(self):
        chat = self.refusing("the shop closed")
        records = score_records(
            self.sibling_cases(), scoring_pairs(), translator(chat), self.scorer(), jobs=4
        )
        by_id = {r.case_id: r for r in records}
        for case_id in ("c1", "c2"):
            failed = by_id[case_id]
            assert (failed.error, failed.error_kind) == ("HTTP 400: refused", "backend")
            assert failed.y is None and failed.y_prime is None
            assert failed.qual_y is None and failed.qual_y_prime is None
        assert by_id["c3"].error is None and by_id["c3"].qual_y == 1.0
        sources = [request["messages"][-1]["content"] for request in chat.calls]
        assert sources.count("the shop closed") == 1

    def test_score_requests_leave_before_the_last_translation_answers(self):
        # At jobs 2 the last translation request is held until the scorer has
        # received a request, which only a follow-up of an earlier translation
        # can send. A stage that scored after every translation would wait out
        # the hold and fail here instead of hanging.
        table = {**TRANSLATIONS, "the shop opened": "商店 开门"}
        spec = self.scorer().spec
        counted = RecordingTransport(chat_upstream(table))
        sequential = score_records(self.sibling_cases(), scoring_pairs(), translator(counted), self.scorer())
        assert counted.call_count >= 2
        received = threading.Event()
        held = HoldingTransport(chat_upstream(table), counted.call_count, received)
        scorer = Backend(spec, transport=signalling(_StubTransport(spec), received))
        overlapped = score_records(
            self.sibling_cases(), scoring_pairs(), translator(held), scorer, jobs=2
        )
        assert held.released is True
        assert overlapped == sequential

    def test_edited_translation_failure_keeps_the_base_translation(self):
        records = score_records(
            self.sibling_cases(),
            scoring_pairs(),
            translator(self.refusing("the store closed")),
            self.scorer(),
        )
        by_id = {r.case_id: r for r in records}
        failed = by_id["c1"]
        assert failed.error == "HTTP 400: refused"
        assert failed.y == "商店 关门"
        assert (failed.y_prime, failed.qual_y, failed.qual_y_prime) == (None, None, None)
        # The sibling case shares the base translation and is scored in full.
        assert by_id["c2"].error is None
        assert (by_id["c2"].y, by_id["c2"].qual_y) == ("商店 关门", 1.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_score_errors_the_record_instead_of_judging_it(self, value):
        scorer = Backend(
            BackendSpec("f1", "scorer_ref_based", "stub"),
            transport=RecordingTransport(lambda request: {"score": float(value)}),
        )
        records = score_records(self.cases(), scoring_pairs(), translator(), scorer)
        assert len(records) == 2
        for failed in records:
            assert failed.error_kind == "backend"
            assert "not a finite number" in failed.error
            assert failed.qual_y is None and failed.qual_y_prime is None
        assert judge_records(records, JudgeConfig()) == []

    def test_unknown_pair_is_a_hard_error(self):
        orphan = [kept_case("c9", "ghost", "a b", "甲 乙")]
        with pytest.raises(ValueError, match="unknown pair 'ghost'"):
            score_records(orphan, scoring_pairs(), translator(), self.scorer())

    def test_kept_case_without_edited_texts_is_a_hard_error(self):
        bare = [Case("c8", "p1", Capability.NOUN, None, None, STATUS_KEPT, seed=1)]
        with pytest.raises(ValueError, match="lacks its edited texts"):
            score_records(bare, scoring_pairs(), translator(), self.scorer())

    def test_warm_cache_never_calls_upstream_again(self, response_cache):
        chat = RecordingTransport(chat_upstream(TRANSLATIONS))
        rate = RecordingTransport(lambda request: {"score": 0.9})
        mt = translator(chat, cache=response_cache)
        scorer = Backend(
            BackendSpec("qe", "scorer_ref_based", "stub"),
            cache=response_cache,
            transport=rate,
        )
        cases = [self.cases()[0]]
        first = score_records(cases, scoring_pairs(), mt, scorer)
        assert (chat.call_count, rate.call_count) == (2, 2)
        again = score_records(cases, scoring_pairs(), mt, scorer)
        assert (chat.call_count, rate.call_count) == (2, 2)
        assert again == first


class TestRecordFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            record(0.85, 0.83, case_id="a"),
            TranslationRecord("b", "sys", error="boom", error_kind="backend"),
        ]
        write_records(records, path)
        assert read_records(path) == records

    def test_bad_line_is_located(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"system_id": "sys"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=r"records\.jsonl:1: bad record"):
            read_records(path)


class TestVerdictFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        verdicts = [
            judge_case(record(0.85, 0.83, case_id="a"), JudgeConfig()),
            judge_case(record(0.5, 0.9, case_id="b"), JudgeConfig()),
        ]
        write_verdicts(verdicts, path)
        assert read_verdicts(path) == verdicts

    def test_bad_line_is_located(self, tmp_path):
        path = tmp_path / "verdicts.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"verdicts\.jsonl:1: bad verdict"):
            read_verdicts(path)
