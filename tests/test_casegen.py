"""Tests for masking, prompt rendering, reply parsing, and case generation."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mtbehave.backends import BackendError, BackendSpec, _StubTransport, Backend
from mtbehave.casegen import (
    STATUS_DROPPED_IDENTICAL,
    STATUS_DROPPED_QUALITY,
    STATUS_ERROR,
    STATUS_KEPT,
    STATUS_PENDING,
    EmptyFill,
    MissingMarker,
    PromptMetadataError,
    TestCase as Case,  # aliased so pytest does not try to collect it
    dedup,
    derive_seed,
    generate_cases,
    mask_pair,
    parse_response,
    quality_filter,
    read_cases,
    render_prompt,
    write_cases,
)
from mtbehave.corpus import CorpusError
from mtbehave.judge import JudgeConfig, score_records
from mtbehave.segmentation import Capability, EditableSegment, SelectionPlan

from conftest import (
    RecordingTransport,
    cache_rows,
    damage_cache_row,
    identity_links,
    make_annotation,
    make_corpus,
    make_pair,
    stub_backend,
    stub_spec,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def plan_for(pair, capability, *segments, seed=7):
    return SelectionPlan(pair.pair_id, capability, tuple(segments), seed)


def word_segment(i, j, pos_class="OTHER", ne_type=None, tense=False):
    return EditableSegment((i, i + 1), (j, j + 1), "word", pos_class, ne_type, tense)


class TestDeriveSeed:
    def test_known_values(self):
        # First 8 bytes of sha256(b"7:p1") as a big-endian integer.
        assert derive_seed(7, "p1") == 8487727262343886001
        assert derive_seed(7, "p2") == 194444173256845648
        assert derive_seed(8, "p1") == 13835128867029570863

    def test_differs_across_pairs_and_masters(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")


class TestMaskPair:
    def test_single_word_mask(self):
        pair = make_pair("g1", "the shop closed early", "商店 很早 关门")
        segment = EditableSegment((1, 2), (0, 1), "word", "NOUN", None, False)
        masked = mask_pair(pair, plan_for(pair, Capability.NOUN, segment))
        assert masked.masked_source == ("the", "<mask>", "closed", "early")
        assert masked.masked_reference == ("<mask>", "很早", "关门")
        assert masked.src_segments == ("shop",)
        assert masked.ref_segments == ("商店",)

    def test_two_masks_splice_right_to_left(self):
        # Masking (1, 3) and (4, 5) must not shift each other's indices.
        pair = make_pair("p1", "a b c d e", "v w x y z")
        first = EditableSegment((1, 3), (1, 3), "phrase", "OTHER", None, False)
        second = EditableSegment((4, 5), (4, 5), "word", "OTHER", None, False)
        masked = mask_pair(pair, plan_for(pair, Capability.GENERAL, first, second))
        assert masked.masked_source == ("a", "<mask>", "d", "<mask>")
        assert masked.masked_reference == ("v", "<mask>", "y", "<mask>")
        assert masked.src_segments == ("b c", "e")
        assert masked.ref_segments == ("w x", "e") or masked.ref_segments == ("w x", "z")

    def test_plan_for_other_pair_is_rejected(self):
        pair = make_pair("p1", "a", "b")
        plan = plan_for(make_pair("p2", "a", "b"), Capability.GENERAL, word_segment(0, 0))
        with pytest.raises(ValueError, match="plan for 'p2'"):
            mask_pair(pair, plan)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unmasking_restores_the_pair(self, data):
        n = data.draw(st.integers(2, 8))
        pair = make_pair(
            "p1",
            " ".join(f"s{i}" for i in range(n)),
            " ".join(f"r{i}" for i in range(n)),
        )
        indices = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        plan = plan_for(
            pair, Capability.GENERAL, *(word_segment(i, i) for i in sorted(indices))
        )
        masked = mask_pair(pair, plan)
        restored = list(masked.masked_source)
        for surface in reversed(masked.src_segments):
            index = len(restored) - 1 - restored[::-1].index("<mask>")
            restored[index : index + 1] = surface.split(" ")
        assert tuple(restored) == pair.source


class TestRenderPrompt:
    def golden(self, name):
        return (GOLDEN_DIR / name).read_text(encoding="utf-8")

    def test_pos_noun_prompt_matches_golden(self):
        pair = make_pair("g1", "the shop closed early", "商店 很早 关门")
        segment = EditableSegment((1, 2), (0, 1), "word", "NOUN", None, False)
        masked = mask_pair(pair, plan_for(pair, Capability.NOUN, segment))
        prompt = render_prompt(masked, Capability.NOUN)
        assert prompt.template_id == "pos"
        assert prompt.rendered_text == self.golden("prompt_pos_noun.txt")

    def test_tense_prompt_matches_golden(self):
        pair = make_pair("g1", "the shop closed early", "商店 很早 关门")
        segment = EditableSegment((2, 3), (2, 3), "word", "VERB", None, True)
        masked = mask_pair(pair, plan_for(pair, Capability.TENSE, segment))
        prompt = render_prompt(masked, Capability.TENSE)
        assert prompt.template_id == "tense"
        assert prompt.rendered_text == self.golden("prompt_tense.txt")

    def test_ner_prompt_matches_golden(self):
        pair = make_pair("n1", "Russia is large", "俄罗斯 很 大")
        segment = EditableSegment((0, 1), (0, 1), "word", "NOUN", "GPE", False)
        masked = mask_pair(pair, plan_for(pair, Capability.NER, segment))
        prompt = render_prompt(masked, Capability.NER)
        assert prompt.template_id == "ner"
        assert prompt.rendered_text == self.golden("prompt_ner.txt")

    def test_general_prompt_matches_golden(self):
        pair = make_pair(
            "g2",
            "the old shop near the station closed very early last night",
            "那家 老 商店 在 车站 附近 昨晚 很 早 关门",
        )
        plan = plan_for(
            pair,
            Capability.GENERAL,
            EditableSegment((2, 3), (2, 3), "word", "NOUN", None, False),
            EditableSegment((8, 9), (8, 9), "word", "ADV", None, False),
        )
        prompt = render_prompt(mask_pair(pair, plan), Capability.GENERAL)
        assert prompt.template_id == "general"
        assert prompt.rendered_text == self.golden("prompt_general.txt")

    def test_prompts_never_contain_real_newlines(self):
        # The format instruction spells a literal backslash-n; an actual
        # newline would mean the template was transcribed wrong.
        pair = make_pair("g1", "the shop closed early", "商店 很早 关门")
        segment = EditableSegment((1, 2), (0, 1), "word", "NOUN", None, False)
        masked = mask_pair(pair, plan_for(pair, Capability.NOUN, segment))
        text = render_prompt(masked, Capability.NOUN).rendered_text
        assert "\n" not in text
        assert "\\n" in text

    def test_ner_without_entity_type_fails(self):
        pair = make_pair("p1", "a b", "x y")
        masked = mask_pair(
            pair, plan_for(pair, Capability.NER, word_segment(0, 0, pos_class="NOUN"))
        )
        with pytest.raises(PromptMetadataError):
            render_prompt(masked, Capability.NER)

    def test_metadata_carries_masked_texts(self):
        pair = make_pair("p1", "a b", "x y")
        masked = mask_pair(pair, plan_for(pair, Capability.NOUN, word_segment(0, 0, "NOUN")))
        prompt = render_prompt(masked, Capability.NOUN)
        assert prompt.metadata["masked_source"] == "<mask> b"
        assert prompt.metadata["masked_reference"] == "<mask> y"
        assert prompt.metadata["pos_descriptor"] == "noun word"
        assert prompt.metadata["original_segment"] == "a"


class TestParseResponse:
    def test_plain_reply(self):
        en, zh = parse_response("Filled English: the store closed early\nFilled Chinese: 商店 很早 关门")
        assert en == ("the", "store", "closed", "early")
        assert zh == ("商店", "很早", "关门")

    def test_anchors_on_last_english_marker(self):
        raw = (
            "Sure! Here is an example: Filled English: wrong one\n"
            "Filled English: right one\nFilled Chinese: 对"
        )
        en, zh = parse_response(raw)
        assert en == ("right", "one")
        assert zh == ("对",)

    def test_trims_echoed_literal_backslash_n(self):
        raw = "Filled English: a shop \\n Filled Chinese: 商店 \\n"
        en, zh = parse_response(raw)
        assert en == ("a", "shop")
        # After trimming, the fill has no whitespace left, so it is split
        # into one token per character.
        assert zh == ("商", "店")

    def test_whitespace_free_chinese_splits_per_character(self):
        en, zh = parse_response("Filled English: I like cats\nFilled Chinese: 我喜欢猫")
        assert en == ("I", "like", "cats")
        # 4 characters, one token each
        assert zh == ("我", "喜", "欢", "猫")

    def test_spaced_chinese_keeps_given_tokens(self):
        _, zh = parse_response("Filled English: x\nFilled Chinese: 元宇宙 的 故事")
        assert zh == ("元宇宙", "的", "故事")

    def test_missing_markers(self):
        with pytest.raises(MissingMarker):
            parse_response("no markers at all")
        with pytest.raises(MissingMarker):
            parse_response("Filled English: something, then silence")

    def test_empty_fills(self):
        with pytest.raises(EmptyFill):
            parse_response("Filled English: \nFilled Chinese: 好")
        with pytest.raises(EmptyFill):
            parse_response("Filled English: ok\nFilled Chinese: ")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.text("abcdef", min_size=1, max_size=4), min_size=1, max_size=5),
        # Single characters only: a lone multi-character token would trip the
        # per-character fallback, which is separate designed behavior.
        st.lists(st.sampled_from("好商店早关门"), min_size=1, max_size=5),
    )
    def test_round_trips_synthesized_replies(self, en_tokens, zh_tokens):
        raw = (
            f"Filled English: {' '.join(en_tokens)} \\n "
            f"Filled Chinese: {' '.join(zh_tokens)}"
        )
        en, zh = parse_response(raw)
        assert en == tuple(en_tokens)
        assert zh == tuple(zh_tokens)


def pending_case(pair, source_prime, reference_prime):
    return Case(
        case_id=f"{pair.pair_id}-general-000",
        pair_id=pair.pair_id,
        capability=Capability.GENERAL,
        seed=1,
        source_prime=tuple(source_prime.split(" ")),
        reference_prime=tuple(reference_prime.split(" ")),
    )


class TestFilters:
    def test_dedup_drops_identical_pairs(self):
        pair = make_pair("p1", "a b", "x y")
        case = pending_case(pair, "a b", "x y")
        assert dedup(case, pair) == STATUS_DROPPED_IDENTICAL

    def test_dedup_keeps_changed_pairs_pending(self):
        pair = make_pair("p1", "a b", "x y")
        assert dedup(pending_case(pair, "a c", "x y"), pair) == STATUS_PENDING
        # A change on only one side is still a change.
        assert dedup(pending_case(pair, "a b", "x z"), pair) == STATUS_PENDING

    def test_quality_filter_keeps_small_movement(self):
        pair = make_pair("p1", "a b", "x y")
        case = pending_case(pair, "a c", "x z")
        # |0.60 - 0.57| = 0.03 <= 0.05
        status = quality_filter(case, 0.60, 0.57, beta=0.05)
        assert status == STATUS_KEPT
        assert case.score_diff == pytest.approx(0.03)

    def test_quality_filter_drops_large_movement(self):
        pair = make_pair("p1", "a b", "x y")
        case = pending_case(pair, "a c", "x z")
        # |0.60 - 0.50| = 0.10 > 0.05
        status = quality_filter(case, 0.60, 0.50, beta=0.05)
        assert status == STATUS_DROPPED_QUALITY
        assert case.score_diff == pytest.approx(0.10)

    def test_quality_filter_boundary_is_inclusive(self):
        pair = make_pair("p1", "a b", "x y")
        case = pending_case(pair, "a c", "x z")
        # The diff equals beta exactly (0.25 is binary-exact), so it is kept.
        status = quality_filter(case, 1.0, 0.75, beta=0.25)
        assert status == STATUS_KEPT


def generation_corpus():
    """Three pairs: two maskable, one with no alignments at all.

    The maskable sources have six tokens so a single masked word also fits the
    General budget (5 * 1 < 6).
    """
    p1 = make_pair("p1", "the little shop closed early today", "商店 很早 关门")
    p2 = make_pair("p2", "he ran home fast just now", "他 跑了 回家 很快")
    p3 = make_pair("p3", "x y", "甲 乙")
    return make_corpus(
        (
            p1,
            {(2, 0), (3, 2), (4, 1)},
            make_annotation(p1, pos=("OTHER", "OTHER", "NOUN", "VERB", "ADV", "OTHER")),
        ),
        (
            p2,
            {(0, 0), (1, 1), (2, 2), (3, 3)},
            make_annotation(p2, pos=("OTHER", "VERB", "OTHER", "ADV", "OTHER", "OTHER")),
        ),
        (p3, set(), None),
    )


# The quality filter's default threshold.
BETA = JudgeConfig().beta


def generation_backends(src="store", ref="门店"):
    """The infill and reference-free scorer stubs, in generate_cases' order."""
    return (
        stub_backend("infill-stub", "infill", src=src, ref=ref),
        stub_backend("qe-stub", "scorer_ref_free", mode="constant", value=0.9),
    )


class TestGenerateCases:
    def test_generates_kept_cases_with_stub_backends(self):
        cases = generate_cases(
            generation_corpus(), Capability.NOUN, 1, *generation_backends(), BETA, seed=7
        )
        # Only p1 has a NOUN segment; p2 has none and p3 is unaligned.
        assert [case.case_id for case in cases] == ["p1-noun-000"]
        case = cases[0]
        assert case.filter_status == STATUS_KEPT
        assert case.source_prime == ("the", "little", "store", "closed", "early", "today")
        assert case.reference_prime == ("门店", "很早", "关门")
        assert case.seed == derive_seed(7, "p1")
        assert case.template_id == "pos"
        assert case.masked_ref_spans == ((0, 1),)
        assert case.score_diff == 0.0

    def test_identity_fill_is_dropped_as_identical(self):
        cases = generate_cases(
            generation_corpus(), Capability.NOUN, 1,
            *generation_backends(src="shop", ref="商店"), BETA, seed=7,
        )
        assert [case.filter_status for case in cases] == [STATUS_DROPPED_IDENTICAL]

    def test_case_ids_number_plans_per_pair(self):
        cases = generate_cases(
            generation_corpus(), Capability.GENERAL, 3, *generation_backends(), BETA, seed=7
        )
        by_pair = {}
        for case in cases:
            by_pair.setdefault(case.pair_id, []).append(case.case_id)
        assert set(by_pair) == {"p1", "p2"}
        for pair_id, ids in by_pair.items():
            assert ids == [f"{pair_id}-general-{i:03d}" for i in range(len(ids))]

    def test_backend_failure_is_isolated_to_its_case(self):
        class FailOnToday:
            """Raise for p1 only: 'today' is unaligned, so it is never masked
            and always present in p1's masked source."""

            def __init__(self, spec):
                self.inner = _StubTransport(spec)

            def send(self, request, context=None):
                if context and "today" in context["masked_source"]:
                    raise BackendError("upstream exploded")
                return self.inner.send(request, context)

        spec = stub_spec("infill-stub", "infill", src="store", ref="门店")
        cases = generate_cases(
            generation_corpus(),
            Capability.GENERAL,
            per_pair=1,
            infill=Backend(spec, transport=FailOnToday(spec)),
            scorer=stub_backend("qe-stub", "scorer_ref_free", mode="constant", value=0.9),
            beta=BETA,
            seed=7,
        )
        status_by_pair = {case.pair_id: case.filter_status for case in cases}
        assert status_by_pair["p1"] == STATUS_ERROR
        assert status_by_pair["p2"] == STATUS_KEPT
        errored = next(case for case in cases if case.pair_id == "p1")
        assert errored.error_kind == "backend"
        assert "upstream exploded" in errored.error

    def test_original_pair_qe_failure_marks_every_pending_case_of_the_pair(self):
        p1_source = "the little shop closed early today"

        def send(request, context=None):
            if request["src"] == p1_source:
                raise BackendError("original pair refused")
            if request["src"].startswith("the little"):  # every edited p1 pair
                raise BackendError("edited pair refused")
            return {"score": 0.9}

        qe = RecordingTransport(send)
        scorer = Backend(stub_spec("qe-stub", "scorer_ref_free"), transport=qe)
        infill, _ = generation_backends()
        cases = generate_cases(
            generation_corpus(), Capability.GENERAL, 2, infill, scorer, BETA, seed=7
        )
        p1_cases = [case for case in cases if case.pair_id == "p1"]
        assert len(p1_cases) == 2
        for case in p1_cases:
            # The original pair is scored first, so its error is the case's.
            assert case.filter_status == STATUS_ERROR
            assert (case.error, case.error_kind) == ("original pair refused", "backend")
            assert case.template_id == "general"
            assert case.raw_response_digest is not None
            assert case.source_prime is not None and case.reference_prime is not None
            assert case.score_diff is None
        assert {c.filter_status for c in cases if c.pair_id == "p2"} == {STATUS_KEPT}
        originals = [r for r in qe.calls if r["src"] == p1_source]
        assert len(originals) == 1

    def test_truncated_replay_entry_fails_only_its_case(self, response_cache):
        live = (
            stub_backend("infill-stub", "infill", response_cache, src="store", ref="门店"),
            stub_backend("qe-stub", "scorer_ref_free", response_cache, mode="constant", value=0.9),
        )
        generate_cases(generation_corpus(), Capability.GENERAL, 1, *live, BETA, seed=7)
        rows = cache_rows(response_cache)
        (p1_infill,) = [  # the reply to p1's prompt fills p1's source
            key for key, (_, value) in rows.items() if key[0] == "infill-stub" and "today" in value
        ]
        damage_cache_row(response_cache, *p1_infill, value=rows[p1_infill][1][:10])
        replay = (
            Backend(BackendSpec("infill-stub", "infill", "replay_cache"), response_cache),
            Backend(BackendSpec("qe-stub", "scorer_ref_free", "replay_cache"), response_cache),
        )
        cases = generate_cases(generation_corpus(), Capability.GENERAL, 1, *replay, BETA, seed=7)
        by_pair = {case.pair_id: case for case in cases}
        assert by_pair["p1"].filter_status == STATUS_ERROR
        assert by_pair["p1"].error_kind == "backend"
        assert "no cached response" in by_pair["p1"].error
        assert by_pair["p2"].filter_status == STATUS_KEPT

    def test_jobs_parameter_preserves_order(self):
        sequential = generate_cases(
            generation_corpus(), Capability.GENERAL, 2, *generation_backends(), BETA, seed=7,
        )
        threaded = generate_cases(
            generation_corpus(), Capability.GENERAL, 2, *generation_backends(), BETA, seed=7, jobs=4,
        )
        assert [c.case_id for c in threaded] == [c.case_id for c in sequential]
        assert [c.source_prime for c in threaded] == [c.source_prime for c in sequential]


class TestCasesFile:
    def test_round_trip(self, tmp_path):
        cases = generate_cases(
            generation_corpus(), Capability.NOUN, 1, *generation_backends(), BETA, seed=7
        )
        path = tmp_path / "cases.jsonl"
        write_cases(cases, path)
        loaded = read_cases(path)
        assert len(loaded) == len(cases)
        for before, after in zip(cases, loaded):
            assert after.case_id == before.case_id
            assert after.pair_id == before.pair_id
            assert after.capability == before.capability
            assert after.filter_status == before.filter_status
            assert after.seed == before.seed
            assert after.source_prime == before.source_prime
            assert after.reference_prime == before.reference_prime
            assert after.score_diff == before.score_diff
            assert after.raw_response_digest == before.raw_response_digest
            assert after.masked_ref_spans == before.masked_ref_spans

    def test_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"case_id": "c1"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="cases.jsonl:1"):
            read_cases(path)

    def test_rejects_unknown_filter_status(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text(
            '{"case_id":"c1","pair_id":"p1","capability":"noun","seed":1,'
            '"filter_status":"limbo"}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match="unknown filter status 'limbo'"):
            read_cases(path)


def recorded_pipeline(jobs):
    """generate_cases then score_records with no cache; each slot's transport records."""
    transports = {}

    def backend(backend_id, kind, **stub_params):
        spec = stub_spec(backend_id, kind, **stub_params)
        transports[kind] = RecordingTransport(_StubTransport(spec))
        return Backend(spec, transport=transports[kind])

    corpus = generation_corpus()
    cases = generate_cases(
        corpus,
        Capability.GENERAL,
        3,
        backend("infill-stub", "infill", src="store", ref="门店"),
        backend("qe-stub", "scorer_ref_free"),
        BETA,
        seed=7,
        jobs=jobs,
    )
    records = score_records(
        cases, corpus, backend("mt", "translator"), backend("f1", "scorer_ref_based"), jobs
    )
    return cases, records, transports


class TestDistinctRequests:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_upstream_calls_equal_distinct_requests(self, jobs):
        cases, records, transports = recorded_pipeline(jobs)
        kept_per_pair = Counter(c.pair_id for c in cases if c.filter_status == STATUS_KEPT)
        # Several kept cases share each base pair, so per-case work would repeat.
        assert len(kept_per_pair) == 2 and min(kept_per_pair.values()) >= 2
        assert len(records) == sum(kept_per_pair.values())
        assert set(transports) == {"infill", "scorer_ref_free", "translator", "scorer_ref_based"}
        for kind, transport in transports.items():
            distinct = {json.dumps(request, sort_keys=True) for request in transport.calls}
            assert transport.call_count == len(distinct), kind
        assert (cases, records) == recorded_pipeline(1)[:2]

