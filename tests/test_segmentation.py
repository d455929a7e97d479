"""Tests for editable segment extraction, overlap resolution, and plan selection."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from mtbehave.corpus import AlignmentSet, Annotation, TranslationPair
from mtbehave.segmentation import (
    MAX_PLANS_PER_PAIR,
    BudgetUnsatisfiable,
    Capability,
    EditableSegment,
    extract_editable,
    filter_by_capability,
    plan_selection,
    resolve_overlaps,
)

from conftest import identity_links, make_alignment, make_annotation, make_pair
from oracles import oracle_plans, oracle_segments, oracle_span_pairs


def extract(pair, links, annotation=None):
    annotation = annotation or make_annotation(pair)
    return extract_editable(pair, make_alignment(pair, links), annotation)


def span_pairs(segments):
    return [(seg.src_span, seg.ref_span) for seg in segments]


def seg(src_span, ref_span, kind="word", pos_class="OTHER", ne_type=None, tense=False):
    return EditableSegment(src_span, ref_span, kind, pos_class, ne_type, tense)


class TestExtractEditable:
    def test_identity_pair_yields_every_word(self):
        pair = make_pair("p1", "a b c", "甲 乙 丙")
        segments = extract(pair, identity_links(pair))
        assert span_pairs(segments) == [
            ((0, 1), (0, 1)),
            ((1, 2), (1, 2)),
            ((2, 3), (2, 3)),
        ]
        assert all(s.kind == "word" for s in segments)

    def test_unaligned_word_is_not_editable(self):
        # "the" carries no link, so only the three linked words survive.
        pair = make_pair("p1", "the shop closed early", "商店 很早 关门")
        segments = extract(pair, {(1, 0), (2, 2), (3, 1)})
        assert span_pairs(segments) == [
            ((1, 2), (0, 1)),
            ((2, 3), (2, 3)),
            ((3, 4), (1, 2)),
        ]

    def test_word_with_spread_links_needs_a_listed_ref_phrase(self):
        # src word 0 links to ref 0 and ref 2: the cover (0, 3) is only a
        # unit if the annotation lists it as a reference phrase.
        pair = make_pair("p1", "a b", "x y z")
        links = {(0, 0), (0, 2)}
        assert extract(pair, links) == []
        annotation = make_annotation(pair, phrases_ref=((0, 3),))
        assert span_pairs(extract(pair, links, annotation)) == [((0, 1), (0, 3))]

    def test_external_link_into_cover_disqualifies(self):
        # src word 0 again covers (0, 3), but src 1 links into that cover,
        # so only the word-to-word segment for src 1 survives.
        pair = make_pair("p1", "a b", "x y z")
        links = {(0, 0), (0, 2), (1, 1)}
        annotation = make_annotation(pair, phrases_ref=((0, 3),))
        assert span_pairs(extract(pair, links, annotation)) == [((1, 2), (1, 2))]

    def test_source_phrase_needs_linked_boundaries(self):
        pair = make_pair("p1", "a b c", "x y")
        # Phrase (0, 2) with only token 0 linked: last token unaligned, so
        # the phrase is out; the single word (0, 1) still qualifies.
        annotation = make_annotation(pair, phrases_src=((0, 2),))
        segments = extract(pair, {(0, 0)}, annotation)
        assert span_pairs(segments) == [((0, 1), (0, 1))]

    def test_source_phrase_with_interior_gap_is_fine(self):
        # Tokens 0 and 2 are linked, token 1 is not; boundaries hold and the
        # cover (0, 2) is a listed reference phrase.
        pair = make_pair("p1", "a b c", "x y")
        annotation = make_annotation(
            pair, phrases_src=((0, 3),), phrases_ref=((0, 2),)
        )
        segments = extract(pair, {(0, 0), (2, 1)}, annotation)
        assert span_pairs(segments) == [((0, 3), (0, 2))]
        assert segments[0].kind == "phrase"

    def test_phrases_rejected_for_external_links_and_unlisted_covers(self):
        # A 10x7 pair. The source phrase (0, 4) covers ref indices 0..5, a
        # listed reference phrase, but src 5 and 6 link into that cover from
        # outside, so it is rejected. Phrase (8, 10) covers (2, 7), which is
        # not listed, so it is rejected too. Words 0..2 all share ref 0 and
        # knock each other out; the solely aligned words survive.
        pair = make_pair(
            "p1", "a b c d e f g h i j", "t u v w x y z"
        )
        links = {(0, 0), (1, 0), (2, 0), (3, 5), (9, 6), (8, 2), (5, 4), (6, 3)}
        annotation = make_annotation(
            pair,
            phrases_src=((0, 4), (8, 10)),
            phrases_ref=((0, 6), (2, 4)),
        )
        result = span_pairs(extract(pair, links, annotation))
        assert result == [
            ((3, 4), (5, 6)),
            ((5, 6), (4, 5)),
            ((6, 7), (3, 4)),
            ((8, 9), (2, 3)),
            ((9, 10), (6, 7)),
        ]

    def test_metadata_pos_head_is_rightmost_content_tag(self):
        pair = make_pair("p1", "very old shop", "很 旧 商店")
        annotation = make_annotation(
            pair,
            pos=("ADV", "ADJ", "NOUN"),
            phrases_src=((0, 3),),
            phrases_ref=((0, 3),),
        )
        [segment] = extract(pair, {(0, 0), (1, 1), (2, 2)}, annotation)
        assert segment.src_span == (0, 3)
        assert segment.pos_class == "NOUN"

    def test_metadata_pos_head_falls_back_to_last_token(self):
        pair = make_pair("p1", "a b", "x")
        annotation = make_annotation(
            pair, pos=("OTHER", "OTHER"), phrases_src=((0, 2),)
        )
        [segment] = extract(pair, {(0, 0), (1, 0)}, annotation)
        assert segment.pos_class == "OTHER"

    def test_metadata_ne_type_requires_exact_span_match(self):
        pair = make_pair("p1", "New York city", "纽约 市")
        annotation = make_annotation(
            pair,
            pos=("NOUN", "NOUN", "NOUN"),
            ne=((0, 2, "GPE"),),
            phrases_src=((0, 2),),
        )
        segments = extract(pair, {(0, 0), (1, 0), (2, 1)}, annotation)
        by_span = {s.src_span: s for s in segments}
        assert by_span[(0, 2)].ne_type == "GPE"
        assert by_span[(2, 3)].ne_type is None

    def test_metadata_ne_type_is_the_first_listed_label(self):
        pair = make_pair("p1", "Paris wins", "巴黎 赢")
        annotation = make_annotation(pair, ne=((0, 1, "GPE"), (0, 1, "ORG")))
        segments = extract(pair, identity_links(pair), annotation)
        assert [s.ne_type for s in segments] == ["GPE", None]

    def test_metadata_tense_eligibility(self):
        pair = make_pair("p1", "he ran fast", "他 跑 很快")
        annotation = make_annotation(pair, pos=("OTHER", "VERB", "ADV"))
        segments = extract(pair, identity_links(pair), annotation)
        by_span = {s.src_span: s for s in segments}
        assert by_span[(1, 2)].tense_eligible is True
        assert by_span[(2, 3)].tense_eligible is False
        # A verb already in the past perfect is not eligible.
        annotation = make_annotation(
            pair, pos=("OTHER", "VERB", "ADV"), past_perfect=(False, True, False)
        )
        segments = extract(pair, identity_links(pair), annotation)
        assert {s.src_span: s for s in segments}[(1, 2)].tense_eligible is False


class TestResolveOverlaps:
    def test_longer_source_span_wins(self):
        phrase = seg((0, 2), (0, 2), kind="phrase")
        word = seg((1, 2), (2, 3))
        assert resolve_overlaps([word, phrase]) == [phrase]

    def test_tie_breaks_on_smaller_source_start(self):
        left = seg((0, 1), (0, 1))
        right = seg((0, 1), (1, 2))
        # Same source span twice: same length and start, so the smaller
        # reference start survives.
        assert resolve_overlaps([right, left]) == [left]

    def test_reference_side_overlap_also_resolved(self):
        a = seg((0, 1), (0, 2))
        b = seg((2, 3), (1, 3))  # disjoint in source, overlapping in reference
        kept = resolve_overlaps([a, b])
        assert kept == [a]  # same length, smaller source start wins

    def test_disjoint_segments_all_kept_and_sorted(self):
        a = seg((2, 3), (0, 1))
        b = seg((0, 1), (2, 3))
        assert resolve_overlaps([a, b]) == [b, a]

    def test_idempotent(self):
        segments = [
            seg((0, 2), (0, 2), kind="phrase"),
            seg((1, 2), (2, 3)),
            seg((3, 4), (3, 4)),
        ]
        once = resolve_overlaps(segments)
        assert resolve_overlaps(once) == once


class TestFilterByCapability:
    def build(self):
        pair = make_pair("p1", "Russia quickly closed shop", "俄罗斯 很快 关闭 商店")
        annotation = make_annotation(
            pair,
            pos=("NOUN", "ADV", "VERB", "NOUN"),
            ne=((0, 1, "GPE"),),
        )
        segments = extract(pair, identity_links(pair), annotation)
        return segments, annotation

    def test_general_keeps_everything(self):
        segments, annotation = self.build()
        assert filter_by_capability(segments, annotation, Capability.GENERAL) == segments

    def test_pos_classes_partition(self):
        segments, annotation = self.build()
        nouns = filter_by_capability(segments, annotation, Capability.NOUN)
        assert [s.src_span for s in nouns] == [(0, 1), (3, 4)]
        verbs = filter_by_capability(segments, annotation, Capability.VERB)
        assert [s.src_span for s in verbs] == [(2, 3)]
        assert filter_by_capability(segments, annotation, Capability.PREP) == []

    def test_tense_needs_eligible_verb(self):
        segments, annotation = self.build()
        tense = filter_by_capability(segments, annotation, Capability.TENSE)
        assert [s.src_span for s in tense] == [(2, 3)]

    def test_ner_needs_exact_annotated_span(self):
        segments, annotation = self.build()
        ner = filter_by_capability(segments, annotation, Capability.NER)
        assert [s.src_span for s in ner] == [(0, 1)]


class TestPlanSelection:
    def pool(self, n=4):
        pair = make_pair("p1", " ".join(f"w{i}" for i in range(n)), " ".join(f"c{i}" for i in range(n)))
        segments = extract(pair, identity_links(pair))
        return pair, segments

    def test_single_segment_plans_without_replacement(self):
        pair, segments = self.pool(4)
        plans = plan_selection(pair, segments, Capability.OTHERS, 3, seed=11)
        assert len(plans) == 3
        chosen = [plan.segments for plan in plans]
        assert all(len(c) == 1 for c in chosen)
        assert len(set(chosen)) == 3  # no duplicates

    def test_same_seed_same_plans(self):
        pair, segments = self.pool(6)
        a = plan_selection(pair, segments, Capability.OTHERS, 4, seed=3)
        b = plan_selection(pair, segments, Capability.OTHERS, 4, seed=3)
        assert a == b

    def test_pool_order_does_not_matter(self):
        pair, segments = self.pool(6)
        shuffled = list(segments)
        random.Random(99).shuffle(shuffled)
        a = plan_selection(pair, segments, Capability.OTHERS, 4, seed=3)
        b = plan_selection(pair, shuffled, Capability.OTHERS, 4, seed=3)
        assert a == b

    def test_fewer_plans_when_pool_is_small(self):
        pair, segments = self.pool(2)
        plans = plan_selection(pair, segments, Capability.OTHERS, 5, seed=0)
        assert len(plans) == 2

    def test_count_bounds(self):
        pair, segments = self.pool(2)
        with pytest.raises(ValueError):
            plan_selection(pair, segments, Capability.OTHERS, 0, seed=0)
        with pytest.raises(ValueError):
            plan_selection(pair, segments, Capability.OTHERS, 21, seed=0)

    def test_no_eligible_segments(self):
        pair, _ = self.pool(2)
        assert plan_selection(pair, [], Capability.NOUN, 1, seed=0) == []
        assert plan_selection(pair, [], Capability.GENERAL, 1, seed=0) == []

    def test_general_budget_is_strict(self):
        # 10 source tokens, single eligible segment of 2: 5*2 = 10 is not
        # strictly below 10, so no plan can exist.
        pair = make_pair("p1", "a b c d e f g h i j", "x y")
        phrase = seg((0, 2), (0, 2), kind="phrase")
        with pytest.raises(BudgetUnsatisfiable):
            plan_selection(pair, [phrase], Capability.GENERAL, 1, seed=0)

    def test_general_budget_boundary_admits_eleven(self):
        pair = make_pair("p1", "a b c d e f g h i j k", "x y")
        phrase = seg((0, 2), (0, 2), kind="phrase")
        plans = plan_selection(pair, [phrase], Capability.GENERAL, 1, seed=0)
        assert [p.segments for p in plans] == [(phrase,)]

    def test_a_pool_that_fits_whole_draws_at_most_one_shuffle(self, monkeypatch):
        pair, segments = self.pool(16)  # budget: masked total <= 3
        pool = segments[:3]
        calls = []
        sample = random.Random.sample

        def counting_sample(rng, population, k, **kwargs):
            calls.append(k)
            return sample(rng, population, k, **kwargs)

        monkeypatch.setattr(random.Random, "sample", counting_sample)
        plans = plan_selection(pair, pool, Capability.GENERAL, MAX_PLANS_PER_PAIR, seed=7)
        assert [plan.segments for plan in plans] == [tuple(pool)]
        assert len(calls) <= 1

    def test_general_plans_are_distinct_and_budgeted(self):
        pair, segments = self.pool(16)  # budget: masked total <= 3
        plans = plan_selection(pair, segments, Capability.GENERAL, 10, seed=5)
        assert 1 <= len(plans) <= 10
        seen = set()
        for plan in plans:
            masked = sum(s.src_len for s in plan.segments)
            assert 5 * masked < 16
            spans = tuple(s.src_span for s in plan.segments)
            assert spans == tuple(sorted(spans))
            key = frozenset(spans)
            assert key not in seen
            seen.add(key)


# -- properties ---------------------------------------------------------------

_pos_tag = st.sampled_from(["NOUN", "VERB", "ADJ", "ADV", "ADP", "OTHER"])


@st.composite
def aligned_pairs(draw):
    n_src = draw(st.integers(1, 24))
    n_ref = draw(st.integers(1, 16))
    pair = TranslationPair(
        "p1",
        tuple(f"s{i}" for i in range(n_src)),
        tuple(f"r{j}" for j in range(n_ref)),
    )
    all_links = [(i, j) for i in range(n_src) for j in range(n_ref)]
    links = frozenset(draw(st.lists(st.sampled_from(all_links), max_size=24)))

    def spans(limit):
        return st.tuples(st.integers(0, limit - 1), st.integers(1, limit)).filter(
            lambda span: span[0] < span[1]
        )

    # Single words are drawn often too, so that two NE spans share a segment's span.
    ne_spans = st.one_of(spans(n_src), st.integers(0, min(n_src, 3) - 1).map(lambda i: (i, i + 1)))
    ne = draw(st.lists(st.tuples(ne_spans, st.sampled_from(["GPE", "PER", "ORG"])), max_size=3))
    annotation = Annotation(
        "p1",
        tuple(draw(st.lists(_pos_tag, min_size=n_src, max_size=n_src))),
        tuple(draw(st.lists(st.booleans(), min_size=n_src, max_size=n_src))),
        tuple((start, end, label) for (start, end), label in ne),
        tuple(sorted(draw(st.lists(spans(n_src), max_size=4, unique=True)))),
        tuple(sorted(draw(st.lists(spans(n_ref), max_size=4, unique=True)))),
    )
    return pair, AlignmentSet("p1", links), annotation


@st.composite
def general_pools(draw):
    """A pair and an overlap-free pool of General segments. The source length
    lies near five times the pool's total, so pools that fit whole, pools one
    token short of fitting and pools far over the budget are all drawn."""
    segments = []
    position = 0
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=8)):
        start = position + gap
        kind = "word" if length == 1 else "phrase"
        segments.append(seg((start, start + length), (start, start + length), kind=kind))
        position = start + length
    total = sum(segment.src_len for segment in segments)
    n_src = max(1, position, 5 * total + draw(st.integers(-12, 6)))
    pair = TranslationPair("p1", tuple(f"s{i}" for i in range(n_src)), ("r",))
    return pair, segments


class TestExtractionProperties:
    @settings(max_examples=200, deadline=None)
    @given(aligned_pairs())
    def test_matches_brute_force_oracle(self, example):
        pair, alignment, annotation = example
        segments = extract_editable(pair, alignment, annotation)
        assert span_pairs(segments) == oracle_span_pairs(pair, alignment.links, annotation)

    @settings(max_examples=200, deadline=None)
    @given(aligned_pairs())
    def test_every_field_matches_the_field_level_oracle(self, example):
        pair, alignment, annotation = example
        segments = extract_editable(pair, alignment, annotation)
        fields = [
            (s.src_span, s.ref_span, s.kind, s.pos_class, s.ne_type, s.tense_eligible)
            for s in segments
        ]
        assert fields == oracle_segments(pair, alignment.links, annotation)

    @settings(max_examples=200, deadline=None)
    @given(aligned_pairs())
    def test_segments_are_solely_aligned_and_disjoint(self, example):
        pair, alignment, annotation = example
        segments = extract_editable(pair, alignment, annotation)
        for segment in segments:
            (s0, s1), (r0, r1) = segment.src_span, segment.ref_span
            assert 0 <= s0 < s1 <= len(pair.source)
            assert 0 <= r0 < r1 <= len(pair.reference)
            # No link may cross the segment boundary in either direction.
            for i, j in alignment.links:
                src_in = s0 <= i < s1
                ref_in = r0 <= j < r1
                assert src_in == ref_in
        for a in segments:
            for b in segments:
                if a is b:
                    continue
                assert a.src_span[1] <= b.src_span[0] or b.src_span[1] <= a.src_span[0]
                assert a.ref_span[1] <= b.ref_span[0] or b.ref_span[1] <= a.ref_span[0]

    @settings(max_examples=100, deadline=None)
    @given(aligned_pairs())
    def test_resolution_is_idempotent(self, example):
        pair, alignment, annotation = example
        segments = extract_editable(pair, alignment, annotation)
        assert resolve_overlaps(segments) == segments


class TestPlanProperties:
    @settings(max_examples=150, deadline=None)
    @given(general_pools(), st.integers(1, MAX_PLANS_PER_PAIR), st.integers(0, 2**32))
    def test_general_plans_match_the_plain_loop(self, example, count, seed):
        pair, segments = example
        if segments and not any(5 * s.src_len < len(pair.source) for s in segments):
            with pytest.raises(BudgetUnsatisfiable):
                plan_selection(pair, segments, Capability.GENERAL, count, seed)
            return
        plans = plan_selection(pair, segments, Capability.GENERAL, count, seed)
        assert [plan.segments for plan in plans] == oracle_plans(pair, segments, count, seed)
        assert all(plan.seed == seed and plan.pair_id == "p1" for plan in plans)
