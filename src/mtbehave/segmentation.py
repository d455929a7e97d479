"""Editable segment extraction from aligned translation pairs.

An editable segment couples a consecutive source span with the consecutive
reference span it is solely aligned to. Only such segments can be masked on
both sides at once without disturbing the rest of the pair. Extraction is
followed by overlap resolution (longest source span wins), capability
filtering, and seeded selection of masking plans.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple

from .corpus import Annotation, Links, Span, TranslationPair

# Hard cap on masking plans per pair and the masked-token budget for the
# General capability: the masked source tokens must total strictly less than
# one fifth of the source length. Kept in integer arithmetic; 0.2 * 15 is
# 3.0000000000000004 in floats and would admit one word too many.
MAX_PLANS_PER_PAIR = 20
BUDGET_DENOMINATOR = 5

_CONTENT_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "ADP")


class Capability(str, Enum):
    """Behavioral capabilities a test case can target, in report column order.

    A member's value is its name in configs, flags and artifacts; ``display``
    heads its report column. A POS capability's ``tag`` is the POS class it
    masks and ``word`` its infill prompt's name for that class; both are None
    for tense, NER and general.
    """

    NOUN = "noun", "Noun", "NOUN", "noun"
    VERB = "verb", "Verb", "VERB", "verb"
    ADJ = "adj", "Adj", "ADJ", "adjective"
    ADV = "adv", "Adv", "ADV", "adverb"
    PREP = "prep", "Prep", "ADP", "preposition"
    OTHERS = "others", "Others", "OTHER", "other"
    TENSE = "tense", "Tense", None, None
    NER = "ner", "NER", None, None
    GENERAL = "general", "General", None, None

    def __new__(cls, value: str, display: str, tag: str | None, word: str | None):
        member = str.__new__(cls, value)
        member._value_ = value
        member.display = display
        member.tag = tag
        member.word = word
        return member


class EditableSegment(NamedTuple):
    """A maskable source span and the reference span solely aligned with it.

    ``kind`` is "word" for a single-token source span, "phrase" otherwise.
    ``pos_class`` is the head-token POS tag: the rightmost NOUN/VERB/ADJ/ADV/ADP
    tag in the span, or the last token's tag when there is none. ``ne_type`` is
    set only when the source span exactly coincides with an annotated NE span.
    """

    src_span: Span
    ref_span: Span
    kind: str
    pos_class: str
    ne_type: str | None
    tense_eligible: bool

    @property
    def src_len(self) -> int:
        return self.src_span[1] - self.src_span[0]


def _ref_span_for(
    src_span: Span, ref_by_src: dict, src_by_ref: dict, ref_phrases: frozenset[Span]
) -> Span | None:
    """The reference span solely aligned with ``src_span``; None when it is not editable."""
    start, end = src_span
    # Both boundary tokens of the source span must carry at least one link.
    if start not in ref_by_src or end - 1 not in ref_by_src:
        return None
    if end - start == 1:
        linked = ref_by_src[start]
    else:
        linked = [j for i in range(start, end) for j in ref_by_src.get(i, ())]
    ref_span = (min(linked), max(linked) + 1)
    # The linked reference indices must form a unit: a single word or a listed
    # reference phrase. Interior tokens may be unaligned; the boundary tokens
    # of ref_span are linked by construction (they are min/max of the links).
    if ref_span[1] - ref_span[0] > 1 and ref_span not in ref_phrases:
        return None
    # Sole alignment: nothing outside the source span may link into ref_span.
    # The converse (no link from src_span escaping ref_span) holds because
    # ref_span covers every index linked from the span.
    for j in range(*ref_span):
        for i in src_by_ref.get(j, ()):
            if not start <= i < end:
                return None
    return ref_span


def _segment(src_span: Span, ref_span: Span, annotation: Annotation, ne_types: dict) -> EditableSegment:
    start, end = src_span
    head = end - 1  # the rightmost content-tagged token, else the last one
    for index in range(end - 1, start - 1, -1):
        if annotation.pos[index] in _CONTENT_TAGS:
            head = index
            break
    pos_class = annotation.pos[head]
    tense_eligible = pos_class == "VERB" and not annotation.past_perfect[head]
    kind = "word" if end - start == 1 else "phrase"
    return EditableSegment(src_span, ref_span, kind, pos_class, ne_types.get(src_span), tense_eligible)


def extract_editable(pair: TranslationPair, links: Links, annotation: Annotation) -> list[EditableSegment]:
    """Extract the overlap-free editable segments of one pair.

    Candidate source spans are the single words plus the annotated source
    phrases. A candidate survives when its linked reference indices form a
    consecutive unit (single word or listed reference phrase), the two spans
    are solely aligned with each other, and the source boundary tokens are
    aligned. Overlapping survivors are resolved by :func:`_overlap_free`.
    """
    ref_by_src: dict[int, list[int]] = {}  # source index -> its linked reference indices
    src_by_ref: dict[int, list[int]] = {}  # and the converse
    for i, j in links:
        ref_by_src.setdefault(i, []).append(j)
        src_by_ref.setdefault(j, []).append(i)
    ref_phrases = frozenset(annotation.phrase_spans_ref)
    candidates = {(i, i + 1) for i in range(len(pair.source))}.union(annotation.phrase_spans_src)
    span_pairs = [
        (src, ref) for src in candidates
        if (ref := _ref_span_for(src, ref_by_src, src_by_ref, ref_phrases)) is not None
    ]
    ne_types = {(s, e): label for s, e, label in reversed(annotation.ne_spans)}  # the first listed wins
    return [_segment(src, ref, annotation, ne_types) for src, ref in _overlap_free(span_pairs)]


def _overlap_free(span_pairs: list[tuple[Span, Span]]) -> list[tuple[Span, Span]]:
    """The (src_span, ref_span) pairs overlapping no higher-priority pair on either side.

    Priority: longer source span first, then smaller source start, then smaller
    reference start; among equal pairs the first given wins. The result is
    sorted by source span. Idempotent.
    """
    kept = []
    src_taken = ref_taken = 0  # the indices already taken on each side, as bit sets
    for src_span, ref_span in sorted(span_pairs, key=lambda p: (p[0][0] - p[0][1], p[0][0], p[1][0])):
        src_bits = (1 << src_span[1]) - (1 << src_span[0])
        ref_bits = (1 << ref_span[1]) - (1 << ref_span[0])
        if not (src_taken & src_bits or ref_taken & ref_bits):
            kept.append((src_span, ref_span))
            src_taken |= src_bits
            ref_taken |= ref_bits
    return sorted(kept)


def filter_by_capability(segments: list[EditableSegment], capability: Capability) -> list[EditableSegment]:
    """Keep the segments a capability may mask."""
    if capability.tag is not None:
        return [seg for seg in segments if seg.pos_class == capability.tag]
    if capability is Capability.TENSE:
        return [seg for seg in segments if seg.tense_eligible]
    if capability is Capability.NER:
        return [seg for seg in segments if seg.ne_type is not None]
    return list(segments)


def _fits_budget(masked_total: int, source_len: int) -> bool:
    return BUDGET_DENOMINATOR * masked_total < source_len


def plan_selection(
    pair: TranslationPair,
    segments: list[EditableSegment],
    capability: Capability,
    count: int,
    seed: int,
) -> list[tuple[EditableSegment, ...]]:
    """Choose up to ``count`` distinct masking plans, deterministically per seed.

    A plan is the pairwise-disjoint segments masked for one case, sorted by
    source span. ``segments`` must already be capability-filtered and
    overlap-free. For every capability except General a plan is one segment,
    sampled uniformly without replacement. General plans are budgeted subsets:
    a seeded shuffle is walked and every segment that keeps the masked-token
    total strictly under a fifth of the source length is added, and a walk
    repeating an earlier plan is dropped. Walks stop at ``count`` plans or
    after ``64 * count`` attempts, so fewer than ``count`` plans are returned
    when fewer distinct ones turn up. There are none for an empty pool, nor
    for General when no segment fits the budget on its own. When the whole
    pool fits the budget every walk keeps all of it, so that single plan is
    returned without a shuffle.
    """
    if count < 1 or count > MAX_PLANS_PER_PAIR:
        raise ValueError(f"count must be between 1 and {MAX_PLANS_PER_PAIR}, got {count}")
    pool = sorted(set(segments), key=lambda seg: (seg.src_span, seg.ref_span))
    if not pool:
        return []
    rng = random.Random(seed)

    if capability is not Capability.GENERAL:
        return [(segment,) for segment in rng.sample(pool, min(count, len(pool)))]

    source_len = len(pair.source)
    if not any(_fits_budget(seg.src_len, source_len) for seg in pool):
        return []
    if _fits_budget(sum(seg.src_len for seg in pool), source_len):
        return [tuple(pool)]
    plans: list[tuple[EditableSegment, ...]] = []
    for _ in range(64 * count):
        chosen: list[EditableSegment] = []
        total = 0
        for segment in rng.sample(pool, len(pool)):
            if _fits_budget(total + segment.src_len, source_len):
                chosen.append(segment)
                total += segment.src_len
        plan = tuple(sorted(chosen, key=lambda seg: seg.src_span))
        if plan not in plans:
            plans.append(plan)
            if len(plans) == count:
                break
    return plans
