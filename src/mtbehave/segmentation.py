"""Editable segment extraction from aligned translation pairs.

An editable segment couples a consecutive source span with the consecutive
reference span it is solely aligned to. Only such segments can be masked on
both sides at once without disturbing the rest of the pair. Extraction is
followed by overlap resolution (longest source span wins), capability
filtering, and seeded selection of masking plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .corpus import Annotation, AlignmentSet, Span, TranslationPair, spans_overlap

# Hard cap on masking plans per pair and the masked-token budget for the
# General capability: the masked source tokens must total strictly less than
# one fifth of the source length. Kept in integer arithmetic; 0.2 * 15 is
# 3.0000000000000004 in floats and would admit one word too many.
MAX_PLANS_PER_PAIR = 20
BUDGET_DENOMINATOR = 5

# Literal placeholder substituted for a masked segment on either side.
MASK_TOKEN = "<mask>"

_CONTENT_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "ADP")


class Capability(str, Enum):
    """Behavioral capabilities a test case can target."""

    NOUN = "noun"
    VERB = "verb"
    ADJ = "adj"
    ADV = "adv"
    PREP = "prep"
    OTHERS = "others"
    TENSE = "tense"
    NER = "ner"
    GENERAL = "general"


# POS-perturbation capabilities and the tag class they mask.
POS_CAPABILITY_TAGS = {
    Capability.NOUN: "NOUN",
    Capability.VERB: "VERB",
    Capability.ADJ: "ADJ",
    Capability.ADV: "ADV",
    Capability.PREP: "ADP",
    Capability.OTHERS: "OTHER",
}


class BudgetUnsatisfiable(Exception):
    """No single eligible segment fits the masked-token budget."""

    def __init__(self, pair_id: str, source_len: int):
        super().__init__(
            f"pair {pair_id!r}: no eligible segment fits the budget "
            f"(source length {source_len})"
        )
        self.pair_id = pair_id
        self.source_len = source_len


@dataclass(frozen=True)
class EditableSegment:
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


@dataclass(frozen=True)
class SelectionPlan:
    """One masking plan: pairwise-disjoint segments chosen for a single case."""

    pair_id: str
    capability: Capability
    segments: tuple[EditableSegment, ...]
    seed: int


def _head_index(span: Span, pos: tuple[str, ...]) -> int:
    start, end = span
    for index in range(end - 1, start - 1, -1):
        if pos[index] in _CONTENT_TAGS:
            return index
    return end - 1


def _segment_for(
    src_span: Span,
    pair: TranslationPair,
    links: frozenset[tuple[int, int]],
    annotation: Annotation,
    ref_phrases: frozenset[Span],
) -> EditableSegment | None:
    start, end = src_span
    linked = [j for i, j in links if start <= i < end]
    if not linked:
        return None
    ref_span = (min(linked), max(linked) + 1)
    # The linked reference indices must form a unit: a single word or a listed
    # reference phrase. Interior tokens may be unaligned; the boundary tokens
    # of ref_span are linked by construction (they are min/max of the links).
    if ref_span[1] - ref_span[0] > 1 and ref_span not in ref_phrases:
        return None
    # Sole alignment: nothing outside the source span may link into ref_span.
    # The converse (no link from src_span escaping ref_span) holds because
    # ref_span covers every index linked from the span.
    for i, j in links:
        if ref_span[0] <= j < ref_span[1] and not (start <= i < end):
            return None
    # Both boundary tokens of the source span must carry at least one link.
    if not any(i == start for i, _ in links):
        return None
    if end - start > 1 and not any(i == end - 1 for i, _ in links):
        return None

    head = _head_index(src_span, annotation.pos)
    pos_class = annotation.pos[head]
    ne_type = None
    for ne_start, ne_end, label in annotation.ne_spans:
        if (ne_start, ne_end) == src_span:
            ne_type = label
            break
    tense_eligible = pos_class == "VERB" and not annotation.past_perfect[head]
    kind = "word" if end - start == 1 else "phrase"
    return EditableSegment(src_span, ref_span, kind, pos_class, ne_type, tense_eligible)


def extract_editable(
    pair: TranslationPair, alignment: AlignmentSet, annotation: Annotation
) -> list[EditableSegment]:
    """Extract the overlap-free editable segments of one pair.

    Candidate source spans are the single words plus the annotated source
    phrases. A candidate survives when its linked reference indices form a
    consecutive unit (single word or listed reference phrase), the two spans
    are solely aligned with each other, and the source boundary tokens are
    aligned. Overlapping survivors are resolved with :func:`resolve_overlaps`.
    """
    candidates: set[Span] = {(i, i + 1) for i in range(len(pair.source))}
    candidates.update(annotation.phrase_spans_src)
    ref_phrases = frozenset(annotation.phrase_spans_ref)
    segments = []
    for src_span in sorted(candidates):
        segment = _segment_for(src_span, pair, alignment.links, annotation, ref_phrases)
        if segment is not None:
            segments.append(segment)
    return resolve_overlaps(segments)


def resolve_overlaps(segments: list[EditableSegment]) -> list[EditableSegment]:
    """Drop segments overlapping a higher-priority one on either side.

    Priority: longer source span first, then smaller source start, then smaller
    reference start. The result is overlap-free on both sides and sorted by
    source span. Idempotent.
    """
    ordered = sorted(
        segments,
        key=lambda seg: (-seg.src_len, seg.src_span[0], seg.ref_span[0]),
    )
    kept: list[EditableSegment] = []
    for segment in ordered:
        clashes = any(
            spans_overlap(segment.src_span, other.src_span)
            or spans_overlap(segment.ref_span, other.ref_span)
            for other in kept
        )
        if not clashes:
            kept.append(segment)
    return sorted(kept, key=lambda seg: (seg.src_span, seg.ref_span))


def filter_by_capability(
    segments: list[EditableSegment], annotation: Annotation, capability: Capability
) -> list[EditableSegment]:
    """Keep the segments a capability may mask."""
    if capability is Capability.GENERAL:
        return list(segments)
    if capability is Capability.TENSE:
        return [seg for seg in segments if seg.tense_eligible]
    if capability is Capability.NER:
        ne_spans = {(start, end) for start, end, _ in annotation.ne_spans}
        return [seg for seg in segments if seg.src_span in ne_spans]
    tag = POS_CAPABILITY_TAGS[capability]
    return [seg for seg in segments if seg.pos_class == tag]


def _fits_budget(masked_total: int, source_len: int) -> bool:
    return BUDGET_DENOMINATOR * masked_total < source_len


def plan_selection(
    pair: TranslationPair,
    segments: list[EditableSegment],
    capability: Capability,
    count: int,
    seed: int,
) -> list[SelectionPlan]:
    """Choose up to ``count`` distinct masking plans, deterministically per seed.

    ``segments`` must already be capability-filtered and overlap-free. For every
    capability except General a plan is one segment, sampled uniformly without
    replacement. General plans are budgeted subsets: a seeded shuffle is walked
    and every segment that keeps the masked-token total strictly under a fifth
    of the source length is added. Fewer than ``count`` plans are returned when
    fewer distinct ones exist, none for an empty pool.
    """
    if count < 1 or count > MAX_PLANS_PER_PAIR:
        raise ValueError(f"count must be between 1 and {MAX_PLANS_PER_PAIR}, got {count}")
    pool = sorted(set(segments), key=lambda seg: (seg.src_span, seg.ref_span))
    if not pool:
        return []
    rng = random.Random(seed)

    if capability is not Capability.GENERAL:
        picks = rng.sample(pool, min(count, len(pool)))
        return [
            SelectionPlan(pair.pair_id, capability, (segment,), seed)
            for segment in picks
        ]

    source_len = len(pair.source)
    if not any(_fits_budget(seg.src_len, source_len) for seg in pool):
        raise BudgetUnsatisfiable(pair.pair_id, source_len)
    plans: list[SelectionPlan] = []
    seen: set[frozenset[Span]] = set()
    attempts = 0
    limit = 64 * count
    while len(plans) < count and attempts < limit:
        attempts += 1
        chosen: list[EditableSegment] = []
        total = 0
        for segment in rng.sample(pool, len(pool)):
            if _fits_budget(total + segment.src_len, source_len):
                chosen.append(segment)
                total += segment.src_len
        key = frozenset(seg.src_span for seg in chosen)
        if key in seen:
            continue
        seen.add(key)
        ordered = tuple(sorted(chosen, key=lambda seg: seg.src_span))
        plans.append(SelectionPlan(pair.pair_id, capability, ordered, seed))
    return plans
