"""The benchmark's own model of what a correct pipeline produces.

Everything here is written from the README's definitions, not from the
program's code: a brute-force editable-segment search, the stub backends'
replies (fills, translator table, unigram F1 and length-ratio scorers) and the
judge rule. The workspace generator uses it to plant outcomes, the loopback
endpoint uses it to answer, and the checker uses it to recompute every
artifact. No function here imports ``mtbehave``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

MASK = "<mask>"
CONTENT_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "ADP")
POS_CAPABILITY_TAG = {
    "noun": "NOUN",
    "verb": "VERB",
    "adj": "ADJ",
    "adv": "ADV",
    "prep": "ADP",
    "others": "OTHER",
}


@dataclass(frozen=True)
class Pair:
    pair_id: str
    source: tuple[str, ...]
    reference: tuple[str, ...]
    links: frozenset[tuple[int, int]]
    pos: tuple[str, ...]
    past_perfect: tuple[bool, ...]
    ne: tuple[tuple[int, int, str], ...]
    phrases_src: tuple[tuple[int, int], ...]
    phrases_ref: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Segment:
    src: tuple[int, int]
    ref: tuple[int, int]
    pos_class: str
    ne_type: str | None
    tense_eligible: bool

    @property
    def kind(self) -> str:
        return "word" if self.src[1] - self.src[0] == 1 else "phrase"

    @property
    def src_len(self) -> int:
        return self.src[1] - self.src[0]


def read_corpus(pairs_path, alignments_path, annotations_path) -> dict[str, Pair]:
    """Parse the three corpus files, in pairs-file order."""
    rows = []
    with open(pairs_path, encoding="utf-8") as handle:
        for line in handle:
            pair_id, src, ref = line.rstrip("\n").split("\t")
            rows.append((pair_id, tuple(src.split(" ")), tuple(ref.split(" "))))
    with open(alignments_path, encoding="utf-8") as handle:
        link_lines = handle.read().split("\n")[: len(rows)]
    notes = {}
    with open(annotations_path, encoding="utf-8") as handle:
        for line in handle:
            note = json.loads(line)
            notes[note["id"]] = note
    corpus = {}
    for (pair_id, src, ref), link_line in zip(rows, link_lines):
        links = frozenset(
            (int(a), int(b)) for a, b in (item.split("-") for item in link_line.split())
        )
        note = notes[pair_id]
        corpus[pair_id] = Pair(
            pair_id,
            src,
            ref,
            links,
            tuple(note["pos"]),
            tuple(note["past_perfect"]),
            tuple((s, e, t) for s, e, t in note["ne"]),
            tuple((s, e) for s, e in note["phrases_src"]),
            tuple((s, e) for s, e in note["phrases_ref"]),
        )
    return corpus


def solely_aligned(pair: Pair, src: tuple[int, int]) -> tuple[int, int] | None:
    """The reference span ``src`` is solely aligned to, or None.

    Checked link by link: the reference indices reached from the span form one
    word or a listed reference phrase, no outside source index reaches into
    that reference span, and both source boundary tokens carry a link.
    """
    inside = [j for i, j in pair.links if src[0] <= i < src[1]]
    if not inside:
        return None
    ref = (min(inside), max(inside) + 1)
    if ref[1] - ref[0] > 1 and ref not in pair.phrases_ref:
        return None
    for i, j in pair.links:
        if ref[0] <= j < ref[1] and not src[0] <= i < src[1]:
            return None
    sources = {i for i, _ in pair.links}
    if src[0] not in sources or src[1] - 1 not in sources:
        return None
    return ref


def editable_segments(pair: Pair) -> list[Segment]:
    """Brute force: try every word and listed source phrase, then resolve
    overlaps greedily (longer source span, then smaller source start, then
    smaller reference start)."""
    candidates = {(i, i + 1) for i in range(len(pair.source))} | set(pair.phrases_src)
    found = []
    for src in candidates:
        ref = solely_aligned(pair, src)
        if ref is None:
            continue
        heads = [i for i in range(src[0], src[1]) if pair.pos[i] in CONTENT_TAGS]
        head = heads[-1] if heads else src[1] - 1
        ne_type = next((t for s, e, t in pair.ne if (s, e) == src), None)
        tense = pair.pos[head] == "VERB" and not pair.past_perfect[head]
        found.append(Segment(src, ref, pair.pos[head], ne_type, tense))
    found.sort(key=lambda seg: (-seg.src_len, seg.src[0], seg.ref[0]))
    kept: list[Segment] = []
    for seg in found:
        src_used = {i for k in kept for i in range(*k.src)}
        ref_used = {j for k in kept for j in range(*k.ref)}
        if src_used.isdisjoint(range(*seg.src)) and ref_used.isdisjoint(range(*seg.ref)):
            kept.append(seg)
    return sorted(kept, key=lambda seg: (seg.src, seg.ref))


def eligible(segments: list[Segment], capability: str) -> list[Segment]:
    """The segments a POS capability or General may mask."""
    if capability == "general":
        return list(segments)
    return [seg for seg in segments if seg.pos_class == POS_CAPABILITY_TAG[capability]]


def within_budget(masked_src_tokens: int, source_len: int) -> bool:
    """General masks keep the masked word total strictly under a fifth."""
    return 5 * masked_src_tokens < source_len


def possible_plans(pair: Pair, pool: list[Segment], capability: str, limit: int):
    """Up to ``limit`` distinct plans the capability may draw for this pair.

    One segment per plan, except General, whose plans are the maximal subsets
    of ``pool`` that stay within the budget.
    """
    if capability != "general":
        singles = [(seg,) for seg in pool]
        return singles[:limit] if limit else singles
    n = len(pair.source)
    sizes = [seg.src_len for seg in pool]
    plans: list[tuple[Segment, ...]] = []

    def walk(index: int, chosen: list[int], total: int) -> bool:
        if index == len(pool):
            taken = set(chosen)
            if chosen and not any(
                within_budget(total + size, n)
                for k, size in enumerate(sizes)
                if k not in taken
            ):
                plans.append(tuple(pool[k] for k in chosen))
            return bool(limit) and len(plans) >= limit
        if within_budget(total + sizes[index], n):
            chosen.append(index)
            done = walk(index + 1, chosen, total + sizes[index])
            chosen.pop()
            if done:
                return True
        return walk(index + 1, chosen, total)

    walk(0, [], 0)
    return plans


def splice(tokens: tuple[str, ...], spans, fill: str) -> tuple[str, ...]:
    """Replace each span of ``tokens`` by the single token ``fill``."""
    out = list(tokens)
    for start, end in sorted(spans, reverse=True):
        out[start:end] = [fill]
    return tuple(out)


def fill_reply(masked_source: str, masked_reference: str, src_fill: str, ref_fill: str) -> str:
    """The stub infill reply, as the README describes the stub."""
    return (
        f"Filled English: {masked_source.replace(MASK, src_fill)}\n"
        f"Filled Chinese: {masked_reference.replace(MASK, ref_fill)}"
    )


def translate(text: str, table: dict[str, str]) -> str:
    return table.get(text, text)


def _overlap(hyp: list[str], ref: list[str]) -> int:
    return sum((Counter(hyp) & Counter(ref)).values())


def unigram_f1(hyp: str, ref: str) -> float:
    h, r = hyp.split(), ref.split()
    if not h or not r:
        return 0.0
    return 2 * _overlap(h, r) / (len(h) + len(r))


def length_ratio(hyp: str, ref: str) -> float:
    h, r = hyp.split(), ref.split()
    if not h and not r:
        return 1.0
    return min(len(h), len(r)) / max(len(h), len(r))


def judge(qual_y: float, qual_y_prime: float, alpha: float, beta: float):
    """(passed, fail_reason, diff) with exact comparisons; low base wins."""
    gap = abs(qual_y - qual_y_prime)
    if qual_y < alpha:
        return False, "low_base_quality", gap
    if gap > beta:
        return False, "large_diff", gap
    return True, None, gap


@dataclass(frozen=True)
class Outcome:
    """What one case of a pair must end as; ``moved`` says whether the edit
    moved the quality by more than beta."""

    status: str
    passed: bool | None = None
    fail_reason: str | None = None
    moved: bool | None = None


def case_outcome(pair: Pair, plan, fills: dict, table: dict, alpha: float, beta: float) -> Outcome:
    """Run one plan through the stub pipeline as the README specifies it."""
    src_prime = splice(pair.source, [seg.src for seg in plan], fills["src"])
    ref_prime = splice(pair.reference, [seg.ref for seg in plan], fills["ref"])
    if src_prime == pair.source and ref_prime == pair.reference:
        return Outcome("dropped_identical")
    x, r = " ".join(pair.source), " ".join(pair.reference)
    xp, rp = " ".join(src_prime), " ".join(ref_prime)
    if abs(length_ratio(x, r) - length_ratio(xp, rp)) > beta:
        return Outcome("dropped_quality")
    y, yp = translate(x, table), translate(xp, table)
    passed, reason, gap = judge(unigram_f1(y, r), unigram_f1(yp, rp), alpha, beta)
    return Outcome("kept", passed, reason, gap > beta)
