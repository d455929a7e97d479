"""Brute-force reference implementations used as oracles by the tests.

Everything here is written for obviousness, not speed: full scans, no early
exits, no shared state with the package code under test.
"""

from __future__ import annotations

import random


def oracle_span_pairs(pair, links, annotation):
    """All editable (src_span, ref_span) pairs after overlap resolution.

    A candidate source span is any single word or any listed source phrase.
    It is editable when:
      * at least one of its tokens is aligned;
      * the covered reference indices (min..max+1 of its links) form a single
        word or a listed reference phrase;
      * no token outside the span links into that reference cover;
      * the first source token is aligned, and so is the last for phrases.
    Overlaps (on either side) are then resolved by keeping, greedily, the
    longer source span, breaking ties by smaller source start, then smaller
    reference start.
    """
    links = set(links)
    candidates = sorted(
        {(i, i + 1) for i in range(len(pair.source))}
        | set(annotation.phrase_spans_src)
    )
    ref_phrases = set(annotation.phrase_spans_ref)

    eligible = []
    for start, end in candidates:
        span_links = [(i, j) for i, j in links if start <= i < end]
        if not span_links:
            continue
        ref_indices = [j for _, j in span_links]
        ref_span = (min(ref_indices), max(ref_indices) + 1)
        if ref_span[1] - ref_span[0] > 1 and ref_span not in ref_phrases:
            continue
        intruders = [
            (i, j)
            for i, j in links
            if ref_span[0] <= j < ref_span[1] and not (start <= i < end)
        ]
        if intruders:
            continue
        linked_src = {i for i, _ in span_links}
        if start not in linked_src:
            continue
        if end - start > 1 and (end - 1) not in linked_src:
            continue
        eligible.append(((start, end), ref_span))

    def priority(item):
        (src_start, src_end), (ref_start, _) = item
        return (-(src_end - src_start), src_start, ref_start)

    kept = []
    for item in sorted(eligible, key=priority):
        src_span, ref_span = item
        clash = False
        for other_src, other_ref in kept:
            if src_span[0] < other_src[1] and other_src[0] < src_span[1]:
                clash = True
            if ref_span[0] < other_ref[1] and other_ref[0] < ref_span[1]:
                clash = True
        if not clash:
            kept.append(item)
    return sorted(kept)


def oracle_segments(pair, links, annotation):
    """``oracle_span_pairs`` with every field of the segment, as tuples of
    (src_span, ref_span, kind, pos_class, ne_type, tense_eligible).

    The head token is the rightmost NOUN/VERB/ADJ/ADV/ADP token of the source
    span, or its last token when there is none; ``pos_class`` is its tag. The
    NE type is the label of the first annotated NE span equal to the source
    span. A segment is tense-eligible when its head is a verb that is not
    already in the past perfect.
    """
    rows = []
    for (start, end), ref_span in oracle_span_pairs(pair, links, annotation):
        content = [
            i for i in range(start, end)
            if annotation.pos[i] in ("NOUN", "VERB", "ADJ", "ADV", "ADP")
        ]
        head = content[-1] if content else end - 1
        labels = [label for s, e, label in annotation.ne_spans if (s, e) == (start, end)]
        rows.append((
            (start, end),
            ref_span,
            "word" if end - start == 1 else "phrase",
            annotation.pos[head],
            labels[0] if labels else None,
            annotation.pos[head] == "VERB" and not annotation.past_perfect[head],
        ))
    return rows


def oracle_plans(pair, segments, count, seed):
    """General masking plans as segment tuples, by the plain seeded loop.

    The pool is the distinct segments sorted by (src_span, ref_span). Each of
    exactly 64 * count attempts walks one ``rng.sample`` shuffle of the pool and
    keeps every segment that leaves five times the masked total strictly below
    the source length; a walk whose source spans repeat an earlier plan is
    dropped. The first ``count`` distinct plans are returned, each sorted by
    source span. An empty pool has no plans.
    """
    pool = sorted(set(segments), key=lambda seg: (seg.src_span, seg.ref_span))
    if not pool:
        return []
    rng = random.Random(seed)
    plans = []
    seen = []
    for _ in range(64 * count):
        chosen = []
        total = 0
        for segment in rng.sample(pool, len(pool)):
            if 5 * (total + segment.src_len) < len(pair.source):
                chosen.append(segment)
                total += segment.src_len
        key = {segment.src_span for segment in chosen}
        if key not in seen:
            seen.append(key)
            plans.append(tuple(sorted(chosen, key=lambda seg: seg.src_span)))
    return plans[:count]
