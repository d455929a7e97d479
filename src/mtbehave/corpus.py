"""Parallel corpus access: tokenized bitext, word alignments, linguistic annotations.

A corpus is three files that describe the same ordered set of translation pairs:

* pairs: one tab-separated line per pair, ``id<TAB>source<TAB>reference``,
  both sides pre-tokenized with single spaces between tokens;
* alignments: one Pharaoh-format line per pair, in corpus order
  (e.g. ``0-0 1-2 2-1``, source index first);
* annotations: one JSON object per line with POS tags, past-perfect flags,
  named-entity spans and phrase spans for the pair named by its ``id``.

Loaders validate aggressively and report the offending file and line.
"""

from __future__ import annotations

from typing import Literal, Mapping, NamedTuple, get_args

from .codec import CorpusError, checked, read_jsonl, read_lines

Span = tuple[int, int]
# Word alignment links for one pair, as (source index, reference index).
Links = frozenset[tuple[int, int]]

PosTag = Literal["NOUN", "VERB", "ADJ", "ADV", "ADP", "OTHER"]
POS_TAGS = get_args(PosTag)

# Literal placeholder substituted for a masked segment on either side; a corpus
# token may not hold it, or the infill model would fill inside that token too.
MASK_TOKEN = "<mask>"


def _fail(path: object, lineno: int, message: str) -> None:
    raise CorpusError(f"{path}:{lineno}: {message}")


def check_span(span: Span, what: str) -> None:
    start, end = span
    if start < 0 or end <= start:
        raise ValueError(f"{what} ({start}, {end}) is not a valid span")


def spans_overlap(a: Span, b: Span) -> bool:
    """Whether two half-open spans share at least one index."""
    return a[0] < b[1] and b[0] < a[1]


@checked
class TranslationPair(NamedTuple):
    """One bitext pair; ``source`` and ``reference`` are token tuples."""

    pair_id: str
    source: tuple[str, ...]
    reference: tuple[str, ...]

    def _check(self) -> None:
        if not self.pair_id or any(ch.isspace() for ch in self.pair_id):
            raise ValueError(f"invalid pair id {self.pair_id!r}")
        for side, tokens in (("source", self.source), ("reference", self.reference)):
            if not tokens:
                raise ValueError(f"{side} has no tokens")
            # An empty token, or one holding whitespace, changes how the joined side splits.
            text = " ".join(tokens)
            if text.split() != list(tokens):
                raise ValueError(f"{side} contains an empty or whitespace token")
            if MASK_TOKEN in text:  # the tokens hold no space, so one of them holds the mask
                raise ValueError(f"{side} contains the mask token {MASK_TOKEN!r}")


@checked
class Annotation(NamedTuple):
    """Token-level and span-level annotations for one pair.

    ``pos`` and ``past_perfect`` run parallel to the source tokens. NE spans are
    (start, end, type) on the source; phrase spans are (start, end) on the side
    their name says. All spans are half-open.
    """

    pair_id: str
    pos: tuple[PosTag, ...]
    past_perfect: tuple[bool, ...]
    ne_spans: tuple[tuple[int, int, str], ...]
    phrase_spans_src: tuple[Span, ...]
    phrase_spans_ref: tuple[Span, ...]
    _keys = {"pair_id": "id", "ne_spans": "ne", "phrase_spans_src": "phrases_src", "phrase_spans_ref": "phrases_ref"}

    def _check(self) -> None:
        if len(self.past_perfect) != len(self.pos):
            raise ValueError("past_perfect length differs from pos length")
        for start, end, label in self.ne_spans:
            check_span((start, end), "NE span")
            if not label or any(ch.isspace() for ch in label):
                raise ValueError(f"invalid NE type {label!r}")
        for span in self.phrase_spans_src:
            check_span(span, "source phrase span")
        for span in self.phrase_spans_ref:
            check_span(span, "reference phrase span")


def load_pairs(path) -> dict[str, TranslationPair]:
    """Read the tab-separated pairs file, preserving file order."""
    pairs: dict[str, TranslationPair] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.rstrip("\n")
        fields = line.split("\t")
        if len(fields) != 3:
            _fail(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
        pair_id, src_text, ref_text = fields
        if pair_id in pairs:
            _fail(path, lineno, f"duplicate pair id {pair_id!r}")
        try:
            pair = TranslationPair(pair_id, tuple(src_text.split(" ")), tuple(ref_text.split(" ")))
        except ValueError as exc:
            _fail(path, lineno, str(exc))
        pairs[pair_id] = pair
    return pairs


def load_alignments(path, pairs: Mapping[str, TranslationPair]) -> list[Links]:
    """Read the Pharaoh alignment file; line k holds the links of the k-th corpus pair.

    Duplicate links on a line are dropped silently. Indices are checked against
    the pair's token counts.
    """
    lines = [line.removesuffix("\n") for line in read_lines(path)]
    if len(lines) != len(pairs):
        raise CorpusError(
            f"{path}: expected {len(pairs)} alignment lines, got {len(lines)}"
        )
    alignments: list[Links] = []
    for lineno, (line, pair) in enumerate(zip(lines, pairs.values()), start=1):
        links: set[tuple[int, int]] = set()
        for item in line.split():
            left, sep, right = item.partition("-")
            if not sep or not item.isascii() or not left.isdigit() or not right.isdigit():
                _fail(path, lineno, f"malformed link {item!r}")
            i, j = int(left), int(right)
            if i >= len(pair.source):
                _fail(
                    path,
                    lineno,
                    f"src index {i} out of range (source has {len(pair.source)} tokens)",
                )
            if j >= len(pair.reference):
                _fail(
                    path,
                    lineno,
                    f"ref index {j} out of range (reference has {len(pair.reference)} tokens)",
                )
            links.add((i, j))
        alignments.append(frozenset(links))
    return alignments


def load_annotations(path, pairs: Mapping[str, TranslationPair]) -> dict[str, Annotation]:
    """Read the JSONL annotation file; exactly one record per corpus pair.

    The codec checks each record's keys and types and that no id repeats, and
    :class:`Annotation` its POS tags, span validity and NE labels; this loader checks
    the ids (no unknown or missing pair) and each record's lengths and span ends against
    its pair. A repeated span is kept as written: extraction reads spans as sets.
    """
    annotations = read_jsonl(path, Annotation, "annotation record", lambda note: note.pair_id)
    for lineno, note in enumerate(annotations.values(), start=1):
        pair = pairs.get(note.pair_id)
        if pair is None:
            _fail(path, lineno, f"unknown pair id {note.pair_id!r}")
        n_src = len(pair.source)
        if len(note.pos) != n_src:
            _fail(path, lineno, f"pos must list one tag per source token ({n_src})")
        for spans, what, limit in (
            (note.ne_spans, "NE span", n_src),
            (note.phrase_spans_src, "source phrase span", n_src),
            (note.phrase_spans_ref, "reference phrase span", len(pair.reference)),
        ):
            for start, end, *_ in spans:
                if end > limit:
                    _fail(path, lineno, f"{what} ({start}, {end}) out of range (length {limit})")
    absent = [pair_id for pair_id in pairs if pair_id not in annotations]
    if absent:
        raise CorpusError(f"{path}: missing annotation records for pairs {absent}")
    return annotations


def load_corpus(
    pairs_path, alignments_path, annotations_path
) -> list[tuple[TranslationPair, Links, Annotation]]:
    """Each pair with its links and its annotation, in corpus order. :func:`load_pairs`
    checks each pair and its id, :func:`load_alignments` gives line k to the k-th pair
    and checks its indices, and :func:`load_annotations` gives each pair its one record;
    nothing is checked twice."""
    pairs = load_pairs(pairs_path)
    alignments = load_alignments(alignments_path, pairs)
    annotations = load_annotations(annotations_path, pairs)
    return [(pair, links, annotations[pair.pair_id]) for pair, links in zip(pairs.values(), alignments)]
