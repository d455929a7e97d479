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

import json
from dataclasses import dataclass
from typing import Iterator, Mapping

Span = tuple[int, int]

POS_TAGS = frozenset({"NOUN", "VERB", "ADJ", "ADV", "ADP", "OTHER"})

_ANNOTATION_FIELDS = ("id", "pos", "past_perfect", "ne", "phrases_src", "phrases_ref")


class CorpusError(ValueError):
    """Malformed corpus data; the message names the file and line."""


def _fail(path: object, lineno: int, message: str) -> None:
    raise CorpusError(f"{path}:{lineno}: {message}")


def _check_span(span: Span, what: str) -> None:
    start, end = span
    if start < 0 or end <= start:
        raise ValueError(f"{what} ({start}, {end}) is not a valid span")


def spans_overlap(a: Span, b: Span) -> bool:
    """Whether two half-open spans share at least one index."""
    return a[0] < b[1] and b[0] < a[1]


@dataclass(frozen=True)
class TranslationPair:
    """One bitext pair; ``source`` and ``reference`` are token tuples."""

    pair_id: str
    source: tuple[str, ...]
    reference: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.pair_id or any(ch.isspace() for ch in self.pair_id):
            raise ValueError(f"invalid pair id {self.pair_id!r}")
        for side, tokens in (("source", self.source), ("reference", self.reference)):
            if not tokens:
                raise ValueError(f"{side} has no tokens")
            # An empty token, or one holding whitespace, changes how the joined side splits.
            if " ".join(tokens).split() != list(tokens):
                raise ValueError(f"{side} contains an empty or whitespace token")


@dataclass(frozen=True)
class AlignmentSet:
    """Word alignment links for one pair, as (source index, reference index)."""

    pair_id: str
    links: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Annotation:
    """Token-level and span-level annotations for one pair.

    ``pos`` and ``past_perfect`` run parallel to the source tokens. NE spans are
    (start, end, type) on the source; phrase spans are (start, end) on the side
    their name says. All spans are half-open.
    """

    pair_id: str
    pos: tuple[str, ...]
    past_perfect: tuple[bool, ...]
    ne_spans: tuple[tuple[int, int, str], ...]
    phrase_spans_src: tuple[Span, ...]
    phrase_spans_ref: tuple[Span, ...]

    def __post_init__(self) -> None:
        for tag in self.pos:
            if not isinstance(tag, str) or tag not in POS_TAGS:
                raise ValueError(f"unknown POS tag {tag!r}")
        if len(self.past_perfect) != len(self.pos):
            raise ValueError("past_perfect length differs from pos length")
        for start, end, label in self.ne_spans:
            _check_span((start, end), "NE span")
            if not isinstance(label, str) or not label or any(ch.isspace() for ch in label):
                raise ValueError(f"invalid NE type {label!r}")
        for span in self.phrase_spans_src:
            _check_span(span, "source phrase span")
        for span in self.phrase_spans_ref:
            _check_span(span, "reference phrase span")


@dataclass(frozen=True)
class Corpus:
    """Pairs plus their alignments and annotations, keyed by pair id."""

    pairs: dict[str, TranslationPair]
    alignments: dict[str, AlignmentSet]
    annotations: dict[str, Annotation]

    def __post_init__(self) -> None:
        if set(self.alignments) != set(self.pairs):
            raise ValueError("alignments do not cover exactly the corpus pairs")
        if set(self.annotations) != set(self.pairs):
            raise ValueError("annotations do not cover exactly the corpus pairs")

    def __len__(self) -> int:
        return len(self.pairs)

    def triples(self) -> Iterator[tuple[TranslationPair, AlignmentSet, Annotation]]:
        """Yield (pair, alignment, annotation) in corpus order."""
        for pair_id, pair in self.pairs.items():
            yield pair, self.alignments[pair_id], self.annotations[pair_id]


def load_pairs(path) -> dict[str, TranslationPair]:
    """Read the tab-separated pairs file, preserving file order."""
    pairs: dict[str, TranslationPair] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            fields = line.split("\t")
            if len(fields) != 3:
                _fail(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
            pair_id, src_text, ref_text = fields
            if pair_id in pairs:
                _fail(path, lineno, f"duplicate pair id {pair_id!r}")
            try:
                pair = TranslationPair(
                    pair_id,
                    tuple(src_text.split(" ")),
                    tuple(ref_text.split(" ")),
                )
            except ValueError as exc:
                _fail(path, lineno, str(exc))
            pairs[pair_id] = pair
    return pairs


def load_alignments(path, pairs: Mapping[str, TranslationPair]) -> dict[str, AlignmentSet]:
    """Read the Pharaoh alignment file; line k belongs to the k-th corpus pair.

    Duplicate links on a line are dropped silently. Indices are checked against
    the pair's token counts.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(pairs):
        raise CorpusError(
            f"{path}: expected {len(pairs)} alignment lines, got {len(lines)}"
        )
    alignments: dict[str, AlignmentSet] = {}
    for lineno, (line, pair) in enumerate(zip(lines, pairs.values()), start=1):
        links: set[tuple[int, int]] = set()
        for item in line.split():
            left, sep, right = item.partition("-")
            if not sep or not left.isdigit() or not right.isdigit():
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
        alignments[pair.pair_id] = AlignmentSet(pair.pair_id, frozenset(links))
    return alignments


def _require_int(value: object, path, lineno: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, lineno, f"{what} must be an integer, got {value!r}")
    return value


def _read_span(value: object, limit: int, path, lineno: int, what: str) -> Span:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, lineno, f"{what} must be a [start, end] list, got {value!r}")
    start = _require_int(value[0], path, lineno, f"{what} start")
    end = _require_int(value[1], path, lineno, f"{what} end")
    if end > limit:
        _fail(path, lineno, f"{what} ({start}, {end}) out of range (length {limit})")
    return (start, end)


def _read_spans(value: object, limit: int, path, lineno: int, what: str) -> tuple[Span, ...]:
    """A list of [start, end] spans, duplicates dropped in order."""
    if not isinstance(value, list):
        _fail(path, lineno, f"{what}s must be a list, got {value!r}")
    return tuple(dict.fromkeys(_read_span(item, limit, path, lineno, what) for item in value))


def load_annotations(path, pairs: Mapping[str, TranslationPair]) -> dict[str, Annotation]:
    """Read the JSONL annotation file; exactly one record per corpus pair.

    Shapes, types and ranges are checked here; POS tags, span validity and NE
    labels are checked by :class:`Annotation` and reported with the line.
    """
    annotations: dict[str, Annotation] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                _fail(path, lineno, "blank line")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(path, lineno, f"invalid JSON: {exc}")
            if not isinstance(record, dict):
                _fail(path, lineno, "annotation record must be a JSON object")
            missing = [key for key in _ANNOTATION_FIELDS if key not in record]
            if missing:
                _fail(path, lineno, f"missing fields: {missing}")
            unknown = sorted(set(record) - set(_ANNOTATION_FIELDS))
            if unknown:
                _fail(path, lineno, f"unknown fields: {unknown}")
            pair_id = record["id"]
            if not isinstance(pair_id, str) or pair_id not in pairs:
                _fail(path, lineno, f"unknown pair id {pair_id!r}")
            if pair_id in annotations:
                _fail(path, lineno, f"duplicate annotation for pair {pair_id!r}")
            pair = pairs[pair_id]
            n_src = len(pair.source)
            n_ref = len(pair.reference)

            pos = record["pos"]
            if not isinstance(pos, list) or len(pos) != n_src:
                _fail(path, lineno, f"pos must list one tag per source token ({n_src})")

            past = record["past_perfect"]
            if (
                not isinstance(past, list)
                or len(past) != n_src
                or any(not isinstance(flag, bool) for flag in past)
            ):
                _fail(path, lineno, f"past_perfect must list one bool per source token ({n_src})")

            ne_field = record["ne"]
            if not isinstance(ne_field, list):
                _fail(path, lineno, "ne must be a list")
            ne_spans: list[tuple[int, int, str]] = []
            for item in ne_field:
                if not isinstance(item, list) or len(item) != 3:
                    _fail(path, lineno, f"NE entry must be [start, end, type], got {item!r}")
                entry = (*_read_span(item[:2], n_src, path, lineno, "NE span"), item[2])
                if entry not in ne_spans:
                    ne_spans.append(entry)
            phrases_src = _read_spans(record["phrases_src"], n_src, path, lineno, "source phrase span")
            phrases_ref = _read_spans(record["phrases_ref"], n_ref, path, lineno, "reference phrase span")

            try:
                annotations[pair_id] = Annotation(
                    pair_id,
                    tuple(pos),
                    tuple(past),
                    tuple(ne_spans),
                    phrases_src,
                    phrases_ref,
                )
            except ValueError as exc:
                _fail(path, lineno, str(exc))
    absent = [pair_id for pair_id in pairs if pair_id not in annotations]
    if absent:
        raise CorpusError(f"{path}: missing annotation records for pairs {absent}")
    return annotations


def load_corpus(pairs_path, alignments_path, annotations_path) -> Corpus:
    """Load and cross-validate the three corpus files."""
    pairs = load_pairs(pairs_path)
    alignments = load_alignments(alignments_path, pairs)
    annotations = load_annotations(annotations_path, pairs)
    return Corpus(pairs, alignments, annotations)
