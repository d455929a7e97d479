"""Tests for corpus loading, validation, and canonical dumping."""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtbehave.corpus import (
    Annotation,
    CorpusError,
    TranslationPair,
    load_alignments,
    load_annotations,
    load_corpus,
    load_pairs,
)
from mtbehave.segmentation import extract_editable

from conftest import make_annotation, make_pair
from dumpers import dump_corpus


def write_lines(path: Path, *lines: str) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


# How a record the codec rejects is reported: file, line, then the key.
BAD = "ann.jsonl:1: bad annotation record:"
POS_LIST = re.escape("['NOUN', 'VERB', 'ADJ', 'ADV', 'ADP', 'OTHER']")


def annotation_record(pair_id: str, n_src: int, **extra) -> dict:
    record = {
        "id": pair_id,
        "pos": ["OTHER"] * n_src,
        "past_perfect": [False] * n_src,
        "ne": [],
        "phrases_src": [],
        "phrases_ref": [],
    }
    record.update(extra)
    return record


def write_annotations(path: Path, *records: dict) -> Path:
    return write_lines(path, *(json.dumps(r, ensure_ascii=False) for r in records))


class TestTranslationPair:
    def test_holds_tokens(self):
        pair = make_pair("p1", "a b", "甲 乙 丙")
        assert pair.source == ("a", "b")
        assert pair.reference == ("甲", "乙", "丙")

    def test_rejects_empty_sides_and_bad_tokens(self):
        with pytest.raises(ValueError):
            TranslationPair("p1", (), ("a",))
        with pytest.raises(ValueError):
            TranslationPair("p1", ("a", ""), ("b",))
        with pytest.raises(ValueError):
            TranslationPair("p1", ("a b",), ("c",))
        with pytest.raises(ValueError):
            TranslationPair("bad id", ("a",), ("b",))


class TestAnnotation:
    def test_rejects_length_mismatch(self):
        pair = make_pair("p1", "a b", "c")
        with pytest.raises(ValueError):
            Annotation("p1", ("OTHER", "OTHER"), (False,), (), (), ())

    def test_rejects_degenerate_spans(self):
        pair = make_pair("p1", "a b", "c")
        with pytest.raises(ValueError):
            make_annotation(pair, ne=((1, 1, "GPE"),))
        with pytest.raises(ValueError):
            make_annotation(pair, phrases_src=((2, 1),))


class TestLoadPairs:
    def test_loads_in_file_order(self, tmp_path):
        path = write_lines(
            tmp_path / "pairs.tsv",
            "p1\tthe shop\t商店",
            "p2\ta b c\t甲 乙",
        )
        pairs = load_pairs(path)
        assert list(pairs) == ["p1", "p2"]
        assert pairs["p2"].source == ("a", "b", "c")
        assert pairs["p1"].reference == ("商店",)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = write_lines(tmp_path / "pairs.tsv", "p1\tonly source")
        with pytest.raises(CorpusError, match=r"pairs\.tsv:1: expected 3"):
            load_pairs(path)

    def test_rejects_duplicate_id(self, tmp_path):
        path = write_lines(
            tmp_path / "pairs.tsv", "p1\ta\tb", "p1\tc\td"
        )
        with pytest.raises(CorpusError, match="duplicate pair id 'p1'"):
            load_pairs(path)

    def test_rejects_empty_token_from_double_space(self, tmp_path):
        # "a  b" splits into ("a", "", "b"); the empty token is invalid.
        path = write_lines(tmp_path / "pairs.tsv", "p1\ta  b\tc")
        with pytest.raises(CorpusError, match=r"pairs\.tsv:1: .*empty or whitespace"):
            load_pairs(path)

    @pytest.mark.parametrize(
        "line, side",
        [
            ("p2\tthe <mask> cat sat\t猫 坐", "source"),
            ("p2\tthe cat sat\t猫 <mask>", "reference"),
            ("p2\tthe x<mask>y cat\t猫 坐", "source"),
            ("p2\tthe cat sat\t<mask>s 坐", "reference"),
        ],
    )
    def test_rejects_a_token_that_is_the_mask_token(self, tmp_path, line, side):
        # A token that is or holds the mask: the infill model, and the stub, would fill
        # it as if it had been masked.
        path = write_lines(tmp_path / "pairs.tsv", "p1\ta <masked>\tb", line)
        with pytest.raises(
            CorpusError, match=re.escape(f"{path}:2: {side} contains the mask token '<mask>'")
        ):
            load_pairs(path)


class TestLoadAlignments:
    def test_parses_links(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b c\tx y"))
        path = write_lines(tmp_path / "align.txt", "0-0 2-1")
        alignments = load_alignments(path, pairs)
        assert alignments == [frozenset({(0, 0), (2, 1)})]

    def test_duplicate_links_collapse_silently(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b\tx"))
        path = write_lines(tmp_path / "align.txt", "0-0 0-0 1-0")
        alignments = load_alignments(path, pairs)
        assert alignments == [frozenset({(0, 0), (1, 0)})]

    def test_empty_line_means_no_links(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b\tx"))
        path = write_lines(tmp_path / "align.txt", "")
        assert load_alignments(path, pairs) == [frozenset()]

    def test_rejects_malformed_link(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta\tx"))
        # int() rejects the superscript two and reads the Arabic-Indic zero as 0
        for link in ("0-x", "0-²", "٠-0"):
            path = write_lines(tmp_path / "align.txt", link)
            with pytest.raises(CorpusError, match=re.escape(f"{path}:1: malformed link '{link}'")):
                load_alignments(path, pairs)

    def test_rejects_out_of_range_src_index(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b c\tx y"))
        path = write_lines(tmp_path / "align.txt", "5-0")
        with pytest.raises(
            CorpusError, match=r"src index 5 out of range \(source has 3 tokens\)"
        ):
            load_alignments(path, pairs)

    def test_rejects_out_of_range_ref_index(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b c\tx y"))
        path = write_lines(tmp_path / "align.txt", "0-2")
        with pytest.raises(
            CorpusError, match=r"ref index 2 out of range \(reference has 2 tokens\)"
        ):
            load_alignments(path, pairs)

    def test_rejects_line_count_mismatch(self, tmp_path):
        pairs = load_pairs(
            write_lines(tmp_path / "p.tsv", "p1\ta\tx", "p2\tb\ty")
        )
        path = write_lines(tmp_path / "align.txt", "0-0")
        with pytest.raises(CorpusError, match="expected 2 alignment lines, got 1"):
            load_alignments(path, pairs)


class TestLoadAnnotations:
    def test_loads_all_fields(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\tRussia is large\t俄罗斯 很 大"))
        path = write_annotations(
            tmp_path / "ann.jsonl",
            annotation_record(
                "p1",
                3,
                pos=["NOUN", "VERB", "ADJ"],
                ne=[[0, 1, "GPE"]],
                phrases_src=[[0, 2]],
                phrases_ref=[[1, 3]],
            ),
        )
        note = load_annotations(path, pairs)["p1"]
        assert note.pos == ("NOUN", "VERB", "ADJ")
        assert note.ne_spans == ((0, 1, "GPE"),)
        assert note.phrase_spans_src == ((0, 2),)
        assert note.phrase_spans_ref == ((1, 3),)

    def test_each_record_builds_one_annotation_and_keeps_repeated_spans(self, tmp_path, monkeypatch):
        built = []
        check = Annotation._check
        monkeypatch.setattr(Annotation, "_check", lambda note: built.append(note.pair_id) or check(note))
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b\tx", "p2\tc\ty"))
        path = write_annotations(
            tmp_path / "ann.jsonl",
            annotation_record("p1", 2, phrases_src=[[0, 2], [0, 2]]),
            annotation_record("p2", 1),
        )
        notes = load_annotations(path, pairs)
        assert built == ["p1", "p2"]
        assert notes["p1"].phrase_spans_src == ((0, 2), (0, 2))

    @pytest.mark.parametrize(
        "mutation, pattern",
        [
            (lambda r: r.pop("pos"), "missing fields"),
            (lambda r: r.update(extra=1), "unknown fields"),
            (lambda r: r.update(pos=["OTHER"], past_perfect=[False]), "one tag per source token"),
            pytest.param(
                lambda r: r.update(pos=["NN", "OTHER"]),
                rf"{BAD} pos\[0\] must be one of {POS_LIST}, got 'NN'",
                id="unknown POS tag",
            ),
            pytest.param(
                lambda r: r.update(past_perfect=[False, 0]),
                rf"{BAD} past_perfect\[1\] must be a boolean, got 0",
                id="past_perfect flag not a bool",
            ),
            (lambda r: r.update(ne=[[0, 0, "GPE"]]), "not a valid span"),
            (lambda r: r.update(ne=[[0, 5, "GPE"]]), "out of range"),
            (lambda r: r.update(ne=[[0, 1, "bad type"]]), "invalid NE type"),
            pytest.param(
                lambda r: r.update(ne=[[0, 1, 5]]),
                rf"{BAD} ne\[0\]\[2\] must be a string, got 5",
                id="NE type not text",
            ),
            pytest.param(
                lambda r: r.update(phrases_ref=[[1, 0]]),
                rf"{BAD} reference phrase span \(1, 0\) is not a valid span",
                id="reversed reference phrase span",
            ),
            pytest.param(
                lambda r: r.update(phrases_src=[[0]]),
                rf"{BAD} phrases_src\[0\] must be a list of 2 items, got \[0\]",
                id="phrase span of one item",
            ),
            (lambda r: r.update(id="nope"), "unknown pair id"),
            pytest.param(
                lambda r: r.update(phrases_src=5),
                f"{BAD} phrases_src must be a list, got 5",
                id="phrases_src not a list",
            ),
            pytest.param(
                lambda r: r.update(phrases_ref=None),
                f"{BAD} phrases_ref must be a list, got None",
                id="phrases_ref null",
            ),
            pytest.param(
                lambda r: r.update(pos=[[1], "OTHER"]),
                rf"{BAD} pos\[0\] must be one of {POS_LIST}, got \[1\]",
                id="POS tag not text",
            ),
            pytest.param(
                lambda r: r.update(id=["p1"]),
                rf"{BAD} id must be a string, got \['p1'\]",
                id="pair id not text",
            ),
            pytest.param(
                lambda r: r.update(ne=5),
                f"{BAD} ne must be a list, got 5",
                id="ne not a list",
            ),
            pytest.param(
                lambda r: r.update(ne=[[0, 1]]),
                rf"{BAD} ne\[0\] must be a list of 3 items, got \[0, 1\]",
                id="NE entry of two items",
            ),
            pytest.param(
                lambda r: r.update(ne=[[0.5, 1, "GPE"]]),
                rf"{BAD} ne\[0\]\[0\] must be an integer, got 0.5",
                id="NE start not an integer",
            ),
        ],
    )
    def test_rejects_bad_records(self, tmp_path, mutation, pattern):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta b\tx y"))
        record = annotation_record("p1", 2)
        mutation(record)
        path = write_annotations(tmp_path / "ann.jsonl", record)
        with pytest.raises(CorpusError, match=pattern):
            load_annotations(path, pairs)

    @pytest.mark.parametrize(
        "line, pattern",
        [
            ("", f"{BAD} blank line"),
            ("{not json", f"{BAD} Expecting property name"),
            ('["p1"]', rf"{BAD} expected an object, got \['p1'\]"),
        ],
        ids=["blank", "not JSON", "JSON list"],
    )
    def test_rejects_bad_lines(self, tmp_path, line, pattern):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta\tx"))
        path = write_lines(tmp_path / "ann.jsonl", line)
        with pytest.raises(CorpusError, match=pattern):
            load_annotations(path, pairs)

    def test_rejects_duplicate_record(self, tmp_path):
        pairs = load_pairs(write_lines(tmp_path / "p.tsv", "p1\ta\tx"))
        path = write_annotations(
            tmp_path / "ann.jsonl",
            annotation_record("p1", 1),
            annotation_record("p1", 1),
        )
        with pytest.raises(CorpusError, match="ann.jsonl:2: duplicate annotation"):
            load_annotations(path, pairs)

    def test_rejects_missing_record(self, tmp_path):
        pairs = load_pairs(
            write_lines(tmp_path / "p.tsv", "p1\ta\tx", "p2\tb\ty")
        )
        path = write_annotations(tmp_path / "ann.jsonl", annotation_record("p1", 1))
        with pytest.raises(CorpusError, match=r"missing annotation records for pairs \['p2'\]"):
            load_annotations(path, pairs)


class TestCorpus:
    def test_triples_follow_corpus_order(self, tmp_path):
        write_lines(tmp_path / "p.tsv", "p2\ta\tx", "p1\tb\ty")
        write_lines(tmp_path / "a.txt", "0-0", "0-0")
        write_annotations(
            tmp_path / "ann.jsonl",
            annotation_record("p2", 1),
            annotation_record("p1", 1),
        )
        corpus = load_corpus(tmp_path / "p.tsv", tmp_path / "a.txt", tmp_path / "ann.jsonl")
        assert [pair.pair_id for pair, _, _ in corpus] == ["p2", "p1"]


# -- round-trip property ------------------------------------------------------

_token = st.text(alphabet="abcdef", min_size=1, max_size=3)
_pos_tag = st.sampled_from(["NOUN", "VERB", "ADJ", "ADV", "ADP", "OTHER"])
SPAN_FIELDS = ("ne_spans", "phrase_spans_src", "phrase_spans_ref")


@st.composite
def corpora(draw):
    n_pairs = draw(st.integers(1, 3))
    corpus = []
    for index in range(n_pairs):
        pair_id = f"p{index}"
        source = tuple(draw(st.lists(_token, min_size=1, max_size=4)))
        reference = tuple(draw(st.lists(_token, min_size=1, max_size=4)))
        pair = TranslationPair(pair_id, source, reference)
        all_links = [(i, j) for i in range(len(source)) for j in range(len(reference))]
        links = frozenset(
            draw(st.lists(st.sampled_from(all_links), max_size=5)) if all_links else []
        )

        def spans(limit):
            return st.tuples(st.integers(0, limit - 1), st.integers(1, limit)).filter(
                lambda span: span[0] < span[1]
            )

        ne = draw(st.lists(spans(len(source)), max_size=2, unique=True))
        ne_spans = tuple(sorted((s, e, "GPE") for s, e in ne))
        phr_src = tuple(sorted(draw(st.lists(spans(len(source)), max_size=2, unique=True))))
        phr_ref = tuple(sorted(draw(st.lists(spans(len(reference)), max_size=2, unique=True))))
        annotation = Annotation(
            pair_id,
            tuple(draw(st.lists(_pos_tag, min_size=len(source), max_size=len(source)))),
            tuple(draw(st.lists(st.booleans(), min_size=len(source), max_size=len(source)))),
            ne_spans,
            phr_src,
            phr_ref,
        )
        corpus.append((pair, links, annotation))
    return corpus


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(corpora())
    def test_dump_load_dump_is_byte_identical(self, corpus):
        """dump is canonical: loading its output and dumping again changes nothing."""
        with tempfile.TemporaryDirectory() as raw:
            base = Path(raw)
            first = (base / "p.tsv", base / "a.txt", base / "ann.jsonl")
            dump_corpus(corpus, *first)
            loaded = load_corpus(*first)
            second = (base / "p2.tsv", base / "a2.txt", base / "ann2.jsonl")
            dump_corpus(loaded, *second)
            for before, after in zip(first, second):
                assert before.read_bytes() == after.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(corpora())
    def test_load_of_dump_restores_the_corpus(self, corpus):
        with tempfile.TemporaryDirectory() as raw:
            base = Path(raw)
            paths = (base / "p.tsv", base / "a.txt", base / "ann.jsonl")
            dump_corpus(corpus, *paths)
            assert load_corpus(*paths) == corpus


class TestRepeatedSpans:
    @settings(max_examples=50, deadline=None)
    @given(corpora(), st.data())
    def test_a_span_listed_again_right_after_itself_changes_no_segment(self, corpus, data):
        """Extraction reads spans as sets, so the loader keeps a repeated span as written.
        The copy goes right after its entry: of two labels for one NE span, the first listed wins."""
        listed = [(triple, name) for triple in corpus for name in SPAN_FIELDS if getattr(triple[2], name)]
        assume(listed)
        (pair, links, note), name = data.draw(st.sampled_from(listed))
        spans = getattr(note, name)
        k = data.draw(st.integers(0, len(spans) - 1))
        repeated = note._replace(**{name: spans[: k + 1] + spans[k:]})
        assert extract_editable(pair, links, repeated) == extract_editable(pair, links, note)
