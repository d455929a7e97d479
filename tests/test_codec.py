"""The artifact codec: atomic writes and rows driven by NamedTuple records."""

from __future__ import annotations

import codecs
import re
from enum import Enum
from pathlib import Path
from typing import Literal, Mapping, NamedTuple

import pytest

from mtbehave import codec
from mtbehave.backends import BackendSpec
from mtbehave.cli import CorpusFiles, RunConfig
from mtbehave.corpus import Annotation, CorpusError, TranslationPair
from mtbehave.judge import JudgeConfig, Verdict
from mtbehave.report import GoldErrorAnnotation


class Shade(str, Enum):
    DARK = "dark"
    LIGHT = "light"


class Row(NamedTuple):
    name: str
    shade: Shade
    spans: tuple[tuple[int, int], ...] = ()
    _keys = {"spans": "marks"}


class Typed(NamedTuple):
    flag: bool
    count: int
    score: float | None
    tokens: tuple[str, ...]
    triples: tuple[tuple[int, int, str], ...]
    params: Mapping[str, object]
    weights: Mapping[str, float] = {}


Tone = Literal["warm", "cool"]


class Toned(NamedTuple):
    tone: Tone
    tones: tuple[Tone, ...] = ()
    maybe: Tone | None = None
    by_tone: Mapping[Tone, int] = {}


def by_name(row: Row) -> str:
    return row.name


TYPED = {"flag": True, "count": 2, "score": 0.5, "tokens": ["a"], "triples": [[0, 1, "x"]], "params": {}}


@codec.checked
class Inner(NamedTuple):
    low: float = 0.0

    def _check(self):
        if self.low < 0:
            raise ValueError("low must not be negative")


class Nested(NamedTuple):
    home: Path
    inner: Inner = Inner()
    rows: tuple[Row, ...] = ()


class TestWrites:
    def test_a_write_that_fails_part_way_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        codec.write_text(path, "previous\n")

        def rows():
            yield {"name": "a"}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            codec.write_jsonl(path, rows())
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_json_documents_are_indented_with_a_final_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        codec.write_json(path, {"a": [1, 2], "b": "é"})
        assert path.read_text(encoding="utf-8") == (
            '{\n  "a": [\n    1,\n    2\n  ],\n  "b": "\\u00e9"\n}\n'
        )

    def test_jsonl_rows_are_compact_utf8(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        codec.write_jsonl(path, [{"a": (1, 2), "b": "门店"}, {"a": None}])
        assert path.read_text(encoding="utf-8") == '{"a":[1,2],"b":"门店"}\n{"a":null}\n'


class TestRows:
    def test_keys_follow_fields_with_renames(self):
        row = Row("a", Shade.DARK, ((0, 1),))
        assert codec.to_row(row) == {"name": "a", "shade": "dark", "marks": ((0, 1),)}

    def test_round_trip_restores_tuples_and_enum_members(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [Row("a", Shade.DARK, ((0, 1), (2, 4))), Row("b", Shade.LIGHT)]
        codec.write_jsonl(path, map(codec.to_row, rows))
        read = codec.read_jsonl(path, Row, "row", by_name)
        assert list(read.items()) == [("a", rows[0]), ("b", rows[1])]  # in file order

    def test_a_missing_key_takes_the_default(self):
        assert codec.from_row(Row, {"name": "a", "shade": "light"}) == Row("a", Shade.LIGHT)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"name": "a"}', r"missing fields: \['shade'\]"),
            ('{"name": "a", "shade": "grey"}', r"shade must be one of \['dark', 'light'\], got 'grey'"),
            ("[1, 2]", r"expected an object, got \[1, 2\]"),
            ("not json", "Expecting value"),
            ("", "blank line"),
            pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded", id="nested too deep"),
        ],
    )
    def test_a_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"name": "ok", "shade": "dark"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"rows.jsonl:2: bad row: {reason}"):
            codec.read_jsonl(path, Row, "row", by_name)

    def test_a_repeated_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        codec.write_jsonl(path, map(codec.to_row, [Row("a", Shade.DARK), Row("b", Shade.DARK), Row("a", Shade.LIGHT)]))
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}:3: duplicate row 'a'") + "$"):
            codec.read_jsonl(path, Row, "row", by_name)
        assert len(codec.read_jsonl(path, Row, "row", lambda row: (row.name, row.shade))) == 3

    def test_a_leading_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"a\nb\n")
        assert codec.read_lines(path) == ["a\n", "b\n"]
        path.write_bytes(codecs.BOM_UTF8 + b"a\nb\nc\xff\n")  # lines count from the file's start
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}:3: 'utf-8' codec can't decode byte 0xff")):
            codec.read_lines(path)

    def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_file_offset(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"a\nb\nc\xff")
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}:3: ") + ".* in position 8: "):
            codec.read_lines(path)

    def test_values_convert_to_the_field_types(self):
        params = {"k": [1]}
        typed = codec.from_row(Typed, {**TYPED, "score": 1, "params": params, "weights": {"w": 1}})
        assert typed == Typed(True, 2, 1.0, ("a",), ((0, 1, "x"),), params, {"w": 1.0})
        assert type(typed.score) is float and typed.params is params and type(typed.weights["w"]) is float
        assert codec.from_row(Typed, {**TYPED, "score": None}).score is None

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"flag": 1}, "flag must be a boolean, got 1"),
            ({"count": True}, "count must be an integer, got True"),
            ({"count": 2.0}, "count must be an integer, got 2.0"),
            ({"score": False}, "score must be a number, got False"),
            ({"score": "0.5"}, "score must be a number, got '0.5'"),
            ({"score": 10**400}, "score must be a number, got 1000"),
            ({"tokens": "a"}, "tokens must be a list, got 'a'"),
            ({"tokens": ["a", None]}, r"tokens\[1\] must be a string, got None"),
            ({"triples": [[0, 1, "x"], [0, 1]]}, r"triples\[1\] must be a list of 3 items, got \[0, 1\]"),
            ({"triples": [[0, "1", "x"]]}, r"triples\[0\]\[1\] must be an integer, got '1'"),
            ({"params": []}, r"params must be an object, got \[\]"),
            ({"flag": None}, "flag must be a boolean, got None"),
            ({"extra": 1, "more": 2}, r"unknown fields: \['extra', 'more'\]"),
            ({"score": float("nan")}, "score must be a number, got nan"),
            ({"score": float("inf")}, "score must be a number, got inf"),
            ({"score": float("-inf")}, "score must be a number, got -inf"),
            ({"weights": {"w": 1, "v": "2"}}, r"weights\['v'\] must be a number, got '2'"),
        ],
    )
    def test_a_value_of_another_type_is_rejected_by_key(self, changes, reason):
        with pytest.raises(ValueError, match=f"^{reason}"):
            codec.from_row(Typed, {**TYPED, **changes})

    def test_a_nested_record_and_a_path_decode(self):
        nested = codec.from_row(Nested, {"home": "a/b", "inner": {"low": 1}, "rows": [{"name": "r", "shade": "dark"}]})
        assert nested == Nested(Path("a/b"), Inner(1.0), (Row("r", Shade.DARK),))

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"home": 5}, "home must be a string, got 5"),
            ({"inner": [1]}, r"inner: expected an object, got \[1\]"),
            ({"inner": {"low": True}}, "inner.low must be a number, got True"),
            ({"inner": {"high": 1}}, r"inner: unknown fields: \['high'\]"),
            ({"inner": {"low": -1}}, "inner: low must not be negative"),
            ({"rows": [{"name": "r", "shade": 1}]}, r"rows\[0\]\.shade must be one of \['dark', 'light'\], got 1"),
        ],
    )
    def test_an_error_inside_a_nested_record_names_its_key_path(self, changes, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            codec.from_row(Nested, {"home": "h", **changes})

    def test_a_literal_field_reads_as_its_text(self):
        row = {"tone": "warm", "tones": ["cool", "warm"], "maybe": "cool", "by_tone": {"cool": 1}}
        assert codec.from_row(Toned, row) == Toned("warm", ("cool", "warm"), "cool", {"cool": 1})
        assert codec.to_row(codec.from_row(Toned, row)) == {**row, "tones": ("cool", "warm")}
        assert codec.from_row(Toned, {"tone": "cool", "maybe": None}) == Toned("cool")

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"tone": "hot"}, "tone must be one of ['warm', 'cool'], got 'hot'"),
            ({"tone": 1}, "tone must be one of ['warm', 'cool'], got 1"),
            ({"tone": ["warm"]}, "tone must be one of ['warm', 'cool'], got ['warm']"),
            ({"tones": ["warm", "Warm"]}, "tones[1] must be one of ['warm', 'cool'], got 'Warm'"),
            ({"maybe": "hot"}, "maybe must be one of ['warm', 'cool'], got 'hot'"),
            ({"by_tone": {"warm": 1, "hot": 2}}, "by_tone['hot'] must be one of ['warm', 'cool'], got 'hot'"),
            ({"by_tone": {"warm": "1"}}, "by_tone['warm'] must be an integer, got '1'"),
        ],
        ids=["not a member", "not text", "a list", "in a tuple", "or None", "a mapping key", "a mapping value"],
    )
    def test_a_value_outside_a_literal_is_rejected_by_key(self, changes, reason):
        with pytest.raises(ValueError, match="^" + re.escape(reason) + "$"):
            codec.from_row(Toned, {"tone": "warm", **changes})

    def test_every_missing_key_is_named(self):
        with pytest.raises(ValueError, match=r"^missing fields: \['flag', 'params'\]$"):
            codec.from_row(Typed, {key: TYPED[key] for key in ("count", "score", "tokens", "triples")})

    def test_the_field_plan_is_built_once_per_class(self, tmp_path):
        codec._plan.cache_clear()
        path = tmp_path / "rows.jsonl"
        codec.write_jsonl(path, map(codec.to_row, [Row(name, Shade.DARK) for name in "abc"]))
        assert len(codec.read_jsonl(path, Row, "row", by_name)) == 3
        assert codec._plan.cache_info().misses == 1


class TestDocuments:
    @pytest.mark.parametrize(
        "document, reason",
        [
            ('[{"name": "a", "shade": "dark"}, {"name": "b", "shade": 1}]',
             "[1].shade must be one of ['dark', 'light'], got 1"),
            ('[{"name": "a"}]', "[0]: missing fields: ['shade']"),
            ('[{"name": "a", "shade": "dark"}, 1]', "[1]: expected an object, got 1"),
            ('[{"name": "a", "shade": "dark", "tone": 1}]', "[0]: unknown fields: ['tone']"),
            ('[{"name": "a", "shade": "dark", "marks": [[0, "1"]]}]', "[0].marks[0][1] must be an integer, got '1'"),
            ('{"name": "a"}', "expected a list, got {'name': 'a'}"),
        ],
        ids=["key in an item", "item's missing key", "item not an object", "item's unknown key", "deep key",
             "not a list"],
    )
    def test_a_list_of_records_names_the_item_and_key_path(self, tmp_path, document, reason):
        path = tmp_path / "rows.json"
        path.write_text(document, encoding="utf-8")
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: {reason}") + "$"):
            codec.decode_json(path, path.read_bytes(), tuple[Row, ...])

    def test_a_record_check_inside_a_list_or_a_record_names_its_place(self):
        with pytest.raises(ValueError, match=r"^\[1\]: low must not be negative$"):
            codec._decoder(tuple[Inner, ...])([{"low": 1}, {"low": -1}])
        with pytest.raises(ValueError, match=r"^rows\[0\]: missing fields: \['shade'\]$"):
            codec.from_row(Nested, {"home": "h", "rows": [{"name": "r"}]})

    def test_a_document_reads_past_a_byte_order_mark_through_its_object_hook(self):
        blob = codecs.BOM_UTF8 + b'[{"name": "a", "shade": "dark", "marks": null}]'
        drop_nulls = lambda members: {k: v for k, v in members.items() if v is not None}  # noqa: E731
        assert codec.decode_json("doc.json", blob, tuple[Row, ...], drop_nulls) == (Row("a", Shade.DARK),)

    def test_a_bad_byte_names_its_line_and_file_offset(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(codecs.BOM_UTF8 + b'[\r\n{"name": "a",\n "shade": "\xff"}]')
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}:3: ") + ".* in position 31: "):
            codec.decode_json(path, path.read_bytes(), tuple[Row, ...])

    @pytest.mark.parametrize(
        "text, reason",
        [("[", "Expecting value"), ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"), ("", "Expecting")],
        ids=["cut short", "nested too deep", "empty"],
    )
    def test_text_that_is_not_json_is_reported_as_such(self, tmp_path, text, reason):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match="^" + re.escape(f"{path}: not valid JSON: {reason}")):
            codec.decode_json(path, path.read_bytes(), tuple[Row, ...])


# (a valid record of each checked type, a change its check rejects, the message)
CHECKED = [
    (TranslationPair("p1", ("a",), ("b",)), {"pair_id": ""}, "invalid pair id"),
    (Annotation("p1", ("NOUN",), (False,), (), (), ()), {"past_perfect": ()}, "past_perfect length differs"),
    (JudgeConfig(), {"beta": -1.0}, "beta must not be negative"),
    (Verdict("c1", "s", 0.9, 0.9, 0.0, True), {"fail_reason": "large_diff"}, "contradicts passed True"),
    (GoldErrorAnnotation("c1", "s", True, ((0, 1),), ()), {"is_erroneous": False}, "non-erroneous translation"),
    (BackendSpec("b", "translator", "stub"), {"backend_id": ""}, "backend_id must not be empty"),
    (RunConfig(CorpusFiles(Path("p"), Path("a"), Path("n"))), {"jobs": 0}, "jobs must be at least 1, got 0"),
]


class TestCheckedRecords:
    def test_a_call_make_and_replace_each_run_the_check(self):
        for build in (lambda: Inner(-1.0), lambda: Inner._make([-1.0]), lambda: Inner(1.0)._replace(low=-1.0)):
            with pytest.raises(ValueError, match="^low must not be negative$"):
                build()
        assert Inner._make([1.0])._replace(low=2.0) == Inner(2.0)

    @pytest.mark.parametrize("record, change, message", CHECKED, ids=[type(item[0]).__name__ for item in CHECKED])
    def test_every_checked_record_rejects_a_bad_value_however_built(self, record, change, message):
        values = [change.get(name, value) for name, value in zip(record._fields, record)]
        for build in (lambda: type(record)(*values), lambda: type(record)._make(values),
                      lambda: record._replace(**change)):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()
