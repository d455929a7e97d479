"""The artifact codec: atomic writes and dataclass-driven rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import pytest

from mtbehave import codec
from mtbehave.corpus import CorpusError


class Shade(str, Enum):
    DARK = "dark"
    LIGHT = "light"


@dataclass(frozen=True)
class Row:
    name: str
    shade: Shade
    spans: tuple[tuple[int, int], ...] = field(default=(), metadata={"key": "marks"})


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
        assert codec.read_jsonl(path, Row, "row") == rows

    def test_a_missing_key_takes_the_default(self):
        assert codec.from_row(Row, {"name": "a", "shade": "light"}) == Row("a", Shade.LIGHT)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"name": "a"}', "'shade'"),
            ('{"name": "a", "shade": "grey"}', "'grey' is not a valid Shade"),
            ("[1, 2]", "'name'"),
            ("not json", "Expecting value"),
        ],
    )
    def test_a_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"name": "ok", "shade": "dark"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"rows.jsonl:2: bad row: {reason}"):
            codec.read_jsonl(path, Row, "row")

    def test_the_field_plan_is_built_once_per_class(self, tmp_path, monkeypatch):
        calls = []
        real = codec.fields
        monkeypatch.setattr(codec, "fields", lambda cls: calls.append(cls) or real(cls))
        codec._plan.cache_clear()
        path = tmp_path / "rows.jsonl"
        codec.write_jsonl(path, map(codec.to_row, [Row("a", Shade.DARK)] * 3))
        assert len(codec.read_jsonl(path, Row, "row")) == 3
        assert calls == [Row]
