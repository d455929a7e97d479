"""One codec for every file the pipeline writes and every artifact it reads back.

Row artifacts (segments, cases, records, verdicts, gold rows) are JSON Lines;
documents (manifest, sweep, eval, report) are indented JSON. A dataclass's
fields give its row's keys in order: ``metadata={"key": ...}`` renames a key,
and ``None`` there leaves the field out. Reading turns lists into tuples and
enum values into members; a missing key takes the field's default.

Every write fills a temporary file beside the target and renames it over the
target, so an interrupted stage leaves the previous file, never half of one.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import MISSING, fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterable, get_type_hints

from .corpus import CorpusError

_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


@contextmanager
def _replacing(path):
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with _replacing(path) as handle:
        handle.write(text)


def json_text(document: object) -> str:
    return json.dumps(document, indent=2) + "\n"


def write_json(path, document: object) -> None:
    write_text(path, json_text(document))


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with _replacing(path) as handle:
        handle.writelines(_ROW_ENCODER.encode(row) + "\n" for row in rows)


@cache
def _plan(cls: type) -> tuple[tuple[str, str, type[Enum] | None, bool], ...]:
    """(attribute, key, enum class or None, required) per stored field of ``cls``."""
    hints = get_type_hints(cls)
    plan = []
    for item in fields(cls):
        key = item.metadata.get("key", item.name)
        if key is not None:
            hint = hints[item.name]
            enum = hint if isinstance(hint, type) and issubclass(hint, Enum) else None
            required = item.default is MISSING and item.default_factory is MISSING
            plan.append((item.name, key, enum, required))
    return tuple(plan)


def to_row(obj: object) -> dict:
    row = {}
    for name, key, enum, _ in _plan(type(obj)):
        value = getattr(obj, name)
        row[key] = value.value if enum is not None else value
    return row


def _tuples(value: list) -> tuple:
    # Artifact lists are homogeneous: tokens, or spans that are lists themselves.
    if value and isinstance(value[0], list):
        return tuple(map(_tuples, value))
    return tuple(value)


def from_row(cls: type, row: dict):
    kwargs = {}
    for name, key, enum, required in _plan(cls):
        if key in row:
            value = row[key]
            if enum is not None:
                value = enum(value)
            elif isinstance(value, list):
                value = _tuples(value)
            kwargs[name] = value
        elif required:
            raise KeyError(key)
    return cls(**kwargs)


def read_jsonl(path, cls: type, what: str) -> list:
    """One ``cls`` per line; a bad line raises CorpusError naming file and line."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                rows.append(from_row(cls, json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad {what}: {exc}") from exc
    return rows
