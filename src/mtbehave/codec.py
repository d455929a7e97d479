"""One codec for every file the pipeline writes and every JSON record it reads.

Row artifacts (segments, cases, records, verdicts, gold rows, corpus
annotations) are JSON Lines; documents (manifest, sweep, eval, report) are
indented JSON. A record is a ``typing.NamedTuple``: its fields give its row's keys
in order, and a class-level ``_keys`` mapping renames a field's key. A record with a
``_check`` method is declared with :func:`checked`, so that every way of building one runs it.

Reading checks every key of a record (a JSON Lines row, a backend spec, the
run config, a manifest entry) against its field's type and converts the value in the same pass:
a JSON integer reads as a number, and neither a boolean nor NaN nor an
infinity is one; a path is a string; an enum or a ``Literal`` field is one of its texts;
a ``Mapping[K, V]`` is an object whose keys read as ``K`` and values as ``V`` (``object``
is any JSON value, kept as read); a record is an object read the same
way, and an error inside either names the key path (``judge.alpha``, ``inputs['a']``,
``[1].seed`` in a list). A missing key takes the field's default, or is an error where
there is none; an unknown key is an error. CorpusError reports a bad line of a JSON Lines
file as ``path:line: bad <what>: <reason>``, the reason naming the key; a line whose record
key an earlier line has as ``path:line: duplicate <what> <key>``; a bad JSON document (the
run config, the manifest) as ``path: not valid JSON: <reason>`` or ``path: <reason>``; and
a byte that is not UTF-8 in a text input as ``path:line: <reason>``. A leading byte-order
mark is read past.

Every write fills a temporary file beside the target and renames it over the
target, so an interrupted stage leaves the previous file, never half of one.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import threading
from collections.abc import Mapping
from contextlib import contextmanager
from enum import Enum
from functools import cache, partial
from itertools import repeat
from pathlib import Path
from types import NoneType, UnionType
from typing import Callable, ForwardRef, Iterable, Literal, Union, get_args, get_origin

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


class CorpusError(ValueError):
    """Malformed input data; the message names the file and line."""


class _Mismatch(ValueError):
    """A JSON value of another type than its field's, or with ``expected`` None a record
    that breaks a rule of its own, ``value`` saying which. ``where`` is its key path, built
    up as the error leaves each list and record (".judge.alpha", ".spans[2]", "[1].seed")."""

    def __init__(self, expected: str | None, value: object):
        self.expected, self.value, self.where = expected, value, ""

    def __str__(self) -> str:
        where = self.where.removeprefix(".")
        if self.expected is None:
            return f"{where}: {self.value}" if where else self.value
        if not where:  # a whole JSON document
            return f"expected {self.expected}, got {self.value!r}"
        return f"{where} must be {self.expected}, got {self.value!r}"


def _exact(kind: type, expected: str) -> Callable[[object], object]:
    def decode(value):
        if type(value) is not kind:  # so True is no integer
            raise _Mismatch(expected, value)
        return value

    return decode


def number(value) -> float:
    """A JSON number as a float; ValueError for anything else, a bool included."""
    if type(value) is float and math.isfinite(value):  # json reads bare NaN and Infinity
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:  # float() of a larger one overflows
        return float(value)
    raise _Mismatch("a number", value)


def _member(members: Mapping[str, object]) -> Callable[[object], object]:
    """A text that is one of ``members``' keys, decoded as its value."""

    def decode(value):
        if type(value) is not str or value not in members:
            raise _Mismatch(f"one of {list(members)}", value)
        return members[value]

    return decode


def _item(decode: Callable[[object], object], value: object, key: int | str) -> object:
    """``decode(value)`` for the item at ``key`` of a list or an object."""
    try:
        return decode(value)
    except _Mismatch as exc:
        exc.where = f"[{key!r}]{exc.where}"
        raise


def _tuple(items: tuple, variadic: bool, whole: set[type]) -> Callable[[object], tuple]:
    """A list as a tuple: every item decoded by ``items[0]``, or the k-th by ``items[k]``.
    A list whose items' types are all in ``whole`` is taken as it is, with no call per item."""
    expected = "a list" if variadic else f"a list of {len(items)} items"

    def decode(value):
        if type(value) is not list or not variadic and len(value) != len(items):
            raise _Mismatch(expected, value)
        if set(map(type, value)) <= whole:
            return tuple(value)
        return tuple(map(_item, repeat(items[0]) if variadic else items, value, range(len(value))))

    return decode


_SCALARS = {str: "a string", int: "an integer", bool: "a boolean"}


def _decoder(hint) -> Callable[[object], object]:
    """The function that checks a JSON value against ``hint`` and converts it."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _SCALARS:
        return _exact(hint, _SCALARS[hint])
    if hint is float:
        return number
    if hint is Path:
        string = _exact(str, "a string")
        return lambda value: Path(string(value))
    if hint is object:  # any JSON value
        return lambda value: value
    if isinstance(hint, type) and issubclass(hint, Enum):  # every enum read here has text values
        return _member({member.value: member for member in hint})
    if origin is Literal:  # and so has every Literal
        return _member(dict(zip(args, args)))
    if origin is Mapping:  # a JSON object; Mapping[str, object] is kept as read
        whole = _exact(dict, "an object")
        if args == (str, object):
            return whole
        keys, values = map(_decoder, args)
        return lambda value: {_item(keys, key, key): _item(values, item, key) for key, item in whole(value).items()}
    if origin in (UnionType, Union) and len(args) == 2 and NoneType in args:  # Literal[...] | None is a Union
        inner = _decoder(args[0] if args[1] is NoneType else args[1])
        return lambda value: None if value is None else inner(value)
    if origin is tuple:
        variadic = len(args) == 2 and args[1] is Ellipsis
        kinds = set(args) - {Ellipsis}  # one scalar type for all items, as in Span, or none
        whole = kinds if len(kinds) == 1 and kinds <= _SCALARS.keys() else set()
        return _tuple(tuple(map(_decoder, args[:1] if variadic else args)), variadic, whole)
    if isinstance(hint, type) and issubclass(hint, tuple):  # a record
        return partial(from_row, hint)
    raise TypeError(f"no JSON decoder for {hint!r}")


def checked(cls: type) -> type:
    """Make ``cls(...)``, ``cls._make`` and so ``record._replace`` run ``record._check()``
    on each new ``cls`` record: a NamedTuple may not define ``__new__`` or ``_make`` itself."""
    new, make = cls.__new__, cls._make.__func__

    def check(record):
        record._check()
        return record

    cls.__new__ = staticmethod(lambda kind, /, *args, **kwargs: check(new(kind, *args, **kwargs)))
    cls._make = classmethod(lambda kind, iterable: check(make(kind, iterable)))
    return cls


@cache
def _plan(cls: type) -> tuple[tuple[str, str, type[Enum] | None, bool, Callable[[object], object]], ...]:
    """(attribute, key, enum class or None, required, decoder) per field of ``cls``."""
    # Postponed evaluation leaves each annotation a string, which NamedTuple wraps in a ForwardRef.
    namespace, keys = vars(sys.modules[cls.__module__]), getattr(cls, "_keys", {})
    plan = []
    for name in cls._fields:
        hint = cls.__annotations__[name]
        hint = eval(hint.__forward_arg__, namespace) if isinstance(hint, ForwardRef) else hint
        enum = hint if isinstance(hint, type) and issubclass(hint, Enum) else None
        required = name not in cls._field_defaults
        plan.append((name, keys.get(name, name), enum, required, _decoder(hint)))
    return tuple(plan)


def row_keys(cls: type) -> list[str]:
    """The keys of a ``cls`` row, in the order ``to_row`` writes them."""
    return [key for _, key, _, _, _ in _plan(cls)]


def to_row(obj: object) -> dict:
    row = {}
    for name, key, enum, _, _ in _plan(type(obj)):
        value = getattr(obj, name)
        row[key] = value.value if enum is not None else value
    return row


def from_row(cls: type, row: object):
    """A ``cls`` from one JSON object; ValueError names the first key that does not fit."""
    if type(row) is not dict:
        raise _Mismatch(None, f"expected an object, got {row!r}")
    kwargs, missing = {}, []
    try:
        for name, key, _, required, decode in _plan(cls):
            if key in row:
                kwargs[name] = decode(row[key])
            elif required:
                missing.append(key)
    except _Mismatch as exc:
        exc.where = f".{key}{exc.where}"
        raise
    if missing:
        raise _Mismatch(None, f"missing fields: {missing}")
    if len(kwargs) < len(row):
        raise _Mismatch(None, f"unknown fields: {sorted(set(row).difference(row_keys(cls)))}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the class's check
        raise _Mismatch(None, str(exc)) from None


def _text(path, blob: bytes) -> str:
    """``path``'s bytes ``blob`` as UTF-8 text, past a leading byte-order mark;
    a byte that is not UTF-8 raises CorpusError ``path:line: …``."""
    try:  # not "utf-8-sig": it decodes the bytes after the mark, so a bad byte's position would be off by 3
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = blob[: exc.start]  # line ends as text mode splits them
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise CorpusError(f"{path}:{lineno}: {exc}") from None
    return text.removeprefix("\ufeff")


def read_lines(path) -> list[str]:
    """A UTF-8 file's lines as text mode reads them, past a leading byte-order mark."""
    return io.StringIO(_text(path, Path(path).read_bytes()), newline=None).readlines()


def decode_json(path, blob: bytes, hint, object_hook: Callable[[dict], dict] | None = None):
    """``path``'s bytes ``blob``, a JSON document, as ``hint``; CorpusError names the
    file, and the line of a byte that is not UTF-8."""
    text = _text(path, blob)
    try:
        document = json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CorpusError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return _decoder(hint)(document)
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def read_jsonl(path, cls: type, what: str, key: Callable[[object], object]) -> dict:
    """One ``cls`` per line, each under ``key(record)`` in file order; a bad line, or one
    whose key an earlier line has, raises CorpusError naming file and line."""
    records = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        try:
            if not line.strip():
                raise ValueError("blank line")
            record = from_row(cls, json.loads(line))
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise CorpusError(f"{path}:{lineno}: bad {what}: {exc}") from exc
        if (name := key(record)) in records:
            raise CorpusError(f"{path}:{lineno}: duplicate {what} {name!r}")
        records[name] = record
    return records
