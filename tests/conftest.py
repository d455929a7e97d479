"""Shared builders for the test suite.

Most tests need a corpus triple (pair, links, annotation) with only one or
two interesting properties; the builders here fill everything else with quiet
defaults (OTHER tags, no past perfect, no NE or phrase spans).
"""

from __future__ import annotations

import io
import signal
import sqlite3
import threading
from contextlib import closing, redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest

from mtbehave.backends import _SELECT_BACKEND, Backend, BackendSpec, ResponseCache
from mtbehave.cli import main
from mtbehave.corpus import Annotation, TranslationPair
from mtbehave.segmentation import extract_editable


def pytest_configure(config):
    """A test run started with SIGINT ignored (as a background job of a non-interactive
    shell, or under nohup) would hand the ignored signal on to every process it starts,
    and a child mtbehave would never see the SIGINT a test sends it. A Python-level
    handler is reset to the default in an exec'ed child, so each child starts with it."""
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)


def make_pair(pair_id="p1", source="the shop closed early", reference="商店 很早 关门"):
    """Build a pair from space-joined strings (or ready token tuples)."""
    if isinstance(source, str):
        source = tuple(source.split(" "))
    if isinstance(reference, str):
        reference = tuple(reference.split(" "))
    return TranslationPair(pair_id, tuple(source), tuple(reference))


def identity_links(pair):
    n = min(len(pair.source), len(pair.reference))
    return frozenset((i, i) for i in range(n))


def make_annotation(pair, pos=None, past_perfect=None, ne=(), phrases_src=(), phrases_ref=()):
    if pos is None:
        pos = ("OTHER",) * len(pair.source)
    if past_perfect is None:
        past_perfect = (False,) * len(pair.source)
    return Annotation(
        pair.pair_id,
        tuple(pos),
        tuple(past_perfect),
        tuple(ne),
        tuple(phrases_src),
        tuple(phrases_ref),
    )


def make_corpus(*triples):
    """The (pair, links, annotation) triples in the order given, as ``load_corpus`` returns them.

    ``links`` may be an iterable of (i, j), or None for identity links.
    ``annotation`` may be None for the quiet default.
    """
    return [
        (pair, identity_links(pair) if links is None else frozenset(links), annotation or make_annotation(pair))
        for pair, links, annotation in triples
    ]


def extract_all(corpus):
    """Each pair of a corpus with its editable segments, as ``generate_cases`` takes them."""
    return [(pair, extract_editable(pair, links, annotation)) for pair, links, annotation in corpus]


def pairs_by_id(corpus):
    """The pairs of a corpus or of its extraction, keyed by id, as ``score_records`` takes them."""
    return {pair.pair_id: pair for pair, *_ in corpus}


def stub_spec(backend_id, kind, **stub_params):
    return BackendSpec(backend_id, kind, "stub", stub_params=stub_params)


def stub_backend(backend_id, kind, cache=None, **stub_params):
    return Backend(stub_spec(backend_id, kind, **stub_params), cache=cache)


class RecordingTransport:
    """Transport wrapper that counts upstream calls; thread-safe.

    ``inner`` may be another transport or a plain callable
    ``request -> parsed reply``.
    """

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = []

    def send(self, request):
        with self._lock:
            self.calls.append(request)
        return self._reply(request)

    def _reply(self, request):
        if hasattr(self._inner, "send"):
            return self._inner.send(request)
        return self._inner(request)

    @property
    def call_count(self):
        return len(self.calls)


class HoldingTransport(RecordingTransport):
    """Recording transport that holds its ``hold_at``-th request until ``release``
    is set, for at most ``timeout`` seconds, so a test that waits on another
    thread fails instead of hanging. ``released`` tells whether the release came.
    """

    def __init__(self, inner, hold_at, release, timeout=10.0):
        super().__init__(inner)
        self.hold_at, self.release, self.timeout = hold_at, release, timeout
        self.released = None

    def send(self, request):
        with self._lock:
            self.calls.append(request)
            hold = len(self.calls) == self.hold_at
        if hold:
            self.released = self.release.wait(self.timeout)
        return self._reply(request)


def signalling(inner, event):
    """Recording transport that sets ``event`` on each request it receives."""

    def send(request):
        event.set()
        return inner.send(request) if hasattr(inner, "send") else inner(request)

    return RecordingTransport(send)


@pytest.fixture
def response_cache(tmp_path):
    return ResponseCache(tmp_path / "cache")


@pytest.fixture
def sql_statements(monkeypatch) -> list[str]:
    """Every SQL statement run on a connection that ``sqlite3.connect`` opens from now on."""
    statements = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(statements.append)
        return db

    monkeypatch.setattr(sqlite3, "connect", traced)
    return statements


def backend_reads(statements: list[str]) -> list[str]:
    """The backend ids whose rows the traced statements read, in order."""
    prefix = _SELECT_BACKEND.removesuffix("?")  # the trace shows the bound id in quotes
    return [s[len(prefix):].strip("'") for s in statements if s.startswith(prefix)]


def cache_rows(cache: ResponseCache) -> dict:
    """Commit the cache's buffered puts; then {(backend_id, digest): (fingerprint, value)}."""
    cache.close()
    with closing(sqlite3.connect(cache.path)) as db:
        return {(b, d): (f, v) for b, d, f, v in db.execute("SELECT * FROM entries")}


def damage_cache_row(cache: ResponseCache, backend_id: str, digest: str, **columns) -> None:
    """Commit the cache's buffered puts, then overwrite columns of one committed row."""
    cache.close()
    assignments = ", ".join(f"{name} = ?" for name in columns)
    with closing(sqlite3.connect(cache.path)) as db, db:
        cursor = db.execute(
            f"UPDATE entries SET {assignments} WHERE backend_id = ? AND digest = ?",
            (*columns.values(), backend_id, digest),
        )
        assert cursor.rowcount == 1


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a failed run, or what escaped main

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args) -> CliResult:
    """Call the CLI's ``main`` in this process with its stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main([str(arg) for arg in args])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), exception)
