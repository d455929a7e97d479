"""Shared builders for the test suite.

Most tests need a corpus triple (pair, alignment, annotation) with only one or
two interesting properties; the builders here fill everything else with quiet
defaults (OTHER tags, no past perfect, no NE or phrase spans).
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import closing

import pytest

from mtbehave.backends import Backend, BackendSpec, ResponseCache
from mtbehave.corpus import AlignmentSet, Annotation, Corpus, TranslationPair


def make_pair(pair_id="p1", source="the shop closed early", reference="商店 很早 关门"):
    """Build a pair from space-joined strings (or ready token tuples)."""
    if isinstance(source, str):
        source = tuple(source.split(" "))
    if isinstance(reference, str):
        reference = tuple(reference.split(" "))
    return TranslationPair(pair_id, tuple(source), tuple(reference))


def make_alignment(pair, links):
    return AlignmentSet(pair.pair_id, frozenset(links))


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
    """Assemble a Corpus from (pair, links, annotation) triples.

    ``links`` may be an AlignmentSet, an iterable of (i, j), or None for
    identity links. ``annotation`` may be None for the quiet default.
    """
    pairs = {}
    alignments = {}
    annotations = {}
    for pair, links, annotation in triples:
        pairs[pair.pair_id] = pair
        if links is None:
            links = identity_links(pair)
        if not isinstance(links, AlignmentSet):
            links = make_alignment(pair, links)
        alignments[pair.pair_id] = links
        annotations[pair.pair_id] = annotation or make_annotation(pair)
    return Corpus(pairs, alignments, annotations)


def stub_spec(backend_id, kind, **stub_params):
    return BackendSpec(backend_id, kind, "stub", stub_params=stub_params)


def stub_backend(backend_id, kind, cache=None, **stub_params):
    return Backend(stub_spec(backend_id, kind, **stub_params), cache=cache)


class RecordingTransport:
    """Transport wrapper that counts upstream calls; thread-safe.

    ``inner`` may be another transport or a plain callable
    ``(request, context) -> parsed reply``.
    """

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = []

    def send(self, request, context=None):
        with self._lock:
            self.calls.append(request)
        if hasattr(self._inner, "send"):
            return self._inner.send(request, context)
        return self._inner(request, context)

    @property
    def call_count(self):
        return len(self.calls)


@pytest.fixture
def response_cache(tmp_path):
    return ResponseCache(tmp_path / "cache")


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
