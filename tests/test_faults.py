"""Reruns converge under injected faults.

A seeded faulty transport wraps the stub behind each backend of the C07 stub
workspace. Whether a request's k-th attempt fails, and how, depends only on
the seed, the request and k, so the threads of ``jobs`` 4 meet the same
faults as ``jobs`` 1. Under every schedule hypothesis draws, ``generate_cases``
and ``score_records`` return normally, each case and record that carries no
error equals the fault-free run's, no failed request leaves a cache row, and a
fault-free rerun on the same cache writes the fault-free run's bytes, even after
a share of the cache rows were given values of another JSON type.
"""

from __future__ import annotations

import json
import random
import sqlite3
import tempfile
import threading
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from mtbehave.backends import (
    Backend,
    BackendSpec,
    BackendTimeout,
    HttpStatusError,
    ResponseCache,
    _StubTransport,
    canonical_request_digest,
)
from mtbehave.casegen import generate_cases, write_cases
from mtbehave.cli import RunConfig, load_run_config
from mtbehave.codec import from_row
from mtbehave.corpus import load_corpus
from mtbehave.judge import judge_records, score_records, write_records, write_verdicts

from conftest import cache_rows, extract_all, pairs_by_id
from test_acceptance import build_stub_workspace

SLOTS = ("infill", "scorer_ref_free", "translator", "scorer_ref_based")
ARTIFACTS = ("cases.jsonl", "records.jsonl", "verdicts.jsonl")


def _raise(exc: Exception):
    raise exc


def _cut_short(kind: str, reply: dict) -> dict:
    """The reply cut short: a chat reply stopped at its token limit, a score under another key."""
    if kind.startswith("scorer_"):
        return {"value": reply["score"]}
    return {"choices": [{**reply["choices"][0], "finish_reason": "length"}]}


# Each fault takes the backend kind and the stub's reply: four raise, the other two
# return a reply that the backend cannot read (a chat reply without choices or one
# cut short, a score that is text or one that has no score field).
FAULTS = (
    lambda kind, reply: _raise(BackendTimeout("injected timeout")),
    lambda kind, reply: _raise(HttpStatusError(429)),
    lambda kind, reply: _raise(HttpStatusError(503)),
    lambda kind, reply: _raise(HttpStatusError(400)),
    lambda kind, reply: {"score": "high"} if kind.startswith("scorer_") else {"choices": []},
    _cut_short,
)


class FaultyTransport:
    """The stub, except that a request's k-th attempt fails with probability ``rate``,
    drawn from ``(seed, request, k)``. ``failed`` holds each request whose last
    attempt failed."""

    def __init__(self, spec: BackendSpec, seed: int, rate: float):
        self.stub, self.kind, self.seed, self.rate = _StubTransport(spec), spec.kind, seed, rate
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.failed: dict[str, dict] = {}

    def send(self, request: dict) -> object:
        text = json.dumps(request, sort_keys=True, ensure_ascii=False)
        with self.lock:
            attempt = self.attempts[text] = self.attempts.get(text, 0) + 1
            draw = random.Random(f"{self.seed}:{attempt}:{text}")
            fault = draw.choice(FAULTS) if draw.random() < self.rate else None
            if fault is None:
                self.failed.pop(text, None)
            else:
                self.failed[text] = request
        reply = self.stub.send(request)
        return reply if fault is None else fault(self.kind, reply)


def run_stages(config, extracted, backends, jobs: int, out: Path):
    """``generate`` then ``judge`` in process, writing their three artifacts to ``out``."""
    infill, qe, translator, scorer = backends
    cases = generate_cases(
        extracted, config.capability, config.per_pair, infill, qe, config.judge.beta, config.seed, jobs
    )
    records = score_records(cases, pairs_by_id(extracted), translator, scorer, jobs)
    out.mkdir()
    write_cases(cases, out / "cases.jsonl")
    write_records(records, out / "records.jsonl")
    write_verdicts(judge_records(records, config.judge), out / "verdicts.jsonl")
    return cases, records


def specs(config) -> list[BackendSpec]:
    return [from_row(BackendSpec, {"kind": slot, **config.backends[slot]}) for slot in SLOTS]


class FaultFree(NamedTuple):
    config: RunConfig
    extracted: list
    cases: list
    records: list
    artifacts: dict[str, bytes]

    def __repr__(self) -> str:  # hypothesis prints it with each falsifying example
        return "<the fault-free C07 run>"


@pytest.fixture(scope="module")
def fault_free(tmp_path_factory) -> FaultFree:
    """The C07 config and extracted corpus, and the fault-free run's cases, records and artifact bytes."""
    root = tmp_path_factory.mktemp("c07")
    config, _ = load_run_config(build_stub_workspace(root))
    extracted = extract_all(load_corpus(config.corpus.pairs, config.corpus.alignments, config.corpus.annotations))
    cases, records = run_stages(config, extracted, [Backend(spec) for spec in specs(config)], 1, root / "out")
    assert all(case.error is None for case in cases) and all(record.error is None for record in records)
    return FaultFree(config, extracted, cases, records, {name: (root / "out" / name).read_bytes() for name in ARTIFACTS})


# Stored values of another JSON type than a backend's answer: text for a chat kind, a finite float for a scorer.
WRONG_TYPES = {
    "chat": ("7", "null", "true", "[]", '{"content": "x"}'),
    "scorer": ('"0.5"', "true", "null", "1", "[0.5]", '{"score": 0.5}', "NaN"),
}


def corrupt_rows(cache: ResponseCache, rows: dict, kinds: dict[str, str], seed: int, rate: float) -> None:
    """Give a ``rate`` share of the cache ``rows``, drawn from ``seed``, a value of another JSON type."""
    draw = random.Random(f"{seed}:corrupt")
    damage = [
        (draw.choice(WRONG_TYPES["scorer" if kinds[backend_id].startswith("scorer_") else "chat"]), backend_id, digest)
        for backend_id, digest in sorted(rows)
        if draw.random() < rate
    ]
    cache.close()
    if not damage:  # the file may not exist: no answer came
        return
    with closing(sqlite3.connect(cache.path)) as db, db:
        db.executemany("UPDATE entries SET value = ? WHERE backend_id = ? AND digest = ?", damage)


@pytest.mark.parametrize("jobs", [1, 4])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32), rate=st.sampled_from([0.05, 0.2, 0.5, 1.0]))
def test_faults_fail_only_their_own_cases_and_a_rerun_converges(fault_free, jobs, seed, rate):
    config, extracted, clean_cases, clean_records, clean_bytes = fault_free
    slots = specs(config)
    with tempfile.TemporaryDirectory() as temp:
        temp = Path(temp)
        cache = ResponseCache(temp / "cache")
        transports = [FaultyTransport(spec, seed, rate) for spec in slots]
        backends = [
            Backend(spec, cache, transport, sleep=lambda seconds: None)
            for spec, transport in zip(slots, transports)
        ]
        cases, records = run_stages(config, extracted, backends, jobs, temp / "faulty")

        assert [case.case_id for case in cases] == [case.case_id for case in clean_cases]
        for case, clean in zip(cases, clean_cases):
            assert case.error_kind in (None, "backend", "parse")
            assert case.error is not None or case == clean
        clean_by_id = {record.case_id: record for record in clean_records}
        for record in records:
            assert record.error_kind in (None, "backend", "parse")
            assert record.error is not None or record == clean_by_id[record.case_id]

        rows = cache_rows(cache) if cache.path.exists() else {}  # no answer came, no file
        for spec, transport in zip(slots, transports):
            for request in transport.failed.values():
                assert (spec.backend_id, canonical_request_digest(spec.backend_id, request)) not in rows

        corrupt_rows(cache, rows, {spec.backend_id: spec.kind for spec in slots}, seed, rate)
        run_stages(config, extracted, [Backend(spec, cache) for spec in slots], jobs, temp / "rerun")
        cache.close()
        assert {name: (temp / "rerun" / name).read_bytes() for name in ARTIFACTS} == clean_bytes
