"""Tests of the benchmark's checker, generator and loopback endpoint.

Run from the repository root: ``python3 -m pytest perfbench``. Each fixture
runs the real CLI on a small seeded workspace; the corruption tests then show
that the checker rejects artifacts a broken program could write.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

import pytest
import requests

from perfbench import check, oracle, workspace
from perfbench.endpoint import LoopbackEndpoint
from perfbench.run import Bench

REPO = Path(__file__).resolve().parent.parent
GRID = (workspace.SWEEP_ALPHAS, workspace.SWEEP_BETAS)
SYSTEM = workspace.BACKEND_IDS["translator"]


def run_pipeline(ws: Path, capability: str, seed: int, endpoint: str | None = None, jobs=1):
    table, predictions = workspace.build_workspace(ws, seed, 40, capability, 3)
    workspace.write_config(ws, capability, 3, seed, jobs, table, endpoint is None, endpoint)
    Bench(REPO, "warm-cache", seed, False).run_stages(ws, False, None)
    return table, predictions


@pytest.fixture(scope="module", params=["noun", "general"])
def clean_run(request, tmp_path_factory):
    ws = tmp_path_factory.mktemp(request.param)
    run_pipeline(ws, request.param, 7)
    return ws


def corrupted(clean: Path, tmp_path: Path, name: str, edit) -> Path:
    """A copy of a clean workspace with one artifact rewritten by ``edit``."""
    ws = tmp_path / "ws"
    shutil.copytree(clean, ws, ignore=shutil.ignore_patterns("cache"))
    path = ws / "out" / name
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    return ws


def test_clean_run_passes(clean_run):
    assert check.check_run(clean_run, clean_run / "out", GRID, SYSTEM) == []


def test_every_planted_outcome_occurs(clean_run):
    cases = check.read_jsonl(clean_run / "out" / "cases.jsonl")
    verdicts = check.read_jsonl(clean_run / "out" / "verdicts.jsonl")
    assert {c["filter_status"] for c in cases} == {"kept", "dropped_identical", "dropped_quality"}
    assert {v["fail_reason"] for v in verdicts} == {None, "low_base_quality", "large_diff"}


def test_flipped_verdict_is_rejected(clean_run, tmp_path):
    def flip(rows):
        rows[0]["passed"] = not rows[0]["passed"]
        return rows

    ws = corrupted(clean_run, tmp_path, "verdicts.jsonl", flip)
    problems = check.check_run(ws, ws / "out", GRID, SYSTEM)
    assert any("verdict differs" in p for p in problems)


def test_dropped_case_is_rejected(clean_run, tmp_path):
    ws = corrupted(clean_run, tmp_path, "cases.jsonl", lambda rows: rows[:5] + rows[6:])
    problems = check.check_run(ws, ws / "out", GRID, SYSTEM)
    assert any("predicted" in p for p in problems)


def test_edited_r_prime_is_rejected(clean_run, tmp_path):
    def edit(rows):
        kept = next(r for r in rows if r["filter_status"] == "kept")
        kept["r_prime"] = kept["r_prime"][:-1] + ["edited"]
        return rows

    ws = corrupted(clean_run, tmp_path, "cases.jsonl", edit)
    problems = check.check_run(ws, ws / "out", GRID, SYSTEM)
    assert any("r' is not r" in p for p in problems)


@pytest.mark.parametrize("capability", ["noun", "general"])
def test_generator_is_seeded(capability):
    first = workspace.generate_corpus(3, 30, capability, 3)
    assert workspace.generate_corpus(3, 30, capability, 3) == first
    assert workspace.generate_corpus(4, 30, capability, 3) != first


def test_brute_force_extraction_rejects_shared_reference_word():
    pair = oracle.Pair(
        "p", ("a", "b", "c"), ("x", "y"), frozenset({(0, 0), (1, 0), (2, 1)}),
        ("NOUN", "NOUN", "VERB"), (False,) * 3, (), (), (),
    )
    assert [seg.src for seg in oracle.editable_segments(pair)] == [(2, 3)]


def test_endpoint_run_matches_and_counts(tmp_path):
    ws = tmp_path / "ws"
    _, table, _ = workspace.generate_corpus(5, 40, "noun", 3)
    endpoint = LoopbackEndpoint(workspace.FILLS, table, 0.001, 2).start()
    try:
        run_pipeline(ws, "noun", 5, endpoint.url, jobs=2)
        seen = endpoint.stats.snapshot()
    finally:
        endpoint.stop()
    assert check.check_run(ws, ws / "out", GRID, SYSTEM) == []
    expected = check.expected_requests(ws, ws / "out")
    for slot, want in expected.items():
        assert want["distinct"] <= seen["requests"][slot] <= want["requests"]
        assert seen["distinct"][slot] == want["distinct"]
    # Bounds, not today's count: connection reuse must pass as well.
    assert 1 <= seen["connections"] <= sum(seen["requests"].values())
    assert 1 <= seen["max_in_flight"] <= 2


def test_endpoint_keep_alive_has_no_ack_stall():
    endpoint = LoopbackEndpoint(workspace.FILLS, {}, 0.001, 2).start()
    try:
        with requests.Session() as session:
            url = f"{endpoint.url}/scorer_ref_free"
            session.post(url, json={"src": "a b", "hyp": "a"}).raise_for_status()
            started = time.perf_counter()
            for _ in range(20):
                reply = session.post(url, json={"src": "a b", "hyp": "a"})
                assert reply.json() == {"score": 0.5}
            per_call = (time.perf_counter() - started) / 20
        assert endpoint.stats.snapshot()["connections"] == 1
    finally:
        endpoint.stop()
    # A reply split over two writes waits ~40 ms for the delayed ACK.
    assert per_call < 0.02


def test_endpoint_ready_probe_passes():
    endpoint = LoopbackEndpoint(workspace.FILLS, {}, 0.001, 1).start()
    try:
        assert endpoint.ready()
    finally:
        endpoint.stop()


def test_idle_keep_alive_connections_hold_no_worker():
    """More open keep-alive connections than workers, used in turn from two
    threads as generate uses its infill and QE clients: no call waits for
    another connection to go idle or time out."""
    delay, calls = 0.005, 10
    endpoint = LoopbackEndpoint(workspace.FILLS, {}, delay, 2).start()
    slowest = []

    def client():
        url = f"{endpoint.url}/scorer_ref_free"
        with requests.Session() as first, requests.Session() as second:
            worst = 0.0
            for k in range(calls):
                started = time.perf_counter()
                reply = (first if k % 2 else second).post(url, json={"src": "a b", "hyp": "a"})
                worst = max(worst, time.perf_counter() - started)
                assert reply.json() == {"score": 0.5}
            slowest.append(worst)

    try:
        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        seen = endpoint.stats.snapshot()
    finally:
        endpoint.stop()
    assert len(slowest) == 2
    assert seen["connections"] == 4
    assert seen["requests"]["scorer_ref_free"] == 2 * calls
    assert 1 <= seen["max_in_flight"] <= 2
    # A connection bound to a handler until it times out stalls a call by seconds.
    assert max(slowest) < 0.5
