"""Tests for backend specs, transports, caching, and the retry loop."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import mtbehave
from mtbehave.backends import (
    _COMMIT_EVERY,
    Backend,
    BackendError,
    BackendSpec,
    BackendTimeout,
    CacheMissError,
    HttpStatusError,
    MalformedReplyError,
    NonNumericReplyError,
    ResponseCache,
    _extract_score,
    canonical_request_digest,
    chat_request,
    map_distinct,
    map_jobs,
    unwrap,
)

from conftest import RecordingTransport, cache_rows, damage_cache_row, stub_backend, stub_spec


def infill_spec(**fields):
    return {"backend_id": "b", "kind": "infill", "transport": "stub", **fields}


class TestBackendSpec:
    def test_defaults(self):
        spec = BackendSpec("b1", "infill", "stub")
        assert spec.timeout == 30.0
        assert spec.max_retries == 2
        assert spec.stub_params == {}

    @pytest.mark.parametrize(
        "kwargs, pattern",
        [
            (dict(backend_id="", kind="infill", transport="stub"), "backend_id"),
            (dict(backend_id="b", kind="oracle", transport="stub"), "unknown backend kind"),
            (dict(backend_id="b", kind="infill", transport="carrier-pigeon"), "unknown transport"),
            (dict(backend_id="b", kind="infill", transport="http"), "requires an endpoint"),
            (dict(backend_id="b", kind="infill", transport="stub", timeout=0), "timeout"),
            (dict(backend_id="b", kind="infill", transport="stub", max_retries=-1), "max_retries"),
            (infill_spec(backend_id=5), "backend_id must be a string, got 5"),
            (infill_spec(transport="http", endpoint=5), "endpoint must be a string"),
            (infill_spec(model_name=["m"]), "model_name must be a string"),
            (infill_spec(auth_env_var=1), "auth_env_var must be a string"),
            (infill_spec(timeout=True), "timeout must be a number, got True"),
            (infill_spec(timeout="5"), "timeout must be a number, got '5'"),
            (infill_spec(timeout=float("nan")), "timeout must be positive"),
            (infill_spec(max_retries=1.5), "max_retries must be an integer, got 1.5"),
            (infill_spec(max_retries=False), "max_retries must be an integer, got False"),
            (infill_spec(stub_params=[1]), "stub_params must be an object"),
        ],
    )
    def test_validation(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            BackendSpec(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown backend spec fields: \\['url'\\]"):
            BackendSpec.from_dict(
                {"backend_id": "b", "kind": "infill", "transport": "stub", "url": "?"}
            )

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ValueError, match="missing 'transport'"):
            BackendSpec.from_dict({"backend_id": "b", "kind": "infill"})


class TestCanonicalDigest:
    def test_key_order_does_not_matter(self):
        a = canonical_request_digest("b1", {"x": 1, "y": [1, 2]})
        b = canonical_request_digest("b1", {"y": [1, 2], "x": 1})
        assert a == b

    def test_backend_id_is_part_of_the_address(self):
        request = {"src": "a", "hyp": "b"}
        assert canonical_request_digest("b1", request) != canonical_request_digest(
            "b2", request
        )

    # Every cache row is keyed by these digests: a change of encoding would make
    # each existing cache.sqlite miss, so the hex values are pinned.
    @pytest.mark.parametrize(
        "backend_id, request_, digest",
        [
            (
                "qe",
                {"src": "The cat sat.", "hyp": "cat sat", "ref": "the cat",
                 "meta": {"b": 0.1, "a": [1, 2.5, {"z": None, "y": True}]}},
                "d80c52014d3d8074614b1775b059773c7fe0afb13556a54402d7278d378710d1",
            ),
            (
                "infill",
                chat_request("gpt-x", "把这句话翻译成中文：The cat sat."),
                "8718887d424ac2f438af6d6b3f09716222325ca51724edb3a3b7b4cd5e69d20c",
            ),
            (
                "ref",
                {"src": "他 昨天 去了 北京", "hyp": "他去了北京",
                 "w": {"分数": 0.25, "nested": {"k": [1e-07, -3.0]}}},
                "a65e294deeb2f749c32d826f8ebaa821c51179a0eb480895ad56beae29bc8fe8",
            ),
        ],
    )
    def test_pinned_digests(self, backend_id, request_, digest):
        assert canonical_request_digest(backend_id, request_) == digest

    def test_pinned_fingerprints(self):
        stub = BackendSpec(
            "qe", "scorer_ref_free", "stub",
            stub_params={"mode": "constant", "value": 0.5, "table": {"猫": "cat", "x": {"y": 1.5}}},
        )
        http = BackendSpec(
            "mt", "translator", "http", endpoint="http://localhost:9/v1/chat",
            model_name="模型-1", timeout=2.5,
        )
        assert Backend(stub).fingerprint == (
            "99958a7851726e5805e8f7291bf18d280561b15a65f80cf0ad8b0aae4d389414"
        )
        assert Backend(http).fingerprint == (
            "ceffb9c94a4b943eda0ed92c01696782b9c42f8b1847bb458e55e8b81f2d6d74"
        )


class TestStubScorers:
    def test_unigram_f1(self):
        scorer = stub_backend("s", "scorer_ref_based", mode="unigram_f1")
        # overlap("a b c", "a b d") = 2; F1 = 2*2 / (3+3) = 2/3
        assert scorer.score("src", "a b c", "a b d") == 2 / 3
        assert scorer.score("src", "a b c", "a b c") == 1.0

    def test_unigram_f1_counts_duplicates_once_each(self):
        scorer = stub_backend("s", "scorer_ref_based", mode="unigram_f1")
        # "a a" vs "a": one 'a' matches; F1 = 2*1 / (2+1) = 2/3
        assert scorer.score("src", "a a", "a") == 2 / 3

    def test_token_overlap(self):
        scorer = stub_backend("s", "scorer_ref_based", mode="token_overlap")
        # overlap 2 over max(2, 3) = 2/3
        assert scorer.score("src", "a b", "a b c") == 2 / 3

    def test_length_ratio_is_the_ref_free_default(self):
        scorer = stub_backend("s", "scorer_ref_free")
        # ref-free scoring compares hyp against src: 2 tokens vs 3
        assert scorer.score("a b c", "x y") == 2 / 3

    def test_constant(self):
        scorer = stub_backend("s", "scorer_ref_free", mode="constant", value=0.73)
        assert scorer.score("anything", "at all") == 0.73

    def test_digest_mode_is_deterministic_and_bounded(self):
        scorer = stub_backend("s", "scorer_ref_free", mode="digest")
        first = scorer.score("a", "b")
        assert 0.0 <= first < 1.0
        assert scorer.score("a", "b") == first
        assert scorer.score("a", "c") != first

    def test_unknown_mode_fails(self):
        scorer = stub_backend("s", "scorer_ref_free", mode="vibes")
        with pytest.raises(BackendError, match="unknown stub scorer mode"):
            scorer.score("a", "b")


class TestStubChat:
    def test_translator_identity_and_table(self):
        assert stub_backend("t", "translator").translate("你好 world") == "你好 world"
        table = {"hello": "你好"}
        assert stub_backend("t", "translator", table=table).translate("hello") == "你好"

    def test_kind_is_enforced(self):
        with pytest.raises(ValueError, match="has kind 'translator'"):
            stub_backend("t", "translator").score("a", "b")
        with pytest.raises(ValueError, match="this call needs 'scorer_ref_based'"):
            stub_backend("s", "scorer_ref_free").score("a", "b", "c")


class TestResponseCache:
    def test_round_trip_and_layout(self, response_cache):
        digest = "ab" * 32
        response_cache.put("b1", digest, {"answer": 42}, "fp")
        hit, value = response_cache.get("b1", digest)
        assert hit and value == {"answer": 42}
        assert not response_cache.path.exists()  # buffered until committed
        assert cache_rows(response_cache) == {("b1", digest): ("fp", '{"answer": 42}')}
        assert [p.name for p in response_cache.root.iterdir()] == ["cache.sqlite"]
        assert response_cache.get("b1", digest) == (True, {"answer": 42})

    def test_miss(self, response_cache):
        hit, value = response_cache.get("b1", "0" * 64)
        assert not hit and value is None

    @pytest.mark.parametrize(
        "damage",
        [
            # bytes are stored as a BLOB, never the JSON text that put writes
            b'{"digest": "ab', b"", b"[1]", b'{"digest": "ab"}', b"\xff\xfe",
            pytest.param('{"digest": "ab', id="truncated JSON text"),
            pytest.param("not json", id="text that is not JSON"),
            pytest.param(None, id="NULL"),
        ],
    )
    def test_malformed_entry_is_a_miss_until_rewritten(self, response_cache, damage):
        digest = "cd" * 32
        response_cache.put("b1", digest, "first")
        damage_cache_row(response_cache, "b1", digest, value=damage)
        assert response_cache.get("b1", digest) == (False, None)
        response_cache.put("b1", digest, "second")
        assert response_cache.get("b1", digest) == (True, "second")
        assert cache_rows(response_cache) == {("b1", digest): (None, '"second"')}

    def test_puts_are_committed_a_batch_at_a_time(self, response_cache):
        other = ResponseCache(response_cache.root)
        for i in range(_COMMIT_EVERY - 1):
            response_cache.put("b1", str(i), i)
        assert other.get("b1", "0") == (False, None)
        response_cache.put("b1", "last", -1)
        assert other.get("b1", "0") == (True, 0)
        assert other.get("b1", "last") == (True, -1)

    def test_two_caches_on_one_root_write_at_the_same_time(self, tmp_path):
        caches = [ResponseCache(tmp_path / "cache") for _ in range(2)]
        errors = []

        def fill(index):
            try:
                for i in range(500):
                    caches[index].put("b1", f"{index}-{i}", i)
                caches[index].close()
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=fill, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        reader = ResponseCache(tmp_path / "cache")
        assert all(
            reader.get("b1", f"{index}-{i}") == (True, i) for index in range(2) for i in range(500)
        )
        assert len(cache_rows(reader)) == 1000


class TestBackendCaching:
    def test_identical_requests_hit_upstream_once(self, response_cache):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        assert backend.score("a", "b") == 0.5
        assert backend.score("a", "b") == 0.5
        assert transport.call_count == 1

    def test_distinct_requests_are_distinct_entries(self, response_cache):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        backend.score("a", "b")
        backend.score("a", "c")
        assert transport.call_count == 2

    def test_cache_survives_new_backend_instances(self, response_cache):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        spec = stub_spec("s", "scorer_ref_free")
        Backend(spec, cache=response_cache, transport=transport).score("a", "b")
        again = Backend(spec, cache=response_cache, transport=transport)
        assert again.score("a", "b") == 0.5
        assert transport.call_count == 1

    def test_a_reconfigured_spec_is_not_served_the_old_answer(self, response_cache):
        old = stub_backend("qe", "scorer_ref_free", cache=response_cache, mode="constant", value=0.1)
        assert old.score("a", "b") == 0.1
        new = stub_backend("qe", "scorer_ref_free", cache=response_cache, mode="constant", value=0.9)
        assert new.score("a", "b") == 0.9
        replay = Backend(BackendSpec("qe", "scorer_ref_free", "replay_cache"), cache=response_cache)
        assert replay.score("a", "b") == 0.9

    @pytest.mark.parametrize(
        "change",
        [{"endpoint": "http://other.invalid"}, {"model_name": "other"}, {"transport": "http"}],
    )
    def test_each_answer_field_changes_the_fingerprint(self, change):
        spec = BackendSpec("mt", "translator", "stub", endpoint="http://one.invalid", model_name="m")
        assert Backend(replace(spec, **change)).fingerprint != Backend(spec).fingerprint

    def test_timeout_retries_and_auth_keep_the_fingerprint(self, response_cache):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        spec = stub_spec("s", "scorer_ref_free")
        Backend(spec, cache=response_cache, transport=transport).score("a", "b")
        same = replace(spec, timeout=5.0, max_retries=0, auth_env_var="UNSET_KEY")
        assert Backend(same, cache=response_cache, transport=transport).score("a", "b") == 0.5
        assert transport.call_count == 1

    def test_an_entry_without_a_fingerprint_is_refilled(self, response_cache):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        digest = canonical_request_digest("s", {"src": "a", "hyp": "b"})
        response_cache.put("s", digest, 0.3)
        assert cache_rows(response_cache) == {("s", digest): (None, "0.3")}
        assert backend.score("a", "b") == 0.5
        assert backend.score("a", "b") == 0.5
        assert transport.call_count == 1
        assert cache_rows(response_cache) == {("s", digest): (backend.fingerprint, "0.5")}

    def test_no_cache_means_every_call_goes_up(self):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        backend = Backend(stub_spec("s", "scorer_ref_free"), transport=transport)
        backend.score("a", "b")
        backend.score("a", "b")
        assert transport.call_count == 2

    def test_concurrent_identical_requests_deduplicate(self, response_cache):
        entered = threading.Event()
        release = threading.Event()

        def slow_send(request, context):
            entered.set()
            assert release.wait(5)
            return {"score": 0.5}

        transport = RecordingTransport(slow_send)
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        results = []
        first = threading.Thread(target=lambda: results.append(backend.score("a", "b")))
        second = threading.Thread(target=lambda: results.append(backend.score("a", "b")))
        first.start()
        assert entered.wait(5)
        second.start()
        time.sleep(0.05)  # let the second thread reach the in-flight lock
        release.set()
        first.join()
        second.join()
        assert results == [0.5, 0.5]
        assert transport.call_count == 1

    def test_in_flight_locks_are_released(self, response_cache):
        transport = RecordingTransport(lambda request, context: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        requests = [("a", str(i % 5)) for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = map_jobs(lambda request: backend.score(*request), requests, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert results == [0.5] * 200
        assert transport.call_count == 5
        assert backend._in_flight == {}

    def test_in_flight_lock_is_released_when_the_upstream_fails(self, response_cache):
        def refuse(request, context):
            raise HttpStatusError(400)

        refuse_transport = RecordingTransport(refuse)
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=refuse_transport
        )
        with pytest.raises(HttpStatusError):
            backend.score("a", "b")
        assert backend._in_flight == {}


class TestMapDistinct:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_calls_once_per_distinct_key_and_stores_backend_errors(self, jobs):
        calls = []

        def shout(key):
            calls.append(key)
            if key == "bad":
                raise HttpStatusError(400)
            return key.upper()

        results = map_distinct(shout, ["b", "a", "bad", "b", "bad", "a"], jobs)
        assert list(results) == ["b", "a", "bad"]
        assert sorted(calls) == ["a", "b", "bad"]
        assert (results["a"], results["b"]) == ("A", "B")
        assert isinstance(results["bad"], HttpStatusError)
        assert unwrap(results["a"]) == "A"
        with pytest.raises(HttpStatusError, match="HTTP 400"):
            unwrap(results["bad"])

    def test_map_jobs_keeps_input_order_on_threads(self):
        # the first items sleep longest, so on four threads they finish last
        def slow_square(n):
            time.sleep(0.002 * (8 - n))
            return n * n

        assert map_jobs(slow_square, range(8), jobs=4) == [n * n for n in range(8)]

    def test_keys_go_out_in_first_seen_order(self):
        calls = []
        map_distinct(calls.append, ["c", "a", "c", "b", "a"], jobs=1)
        assert calls == ["c", "a", "b"]

    def test_other_errors_propagate(self):
        def broken(key):
            raise ValueError(key)

        with pytest.raises(ValueError, match="k"):
            map_distinct(broken, ["k"], jobs=1)


class FlakyTransport:
    """Fails with the queued errors, then succeeds forever."""

    def __init__(self, *errors, value=None):
        self.errors = list(errors)
        self.value = value if value is not None else {"score": 1.0}
        self.calls = 0

    def send(self, request, context=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.value


class TestRetry:
    def spec(self, max_retries=2):
        return BackendSpec("s", "scorer_ref_free", "stub", max_retries=max_retries)

    def test_retries_retryable_errors_with_exponential_backoff(self):
        transport = FlakyTransport(HttpStatusError(500), HttpStatusError(429))
        sleeps = []
        backend = Backend(self.spec(), transport=transport, sleep=sleeps.append)
        assert backend.score("a", "b") == 1.0
        assert transport.calls == 3
        # 0.25 * 2**attempt for attempt = 0, 1
        assert sleeps == [0.25, 0.5]

    def test_gives_up_after_one_plus_max_retries_attempts(self):
        transport = FlakyTransport(*[HttpStatusError(503)] * 10)
        backend = Backend(self.spec(max_retries=2), transport=transport, sleep=lambda _: None)
        with pytest.raises(HttpStatusError):
            backend.score("a", "b")
        assert transport.calls == 3

    def test_non_retryable_status_fails_immediately(self):
        transport = FlakyTransport(HttpStatusError(400))
        sleeps = []
        backend = Backend(self.spec(), transport=transport, sleep=sleeps.append)
        with pytest.raises(HttpStatusError):
            backend.score("a", "b")
        assert transport.calls == 1
        assert sleeps == []

    def test_timeouts_are_retryable(self):
        transport = FlakyTransport(BackendTimeout("slow"))
        backend = Backend(self.spec(), transport=transport, sleep=lambda _: None)
        assert backend.score("a", "b") == 1.0
        assert transport.calls == 2

    def test_cache_miss_is_not_retried(self):
        spec = BackendSpec("s", "scorer_ref_free", "replay_cache", max_retries=5)
        backend = Backend(spec, cache=ResponseCache("/nonexistent-cache-root"))
        with pytest.raises(CacheMissError):
            backend.score("a", "b")


class TestReplayTransport:
    def test_serves_warm_entries_without_a_transport(self, response_cache):
        live = stub_backend("qe", "scorer_ref_free", cache=response_cache, mode="constant", value=0.7)
        assert live.score("a", "b") == 0.7
        replay = Backend(
            BackendSpec("qe", "scorer_ref_free", "replay_cache"), cache=response_cache
        )
        assert replay.score("a", "b") == 0.7

    def test_truncated_entry_raises_cache_miss(self, response_cache):
        live = stub_backend("qe", "scorer_ref_free", cache=response_cache, mode="constant", value=0.7)
        live.score("a", "b")
        ((key, (_, value)),) = cache_rows(response_cache).items()
        assert value == "0.7"
        damage_cache_row(response_cache, *key, value="0.")  # truncated
        replay = Backend(
            BackendSpec("qe", "scorer_ref_free", "replay_cache"), cache=response_cache
        )
        with pytest.raises(CacheMissError):
            replay.score("a", "b")

    def test_cold_entry_raises_cache_miss(self, response_cache):
        replay = Backend(
            BackendSpec("qe", "scorer_ref_free", "replay_cache"), cache=response_cache
        )
        with pytest.raises(CacheMissError):
            replay.score("never", "seen")

    def test_replay_without_cache_is_a_construction_error(self):
        with pytest.raises(ValueError, match="requires a response cache"):
            Backend(BackendSpec("qe", "scorer_ref_free", "replay_cache"))


class TestReplyExtraction:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({"score": 0.5}, 0.5),
            ({"score": 1}, 1.0),
            (0.8312, 0.8312),
            ("0.8312", 0.8312),
            (-0.25, -0.25),  # scores are never clamped
        ],
    )
    def test_score_shapes(self, raw, expected):
        assert _extract_score(raw) == expected

    @pytest.mark.parametrize("raw", [True, {"value": 1}, "not a number", None, [0.5]])
    def test_non_numeric_scores_raise(self, raw):
        with pytest.raises(NonNumericReplyError):
            _extract_score(raw)

    def test_chat_reply_must_have_the_expected_shape(self):
        transport = FlakyTransport(value={"choices": []})
        backend = Backend(stub_spec("t", "translator"), transport=transport)
        with pytest.raises(MalformedReplyError):
            backend.translate("hello")

    def test_chat_content_must_be_text(self):
        transport = FlakyTransport(value={"choices": [{"message": {"content": 42}}]})
        backend = Backend(stub_spec("t", "translator"), transport=transport)
        with pytest.raises(MalformedReplyError, match="not text"):
            backend.translate("hello")

    def test_chat_request_shape(self):
        request = chat_request("gpt-test", "translate this")
        assert request["model"] == "gpt-test"
        assert [m["role"] for m in request["messages"]] == ["system", "user"]
        assert request["messages"][1]["content"] == "translate this"


# -- live HTTP ----------------------------------------------------------------


# Paths that fail their first call with this status and then succeed.
FAIL_ONCE = {"/flaky": 429, "/unavailable": 503}
SLOW_SECONDS = 0.5


class ScriptedHandler(BaseHTTPRequestHandler):
    state = {"calls": {}, "auth_headers": []}

    def log_message(self, *args):  # quiet
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        ScriptedHandler.state["auth_headers"].append(self.headers.get("Authorization"))
        if self.path == "/chat":
            self._reply(200, {"choices": [{"message": {"content": "你好"}}]})
        elif self.path == "/score":
            self._reply(200, {"score": 0.42})
        elif self.path in FAIL_ONCE:
            calls = ScriptedHandler.state["calls"]
            calls[self.path] = calls.get(self.path, 0) + 1
            if calls[self.path] == 1:
                self._reply(FAIL_ONCE[self.path], {"error": "try again"})
            else:
                self._reply(200, {"score": 0.9})
        elif self.path == "/created":
            self._reply(201, {"score": 0.5})
        elif self.path == "/slow":
            time.sleep(SLOW_SECONDS)
            try:
                self._reply(200, {"score": 0.1})
            except OSError:  # the client gave up waiting
                pass
        elif self.path == "/notjson":
            body = b"<html>not json</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._reply(400, {"error": "bad request"})

    def _reply(self, status, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def http_server():
    ScriptedHandler.state = {"calls": {}, "auth_headers": []}
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    # shutdown() waits for serve_forever's next poll; the default is 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join()
    server.server_close()


def http_spec(base, path, kind="scorer_ref_free", **kwargs):
    return BackendSpec("live", kind, "http", endpoint=f"{base}{path}", **kwargs)


class TestHttpTransport:
    def test_chat_round_trip(self, http_server):
        backend = Backend(http_spec(http_server, "/chat", kind="translator"))
        assert backend.translate("hello") == "你好"

    def test_score_round_trip(self, http_server):
        backend = Backend(http_spec(http_server, "/score"))
        assert backend.score("a", "b") == 0.42

    def test_429_is_retried_then_succeeds(self, http_server):
        sleeps = []
        backend = Backend(http_spec(http_server, "/flaky"), sleep=sleeps.append)
        assert backend.score("a", "b") == 0.9
        assert sleeps == [0.25]

    def test_400_fails_without_retry(self, http_server):
        backend = Backend(http_spec(http_server, "/nope"), sleep=lambda _: None)
        with pytest.raises(HttpStatusError, match="HTTP 400"):
            backend.score("a", "b")
        # only the one failing request reached the server
        assert len(ScriptedHandler.state["auth_headers"]) == 1

    def test_non_json_body_is_malformed(self, http_server):
        backend = Backend(http_spec(http_server, "/notjson"))
        with pytest.raises(MalformedReplyError):
            backend.score("a", "b")

    def test_auth_header_from_environment(self, http_server, monkeypatch):
        monkeypatch.setenv("TEST_API_KEY", "sekrit")
        backend = Backend(http_spec(http_server, "/score", auth_env_var="TEST_API_KEY"))
        backend.score("a", "b")
        assert ScriptedHandler.state["auth_headers"] == ["Bearer sekrit"]

    def test_missing_auth_env_var_fails_at_construction(self, http_server, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        with pytest.raises(BackendError, match="NO_SUCH_KEY is not set"):
            Backend(http_spec(http_server, "/score", auth_env_var="NO_SUCH_KEY"))

    def test_slow_reply_times_out_after_every_attempt(self, http_server):
        sleeps = []
        spec = http_spec(http_server, "/slow", timeout=0.1, max_retries=2)
        backend = Backend(spec, sleep=sleeps.append)
        with pytest.raises(BackendTimeout):
            backend.score("a", "b")
        assert sleeps == [0.25, 0.5]  # 1 + max_retries attempts

    def test_connect_timeout_is_retried(self, monkeypatch):
        def urlopen(request, timeout):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        sleeps = []
        backend = Backend(http_spec("http://127.0.0.1:9", "/score"), sleep=sleeps.append)
        with pytest.raises(BackendTimeout):
            backend.score("a", "b")
        assert sleeps == [0.25, 0.5]

    def test_503_is_retried_then_succeeds(self, http_server):
        sleeps = []
        backend = Backend(http_spec(http_server, "/unavailable"), sleep=sleeps.append)
        assert backend.score("a", "b") == 0.9
        assert sleeps == [0.25]
        assert ScriptedHandler.state["calls"]["/unavailable"] == 2

    def test_a_2xx_other_than_200_is_a_status_error(self, http_server):
        sleeps = []
        backend = Backend(http_spec(http_server, "/created"), sleep=sleeps.append)
        with pytest.raises(HttpStatusError, match="HTTP 201"):
            backend.score("a", "b")
        assert sleeps == []

    @pytest.mark.parametrize(
        "base", ["http://127.0.0.1:{port}", "api.example.com"], ids=["refused", "no scheme"]
    )
    def test_connection_errors_fail_without_retry(self, base):
        with socket.socket() as probe:  # nothing listens on the port once it is closed
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        sleeps = []
        backend = Backend(http_spec(base.format(port=port), "/score"), sleep=sleeps.append)
        with pytest.raises(BackendError, match="request failed") as caught:
            backend.score("a", "b")
        assert type(caught.value) is BackendError
        assert sleeps == []


def test_cli_import_leaves_requests_unloaded():
    src = os.path.dirname(os.path.dirname(mtbehave.__file__))
    code = "import sys, mtbehave.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_the_transports_and_the_cache_store_unloaded():
    src = os.path.dirname(os.path.dirname(mtbehave.__file__))
    lazy = ["requests", "http.client", "urllib.request", "sqlite3", "concurrent.futures", "logging"]
    code = f"import sys, mtbehave.cli; print([name for name in {lazy!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
