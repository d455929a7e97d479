"""Tests for backend specs, transports, caching, and the retry loop."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

import mtbehave
from mtbehave.backends import (
    _COMMIT_EVERY,
    Backend,
    BackendError,
    BackendSpec,
    BackendTimeout,
    HttpStatusError,
    ResponseCache,
    _StubTransport,
    _extract_score,
    _tls_context,
    canonical_request_digest,
    chat_request,
    pipeline,
    unwrap,
)
from mtbehave.casegen import EN_MARKER, ZH_MARKER, PromptRequest, mask_pair, parse_response, render_prompt
from mtbehave.codec import from_row, number
from mtbehave.corpus import MASK_TOKEN
from mtbehave.segmentation import Capability, EditableSegment

from conftest import (
    RecordingTransport,
    backend_reads,
    cache_rows,
    damage_cache_row,
    make_pair,
    stub_backend,
    stub_spec,
)


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
            (
                dict(backend_id="b", kind="oracle", transport="stub"),
                r"kind must be one of \['infill', 'translator', 'scorer_ref_based', 'scorer_ref_free'\], got 'oracle'",
            ),
            (
                dict(backend_id="b", kind="infill", transport="carrier-pigeon"),
                r"transport must be one of \['http', 'replay_cache', 'stub'\], got 'carrier-pigeon'",
            ),
            (dict(backend_id="b", kind="infill", transport="http"), "requires an endpoint"),
            (dict(backend_id="b", kind="infill", transport="stub", timeout=0), "timeout"),
            (dict(backend_id="b", kind="infill", transport="stub", max_retries=-1), "max_retries"),
            (infill_spec(backend_id=5), "backend_id must be a string, got 5"),
            (infill_spec(transport="http", endpoint=5), "endpoint must be a string"),
            (infill_spec(model_name=["m"]), "model_name must be a string"),
            (infill_spec(auth_env_var=1), "auth_env_var must be a string"),
            (infill_spec(timeout=True), "timeout must be a number, got True"),
            (infill_spec(timeout="5"), "timeout must be a number, got '5'"),
            (infill_spec(timeout=float("nan")), "timeout must be a number, got nan"),
            (infill_spec(max_retries=1.5), "max_retries must be an integer, got 1.5"),
            (infill_spec(max_retries=False), "max_retries must be an integer, got False"),
            (infill_spec(stub_params=[1]), "stub_params must be an object"),
            (infill_spec(transport="http", endpoint="file:///etc/hostname"), "http:// or https:// URL"),
            (infill_spec(transport="http", endpoint="data:,0.5"), "http:// or https:// URL"),
            (infill_spec(transport="http", endpoint="localhost:8000/score"), "http:// or https:// URL"),
            (infill_spec(transport="http", endpoint="http:///score"), "http:// or https:// URL"),
        ],
    )
    def test_validation(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            from_row(BackendSpec, kwargs)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields: \\['url'\\]"):
            from_row(BackendSpec, {"backend_id": "b", "kind": "infill", "transport": "stub", "url": "?"})

    def test_requires_core_fields(self):
        with pytest.raises(ValueError, match=r"missing fields: \['transport'\]"):
            from_row(BackendSpec, {"backend_id": "b", "kind": "infill"})

    def test_decodes_to_the_field_types_and_keeps_stub_params(self):
        params = {"mode": "constant", "value": 1}
        spec = from_row(BackendSpec, infill_spec(timeout=5, stub_params=params))
        assert spec == BackendSpec("b", "infill", "stub", timeout=5.0, stub_params=params)
        assert type(spec.timeout) is float and spec.stub_params is params


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
        # a table value that is no string fails the stub's build; the pin needs only the spec
        with pytest.raises(ValueError, match=r"stub_params: table\['x'\] must be a string, got \{'y': 1.5\}"):
            Backend(stub)
        assert Backend(stub, transport=RecordingTransport(lambda request: {"score": 0.5})).fingerprint == (
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

    def test_length_ratio_is_the_ref_free_default(self):
        scorer = stub_backend("s", "scorer_ref_free")
        # ref-free scoring compares hyp against src: 2 tokens vs 3
        assert scorer.score("a b c", "x y") == 2 / 3

    def test_constant(self):
        scorer = stub_backend("s", "scorer_ref_free", mode="constant", value=0.73)
        assert scorer.score("anything", "at all") == 0.73

    def test_unknown_mode_fails(self):
        with pytest.raises(ValueError, match="unknown stub scorer mode 'vibes'"):
            stub_backend("s", "scorer_ref_free", mode="vibes")


class TestStubChat:
    def test_translator_identity_and_table(self):
        assert stub_backend("t", "translator").translate("你好 world") == "你好 world"
        table = {"hello": "你好"}
        assert stub_backend("t", "translator", table=table).translate("hello") == "你好"

    @pytest.mark.parametrize(
        "capability", [Capability.NOUN, Capability.TENSE, Capability.NER, Capability.GENERAL]
    )
    def test_infill_fills_the_masked_sentences_that_end_the_prompt(self, capability):
        pair = make_pair("p1", "Alice closed the shop early", "爱丽丝 很早 关了 商店")
        segments = (
            EditableSegment((0, 1), (0, 1), "word", "NOUN", "PERSON", False),
            EditableSegment((2, 4), (3, 4), "phrase", "NOUN", None, False),
        )
        if capability is not Capability.GENERAL:
            segments = segments[:1]
        masked = mask_pair(pair, segments)
        prompt = render_prompt(masked, capability)
        reply = stub_backend("fill", "infill", src="Bob", ref="鲍勃").infill(prompt)
        filled_src = " ".join(masked.masked_source).replace("<mask>", "Bob")
        filled_ref = " ".join(masked.masked_reference).replace("<mask>", "鲍勃")
        assert parse_response(reply) == (tuple(filled_src.split()), tuple(filled_ref.split()))

    def test_infill_reads_a_reference_that_holds_the_english_anchor_whole(self):
        # The reference follows the prompt's last reference anchor, which ends the fixed
        # text, and the source the last instruction text before that.
        pair = make_pair("p1", "the cat sat", "猫 English Sentence: 坐")
        masked = mask_pair(pair, (EditableSegment((1, 2), (0, 1), "word", "NOUN", None, False),))
        reply = stub_backend("fill", "infill", src="dog", ref="狗").infill(render_prompt(masked, Capability.NOUN))
        assert reply == "Filled English: the dog sat\nFilled Chinese: 狗 English Sentence: 坐"

    def test_infill_reads_a_masked_phrase_that_the_instruction_names_as_masked(self):
        # The noun prompt names the masked words in its instruction, before the source.
        pair = make_pair("p1", "say English Sentence: now", "说 英语 句子 现在")
        masked = mask_pair(pair, (EditableSegment((1, 3), (1, 3), "phrase", "NOUN", None, False),))
        reply = stub_backend("fill", "infill").infill(render_prompt(masked, Capability.NOUN))
        assert reply == "Filled English: say thing now\nFilled Chinese: 说 东西 现在"

    # Words of the prompt's fixed texts and of the reply's markers, beside plain words.
    # "Translation:" is left out: a reference that holds the reference anchor, which
    # ends in it, is the one input the stub cannot tell from the prompt's own text.
    PROMPT_WORDS = st.sampled_from(
        ["English", "Sentence:", "Filled", "English:", "Chinese:", "Chinese", "{}", "'.", ".", "\\n"]
        + ["the", "cat", "猫", "坐"]
    )

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(list(Capability)))
    def test_infill_fills_exactly_the_masked_sentences(self, data, capability):
        source = data.draw(st.lists(self.PROMPT_WORDS, min_size=1, max_size=8))
        reference = data.draw(st.lists(self.PROMPT_WORDS, min_size=1, max_size=8))
        most = min(3, (len(source) + 1) // 2, (len(reference) + 1) // 2)
        count = data.draw(st.integers(1, most)) if capability is Capability.GENERAL else 1

        def spans(length):  # count disjoint spans, from 2 * count distinct cut points
            cuts = sorted(data.draw(st.lists(st.integers(0, length), min_size=2 * count,
                                             max_size=2 * count, unique=True)))
            return list(zip(cuts[::2], cuts[1::2]))

        segments = tuple(
            EditableSegment(src, ref, "word" if src[1] - src[0] == 1 else "phrase",
                            capability.tag or "OTHER", "PERSON", capability is Capability.TENSE)
            for src, ref in zip(spans(len(source)), spans(len(reference)))
        )
        masked = mask_pair(make_pair("p1", tuple(source), tuple(reference)), segments)
        reply = stub_backend("fill", "infill", src="Bob", ref="鲍勃").infill(render_prompt(masked, capability))

        def filled(tokens, fill):
            return " ".join(fill if token == MASK_TOKEN else token for token in tokens)

        en, zh = filled(masked.masked_source, "Bob"), filled(masked.masked_reference, "鲍勃")
        assert reply == f"{EN_MARKER} {en}\n{ZH_MARKER} {zh}"

    def test_infill_prompt_without_the_masked_sentences_fails_without_retry(self):
        transport = RecordingTransport(_StubTransport(stub_spec("fill", "infill")))
        backend = Backend(stub_spec("fill", "infill"), transport=transport)
        prompt = PromptRequest("general", "fill in the <mask> please")
        with pytest.raises(BackendError, match="lacks the masked sentences") as raised:
            backend.infill(prompt)
        assert not raised.value.retryable
        assert transport.call_count == 1

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

    def test_a_backend_is_read_with_one_query_until_close(self, response_cache, sql_statements):
        response_cache.put("b1", "a", 1)
        response_cache.put("b2", "b", 2)
        response_cache.close()
        sql_statements.clear()
        for _ in range(3):
            assert response_cache.get("b1", "a") == (True, 1)
            assert response_cache.get("b1", "absent") == (False, None)
            assert response_cache.get("b2", "b") == (True, 2)
        assert backend_reads(sql_statements) == ["b1", "b2"]
        response_cache.close()
        assert response_cache.get("b1", "a") == (True, 1)
        assert backend_reads(sql_statements) == ["b1", "b2", "b1"]

    def test_a_row_this_instance_committed_stays_a_hit_without_reopening(self, response_cache, sql_statements):
        response_cache.put("b1", "old", -1)
        response_cache.close()
        sql_statements.clear()
        assert response_cache.get("b1", "old") == (True, -1)  # reads b1's one row
        for i in range(_COMMIT_EVERY):  # the last put commits them all
            response_cache.put("b1", str(i), i, "fp")
        assert any(s.startswith("INSERT") for s in sql_statements)
        assert all(response_cache.get("b1", str(i), "fp") == (True, i) for i in range(_COMMIT_EVERY))
        assert response_cache.get("b1", "0", "other") == (False, None)
        assert backend_reads(sql_statements) == ["b1"]
        assert sum(s.startswith("CREATE TABLE") for s in sql_statements) == 1  # one connection

    def test_a_row_another_instance_commits_appears_after_close(self, response_cache):
        other = ResponseCache(response_cache.root)
        other.put("b1", "first", 1)
        other.close()
        assert response_cache.get("b1", "first") == (True, 1)
        other.put("b1", "later", 2)
        other.close()
        assert response_cache.get("b1", "later") == (False, None)  # b1 was read before
        response_cache.close()
        assert response_cache.get("b1", "later") == (True, 2)

    def test_a_get_without_a_file_creates_none_and_remembers_nothing(self, response_cache):
        assert response_cache.get("b1", "a") == (False, None)
        assert not response_cache.root.exists()
        other = ResponseCache(response_cache.root)
        other.put("b1", "a", 1)
        other.close()
        assert response_cache.get("b1", "a") == (True, 1)

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
        transport = RecordingTransport(lambda request: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        assert backend.score("a", "b") == 0.5
        assert backend.score("a", "b") == 0.5
        assert transport.call_count == 1

    def test_distinct_requests_are_distinct_entries(self, response_cache):
        transport = RecordingTransport(lambda request: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        backend.score("a", "b")
        backend.score("a", "c")
        assert transport.call_count == 2

    def test_cache_survives_new_backend_instances(self, response_cache):
        transport = RecordingTransport(lambda request: {"score": 0.5})
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
        assert Backend(spec._replace(**change)).fingerprint != Backend(spec).fingerprint

    def test_timeout_retries_and_auth_keep_the_fingerprint(self, response_cache):
        transport = RecordingTransport(lambda request: {"score": 0.5})
        spec = stub_spec("s", "scorer_ref_free")
        Backend(spec, cache=response_cache, transport=transport).score("a", "b")
        same = spec._replace(timeout=5.0, max_retries=0, auth_env_var="UNSET_KEY")
        assert Backend(same, cache=response_cache, transport=transport).score("a", "b") == 0.5
        assert transport.call_count == 1

    def test_an_entry_without_a_fingerprint_is_refilled(self, response_cache):
        transport = RecordingTransport(lambda request: {"score": 0.5})
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

    @pytest.mark.parametrize("stored", [float("nan"), float("inf")])
    def test_a_cached_non_finite_score_is_refilled(self, response_cache, stored):
        transport = RecordingTransport(lambda request: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        digest = canonical_request_digest("s", {"src": "a", "hyp": "b"})
        response_cache.put("s", digest, stored, backend.fingerprint)
        assert backend.score("a", "b") == 0.5
        assert transport.call_count == 1
        assert cache_rows(response_cache) == {("s", digest): (backend.fingerprint, "0.5")}

    @pytest.mark.parametrize(
        "kind, stored",
        [
            ("infill", 7), ("infill", None), ("translator", 7), ("translator", None),
            ("scorer_ref_free", "0.5"), ("scorer_ref_free", True), ("scorer_ref_free", None),
            ("scorer_ref_based", "0.5"), ("scorer_ref_based", True), ("scorer_ref_based", None),
        ],
    )
    def test_a_cached_row_of_another_type_is_refetched_once_and_replaced(self, response_cache, kind, stored):
        scorer = kind.startswith("scorer_")
        reply = {"score": 0.5} if scorer else {"choices": [{"message": {"content": "答案"}}]}
        transport = RecordingTransport(lambda request: reply)
        backend = Backend(stub_spec("b", kind), cache=response_cache, transport=transport)
        ask = {
            "infill": lambda backend: backend.infill(PromptRequest("general", "fill the <mask>")),
            "translator": lambda backend: backend.translate("hello"),
            "scorer_ref_free": lambda backend: backend.score("a", "b"),
            "scorer_ref_based": lambda backend: backend.score("a", "b", "c"),
        }[kind]
        answer = ask(backend)
        ((key, row),) = cache_rows(response_cache).items()
        damage_cache_row(response_cache, *key, value=json.dumps(stored))
        assert (ask(backend), ask(backend)) == (answer, answer)
        assert transport.call_count == 2
        assert cache_rows(response_cache) == {key: row}

        damage_cache_row(response_cache, *key, value=json.dumps(stored))
        replay = Backend(BackendSpec("b", kind, "replay_cache"), cache=response_cache)
        with pytest.raises(BackendError, match="no cached response for request"):
            ask(replay)

    def test_no_cache_means_every_call_goes_up(self):
        transport = RecordingTransport(lambda request: {"score": 0.5})
        backend = Backend(stub_spec("s", "scorer_ref_free"), transport=transport)
        backend.score("a", "b")
        backend.score("a", "b")
        assert transport.call_count == 2

    def test_concurrent_cached_requests_all_get_the_answer(self, response_cache):
        transport = RecordingTransport(lambda request: {"score": 0.5})
        backend = Backend(
            stub_spec("s", "scorer_ref_free"), cache=response_cache, transport=transport
        )
        requests = [("a", str(i % 5)) for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda request: backend.score(*request), requests))
        finally:
            sys.setswitchinterval(interval)
        assert results == [0.5] * 200
        assert len(cache_rows(response_cache)) == 5


class TestPipeline:
    """``pipeline`` sends each distinct request of each of its two slots once."""

    @staticmethod
    def shout(calls):
        def call(key):
            calls.append(key)
            if "bad" in key:
                raise HttpStatusError(400)
            return key.upper()

        return call

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_calls_once_per_distinct_key_and_stores_backend_errors(self, jobs):
        first_calls, second_calls = [], []
        # every first answer is followed by a request of its own and a shared one
        firsts, seconds = pipeline(
            [(key, key) for key in ["b", "a", "bad", "b", "bad", "a"]],
            self.shout(first_calls),
            lambda item, answer: [answer.lower() + "!", "bad shared"],
            self.shout(second_calls),
            jobs,
        )
        assert list(firsts) == ["b", "a", "bad"]
        assert sorted(first_calls) == ["a", "b", "bad"]
        assert (firsts["a"], firsts["b"]) == ("A", "B")
        assert isinstance(firsts["bad"], HttpStatusError)
        # "bad!" is never sent: a failed first answer is not followed
        assert sorted(second_calls) == ["a!", "b!", "bad shared"]
        assert (seconds["a!"], seconds["b!"]) == ("A!", "B!")
        assert isinstance(seconds["bad shared"], HttpStatusError)
        assert unwrap(firsts["a"]) == "A"
        with pytest.raises(HttpStatusError, match="HTTP 400"):
            unwrap(firsts["bad"])

    @settings(max_examples=100, deadline=None)
    @given(
        work=st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 3)), max_size=10),
        shared=st.lists(st.lists(st.sampled_from(["s", "t", "bad u"]), max_size=3), min_size=4, max_size=4),
        bad_keys=st.sets(st.sampled_from("abcd")),
    )
    def test_jobs_1_and_jobs_4_give_the_same_answers(self, work, shared, bad_keys):
        def first(key):
            first_calls.append(key)
            if key in bad_keys:
                raise HttpStatusError(400, key)
            return key.upper()

        def follow(item, answer):  # requests other items share, and one of its own
            return [*shared[item], f"{answer} {item}"]

        def by_message(answers):  # an error compares by its message
            return [(key, str(answer) if isinstance(answer, BackendError) else answer) for key, answer in answers]

        expected_seconds = {
            request for key, item in work if key not in bad_keys for request in follow(item, key.upper())
        }
        runs = []
        for jobs in (1, 4):
            first_calls, second_calls = [], []
            firsts, seconds = pipeline(work, first, follow, self.shout(second_calls), jobs)
            assert sorted(first_calls) == sorted({key for key, _ in work})
            assert sorted(second_calls) == sorted(expected_seconds)
            runs.append((by_message(firsts.items()), dict(by_message(seconds.items()))))
        assert runs[0] == runs[1]

    def test_answers_keep_first_seen_order_on_threads(self):
        # the first keys sleep longest, so on four threads they finish last
        def slow_square(n):
            time.sleep(0.002 * (8 - n))
            return n * n

        firsts, seconds = pipeline(
            [(n, n) for n in range(8)], slow_square, lambda n, square: [-square], abs, jobs=4
        )
        assert list(firsts.items()) == [(n, n * n) for n in range(8)]
        assert seconds == {-n * n: n * n for n in range(8)}

    def test_ctrl_c_starts_no_queued_item(self, monkeypatch):
        # Keys 0 and 1 answer at once; every other request blocks. So each
        # slot's two workers hold a request and each slot has more queued:
        # keys 4-9, and four of the six follow-ups of keys 0 and 1. SIGINT
        # reaches the main thread while it waits for an answer. The workers
        # are let go only when a pool shutdown waits for them, which is after
        # the interrupt, so a request that starts then was queued and not
        # cancelled, or submitted after the interrupt.
        started, release, interrupted = [], threading.Event(), threading.Event()
        shutdown = ThreadPoolExecutor.shutdown

        def release_then_shutdown(pool, wait=True, **kwargs):
            if wait:
                release.set()
            return shutdown(pool, wait, **kwargs)

        def first(key):
            started.append(("first", key))
            if key >= 2:
                release.wait(10)
            return key

        def second(request):
            started.append(("second", request))
            release.wait(10)
            return request

        def on_sigint(signum, frame):
            if not interrupted.is_set():
                interrupted.set()
                raise KeyboardInterrupt

        def interrupt():
            deadline = time.monotonic() + 10
            while len(started) < 6 and time.monotonic() < deadline:
                time.sleep(0.001)
            # A signal that lands just before the main thread blocks on its
            # lock waits until the lock is released, so send until one is seen.
            while not interrupted.wait(0.05) and time.monotonic() < deadline:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", release_then_shutdown)
        previous = signal.signal(signal.SIGINT, on_sigint)
        interrupter = threading.Thread(target=interrupt)
        try:
            interrupter.start()
            with pytest.raises(KeyboardInterrupt):
                pipeline(
                    [(key, key) for key in range(10)],
                    first,
                    lambda key, answer: [(key, n) for n in range(3)],
                    second,
                    jobs=2,
                )
        finally:
            interrupter.join(20)
            signal.signal(signal.SIGINT, previous)
        assert not interrupter.is_alive()
        assert sorted(key for slot, key in started if slot == "first") == [0, 1, 2, 3]
        assert len([key for slot, key in started if slot == "second"]) == 2

    def test_ctrl_c_that_does_not_wake_the_waiting_thread_is_seen_within_a_second(self, monkeypatch):
        # A SIGINT sent to another thread sets the interpreter's flag but does not
        # interrupt the main thread's wait, as when it lands just before that wait
        # blocks. The one request answers only once a pool shuts down, or after 10 s.
        release = threading.Event()
        shutdown = ThreadPoolExecutor.shutdown

        def release_then_shutdown(pool, wait=True, **kwargs):
            release.set()
            return shutdown(pool, wait, **kwargs)

        def first(key):
            release.wait(10)
            return key

        def interrupt():
            time.sleep(0.2)
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)

        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", release_then_shutdown)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        interrupter = threading.Thread(target=interrupt)
        started = time.monotonic()
        try:
            interrupter.start()
            with pytest.raises(KeyboardInterrupt):
                pipeline([("a", "a")], first, lambda item, answer: [], str, jobs=2)
        finally:
            release.set()
            interrupter.join(10)
            signal.signal(signal.SIGINT, previous)
        assert not interrupter.is_alive()
        assert time.monotonic() - started < 5

    def test_an_error_ends_a_request_in_flight_after_its_current_attempt(self, monkeypatch):
        # Key "a" times out on every attempt, and its first attempt ends only when
        # the failing pipeline cancels its queues, so any later attempt is a retry
        # that the cancellation did not stop. Five retries would back off 7.75 s.
        sending, cancelled, attempts = threading.Event(), threading.Event(), []
        shutdown = ThreadPoolExecutor.shutdown

        def cancel_then_shutdown(pool, wait=True, **kwargs):
            if not wait:
                cancelled.set()
            return shutdown(pool, wait, **kwargs)

        class Hanging:
            def send(self, request):
                attempts.append(request)
                sending.set()
                cancelled.wait(10)
                raise BackendTimeout("no answer")

        def follow(item, answer):
            sending.wait(10)
            raise RuntimeError("the stage failed")

        backend = Backend(BackendSpec("s", "scorer_ref_free", "stub", max_retries=5), transport=Hanging())
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", cancel_then_shutdown)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="the stage failed"):
            pipeline([("a", "a"), ("b", "b")], lambda key: backend.score(key, "b") if key == "a" else key,
                     follow, str, jobs=2)
        assert attempts == [{"src": "a", "hyp": "b"}]
        assert time.monotonic() - started < 5

    def test_a_backend_outside_a_pipeline_sleeps_out_its_backoff(self):
        transport = FlakyTransport(BackendTimeout("slow"))
        started = time.monotonic()
        assert Backend(BackendSpec("s", "scorer_ref_free", "stub"), transport=transport).score("a", "b") == 1.0
        assert (transport.calls, time.monotonic() - started >= 0.25) == (2, True)

    def test_many_threads_send_each_request_once(self):
        # more workers than cores and a short switch interval, so a lost or
        # repeated submission would show as a missing answer or a second call
        calls, results = [], []

        def record(key):
            calls.append(key)
            return key

        def run():
            results.extend(pipeline(
                [(n % 50, n % 7) for n in range(400)], record,
                lambda item, answer: [("second", item), ("second", answer % 5)], record, jobs=8,
            ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        firsts, seconds = results
        assert firsts == {n: n for n in range(50)}
        assert set(seconds) == {("second", n) for n in range(7)}
        assert sorted(calls, key=repr) == sorted([*range(50), *seconds], key=repr)

    def test_keys_go_out_in_first_seen_order(self):
        calls = []

        def record(key):
            calls.append(key)
            return key

        pipeline([(key, key) for key in "cacba"], record, lambda item, answer: [answer.upper(), "Z"],
                 record, jobs=1)
        assert calls == ["c", "a", "b", "C", "Z", "A", "B"]

    def test_jobs_1_runs_inline_and_loads_no_pool(self):
        src = os.path.dirname(os.path.dirname(mtbehave.__file__))
        code = (
            "import sys, threading\n"
            "from mtbehave.backends import pipeline\n"
            "threads = set()\n"
            "def call(key):\n"
            "    threads.add(threading.get_ident())\n"
            "    return key\n"
            "pipeline([(1, 1), (2, 2)], call, lambda item, answer: [-answer], call, jobs=1)\n"
            "print(threads == {threading.get_ident()}, 'concurrent.futures' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize("slot", ["first", "second"])
    def test_other_errors_propagate_from_threads(self, slot):
        def broken(key):
            raise ValueError(key)

        calls = {"first": str, "second": str, slot: broken}
        with pytest.raises(ValueError, match="k"):
            pipeline([("k", "k")], calls["first"], lambda item, answer: [answer], calls["second"], jobs=2)

    def test_other_errors_propagate(self):
        def broken(key):
            raise ValueError(key)

        with pytest.raises(ValueError, match="k"):
            pipeline([("k", "k")], broken, lambda item, answer: [answer], str, jobs=1)


class FlakyTransport:
    """Fails with the queued errors, then succeeds forever."""

    def __init__(self, *errors, value=None):
        self.errors = list(errors)
        self.value = value if value is not None else {"score": 1.0}
        self.calls = 0

    def send(self, request):
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
        with pytest.raises(BackendError, match="no cached response for request"):
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
        with pytest.raises(BackendError, match="no cached response for request"):
            replay.score("a", "b")

    def test_cold_entry_raises_cache_miss(self, response_cache):
        replay = Backend(
            BackendSpec("qe", "scorer_ref_free", "replay_cache"), cache=response_cache
        )
        with pytest.raises(BackendError, match="no cached response for request"):
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
            (-0.25, -0.25),  # scores are never clamped
        ],
    )
    def test_score_shapes(self, raw, expected):
        assert _extract_score(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            True, {"value": 1}, "not a number", None, [0.5],
            float("nan"), "NaN", "inf", {"score": float("-inf")},
            # only a JSON number is a score: float() would read each of these texts
            "0.8312", {"score": "0.5"}, "1_0", " 0.5 ", {"score": 10**400},
        ],
    )
    def test_non_numeric_scores_raise(self, raw):
        unscored = isinstance(raw, dict) and "score" not in raw
        message = "has no score field" if unscored else "is not a finite number"
        with pytest.raises(BackendError, match=f"scorer reply {message}"):
            _extract_score(raw)

    @pytest.mark.parametrize("value", [1, 1.5, True, "0.5", 10**400, float("nan")])
    def test_a_score_is_what_the_codec_reads_as_a_number(self, value):
        try:
            expected = number(value)
        except ValueError:
            with pytest.raises(BackendError, match="scorer reply is not a finite number"):
                _extract_score({"score": value})
        else:
            assert _extract_score({"score": value}) == expected and type(expected) is float

    @pytest.mark.parametrize("raw", [{"score": "0.5"}, "0.75"])
    def test_a_text_score_is_an_error_that_is_not_cached(self, tmp_path, raw):
        transport = FlakyTransport(value=raw)
        cache = ResponseCache(tmp_path)
        backend = Backend(stub_spec("q", "scorer_ref_free"), cache, transport)
        with pytest.raises(BackendError, match="scorer reply is not a finite number") as raised:
            backend.score("a", "b")
        cache.close()
        assert not raised.value.retryable and transport.calls == 1
        assert not (tmp_path / "cache.sqlite").exists()  # no answer came, so no row and no file

    def test_chat_reply_must_have_the_expected_shape(self):
        transport = FlakyTransport(value={"choices": []})
        backend = Backend(stub_spec("t", "translator"), transport=transport)
        with pytest.raises(BackendError, match="unexpected chat reply shape"):
            backend.translate("hello")

    def test_chat_content_must_be_text(self):
        transport = FlakyTransport(value={"choices": [{"message": {"content": 42}}]})
        backend = Backend(stub_spec("t", "translator"), transport=transport)
        with pytest.raises(BackendError, match="chat content is not text"):
            backend.translate("hello")

    @pytest.mark.parametrize("finish_reason", ["length", "content_filter"])
    def test_an_unfinished_chat_reply_is_an_error_that_is_not_cached(self, tmp_path, finish_reason):
        reply = {"choices": [{"message": {"content": "the cat sat on"}, "finish_reason": finish_reason}]}
        transport = FlakyTransport(value=reply)
        for run in (1, 2):  # each run opens a new cache on the same directory
            cache = ResponseCache(tmp_path)
            backend = Backend(stub_spec("t", "translator"), cache, transport)
            with pytest.raises(BackendError, match=f"did not finish: finish_reason '{finish_reason}'") as raised:
                backend.translate("the cat sat on the mat")
            cache.close()
            assert not raised.value.retryable
            assert transport.calls == run  # the rerun sends the request again
        assert not (tmp_path / "cache.sqlite").exists()  # no answer came, so no row and no file

    @pytest.mark.parametrize("finish", [{"finish_reason": "stop"}, {"finish_reason": None}, {}],
                             ids=["stop", "null", "missing"])
    def test_a_finished_chat_reply_is_an_answer_that_is_cached(self, tmp_path, finish):
        transport = FlakyTransport(value={"choices": [{"message": {"content": "猫 坐"}, **finish}]})
        for run in (1, 2):
            cache = ResponseCache(tmp_path)
            assert Backend(stub_spec("t", "translator"), cache, transport).translate("the cat sat") == "猫 坐"
            cache.close()
        assert transport.calls == 1  # the rerun is served from the cache

    def test_chat_request_shape(self):
        request = chat_request("gpt-test", "translate this")
        assert request["model"] == "gpt-test"
        assert [m["role"] for m in request["messages"]] == ["system", "user"]
        assert request["messages"][1]["content"] == "translate this"


# -- live HTTP ----------------------------------------------------------------


# Paths that fail their first call with this status and then succeed.
FAIL_ONCE = {"/flaky": 429, "/unavailable": 503}
SLOW_SECONDS = 0.5
# The absolute URL a request names when it goes through a proxy.
PROXIED_URL = "http://example.invalid/v1"


class ScriptedHandler(BaseHTTPRequestHandler):
    state = {"calls": {}, "auth_headers": [], "request_lines": []}

    def log_message(self, *args):  # quiet
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        ScriptedHandler.state["auth_headers"].append(self.headers.get("Authorization"))
        ScriptedHandler.state["request_lines"].append(self.requestline)
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
        elif self.path == PROXIED_URL:
            self._reply(200, {"score": 0.7})
        elif self.path == "/created":
            self._reply(201, {"score": 0.5})
        elif self.path == "/moved":
            self.send_response(302)
            self.send_header("Location", ScriptedHandler.state["location"])
            self.send_header("Content-Length", "0")
            self.end_headers()
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
    ScriptedHandler.state = {"calls": {}, "auth_headers": [], "request_lines": []}
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


def closed_port():
    """A local port that nothing listens on once the probe is closed."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def proxy_env(monkeypatch):
    """Clears the proxy variables; returns a setter for the test's own."""
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch.setenv


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
        with pytest.raises(BackendError, match="response body is not JSON"):
            backend.score("a", "b")

    def test_auth_header_from_environment(self, http_server, monkeypatch):
        monkeypatch.setenv("TEST_API_KEY", "sekrit")
        backend = Backend(http_spec(http_server, "/score", auth_env_var="TEST_API_KEY"))
        backend.score("a", "b")
        assert ScriptedHandler.state["auth_headers"] == ["Bearer sekrit"]

    def test_missing_auth_env_var_fails_at_construction(self, http_server, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        with pytest.raises(ValueError, match="NO_SUCH_KEY is not set"):  # a config error: nothing was sent
            Backend(http_spec(http_server, "/score", auth_env_var="NO_SUCH_KEY"))

    def test_slow_reply_times_out_after_every_attempt(self, http_server):
        sleeps = []
        spec = http_spec(http_server, "/slow", timeout=0.1, max_retries=2)
        backend = Backend(spec, sleep=sleeps.append)
        with pytest.raises(BackendTimeout):
            backend.score("a", "b")
        assert sleeps == [0.25, 0.5]  # 1 + max_retries attempts

    def test_connect_timeout_is_retried(self, monkeypatch):
        def open_url(opener, request, timeout):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(urllib.request.OpenerDirector, "open", open_url)
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

    def test_a_redirect_is_a_status_error_and_is_not_followed(self, http_server, monkeypatch):
        monkeypatch.setenv("TEST_API_KEY", "secret-token")
        with socket.socket() as elsewhere:  # where the redirect points: it must get no connection
            elsewhere.bind(("127.0.0.1", 0))
            elsewhere.listen()
            elsewhere.setblocking(False)
            ScriptedHandler.state["location"] = f"http://127.0.0.1:{elsewhere.getsockname()[1]}/score"
            sleeps = []
            spec = http_spec(http_server, "/moved", auth_env_var="TEST_API_KEY", timeout=2)
            backend = Backend(spec, sleep=sleeps.append)
            with pytest.raises(HttpStatusError, match="HTTP 302"):
                backend.score("a", "b")
            with pytest.raises(BlockingIOError):
                elsewhere.accept()
        assert sleeps == []

    @pytest.mark.parametrize("base", ["http://127.0.0.1:{port}"], ids=["refused"])
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

    @pytest.mark.parametrize(
        "proxy, no_proxy, endpoint, answer, served",
        [
            ("{server}", None, PROXIED_URL, 0.7, f"POST {PROXIED_URL} HTTP/1.1"),
            ("http://127.0.0.1:{closed}", "127.0.0.1", "{server}/score", 0.42, "POST /score HTTP/1.1"),
            ("socks5://127.0.0.1:9", None, PROXIED_URL, "<urlopen error unknown url type: socks5>", None),
        ],
        ids=["through-the-proxy", "no-proxy-bypasses-it", "unknown-proxy-scheme"],
    )
    def test_proxies_come_from_the_environment(
        self, http_server, proxy_env, proxy, no_proxy, endpoint, answer, served
    ):
        proxy_env("http_proxy", proxy.format(server=http_server, closed=closed_port()))
        if no_proxy:
            proxy_env("no_proxy", no_proxy)
        backend = Backend(http_spec(endpoint.format(server=http_server), ""), sleep=lambda _: None)
        if isinstance(answer, float):
            assert backend.score("a", "b") == answer
        else:
            with pytest.raises(BackendError) as caught:
                backend.score("a", "b")
            assert type(caught.value) is BackendError
            assert str(caught.value) == f"request failed: {answer}"
        assert ScriptedHandler.state["request_lines"] == ([served] if served else [])


class TestTlsContext:
    """The CA store is loaded once per process, on the first HTTPS connection."""

    @pytest.fixture
    def loads(self, monkeypatch, proxy_env):
        import ssl

        calls = []
        load = ssl.SSLContext.load_default_certs

        def counted(context, *args, **kwargs):
            calls.append(1)
            return load(context, *args, **kwargs)

        monkeypatch.setattr(ssl.SSLContext, "load_default_certs", counted)
        _tls_context.cache_clear()  # as if no HTTPS request had been sent yet
        yield calls
        _tls_context.cache_clear()

    @staticmethod
    def send_five_each(*endpoints):
        for endpoint in endpoints:
            backend = Backend(http_spec(endpoint, ""), sleep=lambda _: None)
            for n in range(5):
                try:
                    backend.score("a", str(n))
                except BackendError:
                    pass

    def test_plain_http_makes_none(self, loads, http_server):
        self.send_five_each(f"{http_server}/score", f"{http_server}/score")
        assert len(ScriptedHandler.state["request_lines"]) == 10
        assert len(loads) == 0

    def test_https_makes_one_for_every_transport_and_request(self, loads):
        endpoint = f"https://127.0.0.1:{closed_port()}/score"
        self.send_five_each(endpoint, endpoint)
        assert len(loads) == 1

    def test_an_https_proxy_makes_one_for_plain_http(self, loads, proxy_env):
        proxy_env("http_proxy", f"https://127.0.0.1:{closed_port()}")
        self.send_five_each(PROXIED_URL)
        assert len(loads) == 1


def test_cli_import_leaves_the_transports_and_the_cache_store_unloaded():
    src = os.path.dirname(os.path.dirname(mtbehave.__file__))
    lazy = ["requests", "ssl", "http.client", "urllib.request", "sqlite3", "concurrent.futures", "logging"]
    code = f"import sys, mtbehave.cli; print([name for name in {lazy!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
