"""Pluggable model backends: mask infilling, translation, quality scoring.

A backend is declared by a :class:`BackendSpec` and reached through one of
three transports: ``http`` (a chat-completion or scorer endpoint), ``stub``
(deterministic local behavior for tests and dry runs), or ``replay_cache``
(serve previously cached responses only). Every call goes through a
content-addressed response cache when one is configured, so a warm rerun of
the same spec never repeats an upstream request; a spec whose answers could
differ (another endpoint, model or stub parameters) misses and refills.
Scores are returned exactly as the backend produced them; nothing is clamped
or rounded here.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .segmentation import MASK_TOKEN

if TYPE_CHECKING:  # pragma: no cover
    from .casegen import PromptRequest

KINDS = ("infill", "translator", "scorer_ref_based", "scorer_ref_free")
TRANSPORTS = ("http", "replay_cache", "stub")

# System message sent with every chat call, infill and direct translation alike.
CHAT_SYSTEM_LINE = "You are a helpful assistant that translates English to Chinese."

_BACKOFF_BASE_SECONDS = 0.25

# The spec fields that can change an answer; timeout, retries and auth cannot.
_ANSWER_FIELDS = ("kind", "transport", "endpoint", "model_name", "stub_params")
# Request digests encode with this one encoder; json.dumps would build one per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


class BackendError(Exception):
    """Base class for backend failures; ``retryable`` drives the retry loop."""

    retryable = False
    error_kind = "backend"


class BackendTimeout(BackendError):
    retryable = True


class HttpStatusError(BackendError):
    def __init__(self, status: int, detail: str = ""):
        message = f"HTTP {status}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.status = status
        self.retryable = status == 429 or status >= 500


class CacheMissError(BackendError):
    """Replay transport found no cached response. Retrying cannot help."""


class NonNumericReplyError(BackendError):
    """A scorer endpoint replied with something that is not a number."""


class MalformedReplyError(BackendError):
    """A chat endpoint replied without the expected message structure."""


@dataclass(frozen=True)
class BackendSpec:
    """Declarative description of one backend, as found in the run config."""

    backend_id: str
    kind: str
    transport: str
    endpoint: str | None = None
    model_name: str | None = None
    auth_env_var: str | None = None
    timeout: float = 30.0
    max_retries: int = 2
    stub_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.backend_id, str):
            raise ValueError(f"backend_id must be a string, got {self.backend_id!r}")
        if not self.backend_id:
            raise ValueError("backend_id must not be empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        for name in ("endpoint", "model_name", "auth_env_var"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.transport == "http" and not self.endpoint:
            raise ValueError("http transport requires an endpoint")
        if type(self.timeout) not in (int, float):
            raise ValueError(f"timeout must be a number, got {self.timeout!r}")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if type(self.max_retries) is not int:
            raise ValueError(f"max_retries must be an integer, got {self.max_retries!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must not be negative")
        if not isinstance(self.stub_params, Mapping):
            raise ValueError(f"stub_params must be an object, got {self.stub_params!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BackendSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"backend spec must be an object, got {data!r}")
        unknown = sorted(set(data) - {item.name for item in fields(cls)})
        if unknown:
            raise ValueError(f"unknown backend spec fields: {unknown}")
        for required in ("backend_id", "kind", "transport"):
            if required not in data:
                raise ValueError(f"backend spec is missing {required!r}")
        return cls(**dict(data))


def canonical_request_digest(backend_id: str, request: Mapping[str, object]) -> str:
    """Content address of one request: sha256 over a canonical JSON encoding."""
    blob = _CANONICAL_ENCODER.encode({"backend_id": backend_id, "request": request})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CacheError(Exception):
    """The response cache file cannot be opened, read or written."""


# Buffered puts are committed in one transaction once this many are pending.
_COMMIT_EVERY = 256
# How long a write waits for another process's transaction before it fails.
_BUSY_TIMEOUT_SECONDS = 60.0
_CREATE_TABLE = (
    "CREATE TABLE IF NOT EXISTS entries (backend_id TEXT NOT NULL, digest TEXT NOT NULL, "
    "fingerprint TEXT, value TEXT, PRIMARY KEY (backend_id, digest)) WITHOUT ROWID"
)
_SELECT = "SELECT fingerprint, value FROM entries WHERE backend_id = ? AND digest = ?"


class ResponseCache:
    """Response cache in one SQLite file, ``<root>/cache.sqlite``.

    A row per ``(backend_id, digest)`` holds the fingerprint of the spec that
    wrote it and the answer as JSON text; an answer written later replaces it.
    ``put`` buffers answers and commits them ``_COMMIT_EVERY`` at a time, and
    ``close`` commits the rest. A run served wholly from the cache writes
    nothing. The threads of one process share one connection behind a lock;
    another process's writes are waited on, up to ``_BUSY_TIMEOUT_SECONDS``.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.path = self.root / "cache.sqlite"
        self._lock = threading.Lock()
        self._db = None
        # (backend_id, digest) -> (fingerprint, value as JSON text), not yet committed
        self._pending: dict[tuple[str, str], tuple[str | None, str]] = {}

    def get(self, backend_id: str, digest: str,
            fingerprint: str | None = None) -> tuple[bool, object]:
        """(hit, value); an absent row, or one whose value is not JSON text, is a miss,
        and so is one stored under another ``fingerprint`` unless that is None."""
        key = (backend_id, digest)
        with self._lock:
            row = self._pending.get(key)
            if row is None and (self._db is not None or self.path.exists()):
                row = self._use(lambda db: db.execute(_SELECT, key).fetchone())
        if row is None or not isinstance(row[1], str):
            return False, None
        if fingerprint is not None and row[0] != fingerprint:
            return False, None
        try:
            return True, json.loads(row[1])
        except ValueError:
            return False, None

    def put(self, backend_id: str, digest: str, value: object,
            fingerprint: str | None = None) -> None:
        text = json.dumps(value, ensure_ascii=False)
        with self._lock:
            self._pending[(backend_id, digest)] = (fingerprint, text)
            if len(self._pending) >= _COMMIT_EVERY:
                self._commit()

    def close(self) -> None:
        """Commit the buffered puts and close the file; a later call reopens it."""
        with self._lock:
            try:
                if self._pending:
                    self._commit()
            finally:
                if self._db is not None:
                    self._db.close()
                    self._db = None

    def _commit(self) -> None:
        rows = [key + row for key, row in self._pending.items()]

        def write(db):
            db.execute("BEGIN IMMEDIATE")  # wait for the write lock now, not mid-transaction
            with db:  # commits, or rolls back on an error
                db.executemany("INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)", rows)

        self._use(write)
        self._pending.clear()

    def _use(self, work: Callable):
        """``work(connection)``, opening the file on first use; the caller holds the
        lock. A SQLite failure becomes a ``CacheError`` that names the file."""
        import sqlite3

        try:
            if self._db is None:
                self.root.mkdir(parents=True, exist_ok=True)
                self._db = sqlite3.connect(
                    self.path,
                    timeout=_BUSY_TIMEOUT_SECONDS,
                    isolation_level=None,
                    check_same_thread=False,
                )
                self._db.execute(_CREATE_TABLE)
            return work(self._db)
        except (OSError, sqlite3.Error) as exc:
            raise CacheError(f"{self.path}: unusable response cache: {exc}") from exc


def chat_request(model_name: str | None, user_content: str) -> dict:
    return {
        "model": model_name,
        "messages": [
            {"role": "system", "content": CHAT_SYSTEM_LINE},
            {"role": "user", "content": user_content},
        ],
    }


class _HttpTransport:
    """POSTs the request as JSON to the spec's endpoint, one connection per call."""

    def __init__(self, spec: BackendSpec):
        self.spec = spec
        self._headers = {"Content-Type": "application/json"}
        if spec.auth_env_var:
            key = os.environ.get(spec.auth_env_var)
            if not key:
                raise BackendError(
                    f"backend {spec.backend_id!r}: environment variable "
                    f"{spec.auth_env_var} is not set"
                )
            self._headers["Authorization"] = f"Bearer {key}"

    def send(self, request: Mapping[str, object], context=None) -> object:
        # Imported here: a stage that builds no http transport never loads them.
        import http.client
        import urllib.error
        import urllib.request

        try:
            http_request = urllib.request.Request(
                self.spec.endpoint,
                data=json.dumps(request).encode("utf-8"),
                headers=self._headers,
            )
            try:
                response = urllib.request.urlopen(http_request, timeout=self.spec.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # a non-2xx reply, read like any other
            with response:
                status, body = response.status, response.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # a connect timeout arrives wrapped in URLError, a read timeout bare
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise BackendTimeout(str(exc)) from exc
            raise BackendError(f"request failed: {exc}") from exc
        if status != 200:
            raise HttpStatusError(status, body.decode("utf-8", "replace")[:200])
        try:
            return json.loads(body)
        except ValueError as exc:
            raise MalformedReplyError("response body is not JSON") from exc


class _StubTransport:
    """Deterministic local stand-in for an upstream model.

    ``stub_params`` configure it. Infill: ``src``/``ref`` are the fill strings
    substituted for each mask. Translator: optional ``table`` maps exact source
    strings to outputs, identity otherwise. Scorers: ``mode`` is one of
    ``unigram_f1`` (default for scorer_ref_based), ``length_ratio`` (default
    for scorer_ref_free), ``token_overlap``, ``digest``, or ``constant`` with
    ``value``.
    """

    def __init__(self, spec: BackendSpec):
        self.spec = spec
        self.params = dict(spec.stub_params)

    def send(self, request: Mapping[str, object], context=None) -> object:
        kind = self.spec.kind
        if kind == "infill":
            return _chat_shape(self._infill_reply(context))
        if kind == "translator":
            user = request["messages"][-1]["content"]
            table = self.params.get("table") or {}
            return _chat_shape(table.get(user, user))
        return {"score": self._score(request)}

    def _infill_reply(self, context) -> str:
        if not context or "masked_source" not in context:
            raise BackendError("stub infill requires prompt metadata")
        src_fill = str(self.params.get("src", "thing"))
        ref_fill = str(self.params.get("ref", "东西"))
        filled_src = context["masked_source"].replace(MASK_TOKEN, src_fill)
        filled_ref = context["masked_reference"].replace(MASK_TOKEN, ref_fill)
        return f"Filled English: {filled_src}\nFilled Chinese: {filled_ref}"

    def _score(self, request: Mapping[str, object]) -> float:
        src = str(request.get("src", ""))
        hyp = str(request.get("hyp", ""))
        ref = request.get("ref")
        default = "unigram_f1" if self.spec.kind == "scorer_ref_based" else "length_ratio"
        mode = self.params.get("mode", default)
        if mode == "constant":
            return float(self.params["value"])
        if mode == "digest":
            blob = "\x00".join([src, hyp, str(ref)])
            prefix = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]
            return int(prefix, 16) / 2**32
        other = str(ref) if ref is not None else src
        if mode == "unigram_f1":
            return _unigram_f1(hyp.split(), other.split())
        if mode == "token_overlap":
            return _token_overlap(hyp.split(), other.split())
        if mode == "length_ratio":
            return _length_ratio(hyp.split(), other.split())
        raise BackendError(f"unknown stub scorer mode {mode!r}")


def _chat_shape(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def _overlap_count(left: list[str], right: list[str]) -> int:
    counts: dict[str, int] = {}
    for token in right:
        counts[token] = counts.get(token, 0) + 1
    overlap = 0
    for token in left:
        if counts.get(token, 0) > 0:
            counts[token] -= 1
            overlap += 1
    return overlap


def _unigram_f1(hyp: list[str], ref: list[str]) -> float:
    if not hyp or not ref:
        return 0.0
    overlap = _overlap_count(hyp, ref)
    return 2 * overlap / (len(hyp) + len(ref))


def _token_overlap(hyp: list[str], ref: list[str]) -> float:
    if not hyp and not ref:
        return 1.0
    return _overlap_count(hyp, ref) / max(len(hyp), len(ref))


def _length_ratio(hyp: list[str], ref: list[str]) -> float:
    if not hyp and not ref:
        return 1.0
    longer = max(len(hyp), len(ref))
    return min(len(hyp), len(ref)) / longer if longer else 1.0


class Backend:
    """One callable backend with caching, retries, and in-flight deduplication.

    ``transport`` may be injected for tests; anything with a
    ``send(request, context) -> parsed JSON`` method works. ``sleep`` is called
    with the backoff delay between retries and defaults to ``time.sleep``.
    """

    def __init__(self, spec: BackendSpec, cache: ResponseCache | None = None,
                 transport=None, sleep=None):
        self.spec = spec
        self.cache = cache
        if transport is None and spec.transport == "http":
            transport = _HttpTransport(spec)
        elif transport is None and spec.transport == "stub":
            transport = _StubTransport(spec)
        elif transport is None and spec.transport == "replay_cache":
            if cache is None:
                raise ValueError("replay_cache transport requires a response cache")
        self._transport = transport
        # A cached answer serves only a spec with the same fingerprint. A replay
        # spec has none: it serves whatever a live spec with its backend_id stored.
        self.fingerprint = None
        if spec.transport != "replay_cache":
            answer_fields = {name: getattr(spec, name) for name in _ANSWER_FIELDS}
            self.fingerprint = canonical_request_digest(spec.backend_id, answer_fields)
        self._sleep = time.sleep if sleep is None else sleep
        self._registry_lock = threading.Lock()
        # digest -> [lock, number of threads holding or waiting on it]
        self._in_flight: dict[str, list] = {}

    def infill(self, prompt: "PromptRequest") -> str:
        self._require_kind("infill")
        request = chat_request(self.spec.model_name, prompt.rendered_text)
        return self._request(request, context=prompt.metadata)

    def translate(self, source_text: str) -> str:
        self._require_kind("translator")
        request = chat_request(self.spec.model_name, source_text)
        return self._request(request)

    def score(self, source: str, hypothesis: str, reference: str | None = None) -> float:
        if reference is None:
            self._require_kind("scorer_ref_free")
            request = {"src": source, "hyp": hypothesis}
        else:
            self._require_kind("scorer_ref_based")
            request = {"src": source, "hyp": hypothesis, "ref": reference}
        return self._request(request)

    def _require_kind(self, kind: str) -> None:
        if self.spec.kind != kind:
            raise ValueError(
                f"backend {self.spec.backend_id!r} has kind {self.spec.kind!r}, "
                f"this call needs {kind!r}"
            )

    def _request(self, request: dict, context=None) -> object:
        digest = canonical_request_digest(self.spec.backend_id, request)
        if self.cache is None:
            return self._call_upstream(request, context, digest)
        hit, value = self.cache.get(self.spec.backend_id, digest, self.fingerprint)
        if hit:
            return value
        with self._key_lock(digest):
            hit, value = self.cache.get(self.spec.backend_id, digest, self.fingerprint)
            if hit:
                return value
            value = self._call_upstream(request, context, digest)
            self.cache.put(self.spec.backend_id, digest, value, self.fingerprint)
            return value

    @contextmanager
    def _key_lock(self, digest: str):
        """Hold the digest's in-flight lock; the last thread out drops the entry."""
        with self._registry_lock:
            entry = self._in_flight.setdefault(digest, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._registry_lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._in_flight[digest]

    def _call_upstream(self, request: dict, context, digest: str) -> object:
        if self._transport is None:
            raise CacheMissError(
                f"backend {self.spec.backend_id!r}: no cached response for request "
                f"{digest[:12]}"
            )
        attempt = 0
        while True:
            try:
                raw = self._transport.send(request, context)
                return self._extract(raw)
            except BackendError as exc:
                if not exc.retryable or attempt >= self.spec.max_retries:
                    raise
                self._sleep(_BACKOFF_BASE_SECONDS * (2**attempt))
                attempt += 1

    def _extract(self, raw: object) -> object:
        if self.spec.kind in ("infill", "translator"):
            try:
                content = raw["choices"][0]["message"]["content"]
            except (TypeError, KeyError, IndexError) as exc:
                raise MalformedReplyError(f"unexpected chat reply shape: {raw!r}") from exc
            if not isinstance(content, str):
                raise MalformedReplyError(f"chat content is not text: {content!r}")
            return content
        return _extract_score(raw)


def _extract_score(raw: object) -> float:
    value = raw
    if isinstance(raw, dict):
        if "score" not in raw:
            raise NonNumericReplyError(f"scorer reply has no score field: {raw!r}")
        value = raw["score"]
    if isinstance(value, bool):
        raise NonNumericReplyError(f"scorer reply is not numeric: {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise NonNumericReplyError(f"scorer reply is not numeric: {value!r}")


def map_jobs(fn: Callable, items: Iterable, jobs: int) -> list:
    """``[fn(item) for item in items]`` in order, on ``jobs`` threads when above one."""
    if jobs <= 1:
        return [fn(item) for item in items]
    # Imported on use, so a stage at jobs = 1 loads neither it nor logging.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def map_distinct(fn: Callable, keys: Iterable, jobs: int) -> dict:
    """``{key: fn(key)}`` with ``fn`` called once per distinct key, via ``map_jobs``.

    Keys are dispatched in first-seen order. A ``BackendError`` raised for a
    key becomes that key's value instead of propagating; ``unwrap`` raises it
    again where the value is read. A stage gathers the requests of all its
    cases and passes them here together: a memo shared by per-case workers
    would leave the cases of one pair waiting on each other's request instead
    of keeping ``jobs`` distinct requests in flight.
    """

    def call(key):
        try:
            return fn(key)
        except BackendError as exc:
            return exc

    distinct = list(dict.fromkeys(keys))
    return dict(zip(distinct, map_jobs(call, distinct, jobs)))


def unwrap(value: object) -> object:
    """A ``map_distinct`` value, raising it if it is a stored ``BackendError``."""
    if isinstance(value, BackendError):
        raise value
    return value
