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

import functools
import hashlib
import json
import math
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Literal, Mapping, NamedTuple

from .codec import checked, from_row, number
from .corpus import MASK_TOKEN

if TYPE_CHECKING:  # pragma: no cover
    from .casegen import PromptRequest

# A backend's role, and the name of the config slot that declares it.
Kind = Literal["infill", "translator", "scorer_ref_based", "scorer_ref_free"]

# System message sent with every chat call, infill and direct translation alike.
CHAT_SYSTEM_LINE = "You are a helpful assistant that translates English to Chinese."

_BACKOFF_BASE_SECONDS = 0.25
# On a ``pipeline`` worker thread, ``cancelled`` is that pipeline's cancellation signal.
_worker = threading.local()

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


@checked
class BackendSpec(NamedTuple):
    """Declarative description of one backend, as found in the run config."""

    backend_id: str
    kind: Kind
    transport: Literal["http", "replay_cache", "stub"]
    endpoint: str | None = None
    model_name: str | None = None
    auth_env_var: str | None = None
    timeout: float = 30.0
    max_retries: int = 2
    stub_params: Mapping[str, object] = {}

    def _check(self) -> None:
        if not self.backend_id:
            raise ValueError("backend_id must not be empty")
        if self.transport == "http" and not self.endpoint:
            raise ValueError("http transport requires an endpoint")
        if self.transport == "http" and not _is_web_url(self.endpoint):
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host: {self.endpoint!r}")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must not be negative")


def _is_web_url(text: str) -> bool:
    from urllib.parse import urlsplit  # raises ValueError on a malformed URL

    parts = urlsplit(text)
    return parts.scheme in ("http", "https") and bool(parts.hostname)


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
_SELECT_BACKEND = "SELECT digest, fingerprint, value FROM entries WHERE backend_id = ?"


class ResponseCache:
    """Response cache in one SQLite file, ``<root>/cache.sqlite``.

    A row per ``(backend_id, digest)`` holds the fingerprint of the spec that
    wrote it and the answer as JSON text; an answer written later replaces it.
    ``put`` buffers answers and commits them ``_COMMIT_EVERY`` at a time, and
    ``close`` commits the rest. A run served wholly from the cache writes
    nothing. The first ``get`` for a backend reads all of that backend's rows
    with one query and keeps them until ``close``, so a row another process
    commits after that is seen only once the file is reopened. The threads of
    one process share one connection behind a lock; another process's writes
    are waited on, up to ``_BUSY_TIMEOUT_SECONDS``.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.path = self.root / "cache.sqlite"
        self._lock = threading.Lock()
        self._db = None
        # (backend_id, digest) -> (fingerprint, value as JSON text), not yet committed
        self._pending: dict[tuple[str, str], tuple[str | None, str]] = {}
        # backend_id -> digest -> (fingerprint, value) of the committed rows, read on
        # that backend's first get since the file was opened
        self._loaded: dict[str, dict[str, tuple[str | None, object]]] = {}

    def get(self, backend_id: str, digest: str,
            fingerprint: str | None = None) -> tuple[bool, object]:
        """(hit, value) with the value as JSON decodes it; an absent row, or one whose value is
        not JSON text, is a miss, and so is one stored under another ``fingerprint`` unless that
        is None. The first call for a ``backend_id`` reads that backend's committed rows."""
        with self._lock:
            row = self._pending.get((backend_id, digest))  # so a repeat before the commit is a hit
            if row is None:
                rows = self._loaded.get(backend_id)
                if rows is None and (self._db is not None or self.path.exists()):
                    rows = self._loaded[backend_id] = self._use(
                        lambda db: {d: (f, v) for d, f, v in db.execute(_SELECT_BACKEND, (backend_id,))}
                    )
                row = None if rows is None else rows.get(digest)
        if row is None or not isinstance(row[1], str) or fingerprint not in (None, row[0]):
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
                self._loaded.clear()
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
        for (backend_id, digest), row in self._pending.items():
            if backend_id in self._loaded:
                self._loaded[backend_id][digest] = row
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


@functools.cache
def _tls_context():
    """The process's one TLS context: urllib's default verification, ALPN ``http/1.1``."""
    import ssl

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


class _HttpTransport:
    """POSTs the request as JSON to the spec's endpoint, one connection per call, through
    the environment's proxies. The opener has no redirect handler, since a redirect would
    resend the bearer token, and no error processor: every status is read as a reply."""

    def __init__(self, spec: BackendSpec):
        # Imported here: a stage that builds no http transport never loads it.
        import http.client
        import urllib.request

        class HTTPSHandler(urllib.request.AbstractHTTPHandler):  # makes no TLS context itself
            https_request = urllib.request.AbstractHTTPHandler.do_request_
            def https_open(self, request):
                return self.do_open(http.client.HTTPSConnection, request, context=_tls_context())

        self.spec = spec
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(),
                        urllib.request.HTTPHandler(), HTTPSHandler()):
            self._opener.add_handler(handler)
        self._headers = {"Content-Type": "application/json"}
        if spec.auth_env_var:
            key = os.environ.get(spec.auth_env_var)
            if not key:  # a config error: no request has been sent
                raise ValueError(f"environment variable {spec.auth_env_var} is not set")
            self._headers["Authorization"] = f"Bearer {key}"

    def send(self, request: Mapping[str, object]) -> object:
        import http.client
        import urllib.request

        try:
            data = json.dumps(request).encode("utf-8")
            http_request = urllib.request.Request(self.spec.endpoint, data, self._headers)
            with self._opener.open(http_request, timeout=self.spec.timeout) as response:
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
            raise BackendError("response body is not JSON") from exc


class StubParams(NamedTuple):
    """A stub's ``stub_params``, read by the codec like every other config record."""

    src: str = "thing"
    ref: str = "东西"
    table: Mapping[str, str] = {}
    mode: str | None = None
    value: float | None = None


class _StubTransport:
    """Deterministic local stand-in for an upstream model.

    ``stub_params`` configure it. Infill: ``src``/``ref`` are the fill strings
    substituted for each mask in the two masked sentences that end the prompt:
    the reference, read after the last ``casegen.REFERENCE_ANCHOR``, and the source,
    read after the last ``casegen.SOURCE_ANCHOR`` before it. The reply has ``casegen``'s
    markers. Only a reference that holds the one or a source that holds the other is misread.
    Translator: optional ``table`` maps exact source strings to output strings, identity
    otherwise. Scorers: ``mode`` is one of ``unigram_f1`` (default for
    scorer_ref_based), ``length_ratio`` (default for scorer_ref_free), or
    ``constant`` with ``value``. The codec reads the parameters once, when it is built.
    """

    def __init__(self, spec: BackendSpec):
        self.spec = spec
        try:
            self.params = from_row(StubParams, spec.stub_params)
        except ValueError as exc:
            raise ValueError(f"stub_params: {exc}") from None
        if spec.kind.startswith("scorer_"):
            default = "unigram_f1" if spec.kind == "scorer_ref_based" else "length_ratio"
            self.mode = default if self.params.mode is None else self.params.mode
            if self.mode not in ("constant", *_STUB_SCORERS):
                raise ValueError(f"unknown stub scorer mode {self.mode!r}")
            if self.mode == "constant" and self.params.value is None:
                raise ValueError("stub scorer mode 'constant' needs a 'value'")

    def send(self, request: Mapping[str, object]) -> object:
        if self.spec.kind.startswith("scorer_"):
            return {"score": self._score(request)}
        user = request["messages"][-1]["content"]
        content = self._infill_reply(user) if self.spec.kind == "infill" else self.params.table.get(user, user)
        return {"choices": [{"message": {"content": content}}]}

    def _infill_reply(self, prompt: str) -> str:
        # Imported here, since casegen imports this module.
        from .casegen import EN_MARKER, REFERENCE_ANCHOR, SOURCE_ANCHOR, ZH_MARKER
        split = prompt.rfind(REFERENCE_ANCHOR)
        start = prompt.rfind(SOURCE_ANCHOR, 0, split) if split >= 0 else -1
        if start < 0:
            raise BackendError("stub infill prompt lacks the masked sentences")
        filled_src = prompt[start + len(SOURCE_ANCHOR) : split].replace(MASK_TOKEN, self.params.src)
        filled_ref = prompt[split + len(REFERENCE_ANCHOR) :].replace(MASK_TOKEN, self.params.ref)
        return f"{EN_MARKER} {filled_src}\n{ZH_MARKER} {filled_ref}"

    def _score(self, request: Mapping[str, object]) -> float:
        if self.mode == "constant":
            return self.params.value
        ref = request.get("ref")
        other = str(ref) if ref is not None else str(request.get("src", ""))
        return _STUB_SCORERS[self.mode](str(request.get("hyp", "")).split(), other.split())


def _unigram_f1(hyp: list[str], ref: list[str]) -> float:
    if not hyp or not ref:
        return 0.0
    overlap = sum((Counter(hyp) & Counter(ref)).values())
    return 2 * overlap / (len(hyp) + len(ref))


def _length_ratio(hyp: list[str], ref: list[str]) -> float:
    if not hyp and not ref:
        return 1.0
    return min(len(hyp), len(ref)) / max(len(hyp), len(ref))


_STUB_SCORERS = {"unigram_f1": _unigram_f1, "length_ratio": _length_ratio}


class Backend:
    """One callable backend with caching and retries.

    Identical requests sent to one cached backend from several threads at
    once may each go upstream, and the answer written last stays; the stages
    send each distinct request once, through ``pipeline``.

    ``transport`` may be injected for tests; anything with a
    ``send(request) -> parsed JSON`` method works. ``sleep`` is called
    with the backoff delay between retries. By default it is ``time.sleep``,
    or on a ``pipeline`` worker thread a wait that ends when the pipeline is
    cancelled; a cancelled request is not retried.
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
        self._sleep = sleep

    def infill(self, prompt: "PromptRequest") -> str:
        return self._request("infill", chat_request(self.spec.model_name, prompt.rendered_text))

    def translate(self, source_text: str) -> str:
        return self._request("translator", chat_request(self.spec.model_name, source_text))

    def score(self, source: str, hypothesis: str, reference: str | None = None) -> float:
        if reference is None:
            return self._request("scorer_ref_free", {"src": source, "hyp": hypothesis})
        return self._request("scorer_ref_based", {"src": source, "hyp": hypothesis, "ref": reference})

    def _request(self, kind: str, request: dict) -> object:
        if self.spec.kind != kind:
            raise ValueError(
                f"backend {self.spec.backend_id!r} has kind {self.spec.kind!r}, "
                f"this call needs {kind!r}"
            )
        digest = canonical_request_digest(self.spec.backend_id, request)
        if self.cache is None:
            return self._call_upstream(request, digest)
        hit, value = self.cache.get(self.spec.backend_id, digest, self.fingerprint)
        if not (hit and _is_answer(kind, value)):  # a row of another type is refetched and replaced
            value = self._call_upstream(request, digest)
            self.cache.put(self.spec.backend_id, digest, value, self.fingerprint)
        return value

    def _call_upstream(self, request: dict, digest: str) -> object:
        if self._transport is None:
            raise BackendError(
                f"backend {self.spec.backend_id!r}: no cached response for request "
                f"{digest[:12]}"
            )
        cancelled = getattr(_worker, "cancelled", None)
        sleep = self._sleep or (time.sleep if cancelled is None else cancelled.wait)
        attempt = 0
        while True:
            try:
                raw = self._transport.send(request)
                return self._extract(raw)
            except BackendError as exc:
                if not exc.retryable or attempt >= self.spec.max_retries:
                    raise
                sleep(_BACKOFF_BASE_SECONDS * (2**attempt))
                if cancelled is not None and cancelled.is_set():
                    raise
                attempt += 1

    def _extract(self, raw: object) -> object:
        if self.spec.kind in ("infill", "translator"):
            try:
                choice = raw["choices"][0]
                content = choice["message"]["content"]
            except (TypeError, KeyError, IndexError) as exc:
                raise BackendError(f"unexpected chat reply shape: {raw!r}") from exc
            if not _is_answer(self.spec.kind, content):
                raise BackendError(f"chat content is not text: {content!r}")
            if choice.get("finish_reason") not in (None, "stop"):  # cut at a token limit, or filtered
                raise BackendError(f"chat reply did not finish: finish_reason {choice['finish_reason']!r}")
            return content
        return _extract_score(raw)


def _is_answer(kind: str, value: object) -> bool:
    """Whether ``value`` is an answer a ``kind`` backend may hand out, upstream's or the
    cache's: text for a chat kind, a finite float for a scorer (NaN passes every judge
    comparison and is not valid JSON in records.jsonl)."""
    if kind in ("infill", "translator"):
        return isinstance(value, str)
    return type(value) is float and math.isfinite(value)


def _extract_score(raw: object) -> float:
    value = raw
    if isinstance(raw, dict):
        if "score" not in raw:
            raise BackendError(f"scorer reply has no score field: {raw!r}")
        value = raw["score"]
    try:  # one rule for both scorer kinds, the codec's for a number
        return number(value)
    except ValueError:
        raise BackendError(f"scorer reply is not a finite number: {value!r}") from None


def pipeline(work: Iterable[tuple], first: Callable, follow: Callable, second: Callable,
             jobs: int) -> tuple[dict, dict]:
    """A stage's two dependent slots: ``first(key)`` for each ``(key, item)`` of
    ``work``, then ``second(request)`` for each request that ``follow(item, answer)``
    returns once the item's first answer has arrived.

    Returns ``({key: answer}, {request: answer})``, keys in first-seen order.
    Each distinct key and each distinct request is sent once. A ``BackendError``
    becomes the answer instead of propagating; ``unwrap`` raises it again where
    the answer is read. An item whose first answer is an error is not followed.
    ``follow`` always runs on the calling thread.

    One loop on the calling thread takes each answer as it arrives, calls
    ``follow`` for each item of its key together, and sends each new second
    request. At ``jobs`` 1 no thread starts: each request runs inline when the
    loop takes it, so every first request goes before any second one. Above
    one, each slot keeps up to ``jobs`` requests in flight on its own threads.
    On any exception, Ctrl-C included, no queued request of either slot
    starts, and a request in flight ends after its current attempt instead of
    retrying.
    """
    import queue

    items: dict = {}
    for key, item in work:
        items.setdefault(key, []).append(item)
    firsts, seconds = dict.fromkeys(items), {}
    arrived = queue.SimpleQueue()  # (answers, key, call that returns the answer)
    cancelled = threading.Event()
    pools = ()
    if jobs > 1:  # imported here, so a stage at jobs = 1 loads neither it nor logging
        from concurrent.futures import ThreadPoolExecutor

        worker = {"initializer": setattr, "initargs": (_worker, "cancelled", cancelled)}
        pools = (ThreadPoolExecutor(jobs, **worker), ThreadPoolExecutor(jobs, **worker))

    def submit(slot: int, fn, answers: dict, key) -> None:
        if pools:  # done.result is called by the loop: on a worker, an error that is no BackendError would be lost
            future = pools[slot].submit(_answer, fn, key)
            future.add_done_callback(lambda done: arrived.put((answers, key, done.result)))
        else:
            arrived.put((answers, key, functools.partial(_answer, fn, key)))

    try:
        for key in firsts:
            submit(0, first, firsts, key)
        outstanding = len(firsts)
        while outstanding:
            try:  # timed: Ctrl-C that lands just as the wait blocks is otherwise seen at the next answer
                answers, key, take = arrived.get(timeout=1)
            except queue.Empty:
                continue
            outstanding -= 1
            answer = answers[key] = take()
            if answers is not firsts or isinstance(answer, BackendError):
                continue
            for item in items[key]:
                for request in follow(item, answer):
                    if request not in seconds:
                        seconds[request] = None
                        submit(1, second, seconds, request)
                        outstanding += 1
    except BaseException:  # cancel what is queued before the shutdown waits for what runs
        cancelled.set()
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        for pool in pools:
            pool.shutdown()
    return firsts, seconds


def _answer(fn: Callable, key) -> object:
    try:
        return fn(key)
    except BackendError as exc:
        return exc


def unwrap(value: object) -> object:
    """A ``pipeline`` answer, raising it if it is a stored ``BackendError``."""
    if isinstance(value, BackendError):
        raise value
    return value
