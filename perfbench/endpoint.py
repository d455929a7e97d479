"""Loopback HTTP endpoint that answers like the stub backends.

One path per backend slot (``/infill``, ``/scorer_ref_free``, ``/translator``,
``/scorer_ref_based``). Each request is held for a fixed service delay, then
answered with what the stub transport would have returned, computed by the
oracle model.

One thread accepts connections and watches every open one with a selector.
When a request arrives on a connection, the connection goes to a pool of
``workers`` threads, which answer it and hand the connection back. So the
endpoint never runs more than ``workers`` handlers, and an idle keep-alive
connection holds no thread: a client may keep as many connections open as it
likes without making the others wait.

Every reply leaves in a single ``sendall`` with ``TCP_NODELAY`` set. A reply
written as headers and body separately stalls a keep-alive client on the
peer's delayed ACK (about 40 ms per call on Linux), which would swamp any
client-side change such as connection reuse.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from . import oracle

# The masked sentences sit at the end of every infill template.
_EN_ANCHOR = "English Sentence: "
_ZH_ANCHOR = ". \\n Chinese Translation: "
# A worker gives up on a connection that stalls in the middle of a request.
_READ_TIMEOUT_S = 10


class EndpointStats:
    """What the endpoint saw, safe to update from handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = {}
        self.bodies = {}
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "distinct": {slot: len(seen) for slot, seen in self.bodies.items()},
                "connections": self.connections,
                "max_in_flight": self.max_in_flight,
            }


def answer(slot: str, request: dict, fills: dict, table: dict) -> dict:
    """The stub transport's reply to one request of ``slot``."""
    if slot == "infill":
        text = request["messages"][-1]["content"]
        start = text.rindex(_EN_ANCHOR) + len(_EN_ANCHOR)
        split = text.rindex(_ZH_ANCHOR)
        reply = oracle.fill_reply(
            text[start:split], text[split + len(_ZH_ANCHOR) :], fills["src"], fills["ref"]
        )
        return {"choices": [{"message": {"content": reply}}]}
    if slot == "translator":
        text = request["messages"][-1]["content"]
        return {"choices": [{"message": {"content": oracle.translate(text, table)}}]}
    if slot == "scorer_ref_free":
        return {"score": oracle.length_ratio(request["hyp"], request["src"])}
    if slot == "scorer_ref_based":
        return {"score": oracle.unigram_f1(request["hyp"], request["ref"])}
    raise KeyError(slot)


class _Connection:
    """One accepted socket and the bytes read from it but not yet used."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()

    def _fill(self, size: int) -> bool:
        while len(self.buf) < size:
            data = self.sock.recv(65536)
            if not data:
                return False
            self.buf += data
        return True

    def read_request(self):
        """``(path, body, keep_alive)`` of the next request, None once the peer closed."""
        while b"\r\n\r\n" not in self.buf:
            if not self._fill(len(self.buf) + 1):
                return None
        end = self.buf.index(b"\r\n\r\n") + 4
        lines = self.buf[:end].decode("latin-1").split("\r\n")
        _, path, version = lines[0].split(" ", 2)
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", 0))
        if not self._fill(end + length):
            return None
        body = bytes(self.buf[end : end + length])
        del self.buf[: end + length]
        keep = version == "HTTP/1.1" and headers.get("connection") != "close"
        return path, body, keep


class LoopbackEndpoint:
    """Stub-equivalent endpoint on 127.0.0.1 with at most ``workers`` handlers."""

    def __init__(self, fills: dict, table: dict, delay: float, workers: int):
        self.fills, self.table, self.delay = fills, table, delay
        self.stats = EndpointStats()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        # Connections the workers are done with, for the selector thread.
        self._returned: queue.SimpleQueue = queue.SimpleQueue()
        self._open: set[_Connection] = set()
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._stopping = False
        self._loop: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def start(self) -> "LoopbackEndpoint":
        self._loop = threading.Thread(target=self._watch)
        self._loop.start()
        return self

    def ready(self) -> bool:
        """Send one request per slot over one keep-alive connection; True when
        every reply comes back whole and as the stub would answer."""
        masked = f"{_EN_ANCHOR}a {oracle.MASK}{_ZH_ANCHOR}b {oracle.MASK}"
        probes = {
            "infill": {"messages": [{"role": "user", "content": masked}]},
            "scorer_ref_free": {"src": "a b", "hyp": "a"},
            "translator": {"messages": [{"role": "user", "content": "a b"}]},
            "scorer_ref_based": {"hyp": "a b", "ref": "a c"},
        }
        host, port = self._listener.getsockname()[:2]
        client = http.client.HTTPConnection(host, port, timeout=_READ_TIMEOUT_S)
        try:
            for slot, request in probes.items():
                client.request("POST", f"/{slot}", json.dumps(request))
                reply = client.getresponse()
                body = json.loads(reply.read())
                if reply.status != 200 or body != answer(slot, request, self.fills, self.table):
                    return False
        finally:
            client.close()
        return True

    def stop(self) -> None:
        """Stop watching, wait for every worker, close every socket."""
        self._stopping = True
        self._wake_w.send(b"\0")
        if self._loop is not None:
            self._loop.join()
        self._pool.shutdown(wait=True)
        for conn in self._open:
            conn.sock.close()
        self._selector.close()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    # -- the selector thread ----------------------------------------------------

    def _watch(self) -> None:
        while not self._stopping:
            for key, _ in self._selector.select():
                if key.data == "accept":
                    self._accept()
                elif key.data == "wake":
                    self._take_back()
                else:
                    # Unwatched until its worker hands it back.
                    self._selector.unregister(key.fileobj)
                    self._pool.submit(self._serve, key.data)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except BlockingIOError:
            return
        sock.setblocking(True)
        sock.settimeout(_READ_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.stats.lock:
            self.stats.connections += 1
        conn = _Connection(sock)
        self._open.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _take_back(self) -> None:
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass
        while True:
            try:
                conn, keep = self._returned.get_nowait()
            except queue.Empty:
                return
            if keep:
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            else:
                self._open.discard(conn)
                conn.sock.close()

    # -- the workers ------------------------------------------------------------

    def _serve(self, conn: _Connection) -> None:
        """Answer what has arrived on ``conn``, then give it back."""
        keep = False
        try:
            while True:
                request = conn.read_request()
                if request is None:
                    keep = False
                    break
                path, body, keep = request
                conn.sock.sendall(self._reply(path.strip("/"), body))
                if not keep or not conn.buf:
                    break
        except (OSError, ValueError):
            keep = False
        finally:
            self._returned.put((conn, keep))
            self._wake_w.send(b"\0")

    def _reply(self, slot: str, body: bytes) -> bytes:
        stats = self.stats
        with stats.lock:
            stats.in_flight += 1
            stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
            stats.requests[slot] = stats.requests.get(slot, 0) + 1
            stats.bodies.setdefault(slot, set()).add(hashlib.sha1(body).digest())
        try:
            started = time.perf_counter()
            try:
                payload = answer(slot, json.loads(body), self.fills, self.table)
                status, text = "200 OK", json.dumps(payload, ensure_ascii=False)
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                status, text = "400 Bad Request", json.dumps({"error": str(exc)})
            remaining = self.delay - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            data = text.encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii")
            return head + data
        finally:
            with stats.lock:
                stats.in_flight -= 1
