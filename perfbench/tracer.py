"""Run one ``mtbehave`` CLI stage with its public functions wrapped in spans.

Usage: ``python perfbench/tracer.py TRACE_FILE STAGE [CLI ARGS...]``

The program is not modified: this script imports it, replaces each public
function below (wherever a module holds a reference to it) and the listed
methods with timing wrappers, then runs the CLI's ``main``. Spans are kept in
memory, one stack per thread so ``jobs`` > 1 nests correctly, and written to
TRACE_FILE as JSON when the stage exits, together with the counters the
wrappers keep: requests and distinct requests per backend slot, cache hits,
misses and puts, upstream calls, and the result sizes of the wrapped layers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import threading
import time

_clock = time.perf_counter

# (module, attribute) -> span name. Methods are "module.Class.method".
FUNCTIONS = {
    ("cli", "load_run_config"): "cli.load_run_config",
    ("corpus", "load_corpus"): "corpus.load_corpus",
    ("segmentation", "extract_editable"): "segmentation.extract_editable",
    ("segmentation", "filter_by_capability"): "segmentation.filter_by_capability",
    ("segmentation", "plan_selection"): "segmentation.plan_selection",
    ("casegen", "generate_cases"): "casegen.generate_cases",
    ("casegen", "mask_pair"): "casegen.mask_pair",
    ("casegen", "render_prompt"): "casegen.render_prompt",
    ("casegen", "parse_response"): "casegen.parse_response",
    ("casegen", "quality_filter"): "casegen.quality_filter",
    ("casegen", "write_cases"): "casegen.write_cases",
    ("casegen", "read_cases"): "casegen.read_cases",
    ("judge", "score_records"): "judge.score_records",
    ("judge", "judge_records"): "judge.judge_records",
    ("judge", "sweep"): "judge.sweep",
    ("judge", "write_records"): "judge.write_records",
    ("judge", "read_records"): "judge.read_records",
    ("judge", "write_verdicts"): "judge.write_verdicts",
    ("judge", "read_verdicts"): "judge.read_verdicts",
    ("report", "capability_table"): "report.capability_table",
    ("report", "precision_recall"): "report.precision_recall",
    ("report", "error_position_analysis"): "report.error_position_analysis",
    ("report", "load_gold"): "report.load_gold",
    ("report", "emit_report"): "report.emit_report",
    ("report", "sweep_markdown"): "report.sweep_markdown",
}
METHODS = {
    ("cli", "RunManifest", "load"): "cli.RunManifest.load",
    ("cli", "RunManifest", "record_stage"): "cli.RunManifest.record_stage",
    ("backends", "Backend", "infill"): "backends.Backend.request",
    ("backends", "Backend", "translate"): "backends.Backend.request",
    ("backends", "Backend", "score"): "backends.Backend.request",
    ("backends", "ResponseCache", "get"): "backends.ResponseCache.get",
    ("backends", "ResponseCache", "put"): "backends.ResponseCache.put",
}
# Transports are where a request leaves for the upstream; their class names
# are private, so a missing one is skipped rather than fatal.
TRANSPORTS = ("_StubTransport", "_HttpTransport")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.digests = {}
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def seen(self, key: str, item: str) -> None:
        with self._lock:
            self.digests.setdefault(key, set()).add(
                hashlib.sha1(item.encode("utf-8")).hexdigest()[:16]
            )

    def span(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else 0
            span_id = next(self._ids)
            frame = [span_id, {}]
            stack.append(frame)
            if before is not None:
                before(frame[1], args, kwargs)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                self.spans.append(
                    (span_id, parent, name, threading.get_ident(), start, end, frame[1].get("tag"))
                )
            if after is not None:
                after(frame[1], args, result)
            return result

        return wrapper

    def current(self) -> dict | None:
        """Notes of the innermost backend request on this thread."""
        for _, notes in reversed(self._stack()):
            if "slot" in notes:
                return notes
        return None


def _request_key(name: str, args, kwargs) -> str:
    if name == "infill":
        return args[1].rendered_text
    if name == "translate":
        return args[1]
    return json.dumps([args[1:], sorted(kwargs.items())], ensure_ascii=False)


def install(tracer: Tracer, package) -> None:
    modules = {
        name: sys.modules[f"{package.__name__}.{name}"]
        for name in ("cli", "corpus", "segmentation", "casegen", "judge", "report", "backends")
    }
    modules["__init__"] = package

    def counted(key, size=len):
        return lambda notes, args, result: tracer.count(key, size(result))

    def statuses(notes, args, result):
        tracer.count("casegen.cases", len(result))
        for case in result:
            tracer.count(f"casegen.status.{case.filter_status}")

    after = {
        "corpus.load_corpus": lambda s, a, r: tracer.count("corpus.loads"),
        "segmentation.extract_editable": counted("segmentation.segments"),
        "segmentation.plan_selection": counted("segmentation.plans"),
        "casegen.generate_cases": statuses,
        "judge.score_records": counted("judge.records"),
        "judge.judge_records": lambda s, a, r: (
            tracer.count("judge.verdicts", len(r)),
            tracer.count("judge.passed", sum(v.passed for v in r)),
        ),
        "report.capability_table": counted("report.rows"),
    }
    before = {
        "segmentation.extract_editable": lambda s, a, k: tracer.count("segmentation.extract_calls"),
    }
    for (module_name, attr), span_name in FUNCTIONS.items():
        original = getattr(modules[module_name], attr)
        wrapped = tracer.span(span_name, original, before.get(span_name), after.get(span_name))
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def request_before(method):
        def hook(notes, args, kwargs):
            slot = args[0].spec.kind
            notes.update(slot=slot, tag=slot, cached=args[0].cache is not None, hit=False)
            tracer.count(f"backends.{slot}.requests")
            tracer.seen(f"backends.{slot}.distinct", _request_key(method, args, kwargs))

        return hook

    def request_after(notes, args, result):
        if notes["cached"]:
            tracer.count("backends.cache.hits" if notes["hit"] else "backends.cache.misses")

    def cache_get_after(notes, args, result):
        request = tracer.current()
        if request is not None and result[0]:
            request["hit"] = True

    for (module_name, cls_name, attr), span_name in METHODS.items():
        cls = getattr(modules[module_name], cls_name)
        original = getattr(cls, attr)
        if span_name == "backends.Backend.request":
            hooks = (request_before(attr), request_after)
        elif attr == "get" and cls_name == "ResponseCache":
            hooks = (None, cache_get_after)
        elif attr == "put":
            hooks = (lambda s, a, k: tracer.count("backends.cache.puts"), None)
        else:
            hooks = (None, None)
        if isinstance(vars(cls)[attr], classmethod):
            wrapped = classmethod(tracer.span(span_name, original.__func__, *hooks))
        else:
            wrapped = tracer.span(span_name, original, *hooks)
        setattr(cls, attr, wrapped)

    def send_before(notes, args, kwargs):
        slot = args[0].spec.kind
        tracer.count(f"backends.{slot}.upstream_calls")
        tracer.seen("backends.upstream_distinct", slot + json.dumps(args[1], sort_keys=True))

    for cls_name in TRANSPORTS:
        cls = getattr(modules["backends"], cls_name, None)
        if cls is not None:
            cls.send = tracer.span("backends.transport.send", cls.send, send_before)


def main(argv: list[str]) -> None:
    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    started = _clock()
    import mtbehave
    import mtbehave.cli

    imported = _clock()
    install(tracer, mtbehave)
    status = 0
    try:
        tracer.span("cli.main", mtbehave.cli.main)(args=cli_args, prog_name="mtbehave")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "import": [started, imported],
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "digests": {k: sorted(v) for k, v in tracer.digests.items()},
                },
                handle,
            )
    sys.exit(status)


if __name__ == "__main__":
    main(sys.argv[1:])
