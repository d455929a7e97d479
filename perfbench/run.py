"""Pipeline benchmark: the real ``mtbehave`` CLI over seeded synthetic workspaces.

Usage, from the repository root:

    python3 perfbench/run.py --workload warm-cache --seed 1 --seconds 40 --trace 0

Each round runs extract, generate, judge, sweep, eval and report, one process
per stage, and times every process from launch to exit. Rounds repeat until
``--seconds`` have passed; every figure is the median over rounds. The first
round's artifacts go through the independent checker, later rounds must
reproduce them byte for byte. With ``--trace 1`` rounds alternate between
plain and traced stages (see ``tracer.py``), and the per-layer figures of the
traced rounds are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (test cases) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import check, workspace  # noqa: E402
from perfbench.endpoint import EndpointStats, LoopbackEndpoint  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
SERVICE_DELAY_S = 0.03
# Set-ups per run, the same on every workload; their median is setup_s.
SETUPS = 5
STAGE_TIMEOUT_S = 120
# Every run works in its own directory under this one and leaves it there;
# the next run deletes it once its own set-ups are done. Deleting a run's
# thousands of cache files right before the next run's set-ups slowed those
# set-ups by about a third on a shared disk, and the timed rounds write few
# files. So two runs must not share a checkout at the same time.
WORK_DIR = ".perfbench_work"
# What the warm-cache set-up run writes; the timed reruns must match it.
FILLED = ("cases.jsonl", "records.jsonl", "verdicts.jsonl")
# The stages of the cache-filling run: the only ones that call a backend.
FILL_STAGES = ("generate", "judge")
FILL_METRICS = ("setup.cache.puts", "setup.cache.put_s", "setup.upstream_calls")


@dataclass(frozen=True)
class Workload:
    capability: str
    pairs: int
    warm: bool
    remote: bool
    jobs: int
    per_pair: int = 3


# Why each workload exists is recorded in BENCHMARK.json and the README, and
# why there is no cold-cache workload in the README.
WORKLOADS = {
    "warm-cache": Workload("general", 200, warm=True, remote=False, jobs=1),
    "remote-latency": Workload("noun", 12, warm=False, remote=True, jobs=NPROC),
}

SLOTS = workspace.SLOTS
MODULES = ("cli", "corpus", "segmentation", "casegen", "backends", "judge", "report")
# Per-layer time metrics: name -> the span names whose durations add up to it.
SPAN_TIMES = {
    "cli.config_s": ("cli.load_run_config",),
    "cli.manifest_s": ("cli.RunManifest.load", "cli.RunManifest.record_stage"),
    "corpus.load_s": ("corpus.load_corpus",),
    "segmentation.extract_s": ("segmentation.extract_editable",),
    "segmentation.plan_s": ("segmentation.plan_selection",),
    "casegen.generate_s": ("casegen.generate_cases",),
    "casegen.render_s": ("casegen.mask_pair", "casegen.render_prompt"),
    "casegen.parse_s": ("casegen.parse_response",),
    "casegen.filter_s": ("casegen.quality_filter",),
    "casegen.io_s": ("casegen.write_cases", "casegen.read_cases"),
    "backends.cache.get_s": ("backends.ResponseCache.get",),
    "backends.cache.put_s": ("backends.ResponseCache.put",),
    "judge.score_records_s": ("judge.score_records",),
    "judge.judge_records_s": ("judge.judge_records",),
    "judge.sweep_s": ("judge.sweep",),
    "judge.io_s": (
        "judge.write_records",
        "judge.read_records",
        "judge.write_verdicts",
        "judge.read_verdicts",
    ),
    "report.table_s": ("report.capability_table",),
    "report.eval_s": ("report.precision_recall", "report.error_position_analysis", "report.load_gold"),
    "report.emit_s": ("report.emit_report", "report.sweep_markdown"),
}
COUNTS = {
    "corpus.loads": "corpus.loads",
    "segmentation.extract_calls": "segmentation.extract_calls",
    "segmentation.segments": "segmentation.segments",
    "segmentation.plans": "segmentation.plans",
    "casegen.cases": "casegen.cases",
    "casegen.kept": "casegen.status.kept",
    "casegen.dropped_identical": "casegen.status.dropped_identical",
    "casegen.dropped_quality": "casegen.status.dropped_quality",
    "casegen.errors": "casegen.status.error",
    "backends.cache.hits": "backends.cache.hits",
    "backends.cache.misses": "backends.cache.misses",
    "backends.cache.puts": "backends.cache.puts",
    "judge.records": "judge.records",
    "judge.verdicts": "judge.verdicts",
    "judge.passed": "judge.passed",
    "report.rows": "report.rows",
}


class BenchError(Exception):
    """The pipeline failed or produced wrong artifacts; the run is not correct."""


def _median(values) -> float:
    return float(statistics.median(values))


def _digests(out: Path, names=check.ARTIFACTS) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _traces(trace_dir: Path, stages) -> list[dict]:
    return [
        json.loads((trace_dir / f"{stage}.json").read_text(encoding="utf-8")) for stage in stages
    ]


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    """Every file under ``root`` with its size and modification time."""
    if not root.exists():
        return {}
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            stat = os.stat(os.path.join(dirpath, name))
            found[os.path.join(dirpath, name)] = (stat.st_size, stat.st_mtime_ns)
    return found


class Bench:
    def __init__(self, root: Path, name: str, seed: int, trace: bool):
        self.load = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.work = root / WORK_DIR / f"run-{time.time_ns()}"
        self.tracer = Path(__file__).resolve().parent / "tracer.py"
        self.env = {
            key: value for key, value in os.environ.items() if "proxy" not in key.lower()
        }
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["NO_PROXY"] = "127.0.0.1,localhost"
        self.endpoint: LoopbackEndpoint | None = None
        self.ws: Path | None = None
        self.predictions: dict = {}
        self.reference: dict[str, str] | None = None
        self.filled: dict[str, str] | None = None
        self.expected: dict | None = None
        self.fill = {name: 0 for name in FILL_METRICS}

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> list[float]:
        times = []
        for k in range(SETUPS):
            self.teardown_endpoint()
            ws = self.work / f"setup{k}"
            started = time.perf_counter()
            table, predictions = workspace.build_workspace(
                ws, self.seed, self.load.pairs, self.load.capability, self.load.per_pair
            )
            url = None
            if self.load.remote:
                self.endpoint = LoopbackEndpoint(
                    workspace.FILLS, table, SERVICE_DELAY_S, NPROC
                ).start()
                if not self.endpoint.ready():
                    raise BenchError("the loopback endpoint answered a probe wrongly")
                url = self.endpoint.url
            workspace.write_config(
                ws, self.load.capability, self.load.per_pair, self.seed, self.load.jobs,
                table, self.load.warm, url,
            )
            if self.load.warm:
                # The cache-filling run: only these stages call the backends.
                # A traced run traces the last one for the cache-write figures.
                fill_dir = self.work / "trace-fill" if self.trace and k == SETUPS - 1 else None
                if fill_dir is not None:
                    fill_dir.mkdir(parents=True)
                self.run_stages(ws, fill_dir is not None, fill_dir, FILL_STAGES)
                if fill_dir is not None:
                    self.fill = self.fill_layers(fill_dir)
            times.append(time.perf_counter() - started)
            self.ws, self.predictions = ws, predictions
        if self.load.warm:
            self.filled = _digests(self.ws / "out", FILLED)
        return times

    def teardown_endpoint(self) -> None:
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None

    # -- one round ------------------------------------------------------------

    def stage_commands(self, traced: bool, trace_dir: Path | None, stages):
        alphas = ",".join(f"{a:g}" for a in workspace.SWEEP_ALPHAS)
        betas = ",".join(f"{b:g}" for b in workspace.SWEEP_BETAS)
        extra = {
            "sweep": ["--alphas", alphas, "--betas", betas],
            "eval": ["--gold", "gold.jsonl"],
            "report": ["--format", "markdown"],
        }
        for stage in stages:
            args = [stage, "--config", "config.json"] + extra.get(stage, [])
            if traced:
                cmd = [sys.executable, str(self.tracer), str(trace_dir / f"{stage}.json")] + args
            else:
                cmd = [sys.executable, "-m", "mtbehave.cli"] + args
            yield stage, cmd

    def run_stages(self, ws: Path, traced: bool, trace_dir: Path | None,
                   stages=check.STAGES) -> dict:
        """Run the stages in ``ws``; wall time and peak RSS of each."""
        shutil.rmtree(ws / "out", ignore_errors=True)
        times, rss = {}, {}
        for stage, cmd in self.stage_commands(traced, trace_dir, stages):
            with open(ws / f"{stage}.log", "wb") as log:
                started = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=ws, env=self.env, stdout=log, stderr=log)
                watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
                watchdog.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    watchdog.cancel()
                    watchdog.join()
                times[stage] = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
            if os.waitstatus_to_exitcode(status) != 0:
                tail = (ws / f"{stage}.log").read_text(encoding="utf-8", errors="replace")[-2000:]
                raise BenchError(f"stage {stage} exited with {status}: {tail}")
            rss[stage] = usage.ru_maxrss / 1024
        return {"times": times, "rss": rss}

    def verify_first(self, out: Path) -> None:
        problems = check.check_run(
            self.ws,
            out,
            (workspace.SWEEP_ALPHAS, workspace.SWEEP_BETAS),
            workspace.BACKEND_IDS["translator"],
        )
        if problems:
            raise BenchError(f"{len(problems)} problems, first: " + "; ".join(problems[:5]))
        self.expected = check.expected_requests(self.ws, out)

    def round(self, traced: bool, index: int) -> dict:
        ws, out = self.ws, self.ws / "out"
        cache_before = _tree(ws / "cache") if self.load.warm else None
        if self.endpoint is not None:
            self.endpoint.stats = EndpointStats()
        trace_dir = self.work / f"trace{index}" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        result = self.run_stages(ws, traced, trace_dir)
        if self.reference is None:
            self.verify_first(out)
            self.reference = _digests(out)
        elif _digests(out) != self.reference:
            raise BenchError("artifacts differ from the first run's")
        if self.filled is not None and _digests(out, FILLED) != self.filled:
            raise BenchError("the warm rerun's artifacts differ from the cache-filling run's")
        if cache_before is not None and _tree(ws / "cache") != cache_before:
            raise BenchError("the warm rerun wrote to the cache")
        seen = self.endpoint.stats.snapshot() if self.endpoint is not None else None
        if seen is not None:
            for slot in SLOTS:
                want = self.expected[slot]
                calls = seen["requests"].get(slot, 0)
                if not want["distinct"] <= calls <= want["requests"]:
                    raise BenchError(
                        f"{slot}: endpoint saw {calls} requests, outside "
                        f"[{want['distinct']}, {want['requests']}]"
                    )
        cases = check.read_jsonl(out / "cases.jsonl")
        records = check.read_jsonl(out / "records.jsonl")
        result["cases"] = len(cases)
        result["failed"] = sum(c["filter_status"] == "error" for c in cases) + sum(
            r["error"] is not None for r in records
        )
        result["verdicts"] = len(check.read_jsonl(out / "verdicts.jsonl"))
        if traced:
            result["layers"] = self.layers(trace_dir, seen)
        return result

    # -- per-layer figures ----------------------------------------------------

    def fill_layers(self, trace_dir: Path) -> dict:
        """Cache-write figures of a traced cache-filling run."""
        puts = calls = 0
        put_s = 0.0
        for trace in _traces(trace_dir, FILL_STAGES):
            puts += trace["counts"].get("backends.cache.puts", 0)
            calls += sum(trace["counts"].get(f"backends.{slot}.upstream_calls", 0) for slot in SLOTS)
            put_s += sum(
                end - start
                for _, _, name, _, start, end, _ in trace["spans"]
                if name == "backends.ResponseCache.put"
            )
        if not 0 < puts == calls:
            raise BenchError(f"the cache-filling run made {calls} upstream calls and {puts} cache puts")
        return dict(zip(FILL_METRICS, (puts, put_s, calls)))

    def layers(self, trace_dir: Path, seen: dict | None) -> dict:
        traces = _traces(trace_dir, check.STAGES)
        counts, digests = {}, {}
        durations: dict[str, float] = {}
        call_s = {slot: 0.0 for slot in SLOTS}
        self_s = {module: 0.0 for module in MODULES}
        import_s = 0.0
        for trace in traces:
            import_s += trace["import"][1] - trace["import"][0]
            for key, value in trace["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key, values in trace["digests"].items():
                digests.setdefault(key, set()).update(values)
            children: dict[int, float] = {}
            for _, parent, _, _, start, end, _ in trace["spans"]:
                children[parent] = children.get(parent, 0.0) + end - start
            for span_id, _, name, _, start, end, tag in trace["spans"]:
                durations[name] = durations.get(name, 0.0) + end - start
                self_s[name.split(".")[0]] += end - start - children.get(span_id, 0.0)
                if name == "backends.Backend.request":
                    call_s[tag] += end - start
        self_s["cli"] += import_s
        metrics = {"cli.import_s": import_s}
        for metric, names in SPAN_TIMES.items():
            metrics[metric] = sum(durations.get(name, 0.0) for name in names)
        for metric, key in COUNTS.items():
            metrics[metric] = counts.get(key, 0)
        upstream_total = 0
        for slot in SLOTS:
            metrics[f"backends.{slot}.requests"] = counts.get(f"backends.{slot}.requests", 0)
            metrics[f"backends.{slot}.distinct"] = len(digests.get(f"backends.{slot}.distinct", ()))
            metrics[f"backends.{slot}.upstream_calls"] = counts.get(f"backends.{slot}.upstream_calls", 0)
            metrics[f"backends.{slot}.call_s"] = call_s[slot]
            upstream_total += metrics[f"backends.{slot}.upstream_calls"]
        distinct_total = len(digests.get("backends.upstream_distinct", ()))
        metrics["backends.distinct_per_call"] = (
            distinct_total / upstream_total if upstream_total else 1.0
        )
        metrics["backends.cache_mb"] = (
            sum(size for size, _ in _tree(self.ws / "cache").values()) / 2**20
        )
        metrics["backends.http.connections"] = seen["connections"] if seen else 0
        metrics["backends.http.max_in_flight"] = seen["max_in_flight"] if seen else 0
        for module in MODULES:
            metrics[f"layer.{module}.self_s"] = self_s[module]
        self.reconcile(metrics, upstream_total, seen)
        return metrics

    def reconcile(self, m: dict, upstream_total: int, seen: dict | None) -> None:
        requests = sum(m[f"backends.{slot}.requests"] for slot in SLOTS)
        planted = self.predictions
        problems = []
        if m["casegen.cases"] != sum(p["cases"] for p in planted.values()):
            problems.append(f"traced run generated {m['casegen.cases']} cases")
        if m["judge.passed"] != sum(p["cases"] for p in planted.values() if p["passed"]):
            problems.append(f"traced run passed {m['judge.passed']} cases")
        if self.load.warm:
            if m["backends.cache.hits"] + m["backends.cache.misses"] != requests:
                problems.append("cache hits + misses differ from requests")
            if m["backends.cache.puts"] or upstream_total:
                problems.append("the warm rerun called the upstream or wrote the cache")
        else:
            for slot in SLOTS:
                distinct = m[f"backends.{slot}.distinct"]
                calls = m[f"backends.{slot}.upstream_calls"]
                if not distinct <= calls <= m[f"backends.{slot}.requests"]:
                    problems.append(f"{slot}: {calls} upstream calls for {distinct} distinct requests")
        if seen is not None and sum(seen["requests"].values()) != upstream_total:
            problems.append("endpoint requests differ from upstream calls")
        if problems:
            raise BenchError("; ".join(problems))

    # -- the whole run --------------------------------------------------------

    def run(self, seconds: float) -> dict:
        earlier = list(self.work.parent.glob("run-*"))
        setup_times = self.setup()
        for path in earlier:
            shutil.rmtree(path, ignore_errors=True)
        rounds = []
        started = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            rounds.append((traced, self.round(traced, index)))
            index += 1
            kinds = {t for t, _ in rounds}
            enough = kinds == ({True, False} if self.trace else {False})
            if enough and time.perf_counter() - started >= seconds:
                break
        attempted = sum(r["cases"] for _, r in rounds)
        failed = sum(r["failed"] for _, r in rounds)
        plain = [r for t, r in rounds if not t]
        pipeline = [sum(r["times"].values()) for r in plain]
        if self.trace:
            traced_rounds = [r for t, r in rounds if t]
            traced_pipeline = [sum(r["times"].values()) for r in traced_rounds]
            names = traced_rounds[0]["layers"]
            metrics = {
                name: _median([r["layers"][name] for r in traced_rounds]) for name in names
            }
            metrics.update(self.fill)
            metrics["trace.overhead_s"] = _median(traced_pipeline) - _median(pipeline)
        else:
            metrics = {
                "setup_s": _median(setup_times),
                "pipeline_s": _median(pipeline),
                "extract_s": _median([r["times"]["extract"] for r in plain]),
                "generate_s": _median([r["times"]["generate"] for r in plain]),
                "judge_s": _median([r["times"]["judge"] for r in plain]),
                "analyze_s": _median(
                    [r["times"]["sweep"] + r["times"]["eval"] + r["times"]["report"] for r in plain]
                ),
                "cases_per_s": _median([r["verdicts"] / p for r, p in zip(plain, pipeline)]),
                "peak_rss_mb": _median([max(r["rss"].values()) for r in plain]),
            }
        return {
            "attempted": attempted,
            "failed": failed,
            "setups": setup_times,
            "rounds": [(t, r["times"]) for t, r in rounds],
            "metrics": metrics,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mtbehave" / "cli.py").is_file():
        print("error: run from the repository root; src/mtbehave not found", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    try:
        outcome = bench.run(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.teardown_endpoint()
    print(
        f"# {args.workload} seed {args.seed}: {len(outcome['rounds'])} rounds, "
        f"{outcome['attempted']} cases attempted, {outcome['failed']} failed"
    )
    print("# set-ups: " + " ".join(f"{t:.3f}" for t in outcome["setups"]) + " s")
    for k, (traced, times) in enumerate(outcome["rounds"]):
        stages = " ".join(f"{stage} {value:.3f}" for stage, value in times.items())
        print(f"# round {k} {'traced' if traced else 'plain'}: pipeline {sum(times.values()):.3f} s ({stages})")
    for name, value in outcome["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
