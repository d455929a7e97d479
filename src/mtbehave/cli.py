"""Command-line pipeline: extract, generate, judge, sweep, eval, report.

Every command takes a JSON run config (--config), --output-dir, and flags for
the config values it reads; flags beat the file, the file beats built-in
defaults. The codec decodes the file into a RunConfig; a config error names
the file, the key and the value. Relative paths inside the file resolve
against its directory; a flag's path is used as given. A stage that succeeds,
or exits 2 or 3 after writing files, records in manifest.json the digests of
the files it read and wrote.

Exit codes: 0 success, 1 usage or config error or a file that cannot be
read or written, 2 data validation error, 3 backend exhaustion, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import hashlib
import math
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import __version__
from .backends import Backend, BackendError, BackendSpec, CacheError, Kind, ResponseCache
from .casegen import (
    STATUS_DROPPED_IDENTICAL,
    STATUS_DROPPED_QUALITY,
    STATUS_ERROR,
    STATUS_KEPT,
    generate_cases,
    read_cases,
    write_cases,
)
from .codec import checked, decode_json, from_row, to_row, write_json, write_jsonl, write_text
from .corpus import CorpusError, TranslationPair, load_corpus, load_pairs
from .judge import (
    FAIL_LOW_BASE_QUALITY,
    EmptyVerdictSet,
    JudgeConfig,
    judge_records,
    pass_rate,
    read_records,
    read_verdicts,
    score_records,
    sweep,
    write_records,
    write_verdicts,
)
from .report import (
    REPORT_FORMATS,
    ZeroFlagged,
    ZeroGoldErrors,
    capability_table,
    emit_report,
    error_position_analysis,
    load_gold,
    precision_recall,
    sweep_markdown,
)
from .segmentation import MAX_PLANS_PER_PAIR, Capability, EditableSegment, extract_editable

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's convention


class ConfigError(Exception):
    """The run config (file or flags) cannot be used."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


class CorpusFiles(NamedTuple):
    pairs: Path
    alignments: Path
    annotations: Path


@checked
class RunConfig(NamedTuple):
    """A run config: each field is a config key, decoded by the codec."""

    corpus: CorpusFiles
    capability: Capability | None = None
    per_pair: int = 1
    seed: int = 0
    jobs: int = 1
    judge: JudgeConfig = JudgeConfig()
    cache_root: Path | None = None
    output_dir: Path = Path("out")
    backends: Mapping[Kind, object] = {}
    exclude_low_base: bool = False

    def _check(self) -> None:
        if not 1 <= self.per_pair <= MAX_PLANS_PER_PAIR:
            raise ValueError(f"per_pair must be between 1 and {MAX_PLANS_PER_PAIR}, got {self.per_pair}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def load_run_config(config_path, overrides: Mapping[str, object] | None = None) -> tuple[RunConfig, str]:
    """The config file decoded, its relative paths resolved against its directory,
    and the non-None flag overrides applied on top, with the file's sha256 digest.
    A JSON null counts as absent in every object; ``alpha``/``beta`` override the judge section's keys."""
    path = Path(config_path)
    _expect(path.is_file(), f"config file not found: {path}")
    blob = path.read_bytes()
    try:
        config = decode_json(path, blob, RunConfig, lambda members: {k: v for k, v in members.items() if v is not None})
    except ValueError as exc:  # CorpusError, as for a data file, but a config error exits 1
        raise ConfigError(str(exc)) from None
    base, files = path.parent, config.corpus
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    if "capability" in flags:  # argparse has checked it against the capabilities
        flags["capability"] = Capability(flags["capability"])
    judge_flags = {name: flags.pop(name) for name in JudgeConfig._fields if name in flags}
    try:
        config = config._replace(**{
            "corpus": CorpusFiles(base / files.pairs, base / files.alignments, base / files.annotations),
            "cache_root": None if config.cache_root is None else base / config.cache_root,
            "output_dir": base / config.output_dir,
            "judge": config.judge._replace(**judge_flags),
            **flags,
        })
    except ValueError as exc:  # a flag's value
        raise ConfigError(str(exc)) from None
    return config, hashlib.sha256(blob).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class ManifestEntry(NamedTuple):
    """One stage run in manifest.json: each field is a key, in the file's order;
    ``inputs`` and ``outputs`` map each file read or written, by absolute path, to its sha256 digest."""

    stage: str
    tool_version: str
    config_digest: str
    seed: int
    inputs: Mapping[str, str]
    outputs: Mapping[str, str]
    started_at: str
    finished_at: str


class RunManifest:
    """One entry per stage run that was the last to write one of this directory's files."""

    def __init__(self, path: Path, entries: list[ManifestEntry]):
        self.path, self.entries = path, entries

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        try:
            blob = path.read_bytes() if path.exists() else b"[]"
        except OSError as exc:
            raise CorpusError(f"{path}: unreadable manifest: {exc}") from exc
        return cls(path, list(decode_json(path, blob, tuple[ManifestEntry, ...])))

    def record_stage(self, name: str, stage: Stage, outputs: list[Path], started_at: str, finished_at: str) -> None:
        key = os.path.abspath  # a file's one key, however the config's path was spelled
        entry = ManifestEntry(name, __version__, stage.config_digest, stage.config.seed,
                              {key(p): _file_digest(p) for p in stage.inputs},
                              {key(p): _file_digest(p) for p in outputs}, started_at, finished_at)
        pruned = [old._replace(outputs={k: v for k, v in old.outputs.items() if key(k) not in entry.outputs})
                  for old in self.entries]
        self.entries = [old for old in pruned if old.outputs] + [entry]
        write_json(self.path, list(map(to_row, self.entries)))


def _die(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


class Stage:
    """One stage run: its config and the file's digest, the response cache its backends
    share, and the files it checked (``inputs``) and finished writing: its manifest entry."""

    def __init__(self, config: RunConfig, config_digest: str):
        self.config, self.config_digest = config, config_digest
        self.cache = ResponseCache(config.cache_root) if config.cache_root is not None else None
        self.inputs: list[Path] = []
        self._outputs: dict[Path, int | None] = {}  # each output handed out -> its inode then

    def finished_outputs(self) -> list[Path]:
        """The outputs written since they were handed out. Every write renames a
        new file over its target, so a finished one has another inode."""
        return [path for path, inode in self._outputs.items() if _inode(path) != inode]

    def segments(self) -> list[tuple[TranslationPair, list[EditableSegment]]]:
        """Each pair and its editable segments, in corpus order, extracted once from all
        three corpus files, checked, loaded and cross-validated (extract, generate)."""
        corpus = load_corpus(*map(self._corpus_file, ("pairs", "alignments", "annotations")))
        return [(pair, extract_editable(pair, links, annotation)) for pair, links, annotation in corpus]

    def pairs(self) -> dict[str, TranslationPair]:
        """The pairs file alone, for a stage that reads no alignment or annotation (judge)."""
        return load_pairs(self._corpus_file("pairs"))

    def _corpus_file(self, name: str) -> Path:
        path = getattr(self.config.corpus, name)
        return self.read(path, f"corpus {name} file not found: {path}")

    def backends(self, *slots: str) -> list[Backend]:
        """The named slots' backends, in slot order; only their specs are parsed."""
        built = []
        for slot in slots:
            spec = self.config.backends.get(slot)
            _expect(spec is not None, f"config declares no {slot!r} backend")
            _expect(isinstance(spec, dict), f"backend {slot!r} must be an object")
            spec = {"kind": slot, **spec}
            _expect(spec["kind"] == slot, f"backend slot {slot!r} declares mismatched kind {spec['kind']!r}")
            try:
                built.append(Backend(from_row(BackendSpec, spec), cache=self.cache))
            except ValueError as exc:
                raise ConfigError(f"backend {slot!r}: {exc}") from exc
        return built

    def read(self, path: Path, missing_message: str) -> Path:
        _expect(path.is_file(), missing_message)
        self.inputs.append(path)
        return path

    def artifact(self, name: str, producer: str) -> Path:
        """An earlier stage's output file in the output directory."""
        path = self.config.output_dir / name
        return self.read(path, f"{path} not found; run {producer} first")

    def output(self, name: str) -> Path:
        self.config.output_dir.mkdir(parents=True, exist_ok=True)
        path = self.config.output_dir / name
        self._outputs[path] = _inode(path)
        return path


def _inode(path: Path) -> int | None:
    try:
        return path.stat().st_ino
    except FileNotFoundError:
        return None


def _run_stage(name: str, config_path, overrides: dict, runner: Callable[..., str], *args) -> None:
    """Run ``runner(stage, *args)``, which returns the stage's summary line."""
    started_at = _now()
    try:
        config, digest = load_run_config(config_path, overrides)
        manifest = RunManifest.load(config.output_dir / "manifest.json")
        stage = Stage(config, digest)
        try:
            summary = runner(stage, *args)
        finally:  # however the stage ends, keep the answers already paid for
            if stage.cache is not None:
                stage.cache.close()
            if outputs := stage.finished_outputs():  # and describe the files it wrote
                manifest.record_stage(name, stage, outputs, started_at, _now())
    except KeyboardInterrupt:
        _die(EXIT_INTERRUPTED, "interrupted")
    except (ConfigError, CacheError, OSError) as exc:  # OSError: e.g. an output dir that is a file
        _die(EXIT_USAGE, str(exc))
    except (ValueError, BackendError) as exc:  # every data error (CorpusError, ...) is a ValueError
        _die(EXIT_BACKEND if isinstance(exc, BackendError) else EXIT_DATA, str(exc))
    print(summary, flush=True)


def _fail_if_all_backend_errors(results: list) -> None:
    """A batch in which every case failed upstream, in either slot, exits as a backend error."""
    if results and all(result.error_kind == "backend" for result in results):
        raise BackendError(f"all {len(results)} cases failed with backend errors (first: {results[0].error})")


def _run_extract(stage: Stage) -> str:
    extracted = stage.segments()
    out_path = stage.output("segments.jsonl")
    rows = ({"pair_id": pair.pair_id, **to_row(seg)} for pair, segments in extracted for seg in segments)
    write_jsonl(out_path, rows)
    count = sum(len(segments) for _, segments in extracted)
    return f"extracted {count} editable segments from {len(extracted)} pairs -> {out_path}"


def _run_generate(stage: Stage) -> str:
    config = stage.config
    _expect(config.capability is not None, "a capability is required (config or --capability)")
    extracted = stage.segments()
    infill, scorer = stage.backends("infill", "scorer_ref_free")
    cases = generate_cases(
        extracted,
        config.capability,
        config.per_pair,
        infill,
        scorer,
        config.judge.beta,
        config.seed,
        config.jobs,
    )
    out_path = stage.output("cases.jsonl")
    write_cases(cases, out_path)
    _fail_if_all_backend_errors(cases)
    counts = Counter(case.filter_status for case in cases)
    return (
        f"generated {len(cases)} cases for {config.capability.value} "
        f"(kept {counts[STATUS_KEPT]}, identical {counts[STATUS_DROPPED_IDENTICAL]}, "
        f"quality-dropped {counts[STATUS_DROPPED_QUALITY]}, errors {counts[STATUS_ERROR]}) "
        f"-> {out_path}"
    )


def _run_judge(stage: Stage) -> str:
    config = stage.config
    pairs = stage.pairs()
    cases = read_cases(stage.artifact("cases.jsonl", "generate"))
    translator, scorer = stage.backends("translator", "scorer_ref_based")
    records = score_records(cases, pairs, translator, scorer, config.jobs)
    write_records(records, stage.output("records.jsonl"))
    _fail_if_all_backend_errors(records)
    verdicts = judge_records(records, config.judge)
    if not verdicts:
        raise EmptyVerdictSet("no scored records to judge")
    verdicts_path = stage.output("verdicts.jsonl")
    write_verdicts(verdicts, verdicts_path)
    rated = [
        verdict
        for verdict in verdicts
        if not (config.exclude_low_base and verdict.fail_reason == FAIL_LOW_BASE_QUALITY)
    ]
    rate = pass_rate(rated)
    errored = sum(1 for record in records if record.error is not None)
    return (
        f"judged {len(rated)} cases for {translator.spec.backend_id}: pass rate {rate:.2f} "
        f"(alpha={config.judge.alpha:g}, beta={config.judge.beta:g}, "
        f"errored {errored}) -> {verdicts_path}"
    )


def _parse_floats(text: str, non_negative: bool = False) -> list[float]:
    """An argparse ``type``: comma-separated finite numbers, each listed once."""
    values = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        try:
            value = float(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {part!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite numbers, got {part!r}")
        if non_negative and value < 0:
            raise argparse.ArgumentTypeError(f"must not be negative, got {part}")
        if value in values:
            raise argparse.ArgumentTypeError(f"lists {part} more than once")
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("must list at least one value")
    return values


def _run_sweep(stage: Stage, alphas: list[float], betas: list[float]) -> str:
    records = read_records(stage.artifact("records.jsonl", "judge"))
    grid = sweep(records, alphas, betas)
    json_path = stage.output("sweep.json")
    payload = {
        "alphas": alphas,
        "betas": betas,
        "cells": [
            {"alpha": alpha, "beta": beta, "pass_rate": grid[(alpha, beta)]}
            for alpha in alphas
            for beta in betas
        ],
    }
    write_json(json_path, payload)
    write_text(stage.output("sweep.md"), sweep_markdown(grid))
    return f"swept {len(grid)} threshold cells -> {json_path}"


def _run_eval(stage: Stage, gold_path: str) -> str:
    verdicts = read_verdicts(stage.artifact("verdicts.jsonl", "judge"))
    gold_file = Path(gold_path)
    gold = load_gold(stage.read(gold_file, f"gold file not found: {gold_file}"))
    result: dict[str, object] = {}
    undefined: dict[str, str] = {}
    lines = []
    try:
        precision, recall = precision_recall(verdicts, gold)
        result["precision"] = precision
        result["recall"] = recall
        lines.append(f"precision {precision:.2f}, recall {recall:.2f}")
    except (ZeroFlagged, ZeroGoldErrors) as exc:
        result["precision"] = None
        result["recall"] = None
        undefined["precision_recall"] = f"{type(exc).__name__}: {exc}"
        lines.append(f"precision/recall undefined ({type(exc).__name__}: {exc})")
    try:
        position_pct = error_position_analysis(verdicts, gold)
        result["error_position_pct"] = position_pct
        lines.append(f"errors overlapping the edited position: {position_pct:.2f}")
    except ZeroGoldErrors as exc:
        result["error_position_pct"] = None
        undefined["error_position"] = f"{type(exc).__name__}: {exc}"
        lines.append(f"error-position analysis undefined ({type(exc).__name__}: {exc})")
    result["undefined"] = undefined
    out_path = stage.output("eval.json")
    write_json(out_path, result)
    return "\n".join(lines + [f"evaluation -> {out_path}"])


def _run_report(stage: Stage, fmt: str) -> str:
    verdicts_path = stage.artifact("verdicts.jsonl", "judge")
    cases_path = stage.artifact("cases.jsonl", "generate")
    verdicts = read_verdicts(verdicts_path)
    if not verdicts:
        raise EmptyVerdictSet("the verdicts file is empty; nothing to report")
    rows = capability_table(verdicts, read_cases(cases_path))
    extension, _ = REPORT_FORMATS[fmt]
    out_path = stage.output(f"report.{extension}")
    emit_report(rows, fmt, out_path)
    return f"wrote {len(rows)} report rows -> {out_path}"


# Each config override a command can take as a flag, spelled from its key: per_pair -> --per-pair.
_OVERRIDES = {
    "output_dir": {"type": Path, "help": "Override the output directory."},
    "cache_root": {"type": Path, "help": "Override the response cache root."},
    "seed": {"type": int, "help": "Override the master seed."},
    "jobs": {"type": int, "help": "Requests in flight per backend; a stage runs two backends at once,"
                                  " so up to twice this many."},
    "capability": {"choices": [capability.value for capability in Capability], "metavar": "CAPABILITY",
                   "help": "Capability to target: %(choices)s."},
    "per_pair": {"type": int, "help": "Cases per pair."},
    "alpha": {"type": float, "help": "Base quality threshold."},
    "beta": {"type": float, "help": "Allowed quality difference."},
    "exclude_low_base": {"action": "store_true", "default": None, "help": "Leave low-base-quality failures out of"
                         " the pass rate that judge prints; verdicts.jsonl and every report keep them."},
}

# name -> (description, runner, the overrides it reads besides output_dir, its own
# options); the runner is called as runner(stage, *own option values).
_COMMANDS = {
    "extract": ("Extract the editable segments of every corpus pair.", _run_extract, (), {}),
    "generate": (
        "Generate, infill, and filter test cases for the configured capability.", _run_generate,
        ("cache_root", "seed", "jobs", "capability", "per_pair", "beta"), {},
    ),
    "judge": (
        "Translate kept cases, score them, and judge pass or fail.", _run_judge,
        ("cache_root", "jobs", "alpha", "beta", "exclude_low_base"), {},
    ),
    "sweep": ("Re-judge existing score records over a grid of thresholds.", _run_sweep, (), {
        "--alphas": {"type": _parse_floats, "default": "0.5,0.6,0.7,0.8",
                     "help": "Alphas to try (default: %(default)s)."},
        "--betas": {"type": functools.partial(_parse_floats, non_negative=True),
                    "default": "0.02,0.05,0.08,0.11", "help": "Betas to try (default: %(default)s)."},
    }),
    "eval": ("Evaluate verdicts against gold error annotations.", _run_eval, (), {
        "--gold": {"required": True, "help": "Gold error annotations (JSONL)."},
    }),
    "report": ("Render the per-capability pass-rate table.", _run_report, (), {
        "--format": {"choices": tuple(REPORT_FORMATS), "default": "markdown", "metavar": "FORMAT",
                     "help": "Report format: %(choices)s (default: %(default)s)."},
    }),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, since 2 means bad data here, and a flag is never
    abbreviated: argparse would read ``sweep --alpha 0.5`` as ``--alphas``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        print(message, end="", file=file or sys.stderr, flush=True)  # argparse's drops a failed write


def build_parser(prog_name: str = "mtbehave") -> _Parser:
    parser = _Parser(prog=prog_name, description="Behavioral testing harness for machine translation systems.")
    parser.add_argument("--version", action="version", version=f"{prog_name}, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (description, _, overrides, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=description, description=description)
        command.add_argument("--config", required=True, help="Run config JSON file.")
        for key in ("output_dir", *overrides):
            command.add_argument("--" + key.replace("_", "-"), **_OVERRIDES[key])
        for flag, settings in options.items():
            command.add_argument(flag, **settings)
    parser.commands = commands.choices  # name -> its parser
    return parser


@functools.cache  # once per process, however often main runs
def _freeze_the_heap_at_exit() -> None:
    """So the process exits without sweeping its whole heap for cycles: a stage
    closes its own files, sockets and cache, so the sweep would only free memory."""
    atexit.register(gc.freeze)


def main(args: list[str] | None = None, prog_name: str = "mtbehave") -> None:
    """Run one command, and exit with its code unless it succeeds."""
    _freeze_the_heap_at_exit()
    try:
        parser = build_parser(prog_name)
        parsed, unknown = parser.parse_known_args(args)
        if unknown:  # under the command's usage line, not the top-level one
            parser.commands[parsed.command].error(f"unrecognized arguments: {' '.join(unknown)}")
        _, runner, keys, options = _COMMANDS[parsed.command]
        overrides = {key: getattr(parsed, key) for key in ("output_dir", *keys)}
        values = [getattr(parsed, flag[2:]) for flag in options]
        _run_stage(parsed.command, parsed.config, overrides, runner, *values)
    except BrokenPipeError:  # stdout closed early, as by `| head -0`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit's flush succeeds
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
