"""Command-line pipeline: extract, generate, judge, sweep, eval, report.

Every command takes a JSON run config (--config), --output-dir, and flags for
the config values it reads; flags beat the file, the file beats built-in
defaults. Relative paths inside the config resolve against the config file's
directory. Each successful stage appends an entry to manifest.json in the
output directory with digests of the files it read and wrote.

Exit codes: 0 success, 1 usage or config error, 2 data validation error,
3 backend exhaustion.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping

import click

from . import __version__
from .backends import KINDS, Backend, BackendError, BackendSpec, CacheError, ResponseCache
from .casegen import (
    STATUS_DROPPED_IDENTICAL,
    STATUS_DROPPED_QUALITY,
    STATUS_ERROR,
    STATUS_KEPT,
    generate_cases,
    read_cases,
    write_cases,
)
from .codec import to_row, write_json, write_jsonl, write_text
from .corpus import Corpus, CorpusError, load_corpus
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
from .segmentation import MAX_PLANS_PER_PAIR, Capability, extract_editable

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

DEFAULT_SWEEP_ALPHAS = "0.5,0.6,0.7,0.8"
DEFAULT_SWEEP_BETAS = "0.02,0.05,0.08,0.11"


class ConfigError(Exception):
    """The run config (file or flags) cannot be used."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _reject_unknown(section: dict, known: Iterable[str], path: Path, what: str) -> None:
    unknown = sorted(set(section) - set(known))
    _expect(not unknown, f"{path}: unknown {what} keys: {unknown}")


# Each reader is called as read(key, value, path) on a key's raw JSON value,
# never None; path is the config file, or None for a flag's value. A path from
# the file resolves against the file's directory; a flag's is used as given.


def _read_int(low: int | None = None, high: int | None = None):
    def read(key: str, value, path) -> int:
        _expect(type(value) is int, f"{key} must be an integer, got {value!r}")
        in_range = (low is None or value >= low) and (high is None or value <= high)
        bounds = f"between {low} and {high}" if high is not None else f"at least {low}"
        _expect(in_range, f"{key} must be {bounds}, got {value}")
        return value

    return read


def _read_bool(key: str, value, path) -> bool:
    _expect(isinstance(value, bool), f"{key} must be a boolean")
    return value


def _read_path(key: str, value, path) -> Path:
    return Path(str(value)) if path is None else path.parent / str(value)


def _read_capability(key: str, value, path) -> Capability:
    valid = [capability.value for capability in Capability]
    _expect(str(value) in valid, f"unknown capability {value!r} (valid: {', '.join(valid)})")
    return Capability(str(value))


def _read_corpus(key: str, section, path) -> dict[str, Path]:
    names = ("pairs", "alignments", "annotations")
    _expect(
        isinstance(section, dict) and all(section.get(name) is not None for name in names),
        f"{path}: corpus section must name pairs, alignments, and annotations files",
    )
    _reject_unknown(section, names, path, "corpus")
    return {name: _read_path(name, section[name], path) for name in names}


def _read_judge(key: str, section, path) -> JudgeConfig:
    _expect(isinstance(section, dict), f"{path}: judge section must be an object")
    _reject_unknown(section, (item.name for item in fields(JudgeConfig)), path, "judge")
    for name, value in section.items():
        _expect(
            value is None or type(value) in (int, float),
            f"bad judge thresholds: {name} must be a number, got {value!r}",
        )
    try:
        return JudgeConfig(**{name: float(value) for name, value in section.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(f"bad judge thresholds: {exc}") from exc


def _read_backends(key: str, section, path) -> dict:
    _expect(isinstance(section, dict), f"{path}: backends section must be an object")
    for slot in section:
        _expect(slot in KINDS, f"backend {slot!r}: unknown backend kind {slot!r}")
    return dict(section)


@dataclass
class RunConfig:
    """A merged and validated run config.

    Every field but the digest and the cache is a config key: its ``read``
    checks the key's value, and its ``default`` is the raw value that an absent
    key stands for.
    """

    corpus: dict[str, Path] = field(metadata={"read": _read_corpus, "default": {}})
    capability: Capability | None = field(metadata={"read": _read_capability, "default": None})
    per_pair: int = field(metadata={"read": _read_int(1, MAX_PLANS_PER_PAIR), "default": 1})
    seed: int = field(metadata={"read": _read_int(), "default": 0})
    jobs: int = field(metadata={"read": _read_int(1), "default": 1})
    judge: JudgeConfig = field(metadata={"read": _read_judge, "default": {}})
    cache_root: Path | None = field(metadata={"read": _read_path, "default": None})
    output_dir: Path = field(metadata={"read": _read_path, "default": "out"})
    backends: dict = field(metadata={"read": _read_backends, "default": {}})
    exclude_low_base: bool = field(metadata={"read": _read_bool, "default": False})
    config_digest: str = ""
    # The response cache on cache_root, shared by the stage's backends.
    cache: ResponseCache | None = None


def load_run_config(config_path, overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Load the config file and apply non-None flag overrides on top; a JSON null
    counts as absent, and ``alpha``/``beta`` override the judge section's keys."""
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    path = Path(config_path)
    _expect(path.is_file(), f"config file not found: {path}")
    blob = path.read_bytes()
    try:
        data = json.loads(blob)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8 text
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    _expect(isinstance(data, dict), f"{path}: config must be a JSON object")
    keys = [item for item in fields(RunConfig) if "read" in item.metadata]
    _reject_unknown(data, (item.name for item in keys), path, "config")
    values = {}
    for item in keys:
        value, origin = flags.get(item.name), None
        if value is None:
            value, origin = data.get(item.name), path
        if value is None:
            value = item.metadata["default"]
        values[item.name] = None if value is None else item.metadata["read"](item.name, value, origin)
    judge_flags = {item.name: flags[item.name] for item in fields(JudgeConfig) if item.name in flags}
    if judge_flags:
        values["judge"] = _read_judge("judge", {**asdict(values["judge"]), **judge_flags}, path)
    cache = ResponseCache(values["cache_root"]) if values["cache_root"] is not None else None
    return RunConfig(**values, config_digest=hashlib.sha256(blob).hexdigest(), cache=cache)


def _file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    """Append-only record of the stages run into one output directory."""

    path: Path
    entries: list[dict] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        try:
            entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        except (OSError, ValueError) as exc:
            raise CorpusError(f"{path}: unreadable manifest: {exc}") from exc
        if not isinstance(entries, list):
            raise CorpusError(f"{path}: the manifest is not a JSON list")
        return cls(path, entries)

    def record_stage(
        self,
        stage: str,
        config: RunConfig,
        inputs: Iterable[Path],
        outputs: Iterable[Path],
        started_at: str,
        finished_at: str,
    ) -> None:
        self.entries.append(
            {
                "stage": stage,
                "tool_version": __version__,
                "config_digest": config.config_digest,
                "seed": config.seed,
                "inputs": {str(p): _file_digest(p) for p in inputs},
                "outputs": {str(p): _file_digest(p) for p in outputs},
                "started_at": started_at,
                "finished_at": finished_at,
            }
        )
        write_json(self.path, self.entries)


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


StageRunner = Callable[..., tuple[list[Path], list[Path], str]]


def _run_stage(stage: str, config_path, overrides: dict, runner: StageRunner, *args) -> None:
    started_at = _now()
    try:
        config = load_run_config(config_path, overrides)
        manifest = RunManifest.load(config.output_dir / "manifest.json")
        try:
            inputs, outputs, summary = runner(config, *args)
        finally:  # keep the answers already paid for, however the stage ends
            if config.cache is not None:
                config.cache.close()
    except (ConfigError, CacheError) as exc:
        _die(EXIT_USAGE, str(exc))
    except ValueError as exc:  # every data error (CorpusError, MissingGold, ...) is one
        _die(EXIT_DATA, str(exc))
    except BackendError as exc:
        _die(EXIT_BACKEND, str(exc))
    manifest.record_stage(stage, config, inputs, outputs, started_at, _now())
    click.echo(summary)


def _load_corpus(config: RunConfig) -> tuple[Corpus, list[Path]]:
    """The corpus and its three files; only the stages that read it check them."""
    for name, path in config.corpus.items():
        _expect(path.is_file(), f"corpus {name} file not found: {path}")
    return load_corpus(*config.corpus.values()), list(config.corpus.values())


def _build_backends(config: RunConfig, *slots: str) -> list[Backend]:
    """The named slots' backends, in slot order, sharing the config's cache; only their specs are parsed."""
    built = []
    for slot in slots:
        spec = config.backends.get(slot)
        _expect(spec is not None, f"config declares no {slot!r} backend")
        _expect(isinstance(spec, dict), f"backend {slot!r} must be an object")
        spec = {"kind": slot, **spec}
        _expect(spec["kind"] == slot, f"backend slot {slot!r} declares mismatched kind {spec['kind']!r}")
        try:
            built.append(Backend(BackendSpec.from_dict(spec), cache=config.cache))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"backend {slot!r}: {exc}") from exc
    return built


def _fail_if_all_backend_errors(results: list, attempts: str) -> None:
    """A batch in which every attempt failed upstream exits as a backend error."""
    if results and all(result.error_kind == "backend" for result in results):
        raise BackendError(
            f"all {len(results)} {attempts} attempts failed with backend errors "
            f"(first: {results[0].error})"
        )


def _require_artifact(path: Path, producer: str) -> Path:
    _expect(path.is_file(), f"{path} not found; run {producer} first")
    return path


def _run_extract(config: RunConfig) -> tuple[list[Path], list[Path], str]:
    corpus, corpus_paths = _load_corpus(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "segments.jsonl"
    segments = [
        (pair.pair_id, segment)
        for pair, alignment, annotation in corpus.triples()
        for segment in extract_editable(pair, alignment, annotation)
    ]
    write_jsonl(out_path, ({"pair_id": pair_id, **to_row(seg)} for pair_id, seg in segments))
    summary = f"extracted {len(segments)} editable segments from {len(corpus)} pairs -> {out_path}"
    return corpus_paths, [out_path], summary


def _run_generate(config: RunConfig) -> tuple[list[Path], list[Path], str]:
    _expect(config.capability is not None, "a capability is required (config or --capability)")
    corpus, corpus_paths = _load_corpus(config)
    infill, scorer = _build_backends(config, "infill", "scorer_ref_free")
    cases = generate_cases(
        corpus,
        config.capability,
        config.per_pair,
        infill,
        scorer,
        config.judge.beta,
        config.seed,
        config.jobs,
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "cases.jsonl"
    write_cases(cases, out_path)
    _fail_if_all_backend_errors(cases, "infill")
    counts = Counter(case.filter_status for case in cases)
    summary = (
        f"generated {len(cases)} cases for {config.capability.value} "
        f"(kept {counts[STATUS_KEPT]}, identical {counts[STATUS_DROPPED_IDENTICAL]}, "
        f"quality-dropped {counts[STATUS_DROPPED_QUALITY]}, errors {counts[STATUS_ERROR]}) "
        f"-> {out_path}"
    )
    return corpus_paths, [out_path], summary


def _run_judge(config: RunConfig) -> tuple[list[Path], list[Path], str]:
    corpus, corpus_paths = _load_corpus(config)
    cases_path = _require_artifact(config.output_dir / "cases.jsonl", "generate")
    cases = read_cases(cases_path)
    translator, scorer = _build_backends(config, "translator", "scorer_ref_based")
    records = score_records(cases, corpus, translator, scorer, config.jobs)
    records_path = config.output_dir / "records.jsonl"
    write_records(records, records_path)
    _fail_if_all_backend_errors(records, "translation")
    verdicts = judge_records(records, config.judge)
    if not verdicts:
        raise EmptyVerdictSet("no scored records to judge")
    verdicts_path = config.output_dir / "verdicts.jsonl"
    write_verdicts(verdicts, verdicts_path)
    rated = [
        verdict
        for verdict in verdicts
        if not (config.exclude_low_base and verdict.fail_reason == FAIL_LOW_BASE_QUALITY)
    ]
    rate = pass_rate(rated)
    errored = sum(1 for record in records if record.error is not None)
    system_id = records[0].system_id if records else "?"
    summary = (
        f"judged {len(rated)} cases for {system_id}: pass rate {rate:.2f} "
        f"(alpha={config.judge.alpha:g}, beta={config.judge.beta:g}, "
        f"errored {errored}) -> {verdicts_path}"
    )
    return corpus_paths + [cases_path], [records_path, verdicts_path], summary


def _parse_floats(text: str, name: str) -> list[float]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise ConfigError(f"{name} must be comma-separated numbers, got {part!r}")
        _expect(math.isfinite(values[-1]), f"{name} must be finite numbers, got {part!r}")
    _expect(bool(values), f"{name} must list at least one value")
    return values


def _run_sweep(config: RunConfig, alphas_text: str, betas_text: str):
    alphas = _parse_floats(alphas_text, "--alphas")
    betas = _parse_floats(betas_text, "--betas")
    _expect(min(betas) >= 0, f"--betas must not be negative, got {min(betas):g}")
    records_path = _require_artifact(config.output_dir / "records.jsonl", "judge")
    records = read_records(records_path)
    grid = sweep(records, alphas, betas)
    json_path = config.output_dir / "sweep.json"
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
    md_path = config.output_dir / "sweep.md"
    write_text(md_path, sweep_markdown(grid))
    summary = f"swept {len(grid)} threshold cells -> {json_path}"
    return [records_path], [json_path, md_path], summary


def _run_eval(config: RunConfig, gold_path: str):
    verdicts_path = _require_artifact(config.output_dir / "verdicts.jsonl", "judge")
    verdicts = read_verdicts(verdicts_path)
    gold_file = Path(gold_path)
    _expect(gold_file.is_file(), f"gold file not found: {gold_file}")
    gold = load_gold(gold_file)
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
    out_path = config.output_dir / "eval.json"
    write_json(out_path, result)
    summary = "\n".join(lines + [f"evaluation -> {out_path}"])
    return [verdicts_path, gold_file], [out_path], summary


def _run_report(config: RunConfig, fmt: str):
    _expect(fmt in REPORT_FORMATS, f"unknown report format {fmt!r} (use one of {tuple(REPORT_FORMATS)})")
    verdicts_path = _require_artifact(config.output_dir / "verdicts.jsonl", "judge")
    cases_path = _require_artifact(config.output_dir / "cases.jsonl", "generate")
    verdicts = read_verdicts(verdicts_path)
    if not verdicts:
        raise EmptyVerdictSet("the verdicts file is empty; nothing to report")
    cases = read_cases(cases_path)
    rows = capability_table(verdicts, cases)
    extension, _ = REPORT_FORMATS[fmt]
    out_path = config.output_dir / f"report.{extension}"
    emit_report(rows, fmt, out_path)
    summary = f"wrote {len(rows)} report rows -> {out_path}"
    return [verdicts_path, cases_path], [out_path], summary


# The flag overrides, keyed by the load_run_config override each one sets.
_OVERRIDES = {
    "cache_root": click.option("--cache-root", "cache_root", default=None, help="Override the response cache root."),
    "seed": click.option("--seed", type=int, default=None, help="Override the master seed."),
    "jobs": click.option("--jobs", type=int, default=None, help="Concurrent backend calls."),
    "capability": click.option("--capability", default=None, help="Capability to target."),
    "per_pair": click.option("--per-pair", "per_pair", type=int, default=None, help="Cases per pair."),
    "alpha": click.option("--alpha", type=float, default=None, help="Base quality threshold."),
    "beta": click.option("--beta", type=float, default=None, help="Allowed quality difference."),
    "exclude_low_base": click.option(
        "--exclude-low-base",
        "exclude_low_base",
        is_flag=True,
        default=None,
        help="Drop low-base-quality failures from the reported pass rate.",
    ),
}


def _stage_options(*overrides: str):
    """--config, --output-dir, and the named overrides: the ones the stage reads."""
    options = [
        click.option("--config", "config_path", required=True, help="Run config JSON file."),
        click.option("--output-dir", "output_dir", default=None, help="Override the output directory."),
        *(_OVERRIDES[name] for name in overrides),
    ]

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return decorate


def _usage_exit(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_USAGE
        raise


class _Main(click.Group):
    """Click exits 2 on a usage error, but 2 means bad data here: usage errors exit 1."""

    def make_context(self, *args, **kwargs):
        return _usage_exit(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exit(super().invoke, ctx)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="mtbehave")
def main() -> None:
    """Behavioral testing harness for machine translation systems."""


@main.command()
@_stage_options()
def extract(config_path, **overrides):
    """Extract the editable segments of every corpus pair."""
    _run_stage("extract", config_path, overrides, _run_extract)


@main.command()
@_stage_options("cache_root", "seed", "jobs", "capability", "per_pair", "beta")
def generate(config_path, **overrides):
    """Generate, infill, and filter test cases for the configured capability."""
    _run_stage("generate", config_path, overrides, _run_generate)


@main.command()
@_stage_options("cache_root", "jobs", "alpha", "beta", "exclude_low_base")
def judge(config_path, **overrides):
    """Translate kept cases, score them, and judge pass or fail."""
    _run_stage("judge", config_path, overrides, _run_judge)


@main.command("sweep")
@_stage_options()
@click.option("--alphas", default=DEFAULT_SWEEP_ALPHAS, show_default=True)
@click.option("--betas", default=DEFAULT_SWEEP_BETAS, show_default=True)
def sweep_cmd(config_path, alphas, betas, **overrides):
    """Re-judge existing score records over a grid of thresholds."""
    _run_stage("sweep", config_path, overrides, _run_sweep, alphas, betas)


@main.command("eval")
@_stage_options()
@click.option("--gold", "gold_path", required=True, help="Gold error annotations (JSONL).")
def eval_cmd(config_path, gold_path, **overrides):
    """Evaluate verdicts against gold error annotations."""
    _run_stage("eval", config_path, overrides, _run_eval, gold_path)


@main.command()
@_stage_options()
@click.option(
    "--format",
    "fmt",
    default="markdown",
    show_default=True,
    help="Report format: json, markdown, or csv.",
)
def report(config_path, fmt, **overrides):
    """Render the per-capability pass-rate table."""
    _run_stage("report", config_path, overrides, _run_report, fmt)


if __name__ == "__main__":
    main()
