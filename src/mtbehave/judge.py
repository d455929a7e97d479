"""Quantitative judging of translation behavior on generated test cases.

For a case built from pair (x, r) with edit (x', r'), the system under test
translates both inputs and a reference-based scorer rates each translation
against its reference. The case passes iff the base translation is good enough
(qual_y >= alpha) and the quality moved by at most beta under the edit
(|qual_y - qual_y'| <= beta). Comparisons are exact; no epsilon is applied.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, Mapping, NamedTuple, Sequence, get_args

from .backends import Backend, BackendError, pipeline, unwrap
from .casegen import STATUS_KEPT, TestCase
from .codec import checked, read_jsonl, to_row, write_jsonl
from .corpus import TranslationPair

FailReason = Literal["low_base_quality", "large_diff"]
FAIL_LOW_BASE_QUALITY, FAIL_LARGE_DIFF = get_args(FailReason)


class EmptyVerdictSet(ValueError):
    """A pass rate over zero verdicts is undefined, never silently 0."""


@checked
class JudgeConfig(NamedTuple):
    """Judging thresholds: alpha for base quality, beta for the allowed drop."""

    alpha: float = 0.8
    beta: float = 0.05

    def _check(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.beta < 0:
            raise ValueError("beta must not be negative")


class TranslationRecord(NamedTuple):
    """Translations and scores for one case under one MT system."""

    case_id: str
    system_id: str
    y: str | None = None
    y_prime: str | None = None
    qual_y: float | None = None
    qual_y_prime: float | None = None
    error: str | None = None
    error_kind: str | None = None


@checked
class Verdict(NamedTuple):
    case_id: str
    system_id: str
    qual_y: float
    qual_y_prime: float
    diff: float
    passed: bool
    fail_reason: FailReason | None = None

    def _check(self) -> None:
        if self.passed != (self.fail_reason is None):
            raise ValueError(f"fail_reason {self.fail_reason!r} contradicts passed {self.passed!r}")


def judge_case(record: TranslationRecord, config: JudgeConfig) -> Verdict:
    """Judge one scored record. Low base quality takes precedence as the reason."""
    if record.error is not None or record.qual_y is None or record.qual_y_prime is None:
        raise ValueError(f"record {record.case_id!r} was not scored")
    gap = abs(record.qual_y - record.qual_y_prime)
    if record.qual_y < config.alpha:
        passed, reason = False, FAIL_LOW_BASE_QUALITY
    elif gap > config.beta:
        passed, reason = False, FAIL_LARGE_DIFF
    else:
        passed, reason = True, None
    return Verdict(
        record.case_id,
        record.system_id,
        record.qual_y,
        record.qual_y_prime,
        gap,
        passed,
        reason,
    )


def judge_records(records: Iterable[TranslationRecord], config: JudgeConfig) -> list[Verdict]:
    """Judge every scored record; errored records are skipped, not judged."""
    return [judge_case(r, config) for r in records if r.error is None]


def pass_rate(verdicts: Sequence[Verdict]) -> float:
    """Percentage of passing verdicts, rounded to two decimals."""
    if not verdicts:
        raise EmptyVerdictSet("no verdicts to aggregate")
    passes = sum(1 for verdict in verdicts if verdict.passed)
    return round(100 * passes / len(verdicts), 2)


def sweep(
    records: Sequence[TranslationRecord],
    alphas: Sequence[float],
    betas: Sequence[float],
) -> dict[tuple[float, float], float]:
    """Pass rate for every (alpha, beta) cell, re-judging without re-scoring."""
    scored = [record for record in records if record.error is None]
    grid: dict[tuple[float, float], float] = {}
    for alpha in alphas:
        for beta in betas:
            config = JudgeConfig(alpha, beta)
            grid[(alpha, beta)] = pass_rate([judge_case(r, config) for r in scored])
    return grid


def score_records(
    cases: Sequence[TestCase],
    pairs: Mapping[str, TranslationPair],
    translator: Backend,
    scorer: Backend,
    jobs: int = 1,
) -> list[TranslationRecord]:
    """Translate and score every kept case against one MT system; ``pairs``
    maps each pair id to its corpus pair.

    Each distinct source is translated once and each distinct (source,
    translation, reference) scored once, so the base sentence of a pair is
    translated and scored once for all of its cases; a translation's score
    request leaves as soon as the translation arrives. Backend failures are
    recorded per record and never abort the batch: a record keeps the fields
    set before its first failing request, in the order y, y', qual_y, qual_y'.
    The record's system_id is the translator's backend id.
    """
    kept = [case for case in cases if case.filter_status == STATUS_KEPT]
    system_id = translator.spec.backend_id
    texts = []  # (x, r, x', r') per kept case
    for case in kept:
        pair = pairs.get(case.pair_id)
        if pair is None:
            raise ValueError(
                f"case {case.case_id!r} references unknown pair {case.pair_id!r}"
            )
        if case.source_prime is None or case.reference_prime is None:
            raise ValueError(f"kept case {case.case_id!r} lacks its edited texts")
        texts.append((
            " ".join(pair.source),
            " ".join(pair.reference),
            " ".join(case.source_prime),
            " ".join(case.reference_prime),
        ))

    # Each (source, reference) is translated; its translation is then scored.
    translations, scores = pipeline(
        (
            (source, (source, reference))
            for x, r, x_prime, r_prime in texts
            for source, reference in ((x, r), (x_prime, r_prime))
        ),
        translator.translate,
        lambda text, y: [(text[0], y, text[1])],
        lambda request: scorer.score(*request),
        jobs,
    )

    records = []
    for case, (x, r, x_prime, r_prime) in zip(kept, texts):
        answers = {}  # the record's fields, in order, up to its first failing request
        try:
            answers["y"] = unwrap(translations[x])
            answers["y_prime"] = unwrap(translations[x_prime])
            answers["qual_y"] = unwrap(scores[(x, answers["y"], r)])
            answers["qual_y_prime"] = unwrap(scores[(x_prime, answers["y_prime"], r_prime)])
        except BackendError as exc:
            answers.update(error=str(exc), error_kind=exc.error_kind)
        records.append(TranslationRecord(case.case_id, system_id, **answers))
    return records


def write_records(records: Iterable[TranslationRecord], path) -> None:
    write_jsonl(path, map(to_row, records))


def read_records(path) -> list[TranslationRecord]:
    return list(read_jsonl(path, TranslationRecord, "record", lambda row: (row.case_id, row.system_id)).values())


def write_verdicts(verdicts: Iterable[Verdict], path) -> None:
    write_jsonl(path, map(to_row, verdicts))


def read_verdicts(path) -> list[Verdict]:
    return list(read_jsonl(path, Verdict, "verdict", lambda row: (row.case_id, row.system_id)).values())
