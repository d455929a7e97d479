"""Diagnostic reports over judged test cases.

Three views: a per-capability pass-rate table across MT systems, precision and
recall of the harness's flags against gold error annotations, and the share of
flagged erroneous translations whose gold error spans overlap the edited
positions. Undefined ratios raise; they are never reported as zero.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .casegen import STATUS_KEPT, TestCase
from .codec import json_text, read_jsonl, to_row, write_text
from .corpus import CorpusError, Span, spans_overlap
from .judge import Verdict, pass_rate
from .segmentation import Capability

# Column headers in the pass-rate table, in fixed capability order.
DISPLAY_NAMES = {
    Capability.NOUN: "Noun",
    Capability.VERB: "Verb",
    Capability.ADJ: "Adj",
    Capability.ADV: "Adv",
    Capability.PREP: "Prep",
    Capability.OTHERS: "Others",
    Capability.TENSE: "Tense",
    Capability.NER: "NER",
    Capability.GENERAL: "General",
}

_CAPABILITY_ORDER = {capability: index for index, capability in enumerate(Capability)}


class ZeroFlagged(Exception):
    """No case was flagged; precision has no denominator."""


class ZeroGoldErrors(Exception):
    """Gold marks no erroneous case; recall has no denominator."""


class MissingGold(ValueError):
    """A judged case has no gold annotation row."""


class MissingProjection(ValueError):
    """A flagged erroneous case has no edited-span projection on y'."""


@dataclass(frozen=True)
class GoldErrorAnnotation:
    """Human judgment of one (case, system) translation y'.

    ``error_spans`` mark erroneous tokens of y'; ``edited_spans`` are where the
    case's edit landed in y', as projected by the annotator. Both half-open.
    """

    case_id: str
    system_id: str
    is_erroneous: bool
    error_spans: tuple[Span, ...]
    edited_spans: tuple[Span, ...] = field(metadata={"key": "edited_spans_on_y_prime"})

    def __post_init__(self) -> None:
        if not self.is_erroneous and self.error_spans:
            raise ValueError(
                f"case {self.case_id!r}: error spans on a non-erroneous translation"
            )
        for start, end in self.error_spans + self.edited_spans:
            if start < 0 or end <= start:
                raise ValueError(
                    f"case {self.case_id!r}: ({start}, {end}) is not a valid span"
                )


@dataclass(frozen=True)
class CapabilityReport:
    """One pass-rate table row: a capability under one MT system."""

    capability: Capability
    system_id: str
    pass_rate: float
    size: int
    errored: int
    is_best: bool = field(metadata={"key": "best"})


def capability_table(
    verdicts: Sequence[Verdict], cases: Sequence[TestCase]
) -> list[CapabilityReport]:
    """Aggregate verdicts into per-capability rows, flagging the best system.

    ``size`` counts the kept cases of the capability; ``errored`` is how many
    of them produced no verdict for the row's system (their records errored).
    Ties for the best pass rate flag every tied row.
    """
    case_by_id = {case.case_id: case for case in cases}
    kept_by_capability: dict[Capability, int] = defaultdict(int)
    for case in cases:
        if case.filter_status == STATUS_KEPT:
            kept_by_capability[case.capability] += 1
    groups: dict[tuple[Capability, str], list[Verdict]] = defaultdict(list)
    for verdict in verdicts:
        case = case_by_id.get(verdict.case_id)
        if case is None:
            raise ValueError(f"verdict references unknown case {verdict.case_id!r}")
        groups[(case.capability, verdict.system_id)].append(verdict)

    raw_rows = []
    for (capability, system_id), group in sorted(
        groups.items(), key=lambda item: (_CAPABILITY_ORDER[item[0][0]], item[0][1])
    ):
        size = kept_by_capability[capability]
        errored = size - len(group)
        if errored < 0:
            raise ValueError(
                f"{capability.value}/{system_id}: more verdicts ({len(group)}) "
                f"than kept cases ({size})"
            )
        raw_rows.append((capability, system_id, pass_rate(group), size, errored))

    best: dict[Capability, float] = {}
    for capability, _, rate, _, _ in raw_rows:
        best[capability] = max(rate, best.get(capability, rate))
    return [
        CapabilityReport(capability, system_id, rate, size, errored, rate == best[capability])
        for capability, system_id, rate, size, errored in raw_rows
    ]


def _require_gold(
    verdict: Verdict, gold: Mapping[tuple[str, str], GoldErrorAnnotation]
) -> GoldErrorAnnotation:
    key = (verdict.case_id, verdict.system_id)
    if key not in gold:
        raise MissingGold(
            f"no gold annotation for case {verdict.case_id!r} under system "
            f"{verdict.system_id!r}"
        )
    return gold[key]


def precision_recall(
    verdicts: Sequence[Verdict],
    gold: Mapping[tuple[str, str], GoldErrorAnnotation],
) -> tuple[float, float]:
    """Precision and recall of flagged cases against gold error labels.

    Raises ZeroFlagged when nothing was flagged and ZeroGoldErrors when gold
    contains no erroneous case among the verdicts.
    """
    flagged = 0
    gold_errors = 0
    true_positives = 0
    for verdict in verdicts:
        row = _require_gold(verdict, gold)
        if not verdict.passed:
            flagged += 1
            if row.is_erroneous:
                true_positives += 1
        if row.is_erroneous:
            gold_errors += 1
    if flagged == 0:
        raise ZeroFlagged("no flagged cases; precision is undefined")
    if gold_errors == 0:
        raise ZeroGoldErrors("no gold-erroneous cases; recall is undefined")
    precision = round(100 * true_positives / flagged, 2)
    recall = round(100 * true_positives / gold_errors, 2)
    return precision, recall


def error_position_analysis(
    verdicts: Sequence[Verdict],
    gold: Mapping[tuple[str, str], GoldErrorAnnotation],
) -> float:
    """Share of flagged, gold-erroneous cases whose error overlaps the edit.

    Overlap means any token of a gold error span falls inside any edited span
    on y'. Raises ZeroGoldErrors when no case qualifies and MissingProjection
    when a qualifying case lacks edited spans.
    """
    qualifying: list[GoldErrorAnnotation] = []
    for verdict in verdicts:
        row = _require_gold(verdict, gold)
        if not verdict.passed and row.is_erroneous:
            qualifying.append(row)
    if not qualifying:
        raise ZeroGoldErrors("no flagged, gold-erroneous cases to locate")
    hits = 0
    for row in qualifying:
        if not row.edited_spans:
            raise MissingProjection(
                f"case {row.case_id!r} has no edited-span projection on y'"
            )
        if any(
            spans_overlap(error_span, edited_span)
            for error_span in row.error_spans
            for edited_span in row.edited_spans
        ):
            hits += 1
    return round(100 * hits / len(qualifying), 2)


def load_gold(path) -> dict[tuple[str, str], GoldErrorAnnotation]:
    """Read gold error annotations, keyed by (case_id, system_id)."""
    gold: dict[tuple[str, str], GoldErrorAnnotation] = {}
    for lineno, row in enumerate(read_jsonl(path, GoldErrorAnnotation, "gold row"), start=1):
        if not isinstance(row.is_erroneous, bool):
            raise CorpusError(f"{path}:{lineno}: is_erroneous must be a boolean")
        key = (row.case_id, row.system_id)
        if key in gold:
            raise CorpusError(f"{path}:{lineno}: duplicate gold row for {key}")
        gold[key] = row
    return gold


def render_report_json(rows: Sequence[CapabilityReport]) -> str:
    return json_text({"rows": [to_row(row) for row in rows]})


def render_report_markdown(rows: Sequence[CapabilityReport]) -> str:
    """Pass-rate table: systems as rows, capabilities as columns, best in bold.

    A trailing Avg column averages each system's rates; a trailing Size row
    lists kept cases per capability and their total.
    """
    capabilities = sorted(
        {row.capability for row in rows}, key=_CAPABILITY_ORDER.__getitem__
    )
    systems = sorted({row.system_id for row in rows})
    cells = {(row.capability, row.system_id): row for row in rows}

    averages = {}
    for system in systems:
        rates = [
            cells[(cap, system)].pass_rate for cap in capabilities if (cap, system) in cells
        ]
        averages[system] = round(sum(rates) / len(rates), 2) if rates else None
    defined = [value for value in averages.values() if value is not None]
    best_average = max(defined) if defined else None

    lines = []
    header = ["MT System"] + [DISPLAY_NAMES[cap] for cap in capabilities] + ["Avg"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for system in systems:
        parts = [system]
        for capability in capabilities:
            row = cells.get((capability, system))
            if row is None:
                parts.append("-")
            else:
                text = f"{row.pass_rate:.2f}"
                parts.append(f"**{text}**" if row.is_best else text)
        average = averages[system]
        if average is None:
            parts.append("-")
        else:
            text = f"{average:.2f}"
            parts.append(f"**{text}**" if average == best_average else text)
        lines.append("| " + " | ".join(parts) + " |")

    sizes = []
    for capability in capabilities:
        size = next(row.size for row in rows if row.capability is capability)
        sizes.append(size)
    size_parts = ["Size"] + [str(size) for size in sizes] + [str(sum(sizes))]
    lines.append("| " + " | ".join(size_parts) + " |")
    return "\n".join(lines) + "\n"


def render_report_csv(rows: Sequence[CapabilityReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["capability", "system_id", "pass_rate", "size", "errored", "best"])
    for row in rows:
        writer.writerow(
            [
                row.capability.value,
                row.system_id,
                f"{row.pass_rate:.2f}",
                row.size,
                row.errored,
                str(row.is_best).lower(),
            ]
        )
    return buffer.getvalue()


# Each report format's file extension and renderer.
REPORT_FORMATS = {
    "json": ("json", render_report_json),
    "markdown": ("md", render_report_markdown),
    "csv": ("csv", render_report_csv),
}


def emit_report(rows: Sequence[CapabilityReport], fmt: str, path) -> None:
    """Write the table in the requested format; bytes are input-deterministic."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r} (use one of {tuple(REPORT_FORMATS)})")
    _, render = REPORT_FORMATS[fmt]
    write_text(path, render(rows))


def sweep_markdown(grid: Mapping[tuple[float, float], float]) -> str:
    """Render a sweep grid: alphas as rows, betas as columns."""
    alphas = sorted({alpha for alpha, _ in grid})
    betas = sorted({beta for _, beta in grid})
    lines = []
    header = ["alpha \\ beta"] + [f"{beta:g}" for beta in betas]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for alpha in alphas:
        parts = [f"{alpha:g}"]
        for beta in betas:
            parts.append(f"{grid[(alpha, beta)]:.2f}")
        lines.append("| " + " | ".join(parts) + " |")
    return "\n".join(lines) + "\n"
