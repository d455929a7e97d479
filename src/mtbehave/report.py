"""Diagnostic reports over judged test cases.

Three views: a per-capability pass-rate table across MT systems, precision and
recall of the harness's flags against gold error annotations, and the share of
flagged erroneous translations whose gold error spans overlap the edited
positions. Undefined ratios raise; they are never reported as zero.
"""

from __future__ import annotations

import io
from collections import defaultdict
from typing import Mapping, NamedTuple, Sequence

from .casegen import STATUS_KEPT, TestCase
from .codec import checked, json_text, read_jsonl, row_keys, to_row, write_text
from .corpus import Span, check_span, spans_overlap
from .judge import Verdict, pass_rate
from .segmentation import Capability

_CAPABILITY_ORDER = {capability: index for index, capability in enumerate(Capability)}


class ZeroFlagged(Exception):
    """No case was flagged; precision has no denominator."""


class ZeroGoldErrors(Exception):
    """Gold marks no erroneous case; recall has no denominator."""


@checked
class GoldErrorAnnotation(NamedTuple):
    """Human judgment of one (case, system) translation y'.

    ``error_spans`` mark erroneous tokens of y'; ``edited_spans`` are where the
    case's edit landed in y', as projected by the annotator. Both half-open.
    """

    case_id: str
    system_id: str
    is_erroneous: bool
    error_spans: tuple[Span, ...]
    edited_spans: tuple[Span, ...]
    _keys = {"edited_spans": "edited_spans_on_y_prime"}

    def _check(self) -> None:
        if not self.is_erroneous and self.error_spans:
            raise ValueError(
                f"case {self.case_id!r}: error spans on a non-erroneous translation"
            )
        for span in self.error_spans + self.edited_spans:
            check_span(span, f"case {self.case_id!r}:")


class CapabilityReport(NamedTuple):
    """One pass-rate table row: a capability under one MT system."""

    capability: Capability
    system_id: str
    pass_rate: float
    size: int
    errored: int
    is_best: bool
    _keys = {"is_best": "best"}


def capability_table(
    verdicts: Sequence[Verdict], cases: Sequence[TestCase]
) -> list[CapabilityReport]:
    """Aggregate verdicts into per-capability rows, flagging the best system.

    ``size`` counts the kept cases of the capability; ``errored`` is how many
    of them produced no verdict for the row's system (their records errored).
    Ties for the best pass rate flag every tied row. A verdict whose case is
    unknown or not kept raises ValueError.
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
        if case.filter_status != STATUS_KEPT:  # a stale verdict: only a kept case is judged
            raise ValueError(f"verdict for case {verdict.case_id!r}, which is {case.filter_status}, not kept")
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
        raise ValueError(
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
    on y'. Raises ZeroGoldErrors when no case qualifies and ValueError when a
    qualifying case lacks edited spans.
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
            raise ValueError(
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
    return read_jsonl(path, GoldErrorAnnotation, "gold row", lambda row: (row.case_id, row.system_id))


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
        averages[system] = round(sum(rates) / len(rates), 2)  # each system has a row
    best_average = max(averages.values())

    body = []
    for system in systems:
        parts = [system]
        for capability in capabilities:
            row = cells.get((capability, system))
            if row is None:
                parts.append("-")
            else:
                text = f"{row.pass_rate:.2f}"
                parts.append(f"**{text}**" if row.is_best else text)
        text = f"{averages[system]:.2f}"
        parts.append(f"**{text}**" if averages[system] == best_average else text)
        body.append(parts)

    sizes = []
    for capability in capabilities:
        size = next(row.size for row in rows if row.capability is capability)
        sizes.append(size)
    body.append(["Size"] + [str(size) for size in sizes] + [str(sum(sizes))])
    return _markdown_table(["MT System"] + [cap.display for cap in capabilities] + ["Avg"], body)


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    """A Markdown table: the header, its separator, then one line per row."""
    lines = ["| " + " | ".join(cells) + " |\n" for cells in (header, *rows)]
    lines.insert(1, "|" + "---|" * len(header) + "\n")
    return "".join(lines)


def render_report_csv(rows: Sequence[CapabilityReport]) -> str:
    """The JSON report's rows under its keys: rates to two decimals, flags as true or false."""
    import csv  # here, so that a stage that writes no CSV report never loads it

    cell = {float: "{:.2f}".format, bool: lambda flag: str(flag).lower()}
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, row_keys(CapabilityReport), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: cell.get(type(value), str)(value) for key, value in to_row(row).items()})
    return buffer.getvalue()


# Each report format's file extension and renderer.
REPORT_FORMATS = {
    "json": ("json", render_report_json),
    "markdown": ("md", render_report_markdown),
    "csv": ("csv", render_report_csv),
}


def emit_report(rows: Sequence[CapabilityReport], fmt: str, path) -> None:
    """Write the table in ``fmt``, a key of REPORT_FORMATS; bytes are input-deterministic."""
    _, render = REPORT_FORMATS[fmt]
    write_text(path, render(rows))


def sweep_markdown(grid: Mapping[tuple[float, float], float]) -> str:
    """Render a sweep grid: alphas as rows, betas as columns."""
    alphas = sorted({alpha for alpha, _ in grid})
    betas = sorted({beta for _, beta in grid})
    rows = [[f"{alpha:g}"] + [f"{grid[(alpha, beta)]:.2f}" for beta in betas] for alpha in alphas]
    return _markdown_table(["alpha \\ beta"] + [f"{beta:g}" for beta in betas], rows)
