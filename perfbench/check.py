"""Independent checks of one pipeline run's artifacts.

``check_run`` recomputes every artifact of an output directory from the
workspace alone (corpus files, ``predictions.json``, ``gold.jsonl``) with the
oracle model, and returns a list of problems; an empty list means the run is
correct. Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

from . import oracle

STAGES = ("extract", "generate", "judge", "sweep", "eval", "report")
DISPLAY = {"noun": "Noun", "general": "General"}
# Artifacts a rerun with the same config must reproduce byte for byte.
ARTIFACTS = (
    "segments.jsonl",
    "cases.jsonl",
    "records.jsonl",
    "verdicts.jsonl",
    "sweep.json",
    "sweep.md",
    "eval.json",
    "report.md",
)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _rate(passes: int, total: int) -> float:
    return round(100 * passes / total, 2)


class _Problems(list):
    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.append(message)
        return condition


def check_segments(corpus: dict, rows: list[dict], problems: _Problems) -> None:
    """Brute-force extraction must give exactly the program's segments."""
    got = defaultdict(list)
    for row in rows:
        got[row["pair_id"]].append(row)
    problems.expect(set(got) <= set(corpus), "segments name unknown pairs")
    for pair_id, pair in corpus.items():
        rows_here = got.get(pair_id, [])
        spans = [(tuple(r["src_span"]), tuple(r["ref_span"])) for r in rows_here]
        for k, (src, ref) in enumerate(spans):
            problems.expect(
                oracle.solely_aligned(pair, src) == ref,
                f"{pair_id}: segment {src}->{ref} is not solely aligned and boundary-linked",
            )
            for other_src, other_ref in spans[k + 1 :]:
                problems.expect(
                    src[1] <= other_src[0] or other_src[1] <= src[0],
                    f"{pair_id}: source spans {src} and {other_src} overlap",
                )
                problems.expect(
                    ref[1] <= other_ref[0] or other_ref[1] <= ref[0],
                    f"{pair_id}: reference spans {ref} and {other_ref} overlap",
                )
        want = [
            (seg.src, seg.ref, seg.kind, seg.pos_class, seg.ne_type, seg.tense_eligible)
            for seg in oracle.editable_segments(pair)
        ]
        have = [
            (
                tuple(r["src_span"]),
                tuple(r["ref_span"]),
                r["kind"],
                r["pos_class"],
                r["ne_type"],
                r["tense_eligible"],
            )
            for r in rows_here
        ]
        problems.expect(have == want, f"{pair_id}: segments differ from brute-force extraction")


def check_cases(corpus, pred, rows, problems: _Problems) -> list[dict]:
    """Recompute every case's edit, filter status and score diff."""
    cap, fills, beta = pred["capability"], pred["fills"], pred["beta"]
    by_pair = defaultdict(list)
    for row in rows:
        by_pair[row["pair_id"]].append(row)
    problems.expect(set(by_pair) <= set(corpus), "cases name unknown pairs")
    order = {pair_id: k for k, pair_id in enumerate(corpus)}
    problems.expect(
        [r["pair_id"] for r in rows] == sorted((r["pair_id"] for r in rows), key=order.get),
        "cases are not in corpus order",
    )
    problems.expect(
        len(rows) == sum(p["cases"] for p in pred["pairs"].values()),
        f"{len(rows)} cases, predicted {sum(p['cases'] for p in pred['pairs'].values())}",
    )
    kept = []
    for pair_id, pair in corpus.items():
        planted = pred["pairs"][pair_id]
        here = by_pair.get(pair_id, [])
        ids = [r["case_id"] for r in here]
        want_ids = [f"{pair_id}-{cap}-{k:03d}" for k in range(planted["cases"])]
        if not problems.expect(ids == want_ids, f"{pair_id}: case ids {ids}, want {want_ids}"):
            continue
        pool = {seg.ref: seg for seg in oracle.eligible(oracle.editable_segments(pair), cap)}
        seen_plans = set()
        for row in here:
            cid = row["case_id"]
            ref_spans = [tuple(span) for span in row["masked_ref_spans"]]
            plan = [pool.get(span) for span in ref_spans]
            if not problems.expect(
                bool(plan) and None not in plan, f"{cid}: masks a segment {cap} may not mask"
            ):
                continue
            problems.expect(len(set(ref_spans)) == len(ref_spans), f"{cid}: repeated mask")
            if cap == "general":
                total = sum(seg.src_len for seg in plan)
                problems.expect(
                    oracle.within_budget(total, len(pair.source)),
                    f"{cid}: masks {total} of {len(pair.source)} source words",
                )
            else:
                problems.expect(len(plan) == 1, f"{cid}: masks {len(plan)} segments")
            problems.expect(frozenset(ref_spans) not in seen_plans, f"{cid}: repeats a plan")
            seen_plans.add(frozenset(ref_spans))
            x_prime = oracle.splice(pair.source, [seg.src for seg in plan], fills["src"])
            r_prime = oracle.splice(pair.reference, ref_spans, fills["ref"])
            problems.expect(tuple(row["x_prime"] or ()) == x_prime, f"{cid}: x' is not x with its masks filled")
            problems.expect(tuple(row["r_prime"] or ()) == r_prime, f"{cid}: r' is not r with its masks filled")
            reply = oracle.fill_reply(
                " ".join(oracle.splice(pair.source, [seg.src for seg in plan], oracle.MASK)),
                " ".join(oracle.splice(pair.reference, ref_spans, oracle.MASK)),
                fills["src"],
                fills["ref"],
            )
            problems.expect(
                row["raw_response_digest"] == hashlib.sha256(reply.encode("utf-8")).hexdigest(),
                f"{cid}: infill reply digest differs from the stub reply",
            )
            problems.expect(
                row["template_id"] == ("general" if cap == "general" else "pos"),
                f"{cid}: template {row['template_id']}",
            )
            problems.expect(row["error"] is None and row["error_kind"] is None, f"{cid}: error {row['error']}")
            if x_prime == pair.source and r_prime == pair.reference:
                status, score_diff = "dropped_identical", None
            else:
                score_diff = abs(
                    oracle.length_ratio(" ".join(pair.source), " ".join(pair.reference))
                    - oracle.length_ratio(" ".join(x_prime), " ".join(r_prime))
                )
                status = "kept" if score_diff <= beta else "dropped_quality"
            problems.expect(row["filter_status"] == status, f"{cid}: status {row['filter_status']}, recomputed {status}")
            problems.expect(row["score_diff"] == score_diff, f"{cid}: score diff {row['score_diff']}, recomputed {score_diff}")
            problems.expect(status == planted["status"], f"{cid}: status {status}, planted {planted['status']}")
            if status == "kept":
                kept.append({"case": row, "pair": pair, "x_prime": x_prime, "r_prime": r_prime})
    return kept


def check_judgement(pred, kept, records, verdicts, problems: _Problems, system_id: str) -> None:
    """Recompute translations, scores and verdicts of every kept case."""
    table, alpha, beta = pred["table"], pred["alpha"], pred["beta"]
    problems.expect(len(records) == len(kept), f"{len(records)} records for {len(kept)} kept cases")
    problems.expect(len(verdicts) == len(kept), f"{len(verdicts)} verdicts for {len(kept)} kept cases")
    passes = 0
    for item, record, verdict in zip(kept, records, verdicts):
        cid, pair = item["case"]["case_id"], item["pair"]
        x, r = " ".join(pair.source), " ".join(pair.reference)
        xp, rp = " ".join(item["x_prime"]), " ".join(item["r_prime"])
        y, yp = oracle.translate(x, table), oracle.translate(xp, table)
        qy, qyp = oracle.unigram_f1(y, r), oracle.unigram_f1(yp, rp)
        want_record = {
            "case_id": cid,
            "system_id": system_id,
            "y": y,
            "y_prime": yp,
            "qual_y": qy,
            "qual_y_prime": qyp,
            "error": None,
            "error_kind": None,
        }
        problems.expect(record == want_record, f"{cid}: record differs from the recomputed one")
        passed, reason, gap = oracle.judge(qy, qyp, alpha, beta)
        want_verdict = {
            "case_id": cid,
            "system_id": system_id,
            "qual_y": qy,
            "qual_y_prime": qyp,
            "diff": gap,
            "passed": passed,
            "fail_reason": reason,
        }
        problems.expect(verdict == want_verdict, f"{cid}: verdict differs from the recomputed one")
        planted = pred["pairs"][pair.pair_id]
        problems.expect(
            (passed, reason) == (planted["passed"], planted["fail_reason"]),
            f"{cid}: verdict {passed}/{reason}, planted {planted['passed']}/{planted['fail_reason']}",
        )
        passes += passed
    predicted = sum(p["cases"] for p in pred["pairs"].values() if p["passed"])
    problems.expect(passes == predicted, f"{passes} cases passed, the corpus predicts {predicted}")


def check_analysis(out: Path, ws: Path, pred, verdicts, problems: _Problems, sweep_grid) -> None:
    """Recompute the sweep grid, eval.json and the report table."""
    alphas, betas = sweep_grid
    sweep = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    cells = []
    for alpha in alphas:
        for beta in betas:
            passes = sum(
                v["qual_y"] >= alpha and abs(v["qual_y"] - v["qual_y_prime"]) <= beta for v in verdicts
            )
            cells.append({"alpha": alpha, "beta": beta, "pass_rate": _rate(passes, len(verdicts))})
    problems.expect(
        sweep == {"alphas": list(alphas), "betas": list(betas), "cells": cells},
        "sweep.json differs from the recomputed grid",
    )
    md_rows = (out / "sweep.md").read_text(encoding="utf-8").splitlines()[2:]
    want_md = [
        "| " + " | ".join([f"{a:g}"] + [f"{c['pass_rate']:.2f}" for c in cells if c["alpha"] == a]) + " |"
        for a in alphas
    ]
    problems.expect(md_rows == want_md, "sweep.md differs from the recomputed grid")

    gold = {(g["case_id"], g["system_id"]): g for g in read_jsonl(ws / "gold.jsonl")}
    flagged = tp = gold_errors = located = 0
    for v in verdicts:
        row = gold[(v["case_id"], v["system_id"])]
        flagged += not v["passed"]
        gold_errors += row["is_erroneous"]
        if not v["passed"] and row["is_erroneous"]:
            tp += 1
            located += any(
                a[0] < b[1] and b[0] < a[1]
                for a in row["error_spans"]
                for b in row["edited_spans_on_y_prime"]
            )
    want_eval = {
        "precision": _rate(tp, flagged),
        "recall": _rate(tp, gold_errors),
        "error_position_pct": _rate(located, tp),
        "undefined": {},
    }
    got_eval = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    problems.expect(got_eval == want_eval, f"eval.json {got_eval}, recomputed {want_eval}")

    rate = _rate(sum(v["passed"] for v in verdicts), len(verdicts))
    name = DISPLAY[pred["capability"]]
    system_id = verdicts[0]["system_id"] if verdicts else "?"
    want_report = (
        f"| MT System | {name} | Avg |\n|---|---|---|\n"
        f"| {system_id} | **{rate:.2f}** | **{rate:.2f}** |\n"
        f"| Size | {len(verdicts)} | {len(verdicts)} |\n"
    )
    problems.expect(
        (out / "report.md").read_text(encoding="utf-8") == want_report,
        "report.md differs from the recomputed table",
    )


def check_manifest(ws: Path, out: Path, problems: _Problems) -> None:
    """Six stage entries in order, each output digest matching its file.

    Relative paths in the manifest resolve against the config's directory."""
    entries = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    problems.expect(
        [e["stage"] for e in entries] == list(STAGES), "manifest does not list the six stages in order"
    )
    for entry in entries:
        for name, digest in entry["outputs"].items():
            path = ws / name
            actual = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            problems.expect(actual == digest, f"manifest digest of {name} is stale")


def check_run(ws: Path, out: Path, sweep_grid, system_id: str) -> list[str]:
    """Every problem found in the artifacts under ``out``; empty when correct.

    ``ws`` holds the config, the corpus, ``predictions.json`` and
    ``gold.jsonl``.
    """
    problems = _Problems()
    pred = json.loads((ws / "predictions.json").read_text(encoding="utf-8"))
    corpus = oracle.read_corpus(ws / "pairs.tsv", ws / "alignments.txt", ws / "annotations.jsonl")
    try:
        check_segments(corpus, read_jsonl(out / "segments.jsonl"), problems)
        kept = check_cases(corpus, pred, read_jsonl(out / "cases.jsonl"), problems)
        verdicts = read_jsonl(out / "verdicts.jsonl")
        check_judgement(pred, kept, read_jsonl(out / "records.jsonl"), verdicts, problems, system_id)
        check_analysis(out, ws, pred, verdicts, problems, sweep_grid)
        check_manifest(ws, out, problems)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return list(problems)


def expected_requests(ws: Path, out: Path) -> dict[str, dict[str, int]]:
    """Requests each slot needs for these artifacts: how many the pipeline
    issues as the README describes it (an upper bound for upstream calls) and
    how many of them differ (a lower bound)."""
    corpus = oracle.read_corpus(ws / "pairs.tsv", ws / "alignments.txt", ws / "annotations.jsonl")
    cases = read_jsonl(out / "cases.jsonl")
    records = read_jsonl(out / "records.jsonl")
    qe, mt, f1 = [], [], []
    for case in cases:
        pair = corpus[case["pair_id"]]
        if case["filter_status"] in ("kept", "dropped_quality"):
            qe += [(" ".join(pair.source), " ".join(pair.reference)),
                   (" ".join(case["x_prime"]), " ".join(case["r_prime"]))]
    prime = {c["case_id"]: c for c in cases}
    for record in records:
        case = prime[record["case_id"]]
        pair = corpus[case["pair_id"]]
        x, xp = " ".join(pair.source), " ".join(case["x_prime"])
        mt += [x, xp]
        f1 += [(x, record["y"], " ".join(pair.reference)),
               (xp, record["y_prime"], " ".join(case["r_prime"]))]
    infill = [(c["pair_id"], tuple(map(tuple, c["masked_ref_spans"]))) for c in cases]
    return {
        slot: {"requests": len(items), "distinct": len(set(items))}
        for slot, items in (
            ("infill", infill),
            ("scorer_ref_free", qe),
            ("translator", mt),
            ("scorer_ref_based", f1),
        )
    }
