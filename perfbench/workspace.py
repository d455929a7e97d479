"""Seeded synthetic workspaces for the pipeline benchmark.

``build_workspace`` writes everything the program reads (``pairs.tsv``,
``alignments.txt``, ``annotations.jsonl``, ``config.json``) plus what only the
benchmark reads: ``gold.jsonl`` for the eval stage and ``predictions.json``,
the outcome planted for every pair.

Every pair belongs to one group, and the group fixes how each of its cases
ends whichever segments the program happens to mask:

* ``pass``: the reference copies the source tokens, so the identity stub
  translator scores the same before and after any edit; kept, passes.
* ``large_diff``: the reference uses other tokens and the translator table
  maps the base source to its reference, so only the edited side scores low;
  kept, fails with ``large_diff``.
* ``low_base``: other tokens and no table entry, so the base scores 0 while
  the fill word lifts the edited side above beta; kept, fails with
  ``low_base_quality``, which must win over ``large_diff``.
* ``quality``: the one editable word is aligned to a five-token reference
  phrase, so masking it moves the length-ratio QE far beyond beta;
  ``dropped_quality``.
* ``identical``: the one editable word already is the fill word on both
  sides; ``dropped_identical``.

Sentence length (8-30 tokens), the POS mix, NE spans, two-word phrases,
reordering and many-to-one alignment noise (two source words on one reference
word, or one on two) vary by seed. Each pair is run through the oracle model
when it is built and redrawn if a plan would end otherwise.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import oracle

FILLS = {"src": "fill", "ref": "fill"}
ALPHA = 0.8
BETA = 0.05
SWEEP_ALPHAS = (0.5, 0.6, 0.7, 0.8)
SWEEP_BETAS = (0.02, 0.05, 0.08, 0.11)

GROUP_WEIGHTS = {"pass": 55, "large_diff": 15, "low_base": 12, "quality": 9, "identical": 9}
GROUP_OUTCOME = {
    "pass": oracle.Outcome("kept", True, None, False),
    "large_diff": oracle.Outcome("kept", False, "large_diff", True),
    "low_base": oracle.Outcome("kept", False, "low_base_quality", True),
    "quality": oracle.Outcome("dropped_quality"),
    "identical": oracle.Outcome("dropped_identical"),
}
POS_WEIGHTS = {"NOUN": 30, "VERB": 20, "ADJ": 10, "ADV": 8, "ADP": 12, "OTHER": 20}
NE_TYPES = ("PER", "ORG", "LOC")
VOCAB = 4000

SLOTS = ("infill", "scorer_ref_free", "translator", "scorer_ref_based")
BACKEND_IDS = {
    "infill": "bench-infill",
    "scorer_ref_free": "bench-qe",
    "translator": "bench-mt",
    "scorer_ref_based": "bench-f1",
}


def _pick(rng: random.Random, weights: dict) -> str:
    return rng.choices(list(weights), weights=list(weights.values()))[0]


def _ref_word(word: str, copy: bool) -> str:
    return word if copy else "词" + word[1:]


def _aligned_pair(rng, pair_id, words, group, noisy):
    """A pass/large_diff/low_base pair: words, phrases and optional noise."""
    n = len(words)
    copy = group == "pass"
    noise_left = rng.choice((0, 1, 2)) if noisy and n >= 12 else 0
    units = []  # (kind, source positions)
    i = 0
    while i < n:
        roll = rng.random()
        if i + 1 < n and noise_left and roll < 0.08:
            units.append(("merge", (i, i + 1)))
            noise_left -= 1
            i += 2
        elif noise_left and roll < 0.14:
            units.append(("split", (i,)))
            noise_left -= 1
            i += 1
        elif i + 1 < n and roll < 0.26:
            units.append(("phrase", (i, i + 1)))
            i += 2
        else:
            units.append(("word", (i,)))
            i += 1
    order = list(range(len(units)))
    for k in range(len(order) - 1):
        if rng.random() < 0.3:
            order[k], order[k + 1] = order[k + 1], order[k]
    reference, links, phrases_src, phrases_ref = [], set(), [], []
    for u in order:
        kind, positions = units[u]
        t = len(reference)
        if kind == "word":
            reference.append(_ref_word(words[positions[0]], copy))
            links.add((positions[0], t))
        elif kind == "phrase":
            reference.extend(_ref_word(words[p], copy) for p in positions)
            crossed = rng.random() < 0.3
            links.update({(positions[0], t + crossed), (positions[1], t + 1 - crossed)})
            phrases_src.append((positions[0], positions[1] + 1))
            phrases_ref.append((t, t + 2))
        elif kind == "merge":
            reference.append(_ref_word(words[positions[0]], copy))
            links.update({(positions[0], t), (positions[1], t)})
        else:
            reference.extend([_ref_word(words[positions[0]], copy), f"附{pair_id}"])
            links.update({(positions[0], t), (positions[0], t + 1)})
    pos = [_pick(rng, POS_WEIGHTS) for _ in range(n)]
    ne = []
    for kind, positions in units:
        if kind in ("word", "phrase") and pos[positions[-1]] == "NOUN" and rng.random() < 0.2:
            ne.append((positions[0], positions[-1] + 1, rng.choice(NE_TYPES)))
    return reference, links, pos, ne, phrases_src, phrases_ref


def _single_segment_pair(rng, words, group):
    """A quality/identical pair: one editable NOUN, every other word noise."""
    n = len(words)
    editable = rng.randrange(n)
    if group == "identical":
        words[editable] = FILLS["src"]
    rest = [i for i in range(n) if i != editable]
    chunks = [rest[k : k + 2] for k in range(0, len(rest), 2)]
    if len(chunks[-1]) == 1:
        chunks[-2].extend(chunks.pop())
    blocks = [("edit", [editable])] + [("noise", chunk) for chunk in chunks]
    rng.shuffle(blocks)
    reference, links = [], set()
    phrases_ref = []
    for kind, positions in blocks:
        t = len(reference)
        if kind == "noise":
            reference.append(_ref_word(words[positions[0]], False))
            links.update((p, t) for p in positions)
        elif group == "identical":
            reference.append(FILLS["ref"])
            links.add((editable, t))
        else:
            reference.extend(f"{_ref_word(words[editable], False)}{k}" for k in range(5))
            links.update({(editable, t), (editable, t + 4)})
            phrases_ref.append((t, t + 5))
    pos = [_pick(rng, POS_WEIGHTS) for _ in range(n)]
    pos[editable] = "NOUN"
    return reference, links, pos, [], [], phrases_ref


def _make_pair(rng, pair_id, n, group, noisy, table):
    words = [f"w{k}" for k in rng.sample(range(VOCAB), n)]
    if group in ("quality", "identical"):
        parts = _single_segment_pair(rng, words, group)
    else:
        parts = _aligned_pair(rng, pair_id, words, group, noisy)
    reference, links, pos, ne, phrases_src, phrases_ref = parts
    past = [tag == "VERB" and rng.random() < 0.2 for tag in pos]
    pair = oracle.Pair(
        pair_id,
        tuple(words),
        tuple(reference),
        frozenset(links),
        tuple(pos),
        tuple(past),
        tuple(ne),
        tuple(phrases_src),
        tuple(phrases_ref),
    )
    if group == "large_diff":
        table[" ".join(pair.source)] = " ".join(pair.reference)
    return pair


def _planted_cases(pair, group, capability, per_pair, table) -> int | None:
    """How many cases the pair yields, or None when the pair is unusable: it
    yields fewer than ``per_pair`` cases (one for the one-segment groups), or
    some plan the program could draw would not end as the group says."""
    pool = oracle.eligible(oracle.editable_segments(pair), capability)
    # Every single-segment plan is checked. General pairs are noise-free copy
    # or non-copy structures on which any budgeted subset ends alike, so the
    # cap of 32 subsets only bounds the search.
    plans = oracle.possible_plans(pair, pool, capability, 0 if capability != "general" else 32)
    want = 1 if group in ("quality", "identical") else per_pair
    if len(plans) < want:
        return None
    outcome = GROUP_OUTCOME[group]
    if any(oracle.case_outcome(pair, plan, FILLS, table, ALPHA, BETA) != outcome for plan in plans):
        return None
    return want


def generate_corpus(seed: int, n_pairs: int, capability: str, per_pair: int):
    """Pairs, the translator table and per-pair predictions for one seed.

    Group sizes are fixed shares of ``n_pairs`` and every pair of a group
    yields the same number of cases, so the amount of work is the same for
    every seed; which pairs, their lengths and their structure vary.
    """
    rng = random.Random(f"perfbench:{seed}:{capability}:{n_pairs}")
    total = sum(GROUP_WEIGHTS.values())
    groups = []
    for group, weight in GROUP_WEIGHTS.items():
        groups += [group] * (n_pairs * weight // total)
    groups += ["pass"] * (n_pairs - len(groups))
    rng.shuffle(groups)
    pairs, table, predictions = [], {}, {}
    seen_sources = set()
    # General masks any segment, so the group guarantee there rests on
    # noise-free copy structure; noise is planted only for one-segment plans.
    noisy = capability != "general"
    for index, group in enumerate(groups):
        pair_id = f"p{index:05d}"
        while True:
            n = rng.randint(8, 30)
            trial_table = {}
            pair = _make_pair(rng, pair_id, n, group, noisy, trial_table)
            key = " ".join(pair.source)
            if key in seen_sources:
                continue
            cases = _planted_cases(pair, group, capability, per_pair, trial_table)
            if cases is not None:
                break
        seen_sources.add(key)
        table.update(trial_table)
        pairs.append(pair)
        outcome = GROUP_OUTCOME[group]
        predictions[pair_id] = {
            "group": group,
            "cases": cases,
            "status": outcome.status,
            "passed": outcome.passed,
            "fail_reason": outcome.fail_reason,
        }
    return pairs, table, predictions


def write_corpus(root: Path, pairs) -> None:
    with open(root / "pairs.tsv", "w", encoding="utf-8") as handle:
        for p in pairs:
            handle.write(f"{p.pair_id}\t{' '.join(p.source)}\t{' '.join(p.reference)}\n")
    with open(root / "alignments.txt", "w", encoding="utf-8") as handle:
        for p in pairs:
            handle.write(" ".join(f"{i}-{j}" for i, j in sorted(p.links)) + "\n")
    with open(root / "annotations.jsonl", "w", encoding="utf-8") as handle:
        for p in pairs:
            note = {
                "id": p.pair_id,
                "pos": list(p.pos),
                "past_perfect": list(p.past_perfect),
                "ne": [list(span) for span in p.ne],
                "phrases_src": [list(span) for span in p.phrases_src],
                "phrases_ref": [list(span) for span in p.phrases_ref],
            }
            handle.write(json.dumps(note, ensure_ascii=False) + "\n")


def write_gold(root: Path, seed: int, capability: str, predictions: dict) -> None:
    """Gold error labels for every case that can reach a verdict.

    Flagged groups are mostly erroneous and passing ones mostly not, so
    precision and recall land strictly between 0 and 100; half of the
    erroneous rows put the error inside the edited span.
    """
    rng = random.Random(f"perfbench-gold:{seed}")
    with open(root / "gold.jsonl", "w", encoding="utf-8") as handle:
        for pair_id, pred in predictions.items():
            if pred["status"] != "kept":
                continue
            for index in range(pred["cases"]):
                erroneous = rng.random() < (0.1 if pred["passed"] else 0.8)
                row = {
                    "case_id": f"{pair_id}-{capability}-{index:03d}",
                    "system_id": BACKEND_IDS["translator"],
                    "is_erroneous": erroneous,
                    "error_spans": [[0, 1]] if erroneous else [],
                    "edited_spans_on_y_prime": [[0, 2]] if rng.random() < 0.5 else [[2, 3]],
                }
                handle.write(json.dumps(row) + "\n")


def write_config(root: Path, capability: str, per_pair: int, seed: int, jobs: int,
                 table: dict, cache: bool, endpoint: str | None) -> Path:
    """The run config; ``endpoint`` switches every slot to the http transport."""
    stub_params = {
        "infill": dict(FILLS),
        "scorer_ref_free": {"mode": "length_ratio"},
        "translator": {"table": table},
        "scorer_ref_based": {"mode": "unigram_f1"},
    }
    backends = {}
    for slot in SLOTS:
        spec = {"backend_id": BACKEND_IDS[slot]}
        if endpoint is None:
            spec.update(transport="stub", stub_params=stub_params[slot])
        else:
            spec.update(transport="http", endpoint=f"{endpoint}/{slot}", model_name="bench")
        backends[slot] = spec
    config = {
        "corpus": {
            "pairs": "pairs.tsv",
            "alignments": "alignments.txt",
            "annotations": "annotations.jsonl",
        },
        "capability": capability,
        "per_pair": per_pair,
        "seed": seed,
        "jobs": jobs,
        "judge": {"alpha": ALPHA, "beta": BETA},
        "output_dir": "out",
        "backends": backends,
    }
    if cache:
        config["cache_root"] = "cache"
    path = root / "config.json"
    path.write_text(json.dumps(config, ensure_ascii=False, indent=1), encoding="utf-8")
    return path


def build_workspace(root: Path, seed: int, n_pairs: int, capability: str, per_pair: int):
    """Write corpus, gold and predictions; return (translator table, predictions)."""
    root.mkdir(parents=True, exist_ok=True)
    pairs, table, predictions = generate_corpus(seed, n_pairs, capability, per_pair)
    write_corpus(root, pairs)
    write_gold(root, seed, capability, predictions)
    sidecar = {
        "seed": seed,
        "capability": capability,
        "per_pair": per_pair,
        "fills": FILLS,
        "alpha": ALPHA,
        "beta": BETA,
        "table": table,
        "pairs": predictions,
    }
    (root / "predictions.json").write_text(json.dumps(sidecar), encoding="utf-8")
    return table, predictions
