"""Acceptance gate: one test per release criterion, tolerances pinned.

Every test prints a single ``ACCEPTANCE Cnn <name>: PASS`` (or FAIL) line on
the terminal, bypassing pytest capture, so a plain ``pytest`` run shows the
checklist. Runtime limits are asserted where a criterion pins one.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from mtbehave.backends import Backend, BackendSpec, ResponseCache
from mtbehave.casegen import (
    STATUS_DROPPED_QUALITY,
    STATUS_KEPT,
    TestCase as Case,
    mask_pair,
    quality_filter,
    render_prompt,
)
from mtbehave.corpus import POS_TAGS, Annotation, TranslationPair
from mtbehave.judge import (
    JudgeConfig,
    TranslationRecord,
    Verdict,
    judge_case,
    judge_records,
    pass_rate,
    score_records,
    sweep,
)
from mtbehave.report import (
    GoldErrorAnnotation,
    ZeroFlagged,
    ZeroGoldErrors,
    precision_recall,
)
from mtbehave.segmentation import (
    Capability,
    EditableSegment,
    extract_editable,
    plan_selection,
)

from conftest import RecordingTransport, make_pair, run_cli
from oracles import oracle_span_pairs

GOLDEN_DIR = Path(__file__).parent / "goldens"


@contextmanager
def criterion(capsys, code, name):
    """Print the criterion's verdict line outside pytest's capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {code} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {code} {name}: PASS")


def scored(qual_y, qual_y_prime, case_id="c"):
    return TranslationRecord(
        case_id, "sys", y="y", y_prime="y'", qual_y=qual_y, qual_y_prime=qual_y_prime
    )


def verdict(passed):
    return Verdict("c", "sys", 1.0, 1.0, 0.0, passed, None if passed else "large_diff")


def test_c01_judge_agreement(capsys):
    with criterion(capsys, "C01", "judge-agreement"):
        started = time.perf_counter()
        config = JudgeConfig(alpha=0.8, beta=0.05)

        def independent_rule(qual_y, qual_y_prime):
            if qual_y < 0.8:
                return False, "low_base_quality"
            if abs(qual_y - qual_y_prime) > 0.05:
                return False, "large_diff"
            return True, None

        rng = random.Random(11)
        table = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(900)]
        # crowd the thresholds so exact comparison differences would surface
        table += [
            (0.8 + step / 2000, 0.8 + offset / 2000)
            for step in range(-5, 5)
            for offset in range(-5, 5)
        ]
        assert len(table) == 1000
        for qual_y, qual_y_prime in table:
            got = judge_case(scored(qual_y, qual_y_prime), config)
            assert (got.passed, got.fail_reason) == independent_rule(qual_y, qual_y_prime)

        canonical = judge_case(scored(0.85, 0.83), config)
        assert canonical.passed and canonical.fail_reason is None
        for qual_y_prime in (0.79, 0.99, 0.0):
            low = judge_case(scored(0.79, qual_y_prime), config)
            assert (low.passed, low.fail_reason) == (False, "low_base_quality")
        drifted = judge_case(scored(0.90, 0.80), config)
        assert (drifted.passed, drifted.fail_reason) == (False, "large_diff")
        assert time.perf_counter() - started < 1.0


def test_c02_pass_rate_arithmetic(capsys):
    with criterion(capsys, "C02", "pass-rate-arithmetic"):
        started = time.perf_counter()
        frozen_cell = [verdict(True)] * 455 + [verdict(False)] * 39
        assert len(frozen_cell) == 494
        assert pass_rate(frozen_cell) == 92.11

        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(1, 500)
            k = rng.randint(0, n)
            verdicts = [verdict(True)] * k + [verdict(False)] * (n - k)
            assert pass_rate(verdicts) == round(100 * k / n, 2)
        assert time.perf_counter() - started < 1.0


def random_corpus_triple(rng, trial):
    n_src = rng.randint(1, 10)
    n_ref = rng.randint(1, 10)
    pair = TranslationPair(
        f"t{trial}",
        tuple(f"s{i}" for i in range(n_src)),
        tuple(f"r{j}" for j in range(n_ref)),
    )
    links = frozenset(
        (i, j)
        for i in range(n_src)
        for j in range(n_ref)
        if rng.random() < 0.18
    )

    def random_spans(limit):
        spans = set()
        for _ in range(rng.randint(0, 3)):
            start = rng.randrange(limit)
            end = rng.randint(start + 1, limit)
            spans.add((start, end))
        return tuple(sorted(spans))

    tags = sorted(POS_TAGS)
    annotation = Annotation(
        pair.pair_id,
        tuple(rng.choice(tags) for _ in range(n_src)),
        tuple(rng.random() < 0.2 for _ in range(n_src)),
        (),
        random_spans(n_src),
        random_spans(n_ref),
    )
    return pair, links, annotation


def test_c03_extraction_oracle(capsys):
    with criterion(capsys, "C03", "extraction-oracle"):
        started = time.perf_counter()
        rng = random.Random(33)
        mismatches = 0
        for trial in range(500):
            pair, links, annotation = random_corpus_triple(rng, trial)
            segments = extract_editable(pair, links, annotation)
            got = sorted((seg.src_span, seg.ref_span) for seg in segments)
            expected = oracle_span_pairs(pair, links, annotation)
            if got != expected:
                mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - started < 30.0


def test_c04_alignment_topology_fixture(capsys):
    with criterion(capsys, "C04", "alignment-topology-fixture"):
        pair = TranslationPair(
            "topo",
            ("In", "order", "to", "tell", "the", "story", "of", "Meta-universe", "well"),
            ("为了", "把", "元宇宙", "的", "故事", "讲出", "来"),
        )
        # "In", "order", and "to" all align to the same first reference token,
        # so the "In order to tell" phrase covers a non-consecutive block
        links = frozenset(
            [(0, 0), (1, 0), (2, 0), (3, 5), (5, 4), (6, 3), (7, 2), (8, 6)]
        )
        annotation = Annotation(
            "topo",
            ("ADP", "NOUN", "ADP", "VERB", "OTHER", "NOUN", "ADP", "NOUN", "ADV"),
            (False,) * 9,
            ((7, 8, "MISC"),),
            ((0, 4),),
            (),
        )
        segments = extract_editable(pair, links, annotation)
        span_pairs = [(seg.src_span, seg.ref_span) for seg in segments]

        assert ((7, 8), (2, 3)) in span_pairs  # Meta-universe <-> 元宇宙
        entity = next(seg for seg in segments if seg.src_span == (7, 8))
        assert entity.ne_type == "MISC"

        src_spans = {seg.src_span for seg in segments}
        assert (0, 4) not in src_spans  # the phrase is not editable
        # nor is any piece of it that shares the many-to-one alignment
        for token in (0, 1, 2):
            assert all(not (start <= token < end) for start, end in src_spans)


def random_disjoint_segments(rng, source_len):
    segments = []
    cursor = 0
    while cursor < source_len:
        if rng.random() < 0.5:
            width = rng.choice((1, 1, 1, 2))
            end = min(cursor + width, source_len)
            kind = "word" if end - cursor == 1 else "phrase"
            segments.append(
                EditableSegment((cursor, end), (cursor, end), kind, "NOUN", None, False)
            )
            cursor = end + rng.randint(0, 1)
        else:
            cursor += 1
    return segments


def test_c05_general_mask_budget(capsys):
    with criterion(capsys, "C05", "general-mask-budget"):
        rng = random.Random(55)
        plans_seen = 0
        max_masked_at_15 = 0
        for trial in range(600):
            source_len = 15 if trial % 2 == 0 else rng.randint(6, 30)
            pair = TranslationPair(
                f"b{trial}",
                tuple(f"s{i}" for i in range(source_len)),
                tuple(f"r{i}" for i in range(source_len)),
            )
            segments = random_disjoint_segments(rng, source_len)
            if not segments:
                continue
            plans = plan_selection(
                pair,
                segments,
                Capability.GENERAL,
                rng.randint(1, 20),
                rng.randrange(2**32),
            )
            for plan in plans:
                total = sum(end - start for start, end in (s.src_span for s in plan))
                assert 5 * total < source_len  # strictly under a fifth
                if source_len == 15:
                    max_masked_at_15 = max(max_masked_at_15, total)
            plans_seen += len(plans)
        assert plans_seen >= 1000
        # a fifth of 15 is 3, so the strict bound admits at most 2 words
        assert max_masked_at_15 == 2


def plan_for(pair, capability, *segments):
    return tuple(segments)


def test_c06_prompt_goldens(capsys):
    with criterion(capsys, "C06", "prompt-goldens"):
        g1 = make_pair("g1", "the shop closed early", "商店 很早 关门")
        renders = {
            "prompt_pos_noun.txt": render_prompt(
                mask_pair(
                    g1,
                    plan_for(
                        g1,
                        Capability.NOUN,
                        EditableSegment((1, 2), (0, 1), "word", "NOUN", None, False),
                    ),
                ),
                Capability.NOUN,
            ),
            "prompt_tense.txt": render_prompt(
                mask_pair(
                    g1,
                    plan_for(
                        g1,
                        Capability.TENSE,
                        EditableSegment((2, 3), (2, 3), "word", "VERB", None, True),
                    ),
                ),
                Capability.TENSE,
            ),
        }
        n1 = make_pair("n1", "Russia is large", "俄罗斯 很 大")
        renders["prompt_ner.txt"] = render_prompt(
            mask_pair(
                n1,
                plan_for(
                    n1,
                    Capability.NER,
                    EditableSegment((0, 1), (0, 1), "word", "NOUN", "GPE", False),
                ),
            ),
            Capability.NER,
        )
        g2 = make_pair(
            "g2",
            "the old shop near the station closed very early last night",
            "那家 老 商店 在 车站 附近 昨晚 很 早 关门",
        )
        renders["prompt_general.txt"] = render_prompt(
            mask_pair(
                g2,
                plan_for(
                    g2,
                    Capability.GENERAL,
                    EditableSegment((2, 3), (2, 3), "word", "NOUN", None, False),
                    EditableSegment((8, 9), (8, 9), "word", "ADV", None, False),
                ),
            ),
            Capability.GENERAL,
        )
        clause = "'Filled English:{} \\n Filled Chinese:{}'"
        for name, prompt in renders.items():
            golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            assert prompt.rendered_text == golden, f"{name} drifted"
            assert clause in prompt.rendered_text
            assert "\n" not in prompt.rendered_text


def build_stub_workspace(root: Path) -> Path:
    """50 synthetic pairs with a translator scripted per outcome group.

    Pairs 0-29 translate both sides perfectly (pass). Pairs 30-39 mangle the
    edited translation only (fail, large diff). Pairs 40-49 mangle the base
    translation (fail, low base quality).
    """
    pair_lines = []
    alignment_lines = []
    annotation_lines = []
    table = {}
    for i in range(50):
        base = f"the w{i} closed t{i}"
        edited = f"the store closed t{i}"
        reference = f"名{i} 副{i} 关门"
        edited_reference = f"门店 副{i} 关门"
        pair_lines.append(f"p{i:02d}\t{base}\t{reference}")
        alignment_lines.append("1-0 2-2 3-1")
        annotation_lines.append(
            json.dumps(
                {
                    "id": f"p{i:02d}",
                    "pos": ["OTHER", "NOUN", "VERB", "ADV"],
                    "past_perfect": [False] * 4,
                    "ne": [],
                    "phrases_src": [],
                    "phrases_ref": [],
                },
                ensure_ascii=False,
            )
        )
        table[base] = reference if i < 40 else "错 错 错"
        table[edited] = edited_reference if i < 30 or i >= 40 else "胡 言 乱"

    (root / "pairs.tsv").write_text("\n".join(pair_lines) + "\n", encoding="utf-8")
    (root / "alignments.txt").write_text(
        "\n".join(alignment_lines) + "\n", encoding="utf-8"
    )
    (root / "annotations.jsonl").write_text(
        "\n".join(annotation_lines) + "\n", encoding="utf-8"
    )
    config = {
        "corpus": {
            "pairs": "pairs.tsv",
            "alignments": "alignments.txt",
            "annotations": "annotations.jsonl",
        },
        "capability": "noun",
        "per_pair": 1,
        "seed": 13,
        "judge": {"alpha": 0.8, "beta": 0.05},
        "output_dir": "out",
        "backends": {
            "infill": {
                "backend_id": "stub-infill",
                "transport": "stub",
                "stub_params": {"src": "store", "ref": "门店"},
            },
            "scorer_ref_free": {
                "backend_id": "stub-qe",
                "transport": "stub",
                "stub_params": {"mode": "constant", "value": 0.9},
            },
            "translator": {
                "backend_id": "stub-mt",
                "transport": "stub",
                "stub_params": {"table": table},
            },
            "scorer_ref_based": {
                "backend_id": "stub-f1",
                "transport": "stub",
                "stub_params": {"mode": "unigram_f1"},
            },
        },
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    return config_path


def test_c07_end_to_end_stub_run(capsys, tmp_path):
    with criterion(capsys, "C07", "end-to-end-stub-run"):
        started = time.perf_counter()
        config = build_stub_workspace(tmp_path)
        config_data = json.loads(config.read_text(encoding="utf-8"))
        assert all(
            spec["transport"] == "stub" for spec in config_data["backends"].values()
        )  # nothing in this run can touch a network

        # the analytic expectation, derived from the group construction:
        # unigram F1 is 1.0 for a scripted perfect translation and 0.0 for a
        # mangled one, so exactly the 30 fully faithful pairs pass
        passes = sum(1 for i in range(50) if i < 30)
        expected_rate = round(100 * passes / 50, 2)

        outputs = {}
        for run_dir in ("out_a", "out_b"):
            out = tmp_path / run_dir
            for args in (
                ["generate", "--config", str(config), "--output-dir", str(out)],
                ["judge", "--config", str(config), "--output-dir", str(out)],
                ["report", "--config", str(config), "--output-dir", str(out)],
            ):
                result = run_cli(args)
                assert result.exit_code == 0, result.output
                if args[0] == "judge":
                    assert f"pass rate {expected_rate:.2f}" in result.output
            outputs[run_dir] = {
                name: (out / name).read_bytes()
                for name in ("cases.jsonl", "records.jsonl", "verdicts.jsonl", "report.md")
            }

        verdicts = [
            json.loads(line)
            for line in (tmp_path / "out_a" / "verdicts.jsonl").read_text().splitlines()
        ]
        assert len(verdicts) == 50
        measured = round(100 * sum(v["passed"] for v in verdicts) / len(verdicts), 2)
        assert measured == expected_rate

        assert outputs["out_a"] == outputs["out_b"]  # byte-identical reruns
        assert time.perf_counter() - started < 10.0


def test_c08_sweep_monotonicity(capsys):
    with criterion(capsys, "C08", "sweep-monotonicity"):
        rng = random.Random(88)
        violations = 0
        for _ in range(200):
            records = [
                scored(rng.uniform(0, 1), rng.uniform(0, 1), case_id=f"c{i}")
                for i in range(30)
            ]
            alphas = sorted(rng.uniform(0, 1) for _ in range(3))
            betas = sorted(rng.uniform(0, 1) for _ in range(3))
            grid = sweep(records, alphas, betas)
            for beta in betas:
                rates = [grid[(alpha, beta)] for alpha in alphas]
                if any(b > a for a, b in zip(rates, rates[1:])):
                    violations += 1
            for alpha in alphas:
                rates = [grid[(alpha, beta)] for beta in betas]
                if any(b < a for a, b in zip(rates, rates[1:])):
                    violations += 1
        assert violations == 0


def test_c09_quality_filter_boundary(capsys):
    with criterion(capsys, "C09", "quality-filter-boundary"):
        # (q, q') per case; cases 2 and 3 sit on either side of beta = 0.05:
        # 0.85 - 0.80 = 0.04999999999999993 while 0.90 - 0.85 = 0.050000000000000044
        values = {
            1: (0.9, 0.9),
            2: (0.85, 0.80),
            3: (0.90, 0.85),
            4: (0.5, 0.5),
            5: (1.0, 0.0),
            6: (0.3, 0.8),
        }
        expected_kept = {0: {1, 4}, 0.05: {1, 2, 4}, 1: {1, 2, 3, 4, 5, 6}}

        # Reference-free scores per (source, text), as a scorer would return them.
        table = {}
        for key, (q, q_prime) in values.items():
            table[(f"s{key}", f"r{key}")] = q
            table[(f"s{key} x", f"r{key} x")] = q_prime

        for beta, wanted in expected_kept.items():
            kept = set()
            for key in values:
                status = quality_filter(table[(f"s{key}", f"r{key}")], table[(f"s{key} x", f"r{key} x")], beta)
                assert status in (STATUS_KEPT, STATUS_DROPPED_QUALITY)
                if status == STATUS_KEPT:
                    kept.add(key)
            assert kept == wanted, f"beta={beta}"


def test_c10_precision_recall_fixture(capsys):
    with criterion(capsys, "C10", "precision-recall-fixture"):
        flagged_ids = [f"v{i:02d}" for i in range(1, 9)]  # 8 flagged
        passed_ids = [f"v{i:02d}" for i in range(9, 21)]  # 12 passed
        erroneous_ids = {f"v{i:02d}" for i in range(1, 7)} | {
            f"v{i:02d}" for i in range(9, 13)
        }  # 10 gold errors, 6 of them flagged
        verdicts = [
            Verdict(case_id, "mt", 0.9, 0.5, 0.4, False, "large_diff")
            for case_id in flagged_ids
        ] + [Verdict(case_id, "mt", 0.9, 0.9, 0.0, True, None) for case_id in passed_ids]
        gold = {
            (case_id, "mt"): GoldErrorAnnotation(
                case_id,
                "mt",
                case_id in erroneous_ids,
                ((0, 1),) if case_id in erroneous_ids else (),
                ((0, 1),),
            )
            for case_id in flagged_ids + passed_ids
        }
        assert len(gold) == 20

        precision, recall = precision_recall(verdicts, gold)
        assert precision == 75.0  # 6 true positives out of 8 flagged
        assert recall == 60.0  # 6 of the 10 gold errors caught

        only_passed = [v for v in verdicts if v.passed]
        try:
            precision_recall(only_passed, gold)
            raise AssertionError("expected ZeroFlagged")
        except ZeroFlagged:
            pass

        flagged_but_clean = [v for v in verdicts if v.case_id in ("v07", "v08")]
        try:
            precision_recall(flagged_but_clean, gold)
            raise AssertionError("expected ZeroGoldErrors")
        except ZeroGoldErrors:
            pass


def test_c11_cache_idempotence(capsys, tmp_path):
    with criterion(capsys, "C11", "cache-idempotence"):
        pairs = {
            pair.pair_id: pair
            for pair in (make_pair("p1", "the shop closed", "商店 关门"), make_pair("p2", "he ran home", "他 跑了 回家"))
        }
        cases = [
            Case(
                "c1",
                "p1",
                Capability.NOUN,
                seed=1,
                filter_status=STATUS_KEPT,
                source_prime=("the", "store", "closed"),
                reference_prime=("门店", "关门"),
            ),
            Case(
                "c2",
                "p2",
                Capability.VERB,
                seed=1,
                filter_status=STATUS_KEPT,
                source_prime=("he", "walked", "home"),
                reference_prime=("他", "走了", "回家"),
            ),
        ]

        def echo_chat(request):
            return {"choices": [{"message": {"content": request["messages"][-1]["content"]}}]}

        cache = ResponseCache(tmp_path / "cache")
        chat = RecordingTransport(echo_chat)
        rate = RecordingTransport(lambda request: {"score": 0.9})
        translator = Backend(
            BackendSpec("mt", "translator", "stub"), cache=cache, transport=chat
        )
        scorer = Backend(
            BackendSpec("qe", "scorer_ref_based", "stub"), cache=cache, transport=rate
        )

        config = JudgeConfig()
        first_records = score_records(cases, pairs, translator, scorer)
        first_verdicts = judge_records(first_records, config)
        first_rate = pass_rate(first_verdicts)
        calls_after_first = (chat.call_count, rate.call_count)
        assert calls_after_first == (4, 4)  # two cases, two sides each

        second_records = score_records(cases, pairs, translator, scorer)
        second_verdicts = judge_records(second_records, config)
        assert (chat.call_count, rate.call_count) == calls_after_first  # zero new calls
        assert second_records == first_records
        assert second_verdicts == first_verdicts
        assert pass_rate(second_verdicts) == first_rate
