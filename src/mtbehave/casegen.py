"""Test case generation: mask editable segments, infill them, filter the results.

A test case perturbs one translation pair. The chosen segments are replaced by
a mask token on both sides, a chat model fills the masks through a fixed
prompt template, and the filled pair survives only if it differs from the
original and a reference-free scorer finds its quality close to the original
(the absolute score difference must stay within the judge's beta).
"""

from __future__ import annotations

import hashlib
from dataclasses import KW_ONLY, dataclass, field
from typing import Iterable

from .backends import Backend, BackendError, map_distinct, map_jobs, unwrap
from .codec import read_jsonl, to_row, write_jsonl
from .corpus import Corpus, Span, TranslationPair
from .segmentation import (
    MASK_TOKEN,
    Capability,
    BudgetUnsatisfiable,
    SelectionPlan,
    extract_editable,
    filter_by_capability,
    plan_selection,
)

# Filter pipeline states for a generated case.
STATUS_PENDING = "pending"
STATUS_KEPT = "kept"
STATUS_DROPPED_IDENTICAL = "dropped_identical"
STATUS_DROPPED_QUALITY = "dropped_quality"
STATUS_ERROR = "error"

FILTER_STATUSES = frozenset(
    {STATUS_PENDING, STATUS_KEPT, STATUS_DROPPED_IDENTICAL, STATUS_DROPPED_QUALITY, STATUS_ERROR}
)

# Prompt templates. The two-character sequence backslash-n inside them is
# deliberate: the model is told to reproduce that literal marker between the
# two filled sentences, so the templates must spell it, not contain a newline.
# Slots in curly braces are replaced verbatim by render_prompt; the bracketed
# MASKED ENGLISH/CHINESE markers receive the masked sentences.

POS_TEMPLATE = (
    "You are given an English sentence and its Chinese translation. In each "
    "sentence, an {POS word/phrase} has been masked with the '<mask>' token. "
    "Your task is to first fill in the masked token in the English sentence "
    "using an {POS word/phrase} other than {the original POS word/phrase} "
    "without modifying any of the unmasked tokens. Then, use the filled "
    "English sentence to fill in the masked token in its corresponding "
    "Chinese translation. If necessary, make modifications to the filled "
    "Chinese translation to ensure fluency while preserving the meaning. "
    "Finally, please output the filled English sentence and its filled "
    "Chinese translation in the format of 'Filled English:{} \\n Filled "
    "Chinese:{}'. \\n English Sentence: [MASKED ENGLISH]. \\n Chinese "
    "Translation: [MASKED CHINESE]"
)

TENSE_TEMPLATE = (
    "You are given an English sentence and its Chinese translation. In each "
    "sentence, a verb/verb phrase has been masked with the '<mask>' token. "
    "Your task is to first fill in the masked token in the English sentence "
    "using a past perfect tense verb/verb phrase without modifying any of "
    "the unmasked tokens. Then, use the filled English sentence to fill in "
    "the masked token in its corresponding Chinese translation in the past "
    "perfect tense. If necessary, make modifications to the filled Chinese "
    "translation to ensure the correctness of tense while preserving the "
    "meaning. Finally, please output the filled English sentence and its "
    "filled Chinese translation in the format of 'Filled English:{} \\n "
    "Filled Chinese:{}'. \\n English Sentence: [MASKED ENGLISH]. \\n "
    "Chinese Translation: [MASKED CHINESE]"
)

NER_TEMPLATE = (
    "You are given an English sentence and its Chinese translation. In each "
    "sentence, an {named entity type} has been masked with the '<mask>' "
    "token. Your task is to first fill in the masked token in the English "
    "sentence using an {named entity type} other than {the original named "
    "entity} without modifying any of the unmasked tokens. Then, use the "
    "filled English sentence to fill in the masked token in its "
    "corresponding Chinese translation. If necessary, make modifications to "
    "the filled Chinese translation to ensure fluency while preserving the "
    "meaning. Finally, please output the filled English sentence and its "
    "filled Chinese translation in the format of 'Filled English:{} \\n "
    "Filled Chinese:{}'. \\n English Sentence: [MASKED ENGLISH]. \\n "
    "Chinese Translation: [MASKED CHINESE]"
)

GENERAL_TEMPLATE = (
    "You are given an English sentence and its Chinese translation. In each "
    "sentence, a word/phrase has been masked with the '<mask>' token. Your "
    "task is to first fill in the masked token in the English sentence "
    "using a word/phrase other than the original without modifying any of "
    "the unmasked tokens. Then, use the filled English sentence to fill in "
    "the masked token in its corresponding Chinese translation. If "
    "necessary, make modifications to the filled Chinese translation to "
    "ensure fluency while preserving the meaning. Finally, please output "
    "the filled English sentence and its filled Chinese translation in the "
    "format of 'Filled English:{} \\n Filled Chinese:{}'. \\n English "
    "Sentence: [MASKED ENGLISH]. \\n Chinese Translation: [MASKED CHINESE]"
)

# How a POS tag class reads inside the POS template slots.
POS_SLOT_WORDS = {
    "NOUN": "noun",
    "VERB": "verb",
    "ADJ": "adjective",
    "ADV": "adverb",
    "ADP": "preposition",
    "OTHER": "other",
}

EN_MARKER = "Filled English:"
ZH_MARKER = "Filled Chinese:"


class ResponseParseError(Exception):
    """The infill reply could not be turned into a filled pair."""

    error_kind = "parse"


class MissingMarker(ResponseParseError):
    pass


class EmptyFill(ResponseParseError):
    pass


class PromptMetadataError(Exception):
    """A template slot has no value (e.g. NER plan without an NE type)."""

    error_kind = "prompt"


@dataclass(frozen=True)
class MaskedPair:
    """A pair with mask placeholders plus the surfaces that were masked out.

    ``src_segments`` and ``ref_segments`` hold the original surface of each
    masked span in sentence order on their own side, tokens joined by single
    spaces; substituting them back for the mask tokens restores the pair.
    """

    pair_id: str
    masked_source: tuple[str, ...]
    masked_reference: tuple[str, ...]
    src_segments: tuple[str, ...]
    ref_segments: tuple[str, ...]
    plan: SelectionPlan


@dataclass(frozen=True)
class PromptRequest:
    """A rendered infill prompt; ``metadata`` carries the slot values used."""

    template_id: str
    rendered_text: str
    metadata: dict


@dataclass
class TestCase:
    """One generated perturbation and its journey through the filters.

    The fields after ``capability`` are keyword-only so that the field order
    can be the cases file's key order. The raw response is not stored there.
    """

    case_id: str
    pair_id: str
    capability: Capability
    _: KW_ONLY
    source_prime: tuple[str, ...] | None = field(default=None, metadata={"key": "x_prime"})
    reference_prime: tuple[str, ...] | None = field(default=None, metadata={"key": "r_prime"})
    filter_status: str = STATUS_PENDING
    seed: int
    template_id: str | None = None
    raw_response: str | None = field(default=None, metadata={"key": None})
    raw_response_digest: str | None = None
    score_diff: float | None = None
    error: str | None = None
    error_kind: str | None = None
    masked_ref_spans: tuple[Span, ...] = ()

    def __post_init__(self) -> None:
        if self.filter_status not in FILTER_STATUSES:
            raise ValueError(f"unknown filter status {self.filter_status!r}")


def derive_seed(master_seed: int, pair_id: str) -> int:
    """Stable per-pair seed; builtin hash() is salted per process, sha256 is not."""
    blob = f"{master_seed}:{pair_id}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def mask_pair(pair: TranslationPair, plan: SelectionPlan) -> MaskedPair:
    """Replace each planned segment with the mask token on both sides."""
    if pair.pair_id != plan.pair_id:
        raise ValueError(f"plan for {plan.pair_id!r} applied to pair {pair.pair_id!r}")
    src_spans = sorted(seg.src_span for seg in plan.segments)
    ref_spans = sorted(seg.ref_span for seg in plan.segments)
    src_segments = tuple(" ".join(pair.source[s:e]) for s, e in src_spans)
    ref_segments = tuple(" ".join(pair.reference[s:e]) for s, e in ref_spans)
    masked_source = list(pair.source)
    masked_reference = list(pair.reference)
    # Right to left so earlier span indices stay valid while splicing.
    for start, end in reversed(src_spans):
        masked_source[start:end] = [MASK_TOKEN]
    for start, end in reversed(ref_spans):
        masked_reference[start:end] = [MASK_TOKEN]
    return MaskedPair(
        pair.pair_id,
        tuple(masked_source),
        tuple(masked_reference),
        src_segments,
        ref_segments,
        plan,
    )


def render_prompt(masked: MaskedPair, capability: Capability) -> PromptRequest:
    """Fill the capability's template with this masked pair's slot values."""
    metadata: dict = {
        "masked_source": " ".join(masked.masked_source),
        "masked_reference": " ".join(masked.masked_reference),
        "original_source_segments": list(masked.src_segments),
        "original_reference_segments": list(masked.ref_segments),
    }
    if capability is Capability.GENERAL:
        template_id, text = "general", GENERAL_TEMPLATE
    elif capability is Capability.TENSE:
        template_id, text = "tense", TENSE_TEMPLATE
    elif capability is Capability.NER:
        segment = masked.plan.segments[0]
        if segment.ne_type is None:
            raise PromptMetadataError(
                f"pair {masked.pair_id!r}: NER prompt needs an entity type"
            )
        original = masked.src_segments[0]
        metadata["ne_type"] = segment.ne_type
        metadata["original_entity"] = original
        text = NER_TEMPLATE.replace("{named entity type}", segment.ne_type)
        text = text.replace("{the original named entity}", original)
        template_id = "ner"
    else:
        segment = masked.plan.segments[0]
        descriptor = f"{POS_SLOT_WORDS[segment.pos_class]} {segment.kind}"
        original = masked.src_segments[0]
        metadata["pos_descriptor"] = descriptor
        metadata["original_segment"] = original
        text = POS_TEMPLATE.replace("{POS word/phrase}", descriptor)
        text = text.replace("{the original POS word/phrase}", original)
        template_id = "pos"
    text = text.replace("[MASKED ENGLISH]", metadata["masked_source"])
    text = text.replace("[MASKED CHINESE]", metadata["masked_reference"])
    return PromptRequest(template_id, text, metadata)


def _clean_fill(text: str) -> str:
    text = text.strip()
    # Models regularly echo the literal \n the format instruction showed them.
    while text.startswith("\\n"):
        text = text[2:].lstrip()
    while text.endswith("\\n"):
        text = text[:-2].rstrip()
    return text


def parse_response(raw: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Extract (filled source tokens, filled reference tokens) from a reply.

    Anchors on the last "Filled English:" so leading chatter is ignored. A
    whitespace-free Chinese fill is split into one token per character.
    """
    anchor = raw.rfind(EN_MARKER)
    if anchor < 0:
        raise MissingMarker(f"reply lacks the {EN_MARKER!r} marker")
    zh_anchor = raw.find(ZH_MARKER, anchor)
    if zh_anchor < 0:
        raise MissingMarker(f"reply lacks the {ZH_MARKER!r} marker")
    en_text = _clean_fill(raw[anchor + len(EN_MARKER) : zh_anchor])
    zh_text = _clean_fill(raw[zh_anchor + len(ZH_MARKER) :])
    if not en_text:
        raise EmptyFill("the English fill is empty")
    if not zh_text:
        raise EmptyFill("the Chinese fill is empty")
    en_tokens = tuple(en_text.split())
    if any(ch.isspace() for ch in zh_text):
        zh_tokens = tuple(zh_text.split())
    else:
        zh_tokens = tuple(zh_text)
    return en_tokens, zh_tokens


def dedup(case: TestCase, original: TranslationPair) -> str:
    """Drop a case that reproduced the original pair on both sides."""
    if case.source_prime == original.source and case.reference_prime == original.reference:
        return STATUS_DROPPED_IDENTICAL
    return STATUS_PENDING


def quality_filter(case: TestCase, q_original: float, q_edited: float, beta: float) -> str:
    """Keep the case iff the reference-free score moved by at most beta.

    ``q_original`` and ``q_edited`` are the scorer's ratings of the reference
    given the source, for the original pair and the edited pair; the absolute
    difference is recorded on the case.
    """
    case.score_diff = abs(q_original - q_edited)
    return STATUS_KEPT if case.score_diff <= beta else STATUS_DROPPED_QUALITY


def generate_cases(
    corpus: Corpus,
    capability: Capability,
    per_pair: int,
    infill: Backend,
    scorer: Backend,
    beta: float,
    seed: int,
    jobs: int = 1,
) -> list[TestCase]:
    """Generate test cases for one capability over the whole corpus.

    Pairs without eligible segments (or without any budget-satisfiable segment
    for General) are skipped. A backend, parse, or prompt failure is recorded
    on its case; the batch itself never aborts. ``scorer`` is the quality
    filter's reference-free scorer; each distinct pair it rates is sent once,
    so the original pair is scored once for all of its cases. Deterministic
    for a fixed seed when the backends are (stub or warm replay cache).
    """
    work: list[tuple[TestCase, TranslationPair, SelectionPlan]] = []
    for pair, alignment, annotation in corpus.triples():
        segments = extract_editable(pair, alignment, annotation)
        eligible = filter_by_capability(segments, annotation, capability)
        pair_seed = derive_seed(seed, pair.pair_id)
        try:
            plans = plan_selection(pair, eligible, capability, per_pair, pair_seed)
        except BudgetUnsatisfiable:
            continue
        for index, plan in enumerate(plans):
            case = TestCase(
                case_id=f"{pair.pair_id}-{capability.value}-{index:03d}",
                pair_id=pair.pair_id,
                capability=capability,
                seed=pair_seed,
                masked_ref_spans=tuple(sorted(seg.ref_span for seg in plan.segments)),
            )
            work.append((case, pair, plan))

    def run(item: tuple[TestCase, TranslationPair, SelectionPlan]) -> TestCase:
        case, pair, plan = item
        try:
            masked = mask_pair(pair, plan)
            prompt = render_prompt(masked, capability)
            case.template_id = prompt.template_id
            raw = infill.infill(prompt)
            case.raw_response = raw
            case.raw_response_digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
            case.source_prime, case.reference_prime = parse_response(raw)
            case.filter_status = dedup(case, pair)
        except (BackendError, ResponseParseError, PromptMetadataError) as exc:
            _record_error(case, exc)
        return case

    cases = map_jobs(run, work, jobs)
    # The quality filter's requests go out after every infill, each distinct
    # one once, so the cases of one pair share their original pair's score.
    pending = [
        (case, _qe_request(pair.source, pair.reference),
         _qe_request(case.source_prime, case.reference_prime))
        for case, pair, _ in work
        if case.filter_status == STATUS_PENDING
    ]
    scores = map_distinct(
        lambda request: scorer.score(*request),
        (request for _, original, edited in pending for request in (original, edited)),
        jobs,
    )
    for case, original, edited in pending:
        try:
            q_original = unwrap(scores[original])
            q_edited = unwrap(scores[edited])
            case.filter_status = quality_filter(case, q_original, q_edited, beta)
        except BackendError as exc:
            _record_error(case, exc)
    return cases


def _qe_request(source: tuple[str, ...], reference: tuple[str, ...]) -> tuple[str, str]:
    return " ".join(source), " ".join(reference)


def _record_error(case: TestCase, exc: Exception) -> None:
    case.filter_status = STATUS_ERROR
    case.error = str(exc)
    case.error_kind = exc.error_kind


def write_cases(cases: Iterable[TestCase], path) -> None:
    """Write the cases file, one JSON object per case, in batch order."""
    write_jsonl(path, map(to_row, cases))


def read_cases(path) -> list[TestCase]:
    """Read a cases file back; raw responses are not stored, only digests."""
    return read_jsonl(path, TestCase, "case record")
