"""Test case generation: mask editable segments, infill them, filter the results.

A test case perturbs one translation pair. The chosen segments are replaced by
a mask token on both sides, a chat model fills the masks through the infill
prompt, and the filled pair survives only if it differs from the original and
a reference-free scorer finds its quality close to the original (the absolute
score difference must stay within the judge's beta).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Iterable, Literal, NamedTuple, get_args

from .backends import Backend, BackendError, pipeline, unwrap
from .codec import read_jsonl, to_row, write_jsonl
from .corpus import MASK_TOKEN, Span, TranslationPair
from .segmentation import Capability, EditableSegment, filter_by_capability, plan_selection

# Filter pipeline states for a generated case.
FilterStatus = Literal["pending", "kept", "dropped_identical", "dropped_quality", "error"]
STATUS_PENDING, STATUS_KEPT, STATUS_DROPPED_IDENTICAL, STATUS_DROPPED_QUALITY, STATUS_ERROR = get_args(FilterStatus)

# The infill prompt. It reproduces the paper's four prompts (POS, tense, NER,
# general): they differ only in the phrases that name what was masked, what
# to fill it with, the Chinese side's tense clause and what to preserve, which
# render_prompt fills per capability; the two masked sentences are inserted
# as given. One str.format call fills every field, so no inserted text is read
# as a field. The two-character sequence backslash-n is deliberate: the model
# is told to reproduce that literal marker between the two filled sentences,
# so the prompt must spell it, not contain a newline. The mask token and the
# reply markers are joined in as text, not as fields, so the anchors below span them.
EN_MARKER = "Filled English:"
ZH_MARKER = "Filled Chinese:"
INFILL_PROMPT = (
    "You are given an English sentence and its Chinese translation. In each "
    "sentence, {masked} has been masked with the '" + MASK_TOKEN + "' token. Your task is "
    "to first fill in the masked token in the English sentence using {fill} "
    "without modifying any of the unmasked tokens. Then, use the filled "
    "English sentence to fill in the masked token in its corresponding "
    "Chinese translation{zh_tense}. If necessary, make modifications to the "
    "filled Chinese translation to ensure {preserve} while preserving the "
    "meaning. Finally, please output the filled English sentence and its "
    "filled Chinese translation in the format of '" + EN_MARKER + "{{}} \\n "
    + ZH_MARKER + "{{}}'. \\n English Sentence: {source}. \\n Chinese "
    "Translation: {reference}"
)

# The prompt's fixed texts just before the masked source (the instruction after
# {preserve}) and the masked reference, cut out at a field filler it never holds.
SOURCE_ANCHOR, REFERENCE_ANCHOR = INFILL_PROMPT.format_map(defaultdict(lambda: "\0")).split("\0")[-3:-1]


class ResponseParseError(Exception):
    """The infill reply could not be turned into a filled pair."""

    error_kind = "parse"


class MaskedPair(NamedTuple):
    """A pair with mask placeholders plus the surfaces that were masked out.

    ``src_segments`` holds the original surface of each masked source span in
    sentence order, tokens joined by single spaces; substituting them back for
    the mask tokens restores the source. ``segments`` is the plan that was
    masked; the prompt reads its slot values from them.
    """

    masked_source: tuple[str, ...]
    masked_reference: tuple[str, ...]
    src_segments: tuple[str, ...]
    segments: tuple[EditableSegment, ...]


class PromptRequest(NamedTuple):
    """A rendered infill prompt: the request text and the template it came from."""

    template_id: str
    rendered_text: str


class TestCase(NamedTuple):
    """One generated perturbation and the outcome of its filters.

    The field order is the cases file's key order. ``source_prime`` and
    ``reference_prime`` are the filled pair, None until an infill reply parses.
    """

    case_id: str
    pair_id: str
    capability: Capability
    source_prime: tuple[str, ...] | None
    reference_prime: tuple[str, ...] | None
    filter_status: FilterStatus
    seed: int
    template_id: str | None = None
    raw_response_digest: str | None = None
    score_diff: float | None = None
    error: str | None = None
    error_kind: str | None = None
    masked_ref_spans: tuple[Span, ...] = ()
    _keys = {"source_prime": "x_prime", "reference_prime": "r_prime"}


def derive_seed(master_seed: int, pair_id: str) -> int:
    """Stable per-pair seed; builtin hash() is salted per process, sha256 is not."""
    blob = f"{master_seed}:{pair_id}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def mask_pair(pair: TranslationPair, segments: tuple[EditableSegment, ...]) -> MaskedPair:
    """Replace each planned segment with the mask token on both sides."""
    src_spans = sorted(seg.src_span for seg in segments)
    ref_spans = sorted(seg.ref_span for seg in segments)
    src_segments = tuple(" ".join(pair.source[s:e]) for s, e in src_spans)
    masked_source = list(pair.source)
    masked_reference = list(pair.reference)
    # Right to left so earlier span indices stay valid while splicing.
    for start, end in reversed(src_spans):
        masked_source[start:end] = [MASK_TOKEN]
    for start, end in reversed(ref_spans):
        masked_reference[start:end] = [MASK_TOKEN]
    return MaskedPair(tuple(masked_source), tuple(masked_reference), src_segments, segments)


def render_prompt(masked: MaskedPair, capability: Capability) -> PromptRequest:
    """Fill the infill prompt's phrases for the capability and insert the masked pair."""
    zh_tense, preserve = "", "fluency"
    if capability is Capability.TENSE:
        template_id, what = "tense", "a verb/verb phrase"
        fill = "a past perfect tense verb/verb phrase"
        zh_tense, preserve = " in the past perfect tense", "the correctness of tense"
    elif capability is Capability.GENERAL:
        template_id, what = "general", "a word/phrase"
        fill = f"{what} other than the original"
    else:
        segment = masked.segments[0]
        if capability is Capability.NER:
            template_id, what = "ner", f"an {segment.ne_type}"
        else:
            template_id, what = "pos", f"an {capability.word} {segment.kind}"
        fill = f"{what} other than {masked.src_segments[0]}"
    text = INFILL_PROMPT.format(
        masked=what,
        fill=fill,
        zh_tense=zh_tense,
        preserve=preserve,
        source=" ".join(masked.masked_source),
        reference=" ".join(masked.masked_reference),
    )
    return PromptRequest(template_id, text)


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

    Splits at the last "Filled Chinese:" and the last "Filled English:" before
    it, so leading chatter is ignored and a Chinese fill may hold the English
    marker; a reply with no "Filled Chinese:" after a "Filled English:" lacks
    the Chinese marker. A whitespace-free Chinese fill is split into one token
    per character; a fill that still holds the mask token is an error.
    """
    if EN_MARKER not in raw:
        raise ResponseParseError(f"reply lacks the {EN_MARKER!r} marker")
    zh_anchor = raw.rfind(ZH_MARKER)
    anchor = raw.rfind(EN_MARKER, 0, zh_anchor) if zh_anchor >= 0 else -1
    if anchor < 0:
        raise ResponseParseError(f"reply lacks the {ZH_MARKER!r} marker")
    en_text = _clean_fill(raw[anchor + len(EN_MARKER) : zh_anchor])
    zh_text = _clean_fill(raw[zh_anchor + len(ZH_MARKER) :])
    for side, text in (("English", en_text), ("Chinese", zh_text)):
        if not text:
            raise ResponseParseError(f"the {side} fill is empty")
        if MASK_TOKEN in text:  # no corpus token holds it, so the model left it unfilled
            raise ResponseParseError(f"the {side} fill still holds {MASK_TOKEN!r}")
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


def quality_filter(q_original: float, q_edited: float, beta: float) -> str:
    """Keep the case iff the reference-free score moved by at most beta.

    ``q_original`` and ``q_edited`` are the scorer's ratings of the reference
    given the source, for the original pair and the edited pair; the caller
    records their absolute difference on the case.
    """
    return STATUS_KEPT if abs(q_original - q_edited) <= beta else STATUS_DROPPED_QUALITY


def generate_cases(
    extracted: Iterable[tuple[TranslationPair, list[EditableSegment]]],
    capability: Capability,
    per_pair: int,
    infill: Backend,
    scorer: Backend,
    beta: float,
    seed: int,
    jobs: int = 1,
) -> list[TestCase]:
    """Generate test cases for one capability from each pair and its editable segments.

    Pairs without eligible segments (or without any budget-satisfiable segment
    for General) are skipped. A backend or parse failure is recorded on its
    case; the batch itself never aborts. Each distinct infill prompt
    is sent once, and so is each distinct pair that ``scorer``, the quality
    filter's reference-free scorer, rates: the original pair is scored once
    for all of its cases that reach the filter, and a failed request fails
    every case that shares it. A case's two quality requests leave as soon as
    its infill reply has passed parsing and dedup. Deterministic for a fixed
    seed when the backends are (stub or warm replay cache).
    """
    work: list[tuple[PromptRequest, tuple[TestCase, TranslationPair]]] = []
    for pair, segments in extracted:
        eligible = filter_by_capability(segments, capability)
        pair_seed = derive_seed(seed, pair.pair_id)
        for index, plan in enumerate(plan_selection(pair, eligible, capability, per_pair, pair_seed)):
            prompt = render_prompt(mask_pair(pair, plan), capability)
            case = TestCase(
                case_id=f"{pair.pair_id}-{capability.value}-{index:03d}",
                pair_id=pair.pair_id,
                capability=capability,
                source_prime=None, reference_prime=None, filter_status=STATUS_PENDING,
                seed=pair_seed,
                template_id=prompt.template_id,
                masked_ref_spans=tuple(sorted(seg.ref_span for seg in plan)),
            )
            work.append((prompt, (case, pair)))

    replied: dict[str, TestCase] = {}  # case id -> the case as its infill reply left it

    def filter_requests(entry: tuple[TestCase, TranslationPair], raw: str):
        """Parse and dedup the case's reply; the quality filter's requests if it passes."""
        case, pair = entry
        case = case._replace(raw_response_digest=hashlib.sha256(raw.encode("utf-8")).hexdigest())
        try:
            source_prime, reference_prime = parse_response(raw)
        except ResponseParseError as exc:
            replied[case.case_id] = _failed(case, exc)
            return ()
        case = case._replace(source_prime=source_prime, reference_prime=reference_prime)
        case = replied[case.case_id] = case._replace(filter_status=dedup(case, pair))
        return _qe_requests(case, pair) if case.filter_status == STATUS_PENDING else ()

    replies, scores = pipeline(
        work, infill.infill, filter_requests, lambda request: scorer.score(*request), jobs
    )
    cases = []
    for prompt, (case, pair) in work:
        case = replied.get(case.case_id, case)
        try:
            unwrap(replies[prompt])
            if case.filter_status == STATUS_PENDING:
                q_original, q_edited = (unwrap(scores[request]) for request in _qe_requests(case, pair))
                case = case._replace(filter_status=quality_filter(q_original, q_edited, beta),
                                     score_diff=abs(q_original - q_edited))
        except BackendError as exc:
            case = _failed(case, exc)
        cases.append(case)
    return cases


def _qe_requests(case: TestCase, pair: TranslationPair) -> tuple[tuple[str, str], tuple[str, str]]:
    """The quality filter's (source, reference) requests: the original pair, then the edit."""
    return (
        (" ".join(pair.source), " ".join(pair.reference)),
        (" ".join(case.source_prime), " ".join(case.reference_prime)),
    )


def _failed(case: TestCase, exc: Exception) -> TestCase:
    return case._replace(filter_status=STATUS_ERROR, error=str(exc), error_kind=exc.error_kind)


def write_cases(cases: Iterable[TestCase], path) -> None:
    """Write the cases file, one JSON object per case, in batch order."""
    write_jsonl(path, map(to_row, cases))


def read_cases(path) -> list[TestCase]:
    """Read a cases file back; raw responses are not stored, only digests."""
    return list(read_jsonl(path, TestCase, "case record", lambda case: case.case_id).values())
