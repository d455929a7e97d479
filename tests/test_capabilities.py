"""Every capability end to end: the segments it keeps, its prompt template,
its report column, and its value in the artifacts."""

from __future__ import annotations

import pytest

from mtbehave.casegen import mask_pair, render_prompt
from mtbehave.codec import from_row, to_row
from mtbehave.report import CapabilityReport, render_report_markdown
from mtbehave.segmentation import Capability, EditableSegment, filter_by_capability

from conftest import make_pair

PAIR = make_pair("p1", "w0 w1 w2 w3 w4 w5 w6 w7 w8", "c0 c1 c2 c3 c4 c5 c6 c7 c8")

# One segment per POS class, an NE span and a tense-eligible verb; the other
# verb is past perfect, so tense cannot mask it.
SEGMENTS = {
    "noun": EditableSegment((0, 1), (0, 1), "word", "NOUN", None, False),
    "verb": EditableSegment((1, 2), (1, 2), "word", "VERB", None, False),
    "adj": EditableSegment((2, 4), (2, 4), "phrase", "ADJ", None, False),
    "adv": EditableSegment((4, 5), (4, 5), "word", "ADV", None, False),
    "adp": EditableSegment((5, 6), (5, 6), "word", "ADP", None, False),
    "other": EditableSegment((6, 7), (6, 7), "word", "OTHER", None, False),
    "entity": EditableSegment((7, 8), (7, 8), "word", "NOUN", "PERSON", False),
    "tensed": EditableSegment((8, 9), (8, 9), "word", "VERB", None, True),
}

# What each capability's prompt says was masked: a POS prompt names the class
# by ``Capability.word`` and the segment's kind, in the paper's own grammar.
MASKED = {
    Capability.NOUN: "an noun word",
    Capability.VERB: "an verb word",
    Capability.ADJ: "an adjective phrase",
    Capability.ADV: "an adverb word",
    Capability.PREP: "an preposition word",
    Capability.OTHERS: "an other word",
    Capability.TENSE: "a verb/verb phrase",
    Capability.NER: "an PERSON",
    Capability.GENERAL: "a word/phrase",
}


@pytest.mark.parametrize(
    "capability, kept, template_id, column",
    [
        (Capability.NOUN, ["noun", "entity"], "pos", "Noun"),
        (Capability.VERB, ["verb", "tensed"], "pos", "Verb"),
        (Capability.ADJ, ["adj"], "pos", "Adj"),
        (Capability.ADV, ["adv"], "pos", "Adv"),
        (Capability.PREP, ["adp"], "pos", "Prep"),
        (Capability.OTHERS, ["other"], "pos", "Others"),
        (Capability.TENSE, ["tensed"], "tense", "Tense"),
        (Capability.NER, ["entity"], "ner", "NER"),
        (Capability.GENERAL, list(SEGMENTS), "general", "General"),
    ],
    ids=lambda value: value.value if isinstance(value, Capability) else None,
)
def test_every_capability_filters_prompts_and_reports(capability, kept, template_id, column):
    segments = list(SEGMENTS.values())
    selected = filter_by_capability(segments, capability)
    assert selected == [SEGMENTS[name] for name in kept]

    prompt = render_prompt(mask_pair(PAIR, (selected[0],)), capability)
    assert prompt.template_id == template_id
    assert f"In each sentence, {MASKED[capability]} has been masked" in prompt.rendered_text

    row = CapabilityReport(capability, "sysA", 50.0, 2, 0, True)
    assert render_report_markdown([row]) == (
        f"| MT System | {column} | Avg |\n"
        "|---|---|---|\n"
        "| sysA | **50.00** | **50.00** |\n"
        "| Size | 2 | 2 |\n"
    )
    assert to_row(row)["capability"] == capability.value
    assert from_row(CapabilityReport, to_row(row)) == row
