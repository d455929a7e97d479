"""Writers that only the tests need: canonical corpus dumps and a report reader.

The dumpers emit a canonical form (sorted links and spans), so that
dump(load(f)) == f holds for canonical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from mtbehave.codec import from_row
from mtbehave.corpus import AlignmentSet, Annotation, Corpus, TranslationPair
from mtbehave.report import CapabilityReport


def dump_pairs(pairs: Mapping[str, TranslationPair], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs.values():
            handle.write(
                f"{pair.pair_id}\t{' '.join(pair.source)}\t{' '.join(pair.reference)}\n"
            )


def dump_alignments(
    alignments: Mapping[str, AlignmentSet], order: Iterable[str], path
) -> None:
    """Write one alignment line per pair id in ``order``, links sorted."""
    with open(path, "w", encoding="utf-8") as handle:
        for pair_id in order:
            links = sorted(alignments[pair_id].links)
            handle.write(" ".join(f"{i}-{j}" for i, j in links) + "\n")


def dump_annotations(
    annotations: Mapping[str, Annotation], order: Iterable[str], path
) -> None:
    """Write one canonical JSON record per pair id in ``order``, spans sorted."""
    with open(path, "w", encoding="utf-8") as handle:
        for pair_id in order:
            note = annotations[pair_id]
            record = {
                "id": note.pair_id,
                "pos": list(note.pos),
                "past_perfect": list(note.past_perfect),
                "ne": [[s, e, t] for s, e, t in sorted(note.ne_spans)],
                "phrases_src": [[s, e] for s, e in sorted(note.phrase_spans_src)],
                "phrases_ref": [[s, e] for s, e in sorted(note.phrase_spans_ref)],
            }
            handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")


def dump_corpus(corpus: Corpus, pairs_path, alignments_path, annotations_path) -> None:
    order = list(corpus.pairs)
    dump_pairs(corpus.pairs, pairs_path)
    dump_alignments(corpus.alignments, order, alignments_path)
    dump_annotations(corpus.annotations, order, annotations_path)


def load_report(path) -> list[CapabilityReport]:
    """Read back a JSON report emitted by ``emit_report``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [from_row(CapabilityReport, item) for item in data["rows"]]
