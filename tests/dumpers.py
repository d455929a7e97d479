"""Helpers that only the tests need: a canonical corpus dump and a report reader.

The dump is canonical (sorted links and spans), so that
dump(load(f)) == f holds for canonical files.
"""

from __future__ import annotations

import json

from mtbehave.codec import from_row
from mtbehave.report import CapabilityReport


def dump_corpus(corpus, pairs_path, alignments_path, annotations_path) -> None:
    """Write (pair, links, annotation) triples as the three corpus files, links
    and spans sorted, one canonical JSON record per annotation."""
    with open(pairs_path, "w", encoding="utf-8") as pairs, open(
        alignments_path, "w", encoding="utf-8"
    ) as alignments, open(annotations_path, "w", encoding="utf-8") as annotations:
        for pair, links, note in corpus:
            pairs.write(f"{pair.pair_id}\t{' '.join(pair.source)}\t{' '.join(pair.reference)}\n")
            alignments.write(" ".join(f"{i}-{j}" for i, j in sorted(links)) + "\n")
            record = {
                "id": note.pair_id,
                "pos": list(note.pos),
                "past_perfect": list(note.past_perfect),
                "ne": [[s, e, t] for s, e, t in sorted(note.ne_spans)],
                "phrases_src": [[s, e] for s, e in sorted(note.phrase_spans_src)],
                "phrases_ref": [[s, e] for s, e in sorted(note.phrase_spans_ref)],
            }
            annotations.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")


def load_report(path) -> list[CapabilityReport]:
    """Read back a JSON report emitted by ``emit_report``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [from_row(CapabilityReport, item) for item in data["rows"]]
