"""Behavioral testing for machine translation systems.

Generate capability-targeted test cases from an aligned parallel corpus by
masking editable segments and asking a chat model to fill them, then judge an
MT system's behavior on the perturbed inputs and report where it breaks.
"""

__version__ = "0.1.0"

from .backends import Backend, BackendSpec, ResponseCache
from .casegen import TestCase, generate_cases, read_cases, write_cases
from .corpus import Corpus, load_corpus
from .judge import (
    JudgeConfig,
    TranslationRecord,
    Verdict,
    judge_case,
    judge_records,
    pass_rate,
    score_records,
    sweep,
)
from .report import (
    CapabilityReport,
    capability_table,
    emit_report,
    error_position_analysis,
    precision_recall,
)
from .segmentation import (
    Capability,
    EditableSegment,
    extract_editable,
    filter_by_capability,
    plan_selection,
)

__all__ = [
    "__version__",
    "Backend",
    "BackendSpec",
    "ResponseCache",
    "TestCase",
    "generate_cases",
    "read_cases",
    "write_cases",
    "Corpus",
    "load_corpus",
    "JudgeConfig",
    "TranslationRecord",
    "Verdict",
    "judge_case",
    "judge_records",
    "pass_rate",
    "score_records",
    "sweep",
    "CapabilityReport",
    "capability_table",
    "emit_report",
    "error_position_analysis",
    "precision_recall",
    "Capability",
    "EditableSegment",
    "extract_editable",
    "filter_by_capability",
    "plan_selection",
]
