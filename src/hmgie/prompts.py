"""Prompt templates and parsers for their structured replies.

Templates ship as embedded text resources; a templates directory can
override any of them (same file names) so prompts can be tuned without
rebuilding. Each parser tolerates code fences and surrounding prose and
either returns a typed value or raises a typed error. A parser that coerces
or drops part of a reply says so by appending a note to the ``notes`` list
it is given.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional

from .errors import MalformedOutputError, SchemaViolationError
from .hieg import QuestionBatch, QuestionItem
from .structured import extract_json_value


class TemplateName(Enum):
    DIRECT_PROMPT = "DirectPrompt"
    COT_PROMPT = "CoTPrompt"
    SEMANTIC_GRAPH_GEN = "SemanticGraphGen"
    QUESTION_GEN = "QuestionGen"
    VQA = "Vqa"
    ANSWER_EVAL = "AnswerEval"
    COVERAGE_CHECK = "CoverageCheck"
    EXPLAIN = "Explain"

    @property
    def filename(self) -> str:
        """The template's file, in the package and in a templates dir."""
        return f"{self.name.lower()}.txt"


# Every template, with the placeholders its body may hold.
TEMPLATE_PLACEHOLDERS = {
    TemplateName.DIRECT_PROMPT: frozenset({"caption"}),
    TemplateName.COT_PROMPT: frozenset({"caption"}),
    TemplateName.SEMANTIC_GRAPH_GEN: frozenset({"example", "caption"}),
    TemplateName.QUESTION_GEN: frozenset(
        {"semantic-graph", "previous-HIEG", "suggestion", "current-level"}
    ),
    TemplateName.VQA: frozenset({"question"}),
    TemplateName.ANSWER_EVAL: frozenset(
        {"question", "expected-answer", "actual-answer"}
    ),
    TemplateName.COVERAGE_CHECK: frozenset({"semantic-graph", "hieg"}),
    TemplateName.EXPLAIN: frozenset({"hieg", "caption", "consistency-decision"}),
}

# Candidate placeholder tokens look like {caption} / {previous-HIEG}; JSON
# braces in template bodies never match because they are followed by
# whitespace or a quote.
_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z][A-Za-z-]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A template body plus its declared placeholder set."""

    name: TemplateName
    body: str
    placeholders: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "placeholders", frozenset(self.placeholders))
        found = set(_PLACEHOLDER_RE.findall(self.body))
        undeclared = found - self.placeholders
        if undeclared:
            raise SchemaViolationError(
                f"template {self.name.value} contains undeclared placeholders "
                f"{sorted(undeclared)}"
            )


def load_templates(
    templates_dir: Optional[str | Path] = None,
) -> dict[TemplateName, PromptTemplate]:
    """Load the embedded templates, overriding from templates_dir if given.

    Raises:
        SchemaViolationError: templates_dir is not a directory, or an
            override in it cannot be read as UTF-8 text.
    """
    override = Path(templates_dir) if templates_dir is not None else None
    if override is not None and not override.is_dir():
        raise SchemaViolationError(f"templates dir is not a directory: {override}")
    loaded = {}
    package_root = resources.files("hmgie") / "templates"
    for name, placeholders in TEMPLATE_PLACEHOLDERS.items():
        body = (package_root / name.filename).read_text(encoding="utf-8")
        if override is not None:
            candidate = override / name.filename
            if candidate.exists():
                try:
                    body = candidate.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError) as exc:
                    raise SchemaViolationError(f"cannot read template {candidate}: {exc}") from None
        loaded[name] = PromptTemplate(name=name, body=body, placeholders=placeholders)
    return loaded


def render(template: PromptTemplate, substitutions: Mapping[str, str]) -> str:
    """Replace every declared placeholder; the body is otherwise untouched.

    Raises:
        SchemaViolationError: substitutions lack a declared placeholder or
            carry undeclared keys.
    """
    missing = template.placeholders - set(substitutions)
    if missing:
        raise SchemaViolationError(
            f"{template.name.value}: no substitution for {sorted(missing)}"
        )
    extraneous = set(substitutions) - template.placeholders
    if extraneous:
        raise SchemaViolationError(
            f"{template.name.value}: unexpected substitution keys {sorted(extraneous)}"
        )
    return _PLACEHOLDER_RE.sub(lambda match: str(substitutions[match.group(1)]), template.body)


@dataclass(frozen=True)
class VqaReply:
    """Answer plus model confidence, clamped to [0, 1]."""

    answer: str
    confidence: float = 1.0


@dataclass(frozen=True)
class CoverageReply:
    """Coverage verdict; a suggestion may only accompany incompleteness."""

    verified_complete: bool
    examined_nodes: frozenset[str] = frozenset()
    examined_edges: frozenset[int] = frozenset()
    next_level_suggestion: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "examined_nodes", frozenset(self.examined_nodes))
        object.__setattr__(self, "examined_edges", frozenset(self.examined_edges))
        if self.verified_complete and self.next_level_suggestion is not None:
            raise SchemaViolationError(
                "a complete coverage reply must not carry a next-level suggestion"
            )


def _get_field(payload: Mapping[str, Any], *names: str) -> Any:
    for name in names:
        if name in payload:
            return payload[name]
    return None


def _coerce_bool(value: Any, field: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "yes"):
            return True
        if lowered in ("false", "no"):
            return False
    raise MalformedOutputError(f"field {field!r} is not a boolean: {value!r}")


def _coerce_answer(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool)):
        return json.dumps(value)
    raise MalformedOutputError(f"'Answer' is not a scalar: {value!r}")


def _coerce_confidence(value: Any, notes: list[str]) -> float:
    if value is None:
        return 1.0
    try:
        confidence = float(value)
    except OverflowError:  # an integer past float range, clamped below by its sign
        confidence = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        notes.append(f"non-numeric confidence {value!r}; defaulting to 1.0")
        return 1.0
    if math.isnan(confidence):
        notes.append("NaN confidence; defaulting to 1.0")
        return 1.0
    if confidence < 0.0 or confidence > 1.0:
        notes.append(f"confidence {confidence} clamped into [0, 1]")
        return min(1.0, max(0.0, confidence))
    return confidence


def parse_vqa_reply(raw: str, notes: list[str]) -> VqaReply:
    """Parse the visual-question-answering reply.

    A missing confidence defaults to 1.0 so that an unstated confidence never
    discounts a verified fact; out-of-range values are clamped, with a note.
    """
    payload = extract_json_value(raw)
    if not isinstance(payload, dict):
        raise MalformedOutputError("VQA reply is not a JSON object")
    answer = _get_field(payload, "Answer", "answer")
    if answer is None:
        raise MalformedOutputError("VQA reply has no 'Answer' field")
    confidence = _coerce_confidence(_get_field(payload, "Confidence", "confidence"), notes)
    return VqaReply(answer=_coerce_answer(answer), confidence=confidence)


def parse_eval_reply(raw: str) -> bool:
    """Whether the answer-evaluation reply ({"Correct": bool}) says correct."""
    payload = extract_json_value(raw)
    if not isinstance(payload, dict):
        raise MalformedOutputError("evaluation reply is not a JSON object")
    value = _get_field(payload, "Correct", "correct")
    if value is None:
        raise MalformedOutputError("evaluation reply has no 'Correct' field")
    return _coerce_bool(value, "Correct")


def parse_consistency_reply(raw: str) -> bool:
    """Whether the detector reply ({"Answer": "Yes"/"No", ...}) says consistent."""
    payload = extract_json_value(raw)
    if not isinstance(payload, dict):
        raise MalformedOutputError("detector reply is not a JSON object")
    answer = _get_field(payload, "Answer", "answer")
    if not isinstance(answer, str):
        raise MalformedOutputError("detector reply has no textual 'Answer' field")
    lowered = answer.strip().lower()
    if lowered.startswith("yes"):
        return True
    if lowered.startswith("no"):
        return False
    raise MalformedOutputError(f"detector answer is not Yes/No: {answer!r}")


def _coerce_id_list(value: Any, field: str) -> frozenset[str]:
    if value is None:
        return frozenset()
    if not isinstance(value, list):
        raise MalformedOutputError(f"field {field!r} is not an array: {value!r}")
    return frozenset(str(item) for item in value)


def _coerce_index_list(value: Any, field: str, notes: list[str]) -> frozenset[int]:
    if value is None:
        return frozenset()
    if not isinstance(value, list):
        raise MalformedOutputError(f"field {field!r} is not an array: {value!r}")
    indices = set()
    for item in value:
        if isinstance(item, str) and re.fullmatch(r"-?\d+", item.strip()):
            with contextlib.suppress(ValueError):  # past int's digit limit: ignored below
                item = int(item.strip())
        if isinstance(item, bool):
            continue
        if isinstance(item, int):
            indices.add(item)
        else:
            notes.append(f"ignoring non-integer edge index {item!r}")
    return frozenset(indices)


def parse_question_batch(raw: str, level: int, notes: list[str]) -> QuestionBatch:
    """Parse a question-generation reply into a batch for the given level.

    Items with duplicate question text collapse to the first occurrence;
    items missing a question or expected answer are dropped with a note.
    The batch holds the usable items found, possibly none.

    Raises:
        MalformedOutputError: no parseable payload or wrong shape.
    """
    payload = extract_json_value(raw)
    if isinstance(payload, dict):
        items_raw = _get_field(payload, "Questions", "questions")
    else:
        items_raw = payload
    if not isinstance(items_raw, list):
        raise MalformedOutputError("question reply has no 'Questions' array")

    items: list[QuestionItem] = []
    seen_questions: set[str] = set()
    for entry in items_raw:
        if not isinstance(entry, dict):
            notes.append(f"skipping non-object question item {entry!r}")
            continue
        question = _get_field(entry, "Question", "question")
        expected = _get_field(entry, "Expected-Answer", "expected-answer", "Expected_Answer")
        if not isinstance(question, str) or not question.strip():
            notes.append("skipping question item without question text")
            continue
        if not isinstance(expected, str) or not expected.strip():
            notes.append(f"skipping question without expected answer: {question!r}")
            continue
        if question in seen_questions:
            notes.append(f"dropping duplicate question {question!r}")
            continue
        seen_questions.add(question)
        verify_fact = _get_field(entry, "Verify-Fact", "verify-fact", "Verify_Fact")
        items.append(
            QuestionItem(
                question=question,
                verify_fact=verify_fact if isinstance(verify_fact, str) else "",
                expected_answer=expected,
                parent_ids=_coerce_id_list(
                    _get_field(entry, "Parent-IDS", "Parent-IDs", "parent-ids"), "Parent-IDS"
                ),
                covered_nodes=_coerce_id_list(
                    _get_field(entry, "Covered-Nodes", "covered-nodes"), "Covered-Nodes"
                ),
                covered_edges=_coerce_index_list(
                    _get_field(entry, "Covered-Edges", "covered-edges"), "Covered-Edges", notes
                ),
            )
        )
    return QuestionBatch(level=level, items=tuple(items))


def parse_coverage_reply(raw: str, notes: list[str]) -> CoverageReply:
    """Parse the semantic-coverage reply.

    A reply claiming completeness while still carrying a suggestion violates
    the schema and raises SchemaViolationError.
    """
    payload = extract_json_value(raw)
    if not isinstance(payload, dict):
        raise MalformedOutputError("coverage reply is not a JSON object")
    complete_raw = _get_field(payload, "Verified-Complete", "verified-complete")
    if complete_raw is None:
        raise MalformedOutputError("coverage reply has no 'Verified-Complete' field")
    suggestion = _get_field(payload, "Next-Level-Suggestion", "next-level-suggestion")
    if isinstance(suggestion, str) and suggestion.strip().lower() in ("", "none", "null"):
        suggestion = None
    elif suggestion is not None and not isinstance(suggestion, str):
        suggestion = str(suggestion)
    return CoverageReply(
        verified_complete=_coerce_bool(complete_raw, "Verified-Complete"),
        examined_nodes=_coerce_id_list(
            _get_field(payload, "Examined-Nodes", "examined-nodes"), "Examined-Nodes"
        ),
        examined_edges=_coerce_index_list(
            _get_field(payload, "Examined-Edges", "examined-edges"), "Examined-Edges", notes
        ),
        next_level_suggestion=suggestion,
    )
