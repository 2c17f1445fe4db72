"""Leveled question-answer evaluation graph with cross-level dependencies.

Each node stores one evaluation quartet (question, reference answer, visual
answer, verdict) plus the answer confidence and the graph elements the
question examines. Values are immutable; expansion returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from .errors import EmptyHiegError, SchemaViolationError, require_positive
from .structured import prompt_json


@dataclass(frozen=True)
class EvalNode:
    """One evaluation unit: a question answered and judged."""

    id: str
    level: int
    question: str
    verify_fact: str
    expected_answer: str
    actual_answer: str
    confidence: float
    correct: bool
    parent_ids: frozenset[str] = frozenset()
    covered_nodes: frozenset[str] = frozenset()
    covered_edges: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "parent_ids", frozenset(self.parent_ids))
        object.__setattr__(self, "covered_nodes", frozenset(self.covered_nodes))
        object.__setattr__(self, "covered_edges", frozenset(self.covered_edges))
        if not 0.0 <= self.confidence <= 1.0:
            raise SchemaViolationError(
                f"node {self.id} confidence {self.confidence} outside [0, 1]"
            )
        if self.actual_answer is None or self.correct is None:
            raise SchemaViolationError(f"node {self.id} needs an answer and a verdict")

    def to_dict(self) -> dict:
        """Full-fidelity dict for report files (sets sorted for determinism)."""
        return {
            "id": self.id,
            "level": self.level,
            "question": self.question,
            "verify_fact": self.verify_fact,
            "expected_answer": self.expected_answer,
            "actual_answer": self.actual_answer,
            "confidence": self.confidence,
            "correct": self.correct,
            "parent_ids": sorted(self.parent_ids),
            "covered_nodes": sorted(self.covered_nodes),
            "covered_edges": sorted(self.covered_edges),
        }


@dataclass(frozen=True)
class QuestionItem:
    """One generated question before it is answered and judged."""

    question: str
    verify_fact: str = ""
    expected_answer: str = ""
    parent_ids: frozenset[str] = frozenset()
    covered_nodes: frozenset[str] = frozenset()
    covered_edges: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "parent_ids", frozenset(self.parent_ids))
        object.__setattr__(self, "covered_nodes", frozenset(self.covered_nodes))
        object.__setattr__(self, "covered_edges", frozenset(self.covered_edges))


@dataclass(frozen=True)
class QuestionBatch:
    """Questions generated for one level; the Hieg built from it refuses repeats."""

    level: int
    items: tuple[QuestionItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        require_positive(level=self.level)


@dataclass(frozen=True)
class Hieg:
    """Evaluation nodes grouped by level; levels[0] holds level 1.

    Question texts are distinct across the graph, and each node's parents
    sit at lower levels; ``expand`` gives each node an id of its own.
    """

    levels: tuple[tuple[EvalNode, ...], ...] = ()
    max_level: int = 5

    def __post_init__(self):
        object.__setattr__(
            self, "levels", tuple(tuple(level) for level in self.levels)
        )
        require_positive(max_level=self.max_level)
        if len(self.levels) > self.max_level:
            raise SchemaViolationError(
                f"{len(self.levels)} levels exceed max_level {self.max_level}"
            )
        questions: set[str] = set()
        lower_ids: set[str] = set()
        for index, level_nodes in enumerate(self.levels):
            level = index + 1
            if not level_nodes:
                raise SchemaViolationError(f"level {level} is empty (levels must be contiguous)")
            for node in level_nodes:
                if node.level != level:
                    raise SchemaViolationError(
                        f"node {node.id} has level {node.level} but sits in level {level}"
                    )
                if node.question in questions:
                    raise SchemaViolationError(
                        f"question text already present: {node.question!r}"
                    )
                questions.add(node.question)
                unknown = node.parent_ids - lower_ids
                if unknown:
                    raise SchemaViolationError(
                        f"node {node.id} references parents {sorted(unknown)} "
                        "not found at any lower level"
                    )
            lower_ids |= {node.id for node in level_nodes}

    @classmethod
    def empty(cls, max_level: int = 5) -> "Hieg":
        return cls(levels=(), max_level=max_level)

    @property
    def deepest_level(self) -> int:
        return len(self.levels)

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def nodes(self) -> Iterator[EvalNode]:
        for level in self.levels:
            yield from level

    def node_ids(self) -> set[str]:
        return {node.id for node in self.nodes()}

    def question_texts(self) -> set[str]:
        return {node.question for node in self.nodes()}


def expand(
    hieg: Hieg,
    batch: QuestionBatch,
    answers: Sequence[tuple[str, float]],
    verdicts: Sequence[bool],
) -> Hieg:
    """Append one level of nodes built from the batch and its results.

    answers and verdicts align with batch.items by index; a length mismatch
    raises ValueError. Node ids are assigned deterministically as
    "Q<level>.<ordinal>". The new graph's constructor refuses the rest: an
    empty batch, a level that is not the next or is past max_level, unknown
    parents and questions repeated within the batch or from an earlier level.
    """
    new_nodes = []
    for ordinal, (item, answer, verdict) in enumerate(
        zip(batch.items, answers, verdicts, strict=True), start=1
    ):
        actual, confidence = answer
        new_nodes.append(
            EvalNode(
                id=f"Q{batch.level}.{ordinal}",
                level=batch.level,
                question=item.question,
                verify_fact=item.verify_fact,
                expected_answer=item.expected_answer,
                actual_answer=actual,
                confidence=confidence,
                correct=verdict,
                parent_ids=item.parent_ids,
                covered_nodes=item.covered_nodes,
                covered_edges=item.covered_edges,
            )
        )
    return Hieg(levels=hieg.levels + (tuple(new_nodes),), max_level=hieg.max_level)


def overall_decision(hieg: Hieg) -> int:
    """1 iff every node was answered correctly; an empty graph raises EmptyHiegError."""
    if hieg.node_count == 0:
        raise EmptyHiegError("evaluation produced no questions")
    return int(all(node.correct for node in hieg.nodes()))


@dataclass(frozen=True)
class LevelStats:
    """Per-level question count and confidence-weighted correct sum."""

    level: int
    count: int
    correct_weighted_sum: float


def level_stats(hieg: Hieg) -> tuple[LevelStats, ...]:
    """Per-level counts and sum of confidence * verdict (True=1, False=0)."""
    stats = []
    for index, level_nodes in enumerate(hieg.levels):
        weighted = 0.0
        for node in level_nodes:
            weighted += node.confidence * (1.0 if node.correct else 0.0)
        stats.append(
            LevelStats(level=index + 1, count=len(level_nodes), correct_weighted_sum=weighted)
        )
    return tuple(stats)


def hieg_to_prompt_payload(hieg: Hieg, start: int = 0) -> list[dict]:
    """Nodes from the ``start``-th on, with the field names the prompts embed."""
    return [
        {
            "Question-ID": node.id,
            "Question": node.question,
            "Verify-Fact": node.verify_fact,
            "Expected-Answer": node.expected_answer,
            "Actual-Answer": node.actual_answer,
            "Eval-Correct": node.correct,
            "Parent-IDS": sorted(node.parent_ids),
        }
        for node in islice(hieg.nodes(), start, None)
    ]


def hieg_to_prompt_json(hieg: Hieg, texts: Optional[list[str]] = None) -> str:
    """``json.dumps(hieg_to_prompt_payload(hieg), indent=2)``, non-ASCII kept;
    ``texts`` holds the node texts made so far; only later nodes are written."""
    texts = [] if texts is None else texts
    for fields in hieg_to_prompt_payload(hieg, len(texts)):
        texts.append(prompt_json(fields).replace("\n", "\n  "))
    return "[\n  " + ",\n  ".join(texts) + "\n]" if texts else "[]"
