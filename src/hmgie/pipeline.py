"""End-to-end evaluation of an image-caption pair.

The flow: extract a semantic graph from the caption, then iterate levels up
to the configured maximum. Each level generates questions targeting elements
the coverage mask still marks unexamined, answers them against the image,
judges the answers, appends the results to the evaluation graph, and updates
the mask from the questions' declared targets and then, unless those already
cover everything, from a model-side coverage check. The loop stops early once
everything is covered (or the checker says so, or a level yields no
questions). Scores, the binary decision, and a natural-language explanation
are assembled into an EvaluationReport.

Levels are strictly sequential because each one consumes the previous
level's graph and mask; within a level, answering and judging distinct
questions fans out concurrently, through the package's one fan-out,
``ordered_map``.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    EmptyHiegError,
    GraphGenFailedError,
    HmgieError,
    MalformedOutputError,
    require_positive,
)
from .gateway import Gateway, ImageRef, ModelRequest, call_parsed, check_sampling
from .hieg import (
    Hieg,
    LevelStats,
    QuestionBatch,
    expand,
    hieg_to_prompt_json,
    level_stats,
    overall_decision,
)
from .prompts import (
    PromptTemplate,
    TemplateName,
    load_templates,
    parse_coverage_reply,
    parse_eval_reply,
    parse_question_batch,
    parse_vqa_reply,
    render,
)
from .scoring import (
    MetricsSummary,
    ScoringConfig,
    compute_h_acc,
    compute_h_comp,
    detection_metrics,
)
from .semantic_graph import (
    CoverageMask,
    SemanticGraph,
    apply_coverage,
    fresh_mask,
    graph_to_json,
    is_fully_covered,
    parse_semantic_graph,
)

DEFAULT_GRAPH_EXAMPLE = """Caption: A brown dog lies on a red sofa in a living room.

Semantic Graph:
{
    "nodes": [
        {"id": "N1", "type": "Entity", "label": "dog"},
        {"id": "N2", "type": "Attribute", "label": "brown"},
        {"id": "N3", "type": "Entity", "label": "sofa"},
        {"id": "N4", "type": "Attribute", "label": "red"},
        {"id": "N5", "type": "Location", "label": "living room"}
    ],
    "edges": [
        {"from": ["N1", "dog"], "to": ["N2", "brown"], "type": "Has Attribute", "label": "dog is brown", "description": "The dog has brown fur."},
        {"from": ["N3", "sofa"], "to": ["N4", "red"], "type": "Has Attribute", "label": "sofa is red", "description": "The sofa is red."},
        {"from": ["N1", "dog"], "to": ["N3", "sofa"], "type": "Spatial", "label": "lies on", "description": "The dog lies on the sofa."},
        {"from": ["N3", "sofa"], "to": ["N5", "living room"], "type": "Spatial", "label": "in", "description": "The sofa is in the living room."}
    ]
}"""


@dataclass(frozen=True)
class RoleBindings:
    """One gateway per pipeline role; roles may share a gateway."""

    graph_gen: Gateway
    question_gen: Gateway
    vqa: Gateway
    answer_eval: Gateway
    coverage: Gateway
    explain: Gateway

    @classmethod
    def uniform(cls, gateway: Gateway) -> "RoleBindings":
        return cls(
            graph_gen=gateway,
            question_gen=gateway,
            vqa=gateway,
            answer_eval=gateway,
            coverage=gateway,
            explain=gateway,
        )


@dataclass(frozen=True)
class PipelineConfig:
    backends: RoleBindings
    max_level: int = 5
    max_questions_per_level: int | tuple[int, ...] = 10
    weight_ratio: float = 1.2
    model_id: str = ModelRequest.model_id
    temperature: float = ModelRequest.temperature
    max_output_tokens: int = ModelRequest.max_output_tokens
    templates: Mapping[TemplateName, PromptTemplate] = field(default_factory=load_templates)
    intra_level_parallelism: int = 4
    # Items evaluate_batch evaluates at once.
    parallelism: int = 1
    # The depth, budget and weight ratio as the scores read them, built (and
    # so checked) once when the config is.
    scoring: ScoringConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scoring = ScoringConfig(
            weight_ratio=self.weight_ratio,
            max_level=self.max_level,
            max_per_level=self.max_questions_per_level,
        )
        object.__setattr__(self, "scoring", scoring)
        check_sampling(self.model_id, self.temperature, self.max_output_tokens)
        require_positive(
            intra_level_parallelism=self.intra_level_parallelism, parallelism=self.parallelism
        )


def _sampling(config) -> dict:
    """The request fields every role takes from a PipelineConfig or ForgeConfig."""
    return {
        "model_id": config.model_id,
        "temperature": config.temperature,
        "max_output_tokens": config.max_output_tokens,
    }


def ordered_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, inline when ``min(workers, len(items))
    <= 1``; otherwise each call runs on a new pool of that many threads (this
    module's ``ThreadPoolExecutor``, read at each call), never on the calling
    thread, and the first error in input order is raised once all have ended."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]


def format_unverified(graph: SemanticGraph, mask: CoverageMask) -> str:
    """Compact summary of still-unexamined elements for the question prompt."""
    nodes = [
        f"{node.id} ({node.label})"
        for node in graph.nodes
        if mask.node_flags.get(node.id, 0)
    ]
    edges = [
        f"[{index}] {edge.from_id} -> {edge.to_id} ({edge.kind.value}: {edge.label})"
        for index, edge in enumerate(graph.edges)
        if mask.edge_flags.get(index, 0)
    ]
    node_line = ", ".join(nodes) if nodes else "none"
    edge_line = ", ".join(edges) if edges else "none"
    return f"Unverified nodes: {node_line}\nUnverified edges: {edge_line}"


def build_graph_request(caption: str, config: PipelineConfig) -> ModelRequest:
    prompt = render(
        config.templates[TemplateName.SEMANTIC_GRAPH_GEN],
        {"example": DEFAULT_GRAPH_EXAMPLE, "caption": caption},
    )
    return ModelRequest(prompt, **_sampling(config))


def build_question_request(
    graph: SemanticGraph,
    graph_json: str,
    mask: CoverageMask,
    hieg_json: str,
    suggestion: Optional[str],
    level: int,
    config: PipelineConfig,
) -> ModelRequest:
    """``graph_json`` is ``graph_to_json(graph)`` and ``hieg_json`` is
    ``hieg_to_prompt_json`` of the HIEG so far, each built once by the caller."""
    # The unverified-element summary rides along with the graph so the
    # template keeps its original placeholder set.
    graph_block = f"{graph_json}\n\n{format_unverified(graph, mask)}"
    prompt = render(
        config.templates[TemplateName.QUESTION_GEN],
        {
            "semantic-graph": graph_block,
            "previous-HIEG": hieg_json,
            "suggestion": suggestion if suggestion else "None",
            "current-level": str(level),
        },
    )
    return ModelRequest(prompt, **_sampling(config))


def build_vqa_request(
    question: str, image: ImageRef | bytes, config: PipelineConfig
) -> ModelRequest:
    prompt = render(config.templates[TemplateName.VQA], {"question": question})
    return ModelRequest.vision(prompt, image, **_sampling(config))


def build_eval_request(
    question: str, expected_answer: str, actual_answer: str, config: PipelineConfig
) -> ModelRequest:
    prompt = render(
        config.templates[TemplateName.ANSWER_EVAL],
        {
            "question": question,
            "expected-answer": expected_answer,
            "actual-answer": actual_answer,
        },
    )
    return ModelRequest(prompt, **_sampling(config))


def build_coverage_request(
    graph_json: str, hieg_json: str, config: PipelineConfig
) -> ModelRequest:
    prompt = render(
        config.templates[TemplateName.COVERAGE_CHECK],
        {"semantic-graph": graph_json, "hieg": hieg_json},
    )
    return ModelRequest(prompt, **_sampling(config))


def build_explain_request(
    hieg_json: str, caption: str, decision: int, config: PipelineConfig
) -> ModelRequest:
    prompt = render(
        config.templates[TemplateName.EXPLAIN],
        {
            "hieg": hieg_json,
            "caption": caption,
            "consistency-decision": "Consistent" if decision else "Inconsistent",
        },
    )
    return ModelRequest(prompt, **_sampling(config))


@dataclass(frozen=True)
class EvaluationReport:
    """Everything one pair evaluation produced, serializable and stable."""

    h_acc: float
    h_comp: float
    decision: int
    realized_depth: int
    hieg: Hieg
    semantic_graph: SemanticGraph
    explanation: str
    per_level: tuple[LevelStats, ...]
    diagnostics: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "h_acc": self.h_acc,
            "h_comp": self.h_comp,
            "decision": self.decision,
            "realized_depth": self.realized_depth,
            "explanation": self.explanation,
            "per_level": [
                {
                    "level": s.level,
                    "questions": s.count,
                    "correct_weighted_sum": s.correct_weighted_sum,
                }
                for s in self.per_level
            ],
            "hieg": [node.to_dict() for node in self.hieg.nodes()],
            "semantic_graph": {
                "caption": self.semantic_graph.source_caption,
                "nodes": [
                    {"id": n.id, "type": n.kind.value, "label": n.label}
                    for n in self.semantic_graph.nodes
                ],
                "edges": [
                    {
                        "from": e.from_id,
                        "to": e.to_id,
                        "type": e.kind.value,
                        "label": e.label,
                        "description": e.description,
                    }
                    for e in self.semantic_graph.edges
                ],
            },
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)


def _generate_graph(
    caption: str, config: PipelineConfig, diagnostics: list[str]
) -> SemanticGraph:
    gateway = config.backends.graph_gen
    errors: list[Exception] = []

    def reject(attempt: int, exc: Exception) -> None:
        errors.append(exc)
        diagnostics.append(f"graph-gen attempt {attempt} unparseable: {exc}")

    graph = call_parsed(
        gateway,
        build_graph_request(caption, config),
        lambda text: parse_semantic_graph(text, caption, diagnostics),
        reject,
    )
    if graph is None:
        raise GraphGenFailedError(
            f"semantic graph generation failed after {gateway.attempts} attempts: "
            f"{errors[-1]}"
        )
    return graph


def _sanitize_batch(
    batch: QuestionBatch,
    graph: SemanticGraph,
    hieg: Hieg,
    budget: int,
    diagnostics: list[str],
) -> QuestionBatch:
    """Drop questions asked at an earlier level, keep at most ``budget`` of
    the rest (so repeats never use up the budget), then drop hallucinated
    parent ids and coverage targets of those kept, before expansion."""
    asked = hieg.question_texts()
    fresh = []
    for item in batch.items:
        if item.question in asked:
            diagnostics.append(
                f"level {batch.level}: dropped question {item.question!r} "
                "already asked at an earlier level"
            )
        else:
            fresh.append(item)
    if len(fresh) > budget:
        diagnostics.append(f"level {batch.level}: truncated {len(fresh)} questions to {budget}")
        fresh = fresh[:budget]
    known_nodes = set(graph.node_ids())
    known_edges = set(range(len(graph.edges)))
    known_parents = hieg.node_ids()
    items = []
    for item in fresh:
        bad_parents = item.parent_ids - known_parents
        bad_nodes = item.covered_nodes - known_nodes
        bad_edges = item.covered_edges - known_edges
        if bad_parents:
            diagnostics.append(
                f"level {batch.level}: dropped unknown parents {sorted(bad_parents)} "
                f"for question {item.question!r}"
            )
        if bad_nodes or bad_edges:
            diagnostics.append(
                f"level {batch.level}: dropped unknown coverage targets "
                f"{sorted(bad_nodes) + sorted(bad_edges)} for question {item.question!r}"
            )
        items.append(
            replace(
                item,
                parent_ids=item.parent_ids - bad_parents,
                covered_nodes=item.covered_nodes - bad_nodes,
                covered_edges=item.covered_edges - bad_edges,
            )
        )
    return QuestionBatch(level=batch.level, items=tuple(items))


def _answer_and_judge(
    question: str,
    expected_answer: str,
    image: ImageRef,
    config: PipelineConfig,
) -> tuple[str, float, bool, list[str]]:
    """Stages 2 and 3 for one question: VQA then semantic answer evaluation."""
    notes: list[str] = []
    vqa_response = config.backends.vqa.call(build_vqa_request(question, image, config))
    if not vqa_response.text.strip():
        notes.append(f"vqa returned an empty reply for {question!r}; marked incorrect")
        return "", 1.0, False, notes
    try:
        reply = parse_vqa_reply(vqa_response.text, notes)
        answer, confidence = reply.answer, reply.confidence
    except MalformedOutputError:
        # Models sometimes answer in plain prose; the judge can still use it.
        answer, confidence = vqa_response.text.strip(), 1.0
        notes.append(f"vqa reply unparseable for {question!r}; using raw text")

    verdict = call_parsed(
        config.backends.answer_eval,
        build_eval_request(question, expected_answer, answer, config),
        parse_eval_reply,
        lambda attempt, exc: notes.append(
            f"answer-eval attempt {attempt} unparseable for {question!r}: {exc}"
        ),
    )
    if verdict is None:
        notes.append(f"answer evaluation failed for {question!r}; marked incorrect")
        verdict = False
    return answer, confidence, verdict, notes


def _run_level(
    batch: QuestionBatch, image: ImageRef, config: PipelineConfig
) -> tuple[list[tuple[str, float]], list[bool], list[str]]:
    """Fan stage 2+3 out over the batch; results keep batch order."""
    outcomes = ordered_map(
        lambda item: _answer_and_judge(item.question, item.expected_answer, image, config),
        batch.items,
        config.intra_level_parallelism,
    )
    answers = [(answer, confidence) for answer, confidence, _, _ in outcomes]
    verdicts = [verdict for _, _, verdict, _ in outcomes]
    notes = [note for _, _, _, item_notes in outcomes for note in item_notes]
    return answers, verdicts, notes


def evaluate_pair(
    image: ImageRef | bytes, caption: str, config: PipelineConfig
) -> EvaluationReport:
    """Evaluate one image-caption pair and return the full report.

    Raw image bytes are wrapped in an ImageRef once, so the image is hashed
    once per pair however many questions ask about it. Likewise the graph and
    each HIEG node are serialized once per pair: the texts live in locals
    here, never on the report's objects.

    Every HmgieError raised here carries the evaluation graph built so far
    (.partial_hieg) and the diagnostics collected so far (.diagnostics).

    Raises:
        ValueError: empty caption or undecodable image.
        GraphGenFailedError: the caption graph could not be parsed after retries.
        EmptyHiegError: no level produced any question.
        ExhaustedError and friends propagate from the gateway.
    """
    if not caption or not caption.strip():
        raise ValueError("caption must be nonempty")
    image = ImageRef.of(image)
    if not image.payload:
        raise ValueError("image payload is empty")
    if image.media_type is None:
        raise ValueError("image format not recognized (png/jpeg/gif/webp/bmp)")

    diagnostics: list[str] = []
    hieg = Hieg.empty(config.max_level)
    try:
        graph = _generate_graph(caption, config, diagnostics)
        graph_json = graph_to_json(graph)
        node_texts: list[str] = []  # the HIEG's node texts, extended per level
        hieg_json = hieg_to_prompt_json(hieg, node_texts)
        mask = fresh_mask(graph)
        suggestion: Optional[str] = None

        for level in range(1, config.max_level + 1):
            request = build_question_request(
                graph, graph_json, mask, hieg_json, suggestion, level, config
            )
            suggestion = None  # consumed by this level's prompt
            batch = call_parsed(
                config.backends.question_gen,
                request,
                lambda text: parse_question_batch(text, level, diagnostics),
                lambda attempt, exc: diagnostics.append(
                    f"level {level}: question reply attempt {attempt} unparseable: {exc}"
                ),
            )
            if batch is None:
                break
            if not batch.items:
                diagnostics.append(f"level {level}: question generator returned no items")
                break

            batch = _sanitize_batch(
                batch, graph, hieg, config.scoring.max_per_level[level - 1], diagnostics
            )
            if not batch.items:
                diagnostics.append(
                    f"level {level}: every question repeats an earlier level"
                )
                break

            answers, verdicts, notes = _run_level(batch, image, config)
            diagnostics.extend(notes)
            hieg = expand(hieg, batch, answers, verdicts)
            hieg_json = hieg_to_prompt_json(hieg, node_texts)

            declared_nodes = frozenset().union(*(i.covered_nodes for i in batch.items))
            declared_edges = frozenset().union(*(i.covered_edges for i in batch.items))
            mask = apply_coverage(mask, declared_nodes, declared_edges)
            if is_fully_covered(mask):
                # No coverage reply could change the mask or the stop now.
                break

            coverage_reply = call_parsed(
                config.backends.coverage,
                build_coverage_request(graph_json, hieg_json, config),
                lambda text: parse_coverage_reply(text, diagnostics),
                lambda attempt, exc: diagnostics.append(
                    f"level {level}: coverage reply attempt {attempt} unparseable: {exc}"
                ),
            )
            if coverage_reply is not None:
                examined_nodes = coverage_reply.examined_nodes & set(mask.node_flags)
                examined_edges = coverage_reply.examined_edges & set(mask.edge_flags)
                unknown = (coverage_reply.examined_nodes - examined_nodes) | (
                    coverage_reply.examined_edges - examined_edges
                )
                if unknown:
                    diagnostics.append(
                        f"level {level}: coverage reply named unknown elements "
                        f"{sorted(map(str, unknown))}"
                    )
                mask = apply_coverage(mask, examined_nodes, examined_edges)
                suggestion = coverage_reply.next_level_suggestion
                if coverage_reply.verified_complete:
                    break
            else:
                diagnostics.append(
                    f"level {level}: coverage check failed; relying on declared targets"
                )
            if is_fully_covered(mask):
                break

        if hieg.node_count == 0:
            raise EmptyHiegError("evaluation produced no questions")

        stats = level_stats(hieg)
        h_acc = compute_h_acc(stats, config.scoring)
        h_comp = compute_h_comp([s.count for s in stats], config.scoring)
        decision = overall_decision(hieg)

        explanation = ""
        try:
            explain_response = config.backends.explain.call(
                build_explain_request(hieg_json, caption, decision, config)
            )
            explanation = explain_response.text.strip()
        except HmgieError as exc:
            diagnostics.append(f"explanation generation failed: {exc}")
        if not explanation:
            diagnostics.append("explanation is empty")

        return EvaluationReport(
            h_acc=h_acc,
            h_comp=h_comp,
            decision=decision,
            realized_depth=hieg.deepest_level,
            hieg=hieg,
            semantic_graph=graph,
            explanation=explanation,
            per_level=stats,
            diagnostics=tuple(diagnostics),
        )
    except HmgieError as exc:
        exc.partial_hieg = hieg
        exc.diagnostics = tuple(diagnostics)
        raise


@dataclass(frozen=True)
class DatasetItem:
    """One labeled (or unlabeled) pair from a JSONL dataset."""

    id: str
    image_path: str
    caption: str
    label: Optional[int] = None
    granularity: Optional[int] = None


@dataclass(frozen=True)
class ItemResult:
    item: DatasetItem
    report: Optional[EvaluationReport] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class BatchResult:
    results: tuple[ItemResult, ...]
    metrics: Optional[MetricsSummary]
    evaluated: int
    failed: int


def load_dataset_jsonl(path: str | Path) -> list[DatasetItem]:
    """Read dataset lines: {"id", "image_path", "caption", "label", "granularity"}."""
    items = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # an integer past int's digit limit, too
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_no}: line is not an object")
            for key in ("image_path", "caption"):
                if key not in record:
                    raise ValueError(f"{path}:{line_no}: missing {key!r}")
                if not isinstance(record[key], str):
                    raise ValueError(f"{path}:{line_no}: {key} must be a string")
            # type(...) is int: JSON true and 1.0 compare equal to 1
            item_id = record.get("id", f"line-{line_no}")
            if type(item_id) is not int and not (isinstance(item_id, str) and item_id):
                raise ValueError(f"{path}:{line_no}: id must be a nonempty string or an integer")
            label = record.get("label")
            if label is not None and (type(label) is not int or label not in (0, 1)):
                raise ValueError(f"{path}:{line_no}: label must be 0, 1, or null")
            granularity = record.get("granularity")
            if granularity is not None and (
                type(granularity) is not int or not 1 <= granularity <= 4
            ):
                raise ValueError(f"{path}:{line_no}: granularity must be 1-4 or null")
            items.append(
                DatasetItem(
                    id=str(item_id),
                    image_path=record["image_path"],
                    caption=record["caption"],
                    label=label,
                    granularity=granularity,
                )
            )
    return items


def evaluate_batch(dataset: Sequence[DatasetItem], config: PipelineConfig) -> BatchResult:
    """Evaluate every dataset item, ``config.parallelism`` at once; results
    keep input order.

    Per-item failures are recorded instead of aborting the batch. Detection
    metrics are attached iff every item carries a ground-truth label; failed
    items are excluded from the confusion counts.
    """

    def _one(item: DatasetItem) -> ItemResult:
        try:
            payload = Path(item.image_path).read_bytes()
            report = evaluate_pair(payload, item.caption, config)
            return ItemResult(item=item, report=report)
        except (HmgieError, OSError, ValueError) as exc:
            return ItemResult(item=item, error=f"{type(exc).__name__}: {exc}")

    results = ordered_map(_one, dataset, config.parallelism)

    evaluated = sum(1 for r in results if r.report is not None)
    failed = len(results) - evaluated
    metrics = None
    if dataset and all(item.label is not None for item in dataset):
        pairs = [
            (1 - r.report.decision, r.item.label)
            for r in results
            if r.report is not None
        ]
        granularities = [r.item.granularity for r in results if r.report is not None]
        if pairs:
            metrics = detection_metrics(
                pairs,
                granularities if any(g is not None for g in granularities) else None,
            )
    return BatchResult(
        results=tuple(results), metrics=metrics, evaluated=evaluated, failed=failed
    )
