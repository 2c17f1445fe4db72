"""Hierarchical multi-grained visual-textual inconsistency evaluation.

Evaluates whether an image and its caption agree: the caption becomes a
semantic graph, a leveled question-answer evaluation graph is grown against
the image until every graph element has been examined, and the result is
summarized as accuracy/completeness scores, a binary decision, and a
natural-language explanation. Includes an adversarial dataset builder and
deterministic record/replay backends for offline testing.
"""

from .errors import HmgieError
from .forge import (
    DEFAULT_GRANULARITY_SPECS,
    ForgeBindings,
    ForgeConfig,
    ForgeRecord,
    ForgeStatus,
    GranularitySpec,
    build_dataset,
    generate_ground_truth,
    perturb_iteratively,
)
from .gateway import (
    Gateway,
    HttpBackend,
    ImageRef,
    ModelRequest,
    ModelResponse,
    ScriptedBackend,
    cache_key,
)
from .hieg import (
    EvalNode,
    Hieg,
    LevelStats,
    QuestionBatch,
    QuestionItem,
    expand,
    hieg_to_prompt_json,
    level_stats,
    overall_decision,
)
from .pipeline import (
    BatchResult,
    DatasetItem,
    EvaluationReport,
    PipelineConfig,
    RoleBindings,
    evaluate_batch,
    evaluate_pair,
    load_dataset_jsonl,
)
from .prompts import (
    CoverageReply,
    PromptTemplate,
    TemplateName,
    VqaReply,
    load_templates,
    parse_coverage_reply,
    parse_eval_reply,
    parse_question_batch,
    parse_vqa_reply,
    render,
)
from .scoring import (
    MetricsSummary,
    RougeScore,
    ScoringConfig,
    compute_h_acc,
    compute_h_comp,
    detection_metrics,
    geometric_weights,
    kendall_tau,
    rouge_n,
)
from .semantic_graph import (
    CoverageMask,
    EdgeKind,
    NodeKind,
    SemanticEdge,
    SemanticGraph,
    SemanticNode,
    apply_coverage,
    fresh_mask,
    graph_to_json,
    is_fully_covered,
    parse_semantic_graph,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
