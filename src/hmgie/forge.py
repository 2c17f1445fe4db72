"""Adversarial multi-granularity dataset construction.

For each image and granularity tier, an ensemble of captioners produces a
ground-truth caption (fused by a text model when the ensemble has more than
one member). The caption is then perturbed iteratively: each round plants
one new subtle inconsistency while avoiding every previously tried change,
and a detector judges the result. Perturbation stops once the planted error
evades the detector or the iteration budget runs out; only detector-evading
captions enter the adversarial set by default.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    AllCaptionersFailedError,
    ForgeError,
    GatewayError,
    HmgieError,
    MalformedOutputError,
    SchemaViolationError,
)
from .gateway import Gateway, ImageRef, ModelRequest
from .prompts import (
    TemplateName,
    load_templates,
    parse_consistency_reply,
    render,
)
from .structured import extract_json_value


def _granularity_prompt(requirements: str, low: int, high: int) -> str:
    return (
        "Describe the image for a captioning dataset.\n"
        f"Requirements: {requirements}\n"
        f"The caption should be between {low} and {high} words long.\n"
        "Reply with the caption only, no preamble."
    )


@dataclass(frozen=True)
class GranularitySpec:
    """One caption-detail tier: the generation prompt and its word budget."""

    level: int
    prompt: str
    target_word_range: tuple[int, int]

    def __post_init__(self):
        if not 1 <= self.level <= 4:
            raise SchemaViolationError("granularity level must be 1-4")
        low, high = self.target_word_range
        if not 0 < low < high:
            raise SchemaViolationError("target word range must satisfy 0 < min < max")


DEFAULT_GRANULARITY_SPECS = (
    GranularitySpec(
        level=1,
        prompt=_granularity_prompt(
            "identify the main objects and the basic scene type in one simple sentence.",
            6,
            16,
        ),
        target_word_range=(6, 16),
    ),
    GranularitySpec(
        level=2,
        prompt=_granularity_prompt(
            "cover the main objects, their basic visual attributes, their locations, "
            "and the primary spatial relationships between them.",
            15,
            34,
        ),
        target_word_range=(15, 34),
    ),
    GranularitySpec(
        level=3,
        prompt=_granularity_prompt(
            "include secondary objects, specific visual features, and the more "
            "complex relationships between scene elements.",
            26,
            56,
        ),
        target_word_range=(26, 56),
    ),
    GranularitySpec(
        level=4,
        prompt=_granularity_prompt(
            "describe all visual elements with full attribute descriptions and "
            "comprehensive scene details.",
            45,
            85,
        ),
        target_word_range=(45, 85),
    ),
)


class ForgeStatus(Enum):
    CLEAN = "Clean"
    ADVERSARIAL_FOUND = "AdversarialFound"
    MAX_ITER_REACHED = "MaxIterReached"


@dataclass(frozen=True)
class ForgeRecord:
    """Outcome of perturbing one ground-truth caption."""

    image_path: str
    granularity: int
    ground_truth_caption: str
    perturbed_caption: Optional[str]
    perturbation_history: tuple[str, ...]
    detector_verdicts: tuple[int, ...]
    status: ForgeStatus

    def __post_init__(self):
        object.__setattr__(
            self, "perturbation_history", tuple(self.perturbation_history)
        )
        object.__setattr__(self, "detector_verdicts", tuple(self.detector_verdicts))
        if self.status is ForgeStatus.ADVERSARIAL_FOUND:
            if not self.detector_verdicts or self.detector_verdicts[-1] != 1:
                raise SchemaViolationError(
                    "an adversarial record must end with the detector judging consistent"
                )


@dataclass(frozen=True)
class ForgeBindings:
    """Gateways for captioning ensemble, fusion, perturbation, and detection."""

    captioners: tuple[Gateway, ...]
    fusion: Gateway
    perturb: Gateway
    detector: Gateway

    @classmethod
    def uniform(cls, gateway: Gateway, ensemble_size: int = 1) -> "ForgeBindings":
        return cls(
            captioners=(gateway,) * ensemble_size,
            fusion=gateway,
            perturb=gateway,
            detector=gateway,
        )


@dataclass(frozen=True)
class ForgeConfig:
    bindings: ForgeBindings
    specs: tuple[GranularitySpec, ...] = DEFAULT_GRANULARITY_SPECS
    max_iterations: int = 5
    detector_template: TemplateName = TemplateName.DIRECT_PROMPT
    include_undetected: bool = False
    model_id: str = "gpt-4o"
    # Distinct captioner models give the ensemble its diversity; one entry
    # per captioner gateway, falling back to model_id when omitted.
    captioner_model_ids: tuple[str, ...] = ()
    temperature: float = 0.3
    max_output_tokens: int = 2048
    templates: dict = field(default_factory=load_templates)
    parallelism: int = 1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise SchemaViolationError("max_iterations must be >= 1")
        if self.detector_template not in (
            TemplateName.DIRECT_PROMPT,
            TemplateName.COT_PROMPT,
        ):
            raise SchemaViolationError("detector template must be DirectPrompt or CoTPrompt")
        if self.parallelism < 1:
            raise SchemaViolationError("parallelism must be >= 1")
        if not self.bindings.captioners:
            raise SchemaViolationError("at least one captioner is required")
        if self.captioner_model_ids and len(self.captioner_model_ids) != len(
            self.bindings.captioners
        ):
            raise SchemaViolationError("captioner_model_ids must match the ensemble size")

    def captioner_model(self, index: int) -> str:
        if self.captioner_model_ids:
            return self.captioner_model_ids[index]
        return self.model_id


PERTURBATION_KINDS = (
    "object identity",
    "scene type",
    "entity attribute (color, material, state)",
    "count or quantity",
    "spatial relationship",
    "embedded text content",
)


def compose_fusion_prompt(captions: Sequence[str]) -> str:
    """Prompt asking a text model to merge ensemble captions into one."""
    numbered = "\n".join(
        f"Caption {index}: {caption}" for index, caption in enumerate(captions, start=1)
    )
    return (
        "You are given several candidate captions for the same image, written "
        "by different models.\n"
        "Merge them into a single caption that keeps only the semantic elements "
        "the candidates agree on, while ensuring coherence and naturalness. "
        "Drop details that appear in only one candidate.\n\n"
        f"{numbered}\n\n"
        "Reply with the fused caption only, no preamble."
    )


def compose_perturbation_prompt(ground_truth: str, history: Sequence[str]) -> str:
    """Prompt asking for one new subtle inconsistency, avoiding prior tries.

    The full perturbation history rides in the prompt so every iteration can
    avoid repeating earlier changes.
    """
    kinds = "\n".join(f"- {kind}" for kind in PERTURBATION_KINDS)
    if history:
        numbered = "\n".join(
            f"Attempt {index}: {caption}" for index, caption in enumerate(history, start=1)
        )
        history_block = (
            "Previously attempted perturbations (each was detected; do not repeat "
            f"any of these changes):\n{numbered}\n\n"
        )
    else:
        history_block = ""
    return (
        "You are constructing hard negative captions for an image-caption "
        "consistency benchmark.\n"
        "Rewrite the ground-truth caption below, changing exactly one semantic "
        "detail so the caption no longer matches the image. The change must be "
        "subtle and plausible, keep the caption fluent, and leave every other "
        "detail untouched.\n"
        f"Pick the changed detail from one of these error types:\n{kinds}\n\n"
        f"Ground-truth caption: {ground_truth}\n\n"
        f"{history_block}"
        "Output should be in JSON format:\n"
        "{\n"
        '    "Perturbed-Caption": "the rewritten caption"\n'
        "}"
    )


def generate_ground_truth(
    image: ImageRef | bytes,
    spec: GranularitySpec,
    captioners: Sequence[Gateway],
    fusion: Gateway,
    config: ForgeConfig,
    notes: list[str],
) -> str:
    """Ensemble captioning followed by fusion; identity for one member.

    Captioner failures are tolerated, with a note, as long as at least one
    member replies; AllCaptionersFailedError otherwise.
    """
    if not captioners:
        raise AllCaptionersFailedError("no captioners configured")
    image = ImageRef.of(image)
    captions = []
    failures = []
    for index, gateway in enumerate(captioners):
        request = ModelRequest.vision(
            spec.prompt,
            image,
            model_id=config.captioner_model(index),
            temperature=config.temperature,
            max_output_tokens=config.max_output_tokens,
        )
        try:
            captions.append(gateway.call(request).text)
        except GatewayError as exc:
            failures.append(f"captioner {index}: {exc}")
    if not captions:
        raise AllCaptionersFailedError("; ".join(failures))
    if failures:
        notes.append(f"{len(failures)} captioner(s) failed: {failures}")
    if len(captions) == 1:
        return captions[0]
    request = ModelRequest.text(
        compose_fusion_prompt(captions),
        model_id=config.model_id,
        temperature=config.temperature,
        max_output_tokens=config.max_output_tokens,
    )
    return fusion.call(request).text


def _parse_perturbed_caption(raw: str) -> str:
    try:
        payload = extract_json_value(raw)
        if isinstance(payload, dict):
            caption = payload.get("Perturbed-Caption") or payload.get("perturbed-caption")
            if isinstance(caption, str) and caption.strip():
                return caption
    except MalformedOutputError:
        pass
    return raw.strip()


def perturb_iteratively(
    ground_truth: str,
    perturb_backend: Gateway,
    detector_backend: Gateway,
    image: ImageRef | bytes,
    max_iterations: int,
    config: ForgeConfig,
    image_path: str = "",
    granularity: int = 1,
) -> ForgeRecord:
    """Iteratively plant an inconsistency until the detector misses it.

    Each iteration's prompt embeds the whole history of failed attempts.
    Backend errors propagate as ForgeError with the partial history attached.
    """
    if max_iterations < 1:
        raise SchemaViolationError("max_iterations must be >= 1")
    if not ground_truth or not ground_truth.strip():
        raise SchemaViolationError("ground truth caption must be nonempty")
    image = ImageRef.of(image)
    detector_template = config.templates[config.detector_template]
    history: list[str] = []
    verdicts: list[int] = []
    try:
        for _ in range(max_iterations):
            reply = perturb_backend.call(
                ModelRequest.text(
                    compose_perturbation_prompt(ground_truth, history),
                    model_id=config.model_id,
                    temperature=config.temperature,
                    max_output_tokens=config.max_output_tokens,
                )
            )
            perturbed = _parse_perturbed_caption(reply.text)
            history.append(perturbed)

            detect_prompt = render(detector_template, {"caption": perturbed})
            detect_reply = detector_backend.call(
                ModelRequest.vision(
                    detect_prompt,
                    image,
                    model_id=config.model_id,
                    temperature=config.temperature,
                    max_output_tokens=config.max_output_tokens,
                )
            )
            try:
                consistent = parse_consistency_reply(detect_reply.text).consistent
            except MalformedOutputError:
                # Unreadable verdict counts as detection: the sample is not
                # known to evade the detector.
                consistent = False
            verdicts.append(1 if consistent else 0)
            if consistent:
                return ForgeRecord(
                    image_path=image_path,
                    granularity=granularity,
                    ground_truth_caption=ground_truth,
                    perturbed_caption=perturbed,
                    perturbation_history=tuple(history),
                    detector_verdicts=tuple(verdicts),
                    status=ForgeStatus.ADVERSARIAL_FOUND,
                )
    except GatewayError as exc:
        raise ForgeError(f"perturbation aborted: {exc}", history=history) from exc
    return ForgeRecord(
        image_path=image_path,
        granularity=granularity,
        ground_truth_caption=ground_truth,
        perturbed_caption=None,
        perturbation_history=tuple(history),
        detector_verdicts=tuple(verdicts),
        status=ForgeStatus.MAX_ITER_REACHED,
    )


@dataclass(frozen=True)
class ForgeSummary:
    records_written: int
    clean_records: int
    adversarial_records: int
    skipped_undetected: int
    per_granularity: dict[int, int]
    errors: tuple[str, ...]


def _record_lines(
    image_path: str, spec: GranularitySpec, config: ForgeConfig
) -> tuple[list[dict], list[str], int]:
    """Build the JSONL payloads for one (image, granularity) cell."""
    lines: list[dict] = []
    notes: list[str] = []
    skipped = 0
    image = ImageRef(Path(image_path).read_bytes())
    caption_notes: list[str] = []
    ground_truth = generate_ground_truth(
        image, spec, config.bindings.captioners, config.bindings.fusion, config, caption_notes
    )
    notes.extend(f"{image_path} g{spec.level}: {note}" for note in caption_notes)
    stem = Path(image_path).stem
    base = {"image_path": image_path, "granularity": spec.level}
    lines.append(
        {
            "id": f"{stem}-g{spec.level}-clean",
            **base,
            "caption": ground_truth,
            "label": 0,
            "ground_truth": ground_truth,
            "perturbation_history": [],
            "status": ForgeStatus.CLEAN.value,
        }
    )
    record = perturb_iteratively(
        ground_truth,
        config.bindings.perturb,
        config.bindings.detector,
        image,
        config.max_iterations,
        config,
        image_path=image_path,
        granularity=spec.level,
    )
    adversarial = record.perturbed_caption
    status = record.status
    if status is ForgeStatus.MAX_ITER_REACHED:
        if config.include_undetected and record.perturbation_history:
            adversarial = record.perturbation_history[-1]
        else:
            notes.append(
                f"{image_path} g{spec.level}: no detector-evading perturbation within "
                f"{config.max_iterations} iterations; adversarial record omitted"
            )
            skipped = 1
            adversarial = None
    if adversarial is not None:
        if adversarial == ground_truth:
            notes.append(
                f"{image_path} g{spec.level}: perturbation equals ground truth; omitted"
            )
            skipped = 1
        else:
            lines.append(
                {
                    "id": f"{stem}-g{spec.level}-adv",
                    **base,
                    "caption": adversarial,
                    "label": 1,
                    "ground_truth": ground_truth,
                    "perturbation_history": list(record.perturbation_history),
                    "status": status.value,
                }
            )
    return lines, notes, skipped


def build_dataset(
    image_paths: Sequence[str | Path],
    config: ForgeConfig,
    out_path: str | Path,
) -> ForgeSummary:
    """Forge the dataset file: one clean and (when found) one adversarial
    record per (image, granularity), in deterministic order.

    Per-cell errors are logged in the summary and the run continues.
    """
    ordered = sorted(str(p) for p in image_paths)
    cells = [(path, spec) for path in ordered for spec in config.specs]

    def _one(cell: tuple[str, GranularitySpec]):
        path, spec = cell
        try:
            return _record_lines(path, spec, config)
        except (HmgieError, OSError) as exc:
            return [], [f"{path} g{spec.level}: {type(exc).__name__}: {exc}"], 0

    if config.parallelism == 1 or len(cells) <= 1:
        outcomes = [_one(cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            outcomes = list(pool.map(_one, cells))

    all_lines: list[dict] = []
    errors: list[str] = []
    skipped = 0
    per_granularity: dict[int, int] = {}
    for lines, notes, cell_skipped in outcomes:
        all_lines.extend(lines)
        errors.extend(notes)
        skipped += cell_skipped
        for line in lines:
            per_granularity[line["granularity"]] = (
                per_granularity.get(line["granularity"], 0) + 1
            )

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for line in all_lines:
            handle.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")

    return ForgeSummary(
        records_written=len(all_lines),
        clean_records=sum(1 for line in all_lines if line["label"] == 0),
        adversarial_records=sum(1 for line in all_lines if line["label"] == 1),
        skipped_undetected=skipped,
        per_granularity=per_granularity,
        errors=tuple(errors),
    )
