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
    require_positive,
)
from .gateway import Gateway, ImageFiles, ImageRef, ModelRequest, check_sampling
from .pipeline import _sampling, ordered_map
from .prompts import (
    TemplateName,
    load_templates,
    parse_consistency_reply,
    render,
)
from .structured import extract_json_value


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


def _tier(level: int, requirements: str, low: int, high: int) -> GranularitySpec:
    """A tier whose prompt asks for its own word range."""
    prompt = (
        "Describe the image for a captioning dataset.\n"
        f"Requirements: {requirements}\n"
        f"The caption should be between {low} and {high} words long.\n"
        "Reply with the caption only, no preamble."
    )
    return GranularitySpec(level=level, prompt=prompt, target_word_range=(low, high))


DEFAULT_GRANULARITY_SPECS = (
    _tier(
        1,
        "identify the main objects and the basic scene type in one simple sentence.",
        6,
        16,
    ),
    _tier(
        2,
        "cover the main objects, their basic visual attributes, their locations, "
        "and the primary spatial relationships between them.",
        15,
        34,
    ),
    _tier(
        3,
        "include secondary objects, specific visual features, and the more "
        "complex relationships between scene elements.",
        26,
        56,
    ),
    _tier(
        4,
        "describe all visual elements with full attribute descriptions and "
        "comprehensive scene details.",
        45,
        85,
    ),
)


class ForgeStatus(Enum):
    CLEAN = "Clean"
    ADVERSARIAL_FOUND = "AdversarialFound"
    MAX_ITER_REACHED = "MaxIterReached"


@dataclass(frozen=True)
class ForgeRecord:
    """Outcome of perturbing one ground-truth caption: one verdict per try."""

    ground_truth_caption: str
    perturbation_history: tuple[str, ...]
    detector_verdicts: tuple[int, ...]

    @property
    def status(self) -> ForgeStatus:
        if self.detector_verdicts[-1:] == (1,):
            return ForgeStatus.ADVERSARIAL_FOUND
        return ForgeStatus.MAX_ITER_REACHED

    @property
    def perturbed_caption(self) -> Optional[str]:
        """The last try when it evaded the detector, else None."""
        if self.status is ForgeStatus.ADVERSARIAL_FOUND:
            return self.perturbation_history[-1]
        return None


@dataclass(frozen=True)
class ForgeBindings:
    """Gateways for captioning ensemble, fusion, perturbation, and detection."""

    captioners: tuple[Gateway, ...]
    fusion: Gateway
    perturb: Gateway
    detector: Gateway

    @classmethod
    def uniform(cls, gateway: Gateway) -> "ForgeBindings":
        """One gateway in every role, with a single captioner."""
        return cls(
            captioners=(gateway,),
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
    model_id: str = ModelRequest.model_id
    # Distinct captioner models give the ensemble its diversity; one entry
    # per captioner gateway, falling back to model_id when omitted.
    captioner_model_ids: tuple[str, ...] = ()
    temperature: float = ModelRequest.temperature
    max_output_tokens: int = ModelRequest.max_output_tokens
    templates: dict = field(default_factory=load_templates)
    parallelism: int = 1
    # Reads every image, hashing an unchanged file once per config.
    image_files: ImageFiles = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "image_files", ImageFiles())
        require_positive(max_iterations=self.max_iterations, parallelism=self.parallelism)
        for model_id in (self.model_id, *(self.captioner_model_ids or ())):
            check_sampling(model_id, self.temperature, self.max_output_tokens)
        if self.detector_template not in (
            TemplateName.DIRECT_PROMPT,
            TemplateName.COT_PROMPT,
        ):
            raise SchemaViolationError("detector template must be DirectPrompt or CoTPrompt")
        if not self.bindings.captioners:
            raise SchemaViolationError("at least one captioner is required")
        model_ids = self.captioner_model_ids
        if model_ids and len(model_ids) != len(self.bindings.captioners):
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


def _request(
    config: ForgeConfig,
    prompt: str,
    image: Optional[ImageRef] = None,
    model_id: Optional[str] = None,
) -> ModelRequest:
    """A forge request: sampling fields from the config, vision with an image."""
    sampling = _sampling(config)
    if model_id is not None:
        sampling["model_id"] = model_id
    return ModelRequest(prompt, image=image, **sampling)


def generate_ground_truth(
    image: ImageRef | bytes, spec: GranularitySpec, config: ForgeConfig, notes: list[str]
) -> str:
    """Ensemble captioning followed by fusion; identity for one member.

    Every member is asked at once; captions and failure notes keep captioner
    order. A blank reply is that member's failure. AllCaptionersFailedError
    when no member gives a caption.
    """
    captioners = config.bindings.captioners
    image = ImageRef.of(image)

    def caption(index: int) -> str | GatewayError | None:
        request = _request(config, spec.prompt, image, config.captioner_model(index))
        try:
            text = captioners[index].call(request).text
        except GatewayError as exc:
            return exc
        return text if text.strip() else None

    outcomes = ordered_map(caption, range(len(captioners)), len(captioners))
    captions = [text for text in outcomes if isinstance(text, str)]
    failures = [
        f"captioner {i}: {'blank reply' if e is None else e}"
        for i, e in enumerate(outcomes)
        if not isinstance(e, str)
    ]
    if not captions:
        raise AllCaptionersFailedError("; ".join(failures))
    if failures:
        notes.append(f"{len(failures)} captioner(s) failed: {failures}")
    if len(captions) == 1:
        return captions[0]
    return config.bindings.fusion.call(_request(config, compose_fusion_prompt(captions))).text


def _parse_perturbed_caption(raw: str) -> str:
    """The reply's caption field, or the whole reply when it has none. A
    field that is present but holds no text reads as blank."""
    try:
        payload = extract_json_value(raw)
    except MalformedOutputError:
        return raw.strip()
    if isinstance(payload, dict):
        for name in ("Perturbed-Caption", "perturbed-caption"):
            if name in payload:
                caption = payload[name]
                return caption if isinstance(caption, str) and caption.strip() else ""
    return raw.strip()


def perturb_iteratively(
    ground_truth: str, image: ImageRef | bytes, config: ForgeConfig
) -> ForgeRecord:
    """Iteratively plant an inconsistency until the detector misses it.

    Each iteration's prompt embeds the whole history of failed attempts.
    Backend errors propagate as ForgeError.
    """
    if not ground_truth or not ground_truth.strip():
        raise SchemaViolationError("ground truth caption must be nonempty")
    image = ImageRef.of(image)
    bindings = config.bindings
    detector_template = config.templates[config.detector_template]
    history: list[str] = []
    verdicts: list[int] = []
    try:
        for _ in range(config.max_iterations):
            reply = bindings.perturb.call(
                _request(config, compose_perturbation_prompt(ground_truth, history))
            )
            perturbed = _parse_perturbed_caption(reply.text)
            history.append(perturbed)
            if not perturbed:
                # A blank attempt plants nothing, so it counts as detected
                # without asking the detector.
                verdicts.append(0)
                continue

            detect_prompt = render(detector_template, {"caption": perturbed})
            detect_reply = bindings.detector.call(_request(config, detect_prompt, image))
            try:
                consistent = parse_consistency_reply(detect_reply.text)
            except MalformedOutputError:
                # Unreadable verdict counts as detection: the sample is not
                # known to evade the detector.
                consistent = False
            verdicts.append(1 if consistent else 0)
            if consistent:
                break
    except GatewayError as exc:
        raise ForgeError(f"perturbation aborted: {exc}") from exc
    return ForgeRecord(ground_truth, tuple(history), tuple(verdicts))


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
) -> tuple[list[dict], list[str]]:
    """Build the JSONL payloads and the notes for one (image, granularity) cell."""
    cell = f"{image_path} g{spec.level}"
    image = config.image_files.read(image_path)
    caption_notes: list[str] = []
    ground_truth = generate_ground_truth(image, spec, config, caption_notes)
    notes = [f"{cell}: {note}" for note in caption_notes]
    record = perturb_iteratively(ground_truth, image, config)
    base = {"image_path": image_path, "granularity": spec.level, "ground_truth": ground_truth}
    id_prefix = f"{Path(image_path).stem}-g{spec.level}"
    lines = [
        {
            **base,
            "id": f"{id_prefix}-clean",
            "caption": ground_truth,
            "label": 0,
            "perturbation_history": [],
            "status": ForgeStatus.CLEAN.value,
        }
    ]
    adversarial = record.perturbation_history[-1]
    if record.status is ForgeStatus.MAX_ITER_REACHED and not config.include_undetected:
        notes.append(
            f"{cell}: no detector-evading perturbation within "
            f"{config.max_iterations} iterations; adversarial record omitted"
        )
    elif not adversarial.strip():
        notes.append(f"{cell}: perturbation is blank; omitted")
    elif adversarial == ground_truth:
        notes.append(f"{cell}: perturbation equals ground truth; omitted")
    else:
        lines.append(
            {
                **base,
                "id": f"{id_prefix}-adv",
                "caption": adversarial,
                "label": 1,
                "perturbation_history": list(record.perturbation_history),
                "status": record.status.value,
            }
        )
    return lines, notes


def build_dataset(
    image_paths: Sequence[str | Path],
    config: ForgeConfig,
    out_path: str | Path,
) -> ForgeSummary:
    """Forge the dataset file: one clean and (when found) one adversarial
    record per (image, granularity), in deterministic order. Images are read
    through ``config.image_files``, so an unchanged one is hashed once for
    all its granularities.

    Per-cell errors are logged in the summary and the run continues; a cell
    that wrote its clean record alone counts as skipped. Two images that
    share a file stem would share record ids: ValueError, before any call.
    """
    ordered = sorted(str(p) for p in image_paths)
    owners: dict[str, str] = {}
    for path in ordered:
        stem = Path(path).stem
        if stem in owners:
            raise ValueError(f"images {owners[stem]!r} and {path!r} would share record ids")
        owners[stem] = path
    cells = [(path, spec) for path in ordered for spec in config.specs]

    def _one(cell: tuple[str, GranularitySpec]):
        path, spec = cell
        try:
            return _record_lines(path, spec, config)
        except (HmgieError, OSError) as exc:
            return [], [f"{path} g{spec.level}: {type(exc).__name__}: {exc}"]

    outcomes = ordered_map(_one, cells, config.parallelism)

    all_lines: list[dict] = []
    errors: list[str] = []
    skipped = 0
    per_granularity: dict[int, int] = {}
    for lines, notes in outcomes:
        all_lines.extend(lines)
        errors.extend(notes)
        skipped += len(lines) == 1
        for line in lines:
            per_granularity[line["granularity"]] = (
                per_granularity.get(line["granularity"], 0) + 1
            )

    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    # backslashreplace writes a lone surrogate in a reply as its JSON escape.
    with open(out, "w", encoding="utf-8", errors="backslashreplace") as handle:
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
