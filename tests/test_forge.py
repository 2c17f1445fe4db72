import json
import re

import pytest

from helpers import TINY_PNG, DynamicBackend, count_payload_hashes
from hmgie.errors import AllCaptionersFailedError, SchemaViolationError
from hmgie.forge import (
    DEFAULT_GRANULARITY_SPECS,
    ForgeBindings,
    ForgeConfig,
    ForgeStatus,
    GranularitySpec,
    build_dataset,
    compose_perturbation_prompt,
    generate_ground_truth,
    perturb_iteratively,
)
from hmgie.gateway import Gateway
from hmgie.prompts import TemplateName, load_templates

TEMPLATES = load_templates()


def forge_responder(fool_at_version=None):
    """Route forge requests: captions, fusion, perturbation, detection."""

    def respond(request):
        prompt = request.prompt
        if prompt.startswith("Describe the image"):
            return f"ground truth caption ({request.model_id})"
        if prompt.startswith("You are given several candidate captions"):
            return "fused caption"
        if prompt.startswith("You are constructing hard negative captions"):
            iteration = prompt.count("Attempt ") + 1
            return json.dumps({"Perturbed-Caption": f"perturbed caption v{iteration}"})
        if prompt.startswith("Does the image match"):
            match = re.search(r"perturbed caption v(\d+)", prompt)
            version = int(match.group(1))
            fooled = fool_at_version is not None and version >= fool_at_version
            return json.dumps({"Answer": "Yes" if fooled else "No", "Explanation": "e"})
        return None

    return respond


def forge_config(responder, **overrides) -> tuple[ForgeConfig, DynamicBackend]:
    backend = DynamicBackend(responder)
    gateway = Gateway(backend)
    defaults = dict(
        bindings=ForgeBindings.uniform(gateway),
        templates=TEMPLATES,
        max_iterations=3,
    )
    defaults.update(overrides)
    return ForgeConfig(**defaults), backend


class TestGroundTruth:
    def test_single_captioner_identity(self):
        config, backend = forge_config(forge_responder())
        caption = generate_ground_truth(
            TINY_PNG,
            DEFAULT_GRANULARITY_SPECS[0],
            config.bindings.captioners,
            config.bindings.fusion,
            config,
            [],
        )
        assert caption == "ground truth caption (gpt-4o)"
        # no fusion call was made
        assert not any(
            c.prompt.startswith("You are given several") for c in backend.calls
        )

    def test_three_captioners_fused_verbatim(self):
        backend = DynamicBackend(forge_responder())
        gateway = Gateway(backend)
        config = ForgeConfig(
            bindings=ForgeBindings(
                captioners=(gateway, gateway, gateway),
                fusion=gateway,
                perturb=gateway,
                detector=gateway,
            ),
            captioner_model_ids=("model-a", "model-b", "model-c"),
            templates=TEMPLATES,
        )
        caption = generate_ground_truth(
            TINY_PNG,
            DEFAULT_GRANULARITY_SPECS[1],
            config.bindings.captioners,
            config.bindings.fusion,
            config,
            [],
        )
        assert caption == "fused caption"
        fusion_prompt = next(
            c.prompt for c in backend.calls if c.prompt.startswith("You are given")
        )
        for member in ("model-a", "model-b", "model-c"):
            assert f"ground truth caption ({member})" in fusion_prompt

    def test_all_captioners_failed(self):
        config, _ = forge_config(lambda request: None)
        with pytest.raises(AllCaptionersFailedError):
            generate_ground_truth(
                TINY_PNG,
                DEFAULT_GRANULARITY_SPECS[0],
                config.bindings.captioners,
                config.bindings.fusion,
                config,
                [],
            )

    def test_partial_failure_tolerated(self):
        def flaky(request):
            if request.prompt.startswith("Describe the image"):
                return "solo caption" if request.model_id == "good" else None
            return None

        backend = DynamicBackend(flaky)
        gateway = Gateway(backend)
        config = ForgeConfig(
            bindings=ForgeBindings(
                captioners=(gateway, gateway),
                fusion=gateway,
                perturb=gateway,
                detector=gateway,
            ),
            captioner_model_ids=("good", "bad"),
            templates=TEMPLATES,
        )
        notes: list[str] = []
        caption = generate_ground_truth(
            TINY_PNG,
            DEFAULT_GRANULARITY_SPECS[0],
            config.bindings.captioners,
            config.bindings.fusion,
            config,
            notes,
        )
        assert len(notes) == 1
        assert notes[0].startswith("1 captioner(s) failed: ['captioner 1: ")
        assert caption == "solo caption"


class TestPerturbation:
    def test_adversarial_found_at_second_iteration(self):
        config, _ = forge_config(forge_responder(fool_at_version=2))
        record = perturb_iteratively(
            "ground truth",
            config.bindings.perturb,
            config.bindings.detector,
            TINY_PNG,
            max_iterations=3,
            config=config,
        )
        assert record.status is ForgeStatus.ADVERSARIAL_FOUND
        assert len(record.perturbation_history) == 2
        assert record.detector_verdicts == (0, 1)
        assert record.perturbed_caption == "perturbed caption v2"

    def test_max_iterations_reached(self):
        config, _ = forge_config(forge_responder(fool_at_version=None))
        record = perturb_iteratively(
            "ground truth",
            config.bindings.perturb,
            config.bindings.detector,
            TINY_PNG,
            max_iterations=3,
            config=config,
        )
        assert record.status is ForgeStatus.MAX_ITER_REACHED
        assert len(record.perturbation_history) == 3
        assert record.perturbed_caption is None
        assert record.detector_verdicts == (0, 0, 0)

    def test_zero_iterations_invalid(self):
        config, _ = forge_config(forge_responder())
        with pytest.raises(SchemaViolationError):
            perturb_iteratively(
                "ground truth",
                config.bindings.perturb,
                config.bindings.detector,
                TINY_PNG,
                max_iterations=0,
                config=config,
            )
        with pytest.raises(SchemaViolationError):
            ForgeConfig(bindings=config.bindings, templates=TEMPLATES, max_iterations=0)

    def test_history_embedded_in_each_prompt(self):
        config, backend = forge_config(forge_responder(fool_at_version=None))
        perturb_iteratively(
            "ground truth",
            config.bindings.perturb,
            config.bindings.detector,
            TINY_PNG,
            max_iterations=4,
            config=config,
        )
        perturb_prompts = [
            c.prompt
            for c in backend.calls
            if c.prompt.startswith("You are constructing hard negative")
        ]
        assert len(perturb_prompts) == 4
        for iteration, prompt in enumerate(perturb_prompts, start=1):
            assert "ground truth" in prompt
            for prior in range(1, iteration):
                assert f"perturbed caption v{prior}" in prompt
            assert f"perturbed caption v{iteration}" not in prompt

    def test_compose_prompt_lists_full_history(self):
        history = ["first change", "second change", "third change"]
        prompt = compose_perturbation_prompt("the original", history)
        for caption in history:
            assert caption in prompt
        assert "the original" in prompt

    def test_cot_detector_template(self):
        def respond(request):
            prompt = request.prompt
            if prompt.startswith("You are constructing hard negative captions"):
                return json.dumps({"Perturbed-Caption": "tweaked caption"})
            if prompt.startswith("You are a meticulous assistant"):
                return json.dumps({"Answer": "Yes", "Explanation": "fooled"})
            if prompt.startswith("Does the image match"):
                raise AssertionError("direct prompt used despite cot detector")
            return None

        backend = DynamicBackend(respond)
        gateway = Gateway(backend)
        config = ForgeConfig(
            bindings=ForgeBindings.uniform(gateway),
            templates=TEMPLATES,
            detector_template=TemplateName.COT_PROMPT,
        )
        record = perturb_iteratively(
            "ground truth",
            config.bindings.perturb,
            config.bindings.detector,
            TINY_PNG,
            max_iterations=2,
            config=config,
        )
        assert record.status is ForgeStatus.ADVERSARIAL_FOUND
        assert record.perturbed_caption == "tweaked caption"


class TestBuildDataset:
    @pytest.fixture()
    def images(self, tmp_path):
        paths = []
        for name in ("b.png", "a.png"):  # unsorted on purpose
            path = tmp_path / name
            path.write_bytes(TINY_PNG)
            paths.append(str(path))
        return paths

    def test_two_images_sixteen_records(self, images, tmp_path):
        config, _ = forge_config(forge_responder(fool_at_version=1))
        out = tmp_path / "data.jsonl"
        summary = build_dataset(images, config, out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert summary.records_written == 16
        assert len(lines) == 16
        assert sum(1 for line in lines if line["label"] == 0) == 8
        assert sum(1 for line in lines if line["label"] == 1) == 8
        assert summary.per_granularity == {1: 4, 2: 4, 3: 4, 4: 4}

    def test_one_cell_hashes_its_image_once(self, images, tmp_path, monkeypatch):
        config, backend = forge_config(
            forge_responder(), specs=(DEFAULT_GRANULARITY_SPECS[0],)
        )
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        summary = build_dataset(images[:1], config, tmp_path / "data.jsonl")
        assert summary.records_written == 1
        # one caption plus one detection per perturbation round
        assert sum(1 for c in backend.calls if c.image_digest is not None) == 4
        assert len(passes) == 1

    def test_label_soundness(self, images, tmp_path):
        config, _ = forge_config(forge_responder(fool_at_version=1))
        out = tmp_path / "data.jsonl"
        build_dataset(images, config, out)
        for line in map(json.loads, out.read_text().splitlines()):
            if line["label"] == 0:
                assert line["caption"] == line["ground_truth"]
            else:
                assert line["caption"] != line["ground_truth"]

    def test_deterministic_output_and_ordering(self, images, tmp_path):
        config, _ = forge_config(forge_responder(fool_at_version=1))
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        build_dataset(images, config, first)
        config2, _ = forge_config(forge_responder(fool_at_version=1))
        build_dataset(list(reversed(images)), config2, second)
        assert first.read_bytes() == second.read_bytes()
        ids = [json.loads(line)["image_path"] for line in first.read_text().splitlines()]
        assert ids == sorted(ids)

    def test_undetected_omitted_by_default(self, images, tmp_path):
        config, _ = forge_config(forge_responder(fool_at_version=None), max_iterations=2)
        out = tmp_path / "data.jsonl"
        summary = build_dataset(images[:1], config, out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(line["label"] == 0 for line in lines)
        assert summary.skipped_undetected == 4
        assert summary.errors  # one note per skipped cell

    def test_include_undetected_flag(self, images, tmp_path):
        config, _ = forge_config(
            forge_responder(fool_at_version=None),
            max_iterations=2,
            include_undetected=True,
        )
        out = tmp_path / "data.jsonl"
        build_dataset(images[:1], config, out)
        adversarial = [
            json.loads(line)
            for line in out.read_text().splitlines()
            if json.loads(line)["label"] == 1
        ]
        assert len(adversarial) == 4
        assert all(line["status"] == "MaxIterReached" for line in adversarial)
        assert all(line["caption"] == "perturbed caption v2" for line in adversarial)

    def test_empty_image_list(self, tmp_path):
        config, _ = forge_config(forge_responder())
        out = tmp_path / "empty.jsonl"
        summary = build_dataset([], config, out)
        assert out.read_text() == ""
        assert summary.records_written == 0

    def test_records_match_pipeline_input_schema(self, images, tmp_path):
        config, _ = forge_config(forge_responder(fool_at_version=1))
        out = tmp_path / "data.jsonl"
        build_dataset(images[:1], config, out)
        from hmgie.pipeline import load_dataset_jsonl

        items = load_dataset_jsonl(out)
        assert all(item.label in (0, 1) for item in items)
        assert all(item.granularity in (1, 2, 3, 4) for item in items)

    def test_per_cell_error_logged_and_run_continues(self, images, tmp_path):
        def half_broken(request):
            if request.prompt.startswith("Describe the image"):
                # only granularity-1 prompts mention "one simple sentence"
                if "one simple sentence" in request.prompt:
                    return None
                return "a caption"
            return forge_responder(fool_at_version=1)(request)

        config, _ = forge_config(half_broken)
        out = tmp_path / "partial.jsonl"
        summary = build_dataset(images[:1], config, out)
        assert summary.errors
        assert any("AllCaptionersFailedError" in e for e in summary.errors)
        assert summary.records_written == 6  # granularities 2-4 only

    def test_captioner_failure_noted_in_summary(self, images, tmp_path):
        def flaky(request):
            if request.prompt.startswith("Describe the image") and request.model_id == "bad":
                return None
            return forge_responder(fool_at_version=1)(request)

        backend = DynamicBackend(flaky)
        gateway = Gateway(backend)
        config = ForgeConfig(
            bindings=ForgeBindings(
                captioners=(gateway, gateway),
                fusion=gateway,
                perturb=gateway,
                detector=gateway,
            ),
            captioner_model_ids=("good", "bad"),
            specs=DEFAULT_GRANULARITY_SPECS[:1],
            templates=TEMPLATES,
        )
        summary = build_dataset(images[:1], config, tmp_path / "data.jsonl")
        assert summary.records_written == 2
        assert len(summary.errors) == 1
        assert summary.errors[0].startswith(
            f"{images[0]} g1: 1 captioner(s) failed: ['captioner 1: "
        )


class TestGranularitySpecs:
    def test_defaults_cover_four_tiers(self):
        assert [spec.level for spec in DEFAULT_GRANULARITY_SPECS] == [1, 2, 3, 4]
        for spec, mean in zip(DEFAULT_GRANULARITY_SPECS, (11.09, 24.41, 40.93, 63.88)):
            low, high = spec.target_word_range
            assert low <= mean <= high
            assert f"between {low} and {high} words" in spec.prompt

    def test_invalid_range_rejected(self):
        with pytest.raises(SchemaViolationError):
            GranularitySpec(level=1, prompt="p", target_word_range=(10, 5))
        with pytest.raises(SchemaViolationError):
            GranularitySpec(level=7, prompt="p", target_word_range=(5, 10))
