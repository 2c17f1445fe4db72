import hashlib
import json
import re
import threading
from dataclasses import replace
from decimal import Decimal

import pytest

from helpers import TINY_PNG, DynamicBackend, count_payload_hashes
from hmgie.errors import AllCaptionersFailedError, SchemaViolationError
from hmgie.forge import (
    DEFAULT_GRANULARITY_SPECS,
    ForgeBindings,
    ForgeConfig,
    ForgeStatus,
    ForgeSummary,
    GranularitySpec,
    build_dataset,
    compose_fusion_prompt,
    compose_perturbation_prompt,
    generate_ground_truth,
    perturb_iteratively,
)
from hmgie.gateway import Gateway
from hmgie.prompts import PromptTemplate, TemplateName, load_templates

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


def ensemble_config(responder, size: int = 3) -> tuple[ForgeConfig, DynamicBackend]:
    """A forge config whose captioners share one gateway, named model-0, model-1, ..."""
    backend = DynamicBackend(responder)
    gateway = Gateway(backend)
    config = ForgeConfig(
        bindings=ForgeBindings(
            captioners=(gateway,) * size, fusion=gateway, perturb=gateway, detector=gateway
        ),
        captioner_model_ids=tuple(f"model-{index}" for index in range(size)),
        templates=TEMPLATES,
    )
    return config, backend


def ground_truth(config: ForgeConfig, notes: list[str]) -> str:
    return generate_ground_truth(TINY_PNG, DEFAULT_GRANULARITY_SPECS[1], config, notes)


class TestGroundTruth:
    def test_single_captioner_identity(self):
        config, backend = forge_config(forge_responder())
        caption = generate_ground_truth(TINY_PNG, DEFAULT_GRANULARITY_SPECS[0], config, [])
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
        caption = generate_ground_truth(TINY_PNG, DEFAULT_GRANULARITY_SPECS[1], config, [])
        assert caption == "fused caption"
        fusion_prompt = next(
            c.prompt for c in backend.calls if c.prompt.startswith("You are given")
        )
        for member in ("model-a", "model-b", "model-c"):
            assert f"ground truth caption ({member})" in fusion_prompt

    def test_all_captioners_failed(self):
        config, _ = forge_config(lambda request: None)
        with pytest.raises(AllCaptionersFailedError):
            generate_ground_truth(TINY_PNG, DEFAULT_GRANULARITY_SPECS[0], config, [])

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
        caption = generate_ground_truth(TINY_PNG, DEFAULT_GRANULARITY_SPECS[0], config, notes)
        assert len(notes) == 1
        assert notes[0].startswith("1 captioner(s) failed: ['captioner 1: ")
        assert caption == "solo caption"

    def test_a_blank_reply_is_its_captioners_failure(self):
        # Beside a usable caption, a blank one is noted and nothing is fused;
        # alone, it leaves no caption at all.
        config, backend = ensemble_config(
            lambda request: "" if request.model_id == "model-0" else "A dog on a sofa.", size=2
        )
        notes: list[str] = []
        assert ground_truth(config, notes) == "A dog on a sofa."
        assert notes == ["1 captioner(s) failed: ['captioner 0: blank reply']"]
        assert len(backend.calls) == 2
        config, _ = forge_config(lambda request: " \n")
        with pytest.raises(AllCaptionersFailedError, match=r"^captioner 0: blank reply$"):
            ground_truth(config, [])

    def test_ensemble_members_are_asked_at_once(self):
        # Each caption call waits until all three are in flight; asked one
        # after another, the first call breaks the barrier.
        barrier = threading.Barrier(3, timeout=5)
        plain = forge_responder()

        def respond(request):
            if request.prompt.startswith("Describe the image"):
                barrier.wait()
            return plain(request)

        config, backend = ensemble_config(respond)
        notes: list[str] = []
        assert ground_truth(config, notes) == "fused caption"
        assert notes == []
        assert len(backend.calls) == 4

    def test_ensemble_order_holds_when_replies_arrive_reversed(self):
        # Captioner 2 replies first, then captioner 1 fails, then captioner 0
        # replies; captions, fusion prompt and notes keep captioner order.
        turns = [threading.Event() for _ in range(3)]
        turns[2].set()
        arrivals = []

        def respond(request):
            if not request.prompt.startswith("Describe the image"):
                return "fused caption"
            index = int(request.model_id.rsplit("-", 1)[1])
            assert turns[index].wait(timeout=5)
            arrivals.append(index)
            if index:
                turns[index - 1].set()
            return None if index == 1 else f"caption {index}"

        config, backend = ensemble_config(respond)
        notes: list[str] = []
        assert ground_truth(config, notes) == "fused caption"
        assert arrivals == [2, 1, 0]
        failed = next(c for c in backend.calls if c.model_id == "model-1")
        assert notes == [
            "1 captioner(s) failed: "
            f"['captioner 1: no fixture recorded for request key {failed.key}']"
        ]
        assert backend.calls[-1].prompt == compose_fusion_prompt(["caption 0", "caption 2"])


class TestPerturbation:
    def test_adversarial_found_at_second_iteration(self):
        config, _ = forge_config(forge_responder(fool_at_version=2))
        record = perturb_iteratively("ground truth", TINY_PNG, config)
        assert record.status is ForgeStatus.ADVERSARIAL_FOUND
        assert len(record.perturbation_history) == 2
        assert record.detector_verdicts == (0, 1)
        assert record.perturbed_caption == "perturbed caption v2"

    def test_max_iterations_reached(self):
        config, _ = forge_config(forge_responder(fool_at_version=None))
        record = perturb_iteratively("ground truth", TINY_PNG, config)
        assert record.status is ForgeStatus.MAX_ITER_REACHED
        assert len(record.perturbation_history) == 3
        assert record.perturbed_caption is None
        assert record.detector_verdicts == (0, 0, 0)

    def test_zero_iterations_invalid(self):
        config, _ = forge_config(forge_responder())
        with pytest.raises(SchemaViolationError):
            ForgeConfig(bindings=config.bindings, templates=TEMPLATES, max_iterations=0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"temperature": -1.0},
            {"temperature": float("nan")},
            {"max_output_tokens": 0},
            {"model_id": 7},
            {"captioner_model_ids": (None,)},
            {"temperature": Decimal("0.3")},
            {"temperature": True},
            {"max_output_tokens": 2.5},
            {"max_iterations": 3.0},
        ],
    )
    def test_sampling_setting_out_of_range_invalid(self, setting):
        config, _ = forge_config(forge_responder())
        with pytest.raises(SchemaViolationError):
            ForgeConfig(bindings=config.bindings, templates=TEMPLATES, **setting)

    def test_an_ensemble_or_detector_it_cannot_run_is_refused(self):
        bindings = forge_config(forge_responder())[0].bindings
        for options, message in (
            ({"detector_template": TemplateName.VQA}, "must be DirectPrompt or CoTPrompt"),
            ({"bindings": replace(bindings, captioners=())}, "at least one captioner"),
            ({"captioner_model_ids": ("a", "b")}, "must match the ensemble size"),
        ):
            with pytest.raises(SchemaViolationError, match=message):
                ForgeConfig(**{"bindings": bindings, "templates": TEMPLATES, **options})

    def test_history_embedded_in_each_prompt(self):
        config, backend = forge_config(forge_responder(fool_at_version=None), max_iterations=4)
        perturb_iteratively("ground truth", TINY_PNG, config)
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

    def test_unreadable_verdict_counts_as_detected(self):
        # An unreadable verdict can only withhold an adversarial record.
        forge = forge_responder()

        def respond(request):
            if request.prompt.startswith("Does the image match"):
                return "I cannot tell."
            return forge(request)

        config, backend = forge_config(respond, max_iterations=2)
        record = perturb_iteratively("ground truth", TINY_PNG, config)
        assert record.status is ForgeStatus.MAX_ITER_REACHED
        assert record.detector_verdicts == (0, 0)
        assert sum(c.prompt.startswith("Does the image match") for c in backend.calls) == 2

    def test_array_reply_is_taken_as_raw_text(self):
        reply = '["a cat sits on a mat"]'

        def respond(request):
            if request.prompt.startswith("You are constructing hard negative captions"):
                return f"  {reply}\n"
            if request.prompt.startswith("Does the image match"):
                assert reply in request.prompt  # the detector is shown the raw text
                return json.dumps({"Answer": "Yes"})
            return None

        config, _ = forge_config(respond)
        record = perturb_iteratively("ground truth", TINY_PNG, config)
        assert record.status is ForgeStatus.ADVERSARIAL_FOUND
        assert record.perturbation_history == (reply,)

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
            max_iterations=2,
        )
        record = perturb_iteratively("ground truth", TINY_PNG, config)
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

    def test_a_reply_with_an_integer_past_the_digit_limit_costs_no_cell(self, images, tmp_path):
        long_reply = '{"Perturbed-Caption": "a blue car", "n": 1' + "0" * 5000 + "}"

        def respond(request):
            if request.prompt.startswith("You are constructing hard negative captions"):
                return long_reply
            if request.prompt.startswith("Does the image match"):
                return json.dumps({"Answer": "Yes", "Explanation": "e"})
            return forge_responder()(request)

        config, _ = forge_config(respond)
        out = tmp_path / "data.jsonl"
        summary = build_dataset(images, config, out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert summary.records_written == len(lines) == 16
        # An unparseable reply is the caption itself, as for any other.
        assert {line["caption"] for line in lines if line["label"] == 1} == {long_reply}

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

    def test_blank_perturbation_omitted_with_a_note(self, images, tmp_path):
        # Only a kept undetected attempt can still be blank when written.
        def respond(request):
            if request.prompt.startswith("You are constructing hard negative captions"):
                return "  \n"
            if request.prompt.startswith("Does the image match"):
                return json.dumps({"Answer": "Yes"})
            return forge_responder()(request)

        config, _ = forge_config(respond, include_undetected=True)
        out = tmp_path / "data.jsonl"
        summary = build_dataset(images[:1], config, out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["label"] for line in lines] == [0, 0, 0, 0]
        assert summary.skipped_undetected == 4
        assert summary.errors == tuple(
            f"{images[0]} g{level}: perturbation is blank; omitted" for level in (1, 2, 3, 4)
        )
        from hmgie.pipeline import load_dataset_jsonl

        assert len(load_dataset_jsonl(out)) == 4

    @pytest.mark.parametrize(
        "reply",
        [
            '{"Perturbed-Caption": "  "}',
            '{"Perturbed-Caption": null}',
            '{"perturbed-caption": ""}',
            '```json\n{"Perturbed-Caption": "\\n"}\n```',
        ],
    )
    def test_blank_caption_field_is_a_blank_perturbation(self, images, tmp_path, reply):
        # The reply's JSON text must never stand in for the caption it lacks.
        detected = []

        def respond(request):
            if request.prompt.startswith("You are constructing hard negative captions"):
                return reply
            if request.prompt.startswith("Does the image match"):
                detected.append(request.prompt)
                return json.dumps({"Answer": "Yes"})
            return forge_responder()(request)

        config, _ = forge_config(respond)
        out = tmp_path / "data.jsonl"
        summary = build_dataset(images[:1], config, out)
        # A blank attempt counts as detected without asking the detector.
        assert detected == []
        assert summary.errors == tuple(
            f"{images[0]} g{level}: no detector-evading perturbation within 3 "
            "iterations; adversarial record omitted"
            for level in (1, 2, 3, 4)
        )
        assert [json.loads(line)["label"] for line in out.read_text().splitlines()] == [0] * 4

    @pytest.mark.parametrize("names", [("cat.png", "cat.jpg"), ("cat.png", "cat.png")])
    def test_images_sharing_a_stem_refused_before_any_call(self, tmp_path, names):
        paths = []
        for directory, name in zip(("x", "y"), names):
            (tmp_path / directory).mkdir()
            paths.append(tmp_path / directory / name)
            paths[-1].write_bytes(TINY_PNG)
        config, backend = forge_config(forge_responder(fool_at_version=1))
        out = tmp_path / "data.jsonl"
        message = f"images {str(paths[0])!r} and {str(paths[1])!r} would share record ids"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_dataset(paths, config, out)
        assert backend.calls == []
        assert not out.exists()

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

    def test_a_template_missing_a_substitution_fails_only_its_cell(self, images, tmp_path):
        # The detector template declares a placeholder no caller fills; the
        # tier-1 cell's perturbations are blank, so it never renders it.
        detector = TEMPLATES[TemplateName.DIRECT_PROMPT]
        templates = {
            **TEMPLATES,
            TemplateName.DIRECT_PROMPT: PromptTemplate(
                detector.name, detector.body, detector.placeholders | {"image-notes"}
            ),
        }

        def respond(request):
            if request.prompt.startswith("Describe the image"):
                tier_one = "one simple sentence" in request.prompt
                return "tier one caption" if tier_one else "a caption"
            if "tier one caption" in request.prompt:
                return json.dumps({"Perturbed-Caption": ""})
            return forge_responder(fool_at_version=1)(request)

        config, _ = forge_config(respond, templates=templates)
        summary = build_dataset(images[:1], config, tmp_path / "data.jsonl")
        assert summary.records_written == 1
        assert summary.errors == (
            f"{images[0]} g1: no detector-evading perturbation within 3 iterations; "
            "adversarial record omitted",
            *(
                f"{images[0]} g{level}: SchemaViolationError: "
                "DirectPrompt: no substitution for ['image-notes']"
                for level in (2, 3, 4)
            ),
        )

    def test_a_blank_fusion_reply_fails_its_cell_before_any_perturbation(self, images, tmp_path):
        def respond(request):
            if request.prompt.startswith("You are given several candidate captions"):
                return " "
            return forge_responder(fool_at_version=1)(request)

        config, backend = ensemble_config(respond, size=2)
        config = replace(config, specs=DEFAULT_GRANULARITY_SPECS[:1])
        summary = build_dataset(images[:1], config, tmp_path / "data.jsonl")
        assert summary.records_written == 0
        assert summary.errors == (
            f"{images[0]} g1: SchemaViolationError: ground truth caption must be nonempty",
        )
        assert not any(c.prompt.startswith("You are constructing") for c in backend.calls)

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

    def test_lone_surrogate_in_a_reply_keeps_the_run(self, images, tmp_path):
        # json.loads makes a lone surrogate of a "\ud800" escape in an HTTP
        # reply; the prompts that quote it still get keys, and the dataset
        # file carries it as its JSON escape.
        def respond(request):
            if request.prompt.startswith("Describe the image"):
                return "a caption \ud800"
            return forge_responder(fool_at_version=1)(request)

        config, _ = forge_config(respond, specs=DEFAULT_GRANULARITY_SPECS[:1])
        out = tmp_path / "data.jsonl"
        summary = build_dataset(images[:1], config, out)
        assert summary.errors == ()
        assert summary.records_written == 2
        lines = [json.loads(line) for line in out.read_text("ascii").splitlines()]
        assert [line["ground_truth"] for line in lines] == ["a caption \ud800"] * 2


LEVEL_OF_PROMPT = {spec.prompt: spec.level for spec in DEFAULT_GRANULARITY_SPECS}


def golden_responder(request):
    """One cell per granularity of one image, each with its own outcome.

    g1 evades the detector at round 2, g2 never does, g3's perturbation is
    the ground truth itself, and g4's perturbation call fails at round 2.
    """
    prompt = request.prompt
    if prompt.startswith("Describe the image"):
        return f"g{LEVEL_OF_PROMPT[prompt]} caption by {request.model_id}"
    if prompt.startswith("You are given several candidate captions"):
        return re.search(r"Caption 1: (g\d)", prompt).group(1) + " scene"
    if prompt.startswith("You are constructing hard negative captions"):
        level = int(re.search(r"Ground-truth caption: g(\d) scene", prompt).group(1))
        attempt = prompt.count("Attempt ") + 1
        if level == 4 and attempt == 2:
            return None
        caption = "g3 scene" if level == 3 else f"g{level} scene v{attempt}"
        return json.dumps({"Perturbed-Caption": caption})
    if prompt.startswith("Does the image match"):
        level, version = re.search(r"g(\d) scene(?: v(\d))?", prompt).groups()
        fooled = level == "3" or (level == "1" and int(version) >= 2)
        return json.dumps({"Answer": "Yes" if fooled else "No", "Explanation": "e"})
    return None


GOLDEN_CLEAN = (
    '{"caption": "g1 scene", "granularity": 1, "ground_truth": "g1 scene", '
    '"id": "cat-g1-clean", "image_path": "cat.png", "label": 0, '
    '"perturbation_history": [], "status": "Clean"}\n'
)
GOLDEN_ADV_G1 = (
    '{"caption": "g1 scene v2", "granularity": 1, "ground_truth": "g1 scene", '
    '"id": "cat-g1-adv", "image_path": "cat.png", "label": 1, '
    '"perturbation_history": ["g1 scene v1", "g1 scene v2"], '
    '"status": "AdversarialFound"}\n'
)
GOLDEN_CLEAN_G2 = GOLDEN_CLEAN.replace("g1", "g2").replace('"granularity": 1', '"granularity": 2')
GOLDEN_ADV_G2 = (
    '{"caption": "g2 scene v3", "granularity": 2, "ground_truth": "g2 scene", '
    '"id": "cat-g2-adv", "image_path": "cat.png", "label": 1, '
    '"perturbation_history": ["g2 scene v1", "g2 scene v2", "g2 scene v3"], '
    '"status": "MaxIterReached"}\n'
)
GOLDEN_CLEAN_G3 = GOLDEN_CLEAN.replace("g1", "g3").replace('"granularity": 1', '"granularity": 3')
GOLDEN_KEYS_SHA256 = "f935a40e8dffd4726aaf2a96a914ac5c2da63a9c33c6a698b8eb7a9cbc24b2dd"


class TestForgeGolden:
    """Pins forge's JSONL bytes, summary and request keys over every outcome."""

    @pytest.mark.parametrize("include_undetected", [False, True])
    def test_every_cell_outcome(self, tmp_path, monkeypatch, include_undetected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cat.png").write_bytes(TINY_PNG)
        backend = DynamicBackend(golden_responder)
        gateway = Gateway(backend)
        config = ForgeConfig(
            bindings=ForgeBindings(
                captioners=(gateway,) * 3, fusion=gateway, perturb=gateway, detector=gateway
            ),
            captioner_model_ids=("model-0", "model-1", "model-2"),
            max_iterations=3,
            include_undetected=include_undetected,
            templates=TEMPLATES,
        )
        summary = build_dataset(["cat.png"], config, "data.jsonl")

        keys = sorted(call.key for call in backend.calls)
        assert len(keys) == 31
        digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()
        assert digest == GOLDEN_KEYS_SHA256
        failed = next(
            call.key
            for call in backend.calls
            if call.prompt.startswith("You are constructing")
            and "g4 scene" in call.prompt
            and "Attempt 1" in call.prompt
        )
        adv_g2 = GOLDEN_ADV_G2 if include_undetected else ""
        assert (tmp_path / "data.jsonl").read_bytes() == (
            GOLDEN_CLEAN + GOLDEN_ADV_G1 + GOLDEN_CLEAN_G2 + adv_g2 + GOLDEN_CLEAN_G3
        ).encode("utf-8")
        g2_note = (
            ()
            if include_undetected
            else (
                "cat.png g2: no detector-evading perturbation within 3 iterations; "
                "adversarial record omitted",
            )
        )
        assert summary == ForgeSummary(
            records_written=5 if include_undetected else 4,
            clean_records=3,
            adversarial_records=2 if include_undetected else 1,
            skipped_undetected=1 if include_undetected else 2,
            per_granularity={1: 2, 2: 2 if include_undetected else 1, 3: 1},
            errors=g2_note
            + (
                "cat.png g3: perturbation equals ground truth; omitted",
                "cat.png g4: ForgeError: perturbation aborted: "
                f"no fixture recorded for request key {failed}",
            ),
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
