import ast
import hashlib
import json
import re
import threading
import time
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    GRAPH_REPLY,
    TINY_PNG,
    DynamicBackend,
    build_two_level_scenario,
    count_payload_hashes,
    fuzz_responder,
    graph_reply_for,
    role_of,
    scripted_backend_of,
    scripted_config,
)
from hmgie import gateway as gateway_module
from hmgie import hieg as hieg_module
from hmgie import pipeline as pipeline_module
from hmgie.errors import (
    EmptyHiegError,
    ExhaustedError,
    GatewayError,
    GraphGenFailedError,
    SchemaViolationError,
)
from hmgie.gateway import Gateway, ScriptedBackend, cache_key
from hmgie.pipeline import (
    DatasetItem,
    PipelineConfig,
    RoleBindings,
    build_graph_request,
    build_vqa_request,
    evaluate_batch,
    evaluate_pair,
    load_dataset_jsonl,
    ordered_map,
)
from hmgie.prompts import PromptTemplate, TemplateName, load_templates

TEMPLATES = load_templates()

EXPECTED_H_ACC_ALL_CORRECT = 1.96 / 2.2  # ~0.8909
EXPECTED_H_ACC_ONE_WRONG = 1.46 / 2.2  # ~0.6636


class TestTwoLevelScenario:
    def test_all_correct(self):
        config = scripted_config(templates=TEMPLATES)
        build_two_level_scenario(config)
        report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        assert report.decision == 1
        assert report.realized_depth == 2
        assert report.h_acc == pytest.approx(EXPECTED_H_ACC_ALL_CORRECT, abs=1e-9)
        # counts (2, 1) with budgets of 10 over 5 levels
        weights = [1.2**i for i in range(5)]
        expected_comp = (weights[0] * 0.2 + weights[1] * 0.1) / sum(weights)
        assert report.h_comp == pytest.approx(expected_comp, abs=1e-12)
        assert [s.count for s in report.per_level] == [2, 1]
        assert report.explanation.startswith("The caption matches")

    def test_level_one_failure_flips_decision(self):
        config = scripted_config(templates=TEMPLATES)
        build_two_level_scenario(config, second_level1_correct=False)
        report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        assert report.decision == 0
        assert report.h_acc == pytest.approx(EXPECTED_H_ACC_ONE_WRONG, abs=1e-9)

    def test_reports_identical_across_runs_and_parallelism(self):
        payloads = []
        for workers in (1, 4, 1):
            config = scripted_config(templates=TEMPLATES, intra_level_parallelism=workers)
            build_two_level_scenario(config)
            report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
            payloads.append(report.to_json())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_image_hashed_once_per_pair(self, monkeypatch):
        config = scripted_config(templates=TEMPLATES)
        build_two_level_scenario(config)
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        assert sum(s.count for s in report.per_level) == 3
        assert len(passes) == 1

    def test_node_ids_and_parents(self):
        config = scripted_config(templates=TEMPLATES)
        build_two_level_scenario(config)
        report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        ids = [node.id for node in report.hieg.nodes()]
        assert ids == ["Q1.1", "Q1.2", "Q2.1"]
        level2 = report.hieg.levels[1][0]
        assert level2.parent_ids == {"Q1.1"}
        assert level2.confidence == pytest.approx(0.8)


class TestStageOrdering:
    def test_trace_ordering(self):
        config = scripted_config(templates=TEMPLATES, intra_level_parallelism=1)
        script = build_two_level_scenario(config)
        backend = scripted_backend_of(config)
        evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)

        prompts = [request.prompt for request in backend.calls]

        def first_index(needle):
            return next(i for i, p in enumerate(prompts) if needle in p)

        def stage(prompt: str) -> str:
            if prompt.startswith("Your task is to parse"):
                return "graph"
            if prompt.startswith("You are a specialized question generator"):
                return "qgen"
            if "visual question answering" in prompt:
                return "vqa"
            if prompt.startswith("You are a question answer evaluator"):
                return "eval"
            if "based on QA results" in prompt:
                return "coverage"
            return "explain"

        stages = [stage(p) for p in prompts]
        assert stages[0] == "graph"
        assert stages[-1] == "explain"
        # every answer evaluation follows its question's VQA call
        for question in script.questions:
            vqa_idx = next(
                i for i, p in enumerate(prompts)
                if "visual question answering" in p and question in p
            )
            eval_idx = next(
                i for i, p in enumerate(prompts)
                if p.startswith("You are a question answer evaluator") and question in p
            )
            assert vqa_idx < eval_idx
        # level-1 coverage runs after level-1 answers and before level-2
        # questions; level 2's declared targets clear the mask, so no
        # coverage call follows it
        coverage_indices = [i for i, s in enumerate(stages) if s == "coverage"]
        qgen_indices = [i for i, s in enumerate(stages) if s == "qgen"]
        level1_answer_indices = [
            i for i, s in enumerate(stages[: coverage_indices[0]]) if s in ("vqa", "eval")
        ]
        assert len(level1_answer_indices) == 4
        assert len(coverage_indices) == 1
        assert qgen_indices[0] < coverage_indices[0] < qgen_indices[1]
        assert stages[qgen_indices[1]:] == ["qgen", "vqa", "eval", "explain"]

    def test_vqa_precedes_eval_under_concurrency(self):
        config = scripted_config(templates=TEMPLATES, intra_level_parallelism=4)
        script = build_two_level_scenario(config)
        backend = scripted_backend_of(config)
        evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        prompts = [request.prompt for request in backend.calls]
        for question in script.questions[:2]:
            vqa_idx = next(
                i for i, p in enumerate(prompts)
                if "visual question answering" in p and question in p
            )
            eval_idx = next(
                i for i, p in enumerate(prompts)
                if p.startswith("You are a question answer evaluator") and question in p
            )
            assert vqa_idx < eval_idx


def _counting(monkeypatch, module, name: str) -> list[int]:
    """Patch module.name with a wrapper that logs one entry per call."""
    log: list[int] = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return log


class TestPromptPartsBuiltOnce:
    # SHA-256 of the two-level scenario's report as it was before the
    # coverage skip; the skipped level-2 reply must leave it unchanged.
    REPORT_SHA256 = "aa3099d5e328035c1f31db152c18e50d8d1560637fc0443e67ff693334988080"

    def _run(self, monkeypatch):
        config = scripted_config(templates=TEMPLATES, intra_level_parallelism=1)
        build_two_level_scenario(config)
        counts = {
            "graph_to_json": _counting(monkeypatch, pipeline_module, "graph_to_json"),
            "hieg_to_prompt_json": _counting(
                monkeypatch, pipeline_module, "hieg_to_prompt_json"
            ),
            "cache_key": _counting(monkeypatch, gateway_module, "cache_key"),
        }
        report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        return report, scripted_backend_of(config), counts

    def test_graph_serialized_once_per_pair(self, monkeypatch):
        _, _, counts = self._run(monkeypatch)
        assert len(counts["graph_to_json"]) == 1

    def test_hieg_serialized_once_per_level(self, monkeypatch):
        report, _, counts = self._run(monkeypatch)
        assert len(counts["hieg_to_prompt_json"]) == report.realized_depth + 1 == 3

    def test_one_cache_key_per_backend_call(self, monkeypatch):
        _, backend, counts = self._run(monkeypatch)
        assert len(counts["cache_key"]) == len(backend.calls)

    def test_covered_mask_skips_the_last_coverage_call(self, monkeypatch):
        report, backend, _ = self._run(monkeypatch)
        assert len(backend.calls) == 11
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == self.REPORT_SHA256


class TestEachNodeSerializedOnce:
    def test_each_node_text_is_built_once_per_pair_at_any_fan_out(self, monkeypatch):
        """A depth-4 pair builds each HIEG node's prompt text once, however
        many levels embed it, and its report is the same at fan-out 1 and 4."""
        plan = {level: [_question(level, i) for i in range(3)] for level in (1, 2, 3, 4)}
        responder = _routing_responder(plan, coverage_plan={1: incomplete_coverage})
        built = _counting(monkeypatch, hieg_module, "prompt_json")
        reports = []
        for fan_out in (1, 4):
            built.clear()
            config = _dynamic_config(responder, intra_level_parallelism=fan_out)
            report = evaluate_pair(TINY_PNG, "caption", config)
            assert report.realized_depth == 4
            assert len(built) == report.hieg.node_count == 12
            reports.append(report.to_json())
        assert reports[0] == reports[1]


class TestFailureModes:
    def test_graph_gen_failed_after_retries(self):
        # A graph that breaks an invariant is retried like one with no JSON.
        node = {"id": "N1", "type": "Entity", "label": "a"}
        duplicate = json.dumps({"nodes": [node, node], "edges": []})
        dangling = json.dumps(
            {"nodes": [node], "edges": [{"from": "N1", "to": "N9", "type": "Spatial"}]}
        )
        unlabeled = json.dumps({"nodes": [{**node, "label": ""}], "edges": []})
        for reply, reason in (
            ("no graph here, sorry", "no balanced JSON object or array found in model reply"),
            (duplicate, "duplicate node id N1"),
            (dangling, "edge 0 references unknown node N9"),
            (unlabeled, "node N1 has an empty label"),
        ):
            config = scripted_config(templates=TEMPLATES)
            backend = scripted_backend_of(config)
            request = build_graph_request("caption", config)
            for attempt in (1, 2, 3):
                key = cache_key(replace(request, attempt=attempt))
                backend.fixtures[key] = reply
            with pytest.raises(GraphGenFailedError) as exc_info:
                evaluate_pair(TINY_PNG, "caption", config)
            assert exc_info.value.diagnostics == tuple(
                f"graph-gen attempt {n} unparseable: {reason}" for n in (1, 2, 3)
            )
            assert str(exc_info.value) == (
                f"semantic graph generation failed after 3 attempts: {reason}"
            )
            assert exc_info.value.partial_hieg.node_count == 0
            assert len(backend.calls) == 3  # a repeated key would be served from the cache

    def test_every_error_carries_partial_hieg_and_diagnostics(self):
        responder = _routing_responder(
            question_plan={1: []}, coverage_plan={1: incomplete_coverage}
        )
        with pytest.raises(EmptyHiegError) as exc_info:
            evaluate_pair(TINY_PNG, "caption", _dynamic_config(responder))
        error = exc_info.value
        assert error.partial_hieg.node_count == 0
        assert error.diagnostics == ("level 1: question generator returned no items",)
        assert not hasattr(error, "pipeline_diagnostics")

        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: [_question(2, 0)]},
            coverage_plan={1: "not a coverage reply"},
        )

        def missing_level_two_answer(request):
            return None if "level 2 question 0?" in request.prompt else responder(request)

        config = _dynamic_config(
            missing_level_two_answer, attempts=1, intra_level_parallelism=1
        )
        with pytest.raises(ExhaustedError) as exc_info:
            evaluate_pair(TINY_PNG, "caption", config)
        error = exc_info.value
        assert error.partial_hieg.deepest_level == 1
        assert error.diagnostics == (
            "level 1: coverage reply attempt 1 unparseable: "
            "no balanced JSON object or array found in model reply",
            "level 1: coverage check failed; relying on declared targets",
        )

    def test_empty_caption_rejected(self):
        config = scripted_config(templates=TEMPLATES)
        with pytest.raises(ValueError):
            evaluate_pair(TINY_PNG, "   ", config)

    def test_undecodable_image_rejected(self):
        config = scripted_config(templates=TEMPLATES)
        with pytest.raises(ValueError):
            evaluate_pair(b"not an image", "caption", config)

    def test_missing_vqa_fixture_propagates_with_partial_hieg(self):
        config = scripted_config(templates=TEMPLATES, intra_level_parallelism=1)
        script = build_two_level_scenario(config)
        backend = scripted_backend_of(config)
        # delete the level-2 VQA fixture
        victim = next(
            key
            for key, value in backend.fixtures.items()
            if "brown" in value and "0.8" in value
        )
        del backend.fixtures[victim]
        with pytest.raises(ExhaustedError) as exc_info:
            evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        assert exc_info.value.partial_hieg.deepest_level == 1


def _routing_responder(
    question_plan: dict[int, list[dict]],
    coverage_plan: dict[int, str],
    vqa_reply: str = '{"Answer": "a dog", "Confidence": 1.0}',
    eval_reply: str = '{"Correct": true}',
):
    """Responder routing requests by prompt shape for DynamicBackend runs."""

    def respond(request):
        prompt = request.prompt
        if prompt.startswith("Your task is to parse"):
            return GRAPH_REPLY
        if prompt.startswith("You are a specialized question generator"):
            level = int(re.search(r"Current Level: \[(\d+)\]", prompt).group(1))
            return json.dumps({"Questions": question_plan.get(level, [])})
        if "visual question answering" in prompt:
            return vqa_reply
        if prompt.startswith("You are a question answer evaluator"):
            return eval_reply
        if "based on QA results" in prompt:
            level = max(
                (lvl for lvl in coverage_plan if f'"Q{lvl}.' in prompt or lvl == 1),
                default=1,
            )
            return coverage_plan[level]
        return "explanation text"

    return respond


def _question(level: int, index: int, covered=None) -> dict:
    return {
        "Question": f"level {level} question {index}?",
        "Verify-Fact": "fact",
        "Expected-Answer": "a dog",
        "Parent-IDS": [],
        "Covered-Nodes": covered or [],
        "Covered-Edges": [],
    }


def _dynamic_config(responder, attempts=3, **overrides) -> PipelineConfig:
    gateway = Gateway(DynamicBackend(responder), attempts=attempts)
    return PipelineConfig(
        backends=RoleBindings.uniform(gateway), templates=TEMPLATES, **overrides
    )


@pytest.mark.parametrize(
    "setting",
    [
        {"max_level": 0},
        {"max_questions_per_level": 0},
        {"parallelism": 0},
        {"weight_ratio": 0},
        {"temperature": -0.1},
        {"intra_level_parallelism": 0},
        {"temperature": float("nan")},
        {"max_output_tokens": 0},
        {"weight_ratio": float("inf")},
        {"weight_ratio": float("nan")},
        # True passes ``>= 1``, and json would write it as true, not as 1.
        {"parallelism": True},
        {"intra_level_parallelism": True},
        {"max_level": True},
        {"max_output_tokens": True},
        {"temperature": True},
        {"attempts": True},
        # A config refuses what each of its requests would refuse.
        {"model_id": 7},
        {"model_id": None},
        {"temperature": Decimal("0.3")},
        {"temperature": Fraction(1, 3)},
        # Counts and budgets are ints; a ratio is an int or a float.
        {"max_questions_per_level": True},
        {"max_questions_per_level": ("3", True, 3, 3, 3)},
        {"max_questions_per_level": (4.7, 2, 2, 2, 2)},
        {"max_questions_per_level": 2**1100},
        {"weight_ratio": True},
        {"weight_ratio": Decimal("1.2")},
        {"attempts": 2.5},
        {"max_level": 2.0},
        {"max_level": 2**1100},
        # Weights a float cannot hold.
        {"max_level": 101},
        {"weight_ratio": 1e300},
        # Ints past 4,300 digits, which no message may write out.
        {"temperature": 10**5000},
        {"temperature": 10**400},
        {"max_output_tokens": 10**5000},
        {"parallelism": 10**5000},
        {"intra_level_parallelism": -(10**5000)},
        {"max_level": 10**5000},
        {"max_questions_per_level": (10**5000, 1, 1, 1, 1)},
        {"weight_ratio": -(10**5000)},
        {"model_id": 10**5000},
        {"attempts": 10**5000},
    ],
)
def test_pipeline_config_refuses_a_setting_out_of_range(setting):
    with pytest.raises(SchemaViolationError):
        _dynamic_config(lambda request: "", **setting)


incomplete_coverage = json.dumps(
    {
        "Verified-Complete": False,
        "Examined-Nodes": [],
        "Examined-Edges": [],
        "Next-Level-Suggestion": "keep digging",
    }
)


class TestLoopBehavior:
    def test_empty_batch_stops_loop(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: []},
            coverage_plan={1: incomplete_coverage, 2: incomplete_coverage},
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.realized_depth == 1
        assert any("no items" in d for d in report.diagnostics)

    def test_empty_batch_at_level_one_is_empty_hieg(self):
        responder = _routing_responder(
            question_plan={1: []}, coverage_plan={1: incomplete_coverage}
        )
        config = _dynamic_config(responder)
        with pytest.raises(EmptyHiegError):
            evaluate_pair(TINY_PNG, "caption", config)

    def test_empty_evaluation_batch_row(self, tmp_path):
        responder = _routing_responder(
            question_plan={1: []}, coverage_plan={1: incomplete_coverage}
        )
        image_path = tmp_path / "image.png"
        image_path.write_bytes(TINY_PNG)
        item = DatasetItem(id="a", image_path=str(image_path), caption="caption")
        (result,) = evaluate_batch([item], _dynamic_config(responder)).results
        assert result.error == "EmptyHiegError: evaluation produced no questions"

    def test_batch_truncated_to_budget(self):
        responder = _routing_responder(
            question_plan={
                1: [_question(1, i) for i in range(5)],
                2: [],
            },
            coverage_plan={1: incomplete_coverage},
        )
        config = _dynamic_config(
            responder, max_questions_per_level=2, intra_level_parallelism=1
        )
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.per_level[0].count == 2
        assert any("truncated" in d for d in report.diagnostics)

    def test_each_level_is_cut_to_its_own_budget(self, tmp_path):
        responder = _routing_responder(
            question_plan={
                1: [_question(1, i) for i in range(3)],
                2: [_question(2, i) for i in range(3)],
                3: [],
            },
            coverage_plan={1: incomplete_coverage, 2: incomplete_coverage},
        )
        config = _dynamic_config(
            responder, max_questions_per_level=(1, 10, 10, 10, 10), intra_level_parallelism=1
        )
        image_path = tmp_path / "image.png"
        image_path.write_bytes(TINY_PNG)
        item = DatasetItem(id="a", image_path=str(image_path), caption="caption")
        (result,) = evaluate_batch([item], config).results
        assert result.error is None
        assert [len(level) for level in result.report.hieg.levels] == [1, 3]
        assert "level 1: truncated 3 questions to 1" in result.report.diagnostics
        assert not any(d.startswith("level 2: truncated") for d in result.report.diagnostics)

    def test_repeats_do_not_use_up_the_budget(self):
        """A question repeated from an earlier level is dropped before the
        batch is cut to its budget, so the new question behind it is kept."""
        responder = _routing_responder(
            question_plan={
                1: [_question(1, 0)],
                2: [_question(1, 0), _question(2, 0)],
                3: [],
            },
            coverage_plan={1: incomplete_coverage, 2: incomplete_coverage},
        )
        config = _dynamic_config(
            responder, max_questions_per_level=1, intra_level_parallelism=1
        )
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.realized_depth == 2
        assert [node.question for node in report.hieg.levels[1]] == ["level 2 question 0?"]
        assert any("already asked" in d for d in report.diagnostics)
        assert not any("truncated" in d for d in report.diagnostics)

    def test_runs_all_levels_when_never_covered(self):
        plan = {level: [_question(level, 0)] for level in range(1, 6)}
        responder = _routing_responder(
            question_plan=plan,
            coverage_plan={level: incomplete_coverage for level in range(1, 6)},
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.realized_depth == 5

    def test_verified_complete_breaks_early(self):
        complete = json.dumps(
            {
                "Verified-Complete": True,
                "Examined-Nodes": [],
                "Examined-Edges": [],
                "Next-Level-Suggestion": None,
            }
        )
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)]},
            coverage_plan={1: complete},
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.realized_depth == 1

    def test_full_declared_coverage_breaks_early(self):
        # the graph has N1..N3 and 2 edges; cover them all at level 1
        item = {
            "Question": "everything?",
            "Verify-Fact": "all",
            "Expected-Answer": "a dog",
            "Parent-IDS": [],
            "Covered-Nodes": ["N1", "N2", "N3"],
            "Covered-Edges": [0, 1],
        }
        responder = _routing_responder(
            question_plan={1: [item]},
            coverage_plan={1: incomplete_coverage},
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.realized_depth == 1

    def test_malformed_coverage_falls_back_to_declarations(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0, covered=["N1"])], 2: []},
            coverage_plan={1: "absolutely not json", 2: "absolutely not json"},
        )
        config = _dynamic_config(responder, attempts=2, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert any("coverage check failed" in d for d in report.diagnostics)

    def test_question_repeated_from_earlier_level_dropped(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: [_question(1, 0), _question(2, 0)]},
            coverage_plan={1: incomplete_coverage, 2: incomplete_coverage},
        )
        config = _dynamic_config(responder, max_level=2, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert [n.question for n in report.hieg.levels[1]] == ["level 2 question 0?"]
        assert (
            "level 2: dropped question 'level 1 question 0?' already asked at an "
            "earlier level"
        ) in report.diagnostics

    def test_level_of_only_repeated_questions_ends_loop(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: [_question(1, 0)]},
            coverage_plan={1: incomplete_coverage, 2: incomplete_coverage},
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.realized_depth == 1
        assert "level 2: every question repeats an earlier level" in report.diagnostics

    def test_unknown_declared_ids_sanitized(self):
        responder = _routing_responder(
            question_plan={
                1: [_question(1, 0, covered=["N1", "N99"])],
                2: [],
            },
            coverage_plan={1: incomplete_coverage},
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert any("unknown coverage targets" in d for d in report.diagnostics)
        assert report.hieg.levels[0][0].covered_nodes == {"N1"}

    def test_unknown_parents_dropped(self):
        level_two = {**_question(2, 0), "Parent-IDS": ["Q1.1", "Q9.9"]}
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: [level_two]},
            coverage_plan={1: incomplete_coverage, 2: incomplete_coverage},
        )
        config = _dynamic_config(responder, max_level=2, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert (
            "level 2: dropped unknown parents ['Q9.9'] for question 'level 2 question 0?'"
        ) in report.diagnostics
        assert report.hieg.levels[1][0].parent_ids == {"Q1.1"}

    def test_failed_explanation_still_yields_a_report(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: []},
            coverage_plan={1: incomplete_coverage},
        )

        def explainer_down(request):
            reply = responder(request)
            if reply == "explanation text":
                raise GatewayError("explainer down")
            return reply

        config = _dynamic_config(explainer_down, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.explanation == ""
        assert report.decision == 1
        assert report.diagnostics[-2:] == (
            "explanation generation failed: explainer down",
            "explanation is empty",
        )

    def test_unparseable_vqa_falls_back_to_raw_text(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: []},
            coverage_plan={1: incomplete_coverage},
            vqa_reply="it is clearly a dog",
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        node = report.hieg.levels[0][0]
        assert node.actual_answer == "it is clearly a dog"
        assert node.confidence == 1.0
        assert any("using raw text" in d for d in report.diagnostics)

    def test_malformed_answer_eval_marks_false(self):
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: []},
            coverage_plan={1: incomplete_coverage},
            eval_reply="hmm, probably fine",
        )
        config = _dynamic_config(responder, attempts=2, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.decision == 0
        assert report.hieg.levels[0][0].correct is False
        assert any("marked incorrect" in d for d in report.diagnostics)

    def test_blank_vqa_reply_marks_false_without_a_judge_call(self):
        """Pins today's handling of a blank VQA reply; ROADMAP item 4 changes it."""
        responder = _routing_responder(
            question_plan={1: [_question(1, 0)], 2: []},
            coverage_plan={1: incomplete_coverage},
            vqa_reply=" \n ",
        )
        config = _dynamic_config(responder, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        (node,) = report.hieg.nodes()
        assert (node.actual_answer, node.confidence, node.correct) == ("", 1.0, False)
        assert report.decision == 0
        assert (
            "vqa returned an empty reply for 'level 1 question 0?'; marked incorrect"
            in report.diagnostics
        )
        prompts = [call.prompt for call in config.backends.answer_eval.backend.calls]
        assert not any(p.startswith("You are a question answer evaluator") for p in prompts)


def _noting_responder(request):
    """One level whose question and VQA replies each need a coerced field."""
    prompt = request.prompt
    if prompt.startswith("Your task is to parse"):
        return GRAPH_REPLY
    if prompt.startswith("You are a specialized question generator"):
        first = {**_question(1, 0, covered=["N1", "N2", "N3"]), "Covered-Edges": [0, 1, "x"]}
        return json.dumps({"Questions": [first, first, _question(1, 1)]})
    if "visual question answering" in prompt:
        confidence = 1.7 if "question 0?" in prompt else "high"
        return json.dumps({"Answer": "a dog", "Confidence": confidence})
    if prompt.startswith("You are a question answer evaluator"):
        return json.dumps({"Correct": True})
    return "explanation text"


class TestParserNotes:
    def test_notes_reach_every_report_in_order_at_any_fan_out(self):
        expected = [
            "ignoring non-integer edge index 'x'",
            "dropping duplicate question 'level 1 question 0?'",
            "confidence 1.7 clamped into [0, 1]",
            "non-numeric confidence 'high'; defaulting to 1.0",
        ]
        payloads = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for workers in (1, 4):
                config = _dynamic_config(_noting_responder, intra_level_parallelism=workers)
                reports = [evaluate_pair(TINY_PNG, "caption", config) for _ in range(2)]
                assert [list(report.diagnostics) for report in reports] == [expected] * 2
                payloads[workers] = [report.to_json() for report in reports]
        assert caught == []
        assert payloads[1] == payloads[4]

    def test_graph_and_coverage_notes_reach_the_report(self):
        graph = json.loads(GRAPH_REPLY)
        graph["nodes"][2]["type"] = "Furniture"
        graph["edges"].append({"from": "N3", "to": "N3", "type": "Mood", "label": "self"})
        coverage = json.dumps(
            {"Verified-Complete": True, "Examined-Nodes": [], "Examined-Edges": ["y"]}
        )

        def respond(request):
            if request.prompt.startswith("Your task is to parse"):
                return json.dumps(graph)
            if "based on QA results" in request.prompt:
                return coverage
            return _noting_responder(request)

        config = _dynamic_config(respond, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        assert report.diagnostics[:3] == (
            "unknown node kind 'Furniture'; mapped to Other",
            "unknown edge kind 'Mood'; mapped to Other",
            "edge 2 is a self-loop on N3",
        )
        assert report.diagnostics[-1] == "ignoring non-integer edge index 'y'"


def _garbage_first(responder, roles):
    """Answer the first attempt of every prompt of the given roles with text
    no parser accepts, and every later attempt as responder would."""

    def respond(request):
        if request.attempt == 1 and role_of(request.prompt) in roles:
            return "sorry, no structured reply this time"
        return responder(request)

    return respond


RETRIED_ROLES = {
    "graph": "graph-gen attempt 1 unparseable: ",
    "question": "level 1: question reply attempt 1 unparseable: ",
    "eval": "answer-eval attempt 1 unparseable for 'level 1 question 0?': ",
    "coverage": "level 1: coverage reply attempt 1 unparseable: ",
}


def _retry_plan():
    return _routing_responder(
        question_plan={1: [_question(1, 0, covered=["N1"])], 2: []},
        coverage_plan={1: incomplete_coverage},
    )


def _without_diagnostics(report) -> dict:
    payload = report.to_dict()
    del payload["diagnostics"]
    return payload


class TestRetriesReachTheModel:
    @pytest.mark.parametrize("role", sorted(RETRIED_ROLES))
    def test_garbage_then_valid_takes_two_calls(self, role):
        clean = evaluate_pair(
            TINY_PNG, "caption", _dynamic_config(_retry_plan(), intra_level_parallelism=1)
        )
        config = _dynamic_config(
            _garbage_first(_retry_plan(), {role}), intra_level_parallelism=1
        )
        backend = config.backends.graph_gen.backend
        report = evaluate_pair(TINY_PNG, "caption", config)

        attempts: dict[str, list[int]] = {}
        for request in backend.calls:
            if role_of(request.prompt) == role:
                attempts.setdefault(request.prompt, []).append(request.attempt)
        assert attempts and all(seen == [1, 2] for seen in attempts.values())
        if role == "graph":
            assert len(attempts) == 1
        assert _without_diagnostics(report) == _without_diagnostics(clean)
        assert any(d.startswith(RETRIED_ROLES[role]) for d in report.diagnostics)

    def test_each_role_retries_within_its_own_gateways_attempts(self):
        plan = _garbage_first(_retry_plan(), {"graph"})
        backend = DynamicBackend(
            lambda request: "no verdict" if role_of(request.prompt) == "eval" else plan(request)
        )
        bindings = replace(
            RoleBindings.uniform(Gateway(backend, attempts=1)),
            graph_gen=Gateway(backend, attempts=2),
            answer_eval=Gateway(backend, attempts=4),
        )
        config = PipelineConfig(backends=bindings, templates=TEMPLATES, intra_level_parallelism=1)
        report = evaluate_pair(TINY_PNG, "caption", config)
        tries: dict[str, list[int]] = {}
        for request in backend.calls:
            tries.setdefault(role_of(request.prompt), []).append(request.attempt)
        assert tries["graph"] == [1, 2]
        assert tries["eval"] == [1, 2, 3, 4]
        assert tries["question"] == [1, 1]
        assert report.hieg.levels[0][0].correct is False

    def test_record_then_replay_is_byte_identical(self, tmp_path):
        live = DynamicBackend(_garbage_first(_retry_plan(), set(RETRIED_ROLES)))
        recorder = Gateway(live, cache_dir=tmp_path, record=True)
        recorded = evaluate_pair(
            TINY_PNG,
            "caption",
            PipelineConfig(backends=RoleBindings.uniform(recorder), templates=TEMPLATES),
        )
        scripted = ScriptedBackend(fixture_dir=tmp_path)
        replayed = evaluate_pair(
            TINY_PNG,
            "caption",
            PipelineConfig(
                backends=RoleBindings.uniform(Gateway(scripted)), templates=TEMPLATES
            ),
        )
        assert replayed.to_json() == recorded.to_json()
        assert len(scripted.calls) == len(live.calls)
        assert all(
            any(d.startswith(prefix) for d in replayed.diagnostics)
            for prefix in RETRIED_ROLES.values()
        )


def test_fuzzed_scenarios_always_halt():
    for seed in range(300):
        config = _dynamic_config(
            fuzz_responder(seed), attempts=1, intra_level_parallelism=1
        )
        try:
            report = evaluate_pair(TINY_PNG, "caption", config)
        except EmptyHiegError:
            continue
        assert report.realized_depth <= 5
        assert 0.0 <= report.h_acc <= 1.0
        assert 0.0 <= report.h_comp <= 1.0


def test_incremental_hieg_text_matches_the_whole_graph_in_fuzzed_scenarios(monkeypatch):
    """After every expand, the HIEG text evaluate_pair joins from the node
    texts it kept equals hieg_to_prompt_json of the whole graph."""
    whole = pipeline_module.hieg_to_prompt_json
    sizes = []

    def checked(hieg, texts):
        text = whole(hieg, texts)
        assert text == whole(hieg)
        assert len(texts) == hieg.node_count
        sizes.append(hieg.node_count)
        return text

    monkeypatch.setattr(pipeline_module, "hieg_to_prompt_json", checked)
    for seed in range(300):
        config = _dynamic_config(
            fuzz_responder(seed), attempts=1, intra_level_parallelism=1
        )
        try:
            evaluate_pair(TINY_PNG, "caption", config)
        except EmptyHiegError:
            continue
    assert sizes.count(0) == 300 and max(sizes) >= 6


class TestBatch:
    @pytest.fixture()
    def batch_setup(self, tmp_path):
        image_path = tmp_path / "img.png"
        image_path.write_bytes(TINY_PNG)
        config = scripted_config(templates=TEMPLATES)
        build_two_level_scenario(config, caption="clean caption")
        build_two_level_scenario(
            config, caption="noisy caption", second_level1_correct=False
        )
        return config, str(image_path)

    def test_labeled_batch_metrics(self, batch_setup):
        config, image_path = batch_setup
        items = [
            DatasetItem(id="a", image_path=image_path, caption="clean caption", label=0, granularity=1),
            DatasetItem(id="b", image_path=image_path, caption="noisy caption", label=1, granularity=1),
            DatasetItem(id="c", image_path=image_path, caption="clean caption", label=0, granularity=2),
            DatasetItem(id="d", image_path=image_path, caption="noisy caption", label=1, granularity=2),
        ]
        batch = evaluate_batch(items, config)
        assert batch.evaluated == 4
        assert batch.metrics.tpr == 1.0
        assert batch.metrics.fpr == 0.0
        assert batch.metrics.f1 == 1.0
        assert set(batch.metrics.per_granularity) == {1, 2}

    def test_error_item_recorded_without_abort(self, batch_setup):
        config, image_path = batch_setup
        items = [
            DatasetItem(id="a", image_path=image_path, caption="clean caption", label=0),
            DatasetItem(id="broken", image_path=image_path, caption="unknown caption", label=1),
            DatasetItem(id="b", image_path=image_path, caption="noisy caption", label=1),
        ]
        batch = evaluate_batch(items, config)
        assert batch.failed == 1
        assert batch.results[1].error is not None
        assert batch.results[1].item.id == "broken"
        # metrics computed over decided items
        assert batch.metrics is not None
        assert batch.metrics.confusion.tp == 1
        assert batch.metrics.confusion.tn == 1

    def test_an_empty_image_file_fails_only_its_item(self, batch_setup, tmp_path):
        config, image_path = batch_setup
        empty = tmp_path / "empty.png"
        empty.write_bytes(b"")
        items = [
            DatasetItem(id="empty", image_path=str(empty), caption="clean caption"),
            DatasetItem(id="clean", image_path=image_path, caption="clean caption"),
        ]
        batch = evaluate_batch(items, config)
        assert batch.results[0].error == "ValueError: image payload is empty"
        assert batch.results[1].report is not None

    def test_deeply_nested_reply_fails_only_its_item(self, batch_setup):
        config, image_path = batch_setup
        hostile = build_graph_request("hostile caption", config)
        for attempt in range(1, config.backends.graph_gen.attempts + 1):
            key = cache_key(replace(hostile, attempt=attempt))
            scripted_backend_of(config).fixtures[key] = "[" * 5000 + "]" * 5000
        items = [
            DatasetItem(id="hostile", image_path=image_path, caption="hostile caption"),
            DatasetItem(id="clean", image_path=image_path, caption="clean caption"),
        ]
        batch = evaluate_batch(items, config)
        assert batch.failed == 1
        assert batch.results[0].error.startswith("GraphGenFailedError")
        assert batch.results[1].report is not None

    def test_a_graph_reply_with_an_integer_past_the_digit_limit_is_retried(self, batch_setup):
        config, image_path = batch_setup
        script = build_two_level_scenario(config, caption="long caption")
        first = build_graph_request("long caption", config)
        script.set(first, '{"nodes": [], "n": 1' + "0" * 5000 + "}")
        script.set(replace(first, attempt=2), graph_reply_for("long caption"))
        item = DatasetItem(id="long", image_path=image_path, caption="long caption")
        report = evaluate_batch([item], config).results[0].report
        assert report is not None
        assert report.diagnostics[0].startswith(
            "graph-gen attempt 1 unparseable: model reply holds a number too long to parse"
        )

    def test_a_confidence_past_float_range_is_clamped_and_the_batch_completes(
        self, batch_setup
    ):
        config, image_path = batch_setup
        script = build_two_level_scenario(config, caption="huge caption")
        huge = json.dumps({"Answer": "a dog", "Confidence": 10**400})
        script.set(build_vqa_request(script.questions[0], TINY_PNG, config), huge)
        captions = ("clean caption", "huge caption", "noisy caption")
        items = [DatasetItem(id=c, image_path=image_path, caption=c) for c in captions]
        batch = evaluate_batch(items, config)
        assert [r.error for r in batch.results] == [None, None, None]
        diagnostics = batch.results[1].report.diagnostics
        assert "confidence inf clamped into [0, 1]" in diagnostics
        assert all("0" * 50 not in note for note in diagnostics)
        assert batch.results[1].report.hieg.levels[0][0].confidence == 1.0

    def test_a_template_missing_a_substitution_fails_only_its_item(self, tmp_path):
        # The coverage template declares a placeholder no caller fills, so
        # only a pair whose questions leave an element unexamined renders it.
        image_path = tmp_path / "img.png"
        image_path.write_bytes(TINY_PNG)
        coverage = TEMPLATES[TemplateName.COVERAGE_CHECK]
        templates = {
            **TEMPLATES,
            TemplateName.COVERAGE_CHECK: PromptTemplate(
                coverage.name, coverage.body, coverage.placeholders | {"image-notes"}
            ),
        }

        def respond(request):
            prompt = request.prompt
            if prompt.startswith("Your task is to parse"):
                return graph_reply_for("full" if "[full caption]" in prompt else "partial")
            if prompt.startswith("You are a specialized question generator"):
                question = _question(1, 0, covered=["N1", "N2", "N3"])
                if "dog (full)" in prompt:
                    question["Covered-Edges"] = [0, 1]
                return json.dumps({"Questions": [question]})
            return _routing_responder({}, {})(request)

        gateway = Gateway(DynamicBackend(respond))
        config = PipelineConfig(backends=RoleBindings.uniform(gateway), templates=templates)
        items = [
            DatasetItem(id="partial", image_path=str(image_path), caption="partial caption"),
            DatasetItem(id="full", image_path=str(image_path), caption="full caption"),
        ]
        batch = evaluate_batch(items, config)
        assert batch.results[0].error == (
            "SchemaViolationError: CoverageCheck: no substitution for ['image-notes']"
        )
        assert batch.results[1].report is not None
        assert batch.failed == 1

    def test_unlabeled_batch_has_no_metrics(self, batch_setup):
        config, image_path = batch_setup
        items = [
            DatasetItem(id="a", image_path=image_path, caption="clean caption", label=None),
            DatasetItem(id="b", image_path=image_path, caption="noisy caption", label=1),
        ]
        batch = evaluate_batch(items, config)
        assert batch.metrics is None

    def test_parallelism_does_not_change_reports(self, batch_setup):
        config, image_path = batch_setup
        items = [
            DatasetItem(id=f"i{k}", image_path=image_path, caption="clean caption", label=0)
            for k in range(6)
        ]
        sequential = evaluate_batch(items, config)
        concurrent = evaluate_batch(items, replace(config, parallelism=4))
        left = [r.report.to_json() for r in sequential.results]
        right = [r.report.to_json() for r in concurrent.results]
        assert left == right

    def test_results_keep_input_order(self, batch_setup):
        config, image_path = batch_setup
        items = [
            DatasetItem(id=f"item-{k}", image_path=image_path, caption="clean caption", label=0)
            for k in range(5)
        ]
        batch = evaluate_batch(items, replace(config, parallelism=3))
        assert [r.item.id for r in batch.results] == [f"item-{k}" for k in range(5)]


class TestOrderedMap:
    def test_results_keep_input_order(self):
        def square_late_first(n):
            time.sleep((8 - n) * 0.005)  # early items finish last
            return n * n

        assert ordered_map(square_late_first, range(8), 4) == [n * n for n in range(8)]

    def test_at_most_workers_threads_none_of_them_the_callers(self, monkeypatch):
        pools = []

        class CountingPool(pipeline_module.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        # The pool class is read from the module at each call.
        monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", CountingPool)
        lock = threading.Lock()
        running, peak, threads = [0], [0], set()

        def task(n):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                threads.add(threading.get_ident())
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            return n

        assert ordered_map(task, range(12), 3) == list(range(12))
        assert pools == [3]
        assert peak[0] <= 3
        assert len(threads) <= 3
        assert threading.get_ident() not in threads

    @pytest.mark.parametrize("workers, count", [(1, 5), (4, 1), (4, 0)])
    def test_runs_inline_without_a_second_worker(self, workers, count, monkeypatch):
        monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", None)  # any use fails
        threads = ordered_map(lambda n: threading.get_ident(), range(count), workers)
        assert threads == [threading.get_ident()] * count

    def test_first_error_in_input_order_raised_after_every_task_ends(self):
        ended = []

        def task(n):
            time.sleep({1: 0.05, 3: 0.0, 5: 0.1}.get(n, 0.01))
            ended.append(n)
            if n in (1, 3):  # 3 fails first in time, 1 first in order
                raise ValueError(str(n))
            return n

        with pytest.raises(ValueError, match="^1$"):
            ordered_map(task, range(6), 3)
        assert sorted(ended) == list(range(6))


def test_only_pipeline_imports_a_thread_pool():
    """ordered_map is the package's one fan-out, and pipeline's
    ThreadPoolExecutor the one pool class a caller needs to swap."""
    package = Path(pipeline_module.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("concurrent" in name or "ThreadPoolExecutor" in name for name in names):
                importers.append(path.name)
    assert importers == ["pipeline.py"]


def test_only_the_report_writers_pass_indent_to_json_dumps():
    """Prompt JSON is written by structured.prompt_json. ``json.dumps(...,
    indent=...)``, whose encoder runs in pure Python, is left to the two
    report files: a pair's report and a batch's summary.json, which hold
    floats and sort their keys."""
    package = Path(pipeline_module.__file__).parent
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and ast.unparse(child.func) == "json.dumps"
                and any(keyword.arg == "indent" for keyword in child.keywords)
            ):
                found.append((path.name, ".".join(scope)))
            visit(child, path, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    assert found == [("cli.py", "_evaluate"), ("pipeline.py", "EvaluationReport.to_json")]


class TestDatasetLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [
            {"id": "x", "image_path": "a.png", "caption": "c", "label": 1, "granularity": 2},
            {"image_path": "b.png", "caption": "d", "label": None},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        items = load_dataset_jsonl(path)
        assert items[0].id == "x"
        assert items[0].granularity == 2
        assert items[1].id == "line-2"
        assert items[1].label is None

    def test_a_blank_line_is_skipped_and_a_line_not_an_object_is_named(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"image_path": "a", "caption": "c"}\n \n', encoding="utf-8")
        assert [item.id for item in load_dataset_jsonl(path)] == ["line-1"]
        path.write_text('{"image_path": "a", "caption": "c"}\n \n[1]\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: line is not an object")):
            load_dataset_jsonl(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"image_path": "a", "caption": "c", "label": 3}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="label"):
            load_dataset_jsonl(path)

    def test_an_integer_past_the_digit_limit_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"image_path": "a", "caption": "c"}\n'
            '{"image_path": "a", "caption": "c", "id": 1' + "0" * 5000 + "}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: invalid JSON: Exceeds")):
            load_dataset_jsonl(path)

    def test_bad_granularity_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"image_path": "a", "caption": "c", "granularity": 5}\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="granularity must be 1-4 or null"):
            load_dataset_jsonl(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("label", True, "label must be 0, 1, or null"),
            ("label", 1.0, "label must be 0, 1, or null"),
            ("granularity", 1.0, "granularity must be 1-4 or null"),
            ("granularity", True, "granularity must be 1-4 or null"),
        ],
    )
    def test_label_and_granularity_must_be_json_integers(
        self, tmp_path, field, value, message
    ):
        path = tmp_path / "data.jsonl"
        rows = [
            {"image_path": "a", "caption": "c", "label": 0, "granularity": 1},
            {"image_path": "a", "caption": "c", field: value},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_dataset_jsonl(path)

    @pytest.mark.parametrize(
        "field, value",
        [("caption", None), ("caption", 3), ("image_path", ["x"]), ("image_path", None)],
    )
    def test_caption_and_image_path_must_be_strings(self, tmp_path, field, value):
        # str() once made JSON null the caption "None" and ["x"] the path "['x']"
        path = tmp_path / "data.jsonl"
        rows = [{"image_path": "a", "caption": "c"}, {"image_path": "a", "caption": "c"}]
        rows[1][field] = value
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {field} must be a string")):
            load_dataset_jsonl(path)

    @pytest.mark.parametrize("value", [None, ["x"], True, "", 1.0])
    def test_id_must_be_a_nonempty_string_or_an_integer(self, tmp_path, value):
        path = tmp_path / "data.jsonl"
        rows = [{"id": 7, "image_path": "a", "caption": "c"}, {"image_path": "a", "caption": "c"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        assert [item.id for item in load_dataset_jsonl(path)] == ["7", "line-2"]
        rows[1]["id"] = value
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        message = f"{path}:2: id must be a nonempty string or an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset_jsonl(path)

    def test_missing_caption_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"image_path": "a", "label": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="caption"):
            load_dataset_jsonl(path)
