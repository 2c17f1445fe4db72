"""Acceptance suite: every release criterion with its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Each test prints its verdict only after the assertions pass, so
a printed PASS line really means the criterion held at the pinned bound.
"""

import json
import random
import re
import time
from pathlib import Path

import pytest

from helpers import (
    TINY_PNG,
    DynamicBackend,
    build_two_level_scenario,
    dynamic_config,
    fuzz_responder,
    scripted_config,
)
from test_scoring import oracle_h_acc, oracle_h_comp, oracle_rouge, oracle_tau_b, stats_from
from hmgie.errors import EmptyHiegError
from hmgie.forge import (
    ForgeBindings,
    ForgeConfig,
    ForgeStatus,
    build_dataset,
    perturb_iteratively,
)
from hmgie.gateway import Gateway
from hmgie.hieg import Hieg, QuestionBatch, QuestionItem, expand, overall_decision
from hmgie.pipeline import evaluate_pair
from hmgie.prompts import TemplateName, load_templates, render
from hmgie.scoring import (
    ScoringConfig,
    compute_h_acc,
    compute_h_comp,
    detection_metrics,
    kendall_tau,
    rouge_n,
    tokenize,
)
from hmgie.semantic_graph import (
    apply_coverage,
    fresh_mask,
    is_fully_covered,
    parse_semantic_graph,
)

TEMPLATES = load_templates()
GOLDEN_DIR = Path(__file__).parent / "goldens"


def report_line(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_01_h_score_oracle_equivalence():
    """1000 random evaluation graphs; both H-Scores match brute force to 1e-12."""
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(1000):
        depth = rng.randint(1, 5)
        per_level = [
            [(rng.random(), rng.randint(0, 1)) for _ in range(rng.randint(1, 10))]
            for _ in range(depth)
        ]
        ratio = rng.choice([0.7, 1.0, 1.2, 1.5])
        config = ScoringConfig(weight_ratio=ratio, max_level=5, max_per_level=10)
        got_acc = compute_h_acc(stats_from(per_level), config)
        want_acc = oracle_h_acc(per_level, ratio)
        assert abs(got_acc - want_acc) < 1e-12
        counts = [len(level) for level in per_level]
        got_comp = compute_h_comp(counts, config)
        want_comp = oracle_h_comp(counts, [10] * 5, ratio)
        assert abs(got_comp - want_comp) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report_line(1, "H-Score oracle equivalence (1000 graphs, 1e-12)")


@pytest.mark.parametrize(
    "granularity,tpr_pct,fpr_pct,f1_pct",
    [
        ("G1", 97.65, 2.35, 97.65),
        ("G2", 96.71, 8.24, 94.37),
        ("G3", 94.12, 12.94, 90.91),
        ("G4", 91.29, 16.24, 87.98),
        ("Overall", 94.94, 9.94, 92.68),
    ],
)
def test_02_detection_metric_internal_consistency(granularity, tpr_pct, fpr_pct, f1_pct):
    """Published TPR/FPR pairs reproduce their F1 under balanced classes (+-0.1pp)."""
    population = 10000  # balanced: equal positives and negatives
    tp = round(tpr_pct / 100 * population)
    fp = round(fpr_pct / 100 * population)
    pairs = (
        [(1, 1)] * tp
        + [(0, 1)] * (population - tp)
        + [(1, 0)] * fp
        + [(0, 0)] * (population - fp)
    )
    summary = detection_metrics(pairs)
    assert summary.tpr * 100 == pytest.approx(tpr_pct, abs=1e-9)
    assert summary.fpr * 100 == pytest.approx(fpr_pct, abs=1e-9)
    assert summary.f1 * 100 == pytest.approx(f1_pct, abs=0.1)
    report_line(2, f"F1 consistency {granularity} ({tpr_pct}/{fpr_pct} -> {f1_pct})")


def test_03_end_to_end_replay_fixture():
    """Shipped 2-level scenario: exact outputs, byte-identical across runs."""
    start = time.perf_counter()
    payloads = []
    for workers in (1, 4, 2):
        config = scripted_config(templates=TEMPLATES, intra_level_parallelism=workers)
        build_two_level_scenario(config)
        report = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config)
        assert report.decision == 1
        assert report.realized_depth == 2
        assert abs(report.h_acc - 1.96 / 2.2) < 1e-9  # ~0.8909
        payloads.append(report.to_json())
    assert payloads[0] == payloads[1] == payloads[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report_line(3, "end-to-end replay fixture (decision=1, depth=2, h_acc~0.8909)")


def test_04_termination_and_depth_bound():
    """10,000 fuzzed scripted scenarios always halt with depth <= 5."""
    start = time.perf_counter()
    halted = 0
    empty = 0
    for seed in range(10_000):
        config = dynamic_config(
            fuzz_responder(seed),
            attempts=1,
            intra_level_parallelism=1,
            templates=TEMPLATES,
        )
        try:
            report = evaluate_pair(TINY_PNG, "caption", config)
            assert report.realized_depth <= 5
            halted += 1
        except EmptyHiegError:
            empty += 1
    elapsed = time.perf_counter() - start
    assert halted + empty == 10_000
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    report_line(4, f"termination/depth bound (10k cases, {empty} empty, {elapsed:.1f}s)")


def test_05a_mask_monotonicity_10k():
    """No coverage flag ever flips back to unexamined; 10,000 random instances."""
    rng = random.Random(5)
    graph = parse_semantic_graph(
        json.dumps(
            {
                "nodes": [
                    {"id": f"N{i}", "type": "Entity", "label": f"thing {i}"}
                    for i in range(1, 7)
                ],
                "edges": [
                    {"from": f"N{i}", "to": f"N{i + 1}", "type": "Spatial", "label": "by"}
                    for i in range(1, 6)
                ],
            }
        ),
        "caption",
        [],
    )
    for _ in range(10_000):
        mask = fresh_mask(graph)
        for _ in range(rng.randint(1, 4)):
            nodes = {n for n in mask.node_flags if rng.random() < 0.4}
            edges = {e for e in mask.edge_flags if rng.random() < 0.4}
            updated = apply_coverage(mask, nodes, edges)
            assert all(
                updated.node_flags[k] <= mask.node_flags[k] for k in mask.node_flags
            )
            assert all(
                updated.edge_flags[k] <= mask.edge_flags[k] for k in mask.edge_flags
            )
            mask = updated
        if is_fully_covered(mask):
            assert not any(mask.node_flags.values())
    report_line(5, "mask monotonicity (10k instances)")


def test_05b_decision_law_10k():
    """decision == 0 exactly when some verdict is False; 10,000 random graphs."""
    rng = random.Random(6)
    for _ in range(10_000):
        h = Hieg.empty(4)
        depth = rng.randint(1, 4)
        tag = rng.randrange(10**9)
        for level in range(1, depth + 1):
            items = tuple(
                QuestionItem(question=f"{tag} q{level}.{i}", expected_answer="x")
                for i in range(rng.randint(1, 4))
            )
            answers = [("a", rng.random()) for _ in items]
            verdicts = [rng.random() < 0.7 for _ in items]
            h = expand(h, QuestionBatch(level=level, items=items), answers, verdicts)
        any_false = any(not node.correct for node in h.nodes())
        assert overall_decision(h) == (0 if any_false else 1)
    report_line(5, "decision law (10k instances)")


def test_06_rank_correlation_and_ngram_oracles():
    """Tau-b vs O(n^2) pair counting; ROUGE vs exhaustive matching; 500 each."""
    start = time.perf_counter()
    rng = random.Random(7)
    checked_tau = 0
    while checked_tau < 500:
        n = rng.randint(2, 20)
        x = [rng.randint(0, 6) for _ in range(n)]
        y = [rng.randint(0, 6) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert abs(kendall_tau(x, y) - oracle_tau_b(x, y)) < 1e-12
        checked_tau += 1

    vocab = ["red", "car", "dog", "park", "tree", "blue", "sky", "runs", "the", "a"]
    checked_rouge = 0
    while checked_rouge < 500:
        n = rng.randint(1, 4)
        candidate = " ".join(rng.choices(vocab, k=rng.randint(1, 14)))
        reference = " ".join(rng.choices(vocab, k=rng.randint(1, 14)))
        score = rouge_n(candidate, reference, n)
        if len(tokenize(candidate)) < n or len(tokenize(reference)) < n:
            assert score.too_short and score.f_measure == 0.0
            continue
        p, r, f = oracle_rouge(candidate, reference, n)
        assert score.precision == p
        assert score.recall == r
        assert abs(score.f_measure - f) < 1e-15
        checked_rouge += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report_line(6, "Kendall tau + ROUGE oracle equivalence (500 each)")


def test_07_prompt_golden_files():
    """All eight templates render byte-identically to the checked-in goldens."""
    from test_prompts import GOLDEN_SUBSTITUTIONS

    for name in TemplateName:
        rendered = render(TEMPLATES[name], GOLDEN_SUBSTITUTIONS[name])
        golden = (GOLDEN_DIR / f"{name.value}.golden.txt").read_text(encoding="utf-8")
        assert rendered == golden, f"{name.value} drifted from its golden"
    direct = (GOLDEN_DIR / "DirectPrompt.golden.txt").read_text(encoding="utf-8")
    evaluator = (GOLDEN_DIR / "AnswerEval.golden.txt").read_text(encoding="utf-8")
    assert "Does the image match the given caption?" in direct
    assert "You are a question answer evaluator." in evaluator
    report_line(7, "prompt golden files (8 templates, anchors present)")


def test_08_forge_history_integrity_and_label_soundness(tmp_path):
    """Every perturbation prompt embeds the full prior history; labels sound."""

    def responder(request):
        prompt = request.prompt
        if prompt.startswith("Describe the image"):
            return "ground truth caption"
        if prompt.startswith("You are constructing hard negative captions"):
            iteration = prompt.count("Attempt ") + 1
            return json.dumps({"Perturbed-Caption": f"perturbed caption v{iteration}"})
        if prompt.startswith("Does the image match"):
            version = int(re.search(r"perturbed caption v(\d+)", prompt).group(1))
            return json.dumps({"Answer": "Yes" if version >= 3 else "No"})
        return "unused"

    backend = DynamicBackend(responder)
    gateway = Gateway(backend)
    config = ForgeConfig(
        bindings=ForgeBindings.uniform(gateway), templates=TEMPLATES, max_iterations=5
    )
    record = perturb_iteratively("ground truth caption", TINY_PNG, config)
    assert record.status is ForgeStatus.ADVERSARIAL_FOUND
    assert len(record.perturbation_history) == 3
    perturb_prompts = [
        c.prompt
        for c in backend.calls
        if c.prompt.startswith("You are constructing hard negative")
    ]
    for iteration, prompt in enumerate(perturb_prompts, start=1):
        for prior in range(1, iteration):
            assert f"perturbed caption v{prior}" in prompt

    image = tmp_path / "img.png"
    image.write_bytes(TINY_PNG)
    out = tmp_path / "dataset.jsonl"
    build_dataset([str(image)], config, out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines, "dataset must not be empty"
    for line in lines:
        if line["label"] == 0:
            assert line["caption"] == line["ground_truth"]
        else:
            assert line["caption"] != line["ground_truth"]
    report_line(8, "forge history integrity + label soundness")
