import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgie.errors import EmptyHiegError, SchemaViolationError
from hmgie.hieg import (
    EvalNode,
    Hieg,
    QuestionBatch,
    QuestionItem,
    expand,
    hieg_to_prompt_json,
    hieg_to_prompt_payload,
    level_stats,
    overall_decision,
)


@pytest.mark.parametrize("level", [0, True, 1.0])
def test_a_level_or_depth_that_is_not_a_count_is_refused(level):
    with pytest.raises(SchemaViolationError, match="level must be"):
        QuestionBatch(level=level, items=())
    with pytest.raises(SchemaViolationError, match="max_level must be"):
        Hieg(max_level=level)


def batch(level: int, *questions: str, parents=()) -> QuestionBatch:
    return QuestionBatch(
        level=level,
        items=tuple(
            QuestionItem(question=q, expected_answer="yes", parent_ids=frozenset(parents))
            for q in questions
        ),
    )


def answered(n: int, confidence: float = 1.0):
    return [("answer", confidence)] * n


def two_level_hieg() -> Hieg:
    h = expand(Hieg.empty(5), batch(1, "q1", "q2"), answered(2), [True, True])
    return expand(
        h,
        QuestionBatch(
            level=2,
            items=(
                QuestionItem(
                    question="q3", expected_answer="yes", parent_ids=frozenset({"Q1.1"})
                ),
            ),
        ),
        answered(1, 0.8),
        [True],
    )


class TestExpand:
    def test_first_level(self):
        h = expand(Hieg.empty(5), batch(1, "q1", "q2"), answered(2), [True, False])
        assert h.deepest_level == 1
        assert [n.id for n in h.nodes()] == ["Q1.1", "Q1.2"]
        assert [n.correct for n in h.nodes()] == [True, False]

    def test_level_gap(self):
        # The new graph's constructor refuses it: expand keeps no guard of its own.
        h = expand(Hieg.empty(5), batch(1, "q1"), answered(1), [True])
        with pytest.raises(
            SchemaViolationError, match="^node Q3.1 has level 3 but sits in level 2$"
        ):
            expand(h, batch(3, "q9"), answered(1), [True])

    def test_empty_batch(self):
        with pytest.raises(
            SchemaViolationError, match=r"^level 1 is empty \(levels must be contiguous\)$"
        ):
            expand(Hieg.empty(5), batch(1), [], [])

    def test_same_level_parent_rejected(self):
        # parents must already exist at a strictly lower level
        h = expand(Hieg.empty(5), batch(1, "q1"), answered(1), [True])
        bad = QuestionBatch(
            level=2,
            items=(
                QuestionItem(question="a", expected_answer="x"),
                QuestionItem(
                    question="b", expected_answer="x", parent_ids=frozenset({"Q2.1"})
                ),
            ),
        )
        with pytest.raises(
            SchemaViolationError,
            match=r"^node Q2.2 references parents \['Q2.1'\] not found at any lower level$",
        ):
            expand(h, bad, answered(2), [True, True])

    def test_duplicate_question_across_levels(self):
        h = expand(Hieg.empty(5), batch(1, "q1"), answered(1), [True])
        with pytest.raises(SchemaViolationError, match="^question text already present: 'q1'$"):
            expand(h, batch(2, "q1"), answered(1), [True])

    def test_duplicate_question_within_batch(self):
        with pytest.raises(SchemaViolationError, match="^batch contains repeated question text$"):
            batch(1, "same", "same")

    def test_exceeding_max_level(self):
        h = expand(Hieg.empty(1), batch(1, "q1"), answered(1), [True])
        with pytest.raises(SchemaViolationError, match="^2 levels exceed max_level 1$"):
            expand(h, batch(2, "q2"), answered(1), [True])

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            expand(Hieg.empty(5), batch(1, "q1", "q2"), answered(1), [True])

    def test_append_only(self):
        h1 = expand(Hieg.empty(5), batch(1, "q1", "q2"), answered(2), [True, True])
        h2 = expand(h1, batch(2, "q3"), answered(1), [True])
        assert h1.node_count == 2
        assert h2.node_count == 3
        assert h2.levels[0] == h1.levels[0]


class TestDecision:
    def test_all_true(self):
        h = expand(Hieg.empty(5), batch(1, *[f"q{i}" for i in range(5)]), answered(5), [True] * 5)
        assert overall_decision(h) == 1

    def test_one_false(self):
        h = two_level_hieg()
        h = expand(
            h, batch(3, "q4"), answered(1), [False]
        )
        assert overall_decision(h) == 0

    def test_empty(self):
        with pytest.raises(EmptyHiegError):
            overall_decision(Hieg.empty(5))


class TestLevelStats:
    def test_mixed_verdicts(self):
        h = expand(Hieg.empty(5), batch(1, "q1", "q2"), answered(2), [True, False])
        (stats,) = level_stats(h)
        assert stats.count == 2
        assert stats.correct_weighted_sum == pytest.approx(1.0)

    def test_all_false(self):
        h = expand(Hieg.empty(5), batch(1, "q1", "q2", "q3"), answered(3), [False] * 3)
        (stats,) = level_stats(h)
        assert stats.count == 3
        assert stats.correct_weighted_sum == 0.0

    def test_confidence_weighting(self):
        h = expand(Hieg.empty(5), batch(1, "q1"), answered(1, 0.8), [True])
        (stats,) = level_stats(h)
        assert stats.count == 1
        assert stats.correct_weighted_sum == pytest.approx(0.8)


class TestInvariants:
    def test_node_invariants(self):
        with pytest.raises(SchemaViolationError):
            EvalNode(
                id="Q1.1", level=1, question="q", verify_fact="", expected_answer="",
                actual_answer="a", confidence=1.5, correct=True,
            )
        with pytest.raises(SchemaViolationError):
            EvalNode(
                id="Q1.1", level=1, question="q", verify_fact="", expected_answer="",
                actual_answer=None, confidence=1.0, correct=True,
            )
        with pytest.raises(SchemaViolationError):
            EvalNode(
                id="Q1.1", level=1, question="q", verify_fact="", expected_answer="",
                actual_answer="a", confidence=1.0, correct=None,
            )

    def test_no_level_gaps_in_constructor(self):
        node = EvalNode(
            id="Q2.1", level=2, question="q", verify_fact="", expected_answer="",
            actual_answer="a", confidence=1.0, correct=True,
        )
        with pytest.raises(SchemaViolationError):
            Hieg(levels=((), (node,)), max_level=5)

    def test_repeated_question_rejected_in_constructor(self):
        def node(node_id: str, level: int) -> EvalNode:
            return EvalNode(
                id=node_id, level=level, question="q", verify_fact="", expected_answer="",
                actual_answer="a", confidence=1.0, correct=True,
            )

        with pytest.raises(SchemaViolationError, match="^question text already present: 'q'$"):
            Hieg(levels=((node("Q1.1", 1),), (node("Q2.1", 2),)), max_level=5)

    def test_prompt_payload_field_names(self):
        payload = hieg_to_prompt_payload(two_level_hieg())
        assert set(payload[0]) == {
            "Question-ID",
            "Question",
            "Verify-Fact",
            "Expected-Answer",
            "Actual-Answer",
            "Eval-Correct",
            "Parent-IDS",
        }
        assert payload[2]["Parent-IDS"] == ["Q1.1"]


def random_hieg(rng: random.Random, max_level: int = 5) -> Hieg:
    h = Hieg.empty(max_level)
    depth = rng.randint(1, max_level)
    counter = 0
    for level in range(1, depth + 1):
        items = []
        for _ in range(rng.randint(1, 10)):
            counter += 1
            parents = frozenset(
                rng.sample(sorted(h.node_ids()), k=rng.randint(0, min(2, h.node_count)))
            )
            items.append(
                QuestionItem(
                    question=f"question {counter}",
                    expected_answer="x",
                    parent_ids=parents,
                )
            )
        answers = [("a", rng.random()) for _ in items]
        verdicts = [rng.random() < 0.8 for _ in items]
        h = expand(h, QuestionBatch(level=level, items=tuple(items)), answers, verdicts)
    return h


class TestRandomized:
    def test_decision_law(self):
        rng = random.Random(11)
        for _ in range(300):
            h = random_hieg(rng)
            any_false = any(not node.correct for node in h.nodes())
            assert overall_decision(h) == (0 if any_false else 1)

    def test_topological_order_exists(self):
        rng = random.Random(13)
        for _ in range(200):
            h = random_hieg(rng)
            seen = set()
            for node in h.nodes():  # nodes() iterates levels in order
                assert node.parent_ids <= seen
                seen.add(node.id)

    def test_id_determinism(self):
        h1 = random_hieg(random.Random(42))
        h2 = random_hieg(random.Random(42))
        assert [n.id for n in h1.nodes()] == [n.id for n in h2.nodes()]
        assert h1 == h2

    def test_decision_one_implies_full_weighted_sums(self):
        # decision 1 means every verdict is True, so each level's weighted
        # sum equals the plain sum of its confidences
        rng = random.Random(17)
        for _ in range(100):
            h = Hieg.empty(5)
            for level in range(1, rng.randint(2, 6)):
                items = tuple(
                    QuestionItem(question=f"all-true {level}.{i}", expected_answer="x")
                    for i in range(rng.randint(1, 6))
                )
                answers = [("a", rng.random()) for _ in items]
                h = expand(
                    h, QuestionBatch(level=level, items=items), answers, [True] * len(items)
                )
            assert overall_decision(h) == 1
            for stats, level_nodes in zip(level_stats(h), h.levels):
                assert stats.correct_weighted_sum == pytest.approx(
                    sum(node.confidence for node in level_nodes)
                )

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_expand_growth(self, seed):
        rng = random.Random(seed)
        h = Hieg.empty(5)
        for level in range(1, rng.randint(2, 5)):
            size = rng.randint(1, 6)
            items = tuple(
                QuestionItem(question=f"L{level} q{i}", expected_answer="x")
                for i in range(size)
            )
            before = h.node_count
            h = expand(
                h,
                QuestionBatch(level=level, items=items),
                [("a", 1.0)] * size,
                [True] * size,
            )
            assert h.node_count == before + size


ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(st.tuples(ANY_TEXT, ANY_TEXT, ANY_TEXT, st.booleans()), min_size=1, max_size=4),
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_incremental_prompt_text_matches_the_whole_graph(levels, rng):
    """After each expand, the text joined from the node texts kept so far
    is the one-argument text, which is json.dumps of the prompt payload."""
    h = Hieg.empty(5)
    texts: list[str] = []
    assert hieg_to_prompt_json(h, texts) == hieg_to_prompt_json(h) == "[]"
    for level, rows in enumerate(levels, start=1):
        items = tuple(
            QuestionItem(
                question=f"q{level}.{i} {question}",
                verify_fact=fact,
                expected_answer=expected,
                parent_ids=frozenset(rng.sample(sorted(h.node_ids()), k=min(2, h.node_count))),
            )
            for i, (question, fact, expected, _) in enumerate(rows)
        )
        answers = [(f"answer {question}", 1.0) for question, _, _, _ in rows]
        h = expand(h, QuestionBatch(level, items), answers, [row[3] for row in rows])
        text = hieg_to_prompt_json(h, texts)
        assert len(texts) == h.node_count
        assert text == hieg_to_prompt_json(h) == json.dumps(
            hieg_to_prompt_payload(h), indent=2, ensure_ascii=False
        )
