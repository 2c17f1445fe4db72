import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgie.errors import (
    HmgieError,
    MalformedOutputError,
    SchemaViolationError,
)
from hmgie.hieg import QuestionBatch, QuestionItem
from hmgie.prompts import (
    TEMPLATE_PLACEHOLDERS,
    CoverageReply,
    PromptTemplate,
    TemplateName,
    VqaReply,
    load_templates,
    parse_consistency_reply,
    parse_coverage_reply,
    parse_eval_reply,
    parse_question_batch,
    parse_vqa_reply,
    render,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDEN_SUBSTITUTIONS = {
    TemplateName.DIRECT_PROMPT: {"caption": "a red car parked by the road"},
    TemplateName.COT_PROMPT: {"caption": "a red car parked by the road"},
    TemplateName.SEMANTIC_GRAPH_GEN: {
        "example": "(worked example omitted for the golden)",
        "caption": "a red car parked by the road",
    },
    TemplateName.QUESTION_GEN: {
        "semantic-graph": '{"nodes": [], "edges": []}',
        "previous-HIEG": "[]",
        "suggestion": "None",
        "current-level": "1",
    },
    TemplateName.VQA: {"question": "What color is the car?"},
    TemplateName.ANSWER_EVAL: {
        "question": "What color is the car?",
        "expected-answer": "red",
        "actual-answer": "a red car",
    },
    TemplateName.COVERAGE_CHECK: {
        "semantic-graph": '{"nodes": [], "edges": []}',
        "hieg": "[]",
    },
    TemplateName.EXPLAIN: {
        "hieg": "[]",
        "caption": "a red car parked by the road",
        "consistency-decision": "Consistent",
    },
}


class TestTemplates:
    @pytest.mark.parametrize("name", list(TemplateName))
    def test_golden_render(self, name):
        templates = load_templates()
        rendered = render(templates[name], GOLDEN_SUBSTITUTIONS[name])
        golden = (GOLDEN_DIR / f"{name.value}.golden.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_spot_anchors(self):
        direct = (GOLDEN_DIR / "DirectPrompt.golden.txt").read_text(encoding="utf-8")
        assert "Does the image match the given caption?" in direct
        evaluator = (GOLDEN_DIR / "AnswerEval.golden.txt").read_text(encoding="utf-8")
        assert "You are a question answer evaluator." in evaluator

    def test_direct_prompt_embeds_caption(self):
        templates = load_templates()
        rendered = render(templates[TemplateName.DIRECT_PROMPT], {"caption": "a red car"})
        assert "Caption:\n\n[a red car]" in rendered
        assert "{caption}" not in rendered

    def test_missing_placeholder(self):
        templates = load_templates()
        with pytest.raises(
            SchemaViolationError, match=r"^QuestionGen: no substitution for \['current-level'\]$"
        ):
            render(
                templates[TemplateName.QUESTION_GEN],
                {
                    "semantic-graph": "{}",
                    "previous-HIEG": "[]",
                    "suggestion": "None",
                    # current-level missing
                },
            )

    def test_unknown_placeholder(self):
        templates = load_templates()
        with pytest.raises(
            SchemaViolationError, match=r"^Vqa: unexpected substitution keys \['foo'\]$"
        ):
            render(templates[TemplateName.VQA], {"question": "x", "foo": "bar"})

    def test_no_placeholder_left_after_render(self):
        templates = load_templates()
        for name, subs in GOLDEN_SUBSTITUTIONS.items():
            rendered = render(templates[name], subs)
            for placeholder in TEMPLATE_PLACEHOLDERS[name]:
                assert "{" + placeholder + "}" not in rendered

    def test_undeclared_placeholder_rejected_at_load(self):
        with pytest.raises(SchemaViolationError):
            PromptTemplate(
                name=TemplateName.VQA,
                body="Question: {question} Extra: {surprise}",
                placeholders=frozenset({"question"}),
            )

    def test_templates_dir_override(self, tmp_path):
        (tmp_path / "vqa.txt").write_text("Custom: {question}", encoding="utf-8")
        templates = load_templates(tmp_path)
        assert templates[TemplateName.VQA].body == "Custom: {question}"
        # untouched templates still come from the package
        assert "question answer evaluator" in templates[TemplateName.ANSWER_EVAL].body

    @pytest.mark.parametrize(
        "layout, message",
        [
            ({}, "templates dir is not a directory: {dir}/templates"),
            ({"templates": b"a file"}, "templates dir is not a directory: {dir}/templates"),
            (
                {"templates/vqa.txt": b"\xff {question}"},
                "cannot read template {dir}/templates/vqa.txt: 'utf-8' codec can't decode "
                "byte 0xff in position 0: invalid start byte",
            ),
            (
                {"templates/vqa.txt": None},
                "cannot read template {dir}/templates/vqa.txt: "
                "[Errno 21] Is a directory: '{dir}/templates/vqa.txt'",
            ),
        ],
        ids=["missing", "a-file", "not-utf-8", "unreadable"],
    )
    def test_templates_dir_refused(self, tmp_path, layout, message):
        # layout maps a path under tmp_path to its bytes, or to None for a directory
        for relative, data in layout.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            if data is None:
                path.mkdir()
            else:
                path.write_bytes(data)
        with pytest.raises(SchemaViolationError) as excinfo:
            load_templates(tmp_path / "templates")
        assert str(excinfo.value) == message.format(dir=tmp_path)

    def test_substitution_value_containing_placeholder_text(self):
        # single-pass substitution: braces inside values are never re-expanded
        templates = load_templates()
        rendered = render(templates[TemplateName.VQA], {"question": "literal {question}"})
        assert rendered.count("literal {question}") == 1


class TestVqaReply:
    def test_answer_and_confidence(self):
        reply = parse_vqa_reply('{"Answer": "yes, a dog", "Confidence": 0.9}', [])
        assert reply.answer == "yes, a dog"
        assert reply.confidence == pytest.approx(0.9)

    def test_missing_confidence_defaults_to_one(self):
        assert parse_vqa_reply('{"Answer": "blue"}', []).confidence == 1.0

    def test_confidence_clamped(self):
        notes: list[str] = []
        reply = parse_vqa_reply('{"Confidence": 1.2, "Answer": "x"}', notes)
        assert notes == ["confidence 1.2 clamped into [0, 1]"]
        assert reply.answer == "x"
        assert reply.confidence == 1.0

    @pytest.mark.parametrize("sign, expected", [(1, 1.0), (-1, 0.0)])
    def test_confidence_past_float_range_clamped_by_its_sign(self, sign, expected):
        # float() raises OverflowError; the note names no digit of the number.
        notes: list[str] = []
        reply = parse_vqa_reply(json.dumps({"Answer": "y", "Confidence": sign * 10**400}), notes)
        assert reply.confidence == expected
        assert notes == [f"confidence {sign * math.inf} clamped into [0, 1]"]

    def test_fenced_reply(self):
        raw = 'Sure:\n```json\n{"Answer": "two", "Confidence": 0.5}\n```'
        assert parse_vqa_reply(raw, []).answer == "two"

    def test_numeric_answer_coerced(self):
        assert parse_vqa_reply('{"Answer": 3, "Confidence": 0.7}', []).answer == "3"

    def test_malformed(self):
        with pytest.raises(MalformedOutputError):
            parse_vqa_reply("I see a dog.", [])


class TestEvalReply:
    def test_true(self):
        assert parse_eval_reply('{"Correct": true}') is True

    def test_false(self):
        assert parse_eval_reply('{"Correct": false}') is False

    def test_prose_is_malformed(self):
        with pytest.raises(MalformedOutputError):
            parse_eval_reply("The answer looks right to me.")

    def test_string_bool_tolerated(self):
        assert parse_eval_reply('{"Correct": "True"}') is True


class TestConsistencyReply:
    def test_yes(self):
        reply = parse_consistency_reply('{"Answer": "Yes", "Explanation": "match"}')
        assert reply is True

    def test_no_with_elaboration(self):
        assert parse_consistency_reply('{"Answer": "No, the color differs"}') is False

    def test_unparseable_answer(self):
        with pytest.raises(MalformedOutputError):
            parse_consistency_reply('{"Answer": "maybe"}')


class TestQuestionBatch:
    def test_three_items(self):
        items = [
            {"Question": f"q{i}", "Expected-Answer": "a", "Verify-Fact": "f"}
            for i in range(3)
        ]
        batch = parse_question_batch(json.dumps({"Questions": items}), 2, [])
        assert batch.level == 2
        assert len(batch.items) == 3

    def test_duplicates_collapse_with_warning(self):
        items = [
            {"Question": "same", "Expected-Answer": "a"},
            {"Question": "same", "Expected-Answer": "b"},
        ]
        notes: list[str] = []
        batch = parse_question_batch(json.dumps({"Questions": items}), 1, notes)
        assert notes == ["dropping duplicate question 'same'"]
        assert len(batch.items) == 1
        assert batch.items[0].expected_answer == "a"  # first wins

        # Non-adjacent repeats are dropped too, so QuestionBatch's own
        # repeated-question guard never fires inside a parse, where
        # call_parsed would retry it.
        items = [{"Question": q, "Expected-Answer": "x"} for q in ["a?", "b?", "a?"]]
        notes = []
        batch = parse_question_batch(json.dumps({"Questions": items}), 1, notes)
        assert notes == ["dropping duplicate question 'a?'"]
        assert [item.question for item in batch.items] == ["a?", "b?"]

    def test_empty_list(self):
        notes: list[str] = []
        assert parse_question_batch('{"Questions": []}', 1, notes) == QuestionBatch(1, ())
        assert notes == []

    def test_parent_and_coverage_fields(self):
        items = [
            {
                "Question": "q",
                "Expected-Answer": "a",
                "Parent-IDS": ["Q1.1", "Q1.2"],
                "Covered-Nodes": ["N1"],
                "Covered-Edges": [0, "2"],
            }
        ]
        batch = parse_question_batch(json.dumps({"Questions": items}), 2, [])
        item = batch.items[0]
        assert item.parent_ids == {"Q1.1", "Q1.2"}
        assert item.covered_nodes == {"N1"}
        assert item.covered_edges == {0, 2}

    def test_superscript_edge_index_is_ignored_with_a_note(self):
        # "²".isdigit() is true, but int("²") raises
        items = [{"Question": "q", "Expected-Answer": "a", "Covered-Edges": ["²", "-1", 3]}]
        notes: list[str] = []
        batch = parse_question_batch(json.dumps({"Questions": items}), 1, notes)
        assert notes == ["ignoring non-integer edge index '²'"]
        assert batch.items[0].covered_edges == {-1, 3}

    def test_an_edge_index_past_the_digit_limit_is_ignored_with_a_note(self):
        # int() refuses a string of more than 4,300 digits with a ValueError.
        long_index = "1" + "0" * 5000
        items = [{"Question": "q", "Expected-Answer": "a", "Covered-Edges": [long_index, 3]}]
        notes: list[str] = []
        batch = parse_question_batch(json.dumps({"Questions": items}), 1, notes)
        assert notes == [f"ignoring non-integer edge index {long_index!r}"]
        assert batch.items[0].covered_edges == {3}

    def test_top_level_array_tolerated(self):
        batch = parse_question_batch(
            json.dumps([{"Question": "q", "Expected-Answer": "a"}]), 1, []
        )
        assert len(batch.items) == 1

    def test_items_without_expected_answer_dropped(self):
        items = [
            {"Question": "incomplete"},
            {"Question": "ok", "Expected-Answer": "a"},
        ]
        notes: list[str] = []
        batch = parse_question_batch(json.dumps({"Questions": items}), 1, notes)
        assert notes == ["skipping question without expected answer: 'incomplete'"]
        assert [i.question for i in batch.items] == ["ok"]


class TestCoverageReply:
    def test_complete(self):
        reply = parse_coverage_reply(
            '{"Verified-Complete": true, "Examined-Nodes": [], '
            '"Examined-Edges": [], "Next-Level-Suggestion": null}',
            [],
        )
        assert reply.verified_complete is True
        assert reply.examined_nodes == frozenset()
        assert reply.next_level_suggestion is None

    def test_incomplete_with_suggestion(self):
        reply = parse_coverage_reply(
            json.dumps(
                {
                    "Verified-Complete": False,
                    "Examined-Nodes": ["N1", "N2"],
                    "Examined-Edges": [],
                    "Next-Level-Suggestion": "verify attributes of the sofa",
                }
            ),
            [],
        )
        assert reply.verified_complete is False
        assert reply.examined_nodes == {"N1", "N2"}
        assert reply.examined_edges == frozenset()
        assert reply.next_level_suggestion == "verify attributes of the sofa"

    def test_complete_with_suggestion_is_schema_violation(self):
        with pytest.raises(SchemaViolationError):
            parse_coverage_reply(
                json.dumps(
                    {
                        "Verified-Complete": True,
                        "Next-Level-Suggestion": "keep going anyway",
                    }
                ),
                [],
            )

    def test_superscript_edge_index_is_ignored_with_a_note(self):
        notes: list[str] = []
        reply = parse_coverage_reply(
            '{"Verified-Complete": true, "Examined-Edges": ["²", " 4 "]}', notes
        )
        assert notes == ["ignoring non-integer edge index '²'"]
        assert reply.examined_edges == {4}

    def test_none_string_suggestion_normalized(self):
        reply = parse_coverage_reply(
            '{"Verified-Complete": true, "Next-Level-Suggestion": "None"}', []
        )
        assert reply.next_level_suggestion is None


def _parse(parser: str, raw: str, notes: list[str]):
    """The named reply parser applied to raw, as the pipeline and forge call it."""
    return {
        "vqa": lambda: parse_vqa_reply(raw, notes),
        "eval": lambda: parse_eval_reply(raw),
        "detector": lambda: parse_consistency_reply(raw),
        "questions": lambda: parse_question_batch(raw, 1, notes),
        "coverage": lambda: parse_coverage_reply(raw, notes),
    }[parser]()


def _questions(*items) -> str:
    """A question reply holding items; a dict item gets a question and an answer."""
    return json.dumps(
        {
            "Questions": [
                {"Question": "q?", "Expected-Answer": "a", **item} if type(item) is dict else item
                for item in items
            ]
        }
    )


ONE_QUESTION = QuestionBatch(level=1, items=(QuestionItem("q?", expected_answer="a"),))

# Reply shapes a model can send that a parser refuses: parser, reply, the
# error's type and its message.
REFUSED_REPLIES = [
    ("vqa", '["Answer", "yes"]', MalformedOutputError, "VQA reply is not a JSON object"),
    ("eval", "[true]", MalformedOutputError, "evaluation reply is not a JSON object"),
    ("detector", '["Yes"]', MalformedOutputError, "detector reply is not a JSON object"),
    ("coverage", "[true]", MalformedOutputError, "coverage reply is not a JSON object"),
    (
        "detector",
        '{"Answer": true}',
        MalformedOutputError,
        "detector reply has no textual 'Answer' field",
    ),
    # A field that is missing reads as null, which its coercer refuses.
    # The answer is refused before an odd confidence can leave a note.
    ("vqa", '{"Confidence": "high"}', MalformedOutputError, "'Answer' is not a scalar: None"),
    ("vqa", '{"Answer": ["a"]}', MalformedOutputError, "'Answer' is not a scalar: ['a']"),
    ("eval", '{"Verdict": true}', MalformedOutputError, "field 'Correct' is not a boolean: None"),
    ("eval", '{"Correct": 1}', MalformedOutputError, "field 'Correct' is not a boolean: 1"),
    (
        "coverage",
        '{"Examined-Nodes": []}',
        MalformedOutputError,
        "field 'Verified-Complete' is not a boolean: None",
    ),
    (
        "questions",
        '{"Questions": "q?"}',
        MalformedOutputError,
        "question reply has no 'Questions' array",
    ),
    (
        "questions",
        _questions({"Covered-Nodes": "N1"}),
        MalformedOutputError,
        "field 'Covered-Nodes' is not an array: 'N1'",
    ),
    (
        "questions",
        _questions({"Covered-Edges": 0}),
        MalformedOutputError,
        "field 'Covered-Edges' is not an array: 0",
    ),
]


@pytest.mark.parametrize("parser, raw, error, message", REFUSED_REPLIES)
def test_reply_of_a_wrong_shape_is_refused(parser, raw, error, message):
    notes = []
    with pytest.raises(HmgieError) as excinfo:
        _parse(parser, raw, notes)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    assert notes == []


# Reply shapes a parser reads with a default or a note: parser, reply, the
# parsed value and the notes.
TOLERATED_REPLIES = [
    ("eval", '{"Correct": "no"}', False, []),
    ("eval", '{"Correct": " false "}', False, []),
    (
        "vqa",
        '{"Answer": "x", "Confidence": NaN}',
        VqaReply(answer="x", confidence=1.0),
        ["NaN confidence; defaulting to 1.0"],
    ),
    ("questions", _questions("q?", {}), ONE_QUESTION, ["skipping non-object question item 'q?'"]),
    (
        "questions",
        _questions({"Question": None}, {}),
        ONE_QUESTION,
        ["skipping question item without question text"],
    ),
    (
        "questions",
        _questions({"Covered-Edges": [True, 1]}),
        QuestionBatch(
            level=1, items=(QuestionItem("q?", expected_answer="a", covered_edges={1}),)
        ),
        [],
    ),
    (
        "coverage",
        '{"Verified-Complete": false, "Next-Level-Suggestion": 3}',
        CoverageReply(verified_complete=False, next_level_suggestion="3"),
        [],
    ),
    # No usable item: the batch is empty, and the level loop ends on it.
    (
        "questions",
        _questions({"Question": " "}, "q?"),
        QuestionBatch(level=1, items=()),
        ["skipping question item without question text", "skipping non-object question item 'q?'"],
    ),
]


@pytest.mark.parametrize("parser, raw, value, expected_notes", TOLERATED_REPLIES)
def test_reply_of_an_odd_shape_is_read(parser, raw, value, expected_notes):
    notes: list[str] = []
    assert _parse(parser, raw, notes) == value
    assert notes == expected_notes


@settings(max_examples=300)
@given(st.text(max_size=300))
def test_parsers_total_under_fuzz(raw):
    notes: list[str] = []
    for parser in (
        lambda text: parse_vqa_reply(text, notes),
        parse_eval_reply,
        lambda text: parse_coverage_reply(text, notes),
        parse_consistency_reply,
    ):
        try:
            parser(raw)
        except (MalformedOutputError, SchemaViolationError):
            pass
    try:
        parse_question_batch(raw, 1, notes)
    except (MalformedOutputError, SchemaViolationError):
        pass


@settings(max_examples=200)
@given(
    st.dictionaries(
        st.sampled_from(["Answer", "Confidence", "Correct", "Questions", "junk"]),
        st.one_of(
            st.text(max_size=10),
            st.integers(),
            st.floats(allow_nan=True),
            st.booleans(),
            st.none(),
            st.lists(st.integers(), max_size=3),
        ),
        max_size=4,
    )
)
def test_parsers_total_on_near_miss_payloads(payload):
    raw = json.dumps(payload)
    notes: list[str] = []
    for parser in (
        lambda text: parse_vqa_reply(text, notes),
        parse_eval_reply,
        lambda text: parse_coverage_reply(text, notes),
    ):
        try:
            parser(raw)
        except (MalformedOutputError, SchemaViolationError):
            pass
