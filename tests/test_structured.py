import json
import re
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hmgie.errors import MalformedOutputError
from hmgie.structured import MAX_REJECTED_STARTS, extract_json_value, prompt_json

NOT_FOUND = "no balanced JSON object or array found in model reply"
TOO_DEEP = "model reply nests too deeply to parse"


# The bracket scanner the extractor replaced, kept as the reference it must
# agree with: find the balanced span at each "{" or "[" (honouring JSON
# strings and escapes) and return the first span json.loads accepts.
_OPENERS = {"{": "}", "[": "]"}


def _scan_balanced(text, start):
    opener = text[start]
    closer = _OPENERS[opener]
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == opener:
            depth += 1
        elif ch == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def _reference_first_value(text):
    for i, ch in enumerate(text):
        if ch not in _OPENERS:
            continue
        end = _scan_balanced(text, i)
        if end is None:
            continue
        try:
            return json.loads(text[i:end])
        except json.JSONDecodeError:
            continue
    return None


def reference_extract(raw):
    if not raw or not raw.strip():
        raise MalformedOutputError("empty model reply")
    for fenced in re.findall(r"```[a-zA-Z0-9_-]*\n(.*?)```", raw, re.DOTALL):
        value = _reference_first_value(fenced)
        if value is not None:
            return value
    value = _reference_first_value(raw)
    if value is None:
        raise MalformedOutputError(NOT_FOUND)
    return value


def outcome(extract, raw):
    try:
        return "value", extract(raw)
    except MalformedOutputError as exc:
        return "error", str(exc)


def starts(text):
    return text.count("{") + text.count("[")


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)
json_containers = st.lists(json_values, max_size=4) | st.dictionaries(
    st.text(max_size=5), json_values, max_size=4
)
prose = st.text(max_size=20)
TOKENS = list('{}[]",:\\') + ["```\n", "```json\n", "```", '"a"', "1", " ", "x", "\n", "true"]
bracket_text = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)


class TestAgreesWithTheBracketScanner:
    @settings(max_examples=300)
    @given(value=json_containers, indent=st.sampled_from([None, 2]))
    def test_bare_and_fenced_values(self, value, indent):
        dumped = json.dumps(value, indent=indent)
        for raw in (dumped, f"```json\n{dumped}\n```", f"Here:\n```\n{dumped}\n```\nDone."):
            assert extract_json_value(raw) == value
            assert outcome(extract_json_value, raw) == outcome(reference_extract, raw)

    @settings(max_examples=300)
    @given(value=json_containers, before=prose, after=prose)
    def test_values_wrapped_in_prose(self, value, before, after):
        raw = before + json.dumps(value) + after
        assume(2 * starts(before) < MAX_REJECTED_STARTS)
        assert outcome(extract_json_value, raw) == outcome(reference_extract, raw)

    @settings(max_examples=1000)
    @given(raw=bracket_text)
    def test_text_of_brackets_quotes_and_backslashes(self, raw):
        # Fenced starts are tried twice (in their block and in the reply), so
        # fewer than half the budget in starts can never exhaust it.
        assume(2 * starts(raw) < MAX_REJECTED_STARTS)
        assert outcome(extract_json_value, raw) == outcome(reference_extract, raw)


class TestSearch:
    def test_fenced_block_searched_first(self):
        raw = 'Stray {"prose": 1} first.\n```json\n{"payload": 2}\n```'
        assert extract_json_value(raw) == {"payload": 2}

    def test_falls_back_to_the_reply_when_no_block_decodes(self):
        raw = '```\n{ not json\n```\nbut then {"payload": 2}'
        assert extract_json_value(raw) == {"payload": 2}

    def test_first_decodable_start_wins(self):
        assert extract_json_value('[1, {"a": 2}] and {"b": 3}') == [1, {"a": 2}]
        assert extract_json_value('{"a": } then [true]') == [True]

    @pytest.mark.parametrize("raw", ["", "   \n\t"])
    def test_empty_reply(self, raw):
        with pytest.raises(MalformedOutputError, match="empty model reply"):
            extract_json_value(raw)

    def test_deep_nesting_maps_recursion_error(self):
        depth = 50_000
        with pytest.raises(MalformedOutputError, match=TOO_DEEP) as exc_info:
            extract_json_value("[" * depth + "]" * depth)
        assert isinstance(exc_info.value.__cause__, RecursionError)

    def test_an_integer_past_the_digit_limit_is_malformed(self):
        # int() refuses a literal of more than 4,300 digits with a plain ValueError.
        with pytest.raises(MalformedOutputError, match="a number too long to parse"):
            extract_json_value('{"Perturbed-Caption": "a blue car", "n": 1' + "0" * 5000 + "}")


class TestRejectedStartBudget:
    def test_budget_counts_starts_in_the_reply(self):
        payload = '{"a": 1}'
        assert extract_json_value("{" * (MAX_REJECTED_STARTS - 1) + payload) == {"a": 1}
        with pytest.raises(MalformedOutputError, match=NOT_FOUND):
            extract_json_value("{" * MAX_REJECTED_STARTS + payload)

    def test_budget_shared_across_fenced_blocks_and_the_reply(self):
        # Each block rejects one start, and the reply pass rejects each again,
        # so no single block or pass comes near the budget on its own.
        half = MAX_REJECTED_STARTS // 2
        payload = '{"a": 1}'
        assert extract_json_value("```\n{\n```\n" * (half - 1) + payload) == {"a": 1}
        with pytest.raises(MalformedOutputError, match=NOT_FOUND):
            extract_json_value("```\n{\n```\n" * half + payload)

    @pytest.mark.parametrize(
        "raw",
        [
            "{" * 20_000,
            '{"' + "{" * 20_000,
            ("[" * 900 + "x") * 20,
            ("```\n" + "{" * 1000 + "\n```\n") * 1000,
        ],
        ids=["braces", "open-string", "deep-runs", "fences"],
    )
    def test_hostile_reply_fails_fast(self, raw):
        started = time.perf_counter()
        with pytest.raises(MalformedOutputError):
            extract_json_value(raw)
        assert time.perf_counter() - started < 0.5


# Any text, lone surrogates and control characters included.
ANY_TEXT = st.text(st.characters(exclude_categories=()))
PROMPT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | ANY_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(ANY_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=500)
@given(PROMPT_VALUES)
@example("lone \ud800 and \udfff")
@example("\x00\x01\x1f\x7f \t\n\r \" \\ /")
@example("line\u2028separator\u2029 é ß 中文 🐕")
@example([[], {}, [[]], {"": {}}, {"a": []}])
@example({"nested": [{"Parent-IDS": [], "Eval-Correct": False, "n": -0}], "x": None})
def test_prompt_json_matches_json_dumps(value):
    assert prompt_json(value) == json.dumps(value, indent=2, ensure_ascii=False)


def test_prompt_json_refuses_values_outside_its_domain():
    for value in (1.5, (1, 2), {1: "a"}, b"x"):
        with pytest.raises(TypeError):
            prompt_json(value)
