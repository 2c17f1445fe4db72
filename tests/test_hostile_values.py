"""Hostile settings and hostile values in replies cost at most their item.

A setting drawn from values of the wrong type or past float range is either
refused with SchemaViolationError when its object is built, or the object is
built and a whole run over it completes, every item ending in a report or an
error string. A well-shaped reply with one field swapped for a hostile
number either parses or fails as a reply the parser cannot use, and a batch
whose replies have any field swapped for a hostile JSON value, or come
fenced, in prose or blank, returns, and replays from its recorded log byte
for byte. The same holds for a forge run over such replies.
"""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    FORGE_ROLES,
    GRAPH_REPLY,
    HOSTILE_NUMBER_TEXTS,
    PAST_FLOAT_RANGE,
    PIPELINE_ROLES,
    TINY_PNG,
    WELL_SHAPED_REPLIES,
    DynamicBackend,
    fuzz_responder,
    hostile_replies,
    hostile_responder,
)
from hmgie import errors
from hmgie.errors import HmgieError, MalformedOutputError, SchemaViolationError
from hmgie.forge import (
    DEFAULT_GRANULARITY_SPECS,
    ForgeBindings,
    ForgeConfig,
    _parse_perturbed_caption,
    build_dataset,
)
from hmgie.gateway import Gateway, HttpBackend, ModelRequest, ScriptedBackend
from hmgie.hieg import LevelStats
from hmgie.pipeline import DatasetItem, PipelineConfig, RoleBindings, evaluate_batch
from hmgie.prompts import (
    parse_consistency_reply,
    parse_coverage_reply,
    parse_eval_reply,
    parse_question_batch,
    parse_vqa_reply,
)
from hmgie.scoring import ScoringConfig, compute_h_acc, compute_h_comp
from hmgie.semantic_graph import parse_semantic_graph

# Ints of 4,301 to 6,000 digits: past the digits ``str`` and ``repr`` convert.
PAST_DIGIT_LIMIT = st.integers(min_value=4300, max_value=5999).map(lambda n: 10**n)

# Values of the wrong type, or numbers a float cannot hold, for any setting.
HOSTILE_SETTINGS = st.one_of(
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),  # whole floats
    st.sampled_from([1e300, -1e300, sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.fractions(),
    st.text(max_size=8),
    st.none(),
    PAST_FLOAT_RANGE,
    PAST_FLOAT_RANGE.map(lambda n: -n),
    PAST_DIGIT_LIMIT,
    PAST_DIGIT_LIMIT.map(lambda n: -n),
)

HOSTILE_SETTINGS_SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _dynamic_gateway(**options) -> Gateway:
    # Seed 24 evaluates both items to the default depth of 5.
    return Gateway(DynamicBackend(fuzz_responder(24)), sleeper=lambda seconds: None, **options)


def _assert_batch_completes(config: PipelineConfig, image_path) -> None:
    items = [DatasetItem(id=str(i), image_path=str(image_path), caption=f"c{i}") for i in (0, 1)]
    batch = evaluate_batch(items, config)
    assert len(batch.results) == 2
    for result in batch.results:
        assert (result.report is None) != (result.error is None)
        if result.report is not None:
            assert 0 <= result.report.h_acc <= 1 and 0 <= result.report.h_comp <= 1


@pytest.fixture()
def image_path(tmp_path):
    path = tmp_path / "image.png"
    path.write_bytes(TINY_PNG)
    return path


@pytest.mark.parametrize("name", ["model_id", "temperature", "max_output_tokens", "attempt"])
@HOSTILE_SETTINGS_SETTINGS
@given(value=HOSTILE_SETTINGS)
def test_a_hostile_request_setting_is_refused_or_carried(name, value):
    try:
        request = ModelRequest("p", **{name: value})
    except SchemaViolationError:
        return
    assert Gateway(DynamicBackend(lambda r: "ok")).call(request).text == "ok"
    json.loads(b"".join(HttpBackend("http://localhost:1", "k")._body(request)))


@pytest.mark.parametrize(
    "name",
    [
        "model_id",
        "temperature",
        "max_output_tokens",
        "max_level",
        "max_questions_per_level",
        "weight_ratio",
        "intra_level_parallelism",
        "parallelism",
        "attempts",
    ],
)
@HOSTILE_SETTINGS_SETTINGS
@given(value=HOSTILE_SETTINGS)
def test_a_hostile_pipeline_setting_is_refused_or_costs_at_most_its_items(
    name, value, image_path
):
    try:
        if name == "attempts":
            gateway = _dynamic_gateway(attempts=value)
            config = PipelineConfig(backends=RoleBindings.uniform(gateway))
        else:
            gateway = _dynamic_gateway()
            config = PipelineConfig(
                backends=RoleBindings.uniform(gateway),
                **{"intra_level_parallelism": 1, name: value},
            )
    except SchemaViolationError:
        return
    _assert_batch_completes(config, image_path)


@pytest.mark.parametrize("name", ["weight_ratio", "max_level", "max_per_level"])
@HOSTILE_SETTINGS_SETTINGS
@given(value=HOSTILE_SETTINGS, as_tuple=st.booleans())
def test_a_hostile_scoring_setting_is_refused_or_scores_in_range(name, value, as_tuple):
    if name == "max_per_level" and as_tuple:
        value = (value, 10, 10, 10, 10)
    try:
        config = ScoringConfig(**{name: value})
    except SchemaViolationError:
        return
    full = compute_h_comp(config.max_per_level, config)
    accuracy = compute_h_acc([LevelStats(1, 1, 1.0), LevelStats(2, 2, 0.5)], config)
    assert 0 <= full <= 1.0000001 and 0 <= accuracy <= 1


@pytest.mark.parametrize(
    "name",
    [
        "model_id",
        "captioner_model_ids",
        "temperature",
        "max_output_tokens",
        "max_iterations",
        "parallelism",
    ],
)
@HOSTILE_SETTINGS_SETTINGS
@given(value=HOSTILE_SETTINGS)
def test_a_hostile_forge_setting_is_refused_or_costs_at_most_its_cell(
    name, value, image_path
):
    def respond(request):
        if request.prompt.startswith("You are constructing hard negative captions"):
            return json.dumps({"Perturbed-Caption": "a blue car"})
        if request.prompt.startswith("Does the image match"):
            return json.dumps({"Answer": "Yes"})
        return "a red car"

    gateway = Gateway(DynamicBackend(respond))
    setting = {"captioner_model_ids": (value,)} if name == "captioner_model_ids" else {name: value}
    try:
        config = ForgeConfig(
            bindings=ForgeBindings.uniform(gateway),
            specs=(DEFAULT_GRANULARITY_SPECS[0],),
            **setting,
        )
    except SchemaViolationError:
        return
    out = image_path.with_name("data.jsonl")
    summary = build_dataset([image_path], config, out)
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert summary.records_written == len(lines)
    assert lines or summary.errors


# Well-shaped replies, one per parser and field, with "@" where the field's
# value goes; each value is written into the reply as raw JSON text.
_QUESTION = {"Question": "q?", "Expected-Answer": "a", "Covered-Edges": [0]}
REPLY_FIELDS = [
    (lambda raw: parse_vqa_reply(raw, []), {"Answer": "a", "Confidence": "@"}),
    (lambda raw: parse_vqa_reply(raw, []), {"Answer": "@", "Confidence": 0.5}),
    (parse_eval_reply, {"Correct": "@"}),
    (parse_consistency_reply, {"Answer": "@"}),
    (
        lambda raw: parse_coverage_reply(raw, []),
        {"Verified-Complete": False, "Examined-Edges": [1, "@"], "Next-Level-Suggestion": "x"},
    ),
    (
        lambda raw: parse_coverage_reply(raw, []),
        {"Verified-Complete": False, "Next-Level-Suggestion": "@"},
    ),
    (
        lambda raw: parse_question_batch(raw, 1, []),
        {"Questions": [{**_QUESTION, "Covered-Edges": ["@", 1]}]},
    ),
    (
        lambda raw: parse_question_batch(raw, 1, []),
        {"Questions": [{**_QUESTION, "Parent-IDS": ["@"]}]},
    ),
    (lambda raw: parse_semantic_graph(raw, "caption", []), "graph-label"),
    (_parse_perturbed_caption, {"Perturbed-Caption": "@", "n": 1}),
]

def _reply_text(shape, number: str) -> str:
    if shape == "graph-label":
        graph = json.loads(GRAPH_REPLY)
        graph["nodes"][0]["label"] = "@"
        shape = graph
    return json.dumps(shape).replace('"@"', number, 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(REPLY_FIELDS), number=HOSTILE_NUMBER_TEXTS)
def test_a_hostile_number_in_a_reply_is_parsed_or_refused(case, number):
    parse, shape = case
    try:
        value = parse(_reply_text(shape, number))
    except (MalformedOutputError, SchemaViolationError):
        return
    confidence = getattr(value, "confidence", 0.0)
    assert 0 <= confidence <= 1


ERROR_NAMES = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, HmgieError)
}


def hostile_role_replies(roles) -> st.SearchStrategy[dict[str, list[str]]]:
    """Up to three hostile replies per role, beside its well-shaped one."""
    return st.fixed_dictionaries(
        {role: st.lists(hostile_replies(WELL_SHAPED_REPLIES[role]), max_size=3) for role in roles}
    )


def _recording_gateway(replies: dict[str, list[str]], log_dir: str) -> Gateway:
    return Gateway(
        DynamicBackend(hostile_responder(replies)),
        cache_dir=log_dir,
        record=True,
        sleeper=lambda seconds: None,
    )


def _assert_log_parses(log_dir: str) -> None:
    log = Path(log_dir, "replies.jsonl").read_text(encoding="ascii")
    assert all(isinstance(json.loads(line), list) for line in log.splitlines())


def _batch_outcome(gateway: Gateway, fan_out: int, image_path) -> list:
    """Each item's report text and error string, from 3 items over gateway."""
    config = PipelineConfig(
        backends=RoleBindings.uniform(gateway),
        intra_level_parallelism=fan_out,
        parallelism=fan_out,
    )
    items = [
        DatasetItem(id=str(i), image_path=str(image_path), caption=f"caption {i}")
        for i in range(3)
    ]
    batch = evaluate_batch(items, config)
    outcome = []
    for result in batch.results:
        if result.report is None:
            assert result.error.partition(":")[0] in ERROR_NAMES
            outcome.append((None, result.error))
            continue
        report = result.report
        assert 0 <= report.h_acc <= 1 and 0 <= report.h_comp <= 1
        assert all(0 <= node.confidence <= 1 for node in report.hieg.nodes())
        outcome.append((report.to_json(), None))
    return outcome


@pytest.mark.parametrize("fan_out", [1, 2])
@settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(replies=hostile_role_replies(PIPELINE_ROLES))
def test_a_batch_of_hostile_replies_returns_and_replays_byte_for_byte(
    fan_out, replies, image_path
):
    with tempfile.TemporaryDirectory() as log_dir:
        recorded = _batch_outcome(_recording_gateway(replies, log_dir), fan_out, image_path)
        replayer = Gateway(ScriptedBackend(fixtures={}), cache_dir=log_dir)
        assert _batch_outcome(replayer, fan_out, image_path) == recorded
        _assert_log_parses(log_dir)


def _forge_outcome(gateway: Gateway, image_paths, out: Path) -> tuple[str, tuple[str, ...]]:
    """The JSONL text and the errors of a two-captioner forge run over gateway."""
    config = ForgeConfig(
        bindings=ForgeBindings(
            captioners=(gateway, gateway), fusion=gateway, perturb=gateway, detector=gateway
        ),
        specs=DEFAULT_GRANULARITY_SPECS[:2],
        captioner_model_ids=("captioner-a", "captioner-b"),
        max_iterations=3,
        parallelism=2,
    )
    summary = build_dataset(image_paths, config, out)
    text = out.read_text(encoding="utf-8")
    lines = [json.loads(line) for line in text.splitlines()]
    assert summary.records_written == len(lines)
    # A cell ends in records and notes, or in one error naming its type.
    failures = []
    for entry in summary.errors:
        cell, _, rest = entry.partition(": ")
        name = re.match(r"(\w+): ", rest)
        if name is not None:
            assert name.group(1) in ERROR_NAMES, entry
            failures.append(cell)
    cleans = {f"{line['image_path']} g{line['granularity']}" for line in lines if line["label"] == 0}
    cells = {f"{path} g{spec.level}" for path in image_paths for spec in config.specs}
    assert sorted(failures) == sorted(cells - cleans)
    return text, summary.errors


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(replies=hostile_role_replies(FORGE_ROLES))
def test_a_forge_run_over_hostile_replies_returns_and_replays_byte_for_byte(
    replies, image_path
):
    second = image_path.with_name("second.png")
    second.write_bytes(TINY_PNG)
    image_paths = [str(image_path), str(second)]
    with tempfile.TemporaryDirectory() as log_dir:
        out = Path(log_dir, "data.jsonl")
        recorded = _forge_outcome(_recording_gateway(replies, log_dir), image_paths, out)
        replayer = Gateway(ScriptedBackend(fixtures={}), cache_dir=log_dir)
        assert _forge_outcome(replayer, image_paths, out) == recorded
        _assert_log_parses(log_dir)
