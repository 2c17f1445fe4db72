import ast
import base64
import hashlib
import http.client
import json
import os
import resource
import shlex
import socket
import ssl
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import urllib.parse
from contextlib import closing, contextmanager
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    TINY_PNG,
    DynamicBackend,
    LOCALHOST_CERT,
    FakeChatServer,
    FakeProxy,
    Fault,
    build_two_level_scenario,
    count_payload_hashes,
    scripted_backend_of,
    scripted_config,
    write_fixture_dir,
)
from hmgie import gateway as gateway_module
from hmgie.errors import (
    AuthError,
    EmptyHiegError,
    ExhaustedError,
    FixtureMissingError,
    GatewayError,
    MalformedOutputError,
    SchemaViolationError,
    TransientBackendError,
)
from hmgie.gateway import (
    CallRecord,
    Gateway,
    HttpBackend,
    ImageRef,
    ModelRequest,
    ScriptedBackend,
    cache_key,
    call_parsed,
    sniff_media_type,
)
from hmgie.forge import DEFAULT_GRANULARITY_SPECS, ForgeBindings, ForgeConfig, build_dataset
from hmgie.pipeline import RoleBindings, evaluate_pair


def text_request(prompt: str = "hello", **kwargs) -> ModelRequest:
    return ModelRequest(prompt=prompt, **kwargs)


class TestRequestValidation:
    def test_vision_helper(self):
        request = ModelRequest.vision("p", TINY_PNG)
        assert request.image is not None
        assert request.image_digest is not None

    @pytest.mark.parametrize("attempt", [0, -1])
    def test_attempt_below_one_rejected(self, attempt):
        with pytest.raises(SchemaViolationError):
            text_request(attempt=attempt)

    def test_image_must_be_a_ref(self):
        with pytest.raises(SchemaViolationError):
            ModelRequest(prompt="p", image=TINY_PNG)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_temperature_must_be_finite(self, temperature):
        with pytest.raises(SchemaViolationError):
            ModelRequest(prompt="p", temperature=temperature)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((5,), {}),
            ((None,), {}),
            (("p",), {"model_id": 7}),
            (("p",), {"model_id": None}),
            (("p",), {"temperature": True}),
            (("p",), {"max_output_tokens": True}),
            (("p",), {"attempt": True}),
            (("p",), {"temperature": Decimal("0.3")}),
            (("p",), {"temperature": Fraction(1, 3)}),
            (("p",), {"temperature": "0.3"}),
            (("p",), {"max_output_tokens": 2.5}),
            (("p",), {"max_output_tokens": 2048.0}),
            (("p",), {"max_output_tokens": 2**64}),
            (("p",), {"attempt": 2.0}),
            (("p",), {"temperature": 10**5000}),
            (("p",), {"temperature": 10**400}),
            (("p",), {"max_output_tokens": 10**5000}),
            (("p",), {"max_output_tokens": -(10**5000)}),
            (("p",), {"model_id": 10**5000}),
        ],
        ids=[
            "int-prompt",
            "none-prompt",
            "int-model-id",
            "none-model-id",
            "bool-temperature",
            "bool-max-output-tokens",
            "bool-attempt",
            "decimal-temperature",
            "fraction-temperature",
            "str-temperature",
            "fractional-max-output-tokens",
            "float-max-output-tokens",
            "max-output-tokens-past-maxsize",
            "float-attempt",
            "temperature-past-the-digit-limit",
            "temperature-past-float-range",
            "max-output-tokens-past-the-digit-limit",
            "max-output-tokens-below-minus-the-digit-limit",
            "model-id-past-the-digit-limit",
        ],
    )
    def test_a_value_neither_the_key_nor_the_wire_carries_is_refused(self, args, kwargs):
        # A bool passes ``>= 1`` and json writes it as true; an int prompt
        # would go on the wire as "content": 5. An int past 4,300 digits
        # cannot be written at all, so its message names it without them.
        with pytest.raises(SchemaViolationError, match=[*kwargs, "prompt"][0]):
            ModelRequest(*args, **kwargs)


class TestImageRef:
    def test_digest_computed_not_supplied(self):
        ref = ImageRef(TINY_PNG)
        assert ref.digest == hashlib.sha256(TINY_PNG).hexdigest()
        with pytest.raises(TypeError):
            ImageRef(TINY_PNG, digest="0" * 64)

    def test_data_url_and_media_type(self):
        ref = ImageRef(TINY_PNG)
        assert ref.media_type == "image/png"
        assert ref.base64_payload == base64.b64encode(TINY_PNG)
        assert ref.base64_payload is ref.base64_payload
        assert ImageRef(b"no magic").media_type is None

    def test_of_keeps_an_existing_ref(self):
        ref = ImageRef(TINY_PNG)
        assert ImageRef.of(ref) is ref
        assert ImageRef.of(TINY_PNG).payload is TINY_PNG

    def test_vision_request_carries_the_ref(self):
        ref = ImageRef(TINY_PNG)
        request = ModelRequest.vision("p", ref)
        assert request.image is ref
        assert request.image_payload is TINY_PNG
        assert request.image_digest == ref.digest
        assert ModelRequest.vision("p", TINY_PNG).image.digest == ref.digest

    def test_cache_key_same_for_ref_and_raw_bytes(self):
        payload = TINY_PNG + b"\x00" * 64
        from_ref = ModelRequest.vision("look", ImageRef(payload), model_id="m")
        from_bytes = ModelRequest.vision("look", payload, model_id="m")
        canonical = json.dumps(
            {
                "kind": "vision",
                "model_id": "m",
                "temperature": 0.3,
                "prompt": "look",
                "image_digest": hashlib.sha256(payload).hexdigest(),
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        recorded_key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert cache_key(from_ref) == cache_key(from_bytes) == recorded_key

    def test_vision_request_hashes_image_once(self, monkeypatch):
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        ref = ImageRef(TINY_PNG)
        for prompt in ("a", "b", "c"):
            ModelRequest.vision(prompt, ref)
        assert len(passes) == 1


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(text_request()) == cache_key(text_request())

    def test_whitespace_sensitive(self):
        assert cache_key(text_request("a b")) != cache_key(text_request("a  b"))

    def test_max_tokens_ignored(self):
        assert cache_key(text_request(max_output_tokens=16)) == cache_key(
            text_request(max_output_tokens=4096)
        )

    def test_model_and_temperature_matter(self):
        base = text_request()
        assert cache_key(base) != cache_key(text_request(model_id="other"))
        assert cache_key(base) != cache_key(text_request(temperature=0.7))

    def test_first_attempt_keeps_its_key(self):
        # Pinned digest: recorded fixtures are stored under first-attempt keys.
        request = text_request("Is the dog brown?", model_id="gpt-4o", temperature=0.3)
        expected = "8293c40ed023a51a835b02f13f1a0c52ee5ebccf0726ee31ee16ea60257c0890"
        assert request.attempt == 1
        assert cache_key(request) == expected
        assert cache_key(replace(request, attempt=1)) == expected

    def test_first_vision_attempt_keeps_its_key(self):
        # Pinned digest: a vision key must not move when the request changes shape.
        request = ModelRequest.vision("Is the dog brown?", TINY_PNG)
        expected = "78b2c999c5924215c1f421caef5b5209dc1ef0b34e870577a20f656e850b41de"
        assert request.key == expected

    def test_retry_attempts_have_their_own_keys(self):
        request = text_request("Is the dog brown?")
        keys = {cache_key(replace(request, attempt=n)) for n in (1, 2, 3)}
        assert len(keys) == 3

    def test_key_computed_once_at_construction(self, monkeypatch):
        calls = []
        original = gateway_module.cache_key
        monkeypatch.setattr(
            gateway_module, "cache_key", lambda r: calls.append(r) or original(r)
        )
        request = text_request("Is the dog brown?")
        assert request.key == original(request)
        assert len(calls) == 1
        backend = ScriptedBackend(fixtures={request.key: "yes"})
        assert Gateway(backend).call(request).text == "yes"
        assert len(calls) == 1

    def test_image_digest_matters(self):
        a = ModelRequest.vision("p", TINY_PNG)
        b = ModelRequest.vision("p", TINY_PNG + b"\x00")
        assert cache_key(a) != cache_key(b)

    def test_lone_surrogate_has_a_key(self):
        # A reply quoted in a later prompt may hold a lone surrogate.
        request = text_request("caption \ud800")
        assert request.key != text_request("caption ").key
        valid = text_request("caf\u00e9 \u2713")
        canonical = json.dumps(
            {"kind": "text", "model_id": "gpt-4o", "temperature": 0.3,
             "prompt": "caf\u00e9 \u2713", "image_digest": None},
            sort_keys=True, ensure_ascii=False,
        )
        assert valid.key == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _json_dumps_key(request: ModelRequest) -> str:
    """The key as json.dumps wrote its canonical text, kept as the reference
    the directly formatted key must agree with."""
    fields = {
        "kind": "text" if request.image is None else "vision",
        "model_id": request.model_id,
        "temperature": request.temperature,
        "prompt": request.prompt,
        "image_digest": request.image_digest,
    }
    if request.attempt >= 2:
        fields["attempt"] = request.attempt
    canonical = json.dumps(fields, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


ANY_TEXT = st.text(st.characters(exclude_categories=()))


@settings(max_examples=500, deadline=None)
@given(
    prompt=ANY_TEXT,
    model_id=ANY_TEXT,
    temperature=st.integers(min_value=0, max_value=10**20)
    | st.floats(min_value=0, allow_infinity=False, allow_nan=False),
    attempt=st.integers(min_value=1, max_value=4),
    image=st.sampled_from([None, TINY_PNG, b"\x89PNG\r\n\x1a\n" + bytes(range(256))]),
)
@example(prompt="\ud800 \u2028 \x00 \" \\ é", model_id="m\udfff", temperature=0,
         attempt=2, image=None)
def test_key_is_the_digest_of_the_json_dumps_form(prompt, model_id, temperature, attempt, image):
    request = ModelRequest(
        prompt,
        model_id=model_id,
        temperature=temperature,
        image=None if image is None else ImageRef(image),
        attempt=attempt,
    )
    assert request.key == cache_key(request) == _json_dumps_key(request)


class TestScriptedBackend:
    def test_replay_contract(self):
        request = text_request("scripted prompt")
        backend = ScriptedBackend(fixtures={cache_key(request): "scripted reply"})
        gateway = Gateway(backend)
        assert gateway.call(request).text == "scripted reply"

    def test_missing_fixture_names_key(self):
        backend = ScriptedBackend(fixtures={})
        gateway = Gateway(backend)
        request = text_request("nothing recorded")
        with pytest.raises(ExhaustedError) as exc_info:
            gateway.call(request)
        assert cache_key(request) in str(exc_info.value)
        assert isinstance(exc_info.value, FixtureMissingError)

    def test_fixture_dir(self, tmp_path):
        request = text_request("on disk")
        write_fixture_dir({cache_key(request): "from disk"}, tmp_path)
        gateway = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        assert gateway.call(request).text == "from disk"

    def test_requires_some_fixture_source(self, tmp_path):
        with pytest.raises(ValueError):
            ScriptedBackend()
        # One source: a mapping and a directory together are refused too.
        with pytest.raises(ValueError, match="not both"):
            ScriptedBackend(fixture_dir=tmp_path, fixtures={})

    def test_call_trace_records_requests(self):
        request = text_request("traced")
        backend = ScriptedBackend(fixtures={cache_key(request): "ok"})
        Gateway(backend).call(request)
        assert [r.prompt for r in backend.calls] == ["traced"]

    def test_call_trace_keeps_digest_not_payload(self):
        request = ModelRequest.vision("look", TINY_PNG, model_id="m")
        backend = ScriptedBackend(fixtures={cache_key(request): "ok"})
        Gateway(backend).call(request)
        assert backend.calls == [CallRecord("look", "m", request.image_digest)]
        assert not hasattr(backend.calls[0], "image_payload")


class TestCaching:
    def test_second_call_is_cached_and_byte_identical(self):
        request = text_request("cache me")
        backend = DynamicBackend(lambda r: "expensive result")
        gateway = Gateway(backend)
        first = gateway.call(request)
        second = gateway.call(request)
        assert first.cached == 0
        assert second.cached == 1
        assert second.text == first.text
        assert len(backend.calls) == 1

    def test_record_mode_needs_a_cache_dir(self):
        with pytest.raises(ValueError, match="record mode requires a cache_dir"):
            Gateway(DynamicBackend(lambda r: "live"), record=True)

    def test_record_then_replay_round_trip(self, tmp_path):
        request = text_request("record me")
        live = DynamicBackend(lambda r: "live text")
        recorder = Gateway(live, cache_dir=tmp_path, record=True)
        recorded = recorder.call(request).text

        replay = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        replayed = replay.call(request)
        assert replayed.text == recorded
        assert len(live.calls) == 1

    def test_disk_cache_read_through(self, tmp_path):
        request = text_request("disk hit")
        write_fixture_dir({cache_key(request): "stored"}, tmp_path)
        live = DynamicBackend(lambda r: "should not be called")
        gateway = Gateway(live, cache_dir=tmp_path)
        response = gateway.call(request)
        assert response.text == "stored"
        assert response.cached == 1
        assert not live.calls

    def test_no_write_without_record(self, tmp_path):
        request = text_request("transient")
        gateway = Gateway(DynamicBackend(lambda r: "x"), cache_dir=tmp_path)
        gateway.call(request)
        assert list(tmp_path.iterdir()) == []

    def test_coalescing_single_live_call(self):
        release = threading.Event()

        def slow_responder(request):
            release.wait(timeout=5)
            return "slow"

        backend = DynamicBackend(slow_responder)
        gateway = Gateway(backend)
        request = text_request("dup")
        results = []

        def worker():
            results.append(gateway.call(request).text)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert results == ["slow"] * 4
        assert len(backend.calls) == 1

    def test_recorded_miss_opens_no_key_file(self, tmp_path, monkeypatch):
        # Replies live in the log alone; a miss looks for no file per key.
        opened = []

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(".txt"):
                opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(gateway_module, "open", counting_open, raising=False)
        gateway = Gateway(DynamicBackend(lambda r: "live"), cache_dir=tmp_path, record=True)
        for prompt in ("first", "second"):
            request = text_request(prompt)
            assert gateway.call(request).text == "live"
            assert opened == []


def _log_entries(directory: Path) -> list:
    """The [key, reply] entries of a directory's reply log, in file order."""
    return [json.loads(line) for line in (directory / "replies.jsonl").read_bytes().splitlines()]


class TestRecordWrites:
    def test_failed_write_leaves_no_file_under_the_key(self, tmp_path, monkeypatch):
        # The write fails after the reply log was opened.
        def write_failing(fd, data):
            raise OSError("disk full")

        request = text_request("record me")
        backend = DynamicBackend(lambda r: "half a reply")
        broken = Gateway(backend, cache_dir=tmp_path, record=True)
        with monkeypatch.context() as patch:
            patch.setattr(gateway_module.os, "write", write_failing)
            with pytest.raises(OSError, match="disk full"):
                broken.call(request)
        log = tmp_path / "replies.jsonl"
        assert list(tmp_path.iterdir()) == [log]
        assert log.read_bytes() == b""

        live = DynamicBackend(lambda r: "whole reply")
        assert Gateway(live, cache_dir=tmp_path, record=True).call(request).text == "whole reply"
        assert len(live.calls) == 1
        assert _log_entries(tmp_path) == [[request.key, "whole reply"]]
        assert list(tmp_path.iterdir()) == [log]

    def test_short_write_raises_and_the_next_line_starts_afresh(self, tmp_path, monkeypatch):
        real_write = os.write

        def write_half(fd, data):
            return real_write(fd, data[: len(data) // 2])

        first, second = text_request("first"), text_request("second")
        gateway = Gateway(
            DynamicBackend(lambda r: f"{r.prompt} reply"), cache_dir=tmp_path, record=True
        )
        with monkeypatch.context() as patch:
            patch.setattr(gateway_module.os, "write", write_half)
            with pytest.raises(OSError, match="short write"):
                gateway.call(first)
        assert gateway.call(second).text == "second reply"

        torn, whole = (tmp_path / "replies.jsonl").read_bytes().splitlines()
        assert json.loads(whole) == [second.key, "second reply"]
        whole_first = (json.dumps([first.key, "first reply"]) + "\n").encode("ascii")
        assert torn == whole_first[: len(whole_first) // 2]
        replay = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        assert replay.call(second).text == "second reply"
        with pytest.raises(FixtureMissingError):
            replay.call(first)

    def test_lone_surrogate_recorded_and_replayed(self, tmp_path):
        # json.loads turns a "\ud800" escape in an HTTP body into a lone
        # surrogate; record mode must serve it as live mode does.
        request = text_request("record me")
        reply = "half a reply \ud800"
        recorder = Gateway(DynamicBackend(lambda r: reply), cache_dir=tmp_path, record=True)
        assert recorder.call(request).text == reply
        log = tmp_path / "replies.jsonl"
        assert log.read_bytes() == f'["{request.key}", "half a reply \\ud800"]\n'.encode("ascii")

        assert Gateway(ScriptedBackend(fixture_dir=tmp_path)).call(request).text == reply
        offline = DynamicBackend(lambda r: None)
        cached = Gateway(offline, cache_dir=tmp_path).call(request)
        assert (cached.text, cached.cached) == (reply, 1)
        assert offline.calls == []

        valid, text = text_request("valid"), "caf\u00e9 \u2713"
        writer = Gateway(DynamicBackend(lambda r: text), cache_dir=tmp_path, record=True)
        writer.call(valid)
        assert log.read_bytes().splitlines()[1] == (
            f'["{valid.key}", "caf\\u00e9 \\u2713"]'.encode("ascii")
        )


class TestReplyLog:
    def test_golden_line(self, tmp_path):
        recorder = Gateway(DynamicBackend(lambda r: 'a "reply"\n'), cache_dir=tmp_path, record=True)
        recorder.call(text_request("golden"))
        assert (tmp_path / "replies.jsonl").read_bytes() == (
            b'["374550fe500183c66f6be4838a0e47f2ba075fecd6c99b814a119bed3eef8f4a", '
            b'"a \\"reply\\"\\n"]\n'
        )

    def test_record_leaves_one_private_log_and_no_file_per_reply(self, tmp_path):
        cache_dir = tmp_path / "cache"
        gateway = Gateway(DynamicBackend(lambda r: r.prompt), cache_dir=cache_dir, record=True)
        requests = [text_request(f"prompt {n}") for n in range(12)]
        for request in requests:
            gateway.call(request)
        log = cache_dir / "replies.jsonl"
        assert list(cache_dir.iterdir()) == [log]
        assert stat.S_IMODE(log.stat().st_mode) == 0o600
        assert _log_entries(cache_dir) == [[r.key, r.prompt] for r in requests]

    def test_torn_last_line_is_skipped_and_the_next_record_reads_back(self, tmp_path):
        first, second = text_request("first"), text_request("second")
        Gateway(DynamicBackend(lambda r: "one"), cache_dir=tmp_path, record=True).call(first)
        log = tmp_path / "replies.jsonl"
        with open(log, "ab") as handle:
            handle.write(b'["' + b"f" * 64 + b'", "a reply cut sh')  # a crash mid-line
        assert Gateway(ScriptedBackend(fixture_dir=tmp_path)).call(first).text == "one"

        Gateway(DynamicBackend(lambda r: "two"), cache_dir=tmp_path, record=True).call(second)
        lines = log.read_bytes().split(b"\n")
        assert lines[1] == b'["' + b"f" * 64 + b'", "a reply cut sh'
        assert lines[3] == b""
        replay = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        assert [replay.call(r).text for r in (first, second)] == ["one", "two"]

    def test_a_second_gateway_sees_the_first_ones_replies_on_a_miss(self, tmp_path):
        early, late = text_request("early"), text_request("late")
        recorder = Gateway(DynamicBackend(lambda r: r.prompt), cache_dir=tmp_path, record=True)
        recorder.call(early)
        offline = DynamicBackend(lambda r: None)
        reader = Gateway(offline, cache_dir=tmp_path)
        replay = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        assert reader.call(early).cached == 1
        assert replay.call(early).text == "early"

        recorder.call(late)  # after both readers indexed the log
        response = reader.call(late)
        assert (response.text, response.cached) == ("late", 1)
        assert replay.call(late).text == "late"
        assert offline.calls == []

    def test_first_line_wins_for_a_duplicate_key(self, tmp_path):
        request = text_request("twice")
        log = tmp_path / "replies.jsonl"
        log.write_bytes(json.dumps([request.key, "first"]).encode("ascii") + b"\n")
        early = ScriptedBackend(fixture_dir=tmp_path)
        assert early.complete(request) == "first"
        with open(log, "ab") as handle:
            handle.write(json.dumps([request.key, "second"]).encode("ascii") + b"\n")
        with pytest.raises(FixtureMissingError):
            early.complete(text_request("unrecorded"))  # indexes the second line
        late = ScriptedBackend(fixture_dir=tmp_path)
        cached = Gateway(DynamicBackend(lambda r: None), cache_dir=tmp_path)
        replies = [early.complete(request), late.complete(request), cached.call(request).text]
        assert replies == ["first"] * 3

    @pytest.mark.parametrize(
        "reply", ["line one\r\nline two\rend", "lone \ud800 and \udfff", "caf\u00e9 \u2713\x00"]
    )
    def test_reply_round_trips_byte_exact(self, tmp_path, reply):
        request = text_request("exact")
        Gateway(DynamicBackend(lambda r: reply), cache_dir=tmp_path, record=True).call(request)
        assert Gateway(ScriptedBackend(fixture_dir=tmp_path)).call(request).text == reply
        cached = Gateway(DynamicBackend(lambda r: None), cache_dir=tmp_path).call(request)
        assert (cached.text, cached.cached) == (reply, 1)
        assert (tmp_path / "replies.jsonl").read_bytes().isascii()

    def test_legacy_fixture_dir_replays_the_two_level_scenario(self, tmp_path):
        config = scripted_config()
        build_two_level_scenario(config)
        expected = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config).to_json()
        write_fixture_dir(scripted_backend_of(config).fixtures, tmp_path)
        before = sorted(tmp_path.iterdir())

        gateway = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        replay = replace(config, backends=RoleBindings.uniform(gateway))
        assert evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", replay).to_json() == expected
        assert sorted(tmp_path.iterdir()) == before

    def test_readme_command_converts_key_files_to_a_log(self, tmp_path):
        # Earlier versions recorded one <key>.txt file per reply, in UTF-8
        # with lone surrogates passed through.
        config = scripted_config()
        build_two_level_scenario(config)
        expected = evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", config).to_json()
        fixtures = dict(scripted_backend_of(config).fixtures)
        exact = text_request("exact")
        fixtures[exact.key] = "line one\r\nline two\rend \ud800"
        for key, reply in fixtures.items():
            (tmp_path / f"{key}.txt").write_bytes(reply.encode("utf-8", "surrogatepass"))

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        command = next(
            line for line in readme.splitlines() if line.startswith("python3 -c 'import pathlib")
        )
        argv = shlex.split(command)
        assert argv[0] == "python3" and argv[-1] == "DIR"
        subprocess.run(
            [sys.executable, *argv[1:-1], str(tmp_path)],
            env=_package_env(), check=True, timeout=60,
        )

        assert dict(_log_entries(tmp_path)) == fixtures
        gateway = Gateway(ScriptedBackend(fixtures={}), cache_dir=tmp_path)
        replay = replace(config, backends=RoleBindings.uniform(gateway))
        assert evaluate_pair(TINY_PNG, "A brown dog lies on a sofa.", replay).to_json() == expected
        assert gateway.call(exact).text == fixtures[exact.key]
        assert gateway.backend.calls == []


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedOutputError(f"not a number: {text!r}") from None


def _replies(*texts: str) -> DynamicBackend:
    """A backend serving texts in order, one per backend call."""
    queue = list(texts)
    return DynamicBackend(lambda request: queue.pop(0))


class TestCallParsed:
    def test_retry_reaches_the_backend(self):
        backend = _replies("garbage", "42")
        rejected = []
        value = call_parsed(
            Gateway(backend),
            text_request("count"),
            _parse_int,
            lambda attempt, exc: rejected.append((attempt, type(exc))),
        )
        assert value == 42
        assert [r.attempt for r in backend.calls] == [1, 2]
        assert {r.prompt for r in backend.calls} == {"count"}
        assert rejected == [(1, MalformedOutputError)]

    def test_none_after_every_attempt_rejected(self):
        backend = _replies("a", "b", "c")
        rejected = []
        value = call_parsed(
            Gateway(backend),
            text_request("count"),
            _parse_int,
            lambda attempt, exc: rejected.append(attempt),
        )
        assert value is None
        assert rejected == [1, 2, 3]
        assert len(backend.calls) == 3

    def test_schema_violation_is_a_rejection(self):
        def parse(text):
            if text == "bad":
                raise SchemaViolationError("wrong shape")
            return text

        backend = _replies("bad", "good")
        gateway = Gateway(backend, attempts=2)
        assert call_parsed(gateway, text_request(), parse, lambda *a: None) == "good"

    def test_other_errors_propagate_without_retry(self):
        def parse(text):
            raise EmptyHiegError("no items")

        backend = _replies("[]", "[]")
        with pytest.raises(EmptyHiegError):
            call_parsed(Gateway(backend), text_request(), parse, lambda *a: None)
        assert len(backend.calls) == 1

    def test_retry_request_carries_its_own_key(self):
        backend = _replies("garbage", "42")
        value = call_parsed(
            Gateway(backend, attempts=2), text_request("count"), _parse_int, lambda *a: None
        )
        assert value == 42
        first, second = backend.calls
        assert second.attempt == 2
        assert second.key != first.key
        assert second.key == cache_key(replace(first, attempt=2))

    def test_vision_retry_carries_the_image_ref(self, monkeypatch):
        passes = count_payload_hashes(monkeypatch, TINY_PNG)
        image = ImageRef(TINY_PNG)
        backend = _replies("garbage", "7")
        request = ModelRequest.vision("how many?", image)
        gateway = Gateway(backend, attempts=2)
        assert call_parsed(gateway, request, _parse_int, lambda *a: None) == 7
        assert [r.image for r in backend.calls] == [image, image]
        assert [r.attempt for r in backend.calls] == [1, 2]
        assert len(passes) == 1

    def test_record_then_replay_serves_every_attempt(self, tmp_path):
        live = _replies("garbage", "42")
        recorder = Gateway(live, cache_dir=tmp_path, record=True)
        assert call_parsed(recorder, text_request("count"), _parse_int, lambda *a: None) == 42

        scripted = ScriptedBackend(fixture_dir=tmp_path)
        replayed = call_parsed(
            Gateway(scripted), text_request("count"), _parse_int, lambda *a: None
        )
        assert replayed == 42
        assert len(scripted.calls) == 2


class TestInflightGates:
    def test_gates_pruned_and_duplicates_coalesced(self):
        """Threads race over shared keys with a short switch interval; every
        key reaches the backend once and no gate outlives its call."""
        keys = [f"k{i}" for i in range(6)]

        def responder(request):
            time.sleep(0.002)
            if request.prompt == "k5":
                raise TransientBackendError("always down")
            return f"reply to {request.prompt}"

        backend = DynamicBackend(responder)
        gateway = Gateway(backend, attempts=1)
        replies, errors = [], []

        def worker(offset):
            for key in keys[offset:] + keys[:offset]:
                try:
                    replies.append((key, gateway.call(text_request(key)).text))
                except ExhaustedError:
                    errors.append(key)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 6,)) for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not any(isinstance(e, gateway_module._Gate) for e in gateway._replies.values())
        assert sorted(replies) == sorted((k, f"reply to {k}") for k in keys[:5] for _ in range(12))
        prompts = [r.prompt for r in backend.calls]
        for key in keys[:5]:
            assert prompts.count(key) == 1
        # a failure is never cached: only callers waiting on its gate share
        # it, so the failing key is tried at least once and at most per caller
        assert errors == ["k5"] * 12
        assert 1 <= prompts.count("k5") <= 12

    def test_recorded_duplicates_coalesced(self, tmp_path):
        """In record mode a duplicate that waited on the gate is served the
        reply its twin logged."""
        keys = [f"k{i}" for i in range(4)]
        backend = DynamicBackend(lambda r: time.sleep(0.002) or f"reply to {r.prompt}")
        gateway = Gateway(backend, cache_dir=tmp_path, record=True)
        replies = []

        def worker(offset):
            for key in keys[offset:] + keys[:offset]:
                replies.append((key, gateway.call(text_request(key)).text))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 4,)) for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(replies) == sorted((k, f"reply to {k}") for k in keys for _ in range(12))
        assert sorted(r.prompt for r in backend.calls) == keys
        assert sorted(key for key, _ in _log_entries(tmp_path)) == sorted(
            text_request(k).key for k in keys
        )

    def test_failure_goes_to_every_waiter_on_the_gate(self):
        """Duplicates that wait on a failing call get its error instead of
        running the whole retry loop again, one after another."""
        callers = 12
        arrived = []
        all_arrived = threading.Event()

        def always_fails(request):
            # Hold the first attempt until every caller is at the gate.
            all_arrived.wait(timeout=10)
            time.sleep(0.05)
            raise TransientBackendError("always down")

        backend = DynamicBackend(always_fails)
        gateway = Gateway(backend, attempts=3, sleeper=lambda s: None)
        errors = []

        def worker():
            arrived.append(1)
            if len(arrived) == callers:
                all_arrived.set()
            try:
                gateway.call(text_request("down"))
            except ExhaustedError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(errors) == callers
        assert len(backend.calls) == 3
        assert not any(isinstance(e, gateway_module._Gate) for e in gateway._replies.values())
        # the failure is not cached beyond its gate
        with pytest.raises(ExhaustedError):
            gateway.call(text_request("down"))
        assert len(backend.calls) == 6

    def test_a_base_exception_goes_to_every_waiter_and_leaves_no_entry(self):
        """The maker's call ends in a BaseException that is no Exception
        while duplicates wait: none of them calls the backend again, each
        raises that exception, and a later call starts afresh."""

        class Abort(BaseException):
            pass

        duplicates = 4
        entered, arrived, release = threading.Event(), [], threading.Event()
        abort = Abort("stop")

        def responder(request):
            if len(backend.calls) == 1:
                entered.set()
                release.wait(timeout=10)
                raise abort
            return "second reply"

        backend = DynamicBackend(responder)
        gateway = Gateway(backend)
        raised = []

        def worker():
            arrived.append(1)
            try:
                gateway.call(text_request("abort"))
            except Abort as exc:
                raised.append(exc)

        maker = threading.Thread(target=worker)
        maker.start()
        assert entered.wait(timeout=10)
        threads = [threading.Thread(target=worker) for _ in range(duplicates)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while len(arrived) <= duplicates and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.1)  # let the duplicates reach the gate
        release.set()
        for thread in [maker, *threads]:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in [maker, *threads])
        assert len(backend.calls) == 1
        assert len(raised) == duplicates + 1
        assert all(exc is abort for exc in raised)
        assert gateway._replies == {}
        response = gateway.call(text_request("abort"))
        assert (response.text, response.cached) == ("second reply", 0)
        assert len(backend.calls) == 2


class TestRetry:
    def test_retries_then_succeeds(self):
        attempts = {"n": 0}

        def flaky(request):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientBackendError("try again")
            return "third time lucky"

        sleeps = []
        gateway = Gateway(DynamicBackend(flaky), attempts=3, sleeper=sleeps.append)
        assert gateway.call(text_request()).text == "third time lucky"
        assert sleeps == [1.0, 2.0]

    def test_exhausted_after_attempts(self):
        def always_fails(request):
            raise TransientBackendError("nope")

        gateway = Gateway(DynamicBackend(always_fails), attempts=3, sleeper=lambda s: None)
        with pytest.raises(ExhaustedError, match="after 3 attempts"):
            gateway.call(text_request())

    def test_backoff_total_never_exceeds_ceiling(self):
        def always_fails(request):
            raise TransientBackendError("nope")

        sleeps = []
        gateway = Gateway(DynamicBackend(always_fails), attempts=10, sleeper=sleeps.append)
        with pytest.raises(ExhaustedError, match="after 10 attempts"):
            gateway.call(text_request())
        assert sleeps == [1.0, 2.0, 4.0, 8.0, 15.0]
        assert sum(sleeps) == gateway_module.MAX_TOTAL_DELAY

    def test_auth_error_not_retried(self):
        calls = {"n": 0}

        def rejects(request):
            calls["n"] += 1
            raise AuthError("bad key")

        gateway = Gateway(DynamicBackend(rejects), sleeper=lambda s: None)
        with pytest.raises(AuthError):
            gateway.call(text_request())
        assert calls["n"] == 1


def _vision_body(prompt, payload, media) -> bytes:
    """The chat-completions body of a vision request, as the wire shape
    defines it, serialized the standard way."""
    encoded = base64.b64encode(payload).decode("ascii")
    messages = [
        {
            "role": "user",
            "content": [
                {"type": "text", "text": prompt},
                {"type": "image_url", "image_url": {"url": f"data:{media};base64,{encoded}"}},
            ],
        }
    ]
    body = {"model": "vm", "temperature": 0.1, "max_tokens": 64, "messages": messages}
    return json.dumps(body).encode()


def _package_env() -> dict:
    src = str(Path(gateway_module.__file__).parents[1])
    tests = str(Path(__file__).parent)
    path = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


@contextmanager
def raw_reply_server(reply: bytes):
    """A server that reads one request on each connection it accepts and
    answers with ``reply`` byte for byte, then waits for the client to
    close; yields its endpoint."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return  # the listener was closed
            with connection, connection.makefile("rb") as request:
                length = 0
                while (line := request.readline()) not in (b"\r\n", b""):
                    if line.startswith(b"Content-Length:"):
                        length = int(line[15:])
                request.read(length)
                connection.sendall(reply)
                while connection.recv(65536):
                    pass

    threading.Thread(target=serve, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        listener.close()


def _reply(status_line: bytes, headers: bytes, content: str) -> bytes:
    body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    return b"%s\r\n%sContent-Length: %d\r\n\r\n%s" % (status_line, headers, len(body), body)


def _https_proxy(monkeypatch, url: str) -> None:
    """Send https endpoints through ``url``, whatever the environment held."""
    for name in ("no_proxy", "NO_PROXY", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("https_proxy", url)


class TestHttpBackend:
    def test_package_import_leaves_requests_unloaded(self):
        """Importing the package loads no HTTP or TLS module."""
        probe = (
            "import sys, hmgie; "
            "print([m for m in ('requests', 'http.client', 'ssl') if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=_package_env(), capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_no_module_imports_http_client(self):
        """HttpBackend opens its sockets and speaks HTTP itself."""
        package = Path(gateway_module.__file__).parent
        importers = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                    names.append(node.module or "")
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name == "http.client" or name.startswith("http.client.") for name in names):
                    importers.append(path.name)
        assert importers == []

    def test_round_trips_need_no_third_party_package(self):
        probe = """
import sys
sys.modules["requests"] = None  # any import of it now fails
from contextlib import closing
from helpers import TINY_PNG, FakeChatServer
from hmgie.gateway import HttpBackend, ModelRequest
with FakeChatServer() as server, closing(HttpBackend(server.endpoint, "k")) as backend:
    print(backend.complete(ModelRequest("ping")))
    print(backend.complete(ModelRequest.vision("look", TINY_PNG)))
"""
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=_package_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["canned reply", "canned reply"]

    def test_https_connection_verifies_certificates(self, monkeypatch):
        """A certificate the client trusts, for the host the endpoint names,
        is accepted; the same certificate for another name, or untrusted,
        fails the call as a transport failure."""
        for name in ("https_proxy", "HTTPS_PROXY", "SSL_CERT_DIR"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("SSL_CERT_FILE", str(LOCALHOST_CERT))
        with FakeChatServer(tls=True) as server:
            port = server.endpoint.rpartition(":")[2]
            with closing(HttpBackend(server.endpoint, "k")) as backend:
                assert backend.complete(text_request()) == "canned reply"
            by_address = HttpBackend(f"https://127.0.0.1:{port}", "k")
            monkeypatch.delenv("SSL_CERT_FILE")
            untrusted = HttpBackend(server.endpoint, "k")
            for backend in (by_address, untrusted):
                with pytest.raises(TransientBackendError) as exc_info:
                    backend.complete(text_request())
                assert isinstance(exc_info.value.__cause__, ssl.SSLCertVerificationError)
                assert backend._idle == []
        assert len(server.requests) == 1

    def test_https_proxy_tunnels(self, monkeypatch):
        """The proxy is sent one CONNECT head naming the endpoint, with the
        proxy URL's credentials; TLS runs inside the tunnel, whose socket
        is pooled and carries the second call too."""
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        monkeypatch.setenv("SSL_CERT_FILE", str(LOCALHOST_CERT))
        with FakeChatServer(tls=True) as server:
            port = int(server.endpoint.rpartition(":")[2])
            with FakeProxy(target=("127.0.0.1", port)) as proxy:
                _https_proxy(monkeypatch, f"http://user:pw@{proxy.address}")
                with closing(HttpBackend(server.endpoint, "k")) as backend:
                    assert backend.complete(text_request("first")) == "canned reply"
                    (sock,) = backend._idle
                    assert backend.complete(text_request("second")) == "canned reply"
                    assert backend._idle == [sock]
        auth = base64.b64encode(b"user:pw").decode("ascii")
        assert proxy.heads == [
            (
                f"CONNECT localhost:{port} HTTP/1.1\r\nHost: localhost:{port}\r\n"
                f"Proxy-Authorization: Basic {auth}\r\n\r\n"
            ).encode("ascii")
        ]
        assert [r["messages"][0]["content"] for r in server.requests] == ["first", "second"]
        assert server.headers[0]["Host"] == f"localhost:{port}"
        assert server.peak_connections == 1

    def test_tunnel_to_an_idn_host_names_it_in_idna_and_the_forge_run_completes(
        self, monkeypatch, tmp_path
    ):
        """A proxy that cannot reach the endpoint fails each of its calls,
        and build_dataset still writes its file, noting the cell's failure."""
        image = tmp_path / "cat.png"
        image.write_bytes(TINY_PNG)
        out = tmp_path / "data.jsonl"
        with FakeProxy(reply=b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n") as proxy:
            _https_proxy(monkeypatch, f"http://{proxy.address}")
            with closing(HttpBackend("https://b\u00fccher.example/v1", "k")) as backend:
                config = ForgeConfig(
                    bindings=ForgeBindings.uniform(Gateway(backend, sleeper=lambda s: None)),
                    specs=DEFAULT_GRANULARITY_SPECS[:1],
                )
                summary = build_dataset([image], config, out)
        assert out.read_text() == ""
        (error,) = summary.errors
        assert error.startswith(f"{image} g1: ") and "HTTP 502" in error
        assert proxy.heads[0].startswith(
            b"CONNECT xn--bcher-kva.example:443 HTTP/1.1\r\nHost: xn--bcher-kva.example:443\r\n"
        )

    def test_tunnel_to_an_ipv6_endpoint_brackets_its_address(self, monkeypatch):
        with FakeProxy(reply=b"HTTP/1.1 502 Bad Gateway\r\n\r\n") as proxy:
            _https_proxy(monkeypatch, f"http://{proxy.address}")
            with pytest.raises(TransientBackendError, match="HTTP 502"):
                HttpBackend("https://[::1]:8443/v1", "k").complete(text_request())
        assert proxy.heads == [b"CONNECT [::1]:8443 HTTP/1.1\r\nHost: [::1]:8443\r\n\r\n"]

    @pytest.mark.parametrize(
        "reply, error, requests",
        [
            (b"HTTP/1.1 407 Proxy Authentication Required\r\n\r\n", AuthError, 1),
            (b"HTTP/1.1 403 Forbidden\r\n\r\n", AuthError, 1),
            (b"HTTP/1.1 503 Busy\r\nRetry-After: 2\r\n\r\n", ExhaustedError, 3),
            (b"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\n\r\n", GatewayError, 1),
        ],
        ids=["407", "403", "503", "302"],
    )
    def test_a_tunnel_reply_maps_to_an_error_as_any_reply_does(
        self, monkeypatch, reply, error, requests
    ):
        sleeps = []
        with FakeProxy(reply=reply) as proxy:
            _https_proxy(monkeypatch, f"http://{proxy.address}")
            backend = HttpBackend("https://api.example.com/v1", "k")
            with pytest.raises(error) as exc_info:
                Gateway(backend, attempts=3, sleeper=sleeps.append).call(text_request())
        assert type(exc_info.value) is error
        assert len(proxy.heads) == requests
        assert sleeps == [2.0, 2.0][: requests - 1]

    def test_bytes_after_a_tunnel_reply_are_a_transport_failure(self, monkeypatch):
        with FakeProxy(reply=b"HTTP/1.1 200 OK\r\n\r\nstray bytes") as proxy:
            _https_proxy(monkeypatch, f"http://{proxy.address}")
            with pytest.raises(TransientBackendError, match="ConnectionError") as exc_info:
                HttpBackend("https://api.example.com/v1", "k").complete(text_request())
        assert "after its reply to CONNECT" in str(exc_info.value)

    def test_http_proxy_is_sent_the_absolute_url(self, monkeypatch):
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with FakeChatServer() as proxy, FakeChatServer() as direct:
            monkeypatch.setenv("http_proxy", proxy.endpoint)
            with closing(HttpBackend("http://model.example/v1", "k")) as backend:
                assert backend.complete(text_request()) == "canned reply"
            monkeypatch.setenv("no_proxy", "127.0.0.1")
            with closing(HttpBackend(f"{direct.endpoint}/v1", "k")) as bypassing:
                assert bypassing.complete(text_request()) == "canned reply"
        assert proxy.paths == ["http://model.example/v1/chat/completions"]
        assert proxy.headers[0]["Host"] == "model.example"
        assert direct.paths == ["/v1/chat/completions"]

    def test_ipv6_endpoint_without_a_port_connects_to_the_default_port(self, monkeypatch):
        addresses = []

        def refuse(address, timeout):
            addresses.append(address)
            raise ConnectionRefusedError("no server in this test")

        monkeypatch.setattr(socket, "create_connection", refuse)
        with pytest.raises(TransientBackendError, match="ConnectionRefusedError"):
            HttpBackend(endpoint="http://[::1]/v1", api_key="k").complete(text_request())
        assert addresses == [("::1", 80)]

    def test_endpoint_must_be_http(self):
        with pytest.raises(GatewayError, match="http or https URL"):
            HttpBackend(endpoint="model.example/v1", api_key="k")

    def test_text_round_trip_and_wire_shape(self):
        with FakeChatServer(lambda body: (200, "server says hi")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="secret-key")
        ) as backend:
            response = Gateway(backend).call(
                text_request("ping", model_id="my-model", temperature=0.3)
            )
            assert response.text == "server says hi"
            expected = {
                "model": "my-model",
                "temperature": 0.3,
                "max_tokens": 2048,
                "messages": [{"role": "user", "content": "ping"}],
            }
            assert server.raw[0] == json.dumps(expected).encode()
            assert server.paths[0] == "/chat/completions"
            assert server.headers[0]["Authorization"] == "Bearer secret-key"
            assert server.headers[0]["Content-Type"] == "application/json"

    def test_vision_request_embeds_data_url(self):
        with FakeChatServer() as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            Gateway(backend).call(ModelRequest.vision("look", TINY_PNG))
            content = server.requests[0]["messages"][0]["content"]
            assert content[0] == {"type": "text", "text": "look"}
            url = content[1]["image_url"]["url"]
            prefix = "data:image/png;base64,"
            assert url.startswith(prefix)
            assert base64.b64decode(url[len(prefix):]) == TINY_PNG

    def test_vision_body_byte_identical(self):
        """The bytes on the wire, data URL included, are those of one
        json.dumps of the chat-completions shape: media type from the magic
        bytes (JPEG when unknown), image part after any prompt text, even
        text that spells the splice slot."""
        slot = gateway_module._IMAGE_SLOT
        cases = [
            (TINY_PNG, "image/png", "look"),
            (b"unknown bytes", "image/jpeg", "look"),
            (TINY_PNG, "image/png", slot),
        ]
        for payload, media, prompt in cases:
            with FakeChatServer() as server, closing(
                HttpBackend(endpoint=server.endpoint, api_key="k")
            ) as backend:
                request = ModelRequest.vision(
                    prompt, ImageRef(payload), model_id="vm", temperature=0.1,
                    max_output_tokens=64,
                )
                backend.complete(request)
                backend.complete(request)
            expected = _vision_body(prompt, payload, media)
            assert server.raw == [expected, expected]

    def test_vision_body_sent_in_chunks_with_a_length(self):
        """The image's cached base64 text goes out as its own chunk, under an
        explicit Content-Length, never chunked transfer encoding."""
        ref = ImageRef(TINY_PNG * 40)
        request = ModelRequest.vision(
            "look", ref, model_id="vm", temperature=0.1, max_output_tokens=64
        )
        with FakeChatServer() as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            chunks = backend._body(request)
            assert chunks[2] is ref.base64_payload
            backend.complete(request)
        expected = _vision_body("look", TINY_PNG * 40, "image/png")
        assert server.raw == [expected]
        assert b"".join(chunks) == expected
        assert server.headers[0]["Content-Length"] == str(len(expected))
        assert "Transfer-Encoding" not in server.headers[0]

    def test_retry_on_429(self):
        state = {"n": 0}

        def responder(body):
            state["n"] += 1
            return (429, "slow down") if state["n"] == 1 else (200, "finally")

        with FakeChatServer(responder) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, sleeper=lambda s: None)
            assert gateway.call(text_request()).text == "finally"
        assert state["n"] == 2

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_is_honoured(self, status):
        replies = iter([(status, "slow down", {"Retry-After": "2"}), (200, "finally")])
        sleeps = []
        with FakeChatServer(lambda body: next(replies)) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, sleeper=sleeps.append)
            assert gateway.call(text_request()).text == "finally"
        assert sleeps == [2.0]

    @pytest.mark.parametrize(
        "header, seconds",
        [("2", 2.0), ("0.5", 0.5), ("-1", None), ("nan", None), (None, None),
         ("Wed, 21 Oct 2015 07:28:00 GMT", None)],
    )
    def test_retry_after_reads_seconds_only(self, header, seconds):
        assert gateway_module._retry_after(header) == seconds

    def test_retry_after_stays_within_the_budget(self):
        sleeps = []
        with FakeChatServer(lambda body: (429, "later", {"Retry-After": "3600"})) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, attempts=3, sleeper=sleeps.append)
            with pytest.raises(ExhaustedError):
                gateway.call(text_request())
        assert sleeps == [30.0]

    def test_auth_failure(self):
        with FakeChatServer(lambda body: (401, "who are you")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="bad")
        ) as backend:
            with pytest.raises(AuthError):
                Gateway(backend).call(text_request())

    def test_vision_request_the_model_refuses_fails_once_quoting_the_reply(self):
        # The server says which inputs its model takes: a model without vision
        # answers an image with a 4xx, which is neither retried nor cached.
        def respond(body):
            content = body["messages"][0]["content"]
            return (400, "model takes no images") if isinstance(content, list) else (200, "ok")

        with FakeChatServer(respond) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, sleeper=lambda seconds: pytest.fail("retried"))
            with pytest.raises(GatewayError, match="HTTP 400: .*model takes no images"):
                gateway.call(ModelRequest.vision("p", TINY_PNG))
            assert gateway.call(text_request()).text == "ok"
            assert len(server.requests) == 2

    def test_server_error_exhausts(self):
        with FakeChatServer(lambda body: (500, "boom")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, attempts=2, sleeper=lambda s: None)
            with pytest.raises(ExhaustedError):
                gateway.call(text_request())

    @pytest.mark.parametrize(
        "fault, cause",
        [(Fault.SHORT_BODY, ConnectionError), (Fault.RESET, ConnectionResetError)],
        ids=["short-body", "reset"],
    )
    def test_broken_transport_is_retried(self, fault, cause):
        with FakeChatServer(lambda body: fault) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, attempts=3, sleeper=lambda s: None)
            with pytest.raises(ExhaustedError) as exc_info:
                gateway.call(text_request())
            transient = exc_info.value.__cause__
            assert isinstance(transient, TransientBackendError)
            assert isinstance(transient.__cause__, cause)
            assert len(server.requests) == 3
            # A broken connection is closed, never pooled.
            assert backend._idle == []
            assert server.wait_for_open_connections(0) == 0

    def test_connection_closed_while_idle_is_not_reused(self):
        sleeps = []
        with FakeChatServer(drop_idle=True) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, sleeper=sleeps.append)
            assert gateway.call(text_request("first")).text == "canned reply"
            assert len(backend._idle) == 1  # the server did not say it closes
            assert server.wait_for_open_connections(0) == 0
            assert gateway.call(text_request("second")).text == "canned reply"
        assert sleeps == []
        assert len(server.requests) == 2

    def test_keep_alive_connection_is_reused(self):
        with FakeChatServer() as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            for prompt in ("a", "b", "c"):
                backend.complete(text_request(prompt))
            assert server.peak_connections == 1

    def test_idle_connection_past_descriptor_1023_is_reused(self):
        """The liveness check of a pooled connection takes a descriptor
        beyond select()'s FD_SETSIZE of 1024."""
        held_count = 1100
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < held_count + 100:
            pytest.skip("the soft descriptor limit is below what the test holds")
        held = [os.open(os.devnull, os.O_RDONLY) for _ in range(held_count)]
        try:
            with FakeChatServer() as server, closing(
                HttpBackend(endpoint=server.endpoint, api_key="k")
            ) as backend:
                assert backend.complete(text_request("first")) == "canned reply"
                (sock,) = backend._idle
                assert sock.fileno() >= 1024
                assert backend.complete(text_request("second")) == "canned reply"
                assert backend._idle == [sock]
            assert len(server.requests) == 2
            assert server.peak_connections == 1
        finally:
            for fd in held:
                os.close(fd)

    def test_pool_is_bounded_and_close_closes_idle_connections(self):
        """40 short-lived threads share one backend: the pool keeps at most
        MAX_IDLE_CONNECTIONS of their connections, and close() closes them."""
        bound = gateway_module.MAX_IDLE_CONNECTIONS
        threads_count = 40
        barrier = threading.Barrier(threads_count)

        def responder(body):
            time.sleep(0.05)  # keep the calls in flight together
            return 200, "ok"

        with FakeChatServer(responder) as server:
            backend = HttpBackend(endpoint=server.endpoint, api_key="k")
            replies = []

            def worker(index):
                barrier.wait(timeout=10)
                replies.append(backend.complete(text_request(f"q{index}")))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert replies == ["ok"] * threads_count
            assert server.peak_connections > bound
            assert len(backend._idle) == bound
            assert server.wait_for_open_connections(bound) == bound
            backend.close()
            assert backend._idle == []
            assert server.wait_for_open_connections(0) == 0


    def test_request_head_names_and_host(self):
        with FakeChatServer() as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            backend.complete(text_request())
        headers = server.headers[0]
        assert list(headers) == [
            "Host", "Accept-Encoding", "Content-Type", "Authorization", "Content-Length"
        ]
        assert headers["Host"] == server.endpoint.removeprefix("http://")
        assert headers["Accept-Encoding"] == "identity"

    @pytest.mark.parametrize("framing, pooled", [("length", 1), ("chunked", 1), ("close", 0)])
    def test_reply_framings_are_read_whole(self, framing, pooled):
        """A body framed by its length or chunked keeps the connection for
        reuse; a body that ends when the server closes does not."""
        long_text = "y" * 200_000

        def responder(body):
            return 200, f"{long_text} {body['messages'][0]['content']}"

        with FakeChatServer(responder, framing=framing) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            for prompt in ("a", "b"):
                assert backend.complete(text_request(prompt)) == f"{long_text} {prompt}"
                assert len(backend._idle) == pooled
            assert server.wait_for_open_connections(pooled) == pooled
        assert len(server.requests) == 2

    def test_connection_close_reply_is_not_pooled(self):
        with FakeChatServer(lambda body: (200, "bye", {"Connection": "close"})) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            assert backend.complete(text_request("first")) == "bye"
            assert backend._idle == []
            assert server.wait_for_open_connections(0) == 0
            assert backend.complete(text_request("second")) == "bye"
        assert len(server.requests) == 2

    def test_no_content_reply_fails_without_waiting_for_a_body(self):
        with FakeChatServer(lambda body: (204, "")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k", timeout=30.0)
        ) as backend:
            started = time.monotonic()
            with pytest.raises(GatewayError, match="unexpected response shape") as exc_info:
                backend.complete(text_request())
            assert time.monotonic() - started < 5.0
            assert not isinstance(exc_info.value, TransientBackendError)

    @pytest.mark.parametrize(
        "status, location",
        [(301, "https://elsewhere.example/v1"), (302, "/v2/chat/completions"), (300, None)],
    )
    def test_redirect_names_its_status_and_is_not_followed(self, status, location):
        headers = {} if location is None else {"Location": location}
        with FakeChatServer(lambda body: (status, "moved", headers)) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, sleeper=lambda s: None)
            with pytest.raises(GatewayError) as exc_info:
                gateway.call(text_request())
        excerpt = 'HTTP %d: {"error": "moved"}' % status
        suffix = "" if location is None else f" (Location: {location})"
        assert str(exc_info.value) == excerpt + suffix
        assert not isinstance(exc_info.value, (TransientBackendError, ExhaustedError))
        assert len(server.requests) == 1

    def test_trickled_reply_ends_within_the_timeout(self):
        with FakeChatServer(lambda body: Fault.TRICKLE) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k", timeout=1.0)
        ) as backend:
            started = time.monotonic()
            with pytest.raises(TransientBackendError):
                backend.complete(text_request())
            assert time.monotonic() - started < 1.5
            assert backend._idle == []

    @pytest.mark.parametrize("framing", ["length", "chunked", "close"])
    def test_oversized_reply_fails_once_and_its_connection_closes(self, framing):
        cap = gateway_module.MAX_REPLY_BYTES

        def responder(body):
            return Fault.OVERSIZE if body["messages"][0]["content"] == "big" else (200, "small")

        with FakeChatServer(responder, framing=framing) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(backend, sleeper=lambda s: None)
            with pytest.raises(GatewayError, match=f"MAX_REPLY_BYTES = {cap}") as exc_info:
                gateway.call(text_request("big"))
            assert not isinstance(exc_info.value, (TransientBackendError, ExhaustedError))
            assert backend._idle == []
            assert server.wait_for_open_connections(0) == 0
            assert gateway.call(text_request("after")).text == "small"
        assert [r["messages"][0]["content"] for r in server.requests] == ["big", "after"]

    def test_oversized_header_block_fails(self):
        cap = gateway_module.MAX_REPLY_BYTES
        padding = {"X-Padding": "p" * cap}
        with FakeChatServer(lambda body: (200, "ok", padding)) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            with pytest.raises(GatewayError, match=f"MAX_REPLY_BYTES = {cap}") as exc_info:
                backend.complete(text_request())
            assert not isinstance(exc_info.value, TransientBackendError)
            assert backend._idle == []

    @pytest.mark.parametrize("framing", ["length", "chunked", "close"])
    def test_oversized_reply_peak_memory_stays_below_twice_the_cap(self, framing):
        cap = gateway_module.MAX_REPLY_BYTES
        with FakeChatServer(lambda body: Fault.OVERSIZE, framing=framing) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            tracemalloc.start()
            try:
                with pytest.raises(GatewayError, match="MAX_REPLY_BYTES"):
                    backend.complete(text_request())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * cap


    @pytest.mark.parametrize(
        "endpoint, proxy",
        [
            ("http://api.example.com/v1", None),
            ("http://api.example.com:80/v1/", None),
            ("http://api.example.com:8080/v1", None),
            ("https://api.example.com/v1", None),
            ("https://api.example.com:8443", None),
            ("http://[::1]:8080/v1", None),
            ("http://b\u00fccher.example/v1", None),
            ("http://api.example.com:8080/v1", "http://user:pw@proxy.example:3128"),
            ("https://api.example.com/v1", "http://user:pw@proxy.example:3128"),
        ],
    )
    def test_request_head_is_the_one_http_client_sends(self, monkeypatch, endpoint, proxy):
        """The head the backend writes is, byte for byte, the one
        http.client writes for the same request on a connection to the
        same host and port."""
        for name in ("no_proxy", "NO_PROXY", "http_proxy", "HTTP_PROXY", "HTTPS_PROXY"):
            monkeypatch.delenv(name, raising=False)
        url = urllib.parse.urlsplit(endpoint.rstrip("/"))
        headers = {"Content-Type": "application/json", "Authorization": "Bearer k"}
        path = f"{url.path}/chat/completions"
        if proxy is not None:
            monkeypatch.setenv(f"{url.scheme}_proxy", proxy)
            if url.scheme == "http":
                path = f"{endpoint.rstrip('/')}/chat/completions"
                auth = base64.b64encode(b"user:pw").decode("ascii")
                headers["Proxy-Authorization"] = f"Basic {auth}"
        backend = HttpBackend(endpoint, "k")
        if url.scheme == "https":
            connection = http.client.HTTPSConnection(url.hostname, url.port)
        else:
            connection = http.client.HTTPConnection(url.hostname, url.port)
        sent = []
        connection.sock = types.SimpleNamespace(sendall=sent.append)  # never opened
        connection.request("POST", path, body=b"{}", headers={**headers, "Content-Length": "2"})
        assert sent == [backend._head + b"2\r\n\r\n", b"{}"]

    @pytest.mark.parametrize(
        "endpoint, api_key, message",
        [
            ("http://model.example/v1", "k\r\nX-Injected: 1", "holds a line break"),
            ("http://model.example/v1", "k\u20ac", "outside Latin-1"),
            ("http://model.example/a b", "k", "path is not printable ASCII"),
        ],
    )
    def test_a_head_that_would_break_is_refused_when_the_backend_is_built(
        self, endpoint, api_key, message
    ):
        with pytest.raises(GatewayError, match=message):
            HttpBackend(endpoint, api_key)

    @pytest.mark.parametrize(
        "reply, pooled",
        [
            (b"HTTP/1.1 100 Continue\r\n\r\n" + _reply(b"HTTP/1.1 200 OK", b"", "hi"), 1),
            (_reply(b"HTTP/1.0 200 OK", b"", "hi"), 0),
            (_reply(b"HTTP/1.0 200 OK", b"Connection: keep-alive\r\n", "hi"), 1),
            (_reply(b"HTTP/1.1 200", b"Server: raw\r\nX-Folded:  a b \r\n", "hi"), 1),
        ],
        ids=["interim-100", "http-1.0", "http-1.0-keep-alive", "no-reason-phrase"],
    )
    def test_raw_replies_are_read(self, reply, pooled):
        with raw_reply_server(reply) as endpoint, closing(HttpBackend(endpoint, "k")) as backend:
            assert backend.complete(text_request()) == "hi"
            assert len(backend._idle) == pooled

    @pytest.mark.parametrize(
        "reply",
        [
            b"SPDY/3 200 OK\r\n\r\n",
            b"HTTP/1.1 2000 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabc\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\n",
            # Exactly one byte past the cap, so the client reads every byte sent.
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"0" * 65537,
        ],
        ids=[
            "protocol", "status", "content-length", "chunk-size", "chunk-overrun",
            "negative-chunk-size", "chunk-size-line-past-64-KiB",
        ],
    )
    def test_a_malformed_reply_is_a_transport_failure(self, reply):
        with raw_reply_server(reply) as endpoint, closing(HttpBackend(endpoint, "k")) as backend:
            with pytest.raises(TransientBackendError, match="ConnectionError"):
                backend.complete(text_request())
            assert backend._idle == []


def test_sniff_media_type():
    assert sniff_media_type(TINY_PNG) == "image/png"
    assert sniff_media_type(b"\xff\xd8\xff\xe0rest") == "image/jpeg"
    assert sniff_media_type(b"GIF89a....") == "image/gif"
    assert sniff_media_type(b"RIFF1234WEBPdata") == "image/webp"
    assert sniff_media_type(b"plain text") is None
