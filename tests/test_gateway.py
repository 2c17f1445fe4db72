import base64
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import types
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest
import requests

from helpers import TINY_PNG, DynamicBackend, FakeChatServer, count_payload_hashes
from hmgie import gateway as gateway_module
from hmgie.errors import (
    AuthError,
    ExhaustedError,
    EmptyBatchError,
    FixtureMissingError,
    MalformedOutputError,
    SchemaViolationError,
    TransientBackendError,
    UnsupportedRequestError,
)
from hmgie.gateway import (
    CallRecord,
    Gateway,
    HttpBackend,
    ImageRef,
    ModelRequest,
    RequestKind,
    RetryPolicy,
    ScriptedBackend,
    cache_key,
    call_parsed,
    sniff_media_type,
)


def text_request(prompt: str = "hello", **kwargs) -> ModelRequest:
    return ModelRequest(prompt=prompt, **kwargs)


class TestRequestValidation:
    def test_vision_helper(self):
        request = ModelRequest.vision("p", TINY_PNG)
        assert request.kind is RequestKind.VISION
        assert request.image_digest is not None

    def test_text_helper(self):
        request = ModelRequest.text("p", model_id="m", temperature=0.0)
        assert request == ModelRequest(prompt="p", model_id="m", temperature=0.0)

    @pytest.mark.parametrize("attempt", [0, -1])
    def test_attempt_below_one_rejected(self, attempt):
        with pytest.raises(SchemaViolationError):
            text_request(attempt=attempt)

    def test_image_must_be_a_ref(self):
        with pytest.raises(SchemaViolationError):
            ModelRequest(prompt="p", image=TINY_PNG)


class TestImageRef:
    def test_digest_computed_not_supplied(self):
        ref = ImageRef(TINY_PNG)
        assert ref.digest == hashlib.sha256(TINY_PNG).hexdigest()
        with pytest.raises(TypeError):
            ImageRef(TINY_PNG, digest="0" * 64)

    def test_data_url_and_media_type(self):
        ref = ImageRef(TINY_PNG)
        assert ref.media_type == "image/png"
        assert ref.data_url == (
            "data:image/png;base64," + base64.b64encode(TINY_PNG).decode("ascii")
        )
        assert ref.data_url is ref.data_url
        assert ImageRef(b"no magic").data_url.startswith("data:image/jpeg;base64,")

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
        (tmp_path / f"{cache_key(request)}.txt").write_text("from disk", encoding="utf-8")
        gateway = Gateway(ScriptedBackend(fixture_dir=tmp_path))
        assert gateway.call(request).text == "from disk"

    def test_requires_some_fixture_source(self):
        with pytest.raises(ValueError):
            ScriptedBackend()

    def test_call_trace_records_requests(self):
        request = text_request("traced")
        backend = ScriptedBackend(fixtures={cache_key(request): "ok"})
        Gateway(backend).call(request)
        assert [r.prompt for r in backend.calls] == ["traced"]

    def test_call_trace_keeps_digest_not_payload(self):
        request = ModelRequest.vision("look", TINY_PNG, model_id="m")
        backend = ScriptedBackend(fixtures={cache_key(request): "ok"})
        Gateway(backend).call(request)
        assert backend.calls == [
            CallRecord(RequestKind.VISION, "look", "m", request.image_digest)
        ]
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
        (tmp_path / f"{cache_key(request)}.txt").write_text("stored", encoding="utf-8")
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


class TestRecordWrites:
    def test_failed_write_leaves_no_file_under_the_key(self, tmp_path, monkeypatch):
        # The write fails after the record file was opened.
        real_fdopen = os.fdopen

        def fdopen_failing_write(*args, **kwargs):
            handle = real_fdopen(*args, **kwargs)

            def write(text):
                raise OSError("disk full")

            handle.write = write
            return handle

        request = text_request("record me")
        backend = DynamicBackend(lambda r: "half a reply")
        broken = Gateway(backend, cache_dir=tmp_path, record=True)
        with monkeypatch.context() as patch:
            patch.setattr(gateway_module.os, "fdopen", fdopen_failing_write)
            with pytest.raises(OSError, match="disk full"):
                broken.call(request)
        assert list(tmp_path.iterdir()) == []

        live = DynamicBackend(lambda r: "whole reply")
        assert Gateway(live, cache_dir=tmp_path, record=True).call(request).text == "whole reply"
        assert len(live.calls) == 1
        stored = tmp_path / f"{cache_key(request)}.txt"
        assert stored.read_text(encoding="utf-8") == "whole reply"
        assert list(tmp_path.iterdir()) == [stored]

    def test_lone_surrogate_recorded_and_replayed(self, tmp_path):
        # json.loads turns a "\ud800" escape in an HTTP body into a lone
        # surrogate; record mode must serve it as live mode does.
        request = text_request("record me")
        reply = "half a reply \ud800"
        recorder = Gateway(DynamicBackend(lambda r: reply), cache_dir=tmp_path, record=True)
        assert recorder.call(request).text == reply
        stored = tmp_path / f"{cache_key(request)}.txt"
        assert stored.read_bytes() == b"half a reply \xed\xa0\x80"

        assert Gateway(ScriptedBackend(fixture_dir=tmp_path)).call(request).text == reply
        offline = DynamicBackend(lambda r: None)
        cached = Gateway(offline, cache_dir=tmp_path).call(request)
        assert (cached.text, cached.cached) == (reply, 1)
        assert offline.calls == []

        valid, text = text_request("valid"), "caf\u00e9 \u2713"
        writer = Gateway(DynamicBackend(lambda r: text), cache_dir=tmp_path, record=True)
        writer.call(valid)
        assert (tmp_path / f"{cache_key(valid)}.txt").read_bytes() == text.encode("utf-8")

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def crash(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(gateway_module.os, "replace", crash)
        gateway = Gateway(DynamicBackend(lambda r: "reply"), cache_dir=tmp_path, record=True)
        with pytest.raises(OSError, match="disk gone"):
            gateway.call(text_request("record me"))
        assert list(tmp_path.iterdir()) == []


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
            3,
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
            3,
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
        assert call_parsed(Gateway(backend), text_request(), parse, 2, lambda *a: None) == "good"

    def test_other_errors_propagate_without_retry(self):
        def parse(text):
            raise EmptyBatchError("no items")

        backend = _replies("[]", "[]")
        with pytest.raises(EmptyBatchError):
            call_parsed(Gateway(backend), text_request(), parse, 3, lambda *a: None)
        assert len(backend.calls) == 1

    def test_retry_request_carries_its_own_key(self):
        backend = _replies("garbage", "42")
        value = call_parsed(
            Gateway(backend), text_request("count"), _parse_int, 2, lambda *a: None
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
        assert call_parsed(Gateway(backend), request, _parse_int, 2, lambda *a: None) == 7
        assert [r.image for r in backend.calls] == [image, image]
        assert [r.attempt for r in backend.calls] == [1, 2]
        assert len(passes) == 1

    def test_record_then_replay_serves_every_attempt(self, tmp_path):
        live = _replies("garbage", "42")
        recorder = Gateway(live, cache_dir=tmp_path, record=True)
        assert call_parsed(recorder, text_request("count"), _parse_int, 3, lambda *a: None) == 42

        scripted = ScriptedBackend(fixture_dir=tmp_path)
        replayed = call_parsed(
            Gateway(scripted), text_request("count"), _parse_int, 3, lambda *a: None
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
        gateway = Gateway(backend, retry=RetryPolicy(attempts=1))
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
        assert gateway._inflight == {}
        assert sorted(replies) == sorted((k, f"reply to {k}") for k in keys[:5] for _ in range(12))
        prompts = [r.prompt for r in backend.calls]
        for key in keys[:5]:
            assert prompts.count(key) == 1
        # the failing key is never cached, so each caller tried it
        assert errors == ["k5"] * 12
        assert prompts.count("k5") == 12


class TestRetry:
    def test_retries_then_succeeds(self):
        attempts = {"n": 0}

        def flaky(request):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientBackendError("try again")
            return "third time lucky"

        sleeps = []
        gateway = Gateway(
            DynamicBackend(flaky),
            retry=RetryPolicy(attempts=3, base_delay=0.5),
            sleeper=sleeps.append,
        )
        assert gateway.call(text_request()).text == "third time lucky"
        assert sleeps == [0.5, 1.0]

    def test_exhausted_after_attempts(self):
        def always_fails(request):
            raise TransientBackendError("nope")

        gateway = Gateway(
            DynamicBackend(always_fails),
            retry=RetryPolicy(attempts=3, base_delay=0.1),
            sleeper=lambda s: None,
        )
        with pytest.raises(ExhaustedError, match="after 3 attempts"):
            gateway.call(text_request())

    def test_backoff_total_never_exceeds_ceiling(self):
        def always_fails(request):
            raise TransientBackendError("nope")

        sleeps = []
        gateway = Gateway(
            DynamicBackend(always_fails),
            retry=RetryPolicy(attempts=10, base_delay=1.0, max_total_delay=5.0),
            sleeper=sleeps.append,
        )
        with pytest.raises(ExhaustedError):
            gateway.call(text_request())
        assert sum(sleeps) <= 5.0

    def test_auth_error_not_retried(self):
        calls = {"n": 0}

        def rejects(request):
            calls["n"] += 1
            raise AuthError("bad key")

        gateway = Gateway(DynamicBackend(rejects), sleeper=lambda s: None)
        with pytest.raises(AuthError):
            gateway.call(text_request())
        assert calls["n"] == 1

    def test_vision_to_text_only_backend(self):
        backend = DynamicBackend(lambda r: "x")
        backend.supports_vision = False
        gateway = Gateway(backend)
        with pytest.raises(UnsupportedRequestError):
            gateway.call(ModelRequest.vision("p", TINY_PNG))


class TestHttpBackend:
    def test_package_import_leaves_requests_unloaded(self):
        src = str(Path(gateway_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, hmgie; print('requests' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_text_round_trip_and_wire_shape(self):
        with FakeChatServer(lambda body: (200, "server says hi")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="secret-key")
        ) as backend:
            response = Gateway(backend).call(
                text_request("ping", model_id="my-model", temperature=0.3)
            )
            assert response.text == "server says hi"
            body = server.requests[0]
            assert body["model"] == "my-model"
            assert body["temperature"] == 0.3
            assert body["messages"][0] == {"role": "user", "content": "ping"}
            assert server.headers[0]["Authorization"] == "Bearer secret-key"

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
        """The wire body, data URL included, as the chat-completions shape
        defines it: media type from the magic bytes (JPEG when unknown)."""

        class CapturingSession:
            def __init__(self):
                self.bodies = []

            def post(self, url, json, headers, timeout):
                self.bodies.append(json)
                return types.SimpleNamespace(
                    status_code=200,
                    json=lambda: {"choices": [{"message": {"content": "ok"}}]},
                )

        for payload, media in ((TINY_PNG, "image/png"), (b"unknown bytes", "image/jpeg")):
            session = CapturingSession()
            backend = HttpBackend(
                endpoint="http://model.invalid/v1",
                api_key="k",
                system_prompt="be terse",
                session=session,
            )
            request = ModelRequest.vision(
                "look", ImageRef(payload), model_id="vm", temperature=0.1,
                max_output_tokens=64,
            )
            backend.complete(request)
            backend.complete(request)
            encoded = base64.b64encode(payload).decode("ascii")
            expected = {
                "model": "vm",
                "temperature": 0.1,
                "max_tokens": 64,
                "messages": [
                    {"role": "system", "content": "be terse"},
                    {
                        "role": "user",
                        "content": [
                            {"type": "text", "text": "look"},
                            {
                                "type": "image_url",
                                "image_url": {"url": f"data:{media};base64,{encoded}"},
                            },
                        ],
                    },
                ],
            }
            for body in session.bodies:
                assert json.dumps(body).encode() == json.dumps(expected).encode()

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

    def test_auth_failure(self):
        with FakeChatServer(lambda body: (401, "who are you")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="bad")
        ) as backend:
            with pytest.raises(AuthError):
                Gateway(backend).call(text_request())

    def test_server_error_exhausts(self):
        with FakeChatServer(lambda body: (500, "boom")) as server, closing(
            HttpBackend(endpoint=server.endpoint, api_key="k")
        ) as backend:
            gateway = Gateway(
                backend, retry=RetryPolicy(attempts=2, base_delay=0.01), sleeper=lambda s: None
            )
            with pytest.raises(ExhaustedError):
                gateway.call(text_request())

    @pytest.mark.parametrize(
        "fault",
        [requests.exceptions.ChunkedEncodingError, requests.exceptions.ContentDecodingError],
    )
    def test_broken_body_is_retried(self, fault):
        class BrokenSession:
            posts = 0

            def post(self, url, json, headers, timeout):
                self.posts += 1
                raise fault("connection broken mid-body")

        session = BrokenSession()
        backend = HttpBackend(endpoint="http://model.invalid/v1", api_key="k", session=session)
        gateway = Gateway(backend, retry=RetryPolicy(attempts=3), sleeper=lambda s: None)
        with pytest.raises(ExhaustedError) as exc_info:
            gateway.call(text_request())
        assert isinstance(exc_info.value.__cause__, TransientBackendError)
        assert session.posts == 3

    def test_close_closes_the_session(self):
        class Session:
            closed = False

            def close(self):
                self.closed = True

        session = Session()
        HttpBackend(endpoint="http://model.invalid/v1", api_key="k", session=session).close()
        assert session.closed


def test_sniff_media_type():
    assert sniff_media_type(TINY_PNG) == "image/png"
    assert sniff_media_type(b"\xff\xd8\xff\xe0rest") == "image/jpeg"
    assert sniff_media_type(b"GIF89a....") == "image/gif"
    assert sniff_media_type(b"RIFF1234WEBPdata") == "image/webp"
    assert sniff_media_type(b"plain text") is None
