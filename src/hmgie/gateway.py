"""Backend-agnostic access to text and vision models.

Two backends ship with the package: an HTTP client speaking the common
chat-completions wire shape, and a scripted replay backend that serves
recorded replies keyed by request digest. The Gateway wraps either one with
caching, retry with exponential backoff, and coalescing of concurrent
duplicate requests, so an entire run over the scripted backend is a pure
function of its inputs and fixtures.

``call_parsed`` is the one place that retries a reply the caller could not
parse. Each retry is a distinct request (its ``attempt`` is part of the cache
key), so it reaches the model instead of the cache, and a recorded run
replays every attempt it made.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Protocol, TypeVar

if TYPE_CHECKING:
    import requests

from .errors import (
    AuthError,
    ExhaustedError,
    FixtureMissingError,
    GatewayError,
    MalformedOutputError,
    SchemaViolationError,
    TransientBackendError,
    UnsupportedRequestError,
)

# Reply files are UTF-8 with this handler, so a reply holding a lone surrogate
# (which json.loads makes of a "\ud800" escape) replays as the very same string.
_REPLY_ERRORS = "surrogatepass"

_MAGIC_SIGNATURES = (
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"GIF87a", "image/gif"),
    (b"GIF89a", "image/gif"),
    (b"BM", "image/bmp"),
)


def sniff_media_type(data: bytes) -> Optional[str]:
    """Best-effort media type from magic bytes; None when unrecognized."""
    for magic, media in _MAGIC_SIGNATURES:
        if data.startswith(magic):
            return media
    if len(data) >= 12 and data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        return "image/webp"
    return None


class RequestKind(Enum):
    TEXT = "text"
    VISION = "vision"


@dataclass(frozen=True)
class ImageRef:
    """An image payload prepared once for every request that carries it.

    The SHA-256 digest is computed from the payload at construction and
    cannot be supplied by the caller; refs compare by digest. The data URL
    (media type sniffed from the magic bytes, payload base64-encoded) is
    built on first use and kept.
    """

    payload: bytes = field(compare=False, repr=False)
    digest: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "digest", hashlib.sha256(self.payload).hexdigest())

    @classmethod
    def of(cls, image: "ImageRef | bytes") -> "ImageRef":
        """The image itself when it is already a ref, else a new ref over it."""
        return image if isinstance(image, ImageRef) else cls(image)

    @property
    def media_type(self) -> Optional[str]:
        return sniff_media_type(self.payload)

    @cached_property
    def data_url(self) -> str:
        encoded = base64.b64encode(self.payload).decode("ascii")
        return f"data:{self.media_type or 'image/jpeg'};base64,{encoded}"


@dataclass(frozen=True)
class ModelRequest:
    """One model call; a vision request carries its image as one ImageRef.

    ``attempt`` numbers the tries at one prompt; tries after the first have
    their own cache key, so a retry is never served the reply it replaces.
    ``key`` is that cache key, computed once when the request is built
    (``dataclasses.replace`` builds a new request, so it gets its own).
    """

    prompt: str
    model_id: str = "gpt-4o"
    temperature: float = 0.3
    max_output_tokens: int = 1024
    image: Optional[ImageRef] = None
    attempt: int = 1
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.temperature < 0:
            raise SchemaViolationError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise SchemaViolationError("max_output_tokens must be positive")
        if self.attempt < 1:
            raise SchemaViolationError("attempt must be >= 1")
        if self.image is not None and not isinstance(self.image, ImageRef):
            raise SchemaViolationError("image must be an ImageRef")
        object.__setattr__(self, "key", cache_key(self))

    @property
    def kind(self) -> RequestKind:
        return RequestKind.TEXT if self.image is None else RequestKind.VISION

    @property
    def image_digest(self) -> Optional[str]:
        return None if self.image is None else self.image.digest

    @property
    def image_payload(self) -> Optional[bytes]:
        return None if self.image is None else self.image.payload

    @classmethod
    def text(cls, prompt: str, **kwargs) -> "ModelRequest":
        """A text-only request."""
        return cls(prompt=prompt, **kwargs)

    @classmethod
    def vision(cls, prompt: str, image: ImageRef | bytes, **kwargs) -> "ModelRequest":
        """A vision request; pass an ImageRef to hash the image only once."""
        return cls(prompt=prompt, image=ImageRef.of(image), **kwargs)


@dataclass(frozen=True)
class ModelResponse:
    text: str
    cached: int = 0


def cache_key(request: ModelRequest) -> str:
    """Deterministic request digest.

    Depends on (model_id, temperature, kind, prompt, image_digest) and, from
    the second attempt on, the attempt number; max_output_tokens and wall
    clock never influence the key. A first attempt leaves the attempt out,
    so its key matches the one recorded fixtures are stored under.
    """
    fields = {
        "kind": request.kind.value,
        "model_id": request.model_id,
        "temperature": request.temperature,
        "prompt": request.prompt,
        "image_digest": request.image_digest,
    }
    if request.attempt >= 2:
        fields["attempt"] = request.attempt
    canonical = json.dumps(fields, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Backend(Protocol):
    """Minimal surface a backend must provide."""

    name: str
    supports_vision: bool

    def complete(self, request: ModelRequest) -> str: ...


class HttpBackend:
    """Chat-completions HTTP client; images travel as base64 data URLs.

    ``requests`` is imported when the first backend is built, so importing
    the package does not pay for it.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        supports_vision: bool = True,
        timeout: float = 120.0,
        system_prompt: Optional[str] = None,
        session: Optional[requests.Session] = None,
    ):
        import requests

        self.name = f"http:{endpoint}"
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.supports_vision = supports_vision
        self.timeout = timeout
        self.system_prompt = system_prompt
        self._session = session or requests.Session()

    def close(self) -> None:
        """Close the HTTP session and the connections it pools."""
        self._session.close()

    def _messages(self, request: ModelRequest) -> list[dict]:
        messages: list[dict] = []
        if self.system_prompt:
            messages.append({"role": "system", "content": self.system_prompt})
        if request.kind is RequestKind.TEXT:
            messages.append({"role": "user", "content": request.prompt})
        else:
            messages.append(
                {
                    "role": "user",
                    "content": [
                        {"type": "text", "text": request.prompt},
                        {
                            "type": "image_url",
                            "image_url": {"url": request.image.data_url},
                        },
                    ],
                }
            )
        return messages

    def complete(self, request: ModelRequest) -> str:
        import requests

        body = {
            "model": request.model_id,
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
            "messages": self._messages(request),
        }
        try:
            response = self._session.post(
                f"{self.endpoint}/chat/completions",
                json=body,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout,
            )
        except (
            requests.Timeout,
            requests.ConnectionError,
            requests.exceptions.ChunkedEncodingError,
            requests.exceptions.ContentDecodingError,
        ) as exc:
            raise TransientBackendError(f"transport failure: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthError(f"backend rejected credentials (HTTP {response.status_code})")
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientBackendError(f"HTTP {response.status_code}: {response.text[:200]}")
        if response.status_code >= 400:
            raise GatewayError(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"unexpected response shape: {exc}") from exc
        return content if isinstance(content, str) else ""


@dataclass(frozen=True)
class CallRecord:
    """What a backend was asked, without the image bytes."""

    kind: RequestKind
    prompt: str
    model_id: str
    image_digest: Optional[str]


class ScriptedBackend:
    """Replay backend serving recorded replies keyed by cache_key.

    Fixtures come from an in-memory mapping, a directory of one file per
    key (content = raw reply text), or both; the mapping wins on overlap.
    Every served request is appended to .calls as a CallRecord for trace
    assertions; the record holds the image digest, never the payload.
    """

    def __init__(
        self,
        fixture_dir: Optional[str | Path] = None,
        fixtures: Optional[Mapping[str, str]] = None,
    ):
        if fixture_dir is None and fixtures is None:
            raise ValueError("scripted backend needs a fixture dir or mapping")
        self.name = "scripted"
        self.supports_vision = True
        self.fixture_dir = Path(fixture_dir) if fixture_dir is not None else None
        self.fixtures = dict(fixtures or {})
        self.calls: list[CallRecord] = []
        self._lock = threading.Lock()

    def complete(self, request: ModelRequest) -> str:
        key = request.key
        record = CallRecord(
            request.kind, request.prompt, request.model_id, request.image_digest
        )
        with self._lock:
            self.calls.append(record)
        if key in self.fixtures:
            return self.fixtures[key]
        if self.fixture_dir is not None:
            try:
                path = self.fixture_dir / f"{key}.txt"
                return path.read_text(encoding="utf-8", errors=_REPLY_ERRORS)
            except FileNotFoundError:
                pass
        raise FixtureMissingError(key)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff doubling from base_delay; total sleep never exceeds max_total_delay."""

    attempts: int = 3
    base_delay: float = 1.0
    max_total_delay: float = 30.0

    def __post_init__(self):
        if self.attempts < 1:
            raise SchemaViolationError("retry attempts must be >= 1")
        if self.base_delay < 0 or self.max_total_delay < 0:
            raise SchemaViolationError("retry delays must be >= 0")


class Gateway:
    """Caching, retrying, coalescing front door to a backend.

    With cache_dir set, replies are read through the on-disk store (one file
    per cache key); record=True additionally writes live replies back, so a
    real run can later be replayed with a ScriptedBackend over the same
    directory.
    """

    def __init__(
        self,
        backend: Backend,
        cache_dir: Optional[str | Path] = None,
        record: bool = False,
        retry: Optional[RetryPolicy] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if record and self.cache_dir is None:
            raise ValueError("record mode requires a cache_dir")
        self.record = record
        self.retry = retry or RetryPolicy()
        self._sleeper = sleeper
        self._memory: dict[str, str] = {}
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Lock] = {}

    def _cached_text(self, key: str) -> Optional[str]:
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir is not None:
            path = self.cache_dir / f"{key}.txt"
            if path.exists():
                text = path.read_text(encoding="utf-8", errors=_REPLY_ERRORS)
                self._memory[key] = text
                return text
        return None

    def _store(self, key: str, text: str) -> None:
        if self.record:
            # Write a temp file and rename it over the key, so a failed or
            # interrupted write never leaves a truncated reply to replay.
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=self.cache_dir, prefix=f".{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", errors=_REPLY_ERRORS) as handle:
                    handle.write(text)
                os.replace(temp, self.cache_dir / f"{key}.txt")
            except BaseException:
                os.unlink(temp)
                raise
        self._memory[key] = text

    def _complete_with_retries(self, request: ModelRequest) -> str:
        delay = self.retry.base_delay
        slept = 0.0
        last: Optional[Exception] = None
        for attempt in range(self.retry.attempts):
            try:
                return self.backend.complete(request)
            except TransientBackendError as exc:
                last = exc
                if attempt + 1 < self.retry.attempts:
                    budget = self.retry.max_total_delay - slept
                    pause = max(0.0, min(delay, budget))
                    if pause > 0:
                        self._sleeper(pause)
                        slept += pause
                    delay *= 2
        raise ExhaustedError(
            f"backend {self.backend.name} failed after {self.retry.attempts} attempts: {last}"
        ) from last

    def call(self, request: ModelRequest) -> ModelResponse:
        """Resolve a request through cache, coalescing, and retry.

        Raises:
            UnsupportedRequestError: vision request to a text-only backend.
            AuthError: credentials rejected (never retried).
            ExhaustedError: retries exceeded, or scripted fixture missing.
        """
        if request.kind is RequestKind.VISION and not self.backend.supports_vision:
            raise UnsupportedRequestError(
                f"backend {self.backend.name} cannot serve vision requests"
            )
        key = request.key
        cached = self._cached_text(key)
        if cached is not None:
            return ModelResponse(text=cached, cached=1)
        with self._lock:
            gate = self._inflight.setdefault(key, threading.Lock())
        with gate:
            try:
                cached = self._cached_text(key)
                if cached is not None:
                    # A concurrent duplicate finished first; serve its result.
                    return ModelResponse(text=cached, cached=1)
                text = self._complete_with_retries(request)
                self._store(key, text)
                return ModelResponse(text=text, cached=0)
            finally:
                # Drop the gate once the call is done so the map holds only
                # calls in flight; duplicates already waiting on this gate
                # re-check the cache when they acquire it.
                with self._lock:
                    if self._inflight.get(key) is gate:
                        del self._inflight[key]


T = TypeVar("T")


def call_parsed(
    gateway: Gateway,
    request: ModelRequest,
    parse: Callable[[str], T],
    attempts: int,
    on_reject: Callable[[int, Exception], None],
) -> Optional[T]:
    """Call, parse, and retry until a reply parses or attempts run out.

    A reply is rejected when ``parse`` raises MalformedOutputError or
    SchemaViolationError; ``on_reject(attempt, error)`` hears of each one and
    attempt n + 1 is sent as a distinct request (same prompt and image ref,
    ``attempt=n + 1``). Any other error from ``parse`` or the gateway
    propagates. Returns the parsed value, or None after ``attempts``
    rejected replies.
    """
    for attempt in range(1, attempts + 1):
        if attempt > 1:
            request = replace(request, attempt=attempt)
        text = gateway.call(request).text
        try:
            return parse(text)
        except (MalformedOutputError, SchemaViolationError) as exc:
            on_reject(attempt, exc)
    return None
