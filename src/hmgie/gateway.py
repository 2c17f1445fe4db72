"""Backend-agnostic access to text and vision models.

Two backends ship with the package: an HTTP client speaking the common
chat-completions wire shape, and a scripted replay backend that serves
recorded replies keyed by request digest. The Gateway wraps either one with
caching, retry with exponential backoff, and coalescing of concurrent
duplicate requests, so an entire run over the scripted backend is a pure
function of its inputs and fixtures. Its one reply table holds, per key,
either the reply or the lock gate of the one call in flight for that key,
which concurrent duplicates wait on; a reply log on disk, when there is one,
is read through without copying into the table.

``call_parsed`` is the one place that retries a reply the caller could not
parse, within the gateway's ``attempts``. Each retry is a distinct request
(its ``attempt`` is part of the cache key), so it reaches the model instead
of the cache, and a recorded run replays every attempt it made.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import re
import select
import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol, TypeVar

from .errors import (
    AuthError,
    ExhaustedError,
    FixtureMissingError,
    GatewayError,
    MalformedOutputError,
    SchemaViolationError,
    TransientBackendError,
    require_positive,
    shown,
)

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


@dataclass(frozen=True)
class ImageRef:
    """An image payload prepared once for every request that carries it.

    The SHA-256 digest is computed from the payload at construction and
    cannot be supplied by the caller; refs compare by digest. The payload's
    base64 text is encoded on first use and kept as ASCII bytes, ready to go
    on the wire as one chunk of every vision body that carries the image.
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
    def base64_payload(self) -> bytes:
        return base64.b64encode(self.payload)


def check_sampling(model_id: str, temperature: float, max_output_tokens: int) -> None:
    """SchemaViolationError unless the model id is a str, the temperature an
    int or a float (not a bool) that is >= 0 and that a float holds finite,
    and the token limit a count; the one check of these that every request
    and config calls."""
    if not isinstance(model_id, str):
        raise SchemaViolationError(f"model_id must be a str, got {shown(model_id)}")
    if not isinstance(temperature, (int, float)) or isinstance(temperature, bool):
        raise SchemaViolationError(
            f"temperature must be an int or a float, got {shown(temperature)}"
        )
    try:
        finite = 0 <= float(temperature) < math.inf
    except OverflowError:  # an int past float range
        finite = False
    if not finite:
        raise SchemaViolationError(f"temperature must be finite and >= 0, got {shown(temperature)}")
    require_positive(max_output_tokens=max_output_tokens)


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
    max_output_tokens: int = 2048
    image: Optional[ImageRef] = None
    attempt: int = 1
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.prompt, str):
            raise SchemaViolationError("a request's prompt must be str")
        check_sampling(self.model_id, self.temperature, self.max_output_tokens)
        require_positive(attempt=self.attempt)
        if self.image is not None and not isinstance(self.image, ImageRef):
            raise SchemaViolationError("image must be an ImageRef")
        object.__setattr__(self, "key", cache_key(self))

    @property
    def image_digest(self) -> Optional[str]:
        return None if self.image is None else self.image.digest

    @property
    def image_payload(self) -> Optional[bytes]:
        return None if self.image is None else self.image.payload

    @classmethod
    def vision(cls, prompt: str, image: ImageRef | bytes, **kwargs) -> "ModelRequest":
        """A vision request; pass an ImageRef to hash the image only once."""
        return cls(prompt=prompt, image=ImageRef.of(image), **kwargs)


@dataclass(frozen=True)
class ModelResponse:
    text: str
    cached: int = 0


def cache_key(request: ModelRequest) -> str:
    """SHA-256 of ``json.dumps(fields, sort_keys=True, ensure_ascii=False)``.

    The fields are (model_id, temperature, prompt, image_digest) and, from the
    second attempt on, the attempt number; max_output_tokens and wall clock
    never influence the key. A first attempt leaves the attempt out, so its key
    matches the one recorded fixtures are stored under. The "kind" field only
    restates whether there is an image; it stays so that keys recorded by
    earlier versions still match. The text is formatted directly.
    """
    attempt = f'"attempt": {_number(request.attempt)}, ' if request.attempt >= 2 else ""
    digest = "null" if request.image is None else f'"{request.image.digest}"'
    kind = "text" if request.image is None else "vision"
    canonical = (
        f'{{{attempt}"image_digest": {digest}, "kind": "{kind}", '
        f'"model_id": {_quote(request.model_id)}, "prompt": {_quote(request.prompt)}, '
        f'"temperature": {_number(request.temperature)}}}'
    )
    # A quoted reply may hold a lone surrogate; valid text encodes the same.
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


def _number(value: int | float) -> str:
    return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)


class Backend(Protocol):
    """Minimal surface a backend must provide."""

    name: str

    def complete(self, request: ModelRequest) -> str: ...


# Idle keep-alive connections one HttpBackend keeps for reuse. A call takes
# an idle connection or opens a new one; a connection handed back while this
# many are idle is closed instead.
MAX_IDLE_CONNECTIONS = 8

# The most bytes one HTTP reply may take, for its header block and again for
# its body. A chat reply is kilobytes; a larger one fails its call.
MAX_REPLY_BYTES = 4 * 1024 * 1024

# The most one socket read asks for: a chat reply's head and body usually
# fit; a longer body with a Content-Length is read straight into its buffer.
_RECV_BYTES = 8192
# A chunk size is 1*HEXDIG; int(size, 16) alone would also read 0x5, +5 and 0_5.
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")

# Retry backoff: the first pause after a transient failure, doubling after
# each retry, and the most one call sleeps in total across its retries.
BASE_DELAY = 1.0
MAX_TOTAL_DELAY = 30.0

# Stands in for the image's data URL while a vision body is serialized; the
# body then goes out in chunks, the image's cached base64 in the slot's place.
_IMAGE_SLOT = "hmgie:image-data-url"
_IMAGE_SLOT_JSON = json.dumps(_IMAGE_SLOT).encode("ascii")


def _retry_after(value: Optional[str | bytes]) -> Optional[float]:
    """Seconds of a Retry-After header; None when absent or not a delay in
    seconds (the HTTP-date form is not read)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


class HttpBackend:
    """Chat-completions HTTP client; images travel as base64 data URLs.

    Speaks HTTP/1.1 on sockets it opens itself and keeps one shared pool of
    at most MAX_IDLE_CONNECTIONS idle keep-alive sockets; ``close()``
    closes them. https verifies certificates and host names with
    ``ssl.create_default_context()``. Behind a proxy, an https endpoint is
    reached through a ``CONNECT`` tunnel that carries the proxy URL's
    credentials; its reply maps to an error as any reply does (see
    _check_status), so a proxy's 407 is an AuthError.

    ``timeout`` bounds a whole call: connecting, the tunnel, TLS, sending
    and reading share one deadline. The proxy for the endpoint's scheme
    (``http_proxy`` / ``https_proxy``, minus ``no_proxy``) is read and both
    heads are built once, when the backend is built. ``ssl`` and ``socket``
    are imported only once a backend needs them, so importing the package
    does not pay for them.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        timeout: float = 120.0,
    ):
        import urllib.parse
        import urllib.request

        def split(text: str, what: str):
            # The port is parsed lazily, so it is read here to check it too;
            # a host idna cannot encode would fail only when connecting.
            try:
                parts = urllib.parse.urlsplit(text)
                parts.port
                (parts.hostname or "").encode("idna")
            except ValueError as exc:
                raise GatewayError(f"{what} is not a valid URL: {exc}") from None
            return parts

        self.name = f"http:{endpoint}"
        self.timeout = timeout
        base = endpoint.rstrip("/")
        url = split(base, f"endpoint {endpoint!r}")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise GatewayError(f"endpoint must be an http or https URL, got {endpoint!r}")
        default_port = 443 if url.scheme == "https" else 80
        port = url.port or default_port
        self._address, self._tunnel = (url.hostname, port), None
        path = f"{url.path}/chat/completions"
        # Host names the endpoint, never the proxy, and leaves out a default port.
        host_port = None if port == default_port else port
        headers = {
            "Accept-Encoding": "identity",
            "Content-Type": "application/json",
            "Authorization": f"Bearer {api_key}",
        }
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            # The proxy may carry credentials, so an error names its variable.
            proxy_url = split(proxy if "://" in proxy else f"http://{proxy}", f"{url.scheme}_proxy")
            if not proxy_url.hostname:
                raise GatewayError(f"{url.scheme}_proxy names no host")
            proxy_headers = {}
            if proxy_url.username is not None:
                unquote = urllib.parse.unquote
                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if url.scheme == "http":
                # A proxy forwarding plain http is sent the absolute URL.
                path, host_port = f"{base}/chat/completions", url.port
                headers.update(proxy_headers)
            else:
                tunnel = _head("CONNECT", None, url.hostname, port, proxy_headers, endpoint)
                self._tunnel = tunnel + b"\r\n\r\n"
            self._address = (proxy_url.hostname, proxy_url.port or 80)
        headers["Content-Length"] = ""  # its value is each call's
        self._head = _head("POST", path, url.hostname, host_port, headers, endpoint)
        self._server_hostname, self._context = url.hostname, None
        if url.scheme == "https":
            import ssl

            self._context = ssl.create_default_context()
        self._idle: list = []  # sockets, most recently used last
        self._lock = threading.Lock()

    def _open(self, deadline: float):
        """A new socket to the endpoint, through the proxy's tunnel when
        there is one and over TLS for https."""
        import socket

        sock = socket.create_connection(self._address, _remaining(deadline))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.settimeout(_remaining(deadline))
                sock.sendall(self._tunnel)
                reader = _ReplyReader(sock, deadline)
                status, _, headers = reader.head()
                _check_status(status, headers, reader.buffer)
                if reader.buffer:  # the tunnel carries only what TLS sends
                    raise ConnectionError("the proxy sent bytes after its reply to CONNECT")
            if self._context is not None:
                sock.settimeout(_remaining(deadline))
                sock = self._context.wrap_socket(sock, server_hostname=self._server_hostname)
        except BaseException:
            sock.close()
            raise
        return sock

    def close(self) -> None:
        """Close every idle pooled socket; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def _take(self):
        """An idle socket whose server has not closed it, or None."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                sock = self._idle.pop()
            # A server that closed an idle connection leaves its socket
            # readable (at end of file); reusing it would cost a retry.
            # poll, unlike select, takes descriptors past FD_SETSIZE.
            readable = select.poll()
            readable.register(sock, select.POLLIN)
            if not readable.poll(0):
                return sock
            sock.close()

    def _body(self, request: ModelRequest) -> tuple[bytes, ...]:
        """The JSON body, serialized once, as the chunks to send; a vision body's
        image is the ref's cached base64 text (which needs no JSON escaping)."""
        if request.image is None:
            content = request.prompt
        else:
            content = [
                {"type": "text", "text": request.prompt},
                {"type": "image_url", "image_url": {"url": _IMAGE_SLOT}},
            ]
        body = json.dumps(
            {
                "model": request.model_id,
                "temperature": request.temperature,
                "max_tokens": request.max_output_tokens,
                "messages": [{"role": "user", "content": content}],
            },
            allow_nan=False,
        ).encode("utf-8")
        if request.image is None:
            return (body,)
        # The slot is the last string in the body, after any prompt text
        # that happens to spell it; head and tail keep its quotes.
        at = body.rindex(_IMAGE_SLOT_JSON)
        prefix = f"data:{request.image.media_type or 'image/jpeg'};base64,".encode("ascii")
        tail = body[at + len(_IMAGE_SLOT_JSON) - 1 :]
        return body[: at + 1], prefix, request.image.base64_payload, tail

    def _exchange(self, body: tuple[bytes, ...], deadline: float):
        """Send one request on an idle or a new socket and read its reply:
        the status, the headers and the body."""
        sock = self._take() or self._open(deadline)
        head = b"%s%d\r\n\r\n" % (self._head, sum(map(len, body)))
        try:
            # The head rides with the first chunk; the image's base64 goes alone.
            for chunk in (head + body[0], *body[1:]):
                sock.settimeout(_remaining(deadline))
                sock.sendall(chunk)
            status, headers, data, reusable = _ReplyReader(sock, deadline).read()
        except BaseException:
            sock.close()
            raise
        with self._lock:
            if reusable and len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(sock)
                return status, headers, data
        sock.close()
        return status, headers, data

    def complete(self, request: ModelRequest) -> str:
        deadline = time.monotonic() + self.timeout
        try:
            status, headers, data = self._exchange(self._body(request), deadline)
        except OSError as exc:
            raise TransientBackendError(f"transport failure: {exc!r}") from exc
        _check_status(status, headers, data)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"unexpected response shape: {exc}") from exc
        return content if isinstance(content, str) else ""


def _head(
    method: str, target: Optional[str], host: str, port: Optional[int], headers: dict, endpoint: str
) -> bytes:
    """A request line, ``Host`` and ``headers``, CRLF-joined with no blank
    line after. ``Host`` names the idna-encoded host (an IPv6 address in
    brackets, without its zone) and the port, if given; a ``target`` of
    None names that too, as CONNECT does. A head that would not go on the
    wire as written raises GatewayError; idna must encode the host."""
    host = host.partition("%")[0]
    host = host if host.isascii() else host.encode("idna").decode("ascii")
    host = f"[{host}]" if ":" in host else host
    authority = host if port is None else f"{host}:{port}"
    if target is not None and not (target.isascii() and all(" " < ch != "\x7f" for ch in target)):
        raise GatewayError(
            f"endpoint {endpoint!r} is not a valid URL: its path is not printable ASCII"
        )
    if any("\r" in value or "\n" in value for value in headers.values()):
        raise GatewayError("the API key cannot go in an HTTP header: it holds a line break")
    lines = [f"{method} {target or authority} HTTP/1.1", f"Host: {authority}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    try:
        return "\r\n".join(lines).encode("latin-1")
    except UnicodeEncodeError:
        raise GatewayError(
            "the API key cannot go in an HTTP header: it holds a character outside Latin-1"
        ) from None


def _check_status(status: int, headers: dict[bytes, bytes], data: bytes) -> None:
    """Raise what a reply's status from 300 up stands for: 401, 403 and 407
    an AuthError; 429 and 5xx a transient error with the reply's
    Retry-After; any other a GatewayError (redirects are not followed)."""
    if status < 300:
        return
    excerpt = data.decode("utf-8", "replace")[:200]
    if status in (401, 403, 407):
        raise AuthError(f"credentials rejected (HTTP {status})")
    if status == 429 or status >= 500:
        delay = headers.get(b"retry-after") if status in (429, 503) else None
        raise TransientBackendError(f"HTTP {status}: {excerpt}", _retry_after(delay))
    location = headers.get(b"location")
    where = "" if location is None else f" (Location: {location.decode('latin-1')})"
    raise GatewayError(f"HTTP {status}: {excerpt}{where}")


def _remaining(deadline: float) -> float:
    """Seconds left before the deadline; TimeoutError once it has passed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("the call ran out of its timeout")
    return remaining


def _oversize(part: str) -> str:
    return f"reply {part} passes MAX_REPLY_BYTES = {MAX_REPLY_BYTES} bytes"


class _ReplyReader:
    """Reads one HTTP/1.1 reply off a socket.

    Every read gets only what remains of the call's deadline. The body is
    framed by Content-Length, by the chunked transfer coding, or by the
    server closing the connection; 1xx, 204 and 304 replies have none. A
    reply that breaks the framing raises ConnectionError, so it counts as a
    transport failure; a header block or body past MAX_REPLY_BYTES raises
    GatewayError before more of it is read.
    """

    __slots__ = ("sock", "deadline", "buffer")

    def __init__(self, sock, deadline: float):
        self.sock = sock
        self.deadline = deadline
        self.buffer = b""  # read off the socket and not yet taken

    def read(self) -> tuple[int, dict[bytes, bytes], bytes, bool]:
        """The status, the headers (names in lower case), the body, and
        whether the connection may carry another request."""
        status, version, headers = self.head()
        connection = headers.get(b"connection", b"").lower()
        if version == b"HTTP/1.1":
            reusable = b"close" not in connection
        else:
            reusable = b"keep-alive" in connection or b"keep-alive" in headers
        coding = headers.get(b"transfer-encoding", b"").rpartition(b",")[2]
        length = headers.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif coding.strip().lower() == b"chunked":
            body = self._chunked()
        elif length is not None:
            if not length.isdigit():
                raise ConnectionError(f"malformed Content-Length {length[:40]!r}")
            # int() refuses past 4,300 digits; 18 hold any length under the cap.
            if len(length) > 18 or int(length) > MAX_REPLY_BYTES:
                raise GatewayError(_oversize(f"of {length[:40].decode()} bytes"))
            body = self._exact(int(length))
        else:
            body, reusable = self._until_close(), False
        # Bytes past the reply would be read as the next one's.
        return status, headers, body, reusable and not self.buffer

    def _recv(self) -> bytes:
        self.sock.settimeout(_remaining(self.deadline))
        return self.sock.recv(_RECV_BYTES)

    def head(self) -> tuple[int, bytes, dict[bytes, bytes]]:
        """The status, the version and the headers (names in lower case) of
        the reply, past any interim 1xx replies."""
        status = 100
        while 100 <= status < 200:  # an interim reply; the real one follows
            if not self.buffer:
                self.buffer = self._recv()
                if not self.buffer:  # no reply came at all, as after a reset
                    raise ConnectionResetError("the server closed the connection before a reply")
            block = self._until(b"\r\n\r\n", MAX_REPLY_BYTES)
            if block is None:
                raise GatewayError(_oversize("header block"))
            lines = block.split(b"\r\n")
            version, _, rest = lines[0].partition(b" ")
            code = rest[:3]
            if not (
                version.startswith(b"HTTP/")
                and code.isdigit()
                and code >= b"100"
                and rest[3:4] in (b"", b" ")
            ):
                raise ConnectionError(f"malformed status line {lines[0][:80]!r}")
            status = int(code)
        headers = {}
        for line in lines[1:]:
            name, colon, value = line.partition(b":")
            if colon:
                headers[name.strip().lower()] = value.strip()
        return status, version, headers

    def _until(self, delimiter: bytes, cap: int) -> Optional[bytes]:
        """The bytes up to the next ``delimiter``, which is taken too, or
        None past ``cap`` bytes."""
        buffer = self.buffer
        end = buffer.find(delimiter)
        if end < 0:
            buffer = bytearray(buffer)  # grows in place
            while end < 0:
                if len(buffer) > cap:
                    return None
                data = self._recv()
                if not data:
                    raise ConnectionError("the server closed the connection inside a reply")
                searched = max(len(buffer) - len(delimiter) + 1, 0)
                buffer += data
                end = buffer.find(delimiter, searched)
            buffer = bytes(buffer)
        if end > cap:
            return None
        self.buffer = buffer[end + len(delimiter) :]
        return buffer[:end]

    def _exact(self, size: int) -> bytes | bytearray:
        """The next ``size`` bytes; a body read in pieces goes straight into
        one buffer of its final size."""
        buffered = self.buffer
        if len(buffered) >= size:
            self.buffer = buffered[size:]
            return buffered[:size]
        self.buffer = b""
        data = bytearray(size)
        view = memoryview(data)
        got = len(buffered)
        view[:got] = buffered
        while got < size:
            self.sock.settimeout(_remaining(self.deadline))
            received = self.sock.recv_into(view[got:])
            if not received:
                raise ConnectionError(
                    f"the server closed the connection after {got} of {size} bytes"
                )
            got += received
        return data

    def _line(self) -> bytes:
        """The next line of a chunked body, without its CRLF."""
        line = self._until(b"\r\n", 65536)
        if line is None:
            raise ConnectionError("malformed chunked body: a line runs past 64 KiB")
        return line

    def _chunked(self) -> bytes:
        """A chunked body; the chunk sizes and trailer lines count toward
        MAX_REPLY_BYTES, each size before its chunk is read."""
        pieces, total = [], 0
        while True:
            size = self._line().partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise ConnectionError(f"malformed chunk size {size[:40]!r}")
            size = int(size, 16)
            total += size
            if total > MAX_REPLY_BYTES:
                raise GatewayError(_oversize("body"))
            if size == 0:
                break
            pieces.append(self._exact(size))
            if self._exact(2) != b"\r\n":
                raise ConnectionError("malformed chunked body: a chunk runs past its size")
        while True:  # trailer lines, up to an empty one
            line = self._line()
            total += len(line) + 2
            if total > MAX_REPLY_BYTES:
                raise GatewayError(_oversize("body"))
            if not line:
                return b"".join(pieces)

    def _until_close(self) -> bytearray:
        """A body that ends where the server closes the connection."""
        data = bytearray(self.buffer)
        self.buffer = b""
        while True:
            if len(data) > MAX_REPLY_BYTES:
                raise GatewayError(_oversize("body"))
            received = self._recv()
            if not received:
                return data
            data += received


@dataclass(frozen=True)
class CallRecord:
    """What a backend was asked, without the image bytes."""

    prompt: str
    model_id: str
    image_digest: Optional[str]


class ReplyLog:
    """The replies recorded in one directory, keyed by cache key.

    Replies live in one append-only file, ``<dir>/replies.jsonl``, one line
    per reply: ``json.dumps([key, reply])`` (ASCII, so a lone surrogate or a
    ``\\r`` comes back exactly). Each line is written with a single
    ``os.write`` to an ``O_APPEND`` descriptor opened on the first append,
    so a crash can tear only the last line; readers skip a line that does
    not parse, and an append to a file that does not end in a newline
    starts one first.

    The log indexes the lines it has read or appended in a private table,
    so the index holds only the log's lines. A lookup that misses it reads
    only the lines appended since the last read, by this process or
    another. When a key appears twice, its first line wins.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = self.directory / "replies.jsonl"
        self._index: dict[str, str] = {}
        self._indexed = 0  # bytes of the log read into ``_index``
        self._fd: Optional[int] = None
        self._release = None
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[str]:
        reply = self._index.get(key)
        if reply is None:
            with self._lock:
                self._read_new_lines()
            reply = self._index.get(key)
        return reply

    def append(self, key: str, reply: str) -> None:
        """Record one reply; an error or a short write raises."""
        line = (json.dumps([key, reply]) + "\n").encode("ascii")
        with self._lock:
            if self._fd is None:
                self._open()
            try:
                written = os.write(self._fd, line)
                if written != len(line):
                    raise OSError(f"short write to {self.path}: {written} of {len(line)} bytes")
            except OSError:
                # Reopening checks the last byte, so the next line starts afresh.
                self._release()
                self._fd = None
                raise
            end = os.lseek(self._fd, 0, os.SEEK_CUR)
            if end - written == self._indexed:
                # No line came between the indexed part and this one.
                self._indexed = end
            self._index.setdefault(key, reply)

    def _open(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o600)
        self._release = weakref.finalize(self, os.close, fd)
        size = os.lseek(fd, 0, os.SEEK_END)
        if size:
            os.lseek(fd, size - 1, os.SEEK_SET)
            if os.read(fd, 1) != b"\n":
                os.write(fd, b"\n")  # end a line torn by a crash
        self._fd = fd

    def _read_new_lines(self) -> None:
        try:
            if os.stat(self.path).st_size <= self._indexed:
                return
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(self._indexed)
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn, or still being written
                self._indexed += len(line)
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # a line torn by a crash
                if type(entry) is list and [type(part) for part in entry] == [str, str]:
                    self._index.setdefault(*entry)


class ScriptedBackend:
    """Replay backend serving recorded replies keyed by cache_key.

    Fixtures come from one source: an in-memory mapping, kept as the dict
    ``.fixtures``, or a directory's ReplyLog. Every served request is
    appended to .calls as a CallRecord for trace assertions; the record
    holds the image digest, never the payload.
    """

    def __init__(
        self,
        fixture_dir: Optional[str | Path] = None,
        fixtures: Optional[Mapping[str, str]] = None,
    ):
        if (fixture_dir is None) == (fixtures is None):
            raise ValueError("scripted backend needs a fixture dir or a mapping, not both")
        self.name = "scripted"
        self.calls: list[CallRecord] = []
        self._lock = threading.Lock()
        if fixtures is not None:
            self.fixtures = dict(fixtures)
            self._lookup = self.fixtures.get
        else:
            self._lookup = ReplyLog(fixture_dir).get

    def complete(self, request: ModelRequest) -> str:
        record = CallRecord(request.prompt, request.model_id, request.image_digest)
        with self._lock:
            self.calls.append(record)
        reply = self._lookup(request.key)
        if reply is None:
            raise FixtureMissingError(request.key)
        return reply


class _Gate:
    """One call in flight: its maker holds ``lock`` from birth until the
    call ends, duplicates wait on it, and ``error`` holds what the call
    raised, for those waiters only."""

    __slots__ = ("lock", "error")

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.error: Optional[BaseException] = None


class Gateway:
    """Caching, retrying, coalescing front door to a backend.

    A call makes up to ``attempts`` tries at the backend, sleeping between
    them with backoff doubling from BASE_DELAY and at least as long as a
    ``Retry-After`` asked, never more than MAX_TOTAL_DELAY in total.
    ``call_parsed`` sends up to ``attempts`` requests for one prompt whose
    replies do not parse.

    One table, ``_replies``, maps each key this gateway has called to its
    reply, or to the _Gate of its one call in flight. With cache_dir set, a
    key with no entry is first looked up in that directory's ReplyLog, and
    a hit there is served without entering the table; record=True
    additionally appends live replies to the log, so a real run can later
    be replayed by a gateway over the same directory whose backend has no
    replies of its own.
    """

    def __init__(
        self,
        backend: Backend,
        cache_dir: Optional[str | Path] = None,
        record: bool = False,
        attempts: int = 3,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.backend = backend
        if record and cache_dir is None:
            raise ValueError("record mode requires a cache_dir")
        self.record = record
        require_positive(attempts=attempts)
        self.attempts = attempts
        self._sleeper = sleeper
        self._log = ReplyLog(cache_dir) if cache_dir is not None else None
        self._replies: dict[str, str | _Gate] = {}

    def _complete_with_retries(self, request: ModelRequest) -> str:
        delay = BASE_DELAY
        slept = 0.0
        last: Optional[Exception] = None
        for attempt in range(self.attempts):
            try:
                return self.backend.complete(request)
            except TransientBackendError as exc:
                last = exc
                if attempt + 1 < self.attempts:
                    # Wait at least as long as the server asked, within budget.
                    budget = MAX_TOTAL_DELAY - slept
                    wanted = max(delay, exc.retry_after or 0.0)
                    pause = max(0.0, min(wanted, budget))
                    if pause > 0:
                        self._sleeper(pause)
                        slept += pause
                    delay *= 2
        raise ExhaustedError(
            f"backend {self.backend.name} failed after {self.attempts} attempts: {last}"
        ) from last

    def call(self, request: ModelRequest) -> ModelResponse:
        """Resolve a request through cache, coalescing, and retry.

        Concurrent duplicates of a request wait for one call and share its
        outcome: its reply, or the error it raised. A failure is not kept,
        so a later call starts afresh.

        Raises:
            AuthError: credentials rejected (never retried).
            ExhaustedError: retries exceeded, or scripted fixture missing.
        """
        key = request.key
        entry = self._replies.get(key)
        if entry is None:
            if self._log is not None:
                logged = self._log.get(key)
                if logged is not None:
                    return ModelResponse(text=logged, cached=1)
            gate = _Gate()
            entry = self._replies.setdefault(key, gate)
            if entry is gate:
                try:
                    text = self._complete_with_retries(request)
                    if self.record:
                        self._log.append(key, text)
                    self._replies[key] = text
                except BaseException as exc:
                    gate.error = exc
                    del self._replies[key]
                    raise
                finally:
                    gate.lock.release()
                return ModelResponse(text=text, cached=0)
        if isinstance(entry, _Gate):
            with entry.lock:  # held by the maker until its call ends
                pass
            if entry.error is not None:
                raise entry.error
            entry = self._replies[key]
        return ModelResponse(text=entry, cached=1)


T = TypeVar("T")


def call_parsed(
    gateway: Gateway,
    request: ModelRequest,
    parse: Callable[[str], T],
    on_reject: Callable[[int, Exception], None],
) -> Optional[T]:
    """Call, parse, and retry until a reply parses or attempts run out.

    A reply is rejected when ``parse`` raises MalformedOutputError or
    SchemaViolationError; ``on_reject(attempt, error)`` hears of each one and
    attempt n + 1 is sent as a distinct request (same prompt and image ref,
    ``attempt=n + 1``). Any other error from ``parse`` or the gateway
    propagates. Returns the parsed value, or None after ``gateway.attempts``
    rejected replies.
    """
    for attempt in range(1, gateway.attempts + 1):
        if attempt > 1:
            request = replace(request, attempt=attempt)
        text = gateway.call(request).text
        try:
            return parse(text)
        except (MalformedOutputError, SchemaViolationError) as exc:
            on_reject(attempt, exc)
    return None
