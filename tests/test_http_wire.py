"""Properties of the HTTP/1.1 wire format as HttpBackend writes and reads it.

The reply-stream property feeds generated reply bytes to ``_ReplyReader``
through a scripted socket on a fake clock, so a trickle past the deadline
costs no sleep. The request-head property reads every head the backend
builds back with a strict parser.
"""

import base64
import os
import sys
import urllib.parse
from typing import NamedTuple, Optional
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmgie import gateway as gateway_module
from hmgie.errors import GatewayError
from hmgie.gateway import HttpBackend

CAP = gateway_module.MAX_REPLY_BYTES
RECV = gateway_module._RECV_BYTES
TIMEOUT = 1.0  # the reader's deadline on the fake clock, which starts at 0

# --- the reply-stream property ----------------------------------------------


class Reply(NamedTuple):
    """A reply byte stream and what ``read()`` must make of it: the framed
    body, the exception class it must raise, or None when a mutation left
    any of the allowed outcomes possible."""

    data: bytes
    expected: object

    def __repr__(self) -> str:  # a stream past the cap runs to megabytes
        data = self.data if len(self.data) < 600 else self.data[:300] + b"..." + self.data[-300:]
        return f"Reply({data!r} ({len(self.data)} bytes), expected={self.expected!r})"


def _chunked(draw, body: bytes) -> bytes:
    """``body`` in the chunked coding: random chunk boundaries, sizes in
    either case with leading zeros, chunk extensions and trailer lines."""
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
    out = []
    for start, end in zip([0, *cuts], [*cuts, len(body)]):
        if start < end:
            out.append(_chunk_line(draw, end - start) + body[start:end] + b"\r\n")
    out.append(_chunk_line(draw, 0))
    for name, value in draw(st.lists(st.tuples(_TOKENS, _VALUES), max_size=2)):
        out.append(b"%s: %s\r\n" % (name, value))
    return b"".join(out) + b"\r\n"


def _chunk_line(draw, size: int) -> bytes:
    digits = draw(st.sampled_from([b"%x", b"%X", b"00%x"])) % size
    extension = draw(st.sampled_from([b"", b";a=1", b' ; name="q;v"', b";x"]))
    return digits + extension + b"\r\n"


_TOKENS = st.sampled_from([b"Server", b"x-trace", b"Date", b"Link", b"X-Folded"])
_VALUES = st.sampled_from([b"", b"raw", b" a b ", b"</a>; rel=preload", b"\xe9t\xe9"])
_INTERIM = st.sampled_from(
    [b"HTTP/1.1 100 Continue\r\n\r\n", b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"]
)
# Each framing's headers and body bytes, and what read() must make of them.
_FRAMINGS = [
    "length", "chunked", "close",  # read whole
    "bad-length", "bad-chunk-size", "chunk-overrun", "long-chunk-line", "cut-short",
    "length-past-cap", "close-past-cap", "chunk-past-cap", "trailers-past-cap",
]


@st.composite
def replies(draw) -> Reply:
    """A reply: interim 1xx replies, a status line, headers and one framing,
    then, sometimes, byte mutations that leave the outcome open."""
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]))
    status = draw(st.integers(200, 599))
    reason = draw(st.sampled_from([b"", b" ", b" OK", b" Not Found"]))
    bad_status_line = draw(
        st.sampled_from([None] * 12 + [b"SPDY/3 200 OK", b"HTTP/1.1 2000 OK", b"HTTP/1.1 099"])
    )
    headers = [b"%s: %s" % pair for pair in draw(st.lists(st.tuples(_TOKENS, _VALUES), max_size=3))]
    body = draw(st.binary(max_size=200))
    framing = draw(st.sampled_from(_FRAMINGS))
    expected = body
    if framing == "length":
        headers.append(b"Content-Length: " + draw(st.sampled_from([b"%d", b"0%d"])) % len(body))
    elif framing in ("chunked", "chunk-overrun", "bad-chunk-size", "long-chunk-line"):
        coding = draw(st.sampled_from([b"chunked", b"Chunked", b"gzip, chunked"]))
        headers.append(b"Transfer-Encoding: " + coding)
        if draw(st.booleans()):  # chunked framing wins over a Content-Length
            headers.append(b"Content-Length: 3")
        if framing == "chunked":
            body = _chunked(draw, body)
        elif framing == "chunk-overrun":
            body, expected = b"2\r\nabc\r\n0\r\n\r\n", ConnectionError
        elif framing == "bad-chunk-size":
            # int(size, 16) would read the first three; a chunk size is 1*HEXDIG.
            size = draw(st.sampled_from([b"0x2", b"+2", b"0_0", b"-1", b"zz", b""]))
            body, expected = size + b"\r\nhi\r\n0\r\n\r\n", ConnectionError
        else:
            body, expected = b"1;" + b"e" * 65536 + b"\r\nx\r\n0\r\n\r\n", ConnectionError
    elif framing == "bad-length":
        length = draw(st.sampled_from([b"1e3", b"-1", b"", b"0x10", b"+5"]))
        headers.append(b"Content-Length: " + length)
        expected = ConnectionError
    elif framing == "cut-short":  # the server closes inside the body
        headers.append(b"Content-Length: %d" % (len(body) + 1))
        expected = ConnectionError
    elif framing == "length-past-cap":
        # Past the cap by value, by 18 digits, and past int()'s 4,300 digits.
        lengths = [b"%d" % (CAP + 1), b"1" + b"0" * 18, b"9" * 4301, b"9" * 5000]
        length = draw(st.sampled_from(lengths))
        headers.append(b"Content-Length: " + length)
        expected = GatewayError
    elif framing == "close-past-cap":
        body, expected = b"b" * (CAP + 1), GatewayError
    elif framing == "chunk-past-cap":
        headers.append(b"Transfer-Encoding: chunked")
        body, expected = b"%x\r\n" % (CAP + 1), GatewayError
    elif framing == "trailers-past-cap":
        headers.append(b"Transfer-Encoding: chunked")
        body = b"2\r\nhi\r\n0\r\n" + b"X-Pad: %s\r\n" % (b"p" * 65000) * 65 + b"\r\n"
        expected = GatewayError
    if status in (204, 304):
        expected = b""  # no body is read
    status_line = bad_status_line or b"%s %d%s" % (version, status, reason)
    head = b"\r\n".join([status_line, *headers]) + b"\r\n\r\n"
    if bad_status_line:
        expected = ConnectionError
    elif draw(st.integers(0, 19)) == 0:  # a head past the cap, never ended
        head, body, expected = head[:-2] + b"X-Pad: " + b"p" * (CAP + 1), b"", GatewayError
    data = b"".join(draw(st.lists(_INTERIM, max_size=2))) + head + body
    if draw(st.integers(0, 3)) == 0:  # a quarter of the replies
        mutations = st.tuples(st.integers(0, len(data)), st.binary(max_size=3), st.integers(0, 3))
        for at, insert, cut in draw(st.lists(mutations, min_size=1, max_size=3)):
            data, expected = data[:at] + insert + data[at + cut :], None
    return Reply(data, expected)


class ScriptedSocket:
    """A socket that hands out a byte stream in the pieces it was cut into.

    A read returns at most the rest of the current piece, once the piece's
    delay has passed on a fake clock; a delay past the socket's timeout is a
    socket timeout, with no sleep. Past the last piece a read returns b"",
    as after the server closed. Each read checks the reader's contract:
    its timeout was set just before, to what remains of the deadline, which
    has not passed; and the reader holds no more than a head's or a body's
    MAX_REPLY_BYTES plus two reads of _RECV_BYTES (the last read's bytes,
    and the first read's bytes until they are taken)."""

    def __init__(self, data: bytes, cuts: list[int], delays: list[float]):
        self.view = memoryview(data)
        ends = sorted({*cuts, len(data)} - {0})
        self.pieces = [[delay, start, end] for delay, start, end in zip(delays, [0, *ends], ends)]
        self.now = 0.0
        self.timeout = None  # (when it was set, its value)

    def monotonic(self) -> float:
        return self.now

    def settimeout(self, timeout: float) -> None:
        self.timeout = (self.now, timeout)

    def recv(self, size: int) -> bytes:
        set_at, timeout = self.timeout
        assert set_at == self.now and timeout == TIMEOUT - self.now > 0
        assert _held_by_reader(sys._getframe(1)) <= CAP + 2 * RECV + 1024
        if not self.pieces:
            return b""
        piece = self.pieces[0]
        if piece[0] > timeout:
            self.now, piece[0] = TIMEOUT, piece[0] - timeout
            raise TimeoutError("timed out")
        self.now, piece[0] = self.now + piece[0], 0.0
        data = bytes(self.view[piece[1] : min(piece[2], piece[1] + size)])
        piece[1] += len(data)
        if piece[1] == piece[2]:
            self.pieces.pop(0)
        return data

    def recv_into(self, buffer) -> int:
        data = self.recv(len(buffer))
        buffer[: len(data)] = data
        return len(data)


def _held_by_reader(frame) -> int:
    """The bytes the reader's buffer and the locals of its running methods
    hold, each object once and leaving out the code's constants."""
    frames = []
    while frame is not None:
        if frame.f_globals is vars(gateway_module):
            frames.append((frame.f_code, frame.f_locals))
        frame = frame.f_back
    seen = {id(constant) for code, _ in frames for constant in code.co_consts}
    held = 0
    for _, local in frames:
        reader = local.get("self")
        if isinstance(reader, gateway_module._ReplyReader):
            for value in [reader.buffer, *local.values()]:
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, (bytes, bytearray)) and id(item) not in seen:
                        seen.add(id(item))
                        held += len(item)
    return held


@settings(
    max_examples=500, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    reply=replies(),
    cuts=st.lists(st.integers(1, 8 * RECV), max_size=6),
    delays=st.lists(st.sampled_from([0.0, 0.0, 0.001, 0.3]), min_size=7, max_size=7),
)
def test_a_reply_stream_is_read_whole_or_refused_by_the_transport(reply, cuts, delays):
    """read() returns exactly the framed body, or raises ConnectionError,
    TimeoutError or GatewayError; the socket checks the deadline and the cap
    at each read. A reply whose pieces arrive within the deadline ends as
    its framing says."""
    sock = ScriptedSocket(reply.data, [min(cut, len(reply.data)) for cut in cuts], delays)
    trickle = sum(piece[0] for piece in sock.pieces)
    with mock.patch.object(gateway_module, "time", sock):
        try:
            outcome = gateway_module._ReplyReader(sock, TIMEOUT).read()[2]
        except (ConnectionError, TimeoutError, GatewayError) as exc:
            outcome = exc
    if isinstance(outcome, TimeoutError) and trickle >= TIMEOUT:
        return  # the trickle ran out of the deadline first
    if isinstance(reply.expected, bytes):
        assert outcome == reply.expected
    elif reply.expected is not None:
        assert isinstance(outcome, reply.expected), outcome
        # A transport failure is retried; an oversize reply is not.
        assert isinstance(outcome, GatewayError) == (reply.expected is GatewayError)


# --- the request-head property ----------------------------------------------


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """The method, target and headers of a request head, CRLF-terminated and
    ending in an empty line, read strictly: one space between the request
    line's three parts, a target of printable ASCII, a header name that is a
    token, ": " after it, no repeated name."""
    assert head.endswith(b"\r\n\r\n")
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    method, target, version = request_line.split(" ")
    assert method.isalpha() and method.isupper() and version == "HTTP/1.1"
    assert target and target.isascii() and all(" " < ch != "\x7f" for ch in target)
    headers = {}
    token = set("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    for line in lines:
        name, sep, value = line.partition(": ")
        assert sep and name and set(name) <= token and name.lower() not in headers
        assert "\r" not in value and "\n" not in value
        headers[name.lower()] = value
    return method, target, headers


def _authority(host: str, port: Optional[int]) -> str:
    """A Host value: the idna-encoded host, an IPv6 address in brackets
    without its zone, and the port when given."""
    host = host.partition("%")[0].encode("idna").decode("ascii")
    host = f"[{host}]" if ":" in host else host
    return host if port is None else f"{host}:{port}"


_HOSTS = st.one_of(
    st.sampled_from(["api.example.com", "Bücher.example", "127.0.0.1", "[::1]",
                     "[fe80::1%25eth0]", "a..b", "", "x" * 64 + ".example", "h_st"]),
    st.text(alphabet="abcz-.é", min_size=1, max_size=12),
)
_PORTS = st.sampled_from(["", "", ":0", ":80", ":443", ":8080", ":65535", ":65536", ":x", ":"])
_PATHS = st.one_of(
    st.just(""),
    st.text(alphabet="/av1%-._~", max_size=9).map("/".__add__),
    st.sampled_from(["/a b", "/é", "/\x7f", "/\t"]),
)
_CREDENTIALS = st.sampled_from(["", "user@", "user:pw@", "u%40x:p%3Aw@", "é:é@", ":@"])


_QUERIES = st.sampled_from(["", "", "?", "?x=1", "?a=1&b=%2F/", "?q=a b"])
_FRAGMENTS = st.sampled_from(["", "", "#", "#f", "#a?b=1", "#é"])


@st.composite
def endpoints(draw) -> str:
    scheme = draw(st.sampled_from(["http", "https", "HTTP", "ftp"]))
    credentials = draw(st.one_of(st.just(""), _CREDENTIALS))
    return (
        f"{scheme}://{credentials}{draw(_HOSTS)}{draw(_PORTS)}{draw(_PATHS)}"
        f"{draw(_QUERIES)}{draw(_FRAGMENTS)}"
    )


@st.composite
def proxies(draw) -> Optional[str]:
    if draw(st.booleans()):
        return None
    scheme = draw(st.sampled_from(["http://", "", "socks5://"]))
    return f"{scheme}{draw(_CREDENTIALS)}{draw(_HOSTS)}{draw(_PORTS)}"


def _backend(endpoint: str, api_key: str, proxy: Optional[str]) -> HttpBackend:
    """A backend built with ``proxy`` as the only proxy variable set."""
    with mock.patch.dict(os.environ):
        for name in ("no_proxy", "http_proxy", "https_proxy"):
            os.environ.pop(name, None)
            os.environ.pop(name.upper(), None)
        if proxy:
            os.environ.update(http_proxy=proxy, https_proxy=proxy)
        return HttpBackend(endpoint, api_key)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    endpoint=endpoints(),
    api_key=st.one_of(
        st.text(st.characters(max_codepoint=0xFF), max_size=8),
        st.sampled_from(["k\u20ac", "k\r\n"]),
    ),
    proxy=proxies(),
)
def test_every_head_the_backend_builds_reads_back(endpoint, api_key, proxy):
    """A backend built for an endpoint, key and proxy writes heads a strict
    parser reads back to the same method, target, Host and headers; an
    input it refuses raises GatewayError when it is built."""
    try:
        backend = _backend(endpoint, api_key, proxy)
    except GatewayError as exc:
        # Only an endpoint's credentials hold "@"; they are never echoed.
        assert "@" not in str(exc)
        return
    url = urllib.parse.urlsplit(endpoint)
    default_port = 443 if url.scheme == "https" else 80
    # Credentials and port 0 are refused; the fragment is never sent.
    assert "@" not in url.netloc and url.port != 0
    path = f"{url.path.rstrip('/')}/chat/completions{'?' if url.query else ''}{url.query}"
    headers = {
        "accept-encoding": "identity",
        "content-type": "application/json",
        "authorization": f"Bearer {api_key}",
    }
    proxy_headers = {}
    if proxy:
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy_url.username is not None:
            unquote = urllib.parse.unquote
            credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
            token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
            proxy_headers["proxy-authorization"] = f"Basic {token}"
    method, target, sent = _parse_head(backend._head + b"123\r\n\r\n")
    assert method == "POST"
    if proxy and url.scheme == "http":
        # A proxy is sent the absolute URL, and Host names its authority.
        host = _authority(url.hostname, url.port)
        assert target == f"http://{host}{path}"
        headers.update(proxy_headers)
    else:
        assert target == path
        host = _authority(url.hostname, None if url.port in (None, default_port) else url.port)
    assert sent == {"host": host, **headers, "content-length": "123"}
    if proxy and url.scheme == "https":
        method, target, sent = _parse_head(backend._tunnel)
        authority = _authority(url.hostname, url.port or default_port)
        assert (method, target) == ("CONNECT", authority)
        assert sent == {"host": authority, **proxy_headers}
    else:
        assert backend._tunnel is None


@pytest.mark.parametrize(
    "endpoint, proxy, target",
    [
        ("http://h/v1?x=1#f", None, "/v1/chat/completions?x=1"),
        ("http://h/v1?x=1#f", "http://p:3128", "http://h/v1/chat/completions?x=1"),
        ("http://h:8080/v1/?x=1", "p:3128", "http://h:8080/v1/chat/completions?x=1"),
        (
            "http://B\u00fccher.example/v1",
            "http://p:3128",
            "http://xn--bcher-kva.example/v1/chat/completions",
        ),
        ("https://h/v1#f", "http://p:3128", "/v1/chat/completions"),
    ],
)
def test_one_request_target_for_every_endpoint(endpoint, proxy, target):
    """The path, then the query after /chat/completions; through an http
    proxy, the idna-encoded authority before them; never the fragment."""
    assert _parse_head(_backend(endpoint, "k", proxy)._head + b"0\r\n\r\n")[1] == target


@pytest.mark.parametrize("proxy", [None, "http://p:3128", "http://p:3128/"])
@pytest.mark.parametrize("endpoint", ["http://u:pw@h/v1?x=1#f", "https://user@h/v1", "http://:@h"])
def test_an_endpoint_with_credentials_is_refused_without_echoing_them(endpoint, proxy):
    with pytest.raises(GatewayError, match="may not carry credentials") as raised:
        _backend(endpoint, "k", proxy)
    assert "@" not in str(raised.value) and "pw" not in str(raised.value)


@pytest.mark.parametrize(
    "endpoint, proxy, variable",
    [("http://h:0/v1", None, "endpoint 'http://h:0/v1'"), ("http://h/v1", "p:0", "http_proxy")],
)
def test_port_0_is_refused(endpoint, proxy, variable):
    with pytest.raises(GatewayError, match=f"^{variable} is not a valid URL: Port 0"):
        _backend(endpoint, "k", proxy)
