"""Shared test utilities: a tiny valid image, programmable backends, a fake
chat-completions server, and a scenario scripter that builds replay fixtures
by mirroring the pipeline's request composition."""

from __future__ import annotations

import base64
import hashlib
import http.server
import json
import random
import re
import socket
import ssl
import struct
import sys
import threading
import time
import types
import zlib
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from hypothesis import strategies as st

from hmgie import gateway as gateway_module
from hmgie.errors import FixtureMissingError
from hmgie.gateway import Gateway, ModelRequest, ReplyLog, ScriptedBackend, cache_key
from hmgie.hieg import Hieg, expand, hieg_to_prompt_json, overall_decision
from hmgie.pipeline import (
    PipelineConfig,
    RoleBindings,
    build_coverage_request,
    build_eval_request,
    build_explain_request,
    build_graph_request,
    build_question_request,
    build_vqa_request,
)
from hmgie.prompts import (
    parse_coverage_reply,
    parse_eval_reply,
    parse_question_batch,
    parse_vqa_reply,
)
from hmgie.semantic_graph import (
    apply_coverage,
    fresh_mask,
    graph_to_json,
    parse_semantic_graph,
)

# 1x1 transparent PNG
TINY_PNG = base64.b64decode(
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJAAAADUlEQVR42mNkYPhfDwAChwGA"
    "60e6kgAAAABJRU5ErkJggg=="
)

GRAPH_REPLY = json.dumps(
    {
        "nodes": [
            {"id": "N1", "type": "Entity", "label": "dog"},
            {"id": "N2", "type": "Attribute", "label": "brown"},
            {"id": "N3", "type": "Entity", "label": "sofa"},
        ],
        "edges": [
            {
                "from": ["N1", "dog"],
                "to": ["N2", "brown"],
                "type": "Has Attribute",
                "label": "dog is brown",
                "description": "The dog has brown fur.",
            },
            {
                "from": ["N1", "dog"],
                "to": ["N3", "sofa"],
                "type": "Spatial",
                "label": "lies on",
                "description": "The dog lies on the sofa.",
            },
        ],
    }
)


def graph_reply_for(caption: str) -> str:
    """Graph fixture whose labels reflect the caption, mirroring how real
    captions parse to distinct graphs (and hence distinct downstream keys)."""
    payload = json.loads(GRAPH_REPLY)
    payload["nodes"][0]["label"] = f"dog ({caption})"
    payload["edges"][0]["from"] = ["N1", f"dog ({caption})"]
    payload["edges"][1]["from"] = ["N1", f"dog ({caption})"]
    return json.dumps(payload)


def count_payload_hashes(monkeypatch, payload: bytes) -> list[int]:
    """Patch hmgie.gateway's SHA-256 to log each pass over payload.

    Returns the log; its length is the number of times the gateway hashed
    the image (cache-key hashes of request JSON are not counted).
    """
    passes: list[int] = []

    def sha256(data=b"", **kwargs):
        if data == payload:
            passes.append(len(data))
        return hashlib.sha256(data, **kwargs)

    monkeypatch.setattr(gateway_module, "hashlib", types.SimpleNamespace(sha256=sha256))
    return passes


class DynamicBackend:
    """Backend whose replies are computed on the fly from the request."""

    def __init__(self, responder: Callable[[ModelRequest], Optional[str]]):
        self.name = "dynamic"
        self.responder = responder
        self.calls: list[ModelRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: ModelRequest) -> str:
        with self._lock:
            self.calls.append(request)
        reply = self.responder(request)
        if reply is None:
            raise FixtureMissingError(cache_key(request))
        return reply


def scripted_config(**overrides) -> PipelineConfig:
    """Pipeline config over an empty scripted backend (fixtures added later)."""
    backend = ScriptedBackend(fixtures={})
    gateway = Gateway(backend)
    return PipelineConfig(backends=RoleBindings.uniform(gateway), **overrides)


def scripted_backend_of(config: PipelineConfig) -> ScriptedBackend:
    return config.backends.graph_gen.backend


class ScenarioScript:
    """Populates scripted fixtures by replaying the pipeline's own request
    builders step by step, so fixture keys always match what the pipeline
    will ask for."""

    def __init__(self, config: PipelineConfig, image: bytes, caption: str):
        self.config = config
        self.image = image
        self.caption = caption
        self.backend = scripted_backend_of(config)
        self.hieg = Hieg.empty(config.max_level)
        self.graph = None
        self.mask = None
        self.suggestion: Optional[str] = None
        self.notes: list[str] = []  # what the parsers noted while scripting

    def set(self, request: ModelRequest, reply: str) -> None:
        self.backend.fixtures[cache_key(request)] = reply

    def script_graph(self, reply: Optional[str] = None) -> None:
        if reply is None:
            reply = graph_reply_for(self.caption)
        self.set(build_graph_request(self.caption, self.config), reply)
        self.graph = parse_semantic_graph(reply, self.caption, self.notes)
        self.mask = fresh_mask(self.graph)

    def script_level(
        self,
        question_items: list[dict],
        vqa_replies: list[str],
        eval_replies: list[str],
        coverage_reply: str,
    ) -> None:
        level = self.hieg.deepest_level + 1
        question_reply = json.dumps({"Questions": question_items})
        request = build_question_request(
            self.graph,
            graph_to_json(self.graph),
            self.mask,
            hieg_to_prompt_json(self.hieg),
            self.suggestion,
            level,
            self.config,
        )
        self.suggestion = None
        self.set(request, question_reply)
        batch = parse_question_batch(question_reply, level, self.notes)

        answers = []
        verdicts = []
        for item, vqa_reply, eval_reply in zip(batch.items, vqa_replies, eval_replies):
            self.set(build_vqa_request(item.question, self.image, self.config), vqa_reply)
            parsed = parse_vqa_reply(vqa_reply, self.notes)
            self.set(
                build_eval_request(
                    item.question, item.expected_answer, parsed.answer, self.config
                ),
                eval_reply,
            )
            answers.append((parsed.answer, parsed.confidence))
            verdicts.append(parse_eval_reply(eval_reply))
        self.hieg = expand(self.hieg, batch, answers, verdicts)

        declared_nodes = frozenset().union(*(i.covered_nodes for i in batch.items))
        declared_edges = frozenset().union(*(i.covered_edges for i in batch.items))
        self.mask = apply_coverage(self.mask, declared_nodes, declared_edges)

        # Scripted even when the declared targets already clear the mask and
        # the pipeline skips the call, so the scenario's fixture set stays as
        # it was recorded.
        self.set(
            build_coverage_request(
                graph_to_json(self.graph), hieg_to_prompt_json(self.hieg), self.config
            ),
            coverage_reply,
        )
        parsed_coverage = parse_coverage_reply(coverage_reply, self.notes)
        self.mask = apply_coverage(
            self.mask,
            parsed_coverage.examined_nodes & set(self.mask.node_flags),
            parsed_coverage.examined_edges & set(self.mask.edge_flags),
        )
        self.suggestion = parsed_coverage.next_level_suggestion

    def script_explain(self, reply: str) -> None:
        decision = overall_decision(self.hieg)
        self.set(
            build_explain_request(
                hieg_to_prompt_json(self.hieg), self.caption, decision, self.config
            ),
            reply,
        )


def build_two_level_scenario(
    config: PipelineConfig,
    image: bytes = TINY_PNG,
    caption: str = "A brown dog lies on a sofa.",
    second_level1_correct: bool = True,
) -> ScenarioScript:
    """The shipped 2-level scripted scenario.

    Level 1 asks two questions (both confidence 1.0); level 2 asks one at
    confidence 0.8. All answers are judged correct unless
    second_level1_correct is False, which flips level 1's second verdict.
    """
    # Question texts embed the caption so scenarios for different captions
    # never share VQA/eval fixture keys.
    questions = [
        f"What animal is in the image? [{caption}]",
        f"What furniture is in the image? [{caption}]",
        f"What color is the dog? [{caption}]",
    ]
    script = ScenarioScript(config, image, caption)
    script.questions = questions
    script.script_graph()
    script.script_level(
        question_items=[
            {
                "Question": questions[0],
                "Verify-Fact": "a dog is present",
                "Expected-Answer": "a dog",
                "Parent-IDS": [],
                "Covered-Nodes": ["N1"],
                "Covered-Edges": [],
            },
            {
                "Question": questions[1],
                "Verify-Fact": "a sofa is present",
                "Expected-Answer": "a sofa",
                "Parent-IDS": [],
                "Covered-Nodes": ["N3"],
                "Covered-Edges": [],
            },
        ],
        vqa_replies=[
            json.dumps({"Answer": "a dog", "Confidence": 1.0}),
            json.dumps({"Answer": "a sofa", "Confidence": 1.0}),
        ],
        eval_replies=[
            json.dumps({"Correct": True}),
            json.dumps({"Correct": second_level1_correct}),
        ],
        coverage_reply=json.dumps(
            {
                "Verified-Complete": False,
                "Examined-Nodes": ["N1", "N3"],
                "Examined-Edges": [1],
                "Next-Level-Suggestion": "verify the dog's color attribute",
            }
        ),
    )
    script.script_level(
        question_items=[
            {
                "Question": questions[2],
                "Verify-Fact": "the dog is brown",
                "Expected-Answer": "brown",
                "Parent-IDS": ["Q1.1"],
                "Covered-Nodes": ["N2"],
                "Covered-Edges": [0],
            }
        ],
        vqa_replies=[json.dumps({"Answer": "brown", "Confidence": 0.8})],
        eval_replies=[json.dumps({"Correct": True})],
        coverage_reply=json.dumps(
            {
                "Verified-Complete": True,
                "Examined-Nodes": [],
                "Examined-Edges": [],
                "Next-Level-Suggestion": None,
            }
        ),
    )
    script.script_explain("The caption matches the image on every point examined.")
    return script


def dynamic_config(responder, attempts=3, **overrides) -> PipelineConfig:
    """Pipeline config over an on-the-fly DynamicBackend."""
    gateway = Gateway(DynamicBackend(responder), attempts=attempts)
    return PipelineConfig(backends=RoleBindings.uniform(gateway), **overrides)


def fuzz_responder(seed: int):
    """Deterministic pseudo-random replies keyed by (seed, request prompt).

    Exercises empty batches, malformed replies, unknown ids in coverage
    replies, and random completion claims.
    """
    def respond(request):
        prompt = request.prompt
        # A reply echoed into a later prompt may hold a lone surrogate.
        rng = random.Random(f"{seed}:{zlib.crc32(prompt.encode('utf-8', 'surrogatepass'))}")
        if prompt.startswith("Your task is to parse"):
            return GRAPH_REPLY
        if prompt.startswith("You are a specialized question generator"):
            level = int(re.search(r"Current Level: \[(\d+)\]", prompt).group(1))
            if rng.random() < 0.15:
                return json.dumps({"Questions": []})
            if rng.random() < 0.05:
                return "total nonsense"
            questions = []
            for i in range(rng.randint(1, 3)):
                questions.append(
                    {
                        "Question": f"fuzz {seed} level {level} item {i}?",
                        "Verify-Fact": "f",
                        "Expected-Answer": "a",
                        "Parent-IDS": [],
                        "Covered-Nodes": [n for n in ("N1", "N2", "N3") if rng.random() < 0.3],
                        "Covered-Edges": [e for e in (0, 1) if rng.random() < 0.3],
                    }
                )
            return json.dumps({"Questions": questions})
        if "visual question answering" in prompt:
            return json.dumps({"Answer": "a", "Confidence": round(rng.random(), 2)})
        if prompt.startswith("You are a question answer evaluator"):
            return json.dumps({"Correct": rng.random() < 0.8})
        if "based on QA results" in prompt:
            if rng.random() < 0.1:
                return "not a coverage reply"
            complete = rng.random() < 0.25
            return json.dumps(
                {
                    "Verified-Complete": complete,
                    "Examined-Nodes": [n for n in ("N1", "N2", "N3", "N9") if rng.random() < 0.3],
                    "Examined-Edges": [e for e in (0, 1, 7) if rng.random() < 0.3],
                    "Next-Level-Suggestion": None if complete else "look closer",
                }
            )
        return "explanation"

    return respond


# The opening words of each role's prompt in the shipped templates.
ROLE_PREFIXES = {
    "graph": "Your task is to parse",
    "question": "You are a specialized question generator",
    "vqa": "You are an advanced AI assistant specialized in visual question answering",
    "eval": "You are a question answer evaluator",
    "coverage": "You are an AI assistant responsible for detecting image-text inconsistency",
    "explain": "You are an AI assistant responsible for generating natural language explanations",
}


def role_of(prompt: str) -> str:
    """The pipeline role whose template a prompt was rendered from, or "other"."""
    for role, prefix in ROLE_PREFIXES.items():
        if prompt.startswith(prefix):
            return role
    return "other"


# A well-shaped reply per role. "<level>" in a question's text becomes the
# level its prompt asks for, so each level's questions are new; the declared
# and examined targets never cover N2 or edge 1, so levels go on until a
# reply ends them.
WELL_SHAPED_REPLIES = {
    "graph": json.loads(GRAPH_REPLY),
    "question": {
        "Questions": [
            {
                "Question": "Is there a dog? <level>",
                "Verify-Fact": "a dog is present",
                "Expected-Answer": "yes",
                "Parent-IDS": [],
                "Covered-Nodes": ["N1"],
                "Covered-Edges": [],
            },
            {
                "Question": "Does the dog lie on a sofa? <level>",
                "Verify-Fact": "the dog lies on the sofa",
                "Expected-Answer": "yes",
                "Parent-IDS": ["Q1.1"],
                "Covered-Nodes": ["N3"],
                "Covered-Edges": [0],
            },
        ]
    },
    "vqa": {"Answer": "yes", "Confidence": 0.9},
    "eval": {"Correct": True},
    "coverage": {
        "Verified-Complete": False,
        "Examined-Nodes": ["N1"],
        "Examined-Edges": [0],
        "Next-Level-Suggestion": "check the dog's color",
    },
    "explain": "The caption matches the image on every point examined.",
}

PAST_FLOAT_RANGE = st.integers(min_value=2**1024, max_value=2**1100)
# Digit strings longer than the 4,300 digits int() converts.
LONG_DIGITS = st.integers(min_value=4301, max_value=6000).map(lambda n: "1" + "0" * (n - 1))

# Number texts, bare or quoted, that a hostile model may write as a JSON value.
HOSTILE_NUMBER_TEXTS = st.one_of(
    PAST_FLOAT_RANGE.map(str),
    PAST_FLOAT_RANGE.map(lambda n: str(-n)),
    LONG_DIGITS,
    LONG_DIGITS.map(lambda digits: f'"{digits}"'),
    PAST_FLOAT_RANGE.map(lambda n: f'"{n}"'),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0.0", "1e400", "-1e400"]),
)

# JSON texts a hostile model may put in place of any value.
HOSTILE_JSON = st.one_of(
    HOSTILE_NUMBER_TEXTS,
    st.sampled_from(["2.5", "-1", "true", "false", "null", "[]", "{}", '["N1"]', '{"Answer": "y"}']),
    # Lone surrogates, escaped and raw, long strings and unknown ids.
    st.sampled_from(["\ud800", "x\udfff", "y" * 20_000, "N99", "Q9.9", "", " "]).map(
        lambda text: json.dumps(text, ensure_ascii=False)
    ),
    st.just('"\\ud800"'),
)

_SLOT = "@hostile@"


def _paths(value, path=()):
    """Every position in a JSON value, the whole value and nested ones."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _swapped(shape, path, text: str) -> str:
    """The JSON text of shape with the value at path written as text."""
    if not path:
        return text
    shape = json.loads(json.dumps(shape))
    parent = shape
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = _SLOT
    return json.dumps(shape, ensure_ascii=False).replace(f'"{_SLOT}"', text, 1)


def hostile_replies(shape) -> st.SearchStrategy[str]:
    """Texts of a well-shaped reply with one value, nested ones and the
    whole reply included, swapped for a HOSTILE_JSON value."""
    return st.builds(
        lambda path, text: _swapped(shape, path, text),
        st.sampled_from(list(_paths(shape))),
        HOSTILE_JSON,
    )


def hostile_responder(replies: dict[str, list[str]]):
    """Replies by role: each prompt gets one of its role's well-shaped reply
    and ``replies[role]``, picked by the prompt's CRC-32 and attempt."""

    def respond(request):
        role = role_of(request.prompt)
        shaped = WELL_SHAPED_REPLIES[role]
        options = [shaped if isinstance(shaped, str) else json.dumps(shaped)]
        options += replies.get(role, [])
        pick = zlib.crc32(request.prompt.encode("utf-8", "surrogatepass")) + request.attempt
        reply = options[pick % len(options)]
        if role == "question":
            level = re.search(r"Current Level: \[(\d+)\]", request.prompt).group(1)
            reply = reply.replace("<level>", level)
        return reply

    return respond


def write_fixture_dir(fixtures: dict, directory) -> None:
    """Append an in-memory fixture mapping to a directory's reply log."""
    log = ReplyLog(directory)
    for key, text in fixtures.items():
        log.append(key, text)


# A self-signed certificate for "localhost" alone (no IP address), valid to
# 2126, and its key; a client trusts it when SSL_CERT_FILE names it.
LOCALHOST_CERT = Path(__file__).with_name("localhost-cert.pem")
LOCALHOST_KEY = Path(__file__).with_name("localhost-key.pem")


class Fault(Enum):
    """Transport faults a FakeChatServer responder can return instead of a reply."""

    SHORT_BODY = "short body"  # announce the reply's length, send half of it, close
    RESET = "reset"  # reset the connection without answering
    TRICKLE = "trickle"  # announce 100 KB, send one byte every 0.1 s for 4 s, close
    OVERSIZE = "oversize"  # a reply whose content alone is MAX_REPLY_BYTES long


class FakeChatServer:
    """Minimal chat-completions server for HTTP backend tests, speaking
    HTTP/1.1 with keep-alive.

    responder(body) returns (status, reply_text), (status, reply_text,
    headers) or a Fault; by default every request succeeds with a canned
    reply. With drop_idle, the server closes each connection once its reply
    is sent without saying so, as a server that times out idle keep-alive
    connections does.

    framing says how a reply's body is delimited: "length" sends a
    Content-Length, "chunked" the chunked transfer coding (each piece of
    the body in two chunks, the first chunk with an extension, and a
    trailer), "close" neither, ending the body by closing the connection.
    A 204 or 304 reply has no body. With tls, the server speaks https with
    LOCALHOST_CERT, and its endpoint names "localhost".

    .requests holds each parsed body, .raw the bytes as received, .headers
    and .paths the rest of each request. .open_connections counts the
    connections open now, .peak_connections the most open at once.
    """

    def __init__(
        self,
        responder: Optional[Callable[[dict], tuple | Fault]] = None,
        drop_idle: bool = False,
        framing: str = "length",
        tls: bool = False,
    ):
        if framing not in ("length", "chunked", "close"):
            raise ValueError(f"unknown framing {framing!r}")
        self.responder = responder or (lambda body: (200, "canned reply"))
        self.requests: list[dict] = []
        self.raw: list[bytes] = []
        self.headers: list[dict] = []
        self.paths: list[str] = []
        self.open_connections = 0
        self.peak_connections = 0
        self._count_lock = threading.Lock()
        self.tls = tls
        if tls:
            context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            context.load_cert_chain(LOCALHOST_CERT, LOCALHOST_KEY)
        outer = self

        class Server(http.server.ThreadingHTTPServer):
            request_queue_size = 64  # accept every connection a test opens at once

            def get_request(self):
                sock, address = super().get_request()
                if tls:
                    # The handshake runs on the first read, in the request's thread.
                    sock = context.wrap_socket(
                        sock, server_side=True, do_handshake_on_connect=False
                    )
                return sock, address

            def handle_error(self, request, client_address):
                if not isinstance(sys.exc_info()[1], ssl.SSLError):  # a refused certificate
                    super().handle_error(request, client_address)

            def process_request_thread(self, request, client_address):
                outer._count_connections(+1)
                try:
                    super().process_request_thread(request, client_address)
                finally:
                    # Counted once the socket is closed, so a client can see it.
                    outer._count_connections(-1)

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                outer.raw.append(raw)
                outer.requests.append(json.loads(raw))
                outer.headers.append(dict(self.headers))
                outer.paths.append(self.path)
                try:
                    self.answer(outer.responder(outer.requests[-1]))
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True  # the client hung up first

            def answer(self, outcome) -> None:
                if outcome is Fault.RESET:
                    # Closing with a zero linger time sends a reset.
                    self.connection.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    self.close_connection = True
                    return
                if outcome is Fault.TRICKLE:
                    self.send_response(200)
                    self.send_header("Content-Length", "100000")
                    self.end_headers()
                    for _ in range(40):
                        self.wfile.write(b" ")
                        time.sleep(0.1)
                    self.close_connection = True
                    return
                if outcome is Fault.OVERSIZE:
                    # Written from one block, so the server holds little of it.
                    block = b"x" * 65536
                    blocks = -(-gateway_module.MAX_REPLY_BYTES // len(block))
                    head = b'{"choices": [{"message": {"content": "'
                    tail = b'"}}]}'
                    pieces = [head, *[block] * blocks, tail]
                    self.send_body(200, {}, pieces)
                    return
                if outcome is Fault.SHORT_BODY:
                    status, reply, headers = 200, "a reply cut short", {}
                else:
                    status, reply, headers = outcome if len(outcome) == 3 else (*outcome, {})
                if status == 200:
                    payload = {"choices": [{"message": {"content": reply}}]}
                else:
                    payload = {"error": reply}
                data = json.dumps(payload).encode("utf-8")
                if outcome is Fault.SHORT_BODY:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data[: len(data) // 2])
                    self.close_connection = True
                    return
                self.send_body(status, headers, [data])

            def send_body(self, status: int, headers: dict, pieces: list[bytes]) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                if status in (204, 304):
                    pieces = []
                elif framing == "length":
                    self.send_header("Content-Length", str(sum(map(len, pieces))))
                elif framing == "chunked":
                    self.send_header("Transfer-Encoding", "chunked")
                else:
                    self.close_connection = True
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if framing == "chunked" and status not in (204, 304):
                    # Each piece goes out as two chunks.
                    extension = b";piece=first"
                    for piece in pieces:
                        half = len(piece) // 2
                        for part in (piece[:half], piece[half:]):
                            if part:
                                self.wfile.write(b"%x%s\r\n%s\r\n" % (len(part), extension, part))
                                extension = b""
                    self.wfile.write(b"0\r\nX-Trailer: done\r\n\r\n")
                else:
                    for piece in pieces:
                        self.wfile.write(piece)
                if drop_idle:
                    self.close_connection = True

            def log_message(self, *args):
                pass

        self._server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    def __enter__(self) -> "FakeChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"https://localhost:{port}" if self.tls else f"http://{host}:{port}"

    def _count_connections(self, change: int) -> None:
        with self._count_lock:
            self.open_connections += change
            self.peak_connections = max(self.peak_connections, self.open_connections)

    def wait_for_open_connections(self, at_most: int, timeout: float = 5.0) -> int:
        """Wait until at most ``at_most`` connections are open (a server
        notices a client's close only when it next reads); return the count."""
        deadline = time.monotonic() + timeout
        while self.open_connections > at_most and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open_connections


class FakeProxy:
    """A proxy for https endpoints, on a port of 127.0.0.1.

    It reads each connection's CONNECT head into .heads, answers with
    ``reply`` byte for byte and then, given a ``target`` (host, port),
    relays the tunnel's bytes both ways to it, whatever the head named;
    without one it closes the connection.
    """

    def __init__(
        self,
        target: Optional[tuple[str, int]] = None,
        reply: bytes = b"HTTP/1.1 200 Connection established\r\n\r\n",
    ):
        self.target, self.reply = target, reply
        self.heads: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))

    def __enter__(self) -> "FakeProxy":
        threading.Thread(target=self._accept, daemon=True).start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._listener.close()

    @property
    def address(self) -> str:
        return "127.0.0.1:%d" % self._listener.getsockname()[1]

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # the listener was closed
            threading.Thread(target=self._serve, args=(client,), daemon=True).start()

    def _serve(self, client: socket.socket) -> None:
        with client:
            head = b""
            while b"\r\n\r\n" not in head:
                data = client.recv(4096)
                if not data:
                    return
                head += data
            self.heads.append(head)
            client.sendall(self.reply)
            if self.target is None:
                return
            with socket.create_connection(self.target) as upstream:
                back = threading.Thread(target=_relay, args=(upstream, client), daemon=True)
                back.start()
                _relay(client, upstream)
                back.join(timeout=10)


def _relay(source: socket.socket, sink: socket.socket) -> None:
    """Copy bytes from source to sink until source ends, then end sink's side."""
    try:
        while data := source.recv(65536):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # either side hung up
