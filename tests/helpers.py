"""Shared test utilities: a tiny valid image, programmable backends, a fake
chat-completions server, and a scenario scripter that builds replay fixtures
by mirroring the pipeline's request composition."""

from __future__ import annotations

import base64
import hashlib
import http.server
import json
import random
import threading
import types
import zlib
from typing import Callable, Optional

from hmgie import gateway as gateway_module
from hmgie.errors import FixtureMissingError
from hmgie.gateway import Gateway, ModelRequest, ScriptedBackend, cache_key
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
        self.supports_vision = True
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
            verdicts.append(parse_eval_reply(eval_reply).correct)
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


def dynamic_config(responder, **overrides) -> PipelineConfig:
    """Pipeline config over an on-the-fly DynamicBackend."""
    gateway = Gateway(DynamicBackend(responder))
    return PipelineConfig(backends=RoleBindings.uniform(gateway), **overrides)


def fuzz_responder(seed: int):
    """Deterministic pseudo-random replies keyed by (seed, request prompt).

    Exercises empty batches, malformed replies, unknown ids in coverage
    replies, and random completion claims.
    """
    import re as _re

    def respond(request):
        rng = random.Random(f"{seed}:{zlib.crc32(request.prompt.encode())}")
        prompt = request.prompt
        if prompt.startswith("Your task is to parse"):
            return GRAPH_REPLY
        if prompt.startswith("You are a specialized question generator"):
            level = int(_re.search(r"Current Level: \[(\d+)\]", prompt).group(1))
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


def write_fixture_dir(fixtures: dict, directory) -> None:
    """Dump an in-memory fixture mapping as one file per cache key."""
    from pathlib import Path

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for key, text in fixtures.items():
        (root / f"{key}.txt").write_text(text, encoding="utf-8")


class FakeChatServer:
    """Minimal chat-completions server for HTTP backend tests.

    responder(body) returns (status, reply_text); by default every request
    succeeds with a canned reply.
    """

    def __init__(self, responder: Optional[Callable[[dict], tuple[int, str]]] = None):
        self.responder = responder or (lambda body: (200, "canned reply"))
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                outer.requests.append(body)
                outer.headers.append(dict(self.headers))
                status, reply = outer.responder(body)
                if status == 200:
                    payload = {"choices": [{"message": {"content": reply}}]}
                else:
                    payload = {"error": reply}
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self) -> "FakeChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"
