"""Chat-completions stub that answers a workload's planted replies.

Serves ``POST /chat/completions`` on 127.0.0.1 at a free port, which it
prints on its first line of output. Each reply waits the fixed latency of its
role (scenario.LATENCY_MS) before it is sent. ``POST /reset`` starts a new
round; ``GET /stats`` returns what the stub received since the last reset.

    python3 bench/stub.py WORKLOAD SEED [--quick]
"""

from __future__ import annotations

import base64
import http.server
import json
import sys
import threading
import time

import scenario


def _prompt_and_head(body: dict) -> tuple[str, bytes]:
    content = body["messages"][-1]["content"]
    if isinstance(content, str):
        return content, b""
    prompt, head = "", b""
    for part in content:
        if part.get("type") == "text":
            prompt = part["text"]
        elif part.get("type") == "image_url":
            encoded = part["image_url"]["url"].split("base64,", 1)[1]
            head = base64.b64decode(encoded[:32])
    return prompt, head


class Stub:
    def __init__(self, workload: scenario.Workload):
        self.responder = scenario.Responder(workload)
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.responder.reset()
        with self.lock:
            self.stats = {
                "requests": 0,
                "prompt_bytes": 0,
                "body_bytes": 0,
                "unplanted": 0,
                "roles": {},
            }

    def answer(self, raw: bytes) -> tuple[int, dict]:
        try:
            body = json.loads(raw)
            prompt, head = _prompt_and_head(body)
            role, text = self.responder.reply(prompt, head, body.get("model", ""))
        except Exception as exc:  # any request the plan does not cover
            with self.lock:
                self.stats["unplanted"] += 1
            return 400, {"error": f"no planted reply: {exc!r}"}
        with self.lock:
            self.stats["requests"] += 1
            self.stats["prompt_bytes"] += len(prompt.encode("utf-8"))
            self.stats["body_bytes"] += len(raw)
            self.stats["roles"][role] = self.stats["roles"].get(role, 0) + 1
        time.sleep(scenario.LATENCY_MS[role] / 1000)
        return 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}


def serve(stub: Stub) -> http.server.ThreadingHTTPServer:
    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # headers and body go out as separate writes

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path.endswith("/chat/completions"):
                self._send(*stub.answer(raw))
            elif self.path == "/reset":
                stub.reset()
                self._send(200, {})
            else:
                self._send(404, {"error": self.path})

        def do_GET(self):
            if self.path == "/stats":
                with stub.lock:
                    self._send(200, stub.stats)
            else:
                self._send(404, {"error": self.path})

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str]) -> None:
    workload = scenario.build(argv[0], int(argv[1]), quick="--quick" in argv)
    server = serve(Stub(workload))
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
