"""Loopback chat-completions endpoint with a fixed service delay.

Run as its own process::

    python3 bench/stub.py --delay 0.02

It binds 127.0.0.1 on a free port and prints ``port <n>`` on stdout. It
then reads commands on stdin, one per line, and answers each with one JSON
line: ``stats`` gives the HTTP requests and TCP connections accepted since
the last ``reset``. End of input shuts the server down.

Each reply is a function of a hash of the request's messages alone, so the
logs a run writes do not depend on the order requests arrive in. Replies
are OpenAI-shaped and follow the format each prompt asks for: a percentage
marker for percentage estimates, otherwise an ``answer key`` JSON object
naming one of the choices listed in the prompt.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_CHOICE_RE = re.compile(r"^([A-E])\. ", re.MULTILINE)


def reply_text(messages: list) -> str:
    blob = json.dumps(messages, sort_keys=True, ensure_ascii=False).encode("utf-8")
    value = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    system = " ".join(str(m.get("content", "")) for m in messages if m.get("role") == "system")
    user = " ".join(str(m.get("content", "")) for m in messages if m.get("role") == "user")
    if "Percentage Correct" in system:
        return f"Estimating the load at this grade.\nPercentage Correct: {value % 101}"
    letters = _CHOICE_RE.findall(user) or list("ABCD")
    letter = letters[value % len(letters)]
    return json.dumps({"reasoning": "I checked each choice.", "answer key": letter})


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay: float) -> None:
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.delay = delay
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def stats(self, reset: bool) -> dict:
        with self.lock:
            out = {"requests": self.requests, "connections": self.connections}
            if reset:
                self.requests = 0
                self.connections = 0
        return out


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, delayed ACKs stall each small response by tens of ms.
    disable_nagle_algorithm = True
    server: StubServer

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        with self.server.lock:
            self.server.requests += 1
        text = reply_text(body["messages"])
        time.sleep(self.server.delay)
        payload = json.dumps(
            {
                "object": "chat.completion",
                "model": body.get("model", ""),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
            }
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay", type=float, required=True, help="service delay in seconds")
    args = parser.parse_args()
    server = StubServer(args.delay)
    serving = threading.Thread(target=server.serve_forever, name="stub-serve")
    serving.start()
    try:
        print(f"port {server.server_address[1]}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command in ("stats", "reset"):
                print(json.dumps(server.stats(reset=command == "reset")), flush=True)
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
