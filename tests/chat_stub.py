"""A loopback chat-completions endpoint for the HTTP provider's tests.

`serve_chat_stub` starts one on 127.0.0.1 and yields its server, and
`http_config` writes an ini that points `coqharness` at it. The server
answers each POST with `server.reply(request)`, where `request` is the
POST's JSON body. A reply is a status-200 body, or a `(status, body)` pair,
or a `(status, body, headers)` triple. Each request's path, Authorization
header and JSON body are recorded, in order of arrival, in `server.requests`;
a GET, which only a followed redirect would send, is recorded with the body
None and answered 405.
"""

from __future__ import annotations

import contextlib
import http.server
import json
import threading
from pathlib import Path


class _ChatStub(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.path, self.headers.get("Authorization"), request))
        reply = self.server.reply(request)
        if isinstance(reply, str):
            reply = (200, reply)
        status, body, headers = (*reply, {}) if len(reply) == 2 else reply
        body = body.encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:
            pass  # the client stopped waiting, as a provider past its timeout does

    def do_GET(self):
        self.server.requests.append((self.path, self.headers.get("Authorization"), None))
        self.send_error(405)

    def log_message(self, *args):
        pass


class _Server(http.server.ThreadingHTTPServer):
    request_queue_size = 128  # a test may open one connection per thread at once


def _fixed_completions(request) -> str:
    """`n` copies of one proof, and a usage of 3 prompt and 4 completion tokens."""
    choices = [{"message": {"content": "Proof.\nauto.\nQed."}}] * request["n"]
    return json.dumps({"choices": choices, "usage": {"prompt_tokens": 3, "completion_tokens": 4}})


def http_config(tmp_path, fixtures_dir, server, monkeypatch) -> Path:
    """An ini that sends the HTTP provider to `server` with a key, caches in
    `tmp_path`, and proves on the fixtures' mock table."""
    monkeypatch.setenv("COQHARNESS_STUB_KEY", "sk-stub")
    config = tmp_path / "http.ini"
    config.write_text(
        f"""
[paths]
cache_dir = {tmp_path}/cache

[provider]
kind = http
base_url = http://127.0.0.1:{server.server_address[1]}/v1
model_name = stub-model
api_key_env = COQHARNESS_STUB_KEY
rpm_limit = 0

[prover]
backend = mock
mock_table = {fixtures_dir}/mock_table.json
"""
    )
    return config


@contextlib.contextmanager
def serve_chat_stub():
    """The stub's server, answering `_fixed_completions` until `reply` is set."""
    server = _Server(("127.0.0.1", 0), _ChatStub)
    server.requests, server.reply = [], _fixed_completions
    # A short poll interval: `shutdown` waits for the serving loop's next poll.
    thread = threading.Thread(target=server.serve_forever, args=(0.02,))
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
