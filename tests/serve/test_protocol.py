"""The shared request plumbing of ``serve/protocol.py`` on the wire.

Raw-socket and scripted-peer regressions: a malformed ``Content-Length``
answers ``400`` on both servers instead of killing the handler thread,
and the node agent survives a gateway whose ``200`` body is not JSON.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.gateway.server import GatewayServer
from repro.serve.agent import NodeAgent
from repro.serve.protocol import Route, path
from repro.serve.scheduler import Scheduler
from repro.serve.server import ServiceServer


def _raw_exchange(host: str, port: int, request: bytes) -> tuple[bytes, bytes]:
    """Send ``request`` and read until the server closes: ``(head, body)``."""
    reply = b""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


@pytest.mark.parametrize("length", ["ten", "-1", "1e3"])
@pytest.mark.parametrize("role", ["node", "gateway"])
def test_bad_content_length_is_400_on_both_servers(role, length):
    if role == "node":
        server = ServiceServer(port=0, workers=1, executor="thread", cache=False)
        url_path = path(Route.CANCEL, "j-1")
    else:
        server = GatewayServer(port=0)
        url_path = path(Route.SUBMIT)
    with server:
        head, body = _raw_exchange(server.host, server.port, (
            f"POST {url_path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n").encode())
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]


class _ScriptedGateway:
    """Answers each POST with the next ``(status, raw body)`` of a script;
    once it runs out, with a well-formed registration reply."""

    def __init__(self, script: list[tuple[int, bytes]]) -> None:
        self.script = list(script)
        self.paths: list[str] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # noqa: A003
                pass

            def do_POST(self):  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                outer.paths.append(self.path)
                status, body = (outer.script.pop(0) if outer.script
                                else (200, b'{"heartbeat_interval": 0.05}'))
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "_ScriptedGateway":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(5.0)


def test_agent_retries_after_non_json_register_reply():
    script = [(200, b"<html>maintenance</html>"), (200, b"\xff\xfe")]
    with _ScriptedGateway(script) as gateway:
        agent = NodeAgent(Scheduler(workers=1, cache=False, metrics=False),
                          gateway_url=gateway.url, node_id="n0",
                          advertise_url="http://127.0.0.1:2",
                          heartbeat_interval=0.05).start()
        try:
            deadline = time.monotonic() + 10.0
            while not agent.registered and time.monotonic() < deadline:
                time.sleep(0.02)
            assert agent.registered
            assert agent._thread.is_alive()
            assert agent.protocol_errors == 2
            assert agent.register_failures == 0
            assert gateway.paths[:3] == [path(Route.REGISTER)] * 3
        finally:
            agent.stop()
        assert gateway.paths[-1] == path(Route.UNREGISTER, "n0")
