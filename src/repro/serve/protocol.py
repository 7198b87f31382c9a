"""The service's HTTP protocol, declared once.

Every route the node service and the gateway speak is one row of
:class:`Route`: its method, its path template and the server roles that
serve it.  The servers map routes to handler methods, and the client and
the node agent build every URL with :func:`path`, so the three sides
cannot drift apart.  :class:`JsonHandler` owns the HTTP plumbing both
servers share (bounded body reads, JSON replies, 404/400, keep-alive),
:class:`JsonServer` the listener lifecycle, and the ``*_body`` builders
the job payloads both the node and the gateway answer with.
"""

from __future__ import annotations

import json
import threading
from enum import Enum
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "Route",
    "NODE",
    "GATEWAY",
    "path",
    "JsonHandler",
    "JsonServer",
    "ticket_body",
    "pending_body",
    "result_body",
]

NODE = "node"
GATEWAY = "gateway"

#: Largest accepted request body (inline arrays ride in submits).
MAX_BODY_BYTES = 256 * 2**20

_BOTH = frozenset({NODE, GATEWAY})


class Route(Enum):
    """Each route: ``(method, path template, roles that serve it)``.

    A template ending in ``{}`` takes one path argument (a job id, trace
    reference or node id); the rest match exactly.  The node and the
    gateway share the client surface, so a
    :class:`~repro.serve.client.ServiceClient` works against either.
    """

    SUBMIT = ("POST", "/submit", _BOTH)
    CANCEL = ("POST", "/cancel/{}", frozenset({NODE}))
    STATUS = ("GET", "/status/{}", _BOTH)
    RESULT = ("GET", "/result/{}", _BOTH)
    TRACE = ("GET", "/trace/{}", _BOTH)
    STATS = ("GET", "/stats", _BOTH)
    METRICS = ("GET", "/metrics", _BOTH)
    HEALTH = ("GET", "/health", _BOTH)
    REGISTER = ("POST", "/register", frozenset({GATEWAY}))
    HEARTBEAT = ("POST", "/heartbeat/{}", frozenset({GATEWAY}))
    UNREGISTER = ("POST", "/unregister/{}", frozenset({GATEWAY}))
    DRAIN = ("POST", "/admin/drain/{}", frozenset({GATEWAY}))
    UNDRAIN = ("POST", "/admin/undrain/{}", frozenset({GATEWAY}))

    def __init__(self, method: str, template: str, roles: frozenset) -> None:
        self.method = method
        self.template = template
        self.roles = roles
        self.prefix = template.removesuffix("{}")

    def match(self, method: str, url_path: str) -> str | None:
        """The path argument if the request is this route, else ``None``
        (``""`` for a route without an argument)."""
        if method != self.method:
            return None
        if self.prefix != self.template:
            return url_path[len(self.prefix):] if url_path.startswith(self.prefix) else None
        return "" if url_path == self.template else None


def path(route: Route, arg: str = "") -> str:
    """The URL path of ``route``, its ``{}`` filled with ``arg``."""
    return route.template.format(arg)


def ticket_body(job_id: str, state: str, coalesced_into: str | None,
                trace_id: str | None, **extra) -> dict:
    """The ``202`` reply to ``POST /submit`` (the gateway adds ``node``)."""
    return {"job_id": job_id, "state": state, **extra,
            "coalesced_into": coalesced_into, "trace_id": trace_id}


def pending_body(job_id: str, state: str, **extra) -> dict:
    """The ``202`` reply to ``GET /result/<id>`` while the job is unfinished."""
    return {"job_id": job_id, "state": state, **extra}


def result_body(job_id: str, state: str, coalesced_into: str | None,
                result: dict | None, error: str | None) -> dict:
    """The ``200`` reply to ``GET /result/<id>`` once the job finished."""
    return {"job_id": job_id, "state": state, "coalesced_into": coalesced_into,
            "result": result, "error": error}


class JsonHandler(BaseHTTPRequestHandler):
    """Request plumbing shared by the node and the gateway.

    Subclasses set ``server_version`` and ``routes``: a map from each
    :class:`Route` the server serves to a handler ``(self, arg, body)``
    that returns ``(status, body)`` or ``(status, body, headers)``.  A
    ``str`` body is sent as text with the ``Content-Type`` from
    ``headers``; any other body is sent as JSON.  POST bodies are read
    and parsed before the handler runs (``{}`` when empty); GET handlers
    get ``{}``.
    """

    protocol_version = "HTTP/1.1"
    routes: dict = {}

    @property
    def app(self) -> "JsonServer":
        """The :class:`JsonServer` this request arrived at."""
        return self.server.app

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if self.app.verbose:  # pragma: no cover - log formatting
            super().log_message(fmt, *args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        for route, handler in self.routes.items():
            arg = route.match(method, self.path)
            if arg is not None:
                break
        else:
            # A POST body was never read; a keep-alive peer would see its
            # unread bytes parsed as the next request line.
            self.close_connection = method == "POST"
            self._reply(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        body: dict = {}
        if method == "POST":
            try:
                body = self._read_body()
            except ValueError as exc:
                # The body may be unread or half-read: drop the socket.
                self.close_connection = True
                self._reply(400, {"error": str(exc)})
                return
        self._reply(*handler(self, arg, body))

    def _read_body(self) -> dict:
        """The request body as a JSON object; ``ValueError`` when it is not."""
        length = self.headers.get("Content-Length") or "0"
        if not length.strip().isdecimal():
            raise ValueError(f"invalid Content-Length {length!r}")
        if int(length) > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(int(length))
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _reply(self, status: int, body, headers: dict | None = None) -> None:
        headers = dict(headers or {})
        content_type = headers.pop("Content-Type", "application/json")
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class JsonServer:
    """One threaded HTTP listener serving ``handler``'s routes.

    Subclasses set ``handler`` and ``thread_name`` and define
    ``_start_backend``/``_stop_backend`` for the engine behind the
    routes.  ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url`).
    """

    handler: type[JsonHandler]
    thread_name: str

    def __init__(self, host: str, port: int, verbose: bool = False) -> None:
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), self.handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self
        self._thread: threading.Thread | None = None

    def _start_backend(self) -> None:
        raise NotImplementedError

    def _stop_backend(self) -> None:
        raise NotImplementedError

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Start the backend and the HTTP listener thread."""
        self._start_backend()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name=self.thread_name,
                daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI (Ctrl-C to stop)."""
        self._start_backend()
        try:
            self._httpd.serve_forever()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the listener, then the backend."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self._stop_backend()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
