"""Stdlib HTTP front-end for the gateway tier.

Same dependency-free :class:`http.server.ThreadingHTTPServer` stack as
the node-side service — the gateway speaks the *same client protocol*,
so a :class:`~repro.serve.client.ServiceClient` pointed at a gateway
works unchanged, plus the fleet-facing control plane (register,
heartbeat, unregister, drain, undrain).

The routes, their URL templates and the shared request plumbing live in
:mod:`repro.serve.protocol`; this module maps the gateway's routes to
the :class:`Router`.  ``docs/GATEWAY.md`` documents each endpoint's
replies.

Submits may carry a W3C ``traceparent`` header; the extracted context
ties the whole routed journey into the caller's trace, and the 202
ticket reports the ``trace_id`` either way.
"""

from __future__ import annotations

from repro import __version__
from repro.gateway.router import NoCapacityError, Router
from repro.obs.trace import TRACEPARENT_HEADER, TraceContext
from repro.serve.client import BackpressureError
from repro.serve.protocol import JsonHandler, JsonServer, Route

__all__ = ["GatewayServer", "DEFAULT_GATEWAY_PORT"]

DEFAULT_GATEWAY_PORT = 8076


def _unknown_node(node_id: str) -> tuple[int, dict]:
    return 404, {"error": f"unknown node {node_id!r}"}


class _Handler(JsonHandler):
    server_version = "repro-gateway/1"

    def _submit(self, _, body: dict):
        context = TraceContext.from_traceparent(
            self.headers.get(TRACEPARENT_HEADER))
        try:
            _, ticket = self.app.router.submit(body, trace_context=context)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        except BackpressureError as exc:
            retry_after = float(exc.body.get("retry_after", 1.0))
            return (429, {"error": str(exc), "retry_after": retry_after},
                    {"Retry-After": f"{retry_after:g}"})
        except NoCapacityError as exc:
            return (503, {"error": str(exc), "retry_after": 1.0},
                    {"Retry-After": "1"})
        return 202, ticket

    def _status(self, job_id: str, _):
        payload = self.app.router.job_status(job_id)
        if payload is None:
            return 404, {"error": "unknown job id"}
        return 200, payload

    def _result(self, job_id: str, _):
        answer = self.app.router.job_result(job_id)
        if answer is None:
            return 404, {"error": "unknown job id"}
        return answer

    def _trace(self, ref: str, _):
        payload = self.app.router.trace_payload(ref)
        if payload is None:
            return 404, {"error": "unknown job/trace id "
                                  "(unsampled or evicted traces 404)"}
        return 200, payload

    def _stats(self, *_):
        return 200, self.app.router.stats_payload()

    def _metrics(self, *_):
        router = self.app.router
        if router.metrics is None:
            return 404, {"error": "metrics are disabled on this gateway"}
        from repro.obs.exposition import CONTENT_TYPE

        return 200, router.metrics_text(), {"Content-Type": CONTENT_TYPE}

    def _health(self, *_):
        counts = self.app.router.registry.counts()
        return 200, {"status": "ok", "nodes_active": counts["active"],
                     "version": __version__}

    def _register(self, _, body: dict):
        try:
            return 200, self.app.router.register_node(
                str(body.get("node_id", "")), str(body.get("url", "")))
        except ValueError as exc:
            return 400, {"error": str(exc)}

    def _heartbeat(self, node_id: str, body: dict):
        finished = body.get("finished") or []
        if not isinstance(finished, list):
            return 400, {"error": "finished must be a list of job ids"}
        stats = body.get("stats")
        payload = self.app.router.node_heartbeat(
            node_id, finished=[str(j) for j in finished],
            reported=stats if isinstance(stats, dict) else None)
        if payload is None:
            return 404, {"error": f"unknown node {node_id!r}; re-register"}
        return 200, payload

    def _unregister(self, node_id: str, _):
        payload = self.app.router.unregister_node(node_id)
        return _unknown_node(node_id) if payload is None else (200, payload)

    def _drain(self, node_id: str, _):
        payload = self.app.router.drain(node_id)
        return _unknown_node(node_id) if payload is None else (200, payload)

    def _undrain(self, node_id: str, _):
        payload = self.app.router.undrain(node_id)
        return _unknown_node(node_id) if payload is None else (200, payload)

    routes = {
        Route.SUBMIT: _submit,
        Route.STATUS: _status,
        Route.RESULT: _result,
        Route.TRACE: _trace,
        Route.STATS: _stats,
        Route.METRICS: _metrics,
        Route.HEALTH: _health,
        Route.REGISTER: _register,
        Route.HEARTBEAT: _heartbeat,
        Route.UNREGISTER: _unregister,
        Route.DRAIN: _drain,
        Route.UNDRAIN: _undrain,
    }


class GatewayServer(JsonServer):
    """Owns one :class:`Router` plus the HTTP listener bound to it.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`).

    Usage::

        with GatewayServer(port=0, dead_after=2.0) as gw:
            # point `repro serve --register <gw.url>` nodes at it
            client = ServiceClient(gw.url)
            ...
    """

    handler = _Handler
    thread_name = "repro-gateway-http"

    def __init__(
        self,
        router: Router | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_GATEWAY_PORT,
        verbose: bool = False,
        **router_kwargs,
    ) -> None:
        if router is not None and router_kwargs:
            raise ValueError("pass router kwargs or an instance, not both")
        self.router = router or Router(**router_kwargs)
        super().__init__(host, port, verbose)

    def _start_backend(self) -> None:
        self.router.start()

    def _stop_backend(self) -> None:
        self.router.stop()
