"""Stdlib JSON/HTTP front-end for the scheduler.

No web framework — a :class:`http.server.ThreadingHTTPServer` is enough
for a JSON control plane, keeps the service dependency-free, and its
thread-per-connection model composes cleanly with the scheduler's own
worker pool (handlers only ever touch thread-safe scheduler methods).

The routes, their URL templates and the shared request plumbing live in
:mod:`repro.serve.protocol`; this module maps the node's routes to the
scheduler.  ``docs/SERVICE.md`` documents each endpoint's replies.

Submits may carry a W3C ``traceparent`` header; the extracted context
makes the job's spans part of the caller's trace (and the 202 ticket
reports the ``trace_id`` either way).
"""

from __future__ import annotations

from repro import __version__
from repro.obs.trace import TRACEPARENT_HEADER, TraceContext
from repro.serve.jobs import JobSpec
from repro.serve.protocol import (
    JsonHandler,
    JsonServer,
    Route,
    pending_body,
    result_body,
    ticket_body,
)
from repro.serve.queue import QueueFull
from repro.serve.scheduler import Scheduler

__all__ = ["ServiceServer", "DEFAULT_PORT"]

DEFAULT_PORT = 8077

_UNKNOWN_JOB = {"error": "unknown job id"}


class _Handler(JsonHandler):
    server_version = "repro-serve/1"

    def _submit(self, _, body: dict):
        try:
            spec = JobSpec.from_dict(body)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        context = TraceContext.from_traceparent(
            self.headers.get(TRACEPARENT_HEADER))
        try:
            job = self.app.scheduler.submit(spec, trace_context=context)
        except QueueFull as exc:
            return (429, {"error": str(exc), "retry_after": exc.retry_after},
                    {"Retry-After": f"{exc.retry_after:g}"})
        return 202, ticket_body(job.id, job.state.value, job.coalesced_into,
                                job.trace_id)

    def _cancel(self, job_id: str, _):
        scheduler = self.app.scheduler
        job = scheduler.get(job_id)
        if job is None:
            return 404, _UNKNOWN_JOB
        cancelled = scheduler.cancel(job_id)
        return 200, {"job_id": job_id, "cancelled": cancelled,
                     "state": job.state.value}

    def _status(self, job_id: str, _):
        job = self.app.scheduler.get(job_id)
        if job is None:
            return 404, _UNKNOWN_JOB
        return 200, job.status_dict()

    def _result(self, job_id: str, _):
        job = self.app.scheduler.get(job_id)
        if job is None:
            return 404, _UNKNOWN_JOB
        if not job.finished:
            return 202, pending_body(job.id, job.state.value)
        return 200, result_body(job.id, job.state.value, job.coalesced_into,
                                job.result, job.error)

    def _trace(self, ref: str, _):
        payload = self.app.scheduler.trace_payload(ref)
        if payload is None:
            return 404, {"error": "unknown job/trace id "
                                  "(unsampled or evicted traces 404)"}
        return 200, payload

    def _stats(self, *_):
        payload = self.app.scheduler.stats_payload()
        if self.app.agent is not None:
            payload["shard"] = self.app.agent.status_dict()
        return 200, payload

    def _metrics(self, *_):
        scheduler = self.app.scheduler
        if scheduler.metrics is None:
            return 404, {"error": "metrics are disabled on this service"}
        from repro.obs.exposition import CONTENT_TYPE

        return 200, scheduler.metrics_text(), {"Content-Type": CONTENT_TYPE}

    def _health(self, *_):
        return 200, {"status": "ok", "paused": self.app.scheduler.paused,
                     "version": __version__}

    routes = {
        Route.SUBMIT: _submit,
        Route.CANCEL: _cancel,
        Route.STATUS: _status,
        Route.RESULT: _result,
        Route.TRACE: _trace,
        Route.STATS: _stats,
        Route.METRICS: _metrics,
        Route.HEALTH: _health,
    }


class ServiceServer(JsonServer):
    """Owns one scheduler plus the HTTP listener bound to it.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url`) — tests and the CI smoke job rely on that.

    Usage::

        with ServiceServer(port=0, workers=2) as server:
            client = ServiceClient(server.url)
            ...
    """

    handler = _Handler
    thread_name = "repro-serve-http"

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        verbose: bool = False,
        register: str | None = None,
        node_id: str | None = None,
        advertise_url: str | None = None,
        heartbeat_interval: float | None = None,
        **scheduler_kwargs,
    ) -> None:
        if scheduler is not None and scheduler_kwargs:
            raise ValueError("pass scheduler kwargs or an instance, not both")
        self.scheduler = scheduler or Scheduler(**scheduler_kwargs)
        self.agent = None
        super().__init__(host, port, verbose)
        if register is not None:
            # The listener is already bound, so the real port is known
            # even when the caller asked for an ephemeral one.
            from repro.serve.agent import NodeAgent

            self.agent = NodeAgent(
                self.scheduler, register,
                node_id=node_id or f"node-{self.host}-{self.port}",
                advertise_url=advertise_url or self.url,
                heartbeat_interval=heartbeat_interval,
            )

    def _start_backend(self) -> None:
        self.scheduler.start()
        if self.agent is not None:
            self.agent.start()

    def _stop_backend(self) -> None:
        self.scheduler.close()

    def shutdown(self) -> None:
        """Stop the listener, the workers, and persist the cache tier."""
        # Leave the fleet before the listener goes down, so the gateway
        # stops routing here while this node still answers.
        if self.agent is not None:
            self.agent.stop()
        super().shutdown()
