"""Thin stdlib client for the compression service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.serve.server` over ``urllib`` — no dependencies, safe to use
from scripts, tests, benchmarks and the ``repro submit`` CLI alike.

Backpressure is handled here so callers don't have to: a ``429`` from
``/submit`` is retried with the server-suggested ``Retry-After`` delay
until ``backpressure_wait`` is exhausted, at which point
:class:`BackpressureError` propagates the overload to the caller.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np

from repro.api.request import CompressionRequest
from repro.errors import JobTimeoutError, ReproError
from repro.serve.jobs import JobSpec
from repro.serve.protocol import Route, path

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "BackpressureError",
    "JobFailedError",
    "ProtocolError",
]


class ServiceError(ReproError, RuntimeError):
    """Protocol-level failure (unexpected status, malformed body).

    ``retry_after`` carries the server's suggested backoff in seconds
    whenever the response offered one — the JSON ``retry_after`` field
    or the HTTP ``Retry-After`` header, uniformly — and ``None`` when it
    did not.
    """

    def __init__(self, message: str, status: int | None = None,
                 body: dict | None = None, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.body = body or {}
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """The endpoint cannot be reached at the transport level.

    Connection refused, reset, DNS failure, timeout — the *host* is the
    problem, not the queue.  Deliberately distinct from
    :class:`BackpressureError`: a 429 means "the service is up, slow
    down" and is worth sleeping the suggested ``Retry-After``; a refused
    connection means "this node is down" and sleeping on it only delays
    the real remedy (the gateway routing the job to a different shard —
    see ``repro/gateway/router.py``).
    """


class BackpressureError(ServiceError):
    """The queue stayed full for longer than ``backpressure_wait``."""


class JobFailedError(ServiceError):
    """A waited-on job finished in ``failed`` or ``cancelled`` state."""


class ProtocolError(ServiceError):
    """The server answered with a well-formed HTTP response whose JSON
    body is missing (or mistypes) a field the protocol requires.

    Raised instead of ``KeyError`` so callers can tell "the service
    broke its contract" apart from their own bugs, and so the offending
    ``body`` travels with the exception.  A success-status body that is
    not a JSON object raises it too.  Servers in this tree build their
    bodies from :mod:`repro.serve.protocol`; this is the runtime backstop
    for servers outside it.
    """


def _require_field(payload: dict, key: str, types, *, context: str,
                   status: int | None = None):
    """``payload[key]`` with a typed error instead of ``KeyError``."""
    value = payload.get(key)
    if not isinstance(value, types):
        expected = getattr(types, "__name__", None) or "/".join(
            t.__name__ for t in types)
        raise ProtocolError(
            f"{context}: field {key!r} missing or not {expected} "
            f"(got {type(value).__name__})",
            status=status, body=payload,
        )
    return value


class ServiceClient:
    """JSON/HTTP client for one ``repro serve`` endpoint."""

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        backpressure_wait: float = 30.0,
        poll_interval: float = 0.05,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.backpressure_wait = backpressure_wait
        self.poll_interval = poll_interval

    # -- transport ---------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None,
                 headers: dict | None = None) -> tuple[int, dict]:
        status, payload, _ = self._request_full(method, path, body, headers)
        return status, payload

    def _request_full(
        self, method: str, path: str, body: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """One round trip returning ``(status, json body, response headers)``.

        Response header names are lowercased.  A success body that is not
        a JSON object raises :class:`ProtocolError`; an error-status body
        that is not one reads as an empty dict.
        """
        status, raw, resp_headers = self._exchange(method, path, body, headers)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = None
        if not isinstance(payload, dict):
            if status < 300:
                raise ProtocolError(
                    f"{method} {path}: HTTP {status} body is not a JSON object",
                    status=status)
            payload = {}
        return status, payload, resp_headers

    def _exchange(
        self, method: str, path: str, body: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, bytes, dict]:
        """The raw round trip: ``(status, body bytes, response headers)``."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        send_headers = dict(headers or {})
        if data is not None:
            send_headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            f"{self.url}{path}", data=data, method=method, headers=send_headers,
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return (resp.status, resp.read(),
                        {k.lower(): v for k, v in resp.headers.items()})
        except urllib.error.HTTPError as exc:
            # HTTPError doubles as the (open) response object: close it on
            # every path or the socket lingers until GC.
            try:
                return (exc.code, exc.read(),
                        {k.lower(): v for k, v in (exc.headers or {}).items()})
            finally:
                exc.close()
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"cannot reach {self.url}: {exc.reason}") from exc
        except (ConnectionError, TimeoutError) as exc:
            # A reused keep-alive socket can fail with a raw OS error
            # before urllib wraps it (e.g. reset by a dying server).
            raise ServiceUnavailableError(
                f"cannot reach {self.url}: {exc}") from exc

    @staticmethod
    def _retry_after(payload: dict, headers: dict) -> float | None:
        """The server's suggested backoff: JSON field, else HTTP header."""
        value = payload.get("retry_after", headers.get("retry-after"))
        try:
            return float(value) if value is not None else None
        except (TypeError, ValueError):
            return None

    # -- submission --------------------------------------------------------
    def submit(
        self, spec: JobSpec | CompressionRequest | dict | None = None, *,
        traceparent: str | None = None, **fields
    ) -> dict:
        """Submit a job; returns ``{"job_id", "state", "coalesced_into",
        "trace_id"}``.

        Accepts a :class:`~repro.api.request.CompressionRequest` (the
        unified request type — add ``priority``/``max_retries`` as
        keyword arguments), a :class:`JobSpec`, a spec dict, or the
        spec's fields as keyword arguments.  Retries on ``429`` until
        ``backpressure_wait`` runs out.

        ``traceparent`` (keyword-only — it rides an HTTP header, never
        the spec body) continues an existing trace on the server: pass a
        :meth:`~repro.obs.trace.TraceContext.to_traceparent` value.

        Only genuine backpressure sleeps: a connection-level failure —
        or a ``503`` from a gateway with no live shard to route to —
        raises :class:`ServiceUnavailableError` immediately.  Every
        raised error carries the server's suggested ``retry_after``
        (JSON field or ``Retry-After`` header) when one was offered.
        """
        if spec is None:
            body = dict(fields)
        elif isinstance(spec, (JobSpec, CompressionRequest)):
            body = {**spec.to_dict(), **fields}
        else:
            body = {**spec, **fields}
        send_headers = {"traceparent": traceparent} if traceparent else None
        deadline = time.monotonic() + self.backpressure_wait
        while True:
            status, payload, headers = self._request_full(
                "POST", path(Route.SUBMIT), body, send_headers)
            retry_after = self._retry_after(payload, headers)
            if status == 202:
                _require_field(payload, "job_id", str,
                               context="submit ticket", status=status)
                _require_field(payload, "state", str,
                               context="submit ticket", status=status)
                return payload
            if status == 429:
                delay = retry_after if retry_after is not None else 1.0
                if time.monotonic() + delay > deadline:
                    raise BackpressureError(
                        payload.get("error", "queue full"), status=status,
                        body=payload, retry_after=retry_after,
                    )
                time.sleep(delay)
                continue
            if status == 503:
                raise ServiceUnavailableError(
                    payload.get("error", f"service unavailable (HTTP {status})"),
                    status=status, body=payload, retry_after=retry_after,
                )
            raise ServiceError(
                payload.get("error", f"submit rejected with HTTP {status}"),
                status=status, body=payload, retry_after=retry_after,
            )

    def submit_array(self, data: np.ndarray, **fields) -> dict:
        """Submit with the array shipped inline (no shared filesystem)."""
        fields["data_b64"] = JobSpec.encode_array(data)
        return self.submit(**fields)

    def cancel(self, job_id: str) -> dict:
        """Cancel a job; returns ``{"job_id", "cancelled", "state"}``.

        ``cancelled`` is ``False`` when the job already finished or is
        running on a backend that cannot stop it (thread execution).
        """
        status, payload = self._request("POST", path(Route.CANCEL, job_id))
        if status != 200:
            raise ServiceError(payload.get("error", f"HTTP {status}"),
                               status=status, body=payload)
        return payload

    # -- status/result -----------------------------------------------------
    def poll_status(self, job_id: str) -> tuple[int, dict]:
        """One ``GET /status/<id>`` round trip: ``(http status, body)``.

        No interpretation, no polling — the gateway proxies with this.
        """
        return self._request("GET", path(Route.STATUS, job_id))

    def poll_result(self, job_id: str) -> tuple[int, dict]:
        """One ``GET /result/<id>`` round trip: ``(http status, body)``.

        ``202`` means still pending; ``200`` carries the terminal record
        (``state``/``result``/``error``) whatever the outcome.  Unlike
        :meth:`result` this never sleeps and never raises on a failed
        job — callers that need the raw protocol (the gateway's
        result-ack fetch) decide for themselves.
        """
        return self._request("GET", path(Route.RESULT, job_id))

    def status(self, job_id: str) -> dict:
        status, payload = self._request("GET", path(Route.STATUS, job_id))
        if status != 200:
            raise ServiceError(payload.get("error", f"HTTP {status}"),
                               status=status, body=payload)
        return payload

    def result(self, job_id: str, wait: bool = True, timeout: float = 120.0) -> dict:
        """Fetch a job's result, polling until it finishes by default.

        Returns the result payload (the shared schema of
        :mod:`repro.serve.schema`).  Raises :class:`JobFailedError` if
        the job failed or was cancelled, :class:`JobTimeoutError` (a
        ``TimeoutError``) if it is still pending after ``timeout``
        seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            status, payload = self._request("GET", path(Route.RESULT, job_id))
            if status == 200:
                state = _require_field(payload, "state", str,
                                       context="result payload", status=status)
                if state != "done":
                    raise JobFailedError(
                        payload.get("error") or f"job {job_id} {state}",
                        status=status, body=payload,
                    )
                return _require_field(payload, "result", dict,
                                      context="result payload", status=status)
            if status == 202 and wait:
                if time.monotonic() > deadline:
                    raise JobTimeoutError(
                        f"job {job_id} still pending after {timeout}s")
                time.sleep(self.poll_interval)
                continue
            if status == 202:
                return {"state": payload.get("state"), "pending": True}
            raise ServiceError(payload.get("error", f"HTTP {status}"),
                               status=status, body=payload)

    # -- service introspection ---------------------------------------------
    def trace(self, ref: str) -> dict:
        """Span tree for a job id or raw trace id (``GET /trace/<ref>``).

        Returns ``{"trace_id", "job_id", "complete", "spans"}``.  Raises
        :class:`ServiceError` with ``status=404`` when the reference is
        unknown, the trace was never sampled, or it has been evicted.
        """
        status, payload = self._request("GET", path(Route.TRACE, ref))
        if status != 200:
            raise ServiceError(payload.get("error", f"HTTP {status}"),
                               status=status, body=payload)
        return payload

    def stats(self) -> dict:
        status, payload = self._request("GET", path(Route.STATS))
        if status != 200:
            raise ServiceError(f"{path(Route.STATS)} returned HTTP {status}",
                               status=status)
        return payload

    def health(self) -> dict:
        status, payload = self._request("GET", path(Route.HEALTH))
        if status != 200:
            raise ServiceError(f"{path(Route.HEALTH)} returned HTTP {status}",
                               status=status)
        return payload

    def metrics_text(self) -> str:
        """The raw ``GET /metrics`` body (Prometheus text exposition)."""
        status, raw, _ = self._exchange("GET", path(Route.METRICS))
        if status != 200:
            raise ServiceError(f"{path(Route.METRICS)} returned HTTP {status}",
                               status=status)
        return raw.decode("utf-8")

    def metrics(self) -> dict:
        """``/metrics`` parsed into ``{name: [MetricSample, ...]}``."""
        from repro.obs.exposition import parse_prometheus

        return parse_prometheus(self.metrics_text())
