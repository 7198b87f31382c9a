"""Routing, job tracking, and failover for the gateway tier.

The :class:`Router` is to the gateway what the scheduler is to one node:
the resident brain.  It owns

* a :class:`~repro.gateway.registry.NodeRegistry` (fleet membership,
  heartbeats, the consistent-hash ring),
* a table of :class:`RoutedJob` records — every job the gateway has
  admitted, which node owns it, and the node-side job id it maps to,
* the **failover loop**: a monitor thread that reaps nodes whose
  heartbeats lapsed and requeues their un-acked jobs onto surviving
  nodes, spending the same per-spec retry budget
  (``max_retries``) the process backend spends on worker crashes, and
* the gateway's :class:`~repro.obs.metrics.MetricsRegistry`
  (``repro_gateway_*`` — routed counts per node, heartbeat-age gauges,
  failover counters).

**Job identity.**  The gateway assigns its own ids (``g000001``) and
maps each to the node-side id returned by the node's ``/submit``.  A
job is *acked* once the gateway has the finished result cached — either
proxied on a client ``GET /result`` or fetched when the node's
heartbeat lists the job as finished.  Failover only ever requeues
un-acked jobs, and requeues are safe to repeat: results are pure
functions of the spec, so a job that actually completed on a node that
died before acking is simply recomputed bit-identically elsewhere.

**Routing.**  The routing key is the spec's
:meth:`~repro.serve.jobs.JobSpec.coalesce_key` — the same identity the
node-side scheduler coalesces on — so identical requests always land on
the same shard and per-shard coalescing plus the shard's
:class:`~repro.cache.EvalCache` stay as effective as on a single node.
A node that refuses the TCP connection at submit time is routed
*around* (and the heartbeat reaper will declare it dead soon after); a
node that answers 429 propagates its backpressure to the gateway's
caller unchanged.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro import __version__
from repro.errors import (
    JobTimeoutError,
    StateError,
    UnknownJobError,
)
from repro.gateway.registry import NodeRecord, NodeRegistry, NodeState
from repro.gateway.ring import DEFAULT_REPLICAS
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanStore, TraceContext, Tracer
from repro.obs.tracelog import TraceLogger
from repro.serve.client import (
    BackpressureError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)
from repro.serve.jobs import JobSpec
from repro.serve.protocol import pending_body, result_body, ticket_body
from repro.util.concurrency import guarded_by

__all__ = ["Router", "RoutedJob", "RouterStats", "NoCapacityError"]


class NoCapacityError(StateError):
    """No routable node exists (empty fleet, or everything drained/dead)."""


@dataclass
class RouterStats:
    """Gateway-level counters (the ``/stats`` ``jobs`` section)."""

    submitted: int = 0
    routed: int = 0
    completed: int = 0
    failed: int = 0
    requeued: int = 0
    reroutes: int = 0
    node_failures: int = 0
    acked: int = 0
    no_capacity: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "routed": self.routed,
            "completed": self.completed,
            "failed": self.failed,
            "requeued": self.requeued,
            "reroutes": self.reroutes,
            "node_failures": self.node_failures,
            "acked": self.acked,
            "no_capacity": self.no_capacity,
        }


@dataclass
class RoutedJob:
    """One admitted job: where it lives and what came back."""

    id: str
    body: dict                       # canonical spec wire dict (re-forwardable)
    key: str                         # coalesce key == routing key
    max_retries: int
    state: str = "routed"            # routed | pending | done | failed
    node_id: str | None = None
    node_job_id: str | None = None
    coalesced_into: str | None = None  # gateway-side id, when known
    #: Nodes that died (or refused) while owning this job — avoided on requeue.
    avoid: set[str] = field(default_factory=set)
    failovers: int = 0
    submitted_at: float = field(default_factory=time.time)
    submitted_mono: float = field(default_factory=time.monotonic, repr=False)
    finished_mono: float | None = field(default=None, repr=False)
    result: dict | None = None
    error: str | None = None
    #: Trace identity shared with the owning node (the traceparent the
    #: gateway injected at forward time carries the same trace id).
    trace_id: str | None = None
    trace_root: object = field(default=None, repr=False)
    _finished_event: threading.Event = field(default_factory=threading.Event,
                                             repr=False)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def wait(self, timeout: float | None = None) -> bool:
        return self._finished_event.wait(timeout)

    def status_dict(self) -> dict:
        return {
            "job_id": self.id,
            "state": self.state,
            "node": self.node_id,
            "node_job_id": self.node_job_id,
            "coalesced_into": self.coalesced_into,
            "failovers": self.failovers,
            "submitted_at": self.submitted_at,
            "trace_id": self.trace_id,
            "error": self.error,
        }


@guarded_by("_lock", "_jobs", "_node_index", "_owed", "_history",
            "_clients", "stats")
class Router:
    """Fleet routing + failover; the gateway server's engine.

    Parameters
    ----------
    heartbeat_interval:
        The cadence nodes are told to heartbeat at (returned in
        registration responses so the fleet converges on the gateway's
        setting without per-node flags).
    dead_after:
        Heartbeat silence beyond this many seconds declares a node dead
        and triggers requeue of its un-acked jobs.
    check_interval:
        Monitor-thread period: death detection latency adds up to one
        period on top of ``dead_after``.
    replicas:
        Virtual points per node on the consistent-hash ring.
    history:
        Finished jobs kept addressable for ``/status``/``/result``.
    metrics:
        ``True`` builds a private registry; an instance is used as-is;
        ``False`` disables gateway metrics.
    """

    def __init__(
        self,
        heartbeat_interval: float = 1.0,
        dead_after: float = 3.0,
        check_interval: float = 0.25,
        replicas: int = DEFAULT_REPLICAS,
        history: int = 4096,
        client_timeout: float = 30.0,
        metrics: MetricsRegistry | bool = True,
        trace_sample: float = 1.0,
        trace_exemplars: int = 5,
        logger: TraceLogger | None = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.heartbeat_interval = float(heartbeat_interval)
        self.check_interval = float(check_interval)
        self.client_timeout = float(client_timeout)
        self.registry = NodeRegistry(dead_after=dead_after, replicas=replicas)
        self.stats = RouterStats()
        self._jobs: dict[str, RoutedJob] = {}
        #: (node_id, node_job_id) -> gateway job id, for heartbeat acks.
        self._node_index: dict[tuple[str, str], str] = {}
        #: gateway ids currently owed by each node (un-acked).
        self._owed: dict[str, set[str]] = {}
        self._history: deque[str] = deque()
        self._history_limit = max(1, int(history))
        self._ids = itertools.count(1)
        self._clients: dict[str, ServiceClient] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        if isinstance(metrics, MetricsRegistry):
            self.metrics: MetricsRegistry | None = metrics
        else:
            self.metrics = MetricsRegistry() if metrics else None
        # Gateway spans carry node_id="gateway" so a stitched tree shows
        # at a glance which tier each span ran on.
        self.tracer = Tracer(store=SpanStore(exemplars=trace_exemplars),
                             sample_rate=trace_sample, node_id="gateway")
        self.logger = logger if logger is not None else TraceLogger(
            "gateway", enabled=False)
        self._routed_total = None
        self._heartbeat_age = None
        if self.metrics is not None:
            self._build_metrics(self.metrics)

    # -- observability -----------------------------------------------------
    def _build_metrics(self, reg: MetricsRegistry) -> None:
        # Callback counters take torn reads by design (registration
        # happens before the router is shared; monitoring tolerates
        # mid-update values).
        stats = self.stats  # repro: ignore[LOCK001]
        reg.gauge("build_info",
                  "Build metadata carried in labels (value is always 1)",
                  labels=("version",)).labels(version=__version__).set(1)
        self._routed_total = reg.counter(
            "gateway_routed_total", "Jobs forwarded to each node",
            labels=("node",))
        self._heartbeat_age = reg.gauge(
            "gateway_heartbeat_age_seconds",
            "Seconds since each node's last heartbeat (monitor-tick resolution)",
            labels=("node",))
        for attr, help_text in (
            ("submitted", "Jobs admitted by the gateway"),
            ("completed", "Jobs finished successfully across the fleet"),
            ("failed", "Jobs that exhausted every budget"),
            ("requeued", "Jobs re-homed off a dead node (failover requeues)"),
            ("reroutes", "Submits re-routed around an unreachable node"),
            ("node_failures", "Nodes declared dead after missed heartbeats"),
            ("acked", "Finished results fetched and acknowledged"),
            ("no_capacity", "Submits refused because no node was routable"),
        ):
            reg.counter(f"gateway_{attr}_total", help_text,
                        callback=lambda a=attr: getattr(stats, a))
        for state in (NodeState.ACTIVE, NodeState.DRAINING, NodeState.DEAD):
            reg.gauge(f"gateway_nodes_{state}", f"Nodes currently {state}",
                      callback=lambda s=state: self.registry.counts()[s])
        reg.gauge("gateway_inflight_jobs", "Admitted jobs not yet finished",
                  callback=self._inflight_count)
        reg.gauge("gateway_uptime_seconds", "Monotonic seconds since gateway start",
                  callback=lambda: time.monotonic() - self._started_mono)

    def _inflight_count(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if not j.finished)

    def metrics_text(self) -> str:
        if self.metrics is None:
            raise StateError("gateway was built with metrics disabled")
        return self.metrics.render()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Router":
        if self._monitor is None:
            self._stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-gateway-monitor", daemon=True)
            self._monitor.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- node-facing protocol ----------------------------------------------
    def register_node(self, node_id: str, url: str) -> dict:
        """Handle ``POST /register``; returns the node's marching orders."""
        record = self.registry.register(node_id, url)
        with self._lock:
            self._clients.pop(node_id, None)  # URL may have changed
            self._owed.setdefault(node_id, set())
        return {
            "node_id": record.node_id,
            "state": record.state,
            "heartbeat_interval": self.heartbeat_interval,
            "dead_after": self.registry.dead_after,
        }

    def unregister_node(self, node_id: str) -> dict | None:
        """Handle ``POST /unregister``; requeues whatever the node owed."""
        record = self.registry.unregister(node_id)
        if record is None:
            return None
        self._requeue_owed(node_id, reason=f"node {node_id} unregistered")
        return {"node_id": node_id, "state": record.state}

    def node_heartbeat(
        self, node_id: str, finished: list[str] | None = None,
        reported: dict | None = None,
    ) -> dict | None:
        """Handle ``POST /heartbeat``: liveness + the job-ack protocol.

        ``finished`` is the node's list of locally-finished job ids not
        yet acknowledged.  For each one the gateway fetches and caches
        the result, then includes the id in ``acked`` so the node stops
        reporting it.  Unknown ids (gateway restarted) are acked too.
        Returns ``None`` for unknown nodes — the agent re-registers.
        """
        record = self.registry.heartbeat(node_id, reported=reported)
        if record is None:
            return None
        acked: list[str] = []
        for node_job_id in finished or []:
            with self._lock:
                gid = self._node_index.get((node_id, node_job_id))
                job = self._jobs.get(gid) if gid is not None else None
            if job is None or job.finished or job.node_id != node_id:
                acked.append(node_job_id)  # nothing (left) to fetch
                continue
            if self._fetch_result(job, record):
                acked.append(node_job_id)
        return {
            "node_id": node_id,
            "state": record.state,
            "acked": acked,
            "heartbeat_interval": self.heartbeat_interval,
        }

    # -- client-facing protocol --------------------------------------------
    def submit(self, body: dict,
               trace_context: TraceContext | None = None) -> tuple[RoutedJob, dict]:
        """Admit one job: validate, route by coalesce key, forward.

        Returns ``(job, ticket)`` where ``ticket`` is the JSON body for
        the 202 response.  Raises ``ValueError`` (bad spec),
        :class:`NoCapacityError` (no routable node), or
        :class:`~repro.serve.client.BackpressureError` (the owning shard
        answered 429 — propagated so the caller sees honest overload).

        ``trace_context`` continues the caller's trace; otherwise the
        gateway roots a new one here — every downstream hop (route,
        node queue/run, stage and search-iteration spans) shares its id.
        """
        spec = JobSpec.from_dict(body)
        key = spec.coalesce_key()
        with self._lock:
            gid = f"g{next(self._ids):06d}"
            job = RoutedJob(id=gid, body=spec.to_dict(), key=key,
                            max_retries=spec.max_retries)
            self._jobs[gid] = job
            self.stats.submitted += 1
        root = self.tracer.start_trace(
            "gateway_job", context=trace_context,
            attrs={"job_id": gid, "kind": spec.kind})
        job.trace_root = root
        job.trace_id = root.trace_id
        self.logger.event("job_submitted", trace_id=job.trace_id, job_id=gid,
                          kind=spec.kind)
        try:
            self._forward(job)
        except (NoCapacityError, BackpressureError) as exc:
            with self._lock:
                del self._jobs[gid]
                self.stats.submitted -= 1
            if root.is_recording:
                root.record_error(exc)
                self.tracer.finish_span(root)
            raise
        return job, ticket_body(job.id, "queued", job.coalesced_into,
                                job.trace_id, node=job.node_id)

    def get(self, gid: str) -> RoutedJob | None:
        with self._lock:
            return self._jobs.get(gid)

    def job_status(self, gid: str) -> dict | None:
        """``GET /status/<gid>``: gateway view + live node view if routed."""
        job = self.get(gid)
        if job is None:
            return None
        payload = job.status_dict()
        if not job.finished and job.node_id is not None and job.node_job_id is not None:
            record = self.registry.get(job.node_id)
            if record is not None and record.state in NodeState.ALIVE:
                try:
                    status, body = self._client(record).poll_status(job.node_job_id)
                    if status == 200:
                        payload["node_status"] = body
                except ServiceError:  # repro: ignore[EXC002] optional enrichment
                    pass  # the monitor will deal with the node
        return payload

    def job_result(self, gid: str) -> tuple[int, dict] | None:
        """``GET /result/<gid>`` semantics: (http status, body) or ``None``.

        Finished jobs answer from the gateway's cache; routed jobs are
        proxied to the owning node (and cached on completion); anything
        in between — including a node that just died — answers 202, the
        client keeps polling, and failover fills in the rest.
        """
        job = self.get(gid)
        if job is None:
            return None
        if not job.finished and job.state == "routed":
            record = self.registry.get(job.node_id) if job.node_id else None
            if record is not None and record.state in NodeState.ALIVE:
                self._fetch_result(job, record, only_if_done=True)
        if job.state == "done":
            return 200, result_body(job.id, "done", job.coalesced_into,
                                    job.result, None)
        if job.state == "failed":
            return 200, result_body(job.id, "failed", job.coalesced_into,
                                    None, job.error)
        return 202, pending_body(job.id, "queued", node=job.node_id,
                                 failovers=job.failovers)

    def drain(self, node_id: str) -> dict | None:
        record = self.registry.drain(node_id)
        return None if record is None else record.status_dict()

    def undrain(self, node_id: str) -> dict | None:
        record = self.registry.undrain(node_id)
        return None if record is None else record.status_dict()

    def wait(self, gid: str, timeout: float | None = None) -> RoutedJob:
        job = self.get(gid)
        if job is None:
            raise UnknownJobError(f"unknown job {gid!r}")
        if not job.wait(timeout):
            raise JobTimeoutError(
                f"job {gid} still {job.state} after {timeout}s")
        return job

    # -- forwarding --------------------------------------------------------
    def _client(self, record: NodeRecord) -> ServiceClient:
        with self._lock:
            client = self._clients.get(record.node_id)
            if client is None or client.url != record.url:
                client = ServiceClient(record.url, timeout=self.client_timeout,
                                       backpressure_wait=0.0)
                self._clients[record.node_id] = client
            return client

    def _forward(self, job: RoutedJob) -> None:
        """Route ``job`` and submit it to the owning node.

        Walks the ring past nodes the job would rather avoid (previous
        owners that died) and around nodes that refuse the connection —
        counting each such hop as a reroute.  The avoid set is a *soft*
        preference: when it excludes every routable node (a one-node
        fleet whose node died and came back), the job falls back to the
        avoided nodes rather than starving — results are pure functions
        of the spec, so re-running where a previous attempt died is
        merely redundant, never wrong.  Nodes that refuse the TCP
        connection *during this call* stay hard-excluded (no retry
        loop).  Raises :class:`NoCapacityError` once no candidate
        remains, and lets a 429 (:class:`BackpressureError`) propagate:
        the shard's backpressure is the gateway's backpressure.

        The whole walk happens inside one ``route`` span (child of the
        job's gateway root), and the winning node's submit carries the
        route span's context as a ``traceparent`` header — which is what
        stitches the node's queue/run/stage spans into the same trace.
        The header travels even when the trace is unsampled (flag ``00``)
        so the node honours the gateway's head decision.
        """
        refused: set[str] = set()
        with self.tracer.span("route", parent=job.trace_root) as route_span:
            traceparent = route_span.context.to_traceparent()
            while True:
                record = self.registry.route_avoiding(job.key, job.avoid | refused)
                if record is None and job.avoid:
                    record = self.registry.route_avoiding(job.key, refused)
                if record is None:
                    with self._lock:
                        self.stats.no_capacity += 1
                    raise NoCapacityError(
                        "no routable worker node (register nodes, or undrain one)")
                try:
                    ticket = self._client(record).submit(
                        job.body, traceparent=traceparent)
                except ServiceUnavailableError:
                    # Connection-level failure: route around it now; the
                    # reaper declares it dead on heartbeat silence.
                    refused.add(record.node_id)
                    with self._lock:
                        self.stats.reroutes += 1
                    continue
                with self._lock:
                    job.state = "routed"
                    job.node_id = record.node_id
                    job.node_job_id = ticket["job_id"]
                    self._node_index[(record.node_id, ticket["job_id"])] = job.id
                    self._owed.setdefault(record.node_id, set()).add(job.id)
                    coalesced = ticket.get("coalesced_into")
                    if coalesced:
                        primary_gid = self._node_index.get(
                            (record.node_id, coalesced))
                        job.coalesced_into = primary_gid
                    self.stats.routed += 1
                if route_span.is_recording:
                    route_span.set_attr("node", record.node_id)
                    if refused:
                        route_span.set_attr("rerouted_around", sorted(refused))
                    if job.failovers:
                        route_span.set_attr("failover", job.failovers)
                if self._routed_total is not None:
                    self._routed_total.labels(node=record.node_id).inc()
                self.logger.event(
                    "job_routed", trace_id=job.trace_id, job_id=job.id,
                    node=record.node_id, node_job_id=job.node_job_id)
                return

    def _fetch_result(self, job: RoutedJob, record: NodeRecord,
                      only_if_done: bool = False) -> bool:
        """Pull ``job``'s outcome from its node; cache + finish if terminal.

        Returns ``True`` when the job is now finished at the gateway
        (fetched now, or already was).  Network errors return ``False``
        — the monitor/failover path owns that node's fate.
        """
        try:
            status, body = self._client(record).poll_result(job.node_job_id)
        except ServiceError:
            return False
        if status == 202:
            return False
        if status != 200:
            if only_if_done:
                return False
            self._finish(job, "failed",
                         error=body.get("error") or f"node answered HTTP {status}")
            return True
        if body.get("state") == "done":
            self._finish(job, "done", result=body.get("result"))
        else:
            self._finish(job, "failed",
                         error=body.get("error") or f"job {body.get('state')} on node")
        return True

    def _finish(self, job: RoutedJob, state: str, *, result: dict | None = None,
                error: str | None = None) -> None:
        with self._lock:
            if job.finished:
                return
            job.state = state
            job.result = result
            job.error = error
            job.finished_mono = time.monotonic()
            if job.node_id is not None:
                owed = self._owed.get(job.node_id)
                if owed is not None:
                    owed.discard(job.id)
            if state == "done":
                self.stats.completed += 1
                self.stats.acked += 1
            else:
                self.stats.failed += 1
            self._remember_locked(job)
        job._finished_event.set()
        self._finish_job_trace(job)

    def _finish_job_trace(self, job: RoutedJob) -> None:
        """Close the gateway root span and settle the trace's bookkeeping.

        Mirrors the scheduler's version: a failed-but-unsampled job still
        gets a minimal forced span (*always sample on error*), and every
        sampled trace enters the slow-trace exemplar contest with its
        full gateway-side latency.
        """
        root = job.trace_root
        if root is None:
            return
        elapsed = (job.finished_mono - job.submitted_mono
                   if job.finished_mono is not None else None)
        if root.is_recording:
            if job.state == "failed":
                root.record_error(job.error or "failed")
            if job.failovers:
                root.set_attr("failovers", job.failovers)
            self.tracer.finish_span(root)
        elif job.state == "failed" and job.trace_id is not None:
            self.tracer.record_span(
                "gateway_job", trace_id=job.trace_id,
                start=job.submitted_at, duration=elapsed,
                status="error", error=job.error,
                attrs={"job_id": job.id, "forced_sample": True})
        if job.trace_id is not None:
            self.tracer.store.finish_trace(job.trace_id, elapsed, job.id)
        if job.state == "failed":
            self.logger.error("job_failed", trace_id=job.trace_id,
                              job_id=job.id, node=job.node_id, error=job.error)
        else:
            self.logger.event("job_finished", trace_id=job.trace_id,
                              job_id=job.id, node=job.node_id,
                              seconds=round(elapsed, 6) if elapsed else None)

    def _remember_locked(self, job: RoutedJob) -> None:
        self._history.append(job.id)
        while len(self._history) > self._history_limit:
            old = self._history.popleft()
            stale = self._jobs.get(old)
            if stale is not None and stale.finished:
                if stale.node_id is not None and stale.node_job_id is not None:
                    self._node_index.pop((stale.node_id, stale.node_job_id), None)
                del self._jobs[old]

    # -- failover ----------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.check_interval):
            self.check_nodes()

    def check_nodes(self) -> list[str]:
        """One monitor tick: reap lapsed nodes, requeue, retry pending.

        Public (and called by the monitor thread) so tests can drive
        failover deterministically without sleeping for wall-clock
        margins.  Returns the ids of nodes newly declared dead.
        """
        dead = self.registry.reap()
        for record in dead:
            with self._lock:
                self.stats.node_failures += 1
            self._requeue_owed(record.node_id,
                               reason=f"node {record.node_id} missed heartbeats")
        self._retry_pending()
        if self._heartbeat_age is not None:
            for record in self.registry.nodes(NodeState.ALIVE):
                self._heartbeat_age.labels(node=record.node_id).set(
                    record.heartbeat_age())
        return [r.node_id for r in dead]

    def _requeue_owed(self, node_id: str, reason: str) -> None:
        """Spend retry budget to re-home every un-acked job of a node."""
        with self._lock:
            owed = sorted(self._owed.get(node_id, ()))
            jobs = [self._jobs[gid] for gid in owed if gid in self._jobs]
            self._owed[node_id] = set()
        for job in jobs:
            if job.finished or job.node_id != node_id:
                continue
            with self._lock:
                job.avoid.add(node_id)
                if job.node_job_id is not None:
                    self._node_index.pop((node_id, job.node_job_id), None)
                job.node_id = None
                job.node_job_id = None
                if job.failovers >= job.max_retries:
                    pass  # falls through to _finish below, outside the lock
                else:
                    job.failovers += 1
                    job.state = "pending"
                    self.stats.requeued += 1
            root = job.trace_root
            if (root is not None and root.is_recording
                    and root.trace_id is not None):
                # Retro span: the dead node's own spans died with it, so
                # the gateway records the failover evidence itself.
                self.tracer.record_span(
                    "failover_requeue", trace_id=root.trace_id,
                    parent_id=root.span_id,
                    attrs={"node": node_id, "reason": reason,
                           "requeued": job.state == "pending",
                           "failover": job.failovers})
            self.logger.event(
                "job_requeued" if job.state == "pending" else "job_abandoned",
                level="warning", trace_id=job.trace_id, job_id=job.id,
                node=node_id, reason=reason, failovers=job.failovers)
            if job.state != "pending":
                self._finish(job, "failed",
                             error=f"{reason}; retry budget exhausted "
                                   f"({job.failovers}/{job.max_retries} failovers)")
                continue
            self._try_requeue(job)

    def _try_requeue(self, job: RoutedJob) -> None:
        """Forward a pending job; stays pending on 429 for the next tick."""
        try:
            self._forward(job)
        except BackpressureError:  # repro: ignore[EXC002]
            pass  # every candidate shard is full: retry next monitor tick
        except NoCapacityError:  # repro: ignore[EXC002]
            # Nothing routable *right now*; a node may yet register or
            # resurrect before the budget question even arises, so the
            # job stays pending rather than failing on a transient.
            pass

    def _retry_pending(self) -> None:
        with self._lock:
            pending = [j for j in self._jobs.values() if j.state == "pending"]
        for job in pending:
            self._try_requeue(job)

    # -- introspection -----------------------------------------------------
    def trace_payload(self, ref: str) -> dict | None:
        """Stitched span tree for a gateway job id (or raw 32-hex trace id).

        The gateway's own spans (root, routing, failover evidence) are
        merged with the owning node's ``/trace`` answer — same trace id,
        deduplicated by span id — so one read shows the whole journey:
        gateway admission → route → node queue/run → executor dispatch →
        stage spans → per-search-iteration spans.  A dead or unreachable
        node degrades to the gateway-side spans alone (its routing spans
        still say which node the job died on).  ``None`` when the
        reference is unknown, unsampled, or evicted.
        """
        job = self.get(ref)
        if job is None and len(ref) == 32:
            with self._lock:
                job = next((j for j in self._jobs.values()
                            if j.trace_id == ref), None)
        trace_id = job.trace_id if job is not None else (
            ref if len(ref) == 32 else None)
        if trace_id is None:
            return None
        spans = self.tracer.store.get(trace_id)
        if spans is None:
            return None
        if job is not None and job.node_id is not None \
                and job.node_job_id is not None:
            record = self.registry.get(job.node_id)
            if record is not None and record.state in NodeState.ALIVE:
                try:
                    remote = self._client(record).trace(job.node_job_id)
                except ServiceError:
                    remote = None  # evicted/unknown there; gateway view stands
                if remote and remote.get("trace_id") == trace_id:
                    seen = {s.get("span_id") for s in spans}
                    spans.extend(s for s in remote.get("spans", [])
                                 if s.get("span_id") not in seen)
        return {
            "trace_id": trace_id,
            "job_id": job.id if job is not None else None,
            "complete": job.finished if job is not None else False,
            "spans": spans,
        }

    def stats_payload(self) -> dict:
        with self._lock:
            # Ledger reads under the lock: job states and counters move
            # together, so /stats never shows a torn snapshot.
            jobs = self.stats.as_dict()
            inflight = sum(1 for j in self._jobs.values() if not j.finished)
        payload = {
            "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
            "heartbeat_interval": self.heartbeat_interval,
            "jobs": jobs,
            "inflight": inflight,
            # Fleet/trace/metrics snapshots are taken outside the router
            # lock: each has its own lock, and holding ours across them
            # would order Router._lock before theirs for no benefit.
            "fleet": self.registry.stats_dict(),
            "trace": self.tracer.stats_dict(),
            "metrics": None,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
        return payload
