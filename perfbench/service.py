"""Service workload: ``gateway-closed``.

An embedded ``GatewayServer`` in front of two ``ServiceServer`` nodes, each
with two process workers, is driven closed-loop by two clients: each
client waits for a job's result before it sends the next, as a
simulation's I/O ranks do.  Set-up fills every node's evaluation cache to
capacity, because a resident service's steady state is a full cache; the
timed phase starts only once ``/stats`` shows each cache full and evicting.

Each of the SETUP_REPEATS set-ups is followed by one timed pass on its
fresh endpoint.  The first pass runs for its share of ``--seconds``; the
later ones replay the same requests, as many per client as the first
sent.  Each request counts with its fastest latency, so a job slowed by
a burst of load from other processes on the machine is measured again
outside it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    MB,
    SETUP_REPEATS,
    Outcome,
    bound_violations,
    median,
    peak_rss_mb,
    percentile,
    psnr_db,
    work_dir,
)

#: Each node's pool size, and the closed-loop clients (one per core).
POOL_WORKERS = 2
CLIENTS = max(1, min(POOL_WORKERS, os.cpu_count() or 1))
#: The gateway fronts two nodes with POOL_WORKERS workers each.  With one
#: worker per node, hash routing put both clients' jobs on one node half
#: the time, and the median job flipped between queued and not queued
#: (0.083 against 0.112 s) from run to run; two clients still keep at most
#: two jobs running.
GATEWAY_NODES = 2
JOB_TIMEOUT = 60.0
#: Result polling period of the clients, as in the program's own load
#: generator.  The client's 50 ms default rounded every latency up to the
#: next poll: the jobs fell into clusters 50 ms apart, the 95th percentile
#: sat on the edge of one, and it moved by a quarter from run to run.
POLL_INTERVAL = 0.01


class Endpoint:
    """The embedded gateway and its nodes; ``close()`` tears it all down
    and waits for every pool worker to exit."""

    def __init__(self, trace_sample: float, outcome: Outcome) -> None:
        from repro.gateway import GatewayServer
        from repro.serve.server import ServiceServer

        self.outcome = outcome
        self.gateway = None
        self.nodes: list = []
        try:
            self.gateway = GatewayServer(
                port=0, heartbeat_interval=0.25, dead_after=5.0,
                check_interval=0.1, trace_sample=trace_sample).start()
            self.url = self.gateway.url
            for i in range(GATEWAY_NODES):
                self.nodes.append(ServiceServer(
                    port=0, workers=POOL_WORKERS,
                    executor="process", trace_sample=trace_sample,
                    register=self.gateway.url, node_id=f"bench-n{i}").start())
            deadline = time.monotonic() + 30.0
            while self.gateway.router.registry.counts()["active"] < GATEWAY_NODES:
                if time.monotonic() > deadline:
                    raise TimeoutError("nodes never finished registering")
                time.sleep(0.02)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        pids: list[int] = []
        for node in self.nodes:
            pool = getattr(node.scheduler, "_pool", None)
            if pool is not None:
                pids.extend(pool.worker_pids())
        # Nodes first, so their agents unregister from a live gateway.  A
        # failing shutdown is recorded and the rest still stop.
        servers = self.nodes + ([self.gateway] if self.gateway is not None else [])
        self.nodes, self.gateway = [], None
        for server in servers:
            try:
                server.shutdown()
            except OSError as exc:
                self.outcome.fail(f"tear-down of {server.url} raised {exc}", exc)
        _wait_gone(pids)


def _wait_gone(pids: list[int], timeout: float = 30.0) -> None:
    """Wait until pool workers (children of the fork server) have exited."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            except PermissionError:  # pid reused by another user's process
                break
            time.sleep(0.02)


def stop_helpers() -> None:
    """Stop multiprocessing's fork server and resource tracker, waiting
    for both (they are this process's children)."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# Set-up: fill every node's cache
# ---------------------------------------------------------------------------

def fill_caches(endpoint: Endpoint, seed: int) -> None:
    """Warm every pool and fill every node's cache to capacity.

    Each worker first runs one real infeasible-target tune through the
    node's API (this starts the worker and exercises the whole path).  The
    rest of the capacity is filled with entries keyed exactly like real
    probes (a real array fingerprint, the compressor's config hash, a
    normalised bound); they are never hit, as the entries of such tunes
    would not be, but they ride along in every dispatch like any others.
    Timing starts only once ``/stats`` shows each cache full and evicting.
    """
    from inputs import FILL_PROBES, FILL_TARGET, fill_arrays
    from repro.cache.evalcache import CacheEntry
    from repro.pressio.registry import make_compressor
    from repro.serve.client import ServiceClient

    pending = []
    for n, node in enumerate(endpoint.nodes):
        client = ServiceClient(node.url, timeout=JOB_TIMEOUT,
                               poll_interval=POLL_INTERVAL)
        for data in fill_arrays(seed, node.scheduler.workers, node=n):
            ticket = client.submit_array(data, kind="tune", compressor="mgard",
                                         target_ratio=FILL_TARGET, tolerance=0.1)
            pending.append((client, ticket["job_id"]))
    for client, job_id in pending:
        client.result(job_id, timeout=JOB_TIMEOUT)

    codec = make_compressor("mgard")
    for n, node in enumerate(endpoint.nodes):
        cache = node.scheduler.cache
        missing = cache.maxsize - len(cache) + FILL_PROBES
        arrays = fill_arrays(seed + 1, -(-missing // FILL_PROBES), node=n)
        entries = {}
        for data in arrays:
            for j in range(FILL_PROBES):
                bound = float(data.max() - data.min()) * (j + 1) / FILL_PROBES
                entries[cache.key_for(codec, data, bound)] = CacheEntry(
                    ratio=1.0 + j / FILL_PROBES, nbytes=64, seconds=7e-4)
        cache.merge_entries(entries)
        stats = ServiceClient(node.url).stats()["cache"]
        if stats["entries"] < cache.maxsize or stats["evictions"] < 1:
            raise RuntimeError(f"node {n} cache not full after fill: {stats}")


def _node_stats(endpoint: Endpoint) -> dict:
    from repro.serve.client import ServiceClient

    total = {"submitted": 0, "coalesced": 0, "cache_hits": 0, "cache_misses": 0,
             "evaluations": 0, "pool_tasks": 0, "rebuilds": 0}
    for node in endpoint.nodes:
        s = ServiceClient(node.url).stats()
        total["submitted"] += s["jobs"]["submitted"]
        total["coalesced"] += s["jobs"]["coalesced"]
        total["cache_hits"] += s["search"]["cache_hits"]
        total["cache_misses"] += s["search"]["cache_misses"]
        total["evaluations"] += s["search"]["evaluations"]
        total["pool_tasks"] += s["executor"].get("tasks_submitted", 0)
        total["rebuilds"] += s["executor"].get("pool_rebuilds", 0)
    return total


def _gateway_stats(endpoint: Endpoint) -> dict:
    from repro.serve.client import ServiceClient

    return dict(ServiceClient(endpoint.url).stats()["jobs"])


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after
            if isinstance(after[k], (int, float))}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class Completed:
    """One finished job as the client saw it."""

    client: int
    index: int
    kind: str
    body: dict
    data: object
    repeat: bool
    latency: float
    job_id: str
    result: dict
    output: str | None


def closed_loop(url: str, seed: int, seconds: float, scale: str,
                outcome: Outcome, tag: str, quota: list[int] | None = None,
                ) -> tuple[list[Completed], float, list[int]]:
    """Drive ``url`` with CLIENTS clients until ``seconds`` pass or, given
    a ``quota``, until client ``c`` has sent its first ``quota[c]``
    requests.  Returns the finished jobs, the wall time and how many
    requests each client sent."""
    from inputs import RequestStream
    from repro.serve.client import ServiceClient

    # A relative path: the output path is part of the job's coalesce key,
    # which the gateway hashes to pick a node, so every pass and every
    # checkout routes the same requests to the same nodes.
    out_dir = work_dir("outputs", tag)
    done: list[Completed] = []
    sent = [0] * CLIENTS
    lock = threading.Lock()
    start = time.perf_counter()

    def more(c: int, i: int) -> bool:
        if quota is not None:
            return i < quota[c]
        return time.perf_counter() - start < seconds

    def client_loop(c: int) -> None:
        client = ServiceClient(url, timeout=JOB_TIMEOUT, poll_interval=POLL_INTERVAL)
        stream = RequestStream(seed, c, scale)
        i = 0
        while more(c, i):
            kind, body, data, repeat = stream.next_request(i)
            output = None
            if body["kind"] == "compress":
                output = str(out_dir / f"c{c}-{i}.frz")
                body = {**body, "output": output}
            with lock:
                outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                ticket = client.submit_array(data, **body)
                result = client.result(ticket["job_id"], timeout=JOB_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - every client error is counted
                with lock:
                    outcome.fail(f"client {c} request {i} ({kind}): "
                                 f"{type(exc).__name__}: {exc}", exc)
                i += 1
                sent[c] = i
                continue
            latency = time.perf_counter() - t0
            with lock:
                done.append(Completed(client=c, index=i, kind=kind, body=body,
                                      data=data, repeat=repeat, latency=latency,
                                      job_id=ticket["job_id"], result=result,
                                      output=output))
            i += 1
            sent[c] = i

    threads = [threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return done, time.perf_counter() - start, sent


def verify(done: list[Completed], outcome: Outcome) -> dict:
    """Check every result against the library and the input arrays.

    Tune results must reproduce their ratio when the library compresses at
    the returned bound; written outputs must decompress within the bound.
    """
    from repro.io.files import load_field
    from repro.pressio.registry import make_compressor

    ratio_errors, in_band, outputs = [], [], []
    for job in done:
        outcome.attempted += 1
        res = job.result
        try:
            if job.kind == "tune":
                local = make_compressor("sz").with_error_bound(res["error_bound"])
                ratio = local.compress(job.data).ratio
                if ratio != res["ratio"]:
                    outcome.wrong(f"job {job.job_id}: service ratio {res['ratio']} "
                                  f"!= library ratio {ratio}")
        except Exception as exc:  # noqa: BLE001
            outcome.fail(f"job {job.job_id}: verification raised", exc)
            continue
        if job.output is not None:
            outputs.append(job)
        target = job.body.get("target_ratio")
        if target:
            tuning = res if job.kind == "tune" else res.get("tuning") or {}
            in_band.append(bool(tuning.get("within_tolerance", tuning.get("feasible"))))
            ratio_errors.append(abs(res["ratio"] / target - 1))

    psnrs = []
    for job in outputs:
        try:
            recon, _meta = load_field(job.output)
        except Exception as exc:  # noqa: BLE001
            outcome.fail(f"job {job.job_id}: decompress raised", exc)
            continue
        finally:
            Path(job.output).unlink(missing_ok=True)
        bad = bound_violations(job.data, recon, job.result["error_bound"])
        if bad:
            outcome.fail(f"job {job.job_id}: {bad} values exceed "
                         f"e={job.result['error_bound']}")
            outcome.wrong(f"job {job.job_id}: error bound violated")
        psnrs.append(psnr_db(job.data, recon))
    return {
        "psnr_db": sum(psnrs) / len(psnrs) if psnrs else 0.0,
        "in_band_fraction": sum(in_band) / len(in_band) if in_band else 0.0,
        "ratio_error": sum(ratio_errors) / len(ratio_errors) if ratio_errors else 0.0,
    }


def mean_checks(checks: list[dict]) -> dict:
    """Per-pass verification figures averaged over the passes."""
    return {key: sum(c[key] for c in checks) / len(checks) for key in checks[0]}


def fastest(passes: list[list[Completed]]) -> list[Completed]:
    """Each request (client, index) once, at its fastest over the passes."""
    best: dict[tuple[int, int], Completed] = {}
    for done in passes:
        for job in done:
            key = (job.client, job.index)
            if key not in best or job.latency < best[key].latency:
                best[key] = job
    return list(best.values())


def end_to_end(best: list[Completed], checks: dict) -> dict:
    """Latency percentiles of the fastest samples; the rates follow from
    them by Little's law, CLIENTS requests always being in flight."""
    latencies = [j.latency for j in best]
    busy = sum(latencies) / CLIENTS
    mb = sum(j.data.nbytes for j in best) / MB
    return {
        "throughput_mb_s": (mb / busy if busy else 0.0, "MB/s"),
        "jobs_per_s": (len(best) / busy if busy else 0.0, "1/s"),
        "latency_p50_s": (percentile(latencies, 50), "s"),
        "latency_p95_s": (percentile(latencies, 95), "s"),
        "in_band_fraction": (checks["in_band_fraction"], "fraction"),
        "psnr_db": (checks["psnr_db"], "dB"),
    }


def describe(done: list[Completed]) -> str:
    tunes = [j for j in done if j.kind == "tune"]
    repeats = sum(1 for j in tunes if j.repeat)
    return (f"{len(done)} jobs ({len(done)} latency samples): "
            f"{len(tunes) / max(1, len(done)):.2f} tune share, "
            f"{repeats / max(1, len(tunes)):.2f} of tunes repeat an earlier array")


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------

def _set_up(seed: int, trace_sample: float, outcome: Outcome) -> Endpoint:
    endpoint = Endpoint(trace_sample, outcome)
    try:
        fill_caches(endpoint, seed)
    except BaseException:
        endpoint.close()
        raise
    return endpoint


def run(args, outcome: Outcome, import_s: float) -> dict[str, tuple[float, str]]:
    tag = f"{args.workload}-{args.seed}"
    try:
        if args.trace:
            return _traced(args, outcome, tag)
        setup_times, passes, walls, checks = [], [], [], []
        quota = None
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            endpoint = _set_up(args.seed + k, 0.0, outcome)
            setup_times.append(time.perf_counter() - t0)
            try:
                done, wall, sent = closed_loop(
                    endpoint.url, args.seed, args.seconds / SETUP_REPEATS,
                    args.scale, outcome, tag, quota)
            finally:
                endpoint.close()
            checks.append(verify(done, outcome))  # before the next pass rewrites
            quota = quota or sent
            passes.append(done)
            walls.append(wall)
    finally:
        stop_helpers()
    best = fastest(passes)
    print(f"# {args.workload}: {describe(best)}; passes of {quota} requests "
          f"per client took {[round(w, 2) for w in walls]} s; "
          f"setup samples {setup_times}")
    metrics = {"setup_s": (import_s + median(setup_times), "s")}
    metrics.update(end_to_end(best, mean_checks(checks)))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def _traced(args, outcome: Outcome, tag: str) -> dict:
    """Untraced window, then a traced one on a fresh endpoint whose pool
    workers carry the layer wrappers."""
    import tracing

    endpoint = _set_up(args.seed, 0.0, outcome)
    try:
        plain, plain_wall, _ = closed_loop(endpoint.url, args.seed, args.seconds,
                                           args.scale, outcome, tag)
    finally:
        endpoint.close()
    checks = [verify(plain, outcome)]
    stop_helpers()  # the next fork server starts with the wrappers

    worker_dir = work_dir("workers", tag)
    for stale in worker_dir.glob("worker-*.json"):
        stale.unlink()
    os.environ[tracing.WORKER_DIR_ENV] = str(worker_dir.resolve())
    rec = tracing.Recorder()
    endpoint = _set_up(args.seed, 1.0, outcome)
    installed = tracing.install(rec, endpoint=endpoint.url)
    try:
        before = _node_stats(endpoint)
        gw_before = _gateway_stats(endpoint)
        traced, traced_wall, _ = closed_loop(endpoint.url, args.seed, args.seconds,
                                             args.scale, outcome, tag)
        after = _node_stats(endpoint)
        gw_after = _gateway_stats(endpoint)
        from repro.serve.client import ServiceClient

        client = ServiceClient(endpoint.url)
        traces = []
        for job in traced:
            try:
                traces.append(client.trace(job.job_id))
            except Exception as exc:  # noqa: BLE001 - evicted traces are skipped
                print(f"# no trace for {job.job_id}: {exc}")
        polls = rec.counts.get("result_polls", 0.0)
    finally:
        installed.remove()
        endpoint.close()
        del os.environ[tracing.WORKER_DIR_ENV]
    checks = mean_checks(checks + [verify(traced, outcome)])
    rec.write(work_dir("spans") / f"{tag}.jsonl")
    parts = tracing.read_worker_aggregates(worker_dir)
    parent = rec.aggregate()
    merged = tracing.merge_aggregates(parts + [parent])
    metrics = tracing.layer_metrics(merged)
    metrics["core.ratio_error"] = (checks["ratio_error"], "fraction")
    stats = _delta(after, before)
    # The search counters come from the service's own ledger: the tune
    # wrapper only sees tunes that ran in this process.
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    metrics["cache.hits"] = (float(hits), "count")
    metrics["cache.misses"] = (float(misses), "count")
    metrics["cache.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0,
                                 "fraction")
    metrics.update(tracing.service_metrics(
        traces, len(traced), polls, stats, _delta(gw_after, gw_before)))
    per_job_plain = plain_wall / max(1, len(plain))
    per_job_traced = traced_wall / max(1, len(traced))
    metrics.update(tracing.overhead_metrics(per_job_plain, per_job_traced))
    print(f"# {args.workload} traced: {describe(traced)}, {len(traces)} traces, "
          f"{len(parts)} worker aggregates")
    return metrics
