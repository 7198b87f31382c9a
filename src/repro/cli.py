"""Command-line interface: ``python -m repro <command>``.

Every command that does compression work is a thin shell over the
unified request API (:mod:`repro.api`): flags become a
:class:`~repro.api.request.CompressionRequest`, :func:`repro.api.plan`
routes it, :func:`repro.api.execute` runs it, and ``--json`` prints the
typed report's wire dict — the same schema the HTTP service returns.

Commands
--------
``compress``    fixed-ratio (FRaZ-tuned) or fixed-bound compression of a
                ``.npy`` array into a ``.frz`` file
``stream``      out-of-core chunked compression of a larger-than-memory
                ``.npy``/raw-binary file into a ``.frzs`` container
``decompress``  reconstruct a ``.frz``/``.frzs`` file back to ``.npy``
``tune``        run the FRaZ search and report the recommended bound
``run``         execute a ``CompressionRequest`` JSON spec (locally, or
                against a service with ``--url``)
``serve``       run the resident compression service (HTTP JSON API);
                ``--register`` joins a gateway fleet as one shard
``gateway``     front N ``serve`` nodes with one endpoint: consistent-hash
                routing, heartbeats, draining, failover
``submit``      send one job to a running ``serve`` instance
``trace``       fetch a job's span tree from a service/gateway and render
                it as a waterfall (see docs/TRACING.md)
``load``        open-loop load harness with SLO gating (``BENCH_*`` snapshots)
``check``       run the static-analysis suite (lock discipline, clock
                convention, report schema; see docs/STATIC_ANALYSIS.md)
``info``        show a ``.frz``/``.frzs`` file's metadata
``datasets``    print the Table III analog of the bundled synthetic datasets
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from repro import __version__
from repro.api.execute import execute as api_execute
from repro.api.plan import plan as api_plan
from repro.api.request import CompressionRequest, Resources
from repro.datasets import dataset_summaries
from repro.io.files import read_info
from repro.pressio.registry import available_compressors

__all__ = ["main", "build_parser", "parse_memory_size", "parse_chunk_shape"]


def parse_memory_size(text: str) -> int:
    """Parse ``"64MB"``/``"2GiB"``/``"1048576"`` into bytes."""
    units = {"": 1, "b": 1,
             "kb": 10**3, "mb": 10**6, "gb": 10**9,
             "kib": 2**10, "mib": 2**20, "gib": 2**30,
             "k": 2**10, "m": 2**20, "g": 2**30}
    s = text.strip().lower()
    digits = s.rstrip("bgikm")
    try:
        value = float(digits)
        scale = units[s[len(digits):]]
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(
            f"invalid memory size {text!r} (try 64MB, 2GiB, 1048576)"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"memory size must be positive: {text!r}")
    return int(value * scale)


def parse_priority(text: str) -> int:
    """Parse ``high``/``normal``/``low`` or a raw integer priority."""
    from repro.serve.jobs import PRIORITY_NAMES

    key = text.strip().lower()
    if key in PRIORITY_NAMES:
        return PRIORITY_NAMES[key]
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid priority {text!r} (try high, normal, low, or an integer)"
        ) from None


def parse_chunk_shape(text: str) -> tuple[int, ...]:
    """Parse ``"64,64,32"`` into a shape tuple."""
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid chunk shape {text!r} (try 64,64,32)"
        ) from None
    if not shape or any(c < 1 for c in shape):
        raise argparse.ArgumentTypeError(f"chunk shape must be positive: {text!r}")
    return shape


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FRaZ fixed-ratio error-bounded lossy compression",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compressor_arg(p):
        p.add_argument(
            "--compressor", "-c", default="sz", choices=available_compressors(),
            help="compressor backend (default: sz)",
        )

    def add_cache_args(p):
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="persist the evaluation cache under DIR; repeated runs on "
                 "the same data reuse each other's compressor probes",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the shared evaluation cache entirely",
        )

    p = sub.add_parser("compress", help="compress a .npy array to .frz")
    p.add_argument("input", help="input .npy file")
    p.add_argument("output", help="output .frz file")
    add_compressor_arg(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", "-r", type=float, help="target compression ratio")
    group.add_argument("--error-bound", "-e", type=float, help="fixed error bound")
    p.add_argument("--tolerance", "-t", type=float, default=0.1,
                   help="ratio tolerance eps (default 0.1)")
    p.add_argument("--max-error-bound", "-U", type=float, default=None,
                   help="cap on the bound the search may recommend")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable result schema instead of "
                        "the human summary (same schema the service returns)")
    add_cache_args(p)

    p = sub.add_parser(
        "stream",
        help="out-of-core chunked compression to a .frzs container",
        description="Compress a larger-than-memory .npy or raw binary file "
                    "chunk by chunk, training the error bound on a prefix of "
                    "chunks and reusing it with drift detection.",
    )
    p.add_argument("input", help="input .npy file (or raw binary with --shape/--dtype)")
    p.add_argument("output", help="output .frzs container")
    add_compressor_arg(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", "-r", type=float, help="target compression ratio")
    group.add_argument("--error-bound", "-e", type=float, help="fixed error bound")
    p.add_argument("--tolerance", "-t", type=float, default=0.1,
                   help="ratio tolerance eps (default 0.1)")
    p.add_argument("--max-error-bound", "-U", type=float, default=None,
                   help="cap on the bound the search may recommend")
    p.add_argument("--chunk-shape", type=parse_chunk_shape, default=None,
                   metavar="N,N,...",
                   help="explicit chunk shape, e.g. 64,64,32 (default: sized "
                        "from --max-memory, or one chunk)")
    p.add_argument("--max-memory", type=parse_memory_size, default=None,
                   metavar="SIZE",
                   help="pipeline working-set cap, e.g. 64MB; chunks are "
                        "sized so compression stays under it")
    p.add_argument("--workers", "-j", type=int, default=1,
                   help="chunks compressed concurrently (default 1)")
    p.add_argument("--executor", choices=("serial", "thread", "process"),
                   default=None,
                   help="executor backend (default: thread when --workers > 1)")
    p.add_argument("--train-chunks", type=int, default=4,
                   help="chunks in the tuning prefix (default 4)")
    p.add_argument("--drift-margin", type=float, default=0.0,
                   help="pre-emptive retrain margin in (0, 1); 0 disables")
    p.add_argument("--shape", type=parse_chunk_shape, default=None, metavar="N,N,...",
                   help="array shape for raw (non-.npy) binary input")
    p.add_argument("--dtype", default=None,
                   help="array dtype for raw binary input, e.g. float32")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable result schema instead of "
                        "the human summary (same schema the service returns)")
    add_cache_args(p)

    p = sub.add_parser("decompress", help="decompress a .frz/.frzs file to .npy")
    p.add_argument("input", help="input .frz or .frzs file")
    p.add_argument("output", help="output .npy file")

    p = sub.add_parser("tune", help="search the error bound for a target ratio")
    p.add_argument("input", help="input .npy file")
    add_compressor_arg(p)
    p.add_argument("--ratio", "-r", type=float, required=True)
    p.add_argument("--tolerance", "-t", type=float, default=0.1)
    p.add_argument("--max-error-bound", "-U", type=float, default=None)
    p.add_argument("--json", action="store_true",
                   help="print the full machine-readable result schema "
                        "(shared with the service) instead of the compact report")
    add_cache_args(p)

    p = sub.add_parser(
        "run",
        help="execute a CompressionRequest JSON spec",
        description="Read a repro.api CompressionRequest from a JSON file "
                    "(or stdin with '-'), plan it, and execute it — locally "
                    "by default, or submitted to a running service with "
                    "--url.  Prints the typed report as JSON either way, so "
                    "one request file produces the same result through every "
                    "entry point.  See docs/API.md.",
    )
    p.add_argument("request", help="path to a request JSON file, or '-' for stdin")
    p.add_argument("--url", default=None,
                   help="submit to a running `repro serve` endpoint instead "
                        "of executing locally")
    p.add_argument("--priority", type=parse_priority, default=0,
                   help="service priority (with --url): high, normal, low, "
                        "or an integer")
    p.add_argument("--max-retries", type=int, default=1,
                   help="service retry budget (with --url; default 1)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for a service result (default 300)")

    p = sub.add_parser(
        "serve",
        help="run the resident compression service",
        description="Start an HTTP JSON service that accepts tune/compress "
                    "jobs, coalesces identical concurrent requests, shares "
                    "one evaluation cache across all jobs, and applies "
                    "backpressure when the queue fills.  See docs/SERVICE.md.",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8077,
                   help="TCP port (default 8077; 0 picks a free port)")
    p.add_argument("--workers", "-j", type=int, default=None,
                   help="concurrent jobs (default: one per core)")
    p.add_argument("--executor", choices=("auto", "thread", "process"),
                   default="auto",
                   help="job execution backend: process pools scale CPU-bound "
                        "jobs across cores, threads avoid pickling overhead "
                        "for tiny jobs (default auto: process on multi-core "
                        "hosts)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="pending-job bound before 429 backpressure (default 64)")
    p.add_argument("--intra-executor", choices=("serial", "thread", "process"),
                   default="serial",
                   help="executor for the fan-out inside one job (default serial)")
    p.add_argument("--intra-workers", type=int, default=1,
                   help="pool size for --intra-executor (default 1)")
    p.add_argument("--stream-threshold", type=parse_memory_size,
                   default=32 * 2**20, metavar="SIZE",
                   help="file inputs above SIZE are compressed out of core "
                        "via the stream pipeline (default 32MiB)")
    p.add_argument("--spill-threshold", type=parse_memory_size,
                   default=8 * 2**20, metavar="SIZE",
                   help="inline arrays above SIZE are spilled to a temp file "
                        "before process-pool dispatch instead of being "
                        "pickled (default 8MiB)")
    p.add_argument("--max-memory", type=parse_memory_size, default=None,
                   metavar="SIZE", help="per-job working-set cap for streamed jobs")
    p.add_argument("--verbose", action="store_true", help="log every HTTP request")
    p.add_argument("--metrics", action=argparse.BooleanOptionalAction, default=True,
                   help="expose GET /metrics (Prometheus text) and the "
                        "/stats metrics section (default on; --no-metrics "
                        "disables the observability layer)")
    p.add_argument("--register", default=None, metavar="GATEWAY_URL",
                   help="join a `repro gateway` fleet: register this node at "
                        "GATEWAY_URL and heartbeat for liveness "
                        "(see docs/GATEWAY.md)")
    p.add_argument("--node-id", default=None,
                   help="stable fleet identity (with --register; default "
                        "node-<host>-<port>)")
    p.add_argument("--advertise-url", default=None,
                   help="URL the gateway should reach this node at (with "
                        "--register; default the bound host:port)")
    p.add_argument("--heartbeat-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="heartbeat cadence override (with --register; default: "
                        "whatever the gateway's registration response says)")
    p.add_argument("--trace-sample", type=float, default=1.0, metavar="RATE",
                   help="fraction of jobs traced end to end (head-based "
                        "sampling in [0, 1]; default 1.0 — failed jobs are "
                        "always recorded regardless; see docs/TRACING.md)")
    p.add_argument("--log-json", action="store_true",
                   help="emit structured JSON log lines (one object per "
                        "event, stamped with trace_id/job_id/node_id) "
                        "to stderr")
    add_cache_args(p)

    p = sub.add_parser(
        "gateway",
        help="run the sharded-fleet gateway",
        description="Front N `repro serve` nodes with one endpoint: jobs "
                    "route to shards by consistent-hashing the coalesce key, "
                    "nodes heartbeat for liveness, operators drain nodes for "
                    "maintenance (POST /admin/drain/<node>), and jobs owed by "
                    "a dead node fail over to surviving shards.  Start nodes "
                    "with `repro serve --register <gateway-url>`.  See "
                    "docs/GATEWAY.md.",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8076,
                   help="TCP port (default 8076; 0 picks a free port)")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="cadence nodes are told to heartbeat at (default 1.0)")
    p.add_argument("--dead-after", type=float, default=3.0, metavar="SECONDS",
                   help="heartbeat silence before a node is declared dead and "
                        "its un-acked jobs fail over (default 3.0)")
    p.add_argument("--check-interval", type=float, default=0.25, metavar="SECONDS",
                   help="death-detection poll period (default 0.25)")
    p.add_argument("--replicas", type=int, default=64,
                   help="virtual points per node on the hash ring (default 64)")
    p.add_argument("--verbose", action="store_true", help="log every HTTP request")
    p.add_argument("--metrics", action=argparse.BooleanOptionalAction, default=True,
                   help="expose GET /metrics (repro_gateway_* series; "
                        "default on)")
    p.add_argument("--trace-sample", type=float, default=1.0, metavar="RATE",
                   help="fraction of jobs traced end to end (the gateway's "
                        "head decision propagates to the owning shard via "
                        "the traceparent header; default 1.0)")
    p.add_argument("--log-json", action="store_true",
                   help="emit structured JSON log lines (one object per "
                        "event, stamped with trace_id/job_id) to stderr")

    p = sub.add_parser(
        "submit",
        help="submit one job to a running service",
        description="Send a tune or compress job to a `repro serve` instance "
                    "and (by default) wait for and print its result.",
    )
    p.add_argument("kind", choices=("tune", "compress", "decompress", "stream"),
                   help="job type")
    p.add_argument("input", help="input .npy file")
    p.add_argument("output", nargs="?", default=None,
                   help="output path (required for compress jobs)")
    add_compressor_arg(p)
    p.add_argument("--url", default="http://127.0.0.1:8077",
                   help="service endpoint (default http://127.0.0.1:8077)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ratio", "-r", type=float, default=None,
                       help="target compression ratio")
    group.add_argument("--error-bound", "-e", type=float, default=None,
                       help="fixed error bound (compress only)")
    p.add_argument("--tolerance", "-t", type=float, default=0.1)
    p.add_argument("--max-error-bound", "-U", type=float, default=None)
    p.add_argument("--priority", type=parse_priority, default=0,
                   help="high, normal, low, or an integer (lower runs sooner)")
    p.add_argument("--max-retries", type=int, default=1,
                   help="extra attempts the service may make on failure (default 1)")
    p.add_argument("--inline", action="store_true",
                   help="ship the array inline instead of referencing the "
                        "path (use when the server cannot see your files)")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job ticket and exit without waiting")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the result (default 300)")

    p = sub.add_parser(
        "trace",
        help="fetch and render a job's span tree",
        description="Fetch the distributed trace of a job from a running "
                    "`repro serve` node or `repro gateway` (GET /trace/<id>) "
                    "and render it as an indented waterfall with self-times "
                    "— down to one span per FRaZ search iteration.  Accepts "
                    "a job id (node `j...`, gateway `g...`) or a raw 32-hex "
                    "trace id.  See docs/TRACING.md.",
    )
    p.add_argument("job_id", help="job id or 32-hex trace id")
    p.add_argument("--url", default="http://127.0.0.1:8077",
                   help="service or gateway endpoint "
                        "(default http://127.0.0.1:8077)")
    p.add_argument("--json", action="store_true",
                   help="print the raw span dicts instead of the waterfall")
    p.add_argument("--width", type=int, default=32,
                   help="waterfall bar width in characters (default 32)")

    p = sub.add_parser(
        "load",
        help="open-loop load harness with SLO gating",
        description="Replay a recorded request mix against a service (or an "
                    "embedded one) at a target RPS, report latency quantiles "
                    "and jobs/sec, check them against benchmarks/slo.json, "
                    "and write a diffable BENCH_<profile>.json snapshot.  "
                    "Exits non-zero on any SLO violation.  See "
                    "docs/OBSERVABILITY.md.",
    )
    from repro.obs.load import add_arguments as add_load_arguments

    add_load_arguments(p)

    p = sub.add_parser(
        "check",
        help="static analysis: locks, clocks, report schema, banned patterns",
        description="Dependency-free AST lint over src/repro: guarded-by "
                    "lock discipline and lock-order cycles (LOCK*), the "
                    "monotonic-clock convention (MONO*), report-schema "
                    "drift between report dataclasses and their to_dict "
                    "(WIRE003), and banned patterns (BAN*).  Exits 1 on any new finding. "
                    "See docs/STATIC_ANALYSIS.md.",
    )
    from repro.analysis.engine import build_check_parser

    build_check_parser(p)

    p = sub.add_parser("info", help="show .frz metadata")
    p.add_argument("input", help="input .frz file")

    sub.add_parser("datasets", help="list the bundled synthetic datasets")
    return parser


def _cache_resources(args, **extra) -> Resources:
    """The resource block shared by every cache-aware subcommand."""
    return Resources(cache=not args.no_cache, cache_dir=args.cache_dir, **extra)


def _cmd_compress(args) -> int:
    request = CompressionRequest(
        kind="compress",
        compressor=args.compressor,
        target_ratio=args.ratio,
        error_bound=args.error_bound,
        tolerance=args.tolerance,
        max_error_bound=args.max_error_bound,
        input=args.input,
        output=args.output,
        stream=False,  # `repro compress` is the in-memory command; see `repro stream`
        resources=_cache_resources(args),
    )
    report = api_execute(api_plan(request))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif report.tuning is None:
        print(f"compressed at fixed bound {report.error_bound:.4e}: "
              f"ratio {report.ratio:.2f}:1 -> {args.output}")
    else:
        status = "in band" if report.tuning.within_tolerance else "closest achievable"
        print(f"tuned bound {report.error_bound:.4e} "
              f"({report.tuning.evaluations} probes): "
              f"ratio {report.ratio:.2f}:1 ({status}) -> {args.output}")
    return 0 if report.feasible else 2


def _cmd_stream(args) -> int:
    stream_options: dict = {
        "train_chunks": args.train_chunks,
        "drift_margin": args.drift_margin,
    }
    if args.chunk_shape is not None:
        stream_options["chunk_shape"] = args.chunk_shape
    if args.shape is not None:
        stream_options["shape"] = args.shape
    if args.dtype is not None:
        stream_options["dtype"] = args.dtype
    request = CompressionRequest(
        kind="stream",
        compressor=args.compressor,
        target_ratio=args.ratio,
        error_bound=args.error_bound,
        tolerance=args.tolerance,
        max_error_bound=args.max_error_bound,
        input=args.input,
        output=args.output,
        stream_options=stream_options,
        resources=_cache_resources(
            args,
            workers=args.workers,
            executor=args.executor,
            max_memory=args.max_memory,
        ),
    )
    report = api_execute(api_plan(request))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    chunk_desc = "x".join(str(c) for c in report.chunk_shape)
    print(f"streamed {report.n_chunks} chunks of {chunk_desc} "
          f"({report.original_nbytes / 1e6:.1f} MB) at bound "
          f"{report.error_bound:.4e}: ratio {report.ratio:.2f}:1, "
          f"{report.mb_per_second:.2f} MB/s, {report.retrains} retrains "
          f"-> {report.output}")
    if args.ratio is not None and report.in_band_chunks < report.n_chunks:
        print(f"note: {report.n_chunks - report.in_band_chunks}/{report.n_chunks} "
              f"chunks landed outside the ratio band", file=sys.stderr)
    return 0


def _cmd_decompress(args) -> int:
    request = CompressionRequest(kind="decompress", input=args.input,
                                 output=args.output)
    report = api_execute(api_plan(request))
    if report.from_stream:
        print(f"decompressed {report.compressor} streamed container "
              f"({report.n_chunks} chunks, ratio {report.ratio:.2f}:1) "
              f"-> {report.output}")
    else:
        print(f"decompressed {report.compressor} payload "
              f"(ratio {report.ratio:.2f}:1) -> {args.output}")
    return 0


def _cmd_tune(args) -> int:
    request = CompressionRequest(
        kind="tune",
        compressor=args.compressor,
        target_ratio=args.ratio,
        tolerance=args.tolerance,
        max_error_bound=args.max_error_bound,
        input=args.input,
        resources=_cache_resources(args),
    )
    report = api_execute(api_plan(request))
    if args.json:
        payload = report.to_dict()
    else:
        payload = {
            "compressor": args.compressor,
            "target_ratio": args.ratio,
            "error_bound": report.error_bound,
            "ratio": report.ratio,
            "feasible": report.feasible,
            "evaluations": report.evaluations,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "wall_seconds": round(report.wall_seconds, 4),
        }
    print(json.dumps(payload, indent=2))
    return 0 if report.feasible else 2


def _report_exit_code(result: dict) -> int:
    """0 unless the (possibly nested) tuning verdict says infeasible."""
    feasible = result.get("feasible")
    if feasible is None and isinstance(result.get("tuning"), dict):
        feasible = result["tuning"].get("feasible")
    return 0 if feasible in (None, True) else 2


def _cmd_run(args) -> int:
    from pathlib import Path

    try:
        text = sys.stdin.read() if args.request == "-" else Path(args.request).read_text()
    except OSError as exc:
        print(f"error: cannot read request file: {exc}", file=sys.stderr)
        return 2
    try:
        request = CompressionRequest.from_json(text)
    except (ValueError, TypeError) as exc:
        print(f"error: invalid request: {exc}", file=sys.stderr)
        return 2
    if args.url is None:
        report = api_execute(api_plan(request))
        print(json.dumps(report.to_dict(), indent=2))
        return _report_exit_code(report.to_dict())

    from repro.serve import JobFailedError, ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        ticket = client.submit(request, priority=args.priority,
                               max_retries=args.max_retries)
        result = client.result(ticket["job_id"], timeout=args.timeout)
    except JobFailedError as exc:
        print(f"error: job failed: {exc}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    return _report_exit_code(result)


def _cmd_serve(args) -> int:
    from repro.obs.tracelog import TraceLogger
    from repro.serve import ServiceServer

    logger = (TraceLogger("node", json_lines=True) if args.log_json else None)
    server = ServiceServer(
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        workers=args.workers,
        executor=args.executor,
        queue_size=args.queue_size,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        intra_executor=args.intra_executor,
        intra_workers=args.intra_workers,
        stream_threshold=args.stream_threshold,
        spill_threshold=args.spill_threshold,
        max_memory=args.max_memory,
        metrics=args.metrics,
        trace_sample=args.trace_sample,
        logger=logger,
        register=args.register,
        node_id=args.node_id,
        advertise_url=args.advertise_url,
        heartbeat_interval=args.heartbeat_interval,
    )
    shard = (f", registering with {args.register} as {server.agent.node_id}"
             if server.agent is not None else "")
    print(f"repro serve listening on {server.url} "
          f"({server.scheduler.workers} {server.scheduler.executor_mode} workers, "
          f"queue {args.queue_size}{shard})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_gateway(args) -> int:
    from repro.gateway import GatewayServer
    from repro.obs.tracelog import TraceLogger

    logger = (TraceLogger("gateway", json_lines=True) if args.log_json else None)
    server = GatewayServer(
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        heartbeat_interval=args.heartbeat_interval,
        dead_after=args.dead_after,
        check_interval=args.check_interval,
        replicas=args.replicas,
        metrics=args.metrics,
        trace_sample=args.trace_sample,
        logger=logger,
    )
    print(f"repro gateway listening on {server.url} "
          f"(heartbeat {args.heartbeat_interval:g}s, dead after "
          f"{args.dead_after:g}s); register nodes with "
          f"`repro serve --register {server.url}`",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    import os

    from repro.api.request import encode_array
    from repro.serve import JobFailedError, ServiceClient, ServiceError

    if args.kind == "tune" and args.ratio is None:
        print("error: tune jobs require --ratio", file=sys.stderr)
        return 2
    if args.kind != "tune" and args.output is None:
        print(f"error: {args.kind} jobs require an output path", file=sys.stderr)
        return 2
    fields: dict = {
        "kind": args.kind,
        "compressor": args.compressor,
        "target_ratio": args.ratio,
        "error_bound": args.error_bound,
        "tolerance": args.tolerance,
        "max_error_bound": args.max_error_bound,
    }
    if args.inline and args.kind != "decompress":
        fields["data_b64"] = encode_array(np.load(args.input))
    else:
        fields["input"] = os.path.abspath(args.input)
    if args.output is not None:
        fields["output"] = os.path.abspath(args.output)
    try:
        request = CompressionRequest(**fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    client = ServiceClient(args.url)
    try:
        ticket = client.submit(request, priority=args.priority,
                               max_retries=args.max_retries)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.no_wait:
        print(json.dumps(ticket, indent=2))
        return 0
    try:
        result = client.result(ticket["job_id"], timeout=args.timeout)
    except JobFailedError as exc:
        print(f"error: job {ticket['job_id']} failed: {exc}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    return _report_exit_code(result)


def _cmd_trace(args) -> int:
    from repro.obs.trace import render_waterfall
    from repro.serve import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        payload = client.trace(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(render_waterfall(payload.get("spans") or [], width=args.width))
    if not payload.get("complete"):
        print("note: job still in flight — the tree above is partial",
              file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    from repro.stream import is_streamed_file

    if is_streamed_file(args.input):
        from repro.stream import StreamedField

        with StreamedField(args.input) as field:
            meta = dict(field.meta)
            # The per-chunk index can run to thousands of records; summarise.
            chunks = meta.pop("chunks", [])
            meta["ratio"] = round(field.ratio, 4)
            meta["compressed_nbytes"] = field.compressed_nbytes
            meta["retrained_chunks"] = sum(1 for c in chunks if c.get("retrained"))
            # sort_keys: scripts diff/parse this output, keep it stable.
            print(json.dumps(meta, indent=2, sort_keys=True))
        return 0
    print(json.dumps(read_info(args.input), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compress":
        return _cmd_compress(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "decompress":
        return _cmd_decompress(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "load":
        from repro.obs.load import run_from_args

        return run_from_args(args)
    if args.command == "check":
        from repro.analysis.engine import run_from_args

        return run_from_args(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "datasets":
        print(dataset_summaries("small"))
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
