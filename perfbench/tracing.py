"""The traced run: spans around calls into each layer, from outside.

:func:`install` wraps public functions of the program (codec stages,
compressor entry points, the probe closure, the optimizer, the tune, the
cache) so every call records a span ``[name, start, end, parent, unit]``
into a :class:`Recorder`.  Parents come from a per-thread stack, so a
span's self time is its duration minus the time its children cover.
Spans stay in memory until the run ends.

Pool workers of the service workload are separate processes: they import
``run.py`` as ``__mp_main__`` through the fork server, install the same
wrappers there (see :func:`install_in_worker`) and write their aggregate
to the work directory when they exit.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from common import median, percentile

#: Environment variable naming the directory pool workers write to.
WORKER_DIR_ENV = "PERFBENCH_WORKER_TRACE_DIR"

COMPRESSORS = ("sz", "sz-interp", "zfp", "mgard")

# Spans whose self time is a per-layer metric, by metric stem.
SELF_TIME_SPANS = {
    "codecs.huffman_encode": "huffman_encode",
    "codecs.huffman_decode": "huffman_decode",
    "codecs.code_lengths": "code_lengths",
    "codecs.pack_bits": "pack_bits",
    "codecs.zlib": "zlib",
}


class Recorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        #: Off while a pool worker runs a cache-filling set-up job.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            # Spans of one root (a tune, a step's compress, ...) share its
            # index as their unit id.
            unit = idx if parent is None else self.spans[parent][4]
            # name, start, end, parent, unit, child coverage
            self.spans.append([name, time.perf_counter(), None, parent, unit, 0.0])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if idx < 0:
            return
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span = self.spans[idx]
        span[2] = end
        if span[3] is not None:
            with self._lock:
                self.spans[span[3]][5] += end - span[1]

    def count(self, name: str, amount: float = 1.0) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counts[name] += amount

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.values[name].append(value)

    # -- aggregation -------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: calls, total self seconds and all durations."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, _unit, covered in self.spans:
            if end is None:
                continue
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "durations": []})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - covered
            agg["durations"].append(end - start)
        return {"spans": out, "counts": dict(self.counts),
                "values": {k: list(v) for k, v in self.values.items()}}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (run end, outside timing)."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit, covered in self.spans:
                fh.write(json.dumps([name, start, end, parent, unit,
                                     covered]) + "\n")


def merge_aggregates(parts: list[dict]) -> dict:
    merged = {"spans": {}, "counts": defaultdict(float),
              "values": defaultdict(list)}
    for part in parts:
        for name, agg in part["spans"].items():
            into = merged["spans"].setdefault(
                name, {"calls": 0, "self_s": 0.0, "durations": []})
            into["calls"] += agg["calls"]
            into["self_s"] += agg["self_s"]
            into["durations"].extend(agg["durations"])
        for name, value in part["counts"].items():
            merged["counts"][name] += value
        for name, values in part["values"].items():
            merged["values"][name].extend(values)
    return merged


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _span_wrapper(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)
    return wrapper


def _codec_wrapper(rec: Recorder, fn, stage: str):
    """compress/decompress span named after the compressor instance."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        idx = rec.begin(f"{stage}:{self.name}")
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.end(idx)
    return wrapper


def _probe_wrapper(rec: Recorder, fn):
    """RatioFunction.__call__: a probe span, classified after the call."""
    from repro.cache.keys import normalize_bound

    @functools.wraps(fn)
    def wrapper(self, error_bound):
        if normalize_bound(error_bound) in self._cache:
            rec.count("memo_hits")
            return fn(self, error_bound)
        misses = self.cache_misses
        idx = rec.begin("probe")
        try:
            return fn(self, error_bound)
        finally:
            rec.end(idx)
            rec.count("probes" if self.cache_misses > misses else "cache_probe_hits")
    return wrapper


def _train_wrapper(rec: Recorder, fn):
    """The tune: one span plus the result's search counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        prediction = kwargs.get("prediction")
        idx = rec.begin("tune")
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        predicted = prediction is not None and prediction > 0
        if result.used_prediction:
            regions = 0
        else:
            regions = len(result.workers) - (1 if predicted else 0)
        rec.count("tunes")
        rec.count("tune_evaluations", result.evaluations)
        rec.count("tune_regions", regions)
        rec.count("tune_reused", 1 if result.used_prediction else 0)
        rec.count("tune_cache_hits", result.cache_hits)
        rec.count("tune_cache_misses", result.cache_misses)
        return result
    return wrapper


def _export_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self):
        entries = fn(self)
        rec.observe("entries_per_dispatch", len(entries))
        return entries
    return wrapper


def _request_wrapper(rec: Recorder, fn, endpoint: str):
    """Count the result polls the benchmark's own clients send."""
    @functools.wraps(fn)
    def wrapper(self, method, path, *args, **kwargs):
        if self.url == endpoint and method == "GET" and path.startswith("/result/"):
            rec.count("result_polls")
        return fn(self, method, path, *args, **kwargs)
    return wrapper


class Installed:
    """Handle for undoing :func:`install`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(rec: Recorder, endpoint: str | None = None) -> Installed:
    """Wrap the layer entry points; returns a handle that removes them."""
    import repro.cache.evalcache as evalcache
    import repro.codecs.bitstream as bitstream
    import repro.codecs.huffman as huffman
    import repro.codecs.zlib_codec as zlib_codec
    import repro.core.fraz as fraz
    import repro.core.worker as worker
    import repro.mgard.compressor as mgard
    import repro.pressio.closures as closures
    import repro.sz.compressor as sz
    import repro.sz.interpolation as szi
    import repro.sz.lorenzo as lorenzo
    import repro.zfp.compressor as zfp

    inst = Installed()
    span = functools.partial(_span_wrapper, rec)

    codec = huffman.HuffmanCodec
    inst.patch(codec, "encode", span(codec.encode, "huffman_encode"))
    inst.patch(codec, "decode", span(codec.decode, "huffman_decode"))
    inst.patch(huffman, "code_lengths", span(huffman.code_lengths, "code_lengths"))
    packed = span(bitstream.pack_bits, "pack_bits")
    for module in (bitstream, huffman, zfp):
        inst.patch(module, "pack_bits", packed)
    zc = zlib_codec.ZlibCodec
    inst.patch(zc, "compress", span(zc.compress, "zlib"))
    inst.patch(zc, "decompress", span(zc.decompress, "zlib"))

    plan = lorenzo.WavefrontPlan
    inst.patch(plan, "predict_plane", span(plan.predict_plane, "sz_predict"))
    for fn_name in ("lorenzo_predict_full", "fit_full_blocks", "predict_full_blocks"):
        inst.patch(sz, fn_name, span(getattr(sz, fn_name), "sz_predict"))
    inst.patch(szi, "_interp_pred", span(szi._interp_pred, "sz_predict"))
    for module in (sz, szi):
        inst.patch(module, "quantize", span(module.quantize, "sz_quantize"))
        inst.patch(module, "dequantize", span(module.dequantize, "sz_quantize"))

    for cls in (sz.SZCompressor, szi.SZInterpolationCompressor, zfp._ZFPBase,
                mgard.MGARDCompressor):
        inst.patch(cls, "compress", _codec_wrapper(rec, cls.compress, "compress"))
        inst.patch(cls, "decompress",
                   _codec_wrapper(rec, cls.decompress, "decompress"))

    rf = closures.RatioFunction
    inst.patch(rf, "__call__", _probe_wrapper(rec, rf.__call__))
    inst.patch(worker, "find_global_min",
               span(worker.find_global_min, "optimize"))
    inst.patch(fraz, "train", _train_wrapper(rec, fraz.train))

    ec = evalcache.EvalCache
    inst.patch(ec, "data_fingerprint", span(ec.data_fingerprint, "fingerprint"))
    inst.patch(ec, "export_entries", _export_wrapper(rec, ec.export_entries))

    if endpoint is not None:
        from repro.serve.client import ServiceClient

        inst.patch(ServiceClient, "_request",
                   _request_wrapper(rec, ServiceClient._request, endpoint))
    return inst


# ---------------------------------------------------------------------------
# Pool workers
# ---------------------------------------------------------------------------

_WORKER_RECORDER: Recorder | None = None


def install_in_worker() -> None:
    """Run where ``run.py`` is imported as ``__mp_main__``: in every pool
    worker, which re-imports the main module when it starts.

    The first span a worker records registers a multiprocessing finalizer
    that writes the worker's aggregate when the pool shuts it down.
    """
    global _WORKER_RECORDER
    if _WORKER_RECORDER is not None or not os.environ.get(WORKER_DIR_ENV):
        return
    rec = _WORKER_RECORDER = Recorder()
    install(rec)
    import repro.serve.scheduler as scheduler
    from inputs import FILL_TARGET

    execute = scheduler._process_execute

    @functools.wraps(execute)
    def job(spec, snapshot):
        # Set-up jobs that fill the cache are not part of the measurement.
        rec.enabled = spec.request.target_ratio != FILL_TARGET
        try:
            return execute(spec, snapshot)
        finally:
            rec.enabled = True

    scheduler._process_execute = job
    original_begin = rec.begin

    def begin(name: str) -> int:
        # Register the dump on first use: a starting process clears the
        # finalizers registered while its main module was imported.
        if rec.begin is begin:
            from multiprocessing import util

            util.Finalize(None, _dump_worker, exitpriority=10)
            rec.begin = original_begin
        return original_begin(name)

    rec.begin = begin


def _dump_worker() -> None:
    rec = _WORKER_RECORDER
    out = Path(os.environ[WORKER_DIR_ENV]) / f"worker-{os.getpid()}.json"
    out.write_text(json.dumps(rec.aggregate()))


def read_worker_aggregates(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("worker-*.json"))]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(agg: dict, passes: int = 1) -> dict[str, tuple[float, str]]:
    """Codec, compressor, probe, tune, optimizer and cache metrics.

    Totals are per pass of the workload's fixed work (``passes`` divides
    them), so they compare across runs of different lengths.
    """
    spans, counts = agg["spans"], agg["counts"]
    per = 1.0 / max(1, passes)
    out: dict[str, tuple[float, str]] = {}

    def span_of(name: str) -> dict:
        return spans.get(name, {"calls": 0, "self_s": 0.0, "durations": []})

    for stem, name in SELF_TIME_SPANS.items():
        s = span_of(name)
        out[f"{stem}.self_s"] = (s["self_s"] * per, "s")
        out[f"{stem}.calls"] = (s["calls"] * per, "count")
    for comp in COMPRESSORS:
        for stage in ("compress", "decompress"):
            durations = [d * 1e3 for d in span_of(f"{stage}:{comp}")["durations"]]
            out[f"pressio.{stage}_ms.{comp}.p50"] = (percentile(durations, 50), "ms")
            out[f"pressio.{stage}_ms.{comp}.p99"] = (percentile(durations, 99), "ms")
    out["sz.predict.self_s"] = (span_of("sz_predict")["self_s"] * per, "s")
    out["sz.quantize.self_s"] = (span_of("sz_quantize")["self_s"] * per, "s")
    out["pressio.probes"] = (counts.get("probes", 0.0) * per, "count")
    out["pressio.memo_hits"] = (counts.get("memo_hits", 0.0) * per, "count")

    tunes = counts.get("tunes", 0.0)
    out["core.probes_per_tune"] = (
        counts.get("tune_evaluations", 0.0) / tunes if tunes else 0.0, "count")
    out["core.regions_per_tune"] = (
        counts.get("tune_regions", 0.0) / tunes if tunes else 0.0, "count")
    out["core.reuse_fraction"] = (
        counts.get("tune_reused", 0.0) / tunes if tunes else 0.0, "fraction")
    out["core.retrains"] = ((tunes - counts.get("tune_reused", 0.0)) * per, "count")
    out["optimize.self_s"] = (span_of("optimize")["self_s"] * per, "s")

    hits = counts.get("tune_cache_hits", 0.0)
    misses = counts.get("tune_cache_misses", 0.0)
    out["cache.hits"] = (hits * per, "count")
    out["cache.misses"] = (misses * per, "count")
    out["cache.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0,
                             "fraction")
    out["cache.fingerprint_s"] = (sum(span_of("fingerprint")["durations"]) * per, "s")
    dispatch = agg["values"].get("entries_per_dispatch", [])
    out["cache.entries_per_dispatch"] = (
        sum(dispatch) / len(dispatch) if dispatch else 0.0, "count")
    return out


def _spans_by_trace(trace: dict) -> tuple[dict, dict]:
    by_id = {s["span_id"]: s for s in trace.get("spans", [])}
    children: dict[str, list] = defaultdict(list)
    for s in by_id.values():
        if s.get("parent_id") in by_id:
            children[s["parent_id"]].append(s)
    return by_id, children


def service_metrics(traces: list[dict], jobs: int, polls: float,
                    stats_delta: dict, gateway_delta: dict | None) -> dict:
    """Serve, parallel and gateway metrics from ``/trace`` and ``/stats``."""
    queue_wait, run, overhead, hop, route = [], [], [], [], []
    for trace in traces:
        by_id, children = _spans_by_trace(trace)
        node_job = None
        for s in by_id.values():
            dur = s.get("duration") or 0.0
            name = s["name"]
            if name == "queue_wait":
                queue_wait.append(dur)
            elif name == "run":
                run.append(dur)
            elif name == "executor_dispatch":
                inner = sum(c.get("duration") or 0.0 for c in children[s["span_id"]])
                overhead.append(max(0.0, dur - inner))
            elif name == "route":
                route.append(dur)
            elif name == "job":
                node_job = dur
        for s in by_id.values():
            if s["name"] == "gateway_job" and node_job is not None:
                hop.append(max(0.0, (s.get("duration") or 0.0) - node_job))
    out = {
        "serve.queue_wait.p50_s": (percentile(queue_wait, 50), "s"),
        "serve.queue_wait.p99_s": (percentile(queue_wait, 99), "s"),
        "serve.run.p50_s": (percentile(run, 50), "s"),
        "serve.run.p99_s": (percentile(run, 99), "s"),
        "serve.dispatch_overhead.p50_s": (median(overhead), "s"),
        "serve.polls_per_job": (polls / jobs if jobs else 0.0, "count"),
        "serve.coalesced_fraction": (
            stats_delta.get("coalesced", 0) / stats_delta["submitted"]
            if stats_delta.get("submitted") else 0.0, "fraction"),
        "parallel.pool_tasks": (float(stats_delta.get("pool_tasks", 0)), "count"),
        "parallel.rebuilds": (float(stats_delta.get("rebuilds", 0)), "count"),
        "gateway.hop.p50_s": (percentile(hop, 50), "s"),
        "gateway.hop.p99_s": (percentile(hop, 99), "s"),
        "gateway.route.p50_s": (percentile(route, 50), "s"),
        "gateway.reroutes": (float((gateway_delta or {}).get("reroutes", 0)), "count"),
        "gateway.requeued": (float((gateway_delta or {}).get("requeued", 0)), "count"),
    }
    return out


def overhead_metrics(untraced_s: float, traced_s: float) -> dict:
    """Tracing overhead: traced minus untraced wall time of the same work."""
    return {
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_fraction": (
            (traced_s - untraced_s) / untraced_s if untraced_s else 0.0, "fraction"),
    }
