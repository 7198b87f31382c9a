"""In-process workloads: ``tune-cold`` and ``insitu-series``.

Both run a fixed *pass* of work made from the seed, at least
``TIMED_PASSES`` times and then again while ``--seconds`` have not passed.
Every pass must reproduce the first pass's exact counts.  A unit's time is
the minimum over the first ``TIMED_PASSES`` passes: the passes are seconds
apart, so a unit slowed by a burst of load from other processes on the
machine is measured again outside it.
"""

from __future__ import annotations

import time

from common import (
    MB,
    SETUP_REPEATS,
    Outcome,
    bound_violations,
    check_counts,
    median,
    peak_rss_mb,
    percentile,
    psnr_db,
    work_dir,
)

TOLERANCE = 0.1
TIMED_PASSES = 5


def _timed_setup(build) -> tuple[object, list[float]]:
    """Run ``build`` SETUP_REPEATS times; keep the last result."""
    times, value = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - t0)
    return value, times


def _passes(units, run_unit, seconds: float, outcome: Outcome) -> tuple[list, list, int]:
    """Run every unit once per pass; returns per-unit samples (one per pass),
    first-pass signatures and the number of passes.

    ``run_unit(unit)`` returns ``(sample, signature)``.
    """
    samples: list[list] = [[] for _ in units]
    signatures: list = [None] * len(units)
    start = time.perf_counter()
    passes = 0
    while passes < TIMED_PASSES or time.perf_counter() - start < seconds:
        passes += 1
        for i, unit in enumerate(units):
            outcome.attempted += 1
            try:
                sample, signature = run_unit(unit)
            except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
                outcome.fail(f"unit {unit!r} raised {type(exc).__name__}: {exc}", exc)
                continue
            samples[i].append(sample)
            if passes == 1:
                signatures[i] = signature
            elif signature != signatures[i]:
                outcome.wrong(f"unit {unit!r} repeated with different counts: "
                              f"{signature} != {signatures[i]}")
    return samples, signatures, passes


def _best(samples: list[float]) -> float:
    return min(samples[:TIMED_PASSES])


def _rates(mb: float, times: list[float]) -> dict:
    total = sum(times)
    return {
        "unit_times": times,
        "seconds": total,
        "throughput_mb_s": mb / total if total else 0.0,
        "jobs_per_s": len(times) / total if total else 0.0,
    }


# ---------------------------------------------------------------------------
# tune-cold
# ---------------------------------------------------------------------------

def tune_cold(seed: int, seconds: float, scale: str, outcome: Outcome) -> dict:
    """Cold ``FRaZ.tune`` calls, fresh cache per case, no prediction.

    Afterwards, outside the timed phase, every tuned bound is verified: the
    case is compressed at the bound and decompressed, the bound checked and
    the PSNR of the tunes that reached the band (fidelity at the fixed
    ratio) taken.
    """
    from inputs import tune_cases
    from repro.core.fraz import FRaZ
    from repro.pressio.registry import make_compressor

    cases, setup_times = _timed_setup(lambda: tune_cases(seed, scale))
    results: dict[int, object] = {}

    def run_unit(i):
        case = cases[i]
        fraz = FRaZ(compressor=case.compressor, target_ratio=case.target_ratio,
                    tolerance=TOLERANCE)
        t0 = time.perf_counter()
        res = fraz.tune(case.data)
        elapsed = time.perf_counter() - t0
        results.setdefault(i, res)
        return elapsed, (res.evaluations, res.error_bound, res.ratio, res.feasible)

    samples, signatures, passes = _passes(range(len(cases)), run_unit, seconds,
                                          outcome)

    times, tuned, psnrs, mb = [], [], [], 0.0
    for i, case in enumerate(cases):
        if i not in results:
            continue
        res = results[i]
        tuned.append(res)
        times.append(_best(samples[i]))
        mb += case.data.nbytes / MB
        outcome.attempted += 1
        codec = make_compressor(case.compressor).with_error_bound(res.error_bound)
        try:
            recon = codec.decompress(codec.compress(case.data))
        except Exception as exc:  # noqa: BLE001
            outcome.fail(f"{case.label}: verification raised", exc)
            continue
        bad = bound_violations(case.data, recon, res.error_bound)
        if bad:
            outcome.fail(f"{case.label}: {bad} values exceed e={res.error_bound}")
            outcome.wrong(f"{case.label}: error bound violated")
        if res.feasible:
            psnrs.append(psnr_db(case.data, recon))

    feasible = sum(1 for r in tuned if r.feasible)
    return {
        "setup_times": setup_times,
        "passes": passes,
        "counts": {"probes": [s[0] for s in signatures if s is not None],
                   "in_band": feasible, "tunes": len(cases)},
        "in_band_fraction": feasible / len(tuned) if tuned else 0.0,
        "ratio_error": (sum(abs(r.ratio / r.target_ratio - 1) for r in tuned)
                        / len(tuned) if tuned else 0.0),
        "psnr_db": sum(psnrs) / len(psnrs) if psnrs else 0.0,
        "shares": f"{feasible}/{len(tuned)} tunes feasible",
        **_rates(mb, times),
    }


# ---------------------------------------------------------------------------
# insitu-series
# ---------------------------------------------------------------------------

def insitu_series(seed: int, seconds: float, scale: str, outcome: Outcome) -> dict:
    """Algorithm 3 through the public API: per field, per step, tune with
    the previous step's bound as prediction, compress at the tuned bound,
    decompress and verify."""
    from inputs import INSITU_TARGET, insitu_series as make_series
    from repro.core.fraz import FRaZ
    from repro.pressio.registry import make_compressor

    series, setup_times = _timed_setup(lambda: make_series(seed, scale))
    names = sorted(series)
    first: dict[str, list[dict]] = {}

    def run_unit(name):
        fraz = FRaZ(compressor="sz", target_ratio=INSITU_TARGET,
                    tolerance=TOLERANCE)
        codec = make_compressor("sz")
        prediction = None
        records, times, signature = [], [], []
        for data in series[name]:
            t0 = time.perf_counter()
            res = fraz.tune(data, prediction=prediction)
            payload = codec.with_error_bound(res.error_bound).compress(data)
            recon = fraz.decompress(payload)
            times.append(time.perf_counter() - t0)
            if res.feasible:
                prediction = res.error_bound
            records.append({
                "tune": res, "mb": data.nbytes / MB,
                "violations": bound_violations(data, recon, res.error_bound),
                "psnr": psnr_db(data, recon),
            })
            signature.append((res.evaluations, res.used_prediction,
                              res.error_bound, payload.nbytes))
        first.setdefault(name, records)
        return times, tuple(signature)

    samples, signatures, passes = _passes(names, run_unit, seconds, outcome)

    times, psnrs, tunes, mb = [], [], [], 0.0
    for i, name in enumerate(names):
        if name not in first:
            continue
        # samples[i]: per pass, the list of the series' step times.
        for k, rec in enumerate(first[name]):
            outcome.attempted += 1
            if rec["violations"]:
                outcome.fail(f"{name} step {k}: {rec['violations']} values "
                             f"exceed e={rec['tune'].error_bound}")
                outcome.wrong(f"{name} step {k}: error bound violated")
            times.append(_best([p[k] for p in samples[i]]))
            mb += rec["mb"]
            psnrs.append(rec["psnr"])
            tunes.append(rec["tune"])
    reused = sum(1 for t in tunes if t.used_prediction)
    in_band = sum(1 for t in tunes if t.feasible)
    return {
        "setup_times": setup_times,
        "passes": passes,
        "counts": {"probes": [sum(s[0] for s in sig) for sig in signatures
                              if sig is not None],
                   "retrains": len(tunes) - reused, "in_band": in_band,
                   "steps": len(tunes)},
        "in_band_fraction": in_band / len(tunes) if tunes else 0.0,
        "ratio_error": (sum(abs(t.ratio / t.target_ratio - 1) for t in tunes)
                        / len(tunes) if tunes else 0.0),
        "psnr_db": sum(psnrs) / len(psnrs) if psnrs else 0.0,
        "shares": f"{reused}/{len(tunes)} steps answered by the prediction",
        **_rates(mb, times),
    }


WORKLOAD_FUNCTIONS = {"tune-cold": tune_cold, "insitu-series": insitu_series}


def run(args, outcome: Outcome, import_s: float) -> dict[str, tuple[float, str]]:
    """One benchmark run of an in-process workload; returns its metrics."""
    workload = WORKLOAD_FUNCTIONS[args.workload]
    if args.trace:
        return _traced(args, workload, outcome)
    result = workload(args.seed, args.seconds, args.scale, outcome)
    check_counts(outcome, args.workload, args.seed, args.scale, result["counts"])
    times = result["unit_times"]
    print(f"# {args.workload}: {len(times)} latency samples, "
          f"{result['passes']} passes, {result['shares']}, "
          f"counts {result['counts']}")
    return {
        "setup_s": (import_s + median(result["setup_times"]), "s"),
        "throughput_mb_s": (result["throughput_mb_s"], "MB/s"),
        "jobs_per_s": (result["jobs_per_s"], "1/s"),
        "latency_p50_s": (percentile(times, 50), "s"),
        "latency_p95_s": (percentile(times, 95), "s"),
        "in_band_fraction": (result["in_band_fraction"], "fraction"),
        "psnr_db": (result["psnr_db"], "dB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _traced(args, workload, outcome: Outcome) -> dict[str, tuple[float, str]]:
    """The workload untraced, then again with every layer wrapped; the
    difference of their best-of-passes times is the tracing overhead."""
    import tracing

    plain = workload(args.seed, 0.0, args.scale, outcome)
    rec = tracing.Recorder()
    installed = tracing.install(rec)
    try:
        traced = workload(args.seed, 0.0, args.scale, outcome)
    finally:
        installed.remove()
    if traced["counts"] != plain["counts"]:
        outcome.wrong(f"traced counts {traced['counts']} differ from "
                      f"untraced {plain['counts']}")
    check_counts(outcome, args.workload, args.seed, args.scale, plain["counts"])
    rec.write(work_dir("spans") / f"{args.workload}-{args.seed}.jsonl")
    metrics = tracing.layer_metrics(rec.aggregate(), passes=traced["passes"])
    metrics["core.ratio_error"] = (traced["ratio_error"], "fraction")
    metrics.update(tracing.service_metrics([], 0, 0, {}, None))
    metrics.update(tracing.overhead_metrics(plain["seconds"], traced["seconds"]))
    return metrics
