"""Shared pieces of the benchmark: timing statistics, output checks, memory
and the one-line JSON result.

Nothing here imports the program under test, so ``run.py`` can report a
missing source tree before any of it is needed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path

#: Checkout-relative directory for everything a run writes (outputs,
#: spans, count records, temp files).  Listed in the root ``.gitignore``.
WORK_DIR = ".perfbench_work"

#: How many times the repeatable part of set-up runs; ``setup_s`` reports
#: the median (plus the one-off import time, which cannot be repeated
#: inside one process).
SETUP_REPEATS = 3

MB = 1e6


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def work_dir(*parts: str) -> Path:
    path = Path(WORK_DIR, *parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux.  Children (pool workers, the fork
    server) only count once they have been waited for, so callers read
    this after tear-down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / MB


def bound_violations(original, reconstructed, error_bound: float) -> int:
    """Finite values with |x - x_hat| > e, x_hat taken in its output dtype.

    The reconstruction is compared as returned (already in the output
    dtype); the difference itself is taken in float64 so the check adds
    no rounding of its own.
    """
    import numpy as np

    x = np.asarray(original, dtype=np.float64)
    xh = np.asarray(reconstructed).astype(np.float64)
    if x.shape != xh.shape:
        return int(x.size)
    finite = np.isfinite(x)
    return int(np.count_nonzero(np.abs(x[finite] - xh[finite]) > error_bound))


def psnr_db(original, reconstructed) -> float:
    """PSNR in dB over the value range; capped at 200 dB for exact output."""
    import numpy as np

    x = np.asarray(original, dtype=np.float64)
    xh = np.asarray(reconstructed, dtype=np.float64)
    rng = float(x.max() - x.min()) if x.size else 0.0
    mse = float(np.mean((x - xh) ** 2)) if x.size else 0.0
    if mse == 0.0 or rng == 0.0:
        return 200.0
    return min(200.0, 20.0 * math.log10(rng) - 10.0 * math.log10(mse))


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources: exact-count
    records are only comparable between runs of the same code."""
    h = hashlib.blake2b(digest_size=8)
    here = Path(__file__).resolve().parent
    for path in sorted(Path("src/repro").rglob("*.py")) + sorted(here.glob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Outcome:
    """Accumulates what one run attempted, what failed and what was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        """Record one failed operation and print why (the run goes on)."""
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(type(exc), exc, exc.__traceback__,
                                      file=sys.stderr)

    def wrong(self, what: str) -> None:
        """Record an incorrect output or a broken invariant."""
        self.problems.append(what)
        print(f"INCORRECT: {what}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.problems


def check_counts(outcome: Outcome, workload: str, seed: int, scale: str,
                 counts: dict) -> None:
    """Compare this run's exact counts with an earlier run at the same seed.

    The first run at a (workload, seed, scale, source) records its counts
    under the work directory; every later run must reproduce them.
    """
    key = f"{workload}-{scale}-{seed}-{source_digest()}"
    path = work_dir("counts") / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            outcome.wrong(f"exact counts differ from an earlier run at seed "
                          f"{seed}: {earlier} != {counts}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True))


def emit(outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> None:
    """Print every metric by name, then the one-line JSON result last."""
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def use_private_tmp() -> None:
    """Point temp files (pool spill files, the fork server's socket) into
    the work directory, as long as the path stays short enough for a unix
    socket address."""
    import tempfile

    tmp = work_dir("tmp").resolve()
    if len(str(tmp)) <= 60:
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
