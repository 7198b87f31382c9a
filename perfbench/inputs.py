"""Seed-derived inputs for every workload.

The program only ever sees the arrays built here; the same ``--seed``
always yields the same arrays.  ``scale="tiny"`` shrinks everything for
the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TuneCase:
    """One cold ``FRaZ.tune`` call: a field, a compressor and a target."""

    label: str
    data: np.ndarray
    compressor: str
    target_ratio: float


# (dataset, field, compressor, target, shape, distinct inputs per pass).
# The mix covers 1D/2D/3D, smooth and spiky fields, all four compressors,
# feasible and infeasible targets.  FRaZ's cost per input swings with where
# the target bound sits, so each template runs on several seed-derived
# inputs, and every target sits well inside or well outside the reachable
# range: a case that is feasible at one seed and not at the next costs 10x
# more there (ZFP's staircase ratio curve skips a +-10% band at ratio 20 on
# a quarter of the NYX inputs, but never at 4).  MGARD, whose tunes take
# 11-15 probes at every seed, has the most inputs, so the median tune is
# one of them rather than whichever cheap case happens to fall there.  The
# targets of the two spiky Hurricane templates sit where the probe count
# hardly moves with the seed: QCLOUDf.log10 at 8 takes 8 probes on 9 of 10
# seeds (at 10 it took 2 or 8 about equally often, and the median tune
# jumped between the 30 ms and the 130 ms cases), TCf at 30 takes 34-37
# (at 40, 34 or 51).  The two infeasible cases: 1D SZ, where per-block
# float32 regression coefficients cap the ratio near 3.3, and 2D ZFP on
# CESM, which reaches 12 at about one seed in ten, after 178 probes
# instead of 192, so the cost hardly changes.
TUNE_TEMPLATES = (
    ("Hurricane", "QCLOUDf.log10", "sz", 8.0, (24, 24, 12), 3),
    ("Hurricane", "TCf", "sz", 30.0, (24, 24, 12), 2),
    ("CESM", "CLDHGH", "sz", 20.0, (48, 96), 3),
    ("NYX", "temperature", "zfp", 4.0, (24, 24, 24), 3),
    ("NYX", "temperature", "mgard", 20.0, (24, 24, 24), 5),
    ("Exaalt", "x", "sz", 10.0, (512,), 1),
    ("HACC", "x", "sz-interp", 40.0, (4096,), 2),
    ("CESM", "CLDHGH", "zfp", 12.0, (48, 96), 1),
)
#: Tiny scale (smoke test): one input per template, shapes shrunk by this.
TINY_DIVISOR = 2


def _make_dataset(name: str, shape: tuple[int, ...], seed: int, steps: int = 1):
    from repro.datasets.cesm import make_cesm
    from repro.datasets.exaalt import make_exaalt
    from repro.datasets.hacc import make_hacc
    from repro.datasets.hurricane import make_hurricane
    from repro.datasets.nyx import make_nyx

    if name == "Hurricane":
        return make_hurricane(shape, steps, seed)
    if name == "CESM":
        return make_cesm(shape, steps, seed)
    if name == "NYX":
        return make_nyx(shape, steps, seed)
    if name == "Exaalt":
        return make_exaalt(shape[0], steps, seed=seed)
    if name == "HACC":
        return make_hacc(shape[0], steps, seed=seed)
    raise ValueError(f"unknown dataset {name!r}")


def tune_cases(seed: int, scale: str) -> list[TuneCase]:
    """The fixed list of cold tunes of one tune-cold pass."""
    cases, built = [], {}
    for ds_name, field, comp, target, shape, variants in TUNE_TEMPLATES:
        if scale == "tiny":
            shape = tuple(max(4, n // TINY_DIVISOR) for n in shape)
            variants = 1
        for variant in range(variants):
            key = (ds_name, shape, seed * 1000 + variant)
            if key not in built:
                built[key] = _make_dataset(*key)
            cases.append(TuneCase(f"{ds_name}/{field}/{comp}@{target:g}#{variant}",
                                  built[key].fields[field].steps[0], comp, target))
    return cases


#: In-situ series: the six smooth Hurricane fields.  The seven cloud fields
#: are left out because their cost swings with the seed: a plume can fade
#: until a step is nearly constant, no bound then gets down to ratio 10 and
#: every such step spends the full 192-probe budget; the spiky
#: QCLOUDf.log10 retrains with 35 to 93 probes per series.  Either makes a
#: run cost up to three times more at one seed than at the next.  Spiky and
#: infeasible searches are measured by tune-cold.
INSITU_FIELDS = ("Pf", "QVAPORf", "TCf", "Uf", "Vf", "Wf")
INSITU_SHAPE = {"full": (24, 24, 12), "tiny": (12, 12, 8)}
INSITU_STEPS = {"full": 14, "tiny": 4}
INSITU_TARGET = 10.0


def insitu_series(seed: int, scale: str) -> dict[str, list[np.ndarray]]:
    """Field name -> time-steps, for the in-situ archive workload."""
    ds = _make_dataset("Hurricane", INSITU_SHAPE[scale], seed,
                       steps=INSITU_STEPS[scale])
    return {name: ds.fields[name].steps for name in INSITU_FIELDS}


# ---------------------------------------------------------------------------
# Service traffic
# ---------------------------------------------------------------------------

SERVICE_SHAPE = {"full": (48, 48), "tiny": (16, 16)}
#: Each client cycles through this request mix: 30% tunes, 60% fixed-bound
#: SZ compress, 10% ZFP fixed-ratio compress.  A fixed cycle (rather than
#: random draws) keeps the mix of every run the same; the seed picks the
#: arrays.  Fresh tunes take about twice as long as the other jobs (~150
#: against ~70 ms).  With 42% or 35% fresh tunes the median job fell in the
#: gap between the two groups and moved by a third from run to run; with
#: 21% it sits in the bulk of the short jobs.
SERVICE_CYCLE = ("tune", "sz-compress", "sz-compress", "zfp-ratio", "sz-compress",
                 "tune", "sz-compress", "sz-compress", "tune", "sz-compress")
#: Positions, within every ten tunes of a client, of the tunes that resend
#: an array tuned earlier (30%).
REPEAT_SLOTS = (3, 6, 9)
#: Repeats pick among this many most recent distinct tune arrays, so the
#: entries they need are still in a full LRU cache.
REPEAT_WINDOW = 8


def _smooth(shape, rng) -> np.ndarray:
    from repro.datasets.base import fourier_field

    return fourier_field(tuple(shape), 1, rng)[0]


class RequestStream:
    """Deterministic request sequence of one closed-loop client.

    ``next_request(i)`` returns ``(kind, body, array, repeat)``; the body is
    a service job spec (minus the output path, which the caller adds).
    """

    def __init__(self, seed: int, client: int, scale: str) -> None:
        self.seed = seed
        self.client = client
        self.shape = SERVICE_SHAPE[scale]
        self._recent: list[np.ndarray] = []
        self._tunes = 0

    def next_request(self, i: int) -> tuple[str, dict, np.ndarray, bool]:
        rng = np.random.default_rng([self.seed, self.client, i])
        # Clients start at different points of the cycle.
        kind = SERVICE_CYCLE[(i + 5 * self.client) % len(SERVICE_CYCLE)]
        repeat = False
        if kind == "tune":
            self._tunes += 1
            if self._recent and self._tunes % 10 in REPEAT_SLOTS:
                data = self._recent[int(rng.integers(len(self._recent)))]
                repeat = True
            else:
                data = _smooth(self.shape, rng)
                self._recent.append(data)
                del self._recent[:-REPEAT_WINDOW]
            body = {"kind": "tune", "compressor": "sz", "target_ratio": 8.0,
                    "tolerance": 0.2}
        elif kind == "sz-compress":
            data = _smooth(self.shape, rng)
            span = float(data.max() - data.min())
            body = {"kind": "compress", "compressor": "sz",
                    "error_bound": 1e-3 * span}
        else:
            data = rng.normal(size=self.shape).astype(np.float32)
            body = {"kind": "compress", "compressor": "zfp",
                    "target_ratio": 6.0, "tolerance": 0.25}
        return kind, body, data, repeat


#: Target of the cache-filling set-up tunes: unreachable, so every region
#: spends its whole probe budget and stores FILL_PROBES distinct bounds
#: (12 regions x 16 probes).  MGARD on 4x4 arrays is the cheapest probe.
FILL_TARGET = 1000.0
FILL_PROBES = 192


def fill_arrays(seed: int, count: int, node: int = 0) -> list[np.ndarray]:
    """Small distinct arrays for cache-filling tunes (one per job)."""
    return [np.random.default_rng([seed, 7919, node, k]).normal(size=(4, 4))
            .astype(np.float32) for k in range(count)]
