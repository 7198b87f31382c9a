"""Analysis helpers: ratio/quality sweeps, feasibility probing, and lint.

The paper's evaluation revolves around three curve families — ratio vs
bound (Figs. 3/4), rate distortion (Figs. 1/9) and achievable-ratio ranges
(the feasibility question behind Figs. 6/7).  This package provides them
as first-class library calls so downstream users don't rebuild sweep loops
around the compressors.

It also hosts the ``repro check`` static-analysis suite
(:mod:`repro.analysis.engine` plus the checker modules ``locks``,
``clocks``, ``wire``, ``banned``) — dependency-free ``ast``-based lint
for the service tier's concurrency, clock, and report-schema
conventions.  See ``docs/STATIC_ANALYSIS.md``.
"""

# Lazy re-exports (PEP 562): the sweep/export helpers import the cache
# and optimizer stacks, whose guarded classes in turn may import the
# runtime sanitizer subpackage from *this* package when REPRO_SANITIZE
# is set.  Resolving attributes on demand keeps that import acyclic and
# keeps `import repro.analysis.sanitizer` cheap.
_EXPORTS = {
    "CheckReport": "repro.analysis.engine",
    "Finding": "repro.analysis.engine",
    "checker": "repro.analysis.engine",
    "rule_catalogue": "repro.analysis.engine",
    "run_checks": "repro.analysis.engine",
    "write_csv": "repro.analysis.export",
    "write_rate_distortion_csv": "repro.analysis.export",
    "write_ratio_curve_csv": "repro.analysis.export",
    "RateDistortionPoint": "repro.analysis.sweeps",
    "default_bound_sweep": "repro.analysis.sweeps",
    "feasible_ratio_range": "repro.analysis.sweeps",
    "rate_distortion_curve": "repro.analysis.sweeps",
    "ratio_curve": "repro.analysis.sweeps",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "RateDistortionPoint",
    "default_bound_sweep",
    "feasible_ratio_range",
    "rate_distortion_curve",
    "ratio_curve",
    "write_csv",
    "write_rate_distortion_csv",
    "write_ratio_curve_csv",
    "CheckReport",
    "Finding",
    "checker",
    "rule_catalogue",
    "run_checks",
]
