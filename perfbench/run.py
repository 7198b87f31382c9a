"""FRaZ benchmark entry point.

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer
metrics of a traced run, plus the tracing overhead.  Workloads, metrics
and bounds are declared in ``BENCHMARK.json``; see ``perfbench/README.md``.

The module is import-safe: the fork server of the service workload's
process pools imports it as ``__mp_main__``, where it only installs the
traced run's wrappers (when asked to through the environment).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

WORKLOADS = ("tune-cold", "insitu-series", "gateway-closed")


def _import_program() -> float:
    """Put ``src/`` on the path and import the layers; returns seconds."""
    src = os.path.abspath("src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"error: no program sources at {src}/repro; "
                         "run from the root of a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = time.perf_counter()
    import repro.core.fraz  # noqa: F401
    import repro.pressio.registry as registry

    registry.available_compressors()  # imports every compressor package
    return time.perf_counter() - t0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    import common

    common.use_private_tmp()
    import_s = _import_program()
    outcome = common.Outcome()
    if args.workload in ("tune-cold", "insitu-series"):
        import local

        metrics = local.run(args, outcome, import_s)
    else:
        import service

        metrics = service.run(args, outcome, import_s)
    common.emit(outcome, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # Fork server of a process pool: install the traced run's wrappers
    # (a no-op unless the traced run asked for them), nothing else.
    if os.environ.get("PERFBENCH_WORKER_TRACE_DIR"):
        import tracing

        tracing.install_in_worker()
