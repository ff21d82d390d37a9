"""End-to-end benchmark of the routing simulator, with a traced breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix_closed --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

One run generates its inputs from ``--seed``, sets the service up at least
three times (``setup_s`` is the median) and serves every part of the
workload on a cold service, serving on until ``--seconds`` of serving have
been measured. Repeated serves must give bit-identical simulated results,
and answers must match the reference oracle. With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric
of ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric,
taken from one extra serve under ``cProfile`` plus spans around each setup
phase, and the spans are written to ``.bench_out/``. The run exits with 1
when an output is wrong and with 2 when the program or the benchmark
definition is missing. See ``perfbench/README.md``.

Everything runs in this one process and thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from layers import self_test

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="serving to measure (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only check that every repro module maps to "
                             "exactly one layer")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SRC.name}/ next to {HERE.name}/")
    try:
        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = float(definition["run_seconds"])
    problems = self_test(SRC)
    for problem in problems:
        print(f"perfbench: layer map: {problem}", file=sys.stderr)
    if problems:
        return 2
    if args.self_test:
        print("layer map: every repro module maps to exactly one layer")
        return 0

    sys.path.insert(0, str(SRC))
    from measure import WORKLOADS, run

    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {sorted(WORKLOADS)}")
    started = perf_counter()
    code = run(args, definition, ROOT / ".bench_out")
    print(f"perfbench: run took {perf_counter() - started:.1f} s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
