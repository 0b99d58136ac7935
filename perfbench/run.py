#!/usr/bin/env python3
"""psverify benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each run builds its inputs from --seed, measures for --seconds, checks every
answer, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
lines before it hold the run record (versions, thread caps, gates, answer
quality and, when tracing, every layer boundary). `--workload all` runs each
workload in a fresh process, one after another.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAP = "1"  # one calling thread; native pools may not add more


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "psverify" / "__init__.py").is_file():
        print(f"error: no psverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import harness  # after the thread caps, so numpy starts with them
    return harness.run(ROOT, args)


if __name__ == "__main__":
    sys.exit(main())
