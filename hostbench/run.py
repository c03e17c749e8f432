"""Run one workload of the host benchmark and print its metrics.

    python3 hostbench/run.py --workload cold-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the same tree (there is nothing to build), inputs are generated from
``--seed`` under ``.hostbench/work/`` and removed afterwards, and the
stamped result (and, with ``--trace 1``, the span file) is kept under
``.hostbench/results/`` and ``.hostbench/spans/``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``. See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-sparse", "cold-repeats", "design-panel", "warm-routed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="input-size multiplier; below 1 only for quick smoke runs",
    )
    parser.add_argument(
        "--inject-wrong",
        action="store_true",
        help="corrupt the first measured output, to show the checks count it",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench.runner import run

    return run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
