"""``python -m bench run | compare`` — see README.md.

``run --workload W`` measures W in this process and prints, as the last
line of standard output, the one JSON object the benchmark contract
asks for.  Without ``--workload`` every workload runs in a child
process of its own, one after the other, and the merged record goes to
``bench/out/result.json``.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

# One thread: numpy/BLAS read these when first imported, which happens
# below (children inherit them through the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", help="one workload, in this process")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="keep taking untraced repetitions for this long "
        "(default: run_seconds of BENCHMARK.json)",
    )
    run.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only; "
        "omitted: both",
    )
    run.add_argument(
        "--smoke", action="store_true", help="small sizes, one repetition"
    )
    compare = commands.add_parser("compare", help="judge B against A")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import compare_files

        return compare_files(args.base, args.change)

    # The benchmark measures this checkout's source, never an installed
    # copy: without it there is nothing to run.
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"bench: no program source at {_SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, _SRC)
    from .report import run_all, run_one

    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace, args.smoke)
    return run_one(
        args.workload, args.seed, args.seconds, args.trace, args.smoke, _STARTED
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
