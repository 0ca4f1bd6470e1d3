"""Benchmark of the dfrcbeam sweeps: se_vs_snr, pareto and doa.

    python3 perfbench/run.py --workload se_vs_snr --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. Prints
one comment line with the machine record, then, as the last line, a JSON
object with "correct", "attempted", "failed" and "metrics" (the end-to-end
metrics with --trace 0, the per-layer spans and counts with --trace 1).
Exits 1 when an output check fails and 2 when the package cannot be found.
"""

import os
import sys
import time

BLAS_THREADS = 1    # one caller, no worker processes: a single BLAS thread


def _process_age() -> float:
    """Seconds since this process started (falls back to since this line)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


_T0 = time.perf_counter()


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("se_vs_snr", "pareto", "doa"))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; inputs are derived from it")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length: sets the number of whole sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced sweep, per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "dfrcbeam", "__init__.py")):
        print(f"dfrcbeam sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, here]

    import json
    from pathlib import Path

    import harness
    import dfrcbeam
    if not dfrcbeam.__file__.startswith(src):
        print(f"dfrcbeam imported from {dfrcbeam.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result, errors = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        Path(here) / ".work", _process_age, BLAS_THREADS)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
