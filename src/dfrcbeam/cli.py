"""Command line interface for the experiment harness.

Subcommands: pareto, se-vs-snr, beampattern, doa, design.
Exit codes: 0 success, 2 config error, 3 solver failure, i.e. a SolverError,
an unsupported method/scalarization pair or a certified-infeasible epsilon
raised outside a sweep cell. A design's stop status never sets the exit code.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .experiments import ConfigError, ExperimentConfig
from .scalarize import InfeasibleEpsilonError
from .solvers import SolverError, UnsupportedCombinationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_RUNNERS = {
    "pareto": experiments.run_pareto,
    "se-vs-snr": experiments.run_se_vs_snr,
    "beampattern": experiments.run_beampattern,
    "doa": experiments.run_doa,
    "design": experiments.run_design,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfrcbeam",
        description="Hybrid beamforming experiments for dual-function "
                    "radar-communication transmitters")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pareto", "radar/comm mutual-information trade-off sweep"),
        ("se-vs-snr", "spectral efficiency of the three designs vs SNR"),
        ("beampattern", "space-frequency spectra of the three designs"),
        ("doa", "virtual-array DOA resolution and accuracy study"),
        ("design", "run one design and export its matrices and traces"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed list with one seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for sweep cells")
        p.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config = config.with_overrides(seeds=str(args.seed))
        out_dir = args.out or config.get_str("output.dir")
        runner = _RUNNERS[args.command]
        runner(config, out_dir, jobs=max(1, args.jobs))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, UnsupportedCombinationError,
            InfeasibleEpsilonError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote artifacts to {out_dir}")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
