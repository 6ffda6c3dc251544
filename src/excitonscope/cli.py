"""Command-line entry point.

The scenario is a positional argument; the options may come before or
after it.  The scenario, ``--out``, ``--threads`` and ``--format`` are
config fields (``out_dir``, ``threads``, ``format``): each replaces the
field of the ``--config`` file, which may leave the scenario out, so one
file can drive several scenarios.  Without ``--config`` the documented
defaults run on the bundled aggregate.  The fields are validated once,
flags and file together, and every offending field is reported.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import FORMATS, ConfigError, load_config
from .runner import SCENARIO_RUNS, run_scenario


def build_parser() -> argparse.ArgumentParser:
    width = max(map(len, SCENARIO_RUNS))
    parser = argparse.ArgumentParser(
        prog="excitonscope",
        description="entangled-pair excitation and coincidence detection\n"
        "in a dissipative exciton aggregate",
        epilog="scenarios:\n" + "".join(
            f"  {name:<{width}}  {run.__doc__}\n" for name, run in SCENARIO_RUNS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("scenario", choices=SCENARIO_RUNS, metavar="scenario",
                        help="one of the scenarios listed below")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration (default: bundled reference)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: out_dir from the config)")
    parser.add_argument("--threads", metavar="N", type=int, default=None,
                        help="worker threads (default: threads from the config, else 1)")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="artifact format (default: config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {"scenario": args.scenario, "out_dir": args.out, "threads": args.threads,
             "format": args.format}
    try:
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        manifest = run_scenario(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for note in manifest.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"{cfg.scenario}: wrote {len(manifest.artifacts)} artifacts and manifest.json "
          f"to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
