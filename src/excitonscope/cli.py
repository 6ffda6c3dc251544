"""Command-line entry point.

The scenario is a positional argument; the options may come before or
after it.  Without ``--config`` the documented defaults run on the
bundled aggregate; with it, the file is validated first and every
offending field is reported.  The scenario given on the command line
overrides the ``scenario`` field of the config, which a file may leave
out, so one config file can drive several scenarios.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import FORMATS, ConfigError, load_config, reference_config
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
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = (load_config(args.config, scenario=args.scenario) if args.config
               else reference_config(args.scenario))
        cfg = replace(cfg, scenario=args.scenario)
        manifest = run_scenario(cfg, out_dir=args.out, threads=args.threads, fmt=args.format)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for note in manifest.warnings:
        print(f"warning: {note}", file=sys.stderr)
    out_dir = manifest.resolved["out_dir"]
    print(f"{args.scenario}: wrote {len(manifest.artifacts)} artifacts and manifest.json to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
