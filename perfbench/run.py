"""excitonscope benchmark: one workload per invocation.

    python3 perfbench/run.py --workload scan|scenarios|detection
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload draws its inputs from the
seed, runs whole rounds of the same operations until ``--seconds`` are
spent, checks the program's outputs and prints its figures by name and
unit, then one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones untraced, per-layer ones with ``--trace 1``).
BLAS pools are pinned to one thread; worker threads never exceed nproc.
Times are reported at a reference host speed, scaled by a calibration
probe timed beside them (``harness.CAL_REF_S``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import common  # first: pins BLAS threads and finds the sources
import harness
import spans
import workloads

END_TO_END = ("setup_s", "peak_rss_mb", "round_s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = harness.Run(args.workload, args.seed % 2**32, args.seconds, bool(args.trace))
    try:
        figures = workloads.WORKLOADS[args.workload](run)
    finally:
        run.stop_tracing()
        run.finish()

    round_s = run.round_s()
    figures = {"setup_s": (run.setup_s(), "s"), "peak_rss_mb": (common.peak_rss_mb(), "MB"),
               "round_s": (round_s, "s"), "setup_wall_s": (run.setup_wall_s(), "s"),
               "best_round_wall_s": (run.best_round_wall_s(), "s"),
               "calibration_s": (statistics.median(run.calibrations), "s"), **figures}
    if run.tracer is None:
        metrics = {name: figures[name] for name in END_TO_END}
    else:
        metrics = spans.layer_metrics(run.tracer.spans, run.rounds_done, run.manifests,
                                      run.artifact_bytes)
        metrics["trace.round_s"] = (round_s, "s")
        for name, unit in workloads.FIGURES.items():
            metrics[name] = (figures[name][0] if name in figures else 0.0, unit)

    for name, (value, unit) in figures.items():
        print(f"{args.workload:16s} {name:28s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} rounds {run.rounds_done}, attempted {run.attempted}, "
          f"failed {run.failed}, {len(run.problems)} failed checks")
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
