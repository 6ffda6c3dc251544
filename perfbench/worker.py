"""One benchmark step in a fresh process.

    python3 perfbench/worker.py --role setup|prepare|map [--model bundled|generic]
        [--n N] [--seed S] [--pops FILE]

Every role first imports the package and builds the model (the bundled
one, or a random ``--n``-site one drawn from ``--seed``), and reports that
time as ``setup_s``.  ``setup`` then times the host-speed calibration
probe in the same process (``cal_s``); ``prepare`` runs one closed-form
preparation with the default source and saves the populations to
``--pops``; ``map`` loads them and evaluates one default 128 x 128
coincidence map.  The last
stdout line is a JSON record with the step's time, peak RSS and failed
checks.
"""

from __future__ import annotations

import time

_start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402  (pins BLAS threads before numpy loads)
import numpy as np  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "prepare", "map"), required=True)
    parser.add_argument("--model", choices=("bundled", "generic"), default="bundled")
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pops", default=None)
    args = parser.parse_args()

    system = common.build_model(args.model, args.n, args.seed)
    record = {"setup_s": time.perf_counter() - _start, "problems": []}
    if args.role == "setup":
        record["cal_s"] = common.calibration_s()
    import checks

    try:
        common.model_checks(system)
        if args.role == "prepare":
            prepare(system, args.pops, record)
        elif args.role == "map":
            detect(system, args.pops, record)
    except checks.CheckError as exc:
        record["problems"].append(f"{args.role} n={system.n_one}: {exc}")
    record["rss_mb"] = common.peak_rss_mb()
    print(json.dumps(record))
    return 0


def prepare(system, pops_path, record):
    import checks
    from excitonscope import excitation

    source = common.default_source(system)
    start = time.perf_counter()
    prep = excitation.prepare_closed_form(system, source)
    record["op_s"] = time.perf_counter() - start
    record["regularized"] = bool(prep.regularized)
    np.save(pops_path, prep.populations)
    checks.check_raw_sum(prep.raw, prep.pathway_partials)
    checks.check_clipped(prep.populations, prep.raw)


def detect(system, pops_path, record):
    import checks
    from excitonscope import SignalGrid, coincidence

    rho = np.load(pops_path)
    axis_fe, axis_eg = common.default_axes(system)
    sigma_omega, _, t_wait_two, t_wait_one = common.DEFAULT_GATES
    grid = SignalGrid(axis_fe, axis_eg, t_wait_two, t_wait_one)
    start = time.perf_counter()
    coincidence.coincidence_snapshot(system, rho, *common.gates(*common.DEFAULT_GATES), grid)
    record["op_s"] = time.perf_counter() - start
    label = f"N={system.n_one} default map"
    checks.check_map(grid.result, axis_fe, axis_eg, system.eig.omega_fe(), system.eig.energies_e,
                     sigma_omega, label)
    ref = checks.coincidence_reference(system, rho, *common.DEFAULT_GATES, axis_fe, axis_eg)
    checks.check_map_reference(grid.result, grid.clipped_cells, ref, label)


if __name__ == "__main__":
    sys.exit(main())
