"""The three workloads.  Each takes a :class:`harness.Run`, measures whole
rounds of the same operations, checks the program's outputs and returns
its end-to-end numbers as ``{name: (value, unit)}`` for the log lines."""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import statistics
import time

import numpy as np

import checks
import common

SCAN_TARGETS = 2
SCENARIOS = ("model-info", "jsa", "excite", "propagate", "coincidence", "panel-study")
# panel label -> the gate widths it changes on both gates, as parameter_study documents
PANEL_GATES = {"sigma_omega_20": {"sigma_omega": 20.0},
               "sigma_omega_20_t_wait_one_1000": {"sigma_omega": 20.0},
               "sigma_t_0.5409": {"sigma_t": 0.5409}}


def read_matrix(path):
    """gnuplot nonuniform matrix CSV -> (row axis, column axis, values)."""
    with open(path, encoding="utf-8") as fh:
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    cols = np.array(rows[0][1:])
    body = np.array(rows[1:])
    return body[:, 0], cols, body[:, 1:]


def read_table(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def bundled_model_checks(run, system):
    """Model checks with the eigen-energy traces taken from the packaged JSON."""
    data = json.loads((common.SRC / "excitonscope" / "data" / "aggregate14.json").read_text())
    run.check(checks.check_eigen_traces, system.eig.energies_e, system.eig.energies_f,
              data["site_energies"], data["onsite_anharmonicity"], data["pair_anharmonicity"])
    run.check(common.model_checks, system)


# ---------------------------------------------------------------------------


def scan(run):
    """Degenerate excite-scan through the CLI at 1 and at 2 threads (capped at nproc)."""
    from excitonscope import excitation

    system = common.build_model("bundled", 0, run.seed)
    bundled_model_checks(run, system)
    template = common.default_source(system)
    rng = np.random.default_rng(run.seed)
    targets = sorted(int(t) for t in rng.choice(system.n_two, SCAN_TARGETS, replace=False))
    config = run.out / "scan.json"
    config.write_text(json.dumps({"scenario": "excite-scan", "targets": targets}))
    threads_2 = min(2, common.cpu_count())

    # independent references, computed before timing and tracing start
    references = []
    for target in sorted(int(t) for t in rng.choice(targets, 2, replace=False)):
        source = excitation.scan_source(template, float(system.eig.energies_f[target]),
                                        common.CONFIG.scan_mode)
        prep = excitation.prepare_closed_form(system, source)
        run.check(checks.check_raw_sum, prep.raw, prep.pathway_partials)
        for f in sorted({target, int(rng.integers(system.n_two))}):
            ref, mags = checks.five_pathway_reference(system, dataclasses.asdict(source), f)
            run.check(checks.check_pathways, prep.pathway_partials[:, f], prep.raw[f], ref, mags,
                      f"scan target {target}, f={f}")
        references.append((target, prep))
    scaled = excitation.prepare_closed_form(system, dataclasses.replace(source, alpha=1.7, e0=1.3))
    run.check(checks.check_raw_scaling, prep.raw, scaled.raw, 1.7 * 1.3)

    dirs = {1: run.out / "scan-1t", threads_2: run.out / f"scan-{threads_2}t"}
    scan_s = {1: [], threads_2: []}
    run.start_tracing()
    for index in run.rounds():
        for threads, out in dirs.items():
            wall, stages = run.cli("excite-scan", out, config, threads)
            run.record(f"scan-{threads}t", wall)
            if "scan" in stages:
                scan_s[threads].append(stages["scan"])
        for name in ("scan.csv", "selectivity.csv"):
            run.check(checks.check_identical, (dirs[1] / name).read_bytes(),
                      (dirs[threads_2] / name).read_bytes(), f"{name} at 1 and {threads_2} threads")
        _, _, matrix = read_matrix(dirs[1] / "scan.csv")
        selectivity = [float(x) for x in read_table(dirs[1] / "selectivity.csv")["selectivity"]]
        run.check(checks.check_scan, matrix, selectivity)
        if index == 0:
            for target, prep in references:
                row = targets.index(target)
                run.check(checks.check_scan_row, matrix[row], selectivity[row], prep.populations,
                          target, f"scan target {target}")
    run.stop_tracing()
    return {
        "scan_targets_per_s": (SCAN_TARGETS / statistics.median(scan_s[1]), "targets/s"),
        "scan_targets_per_s_2t": (SCAN_TARGETS / statistics.median(scan_s[threads_2]), "targets/s"),
    }


# ---------------------------------------------------------------------------


def scenarios(run):
    """The six other CLI scenarios with the default config, in process."""
    system = common.build_model("bundled", 0, run.seed)
    bundled_model_checks(run, system)
    dirs = {name: run.out / name for name in SCENARIOS}
    walls = {name: [] for name in SCENARIOS}
    run.start_tracing()
    for index in run.rounds():
        for name in SCENARIOS:
            walls[name].append(run.cli(name, dirs[name])[0])
            run.record(name, walls[name][-1])
        if index == 0:
            check_scenario_outputs(run, system, dirs)
    run.stop_tracing()
    return {f"{name.replace('-', '_')}_s": (statistics.median(walls[name]), "s")
            for name in SCENARIOS}


def check_scenario_outputs(run, system, dirs):
    data = json.loads((common.SRC / "excitonscope" / "data" / "aggregate14.json").read_text())
    levels = read_table(dirs["model-info"] / "levels.csv")
    energies = {m: np.array([float(e) for e, k in zip(levels["energy_cm"], levels["manifold"]) if k == m])
                for m in ("one_exciton", "two_exciton")}
    run.check(checks.check_levels, energies["one_exciton"], energies["two_exciton"],
              [float(x) for x in levels["depopulation_cm"]], data["site_energies"],
              data["onsite_anharmonicity"], data["pair_anharmonicity"])

    source = json.loads((dirs["jsa"] / "metadata.json").read_text())["source"]
    axis_a, axis_b, jsi = read_matrix(dirs["jsa"] / "jsi.csv")
    run.check(checks.check_jsi, jsi, source, axis_a, axis_b)

    table = read_table(dirs["excite"] / "populations.csv")
    pops = np.array([float(x) for x in table["population"]])
    raw = np.array([float(x) for x in table["raw"]])
    run.check(checks.check_clipped, pops, raw)
    params = json.loads((dirs["excite"] / "metadata.json").read_text())["source"]
    target = common.CONFIG.target
    ref, mags = checks.five_pathway_reference(system, params, target)
    run.check(checks.check_raw_reference, raw[target], ref, mags, f"excite f={target}")

    snaps = read_table(dirs["propagate"] / "snapshots.csv")
    times = [float(re.fullmatch(r"p_(.+)fs", k).group(1)) for k in snaps if k.startswith("p_")]
    rows = np.array([[float(x) for x in snaps[f"p_{t:g}fs"]] for t in times])
    run.check(checks.check_propagation, system.transport_two.rate_matrix, pops, times, rows)

    manifest = json.loads((dirs["coincidence"] / "manifest.json").read_text())
    clipped = [int(m.group(1)) for w in manifest["warnings"]
               for m in [re.search(r"clipped (\d+) negative interference", w)] if m]
    sigma_omega, sigma_t = common.DEFAULT_GATES[:2]
    maps = [("coincidence", dirs["coincidence"] / "signal.csv", *common.DEFAULT_GATES,
             clipped[0] if clipped else 0)]
    panels = json.loads((dirs["panel-study"] / "panels.json").read_text())["panels"]
    for label, meta in panels.items():
        changed = PANEL_GATES.get(label, {})
        maps.append((f"panel {label}", dirs["panel-study"] / f"panel_{label}.csv",
                     changed.get("sigma_omega", sigma_omega), changed.get("sigma_t", sigma_t),
                     meta["t_wait_two"], meta["t_wait_one"], meta["clipped_cells"]))
    run.check(checks.require, len(panels) == 6, f"panel-study wrote {len(panels)} panels, not 6")
    for label, path, sigma_w, sigma_t, t2, t1, n_clipped in maps:
        axis_fe, axis_eg, values = read_matrix(path)
        run.check(checks.check_map, values, axis_fe, axis_eg, system.eig.omega_fe(),
                  system.eig.energies_e, sigma_w, label)
        ref = checks.coincidence_reference(system, pops, sigma_w, sigma_t, t2, t1, axis_fe, axis_eg)
        run.check(checks.check_map_reference, values, n_clipped, ref, label)


# ---------------------------------------------------------------------------


def detection_settings(rng):
    """The default gate and waiting times, then a 2 x 2 x 2 x 2 grid of
    t_wait_two, t_wait_one, sigma_omega and sigma_t drawn from the seed."""
    t2s = np.sort(rng.uniform(0.0, 200.0, 2))
    t1s = np.sort(rng.uniform(0.0, 1000.0, 2))
    sws = np.sort(rng.uniform(6.0, 30.0, 2))
    sts = np.sort(rng.uniform(0.5, 5.0, 2))
    grid = [(sw, st, t2, t1) for sw in sws for st in sts for t2 in t2s for t1 in t1s]
    return [common.DEFAULT_GATES] + [tuple(float(x) for x in s) for s in grid]


def detection(run):
    """Coincidence maps of one fixed prepared distribution over gate and
    waiting-time settings; preparation happens once, before timing."""
    from excitonscope import SignalGrid, coincidence, excitation

    system = common.build_model("bundled", 0, run.seed)
    bundled_model_checks(run, system)
    rho = excitation.prepare_closed_form(system, common.default_source(system)).populations
    axis_fe, axis_eg = common.default_axes(system)
    settings = detection_settings(np.random.default_rng(run.seed))
    refs = [checks.coincidence_reference(system, rho, sw, st, t2, t1, axis_fe, axis_eg)
            for sw, st, t2, t1 in settings]
    first_maps = []
    rates = []
    run.start_tracing()
    for index in run.rounds():
        busy = 0.0
        for k, (sw, st, t2, t1) in enumerate(settings):
            gate_fe, gate_eg = common.gates(sw, st, t2, t1)
            grid = SignalGrid(axis_fe, axis_eg, t2, t1)
            run.attempted += 1
            start = time.perf_counter()
            coincidence.coincidence_snapshot(system, rho, gate_fe, gate_eg, grid)
            elapsed = time.perf_counter() - start
            run.record(f"map{k}", elapsed)
            busy += elapsed
            label = f"map sigma_omega={sw:.3f} sigma_t={st:.3f} t2={t2:.1f} t1={t1:.1f}"
            if index == 0:
                run.check(checks.check_map, grid.result, axis_fe, axis_eg, system.eig.omega_fe(),
                          system.eig.energies_e, sw, label)
                run.check(checks.check_map_reference, grid.result, grid.clipped_cells, refs[k], label)
                first_maps.append(grid.result)
            else:
                run.check(checks.check_identical, grid.result, first_maps[k],
                          f"{label}, rounds 1 and {index + 1}")
        rates.append(len(settings) / busy)
    run.stop_tracing()
    return {"maps_per_s": (statistics.median(rates), "maps/s")}


# The workloads' own figures, by name and unit.  Traced runs report all of
# them, with 0 for those another workload measures.
FIGURES = {
    "scan_targets_per_s": "targets/s",
    "scan_targets_per_s_2t": "targets/s",
    **{f"{name.replace('-', '_')}_s": "s" for name in SCENARIOS},
    "maps_per_s": "maps/s",
}

WORKLOADS = {
    "scan": scan,
    "scenarios": scenarios,
    "detection": detection,
}
