"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/check_selftest.py

Each check first runs on a real output of the program (bundled model,
default settings) and must pass; then on a deliberately perturbed copy of
that output, where it must fail.  Prints one line per case and exits 1 if
any check passes a perturbed output or fails a real one.
"""

from __future__ import annotations

import dataclasses
import sys

import common  # first: pins BLAS threads and finds the sources
import checks
import numpy as np


def main() -> int:
    from excitonscope import SignalGrid, coincidence, excitation, jsi_map, population_evolve

    system = common.build_model("bundled", 0, 0)
    spec = system.aggregate
    source = common.default_source(system)
    params = dataclasses.asdict(source)
    prep = excitation.prepare_closed_form(system, source)
    scaled = excitation.prepare_closed_form(system, dataclasses.replace(source, alpha=1.7, e0=1.3))
    f = common.CONFIG.target
    ref, mags = checks.five_pathway_reference(system, params, f)

    axis_a = np.linspace(params["omega1"] - 300.0, params["omega1"] + 300.0, 64)
    axis_b = np.linspace(params["omega2"] - 300.0, params["omega2"] + 300.0, 64)
    jsi = jsi_map(source, axis_a, axis_b)

    times = [50.0, 250.0]
    rows = population_evolve(system.transport_two, prep.populations, times)
    k2 = system.transport_two.rate_matrix

    axis_fe, axis_eg = common.default_axes(system)
    sigma_omega, _, t_wait_two, t_wait_one = common.DEFAULT_GATES
    grid = SignalGrid(axis_fe, axis_eg, t_wait_two, t_wait_one)
    coincidence.coincidence_snapshot(system, prep.populations, *common.gates(*common.DEFAULT_GATES),
                                     grid)
    signal, clipped = grid.result, grid.clipped_cells
    signed = checks.coincidence_reference(system, prep.populations, *common.DEFAULT_GATES,
                                          axis_fe, axis_eg)
    w_fe, w_eg = system.eig.omega_fe(), system.eig.energies_e

    pops = prep.populations
    matrix = np.stack([pops / pops.max(), scaled.populations / scaled.populations.max()])
    selectivity = [pops[f] / pops.sum(), scaled.populations[f] / scaled.populations.sum()]

    def bump(a, index, by):
        out = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
        out[index] += by
        return out

    far = signal.copy()
    far[0, 0] = 1.0
    far[np.unravel_index(int(np.argmax(signal)), signal.shape)] = 0.5
    moved = bump(k2, (0, 1), 1e-3 * np.abs(k2).max())
    moved[1, 1] -= 1e-3 * np.abs(k2).max()  # columns still sum to zero
    cases = [
        ("eigen traces, one-exciton energy +1e-3",
         checks.check_eigen_traces, (system.eig.energies_e, system.eig.energies_f, spec.site_energies,
                                     spec.onsite_anharmonicity, spec.pair_anharmonicity),
         {0: bump(system.eig.energies_e, 0, 1e-3)}),
        ("eigen traces, two-exciton energy +1e-3",
         checks.check_eigen_traces, (system.eig.energies_e, system.eig.energies_f, spec.site_energies,
                                     spec.onsite_anharmonicity, spec.pair_anharmonicity),
         {1: bump(system.eig.energies_f, 5, 1e-3)}),
        ("level table, negative width",
         checks.check_levels, (system.eig.energies_e, system.eig.energies_f,
                               system.transport_one.depopulation, spec.site_energies,
                               spec.onsite_anharmonicity, spec.pair_anharmonicity),
         {2: bump(system.transport_one.depopulation, 3, -1.0)}),
        ("transport, column sum broken",
         checks.check_transport, (k2, system.transport_two.energies, system.bath.temperature),
         {0: bump(k2, (0, 1), 1e-6 * np.abs(k2).max())}),
        ("transport, detailed balance broken",
         checks.check_transport, (k2, system.transport_two.energies, system.bath.temperature),
         {0: moved}),
        ("propagation, population +1e-6 of total",
         checks.check_propagation, (k2, pops, times, rows),
         {3: bump(rows, (1, 4), 1e-6 * pops.sum())}),
        ("propagation, population moved between states",
         checks.check_propagation, (k2, pops, times, rows),
         {3: bump(bump(rows, (0, 4), 1e-5 * pops.sum()), (0, 5), -1e-5 * pops.sum())}),
        ("JSI, one cell +1e-9",
         checks.check_jsi, (jsi, params, axis_a, axis_b), {0: bump(jsi, (10, 20), 1e-9)}),
        ("pathway partial, pathway 4 x (1 + 1e-7)",
         checks.check_pathways, (prep.pathway_partials[:, f], prep.raw[f], ref, mags, "f=7"),
         {0: bump(prep.pathway_partials[:, f], 3, 1e-7 * prep.pathway_partials[3, f])}),
        ("raw value x (1 + 1e-7)",
         checks.check_raw_reference, (prep.raw[f], ref, mags, "f=7"),
         {0: prep.raw[f] * (1 + 1e-7)}),
        ("raw against 2 Re sum(partials)",
         checks.check_raw_sum, (prep.raw, prep.pathway_partials),
         {0: bump(prep.raw, f, 1e-9 * np.abs(prep.raw).max())}),
        ("raw scaling with (alpha e0)^2",
         checks.check_raw_scaling, (prep.raw, scaled.raw, 1.7 * 1.3),
         {1: scaled.raw * (1 + 1e-8)}),
        ("clipped populations",
         checks.check_clipped, (pops, prep.raw), {0: bump(pops, int(np.argmin(prep.raw)), 1e-12)}),
        ("scan rows, row not max-normalized",
         checks.check_scan, (matrix, selectivity), {0: matrix * 0.999}),
        ("scan rows, negative entry",
         checks.check_scan, (matrix, selectivity), {0: bump(matrix, (1, 3), -1e-3 - matrix[1, 3])}),
        ("scan rows, selectivity above 1",
         checks.check_scan, (matrix, selectivity), {1: [selectivity[0], 1.01]}),
        ("scan row against its preparation",
         checks.check_scan_row, (matrix[0], selectivity[0], pops, f, "f=7"),
         {0: bump(matrix[0], 2, 1e-9)}),
        ("selectivity against its preparation",
         checks.check_scan_row, (matrix[0], selectivity[0], pops, f, "f=7"),
         {1: selectivity[0] * (1 + 1e-9)}),
        ("1- and 2-thread artifacts",
         checks.check_identical, (b"1.0,2.0\n", b"1.0,2.0\n", "scan.csv"),
         {1: b"1.0,2.0000000000000004\n"}),
        ("map, maximum not 1",
         checks.check_map, (signal, axis_fe, axis_eg, w_fe, w_eg, sigma_omega, "map"),
         {0: signal * 0.99}),
        ("map, negative cell",
         checks.check_map, (signal, axis_fe, axis_eg, w_fe, w_eg, sigma_omega, "map"),
         {0: bump(signal, (5, 5), -1e-3 - signal[5, 5])}),
        ("map, peak away from every emission line",
         checks.check_map, (signal, axis_fe, axis_eg, w_fe, w_eg, sigma_omega, "map"),
         {0: far}),
        ("map against the factorized formula",
         checks.check_map_reference, (signal, clipped, signed, "map"),
         {0: bump(signal, (64, 64), 1e-5)}),
        ("clipped-cell count against the formula",
         checks.check_map_reference, (signal, clipped, signed, "map"), {1: clipped + 40}),
    ]

    bad = 0
    for label, check, args, perturbation in cases:
        real = _fails(check, args)
        perturbed_args = tuple(perturbation.get(i, a) for i, a in enumerate(args))
        perturbed = _fails(check, perturbed_args)
        ok = real is None and perturbed is not None
        bad += not ok
        state = "ok  " if ok else "BAD "
        print(f"{state} {label}: real output {'passes' if real is None else 'FAILS: ' + real}; "
              f"perturbed {'fails: ' + perturbed if perturbed else 'PASSES'}")
    print(f"{len(cases) - bad} of {len(cases)} checks pass the real output and fail the perturbed one")
    return 1 if bad else 0


def _fails(check, args):
    try:
        check(*args)
    except checks.CheckError as exc:
        return str(exc)
    return None


if __name__ == "__main__":
    sys.exit(main())
