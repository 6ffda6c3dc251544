"""End-to-end acceptance runs.

One test per stated capability, each timed against its budget, so the
verbose test listing reads as a pass/fail line per capability.  The
independent references live in ``product_space`` (full 3^N
diagonalization), ``bath_reference`` (time-domain correlation
quadrature), ``quadrature_oracle`` (real-frequency quadrature of the
preparation) and ``time_oracle`` (nested time integration of the
coincidence map); everything else is checked against closed forms
evaluated through a slower, dumber route inside the test itself.
"""

import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from excitonscope import (
    AggregateSpec,
    CoherentSource,
    EppSource,
    ExcitonEigensystem,
    ExcitonSystem,
    FilterSpec,
    PairIndex,
    SignalGrid,
    coincidence_snapshot,
    compute_transition_dipoles,
    population_evolve,
    population_propagator,
    prepare_closed_form,
    scan_targets,
)
from excitonscope.bath import BathSpec, phonon_correlation_real
from excitonscope.config import from_dict
from excitonscope.runner import run_scenario
from excitonscope.units import TWO_PI_C, beta_cm

from bath_reference import re_correlation_time_domain
from conftest import dimer_bath, make_dimer, make_trimer
from detector_reference import Gate, filtered_lineshape, spectrogram, temporal_gate
from product_space import sector_eigensystems, sector_transition_dipoles
from quadrature_oracle import prepare_quadrature_oracle
from time_oracle import coincidence_time_map


def generic_aggregate(n: int) -> AggregateSpec:
    rng = np.random.default_rng(11 + n)
    j = rng.uniform(-40.0, 40.0, (n, n))
    j = np.triu(j, 1) + np.triu(j, 1).T
    u2 = rng.uniform(-120.0, 30.0, (n, n))
    u2 = np.triu(u2, 1) + np.triu(u2, 1).T
    return AggregateSpec(
        site_energies=rng.uniform(12000.0, 12900.0, n),
        couplings=j,
        onsite_anharmonicity=rng.uniform(-260.0, 160.0, n),
        pair_anharmonicity=u2,
        site_dipoles=rng.normal(0.0, 1.0, (n, 3)),
        bath_coupling_weights=np.ones(n),
    )


@pytest.fixture(scope="module")
def dimer():
    return ExcitonSystem.build(make_dimer(), dimer_bath(), polarization=(1.0, 1.0, 1.0))


def test_c1_manifold_counting():
    start = time.perf_counter()
    for n in range(1, 7):
        eig = ExcitonEigensystem.from_spec(generic_aggregate(n))
        assert eig.n_one == n
        assert eig.n_two == n * (n + 1) // 2
        assert eig.t1.shape == (n, n)
        assert eig.t2.shape == (eig.n_two, eig.n_two)
    assert PairIndex(14).size == 105
    assert time.perf_counter() - start < 1.0


def test_c2_product_space_oracle():
    # energies and dipole magnitudes against the full 3^N diagonalization
    start = time.perf_counter()
    for spec in (make_dimer(), make_trimer()):
        eig = ExcitonEigensystem.from_spec(spec)
        sectors = sector_eigensystems(spec)
        np.testing.assert_allclose(eig.energies_e, sectors[1][0], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(eig.energies_f, sectors[2][0], rtol=0.0, atol=1e-9)
        (_, d_eg_ref), (_, d_fe_ref) = sector_transition_dipoles(spec)
        dipoles = compute_transition_dipoles(eig, spec)
        np.testing.assert_allclose(np.abs(dipoles.d_eg), np.abs(d_eg_ref), rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(dipoles.d_fe), np.abs(d_fe_ref), rtol=0.0, atol=1e-9)
    assert time.perf_counter() - start < 5.0


def test_c3_transport_suite(bundled):
    start = time.perf_counter()
    beta = beta_cm(bundled.bath.temperature)
    for model in (bundled.transport_one, bundled.transport_two):
        k = model.rate_matrix
        n = model.energies.size
        assert np.abs(k.sum(axis=0)).max() < 1e-12 * max(1.0, np.abs(k).max())

        weights = np.exp(-beta * (model.energies - model.energies.min()))
        pi = weights / weights.sum()
        flux = k * pi[None, :]
        assert np.abs(flux - flux.T).max() < 1e-12 * np.abs(flux).max()

        np.testing.assert_allclose(population_propagator(model, 0.0), np.eye(n), atol=1e-7)
        g_a = population_propagator(model, 37.0)
        g_b = population_propagator(model, 151.0)
        assert np.abs(population_propagator(model, 188.0) - g_b @ g_a).max() < 1e-7

        rho0 = np.zeros(n)
        rho0[n - 1] = 1.0
        rows = population_evolve(model, rho0, np.array([0.0, 10.0, 100.0, 1000.0, 20000.0]))
        assert np.all(rows >= -1e-7)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-8

        positive = model.lambdas[model.lambdas > 1e-14]
        t_relax = 40.0 / (positive.min() * TWO_PI_C)
        assert np.abs(population_propagator(model, t_relax) @ rho0 - pi).max() < 1e-6
    assert time.perf_counter() - start < 30.0


def test_c4_bath_correlation():
    start = time.perf_counter()
    bath = BathSpec(35.0, 100.0, ((20.0, 740.0, 30.0),), 300.0)
    for omega in (-740.0, -120.0, 35.0, 310.0, 741.5):
        closed = phonon_correlation_real(bath, omega)
        assert closed == pytest.approx(re_correlation_time_domain(bath, omega), rel=1e-6)
    for omega in (12.0, 310.0, 741.5, 1950.0):
        up = phonon_correlation_real(bath, omega)
        down = phonon_correlation_real(bath, -omega)
        assert down == pytest.approx(up * np.exp(-bath.beta * omega), rel=1e-12)
    assert time.perf_counter() - start < 10.0


def test_c5_preparation_against_quadrature(dimer):
    start = time.perf_counter()
    ee, ef = dimer.eig.energies_e, dimer.eig.energies_f
    sources = [
        EppSource(ee[0], ee[1], ef[1], 30.0, 0.0, 100.0),
        CoherentSource(ef[1] / 2.0, 60.0),
    ]
    for source in sources:
        closed = prepare_closed_form(dimer, source, t_fs=160.0)
        brute = prepare_quadrature_oracle(dimer, source, t_fs=160.0)
        closed, brute = (r.populations / r.populations.max() for r in (closed, brute))
        diff = np.abs(closed - brute).max()
        assert diff < 1e-3, f"{type(source).__name__}: {diff:.2e}"
    assert time.perf_counter() - start < 300.0


def test_c6_detection_identities():
    start = time.perf_counter()

    # the spectrogram closed form equals gate product times the Fourier
    # transform of the squared spectral gate
    gate = Gate(FilterSpec(12.0, 3.5), 12350.0, t_center=30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for tp, tau in [(30.0, 0.0), (30.0, 11.0), (45.0, -14.9),
                        (200.0, 7.3), (30.0, 250.0), (80.0, -49.9)]:
            x = TWO_PI_C * tau
            gates = temporal_gate(gate, tp) * temporal_gate(gate, tp + tau)
            val = quad(lambda u: 1.0 / (u * u + gate.filt.sigma_omega**2), 0.0, np.inf,
                       weight="cos", wvar=x, epsabs=1e-13, epsrel=1e-12)[0]
            defined = gates * np.exp(-1j * gate.omega_center * x) * val / np.pi
            closed = spectrogram(gate, tp, tau)
            assert abs(defined - closed) <= 1e-8 * max(abs(closed), 1e-30)
        assert spectrogram(gate, 20.0, 5.0) == 0.0

        # both lineshape branches against direct delay quadrature; the
        # backward branch runs along the wedge edge t' + tau = t_center with
        # the one-exciton gate still closed, hence the 2 sigma_t compensation
        gap, gamma = 12391.5, 2.0

        def cquad(f, hi):
            re = quad(lambda t: f(t).real, 0.0, hi, limit=800, epsabs=1e-13)[0]
            im = quad(lambda t: f(t).imag, 0.0, hi, limit=800, epsabs=1e-13)[0]
            return re + 1j * im

        for center in (gap, gap - 35.0, gap + 80.0):
            f2 = Gate(FilterSpec(10.0, 4.8681), center, 40.0)
            pos, neg = filtered_lineshape(f2, gap, gamma)
            pos_num = cquad(
                lambda tau: spectrogram(f2, f2.t_center, tau)
                * np.exp((1j * gap - gamma) * TWO_PI_C * tau),
                40.0 / ((f2.filt.sigma_omega + f2.filt.sigma_t + gamma) * TWO_PI_C),
            )
            neg_num = cquad(
                lambda s: spectrogram(f2, f2.t_center + s, -s)
                * np.exp((2.0 * f2.filt.sigma_t - gamma) * TWO_PI_C * s)
                * np.exp(-1j * gap * TWO_PI_C * s),
                40.0 / ((f2.filt.sigma_omega - f2.filt.sigma_t + gamma) * TWO_PI_C),
            )
            assert abs(pos - pos_num) <= 1e-8 * abs(pos)
            assert abs(neg - neg_num) <= 1e-8 * abs(neg)

    # response FWHM grows with the spectral gate width
    centers = np.linspace(gap - 300.0, gap + 300.0, 4001)

    def fwhm(sigma_omega):
        amp = np.abs([
            sum(filtered_lineshape(Gate(FilterSpec(sigma_omega, 2.0), c), gap, 1.0))
            for c in centers
        ])
        half = 0.5 * amp.max()
        above = np.flatnonzero(amp >= half)
        lo, hi = above[0], above[-1]

        def cross(i, j):
            f = (half - amp[i]) / (amp[j] - amp[i])
            return centers[i] + f * (centers[j] - centers[i])

        return cross(hi, hi + 1) - cross(lo - 1, lo)

    widths = [fwhm(s) for s in (5.0, 10.0, 20.0)]
    assert widths[0] < widths[1] < widths[2]
    assert time.perf_counter() - start < 30.0


def test_c7_snapshot_against_time_oracle(dimer):
    start = time.perf_counter()
    rho = np.array([0.0, 1.0, 0.0])
    w_fe = dimer.eig.omega_fe()
    lines = dimer.eig.energies_e

    # peak location on axes that include every exact channel gap
    fe_axis = np.sort(w_fe.ravel())
    eg_axis = np.sort(lines)
    ref_fe = ref_eg = FilterSpec(10.0, 4.8681)
    grid = SignalGrid(fe_axis, eg_axis, 0.0, 100.0)
    oracle = coincidence_time_map(dimer, rho, ref_fe, ref_eg, grid)
    grid = coincidence_snapshot(dimer, rho, ref_fe, ref_eg, grid)
    i_o, j_o = np.unravel_index(np.argmax(np.abs(oracle)), oracle.shape)
    i_s, j_s = np.unravel_index(np.argmax(grid.result), grid.result.shape)
    assert abs(fe_axis[i_o] - fe_axis[i_s]) <= 2.0 * ref_fe.sigma_omega
    assert abs(eg_axis[j_o] - eg_axis[j_s]) <= 2.0 * ref_eg.sigma_omega

    # zero populations give a zero map through both routes
    empty = SignalGrid(fe_axis, eg_axis, 0.0, 100.0)
    assert np.all(coincidence_time_map(dimer, np.zeros(3), ref_fe, ref_eg, empty) == 0.0)
    empty = coincidence_snapshot(dimer, np.zeros(3), ref_fe, ref_eg, empty)
    assert np.all(empty.result == 0.0)

    # short gates: relative amplitudes of the two bright coincidence
    # channels (f -> e followed by the same e -> g) within 20 percent
    short_fe = short_eg = FilterSpec(40.0, 30.0)
    grid2 = SignalGrid(w_fe[1], lines, 100.0, 0.0)
    oracle2 = coincidence_time_map(dimer, rho, short_fe, short_eg, grid2)
    grid2 = coincidence_snapshot(dimer, rho, short_fe, short_eg, grid2)
    channels = [(0, 0), (1, 1)]  # gate pairs sharing the intermediate e
    o = np.array([oracle2[c] for c in channels])
    s = np.array([grid2.result[c] for c in channels])
    ratios = (o / o.max()) / (s / s.max())
    assert ratios.max() / ratios.min() - 1.0 < 0.2
    assert time.perf_counter() - start < 300.0


def test_c8_filtering_trends(bundled):
    ee = bundled.eig.energies_e
    ef = bundled.eig.energies_f

    # (a) longer entanglement time sharpens target selectivity on the
    # crowded low rung of the two-exciton ladder
    medians = {}
    for tau in (150.0, 50.0):
        template = EppSource(ee[2], ee[9], ef[7], tau, 0.0, 10.0)
        scan = scan_targets(bundled, template, targets=np.arange(25))
        medians[tau] = float(np.median(scan.selectivity))
    assert medians[150.0] > 2.0 * medians[50.0]

    # (b) the dominant prepared state is stable under a change of
    # entanglement time for most targets
    maps = {}
    for t2 in (10.0, 60.0):
        template = EppSource(ee[2], ee[9], ef[7], 150.0, 0.0, t2)
        maps[t2] = scan_targets(bundled, template).matrix
    preserved = np.mean(maps[10.0].argmax(axis=1) == maps[60.0].argmax(axis=1))
    assert preserved >= 0.5

    # (c) relaxation during the first waiting time cannot create new
    # emission lines in the one-exciton gate profile
    rho = prepare_closed_form(
        bundled, EppSource(ee[2], ee[9], ef[7], 150.0, 0.0, 10.0)
    ).populations
    w_fe = bundled.eig.omega_fe()
    axis_fe = np.linspace(w_fe.min() - 60.0, w_fe.max() + 60.0, 128)
    axis_eg = np.linspace(ee.min() - 60.0, ee.max() + 60.0, 128)
    filt = FilterSpec(10.0, 4.8681)

    def eg_peak_count(t_wait_two):
        grid = coincidence_snapshot(
            bundled, rho, filt, filt, SignalGrid(axis_fe, axis_eg, t_wait_two, 0.0)
        )
        profile = grid.result.sum(axis=0)
        profile = profile / profile.max()
        interior = (profile[1:-1] > profile[:-2]) & (profile[1:-1] > profile[2:])
        return int(np.count_nonzero(interior & (profile[1:-1] > 0.1)))

    assert eg_peak_count(1000.0) <= eg_peak_count(100.0)

    # (d) the mean prepared energy drifts downhill while relaxing
    rho0 = np.zeros(bundled.n_two)
    rho0[7] = 1.0
    snaps = population_evolve(
        bundled.transport_two, rho0, np.array([50.0, 100.0, 250.0, 1000.0])
    )
    means = (snaps @ ef) / snaps.sum(axis=1)
    assert np.all(np.diff(means) < 0.0)


def test_c9_full_scale_runs(bundled, tmp_path):
    # the bundled 105-target scan finishes inside its budget and the
    # emitted artifacts do not depend on the thread count
    cfg = from_dict({"scenario": "excite-scan"})
    start = time.perf_counter()
    run_scenario(replace(cfg, out_dir=str(tmp_path / "serial"), threads=1))
    assert time.perf_counter() - start < 600.0
    run_scenario(replace(cfg, out_dir=str(tmp_path / "pooled"), threads=4))
    for name in ("scan.csv", "selectivity.csv"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "pooled" / name).read_bytes()
        assert a == b, f"{name} differs between thread counts"

    # a full-resolution detection map on the bundled model
    ee = bundled.eig.energies_e
    ef = bundled.eig.energies_f
    rho = prepare_closed_form(
        bundled, EppSource(ee[2], ee[9], ef[7], 150.0, 0.0, 10.0)
    ).populations
    w_fe = bundled.eig.omega_fe()
    grid = SignalGrid(
        np.linspace(w_fe.min() - 60.0, w_fe.max() + 60.0, 128),
        np.linspace(ee.min() - 60.0, ee.max() + 60.0, 128),
        0.0,
        100.0,
    )
    start = time.perf_counter()
    filt = FilterSpec(10.0, 4.8681)
    coincidence_snapshot(bundled, rho, filt, filt, grid)
    assert time.perf_counter() - start < 300.0
    assert grid.result.shape == (128, 128)
    assert grid.result.max() == pytest.approx(1.0)