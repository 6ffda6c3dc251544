import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from excitonscope import (
    ExcitonSystem,
    FilterSpec,
    SignalGrid,
    coincidence,
    coincidence_snapshot,
    parameter_study,
    runner,
)
from excitonscope.config import RunConfig
from excitonscope.excitons import TransitionDipoles
from excitonscope.units import TWO_PI_C

from conftest import dimer_bath
from detector_reference import (
    Gate,
    filtered_lineshape,
    lineshape_branches,
    spectral_gate,
    spectrogram,
    temporal_gate,
)
from loop_reference import branch_sum, loop_coincidence_snapshot, loop_signed_map, plain_snapshot
from test_excitons import generic_aggregate
from time_oracle import coincidence_time_map


def make_grid(system, n=31, **kw):
    w_fe = system.eig.omega_fe()
    defaults = dict(
        omega_fe=np.linspace(w_fe.min() - 60.0, w_fe.max() + 60.0, n),
        omega_eg=np.linspace(
            system.eig.energies_e.min() - 60.0, system.eig.energies_e.max() + 60.0, n
        ),
        t_wait_two=0.0,
        t_wait_one=100.0,
    )
    defaults.update(kw)
    return SignalGrid(**defaults)


REFERENCE_FILTER = FilterSpec(sigma_omega=10.0, sigma_t=4.8681)


def test_filter_validation():
    with pytest.raises(ValueError, match="sigma_omega"):
        FilterSpec(0.0, 4.8681)
    with pytest.raises(ValueError, match="sigma_t"):
        FilterSpec(10.0, -1.0)


@pytest.mark.parametrize("widths", [(np.nan, 4.8681), (10.0, np.inf), (np.inf, 4.8681),
                                    (10.0, np.nan)])
def test_filter_rejects_non_finite_widths(widths):
    with pytest.raises(ValueError, match="finite"):
        FilterSpec(*widths)


def test_settable_values_are_the_gate_widths_and_the_grid():
    # a gate holds its two widths alone: the map scans the centres over the
    # grid axes and opens the gates at the waiting times
    gate_fields = dataclasses.fields(FilterSpec)
    assert [f.name for f in gate_fields] == ["sigma_omega", "sigma_t"]
    assert all(f.default is dataclasses.MISSING for f in gate_fields)
    assert [f.name for f in dataclasses.fields(SignalGrid) if f.init] == [
        "omega_fe", "omega_eg", "t_wait_two", "t_wait_one"]


def test_spectral_gate_profile():
    filt = Gate(FilterSpec(8.0, 3.0), 12000.0)
    on_center = spectral_gate(filt, 12000.0)
    assert on_center == pytest.approx(1.0 / 8.0)
    half = np.abs(spectral_gate(filt, 12008.0)) ** 2 / np.abs(on_center) ** 2
    assert half == pytest.approx(0.5)


def test_temporal_gate_profile():
    filt = Gate(FilterSpec(8.0, 3.0), 12000.0, t_center=50.0)
    assert temporal_gate(filt, 49.9) == 0.0
    assert temporal_gate(filt, 50.0) == pytest.approx(1.0)
    t = 120.0
    assert temporal_gate(filt, t) == pytest.approx(np.exp(-TWO_PI_C * 3.0 * (t - 50.0)))


def test_spectrogram_support_envelope_phase():
    filt = Gate(FilterSpec(8.0, 3.0), 12000.0, t_center=20.0)
    # both detection events must come after the gate opens
    assert spectrogram(filt, 10.0, 100.0) == 0.0
    assert spectrogram(filt, 30.0, -15.0) == 0.0
    assert spectrogram(filt, 20.0, 0.0) == pytest.approx(0.5 / 8.0)

    tau = 7.0
    value = spectrogram(filt, 20.0, tau)
    phase = np.exp(-1j * filt.omega_center * TWO_PI_C * tau)
    envelope = 0.5 / 8.0 * np.exp(-(8.0 + 3.0) * TWO_PI_C * tau)
    assert value == pytest.approx(envelope * phase)

    # negative delays flip the sigma_t term: |tau| decay from the spectral
    # gate, sigma_t decay only through the earlier opening time
    backward = spectrogram(filt, 40.0, -tau)
    forward_env = np.abs(spectrogram(filt, 40.0, tau))
    assert np.abs(backward) == pytest.approx(
        forward_env * np.exp(2.0 * 3.0 * TWO_PI_C * tau)
    )


def test_lineshape_peaks_at_emission_gap():
    gap, width = 12400.0, 2.0
    centers = np.linspace(gap - 120.0, gap + 120.0, 241)
    values = [
        np.abs(
            filtered_lineshape(Gate(REFERENCE_FILTER, c), gap, width)[0]
        )
        for c in centers
    ]
    assert centers[int(np.argmax(values))] == pytest.approx(gap)

    on_peak = filtered_lineshape(Gate(REFERENCE_FILTER, gap), gap, width)
    norm = 0.5 / 10.0 / TWO_PI_C
    assert on_peak[0] == pytest.approx(norm / (10.0 + 4.8681 + width))
    assert on_peak[1] == pytest.approx(norm / (10.0 - 4.8681 + width))


def test_lineshape_negative_branch_guard():
    tight = Gate(FilterSpec(1.0, 5.0), 12000.0)
    with pytest.raises(ValueError, match="diverges"):
        filtered_lineshape(tight, 12000.0, 1.0)
    # wide enough coherence width rescues the branch
    pos, neg = filtered_lineshape(tight, 12000.0, 8.0)
    assert np.isfinite(pos) and np.isfinite(neg)


@pytest.mark.parametrize(
    "sigma_omega, sigma_t, gamma",
    [
        (10.0, 1e-9, 2.0),  # vanishing temporal width
        (10.0, 10.0 + 2.0 - 1e-2, 2.0),  # near the tau < 0 divergence
        (10.0, 4.8681, 2.7e-4),  # floored coherence width
        (10.0, 4.8681, 100.0),  # broad coherence
    ],
)
def test_branch_sum_closed_form(sigma_omega, sigma_t, gamma):
    detune = np.linspace(-3000.0, 3000.0, 6001)
    pos, neg = lineshape_branches(detune, 0.0, gamma, sigma_omega, sigma_t)
    expected = pos + neg
    for weight in (1.0, 0.37):
        re, im = branch_sum(detune, gamma, sigma_omega, sigma_t, weight)
        bound = 1e-15 * np.abs(weight * expected).max()
        assert np.abs(re + 1j * im - weight * expected).max() <= bound


def test_lineshape_rejects_negative_width():
    with pytest.raises(ValueError, match="gamma_ab"):
        filtered_lineshape(Gate(REFERENCE_FILTER, 12000.0), 12000.0, -0.5)


def test_grid_validation():
    with pytest.raises(ValueError, match="waiting"):
        SignalGrid(np.array([1.0]), np.array([1.0]), -1.0, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega_fe must be finite"):
            SignalGrid(np.array([1.0, bad]), np.array([1.0]), 0.0, 0.0)
        with pytest.raises(ValueError, match="omega_eg must be finite"):
            SignalGrid(np.array([1.0]), np.array([bad, 1.0]), 0.0, 0.0)
    # an axis that is not 1-D is refused where it is given, not in the map
    with pytest.raises(ValueError, match="omega_fe must be a 1-D axis"):
        SignalGrid(np.ones((2, 3)), np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError, match="omega_eg must be a 1-D axis"):
        SignalGrid(np.array([1.0]), np.ones((2, 3)), 0.0, 0.0)


def test_snapshot_shape_and_normalization(dimer_system):
    rho = np.array([0.2, 0.7, 0.1])
    grid = coincidence_snapshot(
        dimer_system, rho, REFERENCE_FILTER, REFERENCE_FILTER, make_grid(dimer_system)
    )
    assert grid.result.shape == (grid.omega_fe.size, grid.omega_eg.size)
    assert grid.result.max() == pytest.approx(1.0)
    assert grid.result.min() >= 0.0
    assert grid.clipped_cells >= 0


def test_snapshot_is_scale_invariant_in_populations(dimer_system):
    rho = np.array([0.1, 0.5, 0.4])
    one = coincidence_snapshot(
        dimer_system, rho, REFERENCE_FILTER, REFERENCE_FILTER, make_grid(dimer_system)
    )
    two = coincidence_snapshot(
        dimer_system, 7.5 * rho, REFERENCE_FILTER, REFERENCE_FILTER, make_grid(dimer_system)
    )
    assert two.result == pytest.approx(one.result, rel=1e-12)
    assert two.clipped_cells == one.clipped_cells


def test_snapshot_zero_population_gives_zero_map(dimer_system):
    grid = coincidence_snapshot(
        dimer_system,
        np.zeros(dimer_system.n_two),
        REFERENCE_FILTER,
        REFERENCE_FILTER,
        make_grid(dimer_system),
    )
    assert np.all(grid.result == 0.0)
    assert grid.clipped_cells == 0


def test_snapshot_population_shape_guard(dimer_system):
    with pytest.raises(ValueError, match="rho_ff"):
        coincidence_snapshot(
            dimer_system,
            np.ones(dimer_system.n_two + 1),
            REFERENCE_FILTER,
            REFERENCE_FILTER,
            make_grid(dimer_system),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [coincidence_snapshot, parameter_study])
def test_maps_refuse_non_finite_populations(dimer_system, entry, bad):
    rho = np.array([0.2, bad, 0.1])
    with pytest.raises(ValueError, match="rho_ff must be finite"):
        entry(dimer_system, rho, REFERENCE_FILTER, REFERENCE_FILTER, make_grid(dimer_system))


def test_snapshot_rejects_divergent_gate_pairing(dimer_system):
    # temporal width exceeding spectral width + emission width has no
    # convergent backward branch on the two-exciton side
    tight = FilterSpec(1.0, 40.0)
    with pytest.raises(ValueError, match="diverges"):
        coincidence_snapshot(
            dimer_system,
            np.array([0.0, 1.0, 0.0]),
            tight,
            REFERENCE_FILTER,
            make_grid(dimer_system),
        )


def test_snapshot_peaks_on_emission_lines(dimer_system):
    # single bright f state: rows should peak at one of its emission gaps,
    # columns at a one-exciton line
    rho = np.array([0.0, 1.0, 0.0])
    w_fe = dimer_system.eig.omega_fe()
    gaps = np.sort(w_fe[1])
    lines = np.sort(dimer_system.eig.energies_e)
    axis_fe = np.unique(np.concatenate([np.linspace(w_fe.min(), w_fe.max(), 41), w_fe.ravel()]))
    axis_eg = np.unique(np.concatenate([np.linspace(lines[0] - 80, lines[-1] + 80, 41), lines]))
    grid = coincidence_snapshot(
        dimer_system, rho, REFERENCE_FILTER, REFERENCE_FILTER,
        SignalGrid(axis_fe, axis_eg, 0.0, 100.0),
    )
    i, j = np.unravel_index(np.argmax(grid.result), grid.result.shape)
    assert np.min(np.abs(axis_fe[i] - gaps)) < 2.0 * REFERENCE_FILTER.sigma_omega
    assert np.min(np.abs(axis_eg[j] - lines)) < 2.0 * REFERENCE_FILTER.sigma_omega


def test_parameter_study_default_panels(dimer_system):
    rho = np.array([0.1, 0.8, 0.1])
    grid = make_grid(dimer_system, n=17)
    panels = parameter_study(dimer_system, rho, REFERENCE_FILTER, REFERENCE_FILTER, grid)
    assert list(panels) == [
        "reference",
        "sigma_omega_20",
        "t_wait_one_1000",
        "sigma_omega_20_t_wait_one_1000",
        "sigma_t_0.5409",
        "t_wait_two_50",
    ]
    for label, panel in panels.items():
        assert panel.result.shape == (17, 17)
        assert panel.result.max() == pytest.approx(1.0)
    assert panels["t_wait_one_1000"].t_wait_one == 1000.0
    assert panels["t_wait_two_50"].t_wait_two == 50.0
    # the source grid is untouched
    assert grid.result is None


def _counting(monkeypatch, name, owner=coincidence):
    """Counts the calls to ``owner.<name>``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_panel_equals_its_own_snapshot(bundled, monkeypatch):
    system = replace(bundled)  # a copy with no table built yet
    rho = np.random.default_rng(5).random(system.n_two)
    gate_eg = FilterSpec(sigma_omega=12.0, sigma_t=3.0)
    grid = make_grid(system, n=24, t_wait_two=10.0, t_wait_one=200.0)
    sides = _counting(monkeypatch, "_emission_side")
    norms = _counting(monkeypatch, "magnitudes", TransitionDipoles)
    panels = parameter_study(system, rho, REFERENCE_FILTER, gate_eg, grid)
    # one two-exciton side per distinct (sigma_omega, sigma_t, t_wait_two)
    assert len(sides) == len({(c.get("sigma_omega"), c.get("sigma_t"), c.get("t_wait_two"))
                              for c in coincidence.PANELS.values()}) == 4
    for label, changes in coincidence.PANELS.items():
        gates = {k: v for k, v in changes.items() if k in ("sigma_omega", "sigma_t")}
        del sides[:]
        alone = coincidence_snapshot(
            system, rho, replace(REFERENCE_FILTER, **gates), replace(gate_eg, **gates),
            make_grid(system, n=24, t_wait_two=changes.get("t_wait_two", 10.0),
                      t_wait_one=changes.get("t_wait_one", 200.0)),
        )
        assert len(sides) == 1
        panel = panels[label]
        assert np.array_equal(panel.result, alone.result), label
        assert (panel.clipped_cells, panel.clipped_fraction) == (
            alone.clipped_cells, alone.clipped_fraction), label
        assert (panel.t_wait_two, panel.t_wait_one) == (alone.t_wait_two, alone.t_wait_one)
    # the dipole norms of the detection tables, once for the system's 7 maps
    assert len(norms) == 1


def _assert_plain(grid, system, rho, gate_fe, gate_eg, label):
    """``grid`` is bitwise the plain closed form on its own axes and waits."""
    result, clipped, fraction = plain_snapshot(
        system, rho, gate_fe, gate_eg,
        SignalGrid(grid.omega_fe, grid.omega_eg, grid.t_wait_two, grid.t_wait_one))
    assert grid.result.tobytes() == result.tobytes(), label
    assert (grid.clipped_cells, grid.clipped_fraction) == (clipped, fraction), label


@pytest.mark.parametrize("name", ["dimer_system", "trimer_system", "bundled"])
def test_maps_are_bitwise_the_plain_closed_form(request, name):
    system = request.getfixturevalue(name)
    rho = np.random.default_rng(11).random(system.n_two)
    cfg = RunConfig(scenario="coincidence")
    gate_fe, gate_eg = runner._filters(cfg)
    grid = SignalGrid(*runner.resolve_detection_axes(cfg, system),
                      cfg.waiting.t_wait_two, cfg.waiting.t_wait_one)
    _assert_plain(coincidence_snapshot(system, rho, gate_fe, gate_eg, replace(grid)),
                  system, rho, gate_fe, gate_eg, "default gates")
    for label, panel in parameter_study(system, rho, gate_fe, gate_eg, grid).items():
        changes = coincidence.PANELS[label]
        gates = {k: v for k, v in changes.items() if k in ("sigma_omega", "sigma_t")}
        _assert_plain(panel, system, rho, replace(gate_fe, **gates), replace(gate_eg, **gates),
                      label)
    # sigma_t one ulp inside the convergence edge of the tau < 0 branch
    edge = gate_fe.sigma_omega + float((-system.poles.fe.imag).min())
    gates = {"sigma_t": float(np.nextafter(edge, 0.0))}
    edge_fe, edge_eg = replace(gate_fe, **gates), replace(gate_eg, **gates)
    _assert_plain(coincidence_snapshot(system, rho, edge_fe, edge_eg, replace(grid)),
                  system, rho, edge_fe, edge_eg, "convergence edge")


@pytest.fixture(scope="module")
def generic20():
    return ExcitonSystem.build(generic_aggregate(20), dimer_bath(), (1.0, 1.0, 1.0))


# (system, e per block of the emission side on 128 gate points): one block
# on the dimer, a short last block on the trimer (3 e), full blocks on the
# bundled model and blocks of one e at N=20
BLOCK_CASES = [("dimer_system", 2), ("trimer_system", 2), ("bundled", 2), ("generic20", 1)]


@pytest.mark.parametrize("name, block", BLOCK_CASES)
@pytest.mark.parametrize("sigma_omega", [6.0, 30.0])
@pytest.mark.parametrize("sigma_t", [0.5, 5.0])
@pytest.mark.parametrize("t_wait_two", [0.0, 37.0, 200.0])
@pytest.mark.parametrize("t_wait_one", [0.0, 1000.0])
def test_blocked_maps_are_bitwise_the_plain_closed_form(
    request, name, block, sigma_omega, sigma_t, t_wait_two, t_wait_one
):
    system = request.getfixturevalue(name)
    n_f = system.detection_tables[0].shape[0]
    assert (2 * n_f * 128 * 8 <= coincidence._BLOCK_BYTES) == (block == 2)
    grid = make_grid(system, n=128, t_wait_two=t_wait_two, t_wait_one=t_wait_one)
    rho = np.random.default_rng(11).random(system.n_two)
    gate = FilterSpec(sigma_omega=sigma_omega, sigma_t=sigma_t)
    _assert_plain(coincidence_snapshot(system, rho, gate, gate, grid), system, rho, gate, gate,
                  name)


def test_maps_in_threads_are_bitwise_the_serial_maps(bundled):
    rho = np.random.default_rng(2).random(bundled.n_two)
    settings = [(FilterSpec(sigma_omega=sw, sigma_t=st), t2, t1)
                for sw in (6.0, 30.0) for st in (0.5, 5.0) for t2, t1 in ((0.0, 1000.0), (37.0, 0.0))]

    def snapshot(setting):
        gate, t2, t1 = setting
        return coincidence_snapshot(bundled, rho, gate, gate,
                                    make_grid(bundled, n=128, t_wait_two=t2, t_wait_one=t1))

    serial = [snapshot(s) for s in settings]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(snapshot, settings * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for alone, pooled in zip(serial * 3, threaded):
        assert pooled.result.tobytes() == alone.result.tobytes()
        assert (pooled.clipped_cells, pooled.clipped_fraction) == (
            alone.clipped_cells, alone.clipped_fraction)


def test_time_oracle_restricted_to_small_systems(bundled):
    with pytest.raises(ValueError, match="3 sites"):
        coincidence_time_map(
            bundled,
            np.ones(bundled.n_two) / bundled.n_two,
            REFERENCE_FILTER,
            REFERENCE_FILTER,
            make_grid(bundled),
        )


@pytest.mark.parametrize("name", ["dimer_system", "trimer_system", "bundled"])
@pytest.mark.parametrize("waits", [(0.0, 100.0), (50.0, 1000.0), (0.0, 0.0)])
def test_snapshot_matches_loop_reference(request, name, waits):
    system = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    rho = rng.random(system.n_two)
    rho[::3] = 0.0  # zero weights: the loop skips them, the array sums them
    gate_eg = FilterSpec(sigma_omega=12.0, sigma_t=3.0)
    axes = dict(n=40, t_wait_two=waits[0], t_wait_one=waits[1])
    for populations in (rho, np.eye(system.n_two)[-1]):
        grid = coincidence_snapshot(system, populations, REFERENCE_FILTER, gate_eg,
                                    make_grid(system, **axes))
        expected, clipped = loop_coincidence_snapshot(
            system, populations, REFERENCE_FILTER, gate_eg, make_grid(system, **axes))
        # the map sums both lineshape branches in closed form, the loop
        # adds the two complex branches: equal up to rounding
        assert np.abs(grid.result - expected).max() <= 1e-14 * np.abs(expected).max()
        assert grid.clipped_cells == clipped


@pytest.mark.parametrize("name", ["dimer_system", "bundled"])
def test_snapshot_clipped_fraction(request, name):
    system = request.getfixturevalue(name)
    rho = np.random.default_rng(3).random(system.n_two)
    grid = coincidence_snapshot(system, rho, REFERENCE_FILTER, REFERENCE_FILTER,
                                make_grid(system, n=64))
    signed = loop_signed_map(system, rho, REFERENCE_FILTER, REFERENCE_FILTER,
                             make_grid(system, n=64))
    negative_mass = -signed[signed < 0.0].sum()
    assert grid.clipped_cells > 0
    assert grid.clipped_fraction == pytest.approx(
        negative_mass / signed[signed > 0.0].sum(), rel=1e-12
    )
