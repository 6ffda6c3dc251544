import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scipy.linalg import expm

from excitonscope import (
    BathSpec,
    ExcitonSystem,
    SignalGrid,
    population_evolve,
    population_propagator,
)
from excitonscope import propagators
from excitonscope.bath import eigendecompose_transport
from excitonscope.config import from_dict
from excitonscope.excitation import DEFAULT_POLARIZATION, prepare_closed_form
from excitonscope.presets import bundled_aggregate, reference_bath
from excitonscope.runner import resolve_source
from excitonscope.units import TWO_PI_C, beta_cm

from conftest import make_dimer


def _boltzmann(energies: np.ndarray, temperature: float) -> np.ndarray:
    beta = beta_cm(temperature)
    weights = np.exp(-beta * (energies - energies.min()))
    return weights / weights.sum()


@pytest.mark.parametrize("manifold", ["one", "two"])
def test_transport_suite_on_bundled_model(bundled, manifold):
    start = time.perf_counter()
    model = bundled.transport_one if manifold == "one" else bundled.transport_two
    k = model.rate_matrix
    n = model.energies.size

    # conservation: every column of K sums to zero
    assert np.abs(k.sum(axis=0)).max() < 1e-12 * max(1.0, np.abs(k).max())

    # detailed balance against the independently computed Boltzmann weights:
    # K[a, b] pi_b = K[b, a] pi_a for every pair
    pi = _boltzmann(model.energies, bundled.bath.temperature)
    flux = k * pi[None, :]
    scale = np.abs(flux).max()
    assert np.abs(flux - flux.T).max() < 1e-12 * scale

    # G(0) is exactly the identity
    assert np.array_equal(population_propagator(model, 0.0), np.eye(n))

    # semigroup property G(t1 + t2) = G(t1) G(t2); each G is non-negative
    # and its columns sum to 1
    g_a = population_propagator(model, 37.0)
    g_b = population_propagator(model, 151.0)
    g_ab = population_propagator(model, 188.0)
    assert np.abs(g_ab - g_b @ g_a).max() < 1e-14
    for g in (g_a, g_b, g_ab):
        assert g.min() >= 0.0
        assert np.abs(g.sum(axis=0) - 1.0).max() < 1e-14

    # trace preservation along a trajectory
    rho0 = np.zeros(n)
    rho0[n - 1] = 1.0
    times = np.array([0.0, 10.0, 100.0, 1000.0, 20000.0])
    rows = population_evolve(model, rho0, times)
    assert np.all(rows >= 0.0)
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-14

    # long-time limit is the Boltzmann distribution
    positive = model.lambdas[model.lambdas > 1e-14]
    t_relax = 40.0 / (positive.min() * TWO_PI_C)
    final = population_propagator(model, t_relax) @ rho0
    assert np.abs(final - pi).max() < 1e-12

    assert time.perf_counter() - start < 30.0


def test_propagator_rejects_negative_time(bundled):
    with pytest.raises(ValueError):
        population_propagator(bundled.transport_one, -1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_propagators_reject_non_finite_times(bundled, t):
    model = bundled.transport_one
    with pytest.raises(ValueError, match="finite t >= 0"):
        population_propagator(model, t)
    with pytest.raises(ValueError, match="finite t >= 0"):
        population_evolve(model, np.ones(model.energies.size), [0.0, t])
    axis = np.linspace(12000.0, 13000.0, 5)
    for waiting in [(t, 100.0), (0.0, t)]:
        with pytest.raises(ValueError, match="finite and non-negative"):
            SignalGrid(axis, axis, *waiting)


def test_series_past_the_bound_is_refused(bundled, monkeypatch):
    model = bundled.transport_two
    rho = np.ones(model.energies.size)
    fs_per_qs = 1.0 / (float(model.rate_matrix.diagonal().max()) * TWO_PI_C)
    monkeypatch.setattr(propagators, "_MAX_QS", 40.0)
    below = population_evolve(model, rho, 39.0 * fs_per_qs)
    assert abs(below.sum() - rho.sum()) <= 1e-13 * rho.sum()
    with pytest.raises(ValueError, match=r"qs = 41\b.* about 111\.8 series terms") as refused:
        population_evolve(model, rho, 41.0 * fs_per_qs)
    assert "qs + 9.5 sqrt(qs) + 10" in str(refused.value)
    with pytest.raises(ValueError, match="series terms"):
        population_propagator(bundled.transport_one, 1e15)


@pytest.mark.parametrize("name", ["dimer_system", "trimer_system", "bundled"])
@pytest.mark.parametrize("manifold", ["one", "two"])
def test_propagator_matches_expm(request, name, manifold):
    model = getattr(request.getfixturevalue(name), f"transport_{manifold}")
    assert np.array_equal(population_propagator(model, 0.0), np.eye(model.energies.size))
    for t in (0.0, 50.0, 250.0, 1000.0):
        g = population_propagator(model, t)
        assert np.abs(g - expm(-model.rate_matrix * TWO_PI_C * t)).max() < 1e-14, t
        assert np.abs(g.sum(axis=0) - 1.0).max() < 1e-14, t
        assert g.min() >= 0.0, t


def test_prepared_populations_match_expm_relative_to_themselves(bundled):
    # the default prepared populations span many decades; each one above
    # 1e-30 is propagated accurately relative to itself
    cfg = from_dict({"scenario": "propagate"})
    rho = prepare_closed_form(bundled, resolve_source(cfg, bundled), t_fs=cfg.time_fs).populations
    times = (0.0, *cfg.snapshot_times)
    rows = population_evolve(bundled.transport_two, rho, times)
    assert np.array_equal(rows[0], rho)
    for t, row in zip(times, rows):
        exact = expm(-bundled.transport_two.rate_matrix * TWO_PI_C * t) @ rho
        kept = exact > 1e-30
        assert (np.abs(row - exact)[kept] / exact[kept]).max() < 1e-13, t


def test_zero_rate_manifold_is_the_identity_at_every_time():
    # no bath coupling: K = 0, so the uniformization rate q is 0 too
    system = ExcitonSystem.build(make_dimer(), BathSpec(lambda0=0.0, gamma0=40.0),
                                 (1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (system.transport_one, system.transport_two):
            assert not model.rate_matrix.any()
            rho = np.arange(1.0, model.energies.size + 1.0)
            for t in (0.0, 1000.0, 1e5):
                assert np.array_equal(population_propagator(model, t), np.eye(model.energies.size))
            assert np.array_equal(population_evolve(model, rho, [0.0, 1e5]), [rho, rho])


def test_strong_bath_long_time_against_expm():
    # ten times the reference reorganization energy at 1e5 fs: q 2 pi c t is
    # about 3100 on the two-exciton manifold, past where e^-qs underflows
    bath = reference_bath()
    system = ExcitonSystem.build(bundled_aggregate(), replace(bath, lambda0=10.0 * bath.lambda0),
                                 DEFAULT_POLARIZATION)
    for model in (system.transport_one, system.transport_two):
        g = population_propagator(model, 1e5)
        assert g.min() >= 0.0
        assert np.abs(g.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(g - expm(-model.rate_matrix * TWO_PI_C * 1e5)).max() < 1e-12
        rho = population_evolve(model, np.eye(model.energies.size)[-1], 1e5)
        assert abs(rho.sum() - 1.0) < 1e-13


def test_population_evolve_rows_follow_times(bundled):
    model = bundled.transport_one
    rho0 = np.zeros(model.energies.size)
    rho0[0] = 1.0
    times = [50.0, 200.0]
    rows = population_evolve(model, rho0, times)
    assert rows.shape == (2, model.energies.size)
    np.testing.assert_allclose(rows[0], population_propagator(model, 50.0) @ rho0)
    np.testing.assert_allclose(rows[1], population_propagator(model, 200.0) @ rho0)


def test_depopulation_is_diagonal_outflow(bundled):
    for model in (bundled.transport_one, bundled.transport_two):
        np.testing.assert_allclose(model.depopulation, np.diag(model.rate_matrix))
        assert np.all(model.depopulation >= 0.0)


def test_eigendecomposition_reconstructs_rate_matrix(bundled):
    model = bundled.transport_two
    rebuilt = (model.chi_right * model.lambdas[None, :] / model.dpp[None, :]) @ model.chi_left
    assert np.abs(rebuilt - model.rate_matrix).max() < 1e-6 * np.abs(model.rate_matrix).max()


def test_general_eigendecomposition_agrees_with_symmetrized():
    rng = np.random.default_rng(3)
    energies = np.sort(rng.uniform(0.0, 300.0, 5))
    pi = np.exp(-beta_cm(150.0) * energies)
    pi /= pi.sum()
    down = rng.uniform(0.5, 2.0, (5, 5))
    k = np.zeros((5, 5))
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            # reversible rates: k_ab pi_b = k_ba pi_a by construction
            k[a, b] = -down[min(a, b), max(a, b)] * np.sqrt(pi[a] / pi[b])
    np.fill_diagonal(k, -k.sum(axis=0))

    lam, right, left, dpp = eigendecompose_transport(k, pi)
    np.testing.assert_allclose(np.sort(lam), np.sort(np.linalg.eigvals(k).real), atol=1e-10)
    phase = TWO_PI_C * 80.0
    g = (right * np.exp(-lam * phase)[None, :] / dpp[None, :]) @ left
    np.testing.assert_allclose(g, expm(-k * phase), atol=1e-9)
