import time

import numpy as np
import pytest

from scipy.linalg import expm

from excitonscope import population_evolve, population_propagator
from excitonscope.bath import eigendecompose_transport
from excitonscope.units import TWO_PI_C, beta_cm


def _boltzmann(energies: np.ndarray, temperature: float) -> np.ndarray:
    beta = beta_cm(temperature)
    weights = np.exp(-beta * (energies - energies.min()))
    return weights / weights.sum()


@pytest.mark.parametrize("manifold", ["one", "two"])
def test_transport_suite_on_bundled_model(bundled, manifold):
    start = time.perf_counter()
    model = bundled.transport_one if manifold == "one" else bundled.transport_two
    k = model.rate_matrix
    n = model.size

    # conservation: every column of K sums to zero
    assert np.abs(k.sum(axis=0)).max() < 1e-12 * max(1.0, np.abs(k).max())

    # detailed balance against the independently computed Boltzmann weights:
    # K[a, b] pi_b = K[b, a] pi_a for every pair
    pi = _boltzmann(model.energies, bundled.bath.temperature)
    flux = k * pi[None, :]
    scale = np.abs(flux).max()
    assert np.abs(flux - flux.T).max() < 1e-12 * scale

    # G(0) is the identity; the wide manifold makes the detailed-balance
    # similarity badly conditioned, so identity holds to the semigroup level
    np.testing.assert_allclose(population_propagator(model, 0.0), np.eye(n), atol=1e-7)

    # semigroup property G(t1 + t2) = G(t1) G(t2)
    g_a = population_propagator(model, 37.0)
    g_b = population_propagator(model, 151.0)
    g_ab = population_propagator(model, 188.0)
    assert np.abs(g_ab - g_b @ g_a).max() < 1e-7

    # trace preservation along a trajectory
    rho0 = np.zeros(n)
    rho0[n - 1] = 1.0
    times = np.array([0.0, 10.0, 100.0, 1000.0, 20000.0])
    rows = population_evolve(model, rho0, times)
    assert np.all(rows >= -1e-7)
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-8

    # long-time limit is the Boltzmann distribution
    positive = model.lambdas[model.lambdas > 1e-14]
    t_relax = 40.0 / (positive.min() * TWO_PI_C)
    final = population_propagator(model, t_relax) @ rho0
    assert np.abs(final - pi).max() < 1e-6

    assert time.perf_counter() - start < 30.0


def test_propagator_rejects_negative_time(bundled):
    with pytest.raises(ValueError):
        population_propagator(bundled.transport_one, -1.0)


def test_population_evolve_rows_follow_times(bundled):
    model = bundled.transport_one
    rho0 = np.zeros(model.size)
    rho0[0] = 1.0
    times = [50.0, 200.0]
    rows = population_evolve(model, rho0, times)
    assert rows.shape == (2, model.size)
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
