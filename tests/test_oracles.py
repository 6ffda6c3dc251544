"""The brute-force oracles and reference forms live with the tests, not in
the package.

Checks the Catmull-Rom operator through which the quadrature oracle pulls
its field tables, and pins the public names the package exports.
"""

import importlib

import numpy as np
import pytest

import excitonscope

from quadrature_oracle import RegGrid, _pull

GRID = RegGrid(start=-3.7, step=0.31, n=40)


def _queries(n: int, seed: int) -> np.ndarray:
    # spread over the interior, where every query has all four taps
    rng = np.random.default_rng(seed)
    return GRID.start + GRID.step * rng.uniform(1.0, GRID.n - 3.0, n)


def test_pull_is_the_explicit_four_tap_sum():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(GRID.n, 6)) + 1j * rng.normal(size=(GRID.n, 6))
    q = _queries(200, 6)
    s = (q - GRID.start) / GRID.step
    base = np.floor(s).astype(int)
    f = s - base
    taps = [(-f + 2 * f**2 - f**3) / 2, (2 - 5 * f**2 + 3 * f**3) / 2,
            (f + 4 * f**2 - 3 * f**3) / 2, (f**3 - f**2) / 2]
    explicit = sum(w[:, None] * table[base - 1 + k] for k, w in enumerate(taps))
    got = _pull(GRID, q) @ table
    assert np.abs(got - explicit).max() <= 1e-14 * np.abs(explicit).max()

    # a 2-D query sums its rows with the weights, as the pulls one by one
    q2 = q.reshape(40, 5)
    weight = rng.normal(size=5) + 1j * rng.normal(size=5)
    one_by_one = sum(weight[j] * (_pull(GRID, q2[:, j]) @ table) for j in range(5))
    summed = _pull(GRID, q2, weight) @ table
    assert np.abs(summed - one_by_one).max() <= 1e-14 * np.abs(one_by_one).max()


def test_pull_reproduces_a_quadratic():
    x = GRID.values
    table = np.stack([3.0 - 2.0 * x + 0.7 * x**2, 1.5 * x**2], axis=1)
    q = _queries(300, 7)
    exact = np.stack([3.0 - 2.0 * q + 0.7 * q**2, 1.5 * q**2], axis=1)
    got = _pull(GRID, q) @ table
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


def test_oracles_are_not_public():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("excitonscope.quadrature")
    assert excitonscope.__all__ == [
        "AggregateSpec", "BathSpec", "CoherentSource", "EppSource",
        "ExcitonEigensystem", "ExcitonSystem", "FilterSpec", "PairIndex",
        "PreparationResult", "ScanResult", "SignalGrid", "TransitionDipoles",
        "TransportModel", "build_one_exciton_hamiltonian",
        "build_transport_matrix", "build_two_exciton_hamiltonian",
        "bundled_aggregate", "bundled_system", "coincidence_snapshot",
        "compute_transition_dipoles", "jsi_map",
        "parameter_study", "population_evolve", "population_propagator",
        "prepare_closed_form", "reference_bath", "scan_source", "scan_targets",
        "spectral_density", "__version__",
    ]
    # the detector's reference forms live in tests/detector_reference.py
    for name in ("spectral_gate", "temporal_gate", "spectrogram", "filtered_lineshape",
                 "_lineshape_branches"):
        assert not hasattr(excitonscope.coincidence, name), name
