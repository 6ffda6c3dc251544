import time

import numpy as np
import pytest

from excitonscope import (
    AggregateSpec,
    ExcitonEigensystem,
    PairIndex,
    build_one_exciton_hamiltonian,
    build_two_exciton_hamiltonian,
    compute_transition_dipoles,
)
from excitonscope.excitons import diagonalize

from conftest import make_dimer, make_trimer
from product_space import sector_eigensystems, sector_transition_dipoles

SQRT2 = np.sqrt(2.0)


def generic_aggregate(n: int) -> AggregateSpec:
    rng = np.random.default_rng(100 + n)
    energies = 12000.0 + 380.0 * np.arange(n) + rng.uniform(-40.0, 40.0, n)
    j = rng.uniform(-60.0, 60.0, (n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    u2 = rng.uniform(-110.0, 40.0, (n, n))
    u2 = 0.5 * (u2 + u2.T)
    np.fill_diagonal(u2, 0.0)
    u1 = rng.uniform(-260.0, 140.0, n)
    dipoles = rng.normal(0.0, 0.8, (n, 3))
    return AggregateSpec(energies, j, u1, u2, dipoles, np.ones(n))


def test_manifold_counting():
    # one state per site, one pair state per unordered site pair
    start = time.perf_counter()
    for n in range(1, 7):
        eig = ExcitonEigensystem.from_spec(generic_aggregate(n))
        assert eig.n_one == n
        assert eig.n_two == n * (n + 1) // 2
        assert eig.t1.shape == (n, n)
        assert eig.t2.shape == (eig.n_two, eig.n_two)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_zero_coupling_pair_energies_add():
    spec = generic_aggregate(4)
    decoupled = AggregateSpec(
        spec.site_energies, np.zeros((4, 4)), spec.onsite_anharmonicity,
        spec.pair_anharmonicity, spec.site_dipoles, spec.bath_coupling_weights,
    )
    eig = ExcitonEigensystem.from_spec(decoupled)
    e = decoupled.site_energies
    u1 = decoupled.onsite_anharmonicity
    u2 = decoupled.pair_anharmonicity
    expected = []
    for m in range(4):
        expected.append(2.0 * e[m] + u1[m])
        for n in range(m + 1, 4):
            expected.append(e[m] + e[n] + u2[m, n])
    np.testing.assert_allclose(eig.energies_f, np.sort(expected), rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(eig.energies_e, np.sort(e), rtol=0.0, atol=1e-9)


def test_pair_basis_coupling_structure():
    def flat(pairs, m, n):
        return int(np.flatnonzero((pairs.first_site == m) & (pairs.second_site == n))[0])

    spec = make_trimer()
    pairs = PairIndex(3)
    h2 = build_two_exciton_hamiltonian(spec, pairs)
    j = spec.couplings
    # overtone-combination elements pick up sqrt(2)
    assert h2[flat(pairs, 0, 0), flat(pairs, 0, 1)] == pytest.approx(SQRT2 * j[0, 1])
    assert h2[flat(pairs, 1, 1), flat(pairs, 1, 2)] == pytest.approx(SQRT2 * j[1, 2])
    # combination-combination elements hop the non-shared site
    assert h2[flat(pairs, 0, 1), flat(pairs, 0, 2)] == pytest.approx(j[1, 2])
    assert h2[flat(pairs, 0, 1), flat(pairs, 1, 2)] == pytest.approx(j[0, 2])
    # disjoint pairs never couple
    four = generic_aggregate(4)
    p4 = PairIndex(4)
    h4 = build_two_exciton_hamiltonian(four, p4)
    assert h4[flat(p4, 0, 1), flat(p4, 2, 3)] == 0.0


def test_monomer_overtone_dipole():
    spec = generic_aggregate(1)
    eig = ExcitonEigensystem.from_spec(spec)
    dipoles = compute_transition_dipoles(eig, spec)
    np.testing.assert_allclose(np.abs(dipoles.d_eg[0]), np.abs(spec.site_dipoles[0]))
    np.testing.assert_allclose(
        np.abs(dipoles.d_fe[0, 0]), SQRT2 * np.abs(spec.site_dipoles[0]), rtol=1e-12
    )


@pytest.mark.parametrize("spec_factory", [make_dimer, make_trimer])
def test_product_space_oracle(spec_factory):
    # full 3^N reference: energies and dipoles to 1e-9
    start = time.perf_counter()
    spec = spec_factory()
    eig = ExcitonEigensystem.from_spec(spec)
    sectors = sector_eigensystems(spec)

    e_vals, _ = sectors[1]
    f_vals, _ = sectors[2]
    np.testing.assert_allclose(eig.energies_e, e_vals, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(eig.energies_f, f_vals, rtol=0.0, atol=1e-9)

    (e_vals, d_eg_ref), (f_vals, d_fe_ref) = sector_transition_dipoles(spec)
    dipoles = compute_transition_dipoles(eig, spec)
    np.testing.assert_allclose(
        np.abs(dipoles.d_eg), np.abs(d_eg_ref), rtol=0.0, atol=1e-9
    )
    np.testing.assert_allclose(
        np.abs(dipoles.d_fe), np.abs(d_fe_ref), rtol=0.0, atol=1e-9
    )
    assert time.perf_counter() - start < 5.0


def test_product_space_oracle_with_couplings_scaled():
    # stays exact when couplings dominate the level structure
    spec = make_trimer()
    strong = AggregateSpec(
        spec.site_energies, 4.0 * spec.couplings, spec.onsite_anharmonicity,
        spec.pair_anharmonicity, spec.site_dipoles, spec.bath_coupling_weights,
    )
    eig = ExcitonEigensystem.from_spec(strong)
    sectors = sector_eigensystems(strong)
    np.testing.assert_allclose(eig.energies_e, sectors[1][0], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(eig.energies_f, sectors[2][0], rtol=0.0, atol=1e-9)


def test_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        diagonalize(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_diagonalize_sign_convention():
    values, vectors = diagonalize(np.array([[2.0, 0.4], [0.4, 1.0]]))
    assert np.all(np.diff(values) >= 0.0)
    for col in vectors.T:
        lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
        assert lead > 0.0


def test_eigenvectors_orthonormal(bundled):
    eig = bundled.eig
    np.testing.assert_allclose(eig.t1 @ eig.t1.T, np.eye(eig.n_one), atol=1e-12)
    np.testing.assert_allclose(eig.t2 @ eig.t2.T, np.eye(eig.n_two), atol=1e-12)
    assert eig.n_one == 14
    assert eig.n_two == 105


def test_omega_fe_gap_matrix(dimer_system):
    eig = dimer_system.eig
    gaps = eig.omega_fe()
    assert gaps.shape == (3, 2)
    assert gaps[0, 0] == pytest.approx(eig.energies_f[0] - eig.energies_e[0])
