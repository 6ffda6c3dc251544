"""Phonon bath: spectral density, correlation function, dephasing, transport.

The spectral density is one overdamped Drude-Lorentz term plus a set of
underdamped Brownian modes,

    J(w) = 2 l0 g0 w / (w^2 + g0^2)
         + sum_j 2 l_j w_j^2 w g_j / ((w_j^2 - w^2)^2 + w^2 g_j^2).

The half-Fourier transform of the bath correlation has the closed real
part Re C(W) = J(W) (coth(bW/2) + 1) / 2, which obeys detailed balance
Re C(W) / Re C(-W) = exp(bW) identically.  Population transport between
exciton states uses secular rates Re C(w_ab) weighted by the squared
eigenvector overlap of the two states on each site, with the uphill rate
fixed by the exact Boltzmann factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from . import units
from .aggregate import AggregateSpec
from .excitons import ExcitonEigensystem

_OMEGA_EPS = 1e-10


@dataclass(frozen=True)
class BathSpec:
    """Overdamped reorganization ``lambda0`` / width ``gamma0`` (cm^-1), a
    list of Brownian modes ``(lambda_j, omega_j, gamma_j)`` and a
    temperature in kelvin."""

    lambda0: float
    gamma0: float
    brownian_modes: tuple = field(default_factory=tuple)
    temperature: float = units.DEFAULT_TEMPERATURE_K
    pure_dephasing: float = 0.0

    def __post_init__(self):
        if self.lambda0 < 0.0 or self.gamma0 <= 0.0:
            raise ValueError("overdamped mode needs lambda0 >= 0 and gamma0 > 0")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.pure_dephasing < 0.0:
            raise ValueError("pure_dephasing must be non-negative")
        modes = tuple(tuple(float(x) for x in mode) for mode in self.brownian_modes)
        for mode in modes:
            if len(mode) != 3:
                raise ValueError("each Brownian mode is (lambda, omega, gamma)")
            lam, omega, gamma = mode
            if lam < 0.0 or omega <= 0.0 or gamma <= 0.0:
                raise ValueError(f"invalid Brownian mode {mode}")
        object.__setattr__(self, "brownian_modes", modes)

    @property
    def beta(self) -> float:
        return units.beta_cm(self.temperature)


def spectral_density(bath: BathSpec, omega) -> np.ndarray:
    """Antisymmetric spectral density J(omega) in cm^-1."""
    w = np.asarray(omega, dtype=float)
    out = 2.0 * bath.lambda0 * bath.gamma0 * w / (w * w + bath.gamma0**2)
    for lam, wj, gj in bath.brownian_modes:
        out = out + 2.0 * lam * wj**2 * w * gj / ((wj**2 - w * w) ** 2 + (w * gj) ** 2)
    return out


def spectral_density_slope(bath: BathSpec) -> float:
    """dJ/domega at omega = 0."""
    slope = 2.0 * bath.lambda0 / bath.gamma0
    for lam, wj, gj in bath.brownian_modes:
        slope += 2.0 * lam * gj / wj**2
    return slope


def phonon_correlation_real(bath: BathSpec, omega) -> np.ndarray:
    """Re C(omega) = J(omega) (coth(beta omega / 2) + 1) / 2, continuous at 0.

    The omega -> 0 limit is k_B T dJ/domega.
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.empty_like(w)
    small = np.abs(w) < _OMEGA_EPS
    if np.any(small):
        out[small] = spectral_density_slope(bath) / bath.beta
    big = ~small
    if np.any(big):
        wb = w[big]
        x = 0.5 * bath.beta * wb
        out[big] = 0.5 * spectral_density(bath, wb) * (1.0 / np.tanh(x) + 1.0)
    return out[0] if scalar else out


def phonon_correlation(bath: BathSpec, omega, include_imag: bool = False):
    """C(omega) with the real part in closed form.

    The imaginary (principal-value) part is off by default; when requested
    it is computed by Cauchy-weighted quadrature, which is slow and only
    meant for diagnostics.
    """
    real = phonon_correlation_real(bath, omega)
    if not include_imag:
        return real + 0.0j
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    imag = np.array([_imag_correlation_pv(bath, float(x)) for x in w])
    result = np.atleast_1d(real) + 1.0j * imag
    return result[0] if np.asarray(omega).ndim == 0 else result


def _imag_correlation_pv(bath: BathSpec, big_omega: float) -> float:
    beta = bath.beta

    def symmetric(w):
        return spectral_density(bath, w) / np.tanh(0.5 * beta * w)

    def antisymmetric(w):
        return spectral_density(bath, w)

    cutoff = max(bath.gamma0 * 60.0, abs(big_omega) * 8.0 + 200.0)
    for _, wj, gj in bath.brownian_modes:
        cutoff = max(cutoff, (wj + 10.0 * gj) * 4.0)

    def pv(func, pole):
        total = 0.0
        for lo, hi in ((-cutoff, pole - 1.0), (pole - 1.0, pole + 1.0), (pole + 1.0, cutoff)):
            if lo >= hi:
                continue
            if lo < pole < hi:
                val, _ = integrate.quad(func, lo, hi, weight="cauchy", wvar=pole, limit=400)
            else:
                val, _ = integrate.quad(lambda w: func(w) / (w - pole), lo, hi, limit=400)
            total += val
        return total

    sym = pv(lambda w: 0.5 * symmetric(w), big_omega) + pv(lambda w: 0.5 * symmetric(w), -big_omega)
    asym = pv(lambda w: 0.5 * antisymmetric(w), big_omega) - pv(lambda w: 0.5 * antisymmetric(w), -big_omega)
    return (sym + asym) / (2.0 * np.pi)


def site_occupations(eig: ExcitonEigensystem, manifold: str) -> np.ndarray:
    """Per-site excitation numbers n[a, m] of each eigenstate.

    One-exciton states carry T1^2; two-exciton states sum squared pair
    amplitudes over pair components, counting a doubly excited site twice.
    """
    if manifold == "one":
        return eig.t1**2
    if manifold != "two":
        raise ValueError(f"unknown manifold {manifold!r}")
    occ = np.zeros((eig.n_two, eig.pairs.n_sites))
    # both sites of pair p in turn (a_0, b_0, a_1, b_1, ...), so every
    # occupation accumulates its terms in pair order
    sites = np.stack([eig.pairs.first_site, eig.pairs.second_site], axis=1).ravel()
    np.add.at(occ, (slice(None), sites), np.repeat(eig.t2**2, 2, axis=1))
    return occ


def overlap_matrix(eig: ExcitonEigensystem, spec: AggregateSpec, manifold: str) -> np.ndarray:
    """O_ab = sum_m w_m^2 n_a(m) n_b(m), the site-overlap weight of rates."""
    occ = site_occupations(eig, manifold)
    weights = spec.bath_coupling_weights**2
    return (occ * weights) @ occ.T


@dataclass(frozen=True)
class TransportModel:
    """Secular population transport within one manifold.

    ``rate_matrix`` K acts as d rho / dt = -K rho (column sums vanish);
    ``lambdas``, ``chi_right``, ``chi_left`` and ``dpp`` hold its
    eigendecomposition K chi_R = chi_R diag(lambdas), chi_L K =
    diag(lambdas) chi_L with dpp = diag(chi_L chi_R); ``depopulation``
    holds Gamma_a (total outflow) and ``energies`` the state energies.
    """

    energies: np.ndarray
    rate_matrix: np.ndarray
    lambdas: np.ndarray
    chi_right: np.ndarray
    chi_left: np.ndarray
    dpp: np.ndarray
    depopulation: np.ndarray
    stationary: np.ndarray
    pure_dephasing: float = 0.0
    isolated_states: tuple = ()

    @property
    def size(self) -> int:
        return self.energies.size

    def coherence_width(self, other: "TransportModel | None" = None) -> np.ndarray:
        """gamma_ab = (Gamma_a + Gamma_b)/2 + pure dephasing, pairwise.

        With ``other`` given, rows index this manifold and columns the
        other one; the ground state is modelled by ``other=None`` rows of
        zeros via :func:`ground_reference`.
        """
        ga = self.depopulation[:, None]
        gb = self.depopulation[None, :] if other is None else other.depopulation[None, :]
        return 0.5 * (ga + gb) + self.pure_dephasing


def ground_reference(energy: float = 0.0) -> TransportModel:
    """Trivial one-state transport model representing the shared ground state."""
    one = np.ones((1, 1))
    return TransportModel(
        energies=np.array([energy]),
        rate_matrix=np.zeros((1, 1)),
        lambdas=np.zeros(1),
        chi_right=one.copy(),
        chi_left=one.copy(),
        dpp=np.ones(1),
        depopulation=np.zeros(1),
        stationary=np.ones(1),
    )


def eigendecompose_transport(rate_matrix: np.ndarray, stationary: np.ndarray | None = None):
    """Eigendecomposition (lambdas, chi_right, chi_left, dpp) of K.

    With a detailed-balance stationary vector the decomposition goes
    through the symmetrized form D^-1/2 K D^1/2 and is orthogonal by
    construction; otherwise a general eigensolve is used and an
    ill-conditioned eigenbasis (defective K) raises.
    """
    k = np.asarray(rate_matrix, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("rate matrix must be square")
    if stationary is not None:
        pi = np.asarray(stationary, dtype=float)
        if pi.shape != (k.shape[0],) or np.any(pi <= 0.0):
            raise ValueError("stationary weights must be positive with one entry per state")
        root = np.sqrt(pi)
        sym = k * (root[None, :] / root[:, None])
        sym = 0.5 * (sym + sym.T)
        lambdas, u = np.linalg.eigh(sym)
        order = np.argsort(lambdas)
        lambdas = lambdas[order]
        u = u[:, order]
        chi_right = u * root[:, None]
        chi_left = u.T / root[None, :]
        dpp = np.ones_like(lambdas)
        return lambdas, chi_right, chi_left, dpp
    values, vectors = np.linalg.eig(k)
    cond = np.linalg.cond(vectors)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            "transport matrix eigenbasis is ill-conditioned (nearly defective); "
            "perturb degenerate rates or supply the stationary vector"
        )
    order = np.argsort(values.real)
    values = values[order]
    vectors = vectors[:, order]
    if np.abs(values.imag).max(initial=0.0) < 1e-9 * max(1.0, np.abs(values.real).max(initial=0.0)):
        values = values.real
    left = np.linalg.inv(vectors)
    return values, vectors, left, np.ones(k.shape[0])


def build_transport_matrix(
    eig: ExcitonEigensystem,
    spec: AggregateSpec,
    bath: BathSpec,
    manifold: str,
) -> TransportModel:
    """Secular transport matrix of a manifold with exact detailed balance.

    The downhill rate for a pair (a above b) is Re C(w_ab) O_ab and the
    uphill partner is that rate times exp(-beta w_ab), so the Boltzmann
    ratio between the two off-diagonal entries is exact by construction.
    """
    energies = eig.energies_e if manifold == "one" else eig.energies_f
    overlap = overlap_matrix(eig, spec, manifold)
    n = energies.size
    beta = bath.beta
    # energies are sorted ascending, so state a lies above state b
    a, b = np.tril_indices(n, -1)
    gap = energies[a] - energies[b]
    down = phonon_correlation_real(bath, gap) * overlap[a, b]
    up = down * np.exp(-beta * gap)
    k = np.zeros((n, n))
    k[b, a] = -down
    k[a, b] = -up
    np.fill_diagonal(k, -k.sum(axis=0))
    depopulation = np.diag(k).copy()
    isolated = tuple(int(i) for i in np.nonzero(depopulation <= 0.0)[0]) if n > 1 else ()

    shifted = energies - energies.min()
    stationary = np.exp(-beta * shifted)
    stationary = stationary / stationary.sum()
    lambdas, chi_right, chi_left, dpp = eigendecompose_transport(k, stationary)
    lambdas = np.where(np.abs(lambdas) < 1e-13 * max(1.0, np.abs(lambdas).max()), 0.0, lambdas)
    return TransportModel(
        energies=energies,
        rate_matrix=k,
        lambdas=lambdas,
        chi_right=chi_right,
        chi_left=chi_left,
        dpp=dpp,
        depopulation=depopulation,
        stationary=stationary,
        pure_dephasing=bath.pure_dephasing,
        isolated_states=isolated,
    )
