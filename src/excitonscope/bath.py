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
from functools import cached_property

import numpy as np

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
        units.require(self.lambda0, "overdamped mode needs a finite lambda0 >= 0", 0.0)
        units.require(self.gamma0, "overdamped mode needs a finite gamma0 > 0", 0.0, strict=True)
        units.require(self.temperature, "temperature must be finite and positive", 0.0, strict=True)
        units.require(self.pure_dephasing, "pure_dephasing must be finite and non-negative", 0.0)
        modes = tuple(tuple(float(x) for x in mode) for mode in self.brownian_modes)
        for mode in modes:
            if len(mode) != 3:
                raise ValueError("each Brownian mode is (lambda, omega, gamma)")
            units.require(mode[0], f"invalid Brownian mode {mode}", 0.0)
            units.require(mode[1:], f"invalid Brownian mode {mode}", 0.0, strict=True)
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
    small = np.abs(w) < _OMEGA_EPS
    safe = np.where(small, 1.0, w)  # keeps coth's pole out of the discarded cells
    away = 0.5 * spectral_density(bath, safe) * (1.0 / np.tanh(0.5 * bath.beta * safe) + 1.0)
    return np.where(small, spectral_density_slope(bath) / bath.beta, away)[()]


def site_occupations(eig: ExcitonEigensystem, manifold: str) -> np.ndarray:
    """Per-site excitation numbers n[a, m] of each eigenstate.

    One-exciton states carry T1^2; two-exciton states sum squared pair
    amplitudes over pair components, counting a doubly excited site twice.
    """
    if manifold == "one":
        return eig.t1**2
    if manifold != "two":
        raise ValueError(f"unknown manifold {manifold!r}")
    # both sites of pair p in turn (a_0, b_0, a_1, b_1, ...); every site
    # lies in n + 1 of them, whose terms each occupation sums one after the
    # other in pair order
    sites = np.stack([eig.pairs.first_site, eig.pairs.second_site], axis=1).ravel()
    in_order = np.argsort(sites, kind="stable").reshape(eig.pairs.n_sites, -1)
    return np.cumsum(np.repeat(eig.t2**2, 2, axis=1)[:, in_order], axis=2)[:, :, -1]


def overlap_matrix(eig: ExcitonEigensystem, spec: AggregateSpec, manifold: str) -> np.ndarray:
    """O_ab = sum_m w_m^2 n_a(m) n_b(m), the site-overlap weight of rates."""
    occ = site_occupations(eig, manifold)
    weights = spec.bath_coupling_weights**2
    return (occ * weights) @ occ.T


@dataclass(frozen=True)
class TransportModel:
    """Secular population transport within one manifold.

    ``rate_matrix`` K acts as d rho / dt = -K rho (column sums vanish);
    ``stationary`` is its detailed-balance stationary distribution,
    ``depopulation`` holds Gamma_a (total outflow) and ``energies`` the
    state energies.  ``lambdas``, ``chi_right``, ``chi_left`` and ``dpp``
    hold the eigendecomposition K chi_R = chi_R diag(lambdas), chi_L K =
    diag(lambdas) chi_L with dpp = diag(chi_L chi_R), computed on first
    read: only a preparation reads it, for the one-exciton modes; the
    propagators read ``rate_matrix`` alone.  The coherence widths built
    from these live in :class:`excitonscope.excitation.PoleTable`.
    """

    energies: np.ndarray
    rate_matrix: np.ndarray
    stationary: np.ndarray
    depopulation: np.ndarray
    pure_dephasing: float = 0.0

    @cached_property
    def _modes(self):
        lambdas, chi_right, chi_left, dpp = eigendecompose_transport(self.rate_matrix,
                                                                     self.stationary)
        lambdas = np.where(np.abs(lambdas) < 1e-13 * max(1.0, np.abs(lambdas).max()), 0.0, lambdas)
        return lambdas, chi_right, chi_left, dpp

    lambdas = cached_property(lambda self: self._modes[0])
    chi_right = cached_property(lambda self: self._modes[1])
    chi_left = cached_property(lambda self: self._modes[2])
    dpp = cached_property(lambda self: self._modes[3])


def eigendecompose_transport(rate_matrix: np.ndarray, stationary: np.ndarray):
    """Eigendecomposition (lambdas, chi_right, chi_left, dpp) of K.

    With the detailed-balance stationary vector the decomposition goes
    through the symmetrized form D^-1/2 K D^1/2 and is orthogonal by
    construction.
    """
    k = np.asarray(rate_matrix, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("rate matrix must be square")
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

    shifted = energies - energies.min()
    stationary = np.exp(-beta * shifted)
    return TransportModel(
        energies=energies,
        rate_matrix=k,
        stationary=stationary / stationary.sum(),
        depopulation=depopulation,
        pure_dephasing=bath.pure_dephasing,
    )
