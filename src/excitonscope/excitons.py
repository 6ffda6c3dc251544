"""One- and two-exciton Hamiltonians, eigenstates and transition dipoles.

The one-exciton block is ``H1[m, n] = E_m delta_mn + J_mn``.  The
two-exciton block lives in the pair basis of :class:`~excitonscope.aggregate.PairIndex`:

* diagonal: ``E_m + E_n + U2_mn`` for combinations, ``2 E_m + U1_m`` for
  overtones;
* pairs sharing exactly one site couple through the hopping of the other
  two sites, ``<(mn)|H|(ml)> = J_nl``, with an extra ``sqrt(2)`` when one
  of the two kets is an overtone;
* pairs sharing no site are uncoupled (single-excitation hopping).

Eigenvectors are returned with a deterministic sign: the first component
whose magnitude exceeds a tolerance is made positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import AggregateSpec, PairIndex

_SIGN_TOL = 1e-12


def build_one_exciton_hamiltonian(spec: AggregateSpec) -> np.ndarray:
    return np.diag(spec.site_energies) + spec.couplings


def build_two_exciton_hamiltonian(spec: AggregateSpec, pairs: PairIndex) -> np.ndarray:
    if pairs.n_sites != spec.n_sites:
        raise ValueError("pair index does not match the aggregate size")
    energies = spec.site_energies
    j = spec.couplings
    u1 = spec.onsite_anharmonicity
    u2 = spec.pair_anharmonicity
    a = pairs.first_site
    b = pairs.second_site
    size = pairs.size
    h2 = np.zeros((size, size))

    diag = energies[a] + energies[b] + u2[a, b]
    over = pairs.overtone_mask
    diag[over] = 2.0 * energies[a[over]] + u1[a[over]]
    np.fill_diagonal(h2, diag)

    p, q = np.triu_indices(size, 1)
    ap, bp, aq, bq = a[p], b[p], a[q], b[q]
    bp_in_q = (bp == aq) | (bp == bq)
    bq_in_p = (bq == ap) | (bq == bp)
    shared = ((ap == aq) | (ap == bq)).astype(int) + (bp_in_q & (ap != bp))
    hop = shared == 1
    # with one site shared, each pair hops from its other site; an
    # overtone's other site is its own
    u = np.where(bp_in_q, ap, bp)[hop]
    v = np.where(bq_in_p, aq, bq)[hop]
    element = j[u, v] * np.where(over[p] | over[q], math.sqrt(2.0), 1.0)[hop]
    h2[p[hop], q[hop]] = element
    h2[q[hop], p[hop]] = element
    return h2


def diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and sign-fixed eigenvector columns of ``h``."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains non-finite entries")
    if not np.all(np.abs(h - h.T) <= 1e-9 * max(1.0, float(np.abs(h).max()))):
        raise ValueError("matrix must be symmetric")
    values, vectors = np.linalg.eigh(h)
    # the first entry above the tolerance of each column is made positive;
    # a unit column always has one
    first = np.argmax(np.abs(vectors) > _SIGN_TOL, axis=0)
    flip = vectors[first, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] = -vectors[:, flip]
    return values, vectors


@dataclass(frozen=True)
class ExcitonEigensystem:
    """Eigenstates of both excitation manifolds of an aggregate.

    ``t1[a, m]`` is the site-m amplitude of one-exciton state ``a`` and
    ``t2[k, p]`` the pair-basis amplitude of two-exciton state ``k``;
    energies are sorted ascending within each manifold.
    """

    energies_e: np.ndarray
    energies_f: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    pairs: PairIndex

    @classmethod
    def from_spec(cls, spec: AggregateSpec) -> "ExcitonEigensystem":
        pairs = PairIndex(spec.n_sites)
        e_vals, e_vecs = diagonalize(build_one_exciton_hamiltonian(spec))
        f_vals, f_vecs = diagonalize(build_two_exciton_hamiltonian(spec, pairs))
        return cls(
            energies_e=e_vals,
            energies_f=f_vals,
            t1=np.ascontiguousarray(e_vecs.T),
            t2=np.ascontiguousarray(f_vecs.T),
            pairs=pairs,
        )

    @property
    def n_one(self) -> int:
        return self.energies_e.size

    @property
    def n_two(self) -> int:
        return self.energies_f.size

    def omega_fe(self) -> np.ndarray:
        """Gap matrix ``energies_f[:, None] - energies_e[None, :]``."""
        return self.energies_f[:, None] - self.energies_e[None, :]


@dataclass(frozen=True)
class TransitionDipoles:
    """Cartesian transition dipoles between manifolds.

    ``d_eg[a]`` connects the ground state to one-exciton state ``a``;
    ``d_fe[k, a]`` connects one-exciton state ``a`` to two-exciton state
    ``k``.  ``project`` yields the signed scalar amplitudes along a fixed
    polarization axis that enter every signal expression.
    """

    d_eg: np.ndarray
    d_fe: np.ndarray

    def project(self, axis) -> tuple[np.ndarray, np.ndarray]:
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or norm == 0.0:
            raise ValueError("polarization axis must be a non-zero 3-vector")
        unit = axis / norm
        return self.d_eg @ unit, self.d_fe @ unit

    def magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.norm(self.d_eg, axis=-1), np.linalg.norm(self.d_fe, axis=-1)


def compute_transition_dipoles(eig: ExcitonEigensystem, spec: AggregateSpec) -> TransitionDipoles:
    """Assemble d_eg and d_fe from eigenvectors and site dipoles.

    In the pair basis a site dipole raises ``|n> -> |mn>`` with unit
    amplitude for ``m != n`` and ``|m> -> |mm>`` with amplitude sqrt(2),
    mirroring the doubly excited local level of a three-level site.
    """
    mu = spec.site_dipoles
    d_eg = eig.t1 @ mu

    a = eig.pairs.first_site
    b = eig.pairs.second_site
    # contribution[p, e, :] = T1[e, b_p] mu[a_p] + T1[e, a_p] mu[b_p], with the
    # overtone rows (a_p == b_p) rescaled from 2 T1 mu to sqrt(2) T1 mu.
    contribution = (
        eig.t1[:, b].T[:, :, None] * mu[a][:, None, :]
        + eig.t1[:, a].T[:, :, None] * mu[b][:, None, :]
    )
    over = eig.pairs.overtone_mask
    contribution[over] *= math.sqrt(2.0) / 2.0
    d_fe = np.einsum("kp,pex->kex", eig.t2, contribution)
    return TransitionDipoles(d_eg=d_eg, d_fe=d_fe)
