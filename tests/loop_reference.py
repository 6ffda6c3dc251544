"""Plain-loop references for the model build.

The library builds the two-exciton Hamiltonian, the per-site occupations
and the secular rate matrices from array expressions.  These are the same
quantities written one pair at a time, in the order the arithmetic is
done, so the array versions must reproduce them bit for bit.
"""

import math

import numpy as np

from excitonscope.bath import phonon_correlation_real


def loop_two_exciton_hamiltonian(spec, pairs):
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

    sqrt2 = math.sqrt(2.0)
    for p in range(size):
        ap, bp = a[p], b[p]
        for q in range(p + 1, size):
            aq, bq = a[q], b[q]
            shared = {ap, bp} & {aq, bq}
            if len(shared) != 1:
                continue
            s = shared.pop()
            u = ap if bp == s else bp
            v = aq if bq == s else bq
            element = j[u, v]
            if ap == bp or aq == bq:
                element *= sqrt2
            h2[p, q] = element
            h2[q, p] = element
    return h2


def loop_site_occupations(eig, manifold):
    if manifold == "one":
        return eig.t1**2
    t2sq = eig.t2**2
    occ = np.zeros((eig.n_two, eig.pairs.n_sites))
    a = eig.pairs.first_site
    b = eig.pairs.second_site
    for p in range(eig.pairs.size):
        occ[:, a[p]] += t2sq[:, p]
        occ[:, b[p]] += t2sq[:, p]
    return occ


def loop_rate_matrix(eig, spec, bath, manifold):
    """K with one scalar Re C(w_ab) call per pair of states."""
    energies = eig.energies_e if manifold == "one" else eig.energies_f
    occ = loop_site_occupations(eig, manifold)
    overlap = (occ * spec.bath_coupling_weights**2) @ occ.T
    n = energies.size
    beta = bath.beta
    k = np.zeros((n, n))
    for a in range(n):
        for b in range(a):
            gap = energies[a] - energies[b]
            down = phonon_correlation_real(bath, gap) * overlap[a, b]
            up = down * np.exp(-beta * gap)
            k[b, a] = -down
            k[a, b] = -up
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, -k.sum(axis=0))
    return k
