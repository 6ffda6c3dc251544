"""Plain-loop references for the model build, the transport pathways and the detection stage.

The library builds the two-exciton Hamiltonian, the per-site occupations,
the secular rate matrices, the pole widths and the factorized coincidence
map from array expressions.  These are the same quantities written one
pair at a time, in the order the arithmetic is done, so the array versions
must reproduce them bit for bit; the map alone sums its two lineshape
branches in closed form and so matches its two-branch loop to rounding.
The map's closed form is also written plainly, with a fresh array for
every intermediate, which its in-place kernel must reproduce bit for bit.
The transport pathways of the preparation are written the same way in
extended precision, as the reference for the closed form's rounding.
``pole_chains`` gives these references and the quadrature oracle the two
pole families the pathway chains name but the library does not hold.
"""

import math
from types import SimpleNamespace

import numpy as np

from excitonscope import excitation
from excitonscope.bath import phonon_correlation_real
from excitonscope.coincidence import _check_negative_branch
from excitonscope.excitation import WIDTH_FLOOR_TRIGGER, WIDTH_FLOOR_VALUE
from excitonscope.propagators import population_evolve, population_propagator
from excitonscope.units import TWO_PI_C

from detector_reference import lineshape_branches


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


def loop_pole_table(system):
    """Floored width of every pole family, one element at a time, and
    the number of floored widths in each family.

    gamma_ab = (Gamma_a + Gamma_b)/2 + pure dephasing with Gamma = 0 for the
    ground state; ``ff`` holds Gamma_f and ``modes`` lambda_p.  A width
    below the trigger is replaced by the floor value.
    """
    g1 = system.transport_one.depopulation
    g2 = system.transport_two.depopulation
    pure = system.bath.pure_dephasing
    floored = {}

    def floor(family, width):
        floored.setdefault(family, 0)
        if width < WIDTH_FLOOR_TRIGGER:
            floored[family] += 1
            return WIDTH_FLOOR_VALUE
        return width

    def coherence(family, gamma_a, gamma_b):
        return floor(family, 0.5 * (gamma_a + gamma_b) + pure)

    widths = {
        "eg": [coherence("eg", g1[e], 0.0) for e in range(g1.size)],
        "fg": [coherence("fg", g2[f], 0.0) for f in range(g2.size)],
        "fe": [[coherence("fe", g2[f], g1[e]) for e in range(g1.size)] for f in range(g2.size)],
        "ee": [[coherence("ee", g1[a], g1[b]) for b in range(g1.size)] for a in range(g1.size)],
        "ff": [floor("ff", g2[f]) for f in range(g2.size)],
        "modes": [floor("modes", lam) for lam in system.transport_one.lambdas],
    }
    return {name: np.array(w, dtype=float) for name, w in widths.items()}, floored


def pole_chains(system):
    """The system's pole table with the two families the pathway chains
    name but the table does not hold: the one-exciton coherence poles
    ee[a, b] = (E_a - E_b) - i gamma_ab and the mirrored
    ef[f, e] = -w_fe - i gamma_fe, each width floored as the table's."""
    widths = excitation._widths(system)
    e = system.eig.energies_e
    return SimpleNamespace(
        **vars(system.poles),
        ee=(e[:, None] - e[None, :]) - 1j * excitation._floored(widths["ee"]),
        ef=-system.eig.omega_fe() - 1j * excitation._floored(widths["fe"]),
    )


def loop_signed_map(system, rho_ff, filter_fe, filter_eg, grid):
    """Max-normalized coincidence map before clipping, one (f', e) emitter
    pair and one e' emitter at a time; pairs of zero weight are skipped."""
    w_fe, g_fe, w_eg, g_eg, dd_fe, dd_eg = system.detection_tables
    populations_f = population_propagator(system.transport_two, grid.t_wait_two) @ rho_ff
    green_e = population_propagator(system.transport_one, grid.t_wait_one)

    side_fe = np.zeros((system.n_one, grid.omega_fe.size), dtype=complex)
    for fp in range(system.n_two):
        for e in range(system.n_one):
            weight = populations_f[fp] * dd_fe[fp, e]
            if weight == 0.0:
                continue
            pos, neg = lineshape_branches(
                grid.omega_fe, w_fe[fp, e], g_fe[fp, e],
                filter_fe.sigma_omega, filter_fe.sigma_t,
            )
            side_fe[e] += weight * (pos + neg)

    side_eg = np.zeros((system.n_one, grid.omega_eg.size), dtype=complex)
    for ep in range(system.n_one):
        pos, _ = lineshape_branches(
            grid.omega_eg, w_eg[ep], g_eg[ep],
            filter_eg.sigma_omega, filter_eg.sigma_t,
        )
        side_eg += dd_eg[ep] * np.outer(green_e[ep, :], pos)

    signal = 2.0 * np.real(np.einsum("ei,ej->ij", side_fe, side_eg))
    peak = np.abs(signal).max(initial=0.0)
    if peak > 0.0:
        signal = signal / peak
    return signal


def loop_coincidence_snapshot(system, rho_ff, filter_fe, filter_eg, grid):
    """Normalized, clipped coincidence map of :func:`loop_signed_map` and
    its clipped cell count."""
    signal = loop_signed_map(system, rho_ff, filter_fe, filter_eg, grid)
    return np.clip(signal, 0.0, None), int(np.count_nonzero(signal < 0.0))


def branch_sum(detune, gamma_ab, sigma_omega, sigma_t, weight):
    """``weight`` times the sum of both branches of ``lineshape_branches``
    in the closed form of ``coincidence._emission_side``, as its real and
    imaginary parts."""
    a_pos = sigma_omega + sigma_t + gamma_ab
    a_neg = sigma_omega - sigma_t + gamma_ab
    p = detune * detune + a_pos * a_neg
    q = (2.0 * sigma_t) * detune
    r = (weight * (0.5 / sigma_omega / TWO_PI_C) * (a_pos + a_neg)) / (p * p + q * q)
    return r * p, r * q


def plain_snapshot(system, rho_ff, filter_fe, filter_eg, grid):
    """The closed-form coincidence map with a fresh array for every
    intermediate: the map, its clipped cell count and its clipped fraction
    (None where cells were clipped and none is positive)."""
    poles = system.poles
    w_fe, g_fe, w_eg, g_eg = poles.fe.real, -poles.fe.imag, poles.eg.real, -poles.eg.imag
    dm_eg, dm_fe = system.dipoles.magnitudes()
    dd_fe, dd_eg = dm_fe**2, dm_eg**2
    _check_negative_branch(filter_fe, float(g_fe.min()))
    populations_f = population_evolve(system.transport_two, rho_ff, grid.t_wait_two)
    weight = populations_f[:, None] * dd_fe
    side_re = np.empty((system.n_one, grid.omega_fe.size))
    side_im = np.empty_like(side_re)
    for e in range(system.n_one):
        re, im = branch_sum(
            grid.omega_fe - w_fe[:, e, None], g_fe[:, e, None],
            filter_fe.sigma_omega, filter_fe.sigma_t, weight[:, e, None],
        )
        side_re[e] = re.sum(axis=0)
        side_im[e] = im.sum(axis=0)

    green_e = population_propagator(system.transport_one, grid.t_wait_one)
    pos, _ = lineshape_branches(
        grid.omega_eg, w_eg[:, None], g_eg[:, None],
        filter_eg.sigma_omega, filter_eg.sigma_t,
    )
    side_eg = (dd_eg[:, None] * green_e).T @ pos
    signal = 2.0 * (side_re.T @ side_eg.real - side_im.T @ side_eg.imag)
    peak = np.abs(signal).max(initial=0.0)
    if peak > 0.0:
        signal = signal / peak
    negative = signal < 0.0
    clipped = int(np.count_nonzero(negative))
    result = np.clip(signal, 0.0, None)
    fraction = 0.0
    if clipped:
        positive = result.sum()
        fraction = float(-signal[negative].sum() / positive) if positive > 0.0 else None
    return result, clipped, fraction


def extended_leg(source, x, y, sign):
    """One field leg of an ``EppSource`` at complex x, y in ``np.clongdouble``:
    ``preparation_ket`` for sign -1, ``preparation_bra`` for sign +1."""
    cx = np.clongdouble
    x, y = cx(x), cx(y)
    two_pi_c = np.longdouble(TWO_PI_C)
    gamma = 1 / (2 * np.longdouble(source.tau_pump) ** 2)
    kappa = -(two_pi_c / 2) ** 2 / gamma
    amplitude = (np.longdouble(source.alpha) * np.longdouble(source.e0)
                 * np.sqrt(np.longdouble(np.pi) / gamma))
    t1 = np.longdouble(source.t1)
    t_ent = np.longdouble(source.t2) - t1
    s = x + y
    matching = cx(0)
    for reference in (source.omega1, source.omega2):
        r = np.longdouble(reference)
        arg = sign * 1j * two_pi_c * (t1 * (s - 2 * r) + t_ent * (y - r))
        matching += np.expm1(arg) / arg if arg != 0 else cx(1)
    return amplitude * np.exp(kappa * (s - np.longdouble(source.pump_center)) ** 2) * matching


def extended_transport_pathways(system, source):
    """p2 and p4 of an ``EppSource`` at t = 0, one (f, e, u, p) term at a
    time in ``np.clongdouble``, each with its summed term magnitudes.

    The poles and weights are the library's float64 values; every pole
    difference, sum frequency, pump Gaussian and phase-matching branch is
    evaluated in extended precision, so the result carries none of the
    float64 rounding of sum frequencies near 2.4e4 cm^-1.
    """
    z = pole_chains(system)
    w = system.weights
    cx = np.clongdouble

    def leg(x, y, sign):
        return extended_leg(source, x, y, sign)

    fe, ff, ef, eg, modes = (z.fe.astype(cx), z.ff.astype(cx), z.ef.astype(cx),
                             z.eg.astype(cx), z.modes.astype(cx))
    fe_squared = w.fe_squared.astype(np.longdouble)
    transport = w.transport.astype(np.longdouble)
    n_f, n_e = z.fe.shape
    sums = np.zeros((2, n_f), dtype=cx)
    mags = np.zeros((2, n_f), dtype=np.longdouble)
    for f in range(n_f):
        for e in range(n_e):
            for u in range(n_e):
                for p in range(modes.size):
                    weight = fe_squared[f, u] * transport[e, u, p]
                    bra_y = eg[e] - modes[p]
                    terms = (leg(fe[f, u] - modes[p], eg[e], -1) * leg(fe[f, u] - ff[f], bra_y, 1),
                             leg(ff[f] - ef[f, u], eg[e], -1) * leg(modes[p] - ef[f, u], bra_y, 1))
                    for k, term in enumerate(terms):
                        sums[k, f] += weight * term
                        mags[k, f] += abs(weight * term)
    return sums, mags
