"""Correctness checks for the benchmark's workloads.

Every check compares a program output against a computation written here,
apart from the library, or against a property the method must have.  No
check compares against a stored copy of an earlier output.  Each check
raises :class:`CheckError` with a message on failure; ``check_selftest.py``
shows every one of them failing on a deliberately perturbed output.

The references re-derive what they need from the documented model:
pole widths are (Gamma_a + Gamma_b)/2 plus pure dephasing, floored at
1e-3 cm^-1 below 1e-8; population transport is d rho/dt = -K rho with
time in fs and rates in cm^-1, propagated here with a matrix exponential
instead of the library's eigendecomposition.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import expm

TWO_PI_C = 2.0 * math.pi * 2.99792458e-5  # rad/fs per cm^-1
BOLTZMANN_CM_PER_K = 0.6950348
WIDTH_TRIGGER = 1e-8
WIDTH_FLOOR = 1e-3

# Tolerances.  Pathway sums: of the summed term magnitudes, for rounding
# in reordered sums.  Propagation and maps: the library's propagators are
# documented accurate to ~1e-7.
PATHWAY_RTOL = 1e-9
CONSERVATION_RTOL = 1e-7
PROPAGATION_RTOL = 1e-6
MAP_ATOL = 1e-6


class CheckError(AssertionError):
    """A program output disagrees with its reference or breaks a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# model: eigen-energy traces and transport


def pair_trace(site_energies, onsite_u, pair_u) -> tuple[float, float]:
    """Traces of the one- and two-exciton Hamiltonians from site parameters.

    The two-exciton diagonal holds E_m + E_n + U2_mn for every pair m < n
    and 2 E_m + U1_m for every overtone; hopping adds nothing to the trace.
    """
    e = np.asarray(site_energies, dtype=float)
    u1 = np.asarray(onsite_u, dtype=float)
    u2 = np.asarray(pair_u, dtype=float)
    n = e.size
    two = 0.0
    for m in range(n):
        two += 2.0 * e[m] + u1[m]
        for k in range(m + 1, n):
            two += e[m] + e[k] + u2[m, k]
    return float(e.sum()), two


def check_eigen_traces(energies_e, energies_f, site_energies, onsite_u, pair_u) -> None:
    one, two = pair_trace(site_energies, onsite_u, pair_u)
    tol_one = 1e-12 * max(1.0, float(np.abs(energies_e).sum()))
    tol_two = 1e-12 * max(1.0, float(np.abs(energies_f).sum()))
    require(abs(float(np.sum(energies_e)) - one) <= tol_one,
            f"one-exciton energies sum to {np.sum(energies_e)!r}, site energies to {one!r}")
    require(abs(float(np.sum(energies_f)) - two) <= tol_two,
            f"two-exciton energies sum to {np.sum(energies_f)!r}, Hamiltonian trace is {two!r}")


def check_levels(energies_e, energies_f, widths, site_energies, onsite_u, pair_u) -> None:
    """model-info level table: eigen-energy traces and non-negative widths."""
    check_eigen_traces(energies_e, energies_f, site_energies, onsite_u, pair_u)
    require(bool(np.all(np.asarray(widths) >= 0.0)), "negative depopulation width")


def check_transport(rate_matrix, energies, temperature_k) -> None:
    """Zero column sums and detailed balance K_ab pi_b = K_ba pi_a."""
    k = np.asarray(rate_matrix, dtype=float)
    scale = max(1.0, float(np.abs(k).max()))
    require(float(np.abs(k.sum(axis=0)).max()) <= 1e-10 * scale,
            "rate matrix columns do not sum to zero")
    beta = 1.0 / (BOLTZMANN_CM_PER_K * temperature_k)
    e = np.asarray(energies, dtype=float)
    pi = np.exp(-beta * (e - e.min()))
    flux = k * (pi / pi.sum())[None, :]
    require(float(np.abs(flux - flux.T).max()) <= 1e-10 * max(float(np.abs(flux).max()), 1e-300),
            "rate matrix breaks detailed balance")


def propagate_reference(rate_matrix, rho0, t_fs) -> np.ndarray:
    """rho(t) = expm(-K 2 pi c t) rho(0)."""
    return expm(-np.asarray(rate_matrix, dtype=float) * TWO_PI_C * t_fs) @ np.asarray(rho0, dtype=float)


def check_population_conservation(rho0, rows) -> None:
    total = float(np.sum(rho0))
    sums = np.atleast_2d(rows).sum(axis=1)
    drift = float(np.abs(sums - total).max())
    require(drift <= CONSERVATION_RTOL * max(abs(total), 1e-300),
            f"propagation changed the total population by {drift:.3e} (total {total:.3e})")


def check_propagation(rate_matrix, rho0, times, rows) -> None:
    check_population_conservation(rho0, rows)
    total = max(float(np.abs(rho0).sum()), 1e-300)
    for t, row in zip(times, np.atleast_2d(rows)):
        ref = propagate_reference(rate_matrix, rho0, t)
        err = float(np.abs(ref - row).max())
        require(err <= PROPAGATION_RTOL * total,
                f"population at {t} fs differs from expm propagation by {err:.3e}")


# ---------------------------------------------------------------------------
# sources


def jsa_scalar(p: dict, wa: complex, wb: complex) -> complex:
    """Joint spectral amplitude F(wa, wb) of the documented EPP source, scalar."""
    g = 1.0 / (2.0 * p["tau_pump"] ** 2)
    detune = (wa + wb - p["pump_center"]) * TWO_PI_C
    pump = p["e0"] * math.sqrt(math.pi / g) * cmath.exp(-detune * detune / (4.0 * g))
    total = 0.0j
    for ref in (p["omega1"], p["omega2"]):
        phi = 0.5 * TWO_PI_C * ((wa - ref) * p["t1"] + (wb - ref) * p["t2"])
        sinc = 1.0 - phi * phi / 6.0 if abs(phi) < 1e-6 else cmath.sin(phi) / phi
        total += sinc * cmath.exp(1j * phi)
    return p["alpha"] * pump * total


def jsi_reference(p: dict, axis_a, axis_b) -> np.ndarray:
    """Max-normalized |F|^2 on real axes, vectorized with numpy's real sinc."""
    wa = np.asarray(axis_a, dtype=float)[:, None]
    wb = np.asarray(axis_b, dtype=float)[None, :]
    g = 1.0 / (2.0 * p["tau_pump"] ** 2)
    detune = (wa + wb - p["pump_center"]) * TWO_PI_C
    pump = p["e0"] * np.sqrt(np.pi / g) * np.exp(-detune**2 / (4.0 * g))
    total = 0.0
    for ref in (p["omega1"], p["omega2"]):
        phi = 0.5 * TWO_PI_C * ((wa - ref) * p["t1"] + (wb - ref) * p["t2"])
        total = total + np.sinc(phi / np.pi) * np.exp(1j * phi)
    intensity = np.abs(p["alpha"] * pump * total) ** 2
    return intensity / intensity.max()


def check_jsi(jsi, params: dict, axis_a, axis_b) -> None:
    err = float(np.abs(np.asarray(jsi) - jsi_reference(params, axis_a, axis_b)).max())
    require(err <= 1e-12, f"JSI differs from the reference by {err:.3e}")


# ---------------------------------------------------------------------------
# preparation: the five pathway sums as plain loops


def _w(g: float) -> float:
    return WIDTH_FLOOR if g < WIDTH_TRIGGER else g


def five_pathway_reference(system, p: dict, f: int):
    """Five pathway partial sums for two-exciton state ``f`` at t = 0.

    Returns (partials[5], magnitude[5]) where magnitude is the sum of the
    absolute values of the terms of each pathway, the scale against which
    rounding in the library's reordered sums is judged.  Poles and widths
    are rebuilt here from the transport depopulation rates and eigenvalues.
    """
    one, two = system.transport_one, system.transport_two
    ee_, ef_ = system.eig.energies_e, system.eig.energies_f
    g1, g2 = one.depopulation, two.depopulation
    pd1, pd2 = one.pure_dephasing, two.pure_dephasing
    n = ee_.size
    d1, d2 = system.d_eg, system.d_fe

    def ket(x, y):
        return jsa_scalar(p, x.conjugate(), y.conjugate()).conjugate()

    def bra(x, y):
        return jsa_scalar(p, x, y)

    eg = [ee_[e] - 1j * _w(0.5 * g1[e] + pd1) for e in range(n)]
    fg = ef_[f] - 1j * _w(0.5 * g2[f] + pd2)
    fe = [(ef_[f] - ee_[e]) - 1j * _w(0.5 * (g2[f] + g1[e]) + pd2) for e in range(n)]
    ef = [-(ef_[f] - ee_[e]) - 1j * _w(0.5 * (g2[f] + g1[e]) + pd2) for e in range(n)]
    ee = [[(ee_[a] - ee_[b]) - 1j * _w(0.5 * (g1[a] + g1[b]) + pd1) for b in range(n)]
          for a in range(n)]
    ff = -1j * _w(g2[f])
    zp = [-1j * _w(lam) for lam in one.lambdas]
    wk = [d1[e] * d2[f, e] for e in range(n)]

    sums = [0j] * 5
    mags = [0.0] * 5

    ket_sum = sum(wk[e] * ket(fg - eg[e], eg[e]) for e in range(n))
    bra_sum = sum(wk[e] * bra(fe[e] - ff, fg - fe[e]) for e in range(n))
    sums[0] = ket_sum * bra_sum
    mags[0] = (sum(abs(wk[e] * ket(fg - eg[e], eg[e])) for e in range(n))
               * sum(abs(wk[e] * bra(fe[e] - ff, fg - fe[e])) for e in range(n)))

    chi_r, chi_l, dpp = one.chi_right, one.chi_left, one.dpp
    for e in range(n):
        for u in range(n):
            for q in range(len(zp)):
                weight = d1[e] ** 2 * d2[f, u] ** 2 * chi_r[u, q] / dpp[q] * chi_l[q, e]
                term2 = weight * ket(fe[u] - zp[q], eg[e]) * bra(fe[u] - ff, eg[e] - zp[q])
                term4 = weight * ket(ff - ef[u], eg[e]) * bra(zp[q] - ef[u], eg[e] - zp[q])
                sums[1] += term2
                sums[3] += term4
                mags[1] += abs(term2)
                mags[3] += abs(term4)

    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            weight = wk[a] * wk[b]
            term3 = weight * ket(fe[b] - ee[a][b], eg[a]) * bra(fe[b] - ff, eg[a] - ee[a][b])
            term5 = weight * ket(ff - ef[a], eg[a]) * bra(ee[a][b] - ef[a], eg[a] - ee[a][b])
            sums[2] += term3
            sums[4] += term5
            mags[2] += abs(term3)
            mags[4] += abs(term5)
    return np.array(sums), np.array(mags)


def check_pathways(partials_f, raw_f, ref_partials, ref_mags, label: str) -> None:
    """Library partials and raw at one f against the plain-loop reference."""
    for k in range(5):
        err = abs(complex(partials_f[k]) - ref_partials[k])
        require(err <= PATHWAY_RTOL * max(ref_mags[k], 1e-300),
                f"{label}: pathway {k + 1} is {partials_f[k]!r}, plain loop gives {ref_partials[k]!r}")
    check_raw_reference(raw_f, ref_partials, ref_mags, label)


def check_raw_reference(raw_f, ref_partials, ref_mags, label: str) -> None:
    """One raw value against the plain-loop pathway sums."""
    raw_ref = 2.0 * ref_partials.sum().real
    require(abs(float(raw_f) - raw_ref) <= PATHWAY_RTOL * 2.0 * max(ref_mags.sum(), 1e-300),
            f"{label}: raw is {raw_f!r}, plain loop gives {raw_ref!r}")


def check_clipped(populations, raw) -> None:
    """Populations are the raw distribution with negative values set to zero."""
    require(np.array_equal(np.asarray(populations), np.clip(raw, 0.0, None)),
            "populations are not the clipped raw distribution")


def check_raw_sum(raw, partials) -> None:
    """raw == 2 Re(sum of the five pathway partials)."""
    scale = max(float(np.abs(partials).sum(axis=0).max()), 1e-300)
    err = float(np.abs(np.asarray(raw) - 2.0 * np.asarray(partials).sum(axis=0).real).max())
    require(err <= 1e-12 * scale, f"raw differs from 2 Re sum(partials) by {err:.3e}")


def check_raw_scaling(raw, raw_scaled, factor: float) -> None:
    """raw scales as (alpha e0)^2: both field legs carry one power each."""
    raw = np.asarray(raw)
    err = float(np.abs(np.asarray(raw_scaled) - factor**2 * raw).max())
    require(err <= 1e-10 * factor**2 * max(float(np.abs(raw).max()), 1e-300),
            f"raw does not scale as (alpha e0)^2: deviation {err:.3e}")


def check_identical(first, second, label: str) -> None:
    """Two outputs that must agree bit for bit (bytes or arrays)."""
    same = first == second if isinstance(first, bytes) else np.array_equal(first, second)
    require(bool(same), f"{label}: outputs differ")


def check_scan(matrix, selectivity) -> None:
    m = np.asarray(matrix, dtype=float)
    require(bool(np.all(m >= 0.0)), "scan row has negative entries")
    peaks = m.max(axis=1)
    ok = np.isclose(peaks, 1.0, rtol=0.0, atol=1e-12) | (peaks == 0.0)
    require(bool(np.all(ok)), "scan rows are not max-normalized")
    s = np.asarray(selectivity, dtype=float)
    require(bool(np.all((s >= 0.0) & (s <= 1.0))), "selectivity outside [0, 1]")


def check_scan_row(row, selectivity, populations, target: int, label: str) -> None:
    """A scan row and its selectivity against an independently checked preparation."""
    pops = np.asarray(populations, dtype=float)
    expect = pops / pops.max()
    require(float(np.abs(np.asarray(row) - expect).max()) <= 1e-12,
            f"{label}: scan row differs from the normalized preparation")
    require(abs(float(selectivity) - pops[target] / pops.sum()) <= 1e-12,
            f"{label}: selectivity differs from target population over total")


# ---------------------------------------------------------------------------
# detection: the factorized coincidence formula, broadcast


def coincidence_reference(system, rho_ff, sigma_omega, sigma_t, t_wait_two, t_wait_one,
                          axis_fe, axis_eg):
    """Signed max-normalized map of the waiting-time factorized formula.

    side_fe[e, i] = sum_f' P_f'(t2) |d_f'e|^2 (L+ + L-)(w_i; w_f'e, g_f'e)
    side_eg[e, j] = sum_e' |d_e'|^2 G1(t1)[e', e] L+(w_j; w_e', g_e')
    S = 2 Re(side_fe^T side_eg), with the gate lineshapes
    L+ = c / (sigma_w + sigma_t + g + i(w - w_ab)),
    L- = c / (sigma_w - sigma_t + g - i(w - w_ab)), c = 1 / (2 sigma_w 2 pi c).
    """
    one, two = system.transport_one, system.transport_two
    ee_, ef_ = system.eig.energies_e, system.eig.energies_f
    width = np.vectorize(_w)
    g_fe = width(0.5 * (two.depopulation[:, None] + one.depopulation[None, :]) + two.pure_dephasing)
    g_eg = width(0.5 * one.depopulation + one.pure_dephasing)
    w_fe = ef_[:, None] - ee_[None, :]
    dd_fe = (np.asarray(system.dipoles.d_fe) ** 2).sum(axis=-1)
    dd_eg = (np.asarray(system.dipoles.d_eg) ** 2).sum(axis=-1)
    pops = propagate_reference(two.rate_matrix, rho_ff, t_wait_two)
    green = expm(-one.rate_matrix * TWO_PI_C * t_wait_one)
    c = 0.5 / sigma_omega / TWO_PI_C
    x = np.asarray(axis_fe, dtype=float)[None, None, :]
    det = x - w_fe[:, :, None]
    g = g_fe[:, :, None]
    lines = c / ((sigma_omega + sigma_t + g) + 1j * det) + c / ((sigma_omega - sigma_t + g) - 1j * det)
    side_fe = ((pops[:, None] * dd_fe)[:, :, None] * lines).sum(axis=0)
    y = np.asarray(axis_eg, dtype=float)[None, :]
    pos = c / ((sigma_omega + sigma_t + g_eg[:, None]) + 1j * (y - ee_[:, None]))
    side_eg = ((dd_eg[:, None] * green)[:, :, None] * pos[:, None, :]).sum(axis=0)
    signal = 2.0 * (side_fe.T @ side_eg).real
    return signal / np.abs(signal).max()


def check_map(values, axis_fe, axis_eg, w_fe, w_eg, sigma_omega, label: str) -> None:
    """Max 1, no negative cell, peak within 2 sigma_omega of an emission pair."""
    m = np.asarray(values, dtype=float)
    require(abs(float(m.max()) - 1.0) <= 1e-12, f"{label}: map maximum is {m.max()!r}, not 1")
    require(bool(np.all(m >= 0.0)), f"{label}: map has negative cells")
    i, j = np.unravel_index(int(np.argmax(m)), m.shape)
    near_fe = float(np.abs(np.asarray(w_fe) - axis_fe[i]).min())
    near_eg = float(np.abs(np.asarray(w_eg) - axis_eg[j]).min())
    require(near_fe <= 2.0 * sigma_omega and near_eg <= 2.0 * sigma_omega,
            f"{label}: peak at ({axis_fe[i]:.1f}, {axis_eg[j]:.1f}) is "
            f"{near_fe:.1f}/{near_eg:.1f} cm^-1 from the nearest emission lines")


def check_map_reference(values, clipped, signed_ref, label: str) -> None:
    """Program map and clipped-cell count against the broadcast formula.

    Away from the emission lines the map is ~1e-7 of its peak, so a cell's
    sign is only defined up to the program's error: the clipped-cell count
    may differ from the formula's only by cells within four times the
    observed deviation of zero."""
    ref = np.clip(signed_ref, 0.0, None)
    err = float(np.abs(np.asarray(values) - ref).max())
    require(err <= MAP_ATOL, f"{label}: map differs from the factorized formula by {err:.3e}")
    negative = int(np.count_nonzero(signed_ref < 0.0))
    ambiguous = int(np.count_nonzero(np.abs(signed_ref) <= 4.0 * err))
    require(abs(int(clipped) - negative) <= ambiguous,
            f"{label}: {clipped} clipped cells, the formula has {negative} negative cells")
