"""Brute-force time-domain oracle for the coincidence map.

Evaluates the nested gate-time integrals of the detection stage for small
systems, keeping the full time arguments of both population propagators,
including the coupling of the second detection window to the first
through t1' - t2' - tau2.  The tau1 and t1' integrals are exponentials
against the one-exciton transport eigenmodes and are done in closed form,
preserving the kink at max(gate opening, emission completion); the
remaining two time axes are integrated on graded Gauss-Legendre panels
with the horizon set by the slowest gate decay and a two-level
convergence check.  It checks :func:`excitonscope.coincidence_snapshot`,
the waiting-time factorization, which shares only the detection tables,
the closed lineshapes and the map's :class:`~excitonscope.SignalGrid`
with it: the gate centres scan the grid's axes, and the f -> e and
e -> g gates open at its ``t_wait_two`` and ``t_wait_two + t_wait_one``.
"""

import math

import numpy as np

from excitonscope import units
from excitonscope.coincidence import FilterSpec, SignalGrid, _check_negative_branch
from excitonscope.excitation import ExcitonSystem

from detector_reference import lineshape_branches



def _panel_nodes(edges: np.ndarray, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _power_edges(span: float, panels: int, power: float) -> np.ndarray:
    """Panel edges on [0, span], graded toward zero for power > 1."""
    return span * np.linspace(0.0, 1.0, panels + 1) ** power


def _delay_axis(rate: float, detune: float, horizon_factor: float,
                n_panels: int, n_nodes: int):
    """Delay nodes resolving both the decay at ``rate`` (1/fs) and the
    worst-case detuning oscillation at ``detune`` (rad/fs)."""
    horizon = horizon_factor / rate
    osc_panels = int(math.ceil(1.5 * detune * horizon / (1.2 * n_nodes)))
    return _panel_nodes(_power_edges(horizon, max(n_panels, osc_panels), 1.5), n_nodes)


_ORACLE_LEVELS = {
    1: dict(panels=8, nodes=8, horizon=10.0),
    2: dict(panels=11, nodes=10, horizon=13.0),
}


def _time_oracle_map(
    system: ExcitonSystem,
    rho_ff: np.ndarray,
    filter_fe: FilterSpec,
    filter_eg: FilterSpec,
    grid: SignalGrid,
    level: int,
) -> np.ndarray:
    """Nested-time evaluation of both pathway terms on a frequency grid.

    The first term covers the positive-delay wedge (t2' >= tbar2,
    tau2 >= 0, one-exciton transport over t1' - t2' - tau2).  The second
    covers the negative-delay wedge, reparametrized by s = -tau2 >= 0 and
    v = t2' - tbar2 - s >= 0 so the domain is a product and only the
    closed-form t1' integral keeps the max(tbar1, .) kink.
    """
    ang = units.TWO_PI_C
    w_fe, g_fe, w_eg, g_eg, dd_fe, dd_eg = system.detection_tables
    one, two = system.transport_one, system.transport_two
    cfg = _ORACLE_LEVELS[level]
    n_panels, n_nodes, hor = cfg["panels"], cfg["nodes"], cfg["horizon"]

    omega_fe_axis, omega_eg_axis = grid.omega_fe, grid.omega_eg
    tbar2 = grid.t_wait_two
    tbar1 = grid.t_wait_two + grid.t_wait_one
    _check_negative_branch(filter_fe, float(g_fe.min()))

    rho_tilde = (two.chi_left @ np.asarray(rho_ff, dtype=float)) / two.dpp

    def gf_at(t: np.ndarray) -> np.ndarray:
        return (np.exp(-np.outer(t, two.lambdas) * ang) * rho_tilde[None, :]) @ two.chi_right.T

    alpha1 = 2.0 * filter_eg.sigma_t * ang
    beta_e = one.lambdas * ang
    right_e = one.chi_right / one.dpp[None, :]

    def upper_integrals(a: np.ndarray) -> np.ndarray:
        # I_p(a) = int_{max(tbar1, a)} dt1' e^{-alpha1 (t1'-tbar1)} e^{-beta_p (t1'-a)}
        early = a[..., None] <= tbar1
        dt = np.where(early, tbar1 - a[..., None], a[..., None] - tbar1)
        decay = np.where(early, beta_e, alpha1)
        return np.exp(-decay * dt) / (alpha1 + beta_e)

    rate2 = 2.0 * filter_fe.sigma_t * ang
    gamma_min = float(g_fe.min())
    rate_pos = (filter_fe.sigma_omega + filter_fe.sigma_t + gamma_min) * ang
    rate_neg = (filter_fe.sigma_omega - filter_fe.sigma_t + gamma_min) * ang
    detune = float(np.abs(omega_fe_axis[:, None] - w_fe.ravel()[None, :]).max()) * ang

    t2_nodes, t2_w = _panel_nodes(tbar2 + _power_edges(hor / rate2, n_panels, 2.0), n_nodes)
    tau_nodes, tau_w = _delay_axis(rate_pos, detune, hor, n_panels, n_nodes)
    s_nodes, s_w = _delay_axis(rate_neg, detune, hor, n_panels, n_nodes)
    v_nodes, v_w = _panel_nodes(_power_edges(hor / rate2, n_panels, 2.0), n_nodes)

    # term 1: D_> pairs the fe coherence over tau2 with population
    # transport over t2' and t1' - t2' - tau2
    gf1 = gf_at(t2_nodes) * (t2_w * np.exp(-rate2 * (t2_nodes - tbar2)))[:, None]
    trans1 = np.einsum("up,ijp,pe->ijue", right_e, upper_integrals(
        t2_nodes[:, None] + tau_nodes[None, :]), one.chi_left)
    core1 = np.einsum("if,ijue->feuj", gf1, trans1)
    coh1 = np.exp((
        (1j * w_fe - g_fe)[:, :, None]
        - (filter_fe.sigma_omega + filter_fe.sigma_t)
    ) * ang * tau_nodes[None, None, :])
    prof1 = core1 * coh1[:, :, None, :]

    # term 2: D_< pairs the conjugate fe coherence over s = -tau2 with
    # transport over t2' - s = tbar2 + v and t1' - t2'
    gf2 = gf_at(tbar2 + v_nodes) * v_w[:, None]
    trans2 = np.einsum("up,ijp,pe->ijue", right_e, upper_integrals(
        tbar2 + v_nodes[:, None] + s_nodes[None, :]), one.chi_left)
    env2 = np.exp(-rate2 * (v_nodes[:, None] + s_nodes[None, :]))
    core2 = np.einsum("if,ij,ijue->feuj", gf2, env2, trans2)
    coh2 = np.exp((
        (-1j * w_fe - g_fe)[:, :, None]
        - (filter_fe.sigma_omega - filter_fe.sigma_t)
    ) * ang * s_nodes[None, None, :])
    prof2 = core2 * coh2[:, :, None, :]

    # scan phases, then dipole weights and the closed e -> g lineshape
    phase_pos = np.exp(-1j * ang * np.outer(tau_nodes, omega_fe_axis)) * tau_w[:, None]
    phase_neg = np.exp(+1j * ang * np.outer(s_nodes, omega_fe_axis)) * s_w[:, None]
    maps = prof1 @ phase_pos + prof2 @ phase_neg

    l_eg, _ = lineshape_branches(
        omega_eg_axis, w_eg[:, None], g_eg[:, None],
        filter_eg.sigma_omega, filter_eg.sigma_t,
    )
    weights = dd_fe[:, :, None] * dd_eg[None, None, :]
    return 2.0 * np.real(np.einsum("feua,feu,ub->ab", maps, weights, l_eg))


def coincidence_time_map(
    system: ExcitonSystem,
    rho_ff: np.ndarray,
    filter_fe: FilterSpec,
    filter_eg: FilterSpec,
    grid: SignalGrid,
    rtol: float = 1e-3,
) -> np.ndarray:
    """Convergence-checked oracle map over the gate centres and opening
    times of ``grid``, which it leaves unfilled.

    Runs the nested-time integration at two refinement levels (panel and
    node counts, decay horizons) and raises when the max-normalized maps
    disagree beyond ``rtol``.  Intended for small systems only.
    """
    if system.aggregate.n_sites > 3:
        raise ValueError("the time-domain oracle is intended for at most 3 sites")
    coarse = _time_oracle_map(system, rho_ff, filter_fe, filter_eg, grid, 1)
    fine = _time_oracle_map(system, rho_ff, filter_fe, filter_eg, grid, 2)
    scale = np.abs(fine).max(initial=0.0)
    diff = float(np.abs(fine - coarse).max(initial=0.0) / scale) if scale > 0.0 else 0.0
    if not np.isfinite(diff) or diff > rtol:
        raise RuntimeError(
            f"time-domain oracle did not converge: refinement levels differ by "
            f"{diff:.3e} (requested {rtol:.3e})"
        )
    return fine

