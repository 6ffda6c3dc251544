"""Real-frequency quadrature of the two-exciton preparation integrand.

This is the oracle for the closed form in :mod:`excitonscope.excitation`:
the same five pathway chains integrated brute-force over four real
frequency axes instead of being collapsed onto the resolvent poles.

Geometry.  In accumulated coordinates (partial sums of the signed
interaction frequencies) each of the four interval resolvents depends on
exactly one axis and the Jacobian is one.  Three charts cover the five
pathways: the fully coherent ladder (chart A), the ket-completed
transport and coherence pair (chart B) and their bra-completed partners
(chart C).

Grids.  Every axis gets Gauss-Legendre panels graded geometrically into
each of its resolvent poles plus envelope panels across the field
support, with extra subdivision wherever the evaluation-time phase
e^{-i 2 pi c t x4} oscillates.  Resolvents are always evaluated exactly
on the nodes; only the smooth source amplitudes are tabulated once per
chart on regular auxiliary grids and pulled into the contractions by
cubic interpolation.

Windows.  Axes that carry the pump envelope decay like a Gaussian and
are truncated at ``window_scale`` pump widths.  The axes the envelope
cannot pin (both coherence axes of chart A and the middle axis of chart
C, where the field depends only on frequency sums those axes drop out
of) receive the exact analytic remainder of the symmetric principal
value integral beyond the window, with the field frozen at its window
edge values.

Convergence.  The driver runs two refinement levels (denser panels,
finer tables) and compares the max-normalized outputs; disagreement
beyond ``rtol`` raises with diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import units
from .excitation import (
    ExcitonSystem,
    PoleTable,
    PreparationResult,
    describe_source,
    pathway_weights,
)
from .sources import CoherentSource, EppSource

_GRADE_RATIO = 5.0
_PHASE_PER_NODE = 1.2  # rad of oscillation one quadrature node can carry

_LEVELS = {
    1: dict(pole_nodes=5, base_nodes=8, base_panels=6, step_div=10),
    2: dict(pole_nodes=7, base_nodes=11, base_panels=9, step_div=13),
}


def feature_scale(source) -> float:
    """Smallest smooth variation scale of the source amplitudes (cm^-1)."""
    if isinstance(source, EppSource):
        scales = [1.0 / (units.TWO_PI_C * source.tau_pump)]
        for delay in (source.t1, source.t2):
            if delay > 0.0:
                # one radian of sinc phase along a single frequency slot
                scales.append(2.0 / (units.TWO_PI_C * delay))
        return min(scales)
    if isinstance(source, CoherentSource):
        return min(1.0 / (units.TWO_PI_C * p.tau) for p in source.pulses)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def sum_centers(source) -> tuple[float, float]:
    """Center of the ket-pair and bra-pair frequency sums."""
    if isinstance(source, EppSource):
        return source.pump_center, source.pump_center
    ket = source.pulses[0].center * 2.0
    bra = source.pulses[2].center + source.pulses[3].center
    return ket, bra


# ---------------------------------------------------------------------------
# axis construction


@dataclass(frozen=True)
class Axis:
    nodes: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float


def _leggauss(n: int, cache={}):
    if n not in cache:
        cache[n] = np.polynomial.legendre.leggauss(n)
    return cache[n]


def _axis(
    poles: np.ndarray,
    anchors,
    margin: float,
    smooth: float,
    level: dict,
    osc: float = 0.0,
) -> Axis:
    """Panelled Gauss-Legendre axis resolving every pole and anchor.

    ``poles`` are complex resolvent positions (graded geometrically down
    to their widths), ``anchors`` real field centers (graded at the
    smooth scale), ``osc`` an oscillation rate in rad per cm^-1 that
    bounds panel widths.
    """
    poles = np.atleast_1d(np.asarray(poles)).ravel()
    centers = poles.real
    widths = np.maximum(-poles.imag, 1e-12)
    anchors = np.asarray(list(anchors), dtype=float)

    all_pts = np.concatenate([centers, anchors]) if anchors.size else centers
    lo = all_pts.min() - margin
    hi = all_pts.max() + margin
    span = hi - lo

    edges = list(np.linspace(lo, hi, level["base_panels"] + 1))
    for c, g in zip(centers, widths):
        edges.append(c)
        r = g
        while True:
            placed = False
            if c - r > lo:
                edges.append(c - r)
                placed = True
            if c + r < hi:
                edges.append(c + r)
                placed = True
            if not placed:
                break
            r *= _GRADE_RATIO
    for a in anchors:
        for r in (smooth, 3.0 * smooth):
            edges.extend([a - r, a, a + r])

    edges = np.clip(np.asarray(edges, dtype=float), lo, hi)
    edges = np.unique(edges)
    keep = np.concatenate([[True], np.diff(edges) > 1e-12 * span])
    edges = edges[keep]

    cap = _PHASE_PER_NODE * level["base_nodes"] / osc if osc > 0.0 else np.inf
    nodes_list, weights_list = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        pieces = max(1, int(math.ceil(width / cap))) if np.isfinite(cap) else 1
        sub = np.linspace(a, b, pieces + 1)
        for sa, sb in zip(sub[:-1], sub[1:]):
            w_sub = sb - sa
            if w_sub <= smooth and (osc <= 0.0 or osc * w_sub <= _PHASE_PER_NODE * level["pole_nodes"]):
                n = level["pole_nodes"]
            else:
                n = level["base_nodes"]
            x, w = _leggauss(n)
            nodes_list.append(0.5 * (sa + sb) + 0.5 * w_sub * x)
            weights_list.append(0.5 * w_sub * w)
    return Axis(
        nodes=np.concatenate(nodes_list),
        weights=np.concatenate(weights_list),
        lo=float(lo),
        hi=float(hi),
    )


def _res_rows(axis: Axis, zetas) -> np.ndarray:
    """Weight-folded resolvent rows w_j / (x_j - zeta_s), shape (n_states, n)."""
    z = np.atleast_1d(np.asarray(zetas)).ravel()
    return axis.weights[None, :] / (axis.nodes[None, :] - z[:, None])


def _pv_tail(zetas, lo: float, hi: float) -> np.ndarray:
    """Exact remainder of the symmetric principal-value integral of
    1/(x - zeta) beyond [lo, hi], assuming the integrand's other factors
    are constant there."""
    z = np.atleast_1d(np.asarray(zetas)).ravel()
    return -1j * np.pi - np.log((hi - z) / (lo - z))


# ---------------------------------------------------------------------------
# regular field tables and cubic pulls


@dataclass(frozen=True)
class RegGrid:
    start: float
    step: float
    n: int

    @property
    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n)


def _reg_grid(lo: float, hi: float, step: float) -> RegGrid:
    start = lo - 3.0 * step
    n = int(math.ceil((hi + 3.0 * step - start) / step)) + 4
    return RegGrid(start=float(start), step=float(step), n=n)


def _taps(grid: RegGrid, q):
    """Catmull-Rom base indices and weights for queries on a regular grid."""
    s = (np.asarray(q, dtype=float) - grid.start) / grid.step
    base = np.clip(np.floor(s).astype(np.int64), 1, grid.n - 3)
    f = s - base
    f2 = f * f
    f3 = f2 * f
    w = np.stack(
        [
            0.5 * (-f3 + 2.0 * f2 - f),
            0.5 * (3.0 * f3 - 5.0 * f2 + 2.0),
            0.5 * (-3.0 * f3 + 4.0 * f2 + f),
            0.5 * (f3 - f2),
        ]
    )
    return base, w


def _sparse_diff(
    grid: RegGrid,
    rows_x: np.ndarray,
    cols_x: np.ndarray,
    coef: np.ndarray,
    row_sign: float,
    col_sign: float,
):
    """Sparse operator S with (S @ table)[i] = sum_j coef[j] table(q_ij, :)
    for q_ij = row_sign x_i + col_sign y_j, table sampled on ``grid``."""
    q = row_sign * rows_x[:, None] + col_sign * cols_x[None, :]
    base, w = _taps(grid, q)
    n_rows = rows_x.size
    row_idx = np.broadcast_to(np.arange(n_rows)[:, None], q.shape)
    rows = np.concatenate([row_idx.ravel()] * 4)
    cols = np.concatenate([(base - 1 + k).ravel() for k in range(4)])
    data = np.concatenate([(w[k] * coef[None, :]).ravel() for k in range(4)])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n_rows, grid.n))


def _pull_cols(table: np.ndarray, grid: RegGrid, q: np.ndarray) -> np.ndarray:
    """Interpolate ``table`` (m, grid.n) along its second axis at q (k,)
    giving (m, k)."""
    base, w = _taps(grid, q)
    out = w[0][None, :] * table[:, base - 1]
    for k in range(1, 4):
        out = out + w[k][None, :] * table[:, base - 1 + k]
    return out


def _pull_rows(table: np.ndarray, grid: RegGrid, q: np.ndarray) -> np.ndarray:
    """Interpolate ``table`` (grid.n, m) along its first axis at q (k,)
    giving (k, m)."""
    base, w = _taps(grid, q)
    out = w[0][:, None] * table[base - 1, :]
    for k in range(1, 4):
        out = out + w[k][:, None] * table[base - 1 + k, :]
    return out


# ---------------------------------------------------------------------------
# charts


@dataclass
class _Ctx:
    z: PoleTable
    wk: np.ndarray
    wt: np.ndarray
    wc: np.ndarray
    ket: object
    bra: object
    t_ang: float
    smooth: float
    margin: float
    ket_sum: float
    bra_sum: float
    n_e: int
    n_f: int
    pairs: list


def _phase4(ctx: _Ctx, ax4: Axis) -> np.ndarray:
    return ax4.weights * np.exp(-1j * ctx.t_ang * ax4.nodes)


def _chart_coherent(ctx: _Ctx, lv: dict) -> np.ndarray:
    """Pathway 1: chain (eg, fg, fe, ff); the envelope pins x2 and x4 only."""
    z = ctx.z
    step = ctx.smooth / lv["step_div"]
    ax1 = _axis(z.eg, [], ctx.margin, ctx.smooth, lv)
    ax2 = _axis(z.fg, [ctx.ket_sum], ctx.margin, ctx.smooth, lv)
    ax3 = _axis(z.fe, [], ctx.margin, ctx.smooth, lv)
    anchors4 = np.concatenate([z.fg.real, [ctx.ket_sum]]) - ctx.bra_sum
    ax4 = _axis(z.ff, anchors4, ctx.margin, ctx.smooth, lv, osc=ctx.t_ang)

    # ket side: direct table plus the analytic x1 remainder
    a_tab = ctx.ket(ax2.nodes[None, :] - ax1.nodes[:, None], ax1.nodes[:, None])
    s1 = _res_rows(ax1, z.eg) @ a_tab
    edge = 0.5 * (
        ctx.ket(ax2.nodes - ax1.lo, ax1.lo) + ctx.ket(ax2.nodes - ax1.hi, ax1.hi)
    )
    s1 = s1 + _pv_tail(z.eg, ax1.lo, ax1.hi)[:, None] * edge[None, :]
    ket_f = np.einsum("fe,eb->fb", ctx.wk, s1)

    # bra side on a (x3 - x4, x2 - x3) table
    vg = _reg_grid(ax3.lo - ax4.hi, ax3.hi - ax4.lo, step)
    wg = _reg_grid(ax2.lo - ax3.hi, ax2.hi - ax3.lo, step)
    bvw = ctx.bra(vg.values[:, None], wg.values[None, :])
    coef0 = _phase4(ctx, ax4)
    x3_rows = np.concatenate([ax3.nodes, [ax3.lo, ax3.hi]])
    n3 = ax3.nodes.size

    base_w, w_w = _taps(wg, ax2.nodes[:, None] - x3_rows[None, :])
    col_pick = np.arange(x3_rows.size)[None, :]

    p1 = np.zeros(ctx.n_f, dtype=complex)
    for f in range(ctx.n_f):
        coef = coef0 / (ax4.nodes - z.ff[f])
        t_f = _sparse_diff(vg, x3_rows, ax4.nodes, coef, 1.0, -1.0) @ bvw
        b4s = w_w[0] * t_f[col_pick, base_w - 1]
        for k in range(1, 4):
            b4s = b4s + w_w[k] * t_f[col_pick, base_w - 1 + k]
        core, e_lo, e_hi = b4s[:, :n3], b4s[:, n3], b4s[:, n3 + 1]
        c_mat = core @ _res_rows(ax3, z.fe[f]).T
        c_mat = c_mat + 0.5 * (e_lo + e_hi)[:, None] * _pv_tail(
            z.fe[f], ax3.lo, ax3.hi
        )[None, :]
        bra_f = c_mat @ ctx.wk[f]
        r_fg = ax2.weights / (ax2.nodes - z.fg[f])
        p1[f] = np.sum(r_fg * ket_f[f] * bra_f)
    return p1


def _middle_poles(ctx: _Ctx) -> np.ndarray:
    """Transport eigenmode poles stacked with the off-diagonal coherence poles."""
    pair_poles = np.array([ctx.z.ee[a, b] for a, b in ctx.pairs])
    return np.concatenate([ctx.z.modes, pair_poles])


def _assemble(ctx: _Ctx, out: np.ndarray, transport_first: bool = True):
    """Contract the (f, e, u, q) tensor with the shared pathway weights."""
    n_p = ctx.z.modes.size
    p_transport = np.einsum("feup,feup->f", ctx.wt, out[:, :, :, :n_p], optimize=True)
    p_coherence = np.zeros(ctx.n_f, dtype=complex)
    for qi, (a, b) in enumerate(ctx.pairs):
        u = b if transport_first else a
        p_coherence += ctx.wc[:, a, b] * out[:, a, u, n_p + qi]
    return p_transport, p_coherence


def _chart_ket(ctx: _Ctx, lv: dict):
    """Pathways 2 and 3: chain (eg, middle, fe, ff) completed on the ket side."""
    z = ctx.z
    step = ctx.smooth / lv["step_div"]
    z2 = _middle_poles(ctx)
    ax1 = _axis(z.eg, [], ctx.margin, ctx.smooth, lv)
    ax2 = _axis(z2, [], ctx.margin, ctx.smooth, lv)
    ax3 = _axis(z.fe, [], ctx.margin, ctx.smooth, lv)
    combos = (
        z.eg.real[:, None, None]
        - z2.real[None, :, None]
        + z.fe.real.ravel()[None, None, :]
    ).ravel() - ctx.bra_sum
    ax4 = _axis(z.ff, [combos.min(), combos.max()], ctx.margin, ctx.smooth, lv, osc=ctx.t_ang)

    ug = _reg_grid(ax1.lo - ax2.hi, ax1.hi - ax2.lo, step)
    vg = _reg_grid(ax3.lo - ax4.hi, ax3.hi - ax4.lo, step)
    bv = ctx.bra(vg.values[:, None], ug.values[None, :])
    coef0 = _phase4(ctx, ax4)
    h = np.empty((ctx.n_f, ax3.nodes.size, ug.n), dtype=complex)
    for f in range(ctx.n_f):
        coef = coef0 / (ax4.nodes - z.ff[f])
        h[f] = _sparse_diff(vg, ax3.nodes, ax4.nodes, coef, 1.0, -1.0) @ bv

    v2g = _reg_grid(ax3.lo - ax2.hi, ax3.hi - ax2.lo, step)
    kt = ctx.ket(v2g.values[:, None], ax1.nodes[None, :])

    r1 = _res_rows(ax1, z.eg)
    r2 = _res_rows(ax2, z2)
    r3 = [_res_rows(ax3, z.fe[f]) for f in range(ctx.n_f)]

    n_q = z2.size
    out = np.zeros((ctx.n_f, ctx.n_e, ctx.n_e, n_q), dtype=complex)
    for j, x2 in enumerate(ax2.nodes):
        ktq = _pull_rows(kt, v2g, ax3.nodes - x2)
        u_q = ax1.nodes - x2
        for f in range(ctx.n_f):
            m = ktq * _pull_cols(h[f], ug, u_q)
            t = (r3[f] @ m) @ r1.T
            out[f] += t.T[:, :, None] * r2[None, None, :, j]
    return _assemble(ctx, out, transport_first=True)


def _chart_bra(ctx: _Ctx, lv: dict):
    """Pathways 4 and 5: chain (eg, middle, ef, ff) completed on the bra side.

    The field depends on x2 only through sums that cancel it, so this
    chart's middle axis gets the analytic window remainder.
    """
    z = ctx.z
    step = ctx.smooth / lv["step_div"]
    z2 = _middle_poles(ctx)
    ax1 = _axis(z.eg, [], ctx.margin, ctx.smooth, lv)
    ax2 = _axis(z2, [], ctx.margin, ctx.smooth, lv)
    ax3 = _axis(z.ef, [], ctx.margin, ctx.smooth, lv)
    combos = (
        ctx.ket_sum - z.eg.real[:, None] + z.ef.real.ravel()[None, :]
    ).ravel()
    ax4 = _axis(z.ff, [combos.min(), combos.max()], ctx.margin, ctx.smooth, lv, osc=ctx.t_ang)

    vg = _reg_grid(ax4.lo - ax3.hi, ax4.hi - ax3.lo, step)
    kt = ctx.ket(vg.values[:, None], ax1.nodes[None, :])
    coef0 = _phase4(ctx, ax4)
    s4 = np.empty((ctx.n_f, ax3.nodes.size, ax1.nodes.size), dtype=complex)
    for f in range(ctx.n_f):
        coef = coef0 / (ax4.nodes - z.ff[f])
        s4[f] = _sparse_diff(vg, ax3.nodes, ax4.nodes, coef, -1.0, 1.0) @ kt

    wgrid = _reg_grid(ax2.lo - ax3.hi, ax2.hi - ax3.lo, step)
    zgrid = _reg_grid(ax1.lo - ax2.hi, ax1.hi - ax2.lo, step)
    bt = ctx.bra(wgrid.values[:, None], zgrid.values[None, :])

    r2 = _res_rows(ax2, z2)
    n_q = z2.size
    s2 = np.zeros((n_q, ax1.nodes.size, ax3.nodes.size), dtype=complex)
    for j, x2 in enumerate(ax2.nodes):
        btz = _pull_cols(bt, zgrid, ax1.nodes - x2)
        m = _pull_rows(btz, wgrid, x2 - ax3.nodes)
        s2 += r2[:, j][:, None, None] * m.T[None, :, :]
    tails = _pv_tail(z2, ax2.lo, ax2.hi)
    for edge in (ax2.lo, ax2.hi):
        bedge = ctx.bra(edge - ax3.nodes[None, :], ax1.nodes[:, None] - edge)
        s2 += 0.5 * tails[:, None, None] * bedge[None, :, :]

    r1 = _res_rows(ax1, z.eg)
    out = np.zeros((ctx.n_f, ctx.n_e, ctx.n_e, n_q), dtype=complex)
    for f in range(ctx.n_f):
        r3 = _res_rows(ax3, z.ef[f])
        core = s4[f].T[None, :, :] * s2
        out[f] = np.einsum("ea,qat,ut->euq", r1, core, r3, optimize=True)
    return _assemble(ctx, out, transport_first=False)


# ---------------------------------------------------------------------------
# driver


def _run_level(system: ExcitonSystem, source, t_fs, window_scale, level) -> np.ndarray:
    z = system.poles
    wk, wt, wc = pathway_weights(system)
    smooth = feature_scale(source)
    ket_sum, bra_sum = sum_centers(source)
    n_e = system.n_one
    ctx = _Ctx(
        z=z,
        wk=wk,
        wt=wt,
        wc=wc,
        ket=source.preparation_ket,
        bra=source.preparation_bra,
        t_ang=units.TWO_PI_C * t_fs,
        smooth=smooth,
        margin=window_scale * smooth,
        ket_sum=ket_sum,
        bra_sum=bra_sum,
        n_e=n_e,
        n_f=system.n_two,
        pairs=[(a, b) for a in range(n_e) for b in range(n_e) if a != b],
    )
    lv = _LEVELS[level]
    p1 = _chart_coherent(ctx, lv)
    p2, p3 = _chart_ket(ctx, lv)
    p4, p5 = _chart_bra(ctx, lv)
    return np.stack([p1, p2, p3, p4, p5])


def _normalized(raw: np.ndarray) -> np.ndarray:
    peak = np.abs(raw).max(initial=0.0)
    return raw / peak if peak > 0.0 else raw


def prepare_quadrature_oracle(
    system: ExcitonSystem,
    source,
    t_fs: float = 0.0,
    window_scale: float = 8.0,
    rtol: float = 1e-3,
) -> PreparationResult:
    """Brute-force preparation distribution with a two-level convergence check.

    The result is reported up to a positive overall constant (the closed
    form collapses each axis onto a residue while the quadrature keeps
    the principal-value normalization), so comparisons should use
    max-normalized distributions; the per-pathway partials carry the same
    constant and still satisfy the 2 Re(sum) identity.
    """
    if t_fs < 0.0:
        raise ValueError(f"evaluation time must be non-negative, got {t_fs}")
    if system.aggregate.n_sites > 3:
        raise ValueError(
            "the brute-force quadrature is intended for aggregates of at most "
            f"3 sites, got {system.aggregate.n_sites}"
        )

    partials = {lev: _run_level(system, source, t_fs, window_scale, lev) for lev in (1, 2)}
    raws = {lev: 2.0 * p.sum(axis=0).real for lev, p in partials.items()}
    diff = float(np.abs(_normalized(raws[2]) - _normalized(raws[1])).max(initial=0.0))
    if not np.isfinite(diff) or diff > rtol:
        raise RuntimeError(
            "quadrature did not converge: refinement levels disagree by "
            f"{diff:.3e} (requested {rtol:.3e}); window_scale={window_scale}, "
            f"t={t_fs} fs; raw level 1 {raws[1]!r} vs level 2 {raws[2]!r}"
        )

    raw = raws[2]
    return PreparationResult(
        populations=np.clip(raw, 0.0, None),
        raw=raw,
        pathway_partials=partials[2],
        time_fs=float(t_fs),
        method="quadrature",
        regularized=system.poles.regularized,
        source_summary=describe_source(source),
        diagnostics={
            "level_difference": diff,
            "window_scale": float(window_scale),
            "rtol": float(rtol),
        },
    )
