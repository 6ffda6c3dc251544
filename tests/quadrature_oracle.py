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
one sparse Catmull-Rom operator (:func:`_pull`).  Tables are stored with
the grid axis first, so the operator reads whole rows.

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
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from excitonscope import units
from excitonscope.excitation import ExcitonSystem, PreparationResult, pathway_weights
from excitonscope.sources import CoherentSource, EppSource

from loop_reference import pole_chains

_GRADE_RATIO = 5.0
_PHASE_PER_NODE = 1.2  # rad of oscillation one quadrature node can carry
_X1_BLOCK = 96  # x1 nodes per pull of the ket chart's h table
_X2_BLOCK = 8  # middle-axis nodes per matmul in the bra chart

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
        return 1.0 / (units.TWO_PI_C * source.tau)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def sum_centers(source) -> tuple[float, float]:
    """Center of the ket-pair and bra-pair frequency sums."""
    if isinstance(source, EppSource):
        return source.pump_center, source.pump_center
    return 2.0 * source.center, 2.0 * source.center


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


def _pull(grid: RegGrid, q, weight=1.0) -> sparse.csr_matrix:
    """Catmull-Rom interpolation operator on ``grid``.

    Applied to a table stored grid axis first, row i of the operator gives
    the table at q[i] for 1-D queries.  For q of shape (..., m) the row
    sums ``weight[..., j]`` times the table at q[..., j] over the last
    axis, the rows following the leading axes; ``weight`` broadcasts
    against ``q``.
    """
    q, weight = np.broadcast_arrays(np.asarray(q, dtype=float), weight)
    if q.ndim == 1:
        q, weight = q[:, None], weight[:, None]
    s = (q - grid.start) / grid.step
    base = np.clip(np.floor(s).astype(np.int64), 1, grid.n - 3)
    f = s - base
    f2 = f * f
    f3 = f2 * f
    taps = np.stack(
        [
            0.5 * (-f3 + 2.0 * f2 - f),
            0.5 * (3.0 * f3 - 5.0 * f2 + 2.0),
            0.5 * (-3.0 * f3 + 4.0 * f2 + f),
            0.5 * (f3 - f2),
        ],
        axis=-1,
    )
    # four taps per summed query in each row, repeated columns merged
    data = (taps * weight[..., None]).ravel()
    cols = ((base - 1)[..., None] + np.arange(4)).ravel()
    indptr = np.arange(0, data.size + 1, 4 * q.shape[-1])
    op = sparse.csr_matrix((data, cols, indptr), shape=(indptr.size - 1, grid.n))
    op.sum_duplicates()
    return op


# ---------------------------------------------------------------------------
# charts


@dataclass
class _Ctx:
    z: SimpleNamespace
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


def _coef4(ctx: _Ctx, ax4: Axis) -> np.ndarray:
    """Weight-folded x4 resolvent rows with the evaluation-time phase, (n_f, n4)."""
    phase = ax4.weights * np.exp(-1j * ctx.t_ang * ax4.nodes)
    return phase / (ax4.nodes - ctx.z.ff[:, None])


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

    # bra side on a (x3 - x4, x2 - x3) table: x4 is summed into rows
    # (f, x3), then each x3 row is pulled at its own x2 - x3
    vg = _reg_grid(ax3.lo - ax4.hi, ax3.hi - ax4.lo, step)
    wg = _reg_grid(ax2.lo - ax3.hi, ax2.hi - ax3.lo, step)
    bvw = ctx.bra(vg.values[:, None], wg.values[None, :])
    x3_rows = np.concatenate([ax3.nodes, [ax3.lo, ax3.hi]])
    n3 = ax3.nodes.size
    t = _pull(vg, x3_rows[:, None] - ax4.nodes, _coef4(ctx, ax4)[:, None, :]) @ bvw
    per_row = sparse.block_diag([_pull(wg, ax2.nodes - x3) for x3 in x3_rows])
    b4s = (t.reshape(ctx.n_f, -1) @ per_row.T).reshape(ctx.n_f, x3_rows.size, -1)

    core, e_lo, e_hi = b4s[:, :n3], b4s[:, n3], b4s[:, n3 + 1]
    c = _res_rows(ax3, z.fe).reshape(ctx.n_f, ctx.n_e, n3) @ core
    tail = _pv_tail(z.fe, ax3.lo, ax3.hi).reshape(ctx.n_f, ctx.n_e)
    c = c + 0.5 * tail[:, :, None] * (e_lo + e_hi)[:, None, :]
    bra_f = np.einsum("fe,feb->fb", ctx.wk, c)
    r_fg = ax2.weights / (ax2.nodes - z.fg[:, None])
    return np.sum(r_fg * ket_f * bra_f, axis=1)


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
    n1, n3 = ax1.nodes.size, ax3.nodes.size

    # h[u, (f, x3)]: x4 summed against the bra table, stored u first
    ug = _reg_grid(ax1.lo - ax2.hi, ax1.hi - ax2.lo, step)
    vg = _reg_grid(ax3.lo - ax4.hi, ax3.hi - ax4.lo, step)
    bv = ctx.bra(vg.values[:, None], ug.values[None, :])
    sum4 = _pull(vg, ax3.nodes[:, None] - ax4.nodes, _coef4(ctx, ax4)[:, None, :])
    h = np.ascontiguousarray((sum4 @ bv).T)

    v2g = _reg_grid(ax3.lo - ax2.hi, ax3.hi - ax2.lo, step)
    kt = ctx.ket(v2g.values[:, None], ax1.nodes[None, :])

    r1 = _res_rows(ax1, z.eg)
    r3 = _res_rows(ax3, z.fe).reshape(ctx.n_f, ctx.n_e, n3)
    t = np.zeros((ax2.nodes.size, ctx.n_f, ctx.n_e, ctx.n_e), dtype=complex)
    for j, x2 in enumerate(ax2.nodes):
        ktq = (_pull(v2g, ax3.nodes - x2) @ kt).T
        # x1 in blocks, so that each block's pull of h stays in cache
        for a in range(0, n1, _X1_BLOCK):
            rows = slice(a, a + _X1_BLOCK)
            hq = (_pull(ug, ax1.nodes[rows] - x2) @ h).reshape(-1, ctx.n_f, n3)
            t[j] += r3 @ (hq * ktq[rows, None, :]).transpose(1, 2, 0) @ r1.T[rows]
    out = np.einsum("jfue,qj->feuq", t, _res_rows(ax2, z2), optimize=True)
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
    n1, n3 = ax1.nodes.size, ax3.nodes.size

    vg = _reg_grid(ax4.lo - ax3.hi, ax4.hi - ax3.lo, step)
    kt = ctx.ket(vg.values[:, None], ax1.nodes[None, :])
    sum4 = _pull(vg, ax4.nodes - ax3.nodes[:, None], _coef4(ctx, ax4)[:, None, :])
    s4 = (sum4 @ kt).reshape(ctx.n_f, n3, n1)

    # the (x2 - x3, x1 - x2) bra table, stored x1 - x2 first
    wgrid = _reg_grid(ax2.lo - ax3.hi, ax2.hi - ax3.lo, step)
    zgrid = _reg_grid(ax1.lo - ax2.hi, ax1.hi - ax2.lo, step)
    bt = ctx.bra(wgrid.values[None, :], zgrid.values[:, None])

    # x2 runs in blocks, each folded into s2 by one matmul
    r2 = _res_rows(ax2, z2)
    s2 = np.zeros((z2.size, n1 * n3), dtype=complex)
    m = np.empty((_X2_BLOCK, n1, n3), dtype=complex)
    for start in range(0, ax2.nodes.size, _X2_BLOCK):
        block = ax2.nodes[start:start + _X2_BLOCK]
        for i, x2 in enumerate(block):
            m[i] = (_pull(zgrid, ax1.nodes - x2) @ bt) @ _pull(wgrid, x2 - ax3.nodes).T
        s2 += r2[:, start:start + block.size] @ m[:block.size].reshape(block.size, -1)
    s2 = s2.reshape(z2.size, n1, n3)
    tails = _pv_tail(z2, ax2.lo, ax2.hi)
    for edge in (ax2.lo, ax2.hi):
        bedge = ctx.bra(edge - ax3.nodes[None, :], ax1.nodes[:, None] - edge)
        s2 += 0.5 * tails[:, None, None] * bedge[None, :, :]

    core = s4.transpose(0, 2, 1)[:, None] * s2[None]
    r3 = _res_rows(ax3, z.ef).reshape(ctx.n_f, ctx.n_e, n3)
    out = np.einsum("ea,fqat,fut->feuq", _res_rows(ax1, z.eg), core, r3, optimize=True)
    return _assemble(ctx, out, transport_first=False)


# ---------------------------------------------------------------------------
# driver


def _run_level(system: ExcitonSystem, source, t_fs, window_scale, level) -> np.ndarray:
    z = pole_chains(system)
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
        regularized=system.poles.regularized,
        diagnostics={
            "level_difference": diff,
            "window_scale": float(window_scale),
            "rtol": float(rtol),
        },
    )
