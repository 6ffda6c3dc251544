"""Time-frequency filtered two-photon coincidence counting.

The detection stage watches the cascaded emission f -> e -> g of the
two-exciton populations prepared by :mod:`excitonscope.excitation`.  Each
photon passes a Lorentzian spectral gate and a one-sided exponential
temporal gate, and the gate pair forms the detector spectrogram.  A map
scans the gate centres over its :class:`SignalGrid` axes and opens the
gates at its waiting times, so a gate is its two widths
(:class:`FilterSpec`).  Folding the spectrogram's delay axis against an
emission coherence at gap omega_ab with width gamma_ab gives one closed
rational lineshape per delay branch, each
N / (sigma_omega +- sigma_t + gamma_ab +- i (omega_center - omega_ab)),
N = 1 / (2 sigma_omega 2 pi c): the tau > 0 branch
(:func:`_positive_branch`) always converges, the tau < 0 branch only
while sigma_omega + gamma_ab > sigma_t (:func:`_check_negative_branch`).
The coincidence map then factorizes into a sum over the shared
one-exciton index of (two-exciton side) x (one-exciton side) profiles
once the transport intervals are frozen at the waiting times.  The
gates, the spectrogram and the folds themselves are reference code of
the test suite (``tests/detector_reference.py``), which checks these
closed forms against them.

:func:`coincidence_snapshot` evaluates the map by this waiting-time
factorization: the slow gate-time envelopes are absorbed into the overall
normalization and the population propagators act for exactly
``t_wait_two`` (between pair absorption and the f -> e emission) and
``t_wait_one`` (between the two emissions).  On the two-exciton side
the two delay branches of each emitter pair are summed in closed form
(:func:`_emission_side`), one real lineshape per (f', e) pair and gate
frequency rather than two complex ones.  The test suite checks it
against a brute-force evaluation of the nested gate-time integrals that
keeps the full time arguments of both propagators
(``tests/time_oracle.py``).

Filters are named by role (the f -> e gate and the e -> g gate), and the
detector density of states is a constant scalar folded into the overall
normalization (idealized flat detectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import units
from .excitation import ExcitonSystem
from .propagators import population_evolve, population_propagator


@dataclass(frozen=True)
class FilterSpec:
    """A detection gate's spectral half width ``sigma_omega`` and temporal
    decay ``sigma_t`` (cm^-1); its centre and opening are the map's grid's."""

    sigma_omega: float
    sigma_t: float

    def __post_init__(self):
        units.require(self.sigma_omega, "sigma_omega must be finite and positive", 0.0, strict=True)
        units.require(self.sigma_t, "sigma_t must be finite and positive", 0.0, strict=True)


class DivergentGateError(ValueError):
    """A gate pair whose tau < 0 branch diverges for the model's widths."""


def _check_negative_branch(filt: FilterSpec, gamma_min: float):
    if filt.sigma_omega + gamma_min <= filt.sigma_t:
        raise DivergentGateError(
            "tau < 0 branch diverges: need sigma_omega + gamma_ab > sigma_t, "
            f"got {filt.sigma_omega} + {gamma_min} <= {filt.sigma_t}"
        )


def _positive_branch(omega_bar, omega_ab, gamma_ab, sigma_omega, sigma_t):
    """The tau > 0 lineshape of the gate pair at ``omega_bar`` against an
    emission coherence at ``omega_ab`` with width ``gamma_ab`` (cm^-1)."""
    norm = 0.5 / sigma_omega / units.TWO_PI_C
    return norm / ((sigma_omega + sigma_t + gamma_ab) + 1j * (omega_bar - omega_ab))


@dataclass
class SignalGrid:
    """A map's gate centres and opening times, which the constructor
    takes, and the map :func:`coincidence_snapshot` fills in.

    The f -> e and e -> g gate centres scan ``omega_fe`` and ``omega_eg``
    (cm^-1); the gates open at ``t_wait_two`` and ``t_wait_two +
    t_wait_one`` (fs).  ``result`` rows follow ``omega_fe`` and columns
    ``omega_eg``, max-normalized with small negative interference residue
    clipped at zero.  ``clipped_cells`` counts the clipped cells and
    ``clipped_fraction`` is their mass over the positive mass of the
    normalized map, or None where cells were clipped and none is positive.
    """

    omega_fe: np.ndarray
    omega_eg: np.ndarray
    t_wait_two: float
    t_wait_one: float
    result: np.ndarray | None = field(init=False, default=None)
    clipped_cells: int = field(init=False, default=0)
    clipped_fraction: float | None = field(init=False, default=0.0)

    def __post_init__(self):
        self.omega_fe = np.atleast_1d(np.asarray(self.omega_fe, dtype=float))
        self.omega_eg = np.atleast_1d(np.asarray(self.omega_eg, dtype=float))
        for name in ("omega_fe", "omega_eg"):
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be a 1-D axis")
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for t in (self.t_wait_two, self.t_wait_one):
            units.require(t, "waiting times must be finite and non-negative", 0.0)


def coincidence_snapshot(
    system: ExcitonSystem,
    rho_ff: np.ndarray,
    filter_fe: FilterSpec,
    filter_eg: FilterSpec,
    grid: SignalGrid,
) -> SignalGrid:
    """Waiting-time factorized coincidence map.

    The two-exciton populations ``rho_ff`` evolve for ``grid.t_wait_two``,
    emit through the f -> e gate with both delay branches, the resulting
    one-exciton populations evolve for ``grid.t_wait_one`` and emit
    through the e -> g gate with the positive-delay branch; the map is
    2 Re of the factorized sum over the shared one-exciton index.
    """
    rho = _checked_populations(system, rho_ff)
    side_fe = _emission_side(system, rho, filter_fe, grid.omega_fe, grid.t_wait_two)
    return _fill(system, side_fe, filter_eg, grid)


def _checked_populations(system: ExcitonSystem, rho_ff) -> np.ndarray:
    rho = np.asarray(rho_ff, dtype=float)
    if rho.shape != (system.n_two,):
        raise ValueError(f"rho_ff must have shape ({system.n_two},), got {rho.shape}")
    units.require(rho, "rho_ff must be finite")
    return rho


# The bytes one (e, f', omega) scratch buffer of _emission_side may take for
# a block of two e; a block holds one e where two do not fit.
_BLOCK_BYTES = 224 * 1024


def _emission_side(system, rho, filter_fe, omega_fe, t_wait_two):
    """The two-exciton side of the map: the populations ``rho`` evolved
    for ``t_wait_two`` and emitted through the f -> e gate, as the real
    and imaginary (e, omega_fe) parts.

    Each shared e sums, over the f' emitters feeding it, the populations
    times |d_fe|^2 times both delay branches (module docstring) in
    closed form: with A+- = sigma_omega +- sigma_t + gamma_fe,
    P = detune^2 + A+ A- and Q = 2 sigma_t detune, the branch sum is
    N (A+ + A-)(P + iQ) / (P^2 + Q^2), N = 1 / (2 sigma_omega 2 pi c), with
    one real division per point, and P > 0 wherever
    :func:`_check_negative_branch` holds.
    """
    w_fe, g_fe, _, _, dd_fe, _ = system.detection_tables
    sigma_omega, sigma_t = filter_fe.sigma_omega, filter_fe.sigma_t
    _check_negative_branch(filter_fe, float(g_fe.min()))
    populations_f = population_evolve(system.transport_two, rho, t_wait_two)

    # the (f', e) factors of the closed form, for all e at once
    a_pos = sigma_omega + sigma_t + g_fe
    a_neg = sigma_omega - sigma_t + g_fe
    a_prod = a_pos * a_neg
    scale = (populations_f[:, None] * dd_fe * (0.5 / sigma_omega / units.TWO_PI_C)
             * (a_pos + a_neg))
    # A block of e at a time in five reused real (e, f', omega) buffers, per
    # call since maps of one system may run in threads.  A block holds two
    # e where they fit _BLOCK_BYTES (the bundled model's 105 KiB an e), else
    # one: two were the fastest on the bundled model and slower than one
    # from N=20 on, and on small models more than two cost more on a map's
    # first call, in fresh pages, than they saved.  The gate axis is
    # tiled once, so that each subtraction broadcasts only the (e, f')
    # column, and Q overwrites detune, since a step whose output is one of
    # its inputs need not first read the output into cache.  This side of
    # a bundled map takes about 1.1 ms, and 3.0, 6.9 and 33 ms at N=20, 26
    # and 40 (fastest of repeated calls, 2-vCPU x86-64 host, BLAS at 1
    # thread).  Each step keeps the operands and order of the plain
    # expressions P = detune * detune + A+ A-, Q = (2 sigma_t) detune,
    # r = (weight N (A+ + A-)) / (P P + Q Q) and the f' sums of r P and r Q,
    # row by row over a non-innermost axis, so every cell is bitwise theirs
    # (np.square(x) is x * x).
    n_f, n_w = w_fe.shape[0], omega_fe.size
    block = 2 if 2 * n_f * n_w * 8 <= _BLOCK_BYTES else 1
    w_e, a_prod_e, scale_e = w_fe.T.copy(), a_prod.T.copy(), scale.T.copy()
    gate = np.empty((block, n_f, n_w))
    gate[...] = omega_fe
    detune, p, r, q_sq = np.empty((4, block, n_f, n_w))
    side_re = np.empty((system.n_one, n_w))
    side_im = np.empty_like(side_re)
    for start in range(0, system.n_one, block):
        es = slice(start, min(start + block, system.n_one))
        n = es.stop - start
        d, pb, rb, qq = detune[:n], p[:n], r[:n], q_sq[:n]
        np.subtract(gate[:n], w_e[es, :, None], out=d)
        np.square(d, out=pb)
        np.add(pb, a_prod_e[es, :, None], out=pb)
        np.multiply(2.0 * sigma_t, d, out=d)  # Q
        np.square(pb, out=rb)
        np.square(d, out=qq)
        np.add(rb, qq, out=rb)
        np.divide(scale_e[es, :, None], rb, out=rb)
        np.multiply(rb, pb, out=pb)
        np.multiply(rb, d, out=d)
        pb.sum(axis=1, out=side_re[es])
        d.sum(axis=1, out=side_im[es])
    return side_re, side_im


def _fill(system, side_fe, filter_eg, grid: SignalGrid) -> SignalGrid:
    """Fills ``grid`` from the two-exciton side ``side_fe``: the
    one-exciton side over ``grid.t_wait_one`` and the e -> g gate, their
    product, and the max normalization with clipping."""
    _, _, w_eg, g_eg, _, dd_eg = system.detection_tables
    side_re, side_im = side_fe
    green_e = population_propagator(system.transport_one, grid.t_wait_one)
    # one-exciton side: transport from the shared e to the emitter e'
    pos = _positive_branch(
        grid.omega_eg, w_eg[:, None], g_eg[:, None],
        filter_eg.sigma_omega, filter_eg.sigma_t,
    )
    side_eg = (dd_eg[:, None] * green_e).T @ pos

    signal = side_re.T @ side_eg.real
    signal -= side_im.T @ side_eg.imag
    signal *= 2.0
    peak = max(signal.max(initial=0.0), -signal.min(initial=0.0))
    if peak > 0.0:
        signal /= peak
    negative = signal < 0.0
    grid.clipped_cells = int(np.count_nonzero(negative))
    clipped_mass = -signal[negative].sum()
    grid.result = np.clip(signal, 0.0, None, out=signal)
    grid.clipped_fraction = 0.0
    if grid.clipped_cells:
        positive_mass = grid.result.sum()
        # with no positive cell the clipped mass is no fraction of anything
        grid.clipped_fraction = float(clipped_mass / positive_mass) if positive_mass else None
    return grid


# The six-panel filtering study: each label and the changes it makes to the
# reference gates and waiting times.  Spectral and temporal width changes
# apply to both gates.
PANELS = {
    "reference": {},
    "sigma_omega_20": {"sigma_omega": 20.0},
    "t_wait_one_1000": {"t_wait_one": 1000.0},
    "sigma_omega_20_t_wait_one_1000": {"sigma_omega": 20.0, "t_wait_one": 1000.0},
    "sigma_t_0.5409": {"sigma_t": 0.5409},
    "t_wait_two_50": {"t_wait_two": 50.0},
}


def parameter_study(
    system: ExcitonSystem,
    rho_ff: np.ndarray,
    filter_fe: FilterSpec,
    filter_eg: FilterSpec,
    grid: SignalGrid,
):
    """Snapshot maps for the six-panel filtering study, one per ``PANELS``
    label: the reference configuration, the spectral gate width, the
    one-exciton waiting time, both together, the temporal gate width, and
    the two-exciton waiting time varied against it.  Each map equals its
    own :func:`coincidence_snapshot`; panels that share the f -> e gate and
    ``t_wait_two`` share one two-exciton side."""
    rho = _checked_populations(system, rho_ff)
    sides, results = {}, {}
    for label, changes in PANELS.items():
        gates = {k: v for k, v in changes.items() if k in ("sigma_omega", "sigma_t")}
        panel = SignalGrid(
            omega_fe=grid.omega_fe.copy(),
            omega_eg=grid.omega_eg.copy(),
            t_wait_two=changes.get("t_wait_two", grid.t_wait_two),
            t_wait_one=changes.get("t_wait_one", grid.t_wait_one),
        )
        gate_fe = replace(filter_fe, **gates)
        key = (gate_fe, panel.t_wait_two)
        if key not in sides:
            sides[key] = _emission_side(system, rho, gate_fe, panel.omega_fe,
                                        panel.t_wait_two)
        results[label] = _fill(system, sides[key], replace(filter_eg, **gates), panel)
    return results
