"""Photon-pair and classical pulse sources as four-point correlators.

The classical reference is four identical Gaussian pulses (center, width,
scale); its correlator is a product of four pulse amplitudes.

The entangled pair from a type-II down-conversion crystal carries the
joint spectral amplitude

    F(wa, wb) = alpha A_p(wa + wb) [sinc(phi1) e^{i phi1} + sinc(phi2) e^{i phi2}],
    2 phi_r = T1 (wa - w_r) + T2 (wb - w_r)  in radians,

with w_1, w_2 the signal/idler reference frequencies and T1, T2 the
crystal group delays (entanglement time T2 - T1).  The pump envelope and
each classical pulse are one Gaussian amplitude, the exact Fourier
transform of E0 exp(-t^2 / (2 tau^2)),

    A(w) = E0 sqrt(pi / G) exp(-(w - center)^2_ang / (4 G)),  G = 1 / (2 tau^2),

with the detuning converted to rad/fs (``gaussian_amplitude``).  Each
phase-matching branch is evaluated through the identity

    sinc(phi) e^{i phi} = expm1(2 i phi) / (2 i phi),

one transcendental per point, with a series branch for |2 phi| below
``_SINC_SERIES_RADIUS``; when w_1 == w_2 the two branches coincide and
one is evaluated and doubled.  2 phi_r is built per photon frequency on
that frequency's own shape, so a zero group delay adds no term at all.

Everything is entire in the frequency arguments, so the correlators
extend to complex frequency by direct evaluation.  A conjugated field leg
is the analytic continuation conj(f(conj(w))) of the conjugate
amplitude; since the pump Gaussian and the phase have real coefficients,
the conjugate JSA leg is the same expression with -2 i phi in place of
2 i phi and needs no conjugation passes.

A source's two field legs ``preparation_ket(x, y)`` and
``preparation_bra(x, y)``, which broadcast their arguments, define a pair
plainly: ``preparation_ket(w4, w3) * preparation_bra(w2, w1)`` is the
conjugated four-point correlator, the pair source's bra leg is its ``jsa``
and its ket leg the conjugate continuation, and the reference evaluations
in the tests take them.  The preparation engine talks to a source through
one method:

- ``pair_factors(ket_x, ket_y, bra_x, bra_y)``, the product
  ``preparation_ket(x, y) * preparation_bra(x', y')`` for each of the
  five pathways, returned as labelled factors.  An argument is a list of
  terms ``(axes, array)`` whose sum it is, and a factor is one
  ``(axes, array)`` with one array dimension per character of ``axes``,
  each of the axis's full size.  Terms on equal axis sets are added, and
  a sum of all zeros, a pole that cancels or a lone term of zeros, drops
  out exactly.  So once poles are passed as sums of state-pole terms,
  each on one axis (``excitation.PoleTable``), the one-exciton poles
  cancel across the poles' axes: fe[f, b] - ee[a, b] + eg[a] leaves the
  state pole s_f on f alone.  Terms on the mode axis ``MODES`` alone are
  shifts: the transport pathways' mode poles, which move the pair
  little; only those pathways pass any.  The call returns
  ``(factors, excess)``, and the pair is the product of the factors and
  of 1 + m over the excess factors m: the change the shifts make to the
  factors they are split off, each computed without cancellation.  A
  factor the source takes whole carries the mode axis.  The engine
  multiplies the factors and its weights and sums over the pathway's
  axes in ``matmul`` calls, so no factor is broadcast to the full
  pathway grid unless the source returns it so; where a factor carries
  the mode axis, it multiplies all of them into one array first.

Both sources factor their Gaussians (the pump of each leg's sum
frequency, or a classical amplitude of one argument) through
``_gaussian_factors``, each on the axes of its unshifted sum with the
change its shifts make split off as excess factors.  A leg's phase
matching lies on the axes of those unshifted photon frequencies whose
group delays are nonzero, and the change its shifts make is its Taylor
series in the change delta of 2 i phi_r (``_expm1_ratio_taylor``,
``_taylor_orders``), summed into one excess factor by one matrix product
per target.  A Gaussian whose excess exponent would leave
``_EXCESS_EXPONENT_RANGE``, or a matching whose |delta| the series cannot
take, is taken whole, on its shifted arguments.

A narrow pump leaves most of a pathway's grid deep in its Gaussian's
tail, so a Gaussian exponent on the f axis is screened per (target, f)
slice: a cell whose real part lies more than ``_SCREEN_MARGIN`` (130)
below the largest of its slice is 0.0 without an ``exp``, a change below
the last bit of every raw population the tests evaluate.  The excess
factors, the phase matching and Gaussians off the f axis (a classical
leg on one-exciton axes alone) are not screened.

A source may describe a block of scan targets (``excitation.scan_source``
with an array of target energies): each field that holds one value per
target, the pump center and in degenerate targeting the phase-matching
references, enters ``pair_factors`` as a labelled term on the target axis
``TARGETS``.  The centre of each Gaussian joins the smallest term of its
sum, so the target axis reaches its exponent, the excess factor of that
term's shifts, and in degenerate targeting the phase matching and its
excess, whose matrix products are stacked on the target axis; every
other factor is built once for the block.  No choice the module makes
looks across that axis: terms on equal axis sets less it are combined,
terms are summed smallest first by their size per target, and the screen
takes its maxima per target, so each target's slice of every factor is
bitwise what its own source gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import units

_SINC_SERIES_RADIUS = 1e-4
# ``_expm1_ratio_taylor`` seeds its downward recurrence this many orders up,
# and ``_taylor_orders`` takes at most this many orders.
_TAYLOR_SEED_ORDERS = 20
_TAYLOR_MAX_ORDERS = 14
_FACTORIALS = np.array([float(math.factorial(n))
                        for n in range(_TAYLOR_MAX_ORDERS + _TAYLOR_SEED_ORDERS + 1)])
# Range of the real part of an excess exponent E (``_gaussian_factors``).
# Above it a factor exp(E) could overflow against the others, which it
# compensates within e^50 at a cost of about 50 eps of their product's
# rounding; below it 1 + expm1(E) keeps less than e^-1 of its relative
# precision.  A Gaussian that would take E outside is taken whole.
_EXCESS_EXPONENT_RANGE = (-1.0, 50.0)
# Margin M of the screen of a Gaussian exponent on the f axis
# (``_screened_exp``): its exp is skipped where the real part lies more
# than M below the largest of its (target, f) slice.  A skipped cell must
# stay below the last bit of its slice's sum over the other axes: 53 ln 2
# = 37 for a double's rounding, 50 for an excess factor, which may raise a
# cell by e^50 within ``_EXCESS_EXPONENT_RANGE``, and ln n = 10 for the
# n <= 26^3 cells of a slice (f, e, u, p) add up to 97.  The rest, e^33,
# is left to the other factors of the pathway (phase matching, weights),
# which the screen does not see; on the engine's test cases raw changes
# at M = 80 and not at 100.
_SCREEN_MARGIN = 130.0
# The axis of the targets of a scan block and the axis of the transport
# modes, whose poles are the shifts of a pair (module docstring).
TARGETS = "t"
MODES = "p"


def _expm1_ratio(w):
    """expm1(w)/w for complex w with a series branch near the origin.

    At w = 2i phi this is sinc(phi) e^{i phi}, one phase-matching branch.
    """
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < _SINC_SERIES_RADIUS
    if not small.any():
        return np.expm1(w) / w
    safe = np.where(small, 1.0, w)
    series = 1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0))
    return np.where(small, series, np.expm1(safe) / safe)


def _expm1_ratio_taylor(w, orders):
    """The Taylor coefficients a_n = g^(n)(w) / n!, n = 0 .. ``orders``, of
    g = ``_expm1_ratio`` at w, stacked on a leading axis.

    From g^(n)(w) = int_0^1 tau^n e^{w tau} dtau, w a_n = e^w / n! - a_{n-1}.
    Where |w| >= 1 the recurrence runs upward from a_0 = g(w); inside, it
    runs downward from a zero ``_TAYLOR_SEED_ORDERS`` orders up, each step
    shrinking the seed's error by |w|.
    """
    w = np.asarray(w, dtype=complex)
    coefficients = np.empty((orders + 1,) + w.shape, dtype=complex)
    coefficients[0] = _expm1_ratio(w)
    if not orders:
        return coefficients
    inside = np.abs(w) < 1.0
    outside = ~inside
    exp_w = np.exp(w)
    up, exp_up, a = w[outside], exp_w[outside], coefficients[0][outside]
    for n in range(1, orders + 1):
        a = (exp_up / _FACTORIALS[n] - a) / up
        coefficients[n][outside] = a
    down, exp_down, a = w[inside], exp_w[inside], np.zeros_like(w[inside])
    for n in range(orders + _TAYLOR_SEED_ORDERS, orders, -1):
        a = exp_down / _FACTORIALS[n] - down * a
    for n in range(orders, 0, -1):
        coefficients[n][inside] = a
        a = exp_down / _FACTORIALS[n] - down * a
    return coefficients


def _taylor_orders(radius):
    """The fewest Taylor orders N of g = ``_expm1_ratio`` whose remainder,
    at most e^|d| |d|^N / (N + 1)! of |d| int_0^1 tau |e^{w tau}| dtau, is
    within 1e-16 of it for every |d| <= ``radius``.  None past 0.51, the reach
    of ``_TAYLOR_MAX_ORDERS``, which keeps the upward recurrence damped by |d/w|."""
    return next((n for n in range(_TAYLOR_MAX_ORDERS + 1) if math.exp(radius)
                 * radius ** (n + 1) / math.factorial(n + 1) <= 1e-16 * radius), None)


def gaussian_gamma_from_tau(tau_fs: float) -> float:
    """Spectral-width parameter G = 1/(2 tau^2) in rad^2/fs^2."""
    units.require(tau_fs, "temporal width must be finite and positive", 0.0, strict=True)
    return 1.0 / (2.0 * tau_fs * tau_fs)


def gaussian_amplitude(omega, center: float, gamma: float, scale: float):
    """scale sqrt(pi / G) exp(kappa (omega - center)^2) with one complex exp
    per point, entire in omega (cm^-1, possibly complex)."""
    # i^2 in the squared scaled detuning gives the Gaussian's exponent
    d = np.asarray(np.subtract(omega, center, dtype=complex))
    d *= 0.5j * units.TWO_PI_C / np.sqrt(gamma)
    d *= d
    np.exp(d, out=d)
    d *= scale * np.sqrt(np.pi / gamma)
    return d[()]  # a scalar for a scalar argument


def on_axes(axes: str, labelled):
    """A labelled array ``(own, array)`` as a view on ``axes``.

    ``array`` has one dimension per character of ``own``; the view orders
    them as in ``axes`` and has size 1 on every axis ``own`` lacks.
    """
    own, array = labelled
    array = np.asarray(array)
    if own == axes:
        return array
    return array.transpose([own.index(c) for c in axes if c in own]).reshape(
        [array.shape[own.index(c)] if c in own else 1 for c in axes])


def _targets_first(axes: str) -> str:
    return TARGETS + axes.replace(TARGETS, "") if TARGETS in axes else axes


def _grid(terms):
    """The union of the terms' axes, the target axis first, and the size of each."""
    sizes = {}
    for axes, array in terms:
        sizes.update(zip(axes, np.shape(array)))
    axes = _targets_first("".join(sizes))
    return axes, tuple(sizes[c] for c in axes)


def _per_target(term):
    """The axes and the shape of a labelled array less the target axis."""
    axes, array = term
    shape = np.shape(array)
    if TARGETS not in axes:
        return axes, shape
    t = axes.index(TARGETS)
    return axes[:t] + axes[t + 1:], shape[:t] + shape[t + 1:]


def _cells(term) -> int:
    """The size of a labelled array per target."""
    return math.prod(_per_target(term)[1])


def labelled_sum(terms):
    """The sum of labelled terms as a new array labelled by the union of
    their axes.  The smaller terms, by their size per target, are added
    first, so only the last addition runs on the full shape.  That one
    adds in place to the sum so far spread over the full shape, which
    numpy runs up to four times faster than one binary operation whose
    operands it must both broadcast."""
    total = np.zeros((), dtype=complex)
    if not terms:
        return "", total
    axes, shape = _grid(terms)
    *smaller, largest = sorted(terms, key=_cells)
    for term in smaller:
        total = total + on_axes(axes, term)
    out = np.empty(shape, dtype=complex)
    out[...] = total
    return axes, np.add(out, on_axes(axes, largest), out=out)


def _union(axes, other):
    return _targets_first(axes + "".join(c for c in other if c not in axes))


def _on_targets(value):
    """A source parameter as a labelled term: on the target axis when it
    holds one value per target of a block, on no axis when it is one value."""
    return (TARGETS, np.asarray(value, dtype=float)) if np.ndim(value) else ("", value)


def _merged(terms):
    """The terms with equal axis sets summed, and the sums of all zeros dropped."""
    by_axes = {}
    for own, array in terms:
        _accumulate(by_axes, own, np.asarray(array))
    return [(axes, total) for axes, total in by_axes.values() if total.any()]


def _split(terms):
    """The merged terms of a sum apart from its shift, and the merged shift,
    the terms on the mode axis alone."""
    return (_merged([term for term in terms if term[0] != MODES]),
            _merged([term for term in terms if term[0] == MODES]))


def _accumulate(groups, axes, array, combine=np.add, fresh=False):
    """Combines a labelled array into the entry of ``groups`` with its axis
    set less the target axis, which the combination carries if either does.
    Returns the key.  A ``fresh`` array, one nothing else holds, takes the
    sum in place where it spans the combination's axes."""
    key = frozenset(axes) - {TARGETS}
    if key not in groups:
        groups[key] = (axes, array)
        return key
    own, total = groups[key]
    union = _union(own, axes)
    if fresh and union == axes:  # addition commutes bitwise
        groups[key] = (axes, np.add(on_axes(axes, (own, total)), array, out=array))
    else:
        groups[key] = (union, combine(on_axes(union, (own, total)), on_axes(union, (axes, array))))
    return key


def _excess_product(a, b):
    """The excess of (1 + a)(1 + b) over 1, with one temporary array."""
    product = a * b
    product += a
    return np.add(product, b, out=product)


def _detuning(terms, center):
    """Merged terms of a sum less ``center``, a labelled term, as terms of
    the same sum: each term less its real mean rounded to a whole cm^-1,
    the smallest also less the rest of ``center``.  Returns them and the
    index of the smallest.

    A term near 1e4 cm^-1 loses no bits to the subtraction of a nearby
    whole number and the rest is a whole number less ``center``, so summing
    the terms rounds only their small remainders.  Where ``center`` lies on
    the target axis, the smallest term is the one that takes that axis.
    """
    means = [np.round(t.real.sum() / t.size) for _, t in terms]
    centred = [(own, t - mean) for (own, t), mean in zip(terms, means)] or [("", 0j)]
    smallest = min(range(len(centred)), key=lambda i: _cells(centred[i]))
    c_axes, c = center
    rest = (c_axes, sum(means) - c)
    own, term = centred[smallest]
    union = _union(own, c_axes)
    centred[smallest] = (union, on_axes(union, (own, term)) + on_axes(union, rest))
    return centred, smallest


def _gaussian(base, shifts, center, kappa):
    """The exponent kappa d^2 of a Gaussian of a sum split into ``base`` and
    ``shifts`` (``_split``), with d the base less ``center``, and the change
    a shift s makes to it.

    Returns the exponent, labelled, and the change
    kappa ((d + s)^2 - d^2) = 2 kappa s (d + s / 2) as one labelled
    product per term of d, the one that took ``center`` also taking s / 2,
    so that no product has more axes than a term and the shift.
    """
    detuning, smallest = _detuning(base, center)
    axes, exponent = labelled_sum(detuning)
    exponent *= exponent
    exponent *= kappa
    changes = []
    for s_axes, s in shifts:
        halved = list(detuning)
        own, term = halved[smallest]
        union = _union(own, s_axes)
        halved[smallest] = (union, on_axes(union, (own, term)) + on_axes(union, (s_axes, 0.5 * s)))
        for own, term in halved:
            union = _union(own, s_axes)
            changes.append((union, on_axes(union, (own, (2.0 * kappa) * term))
                            * on_axes(union, (s_axes, s))))
    return (axes, exponent), changes


def _screened_exp(axes, exponent):
    """exp of a labelled exponent in place.  On the f axis, a cell whose
    real part lies more than ``_SCREEN_MARGIN`` below the largest of its
    (target, f) slice is set to 0.0 without an ``exp``."""
    if "f" not in axes:
        return np.exp(exponent, out=exponent)
    real = exponent.real
    others = tuple(i for i, c in enumerate(axes) if c not in ("f", TARGETS))
    floor = real.max(axis=others, keepdims=True)
    floor -= _SCREEN_MARGIN
    dead = real < floor  # false at NaN, which stays live
    np.exp(exponent, out=exponent, where=~dead)
    exponent[dead] = 0.0
    return exponent


def _gaussian_factors(arguments, center, gamma, constant):
    """``constant`` times the product over ``arguments`` of
    exp(kappa (w - center)^2), kappa = -(2 pi c)^2 / (4 G), at each
    argument's sum w, as labelled ``(factors, excess)``.  ``center`` is a
    labelled term (``_on_targets``), one centre per target on that axis.

    A Gaussian's exponent joins the factors and the changes its shifts
    make join the excess exponents, by axis set (``_gaussian``), unless a
    change would take the real part of an excess exponent out of
    ``_EXCESS_EXPONENT_RANGE``: then that Gaussian alone is taken whole.
    The first factor carries ``constant``.  The factors are screened
    (``_screened_exp``); the excess factors are not.
    """
    kappa = -((0.5 * units.TWO_PI_C) ** 2) / gamma  # per squared detuning
    low, high = _EXCESS_EXPONENT_RANGE
    exponents, growth = {}, {}
    for terms in arguments:
        exponent, changes = _gaussian(*_split(terms), center, kappa)
        grown, changed = dict(growth), set()
        for axes, change in changes:
            changed.add(_accumulate(grown, axes, change, fresh=True))
        if any(grown[key][1].real.max() > high or grown[key][1].real.min() < low
               for key in changed):
            exponent, _ = _gaussian(_merged(terms), [], center, kappa)
        else:
            growth = grown
        _accumulate(exponents, *exponent, fresh=True)
    factors = [(axes, _screened_exp(axes, e)) for axes, e in exponents.values()]
    factors[0][1][...] *= constant
    return factors, [(axes, np.expm1(e, out=e)) for axes, e in growth.values()]


@dataclass(frozen=True)
class EppSource:
    """Entangled photon pair source.

    ``omega1``/``omega2`` are the signal and idler center frequencies and
    double as the reference frequencies inside the phase-matching
    arguments, ``pump_center`` is the sum-frequency center, ``tau_pump``
    the pump duration, and ``t1``/``t2`` the crystal group delays.

    The legs evaluate F as the module docstring writes it and broadcast
    their frequency arguments: the pump costs one ``exp`` on the shape of
    the sum, each phase-matching branch one ``expm1`` on the shape of the
    frequencies it depends on, and the conjugate leg flips the sign of
    2 i phi instead of conjugating.  ``pair_factors`` factors a pair as
    the module docstring describes.
    """

    omega1: float
    omega2: float
    pump_center: float
    tau_pump: float
    t1: float
    t2: float
    alpha: float = 1.0
    e0: float = 1.0

    def __post_init__(self):
        # omega1, omega2 and pump_center hold one value per target in a scan block
        for name in ("omega1", "omega2", "pump_center", "t1", "e0"):
            units.require(getattr(self, name), f"{name} must be finite")
        units.require(self.tau_pump, "pump duration tau_pump must be finite and positive",
                      0.0, strict=True)
        units.require(self.t2, "group delays must be finite and satisfy t2 >= t1", self.t1)
        units.require(self.alpha, "down-conversion efficiency alpha must be finite and positive",
                      0.0, strict=True)

    @property
    def entanglement_time(self) -> float:
        return self.t2 - self.t1

    @property
    def pump_gamma(self) -> float:
        return gaussian_gamma_from_tau(self.tau_pump)

    def pump_amplitude(self, omega):
        """A_p(omega), the pump's Gaussian amplitude."""
        return gaussian_amplitude(omega, self.pump_center, self.pump_gamma, self.e0)

    def _matching(self, wa, wb, sign, references, orders=0):
        """sum_r g(w_r) and its Taylor coefficients to ``orders``, stacked on
        a leading axis, for g = ``_expm1_ratio`` and w_r = 2 i sign phi_r at
        the photon frequencies wa and wb, one per reference (a lone one
        counts twice).  sign = +1 gives F's phase matching, -1 its conjugate
        leg.  w_r is built per photon frequency, and a zero group delay adds
        no term; the branches, of one shape as the references are, are
        evaluated as one array."""
        k = sign * 1j * units.TWO_PI_C
        branches = []
        for reference in references:
            w = 0.0
            if self.t1:
                w = (k * self.t1) * (wa - reference)
            if self.t2:
                w = w + (k * self.t2) * (wb - reference)
            branches.append(w)
        coefficients = _expm1_ratio_taylor(np.array(branches), orders)
        total = 0 + coefficients[:, 0]
        for r in range(1, len(references)):
            total = total + coefficients[:, r]
        total *= 2.0 / len(references)
        return total

    def _references(self):
        """The phase-matching reference frequencies, one of them when they
        are equal: its branch is then evaluated once and doubled."""
        if np.array_equal(self.omega1, self.omega2):
            return [self.omega1]
        return [self.omega1, self.omega2]

    def _amplitude(self, omega_a, omega_b, sign):
        wa = np.asarray(omega_a, dtype=complex)
        wb = np.asarray(omega_b, dtype=complex)
        amplitude = self.pump_amplitude(wa + wb)
        matching, = self._matching(wa, wb, sign, self._references())
        amplitude *= self.alpha * matching
        return amplitude

    def jsa(self, omega_a, omega_b):
        """Joint spectral amplitude F(omega_a, omega_b)."""
        return self._amplitude(omega_a, omega_b, 1.0)

    # The excitation integrals pair each time-ordered resolvent with the
    # field components that can precede it, which is the globally
    # conjugated form of <E*(w4) E*(w3) E(w2) E(w1)> (same real-valued
    # observables).  The ket legs therefore carry the conjugate-phase
    # continuation and the bra legs the direct amplitude.
    def preparation_ket(self, omega_a, omega_b):
        """conj(F(conj(omega_a), conj(omega_b))): F with -2 i phi in place
        of 2 i phi, as pump and phase have real coefficients."""
        return self._amplitude(omega_a, omega_b, -1.0)

    preparation_bra = jsa

    def pair_factors(self, ket_x, ket_y, bra_x, bra_y):
        """preparation_ket(x, y) * preparation_bra(x', y') as labelled
        ``(factors, excess)``, as the class docstring describes."""
        legs = ((ket_x, ket_y, -1.0), (bra_x, bra_y, 1.0))
        pump, pump_excess = _gaussian_factors(
            [x + y for x, y, _ in legs], _on_targets(self.pump_center), self.pump_gamma,
            (self.alpha * self.e0) ** 2 * (np.pi / self.pump_gamma))
        references = [_on_targets(r) for r in self._references()]
        # the pump's excess first, so the engine meets a 4-D matching excess once
        matching, excess = {}, {}
        for axes, m in pump_excess:
            _accumulate(excess, axes, m, _excess_product)
        for x, y, sign in legs:
            # a photon frequency enters only through a nonzero group delay
            photons = ((self.t1, x), (self.t2, y))
            split = [_split(terms) if delay else ([], []) for delay, terms in photons]
            # the shifts change every branch's 2 i sign phi by one delta
            d_axes, d = labelled_sum([(axes, (sign * 1j * units.TWO_PI_C * delay) * s)
                                      for (delay, _), (_, shifts) in zip(photons, split)
                                      for axes, s in shifts])
            orders = _taylor_orders(float(np.abs(d).max()))
            if orders is None:  # taken whole, on the shifted frequencies
                split = [(_merged(terms), []) if delay else ([], []) for delay, terms in photons]
                orders = 0
            wa, wb = (labelled_sum(base) for base, _ in split)
            axes, shape = _grid([wa, wb, *references])
            coefficients = self._matching(on_axes(axes, wa), on_axes(axes, wb), sign,
                                          [on_axes(axes, r) for r in references], orders)
            # a copy where the Taylor coefficients follow, so that the factor
            # does not hold them
            m = coefficients[0].copy() if orders else coefficients[0]
            _accumulate(matching, axes, np.broadcast_to(m, shape), np.multiply)
            if orders:
                # the excess sum_n (c_n / m) delta^n, one matrix product per target
                powers = np.cumprod(np.broadcast_to(d, (orders,) + d.shape), axis=0)
                ratios = np.moveaxis(coefficients[1:] / m, 0, -1)
                lead = ratios.shape[:1] if axes.startswith(TARGETS) else ()
                change = np.matmul(ratios.reshape(lead + (-1, orders)), powers.reshape(orders, -1))
                _accumulate(excess, axes + d_axes, change.reshape(shape + d.shape), _excess_product)
        return pump + list(matching.values()), list(excess.values())


@dataclass(frozen=True)
class CoherentSource:
    """Classical reference: four identical Gaussian pulses (center, width, scale).

    Each field leg is the transform-limited amplitude

        A(w) = scale sqrt(pi / G) exp(-(w - center)^2_ang / (4 G)),  G = 1 / (2 tau^2),

    with ``center`` in cm^-1 and ``tau`` in fs, and the correlator
    factorizes into four of them.  A has real coefficients, so the
    conjugate continuation conj(A(conj(w))) of a conjugated leg is A itself
    and both preparation legs are the product A(x) A(y).
    """

    center: float
    tau: float
    scale: float = 1.0

    def __post_init__(self):
        units.require(self.center, "pulse center must be finite")
        units.require(self.scale, "pulse scale must be finite")
        units.require(self.tau, "pulse width tau must be finite and positive", 0.0, strict=True)

    @property
    def gamma(self) -> float:
        return gaussian_gamma_from_tau(self.tau)

    def amplitude(self, omega):
        """A(omega), the pulse's Gaussian amplitude."""
        return gaussian_amplitude(omega, self.center, self.gamma, self.scale)

    def preparation_ket(self, omega2, omega1):
        return self.amplitude(omega2) * self.amplitude(omega1)

    preparation_bra = preparation_ket

    def pair_factors(self, ket_x, ket_y, bra_x, bra_y):
        """A(x) A(y) A(x') A(y') as labelled ``(factors, excess)`` from
        ``_gaussian_factors``."""
        return _gaussian_factors([ket_x, ket_y, bra_x, bra_y], _on_targets(self.center),
                                 self.gamma, (self.scale * np.sqrt(np.pi / self.gamma)) ** 4)


def jsi_map(source: EppSource, omega_a_grid, omega_b_grid) -> np.ndarray:
    """Max-normalized |F|^2 sampled on the outer product of two real axes."""
    wa = np.asarray(omega_a_grid, dtype=float)
    wb = np.asarray(omega_b_grid, dtype=float)
    if wa.size == 0 or wb.size == 0:
        raise ValueError("JSI grid axes must be non-empty")
    amp = source.jsa(wa[:, None], wb[None, :])
    intensity = np.abs(amp) ** 2
    peak = intensity.max()
    return intensity / peak if peak > 0.0 else intensity
