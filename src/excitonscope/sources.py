"""Photon-pair and classical pulse sources as four-point correlators.

The classical reference is four identical Gaussian pulses (center, width,
scale); its correlator is a product of four pulse amplitudes.

The entangled pair from a type-II down-conversion crystal carries the
joint spectral amplitude

    F(wa, wb) = alpha A_p(wa + wb) [sinc(phi1) e^{i phi1} + sinc(phi2) e^{i phi2}],
    phi_r = ((wa - w_r) T1 + (wb - w_r) T2) / 2  in radians,

with w_1, w_2 the signal/idler reference frequencies and T1, T2 the
crystal group delays (entanglement time T2 - T1).  The pump envelope is
the exact Fourier transform of E0 exp(-t^2 / (2 tau0^2)),

    A_p(w) = E0 sqrt(pi / G) exp(-(w - w_p)^2_ang / (4 G)),  G = 1 / (2 tau0^2),

with the detuning converted to rad/fs.  Each phase-matching branch is
evaluated through the identity

    sinc(phi) e^{i phi} = expm1(2 i phi) / (2 i phi),

one transcendental per point, with a series branch for |2 phi| below
``_SINC_SERIES_RADIUS``; when w_1 == w_2 the two branches coincide and
one is evaluated and doubled.  A leg is evaluated from its sum frequency
s = wa + wb and its second argument wb, the variables the pump and the
engine's poles come in:

    2 phi_r = T1 (s - 2 w_r) + (T2 - T1)(wb - w_r),

built per axis on each argument's own shape, so a zero T1 or a zero
entanglement time adds no term at all.

Everything is entire in the frequency arguments, so the correlators
extend to complex frequency by direct evaluation.  A conjugated field leg
is the analytic continuation conj(f(conj(w))) of the conjugate
amplitude; since the pump Gaussian and the phase have real coefficients,
the conjugate JSA leg is the same expression with -2 i phi in place of
2 i phi and needs no conjugation passes.

The preparation engine talks to a source through three methods:

- ``preparation_ket(x, y)`` and ``preparation_bra(x, y)``, one field leg
  each; the engine's factorized coherent pathway calls them directly.
  Both broadcast their arguments against each other.
- ``pair_factors(ket_x, ket_y, bra_x, bra_y, shift=None)``, the product
  ``preparation_ket(x, y) * preparation_bra(x', y')`` for every other
  pathway, returned as labelled factors.  An argument is a list of terms
  ``(axes, array)`` whose sum it is, and a factor is one ``(axes, array)``
  with one array dimension per character of ``axes``, each of the axis's
  full size.  Terms on the axes ``shift`` alone are shifts: the transport
  pathways' mode poles, which move the pair little.  The call returns
  ``(factors, excess)``, and the pair is the product of the factors and
  of 1 + m over the excess factors m.  The factors are the pair with every
  shift left out, so none has the shift's axes, and the excess factors
  carry the change the shifts make, each computed without cancellation;
  a source that cannot split a pair so returns it in its factors and no
  excess.  The engine multiplies the factors and its weights and sums
  over the pathway's axes in ``einsum`` calls, so no factor is broadcast
  to the full pathway grid unless the source returns it so.  The factors
  of an unsplit pair, which carry the shift's axes, it multiplies into
  one array first.

Both sources factor a pair the same way.  Each Gaussian (the pump of a
leg's sum frequency, or a classical amplitude of one argument) is taken
on the axes of its unshifted sum d, centred on whole wavenumbers
(``_detuning``) so that the sum rounds only its small remainders; the
exponents on equal axis sets are added and exponentiated once, and the
source's constant enters once.  A shift s of d multiplies the Gaussian by
exp(kappa s (s + 2 d)), a product of one excess factor per term of d
(``_gaussian``).  With T1 = 0 the phase matching depends on the second
argument alone, so no factor spans more axes than a leg's unshifted sum
or a term and a shift.  With T1 != 0 it depends on the whole sum
frequency, and the pair is taken with no shift split off: each leg's
matching factor lies on the union of its sum's and its second argument's
axes.  So is a pair where an excess exponent would leave
``_EXCESS_EXPONENT_RANGE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import units

_SINC_SERIES_RADIUS = 1e-4
# ``_expm1_ratio_change`` sums its series within this radius of the origin;
# with this many terms the series is exact to 1e-18 at 1.5 times the radius.
_CHANGE_SERIES_RADIUS = 0.5
_CHANGE_SERIES_TERMS = 18
# Range of the real part of an excess exponent E (see ``_grown``).  Above
# it a factor exp(E) could overflow against the others, which it
# compensates within e^50 at a cost of about 50 eps of their product's
# rounding; below it 1 + expm1(E) keeps less than e^-1 of its relative
# precision.  Outside the range a source returns the pair unsplit.
_EXCESS_EXPONENT_RANGE = (-1.0, 50.0)


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


def _expm1_ratio_change(w, d):
    """g(w + d) - g(w) for g = ``_expm1_ratio``, with no cancellation for small d.

    From expm1(w + d) = expm1(w) + e^w expm1(d) the change is
    d (e^w g(d) - g(w)) / (w + d), which cancels only near the origin;
    there it is the series sum_n ((w + d)^n - w^n) / (n + 1)!.  Where d
    is not small the plain difference loses nothing.
    """
    w, d = np.broadcast_arrays(np.asarray(w, dtype=complex), np.asarray(d, dtype=complex))
    radius = _CHANGE_SERIES_RADIUS
    small_d = np.abs(d) < 0.5 * radius
    near = small_d & (np.abs(w) < radius)
    far = small_d & ~near
    # the series, with change = (w + d)^n - w^n and power = w^n
    ws, ds = np.where(near, w, 0.0), np.where(near, d, 0.0)
    change, power, series, factorial = np.zeros_like(ws), np.ones_like(ws), np.zeros_like(ws), 1.0
    for n in range(1, _CHANGE_SERIES_TERMS + 1):
        change = (ws + ds) * change + ds * power
        power = power * ws
        factorial *= n + 1
        series += change / factorial
    # the closed form, where |w| >= radius keeps w + d away from zero
    wc, dc = np.where(far, w, radius), np.where(far, d, 0.0)
    closed = dc * (np.exp(wc) * _expm1_ratio(dc) - _expm1_ratio(wc)) / (wc + dc)
    plain = _expm1_ratio(w + d) - _expm1_ratio(w)
    return np.where(near, series, np.where(far, closed, plain))


def gaussian_gamma_from_tau(tau_fs: float) -> float:
    """Spectral-width parameter G = 1/(2 tau^2) in rad^2/fs^2."""
    if tau_fs <= 0.0:
        raise ValueError("temporal width must be positive")
    return 1.0 / (2.0 * tau_fs * tau_fs)


def on_axes(axes: str, labelled):
    """A labelled array ``(own, array)`` as a view on ``axes``.

    ``array`` has one dimension per character of ``own``; the view orders
    them as in ``axes`` and has size 1 on every axis ``own`` lacks.
    """
    own, array = labelled
    array = np.asarray(array)
    kept = [c for c in axes if c in own]
    array = array.transpose([own.index(c) for c in kept])
    sizes = iter(array.shape)
    return array.reshape([next(sizes) if c in own else 1 for c in axes])


def _grid(terms):
    """The union of the terms' axes and the size of each."""
    sizes = {}
    for axes, array in terms:
        sizes.update(zip(axes, np.shape(array)))
    return "".join(sizes), tuple(sizes.values())


def labelled_sum(terms):
    """The sum of labelled terms as a new array labelled by the union of
    their axes.  The smaller terms are added first, so only the last
    addition runs on the full shape."""
    axes, _ = _grid(terms)
    total = np.zeros((), dtype=complex)
    for view in sorted((on_axes(axes, term) for term in terms), key=np.size):
        total = total + view
    return axes, total


def _union(axes, other):
    return axes + "".join(c for c in other if c not in axes)


def _merged(terms):
    """The terms with equal axis sets summed, and those that cancel to zero dropped."""
    by_axes = {}
    for own, array in terms:
        _accumulate(by_axes, own, np.asarray(array))
    return [(axes, total) for axes, total in by_axes.values() if total.any()]


def _split(terms, shift):
    """The merged terms of a sum apart from its shift, and the merged shift,
    the terms on the axes ``shift`` alone (none if ``shift`` is None)."""
    return (_merged([term for term in terms if term[0] != shift]),
            _merged([term for term in terms if term[0] == shift]))


def _accumulate(groups, axes, array, combine=np.add):
    """Combines a labelled array into the entry of ``groups`` with its axis set."""
    key = frozenset(axes)
    if key in groups:
        own, total = groups[key]
        groups[key] = (own, combine(total, on_axes(own, (axes, array))))
    else:
        groups[key] = (axes, array)


def _excess_product(a, b):
    """The excess of (1 + a)(1 + b) over 1."""
    return a + b + a * b


def _detuning(terms, center):
    """Merged terms of a sum less ``center`` as terms of the same sum: each
    term less its real mean rounded to a whole cm^-1, the last also less
    the rest of ``center``.

    A term near 1e4 cm^-1 loses no bits to the subtraction of a nearby
    whole number and the rest is a whole number less ``center``, so summing
    the terms rounds only their small remainders.
    """
    means = [np.round(np.mean(t.real)) for _, t in terms]
    centred = [(own, t - mean) for (own, t), mean in zip(terms, means)] or [("", 0j)]
    own, last = centred[-1]
    centred[-1] = (own, last + (sum(means) - center))
    return centred


def _grown(groups):
    """The excess expm1(E) of each exponent E of ``groups``, or None where
    the real part of one leaves ``_EXCESS_EXPONENT_RANGE``."""
    low, high = _EXCESS_EXPONENT_RANGE
    if any(e.real.max() > high or e.real.min() < low for _, e in groups.values()):
        return None
    return [(axes, np.expm1(e)) for axes, e in groups.values()]


def _gaussian(terms, shift, center, kappa, exponents, growth):
    """The exponent kappa d^2 of a Gaussian of the sum of ``terms``, with
    d the sum less its shift and less ``center``, and the change a shift s
    makes to it.

    kappa d^2 joins ``exponents`` by axis set.  The change
    kappa ((d + s)^2 - d^2) = 2 kappa s (d + s / 2) joins ``growth`` as one
    product per term of d, the last taking s / 2, so that no product has
    more axes than a term and the shift.  Returns the terms of d, from
    ``_detuning``.
    """
    base, shifts = _split(terms, shift)
    detuning = _detuning(base, center)
    axes, exponent = labelled_sum(detuning)
    exponent *= exponent
    exponent *= kappa
    _accumulate(exponents, axes, exponent)
    for s_axes, s in shifts:
        *rest, (own, last) = detuning
        union = _union(own, s_axes)
        rest.append((union, on_axes(union, (own, last)) + on_axes(union, (s_axes, 0.5 * s))))
        for own, term in rest:
            union = _union(own, s_axes)
            _accumulate(growth, union, on_axes(union, (own, (2.0 * kappa) * term))
                        * on_axes(union, (s_axes, s)))
    return detuning


def _exponentiated(exponents, constant):
    """exp of each grouped exponent, in place, as labelled factors whose
    product is ``constant`` times exp of the sum of the exponents: the
    first factor carries the constant."""
    factors = [(axes, np.exp(exponent, out=exponent)) for axes, exponent in exponents.values()]
    first = factors[0][1]
    first *= constant
    return factors


@dataclass(frozen=True)
class EppSource:
    """Entangled photon pair source.

    ``omega1``/``omega2`` are the signal and idler center frequencies and
    double as the reference frequencies inside the phase-matching
    arguments, ``pump_center`` is the sum-frequency center, ``tau_pump``
    the pump duration, and ``t1``/``t2`` the crystal group delays.

    A leg is evaluated from its sum frequency and second argument: the
    pump costs one ``exp`` on the shape of the sum, each phase-matching
    branch one ``expm1`` on the shape of the arguments it depends on (the
    second argument alone when ``t1 == 0``); the conjugate leg flips the
    sign of 2 i phi instead of conjugating.  The legs broadcast their
    frequency arguments against each other.

    ``pair_factors`` returns a ket-bra pair as labelled factors: the pump
    exponents of both legs' sums, grouped by axis set and exponentiated
    once, and one phase-matching factor per leg.  With ``t1 == 0`` and a
    shift, the pump is taken on the axes of each unshifted sum and the
    matching on each unshifted second argument's axes.  A shift s of a sum
    d (the sum less the pump center) multiplies the pump by
    exp(kappa s (s + 2 d)), kappa = -(2 pi c)^2 / (4 G), which splits into
    one excess factor expm1(...) per term of d; a shift of a second
    argument changes the phase matching by ``_expm1_ratio_change``.  No
    factor has more axes than a leg's unshifted sum, or a term and a
    shift.  With ``t1 != 0``, or where an excess exponent's real part
    would leave ``_EXCESS_EXPONENT_RANGE``, the same factors are taken
    with no shift split off, each matching factor on the axes of its
    leg's sum and second argument, and there is no excess.
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
        if self.tau_pump <= 0.0:
            raise ValueError("pump duration tau_pump must be positive")
        if self.t2 < self.t1:
            raise ValueError("group delays must satisfy t2 >= t1")
        if self.alpha <= 0.0:
            raise ValueError("down-conversion efficiency alpha must be positive")

    @property
    def entanglement_time(self) -> float:
        return self.t2 - self.t1

    @property
    def pump_gamma(self) -> float:
        return gaussian_gamma_from_tau(self.tau_pump)

    def pump_amplitude(self, omega):
        """A_p(omega) with one complex exp per point."""
        # i^2 in the squared scaled detuning gives the Gaussian's exponent
        d = np.asarray(np.subtract(omega, self.pump_center, dtype=complex))
        d *= 0.5j * units.TWO_PI_C / np.sqrt(self.pump_gamma)
        d *= d
        np.exp(d, out=d)
        d *= self.e0 * np.sqrt(np.pi / self.pump_gamma)
        return d[()]  # a scalar for a scalar argument

    def _matching(self, s, wb, sign, center=0.0):
        """Sum over branches of expm1(2 i sign phi_r) / (2 i sign phi_r).

        ``s`` is the sum frequency wa + wb less ``center``, unused when
        ``t1 == 0``.  sign = +1 gives F's phase-matching factor, -1 its
        conjugate leg.  2 i phi_r is built per axis, and a zero T1 or
        entanglement time adds no term.
        """
        k = sign * 1j * units.TWO_PI_C
        t_ent = self.entanglement_time

        def branch(reference):
            w = 0.0
            if self.t1:
                w = (k * self.t1) * (s + (center - 2.0 * reference))
            if t_ent:
                w = w + (k * t_ent) * (wb - reference)
            return _expm1_ratio(w)

        if self.omega1 == self.omega2:
            return 2.0 * branch(self.omega1)
        return branch(self.omega1) + branch(self.omega2)

    def _amplitude(self, omega_a, omega_b, sign):
        wb = np.asarray(omega_b, dtype=complex)
        s = np.asarray(omega_a, dtype=complex) + wb
        amplitude = self.pump_amplitude(s)
        amplitude *= self.alpha * self._matching(s, wb, sign)
        return amplitude

    def jsa(self, omega_a, omega_b):
        """Joint spectral amplitude F(omega_a, omega_b)."""
        return self._amplitude(omega_a, omega_b, 1.0)

    def jsa_conjugate(self, omega_a, omega_b):
        """conj(F(conj(omega_a), conj(omega_b))), the conjugate leg.

        Pump and phase have real coefficients, so this is F with -2 i phi
        in place of 2 i phi.
        """
        return self._amplitude(omega_a, omega_b, -1.0)

    def four_point(self, omega4, omega3, omega2, omega1):
        """<E*(w4) E*(w3) E(w2) E(w1)> for the twin-photon state."""
        return self.jsa_conjugate(omega4, omega3) * self.jsa(omega2, omega1)

    # The excitation integrals pair each time-ordered resolvent with the
    # field components that can precede it, which is the globally
    # conjugated form of four_point (same real-valued observables).  The
    # ket legs therefore carry the conjugate-phase continuation and the
    # bra legs the direct amplitude.  Both take their two arguments at any
    # shapes that broadcast against each other.
    def preparation_ket(self, omega2, omega1):
        return self.jsa_conjugate(omega2, omega1)

    def preparation_bra(self, omega4, omega3):
        return self.jsa(omega4, omega3)

    def pair_factors(self, ket_x, ket_y, bra_x, bra_y, shift=None):
        """preparation_ket(x, y) * preparation_bra(x', y') as labelled
        ``(factors, excess)``, as the class docstring describes."""
        factored = None if self.t1 else self._factored(ket_x, ket_y, bra_x, bra_y, shift)
        return factored or self._factored(ket_x, ket_y, bra_x, bra_y, None)

    def _factored(self, ket_x, ket_y, bra_x, bra_y, shift):
        """The pair as factors and excess factors with the terms on the axes
        ``shift`` split off (none if ``shift`` is None), or None where an
        excess exponent leaves its range."""
        kappa = -((0.5 * units.TWO_PI_C) ** 2) / self.pump_gamma  # per squared detuning
        pump, growth, matching, excess = {}, {}, {}, {}
        for x, y, sign in ((ket_x, ket_y, -1.0), (bra_x, bra_y, 1.0)):
            detuning = _gaussian(x + y, shift, self.pump_center, kappa, pump, growth)
            base, shifts = _split(y, shift)
            wb_axes, wb = labelled_sum(base)
            if self.t1:
                # the matching depends on the whole sum frequency as well
                sum_axes, d = labelled_sum(detuning)
                axes, shape = _grid([(sum_axes, d), (wb_axes, wb)])
                m = self._matching(on_axes(axes, (sum_axes, d)), on_axes(axes, (wb_axes, wb)),
                                   sign, self.pump_center)
                del d  # on all of the leg's axes: freed before the next leg
            else:
                axes, shape = wb_axes, wb.shape
                m = self._matching(None, wb, sign)
            _accumulate(matching, axes, np.broadcast_to(m, shape), np.multiply)
            for s_axes, s in shifts if self.entanglement_time else ():
                union = _union(axes, s_axes)
                _accumulate(excess, union, self._matching_excess(
                    on_axes(union, (axes, wb)), on_axes(union, (s_axes, s)), sign))
        grown = _grown(growth)
        if grown is None:
            return None
        for axes, m in grown:
            _accumulate(excess, axes, m, _excess_product)
        scale = (self.alpha * self.e0) ** 2 * (np.pi / self.pump_gamma)
        return _exponentiated(pump, scale) + list(matching.values()), list(excess.values())

    def _matching_excess(self, wb, shift, sign):
        """_matching(wb + shift) / _matching(wb) - 1 at t1 = 0 (equal
        references give one branch; the doubling cancels)."""
        k = sign * 1j * units.TWO_PI_C * self.entanglement_time
        references = dict.fromkeys((self.omega1, self.omega2))
        change = sum(_expm1_ratio_change(k * (wb - r), k * shift) for r in references)
        return change / sum(_expm1_ratio(k * (wb - r)) for r in references)


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
        if self.tau <= 0.0:
            raise ValueError("pulse width tau must be positive")

    @property
    def gamma(self) -> float:
        return gaussian_gamma_from_tau(self.tau)

    def amplitude(self, omega):
        """A(omega), entire in omega (cm^-1, possibly complex)."""
        detuning = (np.asarray(omega, dtype=complex) - self.center) * units.TWO_PI_C
        g = self.gamma
        return self.scale * np.sqrt(np.pi / g) * np.exp(-detuning * detuning / (4.0 * g))

    def four_point(self, omega4, omega3, omega2, omega1):
        """<E*(w4) E*(w3) E(w2) E(w1)> for four identical pulses."""
        return (self.amplitude(omega4) * self.amplitude(omega3)
                * self.amplitude(omega2) * self.amplitude(omega1))

    def preparation_ket(self, omega2, omega1):
        return self.amplitude(omega2) * self.amplitude(omega1)

    preparation_bra = preparation_ket

    def pair_factors(self, ket_x, ket_y, bra_x, bra_y, shift=None):
        """A(x) A(y) A(x') A(y') as labelled ``(factors, excess)``: the
        Gaussian exponents of the unshifted arguments grouped by axis set
        and exponentiated, and per shift s of an argument w the excess
        A(w + s) / A(w) - 1 = expm1(c s (s + 2 (w - center))),
        c = -(2 pi c)^2 / (4 G).  Where the real part of such an exponent
        would leave ``_EXCESS_EXPONENT_RANGE``, the pair is taken with no
        shift split off."""
        c = -(units.TWO_PI_C ** 2) / (4.0 * self.gamma)
        exponents, growth = {}, {}
        for terms in (ket_x, ket_y, bra_x, bra_y):
            _gaussian(terms, shift, self.center, c, exponents, growth)
        grown = _grown(growth)
        if grown is None:
            return self.pair_factors(ket_x, ket_y, bra_x, bra_y)
        return _exponentiated(exponents, (self.scale * np.sqrt(np.pi / self.gamma)) ** 4), grown


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
