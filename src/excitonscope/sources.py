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
plainly: the reference evaluations in the tests take them, and the pair
source's bra leg is its ``jsa``.  The preparation engine talks to a
source through one method:

- ``pair_factors(ket_x, ket_y, bra_x, bra_y, shift=None)``, the product
  ``preparation_ket(x, y) * preparation_bra(x', y')`` for each of the
  five pathways, returned as labelled factors.  An argument is a list of
  terms ``(axes, array)`` whose sum it is, and a factor is one
  ``(axes, array)`` with one array dimension per character of ``axes``,
  each of the axis's full size.  Terms on equal axis sets are added, and
  a pole that cancels in a sum drops out of it exactly.  Terms on the
  axes ``shift`` alone are shifts: the transport pathways' mode poles,
  which move the pair little.  The call returns ``(factors, excess)``,
  and the pair is the product of the factors and of 1 + m over the excess
  factors m: the change the shifts make to the factors they are split
  off, each computed without cancellation.  A factor the source takes
  whole carries the shift's axes.  The engine multiplies the factors and
  its weights and sums over the pathway's axes in ``einsum`` calls, so no
  factor is broadcast to the full pathway grid unless the source returns
  it so; where a factor carries the shift's axes, it multiplies all of
  them into one array first.

Both sources factor their Gaussians (the pump of each leg's sum
frequency, or a classical amplitude of one argument) through one routine,
``_gaussian_factors``.  Each is taken on the axes of its unshifted sum d,
centred on whole wavenumbers (``_detuning``) so that the sum rounds only
its small remainders; the exponents on equal axis sets are added and
exponentiated once, and the source's constant enters once.  A shift s of
d multiplies the Gaussian by exp(kappa s (s + 2 d)), kappa =
-(2 pi c)^2 / (4 G), one excess factor per term of d (``_gaussian``), and
a Gaussian whose excess exponent would leave ``_EXCESS_EXPONENT_RANGE``
is taken whole, on its shifted sum.  A leg's phase matching is taken on
the union of the axes of its photon frequencies, the first only when
T1 != 0.  With T1 = 0 it depends on the unshifted second frequency, whose
shift changes it by ``_expm1_ratio_change``, so no factor spans more axes
than a leg's unshifted sum or a term and a shift.  With T1 != 0 it is
taken whole, on both shifted frequencies.

A source may describe a block of scan targets (``excitation.scan_source``
with an array of target energies): each field that holds one value per
target, the pump center and in degenerate targeting the phase-matching
references, enters ``pair_factors`` as a labelled term on the target axis
``TARGETS``.  The centre of each Gaussian joins the smallest term of its
sum, so the target axis reaches its exponent, the excess factor of that
term's shifts, and in degenerate targeting the phase matching; every
other factor is built once for the block.  No choice the module makes
looks at that axis: terms on equal axis sets less it are combined, and
terms are summed smallest first by their size per target, so each
target's slice of every factor is bitwise what its own source gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import units

_SINC_SERIES_RADIUS = 1e-4
# ``_expm1_ratio_change`` sums its series within this radius of the origin;
# with this many terms the series is exact to 1e-18 at 1.5 times the radius.
_CHANGE_SERIES_RADIUS = 0.5
_CHANGE_SERIES_TERMS = 18
# Range of the real part of an excess exponent E (``_gaussian_factors``).
# Above it a factor exp(E) could overflow against the others, which it
# compensates within e^50 at a cost of about 50 eps of their product's
# rounding; below it 1 + expm1(E) keeps less than e^-1 of its relative
# precision.  A Gaussian that would take E outside is taken whole.
_EXCESS_EXPONENT_RANGE = (-1.0, 50.0)
# The axis of the targets of a scan block (module docstring).
TARGETS = "t"


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
    kept = [c for c in axes if c in own]
    array = array.transpose([own.index(c) for c in kept])
    sizes = iter(array.shape)
    return array.reshape([next(sizes) if c in own else 1 for c in axes])


def _targets_first(axes: str) -> str:
    return TARGETS + axes.replace(TARGETS, "") if TARGETS in axes else axes


def _grid(terms):
    """The union of the terms' axes, the target axis first, and the size of each."""
    sizes = {}
    for axes, array in terms:
        sizes.update(zip(axes, np.shape(array)))
    axes = _targets_first("".join(sizes))
    return axes, tuple(sizes[c] for c in axes)


def _cells(term) -> int:
    """The size of a labelled array per target."""
    axes, array = term
    return math.prod(n for c, n in zip(axes, np.shape(array)) if c != TARGETS)


def labelled_sum(terms):
    """The sum of labelled terms as a new array labelled by the union of
    their axes.  The smaller terms, by their size per target, are added
    first, so only the last addition runs on the full shape."""
    axes, _ = _grid(terms)
    total = np.zeros((), dtype=complex)
    for term in sorted(terms, key=_cells):
        total = total + on_axes(axes, term)
    return axes, total


def _union(axes, other):
    return _targets_first(axes + "".join(c for c in other if c not in axes))


def _on_targets(value):
    """A source parameter as a labelled term: on the target axis when it
    holds one value per target of a block, on no axis when it is one value."""
    return (TARGETS, np.asarray(value, dtype=float)) if np.ndim(value) else ("", value)


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
    """Combines a labelled array into the entry of ``groups`` with its axis
    set less the target axis, which the combination carries if either does."""
    key = frozenset(axes) - {TARGETS}
    if key in groups:
        own, total = groups[key]
        union = _union(own, axes)
        groups[key] = (union, combine(on_axes(union, (own, total)), on_axes(union, (axes, array))))
    else:
        groups[key] = (axes, array)


def _excess_product(a, b):
    """The excess of (1 + a)(1 + b) over 1."""
    return a + b + a * b


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
    means = [np.round(np.mean(t.real)) for _, t in terms]
    centred = [(own, t - mean) for (own, t), mean in zip(terms, means)] or [("", 0j)]
    smallest = min(range(len(centred)), key=lambda i: _cells(centred[i]))
    c_axes, c = center
    rest = (c_axes, sum(means) - c)
    own, term = centred[smallest]
    union = _union(own, c_axes)
    centred[smallest] = (union, on_axes(union, (own, term)) + on_axes(union, rest))
    return centred, smallest


def _gaussian(terms, shift, center, kappa):
    """The exponent kappa d^2 of a Gaussian of the sum of ``terms``, with
    d the sum less its shift and less ``center``, and the change a shift s
    makes to it.

    Returns the exponent, labelled, and the change
    kappa ((d + s)^2 - d^2) = 2 kappa s (d + s / 2) as one labelled
    product per term of d, the one that took ``center`` also taking s / 2,
    so that no product has more axes than a term and the shift.
    """
    base, shifts = _split(terms, shift)
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


def _gaussian_factors(arguments, shift, center, gamma, constant):
    """``constant`` times the product over ``arguments`` of
    exp(kappa (w - center)^2), kappa = -(2 pi c)^2 / (4 G), at each
    argument's sum w, as labelled ``(factors, excess)``.  ``center`` is a
    labelled term (``_on_targets``), one centre per target on that axis.

    A Gaussian's exponent joins the factors and the changes its shifts
    make join the excess exponents, by axis set (``_gaussian``), unless a
    change would take the real part of an excess exponent out of
    ``_EXCESS_EXPONENT_RANGE``: then that Gaussian alone is taken whole.
    The first factor carries ``constant``.
    """
    kappa = -((0.5 * units.TWO_PI_C) ** 2) / gamma  # per squared detuning
    low, high = _EXCESS_EXPONENT_RANGE
    exponents, growth = {}, {}
    for terms in arguments:
        exponent, changes = _gaussian(terms, shift, center, kappa)
        grown = dict(growth)
        for axes, change in changes:
            _accumulate(grown, axes, change)
        if any(e.real.max() > high or e.real.min() < low for _, e in grown.values()):
            exponent, _ = _gaussian(terms, None, center, kappa)
        else:
            growth = grown
        _accumulate(exponents, *exponent)
    factors = [(axes, np.exp(e, out=e)) for axes, e in exponents.values()]
    factors[0][1][...] *= constant
    return factors, [(axes, np.expm1(e)) for axes, e in growth.values()]


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
    the module docstring describes: the pump of both legs' sums, one
    phase-matching factor per leg, and the excess factors of the shifts.
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
        """A_p(omega), the pump's Gaussian amplitude."""
        return gaussian_amplitude(omega, self.pump_center, self.pump_gamma, self.e0)

    def _matching(self, wa, wb, sign, references=None):
        """Sum over branches of expm1(2 i sign phi_r) / (2 i sign phi_r).

        sign = +1 gives F's phase-matching factor, -1 its conjugate leg.
        2 i phi_r is built per photon frequency, and a zero group delay
        adds no term.  ``references`` are those of ``_references``,
        broadcast against the frequencies.
        """
        k = sign * 1j * units.TWO_PI_C

        def branch(reference):
            w = 0.0
            if self.t1:
                w = (k * self.t1) * (wa - reference)
            if self.t2:
                w = w + (k * self.t2) * (wb - reference)
            return _expm1_ratio(w)

        omega1, *other = self._references() if references is None else references
        m = branch(omega1)
        m += branch(other[0]) if other else m
        return m

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
        amplitude *= self.alpha * self._matching(wa, wb, sign)
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
    # bra legs the direct amplitude.
    preparation_ket = jsa_conjugate
    preparation_bra = jsa

    def pair_factors(self, ket_x, ket_y, bra_x, bra_y, shift=None):
        """preparation_ket(x, y) * preparation_bra(x', y') as labelled
        ``(factors, excess)``, as the class docstring describes."""
        legs = ((ket_x, ket_y, -1.0), (bra_x, bra_y, 1.0))
        pump, pump_excess = _gaussian_factors(
            [x + y for x, y, _ in legs], shift, _on_targets(self.pump_center), self.pump_gamma,
            (self.alpha * self.e0) ** 2 * (np.pi / self.pump_gamma))
        references = [_on_targets(r) for r in self._references()]
        matching, excess = {}, {}
        for x, y, sign in legs:
            base, shifts = _split(y, None if self.t1 else shift)
            wa = labelled_sum(_merged(x) if self.t1 else [])
            wb = labelled_sum(base)
            axes, shape = _grid([wa, wb, *references])
            m = self._matching(on_axes(axes, wa), on_axes(axes, wb), sign,
                               [on_axes(axes, r) for r in references])
            _accumulate(matching, axes, np.broadcast_to(m, shape), np.multiply)
            for s_axes, s in shifts if self.t2 else ():
                union = _union(axes, s_axes)
                _accumulate(excess, union, self._matching_excess(
                    on_axes(union, wb), on_axes(union, (s_axes, s)), sign,
                    [on_axes(union, r) for r in references]))
        for axes, m in pump_excess:
            _accumulate(excess, axes, m, _excess_product)
        return pump + list(matching.values()), list(excess.values())

    def _matching_excess(self, wb, shift, sign, references):
        """_matching(wb + shift) / _matching(wb) - 1 at t1 = 0 (equal
        references give one branch; the doubling cancels)."""
        k = sign * 1j * units.TWO_PI_C * self.t2
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
        """A(omega), the pulse's Gaussian amplitude."""
        return gaussian_amplitude(omega, self.center, self.gamma, self.scale)

    def four_point(self, omega4, omega3, omega2, omega1):
        """<E*(w4) E*(w3) E(w2) E(w1)> for four identical pulses."""
        return (self.amplitude(omega4) * self.amplitude(omega3)
                * self.amplitude(omega2) * self.amplitude(omega1))

    def preparation_ket(self, omega2, omega1):
        return self.amplitude(omega2) * self.amplitude(omega1)

    preparation_bra = preparation_ket

    def pair_factors(self, ket_x, ket_y, bra_x, bra_y, shift=None):
        """A(x) A(y) A(x') A(y') as labelled ``(factors, excess)`` from
        ``_gaussian_factors``."""
        return _gaussian_factors([ket_x, ket_y, bra_x, bra_y], shift, _on_targets(self.center),
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
