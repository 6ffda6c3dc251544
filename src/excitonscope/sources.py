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
- ``preparation_pair(ket_sum, ket_y, bra_sum, bra_y)``, the product
  ``preparation_ket(ket_sum - ket_y, ket_y) *
  preparation_bra(bra_sum - bra_y, bra_y)`` for every other pathway.
  Each leg comes as its sum frequency s = x + y and its second argument
  y.  The pump of a pair source depends on s alone, and the engine builds
  each s at the rank its poles really have (a pole that cancels in the
  sum never enters it), so the pump costs one ``exp`` per point of the
  sums' shape, not of the full pathway grid.

All three broadcast their arguments against each other: the engine
passes each argument at its own, usually lower, rank and the result takes
the broadcast shape.  The sums handed to ``preparation_pair`` are built
for that one call, and a source may compute in them: a complex array that
owns its data may be overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import units

_SINC_SERIES_RADIUS = 1e-4


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


def gaussian_gamma_from_tau(tau_fs: float) -> float:
    """Spectral-width parameter G = 1/(2 tau^2) in rad^2/fs^2."""
    if tau_fs <= 0.0:
        raise ValueError("temporal width must be positive")
    return 1.0 / (2.0 * tau_fs * tau_fs)


def _scratch(omega, *readers):
    """``omega`` itself if a result may be built in it, else None.

    That holds for a complex array that owns its data, as the engine's sums
    do, and shares no memory with an argument still to be read.
    """
    if (isinstance(omega, np.ndarray) and omega.dtype == complex and omega.base is None
            and omega.flags.writeable
            and not any(np.may_share_memory(omega, r) for r in readers)):
        return omega
    return None


def _into(ufunc, a, b):
    """ufunc(a, b), written into the array ``a`` when it has the broadcast shape."""
    a = np.asarray(a)
    if a.shape == np.broadcast_shapes(a.shape, np.shape(b)):
        return ufunc(a, b, out=a)
    return ufunc(a, b)


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
    sign of 2 i phi instead of conjugating.  ``preparation_pair`` adds the
    two legs' pump exponents, so a ket-bra pair costs one pump ``exp``.
    All methods broadcast their frequency arguments against each other.
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

    def _pump_exponent(self, omega, out=None):
        """ln(A_p(omega) / (e0 sqrt(pi/G))), written into ``out`` if given."""
        # i^2 in the squared scaled detuning gives the Gaussian's exponent
        d = np.subtract(omega, self.pump_center, out=out, dtype=complex)
        d *= 0.5j * units.TWO_PI_C / np.sqrt(self.pump_gamma)
        d *= d
        return d

    def pump_amplitude(self, omega):
        """A_p(omega) with one complex exp per point."""
        d = np.asarray(self._pump_exponent(omega))
        np.exp(d, out=d)
        d *= self.e0 * np.sqrt(np.pi / self.pump_gamma)
        return d[()]  # a scalar for a scalar argument

    def _matching(self, s, wb, sign):
        """Sum over branches of expm1(2 i sign phi_r) / (2 i sign phi_r).

        ``s`` is the sum frequency wa + wb.  sign = +1 gives F's
        phase-matching factor, -1 its conjugate leg.  2 i phi_r is built
        per axis, and a zero T1 or entanglement time adds no term.
        """
        k = sign * 1j * units.TWO_PI_C
        t_ent = self.entanglement_time

        def branch(reference):
            w = 0.0
            if self.t1:
                w = (k * self.t1) * (s - 2.0 * reference)
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

    def preparation_pair(self, ket_sum, ket_y, bra_sum, bra_y):
        """preparation_ket(ket_sum - ket_y, ket_y) * preparation_bra(bra_sum - bra_y, bra_y).

        The two pump Gaussians multiply by adding their exponents, so the
        pair costs one ``exp`` per point of the sums' broadcast shape.  The
        matching factors are built first, per axis; the exponent is then
        built in the sum arrays themselves when they are complex arrays
        that own their data, and the result takes the place of ``ket_sum``
        when that has the full broadcast shape.
        """
        scale = (self.alpha * self.e0) ** 2 * (np.pi / self.pump_gamma)
        factor = scale * self._matching(ket_sum, ket_y, -1.0) * self._matching(bra_sum, bra_y, 1.0)
        exponent = self._pump_exponent(ket_sum, _scratch(ket_sum, bra_sum))
        exponent = _into(np.add, exponent, self._pump_exponent(bra_sum, _scratch(bra_sum)))
        np.exp(exponent, out=exponent)
        return _into(np.multiply, exponent, factor)[()]


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

    def preparation_pair(self, ket_sum, ket_y, bra_sum, bra_y):
        """The product of the two legs, each given as (sum, second argument)."""
        return (self.preparation_ket(ket_sum - ket_y, ket_y)
                * self.preparation_bra(bra_sum - bra_y, bra_y))


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
