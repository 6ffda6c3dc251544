"""Photon-pair and classical pulse sources as four-point correlators.

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
one is evaluated and doubled.  phi is linear in each argument, so it is
built per axis on that argument's own shape, and a zero group delay adds
no term at all.

Everything is entire in the frequency arguments, so the correlators
extend to complex frequency by direct evaluation.  A conjugated field leg
is the analytic continuation conj(f(conj(w))) of the conjugate
amplitude; since the pump Gaussian and the phase have real coefficients,
the conjugate JSA leg is the same expression with -2 i phi in place of
2 i phi and needs no conjugation passes.

``preparation_ket(x, y)`` and ``preparation_bra(x, y)`` of every source
must broadcast their two arguments against each other: the preparation
engine passes each pole-difference argument at its own, usually lower,
rank and the result takes the broadcast shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import units

_SINC_SERIES_RADIUS = 1e-4


def csinc(z):
    """sin(z)/z for complex z with a series branch near the origin."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SINC_SERIES_RADIUS
    safe = np.where(small, 1.0, z)
    out = np.sin(safe) / safe
    z2 = z * z
    series = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return np.where(small, series, out)


def _expm1_ratio(w):
    """expm1(w)/w for complex w with a series branch near the origin.

    At w = 2i phi this is csinc(phi) e^{i phi}, one phase-matching branch.
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


@dataclass(frozen=True)
class GaussianPulse:
    """Transform-limited Gaussian amplitude: center in cm^-1, width in fs."""

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

    def amplitude_conjugate(self, omega):
        """Analytic continuation of conj(A), i.e. conj(A(conj(omega)))."""
        return np.conj(self.amplitude(np.conj(np.asarray(omega, dtype=complex))))


@dataclass(frozen=True)
class EppSource:
    """Entangled photon pair source.

    ``omega1``/``omega2`` are the signal and idler center frequencies and
    double as the reference frequencies inside the phase-matching
    arguments, ``pump_center`` is the sum-frequency center, ``tau_pump``
    the pump duration, and ``t1``/``t2`` the crystal group delays.

    Each phase-matching branch costs one ``expm1`` on the shape of the
    arguments it depends on (``omega_b`` alone when ``t1 == 0``), the pump
    one ``exp`` on the broadcast shape; the conjugate leg flips the sign
    of 2 i phi instead of conjugating.  All methods broadcast their two
    frequency arguments against each other.
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
        g = self.pump_gamma
        # i^2 in the squared scaled detuning gives the Gaussian's exponent
        d = np.asarray((np.asarray(omega, dtype=complex) - self.pump_center)
                       * (0.5j * units.TWO_PI_C / np.sqrt(g)))
        d *= d
        np.exp(d, out=d)
        d *= self.e0 * np.sqrt(np.pi / g)
        return d[()]  # a scalar for a scalar argument

    def _matching(self, wa, wb, sign):
        """Sum over branches of expm1(2 i sign phi_r) / (2 i sign phi_r).

        sign = +1 gives F's phase-matching factor, -1 its conjugate leg.
        2 i phi_r is built per axis, and a zero group delay adds no term.
        """
        k = sign * 1j * units.TWO_PI_C

        def branch(reference):
            w = 0.0
            if self.t1:
                w = (k * self.t1) * (wa - reference)
            if self.t2:
                w = w + (k * self.t2) * (wb - reference)
            return _expm1_ratio(w)

        if self.omega1 == self.omega2:
            return 2.0 * branch(self.omega1)
        return branch(self.omega1) + branch(self.omega2)

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
    # bra legs the direct amplitude.  Both take their two arguments at any
    # shapes that broadcast against each other.
    def preparation_ket(self, omega2, omega1):
        return self.jsa_conjugate(omega2, omega1)

    def preparation_bra(self, omega4, omega3):
        return self.jsa(omega4, omega3)


@dataclass(frozen=True)
class CoherentSource:
    """Classical four-pulse reference: the correlator factorizes.

    The bra legs carry the conjugates of the fourth and third profiles
    while both ket legs reuse the first one, matching the factorized
    product this benchmark is defined by; the second profile is kept for
    completeness of the four-slot interface.
    """

    pulses: tuple

    def __post_init__(self):
        pulses = tuple(self.pulses)
        if len(pulses) != 4:
            raise ValueError("CoherentSource needs exactly four pulse profiles")
        if not all(isinstance(p, GaussianPulse) for p in pulses):
            raise TypeError("pulse profiles must be GaussianPulse instances")
        object.__setattr__(self, "pulses", pulses)

    @classmethod
    def identical(cls, center: float, tau: float, scale: float = 1.0) -> "CoherentSource":
        pulse = GaussianPulse(center=center, tau=tau, scale=scale)
        return cls(pulses=(pulse,) * 4)

    def four_point(self, omega4, omega3, omega2, omega1):
        a1, a3, a4 = self.pulses[0], self.pulses[2], self.pulses[3]
        return (
            a4.amplitude_conjugate(omega4)
            * a3.amplitude_conjugate(omega3)
            * a1.amplitude(omega2)
            * a1.amplitude(omega1)
        )

    # Conjugated pairing used by the excitation integrals; for real pulse
    # parameters this coincides with four_point on the real axis.
    def preparation_ket(self, omega2, omega1):
        a1 = self.pulses[0]
        return a1.amplitude_conjugate(omega2) * a1.amplitude_conjugate(omega1)

    def preparation_bra(self, omega4, omega3):
        a3, a4 = self.pulses[2], self.pulses[3]
        return a4.amplitude(omega4) * a3.amplitude(omega3)


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
