"""Reference forms of the detector: the gates, their spectrogram and its folds.

Each photon passes a Lorentzian spectral gate and a one-sided exponential
temporal gate; the gate pair is summarized by the detector spectrogram.
Folding the spectrogram's delay axis against an emission coherence gives
two closed rational lineshapes, one per delay branch.  The coincidence
maps of :mod:`excitonscope.coincidence` use the folds alone, in closed
form (its ``_positive_branch`` and the branch sum of ``_emission_side``),
with the gate centres scanned over their grid axes and the gates opened
at the waiting times; the tests check those against these forms, which
take one gate at a fixed centre and opening time (:class:`Gate`), and
these against direct quadrature of the gates (C6).
"""

from dataclasses import dataclass

import numpy as np

from excitonscope import units
from excitonscope.coincidence import FilterSpec, _check_negative_branch, _positive_branch


@dataclass(frozen=True)
class Gate:
    """One detector gate: the library's widths ``filt``, its spectral
    centre ``omega_center`` (cm^-1) and its opening time ``t_center`` (fs)."""

    filt: FilterSpec
    omega_center: float
    t_center: float = 0.0


def spectral_gate(gate: Gate, omega):
    """Lorentzian gate amplitude i / (omega - center + i sigma_omega)."""
    return 1j / (np.asarray(omega, dtype=float) - gate.omega_center + 1j * gate.filt.sigma_omega)


def temporal_gate(gate: Gate, t_fs):
    """One-sided exponential gate opening at ``t_center``."""
    t = np.asarray(t_fs, dtype=float)
    arg = units.TWO_PI_C * gate.filt.sigma_t * (t - gate.t_center)
    return np.where(t >= gate.t_center, np.exp(-np.clip(arg, 0.0, None)), 0.0)


def spectrogram(gate: Gate, t_prime_fs, tau_fs):
    """Detector spectrogram of the Lorentzian gate pair.

    Vanishes unless both detection times t' and t' + tau lie past the
    gate opening; decays as exp(-sigma_omega |tau|) in the delay and
    exp(-2 sigma_t (t' - t_center)) in the detection time, carries the
    scan phase exp(-i omega_center tau) and an overall 1 / (2 sigma_omega).
    """
    sigma_omega, sigma_t = gate.filt.sigma_omega, gate.filt.sigma_t
    tp = np.asarray(t_prime_fs, dtype=float)
    tau = np.asarray(tau_fs, dtype=float)
    x = units.TWO_PI_C * tau
    y = units.TWO_PI_C * (tp - gate.t_center)
    open_both = (y >= 0.0) & (y + x >= 0.0)
    log_env = -sigma_omega * np.abs(x) - sigma_t * x - 2.0 * sigma_t * y
    log_env = np.where(open_both, log_env, -np.inf)
    return (0.5 / sigma_omega) * np.exp(log_env - 1j * gate.omega_center * x)


def filtered_lineshape(gate: Gate, omega_ab: float, gamma_ab: float):
    """Closed-form delay integrals of the spectrogram against an emission
    coherence at gap ``omega_ab`` (cm^-1) with width ``gamma_ab`` (cm^-1).

    Returns the (tau > 0, tau < 0) branch values separately since the two
    coincidence pathway terms weight them differently.  Both peak at
    omega_center = omega_ab; the tau < 0 branch only converges while
    sigma_omega + gamma_ab > sigma_t.
    """
    if gamma_ab < 0.0:
        raise ValueError("gamma_ab must be non-negative")
    _check_negative_branch(gate.filt, gamma_ab)
    return lineshape_branches(
        np.asarray(gate.omega_center, dtype=float),
        omega_ab, gamma_ab, gate.filt.sigma_omega, gate.filt.sigma_t,
    )


def lineshape_branches(omega_bar, omega_ab, gamma_ab, sigma_omega, sigma_t):
    """Both branches of :func:`filtered_lineshape` at gate centers
    ``omega_bar``, broadcast over their arguments and unchecked."""
    norm = 0.5 / sigma_omega / units.TWO_PI_C
    neg = norm / ((sigma_omega - sigma_t + gamma_ab) - 1j * (omega_bar - omega_ab))
    return _positive_branch(omega_bar, omega_ab, gamma_ab, sigma_omega, sigma_t), neg
