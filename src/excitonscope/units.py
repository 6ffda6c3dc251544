"""Unit conventions shared by every module.

Energies, rates and linewidths are expressed in wavenumbers (cm^-1),
times in femtoseconds.  A quantity ``nu`` in cm^-1 accumulates a phase of
``2*pi*c*nu*t`` radians over ``t`` femtoseconds, with ``c`` in cm/fs, so a
single conversion factor :data:`TWO_PI_C` appears wherever an energy
multiplies a time.  :func:`require` is the input check every record and
function of the package applies to the numbers it takes.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT_CM_PER_FS = 2.99792458e-5
TWO_PI_C = 2.0 * math.pi * SPEED_OF_LIGHT_CM_PER_FS
BOLTZMANN_CM_PER_K = 0.6950348
DEFAULT_TEMPERATURE_K = 300.0


def require(value, message: str, low: float = -math.inf, strict: bool = False) -> None:
    """Raises ValueError with ``message`` and ``value`` unless every entry of
    ``value``, a number or an array, is finite and at or above ``low``
    (above it when ``strict``).  NaN fails this as it fails every bound."""
    if isinstance(value, (int, float)):  # a tenth of the array route's cost
        ok = math.isfinite(value) and (value > low if strict else value >= low)
    else:
        v = np.asarray(value, dtype=float)
        ok = np.all(np.isfinite(v) & ((v > low) if strict else (v >= low)))
    if not ok:
        raise ValueError(f"{message}, got {value}")


def beta_cm(temperature_k: float) -> float:
    """Inverse temperature in (cm^-1)^-1."""
    require(temperature_k, "temperature must be finite and positive", 0.0, strict=True)
    return 1.0 / (BOLTZMANN_CM_PER_K * temperature_k)
