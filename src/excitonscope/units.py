"""Unit conventions shared by every module.

Energies, rates and linewidths are expressed in wavenumbers (cm^-1),
times in femtoseconds.  A quantity ``nu`` in cm^-1 accumulates a phase of
``2*pi*c*nu*t`` radians over ``t`` femtoseconds, with ``c`` in cm/fs, so a
single conversion factor :data:`TWO_PI_C` appears wherever an energy
multiplies a time.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT_CM_PER_FS = 2.99792458e-5
TWO_PI_C = 2.0 * math.pi * SPEED_OF_LIGHT_CM_PER_FS
BOLTZMANN_CM_PER_K = 0.6950348
DEFAULT_TEMPERATURE_K = 300.0


def beta_cm(temperature_k: float) -> float:
    """Inverse temperature in (cm^-1)^-1."""
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return 1.0 / (BOLTZMANN_CM_PER_K * temperature_k)
