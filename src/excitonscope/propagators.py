"""Time-domain propagators built on the transport eigendecomposition.

Populations evolve under G(t) = chi_R exp(-lambda 2 pi c t) D^-1 chi_L for
t >= 0; negative time is an error, since transport has no meaningful
backward branch.
"""

from __future__ import annotations

import numpy as np

from . import units
from .bath import TransportModel


def population_propagator(model: TransportModel, t_fs: float) -> np.ndarray:
    """Matrix G(t) with G(0) = I and columns conserving probability."""
    if t_fs < 0.0:
        raise ValueError("population propagator is defined for t >= 0 only")
    decay = np.exp(-model.lambdas * units.TWO_PI_C * t_fs)
    return (model.chi_right * (decay / model.dpp)[None, :]) @ model.chi_left


def population_evolve(model: TransportModel, rho0: np.ndarray, t_fs) -> np.ndarray:
    """rho(t) for one or many times; rows of the result follow ``t_fs``."""
    rho0 = np.asarray(rho0, dtype=float)
    times = np.atleast_1d(np.asarray(t_fs, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("population evolution is defined for t >= 0 only")
    modes = (model.chi_left @ rho0) / model.dpp
    decay = np.exp(-np.outer(times, model.lambdas) * units.TWO_PI_C)
    out = decay * modes[None, :] @ model.chi_right.T
    return out[0] if np.asarray(t_fs).ndim == 0 else out

