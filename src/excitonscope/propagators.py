"""Population propagators G(t) = exp(-K 2 pi c t) of a manifold's transport.

With q = max K_ii, P = I - K / q is non-negative and column-stochastic, and
G(t) = sum_j e^-qs (qs)^j / j! P^j, s = 2 pi c t (uniformization; Jensen,
Skand. Aktuarietidskr. 1953): no term is negative, so mass is kept to rounding
and each population is accurate relative to itself.  The series takes about
qs + 9.5 sqrt(qs) + 10 products with P.  Negative and non-finite t are errors,
and so is a series longer than ``_MAX_QS``.
"""

from __future__ import annotations

import numpy as np

from . import units
from .bath import TransportModel

_TAIL = 1e-18  # the series ends at the first weight past the mode below this share of it
# The largest qs a series may take, refused before any weight is built: its
# cost and its weight list grow as qs.  At 1e6 one bundled two-exciton vector
# takes about 4.4 s (4.4 us per product with P, 2-vCPU x86-64 host, BLAS at
# one thread); the longest series the tests, CI and the benchmark run take qs of
# about 3100.
_MAX_QS = 1e6


def _uniformized(model: TransportModel, block: np.ndarray, t_fs: float) -> np.ndarray:
    """G(t) @ ``block``, its weights built outward from their mode so none near it underflows."""
    units.require(t_fs, "population propagation is defined for finite t >= 0 only", 0.0)
    q = float(model.rate_matrix.diagonal().max(initial=0.0))
    qs = q * units.TWO_PI_C * t_fs
    if qs > _MAX_QS:
        raise ValueError(
            f"population propagation to t = {t_fs:g} fs takes qs = {qs:.4g}, about "
            f"{qs + 9.5 * np.sqrt(qs) + 10.0:.4g} series terms (qs + 9.5 sqrt(qs) + 10); "
            f"at most qs = {_MAX_QS:g} is taken")
    if qs == 0.0:
        return block.copy()
    mode, down, up = int(qs), [1.0], [1.0]
    for j in range(mode, 0, -1):
        down.append(down[-1] * (j / qs))
    while up[-1] > _TAIL:
        up.append(up[-1] * qs / (mode + len(up)))
    weights = np.array(down[:0:-1] + up)  # j = 0, 1, ..., over the mode's weight
    weights /= weights.sum()
    p = model.rate_matrix / -q  # P = I - K / q, non-negative
    p.ravel()[:: len(p) + 1] += 1.0
    out, term = weights[0] * block, block
    for weight in weights[1:]:
        term = p @ term
        out += weight * term
    return out


def population_propagator(model: TransportModel, t_fs: float) -> np.ndarray:
    """Matrix G(t): G(0) = I exactly, non-negative, columns summing to 1."""
    return _uniformized(model, np.eye(len(model.rate_matrix)), float(t_fs))


def population_evolve(model: TransportModel, rho0: np.ndarray, t_fs) -> np.ndarray:
    """rho(t) for one or many times; rows of the result follow ``t_fs``."""
    rho0, times = np.asarray(rho0, dtype=float), np.asarray(t_fs, dtype=float)
    rows = [_uniformized(model, rho0, t) for t in times.ravel()]
    return np.reshape(rows, times.shape + rho0.shape)
