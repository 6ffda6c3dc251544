"""Bundled reference model and canonical parameter choices.

The package ships one synthetic 14-site aggregate (two stacked rings of
seven chromophores with dipole-dipole couplings; not fitted to any
measured pigment-protein complex) plus the bath parameters used by the
documented reference scenarios.  Everything here is an
ordinary starting point, not a physical claim.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .aggregate import AggregateSpec
from .bath import BathSpec
from .excitation import ExcitonSystem


def bundled_aggregate() -> AggregateSpec:
    """The packaged 14-site double-ring aggregate."""
    path = resources.files("excitonscope").joinpath("data/aggregate14.json")
    with resources.as_file(path) as file_path:
        return AggregateSpec.from_json(file_path)


def reference_bath() -> BathSpec:
    """Weak overdamped bath at cryogenic temperature.

    Chosen so two-exciton depopulation widths stay below the typical
    two-exciton level spacing of the bundled aggregate; otherwise no
    state-selective preparation survives.
    """
    return BathSpec(lambda0=1.5, gamma0=60.0, temperature=77.0)


def bundled_system(polarization=(1.0, 1.0, 1.0)) -> ExcitonSystem:
    return ExcitonSystem.build(bundled_aggregate(), reference_bath(), polarization)


def bright_pair(system: ExcitonSystem) -> tuple[int, int]:
    """Indices of the two brightest one-exciton states (ascending)."""
    strength = np.linalg.norm(system.dipoles.d_eg, axis=1)
    a, b = np.argsort(strength)[-2:]
    return (int(min(a, b)), int(max(a, b)))
