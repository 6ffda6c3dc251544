"""Bundled reference model and canonical parameter choices.

The package ships one synthetic 14-site aggregate (two stacked rings of
seven chromophores with dipole-dipole couplings; not fitted to any
measured pigment-protein complex) plus the bath parameters used by the
documented reference scenarios.  Everything here is an
ordinary starting point, not a physical claim.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .aggregate import AggregateSpec
from .bath import BathSpec
from .excitation import ExcitonSystem


def bundled_aggregate() -> AggregateSpec:
    """The packaged 14-site double-ring aggregate."""
    text = resources.files("excitonscope").joinpath("data/aggregate14.json").read_text("utf-8")
    return AggregateSpec.from_dict(json.loads(text))


def reference_bath() -> BathSpec:
    """Weak overdamped bath at cryogenic temperature.

    Chosen so two-exciton depopulation widths stay below the typical
    two-exciton level spacing of the bundled aggregate; otherwise no
    state-selective preparation survives.
    """
    return BathSpec(lambda0=1.5, gamma0=60.0, temperature=77.0)


def bundled_system() -> ExcitonSystem:
    return ExcitonSystem.build(bundled_aggregate(), reference_bath())


def bright_pair(system: ExcitonSystem) -> tuple[int, int]:
    """Indices of the two brightest one-exciton states (ascending), the lone
    state twice on a one-site aggregate."""
    strength = np.linalg.norm(system.dipoles.d_eg, axis=1)
    brightest = np.argsort(strength)[-2:]
    return (int(brightest.min()), int(brightest.max()))
