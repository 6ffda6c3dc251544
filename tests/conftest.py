import os

# One BLAS thread, as CI and the benchmark run it: the quadrature oracle's
# BLAS threads contend for the cores of a loaded host.  This must run before
# numpy is first imported, which no installed pytest plugin does.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from excitonscope import AggregateSpec, BathSpec, ExcitonSystem  # noqa: E402
from excitonscope.presets import bundled_system  # noqa: E402
from excitonscope.sources import MODES  # noqa: E402


def make_dimer() -> AggregateSpec:
    return AggregateSpec(
        site_energies=(12100.0, 12500.0),
        couplings=((0.0, 60.0), (60.0, 0.0)),
        onsite_anharmonicity=(-250.0, 150.0),
        pair_anharmonicity=((0.0, -120.0), (-120.0, 0.0)),
        site_dipoles=((1.2, 0.0, 0.0), (0.8, 0.3, 0.0)),
        bath_coupling_weights=(1.0, 1.0),
        label="dimer",
    )


def make_trimer() -> AggregateSpec:
    # generic parameters: no degeneracies, all anharmonicities active
    j = np.array([[0.0, 55.0, -21.0], [55.0, 0.0, 34.0], [-21.0, 34.0, 0.0]])
    u2 = np.array([[0.0, -110.0, 45.0], [-110.0, 0.0, -60.0], [45.0, -60.0, 0.0]])
    return AggregateSpec(
        site_energies=(12050.0, 12410.0, 12780.0),
        couplings=j,
        onsite_anharmonicity=(-230.0, 140.0, -80.0),
        pair_anharmonicity=u2,
        site_dipoles=((1.1, 0.2, -0.3), (0.7, -0.5, 0.1), (0.4, 0.9, 0.6)),
        bath_coupling_weights=(1.0, 0.8, 1.2),
        label="trimer",
    )


def off_modes(arguments):
    """Pair arguments with the mode axis of their terms relabelled q, an
    ordinary axis of the same size, which a source does not split off."""
    return [[(axes.replace(MODES, "q"), array) for axes, array in terms] for terms in arguments]


def dimer_bath() -> BathSpec:
    return BathSpec(lambda0=0.4, gamma0=40.0, temperature=77.0)


@pytest.fixture(scope="session")
def dimer_system() -> ExcitonSystem:
    return ExcitonSystem.build(make_dimer(), dimer_bath(), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def trimer_system() -> ExcitonSystem:
    return ExcitonSystem.build(make_trimer(), dimer_bath(), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def bundled() -> ExcitonSystem:
    return bundled_system()
