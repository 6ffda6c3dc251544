"""Dissipative exciton kinetics driven by entangled photon pairs,
probed by time-frequency filtered two-photon coincidence counting."""

from .aggregate import AggregateSpec, PairIndex
from .bath import BathSpec, TransportModel, build_transport_matrix, spectral_density
from .coincidence import FilterSpec, SignalGrid, coincidence_snapshot, parameter_study
from .excitation import (
    ExcitonSystem,
    PreparationResult,
    ScanResult,
    prepare_closed_form,
    scan_source,
    scan_targets,
)
from .excitons import (
    ExcitonEigensystem,
    TransitionDipoles,
    build_one_exciton_hamiltonian,
    build_two_exciton_hamiltonian,
    compute_transition_dipoles,
)
from .presets import bundled_aggregate, bundled_system, reference_bath
from .propagators import population_evolve, population_propagator
from .sources import CoherentSource, EppSource, jsi_map

__version__ = "0.1.0"

__all__ = [
    "AggregateSpec",
    "BathSpec",
    "CoherentSource",
    "EppSource",
    "ExcitonEigensystem",
    "ExcitonSystem",
    "FilterSpec",
    "PairIndex",
    "PreparationResult",
    "ScanResult",
    "SignalGrid",
    "TransitionDipoles",
    "TransportModel",
    "build_one_exciton_hamiltonian",
    "build_transport_matrix",
    "build_two_exciton_hamiltonian",
    "bundled_aggregate",
    "bundled_system",
    "coincidence_snapshot",
    "compute_transition_dipoles",
    "jsi_map",
    "parameter_study",
    "population_evolve",
    "population_propagator",
    "prepare_closed_form",
    "reference_bath",
    "scan_source",
    "scan_targets",
    "spectral_density",
    "__version__",
]
