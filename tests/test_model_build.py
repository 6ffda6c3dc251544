"""The array-built model against its plain-loop reference, bit for bit."""

import dataclasses

import numpy as np
import pytest

from excitonscope import AggregateSpec, BathSpec, ExcitonSystem, bath
from excitonscope.bath import build_transport_matrix, site_occupations
from excitonscope.excitation import WIDTH_FLOOR_VALUE
from excitonscope.excitons import build_two_exciton_hamiltonian
from excitonscope.presets import bundled_aggregate, reference_bath

from conftest import dimer_bath, make_dimer, make_trimer
from loop_reference import (
    loop_pole_table,
    loop_rate_matrix,
    loop_site_occupations,
    loop_two_exciton_hamiltonian,
    pole_chains,
)
from test_acceptance import generic_aggregate

BROWNIAN_BATH = BathSpec(2.0, 60.0, ((1.5, 740.0, 30.0),), 77.0)


def twin_sites() -> AggregateSpec:
    # two identical uncoupled sites: both manifolds hold exactly degenerate
    # states, so some gaps are exactly 0
    return AggregateSpec(
        site_energies=(12300.0, 12300.0),
        couplings=np.zeros((2, 2)),
        onsite_anharmonicity=(-200.0, -200.0),
        pair_anharmonicity=((0.0, -80.0), (-80.0, 0.0)),
        site_dipoles=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        bath_coupling_weights=(1.0, 1.0),
        label="twins",
    )


CASES = {
    "dimer": (make_dimer, dimer_bath()),
    "trimer": (make_trimer, dimer_bath()),
    "bundled": (bundled_aggregate, reference_bath()),
    "generic1": (lambda: generic_aggregate(1), dimer_bath()),
    "generic8": (lambda: generic_aggregate(8), BROWNIAN_BATH),
    "twins": (twin_sites, BROWNIAN_BATH),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def built(request):
    factory, bath_spec = CASES[request.param]
    spec = factory()
    return spec, bath_spec, ExcitonSystem.build(spec, bath_spec)


def test_two_exciton_hamiltonian_matches_loop(built):
    spec, _, system = built
    pairs = system.eig.pairs
    assert np.array_equal(
        build_two_exciton_hamiltonian(spec, pairs), loop_two_exciton_hamiltonian(spec, pairs)
    )


@pytest.mark.parametrize("manifold", ["one", "two"])
def test_occupations_and_rates_match_loop(built, manifold):
    spec, bath_spec, system = built
    transport = system.transport_one if manifold == "one" else system.transport_two
    occ = site_occupations(system.eig, manifold)
    assert np.array_equal(occ, loop_site_occupations(system.eig, manifold))
    rates = loop_rate_matrix(system.eig, spec, bath_spec, manifold)
    assert np.array_equal(transport.rate_matrix, rates)


def test_degenerate_states_take_the_zero_gap_branch():
    system = ExcitonSystem.build(twin_sites(), BROWNIAN_BATH)
    for energies in (system.eig.energies_e, system.eig.energies_f):
        assert np.any(np.diff(energies) == 0.0)


@pytest.mark.parametrize("manifold", ["one", "two"])
def test_one_correlation_call_per_manifold(monkeypatch, manifold):
    spec = make_trimer()
    system = ExcitonSystem.build(spec, dimer_bath())
    calls = []
    original = bath.phonon_correlation_real

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bath, "phonon_correlation_real", counted)
    build_transport_matrix(system.eig, spec, dimer_bath(), manifold)
    assert len(calls) == 1


POLE_CASES = {
    "bundled": (bundled_aggregate, reference_bath()),
    # no bath coupling: every width of every family is floored
    "isolated": (make_dimer, BathSpec(0.0, 40.0, (), 77.0)),
    "dephased": (make_dimer, BathSpec(0.4, 40.0, ((1.5, 740.0, 30.0),), 77.0, 3.0)),
}


@pytest.mark.parametrize("case", sorted(POLE_CASES))
def test_pole_widths_match_loop(case):
    factory, bath_spec = POLE_CASES[case]
    system = ExcitonSystem.build(factory(), bath_spec)
    poles, chains = system.poles, pole_chains(system)
    widths, floored = loop_pole_table(system)
    for name in ("eg", "fg", "fe", "ee", "ff", "modes"):
        assert np.array_equal(-getattr(chains, name).imag, widths[name]), name
    assert np.array_equal(-chains.ef.imag, widths["fe"])
    # p4 reads ef as -conj(fe), bitwise -w_fe - i gamma_fe
    ef = -system.eig.omega_fe() - 1j * widths["fe"]
    assert (-poles.fe.conj()).tobytes() == ef.tobytes()
    assert poles.floored_widths == floored
    # every model floors its stationary transport mode, and only the
    # uncoupled dimer floors more
    assert floored["modes"] >= 1
    assert poles.regularized == (case == "isolated")
    if case == "isolated":
        assert all(np.all(w == WIDTH_FLOOR_VALUE) for w in widths.values())
        assert poles.floored_families == ["eg", "fg", "fe", "ee", "ff", "modes"]


def test_system_keeps_no_polarization():
    # the polarization enters the projected dipoles at build time; the
    # system holds those, and nothing reads the axis after
    assert "polarization" not in [f.name for f in dataclasses.fields(ExcitonSystem)]
