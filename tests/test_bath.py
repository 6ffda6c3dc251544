import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonscope import BathSpec, spectral_density
from excitonscope.bath import (
    phonon_correlation_real,
    site_occupations,
    spectral_density_slope,
)
from excitonscope.presets import reference_bath
from excitonscope.units import beta_cm

from bath_reference import re_correlation_time_domain

STRUCTURED_BATH = BathSpec(35.0, 100.0, ((20.0, 740.0, 30.0),), 300.0)
TEST_FREQUENCIES = (-740.0, -120.0, 35.0, 310.0, 741.5)


def test_correlation_matches_time_domain_quadrature():
    # five frequencies straddling the Brownian resonance, 1e-6 relative
    start = time.perf_counter()
    for omega in TEST_FREQUENCIES:
        closed = phonon_correlation_real(STRUCTURED_BATH, omega)
        reference = re_correlation_time_domain(STRUCTURED_BATH, omega)
        assert closed == pytest.approx(reference, rel=1e-6)
    assert time.perf_counter() - start < 10.0


def test_detailed_balance_of_correlation():
    for bath in (STRUCTURED_BATH, reference_bath()):
        for omega in (12.0, 55.0, 310.0, 740.0, 1950.0):
            up = phonon_correlation_real(bath, omega)
            down = phonon_correlation_real(bath, -omega)
            assert down == pytest.approx(up * np.exp(-bath.beta * omega), rel=1e-12)


def test_correlation_continuous_at_zero():
    bath = STRUCTURED_BATH
    limit = spectral_density_slope(bath) / bath.beta
    assert phonon_correlation_real(bath, 0.0) == pytest.approx(limit)
    assert phonon_correlation_real(bath, 1e-11) == pytest.approx(limit)
    assert phonon_correlation_real(bath, 1e-6) == pytest.approx(limit, rel=1e-4)


def test_spectral_density_slope_matches_finite_difference():
    bath = STRUCTURED_BATH
    h = 1e-6
    numeric = (spectral_density(bath, h) - spectral_density(bath, -h)) / (2.0 * h)
    assert spectral_density_slope(bath) == pytest.approx(float(numeric), rel=1e-8)


@given(omega=st.floats(min_value=0.1, max_value=5000.0))
@settings(max_examples=60, deadline=None)
def test_spectral_density_antisymmetric(omega):
    j_pos = spectral_density(STRUCTURED_BATH, omega)
    j_neg = spectral_density(STRUCTURED_BATH, -omega)
    assert float(j_neg) == pytest.approx(-float(j_pos), rel=1e-14, abs=1e-300)
    assert float(j_pos) >= 0.0


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(-1.0, 50.0)
    with pytest.raises(ValueError):
        BathSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        BathSpec(1.0, 50.0, temperature=0.0)
    with pytest.raises(ValueError):
        BathSpec(1.0, 50.0, pure_dephasing=-0.1)
    with pytest.raises(ValueError):
        BathSpec(1.0, 50.0, brownian_modes=((1.0, -700.0, 20.0),))
    for temperature in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature"):
            beta_cm(temperature)


@pytest.mark.parametrize("fields", [
    {"lambda0": np.nan}, {"lambda0": np.inf}, {"gamma0": np.nan}, {"gamma0": np.inf},
    {"temperature": np.inf}, {"temperature": np.nan}, {"pure_dephasing": np.nan},
    {"brownian_modes": ((np.nan, 740.0, 30.0),)}, {"brownian_modes": ((1.0, np.inf, 30.0),)},
    {"brownian_modes": ((1.0, 740.0, np.nan),)},
])
def test_bath_spec_rejects_non_finite_numbers(fields):
    with pytest.raises(ValueError):
        BathSpec(**{"lambda0": 1.0, "gamma0": 50.0, **fields})


def test_site_occupations_count_quanta(bundled):
    # every one-exciton state holds one quantum, every two-exciton state two
    for manifold, quanta in (("one", 1.0), ("two", 2.0)):
        occ = site_occupations(bundled.eig, manifold)
        assert np.all(occ >= 0.0)
        np.testing.assert_allclose(occ.sum(axis=1), quanta, atol=1e-12)
