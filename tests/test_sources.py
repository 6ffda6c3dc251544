import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonscope import CoherentSource, EppSource, GaussianPulse, jsi_map
from excitonscope.sources import _SINC_SERIES_RADIUS, _expm1_ratio, csinc, gaussian_gamma_from_tau
from excitonscope.units import TWO_PI_C


def make_source(tau_pump=150.0, t_ent=10.0, **kw):
    defaults = dict(
        omega1=12100.0, omega2=12500.0, pump_center=24600.0,
        tau_pump=tau_pump, t1=0.0, t2=t_ent,
    )
    defaults.update(kw)
    return EppSource(**defaults)


@given(
    re=st.floats(min_value=-30.0, max_value=30.0),
    im=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_csinc_matches_sin_over_z(re, im):
    z = complex(re, im)
    value = complex(csinc(z))
    if abs(z) > 1e-4:
        expected = np.sin(z) / z
    else:
        expected = 1.0 - z * z / 6.0 + z**4 / 120.0
    assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_csinc_series_joins_smoothly():
    # values straddling the series switchover agree to near machine level
    for z in (9.9e-5, 1.01e-4, 1e-4 + 1e-4j, 9e-5 - 5e-5j):
        direct = np.sin(complex(z)) / complex(z)
        assert complex(csinc(z)) == pytest.approx(direct, rel=1e-12)


def test_expm1_ratio_is_sinc_times_phase():
    # expm1(2 i phi) / (2 i phi) == csinc(phi) e^{i phi}, with phi and -phi
    # for the direct and the conjugate leg, on both sides of the series radius
    edge = 0.5 * _SINC_SERIES_RADIUS
    phis = [0.0, 0.3 * edge, 0.99 * edge * np.exp(0.7j), 1.01 * edge * np.exp(-2.1j),
            2.0 * edge, 1e-3 - 2e-3j, 0.4 + 0.1j, -3.0 + 1.5j, 25.0 - 4.0j, -17.0 - 0.2j]
    for phi in phis:
        for sign in (1.0, -1.0):
            got = complex(_expm1_ratio(2j * sign * phi))
            expected = complex(csinc(phi) * np.exp(1j * sign * phi))
            assert abs(got - expected) <= 1e-13 * abs(expected), (phi, sign)
    assert complex(_expm1_ratio(0.0)) == 1.0
    values = np.array(phis)
    assert _expm1_ratio(2j * values) == pytest.approx(csinc(values) * np.exp(1j * values),
                                                      rel=1e-13)


def two_branch_jsa(source, wa, wb):
    """F = alpha A_p(wa + wb) sum_r csinc(phi_r) e^{i phi_r}, as documented."""
    g = source.pump_gamma
    detuning = (wa + wb - source.pump_center) * TWO_PI_C
    pump = source.e0 * np.sqrt(np.pi / g) * np.exp(-detuning * detuning / (4.0 * g))
    matching = 0.0
    for reference in (source.omega1, source.omega2):
        phi = 0.5 * TWO_PI_C * ((wa - reference) * source.t1 + (wb - reference) * source.t2)
        matching = matching + csinc(phi) * np.exp(1j * phi)
    return source.alpha * pump * matching


def _complex_points(shape_a, shape_b, seed=3):
    rng = np.random.default_rng(seed)
    wa = rng.uniform(12000.0, 12600.0, shape_a) + 1j * rng.uniform(-60.0, 60.0, shape_a)
    wb = rng.uniform(12000.0, 12600.0, shape_b) + 1j * rng.uniform(-60.0, 60.0, shape_b)
    return wa, wb


@pytest.mark.parametrize("delays", [(0.0, 10.0), (3.0, 13.0), (0.0, 0.0)])
@pytest.mark.parametrize("references", [(12100.0, 12500.0), (12300.0, 12300.0)])
def test_jsa_matches_two_branch_formula(delays, references):
    source = make_source(omega1=references[0], omega2=references[1], tau_pump=120.0,
                         t1=delays[0], t_ent=delays[1], alpha=1.3, e0=0.7)
    wa, wb = _complex_points((6, 1, 4), (1, 5, 4))
    expected = two_branch_jsa(source, wa, wb)
    assert source.jsa(wa, wb) == pytest.approx(expected, rel=1e-12)
    conjugate = np.conj(two_branch_jsa(source, np.conj(wa), np.conj(wb)))
    assert source.jsa_conjugate(wa, wb) == pytest.approx(conjugate, rel=1e-12)
    # lower-rank arguments broadcast to the same values
    full_a, full_b = np.broadcast_arrays(wa, wb)
    assert source.jsa(wa, wb) == pytest.approx(source.jsa(full_a, full_b), rel=1e-14)
    scalar = source.jsa(complex(wa[0, 0, 0]), complex(wb[0, 0, 0]))
    assert np.ndim(scalar) == 0
    assert complex(scalar) == pytest.approx(expected[0, 0, 0], rel=1e-12)


def test_jsa_conjugate_leg_off_the_real_axis():
    for t1, t2 in ((0.0, 10.0), (3.0, 13.0)):
        source = make_source(t1=t1, t_ent=t2)
        wa, wb = _complex_points((9, 1), (1, 7), seed=11)
        direct = np.conj(source.jsa(np.conj(wa), np.conj(wb)))
        assert source.jsa_conjugate(wa, wb) == pytest.approx(direct, rel=1e-13)


def test_gaussian_gamma_from_tau():
    assert gaussian_gamma_from_tau(100.0) == pytest.approx(0.5e-4)
    with pytest.raises(ValueError):
        gaussian_gamma_from_tau(0.0)


def test_pulse_amplitude_peak_and_width():
    pulse = GaussianPulse(center=12500.0, tau=80.0, scale=2.0)
    peak = pulse.amplitude(12500.0)
    assert peak == pytest.approx(2.0 * np.sqrt(np.pi / pulse.gamma))
    # 1/e point of |A|^2 sits at detuning sqrt(2 gamma) in rad/fs
    detune = np.sqrt(2.0 * pulse.gamma) / TWO_PI_C
    ratio = np.abs(pulse.amplitude(12500.0 + detune)) ** 2 / np.abs(peak) ** 2
    assert ratio == pytest.approx(np.exp(-1.0), rel=1e-10)


def test_pulse_conjugate_leg_on_real_axis():
    pulse = GaussianPulse(center=12500.0, tau=80.0)
    w = 12440.0
    assert pulse.amplitude_conjugate(w) == pytest.approx(np.conj(pulse.amplitude(w)))
    z = 12440.0 + 3.0j
    assert pulse.amplitude_conjugate(z) == pytest.approx(np.conj(pulse.amplitude(np.conj(z))))


def test_source_validation():
    with pytest.raises(ValueError):
        make_source(tau_pump=0.0)
    with pytest.raises(ValueError):
        make_source(t1=10.0, t2=0.0)
    with pytest.raises(ValueError):
        make_source(alpha=0.0)
    assert make_source(t_ent=25.0).entanglement_time == 25.0


def test_jsa_conjugate_leg_is_plain_conjugate_on_real_axis():
    source = make_source()
    wa, wb = 12120.0, 12480.0
    assert source.jsa_conjugate(wa, wb) == pytest.approx(np.conj(source.jsa(wa, wb)))


def test_jsa_symmetric_under_exchange_for_degenerate_delays():
    source = EppSource(12300.0, 12300.0, 24600.0, 120.0, 5.0, 5.0)
    wa, wb = 12260.0, 12350.0
    assert source.jsa(wa, wb) == pytest.approx(source.jsa(wb, wa))


def test_four_point_scales_with_alpha_squared_and_e0_squared():
    base = make_source()
    w = (12130.0, 12470.0, 12120.0, 12480.0)
    reference = base.four_point(*w)
    doubled_alpha = make_source(alpha=2.0)
    assert doubled_alpha.four_point(*w) == pytest.approx(4.0 * reference)
    doubled_field = make_source(e0=2.0)
    assert doubled_field.four_point(*w) == pytest.approx(4.0 * reference)


def test_coherent_four_point_scales_as_fourth_power():
    w = (12300.0, 12310.0, 12290.0, 12305.0)
    one = CoherentSource.identical(12300.0, 60.0, scale=1.0)
    two = CoherentSource.identical(12300.0, 60.0, scale=2.0)
    assert two.four_point(*w) == pytest.approx(16.0 * one.four_point(*w))


def test_coherent_pairing_matches_four_point_on_real_axis():
    source = CoherentSource.identical(12300.0, 60.0)
    w4, w3, w2, w1 = 12310.0, 12280.0, 12330.0, 12295.0
    paired = source.preparation_bra(w4, w3) * source.preparation_ket(w2, w1)
    assert paired == pytest.approx(source.four_point(w4, w3, w2, w1))


def test_coherent_source_needs_four_gaussians():
    with pytest.raises(ValueError):
        CoherentSource(pulses=(GaussianPulse(1.0, 1.0),) * 3)
    with pytest.raises(TypeError):
        CoherentSource(pulses=(1.0, 2.0, 3.0, 4.0))


def _marginal_spread(axis, profile):
    profile = profile / profile.sum()
    mean = float(profile @ axis)
    return float(np.sqrt(profile @ (axis - mean) ** 2))


def _jsi_widths(source, span, n):
    """Half-max support lengths of the JSI marginals along sum and difference."""
    wa = np.linspace(source.omega1 - span, source.omega1 + span, n)
    wb = np.linspace(source.omega2 - span, source.omega2 + span, n)
    jsi = jsi_map(source, wa, wb)
    step = wa[1] - wa[0]

    def half_max_support(profile):
        return np.count_nonzero(profile > 0.5 * profile.max()) * step

    # anti-diagonals share a sum frequency, diagonals a difference frequency
    offsets = np.arange(n) - n // 2
    sum_profile = np.array([np.fliplr(jsi).trace(offset=o) for o in offsets])
    diff_profile = np.array([jsi.trace(offset=o) for o in offsets])
    return half_max_support(sum_profile), half_max_support(diff_profile)


def _degenerate(tau_pump, t_ent):
    # identical line centers keep the two sinc branches coincident
    return EppSource(12300.0, 12300.0, 24600.0, tau_pump, 0.0, t_ent)


def test_jsi_pump_width_sets_sum_frequency_ridge():
    sum_narrow, _ = _jsi_widths(_degenerate(150.0, 10.0), span=300.0, n=301)
    sum_broad, _ = _jsi_widths(_degenerate(50.0, 10.0), span=300.0, n=301)
    assert sum_narrow < 0.5 * sum_broad


def test_jsi_entanglement_time_sets_difference_spread():
    _, diff_short = _jsi_widths(_degenerate(150.0, 10.0), span=4000.0, n=241)
    _, diff_long = _jsi_widths(_degenerate(150.0, 60.0), span=4000.0, n=241)
    assert diff_long < 0.5 * diff_short


def test_jsi_map_is_max_normalized():
    source = make_source()
    wa = np.linspace(11800.0, 12400.0, 41)
    wb = np.linspace(12200.0, 12800.0, 41)
    jsi = jsi_map(source, wa, wb)
    assert jsi.max() == pytest.approx(1.0)
    assert jsi.min() >= 0.0
    with pytest.raises(ValueError):
        jsi_map(source, np.array([]), wb)


def test_pump_ridge_centered_on_sum_frequency():
    source = make_source()
    wa = np.linspace(12050.0, 12150.0, 101)
    wb = source.pump_center - wa  # walk along the anti-diagonal
    amp = np.abs(source.jsa(wa, wb))
    perp = np.abs(source.jsa(wa + 40.0, wb + 40.0))  # 80 cm^-1 off the ridge
    assert amp.max() > 2.0 * perp.max()