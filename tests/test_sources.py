import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonscope import CoherentSource, EppSource, jsi_map
from excitonscope.sources import (
    _SCREEN_MARGIN,
    _SINC_SERIES_RADIUS,
    _expm1_ratio,
    _expm1_ratio_taylor,
    _merged,
    _screened_exp,
    _taylor_orders,
    gaussian_gamma_from_tau,
    labelled_sum,
    on_axes,
)
from excitonscope.units import TWO_PI_C

from conftest import off_modes
from loop_reference import extended_leg


def csinc(z):
    """sin(z)/z for complex z with a series branch near the origin."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SINC_SERIES_RADIUS
    safe = np.where(small, 1.0, z)
    out = np.sin(safe) / safe
    z2 = z * z
    series = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return np.where(small, series, out)


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


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double on this platform")
def test_taylor_series_change_has_no_cancellation():
    # the change g(w + d) - g(w) of g = expm1(w)/w as its Taylor series at w
    # to the orders the order rule gives for |d|, with coefficients from the
    # downward (|w| < 1) and the upward (|w| >= 1) recurrence, against the
    # plain difference in extended precision, which keeps 1e-19 / |d| of
    # the change and so 1e-15 here; the rule accepts |d| up to 0.509
    rng = np.random.default_rng(9)

    def ratio(x):
        return np.expm1(x) / x

    assert _taylor_orders(0.5) is not None and _taylor_orders(0.51) is None
    for w_size in (1e-3, 0.3, 2.0, 20.0):
        w = w_size * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40))
        for d_size in (1e-4, 0.1, 0.5):
            d = d_size * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40))
            wl, dl = w.astype(np.clongdouble), d.astype(np.clongdouble)
            expected = ratio(wl + dl) - ratio(wl)
            coefficients = _expm1_ratio_taylor(w, _taylor_orders(d_size))
            got = sum(c * d**n for n, c in enumerate(coefficients[1:], 1))
            assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected)), (w_size, d_size)
    assert _taylor_orders(0.0) == 0


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
    assert source.preparation_ket(wa, wb) == pytest.approx(conjugate, rel=1e-12)
    # lower-rank arguments broadcast to the same values
    full_a, full_b = np.broadcast_arrays(wa, wb)
    assert source.jsa(wa, wb) == pytest.approx(source.jsa(full_a, full_b), rel=1e-14)
    scalar = source.jsa(complex(wa[0, 0, 0]), complex(wb[0, 0, 0]))
    assert np.ndim(scalar) == 0
    assert complex(scalar) == pytest.approx(expected[0, 0, 0], rel=1e-12)


def _near(references, shape, rng):
    """Complex frequencies 1e-3 to 30 cm^-1 from randomly chosen references."""
    offset = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), shape)
                    + 1j * rng.uniform(0.0, 2.0 * np.pi, shape))
    return rng.choice(references, shape) + offset


def _branch_arguments(source, x, y, sign):
    """2 i sign phi_r of both branches at photon frequencies x and y."""
    k = sign * 1j * TWO_PI_C
    return [k * (source.t1 * (x - r) + source.t2 * (y - r)) for r in (source.omega1, source.omega2)]


def _pair_arguments(references, rng, exact_sums=True, shift_size=1.0, ket_shift="x"):
    """Labelled arguments of a pair shaped like p2's on axes (f, u, e, p):
    ket (fu + p, e) and bra (fu, e + p), with p terms up to ``shift_size``
    cm^-1 from zero; with ``ket_shift="y"`` the ket's p term moves to its
    second argument, ket (fu, e + p).

    With ``exact_sums`` every value is a multiple of 2^-20 cm^-1, so every
    sum of them is exact and the legs, which form the sum frequency near
    2.5e4 cm^-1, carry no rounding of it.
    """
    def near(refs, shape, scale=1.0):
        z = scale * _near(refs, shape, rng)
        if exact_sums:
            z = (np.round(z.real * 2**20) + 1j * np.round(z.imag * 2**20)) / 2**20
        return z

    fu, e = near(references, (5, 4)), near(references, (6,))
    ket_fu = near(references, (5, 4))
    # _near draws offsets up to 30 cm^-1
    p, bra_p = (near([0.0], (3,), shift_size / 30.0) for _ in range(2))
    if ket_shift == "y":
        return [("fu", ket_fu)], [("e", e), ("p", p)], [("fu", fu)], [("e", e), ("p", bra_p)]
    return [("fu", ket_fu), ("p", p)], [("e", e)], [("fu", fu)], [("e", e), ("p", bra_p)]


def _pair(factors, excess, axes="fuep"):
    """The product of the factors and of 1 + m over the excess factors m."""
    product = 1.0
    for factor in factors:
        product = product * on_axes(axes, factor)
    for m in excess:
        product = product * (1.0 + on_axes(axes, m))
    return product


def _carrying_p(factors):
    """The sorted axes of each factor on axis p, sorted."""
    return sorted("".join(sorted(axes)) for axes, _ in factors if "p" in axes)


def _legs(source, arguments):
    full = [on_axes("fuep", labelled_sum(terms)) for terms in arguments]
    return source.preparation_ket(full[0], full[1]) * source.preparation_bra(full[2], full[3])


@pytest.mark.parametrize("t1", [0.0, 3.0])
@pytest.mark.parametrize("references", [(12100.0, 12500.0), (12300.0, 12300.0)])
def test_pair_is_the_product_of_its_legs(t1, references):
    source = make_source(omega1=references[0], omega2=references[1], tau_pump=120.0,
                         t1=t1, t_ent=t1 + 10.0, alpha=1.3, e0=0.7)
    # the p term in the ket's first argument, or in both legs' second,
    # where at t1 = 0 both legs' matching excess factors lie on (e, p)
    for ket_shift in ("x", "y"):
        rng = np.random.default_rng(5)
        arguments = _pair_arguments(references, rng, ket_shift=ket_shift)
        full = [on_axes("fuep", labelled_sum(terms)) for terms in arguments]
        for x, y, sign in ((full[0], full[1], -1.0), (full[2], full[3], 1.0)):
            radii = np.abs(_branch_arguments(source, x, y, sign))
            assert (radii < _SINC_SERIES_RADIUS).any() and (radii > _SINC_SERIES_RADIUS).any()
        expected = _legs(source, arguments)
        # the pair as the engine passes it, and unsplit: with the mode terms
        # relabelled off p, on an axis q of the same size
        for split, labelled, axes in ((False, off_modes(arguments), "fueq"),
                                      (True, arguments, "fuep")):
            factors, excess = source.pair_factors(*labelled)
            assert all(len(own) == np.ndim(array) for own, array in factors + excess)
            if split:
                # the pump's shifts and the matching's enter the excess
                # factors, the matching's on its leg's unshifted axes, (e)
                # at t1 = 0 and (f, u, e) at t1 != 0, and p; no factor
                # carries p
                assert sorted(own for own, _ in excess) == (
                    ["ep", "fuep", "fup"] if t1 else ["ep", "fup"])
                assert _carrying_p(factors) == []
            else:
                assert not excess
            pair = _pair(factors, excess, axes)
            assert pair.shape == (5, 4, 6, 3)
            assert np.all(np.abs(pair - expected) <= 1e-13 * np.abs(expected)), (ket_shift, split)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("t1", [0.0, 3.0])
def test_pair_and_legs_against_extended_precision(t1):
    # On unrounded arguments the float64 legs round the sum frequency near
    # 2.5e4 cm^-1 by up to 3.6e-12 cm^-1, which moves the pump's exponent by
    # 2 |kappa| |s - w_p| times that, 8.5e-13 at the 460 cm^-1 detunings
    # here.  The pair sums the terms centred on whole wavenumbers, so it
    # keeps only the rounding of exponents up to |kappa| |s - w_p|^2 = 54,
    # a few times 54 eps per leg.
    references = (12100.0, 12500.0)
    source = make_source(omega1=references[0], omega2=references[1], tau_pump=120.0,
                         t1=t1, t_ent=t1 + 10.0, alpha=1.3, e0=0.7)
    arguments = _pair_arguments(references, np.random.default_rng(7), exact_sums=False)
    ket_x, ket_y, bra_x, bra_y = (on_axes("fuep", labelled_sum(terms)) for terms in arguments)
    extended = np.frompyfunc(lambda *args: extended_leg(source, *args[:2], -1)
                             * extended_leg(source, *args[2:], 1), 4, 1)
    exact = extended(*np.broadcast_arrays(ket_x, ket_y, bra_x, bra_y)).astype(np.clongdouble)
    scale = np.abs(exact).astype(float)
    factors, excess = source.pair_factors(*arguments)
    # the pump and the matching split off their shifts at every t1
    assert sorted(axes for axes, _ in excess) == (["ep", "fuep", "fup"] if t1 else ["ep", "fup"])
    assert _carrying_p(factors) == []
    pair_error = np.abs(_pair(factors, excess) - exact).astype(float)
    legs_error = np.abs(_legs(source, arguments) - exact).astype(float)
    assert np.all(pair_error <= 5e-13 * scale)
    assert np.all(legs_error <= 3e-12 * scale)
    assert (pair_error / scale).max() < (legs_error / scale).max() / 2.0


def test_coherent_pair_is_the_product_of_its_legs():
    source = CoherentSource(12300.0, 60.0)
    arguments = _pair_arguments([12300.0], np.random.default_rng(6))
    # unsplit, with the mode terms relabelled off p
    factors, excess = source.pair_factors(*off_modes(arguments))
    assert [axes for axes, _ in factors] == ["fuq", "e", "fu", "eq"] and not excess
    assert np.all(np.abs(_pair(factors, excess, "fueq") - _legs(source, arguments))
                  <= 1e-13 * np.abs(_legs(source, arguments)))
    factors, excess = source.pair_factors(*arguments)
    # the Gaussian exponents of the arguments on equal axis sets are grouped
    assert [axes for axes, _ in factors] == ["fu", "e"]
    assert [axes for axes, _ in excess] == ["fup", "ep"]
    assert np.all(np.abs(_pair(factors, excess) - _legs(source, arguments))
                  <= 1e-13 * np.abs(_legs(source, arguments)))


@pytest.mark.parametrize("source", [
    make_source(tau_pump=120.0, t1=0.0, t_ent=10.0, alpha=1.3, e0=0.7),
    make_source(tau_pump=120.0, t1=3.0, t_ent=13.0, alpha=1.3, e0=0.7),
    CoherentSource(12300.0, 60.0, 1.7),
])
def test_pair_on_unequal_axis_sets_is_the_product_of_its_legs(source):
    # the ket's sum frequency lies on (f, e) and the bra's on (f, g), so the
    # Gaussian exponents form more than one group, and the source's constant
    # still enters the pair once; the frequencies are multiples of 2^-20
    # cm^-1, so the legs form their sums exactly
    references = [12100.0, 12500.0]
    rng = np.random.default_rng(10)
    f, e, f_bra, g = (np.round(_near(references, (n,), rng) * 2**20) / 2**20 for n in (5, 4, 5, 3))
    factors, excess = source.pair_factors([("f", f)], [("e", e)], [("f", f_bra)], [("g", g)])
    assert not excess
    expected = (source.preparation_ket(f[:, None, None], e[None, :, None])
                * source.preparation_bra(f_bra[:, None, None], g[None, None, :]))
    assert np.all(np.abs(_pair(factors, excess, "feg") - expected) <= 1e-13 * np.abs(expected))


@pytest.mark.parametrize("source, layouts", [
    # the pump of each leg is taken whole, one factor on the full grid, and
    # the matching keeps its (e, p) excess
    (make_source(tau_pump=1.0e3, t1=0.0, t_ent=10.0),
     {0.1: ([], ["ep", "fup"]), 100.0: (["efpu"], ["ep"])}),
    # only the pulse whose shift leaves the range, the bra's second, is
    # taken whole; the ket's first, shifted by up to 59 cm^-1, stays split
    (CoherentSource(12300.0, 1.0e3),
     {0.1: ([], ["ep", "fup"]), 100.0: (["ep"], ["fup"])}),
    # at t1 != 0 the matching keeps its excess on (f, u, e, p) beside a
    # whole pump
    (make_source(tau_pump=1.0e3, t1=3.0, t_ent=13.0),
     {0.1: ([], ["ep", "fuep", "fup"]), 100.0: (["efpu"], ["fuep"])}),
    # a 10 fs pump keeps its excess at shifts up to 3000 cm^-1, where the
    # matching's change 2 pi c (T1 s_x + T2 s_y) reaches 0.99 in the ket and
    # 1.3 in the bra, past the 0.51 that its Taylor series takes: both
    # legs' matching is taken whole
    (make_source(tau_pump=10.0, t1=3.0, t_ent=13.0),
     {0.1: ([], ["ep", "fuep", "fup"]), 3000.0: (["efpu"], ["ep", "fup"])}),
], ids=["source0", "source1", "source2", "source3"])
def test_pair_falls_back_where_an_excess_exponent_leaves_its_range(source, layouts):
    # a shift s of an argument d moves the Gaussian's exponent by
    # kappa s (s + 2 d), |kappa| = 0.018 at 1 ps: with shifts of any phase
    # up to 0.1 cm^-1 and d up to 60 cm^-1 that stays within [-1, 50], with
    # shifts up to 100 cm^-1 it does not, and a Gaussian whose shift takes
    # it out is taken whole, on axis p; so is a phase matching whose change
    # its Taylor series cannot take
    for shift_size, (carrying_p, excess_axes) in layouts.items():
        arguments = _pair_arguments([12300.0], np.random.default_rng(8), shift_size=shift_size)
        factors, excess = source.pair_factors(*arguments)
        assert _carrying_p(factors) == carrying_p
        assert sorted(axes for axes, _ in excess) == excess_axes
        expected = _legs(source, arguments)
        assert np.all(np.isfinite(expected)) and np.abs(expected).max() > 0.0
        assert np.all(np.abs(_pair(factors, excess) - expected) <= 1e-13 * np.abs(expected))


def test_merged_drops_every_all_zero_sum():
    # a lone term of zeros, such as a floor residual where no width is
    # floored, is dropped as a sum that cancels is, so it widens no factor
    # of the pair; a sum with one nonzero element is kept
    rng = np.random.default_rng(12)
    f, a = 12300.0 + rng.random(5), 12100.0 + rng.random(4)
    zeros, one = np.zeros((5, 4), dtype=complex), np.zeros(4, dtype=complex)
    one[2] = -1e-3j
    merged = _merged([("f", f), ("a", a), ("fb", zeros[:, :3]), ("a", -a), ("", 0j), ("b", one)])
    assert [axes for axes, _ in merged] == ["f", "b"]
    assert np.array_equal(merged[0][1], f) and np.array_equal(merged[1][1], one)
    source = make_source(tau_pump=120.0, t1=3.0, t_ent=10.0)
    factors, excess = source.pair_factors([("f", f), ("fb", zeros)], [("a", a)],
                                          [("f", f), ("fb", zeros)], [("a", -a), ("a", a)])
    assert not excess and all("b" not in axes for axes, _ in factors)


def test_pump_screen_zeroes_only_cells_far_below_their_slice():
    # exponents on (t, f, u, e) with real parts spread over 600 and each
    # (t, f) slice raised by its own offset; the last target's slices span
    # less than the margin, so none of its cells is screened
    rng = np.random.default_rng(11)
    shape = (3, 5, 4, 6)
    exponent = (-600.0 * rng.random(shape) + rng.uniform(-300.0, 0.0, shape[:2] + (1, 1))
                + 1j * rng.uniform(-50.0, 50.0, shape))
    exponent[2] = exponent[2].real * (0.5 * _SCREEN_MARGIN / 600.0) + 1j * exponent[2].imag
    floor = exponent.real.max(axis=(2, 3), keepdims=True) - _SCREEN_MARGIN
    dead = exponent.real < floor
    assert dead[:2].any() and not dead[2].any()
    screened = _screened_exp("tfue", exponent.copy())
    assert np.all(screened[dead] == 0.0)
    assert np.array_equal(screened[~dead], np.exp(exponent[~dead]))
    # each target's slice is that target alone, whatever the axis order
    for t in range(shape[0]):
        assert np.array_equal(screened[t], _screened_exp("fue", exponent[t].copy()))
        alone = _screened_exp("uef", np.moveaxis(exponent[t], 0, -1).copy())
        assert np.array_equal(np.moveaxis(alone, -1, 0), screened[t])
    # an exponent off the f axis is not screened
    assert np.array_equal(_screened_exp("ue", exponent[0, 0].copy()), np.exp(exponent[0, 0]))


def test_jsa_conjugate_leg_off_the_real_axis():
    for t1, t2 in ((0.0, 10.0), (3.0, 13.0)):
        source = make_source(t1=t1, t_ent=t2)
        wa, wb = _complex_points((9, 1), (1, 7), seed=11)
        direct = np.conj(source.jsa(np.conj(wa), np.conj(wb)))
        assert source.preparation_ket(wa, wb) == pytest.approx(direct, rel=1e-13)


def test_gaussian_gamma_from_tau():
    assert gaussian_gamma_from_tau(100.0) == pytest.approx(0.5e-4)
    for tau in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            gaussian_gamma_from_tau(tau)


def test_pulse_amplitude_peak_and_width():
    source = CoherentSource(center=12500.0, tau=80.0, scale=2.0)
    peak = source.amplitude(12500.0)
    assert peak == pytest.approx(2.0 * np.sqrt(np.pi / source.gamma))
    # 1/e point of |A|^2 sits at detuning sqrt(2 gamma) in rad/fs
    detune = np.sqrt(2.0 * source.gamma) / TWO_PI_C
    ratio = np.abs(source.amplitude(12500.0 + detune)) ** 2 / np.abs(peak) ** 2
    assert ratio == pytest.approx(np.exp(-1.0), rel=1e-10)


def test_pump_and_pulse_share_one_gaussian():
    pulse = CoherentSource(center=24600.0, tau=150.0, scale=0.7)
    pump = make_source(tau_pump=150.0, e0=0.7)
    wa, wb = _complex_points((9, 1), (1, 7), seed=7)
    assert np.array_equal(pulse.amplitude(wa + wb), pump.pump_amplitude(wa + wb))


def test_coherent_ket_leg_is_the_conjugate_continuation_of_the_bra_leg():
    # A has real coefficients, so conj(A(conj z)) is A(z) bit for bit
    source = CoherentSource(center=12300.0, tau=60.0, scale=1.5)
    x, y = _complex_points((9, 1), (1, 7), seed=5)
    assert np.all(x.imag != 0.0) and np.all(y.imag != 0.0)
    ket = source.preparation_ket(x, y)
    assert np.array_equal(ket, np.conj(source.preparation_bra(np.conj(x), np.conj(y))))


def test_coherent_source_rejects_non_positive_width():
    for tau in (0.0, -5.0):
        with pytest.raises(ValueError):
            CoherentSource(center=12300.0, tau=tau)


def test_source_validation():
    with pytest.raises(ValueError):
        make_source(tau_pump=0.0)
    with pytest.raises(ValueError):
        make_source(t1=10.0, t2=0.0)
    with pytest.raises(ValueError):
        make_source(alpha=0.0)
    assert make_source(t_ent=25.0).entanglement_time == 25.0


@pytest.mark.parametrize("field", ["omega1", "omega2", "pump_center", "tau_pump", "t1", "t2",
                                   "alpha", "e0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_source_rejects_non_finite_numbers(field, bad):
    with pytest.raises(ValueError, match="finite"):
        make_source(**{field: bad})


def test_scan_block_rejects_a_non_finite_target():
    # one value per target on the fields a scan block moves
    centers = np.array([24400.0, np.nan, 24800.0])
    for fields in ({"pump_center": centers}, {"omega1": 0.5 * centers, "omega2": 0.5 * centers}):
        with pytest.raises(ValueError, match="finite"):
            make_source(**fields)
    make_source(pump_center=np.array([24400.0, 24800.0]))


@pytest.mark.parametrize("fields", [{"center": np.nan}, {"tau": np.nan}, {"tau": np.inf},
                                    {"scale": np.inf}])
def test_coherent_source_rejects_non_finite_numbers(fields):
    with pytest.raises(ValueError, match="finite"):
        CoherentSource(**{"center": 12300.0, "tau": 60.0, **fields})


def test_jsa_conjugate_leg_is_plain_conjugate_on_real_axis():
    source = make_source()
    wa, wb = 12120.0, 12480.0
    assert source.preparation_ket(wa, wb) == pytest.approx(np.conj(source.jsa(wa, wb)))


def test_jsa_symmetric_under_exchange_for_degenerate_delays():
    source = EppSource(12300.0, 12300.0, 24600.0, 120.0, 5.0, 5.0)
    wa, wb = 12260.0, 12350.0
    assert source.jsa(wa, wb) == pytest.approx(source.jsa(wb, wa))


def _four_point(source, w4, w3, w2, w1):
    """<E*(w4) E*(w3) E(w2) E(w1)> from the two preparation legs."""
    return source.preparation_ket(w4, w3) * source.preparation_bra(w2, w1)


def test_four_point_scales_with_alpha_squared_and_e0_squared():
    base = make_source()
    w = (12130.0, 12470.0, 12120.0, 12480.0)
    reference = _four_point(base, *w)
    doubled_alpha = make_source(alpha=2.0)
    assert _four_point(doubled_alpha, *w) == pytest.approx(4.0 * reference)
    doubled_field = make_source(e0=2.0)
    assert _four_point(doubled_field, *w) == pytest.approx(4.0 * reference)


def test_coherent_four_point_scales_as_fourth_power():
    w = (12300.0, 12310.0, 12290.0, 12305.0)
    one = CoherentSource(12300.0, 60.0, scale=1.0)
    two = CoherentSource(12300.0, 60.0, scale=2.0)
    assert _four_point(two, *w) == pytest.approx(16.0 * _four_point(one, *w))


def test_coherent_pairing_matches_four_point_on_real_axis():
    # the pairing of the two legs is the product of the four pulse amplitudes
    source = CoherentSource(12300.0, 60.0)
    w4, w3, w2, w1 = 12310.0, 12280.0, 12330.0, 12295.0
    paired = source.preparation_bra(w4, w3) * source.preparation_ket(w2, w1)
    amplitudes = [source.amplitude(w) for w in (w4, w3, w2, w1)]
    assert paired == pytest.approx(np.prod(amplitudes))


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