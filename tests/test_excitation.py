import itertools
from dataclasses import replace

import numpy as np
import pytest

from excitonscope import (
    CoherentSource,
    EppSource,
    ExcitonSystem,
    FilterSpec,
    SignalGrid,
    coincidence_snapshot,
    prepare_closed_form,
    scan_source,
    scan_targets,
)
from excitonscope.bath import BathSpec
from excitonscope.excitation import PoleTable, pathway_weights
from excitonscope.sources import _grid, on_axes
from excitonscope.units import TWO_PI_C

from conftest import dimer_bath, make_dimer
from loop_reference import extended_transport_pathways


def dimer_source(system, **kw):
    ee = system.eig.energies_e
    ef = system.eig.energies_f
    defaults = dict(
        omega1=ee[0], omega2=ee[1], pump_center=ef[1],
        tau_pump=120.0, t1=0.0, t2=20.0,
    )
    defaults.update(kw)
    return EppSource(**defaults)


class BroadcastingSource:
    """Hands the engine every leg and every pair factor of the wrapped
    source at the full shape of its pathway grid: the factors on the grid
    less the shift's axes where none of them has those, the excess
    factors on all of it."""

    def __init__(self, source):
        self.source = source

    def preparation_ket(self, x, y):
        return self.source.preparation_ket(*np.broadcast_arrays(x, y))

    def preparation_bra(self, x, y):
        return self.source.preparation_bra(*np.broadcast_arrays(x, y))

    def pair_factors(self, *arguments, shift=None):
        factors, excess = self.source.pair_factors(*arguments, shift=shift)
        grid = dict(zip(*_grid([term for terms in arguments for term in terms])))
        unshifted = {c: n for c, n in grid.items()
                     if not shift or c not in shift or any(shift in axes for axes, _ in factors)}

        def full(sizes, factor):
            # the factor's own axes first, in their order, then the others
            axes = factor[0] + "".join(c for c in sizes if c not in factor[0])
            return axes, np.broadcast_to(on_axes(axes, factor), tuple(sizes[c] for c in axes))

        return [full(unshifted, f) for f in factors], [full(grid, m) for m in excess]


class RecordingSource:
    """Records the axes and shapes of the factors and of the excess factors
    of each pair call."""

    def __init__(self, source):
        self.source = source
        self.factors = []
        self.excess = []

    def preparation_ket(self, x, y):
        return self.source.preparation_ket(x, y)

    def preparation_bra(self, x, y):
        return self.source.preparation_bra(x, y)

    def pair_factors(self, *arguments, shift=None):
        factors, excess = self.source.pair_factors(*arguments, shift=shift)
        self.factors.append([(axes, np.shape(array)) for axes, array in factors])
        self.excess.append([(axes, np.shape(array)) for axes, array in excess])
        return factors, excess


def engine_sources(system):
    ee, ef = system.eig.energies_e, system.eig.energies_f
    return [
        EppSource(ee[0], ee[1], ef[1], 120.0, 0.0, 20.0),
        EppSource(ee[0], ee[-1], ef[-1], 80.0, 3.0, 13.0),
        scan_source(EppSource(ee[0], ee[1], ef[1], 120.0, 0.0, 20.0), ef[-1], "degenerate"),
        CoherentSource(ef[1] / 2.0, 60.0),
        EppSource(ee[0], ee[1], ef[1], 120.0, 0.0, 0.0),
    ]


def loop_pathways(system, source):
    """The five pathway sums at t = 0 as plain loops over the pole chains,
    with the summed term magnitudes of each as the rounding scale."""
    z = PoleTable.from_system(system)
    wk, wt, wc = pathway_weights(system)
    ket, bra = source.preparation_ket, source.preparation_bra
    n_f, n_e = z.fe.shape
    sums = np.zeros((5, n_f), dtype=complex)
    mags = np.zeros((5, n_f))
    for f in range(n_f):
        kets = [wk[f, e] * ket(z.fg[f] - z.eg[e], z.eg[e]) for e in range(n_e)]
        bras = [wk[f, e] * bra(z.fe[f, e] - z.ff[f], z.fg[f] - z.fe[f, e]) for e in range(n_e)]
        sums[0, f] = sum(kets) * sum(bras)
        mags[0, f] = sum(map(abs, kets)) * sum(map(abs, bras))
        for e, u, p in itertools.product(range(n_e), range(n_e), range(z.modes.size)):
            zp, a3 = z.modes[p], z.eg[e] - z.modes[p]
            terms = (ket(z.fe[f, u] - zp, z.eg[e]) * bra(z.fe[f, u] - z.ff[f], a3),
                     ket(z.ff[f] - z.ef[f, u], z.eg[e]) * bra(zp - z.ef[f, u], a3))
            for k, term in zip((1, 3), terms):
                sums[k, f] += wt[f, e, u, p] * term
                mags[k, f] += abs(wt[f, e, u, p] * term)
        for a, b in itertools.permutations(range(n_e), 2):
            a3 = z.eg[a] - z.ee[a, b]
            terms = (ket(z.fe[f, b] - z.ee[a, b], z.eg[a]) * bra(z.fe[f, b] - z.ff[f], a3),
                     ket(z.ff[f] - z.ef[f, a], z.eg[a]) * bra(z.ee[a, b] - z.ef[f, a], a3))
            for k, term in zip((2, 4), terms):
                sums[k, f] += wc[f, a, b] * term
                mags[k, f] += abs(wc[f, a, b] * term)
    return sums, mags


@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system"])
def test_pathways_match_plain_loops(system_name, request):
    system = request.getfixturevalue(system_name)
    for source in engine_sources(system):
        partials = prepare_closed_form(system, source).pathway_partials
        sums, mags = loop_pathways(system, source)
        assert mags.max(axis=1).min() > 0.0
        assert np.all(np.abs(partials - sums) <= 1e-12 * mags), source


@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system"])
def test_lower_rank_arguments_match_broadcast_evaluation(system_name, request):
    system = request.getfixturevalue(system_name)
    for source in engine_sources(system):
        direct = prepare_closed_form(system, source, t_fs=40.0).pathway_partials
        broadcast = prepare_closed_form(system, BroadcastingSource(source), t_fs=40.0).pathway_partials
        scale = np.abs(broadcast).sum(axis=0)
        assert np.all(scale > 0.0)
        assert np.all(np.abs(direct - broadcast) <= 1e-13 * scale[None, :]), source


def test_pair_sums_have_the_rank_of_their_poles(trimer_system):
    # at t1 = 0 the pump is one factor on each leg's unshifted sum, the
    # matching factors depend on the second arguments alone and the
    # classical legs on one argument each, and the mode poles enter only
    # the excess factors, so no factor of p2-p5 spans all of (f, e, u, p)
    # and p2 and p4 take the exact sum of the transport weights over p
    sources = engine_sources(trimer_system)
    for source in (sources[0], sources[2], sources[3]):
        recorder = RecordingSource(source)
        prepare_closed_form(trimer_system, recorder)
        assert len(recorder.factors) == 4
        for k, (factors, excess) in enumerate(zip(recorder.factors, recorder.excess)):
            for axes, shape in factors + excess:
                assert len(axes) == len(shape) and all(n > 1 for n in shape)
                assert not set("feup") <= set(axes), (source, axes)
            if k < 2:  # p2, p4
                assert excess and not any("p" in axes for axes, _ in factors), source
            else:
                assert not excess


def test_pair_sums_at_nonzero_t1_split_off_no_shift(trimer_system):
    # at t1 != 0 the matching factor depends on the whole sum frequency, so
    # no pathway splits off its mode poles: p2-p5 have no excess, and the
    # coherence pathways p3 and p5 still have no factor beyond (f, a, b)
    recorder = RecordingSource(engine_sources(trimer_system)[1])
    prepare_closed_form(trimer_system, recorder)
    assert len(recorder.factors) == 4 and not any(recorder.excess)
    for factors in recorder.factors[2:]:  # p3, p5
        for axes, shape in factors:
            assert len(axes) == len(shape) and all(n > 1 for n in shape)
            assert set(axes) <= set("fab"), axes


def test_guard_falls_back_to_the_unfactored_pair(trimer_system):
    # An excess exponent grows as |kappa| lambda (lambda + 2 gamma) with the
    # mode rates lambda; on the test systems they stay far below the widths
    # gamma, so the pump overflows first.  Mode poles 1e4 times the trimer's
    # (up to 31 cm^-1) and a 2 ps pump pass the bound in p2, so p2 comes
    # back unsplit, with its pump one factor on the full grid and no
    # excess, while p4, whose pump takes no shift, and p3 and p5 stay
    # factored.
    one = trimer_system.transport_one
    system = replace(trimer_system, transport_one=replace(one, lambdas=one.lambdas * 1e4))
    source = replace(engine_sources(system)[0], tau_pump=2.0e3)
    recorder = RecordingSource(source)
    direct = prepare_closed_form(system, recorder).pathway_partials
    grid = dict(zip("feup", (system.n_two, system.n_one, system.n_one, system.poles.modes.size)))
    spanning = [dict(zip(axes, shape)) for axes, shape in recorder.factors[0] if len(axes) == 4]
    assert spanning == [grid] and not recorder.excess[0]
    assert recorder.excess[1]
    assert all(len(axes) < 4 for factors in recorder.factors[1:] for axes, _ in factors)
    broadcast = prepare_closed_form(system, BroadcastingSource(source)).pathway_partials
    scale = np.abs(broadcast).sum(axis=0)
    assert scale.max() > 0.0 and np.all(np.isfinite(direct))
    assert np.all(np.abs(direct - broadcast) <= 1e-13 * scale[None, :])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system"])
def test_transport_pathways_match_extended_precision(system_name, request):
    # Sum_p transport[e, u, p] vanishes for u != e, so the terms of p2 and
    # p4 cancel, by up to 8e4 on the trimer; each must still hold 1e-15 of
    # its summed term magnitudes and p2 1e-12 of its own size
    system = request.getfixturevalue(system_name)
    sources = engine_sources(system)
    for source in (sources[0], sources[2]):
        partials = prepare_closed_form(system, source).pathway_partials[[1, 3]]
        exact, mags = extended_transport_pathways(system, source)
        error = np.abs(partials - exact).astype(float)
        assert np.all(error <= 1e-15 * mags.astype(float)), source
        assert np.all(error[0] <= 1e-12 * np.abs(exact[0]).astype(float)), source


def test_diagnostics_report_pathway_cancellation(trimer_system):
    for source in engine_sources(trimer_system):
        result = prepare_closed_form(trimer_system, source, t_fs=40.0)
        partials = result.pathway_partials
        sums = result.diagnostics["pathway_abs_sums"]
        assert list(sums) == ["p1", "p2", "p3", "p4", "p5"]
        assert list(sums.values()) == pytest.approx(np.abs(partials).sum(axis=1), rel=1e-14)
        ratio = result.diagnostics["cancellation_ratio"]
        assert ratio == pytest.approx(
            np.abs(partials.sum(axis=0)).sum() / np.abs(partials).sum(), rel=1e-14)
        assert 0.0 < ratio <= 1.0


def test_tables_are_built_once_per_system(monkeypatch):
    builds = []
    original = PoleTable.from_system.__func__

    def counted(cls, system):
        builds.append(system)
        return original(cls, system)

    monkeypatch.setattr(PoleTable, "from_system", classmethod(counted))
    system = ExcitonSystem.build(make_dimer(), dimer_bath())
    source = dimer_source(system)
    scan_targets(system, source, threads=2)
    rho = prepare_closed_form(system, source).populations
    grid = SignalGrid(np.linspace(11400.0, 13100.0, 8), np.linspace(12000.0, 12600.0, 8), 10.0, 20.0)
    gate = FilterSpec(0.0, 12.0, 0.0, 1.0)
    for _ in range(2):
        coincidence_snapshot(system, rho, gate, gate, grid)
    assert builds == [system]
    assert system.weights is system.weights


def test_scan_rows_match_single_preparations(trimer_system):
    template = dimer_source(trimer_system, t1=3.0, t2=13.0)
    scan = scan_targets(trimer_system, template, mode="mediated")
    for row, energy in enumerate(trimer_system.eig.energies_f):
        single = prepare_closed_form(trimer_system, scan_source(template, energy, "mediated"))
        assert np.array_equal(scan.populations[row], single.populations)


def test_field_strength_enters_quadratically(dimer_system):
    base = dimer_source(dimer_system)
    reference = prepare_closed_form(dimer_system, base).raw
    for scaled in (replace(base, alpha=2.0), replace(base, e0=2.0)):
        result = prepare_closed_form(dimer_system, scaled)
        assert result.raw == pytest.approx(4.0 * reference, rel=1e-12)


def test_pathway_partials_sum_to_raw(dimer_system):
    result = prepare_closed_form(dimer_system, dimer_source(dimer_system), t_fs=40.0)
    assert result.pathway_partials.shape == (5, dimer_system.n_two)
    rebuilt = 2.0 * result.pathway_partials.sum(axis=0).real
    assert rebuilt == pytest.approx(result.raw, rel=0, abs=1e-300)
    assert result.populations == pytest.approx(np.clip(result.raw, 0.0, None))
    assert result.method == "closed-form"


def test_populations_decay_at_depopulation_rate(dimer_system):
    source = dimer_source(dimer_system)
    early = prepare_closed_form(dimer_system, source, t_fs=0.0)
    late = prepare_closed_form(dimer_system, source, t_fs=200.0)
    expected = np.exp(-dimer_system.transport_two.depopulation * TWO_PI_C * 200.0)
    assert late.raw == pytest.approx(early.raw * expected, rel=1e-12)


def test_negative_evaluation_time_rejected(dimer_system):
    with pytest.raises(ValueError, match="non-negative"):
        prepare_closed_form(dimer_system, dimer_source(dimer_system), t_fs=-1.0)


def test_zero_projected_dipoles_give_zero():
    spec = replace(make_dimer(), site_dipoles=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
    system = ExcitonSystem.build(spec, dimer_bath(), polarization=(1.0, 0.0, 0.0))
    result = prepare_closed_form(system, dimer_source(system))
    assert np.all(result.raw == 0.0)
    assert result.normalized() == pytest.approx(np.zeros(system.n_two))


def test_scan_source_modes(dimer_system):
    template = dimer_source(dimer_system)
    target = dimer_system.eig.energies_f[2]

    degenerate = scan_source(template, target, "degenerate")
    assert degenerate.omega1 == degenerate.omega2 == pytest.approx(0.5 * target)
    assert degenerate.pump_center == pytest.approx(target)
    assert degenerate.tau_pump == template.tau_pump

    mediated = scan_source(template, target, "mediated")
    assert mediated.omega1 == template.omega1
    assert mediated.omega2 == template.omega2
    assert mediated.pump_center == pytest.approx(target)

    with pytest.raises(ValueError, match="scan mode"):
        scan_source(template, target, "sideways")


def test_scan_rows_are_max_normalized(dimer_system):
    result = scan_targets(dimer_system, dimer_source(dimer_system))
    assert result.matrix.shape == (dimer_system.n_two, dimer_system.n_two)
    assert result.matrix.max(axis=1) == pytest.approx(np.ones(dimer_system.n_two))
    assert np.all(result.populations >= 0.0)
    assert np.all((result.selectivity >= 0.0) & (result.selectivity <= 1.0))
    assert result.target_energies == pytest.approx(dimer_system.eig.energies_f)
    assert result.mode == "degenerate"


def test_scan_selectivity_is_scale_invariant(dimer_system):
    template = dimer_source(dimer_system)
    one = scan_targets(dimer_system, template)
    two = scan_targets(dimer_system, replace(template, alpha=3.0))
    assert two.selectivity == pytest.approx(one.selectivity, rel=1e-12)
    assert two.matrix == pytest.approx(one.matrix, rel=1e-12)


def test_scan_threading_is_bitwise_stable(dimer_system):
    template = dimer_source(dimer_system)
    serial = scan_targets(dimer_system, template, threads=1)
    pooled = scan_targets(dimer_system, template, threads=3)
    assert np.array_equal(serial.populations, pooled.populations)
    assert np.array_equal(serial.matrix, pooled.matrix)
    assert np.array_equal(serial.selectivity, pooled.selectivity)


def test_scan_target_bounds(dimer_system):
    template = dimer_source(dimer_system)
    with pytest.raises(ValueError, match="two-exciton"):
        scan_targets(dimer_system, template, targets=[0, dimer_system.n_two])
    with pytest.raises(ValueError, match="at least one"):
        scan_targets(dimer_system, template, targets=[])
    subset = scan_targets(dimer_system, template, targets=[2, 0], mode="mediated")
    assert subset.matrix.shape == (2, dimer_system.n_two)
    assert list(subset.targets) == [2, 0]
    assert subset.mode == "mediated"