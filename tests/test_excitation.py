import functools
import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from excitonscope import (
    AggregateSpec,
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
from excitonscope import excitation
from excitonscope import sources as sources_module
from excitonscope.bath import BathSpec
from excitonscope.config import from_dict
from excitonscope.excitation import PoleTable, pathway_weights
from excitonscope.runner import resolve_source
from excitonscope.sources import MODES, TARGETS, _grid, on_axes
from excitonscope.units import TWO_PI_C

from conftest import dimer_bath, make_dimer, off_modes
from loop_reference import extended_transport_pathways, pole_chains
from test_model_build import POLE_CASES


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
    """Hands the engine every pair factor of the wrapped source at the
    full shape of its pathway grid: a factor on the grid less the mode
    axis unless it carries it, then on all of it, and the excess factors
    on all of it."""

    def __init__(self, source):
        self.source = source

    def pair_factors(self, *arguments):
        factors, excess = self.source.pair_factors(*arguments)
        grid = dict(zip(*_grid([term for terms in arguments for term in terms])))
        unshifted = {c: n for c, n in grid.items() if c != MODES}

        def full(sizes, factor):
            # the factor's own axes first, in their order, then the others
            axes = factor[0] + "".join(c for c in sizes if c not in factor[0])
            return axes, np.broadcast_to(on_axes(axes, factor), tuple(sizes[c] for c in axes))

        return ([full(grid if MODES in f[0] else unshifted, f) for f in factors],
                [full(grid, m) for m in excess])


class RecordingSource:
    """Records the axes and shapes of the factors and of the excess factors
    of each pair call, and its arguments, factors and excess."""

    def __init__(self, source):
        self.source = source
        self.factors = []
        self.excess = []
        self.calls = []

    def pair_factors(self, *arguments):
        factors, excess = self.source.pair_factors(*arguments)
        self.calls.append((arguments, factors, excess))
        self.factors.append([(axes, np.shape(array)) for axes, array in factors])
        self.excess.append([(axes, np.shape(array)) for axes, array in excess])
        return factors, excess


def with_mode_rates(system, rates):
    """``system`` with its one-exciton transport mode rates lambda_p scaled
    by ``rates``: a copy of its transport model whose ``lambdas`` are set
    before their first read, in place of the decomposition's."""
    one = replace(system.transport_one)
    object.__setattr__(one, "lambdas", system.transport_one.lambdas * rates)
    return replace(system, transport_one=one)


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
    z = pole_chains(system)
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
    # the pump is one factor on each leg's unshifted sum, the matching
    # factors lie on the unshifted photon frequencies a leg's group delays
    # reach (the second alone at t1 = 0) and the classical legs on one
    # argument each, and the mode poles enter only the excess factors, so no
    # factor of p2-p5 carries p and p2 and p4 take the exact sum of the
    # transport weights over p.  At t1 = 0 no array spans all of
    # (f, e, u, p); at t1 != 0 (sources[1]) the matching's excess of p2 and
    # p4 does, its Taylor series summed in one matrix product per target,
    # beside p2's pump excess on (f, u, p) and (e, p); p4's pump takes no
    # shift.  p1 and the coherence pathways p3 and p5 have no excess and no
    # factor beyond (f, a, b); only p2 and p4 pass terms on the mode axis
    # alone.  The pairs are recorded as p1, p2, p4, p3, p5.
    sources = engine_sources(trimer_system)
    for source in (sources[0], sources[1], sources[2], sources[3]):
        recorder = RecordingSource(source)
        result = prepare_closed_form(trimer_system, recorder)
        assert len(recorder.factors) == 5 and result.diagnostics["unsplit_pathways"] == []
        assert [any(axes == MODES for terms in arguments for axes, _ in terms)
                for arguments, _, _ in recorder.calls] == [False, True, True, False, False]
        for k, (factors, excess) in enumerate(zip(recorder.factors, recorder.excess)):
            for axes, shape in factors + excess:
                assert len(axes) == len(shape) and all(n > 1 for n in shape)
            assert not any("p" in axes for axes, _ in factors), (source, k)
            spanning = sorted(axes for axes, _ in excess if set("feup") <= set(axes))
            if k == 0 or k > 2:  # p1, p3, p5
                assert not excess and all(set(axes) <= set("fab") for axes, _ in factors)
            elif source is sources[1]:  # p2, p4 at t1 != 0
                assert spanning == ["fuep"], (source, k)
                assert sorted(axes for axes, _ in excess) == (["ep", "fuep", "fup"] if k == 1
                                                              else ["fuep"])
            else:
                assert excess and not spanning, source


def test_pair_sums_at_nonzero_t1_split_off_no_shift(trimer_system):
    # at t1 != 0 the pump and the matching split off the mode poles of p2
    # and p4 alike: no factor carries p, p2's excess lies on (e, p), (f, u,
    # p) and (f, u, e, p), p4's pump takes no shift, so its one excess is
    # the matching's, and the product of the factors and of 1 + m over the
    # excess factors m is the pair taken whole, where it is a normal
    # number, to 1e-15 (1 + E) of it for E = ln(max|pair| / |pair|): a
    # Gaussian rounds its exponent, about -E and down to -600 here, to eps
    # of its size either way.  p1 and the
    # coherence pathways p3 and p5 have no excess and no factor beyond
    # (f, a, b).  The pairs are recorded as p1, p2, p4, p3, p5.
    source = engine_sources(trimer_system)[1]
    recorder = RecordingSource(source)
    prepare_closed_form(trimer_system, recorder)
    excess = [sorted(axes for axes, _ in pair) for pair in recorder.excess]
    assert excess == [[], ["ep", "fuep", "fup"], ["fuep"], [], []]
    for arguments, factors, excess in recorder.calls[1:3]:  # p2, p4
        assert not any("p" in axes for axes, _ in factors)
        product = functools.reduce(np.multiply, [on_axes("fuep", f) for f in factors])
        for axes, m in excess:
            product = product * (1.0 + on_axes("fuep", (axes, m)))
        # the pair taken whole: the mode terms relabelled off p, on q
        whole, none = source.pair_factors(*off_modes(arguments))
        assert not none
        pair = functools.reduce(np.multiply, [on_axes("fueq", f) for f in whole])
        size = np.abs(pair)
        normal = size >= np.finfo(float).tiny
        assert product.shape == pair.shape and normal.any()
        size = size[normal]
        error = np.abs(product - pair)[normal]
        assert np.all(error <= 1e-15 * (1.0 - np.log(size / size.max())) * size)
    for factors in [recorder.factors[0], *recorder.factors[3:]]:  # p1, p3, p5
        for axes, shape in factors:
            assert len(axes) == len(shape) and all(n > 1 for n in shape)
            assert set(axes) <= set("fab"), axes


def _pole_case(name):
    factory, bath_spec = POLE_CASES[name]
    return ExcitonSystem.build(factory(), bath_spec)


@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system", "bundled", "dephased"])
def test_coherence_pathways_take_their_pump_on_f(system_name, request, monkeypatch):
    # p3 and p5 pass their poles as sums of state poles, so the one-exciton
    # ones cancel from each leg's sum frequency: their pump lies on f, or on
    # (t, f) for a block of targets, also with pure dephasing (3.0 in the
    # dephased case), whose constants lie on no axis.  A leg's matching lies
    # on its photon frequencies' axes, (a) on the ket and (b) on the bra at
    # t1 = 0, (f, a) and (f, b) at t1 != 0, and a classical pulse, one per
    # argument, on at most as many: no factor of p3 or p5 spans both a and
    # b.  The pairs are recorded as p1, p2, p4, p3, p5.
    if system_name == "dephased":
        system = _pole_case("dephased")
        assert system.bath.pure_dephasing == 3.0
    else:
        system = request.getfixturevalue(system_name)
    gaussians = []
    original = sources_module._gaussian_factors
    monkeypatch.setattr(sources_module, "_gaussian_factors",
                        lambda *args: gaussians.append(original(*args)) or gaussians[-1])
    sources = engine_sources(system)
    block = scan_source(sources[1], system.eig.energies_f[:3], "degenerate")
    for source in sources + [block]:
        gaussians.clear()
        recorder = RecordingSource(source)
        excitation._prepared_partials(system, recorder, 0.0)
        assert len(recorder.factors) == len(gaussians) == 5
        for k in (3, 4):
            pump, excess = gaussians[k]
            assert not excess and not recorder.excess[k]
            axes = [frozenset(axes) - {TARGETS} for axes, _ in recorder.factors[k]]
            assert not any({"a", "b"} <= own for own in axes), (source, k)
            if isinstance(source, EppSource):
                assert [frozenset(axes) - {TARGETS} for axes, _ in pump] == [{"f"}], (source, k)
                matching = ([{"f", "a"}, {"f", "b"}] if source.t1 else [{"a"}, {"b"}] if source.t2
                            else [set()])
                assert sorted(map(sorted, axes[1:])) == sorted(map(sorted, matching)), (source, k)


# Gaussian cells exponentiated, or screened, per default bundled
# preparation: the pump on (f) of p1, p3 and p5 and on (f, u, e) of p2 and
# p4, 3 * 105 + 2 * 20580.  It was 63315 while p3 and p5 took theirs on
# (f, b, a) and (f, a).
GAUSSIAN_CELLS = 41475


def test_default_preparation_gaussian_cells(bundled, monkeypatch):
    source = resolve_source(from_dict({"scenario": "excite"}), bundled)
    cells = []
    original = sources_module._screened_exp
    monkeypatch.setattr(sources_module, "_screened_exp",
                        lambda axes, exponent: cells.append(exponent.size) or original(axes, exponent))
    prepare_closed_form(bundled, source)
    assert sum(cells) == GAUSSIAN_CELLS


# the trimer with the mode rates and pump durations of both guard cases of
# test_guard_falls_back_to_the_unfactored_pair
GUARD_CASES = {"guard-rates-1e4": (1e4, 2.0e3), "guard-rates-1e5": (1e5, 10.0)}


@pytest.mark.parametrize("case", ["isolated", "dephased", *GUARD_CASES])
def test_coherence_pathways_match_plain_loops_with_residuals(case, trimer_system):
    # p3 and p5 as test_pathways_match_plain_loops checks them, on the dimer
    # with every width floored, so that every floor residual is nonzero and
    # keeps its axes, and with pure dephasing 3.0, with the engine sources;
    # and on the trimer's guard cases with the first engine source
    if case in GUARD_CASES:
        rates, tau_pump = GUARD_CASES[case]
        system = with_mode_rates(trimer_system, rates)
        sources = [replace(engine_sources(system)[0], tau_pump=tau_pump)]
    else:
        system = _pole_case(case)
        sources = engine_sources(system)
    for source in sources:
        partials = prepare_closed_form(system, source).pathway_partials[[2, 4]]
        sums, mags = loop_pathways(system, source)
        sums, mags = sums[[2, 4]], mags[[2, 4]]
        assert mags.max(axis=1).min() > 0.0
        assert np.all(np.abs(partials - sums) <= 1e-12 * mags), source


def test_pole_table_holds_the_chain_poles_and_their_state_pole_form():
    # the table keeps the poles the pathways read and the state-pole form of
    # the coherence pathways; ee and ef are not held
    assert [f.name for f in fields(PoleTable)] == [
        "eg", "fg", "fe", "ff", "modes", "s_f", "s_e", "i_pure", "residuals", "floored_widths"]


@pytest.mark.parametrize("case", sorted(POLE_CASES))
def test_floor_residuals_vanish_where_no_width_is_floored(case):
    # each family's residual is nonzero at its floored widths alone, and the
    # state-pole sums give the chains' poles up to rounding
    system = _pole_case(case)
    poles = pole_chains(system)
    s_f, s_e, pure, residuals = poles.s_f, poles.s_e, poles.i_pure, poles.residuals
    assert list(residuals) == ["eg", "fg", "fe", "ee", "ff"]
    for name, residual in residuals.items():
        assert np.count_nonzero(residual) == poles.floored_widths[name], name
    sums = {
        "eg": s_e + residuals["eg"],
        "fg": s_f + residuals["fg"],
        "fe": s_f[:, None] - s_e.conj() + pure + residuals["fe"],
        "ee": s_e[:, None] - s_e.conj() + pure + residuals["ee"],
        "ef": s_e - s_f[:, None].conj() + pure + residuals["fe"],
        "ff": s_f - s_f.conj() + 2.0 * pure + residuals["ff"],
    }
    scale = 4.0 * np.finfo(float).eps * np.abs(s_f).max()
    for name, total in sums.items():
        assert np.all(np.abs(total - getattr(poles, name)) <= scale), name


def test_guard_falls_back_to_the_unfactored_pair(trimer_system):
    # An excess exponent grows as |kappa| lambda (lambda + 2 gamma) with the
    # mode rates lambda; on the test systems they stay far below the widths
    # gamma, so the pump overflows first.  Mode poles 1e4 times the trimer's
    # (up to 31 cm^-1) and a 2 ps pump pass the bound in p2, so p2's pump
    # comes back whole, one factor on the full grid, while its matching
    # keeps its (e, p) excess, and p4, whose pump takes no shift, and p1,
    # p3 and p5 stay factored.  Mode poles 1e5 times the trimer's change
    # the matching of the bras of p2 and p4 by 2 pi c T2 lambda = 1.2, past
    # what its Taylor series takes, so with a 10 fs pump, which keeps its
    # excess, their matching comes back whole, on (e, p).  p1 is recorded
    # first, then p2, p4, p3 and p5; the run record names the pathways
    # contracted unsplit.
    grid = {"f": trimer_system.n_two, "e": trimer_system.n_one, "u": trimer_system.n_one,
            "p": trimer_system.poles.modes.size}
    ep = {"e": grid["e"], "p": grid["p"]}
    cases = [(1e4, 2.0e3, [[], [grid], [], [], []], [["ep"], ["ep"]], ["p2"]),
             (1e5, 10.0, [[], [ep], [ep], [], []], [["fup", "ep"], []], ["p2", "p4"])]
    for rates, tau_pump, whole, excess, unsplit in cases:
        system = with_mode_rates(trimer_system, rates)
        source = replace(engine_sources(system)[0], tau_pump=tau_pump)
        recorder = RecordingSource(source)
        result = prepare_closed_form(system, recorder)
        direct = result.pathway_partials
        assert result.diagnostics["unsplit_pathways"] == unsplit
        carrying = [[dict(zip(axes, shape)) for axes, shape in factors if "p" in axes]
                    for factors in recorder.factors]
        assert carrying == whole, rates
        assert [[axes for axes, _ in pair] for pair in recorder.excess[1:3]] == excess
        others = [recorder.factors[0], *recorder.factors[3:]]
        assert all(len(axes) < 4 for factors in others for axes, _ in factors)
        broadcast = prepare_closed_form(system, BroadcastingSource(source)).pathway_partials
        scale = np.abs(broadcast).sum(axis=0)
        assert scale.max() > 0.0 and np.all(np.isfinite(direct))
        assert np.all(np.abs(direct - broadcast) <= 1e-13 * scale[None, :])


@pytest.mark.parametrize("index", [0, 1, 3])
def test_engine_reads_a_source_through_pair_factors_alone(trimer_system, index):
    # EppSource at t1 = 0 and t1 = 3, and CoherentSource
    source = engine_sources(trimer_system)[index]

    class PairOnly:
        def __init__(self, source):
            self.pair_factors = source.pair_factors

    wrapped = prepare_closed_form(trimer_system, PairOnly(source)).pathway_partials
    assert np.array_equal(wrapped, prepare_closed_form(trimer_system, source).pathway_partials)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system"])
def test_transport_pathways_match_extended_precision(system_name, request):
    # Sum_p transport[e, u, p] vanishes for u != e, so the terms of p2 and
    # p4 cancel, by up to 8e4 on the trimer; at t1 = 0 each must still hold
    # 1e-15 of its summed term magnitudes and p2 1e-12 of its own size, at
    # t1 = 0 and at t1 != 0 (sources[1]) alike: the pump and the matching
    # split off the mode poles at every group delay
    system = request.getfixturevalue(system_name)
    sources = engine_sources(system)
    for source in (sources[0], sources[2], sources[1]):
        partials = prepare_closed_form(system, source).pathway_partials[[1, 3]]
        exact, mags = extended_transport_pathways(system, source)
        error = np.abs(partials - exact).astype(float)
        assert np.all(error <= 1e-15 * mags.astype(float)), source
        assert np.all(error[0] <= 1e-12 * np.abs(exact[0]).astype(float)), source


@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system", "bundled"])
@pytest.mark.parametrize("t1", [0.0, 3.0])
def test_contraction_order_is_the_greedy_einsum_path(system_name, t1, request, monkeypatch):
    # every order the engine asks for is np.einsum_path's greedy one, which
    # it no longer calls: a preparation and a block of three targets in
    # either scan mode, with the pair delayed from t1, with only its first
    # photon delayed (t1 = -3, t2 = 0) and from the coherent source, and on
    # the trimer with the mode rates of both guard cases, which take pairs
    # whole
    system = request.getfixturevalue(system_name)
    original = excitation._contraction_path
    asked = set()
    monkeypatch.setattr(excitation, "_contraction_path",
                        lambda *key: asked.add(key) or original(*key))
    cases = [(system, dimer_source(system, t1=t1, t2=t1 + 10.0)),
             (system, dimer_source(system, t1=-3.0, t2=0.0))]
    if system_name == "trimer_system":
        for rates, tau_pump in ((1e4, 2.0e3), (1e5, 10.0)):
            guarded = with_mode_rates(system, rates)
            cases.append((guarded, dimer_source(guarded, tau_pump=tau_pump)))
    for each, template in cases:
        unsplit = prepare_closed_form(each, template).diagnostics["unsplit_pathways"]
        assert bool(unsplit) == (each is not system), unsplit
        for mode in ("degenerate", "mediated"):
            block = scan_source(template, each.eig.energies_f[:3], mode)
            excitation._prepared_partials(each, block, 0.0)
    prepare_closed_form(system, CoherentSource(system.eig.energies_f[1] / 2.0, 60.0))
    assert asked
    for inputs, out, shapes in asked:
        operands = [np.broadcast_to(0.0, shape) for shape in shapes]
        greedy = np.einsum_path(",".join(inputs) + "->" + out, *operands, optimize="greedy")
        assert original.__wrapped__(inputs, out, shapes) == greedy[0][1:], (inputs, out, shapes)


# Traced peak of one default bundled preparation: 1.88 MB, 5.7 complex
# (f, e, u) arrays of 329 KB, where it was 2.21 MB while the two legs' pump
# exponents and a Gaussian's excess growth were summed into new arrays, the
# coherence weights were cast before the first pathway and the last
# addition of a labelled sum took numpy's broadcasting buffers.  The bound
# leaves room for less than one more grid, and so for numpy versions whose
# broadcasting buffers (256 KB) differ.
PREPARATION_PEAK_BYTES = 2.2e6


def test_preparation_peak_memory(bundled):
    source = resolve_source(from_dict({"scenario": "excite"}), bundled)
    prepare_closed_form(bundled, source)
    tracemalloc.start()
    try:
        prepare_closed_form(bundled, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PREPARATION_PEAK_BYTES


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
    gate = FilterSpec(12.0, 1.0)
    for _ in range(2):
        coincidence_snapshot(system, rho, gate, gate, grid)
    assert builds == [system]
    assert system.weights is system.weights


def test_scan_pool_starts_with_the_tables_built(monkeypatch):
    # cached_property has no lock from Python 3.12 on, so a table or the
    # transport modes it reads, first touched by two workers, may be built
    # twice; the workers evaluate blocks of targets, one target each under
    # a one-byte budget
    system = ExcitonSystem.build(make_dimer(), dimer_bath())
    seen = []
    original = excitation._prepared_partials

    def recording(system, *args, **kwargs):
        seen.append({"poles", "weights"} <= system.__dict__.keys()
                    and {"lambdas", "chi_right", "chi_left"}
                    <= system.transport_one.__dict__.keys())
        return original(system, *args, **kwargs)

    monkeypatch.setattr(excitation, "BLOCK_BYTES", 1)
    monkeypatch.setattr(excitation, "_prepared_partials", recording)
    scan = scan_targets(system, dimer_source(system), threads=2)
    assert (scan.blocks, scan.workers) == (system.n_two, 2)
    assert len(seen) == system.n_two and all(seen)


@pytest.mark.parametrize("mode", ["degenerate", "mediated"])
@pytest.mark.parametrize("t1", [0.0, 3.0])
def test_block_budget_bounds_every_target_array(trimer_system, mode, t1):
    # the bytes per target of every factor and excess factor a block of
    # targets carries on the target axis stay within ``_target_bytes``
    template = dimer_source(trimer_system, t1=t1, t2=t1 + 10.0)
    recorder = RecordingSource(scan_source(template, trimer_system.eig.energies_f, mode))
    excitation._prepared_partials(trimer_system, recorder, 0.0)
    per_target = [16 * np.prod(shape) // shape[axes.index(TARGETS)]
                  for pair in recorder.factors + recorder.excess
                  for axes, shape in pair if TARGETS in axes]
    assert per_target and max(per_target) <= excitation._target_bytes(trimer_system, template, mode)


def _block_budget(monkeypatch, system, template, mode, per_block):
    """Sets the scan's byte budget so that a block holds ``per_block`` targets."""
    per_target = excitation._target_bytes(system, template, mode)
    monkeypatch.setattr(excitation, "BLOCK_BYTES", per_block * per_target)


@pytest.mark.parametrize("per_block", [1, 2, None], ids=["blocks-of-1", "blocks-of-2", "one-block"])
@pytest.mark.parametrize("system_name, mode, t1", [
    ("bundled", "degenerate", 0.0),
    ("trimer_system", "degenerate", 0.0),
    ("trimer_system", "degenerate", 3.0),
    ("trimer_system", "mediated", 0.0),
    ("trimer_system", "mediated", 3.0),
])
def test_scan_rows_match_single_preparations(system_name, mode, t1, per_block, request,
                                             monkeypatch):
    # every row is bitwise the preparation of its target alone, however the
    # targets are split into blocks; the bundled model at t1 = 0 in
    # degenerate mode is the benchmark's scan, on every 15th target here
    system = request.getfixturevalue(system_name)
    template = dimer_source(system, t1=t1, t2=t1 + 10.0)
    targets = np.arange(0, system.n_two, 15 if system_name == "bundled" else 1)
    per_block = per_block or targets.size
    _block_budget(monkeypatch, system, template, mode, per_block)
    scan = scan_targets(system, template, targets, mode)
    assert scan.blocks == -(-targets.size // per_block)
    for row, target in enumerate(targets):
        energy = system.eig.energies_f[target]
        single = prepare_closed_form(system, scan_source(template, energy, mode))
        assert np.array_equal(scan.populations[row], single.populations), (row, target)


def test_scan_records_the_pathways_contracted_unsplit(trimer_system, bundled, monkeypatch):
    # the default bundled scan takes every pathway split; mode rates 1e5
    # times the trimer's take the bras' phase matching of p2 and p4 past
    # its Taylor series at any target (the second case of
    # test_guard_falls_back_to_the_unfactored_pair), so every split of the
    # targets into blocks records both
    default = resolve_source(from_dict({"scenario": "excite-scan"}), bundled)
    assert scan_targets(bundled, default).unsplit_pathways == []
    system = with_mode_rates(trimer_system, 1e5)
    template = replace(engine_sources(system)[0], tau_pump=10.0)
    for per_block in (1, system.n_two):
        _block_budget(monkeypatch, system, template, "degenerate", per_block)
        scan = scan_targets(system, template)
        assert scan.blocks == -(-system.n_two // per_block)
        assert scan.unsplit_pathways == ["p2", "p4"]


def make_h_dimer() -> AggregateSpec:
    """Equal sites with a positive coupling and parallel dipoles: the lower
    one-exciton state, the antisymmetric one, is dark."""
    return AggregateSpec(
        site_energies=(12300.0, 12300.0),
        couplings=((0.0, 80.0), (80.0, 0.0)),
        onsite_anharmonicity=(-250.0, -230.0),
        pair_anharmonicity=((0.0, -120.0), (-120.0, 0.0)),
        site_dipoles=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        bath_coupling_weights=(1.0, 1.0),
        label="h-dimer",
    )


@pytest.mark.parametrize("system_name", ["dimer_system", "trimer_system", "h_dimer", "bundled"])
def test_pump_screen_keeps_every_raw_bit(system_name, request, monkeypatch):
    # the screen of the pump Gaussians (sources._SCREEN_MARGIN) against no
    # screen: the engine sources, a 20 fs and a 1000 fs pump, a block of
    # three targets and, on the trimer, the mode rates of both guard cases,
    # which take pairs whole.  Raw, and so the populations, its clipped
    # values, keep every bit, and the partials all but 1e-60 of their
    # largest magnitude.
    if system_name == "h_dimer":
        system = ExcitonSystem.build(make_h_dimer(), dimer_bath(), (1.0, 1.0, 1.0))
        assert np.abs(system.d_eg).min() < 1e-12 * np.abs(system.d_eg).max()
    else:
        system = request.getfixturevalue(system_name)
    sources = engine_sources(system)
    cases = [(system, source) for source in sources]
    cases += [(system, replace(sources[0], tau_pump=tau)) for tau in (20.0, 1000.0)]
    cases.append((system, scan_source(sources[0], system.eig.energies_f[:3], "degenerate")))
    if system_name == "trimer_system":
        for rates, tau_pump in ((1e4, 2.0e3), (1e5, 10.0)):
            guarded = with_mode_rates(system, rates)
            cases.append((guarded, replace(engine_sources(guarded)[0], tau_pump=tau_pump)))
    original, dropped = sources_module._screened_exp, []

    def counting(axes, exponent):
        # the cells the screen sets to zero that exp does not
        full = np.exp(exponent)
        factor = original(axes, exponent)
        dropped.append(np.count_nonzero((factor == 0.0) & (full != 0.0)))
        return factor

    monkeypatch.setattr(sources_module, "_screened_exp", counting)
    screened = [excitation._prepared_partials(each, source, 0.0)[0] for each, source in cases]
    assert sum(dropped) > 0
    monkeypatch.setattr(sources_module, "_screened_exp", original)
    monkeypatch.setattr(sources_module, "_SCREEN_MARGIN", np.inf)
    for (each, source), partials in zip(cases, screened):
        plain = excitation._prepared_partials(each, source, 0.0)[0]
        for row, reference in zip(partials, plain):
            assert np.array_equal(excitation._raw(row), excitation._raw(reference)), source
        assert np.all(np.abs(partials - plain) <= 1e-60 * np.abs(plain).max()), source


def test_p3_equals_p5_without_pure_dephasing(bundled):
    # with no pure dephasing and no width floored beyond the stationary mode
    # the legs of p3 and p5 sum to the same state poles, s_f - s_a and
    # conj(s_f) - conj(s_b); measured: bitwise at t1 = 0, within 2.2e-16 of
    # the largest partial at (t1, t2) = (3, 13) and 7.4e-18 for the coherent source
    assert bundled.bath.pure_dephasing == 0.0 and not bundled.poles.regularized
    config = from_dict({"scenario": "excite"})
    default = resolve_source(config, bundled)
    coherent = resolve_source(replace(config, source=replace(config.source, mode="coherent")),
                              bundled)
    detuned = replace(default, pump_center=default.pump_center + 37.0)
    delayed = replace(default, t1=3.0, t2=13.0)
    for source, rtol in ((default, 0.0), (detuned, 0.0), (delayed, 1e-15), (coherent, 1e-15)):
        partials = prepare_closed_form(bundled, source).pathway_partials
        assert np.abs(partials[2] - partials[4]).max() <= rtol * np.abs(partials).max(), source
    # pure dephasing enters the two pathways' legs differently
    dephased = ExcitonSystem.build(bundled.aggregate, replace(bundled.bath, pure_dephasing=3.0))
    partials = prepare_closed_form(dephased, default).pathway_partials
    assert np.abs(partials[2] - partials[4]).max() > 1e-2 * np.abs(partials).max()


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


def test_populations_decay_at_depopulation_rate(dimer_system):
    source = dimer_source(dimer_system)
    early = prepare_closed_form(dimer_system, source, t_fs=0.0)
    late = prepare_closed_form(dimer_system, source, t_fs=200.0)
    expected = np.exp(-dimer_system.transport_two.depopulation * TWO_PI_C * 200.0)
    assert late.raw == pytest.approx(early.raw * expected, rel=1e-12)


def test_negative_evaluation_time_rejected(dimer_system):
    for t_fs in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="non-negative"):
            prepare_closed_form(dimer_system, dimer_source(dimer_system), t_fs=t_fs)


def test_zero_projected_dipoles_give_zero():
    spec = replace(make_dimer(), site_dipoles=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
    system = ExcitonSystem.build(spec, dimer_bath(), polarization=(1.0, 0.0, 0.0))
    result = prepare_closed_form(system, dimer_source(system))
    assert np.all(result.raw == 0.0)
    assert np.all(result.populations == 0.0)


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


def test_scan_threading_is_bitwise_stable(dimer_system, monkeypatch):
    # at every split of the three targets into blocks
    template = dimer_source(dimer_system)
    for per_block in (1, 2, 3):
        _block_budget(monkeypatch, dimer_system, template, "degenerate", per_block)
        serial = scan_targets(dimer_system, template, threads=1)
        pooled = scan_targets(dimer_system, template, threads=3)
        assert serial.blocks == pooled.blocks == -(-dimer_system.n_two // per_block)
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