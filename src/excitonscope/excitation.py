"""Prepared two-exciton populations after a single photon-pair pulse.

The fourth-order response that fills the two-exciton manifold splits into
five interfering pathways once populations decouple from coherences: a
fully coherent ladder through the two-exciton/ground coherence, two
pathways whose middle interval is a one-exciton population routed through
the transport eigenmodes, and two whose middle interval is a one-exciton
coherence.  Each pathway is a chain of four interval resolvents; closing
the frequency integrals at the resolvent poles collapses the chain onto
the source four-point correlation evaluated at complex pole-difference
arguments, which is the closed form implemented here.  The test suite
checks it against a brute-force real-frequency quadrature of the same
integrand (``tests/quadrature_oracle.py``).

Pole convention: a coherence between states a and b oscillating at
w_ab = E_a - E_b with width gamma_ab contributes 1/(w - zeta) with
zeta = w_ab - i*gamma_ab in the lower half plane.  The ket legs of the
source (see ``sources``) enter through their conjugate-phase continuation
so that every contour closure lands on its own pole; this is the globally
conjugated description of the same real signal as the plain correlator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from . import units
from .aggregate import AggregateSpec
from .bath import BathSpec, TransportModel, build_transport_matrix
from .excitons import ExcitonEigensystem, TransitionDipoles, compute_transition_dipoles
from .sources import (_TAYLOR_MAX_ORDERS, MODES, TARGETS, EppSource, _cells, _grid,
                      _per_target, _union, on_axes)

DEFAULT_POLARIZATION = (1.0, 1.0, 1.0)
# Widths below the trigger are raised to the floor value (cm^-1), so every
# resolvent denominator keeps a strictly positive width.
WIDTH_FLOOR_TRIGGER = 1e-8
WIDTH_FLOOR_VALUE = 1e-3
# Floored widths of every model: the stationary transport mode, lambda = 0,
# whose floor is a fixed part of the closed form, not a regularization.
STATIONARY_FLOORS = {"modes": 1}
# Bytes the largest target-carrying array of one block of scan targets may
# take (``scan_targets``).  At 8 MiB a block of the bundled model holds 25
# targets, one in degenerate mode at t1 != 0 (its matching excess spans p).
BLOCK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class ExcitonSystem:
    """Aggregate eigensystem bundled with bath transport and projected dipoles.

    ``d_eg`` and ``d_fe`` are the signed scalar transition amplitudes along
    the fixed detection polarization; every signal formula consumes these
    rather than the Cartesian vectors.
    """

    aggregate: AggregateSpec
    bath: BathSpec
    eig: ExcitonEigensystem
    dipoles: TransitionDipoles
    d_eg: np.ndarray
    d_fe: np.ndarray
    transport_one: TransportModel
    transport_two: TransportModel

    @classmethod
    def build(
        cls,
        aggregate: AggregateSpec,
        bath: BathSpec,
        polarization=DEFAULT_POLARIZATION,
    ) -> "ExcitonSystem":
        eig = ExcitonEigensystem.from_spec(aggregate)
        dipoles = compute_transition_dipoles(eig, aggregate)
        d_eg, d_fe = dipoles.project(np.asarray(polarization, dtype=float))
        return cls(
            aggregate=aggregate,
            bath=bath,
            eig=eig,
            dipoles=dipoles,
            d_eg=d_eg,
            d_fe=d_fe,
            transport_one=build_transport_matrix(eig, aggregate, bath, "one"),
            transport_two=build_transport_matrix(eig, aggregate, bath, "two"),
        )

    @property
    def n_one(self) -> int:
        return self.eig.n_one

    @property
    def n_two(self) -> int:
        return self.eig.n_two

    # Nothing mutates the three tables below, so every preparation and every
    # detection map of a system, in any thread, shares one build of each.
    @cached_property
    def poles(self) -> "PoleTable":
        """The resolvent pole table of this system."""
        return PoleTable.from_system(self)

    @cached_property
    def weights(self) -> "PathwayWeights":
        """The factored dipole weights of the five preparation pathways."""
        return PathwayWeights.from_system(self)

    @cached_property
    def detection_tables(self) -> tuple:
        """Emission gaps, floored coherence widths and squared dipole norms
        of the coincidence maps: (w_fe, gamma_fe, w_eg, gamma_eg, |d_fe|^2,
        |d_eg|^2).

        Detection is unpolarized, so the vertex weights are the squared
        Cartesian norms rather than the projected amplitudes used on the
        excitation side.
        """
        poles = self.poles
        dm_eg, dm_fe = self.dipoles.magnitudes()
        return (
            poles.fe.real, -poles.fe.imag,
            poles.eg.real, -poles.eg.imag,
            dm_fe**2, dm_eg**2,
        )


@dataclass(frozen=True)
class PoleTable:
    """Complex resolvent poles zeta = w_ab - i gamma_ab for every coherence family.

    ``eg``/``fg``/``fe`` follow the (bra-state inside ket-state) labelling
    of the pathway chains, ``ff`` holds the two-exciton population poles
    -i Gamma_f and ``modes`` the one-exciton transport eigenpoles
    -i lambda_p.  A coherence width is gamma_ab = (Gamma_a + Gamma_b)/2 plus
    the bath's pure dephasing, with Gamma = 0 for the ground state.  The
    mirrored family ef, which shares the widths of fe, is -conj(fe).  Every
    width below ``WIDTH_FLOOR_TRIGGER`` is raised to ``WIDTH_FLOOR_VALUE``;
    ``floored_widths`` counts them per family, the one-exciton coherences
    ee among them, and ``regularized`` says whether any width beyond
    ``STATIONARY_FLOORS`` was floored.

    The same poles but the modes are also held as sums of state poles: the
    state poles ``s_f`` = E_f - i (Gamma_f / 2 + pure) and ``s_e`` likewise,
    the pure dephasing constant ``i_pure`` and, per family, its floor
    ``residuals``: -i times its floored widths less its widths, exactly 0.0
    wherever no width is floored.  Then eg[a] = s_a + r_eg[a],
    fg[f] = s_f + r_fg[f], fe[f, b] = s_f - conj(s_b) + i pure + r_fe[f, b],
    ee[a, b] = s_a - conj(s_b) + i pure + r_ee[a, b],
    ef[f, a] = s_a - conj(s_f) + i pure + r_fe[f, a] and
    ff[f] = s_f - conj(s_f) + 2 i pure + r_ff[f], each up to rounding.
    """

    eg: np.ndarray
    fg: np.ndarray
    fe: np.ndarray
    ff: np.ndarray
    modes: np.ndarray
    s_f: np.ndarray
    s_e: np.ndarray
    i_pure: complex
    residuals: dict
    floored_widths: dict

    @classmethod
    def from_system(cls, system: ExcitonSystem) -> "PoleTable":
        widths = _widths(system)
        g = {name: _floored(w) for name, w in widths.items()}
        lambdas = system.transport_one.lambdas
        eig = system.eig
        return cls(
            eg=eig.energies_e - 1j * g["eg"],
            fg=eig.energies_f - 1j * g["fg"],
            fe=eig.omega_fe() - 1j * g["fe"],
            ff=-1j * g["ff"],
            modes=-1j * _floored(lambdas),
            s_f=eig.energies_f - 1j * widths["fg"],
            s_e=eig.energies_e - 1j * widths["eg"],
            i_pure=1j * system.bath.pure_dephasing,
            residuals={name: -1j * (g[name] - w) for name, w in widths.items()},
            floored_widths={name: int(np.count_nonzero(w < WIDTH_FLOOR_TRIGGER))
                            for name, w in {**widths, "modes": lambdas}.items()},
        )

    @property
    def floored_families(self) -> list:
        """The families with more floored widths than ``STATIONARY_FLOORS``."""
        return [name for name, count in self.floored_widths.items()
                if count > STATIONARY_FLOORS.get(name, 0)]

    @property
    def regularized(self) -> bool:
        return bool(self.floored_families)

    @property
    def gamma_ff(self) -> np.ndarray:
        """Floored two-exciton depopulation widths (cm^-1)."""
        return -self.ff.imag


def _widths(system: ExcitonSystem) -> dict:
    """The widths of every pole family but the modes, before the floor."""
    g1 = system.transport_one.depopulation
    g2 = system.transport_two.depopulation
    pure = system.bath.pure_dephasing
    return {
        "eg": 0.5 * g1 + pure,
        "fg": 0.5 * g2 + pure,
        "fe": 0.5 * (g2[:, None] + g1[None, :]) + pure,
        "ee": 0.5 * (g1[:, None] + g1[None, :]) + pure,
        "ff": g2,
    }


def _floored(width):
    """Widths below ``WIDTH_FLOOR_TRIGGER`` raised to ``WIDTH_FLOOR_VALUE``."""
    return np.where(width < WIDTH_FLOOR_TRIGGER, WIDTH_FLOOR_VALUE, width)


@dataclass
class PreparationResult:
    """Two-exciton distribution prepared by one pulse, with pathway breakdown.

    ``pathway_partials`` holds the five complex partial sums per f state,
    including the overall population-decay prefactor, so that
    ``raw == 2 Re(sum of partials)`` holds exactly; ``populations`` is the
    clipped non-negative distribution.  The closed form's ``diagnostics``
    give each pathway's sum over f of |partial| (``pathway_abs_sums``) and
    the ``cancellation_ratio`` sum_f |sum of partials| / sum |partials|:
    near 1 the pathways add, near 0 they cancel and the rounding error of
    ``raw`` grows by its inverse.  ``diagnostics["unsplit_pathways"]``
    names the pathways whose pair a guard of ``sources`` took whole with the
    mode poles in it.
    """

    populations: np.ndarray
    raw: np.ndarray
    pathway_partials: np.ndarray
    regularized: bool
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PathwayWeights:
    """Dipole weights of the pathways, factored by the axes they vary on.

    ``coherent[f, e] = d_eg[e] d_fe[f, e]`` feeds the fully coherent
    pathway.  The transport pathways weigh (f, e, u, p) by
    ``fe_squared[f, u] * transport[e, u, p]``, with ``fe_squared = d_fe^2``
    and ``transport`` the eigen-sum d_eg[e]^2 chi_R[u, p] chi_L[p, e]
    between the bra index e and the ket index u (the symmetrized modes
    are normalized, chi_L chi_R = 1), and
    ``transport_sum[e, u]`` its sum over p, exact before one rounding
    (d_eg[e]^2 delta_eu up to the rounding of the modes).
    ``coherence[f, e, e']`` is the off-diagonal dipole chain.
    """

    coherent: np.ndarray
    fe_squared: np.ndarray
    transport: np.ndarray
    transport_sum: np.ndarray
    coherence: np.ndarray

    @classmethod
    def from_system(cls, system: ExcitonSystem) -> "PathwayWeights":
        d1 = system.d_eg
        d2 = system.d_fe
        one = system.transport_one
        wk = d1[None, :] * d2
        transport = np.einsum("e,up,pe->eup", d1 * d1, one.chi_right, one.chi_left,
                              optimize=True)
        off = ~np.eye(system.n_one, dtype=bool)
        return cls(
            coherent=wk,
            fe_squared=d2 * d2,
            transport=transport,
            transport_sum=np.array([[math.fsum(terms) for terms in row]
                                    for row in transport.tolist()]),
            coherence=wk[:, :, None] * wk[:, None, :] * off[None, :, :],
        )


def pathway_weights(system: ExcitonSystem):
    """Dipole weight tensors in the expanded form the quadrature oracle uses.

    Returns (wk, w_transport, w_coherence): ``wk`` and ``w_coherence`` as in
    :class:`PathwayWeights`, and the 4-D
    ``w_transport[f, e, u, p] = fe_squared[f, u] transport[e, u, p]``.
    """
    w = system.weights
    w_transport = w.fe_squared[:, None, :, None] * w.transport[None, :, :, :]
    return w.coherent, w_transport, w.coherence


def _contract(operands):
    """sum over every axis but f and the target axis of the product of
    labelled arrays, as (N_t, N_f), N_t = 1 where no operand has targets.

    The operands on the mode axis are summed over it first, so the order
    of that sum, which the cancellation over the transport modes makes
    visible, does not depend on the other operands.
    """
    inner = [op for op in operands if MODES in op[0]]
    if inner:
        operands = [op for op in operands if MODES not in op[0]]
        kept = set("".join(axes for axes, _ in operands) + "f") - {TARGETS}
        axes = "".join(dict.fromkeys(c for own, _ in inner for c in own if c in kept))
        operands.append(_summed(inner, axes))
    axes, total = _summed(operands, "f")
    return total.reshape(-1, total.shape[-1])


def _summed(operands, out):
    """The product of labelled arrays summed over every axis not in ``out``
    and not the target axis, labelled by ``out``, the target axis first
    where an operand has it.

    The operands are contracted two at a time in the greedy order for
    their shapes per target (``_contraction_path``), each pair summed over
    the axes that ``out`` and the operands left lack; the order does not
    depend on the number of targets, and every step is a ufunc or a stack
    of matrix products with the target axis stacked (``_pair_product``):
    each target's slice of the result is bitwise what that target alone
    gives.
    """
    inputs, shapes = zip(*map(_per_target, operands))
    operands = list(operands)
    for x, y in _contraction_path(inputs, out, shapes):
        a, b = operands[x], operands[y]
        operands = [op for i, op in enumerate(operands) if i not in (x, y)]
        operands.append(_pair_product(a, b, set("".join(axes for axes, _ in operands) + out)))
    (axes, total), = operands
    return axes, total


def _reduced(labelled, needed):
    """A labelled array summed over its axes not in ``needed`` and not the
    target axis, one axis at a time, slice by slice."""
    axes, array = labelled
    for c in [c for c in axes if c not in needed and c != TARGETS]:
        kept = axes.replace(c, "")
        slices = on_axes(c + kept, (axes, array))
        array = slices[0] + slices[1] if len(slices) > 1 else slices[0]
        for s in slices[2:]:
            array += s
        axes = kept
    return axes, array


def _pair_product(a, b, needed):
    """The product of two labelled arrays summed over the axes of both that
    ``needed`` lacks; an axis of one alone is summed out of it first.

    Without such an axis the product is a ufunc, a * b at every element.
    With them it is one ``matmul`` whose stacked dimensions are the target
    axis and the kept axes of both, and whose matrix dimensions are the
    axes of each alone and the summed ones: each matrix product of the
    stack is the same BLAS call for every target, and the one a target
    alone makes.
    """
    a = _reduced(a, needed | set(b[0]))
    b = _reduced(b, needed | set(a[0]))
    targets = TARGETS if TARGETS in a[0] + b[0] else ""
    both = [c for c in a[0] if c in b[0] and c != TARGETS]
    summed = "".join(c for c in both if c not in needed)
    if not summed:
        big, small = (a, b) if _cells(a) >= _cells(b) else (b, a)
        axes = _union(big[0], small[0])
        return axes, on_axes(axes, a) * on_axes(axes, b)
    stacked = "".join(c for c in both if c in needed)
    rows, cols = ("".join(c for c in x[0] if c not in y[0] and c != TARGETS)
                  for x, y in ((a, b), (b, a)))
    sizes = dict(zip(a[0] + b[0], np.shape(a[1]) + np.shape(b[1])))
    lead, n = len(targets + stacked), math.prod(sizes[c] for c in summed)
    x = on_axes(targets + stacked + rows + summed, a)
    y = on_axes(targets + stacked + summed + cols, b)
    product = np.matmul(x.reshape(x.shape[:lead] + (-1, n)), y.reshape(y.shape[:lead] + (n, -1)))
    axes = targets + stacked + rows + cols
    return axes, product.reshape([sizes[c] for c in axes])


@lru_cache(maxsize=256)
def _contraction_path(inputs: tuple, out: str, shapes: tuple) -> list:
    """The pairs of operand indices ``_summed`` contracts in turn, each
    result appended to the operands left, for operands on the axes
    ``inputs`` of these shapes summed to the axes ``out``.

    Each step takes the pair whose product, kept on the axes ``out`` or
    another operand has, removes the most elements; then the one whose
    axes span the fewest; then the first in ``itertools.combinations``
    order.  This is ``np.einsum_path``'s greedy order on the operand sets
    the pathways form, and the tests check it on those sets alone.
    """
    sizes = {c: n for axes, shape in zip(inputs, shapes) for c, n in zip(axes, shape)}

    def size(axes):
        return math.prod(sizes[c] for c in axes)

    sets, kept_out, path = [frozenset(axes) for axes in inputs], frozenset(out), []
    while len(sets) > 1:
        steps = []
        for x, y in itertools.combinations(range(len(sets)), 2):
            both = sets[x] | sets[y]
            kept = both & kept_out.union(*(s for i, s in enumerate(sets) if i not in (x, y)))
            steps.append((size(kept) - size(sets[x]) - size(sets[y]), size(both), (x, y), kept))
        *_, (x, y), kept = min(steps, key=lambda step: step[:2])
        sets = [s for i, s in enumerate(sets) if i not in (x, y)] + [kept]
        path.append((x, y))
    return path


def _pathway(weights, summed, factors, excess):
    """sum over every axis but f of the labelled ``weights`` times the
    pair: the product of the factors and of 1 + m over the excess factors m.

    ``summed`` is ``weights`` summed over the mode axis, which no
    split-off factor has.  The product of the 1 + m_j is expanded as
    1 + sum_j (1 + m_1) ... (1 + m_{j-1}) m_j: the 1 takes ``summed`` and
    the terms, small where the pair varies little with the mode poles, the
    weights.  So the transport pathways' pair does not inherit the
    cancellation of sum_p transport[e, u, p] = d_eg[e]^2 delta_eu, whose
    terms reach 1e5 times that on an ill-conditioned mode basis.  Factors
    on the mode axis are multiplied into one array first, so that the
    order of the sum over it does not depend on their factoring.
    Returns (N_t, N_f) and whether a factor carried it, so that the pair
    was contracted unsplit.  Each 1 + m is formed once.
    """
    spanning = [f for f in factors if MODES in f[0]]
    if spanning:
        axes, _ = _grid(spanning)
        pair = math.prod(on_axes(axes, factor) for factor in spanning)
        factors = [f for f in factors if MODES not in f[0]] + [(axes, pair)]
    total = _contract((weights if spanning else summed) + factors)
    earlier = []
    for j, (axes, m) in enumerate(excess):
        if j:
            earlier.append((excess[j - 1][0], 1.0 + excess[j - 1][1]))
        total = total + _contract(weights + factors + earlier + [(axes, m)])
    return total, bool(spanning)


def _prepared_partials(system: ExcitonSystem, source, t_fs: float):
    """The five decayed pathway partial sums of every target of ``source``,
    (N_t, 5, N_f) (N_t = 1 for one source), and the names of the pathways
    whose pair carried its mode poles whole.

    Each pathway is one ``source.pair_factors(ket_x, ket_y, bra_x, bra_y)``
    call, every argument a list of terms ``(axes, array)`` labelled by the
    pathway's axes, contracted with its weights by ``_pathway``.  A pole
    that cancels in a leg's sum x + y appears in both of its arguments with
    opposite signs.  The transport pathways pass their mode poles on the
    mode axis ``MODES`` (p), which ``sources`` splits off as shifts.  The
    weights are cast to complex once here, each before its first pathway,
    rather than in every product.
    """
    units.require(t_fs, "evaluation time must be finite and non-negative", 0.0)
    z, w = system.poles, system.weights

    def weight(name):
        return np.ascontiguousarray(getattr(w, name), dtype=complex)

    # Each ``pair`` is let go of only once the next pathway's is built, so
    # that the memory of its factors, freed, is reused rather than returned
    # to the system by glibc's heap trimming and faulted in afresh: 530
    # against 1190 minor faults per bundled two-target block, about 1 ms.

    # p1 on axes (f, a, b), the ket through one-exciton state a, the bra b:
    # ket (fg - eg, eg), bra (fe - ff, fg - fe)
    coherent = weight("coherent")
    coherent = [("fa", coherent), ("fb", coherent)]
    pair = source.pair_factors([("f", z.fg), ("a", -z.eg)], [("a", z.eg)],
                               [("fb", z.fe), ("f", -z.ff)], [("f", z.fg), ("fb", -z.fe)])
    p1 = _pathway(coherent, coherent, *pair)

    # transport pathways on axes (f, e, u, p): the middle interval is a
    # one-exciton population summed over eigenmodes p, with the fourth
    # interaction on the ket (p2) or the bra (p4) side
    fe_squared = weight("fe_squared")
    transport = [("fu", fe_squared), ("eup", weight("transport"))]
    summed = [("fu", fe_squared), ("eu", weight("transport_sum"))]
    eg, zp, minus_zp = ("e", z.eg), ("p", z.modes), ("p", -z.modes)
    # p2: ket (fe - zp, eg), bra (fe - ff, eg - zp)
    pair = source.pair_factors([("fu", z.fe), minus_zp], [eg], [("fu", z.fe - z.ff[:, None])],
                               [eg, minus_zp])
    p2 = _pathway(transport, summed, *pair)
    # p4: ket (ff - ef, eg), bra (zp - ef, eg - zp), with ef = -conj(fe)
    pair = source.pair_factors([("fu", z.ff[:, None] + z.fe.conj())], [eg],
                               [zp, ("fu", z.fe.conj())], [eg, minus_zp])
    p4 = _pathway(transport, summed, *pair)

    # coherence pathways on axes (f, a, b): the middle interval is an
    # off-diagonal one-exciton coherence a-b, again with ket- and bra-sided
    # completion.  Their poles enter as sums of state poles, the pure
    # dephasing constant and the floor residuals (``PoleTable``), so
    # each leg's sum telescopes: its one-exciton state poles cancel, and
    # the pump lies on f and the residuals' axes alone.
    coherence = [("fab", weight("coherence"))]
    s_f, s_e, i_pure, r = z.s_f, z.s_e, z.i_pure, z.residuals
    fe = [("f", s_f), ("b", -s_e.conj()), ("", i_pure), ("fb", r["fe"])]
    ee = [("a", s_e), ("b", -s_e.conj()), ("", i_pure), ("ab", r["ee"])]
    ef = [("a", s_e), ("f", -s_f.conj()), ("", i_pure), ("fa", r["fe"])]
    ff = [("f", s_f), ("f", -s_f.conj()), ("", 2.0 * i_pure), ("f", r["ff"])]
    eg = [("a", s_e), ("a", r["eg"])]
    minus_ee, minus_ef, minus_ff = ([(axes, -t) for axes, t in terms] for terms in (ee, ef, ff))
    # p3: ket (fe - ee, eg), bra (fe - ff, eg - ee); less the floor
    # residuals, the legs sum to fg = s_f and fg - ff = conj(s_f) - 2 i pure
    pair = source.pair_factors(fe + minus_ee, eg, fe + minus_ff, eg + minus_ee)
    p3 = _pathway(coherence, coherence, *pair)
    # p5: ket (ff - ef, eg), bra (ee - ef, eg - ee); the legs sum to
    # s_f + i pure and conj(s_f) - i pure
    pair = source.pair_factors(ff + minus_ef, eg, ee + minus_ef, eg + minus_ee)
    p5 = _pathway(coherence, coherence, *pair)

    pathways = {"p1": p1, "p2": p2, "p3": p3, "p4": p4, "p5": p5}
    partials = np.stack(np.broadcast_arrays(*(total for total, _ in pathways.values())), axis=1)
    decay = np.exp(-z.gamma_ff * units.TWO_PI_C * t_fs)
    return partials * decay, [name for name, (_, whole) in pathways.items() if whole]


def _diagnostics(partials: np.ndarray) -> dict:
    """Pathway magnitudes and their cancellation, for the run record."""
    magnitudes = np.abs(partials)
    total = float(magnitudes.sum())
    net = float(np.abs(partials.sum(axis=0)).sum())
    return {
        "pathway_abs_sums": {f"p{k + 1}": float(m) for k, m in enumerate(magnitudes.sum(axis=1))},
        # the triangle inequality bounds the ratio by 1; rounding may not
        "cancellation_ratio": min(net / total, 1.0) if total > 0.0 else 1.0,
    }


def _raw(partials: np.ndarray) -> np.ndarray:
    """2 Re of the sum of one target's five partials."""
    return 2.0 * partials.sum(axis=0).real


def prepare_closed_form(
    system: ExcitonSystem,
    source,
    t_fs: float = 0.0,
) -> PreparationResult:
    """Evaluate the five-pathway closed form of the prepared distribution.

    Each pathway is the source correlation at complex pole-difference
    arguments weighted by its dipole chain; the whole sum carries the
    two-exciton depopulation prefactor exp(-Gamma_f 2 pi c t).  This is
    the one-target case of the routine that evaluates a block of scan
    targets (``scan_targets``), so each row of a scan is bitwise the
    preparation of its target alone.
    """
    (partials,), unsplit = _prepared_partials(system, source, t_fs)
    raw = _raw(partials)
    return PreparationResult(
        populations=np.clip(raw, 0.0, None),
        raw=raw,
        pathway_partials=partials,
        regularized=system.poles.regularized,
        diagnostics={**_diagnostics(partials), "unsplit_pathways": unsplit},
    )


@dataclass
class ScanResult:
    """Row-per-target preparation map over the two-exciton manifold.

    ``populations`` holds each target's clipped prepared distribution
    (``PreparationResult.populations``) and ``matrix`` the same rows
    max-normalized.  ``blocks`` is the number of target blocks the scan
    evaluated and ``workers`` the number of threads that evaluated them.
    ``unsplit_pathways`` names, sorted, the pathways some block contracted
    unsplit (``PreparationResult.diagnostics``).
    """

    matrix: np.ndarray
    populations: np.ndarray
    targets: np.ndarray
    target_energies: np.ndarray
    selectivity: np.ndarray
    mode: str
    blocks: int = 1
    workers: int = 1
    unsplit_pathways: list = field(default_factory=list)


def scan_fields(target_energy, mode: str) -> dict:
    """The source fields a scan retunes at ``target_energy``, and their values.

    Degenerate targeting parks both photons at half the target energy;
    mediated targeting keeps the photon carriers on their chosen
    one-exciton resonances and retunes only the pump sum frequency.
    """
    if mode == "degenerate":
        half = 0.5 * target_energy
        return {"omega1": half, "omega2": half, "pump_center": target_energy}
    if mode == "mediated":
        return {"pump_center": target_energy}
    raise ValueError(f"unknown scan mode {mode!r} (expected 'degenerate' or 'mediated')")


def scan_source(template: EppSource, target_energy, mode: str) -> EppSource:
    """Source tuned at one scan target, or at each target of a block when
    ``target_energy`` is an array (``sources`` labels such fields on the
    target axis): ``template`` with its ``scan_fields`` replaced."""
    return replace(template, **scan_fields(target_energy, mode))


def _target_bytes(system: ExcitonSystem, template: EppSource, mode: str) -> int:
    """Bytes per target of the largest array a block of scan targets carries
    on the target axis.

    That is the pump of a transport pathway's unshifted sum, on (f, e, u),
    unless the phase-matching references move with the target (degenerate
    mode) at t1 != 0: then a matching excess spans (f, e, u) and the modes,
    and its Taylor coefficients (f, e, u) and the orders.  (The coherence
    pathways' pump spans as many cells, (f, a, b), only where floor
    residuals keep those axes.  A part that ``sources`` takes whole spans
    (f, e, u, p) too; its guards are for shifts far from any model's.)
    """
    cells = system.n_two * system.n_one ** 2
    if mode == "degenerate" and template.t1:
        cells *= max(system.poles.modes.size, _TAYLOR_MAX_ORDERS)
    return 16 * cells


def scan_targets(
    system: ExcitonSystem,
    source_template: EppSource,
    targets=None,
    mode: str = "degenerate",
    t_fs: float = 0.0,
    threads: int = 1,
) -> ScanResult:
    """Prepare every requested target and stack the distributions.

    The targets are evaluated in blocks: each block is one pass of the
    preparation routine over a source tuned at all of its targets, whose
    target-dependent fields lie on the target axis while everything else
    is built once per block.  A block holds as many targets as keep its
    largest array on that axis under ``BLOCK_BYTES`` (``_target_bytes``),
    and at least one; the split depends on the shapes alone.  Every row is
    bitwise the ``prepare_closed_form`` of its target, at any split, except
    where the excess-exponent guard of ``sources`` takes a Gaussian whole
    for some target of a block: it decides per block, and such rows differ
    in the last bits.

    Rows are max-normalized for rendering; ``populations`` keeps the
    unnormalized clipped distributions and ``selectivity`` the ratio of
    target population to total row mass, which is normalization-invariant.
    The pole table and dipole weights do not depend on the source and are
    built once per system.  With ``threads > 1`` and more than one block,
    the blocks are evaluated in a pool of up to ``threads`` threads; rows
    are assembled by index and the result is bitwise independent of the
    thread count.
    """
    if targets is None:
        targets = np.arange(system.n_two)
    targets = np.asarray(targets, dtype=int)
    if targets.size == 0:
        raise ValueError("scan needs at least one target state")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= system.n_two:
        raise ValueError("scan targets must index the two-exciton manifold")

    energies = system.eig.energies_f[targets]
    size = max(1, BLOCK_BYTES // _target_bytes(system, source_template, mode))
    blocks = [energies[start:start + size] for start in range(0, energies.size, size)]

    def prepare_block(block: np.ndarray) -> tuple[np.ndarray, list]:
        source = scan_source(source_template, block, mode)
        partials, unsplit = _prepared_partials(system, source, t_fs)
        return np.stack([np.clip(_raw(p), 0.0, None) for p in partials]), unsplit

    workers = min(threads, len(blocks))
    if workers > 1:
        # cached_property has no lock from Python 3.12 on, so the tables, and
        # the one-exciton transport modes they read, are built here, before
        # two workers can each build them
        system.poles, system.weights
        # imported here: concurrent.futures and the logging it loads cost
        # every start about 4 ms, and only a threaded scan needs them
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(prepare_block, blocks))
    else:
        done = [prepare_block(block) for block in blocks]
    rows, unsplit = zip(*done)

    populations = np.concatenate(rows)
    peaks = populations.max(axis=1)
    safe = np.where(peaks > 0.0, peaks, 1.0)
    matrix = populations / safe[:, None]

    mass = populations.sum(axis=1)
    selectivity = np.where(
        mass > 0.0,
        populations[np.arange(targets.size), targets] / np.where(mass > 0.0, mass, 1.0), 0.0
    )
    return ScanResult(
        matrix=matrix,
        populations=populations,
        targets=targets,
        target_energies=energies,
        selectivity=selectivity,
        mode=mode,
        blocks=len(blocks),
        workers=max(workers, 1),
        unsplit_pathways=sorted(set().union(*unsplit)),
    )
