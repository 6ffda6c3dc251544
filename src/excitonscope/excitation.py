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
source enter through their conjugate-phase continuation
(``preparation_ket``) so that every contour closure lands on its own
pole; this is the globally conjugated description of the same real
signal as the plain four-point correlator.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import units
from .aggregate import AggregateSpec
from .bath import BathSpec, TransportModel, build_transport_matrix
from .excitons import ExcitonEigensystem, TransitionDipoles, compute_transition_dipoles
from .sources import EppSource, _grid, on_axes

DEFAULT_POLARIZATION = (1.0, 1.0, 1.0)
# Widths below the trigger are raised to the floor value (cm^-1), so every
# resolvent denominator keeps a strictly positive width.
WIDTH_FLOOR_TRIGGER = 1e-8
WIDTH_FLOOR_VALUE = 1e-3


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
    polarization: tuple = DEFAULT_POLARIZATION

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
            polarization=tuple(float(p) for p in np.asarray(polarization, dtype=float)),
        )

    @property
    def n_one(self) -> int:
        return self.eig.n_one

    @property
    def n_two(self) -> int:
        return self.eig.n_two

    # Nothing mutates the two tables below, so every preparation and every
    # detection map of a system, in any thread, shares one build of each.
    @cached_property
    def poles(self) -> "PoleTable":
        """The resolvent pole table of this system."""
        return PoleTable.from_system(self)

    @cached_property
    def weights(self) -> "PathwayWeights":
        """The factored dipole weights of the five preparation pathways."""
        return PathwayWeights.from_system(self)


@dataclass(frozen=True)
class PoleTable:
    """Complex resolvent poles zeta = w_ab - i gamma_ab for every coherence family.

    ``eg``/``fg``/``fe``/``ee``/``ef`` follow the (bra-state inside ket-state)
    labelling of the pathway chains, ``ff`` holds the two-exciton population
    poles -i Gamma_f and ``modes`` the one-exciton transport eigenpoles
    -i lambda_p.  A coherence width is gamma_ab = (Gamma_a + Gamma_b)/2 plus
    the bath's pure dephasing, with Gamma = 0 for the ground state, and
    ``ef`` shares the widths of ``fe``.  Every width below
    ``WIDTH_FLOOR_TRIGGER`` is raised to ``WIDTH_FLOOR_VALUE``, which
    ``regularized`` records.
    """

    eg: np.ndarray
    fg: np.ndarray
    fe: np.ndarray
    ee: np.ndarray
    ef: np.ndarray
    ff: np.ndarray
    modes: np.ndarray
    regularized: bool

    @classmethod
    def from_system(cls, system: ExcitonSystem) -> "PoleTable":
        g1 = system.transport_one.depopulation
        g2 = system.transport_two.depopulation
        pure = system.bath.pure_dephasing
        widths = {
            "eg": 0.5 * g1 + pure,
            "fg": 0.5 * g2 + pure,
            "fe": 0.5 * (g2[:, None] + g1[None, :]) + pure,
            "ee": 0.5 * (g1[:, None] + g1[None, :]) + pure,
            "ff": g2,
            "modes": system.transport_one.lambdas,
        }
        low = {name: w < WIDTH_FLOOR_TRIGGER for name, w in widths.items()}
        g = {name: np.where(low[name], WIDTH_FLOOR_VALUE, w) for name, w in widths.items()}

        eig = system.eig
        w_fe = eig.omega_fe()
        return cls(
            eg=eig.energies_e - 1j * g["eg"],
            fg=eig.energies_f - 1j * g["fg"],
            fe=w_fe - 1j * g["fe"],
            ee=(eig.energies_e[:, None] - eig.energies_e[None, :]) - 1j * g["ee"],
            ef=-w_fe - 1j * g["fe"],
            ff=-1j * g["ff"],
            modes=-1j * g["modes"],
            regularized=any(bool(mask.any()) for mask in low.values()),
        )

    @property
    def gamma_ff(self) -> np.ndarray:
        """Floored two-exciton depopulation widths (cm^-1)."""
        return -self.ff.imag


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
    ``raw`` grows by its inverse.
    """

    populations: np.ndarray
    raw: np.ndarray
    pathway_partials: np.ndarray
    time_fs: float
    method: str
    regularized: bool
    source_summary: dict
    diagnostics: dict = field(default_factory=dict)

    def normalized(self) -> np.ndarray:
        peak = self.populations.max(initial=0.0)
        if peak <= 0.0:
            return np.zeros_like(self.populations)
        return self.populations / peak


def describe_source(source) -> dict:
    """Flat parameter echo of a source object for result metadata: its class
    name and, for a dataclass source, its fields."""
    summary = {"kind": type(source).__name__}
    if is_dataclass(source):
        summary.update(asdict(source))
    return summary


@dataclass(frozen=True)
class PathwayWeights:
    """Dipole weights of the pathways, factored by the axes they vary on.

    ``coherent[f, e] = d_eg[e] d_fe[f, e]`` feeds the fully coherent
    pathway.  The transport pathways weigh (f, e, u, p) by
    ``fe_squared[f, u] * transport[e, u, p]``, with ``fe_squared = d_fe^2``
    and ``transport`` the eigen-sum d_eg[e]^2 chi_R[u, p] / dpp[p]
    chi_L[p, e] between the bra index e and the ket index u, and
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
        transport = np.einsum(
            "e,up,p,pe->eup", d1 * d1, one.chi_right, 1.0 / one.dpp, one.chi_left,
            optimize=True,
        )
        off = ~np.eye(system.n_one, dtype=bool)
        return cls(
            coherent=wk,
            fe_squared=d2 * d2,
            transport=transport,
            transport_sum=np.array([[math.fsum(terms) for terms in row] for row in transport]),
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


def _contract(*operands):
    """sum over every axis but f of the product of labelled arrays, as (N_f,)."""
    subscripts = ",".join(axes for axes, _ in operands) + "->f"
    arrays = [array for _, array in operands]
    path = _contraction_path(subscripts, tuple(a.shape for a in arrays))
    return np.einsum(subscripts, *arrays, optimize=path)


@lru_cache(maxsize=256)
def _contraction_path(subscripts: str, shapes: tuple) -> list:
    """The greedy einsum contraction order for operands of these shapes."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *operands, optimize="greedy")[0]


def _transport_pathway(w: PathwayWeights, factors, excess):
    """sum over (e, u, p) of fe_squared[f, u] transport[e, u, p] times the
    pair: the product of the factors and of 1 + m over the excess factors.

    sum_p transport[e, u, p] is d_eg[e]^2 delta_eu, while its terms reach
    1e5 times that on an ill-conditioned mode basis, so a pair that varies
    little with p cancels to the same degree.  Where no factor depends on
    p, the product of the 1 + m_j is expanded as
    1 + sum_j (1 + m_1) ... (1 + m_{j-1}) m_j: the 1 takes the exact sum
    ``transport_sum``, and the terms of the sum, small where the pair
    varies little, the weights themselves.
    """
    weights = ("fu", w.fe_squared)
    if any("p" in axes for axes, _ in factors):
        # the unsplit pair, multiplied out first so that the order of the
        # contraction, which the cancellation over p makes visible, does not
        # depend on how the source factored it
        axes, shape = _grid(factors)
        pair = np.ones(shape, dtype=complex)
        for factor in factors:
            pair *= on_axes(axes, factor)
        factors = [(axes, pair)]
        total = _contract(weights, ("eup", w.transport), *factors)
    else:
        total = _contract(weights, ("eu", w.transport_sum), *factors)
    for j, (axes, m) in enumerate(excess):
        earlier = [(own, 1.0 + n) for own, n in excess[:j]]
        total += _contract(weights, ("eup", w.transport), *factors, *earlier, (axes, m))
    return total


def _closed_pathways(z: PoleTable, w: PathwayWeights, source):
    """Five pathway partial sums (without the decay prefactor), each (N_f,).

    The fully coherent ladder p1 factorizes into a ket sum and a bra sum,
    so it takes the two legs separately.  p2-p5 take one
    ``source.pair_factors(ket_x, ket_y, bra_x, bra_y, shift)`` call each,
    every argument a list of terms ``(axes, array)`` labelled by the
    pathway's axes, the mode poles on axis p as the shift, and contract
    its weights with the returned factors in ``einsum`` calls.  A pole
    that cancels in a leg's sum x + y appears in both of its arguments
    with opposite signs.
    """
    # p1 on axes (f, e): ket (f, e) with (e,), bra (f, e) with (f, e)
    ket1 = source.preparation_ket(z.fg[:, None] - z.eg[None, :], z.eg)
    bra1 = source.preparation_bra(z.fe - z.ff[:, None], z.fg[:, None] - z.fe)
    p1 = (w.coherent * ket1).sum(axis=1) * (w.coherent * bra1).sum(axis=1)

    # transport pathways on axes (f, e, u, p): the middle interval is a
    # one-exciton population summed over eigenmodes p, with the fourth
    # interaction on the ket (p2) or the bra (p4) side
    eg, zp, minus_zp = ("e", z.eg), ("p", z.modes), ("p", -z.modes)
    # p2: ket (fe - zp, eg), bra (fe - ff, eg - zp)
    p2 = _transport_pathway(w, *source.pair_factors(
        [("fu", z.fe), minus_zp], [eg], [("fu", z.fe - z.ff[:, None])], [eg, minus_zp], shift="p"))
    # p4: ket (ff - ef, eg), bra (zp - ef, eg - zp)
    p4 = _transport_pathway(w, *source.pair_factors(
        [("fu", z.ff[:, None] - z.ef)], [eg], [zp, ("fu", -z.ef)], [eg, minus_zp], shift="p"))

    # coherence pathways on axes (f, a, b): the middle interval is an
    # off-diagonal one-exciton coherence a-b, again with ket- and bra-sided
    # completion
    coherence = ("fab", w.coherence)
    eg, ee, minus_ee = ("a", z.eg), ("ab", z.ee), ("ab", -z.ee)
    # p3: ket (fe - ee, eg), bra (fe - ff, eg - ee)
    factors, _ = source.pair_factors(
        [("fb", z.fe), minus_ee], [eg], [("fb", z.fe - z.ff[:, None])], [eg, minus_ee])
    p3 = _contract(coherence, *factors)
    # p5: ket (ff - ef, eg), bra (ee - ef, eg - ee)
    factors, _ = source.pair_factors(
        [("fa", z.ff[:, None] - z.ef)], [eg], [ee, ("fa", -z.ef)], [eg, minus_ee])
    p5 = _contract(coherence, *factors)

    return np.stack([p1, p2, p3, p4, p5])


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


def prepare_closed_form(
    system: ExcitonSystem,
    source,
    t_fs: float = 0.0,
) -> PreparationResult:
    """Evaluate the five-pathway closed form of the prepared distribution.

    Each pathway is the source correlation at complex pole-difference
    arguments weighted by its dipole chain; the whole sum carries the
    two-exciton depopulation prefactor exp(-Gamma_f 2 pi c t).
    """
    if t_fs < 0.0:
        raise ValueError(f"evaluation time must be non-negative, got {t_fs}")
    z = system.poles
    partials = _closed_pathways(z, system.weights, source)
    decay = np.exp(-z.gamma_ff * units.TWO_PI_C * t_fs)
    partials = partials * decay[None, :]
    raw = 2.0 * partials.sum(axis=0).real
    return PreparationResult(
        populations=np.clip(raw, 0.0, None),
        raw=raw,
        pathway_partials=partials,
        time_fs=float(t_fs),
        method="closed-form",
        regularized=z.regularized,
        source_summary=describe_source(source),
        diagnostics=_diagnostics(partials),
    )


@dataclass
class ScanResult:
    """Row-per-target preparation map over the two-exciton manifold.

    ``populations`` holds each target's clipped prepared distribution
    (``PreparationResult.populations``) and ``matrix`` the same rows
    max-normalized.
    """

    matrix: np.ndarray
    populations: np.ndarray
    targets: np.ndarray
    target_energies: np.ndarray
    selectivity: np.ndarray
    mode: str
    time_fs: float
    source_summary: dict
    regularized: bool


def scan_source(template: EppSource, target_energy: float, mode: str) -> EppSource:
    """Source tuned at one scan target.

    Degenerate targeting parks both photons at half the target energy;
    mediated targeting keeps the photon carriers on their chosen
    one-exciton resonances and retunes only the pump sum frequency.
    """
    if mode == "degenerate":
        half = 0.5 * target_energy
        return replace(template, omega1=half, omega2=half, pump_center=target_energy)
    if mode == "mediated":
        return replace(template, pump_center=target_energy)
    raise ValueError(f"unknown scan mode {mode!r} (expected 'degenerate' or 'mediated')")


def scan_targets(
    system: ExcitonSystem,
    source_template: EppSource,
    targets=None,
    mode: str = "degenerate",
    t_fs: float = 0.0,
    threads: int = 1,
) -> ScanResult:
    """Prepare every requested target in turn and stack the distributions.

    Rows are max-normalized for rendering; ``populations`` keeps the
    unnormalized clipped distributions and ``selectivity`` the ratio of
    target population to total row mass, which is normalization-invariant.
    The pole table and dipole weights do not depend on the source and are
    built once per system.  Targets are independent, so with
    ``threads > 1`` they are evaluated in a thread pool; rows are assembled
    by index and the result is bitwise independent of the thread count.
    """
    if targets is None:
        targets = np.arange(system.n_two)
    targets = np.asarray(targets, dtype=int)
    if targets.size == 0:
        raise ValueError("scan needs at least one target state")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= system.n_two:
        raise ValueError("scan targets must index the two-exciton manifold")

    energies = system.eig.energies_f[targets]

    def prepare_one(energy: float) -> PreparationResult:
        return prepare_closed_form(system, scan_source(source_template, float(energy), mode), t_fs)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(prepare_one, energies))
    else:
        results = [prepare_one(energy) for energy in energies]

    populations = np.stack([result.populations for result in results])
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
        time_fs=float(t_fs),
        source_summary=describe_source(source_template),
        regularized=system.poles.regularized,
    )
