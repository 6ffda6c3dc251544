"""Prepared two-exciton populations after a single photon-pair pulse.

The fourth-order response that fills the two-exciton manifold splits into
five interfering pathways once populations decouple from coherences: a
fully coherent ladder through the two-exciton/ground coherence, two
pathways whose middle interval is a one-exciton population routed through
the transport eigenmodes, and two whose middle interval is a one-exciton
coherence.  Each pathway is a chain of four interval resolvents; closing
the frequency integrals at the resolvent poles collapses the chain onto
the source four-point correlation evaluated at complex pole-difference
arguments, which is the closed form implemented here.  The brute-force
real-frequency quadrature of the same integrand lives in
:mod:`excitonscope.quadrature` and serves as its oracle.

Pole convention: a coherence between states a and b oscillating at
w_ab = E_a - E_b with width gamma_ab contributes 1/(w - zeta) with
zeta = w_ab - i*gamma_ab in the lower half plane.  The ket legs of the
source enter through their conjugate-phase continuation
(``preparation_ket``) so that every contour closure lands on its own
pole; this is the globally conjugated description of the same real
signal as the plain four-point correlator.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import units
from .aggregate import AggregateSpec
from .bath import (
    BathSpec,
    TransportModel,
    build_transport_matrix,
    ground_reference,
)
from .excitons import ExcitonEigensystem, TransitionDipoles, compute_transition_dipoles
from .propagators import floor_widths
from .sources import EppSource

DEFAULT_POLARIZATION = (1.0, 1.0, 1.0)


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


@dataclass(frozen=True)
class PoleTable:
    """Complex resolvent poles zeta = w_ab - i gamma_ab for every coherence family.

    ``eg``/``fg``/``fe``/``ee``/``ef`` follow the (bra-state inside ket-state)
    labelling of the pathway chains, ``ff`` holds the two-exciton population
    poles -i Gamma_f and ``modes`` the one-exciton transport eigenpoles
    -i lambda_p.  All widths are floored at the documented epsilon when they
    fall below the collision threshold, recorded by ``regularized``.
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
        eig = system.eig
        one = system.transport_one
        two = system.transport_two
        ground = ground_reference()

        g_eg, c1 = floor_widths(one.coherence_width(ground)[:, 0])
        g_fg, c2 = floor_widths(two.coherence_width(ground)[:, 0])
        g_fe, c3 = floor_widths(two.coherence_width(one))
        g_ee, c4 = floor_widths(one.coherence_width())
        g_ff, c5 = floor_widths(two.depopulation)
        lam, c6 = floor_widths(one.lambdas)

        w_fe = eig.omega_fe()
        return cls(
            eg=eig.energies_e - 1j * g_eg,
            fg=eig.energies_f - 1j * g_fg,
            fe=w_fe - 1j * g_fe,
            ee=(eig.energies_e[:, None] - eig.energies_e[None, :]) - 1j * g_ee,
            ef=-w_fe - 1j * g_fe,
            ff=-1j * g_ff,
            modes=-1j * lam,
            regularized=bool(c1 or c2 or c3 or c4 or c5 or c6),
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
    clipped non-negative distribution.
    """

    populations: np.ndarray
    raw: np.ndarray
    pathway_partials: np.ndarray
    time_fs: float
    method: str
    regularized: bool
    source_summary: dict
    target_label: str | None = None
    diagnostics: dict = field(default_factory=dict)

    def normalized(self) -> np.ndarray:
        peak = self.populations.max(initial=0.0)
        if peak <= 0.0:
            return np.zeros_like(self.populations)
        return self.populations / peak


def describe_source(source) -> dict:
    """Flat parameter echo of a source object for result metadata."""
    summary = {"kind": type(source).__name__}
    if isinstance(source, EppSource):
        summary.update(
            omega1=source.omega1,
            omega2=source.omega2,
            pump_center=source.pump_center,
            tau_pump=source.tau_pump,
            t1=source.t1,
            t2=source.t2,
            alpha=source.alpha,
            e0=source.e0,
        )
    else:
        pulses = getattr(source, "pulses", ())
        summary["pulses"] = [
            {"center": p.center, "tau": p.tau, "scale": p.scale} for p in pulses
        ]
    return summary


def pathway_weights(system: ExcitonSystem):
    """Dipole weight tensors shared by the closed form and the quadrature.

    Returns (wk, w_transport, w_coherence): ``wk[f, e] = d_eg[e] d_fe[f, e]``
    feeds the fully coherent pathway, ``w_transport[f, e, u, p]`` carries the
    transport eigen-sum chi_R D^-1 chi_L between the bra index e and the ket
    index u, and ``w_coherence[f, e, e']`` the off-diagonal dipole chain.
    """
    d1 = system.d_eg
    d2 = system.d_fe
    one = system.transport_one
    wk = d1[None, :] * d2

    w_transport = np.einsum(
        "e,fu,up,p,pe->feup",
        d1 * d1,
        d2 * d2,
        one.chi_right,
        1.0 / one.dpp,
        one.chi_left,
        optimize=True,
    )

    n_e = system.n_one
    off = ~np.eye(n_e, dtype=bool)
    w_coherence = wk[:, :, None] * wk[:, None, :] * off[None, :, :]
    return wk, w_transport, w_coherence


def _preparation_invariants(system: ExcitonSystem):
    """The source-independent inputs of a preparation: the pole table and
    the dipole weight tensors of :func:`pathway_weights`.  Nothing mutates
    them, so one build is shared read-only by every target of a scan."""
    return PoleTable.from_system(system), pathway_weights(system)


def _closed_pathways(z: PoleTable, wk, w_transport, w_coherence, ket, bra):
    """Five pathway partial sums (without the decay prefactor), each (N_f,).

    Every source argument is passed at the rank its poles need and the
    source broadcasts each pair; the comments give the argument shapes.
    """
    # fully coherent ladder: factorizes into a ket sum over e and a bra sum
    # over e' at fixed f; (f, e) with (e,), and (f, e) with (f, e)
    ket1 = ket(z.fg[:, None] - z.eg[None, :], z.eg)
    bra1 = bra(z.fe - z.ff[:, None], z.fg[:, None] - z.fe)
    p1 = (wk * ket1).sum(axis=1) * (wk * bra1).sum(axis=1)

    # transport pathways: middle interval is a one-exciton population summed
    # over eigenmodes p, with the fourth interaction on the ket (p2) or the
    # bra (p4) side, on axes (f, e, u, p).  a1 = eg varies with e alone and
    # a3 = eg - zp with (e, p).
    zp = z.modes
    a1 = z.eg[None, :, None, None]
    a3 = (z.eg[:, None] - zp[None, :])[None, :, None, :]
    ket_eg = ket(z.fe[:, None, :, None] - zp, a1)  # (f, 1, u, p) with (1, e, 1, 1)
    bra_p = bra((z.fe - z.ff[:, None])[:, None, :, None], a3)  # (f, 1, u, 1) with (1, e, 1, p)
    p2 = np.einsum("feup,feup->f", w_transport, ket_eg * bra_p, optimize=True)
    del ket_eg, bra_p

    # p4's ket leg does not depend on p: (f, 1, u) with (1, e, 1), evaluated
    # on (f, e, u); its bra leg is (f, 1, u, p) with (1, e, 1, p)
    ket4 = ket((z.ff[:, None] - z.ef)[:, None, :], z.eg[None, :, None])
    bra4 = bra(zp - z.ef[:, None, :, None], a3)
    p4 = np.einsum("feu,feup->f", ket4, w_transport * bra4, optimize=True)
    del bra4

    # coherence pathways: middle interval is an off-diagonal one-exciton
    # coherence a-b, again with ket- and bra-sided completion, on axes
    # (f, a, b); a1 = eg varies with a alone and a3 = eg - ee with (a, b)
    a1c = z.eg[:, None]
    a3c = z.eg[:, None] - z.ee
    ket3 = ket(z.fe[:, None, :] - z.ee[None, :, :], a1c)  # (f, a, b) with (a, 1)
    bra3 = bra((z.fe - z.ff[:, None])[:, None, :], a3c)  # (f, 1, b) with (a, b)
    p3 = np.einsum("fab,fab->f", w_coherence, ket3 * bra3, optimize=True)

    # p5's ket leg does not depend on b: (f, a, 1) with (a, 1)
    ket5 = ket((z.ff[:, None] - z.ef)[:, :, None], a1c)
    bra5 = bra(z.ee[None, :, :] - z.ef[:, :, None], a3c)  # (f, a, b) with (a, b)
    p5 = np.einsum("fab,fab->f", w_coherence, ket5 * bra5, optimize=True)

    return np.stack([p1, p2, p3, p4, p5])


def prepare_closed_form(
    system: ExcitonSystem,
    source,
    t_fs: float = 0.0,
    target_label: str | None = None,
    *,
    invariants=None,
) -> PreparationResult:
    """Evaluate the five-pathway closed form of the prepared distribution.

    Each pathway is the source correlation at complex pole-difference
    arguments weighted by its dipole chain; the whole sum carries the
    two-exciton depopulation prefactor exp(-Gamma_f 2 pi c t).
    ``invariants`` lets a caller that prepares many sources on one system
    pass the ``_preparation_invariants(system)`` it built once.
    """
    if t_fs < 0.0:
        raise ValueError(f"evaluation time must be non-negative, got {t_fs}")
    if invariants is None:
        invariants = _preparation_invariants(system)
    z, (wk, w_transport, w_coherence) = invariants
    partials = _closed_pathways(
        z, wk, w_transport, w_coherence, source.preparation_ket, source.preparation_bra
    )
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
        target_label=target_label,
    )


@dataclass
class ScanResult:
    """Row-per-target preparation map over the two-exciton manifold."""

    matrix: np.ndarray
    raw: np.ndarray
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

    Rows are max-normalized for rendering; ``raw`` keeps the unnormalized
    values and ``selectivity`` the ratio of target population to total row
    mass, which is normalization-invariant.  The pole table and dipole
    weights do not depend on the source and are built once per scan.
    Targets are independent, so with ``threads > 1`` they are evaluated in
    a thread pool; rows are assembled by index and the result is bitwise
    independent of the thread count.
    """
    if targets is None:
        targets = np.arange(system.n_two)
    targets = np.asarray(targets, dtype=int)
    if targets.size == 0:
        raise ValueError("scan needs at least one target state")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= system.n_two:
        raise ValueError("scan targets must index the two-exciton manifold")

    energies = system.eig.energies_f[targets]
    invariants = _preparation_invariants(system)

    def prepare_one(idx: int, energy: float) -> PreparationResult:
        source = scan_source(source_template, float(energy), mode)
        return prepare_closed_form(
            system, source, t_fs, target_label=f"f{idx:03d}", invariants=invariants
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(prepare_one, targets, energies))
    else:
        results = [prepare_one(idx, energy) for idx, energy in zip(targets, energies)]

    raw = np.zeros((targets.size, system.n_two))
    regularized = False
    for row, result in enumerate(results):
        raw[row] = result.populations
        regularized = regularized or result.regularized

    peaks = raw.max(axis=1)
    safe = np.where(peaks > 0.0, peaks, 1.0)
    matrix = raw / safe[:, None]

    mass = raw.sum(axis=1)
    selectivity = np.where(
        mass > 0.0, raw[np.arange(targets.size), targets] / np.where(mass > 0.0, mass, 1.0), 0.0
    )
    return ScanResult(
        matrix=matrix,
        raw=raw,
        targets=targets,
        target_energies=energies,
        selectivity=selectivity,
        mode=mode,
        time_fs=float(t_fs),
        source_summary=describe_source(source_template),
        regularized=regularized,
    )
