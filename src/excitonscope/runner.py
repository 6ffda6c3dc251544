"""Scenario runner: build the model, execute one scenario, write artifacts.

Every artifact is written atomically (temp file in the target directory,
then rename) and the run manifest is written last, so a manifest on disk
means the artifacts it lists are complete.  Numeric CSV cells use 17
significant digits in scientific notation and a fixed row/column order;
together with index-based reduction of any parallel work this makes the
data artifacts byte-identical for any thread count.

Every cell of a CSV matrix is exactly C's ``%.16e`` of its double.  A
vectorized formatter writes them all at once: the 17-digit integer comes
from an error-free product of the value with a double-double power of
ten, and the few cells whose rounding it cannot prove (ties and near
ties, values a few ulps above a power of ten, non-finite values) go
through ``%`` one by one.  Table cells, a few hundred per table, go
through ``_fmt``.

Matrix CSVs use the gnuplot ``nonuniform matrix`` layout: the first row
holds the column count followed by the column coordinates, every other
row starts with its row coordinate.  Table CSVs carry a header row with
column names.  For the ``jsa`` scenario the ``grids.omega_fe`` /
``grids.omega_eg`` overrides (when given) set the first / second photon
axis respectively.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, units
from .aggregate import AggregateSpec
from .coincidence import FilterSpec, SignalGrid, coincidence_snapshot, parameter_study
from .config import ConfigError, RunConfig, snapshot_label
from .excitation import WIDTH_FLOOR_VALUE, ExcitonSystem, prepare_closed_form, scan_targets
from .presets import bright_pair, bundled_aggregate
from .propagators import population_evolve
from .sources import CoherentSource, EppSource, jsi_map


def _fmt(x) -> str:
    """CSV cell: a float in 17 significant digits, anything else as text."""
    return f"{x:.16e}" if isinstance(x, float) else str(x)


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far, in MB (None where the
    platform has no ``resource`` module)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


@dataclass
class RunManifest:
    """Record of one run, filled as it runs: the settings and values it
    resolved, its stage times (``lap``), warnings and artifacts.  Written
    last, after all data artifacts."""

    scenario: str
    created: str
    versions: dict
    config: dict
    resolved: dict
    timings: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def __post_init__(self):
        self._mark = time.perf_counter()

    def lap(self, stage: str):
        """Time since the previous lap, or since the record was made, as ``stage``."""
        now = time.perf_counter()
        self.timings.append({"stage": stage, "seconds": round(now - self._mark, 6)})
        self._mark = now

    def to_dict(self) -> dict:
        # every field already holds plain JSON data, so no deep copy
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _atomic_write(path: str, text: str):
    data = memoryview(text.encode("utf-8"))
    # os.open with mode 0o666, not mkstemp's 0o600, so the umask sets the
    # artifact's permissions as it does for any file the user creates
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            while data:  # os.write may write less than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_all(out: str, items) -> None:
    """Writes each ``(name, text)`` into ``out``, made if missing; a
    directory that cannot be made or written is an error at ``out_dir``.
    With no items it only makes and checks ``out``."""
    try:
        os.makedirs(out, exist_ok=True)
        if not os.access(out, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        for name, text in items:
            _atomic_write(os.path.join(out, name), text)
    except OSError as exc:
        raise ConfigError([("out_dir", f"cannot write to {out}: {exc.strerror or exc}")]) from exc


def _csv(rows) -> str:
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


# Bytes of one matrix cell: "-d.dddddddddddddddde-ddd" and its separator.
_CELL = 25
# The bytes of a cell that a non-negative value with a two-digit exponent
# fills, separator included: all but the sign (0) and the hundreds (21).
_NARROW = _CELL - 2
# Text of a 0.0 cell, without its separator.
_ZERO = len("%.16e" % 0.0)
# Cells formatted per block of rows, so that the formatter's temporaries,
# about thirty 8-byte arrays of a block, stay near 1 MB for any matrix size;
# of 1024 to 20000 cells, 4096 formatted a 128 x 128 map fastest.
_BLOCK_CELLS = 4096
# Values of decimal exponent beyond ±_SCALE_EXP are scaled by 2**∓_SHIFT
# before the product with their power of ten, itself scaled by 2**±_SHIFT,
# so that neither factor, nor Dekker's split of either, can overflow or
# underflow; scaling by a power of two is exact.
_SCALE_EXP = 280
_SHIFT = 1000
# Half-way margin: the 17-digit remainder is known to ~1e-14, so a
# fraction this close to 0.5 may be a tie and is left to ``%``.
_TIE_MARGIN = 1e-6


@functools.cache
def _pow10_pair(e: int) -> tuple[float, float, int]:
    """For a value of decimal exponent ``e``: 10**(16 - e) / 2**s as a
    double-double ``hi + lo``, from exact integer arithmetic, and the
    power of two ``s`` the value is scaled by (0 within 1e±280)."""
    shift = _SHIFT if e < -_SCALE_EXP else -_SHIFT if e > _SCALE_EXP else 0
    n = 16 - e
    num = 10**max(n, 0) * 2**max(-shift, 0)
    den = 10**max(-n, 0) * 2**max(shift, 0)
    hi = num / den  # int / int is correctly rounded
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (hi_den * den), shift


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each double into two halves of 26 bits."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


@functools.cache
def _digit_table() -> np.ndarray:
    """'0000' … '9999' in ASCII, one uint32 per group, so that the byte
    view of any gather is the digits in order on either byte order;
    built once and read-only."""
    digits = np.arange(48, 58, dtype=np.uint8)
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    table[..., 0] = digits[:, None, None, None]
    table[..., 1] = digits[:, None, None]
    table[..., 2] = digits[:, None]
    table[..., 3] = digits
    table = table.view(np.uint32).ravel()
    table.setflags(write=False)
    return table


def _e16_digits(a: np.ndarray) -> tuple:
    """The 17 significant digits ``d`` (an int in [1e16, 1e17) where
    proven) and the exponent ``e`` of ``"%.16e" % a`` for finite positive
    magnitudes ``a``, and where that rounding is not proven.

    With E = floor(log10 a) and 10**(16 - E) = hi + lo, the product
    a·hi = p + err is exact and p is an integer (p >= 1e16 > 2**53), so
    the digits are p + round(err + a·lo); beyond 1e±280, a and hi + lo
    are first scaled by opposite powers of two.  E comes from log10
    lowered by a few ulps, so it is never one too high: a power of ten, or
    a double just below one, rounds to 10**17 and carries to the next
    exponent.  The rare value it leaves one too low (a few ulps above a
    power of ten) and ties or near ties are not proven.
    """
    log = np.log10(a)
    e = np.floor(log - np.abs(log) * 2.0**-48).astype(np.int64)
    # the powers of ten of the exponents present, each once
    lowest = int(e.min())
    present = np.bincount(e - lowest)
    hi, lo = np.zeros(present.size), np.zeros(present.size)
    shift = np.zeros(present.size, np.intc)
    for k in np.flatnonzero(present).tolist():
        hi[k], lo[k], shift[k] = _pow10_pair(lowest + k)
    hi, lo = hi[e - lowest], lo[e - lowest]
    if shift.any():
        a = np.ldexp(a, shift[e - lowest])

    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    r = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo
    whole = np.floor(r)
    frac = r - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    # p + r below 10**16 would mean an E too high, which only a log10 off
    # by more than the lowering can give: that costs time, not digits
    unproven = (np.abs(frac - 0.5) <= _TIE_MARGIN) | (d >= 10**17) | ((p - 1e16) + r < 0.0)
    return d, e, unproven


def _e16_cells(x: np.ndarray) -> np.ndarray:
    """Each double of ``x`` as ``"%.16e" % x``: one ``_CELL``-byte row per
    value, its text with 0 bytes as padding and the last byte left 0.
    Zeros are written directly; inf, nan and the values ``_e16_digits``
    leaves unproven go through ``%``, left-aligned.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    mag = np.abs(x)
    zero = mag == 0.0
    finite = mag < np.inf  # False on inf and nan
    d, e, unproven = _e16_digits(np.where(finite & ~zero, mag, 1.0))
    slow = ~zero & (~finite | unproven)
    d[zero] = 0
    e[zero] = 0

    lead, rest = np.divmod(d, 10**16)
    q, g3 = np.divmod(rest, 10000)
    q, g2 = np.divmod(q, 10000)
    g0, g1 = np.divmod(q, 10000)
    exp = np.abs(e)
    cells = np.zeros((x.size, _CELL), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    cells[:, 1] = lead + 48
    cells[:, 2] = ord(".")
    cells[:, 3:19] = _digit_table()[np.stack([g0, g1, g2, g3], axis=1)].view(np.uint8)
    cells[:, 19] = ord("e")
    cells[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    cells[:, 21] = np.where(exp >= 100, 48 + exp // 100, 0)
    cells[:, 22] = 48 + exp // 10 % 10
    cells[:, 23] = 48 + exp % 10
    for i, value in zip(np.flatnonzero(slow).tolist(), x[slow].tolist()):
        text = ("%.16e" % value).encode("ascii")
        cells[i, :-1] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _matrix_csv(row_axis, col_axis, values) -> str:
    """Column count and axis, then each row's axis value and cells: every
    float byte for byte as ``"%.16e" % x``, a block of rows at a time."""
    grid = np.zeros((len(row_axis) + 1, len(col_axis) + 1))
    grid[0, 1:] = col_axis
    grid[1:, 0] = row_axis
    grid[1:, 1:] = values
    text = np.empty(grid.size * _CELL, np.uint8)
    end = 0
    step = max(1, _BLOCK_CELLS // grid.shape[1])
    for start in range(0, grid.shape[0], step):
        block = grid[start:start + step]
        cells = _e16_cells(block).reshape(*block.shape, _CELL)
        cells[:, :-1, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        cells = cells.reshape(-1, _CELL)
        if cells[:, 0].any() or cells[:, 21].any():
            kept = cells[cells != 0]  # mixed widths: drop the padding
            text[end:end + kept.size] = kept
            end += kept.size
        else:
            # every cell one width, as in every map of non-negative values
            # with two-digit exponents: slice the padding off
            kept = text[end:end + len(cells) * _NARROW].reshape(-1, _NARROW)
            kept[:, :20] = cells[:, 1:21]
            kept[:, 20:] = cells[:, 22:]
            end += kept.size
    # the corner's 0.0 gives way to the column count
    count = str(len(col_axis)).encode("ascii")
    head = _ZERO - len(count)
    text[head:_ZERO] = np.frombuffer(count, np.uint8)
    return str(text[head:end], "ascii")


class _Sink:
    """Collects artifacts in order; flushed atomically by run_scenario.

    Plot scripts go with CSV data only, and only when ``emit_plots`` asks
    for them.
    """

    def __init__(self, fmt: str, emit_plots: bool):
        self.fmt = fmt
        self.plots = emit_plots and fmt == "csv"
        self.items: list = []

    def _add(self, name: str, text: str) -> str:
        self.items.append((name, text))
        return name

    def matrix(self, stem, row_name, row_axis, col_name, col_axis, values) -> str:
        if self.fmt == "csv":
            return self._add(stem + ".csv", _matrix_csv(row_axis, col_axis, values))
        return self.json(stem + ".json", {
            "row_axis_name": row_name,
            "row_axis": row_axis.tolist(),
            "col_axis_name": col_name,
            "col_axis": col_axis.tolist(),
            "values": values.tolist(),
        })

    def table(self, stem, columns: dict) -> str:
        """``columns`` maps each header, in order, to a typed column."""
        lists = {name: np.asarray(col).tolist() for name, col in columns.items()}
        if self.fmt == "csv":
            return self._add(stem + ".csv", _csv([list(lists), *zip(*lists.values())]))
        return self.json(stem + ".json", lists)

    def json(self, name, payload: dict) -> str:
        return self._add(name, json.dumps(payload, indent=2) + "\n")

    def script(self, name, text):
        if self.plots:
            self._add(name, text)


# ---------------------------------------------------------------------------
# model construction and "auto" resolution


def build_system(cfg: RunConfig) -> ExcitonSystem:
    if cfg.aggregate == "bundled":
        spec = bundled_aggregate()
    else:
        try:
            spec = AggregateSpec.from_json(cfg.aggregate)
        except ValueError as exc:  # JSONDecodeError is one too
            raise ConfigError([("aggregate", f"{cfg.aggregate}: {exc}")]) from exc
    return ExcitonSystem.build(spec, cfg.bath, cfg.polarization)


def describe_source(source) -> dict:
    """The class name and fields of a source, for the run record."""
    return {"kind": type(source).__name__, **dataclasses.asdict(source)}


def _checked_target(cfg: RunConfig, system: ExcitonSystem) -> int:
    if cfg.target >= system.n_two:
        raise ConfigError(
            [("target", f"only {system.n_two} two-exciton states in this aggregate")]
        )
    return cfg.target


def resolve_source(cfg: RunConfig, system: ExcitonSystem):
    """Fill the "auto" source fields from the eigensystem."""
    s = cfg.source
    if s.mode == "coherent":
        center = s.center
        if center == "auto":
            center = 0.5 * float(system.eig.energies_f[_checked_target(cfg, system)])
        return CoherentSource(float(center), s.tau, s.scale)
    if s.t2 < s.t1:
        raise ConfigError([("source.t2", f"must be >= source.t1 = {s.t1} (fs)")])
    omega1, omega2 = s.omega1, s.omega2
    if "auto" in (omega1, omega2):
        lines = system.eig.energies_e[list(bright_pair(system))]
        omega1, omega2 = (float(line) if omega == "auto" else omega
                          for omega, line in zip((omega1, omega2), lines))
    pump = s.pump_center
    if pump == "auto":
        pump = float(system.eig.energies_f[_checked_target(cfg, system)])
    return EppSource(
        omega1=omega1, omega2=omega2, pump_center=pump,
        tau_pump=s.tau_pump, t1=s.t1, t2=s.t2, alpha=s.alpha, e0=s.e0,
    )


def _axis_values(spec, auto_lo: float, auto_hi: float, points: int) -> np.ndarray:
    if spec == "auto":
        return np.linspace(auto_lo, auto_hi, points)
    lo, hi, n = spec
    return np.linspace(lo, hi, n)


def _axis_record(axis: np.ndarray) -> list:
    """``[lo, hi, n]`` of an evenly spaced axis, as a config gives it."""
    return [float(axis[0]), float(axis[-1]), int(axis.size)]


def resolve_detection_axes(cfg: RunConfig, system: ExcitonSystem):
    """Detector-center axes covering the emission lines plus padding."""
    pad, points = cfg.grids.pad, cfg.grids.points
    w_fe = system.eig.omega_fe()
    axis_fe = _axis_values(cfg.grids.omega_fe, w_fe.min() - pad, w_fe.max() + pad, points)
    e = system.eig.energies_e
    axis_eg = _axis_values(cfg.grids.omega_eg, e.min() - pad, e.max() + pad, points)
    return axis_fe, axis_eg


# Clipped negative preparation mass, as a share of the positive mass, above
# which the clipping is reported.  Rounding in the cancelling pathway sums
# leaves negative values near 1e-13 of the positive mass on the bundled
# model; a share of 1e-9 is still far below anything a figure can show.
NEGATIVE_MASS_WARN_RATIO = 1e-9


def _record_floors(poles, run) -> None:
    """The pole table's floored widths per family into the manifest, and a
    note naming the families floored beyond the stationary transport mode."""
    run.resolved["floored_widths"] = dict(poles.floored_widths)
    if poles.regularized:
        run.warnings.append(f"pole table regularized: {', '.join(poles.floored_families)} "
                            f"widths floored to {WIDTH_FLOOR_VALUE:g} cm^-1")


def _preparation_warnings(prep) -> list:
    raw = prep.raw
    negative = -float(raw[raw < 0.0].sum())
    positive = float(raw[raw > 0.0].sum())
    if negative <= NEGATIVE_MASS_WARN_RATIO * positive:
        return []
    ratio = negative / positive if positive > 0.0 else float("inf")
    return [
        f"clipped {int(np.count_nonzero(raw < 0.0))} negative preparation values "
        f"holding {ratio:.3e} of the positive mass (most negative {raw.min():.3e})"
    ]


def _filters(cfg: RunConfig) -> tuple[FilterSpec, FilterSpec]:
    """The (f -> e, e -> g) gate pair: both gates take the config's widths."""
    gate = FilterSpec(cfg.filters.sigma_omega, cfg.filters.sigma_t)
    return gate, gate


# ---------------------------------------------------------------------------
# gnuplot emitters


_GP_COMMON = "set terminal pngcairo size {w},{h}\nset output '{png}'\nset datafile separator comma\n"


def emit_heatmap_script(csv_name: str, png_name: str, xlabel: str, ylabel: str,
                        cblabel: str, title: str = "") -> str:
    head = _GP_COMMON.format(w=960, h=780, png=png_name)
    title_line = f"set title '{title}'\n" if title else ""
    return (
        head + title_line
        + f"set xlabel '{xlabel}'\nset ylabel '{ylabel}'\nset cblabel '{cblabel}'\n"
        + "set view map\n"
        + f"splot '{csv_name}' nonuniform matrix with image notitle\n"
    )


def emit_bar_script(csv_name: str, png_name: str, columns, xlabel: str, ylabel: str) -> str:
    head = _GP_COMMON.format(w=1100, h=620, png=png_name)
    if len(columns) == 1:
        plot = f"plot '{csv_name}' using {columns[0]}:xtic(1) title columnhead\n"
    else:
        lo, hi = columns[0], columns[-1]
        plot = f"plot for [i={lo}:{hi}] '{csv_name}' using i:xtic(1) title columnhead\n"
    return (
        head
        + "set style data histogram\nset style histogram clustered\n"
        + "set style fill solid 0.85 border -1\nset boxwidth 0.9\n"
        + "set xtics rotate by -70 font ',6' nomirror\n"
        + f"set xlabel '{xlabel}'\nset ylabel '{ylabel}'\n"
        + plot
    )


def emit_multiplot_script(csv_names, png_name: str, titles, xlabel: str, ylabel: str) -> str:
    head = _GP_COMMON.format(w=1500, h=950, png=png_name)
    body = [
        "set view map\nunset key\n",
        f"set xlabel '{xlabel}' font ',8'\nset ylabel '{ylabel}' font ',8'\n",
        "set xtics font ',7'\nset ytics font ',7'\n",
        "set multiplot layout 2,3\n",
    ]
    for name, title in zip(csv_names, titles):
        body.append(f"set title '{title}'\n")
        body.append(f"splot '{name}' nonuniform matrix with image notitle\n")
    body.append("unset multiplot\n")
    return head + "".join(body)


# ---------------------------------------------------------------------------
# scenarios


def _run_model_info(cfg, system, sink, run):
    """eigenstate energies, widths and dipole strengths"""
    dm_eg, dm_fe = system.dipoles.magnitudes()
    strength_f = np.sqrt((dm_fe**2).sum(axis=1))
    manifolds = {
        "one_exciton": (system.eig.energies_e, system.transport_one.depopulation, dm_eg),
        "two_exciton": (system.eig.energies_f, system.transport_two.depopulation, strength_f),
    }
    info = {
        "sites": system.aggregate.n_sites,
        "label": system.aggregate.label,
        "bath": cfg.to_dict()["bath"],
        "polarization": list(cfg.polarization),
    }
    for name, (energies, widths, _) in manifolds.items():
        info[name] = {
            "count": int(energies.size),
            "energy_min": float(energies.min()),
            "energy_max": float(energies.max()),
            # a lone state has no gap, and json writes NaN, which is not JSON
            "median_gap": float(np.median(np.diff(energies))) if energies.size > 1 else None,
            "median_depopulation": float(np.median(widths)),
        }
    run.lap("analyze")
    sizes = [energies.size for energies, _, _ in manifolds.values()]
    energies, widths, strengths = map(np.concatenate, zip(*manifolds.values()))
    sink.table("levels", {
        "manifold": np.repeat(list(manifolds), sizes),
        "index": np.concatenate([np.arange(n) for n in sizes]),
        "energy_cm": energies,
        "depopulation_cm": widths,
        "dipole_strength": strengths,
    })
    sink.json("model.json", info)


def _run_jsa(cfg, system, sink, run):
    """joint spectral intensity of the photon-pair source"""
    source = resolve_source(cfg, system)
    if not isinstance(source, EppSource):
        raise ConfigError([("source.mode", "jsa scenario needs an entangled source")])
    run.resolved["source"] = describe_source(source)
    pad, points = cfg.grids.pad, cfg.grids.points
    half_pump = 4.0 * np.sqrt(2.0) / (units.TWO_PI_C * source.tau_pump)
    t_ent = source.entanglement_time
    half_sinc = 3.0 * np.pi / (units.TWO_PI_C * t_ent) if t_ent > 0.0 else 0.0
    half = max(half_pump, half_sinc) + pad
    axis_a = _axis_values(cfg.grids.omega_fe, source.omega1 - half, source.omega1 + half, points)
    axis_b = _axis_values(cfg.grids.omega_eg, source.omega2 - half, source.omega2 + half, points)
    intensity = jsi_map(source, axis_a, axis_b)
    run.lap("evaluate-jsi")
    run.resolved["axes"] = {"omega_a": _axis_record(axis_a), "omega_b": _axis_record(axis_b)}
    sink.matrix("jsi", "omega_a_cm", axis_a, "omega_b_cm", axis_b, intensity)
    sink.json("metadata.json", {"source": run.resolved["source"], "axes": run.resolved["axes"]})
    sink.script("plot_jsi.gp", emit_heatmap_script(
        "jsi.csv", "jsi.png",
        "second photon (cm^-1)", "first photon (cm^-1)",
        "normalized joint intensity",
    ))


def _prepare(cfg, system, run):
    source = resolve_source(cfg, system)
    prep = prepare_closed_form(system, source, t_fs=cfg.time_fs)
    run.resolved["source"] = describe_source(source)
    run.resolved["preparation"] = prep.diagnostics
    _record_floors(system.poles, run)
    run.warnings.extend(_preparation_warnings(prep))
    run.lap("prepare")
    return prep


def _population_table(system, values: dict) -> dict:
    """Shared leading columns, state index and two-exciton energy, then ``values``."""
    return {"state": np.arange(system.n_two), "energy_cm": system.eig.energies_f, **values}


def _run_excite(cfg, system, sink, run):
    """prepared two-exciton distribution for one source"""
    prep = _prepare(cfg, system, run)
    sink.table("populations", _population_table(
        system, {"population": prep.populations, "raw": prep.raw}
    ))
    sink.json("metadata.json", {
        "source": run.resolved["source"],
        "time_fs": cfg.time_fs,
        "regularized": bool(prep.regularized),
        "total_population": float(prep.populations.sum()),
    })
    sink.script("plot_populations.gp", emit_bar_script(
        "populations.csv", "populations.png", [3],
        "two-exciton state", "prepared population",
    ))


def _run_excite_scan(cfg, system, sink, run):
    """preparation map over all scan targets"""
    template = resolve_source(cfg, system)
    if not isinstance(template, EppSource):
        raise ConfigError([("source.mode", "excite-scan needs an entangled source")])
    run.resolved["source"] = describe_source(template)
    targets = None if cfg.targets == "all" else np.asarray(cfg.targets, dtype=int)
    if targets is not None and targets.max(initial=0) >= system.n_two:
        raise ConfigError(
            [("targets", f"only {system.n_two} two-exciton states in this aggregate")]
        )
    scan = scan_targets(system, template, targets, cfg.scan_mode, cfg.time_fs, cfg.threads)
    run.lap("scan")
    _record_floors(system.poles, run)
    run.resolved["scan"] = {"mode": scan.mode, "targets": int(scan.targets.size),
                            "blocks": scan.blocks, "workers": scan.workers,
                            "unsplit_pathways": scan.unsplit_pathways}
    sink.matrix("scan", "target", scan.targets.astype(float),
                "state", np.arange(system.n_two, dtype=float), scan.matrix)
    sink.table("selectivity", {
        "target": scan.targets,
        "energy_cm": scan.target_energies,
        "selectivity": scan.selectivity,
    })
    sink.json("metadata.json", {
        "source_template": run.resolved["source"],
        "mode": scan.mode,
        "time_fs": cfg.time_fs,
        "median_selectivity": float(np.median(scan.selectivity)),
    })
    sink.script("plot_scan.gp", emit_heatmap_script(
        "scan.csv", "scan.png",
        "prepared two-exciton state", "scan target",
        "row-normalized population", f"{scan.mode} targeting",
    ))


def _run_propagate(cfg, system, sink, run):
    """prepared populations relaxing through the bath"""
    prep = _prepare(cfg, system, run)
    times = np.asarray(cfg.snapshot_times, dtype=float)
    rows = population_evolve(system.transport_two, prep.populations, times)
    run.lap("propagate")
    drift = float(np.max(np.abs(rows.sum(axis=1) - prep.populations.sum())))
    if drift > 1e-8 * prep.populations.sum():
        run.warnings.append(f"population trace drifted by {drift:.3e} during propagation")
    sink.table("snapshots", _population_table(
        system, {snapshot_label(t): row for t, row in zip(times, rows)}
    ))
    sink.json("metadata.json", {
        "source": run.resolved["source"],
        "snapshot_times_fs": times.tolist(),
        "initial_total": float(prep.populations.sum()),
        "trace_drift": drift,
    })
    sink.script("plot_snapshots.gp", emit_bar_script(
        "snapshots.csv", "snapshots.png", list(range(3, 3 + times.size)),
        "two-exciton state", "population",
    ))


def _detection(cfg, system, run):
    """Prepared populations, the reference gates and an empty map on the
    detection axes: the set-up every detection scenario shares."""
    prep = _prepare(cfg, system, run)
    axis_fe, axis_eg = resolve_detection_axes(cfg, system)
    grid = SignalGrid(axis_fe, axis_eg, cfg.waiting.t_wait_two, cfg.waiting.t_wait_one)
    return (prep.populations, *_filters(cfg), grid)


# A map whose every cell was clipped has no positive mass, and its
# clipped_fraction is recorded as null.
_NO_POSITIVE_CELL = "the map has no positive cell, so its clipped fraction is null"


def _run_coincidence(cfg, system, sink, run):
    """filtered two-photon coincidence map"""
    populations, filter_fe, filter_eg, grid = _detection(cfg, system, run)
    coincidence_snapshot(system, populations, filter_fe, filter_eg, grid)
    run.lap("snapshot")
    if grid.clipped_cells:
        run.warnings.append(
            f"clipped {grid.clipped_cells} negative interference cells in the map"
        )
    if grid.clipped_fraction is None:
        run.warnings.append(_NO_POSITIVE_CELL)
    run.resolved["clipped_fraction"] = grid.clipped_fraction
    run.resolved["axes"] = {"omega_fe": _axis_record(grid.omega_fe),
                            "omega_eg": _axis_record(grid.omega_eg)}
    sink.matrix("signal", "omega_fe_cm", grid.omega_fe, "omega_eg_cm", grid.omega_eg,
                grid.result)
    sink.json("metadata.json", {
        "source": run.resolved["source"],
        "filters": cfg.filters.to_dict(),
        "waiting": cfg.waiting.to_dict(),
        "axes": run.resolved["axes"],
        "normalization": "max",
    })
    sink.script("plot_signal.gp", emit_heatmap_script(
        "signal.csv", "signal.png",
        "second gate center (cm^-1)", "first gate center (cm^-1)",
        "normalized coincidence rate",
    ))


def _run_panel_study(cfg, system, sink, run):
    """coincidence maps over filter/waiting variations"""
    panels = parameter_study(system, *_detection(cfg, system, run))
    run.lap("panels")
    names, meta = [], {}
    for label, filled in panels.items():
        names.append(sink.matrix(f"panel_{label}", "omega_fe_cm", filled.omega_fe,
                                 "omega_eg_cm", filled.omega_eg, filled.result))
        meta[label] = {
            "t_wait_two": filled.t_wait_two,
            "t_wait_one": filled.t_wait_one,
            "clipped_cells": filled.clipped_cells,
            "clipped_fraction": filled.clipped_fraction,
        }
        if filled.clipped_cells:
            run.warnings.append(
                f"panel {label}: clipped {filled.clipped_cells} negative cells"
            )
        if filled.clipped_fraction is None:
            run.warnings.append(f"panel {label}: {_NO_POSITIVE_CELL}")
    run.resolved["panels"] = list(panels)
    sink.json("panels.json", {
        "source": run.resolved["source"],
        "base_filters": cfg.filters.to_dict(),
        "panels": meta,
    })
    sink.script("plot_panels.gp", emit_multiplot_script(
        names, "panels.png", list(panels),
        "second gate (cm^-1)", "first gate (cm^-1)",
    ))


# One run function per name in config.SCENARIOS; its docstring is the
# scenario's command-line help.
SCENARIO_RUNS = {
    "model-info": _run_model_info,
    "jsa": _run_jsa,
    "excite": _run_excite,
    "excite-scan": _run_excite_scan,
    "propagate": _run_propagate,
    "coincidence": _run_coincidence,
    "panel-study": _run_panel_study,
}


def run_scenario(cfg: RunConfig, out_dir: str | None = None,
                 threads: int | None = None, fmt: str | None = None) -> RunManifest:
    """Execute one scenario and write its artifacts plus a manifest.

    ``out_dir``/``threads``/``fmt`` override the corresponding config
    fields (command-line flags take precedence); with neither a flag nor
    a config value the run uses one thread.  The manifest echoes ``cfg``
    as given and records the settings the run used under ``resolved``.
    Returns the manifest; the manifest file itself is written last.
    """
    given = cfg
    cfg = dataclasses.replace(
        cfg,
        out_dir=out_dir if out_dir is not None else cfg.out_dir,
        threads=threads if threads is not None else (cfg.threads or 1),
        format=fmt if fmt is not None else cfg.format,
    )
    run = RunManifest(
        scenario=cfg.scenario,
        created="",
        versions={
            "excitonscope": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        config=given.to_dict(),
        resolved={"threads": cfg.threads, "format": cfg.format, "out_dir": cfg.out_dir},
    )

    _write_all(cfg.out_dir, [])  # an unusable directory fails before any work
    system = build_system(cfg)
    run.lap("build-model")

    sink = _Sink(cfg.format, cfg.emit_plots)
    SCENARIO_RUNS[cfg.scenario](cfg, system, sink, run)

    _write_all(cfg.out_dir, sink.items)
    run.lap("write-artifacts")
    run.resolved["peak_rss_mb"] = _peak_rss_mb()
    run.created = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    run.artifacts = [name for name, _ in sink.items]
    _write_all(cfg.out_dir, [("manifest.json", run.to_json())])
    return run
