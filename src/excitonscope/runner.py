"""Scenario runner: build the model, execute one scenario, write artifacts.

Artifacts are written only once the whole scenario has run.  The write
phase first removes the previous run's ``manifest.json``, then writes
each artifact to a temporary file in the target directory, unlinks the
old artifact and renames the temporary into place, and writes the new
manifest last.  So a manifest on disk means the artifacts it lists are
complete and of one run, and an artifact being replaced can be briefly
absent but is never seen partial; a run that fails before its write
phase leaves the files in the directory as they were.  Nothing is
synced to disk.

Numeric CSV cells use 17 significant digits in scientific notation and
a fixed row/column order; together with index-based reduction of any
parallel work this makes the data artifacts byte-identical for any
thread count.

Every cell of a CSV matrix is exactly C's ``%.16e`` of its double.  A
vectorized formatter writes them all at once, as ASCII bytes that go to
disk unchanged: the 17-digit integer comes from an error-free product of
the value with a double-double power of ten, and the few cells whose
rounding it cannot prove (ties and near ties, values a few ulps above a
power of ten, non-finite values) go through ``%`` one by one.  A block
of cells that all print at one width, as a map of non-negative values
with two-digit exponents does, is written straight into the output;
any other block is padded to the widest cell and compressed.  Table
cells, a few hundred per table, go through ``_fmt``.

Matrix CSVs use the gnuplot ``nonuniform matrix`` layout: the first row
holds the column count followed by the column coordinates, every other
row starts with its row coordinate.  Table CSVs carry a header row with
column names.  For the ``jsa`` scenario the ``grids.omega_fe`` /
``grids.omega_eg`` overrides (when given) set the first / second photon
axis respectively.
"""

from __future__ import annotations

import contextlib
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
from .coincidence import (DivergentGateError, FilterSpec, SignalGrid, coincidence_snapshot,
                          parameter_study)
from .config import ConfigError, RunConfig, read_json, snapshot_label
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


def _atomic_write(path: str, data) -> None:
    """Writes ``data``, a str as UTF-8 or bytes-like as it is, to ``path``
    through a temporary file in the same directory: once the temporary is
    whole, the old file is unlinked and the temporary renamed into place,
    so ``path`` is briefly absent but never partial."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    data = memoryview(data)
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
        # a rename onto an existing file makes ext4 (auto_da_alloc) start
        # writing the new file back at once: 157 us for a 400 KB artifact on
        # a 2-vCPU VM, against 19 us for an unlink and a rename onto no file
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_all(out: str, items, remove=()) -> None:
    """Removes each name of ``remove`` from ``out`` where present, then
    writes each ``(name, data)`` into ``out``, made if missing; a
    directory that cannot be made or written is an error at ``out_dir``.
    With no items and nothing to remove it only makes and checks ``out``."""
    try:
        os.makedirs(out, exist_ok=True)
        if not os.access(out, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        for name in remove:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out, name))
        for name, data in items:
            _atomic_write(os.path.join(out, name), data)
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
# Exponents the digit path can give: those of doubles, -324 to 308, and
# one more either way where it leaves a value unproven.
_EXP_MAX = 999


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


def _e16_fields(mag: np.ndarray) -> tuple:
    """The 17 digits ``d`` and the exponent ``e`` of each magnitude of
    ``mag`` (both 0 for zero, inf and nan), from ``_e16_digits`` on the
    finite nonzero ones alone, and the indices of the values that ``%``
    must print: inf, nan and those ``_e16_digits`` leaves unproven."""
    d = np.zeros(mag.size, np.int64)
    e = np.zeros(mag.size, np.int64)
    slow = ~(mag < np.inf)  # True on inf and nan
    live = np.flatnonzero((mag > 0.0) & ~slow)
    if live.size:
        d[live], e[live], unproven = _e16_digits(mag[live])
        slow[live[unproven]] = True
    return d, e, np.flatnonzero(slow)


@functools.cache
def _exponent_table(width: int) -> np.ndarray:
    """"e", the sign and the digits of each exponent e in [-_EXP_MAX,
    _EXP_MAX] as one ``width``-byte item at index e + _EXP_MAX, read-only:
    width 4 holds the last two digits, width 5 three, the hundreds a 0
    byte below 100."""
    text = "".join(f"e{k:+04d}" for k in range(-_EXP_MAX, _EXP_MAX + 1)).encode("ascii")
    table = np.frombuffer(text, np.uint8).reshape(-1, 5).copy()
    table[table[:, 2] == ord("0"), 2] = 0
    if width == 4:
        table = np.ascontiguousarray(table[:, [0, 1, 3, 4]])
    table = table.view(np.dtype((np.void, width)))[:, 0]
    table.setflags(write=False)
    return table


def _copy_rows(out: np.ndarray, src: np.ndarray) -> None:
    """``out[:] = src`` for an (n, k) byte array ``out`` whose rows are
    contiguous and a contiguous ``src`` of n·k bytes, as n k-byte items:
    numpy copies a row of a few bytes as one item far faster than byte
    by byte (3 against 21 us for 4000 rows of 16 bytes)."""
    item = np.dtype((np.void, out.shape[1]))
    out.view(item)[:, 0] = src.reshape(len(out), -1).view(item)[:, 0]


def _put_digits(d: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """"d.dddddddddddddddd" into the first 18 columns of ``out`` and the
    exponent, from ``_exponent_table``, into the 4 or 5 after them.  The
    16 digits after the point are four four-digit groups from the digit
    table, cut from two 32-bit halves."""
    hi = d // 10**8
    lead = hi // 10**8
    halves = np.empty((d.size, 2), np.int32)
    halves[:, 0] = hi - lead * 10**8
    halves[:, 1] = d - hi * 10**8
    top = halves // 10000
    groups = np.stack([top, halves - top * 10000], axis=2)
    out[:, 0] = lead + 48
    out[:, 1] = ord(".")
    _copy_rows(out[:, 2:18], np.take(_digit_table(), groups))
    _copy_rows(out[:, 18:], np.take(_exponent_table(out.shape[1] - 18), e + _EXP_MAX))


def _put_slow(x: np.ndarray, slow: np.ndarray, out: np.ndarray) -> None:
    """``"%.16e" % x`` of the values at ``slow``, left-aligned into their
    rows of ``out``, the rest of each row's bytes set to 0."""
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        text = ("%.16e" % value).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)


def _e16_cells(x: np.ndarray) -> np.ndarray:
    """Each double of ``x`` as ``"%.16e" % x``: one ``_CELL``-byte row per
    value, its text with 0 bytes as padding and the last byte left 0.
    Digits are computed for finite nonzero values only; zeros print from
    digits 0, and inf, nan and unproven values go through ``%``.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    d, e, slow = _e16_fields(np.abs(x))
    cells = np.zeros((x.size, _CELL), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    _put_digits(d, e, cells[:, 1:-1])
    _put_slow(x, slow, cells[:, :-1])
    return cells


def _is_narrow(x: np.ndarray) -> bool:
    """Whether every double of ``x`` prints ``_NARROW - 1`` bytes wide,
    with no sign and a two-digit exponent: +0.0, or a value in [1e-99,
    1e100).  The doubles just below those bounds print
    9.9999999999999982e-100 and 9.9999999999999982e+99."""
    return bool((((x >= 1e-99) & (x < 1e100)) | ((x == 0.0) & ~np.signbit(x))).all())


def _put_grid(grid: np.ndarray, text: np.ndarray) -> int:
    """The CSV bytes of ``grid`` into the uint8 array ``text``, a block of
    rows at a time; returns their length.  A block whose every value
    prints at one width, as in every map of non-negative values with
    two-digit exponents, is written straight into ``text``; any other
    goes through ``_e16_cells`` and drops its padding."""
    end = 0
    step = max(1, _BLOCK_CELLS // grid.shape[1])
    for start in range(0, grid.shape[0], step):
        block = grid[start:start + step]
        x = block.ravel()
        narrow = _is_narrow(x)
        if narrow:
            cells = text[end:end + x.size * _NARROW].reshape(*block.shape, _NARROW)
            rows = cells.reshape(-1, _NARROW)[:, :-1]
            d, e, slow = _e16_fields(x)
            _put_digits(d, e, rows)
            _put_slow(x, slow, rows)
        else:
            cells = _e16_cells(x).reshape(*block.shape, _CELL)
        cells[:, :-1, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        if not narrow:
            cells = cells[cells != 0]
            text[end:end + cells.size] = cells
        end += cells.size
    return end


def _matrix_csv(row_axis, col_axis, values) -> bytearray:
    """Column count and axis, then each row's axis value and cells, as
    ASCII bytes: every float byte for byte as ``"%.16e" % x``."""
    grid = np.zeros((len(row_axis) + 1, len(col_axis) + 1))
    grid[0, 1:] = col_axis
    grid[1:, 0] = row_axis
    grid[1:, 1:] = values
    text = bytearray(grid.size * _CELL)
    # the array on text is gone once _put_grid returns, so text can shrink
    del text[_put_grid(grid, np.frombuffer(text, np.uint8)):]
    # the corner's 0.0 gives way to the column count; cutting the head of
    # a bytearray moves its start, not its bytes
    text[:_ZERO] = str(len(col_axis)).encode("ascii")
    return text


class _Sink:
    """Collects artifacts in order; flushed atomically by run_scenario.

    Plot scripts go with CSV data only, and only when ``emit_plots`` asks
    for them.
    """

    def __init__(self, fmt: str, emit_plots: bool):
        self.fmt = fmt
        self.plots = emit_plots and fmt == "csv"
        self.items: list = []

    def _add(self, name: str, data) -> str:
        """``data`` is text, or the ASCII bytes of a matrix."""
        self.items.append((name, data))
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
        raw = read_json(cfg.aggregate, "aggregate")
        try:
            spec = AggregateSpec.from_dict(raw)
        except ValueError as exc:
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
    try:
        SCENARIO_RUNS[cfg.scenario](cfg, system, sink, run)
    except DivergentGateError as exc:  # a gate pair the config chose, map or panel
        raise ConfigError([("filters", str(exc))]) from exc

    # the old manifest certified the artifacts about to be replaced
    _write_all(cfg.out_dir, sink.items, remove=["manifest.json"])
    run.lap("write-artifacts")
    run.resolved["peak_rss_mb"] = _peak_rss_mb()
    run.created = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    run.artifacts = [name for name, _ in sink.items]
    _write_all(cfg.out_dir, [("manifest.json", json.dumps(run.to_dict(), indent=2) + "\n")])
    return run
