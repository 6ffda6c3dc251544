"""Scenario runner: build the model, execute one scenario, write artifacts.

Every artifact is written atomically (temp file in the target directory,
then rename) and the run manifest is written last, so a manifest on disk
means the artifacts it lists are complete.  Numeric CSV cells use 17
significant digits in scientific notation and a fixed row/column order;
together with index-based reduction of any parallel work this makes the
data artifacts byte-identical for any thread count.

Matrix CSVs use the gnuplot ``nonuniform matrix`` layout: the first row
holds the column count followed by the column coordinates, every other
row starts with its row coordinate.  Table CSVs carry a header row with
column names.  For the ``jsa`` scenario the ``grids.omega_fe`` /
``grids.omega_eg`` overrides (when given) set the first / second photon
axis respectively.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, units
from .aggregate import AggregateSpec
from .coincidence import FilterSpec, SignalGrid, coincidence_snapshot, parameter_study
from .config import ConfigError, RunConfig
from .excitation import ExcitonSystem, describe_source, prepare_closed_form, scan_targets
from .presets import bright_pair, bundled_aggregate
from .propagators import population_evolve
from .sources import CoherentSource, EppSource, jsi_map


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def resolve_threads(explicit: int | None, configured: int | None) -> tuple[int, str | None]:
    """CLI flag > config field > EXCITONSCOPE_THREADS > 1."""
    if explicit is not None:
        return explicit, None
    if configured is not None:
        return configured, None
    env = os.environ.get("EXCITONSCOPE_THREADS")
    if env is not None:
        try:
            value = int(env)
            if value >= 1:
                return value, None
        except ValueError:
            pass
        return 1, f"ignoring invalid EXCITONSCOPE_THREADS={env!r}"
    return 1, None


@dataclass
class RunManifest:
    """Record of one completed run; written after all data artifacts."""

    scenario: str
    created: str
    versions: dict
    config: dict
    resolved: dict
    timings: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


class _Stopwatch:
    def __init__(self):
        self.stages: list = []
        self._mark = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self.stages.append({"stage": stage, "seconds": round(now - self._mark, 6)})
        self._mark = now


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _matrix_csv(row_axis, col_axis, values) -> str:
    cols = [str(len(col_axis))] + [_fmt(c) for c in col_axis]
    lines = [",".join(cols)]
    for coord, row in zip(row_axis, values):
        lines.append(",".join([_fmt(coord)] + [_fmt(v) for v in row]))
    return "\n".join(lines) + "\n"


def _table_csv(headers, columns) -> str:
    """columns is a list of equal-length string lists, one per header."""
    lines = [",".join(headers)]
    for row in zip(*columns):
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _matrix_json(row_name, row_axis, col_name, col_axis, values) -> str:
    payload = {
        "row_axis_name": row_name,
        "row_axis": [float(x) for x in row_axis],
        "col_axis_name": col_name,
        "col_axis": [float(x) for x in col_axis],
        "values": [[float(v) for v in row] for row in values],
    }
    return json.dumps(payload, indent=2) + "\n"


def _table_json(headers, raw_columns) -> str:
    payload = {name: list(col) for name, col in zip(headers, raw_columns)}
    return json.dumps(payload, indent=2) + "\n"


class _Sink:
    """Collects artifacts in order; flushed atomically by run_scenario."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.items: list = []

    def matrix(self, stem, row_name, row_axis, col_name, col_axis, values):
        if self.fmt == "csv":
            self.items.append((stem + ".csv", _matrix_csv(row_axis, col_axis, values)))
        else:
            self.items.append(
                (stem + ".json", _matrix_json(row_name, row_axis, col_name, col_axis, values))
            )

    def table(self, stem, headers, string_columns, raw_columns):
        if self.fmt == "csv":
            self.items.append((stem + ".csv", _table_csv(headers, string_columns)))
        else:
            self.items.append((stem + ".json", _table_json(headers, raw_columns)))

    def json(self, name, payload: dict):
        self.items.append((name, json.dumps(payload, indent=2) + "\n"))

    def script(self, name, text):
        self.items.append((name, text))


# ---------------------------------------------------------------------------
# model construction and "auto" resolution


def build_system(cfg: RunConfig) -> ExcitonSystem:
    if cfg.aggregate == "bundled":
        spec = bundled_aggregate()
    else:
        spec = AggregateSpec.from_json(cfg.aggregate)
    return ExcitonSystem.build(spec, cfg.bath, cfg.polarization)


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
        return CoherentSource.identical(float(center), s.tau, s.scale)
    e1, e2 = bright_pair(system)
    omega1 = float(system.eig.energies_e[e1]) if s.omega1 == "auto" else s.omega1
    omega2 = float(system.eig.energies_e[e2]) if s.omega2 == "auto" else s.omega2
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


def _preparation_warnings(prep) -> list:
    notes = []
    if prep.regularized:
        notes.append("pole table regularized: coherence widths floored to 1e-3 cm^-1")
    raw = prep.raw
    negative = -float(raw[raw < 0.0].sum())
    positive = float(raw[raw > 0.0].sum())
    if negative > NEGATIVE_MASS_WARN_RATIO * positive:
        ratio = negative / positive if positive > 0.0 else float("inf")
        notes.append(
            f"clipped {int(np.count_nonzero(raw < 0.0))} negative preparation values "
            f"holding {ratio:.3e} of the positive mass (most negative {raw.min():.3e})"
        )
    return notes


def _filters(cfg: RunConfig) -> tuple[FilterSpec, FilterSpec]:
    # gate centers are scanned by the grid; the stored centers just seed
    # single-point evaluations.  Gate times follow the waiting times.
    sig_w, sig_t = cfg.filters.sigma_omega, cfg.filters.sigma_t
    w = cfg.waiting
    filter_fe = FilterSpec(0.0, sig_w, w.t_wait_two, sig_t)
    filter_eg = FilterSpec(0.0, sig_w, w.t_wait_two + w.t_wait_one, sig_t)
    return filter_fe, filter_eg


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


def _run_model_info(cfg, system, sink, clock, warnings, resolved, threads):
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
    col_manifold, col_index, col_energy, col_width, col_strength = [], [], [], [], []
    for name, (energies, widths, strengths) in manifolds.items():
        info[name] = {
            "count": int(energies.size),
            "energy_min": float(energies.min()),
            "energy_max": float(energies.max()),
            "median_gap": float(np.median(np.diff(energies))),
            "median_depopulation": float(np.median(widths)),
        }
        for i in range(energies.size):
            col_manifold.append(name)
            col_index.append(str(i))
            col_energy.append(_fmt(energies[i]))
            col_width.append(_fmt(widths[i]))
            col_strength.append(_fmt(strengths[i]))
    clock.lap("analyze")
    sink.table(
        "levels",
        ["manifold", "index", "energy_cm", "depopulation_cm", "dipole_strength"],
        [col_manifold, col_index, col_energy, col_width, col_strength],
        [col_manifold, [int(i) for i in col_index],
         [float(x) for x in col_energy], [float(x) for x in col_width],
         [float(x) for x in col_strength]],
    )
    sink.json("model.json", info)


def _run_jsa(cfg, system, sink, clock, warnings, resolved, threads):
    source = resolve_source(cfg, system)
    if not isinstance(source, EppSource):
        raise ConfigError([("source.mode", "jsa scenario needs an entangled source")])
    resolved["source"] = describe_source(source)
    pad, points = cfg.grids.pad, cfg.grids.points
    half_pump = 4.0 * np.sqrt(2.0) / (units.TWO_PI_C * source.tau_pump)
    t_ent = source.entanglement_time
    half_sinc = 3.0 * np.pi / (units.TWO_PI_C * t_ent) if t_ent > 0.0 else 0.0
    half = max(half_pump, half_sinc) + pad
    axis_a = _axis_values(cfg.grids.omega_fe, source.omega1 - half, source.omega1 + half, points)
    axis_b = _axis_values(cfg.grids.omega_eg, source.omega2 - half, source.omega2 + half, points)
    intensity = jsi_map(source, axis_a, axis_b)
    clock.lap("evaluate-jsi")
    resolved["axes"] = {
        "omega_a": [float(axis_a[0]), float(axis_a[-1]), int(axis_a.size)],
        "omega_b": [float(axis_b[0]), float(axis_b[-1]), int(axis_b.size)],
    }
    sink.matrix("jsi", "omega_a_cm", axis_a, "omega_b_cm", axis_b, intensity)
    sink.json("metadata.json", {"source": resolved["source"], "axes": resolved["axes"]})
    if cfg.emit_plots and sink.fmt == "csv":
        sink.script("plot_jsi.gp", emit_heatmap_script(
            "jsi.csv", "jsi.png",
            "second photon (cm^-1)", "first photon (cm^-1)",
            "normalized joint intensity",
        ))


def _prepare(cfg, system, resolved, warnings):
    source = resolve_source(cfg, system)
    prep = prepare_closed_form(system, source, t_fs=cfg.time_fs)
    resolved["source"] = describe_source(source)
    warnings.extend(_preparation_warnings(prep))
    return prep


def _population_table(system, value_columns):
    """Shared leading columns: state index and two-exciton energy."""
    n = system.n_two
    energies = system.eig.energies_f
    headers = ["state", "energy_cm"]
    strings = [[str(i) for i in range(n)], [_fmt(e) for e in energies]]
    raws = [list(range(n)), [float(e) for e in energies]]
    for name, values in value_columns:
        headers.append(name)
        strings.append([_fmt(v) for v in values])
        raws.append([float(v) for v in values])
    return headers, strings, raws


def _run_excite(cfg, system, sink, clock, warnings, resolved, threads):
    prep = _prepare(cfg, system, resolved, warnings)
    clock.lap("prepare")
    headers, strings, raws = _population_table(
        system, [("population", prep.populations), ("raw", prep.raw)]
    )
    sink.table("populations", headers, strings, raws)
    sink.json("metadata.json", {
        "source": resolved["source"],
        "time_fs": cfg.time_fs,
        "regularized": bool(prep.regularized),
        "total_population": float(prep.populations.sum()),
    })
    if cfg.emit_plots and sink.fmt == "csv":
        sink.script("plot_populations.gp", emit_bar_script(
            "populations.csv", "populations.png", [3],
            "two-exciton state", "prepared population",
        ))


def _run_excite_scan(cfg, system, sink, clock, warnings, resolved, threads):
    template = resolve_source(cfg, system)
    if not isinstance(template, EppSource):
        raise ConfigError([("source.mode", "excite-scan needs an entangled source")])
    resolved["source"] = describe_source(template)
    targets = None if cfg.targets == "all" else np.asarray(cfg.targets, dtype=int)
    if targets is not None and targets.max(initial=0) >= system.n_two:
        raise ConfigError(
            [("targets", f"only {system.n_two} two-exciton states in this aggregate")]
        )
    scan = scan_targets(system, template, targets, cfg.scan_mode, cfg.time_fs, threads)
    clock.lap("scan")
    if scan.regularized:
        warnings.append("pole table regularized: coherence widths floored to 1e-3 cm^-1")
    resolved["scan"] = {"mode": scan.mode, "targets": int(scan.targets.size)}
    sink.matrix("scan", "target", scan.targets.astype(float),
                "state", np.arange(system.n_two, dtype=float), scan.matrix)
    sink.table(
        "selectivity",
        ["target", "energy_cm", "selectivity"],
        [[str(t) for t in scan.targets],
         [_fmt(e) for e in scan.target_energies],
         [_fmt(s) for s in scan.selectivity]],
        [[int(t) for t in scan.targets],
         [float(e) for e in scan.target_energies],
         [float(s) for s in scan.selectivity]],
    )
    sink.json("metadata.json", {
        "source_template": resolved["source"],
        "mode": scan.mode,
        "time_fs": scan.time_fs,
        "median_selectivity": float(np.median(scan.selectivity)),
    })
    if cfg.emit_plots and sink.fmt == "csv":
        sink.script("plot_scan.gp", emit_heatmap_script(
            "scan.csv", "scan.png",
            "prepared two-exciton state", "scan target",
            "row-normalized population", f"{scan.mode} targeting",
        ))


def _run_propagate(cfg, system, sink, clock, warnings, resolved, threads):
    prep = _prepare(cfg, system, resolved, warnings)
    clock.lap("prepare")
    times = np.asarray(cfg.snapshot_times, dtype=float)
    rows = population_evolve(system.transport_two, prep.populations, times)
    clock.lap("propagate")
    drift = float(np.max(np.abs(rows.sum(axis=1) - prep.populations.sum())))
    if drift > 1e-8 * max(prep.populations.sum(), 1.0):
        warnings.append(f"population trace drifted by {drift:.3e} during propagation")
    value_columns = [(f"p_{t:g}fs", rows[k]) for k, t in enumerate(times)]
    headers, strings, raws = _population_table(system, value_columns)
    sink.table("snapshots", headers, strings, raws)
    sink.json("metadata.json", {
        "source": resolved["source"],
        "snapshot_times_fs": [float(t) for t in times],
        "initial_total": float(prep.populations.sum()),
        "trace_drift": drift,
    })
    if cfg.emit_plots and sink.fmt == "csv":
        cols = list(range(3, 3 + times.size))
        sink.script("plot_snapshots.gp", emit_bar_script(
            "snapshots.csv", "snapshots.png", cols,
            "two-exciton state", "population",
        ))


def _run_coincidence(cfg, system, sink, clock, warnings, resolved, threads):
    prep = _prepare(cfg, system, resolved, warnings)
    clock.lap("prepare")
    axis_fe, axis_eg = resolve_detection_axes(cfg, system)
    filter_fe, filter_eg = _filters(cfg)
    grid = SignalGrid(axis_fe, axis_eg, cfg.waiting.t_wait_two, cfg.waiting.t_wait_one)
    coincidence_snapshot(system, prep.populations, filter_fe, filter_eg, grid)
    clock.lap("snapshot")
    if grid.clipped_cells:
        warnings.append(
            f"clipped {grid.clipped_cells} negative interference cells in the map"
        )
    resolved["axes"] = {
        "omega_fe": [float(axis_fe[0]), float(axis_fe[-1]), int(axis_fe.size)],
        "omega_eg": [float(axis_eg[0]), float(axis_eg[-1]), int(axis_eg.size)],
    }
    sink.matrix("signal", "omega_fe_cm", axis_fe, "omega_eg_cm", axis_eg, grid.result)
    sink.json("metadata.json", {
        "source": resolved["source"],
        "filters": cfg.filters.to_dict(),
        "waiting": cfg.waiting.to_dict(),
        "axes": resolved["axes"],
        "normalization": "max",
    })
    if cfg.emit_plots and sink.fmt == "csv":
        sink.script("plot_signal.gp", emit_heatmap_script(
            "signal.csv", "signal.png",
            "second gate center (cm^-1)", "first gate center (cm^-1)",
            "normalized coincidence rate",
        ))


def _run_panel_study(cfg, system, sink, clock, warnings, resolved, threads):
    prep = _prepare(cfg, system, resolved, warnings)
    clock.lap("prepare")
    axis_fe, axis_eg = resolve_detection_axes(cfg, system)
    filter_fe, filter_eg = _filters(cfg)
    grid = SignalGrid(axis_fe, axis_eg, cfg.waiting.t_wait_two, cfg.waiting.t_wait_one)
    panels = parameter_study(system, prep.populations, filter_fe, filter_eg, grid)
    clock.lap("panels")
    names, meta = [], {}
    for label, filled in panels.items():
        stem = f"panel_{label}"
        names.append(stem + (".csv" if sink.fmt == "csv" else ".json"))
        sink.matrix(stem, "omega_fe_cm", filled.omega_fe, "omega_eg_cm",
                    filled.omega_eg, filled.result)
        meta[label] = {
            "t_wait_two": filled.t_wait_two,
            "t_wait_one": filled.t_wait_one,
            "clipped_cells": filled.clipped_cells,
        }
        if filled.clipped_cells:
            warnings.append(
                f"panel {label}: clipped {filled.clipped_cells} negative cells"
            )
    resolved["panels"] = list(panels)
    sink.json("panels.json", {
        "source": resolved["source"],
        "base_filters": cfg.filters.to_dict(),
        "panels": meta,
    })
    if cfg.emit_plots and sink.fmt == "csv":
        sink.script("plot_panels.gp", emit_multiplot_script(
            names, "panels.png", list(panels),
            "second gate (cm^-1)", "first gate (cm^-1)",
        ))


_SCENARIOS = {
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
    fields (command-line flags take precedence).  Returns the manifest;
    the manifest file itself is written last.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    fmt = fmt if fmt is not None else cfg.format
    n_threads, thread_note = resolve_threads(threads, cfg.threads)

    clock = _Stopwatch()
    warnings: list = []
    if thread_note:
        warnings.append(thread_note)
    resolved: dict = {"threads": n_threads, "format": fmt, "out_dir": out}

    system = build_system(cfg)
    clock.lap("build-model")

    sink = _Sink(fmt)
    _SCENARIOS[cfg.scenario](cfg, system, sink, clock, warnings, resolved, n_threads)

    os.makedirs(out, exist_ok=True)
    for name, text in sink.items:
        _atomic_write(os.path.join(out, name), text)
    clock.lap("write-artifacts")

    manifest = RunManifest(
        scenario=cfg.scenario,
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        versions={
            "excitonscope": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        config=cfg.to_dict(),
        resolved=resolved,
        timings=clock.stages,
        warnings=warnings,
        artifacts=[name for name, _ in sink.items],
    )
    _atomic_write(os.path.join(out, "manifest.json"), manifest.to_json())
    return manifest
