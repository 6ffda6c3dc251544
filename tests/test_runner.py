import errno
import json
import math
import os
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonscope import PreparationResult, bath, coincidence, excitation, propagators, runner, sources
from excitonscope.config import SCENARIOS, ConfigError, from_dict
from excitonscope.runner import (
    NEGATIVE_MASS_WARN_RATIO,
    _fmt,
    _matrix_csv,
    _preparation_warnings,
    run_scenario,
)

from conftest import make_dimer


@pytest.fixture(scope="module")
def dimer_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "dimer.json"
    path.write_text(json.dumps(make_dimer().to_dict()))
    return str(path)


def dimer_config(dimer_file, scenario, **overrides):
    raw = {
        "scenario": scenario,
        "aggregate": dimer_file,
        "target": 1,
        "grids": {"points": 17},
        "source": {"t2": 20.0, "tau_pump": 120.0},
    }
    raw.update(overrides)
    return from_dict(raw)


def run_into(tmp_path, dimer_file, scenario, subdir="out", **overrides):
    cfg = dimer_config(dimer_file, scenario, **overrides)
    out = str(tmp_path / subdir)
    manifest = run_scenario(cfg, out_dir=out)
    return manifest, out


def test_threads_are_the_flag_else_the_config_else_one(tmp_path, dimer_file, monkeypatch):
    # a one-byte budget makes one block per target, so workers shows the count
    monkeypatch.setattr(excitation, "BLOCK_BYTES", 1)
    monkeypatch.setenv("EXCITONSCOPE_THREADS", "4")  # the environment sets no thread count
    for subdir, configured, flag, expected in [("none", None, None, 1), ("config", 2, None, 2),
                                               ("flag", 2, 3, 3)]:
        cfg = dimer_config(dimer_file, "excite-scan", threads=configured)
        manifest = run_scenario(cfg, out_dir=str(tmp_path / subdir), threads=flag)
        assert manifest.config["threads"] == configured
        assert manifest.resolved["threads"] == expected
        assert manifest.resolved["scan"]["workers"] == expected
        assert manifest.warnings == []


def test_matrix_csv_layout_round_trips():
    rows = np.array([1.0, 2.0, 3.0])
    cols = np.array([10.0, 20.0])
    values = np.array([[1.5, -2.5e-17], [0.0, 4.0], [np.pi, 1e300]])
    text = _matrix_csv(rows, cols, values).decode("ascii")
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    # gnuplot nonuniform matrix: first cell is the column count
    assert int(header[0]) == cols.size
    assert [float(x) for x in header[1:]] == list(cols)
    for k, line in enumerate(lines[1:]):
        cells = [float(x) for x in line.split(",")]
        assert cells[0] == rows[k]
        assert cells[1:] == list(values[k])  # 17 significant digits round-trip


def test_fmt_preserves_doubles():
    for x in (np.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.1 + 0.2):
        assert float(_fmt(x)) == x


def per_row_matrix_csv(row_axis, col_axis, values) -> bytes:
    """The matrix writer before the vectorized one, as the reference: the
    column count as text and every double through one ``%`` per row."""
    row = ",".join(["%.16e"] * (len(col_axis) + 1)) + "\n"
    head = ",".join([str(len(col_axis)), *("%.16e" % c for c in col_axis.tolist())]) + "\n"
    text = head + "".join(row % (r, *v.tolist()) for r, v in zip(row_axis.tolist(), values))
    return text.encode("ascii")


def e16_texts(values) -> list:
    cells = runner._e16_cells(np.asarray(values, dtype=float))
    cells[:, -1] = ord("\n")
    return cells[cells != 0].tobytes().decode("ascii").splitlines()


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_matrix_cells_are_printf_e16(values):
    assert e16_texts(values) == ["%.16e" % v for v in values]


def _is_tie(x: float) -> bool:
    """Whether the 17-digit rounding of ``x`` is exactly half-way."""
    exact = Fraction(abs(x))
    e = len(str(int(exact * 10**400))) - 401  # floor(log10 |x|), exactly
    scaled = exact * Fraction(10) ** (16 - e)
    return scaled - int(scaled) == Fraction(1, 2)


# 1.00612640380859375e-04 rounds up, 1.01566314697265625e-04 and
# 2.98023223876953125e-08 (2**-25) down to the even digit
TIES = [float.fromhex("0x1.a6p-14"), float.fromhex("0x1.aap-14"), 2.0**-25]
# the doubles nearest these powers of ten lie below them and print as them
CARRIES = [1e-79, 1e-14, 1e98]
# these lie below their powers of ten too, by more than half a 17th digit
# (9.9999999999999995e-07, ...), yet their log10 rounds to the power
BELOW_POWERS = [1e-6, 1e-12, 1e24]
POWERS = [1.0, 10.0, 1e16, 1e17, 1e22, 1e23, 0.1, 1e-4, 1e-5, 1e300, 1e-300]
# the powers of ten either side of the exponents beyond which values are
# scaled by a power of two, subnormals and the largest double
SCALE_EDGES = [float(f"1e{k}") for k in (-runner._SCALE_EXP - 1, -runner._SCALE_EXP,
                                          runner._SCALE_EXP, runner._SCALE_EXP + 1)]
RANGE_EDGES = SCALE_EDGES + [5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]


def test_matrix_cell_edge_cases_are_printf_e16():
    assert all(_is_tie(x) for x in TIES)
    for x in CARRIES:
        assert Fraction(x) < Fraction(10) ** int(round(np.log10(x)))
        assert ("%.16e" % x).startswith("1.0000000000000000e")
    near = [math.nextafter(x, toward) for x in POWERS + RANGE_EDGES for toward in (0.0, math.inf)]
    values = TIES + CARRIES + BELOW_POWERS + POWERS + RANGE_EDGES + near
    values += [0.0, np.inf, np.nan, 2.5, 0.125]
    values += [-v for v in values]
    assert e16_texts(values) == ["%.16e" % v for v in values]
    assert e16_texts([-0.0]) == ["-0.0000000000000000e+00"]


def test_digit_path_proves_magnitudes_beyond_the_scaling_edges():
    """Subnormals and the largest doubles take the digit path, not ``%``."""
    values = np.array([5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 3e-300, 7e-282,
                       1.5e281, 3.7e300, 1.7976931348623157e308])
    d, e, unproven = runner._e16_digits(values)
    assert not unproven.any()
    texts = [f"{k // 10**16}.{k % 10**16:016d}e{x:+03d}" for k, x in zip(d.tolist(), e.tolist())]
    assert texts == ["%.16e" % v for v in values]


# exponents of -100, -99, 99 and 100, either side of their powers of ten
EXPONENT_EDGES = [math.nextafter(x, toward) for x in (1e-100, 1e-99, 1e99, 1e100)
                  for toward in (0.0, math.inf)] + [1e-100, 1e-99, 1e99, 1e100]
# cells that print at one width: non-negative, with two-digit exponents,
# mixed with ties and values a few ulps above a power of ten, which print
# at that width too but through ``%``
NARROW_CELLS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-99, max_value=9.9e99),
    st.sampled_from(TIES + CARRIES + BELOW_POWERS + [math.nextafter(10.0**k, math.inf)
                                                     for k in (-99, -5, 0, 7, 98)]),
)
ANY_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EXPONENT_EDGES + [-x for x in EXPONENT_EDGES] + [-0.0, 5e-324, 1e-310]),
)


@given(st.data(), st.integers(1, 5), st.integers(1, 5), st.sampled_from([1, 7, 4096]))
@settings(max_examples=300, deadline=None)
def test_matrix_csv_cells_are_printf_e16(data, n_rows, n_cols, block_cells):
    """Grid rows of one width and of mixed widths, alone or in one block."""
    grid = np.array([data.draw(st.lists(NARROW_CELLS if narrow else ANY_CELLS,
                                        min_size=n_cols + 1, max_size=n_cols + 1))
                     for narrow in data.draw(st.lists(st.booleans(), min_size=n_rows + 1,
                                                      max_size=n_rows + 1))])
    with mock.patch.object(runner, "_BLOCK_CELLS", block_cells):
        text = _matrix_csv(grid[1:, 0], grid[0, 1:], grid[1:, 1:]).decode("ascii")
    expected = [[str(n_cols), *("%.16e" % x for x in grid[0, 1:])]]
    expected += [["%.16e" % x for x in row] for row in grid[1:]]
    assert text.endswith("\n")
    assert [line.split(",") for line in text.splitlines()] == expected


@pytest.mark.parametrize(
    "scenario,expected",
    [
        ("model-info", {"levels.csv", "model.json"}),
        ("jsa", {"jsi.csv", "metadata.json", "plot_jsi.gp"}),
        ("excite", {"populations.csv", "metadata.json", "plot_populations.gp"}),
        ("excite-scan", {"scan.csv", "selectivity.csv", "metadata.json", "plot_scan.gp"}),
        ("propagate", {"snapshots.csv", "metadata.json", "plot_snapshots.gp"}),
        ("coincidence", {"signal.csv", "metadata.json", "plot_signal.gp"}),
        (
            "panel-study",
            {
                "panel_reference.csv",
                "panel_sigma_omega_20.csv",
                "panel_t_wait_one_1000.csv",
                "panel_sigma_omega_20_t_wait_one_1000.csv",
                "panel_sigma_t_0.5409.csv",
                "panel_t_wait_two_50.csv",
                "panels.json",
                "plot_panels.gp",
            },
        ),
    ],
)
def test_scenario_artifact_inventory(tmp_path, dimer_file, scenario, expected):
    manifest, out = run_into(tmp_path, dimer_file, scenario)
    on_disk = set(os.listdir(out))
    assert on_disk == expected | {"manifest.json"}
    assert set(manifest.artifacts) == expected
    # no leftover temp files from the atomic writes
    assert not [n for n in on_disk if n.startswith(".tmp-")]


# transport eigendecompositions a run builds: the one-exciton one for a run
# that prepares populations, none for a run that does not
DECOMPOSED = {"model-info": 0, "jsa": 0, "excite": 1, "excite-scan": 1, "propagate": 1,
              "coincidence": 1, "panel-study": 1}


def test_runs_decompose_only_the_manifolds_they_read(tmp_path, dimer_file, monkeypatch):
    # a preparation reads the one-exciton transport modes; propagation and
    # detection read only the rate matrices
    assert set(DECOMPOSED) == set(SCENARIOS)
    calls = []
    original = bath.eigendecompose_transport
    monkeypatch.setattr(bath, "eigendecompose_transport",
                        lambda *args: calls.append(args) or original(*args))
    for scenario, count in DECOMPOSED.items():
        calls.clear()
        run_into(tmp_path, dimer_file, scenario, subdir=scenario)
        assert len(calls) == count, scenario


def test_manifest_contents(tmp_path, dimer_file):
    manifest, out = run_into(tmp_path, dimer_file, "excite")
    with open(os.path.join(out, "manifest.json")) as fh:
        data = json.load(fh)
    assert data["scenario"] == "excite"
    assert data["config"]["aggregate"] == dimer_file
    assert data["resolved"]["threads"] == 1
    assert data["resolved"]["peak_rss_mb"] > 1.0
    preparation = data["resolved"]["preparation"]
    assert list(preparation["pathway_abs_sums"]) == ["p1", "p2", "p3", "p4", "p5"]
    assert 0.0 < preparation["cancellation_ratio"] <= 1.0
    # the stationary transport mode is the one floored width
    assert data["resolved"]["floored_widths"] == {
        "eg": 0, "fg": 0, "fe": 0, "ee": 0, "ff": 0, "modes": 1,
    }
    assert data["warnings"] == []
    assert {t["stage"] for t in data["timings"]} >= {"build-model", "write-artifacts"}
    assert set(data["versions"]) == {"excitonscope", "python", "numpy"}
    assert data["artifacts"] == manifest.artifacts


def test_scan_manifest_records_blocks_workers_and_peak_rss(tmp_path, dimer_file, monkeypatch):
    # the dimer's three targets fit one block, which runs inline whatever
    # the thread count; a one-byte budget makes one block per target, and
    # two threads then evaluate them
    def scan_record(subdir):
        cfg = dimer_config(dimer_file, "excite-scan")
        run_scenario(cfg, out_dir=str(tmp_path / subdir), threads=2)
        return json.loads(Path(tmp_path, subdir, "manifest.json").read_text())["resolved"]

    one = scan_record("one")
    assert one["scan"] == {"mode": "degenerate", "targets": 3, "blocks": 1, "workers": 1,
                           "unsplit_pathways": []}
    monkeypatch.setattr(excitation, "BLOCK_BYTES", 1)
    split = scan_record("split")
    assert split["scan"] == {"mode": "degenerate", "targets": 3, "blocks": 3, "workers": 2,
                             "unsplit_pathways": []}
    rows = [Path(tmp_path, subdir, "scan.csv").read_bytes() for subdir in ("one", "split")]
    assert rows[0] == rows[1]
    for resolved in (one, split):
        assert isinstance(resolved["peak_rss_mb"], float) and resolved["peak_rss_mb"] > 1.0


def test_plot_scripts_reference_artifacts(tmp_path, dimer_file):
    _, out = run_into(tmp_path, dimer_file, "coincidence")
    script = Path(out, "plot_signal.gp").read_text()
    assert "signal.csv" in script
    assert "nonuniform matrix" in script
    assert "signal.png" in script


def test_clipped_fraction_recorded(tmp_path, dimer_file):
    _, out = run_into(tmp_path, dimer_file, "coincidence")
    resolved = json.loads(Path(out, "manifest.json").read_text())["resolved"]
    assert isinstance(resolved["clipped_fraction"], float)
    _, out = run_into(tmp_path, dimer_file, "panel-study", subdir="panels")
    panels = json.loads(Path(out, "panels.json").read_text())["panels"]
    for meta in panels.values():
        assert (meta["clipped_fraction"] > 0.0) == (meta["clipped_cells"] > 0)


def test_json_format_emits_json_artifacts(tmp_path, dimer_file):
    manifest, out = run_into(tmp_path, dimer_file, "coincidence", format="json")
    assert "signal.json" in manifest.artifacts
    assert not [n for n in manifest.artifacts if n.endswith(".gp")]
    with open(os.path.join(out, "signal.json")) as fh:
        payload = json.load(fh)
    assert payload["row_axis_name"] == "omega_fe_cm"
    assert len(payload["values"]) == len(payload["row_axis"])


def test_emit_plots_off_drops_scripts(tmp_path, dimer_file):
    manifest, _ = run_into(tmp_path, dimer_file, "excite", emit_plots=False)
    assert set(manifest.artifacts) == {"populations.csv", "metadata.json"}


def test_default_target_out_of_range_on_dimer(tmp_path, dimer_file):
    cfg = dimer_config(dimer_file, "excite", target=7)
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg, out_dir=str(tmp_path / "x"))
    assert err.value.fields == ("target",)


def test_scan_targets_out_of_range_on_dimer(tmp_path, dimer_file):
    cfg = dimer_config(dimer_file, "excite-scan", targets=[0, 5])
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg, out_dir=str(tmp_path / "x"))
    assert err.value.fields == ("targets",)


def test_unreadable_aggregate_is_a_config_error(tmp_path, dimer_file):
    # the file was there when the config was read, and is gone at the run
    cfg = replace(dimer_config(dimer_file, "model-info"), aggregate=str(tmp_path / "gone.json"))
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg, out_dir=str(tmp_path / "x"))
    assert err.value.fields == ("aggregate",)


@pytest.mark.parametrize("scenario", ["jsa", "excite-scan"])
def test_jsa_requires_entangled_source(tmp_path, dimer_file, scenario):
    cfg = dimer_config(dimer_file, scenario, source={"mode": "coherent"})
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg, out_dir=str(tmp_path / "x"))
    assert err.value.fields == ("source.mode",)


def test_scan_csv_identical_across_thread_counts(tmp_path, dimer_file):
    cfg = dimer_config(dimer_file, "excite-scan")
    run_scenario(cfg, out_dir=str(tmp_path / "serial"), threads=1)
    run_scenario(cfg, out_dir=str(tmp_path / "pooled"), threads=4)
    for name in ("scan.csv", "selectivity.csv"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "pooled" / name).read_bytes()
        assert a == b


def test_propagate_snapshot_columns(tmp_path, dimer_file):
    manifest, out = run_into(
        tmp_path, dimer_file, "propagate", snapshot_times=[50.0, 100.0, 250.0, 1000.0]
    )
    lines = Path(out, "snapshots.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["state", "energy_cm"]
    assert header[2:] == ["p_50fs", "p_100fs", "p_250fs", "p_1000fs"]
    assert len(lines) == 1 + 3  # dimer has three two-exciton states


def test_propagate_drift_warning_is_relative_to_the_initial_total(tmp_path, dimer_file,
                                                                   monkeypatch):
    # a weak pump prepares a total far below 1; a 1e-6 relative drift of it
    # must still warn
    evolve = runner.population_evolve
    monkeypatch.setattr(runner, "population_evolve",
                        lambda *args: evolve(*args) * (1.0 + 1e-6))
    _, out = run_into(tmp_path, dimer_file, "propagate",
                      source={"t2": 20.0, "tau_pump": 120.0, "e0": 1e-6})
    meta = json.loads(Path(out, "metadata.json").read_text())
    assert meta["initial_total"] < 1e-2
    assert meta["trace_drift"] == pytest.approx(1e-6 * meta["initial_total"], rel=1e-6)
    warnings = json.loads(Path(out, "manifest.json").read_text())["warnings"]
    assert [w for w in warnings if w.startswith("population trace drifted by")]


def test_auto_detection_axes_cover_emission_lines(tmp_path, dimer_file):
    _, out = run_into(tmp_path, dimer_file, "coincidence")
    meta = json.loads(Path(out, "metadata.json").read_text())
    lo_fe, hi_fe, n_fe = meta["axes"]["omega_fe"]
    assert n_fe == 17
    # dimer f->e gaps span 11428 .. 13070 cm^-1; the auto axis pads both ends
    assert lo_fe < 11428.0 and hi_fe > 13070.0


def test_explicit_detection_axes_are_taken_as_given(tmp_path, dimer_file):
    axes = {"omega_fe": [11000.0, 13500.0, 9], "omega_eg": [12000.0, 13000.0, 5]}
    _, out = run_into(tmp_path, dimer_file, "coincidence", grids={"points": 17, **axes})
    assert json.loads(Path(out, "metadata.json").read_text())["axes"] == axes
    header, *rows = Path(out, "signal.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows] == list(np.linspace(11000.0, 13500.0, 9))
    assert [float(x) for x in header.split(",")[1:]] == list(np.linspace(12000.0, 13000.0, 5))


def mixed_map(rng) -> np.ndarray:
    """A 40 x 30 map, mostly zeros as the JSI is, whose other rows mix
    negatives, subnormals, exponents beyond ±99, ±inf and nan with zeros;
    every fourth row holds only cells of one width, and rows 0 and 5 are
    all zeros."""
    narrow = rng.uniform(1.0, 10.0, (40, 30)) * 10.0 ** rng.integers(-99, 100, (40, 30))
    wild = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-320, 300, (40, 30))
    wild.flat[rng.choice(wild.size, 60, replace=False)] = rng.choice(
        [np.inf, -np.inf, np.nan, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e100, -1e-100],
        60)
    values = np.where(np.arange(40)[:, None] % 4 == 0, narrow, wild)
    values[rng.random((40, 30)) < 0.8] = 0.0
    values[[0, 5]] = 0.0
    return values


@pytest.mark.parametrize("block_cells", [1, 10, runner._BLOCK_CELLS])
def test_matrix_csv_matches_the_per_row_writer_for_any_block(monkeypatch, block_cells):
    rng = np.random.default_rng(7)
    special = TIES + CARRIES + BELOW_POWERS + [0.0, -0.0, np.inf, -np.nan, 1e-300]
    values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-20, 20, (7, 5))
    values.flat[:len(special)] = special
    maps = [(rng.uniform(0, 100, 7), np.linspace(-1.0, 1.0, 5), values),
            (np.linspace(0.0, 2e4, 40), -np.logspace(-150, 150, 30), mixed_map(rng))]
    monkeypatch.setattr(runner, "_BLOCK_CELLS", block_cells)
    for rows, cols, values in maps:
        assert _matrix_csv(rows, cols, values) == per_row_matrix_csv(rows, cols, values)


@pytest.mark.parametrize("scenario", ["jsa", "excite-scan", "coincidence", "panel-study"])
def test_matrix_csvs_match_the_per_row_writer_byte_for_byte(tmp_path, dimer_file, monkeypatch,
                                                           scenario):
    # full-size default grids, not the 17-point ones of dimer_config
    _, out = run_into(tmp_path, dimer_file, scenario, subdir="vectorized", grids={})
    monkeypatch.setattr(runner, "_matrix_csv", per_row_matrix_csv)
    _, reference = run_into(tmp_path, dimer_file, scenario, subdir="per-row", grids={})
    names = sorted(n for n in os.listdir(reference) if n.endswith(".csv"))
    assert names == sorted(n for n in os.listdir(out) if n.endswith(".csv"))
    for name in names:
        assert Path(out, name).read_bytes() == Path(reference, name).read_bytes(), name


def test_artifacts_follow_the_umask(tmp_path, dimer_file):
    previous = os.umask(0o022)
    try:
        _, out = run_into(tmp_path, dimer_file, "excite")
    finally:
        os.umask(previous)
    modes = {name: os.stat(os.path.join(out, name)).st_mode & 0o777 for name in os.listdir(out)}
    assert "manifest.json" in modes
    assert set(modes.values()) == {0o644}, modes


def test_failed_atomic_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "artifact.csv"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        runner._atomic_write(str(target), "new \ud800\n")  # a lone surrogate has no UTF-8
    assert [path.name for path in tmp_path.iterdir()] == ["artifact.csv"]
    assert target.read_text() == "old\n"


class _OsWith:
    """``os`` as the runner sees it, with ``write`` replaced."""

    def __init__(self, write):
        self.write = write

    def __getattr__(self, name):
        return getattr(os, name)


def _large_text() -> str:
    return "".join("%.16e\n" % (k / 7.0) for k in range(50_000))  # 1.2 MB


def test_large_artifact_is_written_whole_through_short_writes(tmp_path, monkeypatch):
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return os.write(fd, data[:65536])  # never more than 64 KiB at once

    monkeypatch.setattr(runner, "os", _OsWith(short_write))
    target = tmp_path / "artifact.csv"
    text = _large_text()
    runner._atomic_write(str(target), text)
    assert len(text) > 2**20 and len(calls) == -(-len(text) // 65536)
    assert target.read_bytes() == text.encode("ascii")
    assert [path.name for path in tmp_path.iterdir()] == ["artifact.csv"]


@pytest.mark.parametrize("old", [None, "old\n"])
def test_failed_write_leaves_no_temporary_and_no_partial_artifact(tmp_path, monkeypatch, old):
    calls = []

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) > 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return os.write(fd, data[:65536])

    monkeypatch.setattr(runner, "os", _OsWith(failing_write))
    target = tmp_path / "artifact.csv"
    if old is not None:
        target.write_text(old)
    with pytest.raises(OSError) as exc:
        runner._atomic_write(str(target), _large_text())
    assert exc.value.errno == errno.ENOSPC and len(calls) == 4
    assert [path.name for path in tmp_path.iterdir()] == ([] if old is None else ["artifact.csv"])
    if old is not None:
        assert target.read_text() == old


def _contents(out) -> dict:
    return {name: Path(out, name).read_bytes() for name in sorted(os.listdir(out))}


def test_run_failing_before_its_writes_leaves_the_previous_run(tmp_path, dimer_file):
    _, out = run_into(tmp_path, dimer_file, "coincidence")
    before = _contents(out)
    with pytest.raises(ConfigError) as err:
        run_into(tmp_path, dimer_file, "coincidence", target=7)  # past the dimer's 3 states
    assert err.value.fields == ("target",)
    assert _contents(out) == before


def test_write_failing_on_the_third_artifact_leaves_no_manifest(tmp_path, dimer_file,
                                                                monkeypatch):
    """The old manifest goes before the first artifact is replaced, so a
    write phase cut short leaves none, and no temporary."""
    manifest, out = run_into(tmp_path, dimer_file, "coincidence")
    before = _contents(out)
    _, fresh = run_into(tmp_path, dimer_file, "coincidence", subdir="fresh", grids={"points": 9})
    expected = _contents(fresh)
    calls = []

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) == 3:  # each small artifact is one write
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return os.write(fd, data)

    monkeypatch.setattr(runner, "os", _OsWith(failing_write))
    with pytest.raises(ConfigError) as err:
        run_into(tmp_path, dimer_file, "coincidence", grids={"points": 9})
    assert err.value.fields == ("out_dir",) and len(calls) == 3
    after = _contents(out)
    assert sorted(after) == sorted(manifest.artifacts)
    first, second, third = manifest.artifacts
    assert after[first] == expected[first] != before[first]
    assert after[second] == expected[second] != before[second]
    assert after[third] == before[third]


def test_second_run_into_a_directory_leaves_exactly_its_own_bytes(tmp_path, dimer_file):
    run_into(tmp_path, dimer_file, "coincidence")
    manifest, out = run_into(tmp_path, dimer_file, "coincidence", grids={"points": 9})
    _, fresh = run_into(tmp_path, dimer_file, "coincidence", subdir="fresh", grids={"points": 9})
    assert sorted(os.listdir(out)) == sorted(manifest.artifacts + ["manifest.json"])
    rerun, alone = _contents(out), _contents(fresh)
    for name in manifest.artifacts:
        assert rerun[name] == alone[name], name
    assert json.loads(rerun["manifest.json"])["artifacts"] == manifest.artifacts


def _prepared(raw):
    raw = np.asarray(raw, dtype=float)
    return PreparationResult(
        populations=np.clip(raw, 0.0, None), raw=raw, pathway_partials=np.zeros((5, raw.size)),
        regularized=False,
    )


def test_default_excite_does_not_warn_about_rounding_negatives(tmp_path):
    manifest = run_scenario(from_dict({"scenario": "excite"}), out_dir=str(tmp_path / "excite"))
    assert not [w for w in manifest.warnings if "negative preparation" in w]


def test_negative_preparation_lobe_is_reported_with_its_mass_ratio():
    below = 0.5 * NEGATIVE_MASS_WARN_RATIO * 3.0
    assert _preparation_warnings(_prepared([1.0, -below, 2.0])) == []
    notes = _preparation_warnings(_prepared([1.0, -0.3, 2.0, -0.0]))
    assert notes == [
        "clipped 1 negative preparation values holding 1.000e-01 of the positive mass "
        "(most negative -3.000e-01)"
    ]
    assert len(_preparation_warnings(_prepared([-1.0, 0.0]))) == 1


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_csv_and_json_artifacts_agree(tmp_path, dimer_file, scenario):
    """Each table or matrix has the same columns and the same doubles in both formats."""
    _, csv_out = run_into(tmp_path, dimer_file, scenario, subdir="csv")
    _, json_out = run_into(tmp_path, dimer_file, scenario, subdir="json", format="json")
    csv_names = [n for n in sorted(os.listdir(csv_out)) if not n.endswith(".gp")]
    assert sorted(os.listdir(json_out)) == sorted(n.replace(".csv", ".json") for n in csv_names)
    stems = [n[:-4] for n in csv_names if n.endswith(".csv")]
    assert stems
    for stem in stems:
        with open(os.path.join(csv_out, stem + ".csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        with open(os.path.join(json_out, stem + ".json")) as fh:
            payload = json.load(fh)
        if "values" in payload:
            assert rows[0][0] == str(len(payload["col_axis"])), stem
            assert [float(c) for c in rows[0][1:]] == payload["col_axis"], stem
            assert [float(r[0]) for r in rows[1:]] == payload["row_axis"], stem
            assert [[float(c) for c in r[1:]] for r in rows[1:]] == payload["values"], stem
            continue
        assert rows[0] == list(payload), stem
        assert len(rows) - 1 == len(next(iter(payload.values()))), stem
        for k, column in enumerate(payload.values()):
            assert [type(v)(r[k]) for v, r in zip(column, rows[1:])] == column, (stem, rows[0][k])


def test_benchmark_tracer_restores_runner_imports(monkeypatch):
    """The benchmark's tracer patches these runner globals by name
    (``owner.__dict__[attr]``), so renaming or inlining one of them breaks
    only a traced benchmark run unless this test catches it."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    )
    import spans

    library = {
        "prepare_closed_form": excitation.prepare_closed_form,
        "scan_targets": excitation.scan_targets,
        "jsi_map": sources.jsi_map,
        "population_evolve": propagators.population_evolve,
        "coincidence_snapshot": coincidence.coincidence_snapshot,
    }
    assert {name: runner.__dict__[name] for name in library} == library
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(runner.__dict__[name] is not func for name, func in library.items())
    finally:
        tracer.restore()
    assert runner.prepare_closed_form is excitation.prepare_closed_form
    assert {name: runner.__dict__[name] for name in library} == library
