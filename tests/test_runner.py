import json
import os
from pathlib import Path

import numpy as np
import pytest

from excitonscope import PreparationResult, coincidence, excitation, propagators, runner, sources
from excitonscope.config import SCENARIOS, ConfigError, from_dict
from excitonscope.runner import (
    NEGATIVE_MASS_WARN_RATIO,
    _fmt,
    _matrix_csv,
    _preparation_warnings,
    resolve_threads,
    run_scenario,
)

from conftest import make_dimer


@pytest.fixture(scope="module")
def dimer_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "dimer.json"
    make_dimer().to_json(path)
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


def test_resolve_threads_priority(monkeypatch):
    monkeypatch.delenv("EXCITONSCOPE_THREADS", raising=False)
    assert resolve_threads(None, None) == (1, None)
    assert resolve_threads(4, 2) == (4, None)
    assert resolve_threads(None, 2) == (2, None)
    monkeypatch.setenv("EXCITONSCOPE_THREADS", "3")
    assert resolve_threads(None, None) == (3, None)
    assert resolve_threads(None, 2) == (2, None)
    monkeypatch.setenv("EXCITONSCOPE_THREADS", "zippy")
    n, note = resolve_threads(None, None)
    assert n == 1 and "EXCITONSCOPE_THREADS" in note
    monkeypatch.setenv("EXCITONSCOPE_THREADS", "0")
    n, note = resolve_threads(None, None)
    assert n == 1 and note


def test_matrix_csv_layout_round_trips():
    rows = np.array([1.0, 2.0, 3.0])
    cols = np.array([10.0, 20.0])
    values = np.array([[1.5, -2.5e-17], [0.0, 4.0], [np.pi, 1e300]])
    text = _matrix_csv(rows, cols, values)
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


def test_manifest_contents(tmp_path, dimer_file):
    manifest, out = run_into(tmp_path, dimer_file, "excite")
    with open(os.path.join(out, "manifest.json")) as fh:
        data = json.load(fh)
    assert data["scenario"] == "excite"
    assert data["config"]["aggregate"] == dimer_file
    assert data["resolved"]["threads"] == 1
    preparation = data["resolved"]["preparation"]
    assert list(preparation["pathway_abs_sums"]) == ["p1", "p2", "p3", "p4", "p5"]
    assert 0.0 < preparation["cancellation_ratio"] <= 1.0
    assert {t["stage"] for t in data["timings"]} >= {"build-model", "write-artifacts"}
    for key in ("excitonscope", "python", "numpy", "scipy"):
        assert key in data["versions"]
    assert data["artifacts"] == manifest.artifacts


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


def test_jsa_requires_entangled_source(tmp_path, dimer_file):
    cfg = dimer_config(dimer_file, "jsa", source={"mode": "coherent"})
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


def test_auto_detection_axes_cover_emission_lines(tmp_path, dimer_file):
    _, out = run_into(tmp_path, dimer_file, "coincidence")
    meta = json.loads(Path(out, "metadata.json").read_text())
    lo_fe, hi_fe, n_fe = meta["axes"]["omega_fe"]
    assert n_fe == 17
    # dimer f->e gaps span 11428 .. 13070 cm^-1; the auto axis pads both ends
    assert lo_fe < 11428.0 and hi_fe > 13070.0

def _prepared(raw):
    raw = np.asarray(raw, dtype=float)
    return PreparationResult(
        populations=np.clip(raw, 0.0, None), raw=raw, pathway_partials=np.zeros((5, raw.size)),
        time_fs=0.0, method="closed-form", regularized=False, source_summary={},
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
