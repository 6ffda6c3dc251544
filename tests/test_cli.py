import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from excitonscope import AggregateSpec, runner
from excitonscope.cli import build_parser, main
from excitonscope.config import SCENARIOS, ConfigError, load_config
from excitonscope.runner import SCENARIO_RUNS

from conftest import make_dimer


@pytest.fixture(scope="module")
def dimer_setup(tmp_path_factory):
    """Aggregate file plus a config that keeps dimer runs cheap."""
    root = tmp_path_factory.mktemp("cli")
    (root / "dimer.json").write_text(json.dumps(make_dimer().to_dict()))
    config = {
        "scenario": "excite",
        "aggregate": "dimer.json",
        "target": 1,
        "grids": {"points": 17},
        "source": {"t2": 20.0, "tau_pump": 120.0},
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path), root


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "excitonscope" in capsys.readouterr().out


def test_missing_scenario_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_successful_run_reports_artifacts(dimer_setup, tmp_path, capsys):
    cfg_path, _ = dimer_setup
    out = str(tmp_path / "run")
    code = main(["excite", "--config", cfg_path, "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "excite: wrote" in stdout and "manifest.json" in stdout
    assert os.path.isfile(os.path.join(out, "populations.csv"))


def test_subcommand_overrides_config_scenario(dimer_setup, tmp_path, capsys):
    cfg_path, _ = dimer_setup
    out = str(tmp_path / "run")
    code = main(["propagate", "--config", cfg_path, "--out", out])
    assert code == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["scenario"] == "propagate"
    assert os.path.isfile(os.path.join(out, "snapshots.csv"))


def test_config_without_scenario_runs_the_command_line_scenario(dimer_setup, tmp_path, capsys):
    cfg_path, root = dimer_setup
    config = json.loads(Path(cfg_path).read_text())
    del config["scenario"]
    bare = root / "no-scenario.json"
    bare.write_text(json.dumps(config))
    for scenario in ("propagate", "coincidence"):
        out = str(tmp_path / scenario)
        assert main([scenario, "--config", str(bare), "--out", out]) == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["scenario"] == manifest["config"]["scenario"] == scenario
        flags = {"scenario": scenario, "out_dir": out}
        assert manifest["config"] == load_config(str(bare), flags).to_dict()
    # the library still requires the field of a file read alone
    with pytest.raises(ConfigError, match="scenario: required"):
        load_config(str(bare))


def test_config_error_exit_code(dimer_setup, tmp_path, capsys):
    _, root = dimer_setup
    bad = root / "bad.json"
    bad.write_text(json.dumps({"scenario": "excite", "bath": {"gamma0": -1.0}}))
    code = main(["excite", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bath.gamma0" in err


def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys):
    # json.load reads NaN and Infinity; each used to run and write NaN or
    # all-zero populations, and a zero polarization axis failed as exit 3
    for field, text in [("source.t1", '"source": {"t1": NaN}'),
                        ("source.pump_center", '"source": {"pump_center": Infinity}'),
                        ("time_fs", '"time_fs": Infinity'),
                        ("polarization", '"polarization": [0, 0, 0]')]:
        path = tmp_path / "run.json"
        path.write_text('{"scenario": "excite", ' + text + "}")
        code = main(["excite", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2, field
        assert f"invalid configuration:\n  {field}: " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _python(*args, check=False):
    """Runs ``python args`` with this checkout's src first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=check)


def test_map_with_no_positive_cell_records_a_null_clipped_fraction(tmp_path, capsys):
    # a 2 x 2 patch of the default map's negative lobe: every cell is clipped
    path = tmp_path / "lobe.json"
    path.write_text(json.dumps({"scenario": "coincidence", "grids": {
        "omega_fe": [13948.90569279294, 13982.856285727665, 2],
        "omega_eg": [15551.963988589354, 15563.941910769665, 2]}}))

    def strict(name):
        return json.loads((tmp_path / name).read_text(),
                          parse_constant=lambda constant: pytest.fail(f"{name}: {constant}"))

    note = "the map has no positive cell, so its clipped fraction is null"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["coincidence", "--config", str(path), "--out", str(tmp_path / "map")]) == 0
        assert main(["panel-study", "--config", str(path), "--out", str(tmp_path / "panels")]) == 0
    manifest = strict("map/manifest.json")
    assert manifest["resolved"]["clipped_fraction"] is None
    assert manifest["warnings"] == ["clipped 4 negative interference cells in the map", note]
    panels = strict("panels/panels.json")["panels"]
    empty = [label for label, panel in panels.items() if panel["clipped_fraction"] is None]
    assert empty and all(panels[label]["clipped_cells"] == 4 for label in empty)
    assert {f"panel {label}: {note}" for label in empty} <= set(
        strict("panels/manifest.json")["warnings"])


def test_one_site_aggregate_runs_every_scenario(tmp_path, capsys):
    # one state per manifold: the auto source gives the lone line to both
    # photons, and model-info has no gap to take a median of
    monomer = AggregateSpec(site_energies=(12100.0,), couplings=((0.0,),),
                            onsite_anharmonicity=(-250.0,), pair_anharmonicity=((0.0,),),
                            site_dipoles=((1.2, 0.0, 0.0),), bath_coupling_weights=(1.0,),
                            label="monomer")
    (tmp_path / "monomer.json").write_text(json.dumps(monomer.to_dict()))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "excite", "aggregate": str(tmp_path / "monomer.json"),
                                "target": 0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("csv", "json"):
            for scenario in SCENARIOS:
                out = str(tmp_path / fmt / scenario)
                assert main([scenario, "--config", str(path), "--format", fmt, "--out", out]) == 0

    def strict(path):
        return json.loads(path.read_text(),
                          parse_constant=lambda constant: pytest.fail(f"{path}: {constant}"))

    files = sorted(tmp_path.glob("*/*/*.json"))
    assert sum(path.name == "manifest.json" for path in files) == 2 * len(SCENARIOS)
    parsed = {path.relative_to(tmp_path).as_posix(): strict(path) for path in files}
    info = parsed["csv/model-info/model.json"]
    assert info["one_exciton"]["median_gap"] is None and info["two_exciton"]["median_gap"] is None
    source = parsed["csv/excite/manifest.json"]["resolved"]["source"]
    assert source["omega1"] == source["omega2"] == 12100.0


def test_unwritable_output_directory_is_a_config_error(tmp_path):
    # a regular file where the output directory's parent should be
    (tmp_path / "file").write_text("")
    done = _python("-m", "excitonscope.cli", "model-info", "--out", str(tmp_path / "file" / "sub"))
    assert done.returncode == 2
    assert "out_dir: cannot write to" in done.stderr and "Traceback" not in done.stderr


def test_unwritable_output_directory_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output directory was checked")

    monkeypatch.setattr(runner, "build_system", no_work)
    monkeypatch.setattr(runner, "scan_targets", no_work)
    (tmp_path / "file").write_text("")
    assert main(["excite-scan", "--out", str(tmp_path / "file" / "sub")]) == 2
    assert "out_dir: cannot write to" in capsys.readouterr().err
    # a directory that exists but cannot be written to fails the same way
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    assert main(["excite-scan", "--out", str(tmp_path)]) == 2
    assert "out_dir: cannot write to" in capsys.readouterr().err


@pytest.mark.parametrize("source, aggregate, field", [
    ({"t1": 20.0, "t2": 10.0}, None, "source.t2"),
    ({}, '{"site_energies": [12000.0]}', "aggregate"),
    ({}, "site_energies: [12000.0]", "aggregate"),
    ({}, "3", "aggregate"),
    ({}, json.dumps({**make_dimer().to_dict(), "couplings": {"a": 1}}), "aggregate"),
], ids=["group-delays", "aggregate-fields", "aggregate-json", "aggregate-number",
        "aggregate-object-field"])
def test_config_errors_found_after_validation_name_their_field(
        tmp_path, capsys, source, aggregate, field):
    cfg = {"scenario": "excite", "source": source}
    if aggregate is not None:
        (tmp_path / "aggregate.json").write_text(aggregate)
        cfg["aggregate"] = "aggregate.json"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code = main(["excite", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"invalid configuration:\n  {field}: " in capsys.readouterr().err


def test_unbounded_snapshot_time_is_a_numerical_error(tmp_path, capsys):
    # 1e12 fs on the bundled two-exciton manifold: qs about 3.1e9, refused
    # before the series builds a weight
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"scenario": "propagate", "snapshot_times": [1e12]}))
    assert main(["propagate", "--config", str(path), "--out", str(tmp_path / "far")]) == 3
    err = capsys.readouterr().err
    assert "error: ValueError" in err
    assert "series terms (qs + 9.5 sqrt(qs) + 10)" in err


_DEEP = b"[" * 100000 + b"]" * 100000
_NOT_UTF8 = b"\xff\xfe{}"
_NAMES_AGGREGATE = json.dumps({"aggregate": "aggregate.json"}).encode()


def _filters(**widths):
    return json.dumps({"filters": widths}).encode()


@pytest.mark.parametrize("scenario, config, aggregate, field, detail", [
    ("model-info", _DEEP, None, "<file>", "is not valid JSON: maximum recursion depth"),
    ("model-info", _NOT_UTF8, None, "<file>", "is not valid JSON: 'utf-8' codec"),
    ("model-info", _NAMES_AGGREGATE, _DEEP, "aggregate",
     "is not valid JSON: maximum recursion depth"),
    ("model-info", _NAMES_AGGREGATE, _NOT_UTF8, "aggregate", "is not valid JSON: 'utf-8' codec"),
    ("coincidence", _filters(sigma_t=50), None, "filters", "tau < 0 branch diverges"),
    ("panel-study", _filters(sigma_t=50), None, "filters", "tau < 0 branch diverges"),
    # the reference gates converge, the sigma_t_0.5409 panel's do not
    ("panel-study", _filters(sigma_omega=0.1, sigma_t=0.1), None, "filters", "<= 0.5409"),
], ids=["config-nested", "config-not-utf8", "aggregate-nested", "aggregate-not-utf8",
        "coincidence-divergent-gate", "panel-study-divergent-gate", "panel-study-divergent-panel"])
def test_input_faults_exit_2_naming_their_field(tmp_path, scenario, config, aggregate, field,
                                                detail):
    (tmp_path / "run.json").write_bytes(config)
    if aggregate is not None:
        (tmp_path / "aggregate.json").write_bytes(aggregate)
    done = _python("-m", "excitonscope.cli", scenario, "--config", str(tmp_path / "run.json"),
                   "--out", str(tmp_path / "out"))
    assert done.returncode == 2, done.stderr
    assert f"invalid configuration:\n  {field}: " in done.stderr
    assert detail in done.stderr
    assert "Traceback" not in done.stderr


def test_threads_zero_rejected(capsys):
    code = main(["excite", "--threads", "0"])
    assert code == 2
    assert "invalid configuration:\n  threads: must be null or an integer >= 1" \
        in capsys.readouterr().err


def test_flag_faults_are_config_errors_reported_together(tmp_path, capsys):
    # flags are config fields, checked by the config's rules in one pass
    assert main(["model-info", "--threads", "0", "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.count("invalid configuration:") == 1
    assert "  out_dir: must be a non-empty string\n" in err
    assert "  threads: must be null or an integer >= 1\n" in err
    # a flag replaces the file's value before the check, so a bad value there is not read
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "teleport", "threads": 0, "format": "xml"}))
    out = str(tmp_path / "out")
    assert main(["model-info", "--config", str(path), "--threads", "1", "--format", "json",
                 "--out", out]) == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["scenario"] == "model-info"
    assert (manifest["config"]["threads"], manifest["config"]["format"]) == (1, "json")


def test_outputs_identical_across_thread_flag(dimer_setup, tmp_path, capsys):
    cfg_path, _ = dimer_setup
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["excite-scan", "--config", cfg_path, "--out", a, "--threads", "1"]) == 0
    assert main(["excite-scan", "--config", cfg_path, "--out", b, "--threads", "4"]) == 0
    for name in ("scan.csv", "selectivity.csv"):
        assert Path(a, name).read_bytes() == Path(b, name).read_bytes()


def test_format_json_flag(dimer_setup, tmp_path, capsys):
    cfg_path, _ = dimer_setup
    out = str(tmp_path / "run")
    code = main(["excite", "--config", cfg_path, "--out", out, "--format", "json"])
    assert code == 0
    assert os.path.isfile(os.path.join(out, "populations.json"))
    assert not os.path.isfile(os.path.join(out, "populations.csv"))


def test_flags_are_recorded_over_the_config_as_given(dimer_setup, tmp_path, capsys):
    cfg_path, _ = dimer_setup
    out = str(tmp_path / "run")
    assert main(["excite", "--config", cfg_path, "--out", out, "--threads", "2",
                 "--format", "json"]) == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    flags = {"out_dir": out, "threads": 2, "format": "json"}
    assert manifest["config"] == load_config(cfg_path, flags).to_dict()
    assert {name: manifest["config"][name] for name in flags} == flags
    assert next(iter(manifest["resolved"].items())) == ("threads", 2)
    assert not {"format", "out_dir"} & set(manifest["resolved"])


def test_parser_lists_all_scenarios():
    parser = build_parser()
    helptext = parser.format_help()
    for name in ("model-info", "jsa", "excite", "excite-scan",
                 "propagate", "coincidence", "panel-study"):
        assert name in helptext


def test_options_parse_the_same_before_and_after_the_scenario():
    options = ["--config", "run.json", "--out", "dir", "--threads", "2", "--format", "json"]
    parsed = [vars(build_parser().parse_args(argv)) for argv in (
        ["coincidence", *options], [*options, "coincidence"],
        [*options[:4], "coincidence", *options[4:]],
    )]
    assert parsed == 3 * [{"scenario": "coincidence", "config": "run.json", "out": "dir",
                           "threads": 2, "format": "json"}]


def test_every_scenario_has_a_run_and_its_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per scenario
    assert list(SCENARIO_RUNS) == list(SCENARIOS)
    helptext = build_parser().format_help()
    for run in SCENARIO_RUNS.values():
        assert run.__doc__ and run.__doc__ in helptext


def test_cli_import_leaves_scipy_and_thread_pools_unloaded():
    """The package runs on numpy alone, and only a threaded scan needs
    concurrent.futures, which with the logging it loads costs about 4 ms."""
    code = ("import sys, excitonscope.cli; "
            "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))")
    done = _python("-c", code, check=True)
    assert done.stdout.strip() == "[]"


def test_scenario_runs_leave_masked_arrays_scipy_and_thread_pools_unloaded(tmp_path):
    """At one thread no scenario needs numpy.ma (which np.median loads,
    44-85 ms of a fresh run), scipy or concurrent.futures."""
    code = ("import sys; from excitonscope.cli import main; from excitonscope.config import "
            "SCENARIOS\nfor s in SCENARIOS:\n"
            "    assert main([s, '--threads', '1', '--out', sys.argv[1] + '/' + s]) == 0\n"
            "    print(s, sorted({'numpy.ma', 'scipy', 'concurrent.futures'} & set(sys.modules)))")
    done = _python("-c", code, str(tmp_path), check=True)
    lines = [line for line in done.stdout.splitlines() if ": wrote " not in line]
    assert lines == [f"{scenario} []" for scenario in SCENARIOS]


def test_cli_import_leaves_exact_arithmetic_modules_unloaded():
    """The CSV formatter's powers of ten use int arithmetic: fractions alone
    adds about 2.5 ms to every start."""
    code = ("import sys, excitonscope.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    done = _python("-c", code, check=True)
    assert done.stdout.strip() == "[]"
