import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from excitonscope.cli import build_parser, main
from excitonscope.config import SCENARIOS
from excitonscope.runner import SCENARIO_RUNS

from conftest import make_dimer


@pytest.fixture(scope="module")
def dimer_setup(tmp_path_factory):
    """Aggregate file plus a config that keeps dimer runs cheap."""
    root = tmp_path_factory.mktemp("cli")
    make_dimer().to_json(root / "dimer.json")
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


def test_config_error_exit_code(dimer_setup, tmp_path, capsys):
    _, root = dimer_setup
    bad = root / "bad.json"
    bad.write_text(json.dumps({"scenario": "excite", "bath": {"gamma0": -1.0}}))
    code = main(["excite", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bath.gamma0" in err


def test_numerical_error_exit_code(dimer_setup, tmp_path, capsys):
    _, root = dimer_setup
    # a temporal gate wider than the spectral gate has no convergent
    # backward branch, which surfaces as a numerical failure
    cfg = {
        "scenario": "coincidence",
        "aggregate": "dimer.json",
        "target": 1,
        "grids": {"points": 9},
        "filters": {"sigma_omega": 1.0, "sigma_t": 40.0},
    }
    path = root / "divergent.json"
    path.write_text(json.dumps(cfg))
    code = main(["coincidence", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error: ValueError" in capsys.readouterr().err


def test_threads_zero_rejected(capsys):
    code = main(["excite", "--threads", "0"])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


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


def test_parser_lists_all_scenarios():
    parser = build_parser()
    helptext = parser.format_help()
    for name in ("model-info", "jsa", "excite", "excite-scan",
                 "propagate", "coincidence", "panel-study"):
        assert name in helptext


def test_every_scenario_has_a_run_and_its_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per scenario
    assert list(SCENARIO_RUNS) == list(SCENARIOS)
    helptext = build_parser().format_help()
    for run in SCENARIO_RUNS.values():
        assert run.__doc__ and run.__doc__ in helptext


def test_cli_import_leaves_scipy_integrate_unloaded():
    """scipy.integrate serves one diagnostic and is most of the import time."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, excitonscope.cli; print('scipy.integrate' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
