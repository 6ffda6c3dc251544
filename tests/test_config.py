import dataclasses
import json
import math
import os
import pathlib
import re
import reprlib

import numpy as np
import pytest

import excitonscope
from excitonscope.bath import BathSpec
from excitonscope.config import (
    ConfigError,
    RunConfig,
    SCENARIOS,
    from_dict,
    load_config,
    reference_config,
)

from conftest import make_dimer


def test_minimal_config_fills_documented_defaults():
    cfg = from_dict({"scenario": "model-info"})
    assert cfg.scenario == "model-info"
    assert cfg.aggregate == "bundled"
    assert cfg.bath == BathSpec(1.5, 60.0, (), 77.0)
    assert cfg.polarization == (1.0, 1.0, 1.0)
    assert cfg.source.mode == "entangled"
    assert cfg.source.tau_pump == 150.0
    assert cfg.source.t2 == 10.0
    assert cfg.filters.sigma_omega == 10.0
    assert cfg.filters.sigma_t == pytest.approx(4.8681)
    assert cfg.waiting.t_wait_two == 0.0
    assert cfg.waiting.t_wait_one == 100.0
    assert cfg.grids.omega_fe == "auto"
    assert cfg.grids.points == 128
    assert cfg.snapshot_times == (50.0, 100.0, 250.0, 1000.0)
    assert cfg.targets == "all"
    assert cfg.scan_mode == "degenerate"
    assert cfg.target == 7
    assert cfg.threads is None
    assert cfg.format == "csv"
    assert cfg.emit_plots is True


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_round_trip_is_stable(scenario):
    cfg = reference_config(scenario)
    again = from_dict(cfg.to_dict())
    assert again == cfg
    # and through the JSON text form
    assert from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_every_problem_is_listed_at_once():
    raw = {
        "scenario": "teleport",
        "formt": "csv",
        "seed": 1,
        "bath": {"gamma0": -5.0, "junk": 1},
        "filters": {"sigma_omega": "wide"},
        "grids": {"omega_fe": [100.0, 50.0, 64]},
        "threads": 0,
        "polarization": [1.0, 2.0],
    }
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert set(err.value.fields) == {
        "scenario", "formt", "seed", "bath.gamma0", "bath.junk",
        "filters.sigma_omega", "grids.omega_fe", "threads", "polarization",
    }
    assert ("seed", "unknown field") in err.value.problems
    message = str(err.value)
    assert message.startswith("invalid configuration:")
    assert "bath.gamma0" in message


def test_missing_scenario_is_required():
    with pytest.raises(ConfigError) as err:
        from_dict({})
    assert err.value.fields == ("scenario",)
    assert "required" in str(err.value)


def test_non_object_root_rejected():
    with pytest.raises(ConfigError):
        from_dict([1, 2, 3])


def test_axis_parsing():
    good = from_dict({"scenario": "coincidence",
                      "grids": {"omega_fe": [100.0, 400.0, 64], "omega_eg": "auto"}})
    assert good.grids.omega_fe == (100.0, 400.0, 64)
    assert good.grids.omega_eg == "auto"

    for bad in ([400.0, 100.0, 64], [100.0, 400.0], [100.0, 400.0, 1], "wide", [1, 2, "x"]):
        with pytest.raises(ConfigError) as err:
            from_dict({"scenario": "coincidence", "grids": {"omega_fe": bad}})
        assert err.value.fields == ("grids.omega_fe",)


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError) as err:
        from_dict({"scenario": "excite", "target": True})
    assert err.value.fields == ("target",)


def test_brownian_mode_validation():
    good = from_dict({"scenario": "model-info",
                      "bath": {"brownian_modes": [[12.0, 740.0, 25.0]]}})
    assert good.bath.brownian_modes == ((12.0, 740.0, 25.0),)
    with pytest.raises(ConfigError) as err:
        from_dict({"scenario": "model-info",
                   "bath": {"brownian_modes": [[12.0, -740.0, 25.0]]}})
    assert err.value.fields == ("bath.brownian_modes",)


def test_targets_validation():
    good = from_dict({"scenario": "excite-scan", "targets": [3, 0, 11]})
    assert good.targets == (3, 0, 11)
    for bad in ([], [-1], ["a"], [True], 7, "some"):
        with pytest.raises(ConfigError) as err:
            from_dict({"scenario": "excite-scan", "targets": bad})
        assert err.value.fields == ("targets",)


def test_load_config_resolves_aggregate_relative_to_file(tmp_path):
    (tmp_path / "dimer.json").write_text(json.dumps(make_dimer().to_dict()))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"scenario": "excite", "aggregate": "dimer.json"}))
    cfg = load_config(str(cfg_path))
    assert cfg.aggregate == str(tmp_path / "dimer.json")


def test_load_config_missing_aggregate_flagged(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"scenario": "excite", "aggregate": "nowhere.json"}))
    with pytest.raises(ConfigError) as err:
        load_config(str(cfg_path))
    assert err.value.fields == ("aggregate",)
    assert "no such file" in str(err.value)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read") as err:
        load_config(str(tmp_path / "absent.json"))
    assert err.value.fields == ("<file>",)
    # a syntax error, a nesting too deep to decode, and bytes that are not UTF-8
    for text in (b"{not json", b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}"):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        with pytest.raises(ConfigError, match="bad.json is not valid JSON") as err:
            load_config(str(bad))
        assert err.value.fields == ("<file>",)


def test_to_dict_is_plain_json_data():
    cfg = reference_config("panel-study")
    text = json.dumps(cfg.to_dict())
    assert json.loads(text)["scenario"] == "panel-study"
    assert isinstance(cfg.to_dict()["bath"]["brownian_modes"], list)

# Every leaf field of the run config: one valid non-default value (as given
# in JSON, then as stored), one invalid value and the message it draws.
BUNDLED_JSON = os.path.normpath(
    os.path.join(os.path.dirname(excitonscope.__file__), "data", "aggregate14.json"))
NUMBER_OR_AUTO = 'must be a number or "auto"'
AXIS = 'must be "auto" or [lo, hi, n] with hi > lo, n >= 2'
VECTOR = "must be a list of three numbers, not all zero"
FIELD_CASES = [
    ("scenario", "jsa", "jsa", "teleport",
     "unknown scenario 'teleport'; one of " + ", ".join(SCENARIOS)),
    ("aggregate", BUNDLED_JSON, BUNDLED_JSON, "", "must be a non-empty string"),
    ("polarization", [0, 1, 2], (0.0, 1.0, 2.0), [1, 2], VECTOR),
    ("bath.lambda0", 2, 2.0, -1.0, "must be a number >= 0"),
    ("bath.gamma0", 30, 30.0, 0, "must be a number > 0"),
    ("bath.temperature", 300, 300.0, 0.0, "must be a number > 0"),
    ("bath.pure_dephasing", 5, 5.0, -0.5, "must be a number >= 0"),
    ("bath.brownian_modes", [[12, 740, 25]], ((12.0, 740.0, 25.0),), [[1.0, 2.0]],
     "must be a list of [lambda, omega, gamma] with omega, gamma > 0"),
    ("source.mode", "coherent", "coherent", "thermal", "must be 'entangled' or 'coherent'"),
    ("source.omega1", 12000, 12000.0, "high", NUMBER_OR_AUTO),
    ("source.omega2", 12400.5, 12400.5, None, NUMBER_OR_AUTO),
    ("source.pump_center", 24000, 24000.0, [1.0], NUMBER_OR_AUTO),
    ("source.tau_pump", 80, 80.0, 0, "must be a number > 0 (fs)"),
    ("source.t1", -3, -3.0, "x", "must be a number (fs)"),
    ("source.t2", 0, 0.0, None, "must be a number (fs)"),
    ("source.alpha", 2, 2.0, -1.0, "must be a number > 0"),
    ("source.e0", 0.5, 0.5, 0, "must be a number > 0"),
    ("source.center", 12200, 12200.0, True, NUMBER_OR_AUTO),
    ("source.tau", 30, 30.0, -5.0, "must be a number > 0 (fs)"),
    ("source.scale", 3, 3.0, False, "must be a number > 0"),
    ("filters.sigma_omega", 20, 20.0, 0.0, "must be a number > 0 (cm^-1)"),
    ("filters.sigma_t", 0.5409, 0.5409, -1.0, "must be a number > 0 (cm^-1)"),
    ("waiting.t_wait_two", 50, 50.0, -1.0, "must be a number >= 0 (fs)"),
    ("waiting.t_wait_one", 1000, 1000.0, "late", "must be a number >= 0 (fs)"),
    ("grids.omega_fe", [100, 400, 64], (100.0, 400.0, 64), [400.0, 100.0, 64], AXIS),
    ("grids.omega_eg", [12000.5, 12900, 2], (12000.5, 12900.0, 2), [1.0, 2.0, 2.5], AXIS),
    ("grids.points", 64, 64, 1, "must be an integer >= 2"),
    ("grids.pad", 30, 30.0, -1.0, "must be a number >= 0 (cm^-1)"),
    ("time_fs", 25, 25.0, -1.0, "must be a number >= 0 (fs)"),
    ("snapshot_times", [10, 20.5], (10.0, 20.5), [], "must be a non-empty list of numbers >= 0 (fs)"),
    ("targets", [3, 0], (3, 0), [-1], 'must be "all" or a non-empty list of indices >= 0'),
    ("scan_mode", "mediated", "mediated", "random", "must be 'degenerate' or 'mediated'"),
    ("target", 3, 3, True, "must be an integer >= 0"),
    ("out_dir", "elsewhere", "elsewhere", "", "must be a non-empty string"),
    ("threads", 2, 2, 0, "must be null or an integer >= 1"),
    ("format", "json", "json", "xml", "must be 'csv' or 'json'"),
    ("emit_plots", False, False, 1, "must be true or false"),
]
SECTIONS = ("bath", "source", "filters", "waiting", "grids")


def _raw(path, value):
    section, _, leaf = path.rpartition(".")
    raw = {"scenario": "excite"}
    raw.update({section: {leaf: value}} if section else {leaf: value})
    return raw


def _at(cfg, path):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def test_field_cases_cover_every_leaf_field():
    cfg = reference_config("excite")
    leaves = set()
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in SECTIONS:
            leaves |= {f"{f.name}.{g.name}" for g in dataclasses.fields(value)}
        else:
            leaves.add(f.name)
    assert len(leaves) == len(FIELD_CASES) == 37
    assert {case[0] for case in FIELD_CASES} == leaves


@pytest.mark.parametrize("path, given, stored, bad, message", FIELD_CASES,
                         ids=[case[0] for case in FIELD_CASES])
def test_each_field_accepts_converts_and_rejects(path, given, stored, bad, message):
    assert repr(_at(reference_config("excite"), path)) != repr(stored)
    cfg = from_dict(_raw(path, given))
    assert repr(_at(cfg, path)) == repr(stored)
    assert from_dict(cfg.to_dict()) == cfg
    assert from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    with pytest.raises(ConfigError) as err:
        from_dict(_raw(path, bad))
    assert err.value.problems == ((path, message),)
    assert err.value.fields == (path,)


# Values json.load reads that no field takes: NaN, +-Infinity and integers
# past the float range, which every number rule rejects with its message,
# and a zero polarization axis.
REJECTED_CASES = [
    ("source.t1", math.nan, "must be a number (fs)"),
    ("source.pump_center", math.inf, NUMBER_OR_AUTO),
    ("source.center", -math.inf, NUMBER_OR_AUTO),
    ("time_fs", math.inf, "must be a number >= 0 (fs)"),
    ("bath.gamma0", math.inf, "must be a number > 0"),
    ("filters.sigma_omega", math.nan, "must be a number > 0 (cm^-1)"),
    ("waiting.t_wait_one", 10**400, "must be a number >= 0 (fs)"),
    ("bath.brownian_modes", [[12, 740, math.inf]],
     "must be a list of [lambda, omega, gamma] with omega, gamma > 0"),
    ("grids.omega_eg", [12000.0, math.inf, 2], AXIS),
    ("snapshot_times", [10, math.nan], "must be a non-empty list of numbers >= 0 (fs)"),
    ("polarization", [1, math.nan, 0], VECTOR),
    ("polarization", [0, 0.0, 0], VECTOR),
]


@pytest.mark.parametrize("path, bad, message", REJECTED_CASES,
                         ids=[f"{path}={reprlib.repr(bad)}" for path, bad, _ in REJECTED_CASES])
def test_non_finite_numbers_and_a_zero_axis_are_rejected(path, bad, message):
    raw = json.loads(json.dumps(_raw(path, bad)))  # NaN and Infinity as JSON writes them
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert err.value.problems == ((path, message),)


@pytest.mark.parametrize("section", SECTIONS)
def test_each_section_must_be_an_object_without_unknown_fields(section):
    for bad in (5, [], None, "auto"):
        with pytest.raises(ConfigError) as err:
            from_dict({"scenario": "excite", section: bad})
        assert err.value.problems == ((section, "must be an object"),)
    with pytest.raises(ConfigError) as err:
        from_dict({"scenario": "excite", section: {"junk": 1}})
    assert err.value.problems == ((f"{section}.junk", "unknown field"),)


def test_snapshot_times_must_name_distinct_columns():
    # each time heads one propagate column p_{t:g}fs; two alike would merge
    with pytest.raises(ConfigError) as err:
        from_dict({"scenario": "propagate", "snapshot_times": [50.0, 50.0000001, 100.0]})
    assert err.value.problems == ((
        "snapshot_times",
        "times must differ in the 6 significant digits that name their columns, "
        "got p_50fs, p_50fs, p_100fs",
    ),)
    assert from_dict({"scenario": "propagate", "snapshot_times": [50.0, 50.001]}).snapshot_times \
        == (50.0, 50.001)


def test_problems_are_listed_in_field_order():
    raw = {"emit_plots": 0, "zzz": 1, "grids": {"pad": -1, "points": 0, "omega_fe": 3},
           "bath": {"junk": 1, "gamma0": 0}, "scenario": "teleport"}
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert err.value.fields == (
        "zzz", "scenario", "bath.junk", "bath.gamma0",
        "grids.omega_fe", "grids.points", "grids.pad", "emit_plots",
    )


def readme_block(language: str) -> str:
    """The one code block of ``language`` in the README."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(rf"```{language}\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_block_is_the_default_coincidence_run():
    text = re.sub(r"//[^\n]*", "", readme_block("jsonc"))
    assert from_dict(json.loads(text)) == RunConfig(scenario="coincidence")


def test_readme_library_example_runs():
    namespace = {}
    exec(readme_block("python"), namespace)
    result = namespace["grid"].result
    assert result.shape == (128, 128)
    assert np.all(np.isfinite(result)) and result.max() == 1.0
