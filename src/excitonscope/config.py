"""Run configuration for the command-line scenarios.

A run is one JSON object; only ``scenario`` is required, and the command
line's scenario stands in for a missing one.  Each field's
default is written once, on its dataclass field below (the bath's in
:func:`presets.reference_bath`), and its check, message and conversion
once, as a ``_Rule`` in the field's metadata.  One walker checks every
section against these tables, and one serializer writes them back.

scenario        model-info | jsa | excite | excite-scan | propagate
                | coincidence | panel-study
aggregate       "bundled" (packaged 14-site model) or a JSON file path,
                resolved relative to the config file
polarization    three numbers, not all zero
bath            lambda0, gamma0, pure_dephasing (cm^-1), temperature (K),
                brownian_modes [[lambda, omega, gamma], ...]
source          entangled mode: omega1, omega2, pump_center (cm^-1 or "auto":
                brightest one-exciton lines, pump tuned to ``target``),
                tau_pump, t1, t2 (fs), alpha, e0; coherent mode: center
                (cm^-1 or "auto"), tau (fs), scale
filters         gate widths sigma_omega, sigma_t (cm^-1)
waiting         t_wait_two, t_wait_one (fs)
grids           omega_fe, omega_eg: "auto" (line positions +- pad, cm^-1,
                on ``points`` samples) or [lo, hi, n]
time_fs         preparation snapshot time; snapshot_times: propagate columns (fs),
                distinct in the 6 significant digits of their headers
targets         "all" or two-exciton indices (excite-scan), scan_mode
                "degenerate" | "mediated"; target: state auto sources tune to
out_dir, format ("csv" | "json"), emit_plots (gnuplot scripts next to data)
threads         null (one thread) or a count; --threads overrides it

``load_config`` validates the whole object before constructing anything
and reports every offending field at once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .bath import BathSpec
from .excitation import DEFAULT_POLARIZATION
from .presets import reference_bath

SCENARIOS = (
    "model-info",
    "jsa",
    "excite",
    "excite-scan",
    "propagate",
    "coincidence",
    "panel-study",
)
SCAN_MODES = ("degenerate", "mediated")
SOURCE_MODES = ("entangled", "coherent")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid run configuration; ``fields`` lists every offending path."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        self.fields = tuple(path for path, _ in self.problems)
        lines = [f"  {path}: {msg}" for path, msg in self.problems]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


class _Rule(NamedTuple):
    """Check, message (text, or a function of the rejected value) and
    conversion of one leaf field."""

    ok: Callable[[object], bool]
    message: str | Callable[[object], str]
    convert: Callable = lambda v: v


def _is_num(x) -> bool:
    """A finite int or float: ``read_json`` reads NaN and +-Infinity as
    floats, and integers of any size."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list(x) -> bool:
    return isinstance(x, (list, tuple))


def _floats(values) -> tuple:
    return tuple(float(x) for x in values)


_BOUNDS = {"": lambda v: True, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}


def _number(bound: str = "", unit: str = "") -> _Rule:
    """A float, optionally bounded below by zero (``">= 0"`` or ``"> 0"``)."""
    text = " ".join(part for part in ("must be a number", bound, unit) if part)
    return _Rule(lambda v: _is_num(v) and _BOUNDS[bound](v), text, float)


def _integer(low: int, nullable: bool = False) -> _Rule:
    text = "must be " + ("null or " if nullable else "") + f"an integer >= {low}"
    return _Rule(lambda v: (nullable and v is None) or (_is_int(v) and v >= low), text)


def _one_of(options) -> _Rule:
    return _Rule(lambda v: v in options, "must be " + " or ".join(map(repr, options)))


def _keyword_or(word: str, rule: _Rule) -> _Rule:
    """``rule``, or the keyword ``word`` kept as given."""
    return _Rule(lambda v: v == word or rule.ok(v), rule.message,
                 lambda v: v if v == word else rule.convert(v))


def _aggregate(base_dir: str) -> _Rule:
    """"bundled", or a JSON file path resolved relative to ``base_dir``."""

    def named(v):
        return isinstance(v, str) and v != ""

    def resolve(v):
        return os.path.normpath(os.path.join(base_dir, v))

    return _Rule(
        lambda v: v == "bundled" or (named(v) and os.path.isfile(resolve(v))),
        lambda v: f"no such file: {resolve(v)}" if named(v) else "must be a non-empty string",
        lambda v: v if v == "bundled" else resolve(v),
    )


def _scenario_message(value) -> str:
    head = "required" if value is None else f"unknown scenario {value!r}"
    return f"{head}; one of " + ", ".join(SCENARIOS)


def _brownian_mode(m) -> bool:
    return (_is_list(m) and len(m) == 3 and all(map(_is_num, m))
            and m[0] >= 0 and m[1] > 0 and m[2] > 0)


_NUMBER_OR_AUTO = _keyword_or("auto", _Rule(_is_num, 'must be a number or "auto"', float))
_AXIS = _keyword_or("auto", _Rule(
    lambda v: (_is_list(v) and len(v) == 3 and _is_num(v[0]) and _is_num(v[1])
               and _is_int(v[2]) and v[1] > v[0] and v[2] >= 2),
    'must be "auto" or [lo, hi, n] with hi > lo, n >= 2',
    lambda v: (float(v[0]), float(v[1]), int(v[2])),
))
_TARGETS = _keyword_or("all", _Rule(
    lambda v: _is_list(v) and len(v) > 0 and all(_is_int(t) and t >= 0 for t in v),
    'must be "all" or a non-empty list of indices >= 0',
    lambda v: tuple(int(t) for t in v),
))


def snapshot_label(t: float) -> str:
    """Column header of the ``propagate`` snapshot at ``t`` fs."""
    return f"p_{t:g}fs"


def _times(v) -> bool:
    return _is_list(v) and len(v) > 0 and all(_is_num(t) and t >= 0 for t in v)


def _times_message(v) -> str:
    if not _times(v):
        return "must be a non-empty list of numbers >= 0 (fs)"
    labels = ", ".join(snapshot_label(t) for t in v)
    return f"times must differ in the 6 significant digits that name their columns, got {labels}"


# each time names one column of the propagate table, so names must not collide
_SNAPSHOT_TIMES = _Rule(lambda v: _times(v) and len(set(map(snapshot_label, v))) == len(v),
                        _times_message, _floats)
_VECTOR = _Rule(lambda v: _is_list(v) and len(v) == 3 and all(map(_is_num, v)) and any(v),
                "must be a list of three numbers, not all zero", _floats)
_NAME = _Rule(lambda v: isinstance(v, str) and v != "", "must be a non-empty string")
# BathSpec lives in bath.py; its rules are listed here, in serialization order
_BATH = {
    "lambda0": _number(">= 0"),
    "gamma0": _number("> 0"),
    "temperature": _number("> 0"),
    "pure_dephasing": _number(">= 0"),
    "brownian_modes": _Rule(lambda v: _is_list(v) and all(map(_brownian_mode, v)),
                            "must be a list of [lambda, omega, gamma] with omega, gamma > 0",
                            lambda v: tuple(map(_floats, v))),
}


def _field(default, rule: _Rule):
    return field(default=default, metadata={"rule": rule})


def _section(factory, table=None):
    """A nested object; its rule is its own field table."""
    return field(default_factory=factory, metadata={"rule": table or _table(factory)})


def _table(cls) -> dict:
    """Field name -> rule (or a section's table), in field order."""
    return {f.name: f.metadata["rule"] for f in dataclasses.fields(cls)}


class _Plain:
    """``to_dict`` for the config dataclasses: plain JSON data, field order."""

    def to_dict(self) -> dict:
        return _plain(self, _table(type(self)))


@dataclass(frozen=True)
class SourceConfig(_Plain):
    mode: str = _field("entangled", _one_of(SOURCE_MODES))
    omega1: float | str = _field("auto", _NUMBER_OR_AUTO)
    omega2: float | str = _field("auto", _NUMBER_OR_AUTO)
    pump_center: float | str = _field("auto", _NUMBER_OR_AUTO)
    tau_pump: float = _field(150.0, _number("> 0", "(fs)"))
    t1: float = _field(0.0, _number("", "(fs)"))
    t2: float = _field(10.0, _number("", "(fs)"))
    alpha: float = _field(1.0, _number("> 0"))
    e0: float = _field(1.0, _number("> 0"))
    center: float | str = _field("auto", _NUMBER_OR_AUTO)
    tau: float = _field(60.0, _number("> 0", "(fs)"))
    scale: float = _field(1.0, _number("> 0"))


@dataclass(frozen=True)
class FilterConfig(_Plain):
    sigma_omega: float = _field(10.0, _number("> 0", "(cm^-1)"))
    sigma_t: float = _field(4.8681, _number("> 0", "(cm^-1)"))


@dataclass(frozen=True)
class WaitingConfig(_Plain):
    t_wait_two: float = _field(0.0, _number(">= 0", "(fs)"))
    t_wait_one: float = _field(100.0, _number(">= 0", "(fs)"))


@dataclass(frozen=True)
class GridConfig(_Plain):
    omega_fe: tuple | str = _field("auto", _AXIS)
    omega_eg: tuple | str = _field("auto", _AXIS)
    points: int = _field(128, _integer(2))
    pad: float = _field(60.0, _number(">= 0", "(cm^-1)"))


@dataclass(frozen=True)
class RunConfig(_Plain):
    scenario: str = field(metadata={"rule": _Rule(lambda v: v in SCENARIOS, _scenario_message)})
    aggregate: str = _field("bundled", _aggregate("."))
    polarization: tuple = _field(DEFAULT_POLARIZATION, _VECTOR)
    bath: BathSpec = _section(reference_bath, _BATH)
    source: SourceConfig = _section(SourceConfig)
    filters: FilterConfig = _section(FilterConfig)
    waiting: WaitingConfig = _section(WaitingConfig)
    grids: GridConfig = _section(GridConfig)
    time_fs: float = _field(0.0, _number(">= 0", "(fs)"))
    snapshot_times: tuple = _field((50.0, 100.0, 250.0, 1000.0), _SNAPSHOT_TIMES)
    targets: tuple | str = _field("all", _TARGETS)
    scan_mode: str = _field("degenerate", _one_of(SCAN_MODES))
    target: int = _field(7, _integer(0))
    out_dir: str = _field("runs", _NAME)
    threads: int | None = _field(None, _integer(1, nullable=True))
    format: str = _field("csv", _one_of(FORMATS))
    emit_plots: bool = _field(True, _Rule(lambda v: isinstance(v, bool), "must be true or false"))


_SECTION_DEFAULTS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _walk(table: dict, raw: dict, prefix: str, problems: list) -> dict:
    """Check ``raw`` against ``table`` and return the converted values it
    gives, sections built over their defaults; append every problem."""
    problems.extend((prefix + key, "unknown field") for key in raw if key not in table)
    values = {}
    for name, rule in table.items():
        path = prefix + name
        if isinstance(rule, dict):
            section = raw.get(name, {})
            if isinstance(section, dict):
                given = _walk(rule, section, path + ".", problems)
                values[name] = dataclasses.replace(_SECTION_DEFAULTS[name](), **given)
            else:
                problems.append((path, "must be an object"))
        elif name in raw:
            value = raw[name]
            if rule.ok(value):
                values[name] = rule.convert(value)
            else:
                message = rule.message(value) if callable(rule.message) else rule.message
                problems.append((path, message))
    return values


def _plain(value, table):
    """JSON data of a config value, keys in ``table`` order, tuples as lists."""
    if isinstance(table, dict):
        return {name: _plain(getattr(value, name), rule) for name, rule in table.items()}
    if isinstance(value, tuple):
        return [_plain(item, None) for item in value]
    return value


def from_dict(raw: dict, base_dir: str = ".", scenario: str | None = None) -> RunConfig:
    """Validate a raw JSON object and resolve every default.

    ``scenario`` is the scenario of an object that names none; without it
    the object must name one.  Raises ConfigError listing all offending
    fields if anything is missing, unknown, mistyped or out of range.
    """
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", "config must be a JSON object")])
    problems: list[tuple[str, str]] = []
    # scenario has no default: a missing one is ``scenario``, and is checked
    # as null ("required") where that is None
    table = {**_table(RunConfig), "aggregate": _aggregate(base_dir)}
    values = _walk(table, {"scenario": scenario, **raw}, "", problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(**values)


def read_json(path: str, field: str):
    """The JSON value in the UTF-8 file at ``path``; a file that cannot be
    read or decoded, too deep a nesting included, is a ConfigError on ``field``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([(field, f"cannot read {path}: {exc.strerror or exc}")]) from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError([(field, f"{path} is not valid JSON: {exc}")]) from exc


def load_config(path: str, scenario: str | None = None) -> RunConfig:
    """Read and validate a JSON run configuration file; ``scenario`` is
    the scenario of a file that names none (see :func:`from_dict`)."""
    raw = read_json(path, "<file>")
    return from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)), scenario=scenario)


def reference_config(scenario: str) -> RunConfig:
    """The documented reference scenario on the bundled aggregate."""
    return RunConfig(scenario=scenario)
