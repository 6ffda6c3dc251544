"""Golden outputs of the seven default scenarios on the bundled model.

``golden/scenarios.json`` holds a reduction of every CSV artifact that a
default run writes: each table column in full, and for each matrix its
axis ends and sizes, every 16th cell in both directions, and its row and
column sums.  The test runs each scenario with its default configuration
and compares the reduction of what it writes against the golden file;
each run, made once per module, also has its warnings checked.  Two more
runs (``DELAYED_RUNS``) pin a nonzero first group delay, which no default
sets: ``excite`` with unequal photon references and an 8-target
degenerate ``excite-scan``, whose references are equal.

Every part of an artifact is compared at the tolerance ``TOLERANCE``
states for that artifact, relative to the golden part's largest
magnitude; strings and integers compare exactly.  Cells carry 17
significant digits; a format with fewer than 12, a swapped or reordered
column, or a transposed map moves a part by more than its tolerance,
while a rounding shift of ~1e-14 of the largest value, as a reordered
sum gives, passes.

A change that moves a golden value on purpose regenerates the file,

    PYTHONPATH=src python tests/test_golden.py

and states the shift and its cause in CHANGES.md.
"""

import json
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from excitonscope.config import SCENARIOS, RunConfig, SourceConfig
from excitonscope.runner import run_scenario

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "scenarios.json")
STRIDE = 16

# The model tables and the JSA involve no pathway sum; every artifact
# downstream of a preparation inherits the rounding of its pathways, which
# cancel to a ratio of 0.5-1 on this model.
_PREPARED = 1e-11
TOLERANCE = {
    "model-info/levels": 1e-13,
    "jsa/jsi": 1e-13,
    "excite/populations": _PREPARED,
    "excite-scan/scan": _PREPARED,
    "excite-scan/selectivity": _PREPARED,
    "propagate/snapshots": _PREPARED,
    "coincidence/signal": _PREPARED,
    "panel-study/panel_reference": _PREPARED,
    "panel-study/panel_sigma_omega_20": _PREPARED,
    "panel-study/panel_t_wait_one_1000": _PREPARED,
    "panel-study/panel_sigma_omega_20_t_wait_one_1000": _PREPARED,
    "panel-study/panel_sigma_t_0.5409": _PREPARED,
    "panel-study/panel_t_wait_two_50": _PREPARED,
    "excite-t1/populations": _PREPARED,
    "excite-scan-t1/scan": _PREPARED,
    "excite-scan-t1/selectivity": _PREPARED,
}

_DELAYED_SOURCE = SourceConfig(t1=3.0, t2=13.0)
DELAYED_RUNS = {
    "excite-t1": RunConfig(scenario="excite", source=_DELAYED_SOURCE),
    "excite-scan-t1": RunConfig(scenario="excite-scan", source=_DELAYED_SOURCE,
                                targets=(0, 15, 30, 45, 60, 75, 90, 104)),
}
RUNS = {**{scenario: RunConfig(scenario=scenario) for scenario in SCENARIOS}, **DELAYED_RUNS}


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def reduce_csv(path: str) -> dict:
    """Table columns in full; for a matrix (gnuplot ``nonuniform matrix``,
    first cell the column count), axis ends, strided cells and sums."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    if not rows[0][0].isdigit():
        return {name: [_cell(row[k]) for row in rows[1:]] for k, name in enumerate(rows[0])}
    cols = np.array(rows[0][1:], dtype=float)
    body = np.array(rows[1:], dtype=float)
    axis, values = body[:, 0], body[:, 1:]
    return {
        "rows": [axis[0], axis[-1], axis.size],
        "cols": [cols[0], cols[-1], cols.size],
        "sample": values[::STRIDE, ::STRIDE].tolist(),
        "row_sums": values.sum(axis=1).tolist(),
        "col_sums": values.sum(axis=0).tolist(),
    }


def reduce_run(run: str, out_dir: str):
    """Runs the configuration ``RUNS[run]``; returns the reduction of every
    CSV artifact it writes, and its manifest."""
    manifest = run_scenario(replace(RUNS[run], out_dir=out_dir, format="csv"))
    return {
        f"{run}/{name[:-4]}": reduce_csv(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")
    }, manifest


def _dump(golden: dict) -> str:
    """One line per part, so a regenerated file diffs by part."""
    blocks = []
    for name, parts in golden.items():
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in parts.items())
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """``reduce_run`` of a run, each made once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = reduce_run(name, str(tmp_path_factory.mktemp(name)))
        return runs[name]
    return run


def test_golden_file_covers_every_artifact(golden):
    assert set(golden) == set(TOLERANCE)


def _assert_matches_golden(run, golden, default_run):
    actual, _ = default_run(run)
    expected = {name: parts for name, parts in golden.items() if name.startswith(run + "/")}
    assert list(actual) == list(expected)
    for name, parts in expected.items():
        assert list(actual[name]) == list(parts), name
        for part, want in parts.items():
            got = actual[name][part]
            if all(isinstance(v, (str, int)) for v in want):
                assert got == want, f"{name}: {part}"
                continue
            got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            assert got.shape == want.shape, f"{name}: {part}"
            bound = TOLERANCE[name] * np.abs(want).max()
            err = np.abs(got - want).max()
            assert err <= bound, f"{name}: {part} off by {err:.3e} (bound {bound:.3e})"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_scenario_matches_golden(scenario, golden, default_run):
    _assert_matches_golden(scenario, golden, default_run)


@pytest.mark.parametrize("run", DELAYED_RUNS)
def test_nonzero_first_delay_matches_golden(run, golden, default_run):
    _assert_matches_golden(run, golden, default_run)


# The default maps clip negative interference residue; nothing else in a
# default run calls for a warning.
_CLIPPED_CELLS = re.compile(r"(panel \S+: )?clipped \d+ negative (interference )?cells( in the map)?")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_scenario_warns_only_about_clipped_cells(scenario, default_run):
    _, manifest = default_run(scenario)
    assert [w for w in manifest.warnings if not _CLIPPED_CELLS.fullmatch(w)] == []


if __name__ == "__main__":
    reduced = {}
    with tempfile.TemporaryDirectory() as root:
        for run in RUNS:
            reduced.update(reduce_run(run, os.path.join(root, run))[0])
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(_dump(reduced))
    print(f"wrote {len(reduced)} artifacts to {GOLDEN}")
