import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import excitonscope
from excitonscope import AggregateSpec, PairIndex
from excitonscope.config import read_json
from excitonscope.presets import bundled_aggregate
from conftest import make_trimer


def test_round_trip_through_json(tmp_path):
    spec = make_trimer()
    path = tmp_path / "trimer.json"
    path.write_text(json.dumps(spec.to_dict()))
    back = AggregateSpec.from_dict(json.loads(path.read_text()))
    assert back.label == spec.label
    np.testing.assert_array_equal(back.site_energies, spec.site_energies)
    np.testing.assert_array_equal(back.couplings, spec.couplings)
    np.testing.assert_array_equal(back.onsite_anharmonicity, spec.onsite_anharmonicity)
    np.testing.assert_array_equal(back.pair_anharmonicity, spec.pair_anharmonicity)
    np.testing.assert_array_equal(back.site_dipoles, spec.site_dipoles)
    np.testing.assert_array_equal(back.bath_coupling_weights, spec.bath_coupling_weights)


def test_from_dict_reports_missing_fields():
    with pytest.raises(ValueError, match="site_energies"):
        AggregateSpec.from_dict({"couplings": [[0.0]]})


def test_asymmetric_couplings_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        AggregateSpec(
            site_energies=(1.0, 2.0),
            couplings=((0.0, 1.0), (2.0, 0.0)),
            onsite_anharmonicity=(0.0, 0.0),
            pair_anharmonicity=((0.0, 0.0), (0.0, 0.0)),
            site_dipoles=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            bath_coupling_weights=(1.0, 1.0),
        )


@pytest.mark.parametrize("couplings, message", [
    (((0.0, np.nan), (np.nan, 0.0)), "couplings contains non-finite entries"),
    (((np.nan, 1.0), (1.0, 0.0)), "couplings contains non-finite entries"),
    (((0.0, 1.0), (1.0 + 2e-12, 0.0)), "couplings must be symmetric"),
])
def test_non_finite_couplings_are_named_before_symmetry(couplings, message):
    # a NaN pair or a NaN on the diagonal is not finite, whatever else it is
    with pytest.raises(ValueError, match=message):
        AggregateSpec(
            site_energies=(1.0, 2.0),
            couplings=couplings,
            onsite_anharmonicity=(0.0, 0.0),
            pair_anharmonicity=((0.0, 0.0), (0.0, 0.0)),
            site_dipoles=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            bath_coupling_weights=(1.0, 1.0),
        )


def test_nonzero_coupling_diagonal_rejected():
    with pytest.raises(ValueError, match="zero diagonal"):
        AggregateSpec(
            site_energies=(1.0, 2.0),
            couplings=((3.0, 1.0), (1.0, 0.0)),
            onsite_anharmonicity=(0.0, 0.0),
            pair_anharmonicity=((0.0, 0.0), (0.0, 0.0)),
            site_dipoles=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            bath_coupling_weights=(1.0, 1.0),
        )


def test_arrays_are_read_only():
    spec = make_trimer()
    with pytest.raises(ValueError):
        spec.site_energies[0] = 0.0


def test_bundled_aggregate_loads():
    from excitonscope.presets import bundled_aggregate

    spec = bundled_aggregate()
    assert spec.n_sites == 14
    assert spec.label == "ring14"
    # the anharmonicities that split the two-exciton ladder must be active
    assert np.all(spec.onsite_anharmonicity < 0.0)
    assert np.any(spec.pair_anharmonicity != 0.0)
    round_tripped = AggregateSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    np.testing.assert_array_equal(round_tripped.couplings, spec.couplings)
    # field by field the packaged file as any aggregate file is read
    packaged = Path(excitonscope.__file__).parent / "data" / "aggregate14.json"
    from_file = AggregateSpec.from_dict(read_json(str(packaged), "aggregate"))
    for name in (f.name for f in dataclasses.fields(AggregateSpec)):
        np.testing.assert_array_equal(getattr(spec, name), getattr(from_file, name), err_msg=name)


def test_array_table_is_the_dataclass_schema():
    from excitonscope.aggregate import _ARRAYS

    names = [f.name for f in dataclasses.fields(AggregateSpec)]
    arrays = [name for name in names if name not in ("label", "notes")]
    assert list(_ARRAYS) == arrays
    spec = bundled_aggregate()
    assert {name: shape(spec.n_sites) for name, shape in _ARRAYS.items()} == {
        name: getattr(spec, name).shape for name in arrays}


def test_to_dict_writes_the_packaged_file_back():
    packaged = Path(excitonscope.__file__).parent / "data" / "aggregate14.json"
    written = bundled_aggregate().to_dict()
    assert list(written.items()) == list(json.loads(packaged.read_text("utf-8")).items())


def _bundled_with(**fields):
    return {**bundled_aggregate().to_dict(), **fields}


@pytest.mark.parametrize("data, message", [
    (3, "aggregate definition must be a JSON object, got int"),
    ([1, 2], "aggregate definition must be a JSON object, got list"),
    (_bundled_with(couplings={"a": 1}), "couplings"),
    (_bundled_with(site_dipoles=[[1.0, 0.0, 0.0]] * 13 + [[1.0, 0.0]]), "site_dipoles"),
    (_bundled_with(onsite_anharmonicity="large"), "onsite_anharmonicity"),
    (_bundled_with(bath_coupling_weights=[10**400] * 14), "bath_coupling_weights"),
], ids=["number", "list", "object-field", "ragged-dipoles", "string-field", "past-double"])
def test_malformed_definitions_name_their_field(data, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        AggregateSpec.from_dict(data)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_pair_index_enumerates_upper_triangle(n):
    pairs = PairIndex(n)
    assert pairs.size == n * (n + 1) // 2
    seen = set()
    for a, b in zip(pairs.first_site, pairs.second_site):
        assert 0 <= a <= b < n
        seen.add((int(a), int(b)))
    assert len(seen) == pairs.size
    overtones = int(pairs.overtone_mask.sum())
    assert overtones == n
