"""Aggregate parameter sets and the two-excitation pair basis.

An aggregate is a set of coupled three-level chromophores.  Site ``m``
contributes a ground level, a singly excited level at ``site_energies[m]``
and a doubly excited level at ``2*site_energies[m] +
onsite_anharmonicity[m]``.  Simultaneous excitation of two distinct sites
``m`` and ``n`` is shifted by ``pair_anharmonicity[m, n]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _as_square(name: str, value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"{name} must have shape ({n}, {n}), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class AggregateSpec:
    """Validated site-basis parameters of a molecular aggregate.

    Couplings and pair anharmonicities are symmetric matrices with zero
    diagonal; ``site_dipoles`` holds one Cartesian transition dipole per
    site and ``bath_coupling_weights`` a per-site scale factor for the
    system-bath coupling.
    """

    site_energies: np.ndarray
    couplings: np.ndarray
    onsite_anharmonicity: np.ndarray
    pair_anharmonicity: np.ndarray
    site_dipoles: np.ndarray
    bath_coupling_weights: np.ndarray
    label: str = "aggregate"
    notes: str = ""

    def __post_init__(self):
        energies = np.asarray(self.site_energies, dtype=float)
        if energies.ndim != 1 or energies.size == 0:
            raise ValueError("site_energies must be a non-empty 1-d sequence")
        n = energies.size
        couplings = _as_square("couplings", self.couplings, n)
        pair_u = _as_square("pair_anharmonicity", self.pair_anharmonicity, n)
        onsite_u = np.asarray(self.onsite_anharmonicity, dtype=float)
        if onsite_u.shape != (n,):
            raise ValueError(f"onsite_anharmonicity must have shape ({n},)")
        dipoles = np.asarray(self.site_dipoles, dtype=float)
        if dipoles.shape != (n, 3):
            raise ValueError(f"site_dipoles must have shape ({n}, 3), got {dipoles.shape}")
        weights = np.asarray(self.bath_coupling_weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"bath_coupling_weights must have shape ({n},)")
        for name, arr in (
            ("site_energies", energies),
            ("couplings", couplings),
            ("onsite_anharmonicity", onsite_u),
            ("pair_anharmonicity", pair_u),
            ("site_dipoles", dipoles),
            ("bath_coupling_weights", weights),
        ):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name, mat in (("couplings", couplings), ("pair_anharmonicity", pair_u)):
            if np.abs(mat - mat.T).max() > 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if np.any(np.abs(np.diag(mat)) > 1e-12):
                raise ValueError(f"{name} must have zero diagonal")
        if np.any(weights < 0.0):
            raise ValueError("bath_coupling_weights must be non-negative")

    @property
    def n_sites(self) -> int:
        return self.site_energies.size

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "notes": self.notes,
            "site_energies": self.site_energies.tolist(),
            "couplings": self.couplings.tolist(),
            "onsite_anharmonicity": self.onsite_anharmonicity.tolist(),
            "pair_anharmonicity": self.pair_anharmonicity.tolist(),
            "site_dipoles": self.site_dipoles.tolist(),
            "bath_coupling_weights": self.bath_coupling_weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateSpec":
        required = (
            "site_energies",
            "couplings",
            "onsite_anharmonicity",
            "pair_anharmonicity",
            "site_dipoles",
            "bath_coupling_weights",
        )
        missing = [key for key in required if key not in data]
        if missing:
            raise ValueError(f"aggregate definition is missing fields: {', '.join(missing)}")
        return cls(
            site_energies=data["site_energies"],
            couplings=data["couplings"],
            onsite_anharmonicity=data["onsite_anharmonicity"],
            pair_anharmonicity=data["pair_anharmonicity"],
            site_dipoles=data["site_dipoles"],
            bath_coupling_weights=data["bath_coupling_weights"],
            label=str(data.get("label", "aggregate")),
            notes=str(data.get("notes", "")),
        )

    @classmethod
    def from_json(cls, path) -> "AggregateSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class PairIndex:
    """Enumeration of the two-excitation pair basis for ``n_sites`` sites.

    Basis kets are ``|mn>`` with ``m <= n``; ``m == n`` is an overtone
    (one site doubly excited), ``m < n`` a combination of two singly
    excited sites.  Combination kets are unit normalized and the overtone
    ket is the doubly excited local level itself, which fixes a sqrt(2)
    factor on overtone-combination couplings.
    """

    n_sites: int
    first_site: np.ndarray = field(init=False)
    second_site: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        a, b = np.triu_indices(self.n_sites)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "first_site", a)
        object.__setattr__(self, "second_site", b)

    @property
    def size(self) -> int:
        return self.n_sites * (self.n_sites + 1) // 2

    @property
    def overtone_mask(self) -> np.ndarray:
        return self.first_site == self.second_site
