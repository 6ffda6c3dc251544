"""Aggregate parameter sets and the two-excitation pair basis.

An aggregate is a set of coupled three-level chromophores.  Site ``m``
contributes a ground level, a singly excited level at ``site_energies[m]``
and a doubly excited level at ``2*site_energies[m] +
onsite_anharmonicity[m]``.  Simultaneous excitation of two distinct sites
``m`` and ``n`` is shifted by ``pair_anharmonicity[m, n]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# The array fields in file order, each with its shape in the site count n.
_ARRAYS = {
    "site_energies": lambda n: (n,),
    "couplings": lambda n: (n, n),
    "onsite_anharmonicity": lambda n: (n,),
    "pair_anharmonicity": lambda n: (n, n),
    "site_dipoles": lambda n: (n, 3),
    "bath_coupling_weights": lambda n: (n,),
}


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
        arrays = {}
        for name in _ARRAYS:
            try:
                arrays[name] = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} must be an array of numbers: {exc}") from exc
        energies = arrays["site_energies"]
        if energies.ndim != 1 or energies.size == 0:
            raise ValueError("site_energies must be a non-empty 1-d sequence")
        n = energies.size
        for name, arr in arrays.items():
            shape = _ARRAYS[name](n)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("couplings", "pair_anharmonicity"):
            mat = arrays[name]
            if np.abs(mat - mat.T).max() > 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if np.any(np.abs(np.diag(mat)) > 1e-12):
                raise ValueError(f"{name} must have zero diagonal")
        if np.any(self.bath_coupling_weights < 0.0):
            raise ValueError("bath_coupling_weights must be non-negative")

    @property
    def n_sites(self) -> int:
        return self.site_energies.size

    def to_dict(self) -> dict:
        return {"label": self.label, "notes": self.notes,
                **{name: getattr(self, name).tolist() for name in _ARRAYS}}

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateSpec":
        if not isinstance(data, dict):
            kind = type(data).__name__
            raise ValueError(f"aggregate definition must be a JSON object, got {kind}")
        missing = [key for key in _ARRAYS if key not in data]
        if missing:
            raise ValueError(f"aggregate definition is missing fields: {', '.join(missing)}")
        return cls(
            **{name: data[name] for name in _ARRAYS},
            label=str(data.get("label", "aggregate")),
            notes=str(data.get("notes", "")),
        )


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
