"""Shared set-up for the benchmark's processes.

Importing this module pins every BLAS/OpenMP pool to one thread before
numpy loads (children inherit the environment), puts the checkout's
``src`` on the import path, and stops with an error when the program's
sources are absent.  Workload inputs are built the way the CLI builds
them from its default config, so they follow the CLI defaults.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "excitonscope" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no excitonscope sources under {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from excitonscope import ExcitonSystem, runner  # noqa: E402
from excitonscope.config import FilterConfig, RunConfig, WaitingConfig  # noqa: E402

# The CLI's default config; every workload input not drawn from the seed
# comes from it.
CONFIG = RunConfig(scenario="coincidence")
DEFAULT_GATES = (CONFIG.filters.sigma_omega, CONFIG.filters.sigma_t,
                 CONFIG.waiting.t_wait_two, CONFIG.waiting.t_wait_one)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def generic_aggregate(n: int, seed: int):
    """Random aggregate of ``n`` sites, the recipe of the size tests,
    drawn from the benchmark seed."""
    from excitonscope import AggregateSpec

    rng = np.random.default_rng(seed)
    j = rng.uniform(-40.0, 40.0, (n, n))
    j = np.triu(j, 1) + np.triu(j, 1).T
    u2 = rng.uniform(-120.0, 30.0, (n, n))
    u2 = np.triu(u2, 1) + np.triu(u2, 1).T
    return AggregateSpec(
        site_energies=rng.uniform(12000.0, 12900.0, n),
        couplings=j,
        onsite_anharmonicity=rng.uniform(-260.0, 160.0, n),
        pair_anharmonicity=u2,
        site_dipoles=rng.normal(0.0, 1.0, (n, 3)),
        bath_coupling_weights=np.ones(n),
    )


def build_model(model: str, n: int, seed: int) -> ExcitonSystem:
    """The bundled 14-site model as the CLI builds it, or a random
    ``n``-site one with the CLI's default bath and polarization."""
    if model == "bundled":
        return runner.build_system(CONFIG)
    return ExcitonSystem.build(generic_aggregate(n, seed), CONFIG.bath, CONFIG.polarization)


def default_source(system):
    """The CLI's default ("auto") source for ``system``."""
    return runner.resolve_source(CONFIG, system)


def default_axes(system):
    return runner.resolve_detection_axes(CONFIG, system)


def gates(sigma_omega: float, sigma_t: float, t_wait_two: float, t_wait_one: float):
    """Gate pair of one detection setting, as the CLI builds it from its config."""
    return runner._filters(replace(CONFIG, filters=FilterConfig(sigma_omega, sigma_t),
                                   waiting=WaitingConfig(t_wait_two, t_wait_one)))


def model_checks(system) -> None:
    """Eigen-energy traces and transport properties of a built model."""
    import checks

    spec = system.aggregate
    checks.check_eigen_traces(system.eig.energies_e, system.eig.energies_f, spec.site_energies,
                              spec.onsite_anharmonicity, spec.pair_anharmonicity)
    for model in (system.transport_one, system.transport_two):
        checks.check_transport(model.rate_matrix, model.energies, system.bath.temperature)


CAL_POINTS = 200_000
CAL_LOOP = 40_000
CAL_REPEATS = 3


def calibration_s() -> float:
    """Fastest of CAL_REPEATS runs of a fixed host-speed probe, in seconds.

    The probe does what the program spends its time on: complex array
    arithmetic on fresh numpy arrays (as in source evaluation) and an
    interpreted loop over floats (as in the rate loop of the model build).
    Its inputs never change, so its time changes only with the speed the
    shared host gives this process."""
    rng = np.random.default_rng(20260118)
    x = rng.uniform(-3.0, 3.0, CAL_POINTS) + 1j * rng.uniform(-0.1, 0.1, CAL_POINTS)
    best = float("inf")
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        phi = 0.7 * x + 0.2
        y = np.sin(phi) / phi * np.exp(1j * phi)
        total = float(np.sum((y * y.conj()).real + np.exp(-(x * x).real)))
        acc = 0.0
        for i in range(CAL_LOOP):
            acc += (i * 0.5) % 7.0 - 3.0
        best = min(best, time.perf_counter() - start)
    if not np.isfinite(total + acc):
        raise RuntimeError("calibration probe gave a non-finite result")
    return best


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
