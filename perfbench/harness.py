"""State and helpers shared by the workloads of one benchmark run."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import common
import checks
from spans import Tracer

PROBE_TIMEOUT_S = 60
# Set-up probes per run, half before the rounds and half after them, so
# that the median is taken over the whole run rather than a few seconds.
SETUP_PROBES = 8
# The calibration probe's time (common.calibration_s) on the reference
# machine of README.md.  Times are reported at this host speed: a time
# measured while the probe took c seconds is scaled by CAL_REF_S / c.
CAL_REF_S = 0.030


class Run:
    """One run of one workload: inputs from the seed, rounds until the
    measuring time is spent, operation counts, check failures, samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.out = common.OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_samples: list[tuple[float, float]] = []
        self.calibrations: list[float] = []
        self.rounds_done = 0
        self.op_times: dict[str, list[tuple[int, float]]] = {}
        self.manifests: list[dict] = []
        self.artifact_bytes = 0

    # -- checks --------------------------------------------------------------

    def check(self, fn, *args, **kwargs) -> bool:
        try:
            fn(*args, **kwargs)
        except checks.CheckError as exc:
            self.problems.append(str(exc))
            return False
        return True

    # -- rounds --------------------------------------------------------------

    def rounds(self):
        """Yield round indices until the measuring time is spent (at least
        one), with the set-up probes before and after them and a host-speed
        calibration before the first round and after every round."""
        self.setup_probes(SETUP_PROBES // 2)
        self.calibrations.append(common.calibration_s())
        start = time.perf_counter()
        while self.rounds_done == 0 or time.perf_counter() - start < self.seconds:
            yield self.rounds_done
            self.calibrations.append(common.calibration_s())
            self.rounds_done += 1
        self.setup_probes(SETUP_PROBES - SETUP_PROBES // 2)

    def record(self, op: str, seconds: float):
        """One timed operation; ``op`` names it the same in every round."""
        self.op_times.setdefault(op, []).append((self.rounds_done, seconds))

    def best_round_wall_s(self) -> float:
        """A round at each operation's fastest wall time in this run."""
        return sum(min(t for _, t in times) for times in self.op_times.values())

    def round_s(self) -> float:
        """One round in seconds at the reference host speed: each operation's
        time scaled by the mean of the calibrations before and after its
        round, the median over rounds, summed over the operations."""
        cal = self.calibrations
        return sum(statistics.median([t * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1]) for i, t in times])
                   for times in self.op_times.values())

    def setup_wall_s(self) -> float:
        """The fastest of the run's set-up wall times."""
        return min(s for s, _ in self.setup_samples)

    def setup_s(self) -> float:
        """Set-up time at the reference host speed: each probe's set-up time
        scaled by the calibration run in the same process, the median over
        the probes."""
        return statistics.median([s * CAL_REF_S / c for s, c in self.setup_samples])

    def start_tracing(self):
        if self.tracer is not None:
            self.tracer.install()

    def stop_tracing(self):
        if self.tracer is not None:
            self.tracer.restore()

    # -- program calls -------------------------------------------------------

    def cli(self, scenario: str, out_dir, config=None, threads: int = 1) -> tuple[float, dict]:
        """One in-process CLI run; returns its wall time in seconds and the
        manifest's stage times (empty if the run failed)."""
        from excitonscope import cli

        argv = [scenario, "--out", str(out_dir), "--format", "csv", "--threads", str(threads)]
        if config is not None:
            argv += ["--config", str(config)]
        if self.tracer is not None:
            self.tracer.tag = {"threads": threads}
        sink = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"perfbench: {scenario} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
            return wall, {}
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        self.manifests.append(manifest)
        names = manifest["artifacts"] + ["manifest.json"]
        self.artifact_bytes += sum((out_dir / name).stat().st_size for name in names)
        return wall, {entry["stage"]: entry["seconds"] for entry in manifest["timings"]}

    def setup_probes(self, count: int):
        """Import-and-build times of the bundled model in fresh processes.

        Probes are set-up, not operations: they do not count towards
        ``attempted``, and a probe that fails stops the run."""
        cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"), "--role", "setup"]
        for _ in range(count):
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                                  cwd=common.ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
            record = json.loads(proc.stdout.splitlines()[-1])
            self.setup_samples.append((record["setup_s"], record["cal_s"]))

    def finish(self):
        if self.tracer is not None:
            traces = common.OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            self.tracer.dump(str(traces / f"{self.workload}-seed{self.seed}.json"))
        shutil.rmtree(self.out, ignore_errors=True)
