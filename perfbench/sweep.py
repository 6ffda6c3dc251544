"""One-off size sweep for the reference figures in README.md.

    python3 perfbench/sweep.py

For each size N in 8, 14, 20 and 26, a random aggregate (the recipe of the
size tests, drawn from seed 0) is built, prepared once and mapped once,
each step in its own worker process.  Prints set-up time (import and build), preparation
time, map time, peak RSS and the pole table's ``regularized`` flag per
size, and the exponent p of a least-squares fit value ~ N^p over the sizes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import common

SIZES = (8, 14, 20, 26)
SEED = 0


def step(role: str, n: int, pops: str) -> dict:
    cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"), "--role", role, "--model", "generic",
           "--n", str(n), "--seed", str(SEED), "--pops", pops]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=common.ROOT)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["problems"]:
        raise SystemExit(f"sweep: checks failed at N={n}: {record['problems']}")
    return record


def exponent(sizes, values) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    common.OUT.mkdir(parents=True, exist_ok=True)
    pops = str(common.OUT / "sweep-populations.npy")
    rows = []
    print("| N | states f | setup s | prepare s | map s | peak RSS MB | regularized |")
    print("|---|---|---|---|---|---|---|")
    for n in SIZES:
        prep = step("prepare", n, pops)
        mapped = step("map", n, pops)
        row = (n, n * (n + 1) // 2, prep["setup_s"], prep["op_s"], mapped["op_s"],
               max(prep["rss_mb"], mapped["rss_mb"]))
        rows.append(row)
        print("| {} | {} | {:.3f} | {:.3f} | {:.4f} | {:.0f} | {} |".format(*row, prep["regularized"]),
              flush=True)
    cols = list(zip(*rows))
    print(f"fitted exponents over N: setup {exponent(SIZES, cols[2]):.2f}, "
          f"prepare {exponent(SIZES, cols[3]):.2f}, map {exponent(SIZES, cols[4]):.2f}, "
          f"peak RSS {exponent(SIZES, cols[5]):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
