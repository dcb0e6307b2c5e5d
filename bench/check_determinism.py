"""Check that two traced runs on one seed give identical counts.

    python3 bench/check_determinism.py --workload cohomology_real --seed 1

Runs bench/run.py --trace 1 twice, in two processes with different string
hash seeds, and compares every per-layer metric whose unit is a count or a
ratio of counts. Exits 0 when all are identical, 1 otherwise. Count-based
claims about the package rest on these repeating exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def traced_run(workload: str, seed: int, seconds: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    first, second = (traced_run(args.workload, args.seed, args.seconds, h) for h in (1, 2))
    differ = []
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "ratio"):
            a, b = metric["value"], second["metrics"][name]["value"]
            print(f"{name:32s} {a!r:>24} {b!r:>24}")
            if a != b:
                differ.append(name)
    if not (first["correct"] and second["correct"]):
        print("a traced run reported incorrect results")
        return 1
    if differ:
        print("counts differ: " + ", ".join(differ))
        return 1
    print("all counts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
