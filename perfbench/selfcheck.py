"""The benchmark's own test: every workload runs traced, correctly, on two
seeds.

A traced run (`run.py --trace 1`) does at least three traced passes, each in
a fresh interpreter, and is only correct if they all report the same counts;
so one traced run per seed checks that counts repeat for that seed, and the
second seed checks that claims can be rechecked on a seed not used while
writing them.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2)
WORKLOADS = ("filtrate", "cover", "suite")


def traced_run_ok(workload: str, seed: int) -> bool:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=300)
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}")
    if not ok:
        print(proc.stdout + proc.stderr)
    return ok


def main() -> int:
    results = [traced_run_ok(w, s) for w in WORKLOADS for s in SEEDS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
