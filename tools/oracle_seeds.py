"""Run the benchmark's oracle over a range of seeds and list the failures.

    python3 tools/oracle_seeds.py FIRST LAST WORKLOAD [WORKLOAD ...]

For each workload and each benchmark seed from FIRST to LAST inclusive, it
runs ``perfbench/child.py check WORKLOAD --oracle SEED`` in a fresh
interpreter, as ``perfbench/run.py`` does, with one BLAS thread and the
package imported from ``src/`` next to this script's directory. It prints
``workload seed reason`` for every pair whose oracle fails or whose child
exits with an error, then a count of the failing pairs on stderr, and exits
1 if any pair failed. One failing pair at a benchmark seed makes that
run's ``ok_trial_frac`` 0, so a change that moves the engine's answers is
swept before and after:

    python3 tools/oracle_seeds.py 1 100 desk-zaapa desk-zapapa-ar1 full-zaapa-short

Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def failures(workload: str, seed: int) -> list[str]:
    """The oracle failures of one (workload, seed) pair, or the child's error."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "check", workload,
           "--oracle", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        return [f"child exited {proc.returncode}: {' '.join(tail)}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])["oracle_failures"]


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    first, last, workloads = int(argv[0]), int(argv[1]), argv[2:]
    bad = 0
    for workload in workloads:
        for seed in range(first, last + 1):
            found = failures(workload, seed)
            bad += bool(found)
            for reason in found:
                print(f"{workload} {seed} {reason}", flush=True)
    print(f"{bad} of {len(workloads) * (last - first + 1)} pairs failed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
