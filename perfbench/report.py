"""Run the benchmark repeatedly and print every metric per workload.

    python3 perfbench/report.py --reps 10 --seconds 15 [--trace] [--workloads a,b]

Repetition k uses seed ``--first-seed + k`` and starts the workload list at
position k, so no workload always runs first or last. For every workload
and metric it prints the unit, the number of runs, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, next to the metric's bound from
BENCHMARK.json. Run records are appended to perfbench/out/report.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead of end-to-end")
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = defaultdict(lambda: defaultdict(list))
    units, failed = {}, []
    log = HERE / "out" / "report.jsonl"
    log.parent.mkdir(exist_ok=True)
    for rep in range(args.reps):
        seed = args.first_seed + rep
        for i in range(len(chosen)):
            name = chosen[(rep + i) % len(chosen)]
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or res is None or not res["correct"]:
                failed.append((name, seed, proc.returncode, proc.stderr.strip()[-300:]))
            if res is not None:
                with log.open("a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed, **res}) + "\n")
                for metric, mv in res["metrics"].items():
                    values[name][metric].append(mv["value"])
                    units[metric] = mv["unit"]
            print(f"rep {rep} seed {seed} {name}: exit {proc.returncode}", file=sys.stderr)

    print(f"{'workload':<18} {'metric':<36} {'unit':<6} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in chosen:
        for metric, xs in values[name].items():
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            print(f"{name:<18} {metric:<36} {units[metric]:<6} {len(xs):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>7.4f} {'' if bound is None else bound:>6}")
    for name, seed, code, err in failed:
        print(f"FAILED {name} seed {seed} exit {code}: {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
