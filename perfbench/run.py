"""apamix benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk-zaapa --seed 3 --seconds 28 --trace 0

Each measurement is a fresh interpreter (perfbench/child.py) doing the work
of one ``apamix simulate`` invocation, so set-up is paid the way a CLI user
pays it. ``--trace 0`` repeats timed children for ``--seconds`` and reports
the end-to-end metrics: the slowest child's throughput and the median
set-up time and peak memory over children. ``--trace 1`` runs one traced
child plus untraced baselines and reports the per-layer metrics. Both
check correctness outside the
timed region: the steady-state table at the default seed must match
perfbench/fingerprints.json, every child of one run must produce the same
table, and the engine must match the scalar reference path on one trial
(the oracle). A failed check marks every trial of the run as failed.

Other entry points:
    --fault fingerprint|oracle   perturb the stored table or the oracle's
                                 reference record; the run must fail
    --self-test                  check that both faults and an overlapping
                                 seed are rejected
    --record-fingerprints        re-record fingerprints.json (default seed)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 165  # a run must end within 180 s

for _var in THREAD_VARS:  # before numpy is imported here or in any child
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run child.py with ``args``; return its spawn time and its JSON result.

    The child gets its own process group, so that a timeout ends whatever
    it started too.
    """
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args[:2]} killed at the run's deadline") from None
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}: {' | '.join(tail)}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def calibrate_ms() -> float:
    """Median time of a fixed batched Gram-and-solve kernel, the engine's
    dominant operation, to show host-speed drift within a run."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=12345))
    U = rng.standard_normal((100, 64, 4))
    b = rng.standard_normal((100, 4, 1))
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(20):
            G = np.einsum("rlm,rln->rmn", U, U) + 1e-3 * np.eye(4)
            np.linalg.solve(G, b)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown")

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "config_seed": wl.config_seed(seed),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, trace: bool, fault: str | None) -> dict:
    """Run the children of one benchmark run and reduce them to metrics."""
    OUT.mkdir(exist_ok=True)
    runs, traced, failures = [], None, []
    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        if trace:
            spans = OUT / f"{name}-seed{seed}-spans.jsonl"
            _, traced = spawn(["trace", name, str(seed), str(spans)], deadline)
            failures += traced["oracle_failures"]
        while len(runs) < (1 if trace else 3) or time.monotonic() - started < seconds:
            t_spawn, res = spawn(["run", name, str(seed)], deadline)
            res["setup_s"] = res.pop("t_enter") - t_spawn
            runs.append(res)
        check_args = ["check", name]
        if not trace or fault == "oracle":
            check_args += ["--oracle", str(seed)]
        if fault == "oracle":
            check_args.append("--fault-oracle")
        _, check = spawn(check_args, deadline)
        failures += check["oracle_failures"]
    except ChildFailed as exc:
        failures.append(f"aborted: {exc}")
        check = None

    expected = json.loads(FINGERPRINTS.read_text()).get(name)
    if check is not None:
        if fault == "fingerprint" and expected:
            expected = [[v + (0.01 if i == 0 else 0.0) for i, v in enumerate(r)] for r in expected]
        bad = "no stored fingerprint" if expected is None else wl.table_mismatch(expected, check["table"])
        if bad:
            failures.append(f"fingerprint: {bad}")
    tables = [r["table"] for r in runs] + ([traced["table"]] if traced else [])
    if any(t != tables[0] for t in tables[1:]):
        failures.append("steady-state tables differ between children of the same seed")

    attempted = sum(r["trials"] for r in runs) + (traced["trials"] if traced else 0)
    attempted += check["trials"] if check else wl.RUNS
    failed = attempted if failures else 0
    return {
        "runs": runs,
        "traced": traced,
        "check_table": check and check["table"],
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": time.monotonic() - started,
    }


def end_to_end(m: dict) -> dict:
    runs = m["runs"]
    # Throughput is that of the slowest child. The shared host switches
    # between speed states up to 2x apart, for spans longer than a run; a
    # median flips between them from run to run, while the slowest child
    # sits on the contended floor, which a change to the program still
    # moves in proportion.
    slowest = min(r["trial_samples"] / r["wall_s"] for r in runs)
    return {
        "trial_samples_per_s": (slowest, "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "ok_trial_frac": (1.0 - m["failed"] / m["attempted"], "frac"),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]
    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    untraced = statistics.median(r["trial_samples"] / r["wall_s"] for r in m["runs"])
    traced_tsps = traced["trial_samples"] / traced["wall_s"]
    metrics["harness.trace_overhead"] = (untraced / traced_tsps - 1.0, "frac")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fault", choices=["fingerprint", "oracle"])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "apamix" / "__init__.py").is_file():
        print(f"apamix sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record_fingerprints:
        return record_fingerprints()
    if args.workload is None:
        ap.error("--workload is required")
    refusal = wl.seed_refusal(args.seed)
    if refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2

    cal_start = calibrate_ms()
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.fault)
    cal_end = calibrate_ms()
    correct = not m["failures"]
    if correct:
        metrics = per_layer(m) if args.trace else end_to_end(m)
    else:  # a failed run reports no timings
        metrics = {} if args.trace else {"ok_trial_frac": (0.0, "frac")}

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "calibration_ms": {"start": cal_start, "end": cal_end},
        **{k: m[k] for k in ("failures", "attempted", "failed", "elapsed_s", "runs", "traced", "check_table")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    for f in m["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def record_fingerprints() -> int:
    tables = {}
    for name in wl.WORKLOADS:
        _, check = spawn(["check", name], time.monotonic() + DEADLINE_S)
        tables[name] = check["table"]
        print(f"{name}: {len(check['table'])} rows", file=sys.stderr)
    lines = [f'  "{name}": [\n' + ",\n".join(f"    {json.dumps(r)}" for r in rows) + "\n  ]"
             for name, rows in tables.items()]
    FINGERPRINTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def self_test() -> int:
    """Both faults must fail a run; an overlapping held-out seed must be refused."""
    ok = True
    name = "full-zaapa-short"
    for fault in ("fingerprint", "oracle"):
        m = measure(name, 1, 0.0, False, fault)
        rejected = bool(m["failures"]) and m["failed"] == m["attempted"]
        print(f"fault {fault}: {'rejected' if rejected else 'NOT rejected'} {m['failures']}")
        ok &= rejected
    overlap = wl.key_overlap(35, 34)  # seed XOR index: 35^1 == 34^0
    fresh = wl.seed_refusal(1)
    print(f"raw seeds 34/35: {overlap or 'NOT refused'}; benchmark seed 1: {fresh or 'accepted'}")
    ok &= overlap is not None and fresh is None
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
