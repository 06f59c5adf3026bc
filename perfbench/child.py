"""One workload invocation in a fresh interpreter; run.py starts these.

    child.py run   WORKLOAD SEED              timed, untraced
    child.py check WORKLOAD [--oracle SEED] [--fault-oracle]
    child.py trace WORKLOAD SEED SPANS_PATH   traced

``run`` does the work of one ``apamix simulate`` call and
reports when it entered the engine, how long the engine call took and the
steady-state table. ``check`` computes the table at the default seed and,
with ``--oracle``, runs the reference-path oracle at SEED. ``trace`` wraps
apamix's public functions, runs the workload and the oracle, writes the
spans and reports the per-layer figures. The last stdout line is JSON.
"""

import time

_t0 = time.perf_counter()
import apamix.cli  # noqa: E402,F401  (what an ``apamix`` invocation imports)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def do_run(name, seed):
    cfg = wl.build(name, wl.config_seed(seed))
    n = cfg.scenario.materialize().n_samples
    rows, trials, t_enter, t_exit = wl.run(cfg)
    return {
        "t_enter": t_enter,
        "wall_s": t_exit - t_enter,
        "trials": trials,
        "trial_samples": trials * n,
        "table": rows,
        "peak_rss_mb": peak_rss_mb(),
    }


def do_check(name, oracle_seed, fault_oracle):
    rows, trials, _, _ = wl.run(wl.build(name, wl.config_seed(wl.DEFAULT_SEED)))
    out = {"table": rows, "trials": trials, "oracle_failures": []}
    if oracle_seed is not None:
        cfg = wl.build(name, wl.config_seed(oracle_seed))
        out["oracle_failures"] = wl.oracle(cfg, fault=fault_oracle)
    return out


def do_trace(name, seed, spans_path):
    from tracer import SpanTree, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.run_id = "workload"
    cfg = wl.build(name, wl.config_seed(seed))
    n = cfg.scenario.materialize().n_samples
    rows, trials, t_enter, t_exit = wl.run(cfg)
    tracer.run_id = "oracle"
    failures = wl.oracle(cfg)
    tracer.write(spans_path)

    tree = SpanTree(tracer.spans)
    roots = tree.find("harness.run_experiment", "workload")
    in_engine = [d for r in roots for d in tree.descendants(r)]
    run_s = sum(tree.duration(r) for r in roots)
    engine_self = sum(tree.self_time(r) for r in roots)
    selfs = tree.module_self_times(roots)
    n_chunks = math.ceil(cfg.runs / cfg.chunk_size)

    def inside(name_):
        sids = [s for s in in_engine if tree.spans[s][0] == name_]
        return len(sids), sum(tree.duration(s) for s in sids)

    _, signals_s = inside("signals.trial_signals")
    mat_calls, mat_s = inside("signals.ScenarioDef.materialize")
    _, preset_s = tree.per_call("harness.preset_paper_scenario", "workload")

    def per_call_us(fn):
        calls, total = tree.per_call(fn, "oracle")
        return 1e6 * total / calls

    trial_calls, trial_s = tree.per_call("harness.run_trial", "oracle")
    metrics = {
        "harness.engine_us_per_step": (1e6 * engine_self / (n_chunks * n), "us"),
        "harness.engine_ns_per_trial_sample": (1e9 * engine_self / (trials * n), "ns"),
        "harness.run_experiment_s": (run_s, "s"),
        "harness.chunks": (n_chunks, "count"),
        "harness.preset_s": (preset_s, "s"),
        "cli.import_s": (IMPORT_S, "s"),
        "signals.trial_signals_s": (signals_s, "s"),
        "signals.trial_signals_share": (signals_s / run_s, "frac"),
        "signals.materialize_s": (mat_s, "s"),
        "signals.materialize_calls": (mat_calls, "count"),
        "filters.engine_share": (selfs.get("filters", 0.0) / run_s, "frac"),
        "combination.engine_share": (selfs.get("combination", 0.0) / run_s, "frac"),
        "linalg.engine_share": (selfs.get("linalg", 0.0) / run_s, "frac"),
        "filters.apa_step_us": (per_call_us("filters.apa_step"), "us"),
        "filters.za_apa_step_us": (per_call_us("filters.za_apa_step"), "us"),
        "filters.za_papa_step_us": (per_call_us("filters.za_papa_step"), "us"),
        "linalg.solve_spd_us": (per_call_us("linalg.solve_spd"), "us"),
        "linalg.gram_matrix_us": (per_call_us("linalg.gram_matrix"), "us"),
        "combination.update_a_us": (per_call_us("combination.update_a"), "us"),
        "harness.run_trial_us_per_sample": (1e6 * trial_s / (trial_calls * n), "us"),
    }
    return {
        "wall_s": t_exit - t_enter,
        "trials": trials,
        "trial_samples": trials * n,
        "table": rows,
        "oracle_failures": failures,
        "module_self_s": selfs,
        "self_time_residual_s": sum(selfs.values()) - run_s,
        "spans": len(tracer.spans),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["run", "check", "trace"])
    ap.add_argument("workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("seed", type=int, nargs="?")
    ap.add_argument("spans_path", nargs="?")
    ap.add_argument("--oracle", type=int, default=None, metavar="SEED")
    ap.add_argument("--fault-oracle", action="store_true")
    args = ap.parse_args()
    if args.mode == "run":
        out = do_run(args.workload, args.seed)
    elif args.mode == "check":
        out = do_check(args.workload, args.oracle, args.fault_oracle)
    else:
        out = do_trace(args.workload, args.seed, args.spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
