"""Command-line front end: simulate, predict, sweep-rho."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, theory
from .errors import ConfigError, DivergenceError, NumericalError


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is None and args.preset is None:
        raise ConfigError("either --config or --preset is required")
    if args.config is not None:
        for flag in ("input", "filter2"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} applies to --preset only; set it in the config file")
        return harness.read_config(args.config)
    scale = {"paper-full": "full", "paper-desk": "desk"}[args.preset]
    return harness.preset_paper_scenario(
        scale=scale,
        input_kind=args.input or "white",
        filter2_kind=args.filter2 or "zaapa",
    )


def _check_out_dir(path) -> None:
    """Reject an output path that cannot be written as a file before any trial runs."""
    if not path:
        return
    if Path(path).is_dir():
        raise ConfigError(f"--out {path}: is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"--out {path}: directory {Path(path).parent} does not exist")


def _workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers {args.workers}: workers must be >= 1")
    return args.workers


def _print_steady_table(cfg, curves):
    wf = cfg.steady_window_fraction
    print(f"{'seg':>3} {'K':>4} {'J1':>10} {'J2':>10} {'J12':>10} {'J':>10} "
          f"{'J1 dB':>8} {'J2 dB':>8} {'J dB':>8} {'lam':>6}")
    for k, seg in enumerate(curves.segments):
        st = harness.steady_state_stats(curves, k, wf)
        print(
            f"{k:>3} {seg.K:>4} {st.J1:>10.3e} {st.J2:>10.3e} {st.J12:>10.3e} "
            f"{st.J:>10.3e} {harness.to_db(st.J1):>8.2f} {harness.to_db(st.J2):>8.2f} "
            f"{harness.to_db(st.J):>8.2f} {st.lam:>6.3f}"
        )


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if args.runs is not None:
        try:
            cfg = replace(cfg, runs=args.runs)
        except ValueError as exc:
            raise ConfigError(f"--runs {args.runs}: {exc}") from exc
    _check_out_dir(args.out)
    curves = harness.run_experiment(cfg, workers=_workers(args))
    _print_steady_table(cfg, curves)
    if args.out:
        harness.write_curves(curves, args.out, db=args.db)
        print(f"wrote {curves.n_samples} rows to {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    if cfg.scenario.input.pole != 0:
        raise ConfigError("closed-form prediction is available for white input (pole 0) only")
    f2 = cfg.filter2
    if f2.proportionate is not None:
        print(
            "note: closed forms model the plain zero-attracting branch; "
            "proportionate gains are not modeled",
            file=sys.stderr,
        )
    if f2.M > 1 and f2.mu < 1:  # the forms hold within 0.04 dB at M = 1 only
        print(
            f"note: M={f2.M} with mu={f2.mu} lies outside the closed forms' validated domain; "
            "they do not model the sliding window's reuse of each regressor",
            file=sys.stderr,
        )
    preds = []
    for k in range(len(cfg.scenario.segments)):
        try:
            preds.append(theory.predict_steady_state(harness.theory_inputs(cfg, k)))
        except ValueError as exc:  # outside the closed forms' domain
            raise ConfigError(f"segment {k}: {exc}") from exc
    print(f"{'seg':>3} {'K':>4} {'J1':>10} {'J2':>10} {'J12':>10} {'Jc':>10} "
          f"{'J1 dB':>8} {'J2 dB':>8} {'Jc dB':>8} {'lam_inf':>8} {'regime':>14} "
          f"{'rho_max':>10} {'rho_sparse':>10}")
    for k, (seg, pred) in enumerate(zip(cfg.scenario.segments, preds)):
        rho_max = "undefined" if pred.rho_bound is None else f"{pred.rho_bound:>10.3e}"
        print(
            f"{k:>3} {seg.K:>4} {pred.J1:>10.3e} {pred.J2:>10.3e} {pred.J12:>10.3e} "
            f"{pred.J_combined:>10.3e} {harness.to_db(pred.J1):>8.2f} "
            f"{harness.to_db(pred.J2):>8.2f} {harness.to_db(pred.J_combined):>8.2f} "
            f"{pred.lam_inf:>8.4f} {pred.regime:>14} {rho_max:>10} "
            f"{pred.rho_bound_sparse:>10.3e}"
        )
    return 0


def cmd_sweep_rho(args) -> int:
    cfg = _load_config(args)
    try:
        lo, hi, steps = args.grid.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ConfigError(f"bad --grid {args.grid!r}, expected lo:hi:steps") from exc
    if not (0 < lo <= hi < math.inf and steps >= 1):
        raise ConfigError("grid needs finite bounds 0 < lo <= hi and steps >= 1")
    _check_out_dir(args.out)
    grid = np.geomspace(lo, hi, steps)
    points = harness.sweep_rho(cfg, grid, workers=_workers(args))
    print(f"{'rho':>12} {'J1':>10} {'J2':>10} {'J12':>10} {'J':>10} {'lam':>6}")
    for rho, st in points:
        print(f"{rho:>12.4e} {st.J1:>10.3e} {st.J2:>10.3e} {st.J12:>10.3e} "
              f"{st.J:>10.3e} {st.lam:>6.3f}")
    if args.out:
        harness.write_sweep(points, args.out, db=args.db)
        print(f"wrote {len(points)} rows to {args.out}")
    return 0


def _add_common(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment config JSON")
    source.add_argument("--preset", choices=["paper-full", "paper-desk"],
                        help="built-in scenario preset (alternative to --config)")
    p.add_argument("--input", choices=["white", "ar1"],
                   help="input process for --preset (default white)")
    p.add_argument("--filter2", choices=["zaapa", "zapapa"],
                   help="second branch algorithm for --preset (default zaapa)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="apamix",
                                 description="Sparse system identification with an adaptive "
                                             "convex combination of projection filters")
    sub = ap.add_subparsers(dest="command", required=True)
    trials = argparse.ArgumentParser(add_help=False)  # options of the commands that run trials
    trials.add_argument("--workers", type=int, default=1, help="worker processes")

    p = sub.add_parser("simulate", parents=[trials], help="run a Monte-Carlo experiment")
    _add_common(p)
    p.add_argument("--out", help="write learning curves CSV here")
    p.add_argument("--db", action="store_true", help="emit curve magnitudes in dB")
    p.add_argument("--runs", type=int, help="override the configured trial count")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("predict", help="print closed-form steady-state tables")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep-rho", parents=[trials],
                       help="empirical steady state vs attractor strength")
    _add_common(p)
    p.add_argument("--grid", required=True, help="lo:hi:steps (geometric spacing)")
    p.add_argument("--out", help="write sweep CSV here")
    p.add_argument("--db", action="store_true", help="emit magnitudes in dB")
    p.set_defaults(func=cmd_sweep_rho)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:  # e.g. a Gram that is not positive definite
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an --out write, e.g. on a full disk; a config's is a ConfigError
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
