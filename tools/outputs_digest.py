"""Print a digest of every output array of the benchmark workloads.

    python3 tools/outputs_digest.py [WORKLOAD ...]

For each workload of ``perfbench/workloads.py`` (default: all of them) at
benchmark seeds 0 and 5, it prints one line per output array,
``workload seed name sha256``. The arrays are each segment's drawn system
(``materialize().segments[k].w_opt``), every ``LearningCurves`` array,
every ``SegmentStats`` field of each segment, the four records of
``run_trial(cfg, 3)``, the curves and segment fields again at
``chunk_size=7`` (``chunk7.`` names), where a workload's 100 trials run as
15 chunks, the last one of 2 trials, and each segment's closed forms
(``theory[k].`` names): the derived ``TheoryInputs`` fields and every
``predict_steady_state`` field, at the operating point ``apamix predict``
builds for that segment, whatever the input's pole. All of them are
digested again with the other second branch (``other.`` names): zaapa for
a zapapa workload and zapapa for a zaapa one, as the benchmark's oracle
toggles it, so white input runs with gains and AR(1) input without. The
digest covers each array's dtype, shape and bytes, so two trees whose
outputs agree bit for bit print the same lines:

    python3 tools/outputs_digest.py > before.txt   # in one checkout
    python3 tools/outputs_digest.py > after.txt    # in the other
    diff before.txt after.txt

The package is imported from ``src/`` next to this script's directory.
``workloads.py`` is read as it is, and no bytecode is written beside it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 5)
TRIAL = 3  # the reference trial whose records are digested
CHUNK = 7  # the second chunk size whose curves are digested


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def _curves(curves, prefix: str = "") -> dict[str, np.ndarray]:
    """Every ``LearningCurves`` array and ``SegmentStats`` field, by name."""
    arrays = {prefix + f.name: getattr(curves, f.name) for f in fields(curves)
              if isinstance(getattr(curves, f.name), np.ndarray)}
    for k, seg in enumerate(curves.segments):
        for f in fields(seg):
            arrays[f"{prefix}segments[{k}].{f.name}"] = np.asarray(getattr(seg, f.name))
    return arrays


def outputs(cfg) -> dict[str, np.ndarray]:
    """Every output array of one experiment on ``cfg``, by name."""
    from apamix import harness

    arrays = {f"w_opt[{k}]": seg.w_opt for k, seg in enumerate(cfg.scenario.materialize().segments)}
    arrays.update(_curves(harness.run_experiment(cfg)))
    record = harness.run_trial(cfg, TRIAL)
    for f in fields(record):
        arrays[f"trial{TRIAL}.{f.name}"] = getattr(record, f.name)
    arrays.update(_curves(harness.run_experiment(replace(cfg, chunk_size=CHUNK)), f"chunk{CHUNK}."))
    arrays.update(closed_forms(cfg))
    return arrays


def closed_forms(cfg) -> dict[str, np.ndarray]:
    """Each segment's derived ``TheoryInputs`` fields and ``predict_steady_state``
    fields, by name. The names are listed rather than read from the dataclass,
    so that a tree which adds or drops a field prints the same lines for the rest."""
    from apamix import theory
    from apamix.combination import lambda_of

    names = ("msd_apa", "msd_active", "msd_inactive", "cross_inactive", "J1", "J2", "J12",
             "lam_inf", "regime", "J_combined", "rho_bound", "rho_bound_sparse")
    sc, f2, arrays = cfg.scenario, cfg.filter2, {}
    for k, seg in enumerate(sc.segments):
        ti = theory.TheoryInputs(L=sc.L, K=seg.K, M=f2.M, mu=f2.mu, rho=f2.rho,
                                 noise_variance=sc.noise_variance, input_variance=sc.input.variance)
        pred = theory.predict_steady_state(ti, lambda_of(cfg.mixing.a_plus))
        values = [(name, getattr(ti, name)) for name in ("p", "beta", "inv_r2")]
        for name, value in values + [(name, getattr(pred, name)) for name in names]:
            arrays[f"theory[{k}].{name}"] = np.asarray(np.nan if value is None else value)
    return arrays


def digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def lines(label: str, arrays: dict[str, np.ndarray]) -> list[str]:
    return [f"{label} {name} {digest(a)}" for name, a in arrays.items()]


def main(argv: list[str]) -> int:
    wl = _workloads()
    for name in argv or list(wl.WORKLOADS):
        for seed in SEEDS:
            cfg = wl.build(name, wl.config_seed(seed))
            arrays = outputs(cfg)
            arrays.update((f"other.{key}", a) for key, a in outputs(wl._other_branch(cfg)).items())
            print("\n".join(lines(f"{name} {seed}", arrays)), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
