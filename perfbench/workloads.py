"""Workload definitions, seed hygiene, fingerprints and the oracle check.

Every workload is built through apamix's public API the way one
``apamix simulate`` invocation builds it. apamix is imported lazily inside
the functions that need it, so that importing this module costs nothing: a
child process times ``import apamix.cli`` itself.
"""

from __future__ import annotations

import time
from typing import Optional

# Seeds given to the benchmark are mapped to disjoint blocks of Philox keys.
# apamix keys trial t with ``seed ^ t`` and segment j's system with
# ``seed ^ (j + 1)``; with ``config_seed = (seed + 1) * KEY_BLOCK`` and fewer
# than KEY_BLOCK trials, two benchmark seeds never share a stream.
KEY_BLOCK = 1 << 20
DEFAULT_SEED = 0  # the seed at which fingerprints.json was recorded
MAX_SEED = 1 << 96  # Philox keys are 128-bit

# Tolerances of the fingerprint comparison. A faster engine that only
# reorders floating-point reductions moves these values by ~1e-12 dB.
DB_TOL = 1e-6
LAM_TOL = 1e-8


RUNS = 100  # trials per experiment, one engine chunk
SEGMENTS = 3  # segments of the paper presets (K = L, then semi-sparse, then sparse)

# name -> (preset scale, input kind, second branch, samples per segment).
# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "desk-zaapa": ("desk", "white", "zaapa", 300),
    "desk-zapapa-ar1": ("desk", "ar1", "zapapa", 300),
    "full-zaapa-short": ("full", "white", "zaapa", 100),
}


def config_seed(seed: int) -> int:
    return (seed + 1) * KEY_BLOCK


def stream_keys(cfg_seed: int) -> set[int]:
    """Philox keys one workload experiment draws at ``cfg_seed``."""
    trials = {cfg_seed ^ t for t in range(RUNS)}
    systems = {cfg_seed ^ (j + 1) for j in range(SEGMENTS)}
    return trials | systems


def seed_refusal(seed: int) -> Optional[str]:
    """Reason to refuse benchmark seed ``seed``, or None when it is usable."""
    if not 0 <= seed < MAX_SEED:
        return f"seed {seed} outside [0, 2**96)"
    return key_overlap(config_seed(seed), config_seed(DEFAULT_SEED))


def key_overlap(cfg_seed: int, default_cfg_seed: int) -> Optional[str]:
    """Refuse a held-out config seed whose trial or system keys are also drawn
    at the default seed: such a run would replay streams of the fingerprint
    run instead of testing fresh ones."""
    if cfg_seed == default_cfg_seed:
        return None
    shared = stream_keys(cfg_seed) & stream_keys(default_cfg_seed)
    if shared:
        return f"config seed {cfg_seed} shares {len(shared)} Philox key(s) with the default seed"
    return None


def _with_durations(cfg, duration: int):
    from dataclasses import replace

    from apamix.signals import SegmentDef

    sc = cfg.scenario
    segs = tuple(SegmentDef(duration, s.K, s.magnitude_rule) for s in sc.segments)
    return replace(cfg, scenario=replace(sc, segments=segs))


def build(name: str, cfg_seed: int):
    """Return the ``ExperimentConfig`` of workload ``name`` at ``cfg_seed``."""
    from apamix import harness

    scale, input_kind, filter2, duration = WORKLOADS[name]
    cfg = harness.preset_paper_scenario(scale, input_kind, filter2, runs=RUNS, seed=cfg_seed)
    return _with_durations(cfg, duration)


def run(cfg):
    """Run the workload once, as ``apamix simulate`` does.

    Returns ``(rows, trials, t_enter, t_exit)``. A row is the steady state
    (J1 dB, J2 dB, J12 dB, J dB, lambda) of one segment; ``trials`` counts
    the trials used; the two ``time.monotonic()`` stamps bracket the
    ``run_experiment`` call alone.
    """
    from apamix import harness

    t_enter = time.monotonic()
    curves = harness.run_experiment(cfg)
    t_exit = time.monotonic()
    db = harness.to_db
    rows = []
    for k in range(len(curves.segments)):
        st = harness.steady_state_stats(curves, k, cfg.steady_window_fraction)
        rows.append([db(st.J1), db(st.J2), db(st.J12), db(st.J), st.lam])
    return rows, curves.runs_used, t_enter, t_exit


def table_mismatch(expected, got) -> Optional[str]:
    """Describe the first entry where two steady-state tables disagree, or None."""
    if len(expected) != len(got):
        return f"{len(got)} rows, expected {len(expected)}"
    for i, (want, have) in enumerate(zip(expected, got)):
        for j, (a, b) in enumerate(zip(want, have)):
            tol = LAM_TOL if j == 4 else DB_TOL
            if not abs(a - b) <= tol:
                return f"row {i} column {j}: {b!r}, expected {a!r} (tol {tol})"
    return None


def _other_branch(cfg):
    """The same experiment with the second branch's proportionate gains toggled."""
    from dataclasses import replace

    from apamix.filters import ProportionateConfig

    f2 = cfg.filter2
    prop = ProportionateConfig() if f2.proportionate is None else None
    return replace(cfg, filter2=replace(f2, proportionate=prop))


def oracle(cfg, fault: bool = False) -> list[str]:
    """Check the engine against the scalar reference path on one trial.

    ``run_trial(cfg, 0)`` must match ``run_experiment`` on that single trial
    at the tolerances of tests/test_harness.py, for the workload's own
    second branch and for the other one (zaapa vs zapapa). Holds at any
    seed. ``fault`` perturbs the reference record, to show that a mismatch
    is caught. Returns the failures, empty when the check passes.
    """
    from dataclasses import replace

    import numpy as np

    from apamix import harness

    failures = []
    for variant in (cfg, _other_branch(cfg)):
        one = replace(variant, runs=1, chunk_size=1)
        rec = harness.run_trial(one, 0)
        if fault:
            rec.ea1[-1] *= 1.0 + 1e-6
        cur = harness.run_experiment(one)
        kind = "zapapa" if variant.filter2.proportionate is not None else "zaapa"
        for name, got, want, atol in (
            ("j1", cur.j1, rec.ea1**2, 1e-13),
            ("j2", cur.j2, rec.ea2**2, 1e-13),
            ("j12", cur.j12, rec.ea1 * rec.ea2, 1e-13),
            ("j", cur.j, rec.ea**2, 1e-13),
            ("lam", cur.lam, rec.lam, 1e-12),
        ):
            if not np.allclose(got, want, rtol=1e-9, atol=atol):
                worst = int(np.argmax(np.abs(got - want)))
                failures.append(
                    f"{kind}: engine {name}[{worst}]={float(got[worst])!r} "
                    f"vs run_trial {float(want[worst])!r}"
                )
    return failures
