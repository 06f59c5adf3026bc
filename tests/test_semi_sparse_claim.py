"""The paper's central claim at its full shape: on a semi-sparse system the
combination beats both of its branches.

One K=80 segment of the ``paper-full`` shape (L=256, M=8, mu=0.5, white
input, zaapa with rho=8e-6), started from zero weights, settles where
segment 1 of the three-segment preset does. The closed forms label that
segment ``sparse_caseI`` (lambda = 0.018, so J = J2); only the simulation
shows the claim there.

Four independent sub-experiments of 25 runs give the spread from which the
standard error of J - min(J1, J2) is taken. The tolerances were fixed
before the first run: every sub-experiment's mixing weight lies inside
(0.1, 0.9), well away from its clip values 0.018 and 0.982, and the mean
of J - min(J1, J2) in dB lies more than three standard errors below zero.
"""

from dataclasses import replace

import numpy as np

from apamix.harness import preset_paper_scenario, run_experiment, steady_state_stats, to_db
from apamix.signals import SegmentDef


def semi_sparse_steady_state(seed):
    """Steady lambda and J - min(J1, J2) in dB of 25 runs of one K=80 segment."""
    cfg = preset_paper_scenario("full", "white", "zaapa", runs=25, seed=seed)
    cfg = replace(cfg, scenario=replace(cfg.scenario, segments=(SegmentDef(6000, 80),)))
    st = steady_state_stats(run_experiment(cfg), 0, cfg.steady_window_fraction)
    return st.lam, to_db(st.J) - to_db(min(st.J1, st.J2))


def test_combination_beats_both_branches_on_a_semi_sparse_system():
    # seeds k * 2**20: no two sub-experiments share a stream, though trial
    # t's stream is keyed ``seed XOR t`` and segment j's ``seed XOR (j+1)``
    lam, gain = np.array([semi_sparse_steady_state(k * 2**20) for k in range(1, 5)]).T
    assert ((0.1 < lam) & (lam < 0.9)).all(), lam
    se = gain.std(ddof=1) / np.sqrt(len(gain))
    assert gain.mean() < -3 * se, (gain, se)
