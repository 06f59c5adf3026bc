"""Monte-Carlo experiment runner, EMSE estimation, presets, and persistence.

Trials are independent: trial t draws its input and noise from
:class:`apamix.signals.TrialStream` on the scenario's seed and t alone (the
counter-based stream ``seed XOR t``), so results do not depend on how
trials are scheduled. For speed the engine simulates trials in fixed-size
chunks, vectorizing the per-sample algebra across the chunk; chunk
boundaries (and therefore all floating-point reduction orders) are a
function of ``chunk_size`` alone, never of the worker count.

A chunk walks the horizon in nested loops: over the segments, each of
which fixes the true system and the steady-state window; over each
segment's blocks, of one width for the whole horizon (that of the widest
block of an equal cut of each segment into blocks of at most 256
samples); over each block's sub-blocks of at most 20 samples; and over
the sub-block's samples. The scenario is the config's
:class:`apamix.signals.ScenarioDef`, materialized, and only the noiseless
response reads its segments' systems. At the start of a block the chunk
draws every trial's input and noise for that block alone, in one call of
its :class:`apamix.signals.TrialStream` (which reads no system), and stores
the input time-reversed behind the L+M-1 samples before the block (zeros
before t=0), so a sample's regressor is one slice of that buffer.
The projection window is a fixed array of M slots that rotates: each sample
overwrites the slot of its oldest regressor, and nothing is shifted. The
affine-projection solution does not depend on the order of the window's
rows, so the Gram matrix, the error vectors and the update all work in
slot order. The two branches share one projection (M, mu, eps), so they
share one window and one loaded Gram matrix, and that Gram depends on the
input alone, never on the weights (the observation behind fast affine
projection). So at the top of each sub-block the engine forms all its
Grams at once and inverts them in one call of
:func:`apamix.linalg.invert_spd_batch`. Each entry of a Gram is a lag
``u(i).u(i-k)`` (k < M) of one of the window's samples; the sub-block's
lags come from one running sum per lag, continued from the previous
sample's, which is the correlation recursion of fast APA. That running sum
is not an exact dot product: its rounding error accumulates, but measured
over 18,000 samples (L=256, M=8, white and AR(1) input with pole 0.95) it
stayed within about 4e-14 of ``|u|^2``, so it is never refreshed; tests
hold the engine's curves to those of the reference path, which rebuilds
every Gram from scratch, at 1e-9 relative over the 12,000-sample desk
horizon. Each inverse is formed from scratch, so no error carries from one
sample to the next. Per sample, one matmul gives both branches' error
vectors, and one matmul with the sample's inverse their projections; with
gains, the proportionate branch's projection is instead solved on its
gain-weighted Gram, which changes with the weights. One matmul then gives
both branches' updates along the window's regressors, and the
proportionate branch's is scaled by its gains afterwards, since
``(g*U)^T s = g*(U^T s)``. The engine applies the package's own rules to
the whole chunk at once: the proportionate gains come from
:func:`apamix.filters.gain_matrix`, and the mixing weight from
:func:`apamix.combination.lambda_of` and
:func:`apamix.combination.mixing_step`. Each chunk returns its
trial-by-trial sums by name, and :func:`run_experiment` adds them into a
running total in chunk order.

A chunk keeps the per-trial records (a-priori errors and mixing weight)
of the current sub-block only, by sample and then trial, and reduces them
over the trials at the sub-block's bottom: each sample's records are
summed on their own, so no cut of the horizon into blocks or sub-blocks
changes a bit of the curves. At each steady-window sample it sums both
branches' weight deviations dev = w_opt - w, their squares and their
product over the trials into rows of L taps. Only dev2 also keeps one
per-trial row, its window sum, from which the spread of the trials'
window means is taken where the segment loop ends. Apart from the sums it
returns, a chunk's memory thus grows with neither the horizon nor a
segment's length, and with the block width by the block's draws alone.

:func:`run_trial` is the scalar reference path built directly on the step
functions in :mod:`apamix.filters`; it rebuilds every Gram from scratch,
and the vectorized engine is tested against it.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import theory
from .combination import lambda_of, mixing_step, update_a
from .errors import ConfigError, DivergenceError, NumericalError
from .linalg import invert_spd_batch
from .filters import (
    FilterConfig,
    FilterState,
    ProportionateConfig,
    RegressorBuffer,
    apa_step,
    gain_matrix,
    push,
    za_apa_step,
    za_papa_step,
)
from .signals import (
    ScenarioDef,
    SegmentDef,
    SignalModel,
    TrialStream,
    scenario_stream,
)

__all__ = [
    "MixingConfig",
    "ExperimentConfig",
    "TrialRecord",
    "SegmentStats",
    "LearningCurves",
    "SteadyState",
    "run_trial",
    "run_experiment",
    "steady_state_stats",
    "preset_paper_scenario",
    "sweep_rho",
    "read_config",
    "write_config",
    "config_to_dict",
    "config_from_dict",
    "write_curves",
    "write_sweep",
    "to_db",
]


@dataclass(frozen=True)
class MixingConfig:
    mu_a: float = 100.0
    a_plus: float = 4.0
    a0: float = 0.0

    def __post_init__(self):
        if not 0 < self.a_plus < math.inf:
            raise ValueError("a_plus must be positive and finite")
        # lambda lies in [1 - lam, lam]: at 0.5 it cannot move, at 1 the mixing step is 0
        if not 0.5 < (lam := lambda_of(self.a_plus)) < 1:
            raise ValueError(f"a_plus={self.a_plus} rounds lambda to exactly {lam:g}")
        if not 0 < self.mu_a < math.inf:
            raise ValueError("mu_a must be positive and finite")
        if not -self.a_plus <= self.a0 <= self.a_plus:
            raise ValueError("a0 outside [-a_plus, a_plus]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte-Carlo experiment needs.

    ``filter2`` is the zero-attracting branch, proportionate when its
    config says so. The plain affine-projection branch :attr:`filter1`
    shares its projection (M, mu, eps) and is not stored: the paper's two
    branches differ only in the attractor. The experiment's one seed is
    ``scenario.seed``, which keys both the systems and the trials.
    """

    scenario: ScenarioDef
    filter2: FilterConfig
    mixing: MixingConfig = field(default_factory=MixingConfig, kw_only=True)
    runs: int
    steady_window_fraction: float = 0.1
    chunk_size: int = 100

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0 < self.steady_window_fraction <= 1:
            raise ValueError("steady_window_fraction must lie in (0, 1]")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        M, L, eps = self.filter2.M, self.scenario.L, self.filter2.eps
        if M > L:
            raise ValueError(f"filter2.M={M} exceeds scenario L={L}")
        if eps == 0:
            # in exact arithmetic, any loading keeps every projection Gram
            # positive definite
            raise ValueError("filter2: eps must be > 0")
        # in floating point, an eps below the spacing of doubles at a full
        # window's expected Gram diagonal L*variance (within a factor 2)
        # moves that diagonal by at most about one ulp: it loads nothing
        if eps < (floor := L * self.scenario.input.variance * np.finfo(float).eps):
            raise ValueError(f"filter2: eps={eps:g} is below L*variance*2**-52={floor:.3g}")

    @property
    def filter1(self) -> FilterConfig:
        """The plain branch: ``filter2`` without its attractor and gains."""
        return replace(self.filter2, rho=0.0, proportionate=None)


@dataclass(frozen=True)
class TrialRecord:
    """Per-iteration records of one trial (a-priori errors and mixing)."""

    ea1: np.ndarray
    ea2: np.ndarray
    ea: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class SegmentStats:
    """Steady-window per-tap weight statistics for one scenario segment."""

    start: int
    end: int
    K: int
    active: np.ndarray  # bool mask (L,)
    mean_dev1: np.ndarray
    mean_dev2: np.ndarray
    mean_dev2_se: np.ndarray  # standard error of mean_dev2 across trials
    msd1: np.ndarray
    msd2: np.ndarray
    cross12: np.ndarray
    window_samples: int


@dataclass(frozen=True)
class LearningCurves:
    """Ensemble-averaged learning curves and per-segment weight statistics."""

    j1: np.ndarray
    j2: np.ndarray
    j12: np.ndarray
    j: np.ndarray
    lam: np.ndarray
    j12_se: np.ndarray
    segments: tuple[SegmentStats, ...]
    runs_used: int  # always ``config.runs``: a diverged trial raises

    @property
    def n_samples(self) -> int:
        return self.j1.shape[0]


@dataclass(frozen=True)
class SteadyState:
    """Window-averaged steady-state levels of one segment."""

    J1: float
    J2: float
    J12: float
    J: float
    lam: float


# ---------------------------------------------------------------------------
# reference (scalar) trial
# ---------------------------------------------------------------------------


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """Run one trial sample-by-sample through the reference step functions.

    Its observations are :func:`apamix.signals.scenario_stream` for
    ``trial_index``, the engine's streams for that trial. Slow (per-sample
    Python), for tests and debugging; use :func:`run_experiment` for ensembles.
    """
    scenario = config.scenario.materialize()
    n = scenario.n_samples
    state1 = FilterState.zeros(config.filter1, scenario.L)
    state2 = FilterState.zeros(config.filter2, scenario.L)
    mixing = config.mixing
    a = mixing.a0
    buf = RegressorBuffer.zeros(scenario.L, config.filter2.M)
    step2 = za_papa_step if config.filter2.proportionate is not None else za_apa_step

    ea1, ea2, ea, lam = np.empty((4, n))
    for i, (obs, w_opt) in enumerate(scenario_stream(scenario, trial_index)):
        buf = push(buf, obs)
        y1 = float(obs.u @ state1.w)
        y2 = float(obs.u @ state2.w)
        d_clean = float(obs.u @ w_opt)
        ea1[i] = d_clean - y1
        ea2[i] = d_clean - y2
        lam[i] = lam_i = lambda_of(a)
        ea[i] = lam_i * ea1[i] + (1.0 - lam_i) * ea2[i]
        e = obs.d - (lam_i * y1 + (1.0 - lam_i) * y2)
        a = update_a(a, e, y1, y2, mixing.mu_a, mixing.a_plus)
        try:
            state1 = apa_step(state1, buf)
            state2 = step2(state2, buf)
        except DivergenceError as exc:
            raise DivergenceError(str(exc), trial_index=trial_index, sample_index=i) from exc
    return TrialRecord(ea1=ea1, ea2=ea2, ea=ea, lam=lam)


# ---------------------------------------------------------------------------
# vectorized chunk engine
# ---------------------------------------------------------------------------


_MIN_STEADY_WINDOW = 10  # samples; a narrower steady-state window averages too little
_BLOCK = 256  # samples; the most the engine draws per trial at a time
_SUB = 20  # samples; the most whose Gram inverses and records the engine holds at once


def _steady_window_start(start: int, end: int, fraction: float) -> int:
    """First sample of the steady-state window of segment ``[start, end)``.

    The one window of the package: the segment's last
    ``ceil(fraction*duration)`` samples, widened to 10 and clipped to the
    segment. The engine's per-tap statistics and the curves' steady state
    (:func:`steady_state_stats`) both average over it.
    """
    width = max(_MIN_STEADY_WINDOW, math.ceil(fraction * (end - start)))
    return max(start, end - width)


def _gram_rows(M: int, sub: int) -> np.ndarray:
    """Where the Gram entries of a sub-block of ``sub`` samples lie in the lag history.

    Slot p holds the sample of age (p + i) % M at sample i, so entry (p, q)
    of sample i's Gram, u(i-a) . u(i-b) for the ages a and b of slots p and
    q, is lag |a-b| of sample i-min(a,b), where lags_i[k] = u(i) . u(i-k).
    With the lag history H of shape (M, sub + M, R), entry (p, q) of the
    sub-block's sample t lies in row ``at[r, p, q, t]`` of
    ``H.reshape(-1, R)``, for a sub-block starting at a sample i0 with
    i0 % M == r.
    """
    ages = (np.add.outer(np.arange(M), np.arange(M))[..., None] + np.arange(sub)) % M  # (r, p, t)
    a, b = ages[:, :, None], ages[:, None]
    young, older = np.minimum(a, b), np.maximum(a, b)
    return (older - young) * (sub + M) + M + np.arange(sub) - young


def _simulate_chunk(
    config: ExperimentConfig,
    scenario: ScenarioDef,
    trial_indices: Sequence[int],
) -> dict[str, np.ndarray]:
    """Simulate one chunk of trials of ``config`` on the materialized ``scenario``.

    Returns the chunk's trial-by-trial sums by name, to be added up in
    chunk order. Curve sums have shape ``(n,)``, or ``(2, n)`` for the two
    branches' squared errors; steady-window weight-deviation sums have
    shape ``(S, 5, L)`` or ``(S, L)``, one entry per segment. Records are
    reduced over the trials per sub-block, window statistics per sample;
    only dev2 keeps a per-trial window row, for ``meansq2``. The first
    trial whose weights turn non-finite raises a DivergenceError naming it
    and the sample. A shared Gram that is not positive definite, found
    when its sub-block is formed, raises a NumericalError only when the
    loop reaches its sample, so a divergence before it is still reported
    first.
    """
    n = scenario.n_samples
    L = scenario.L
    R = len(trial_indices)
    f2 = config.filter2
    M = f2.M
    prop = f2.proportionate
    mixing = config.mixing

    bounds = scenario.boundaries
    n_seg = len(scenario.segments)
    # the widest block of an equal cut of each segment into blocks of at
    # most _BLOCK samples; each segment is then cut into blocks of this width
    blk = max(-(-d // -(-d // _BLOCK)) for d in np.diff(bounds).tolist())

    # Each block's input is stored time-reversed behind the L+M-1 samples
    # before it: column blk-1-c holds the block's sample c, column blk+k the
    # sample k+1 before the block (zeros before t=0), so sample c's
    # regressor, newest first, is Q[:, j:j+L] with j = blk-1-c.
    carry = L + M - 1
    Q = np.zeros((R, blk + carry))
    NOISE = np.empty((R, blk))
    stream = TrialStream(scenario, trial_indices)

    # Sample i overwrites slot s = -i % M, so slot (s + k) % M holds sample
    # i-k. Only one row of U changes per sample.
    U = np.zeros((R, M, L))  # regressors by slot
    Dw = np.zeros((R, M))  # desired responses by slot
    # The shared Gram depends on the input alone, so the loaded Grams of a
    # sub-block of at most _SUB samples are inverted in one kernel call at
    # its start: H[k, t] holds lag k of the sub-block's sample t-M (its
    # first M columns carry the M samples before), and Ginv[:, :, t] gets
    # the inverse for its sample t, in slot order.
    sub = min(_SUB, blk)
    H = np.zeros((M, sub + M, R))
    H_rows = H.reshape(-1, R)
    at = _gram_rows(M, sub)
    Ginv = np.empty((M, M, sub, R))
    X = np.lib.stride_tricks.sliding_window_view(Q, M, axis=1)  # X[:, j, k] = Q[:, j+k]
    S = np.empty((R, M, 2))  # both branches' projections
    if prop is not None:  # the other branch's gain-weighted Gram, solved per sample
        load = f2.eps * np.eye(M)
        GU = np.empty((R, M, L))
        GG = np.empty((R, M, M))
    W = np.zeros((2, R, L))  # W[0], W[1]: the weights of branch 1 and branch 2
    step = np.empty((2, R, L))  # scratch: a weight update or deviation of both branches
    attractor = np.empty((R, L))  # also scratch for products of deviations
    a = np.full(R, mixing.a0)

    # The current sub-block's records by sample and trial (ea1, ea2, lam, and
    # a scratch row for their products), reduced into ``sums`` when it ends;
    # and the per-trial steady-window sum of dev2 (dev = w_opt - w).
    rec = np.empty((4, sub, R))
    dev2 = np.zeros((R, L))
    sums = {key: np.empty(n) for key in ("lam", "prod", "prodsq", "esq")}
    sums.update(esq12=np.empty((2, n)), devs=np.zeros((n_seg, 5, L)), meansq2=np.empty((n_seg, L)))

    for seg, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        wopt = scenario.segments[seg].w_opt
        win = _steady_window_start(start, stop, config.steady_window_fraction)
        devs = sums["devs"][seg]  # rows dev1, dev2, dev1^2, dev2^2, dev1*dev2
        for lo in range(start, stop, blk):
            m = min(blk, stop - lo)
            stream.draw(Q[:, blk - m : blk][:, ::-1], NOISE[:, :m])  # the block's draws
            for c0 in range(0, m, sub):
                # the lags of the sub-block's samples (columns j0 down to
                # j0-ms+1), each the previous one's plus x(i)x(i-k) - x(i-L)x(i-L-k)
                i0, j0, ms = lo + c0, blk - 1 - c0, min(sub, m - c0)
                new = slice(j0 - ms + 1, j0 + 1)
                old = slice(new.start + L, new.stop + L)
                lag = H[:, M - 1 : M + ms]
                np.multiply(X[:, new][:, ::-1].T, Q[:, new][:, ::-1].T, out=lag[:, 1:])
                lag[:, 1:] -= X[:, old][:, ::-1].T * Q[:, old][:, ::-1].T
                np.cumsum(lag, axis=1, out=lag)
                # its Grams into Ginv, and their inverses
                np.take(H_rows, at[i0 % M, ..., :ms], axis=0, out=Ginv[:, :, :ms], mode="clip")
                pivots = invert_spd_batch(Ginv[:, :, :ms], f2.eps).any(axis=1)
                # a Gram that is not positive definite fails when the loop gets there
                fail = i0 + int(np.argmax(pivots)) if pivots.any() else -1
                H[:, :M] = H[:, ms : ms + M]

                for col in range(ms):  # col: the sample's column in the sub-block
                    i, j = i0 + col, j0 - col
                    s = -i % M
                    U[:, s] = Q[:, j : j + L]
                    dc = U[:, s] @ wopt  # noiseless response
                    Dw[:, s] = d = dc + NOISE[:, c0 + col]
                    Y = U @ W.transpose(1, 2, 0)  # (R, M, 2): both branches' window outputs
                    y1, y2 = Y[:, s, 0], Y[:, s, 1]

                    lam = lambda_of(a)
                    np.subtract(dc, Y[:, s].T, out=rec[:2, col])
                    rec[2, col] = lam

                    if i >= win:
                        dev = np.subtract(wopt, W, out=step)
                        dev2 += dev[1]
                        devs[0] += dev[0].sum(axis=0)
                        devs[4] += np.multiply(dev[0], dev[1], out=attractor).sum(axis=0)
                        devs[2:4] += np.square(dev, out=dev).sum(axis=1)

                    e_comb = d - (lam * y1 + (1.0 - lam) * y2)
                    a = mixing_step(a, lam, e_comb, y1, y2, mixing.mu_a, mixing.a_plus)

                    E = Dw[..., None] - Y  # (R, M, 2) error vectors by slot
                    np.sign(W[1], out=attractor)
                    attractor *= f2.rho
                    if i == fail:
                        raise NumericalError(
                            f"projection Gram not positive definite at sample {i}")
                    # both branches' projections on the shared Gram
                    np.matmul(Ginv[:, :, col].transpose(2, 0, 1), E, out=S)
                    if prop is not None:  # the other branch on its gain-weighted Gram
                        g = gain_matrix(W[1], prop.rho_p, prop.delta)
                        np.add(np.multiply(g[:, None, :], U, out=GU) @ U.mT, load, out=GG)
                        try:
                            S[..., 1:] = np.linalg.solve(GG, E[..., 1:])
                        except np.linalg.LinAlgError as exc:
                            raise NumericalError(
                                f"projection solve failed at sample {i}: {exc}"
                            ) from exc
                    S *= f2.mu
                    np.matmul(S.mT, U, out=step.swapaxes(0, 1))
                    if prop is not None:  # (g*U)^T s = g * (U^T s)
                        step[1] *= g
                    W += step
                    W[1] -= attractor

                    if not np.isfinite(W.sum()):
                        r = np.flatnonzero(~np.isfinite(W).all(axis=(0, 2)))[0]  # the first row
                        t = trial_indices[int(r)]
                        raise DivergenceError(
                            f"trial {t} diverged at sample {i}", trial_index=t, sample_index=i
                        )

                # add the sub-block's records over the trials into ``sums``
                cur = slice(i0, i0 + ms)
                ea12, (lam, prod) = rec[:2, :ms], rec[2:, :ms]
                lam.sum(axis=1, out=sums["lam"][cur])
                np.multiply(*ea12, out=prod).sum(axis=1, out=sums["prod"][cur])
                np.square(prod, out=prod).sum(axis=1, out=sums["prodsq"][cur])
                ea = np.multiply(lam, ea12[0], out=prod)  # ea = lam*ea1 + (1-lam)*ea2
                rest = np.subtract(1.0, lam, out=lam)
                rest *= ea12[1]
                ea += rest
                np.square(ea, out=ea).sum(axis=1, out=sums["esq"][cur])
                np.square(ea12, out=ea12).sum(axis=2, out=sums["esq12"][:, cur])
            # the block's newest samples become the next block's older ones
            Q[:, blk:] = Q[:, blk - m : blk - m + carry]

        # dev2's window sum, and the sum over trials of its squared window mean
        dev2.sum(axis=0, out=devs[1])
        mean2 = np.divide(dev2, stop - win, out=attractor)
        np.square(mean2, out=mean2).sum(axis=0, out=sums["meansq2"][seg])
        dev2.fill(0.0)
    return sums


def run_experiment(config: ExperimentConfig, workers: int = 1) -> LearningCurves:
    """Ensemble-average the configured number of trials.

    Results are bit-identical for any ``workers`` value: trials are cut
    into fixed chunks of ``config.chunk_size``, and each chunk's sums are
    added into a running total in chunk order, as the chunk comes. A
    total that is not finite (a statistic overflowed) raises a
    NumericalError naming its sums.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scenario = config.scenario.materialize()
    size = config.chunk_size
    chunks = [range(lo, min(lo + size, config.runs)) for lo in range(0, config.runs, size)]
    pool, run = nullcontext(), map
    if workers > 1 and len(chunks) > 1:
        # imported here: only a multi-worker run needs the pool, and its
        # modules cost every start-up about 20 ms
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        run = pool.map
    with pool:  # add each chunk's sums into the total as the chunk comes
        results = run(_simulate_chunk, repeat(config), repeat(scenario), chunks)
        total = next(results)
        for sums in results:
            for key, part in sums.items():
                np.add(total[key], part, out=total[key])
            del sums  # or it stays alive while the next chunk runs
    # the weights stayed finite (or a chunk raised), so only overflow gets here
    if bad := [key for key, part in total.items() if not np.isfinite(part).all()]:
        raise NumericalError(f"non-finite sums over the trials (overflow): {', '.join(bad)}")
    runs = config.runs

    j12 = total["prod"] / runs
    var_prod = np.maximum(total["prodsq"] / runs - j12**2, 0.0)

    bounds = scenario.boundaries
    seg_stats = []
    for k, (seg, start, end) in enumerate(zip(scenario.segments, bounds, bounds[1:])):
        samples = (end - _steady_window_start(start, end, config.steady_window_fraction)) * runs
        active = seg.w_opt != 0
        mean_dev1, mean_dev2, msd1, msd2, cross12 = total["devs"][k] / samples
        var_across = np.maximum(total["meansq2"][k] / runs - mean_dev2**2, 0.0)
        seg_stats.append(
            SegmentStats(
                start=start,
                end=end,
                K=int(active.sum()),
                active=active,
                mean_dev1=mean_dev1,
                mean_dev2=mean_dev2,
                mean_dev2_se=np.sqrt(var_across / runs),
                msd1=msd1,
                msd2=msd2,
                cross12=cross12,
                window_samples=samples,
            )
        )

    j1, j2 = total["esq12"] / runs
    return LearningCurves(
        j1=j1,
        j2=j2,
        j12=j12,
        j=total["esq"] / runs,
        lam=total["lam"] / runs,
        j12_se=np.sqrt(var_prod / runs),
        segments=tuple(seg_stats),
        runs_used=runs,
    )


def steady_state_stats(
    curves: LearningCurves, segment: int, window_fraction: float
) -> SteadyState:
    """Time-average the curves over one segment's steady-state window.

    ``window_fraction`` is normally the config's ``steady_window_fraction``,
    the window of the engine's per-tap statistics.
    """
    if not 0 < window_fraction <= 1:
        raise ValueError(f"window_fraction={window_fraction} must lie in (0, 1]")
    seg = curves.segments[segment]
    sl = slice(_steady_window_start(seg.start, seg.end, window_fraction), seg.end)
    return SteadyState(
        J1=float(curves.j1[sl].mean()),
        J2=float(curves.j2[sl].mean()),
        J12=float(curves.j12[sl].mean()),
        J=float(curves.j[sl].mean()),
        lam=float(curves.lam[sl].mean()),
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_FULL_RHO = {"white": 8e-6, "ar1": 3e-5}


def default_eps(M: int) -> float:
    """Default diagonal loading, small against the Gram diagonal ~ L*variance."""
    return 1e-4 * M


def _desk_rho_scale() -> float:
    """Ratio of the admissible attractor ranges of the desk and full sparse systems."""
    desk = theory.rho_bound_global(
        theory.TheoryInputs(L=64, K=4, M=4, mu=0.5, rho=0.0, noise_variance=1e-3)
    )
    full = theory.rho_bound_global(
        theory.TheoryInputs(L=256, K=16, M=8, mu=0.5, rho=0.0, noise_variance=1e-3)
    )
    return desk / full


def preset_paper_scenario(
    scale: str = "desk",
    input_kind: str = "white",
    filter2_kind: str = "zaapa",
    runs: Optional[int] = None,
    seed: int = 1,
) -> ExperimentConfig:
    """Benchmark scenarios: a non-sparse, semi-sparse, then highly-sparse
    system identified over three consecutive segments.

    ``full`` is the heavyweight protocol (256 taps, 6000-sample segments,
    1000 runs); ``desk`` is a reduced version for quick runs and CI
    (64 taps, 4000-sample segments, 200 runs) whose attractor strength is
    rescaled by the ratio of the two scales' admissible-range bounds.
    Both use the step size mu = 0.5.
    """
    if scale not in ("full", "desk"):
        raise ValueError(f"unknown scale {scale!r}")
    if input_kind not in ("white", "ar1"):
        raise ValueError(f"unknown input kind {input_kind!r}")
    if filter2_kind not in ("zaapa", "zapapa"):
        raise ValueError(f"unknown filter2 kind {filter2_kind!r}")

    model = SignalModel(pole=0.8 if input_kind == "ar1" else 0.0)
    if scale == "full":
        L, M = 256, 8
        segments = (SegmentDef(6000, 256), SegmentDef(6000, 80), SegmentDef(6000, 16))
        rho = _FULL_RHO[input_kind]
        n_runs = 1000 if runs is None else runs
    else:
        L, M = 64, 4
        segments = (SegmentDef(4000, 64), SegmentDef(4000, 20), SegmentDef(4000, 4))
        rho = _FULL_RHO[input_kind] * _desk_rho_scale()
        n_runs = 200 if runs is None else runs

    eps = default_eps(M)
    prop = ProportionateConfig() if filter2_kind == "zapapa" else None
    return ExperimentConfig(
        scenario=ScenarioDef(L=L, segments=segments, noise_variance=1e-3, input=model, seed=seed),
        filter2=FilterConfig(M=M, mu=0.5, rho=rho, eps=eps, proportionate=prop),
        mixing=MixingConfig(),
        runs=n_runs,
    )


def sweep_rho(
    config: ExperimentConfig,
    rho_values: Sequence[float],
    workers: int = 1,
) -> list[tuple[float, SteadyState]]:
    """Final-segment steady state, over the config's window, across attractor strengths."""
    wf = config.steady_window_fraction
    out = []
    for rho in rho_values:
        cfg = replace(config, filter2=replace(config.filter2, rho=float(rho)))
        curves = run_experiment(cfg, workers=workers)
        out.append((float(rho), steady_state_stats(curves, len(curves.segments) - 1, wf)))
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def to_db(x: float) -> float:
    """10*log10(|x|); the sign of cross terms is dropped in dB output."""
    mag = abs(x)
    return -math.inf if mag == 0 else 10.0 * math.log10(mag)


_JSON_TYPES = {int: "a JSON integer", float: "a JSON number", str: "a JSON string"}


def _read(hint, value, path: str):
    """Convert the JSON ``value`` at ``path`` to the annotated type ``hint``.

    A dataclass is read from an object, ``Optional[X]`` from null or an X,
    ``tuple[X, ...]`` from an array, an ``int`` from an integer, a ``float``
    from a number and a ``str`` from a string.
    """
    if get_origin(hint) is Union:  # Optional[X]
        return None if value is None else _read(get_args(hint)[0], value, path)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a JSON array")
        return tuple(_read(get_args(hint)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if not is_dataclass(hint):
        # exact types: a bool is no integer, and no float or string is cast
        if not (type(value) is hint or hint is float and type(value) is int):
            raise ConfigError(f"{path} must be {_JSON_TYPES[hint]}, not {value!r}")
        return hint(value)
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object")
    hints = get_type_hints(hint)
    for key in value:
        if key not in hints:
            raise ConfigError(f"unknown key {key!r} in {path}")
    kwargs = {}
    for f in fields(hint):
        if f.name in value:
            kwargs[f.name] = _read(hints[f.name], value[f.name], f"{path}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing field {f.name!r} in {path}")
    return hint(**kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Read the JSON form written by :func:`config_to_dict`.

    The keys are the fields of the config dataclasses: one without a default
    is required, and a key that names no field is rejected. Every rejection,
    including those of the dataclasses' own checks, is a ``ConfigError``.
    """
    try:
        return _read(ExperimentConfig, doc, "config")
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form of ``config``: its fields, with the segments as a list."""
    doc = asdict(config)
    doc["scenario"]["segments"] = list(doc["scenario"]["segments"])
    return doc


def read_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing, unreadable, or a directory
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)


def write_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def _write_table(path, key: str, rows, db: bool) -> None:
    """CSV with header key,j1,j2,j12,j,lambda; one row per ``(key, j1, j2, j12, j, lam)``.

    The four magnitudes are converted with :func:`to_db` under ``db``;
    lambda is always linear.
    """
    conv = to_db if db else (lambda x: x)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([key, "j1", "j2", "j12", "j", "lambda"])
        for k, *mags, lam in rows:
            wr.writerow([k, *map(conv, mags), lam])


def write_curves(curves: LearningCurves, path, db: bool = False) -> None:
    """CSV dump with header iter,j1,j2,j12,j,lambda (lambda always linear)."""
    rows = zip(range(curves.n_samples), curves.j1, curves.j2, curves.j12, curves.j, curves.lam)
    _write_table(path, "iter", rows, db)


def write_sweep(points: list[tuple[float, SteadyState]], path, db: bool = False) -> None:
    """CSV dump with header rho,j1,j2,j12,j,lambda (lambda always linear)."""
    rows = ((rho, st.J1, st.J2, st.J12, st.J, st.lam) for rho, st in points)
    _write_table(path, "rho", rows, db)
