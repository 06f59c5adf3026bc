"""Monte-Carlo experiment runner, EMSE estimation, presets, and persistence.

Trials are independent: trial t draws its input/noise streams from the
counter-based stream ``seed XOR t`` and nothing else, so results do not
depend on how trials are scheduled. For speed the engine simulates trials
in fixed-size chunks, vectorizing the per-sample algebra across the chunk;
chunk boundaries (and therefore all floating-point reduction orders) are a
function of ``chunk_size`` alone, never of the worker count.

A chunk walks the horizon in blocks of at most 256 samples that never
cross a segment boundary. At each block it draws every trial's input and
noise for that block alone (:class:`apamix.signals.TrialStream`), and
stores the input time-reversed behind the L+M-1 samples before the block
(zeros before t=0), so a sample's regressor is one slice of that buffer.
The projection window is a fixed array of M slots that rotates: each sample
overwrites the slot of its oldest regressor, and nothing is shifted. The
affine-projection solution does not depend on the order of the window's
rows, so the Gram matrix, the error vectors and the update all work in
slot order. The two branches share one projection (M, mu, eps), so they
share one window and one Gram matrix; each sample changes one row and
column of it, taken from a running lag vector ``u(i).u(i-k)`` (k < M)
that the correlation recursion of fast APA updates in O(M) per trial.
That running sum is not an exact dot product: its rounding error
accumulates, but measured over 18,000 samples (L=256, M=8, white and
AR(1) input with pole 0.95) it stayed within about 3e-14 of ``|u|^2``, so
it is never refreshed; tests hold the engine's curves to those of the
reference path, which rebuilds every Gram from scratch, at 1e-9 relative
over the 12,000-sample desk horizon. One matmul gives both branches'
error vectors, and one solve call their projections: without gains, on
the shared Gram with two right-hand sides; with gains, on a stack of the
shared Gram and the proportionate branch's gain-weighted one. One matmul
then gives both branches' updates along the window's regressors, and the
proportionate branch's is scaled by its gains afterwards, since
``(g*U)^T s = g*(U^T s)``. The engine applies the package's own rules to
the whole chunk at once: the proportionate gains come from
:func:`apamix.filters.gain_matrix`, and the mixing weight from
:func:`apamix.combination.lambda_of` and
:func:`apamix.combination.mixing_step`. Each chunk returns its
trial-by-trial sums by name, and :func:`run_experiment` adds them up in
chunk order.

A chunk keeps the per-trial records (a-priori errors and mixing weight)
of the current block only, and reduces them over the trials when the
block ends, with the same per-column sums as one reduction at the end; it
keeps the steady-window weight sums of the current segment, and reduces
them when the segment ends. Apart from the sums it returns, a chunk's
memory thus grows with neither the horizon nor a segment's length. A
reduced block cannot drop a trial, so with ``skip_diverged`` a pass lists
the trials that diverged, their rows running on to the end on non-finite
values (rows never mix), and the chunk is then simulated once more
without them.

:func:`run_trial` is the scalar reference path built directly on the step
functions in :mod:`apamix.filters`; it rebuilds every Gram from scratch,
and the vectorized engine is tested against it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import reduce
from itertools import repeat
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import theory
from .combination import lambda_of, mixing_step, update_a
from .errors import ConfigError, DivergenceError, NumericalError
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
    SystemScenario,
    TrialStream,
    make_rng,
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
    branches differ only in the attractor.
    """

    scenario: ScenarioDef
    filter2: FilterConfig
    mixing: MixingConfig = field(default_factory=MixingConfig, kw_only=True)
    runs: int
    seed: int = 0
    steady_window_fraction: float = 0.1
    chunk_size: int = 100

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 < self.steady_window_fraction <= 1:
            raise ValueError("steady_window_fraction must lie in (0, 1]")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        M, L = self.filter2.M, self.scenario.L
        if M > L:
            raise ValueError(f"filter2.M={M} exceeds scenario L={L}")
        if M > 1 and self.filter2.eps == 0:
            # the window starts with zero columns, so its Gram is singular
            raise ValueError("filter2: eps must be > 0 when M > 1")

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
    runs_used: int
    skipped: tuple[int, ...] = ()

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


def run_trial(
    config: ExperimentConfig,
    trial_index: int,
    initial_weights: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> TrialRecord:
    """Run one trial sample-by-sample through the reference step functions.

    The trial's streams come from ``config.seed XOR trial_index`` only.
    Slow (per-sample Python), intended for tests and debugging; use
    :func:`run_experiment` for ensembles. ``initial_weights`` overrides the
    zero initialization of both branches (testing hook).
    """
    scenario = config.scenario.materialize()
    rng = make_rng(config.seed, trial_index)
    n = scenario.n_samples
    if initial_weights is None:
        state1 = FilterState.zeros(config.filter1, scenario.L)
        state2 = FilterState.zeros(config.filter2, scenario.L)
    else:
        state1 = FilterState(w=np.array(initial_weights[0], dtype=float), config=config.filter1)
        state2 = FilterState(w=np.array(initial_weights[1], dtype=float), config=config.filter2)
    mixing = config.mixing
    a = mixing.a0
    buf = RegressorBuffer.zeros(scenario.L, config.filter2.M)
    step2 = za_papa_step if config.filter2.proportionate is not None else za_apa_step

    ea1 = np.empty(n)
    ea2 = np.empty(n)
    ea = np.empty(n)
    lam = np.empty(n)
    for i, obs in enumerate(scenario_stream(scenario, config.scenario.input, rng)):
        w_opt = scenario.w_opt_at(i)
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
_BLOCK = 256  # samples; the most the engine draws and records per trial at a time


def _steady_window_start(start: int, end: int, fraction: float) -> int:
    """First sample of the steady-state window of segment ``[start, end)``.

    The one window of the package: the segment's last
    ``ceil(fraction*duration)`` samples, widened to 10 and clipped to the
    segment. The engine's per-tap statistics and the curves' steady state
    (:func:`steady_state_stats`) both average over it.
    """
    width = max(_MIN_STEADY_WINDOW, math.ceil(fraction * (end - start)))
    return max(start, end - width)


def _simulate_chunk(
    config: ExperimentConfig,
    scenario: SystemScenario,
    trial_indices: Sequence[int],
    skip_diverged: bool,
) -> tuple[Optional[dict[str, np.ndarray]], list[tuple[int, int]]]:
    """Simulate one chunk of trials of ``config`` on the materialized ``scenario``.

    Returns the chunk's trial-by-trial sums by name, to be added up in
    chunk order, and the ``(trial_index, sample_index)`` of each trial
    dropped for diverging. Curve sums have shape ``(n,)``; steady-window
    weight-deviation sums have shape ``(S, L)``, one row per segment.
    A segment's sums are final once the segment ends, so a chunk in which
    trials diverged is simulated once more without them; the sums are
    ``None`` when none survive.
    """
    sums, diverged = _simulate_pass(config, scenario, trial_indices, skip_diverged)
    if diverged:
        dead = {t for t, _ in diverged}
        survivors = [t for t in trial_indices if t not in dead]
        sums = _simulate_pass(config, scenario, survivors, False)[0] if survivors else None
    return sums, diverged


def _simulate_pass(
    config: ExperimentConfig,
    scenario: SystemScenario,
    trial_indices: Sequence[int],
    skip_diverged: bool,
) -> tuple[dict[str, np.ndarray], list[tuple[int, int]]]:
    """One pass of the chunk engine over ``trial_indices``.

    A diverged trial raises unless ``skip_diverged``; then it is listed,
    and its row keeps running on its non-finite values (rows never mix),
    and no further segment is reduced: the sums of a pass that lists any
    are incomplete.
    """
    n = scenario.n_samples
    L = scenario.L
    R = len(trial_indices)
    f2 = config.filter2
    M = f2.M
    prop = f2.proportionate
    mixing = config.mixing

    bounds = [int(b) for b in scenario.boundaries]
    n_seg = len(scenario.segments)
    win_start = [
        _steady_window_start(bounds[k], bounds[k + 1], config.steady_window_fraction)
        for k in range(n_seg)
    ]
    # Blocks of at most _BLOCK samples, cut at every segment boundary and equal
    # within a segment: a one-sample block would be summed over the trials
    # pairwise, not row by row, and so differ in the last bits from the
    # same column reduced in a wider block.
    edges = [0]
    for start, stop in zip(bounds, bounds[1:]):
        k = -(-(stop - start) // _BLOCK)
        edges += [start + (stop - start) * q // k for q in range(1, k + 1)]
    blk = max(stop - start for start, stop in zip(edges, edges[1:]))  # the widest block

    # Each block's input is stored time-reversed behind the L+M-1 samples
    # before it: column blk-1-c holds the block's sample c, column blk+k the
    # sample k+1 before the block (zeros before t=0), so sample c's
    # regressor, newest first, is Q[:, j:j+L] with j = blk-1-c.
    carry = L + M - 1
    Q = np.zeros((R, blk + carry))
    NOISE = np.empty((R, blk))
    streams = [
        TrialStream(scenario, config.scenario.input, make_rng(config.seed, t), blk)
        for t in trial_indices
    ]

    # Sample i overwrites slot s = -i % M, so slot (s + k) % M holds sample
    # i-k. Only one row of U and one row and column of G change per sample.
    U = np.zeros((R, M, L))  # regressors by slot
    Dw = np.zeros((R, M))  # desired responses by slot
    # The loaded Grams, solved in one call: G = GG[:, 0], with G[:, p, q] =
    # U[:, p] . U[:, q] + eps*(p == q), serves both branches without gains;
    # with gains, GG[:, 1] is the other branch's gain-weighted Gram.
    load = f2.eps * np.eye(M)
    GG = np.tile(load, (R, 1 if prop is None else 2, 1, 1))
    G = GG[:, 0]
    # lags[:, k] = u(i) . u(i-k), updated by x(i)x(i-k) - x(i-L)x(i-L-k)
    lags = np.zeros((R, M))
    W = np.zeros((2, R, L))  # W[0], W[1]: the weights of branch 1 and branch 2
    step = np.empty((2, R, L))  # scratch: a weight update or deviation of both branches
    attractor = np.empty((R, L))  # also scratch for products of deviations
    GU = None if prop is None else np.empty((R, M, L))  # gain-weighted window
    a = np.full(R, mixing.a0)

    # The current block's records by trial and sample (ea1, ea2, lam, and a
    # scratch row for their products), reduced into ``sums`` when the block
    # ends; and the current segment's steady-window sums of dev = w_opt - w
    # (both branches), of dev^2 and of dev1*dev2, reduced when it ends.
    rec = np.empty((4, R, blk))
    dev_sum = np.zeros((2, R, L))
    dev_sq = np.zeros((2, R, L))
    dev_cross = np.zeros((R, L))
    sums = {key: np.empty(n) for key in ("lam", "prod", "prodsq", "esq", "e1sq", "e2sq")}
    sums.update(
        (key, np.empty((n_seg, L)))
        for key in ("wsum1", "wsum2", "wsq1", "wsq2", "cross", "meansq2")
    )
    diverged = []

    def reduce_block(lo, m):
        """Add the records of samples ``lo:lo+m`` over the trials into ``sums``."""
        cur = slice(lo, lo + m)
        ea1, ea2, lam, prod = rec[:, :, :m]
        lam.sum(axis=0, out=sums["lam"][cur])
        np.multiply(ea1, ea2, out=prod).sum(axis=0, out=sums["prod"][cur])
        np.square(prod, out=prod).sum(axis=0, out=sums["prodsq"][cur])
        ea = np.multiply(lam, ea1, out=prod)  # ea = lam*ea1 + (1-lam)*ea2
        rest = np.subtract(1.0, lam, out=lam)
        rest *= ea2
        ea += rest
        np.square(ea, out=ea).sum(axis=0, out=sums["esq"][cur])
        np.square(ea1, out=ea1).sum(axis=0, out=sums["e1sq"][cur])
        np.square(ea2, out=ea2).sum(axis=0, out=sums["e2sq"][cur])

    def reduce_segment(k):
        """Add segment k's window sums over the trials into ``sums``."""
        sums["wsum1"][k], sums["wsum2"][k] = dev_sum.sum(axis=1)
        sums["wsq1"][k], sums["wsq2"][k] = dev_sq.sum(axis=1)
        dev_cross.sum(axis=0, out=sums["cross"][k])
        # sum over trials of the squared per-trial window mean of dev2
        mean2 = np.divide(dev_sum[1], bounds[k + 1] - win_start[k], out=attractor)
        np.square(mean2, out=mean2).sum(axis=0, out=sums["meansq2"][k])
        for arr in (dev_sum, dev_sq, dev_cross):
            arr[:] = 0.0

    alive = np.ones(R, dtype=bool)
    seg = -1
    b = 0  # the next block
    for i in range(n):
        if i == bounds[seg + 1]:
            seg += 1
            wopt = scenario.segments[seg].w_opt
        if i == edges[b]:  # draw the block's input and noise
            lo, m = i, edges[b + 1] - i
            b += 1
            for r, stream in enumerate(streams):
                stream.draw(Q[r, blk - m : blk][::-1], NOISE[r, :m])
        c = i - lo  # the sample's column in the block's records and noise
        j = blk - 1 - c
        s = -i % M

        U[:, s] = Q[:, j : j + L]
        dc = U[:, s] @ wopt  # noiseless response
        Dw[:, s] = d = dc + NOISE[:, c]
        lags += Q[:, j, None] * Q[:, j : j + M]
        lags -= Q[:, j + L, None] * Q[:, j + L : j + L + M]
        G[:, s, s:] = lags[:, : M - s]
        G[:, s, :s] = lags[:, M - s :]
        G[:, s, s] += f2.eps
        G[:, :, s] = G[:, s]
        Y = U @ W.transpose(1, 2, 0)  # (R, M, 2): both branches' outputs over the window
        y1, y2 = Y[:, s, 0], Y[:, s, 1]

        lam = lambda_of(a)
        rec[0, :, c] = dc - y1
        rec[1, :, c] = dc - y2
        rec[2, :, c] = lam

        if i >= win_start[seg]:
            dev = np.subtract(wopt, W, out=step)
            dev_sum += dev
            dev_cross += np.multiply(dev[0], dev[1], out=attractor)
            dev *= dev
            dev_sq += dev

        e_comb = d - (lam * y1 + (1.0 - lam) * y2)
        a = mixing_step(a, lam, e_comb, y1, y2, mixing.mu_a, mixing.a_plus)

        E = Dw[..., None] - Y  # (R, M, 2) error vectors
        np.sign(W[1], out=attractor)
        attractor *= f2.rho
        try:
            if prop is None:  # one Gram serves both branches: two right-hand sides
                S = np.linalg.solve(G, E)
            else:  # the plain branch on G, the other on its gain-weighted Gram
                g = gain_matrix(W[1], prop.rho_p, prop.delta)
                np.add(np.multiply(g[:, None, :], U, out=GU) @ U.mT, load, out=GG[:, 1])
                S = np.linalg.solve(GG, E.mT[..., None])[..., 0].mT  # one right-hand side each
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"projection solve failed at sample {i}: {exc}") from exc
        S *= f2.mu
        np.matmul(S.mT, U, out=step.swapaxes(0, 1))
        if prop is not None:  # (g*U)^T s = g * (U^T s)
            step[1] *= g
        W += step
        W[1] -= attractor

        if not np.isfinite(W.sum()):
            bad = ~np.isfinite(W).all(axis=(0, 2))
            for r in np.flatnonzero(bad & alive):
                t = trial_indices[int(r)]
                if not skip_diverged:
                    raise DivergenceError(
                        f"trial {t} diverged at sample {i}",
                        trial_index=t,
                        sample_index=i,
                    )
                diverged.append((t, i))
            alive &= ~bad
            if not alive.any():
                break
        if i + 1 == edges[b]:
            if not diverged:
                reduce_block(lo, m)
            # the block's newest samples become the next block's older ones
            Q[:, blk:] = Q[:, blk - m : blk - m + carry]
        if i + 1 == bounds[seg + 1] and not diverged:
            reduce_segment(seg)
    return sums, diverged


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    skip_diverged: bool = False,
) -> LearningCurves:
    """Ensemble-average the configured number of trials.

    Results are bit-identical for any ``workers`` value: trials are cut
    into fixed chunks of ``config.chunk_size`` and partial sums are reduced
    in chunk order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scenario = config.scenario.materialize()
    chunks = [
        list(range(lo, min(lo + config.chunk_size, config.runs)))
        for lo in range(0, config.runs, config.chunk_size)
    ]
    args = (repeat(config), repeat(scenario), chunks, repeat(skip_diverged))
    if workers > 1 and len(chunks) > 1:
        # imported here: only a multi-worker run needs the pool, and its
        # modules cost every start-up about 20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_chunk, *args))
    else:
        results = list(map(_simulate_chunk, *args))

    skipped = tuple(t for _, diverged in results for (t, _) in diverged)
    used = config.runs - len(skipped)
    if used == 0:
        raise DivergenceError("all trials diverged")
    kept = [sums for sums, _ in results if sums is not None]  # chunks with survivors
    total = {key: reduce(np.add, (sums[key] for sums in kept)) for key in kept[0]}

    j12 = total["prod"] / used
    var_prod = np.maximum(total["prodsq"] / used - j12**2, 0.0)

    bounds = scenario.boundaries
    seg_stats = []
    for k, seg in enumerate(scenario.segments):
        start_w = _steady_window_start(
            int(bounds[k]), int(bounds[k + 1]), config.steady_window_fraction
        )
        samples = int(bounds[k + 1] - start_w) * used
        active = np.zeros(scenario.L, dtype=bool)
        active[seg.active] = True
        mean_dev2 = total["wsum2"][k] / samples
        var_across = np.maximum(total["meansq2"][k] / used - mean_dev2**2, 0.0)
        seg_stats.append(
            SegmentStats(
                start=int(bounds[k]),
                end=int(bounds[k + 1]),
                K=int(seg.active.size),
                active=active,
                mean_dev1=total["wsum1"][k] / samples,
                mean_dev2=mean_dev2,
                mean_dev2_se=np.sqrt(var_across / used),
                msd1=total["wsq1"][k] / samples,
                msd2=total["wsq2"][k] / samples,
                cross12=total["cross"][k] / samples,
                window_samples=samples,
            )
        )

    return LearningCurves(
        j1=total["e1sq"] / used,
        j2=total["e2sq"] / used,
        j12=j12,
        j=total["esq"] / used,
        lam=total["lam"] / used,
        j12_se=np.sqrt(var_prod / used),
        segments=tuple(seg_stats),
        runs_used=used,
        skipped=skipped,
    )


def steady_state_stats(
    curves: LearningCurves, segment: int, window_fraction: float = 0.1
) -> SteadyState:
    """Time-average the curves over one segment's steady-state window."""
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


def default_eps(M: int, input_variance: float = 1.0) -> float:
    """Default diagonal loading, small against the Gram diagonal ~ L*variance."""
    return 1e-4 * M * input_variance


def _desk_rho_scale(mu: float) -> float:
    """Ratio of the admissible attractor ranges of the desk and full sparse systems."""
    desk = theory.rho_bound_global(
        theory.TheoryInputs(L=64, K=4, M=4, mu=mu, rho=0.0, noise_variance=1e-3)
    )
    full = theory.rho_bound_global(
        theory.TheoryInputs(L=256, K=16, M=8, mu=mu, rho=0.0, noise_variance=1e-3)
    )
    if desk is None or full is None:
        raise ValueError(f"admissible-range bound undefined at mu={mu}")
    return desk / full


def preset_paper_scenario(
    scale: str = "desk",
    input_kind: str = "white",
    filter2_kind: str = "zaapa",
    mu: float = 0.5,
    runs: Optional[int] = None,
    seed: int = 1,
) -> ExperimentConfig:
    """Benchmark scenarios: a non-sparse, semi-sparse, then highly-sparse
    system identified over three consecutive segments.

    ``full`` is the heavyweight protocol (256 taps, 6000-sample segments,
    1000 runs); ``desk`` is a reduced version for quick runs and CI
    (64 taps, 4000-sample segments, 200 runs) whose attractor strength is
    rescaled by the ratio of the two scales' admissible-range bounds.
    """
    if scale not in ("full", "desk"):
        raise ValueError(f"unknown scale {scale!r}")
    if filter2_kind not in ("zaapa", "zapapa"):
        raise ValueError(f"unknown filter2 kind {filter2_kind!r}")

    pole = 0.8 if input_kind == "ar1" else None
    model = SignalModel(kind=input_kind, variance=1.0, pole=pole)
    if scale == "full":
        L, M = 256, 8
        segments = (SegmentDef(6000, 256), SegmentDef(6000, 80), SegmentDef(6000, 16))
        rho = _FULL_RHO[input_kind]
        n_runs = 1000 if runs is None else runs
    else:
        L, M = 64, 4
        segments = (SegmentDef(4000, 64), SegmentDef(4000, 20), SegmentDef(4000, 4))
        rho = _FULL_RHO[input_kind] * _desk_rho_scale(mu)
        n_runs = 200 if runs is None else runs

    eps = default_eps(M)
    prop = ProportionateConfig() if filter2_kind == "zapapa" else None
    return ExperimentConfig(
        scenario=ScenarioDef(
            L=L, segments=segments, noise_variance=1e-3, input=model, seed=seed
        ),
        filter2=FilterConfig(M=M, mu=mu, rho=rho, eps=eps, proportionate=prop),
        mixing=MixingConfig(),
        runs=n_runs,
        seed=seed,
    )


def sweep_rho(
    config: ExperimentConfig,
    rho_values: Sequence[float],
    workers: int = 1,
    skip_diverged: bool = False,
) -> list[tuple[float, SteadyState]]:
    """Final-segment steady state, over the config's window, across attractor strengths."""
    wf = config.steady_window_fraction
    out = []
    for rho in rho_values:
        cfg = replace(config, filter2=replace(config.filter2, rho=float(rho)))
        curves = run_experiment(cfg, workers=workers, skip_diverged=skip_diverged)
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


def write_curves(curves: LearningCurves, path, db: bool = False) -> None:
    """CSV dump with header iter,j1,j2,j12,j,lambda (lambda always linear)."""
    conv = to_db if db else (lambda x: x)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iter", "j1", "j2", "j12", "j", "lambda"])
        for i in range(curves.n_samples):
            wr.writerow(
                [
                    i,
                    conv(curves.j1[i]),
                    conv(curves.j2[i]),
                    conv(curves.j12[i]),
                    conv(curves.j[i]),
                    curves.lam[i],
                ]
            )


def write_sweep(points: list[tuple[float, SteadyState]], path, db: bool = False) -> None:
    conv = to_db if db else (lambda x: x)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["rho", "j1", "j2", "j12", "j", "lambda"])
        for rho, st in points:
            wr.writerow([rho, conv(st.J1), conv(st.J2), conv(st.J12), conv(st.J), st.lam])
