"""Input signals, sparse test systems, and time-varying scenarios.

A scenario is a piecewise-constant true system: an ordered list of segments,
each of which holds its own weight vector once the scenario is materialized.
Observations are produced by sliding an L-sample window over the input
stream (zero-padded before t=0) and adding white Gaussian observation noise.

Trial streams are driven by the counter-based Philox generator so that
Monte-Carlo trials get reproducible streams from ``seed XOR trial_index``
alone. The scenario's seed is the experiment's only one: it also keys
segment j's system (``seed XOR (j+1)``), trial j+1's key. The keys
overlap: seeds s and s XOR 1 draw the same trial streams, with trials t
and t XOR 1 swapped. An input
model holds no seed of its own; the scenario carries the model and the
seed, and :class:`TrialStream` alone lays out a trial's draws, which read
no system: its input is the first n draws of the trial's generator, and its
noise comes from a second generator on the same key, moved past those n
draws. One stream serves a whole chunk of trials a piece at a time, so
that a simulation need not hold the streams for the whole horizon, and it
draws every input with one AR(1) recursion over the trial axis, of which
white input is pole 0. :func:`trial_signals` is the one-trial stream over
the whole horizon in one piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "SignalModel",
    "SegmentDef",
    "Segment",
    "ScenarioDef",
    "Observation",
    "make_rng",
    "trial_signals",
    "TrialStream",
    "scenario_stream",
]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the stream ``seed XOR stream``."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream index must be non-negative")
    return np.random.Generator(np.random.Philox(key=seed ^ stream))


@dataclass(frozen=True)
class SignalModel:
    """Stationary Gaussian AR(1) input, x(t) = pole*x(t-1) + driving noise.

    White input is pole 0. ``variance`` is the variance of the process
    itself: the driving noise is scaled by sqrt(1 - pole^2) so the output
    keeps that variance in steady state.
    """

    variance: float = 1.0
    pole: float = 0.0

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError("input variance must be positive and finite")
        if not -1.0 < self.pole < 1.0:  # also rejects NaN
            raise ValueError(f"input pole {self.pole} must lie in (-1, 1)")


@dataclass(frozen=True)
class SegmentDef:
    """One segment of a :class:`ScenarioDef`: its length and active-tap count."""

    duration: int
    K: int
    magnitude_rule: str = "random"

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("segment duration must be >= 1")
        if self.K < 0:
            raise ValueError(f"active tap count {self.K} is negative")
        if self.magnitude_rule not in ("random", "unit"):
            raise ValueError(f"unknown magnitude rule {self.magnitude_rule!r}")


@dataclass(frozen=True)
class Segment(SegmentDef):
    """A segment with its system ``w_opt``, drawn by :meth:`ScenarioDef.materialize` or
    built by hand: L finite taps, exactly K of them nonzero."""

    w_opt: np.ndarray = field(kw_only=True)


@dataclass(frozen=True)
class ScenarioDef:
    """Piecewise-constant true system plus the observation-noise level.

    As loaded from JSON its segments are :class:`SegmentDef`;
    :meth:`materialize` returns it with each segment's system drawn, and
    keeps a :class:`Segment` built by hand.
    ``seed`` is the experiment's only seed. Segment systems are drawn
    deterministically from it: segment j uses the stream ``seed XOR (j+1)``,
    so a definition always materializes to the same scenario. Trial t's
    input and noise use the stream ``seed XOR t`` (:class:`TrialStream`),
    so segment j's key is trial j+1's.
    """

    L: int
    segments: tuple[SegmentDef, ...]
    noise_variance: float
    input: SignalModel
    seed: int = 0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"filter length L={self.L} must be >= 1")
        if not self.segments:
            raise ValueError("scenario needs at least one segment")
        if not 0 <= self.noise_variance < np.inf:  # also rejects NaN
            raise ValueError("noise variance must be finite and >= 0")
        if not 0 <= self.seed < 2**128:  # Philox's key range
            raise ValueError("scenario seed must lie in [0, 2**128)")
        for j, sd in enumerate(self.segments):
            if sd.K > self.L:
                raise ValueError(f"segment {j}: active tap count {sd.K} exceeds L={self.L}")
            if isinstance(sd, Segment) and not (sd.w_opt.shape == (self.L,) and np.isfinite(
                    sd.w_opt).all() and np.count_nonzero(sd.w_opt) == sd.K):
                raise ValueError(f"segment {j}: w_opt needs {self.L} finite taps, {sd.K} nonzero")

    @property
    def n_samples(self) -> int:
        return sum(seg.duration for seg in self.segments)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative segment start offsets, length ``len(segments)+1``."""
        return tuple(accumulate((s.duration for s in self.segments), initial=0))

    def materialize(self) -> ScenarioDef:
        """This definition with each segment's system drawn: exactly K nonzero taps.

        Positions are uniform without replacement; nonzero values are N(0,1)
        (``random``) or random signs (``unit``). A segment that already
        holds a system (a :class:`Segment`) keeps it.
        """
        segs = list(self.segments)
        for j, sd in enumerate(segs):
            if isinstance(sd, Segment):
                continue
            rng = make_rng(self.seed, j + 1)
            active = np.sort(rng.choice(self.L, size=sd.K, replace=False))
            if sd.magnitude_rule == "random":
                vals = rng.standard_normal(sd.K)
                # avoid the measure-zero exact zero that would break the support count
                vals[vals == 0.0] = 1.0
            else:
                vals = rng.integers(0, 2, size=sd.K) * 2.0 - 1.0
            w = np.zeros(self.L)
            w[active] = vals
            segs[j] = Segment(sd.duration, sd.K, sd.magnitude_rule, w_opt=w)
        return replace(self, segments=tuple(segs))


@dataclass(frozen=True)
class Observation:
    """Regressor, noisy desired response, and the noise sample itself."""

    u: np.ndarray
    d: float
    epsilon: float


class TrialStream:
    """The input and noise of trials ``trials`` on ``scenario``, drawn a piece at a time.

    The one layout of a trial's draws: trial t's input comes from the first n
    draws of ``make_rng(scenario.seed, t)``, and its noise from a second
    generator on the same key, moved past them by one ``standard_normal(n)``
    call. Row r of a piece belongs to trial ``trials[r]``, and pieces of any
    lengths concatenate to the same arrays bit for bit.

    Every pole takes one recursion over the trial axis: the stationary start
    x(0) = sigma*g(0), then x(t) = sqrt(1-pole^2)*sigma*g(t) + pole*x(t-1).
    At pole 0 that is sigma*g(t) bit for bit, the white input. Each step is
    exactly that of scipy's ``lfilter([1], [1, -pole])``, against which
    tests/test_signals.py checks the stream bit for bit.
    """

    def __init__(self, scenario: ScenarioDef, trials: Sequence[int]):
        model = scenario.input
        self._rngs = [make_rng(scenario.seed, t) for t in trials]
        self._noise_rngs = [make_rng(scenario.seed, t) for t in trials]
        for rng in self._noise_rngs:
            rng.standard_normal(scenario.n_samples)
        self._pole = model.pole
        self._sigma = np.sqrt(model.variance)
        self._drive_sd = np.sqrt(1.0 - model.pole * model.pole) * self._sigma
        self._noise_sd = np.sqrt(scenario.noise_variance)
        self._last = None  # each trial's sample before the next piece, None at t=0

    def draw(self, x: np.ndarray, noise: np.ndarray) -> None:
        """Fill ``x`` and ``noise``, both ``(len(trials), m)``, with the next m samples.

        Each row is in time order and contiguous: a trial's normals are drawn
        straight into its row of ``x``, and the recursion runs there.
        """
        for rng, row, noise_rng, noise_row in zip(self._rngs, x, self._noise_rngs, noise):
            rng.standard_normal(out=row)
            noise_rng.standard_normal(out=noise_row)
        noise *= self._noise_sd
        x0 = self._sigma * x[:, 0]  # the stationary start, if this piece is the first
        x *= self._drive_sd  # the driving noise
        y = self._last
        for t, drive in enumerate(x.T):
            y = x[:, t] = x0 if y is None else drive + self._pole * y
        self._last = y


def trial_signals(scenario: ScenarioDef, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial ``trial``'s whole input and noise: the one-trial :class:`TrialStream`, one piece."""
    x, noise = np.empty((1, scenario.n_samples)), np.empty((1, scenario.n_samples))
    TrialStream(scenario, [trial]).draw(x, noise)
    return x[0], noise[0]


def scenario_stream(scenario: ScenarioDef, trial: int) -> Iterator[tuple[Observation, np.ndarray]]:
    """Yield trial ``trial``'s observations, each with the system it observes.

    Each observation reads its segment's ``w_opt`` of
    ``scenario.materialize()``. The regressor at time i is the window
    ``[x(i), x(i-1), ..., x(i-L+1)]`` with zeros before t=0; the desired
    response uses the segment-active system at i plus independent
    observation noise.
    """
    scenario = scenario.materialize()
    x, noise = trial_signals(scenario, trial)
    L = scenario.L
    padded = np.concatenate([np.zeros(L - 1), x])
    w_opts = (seg.w_opt for seg in scenario.segments for _ in range(seg.duration))
    for i, w_opt in enumerate(w_opts):
        u = padded[i : i + L][::-1].copy()
        d = float(u @ w_opt + noise[i])
        yield Observation(u=u, d=d, epsilon=float(noise[i])), w_opt
