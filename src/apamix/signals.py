"""Input signals, sparse test systems, and time-varying scenarios.

A scenario is a piecewise-constant true system: an ordered list of segments,
each holding its own weight vector and active-tap set. Observations are
produced by sliding an L-sample window over the input stream (zero-padded
before t=0) and adding white Gaussian observation noise.

Trial streams are driven by the counter-based Philox generator so that
Monte-Carlo trials get independent, reproducible streams from
``seed XOR trial_index`` alone. Every draw takes its generator from the
caller; an input model holds no seed of its own.

A trial draws its whole input first, then its noise, from that one
generator (:func:`trial_signals`). :class:`TrialStream` serves the same
numbers a piece at a time, so that a simulation need not hold a trial's
streams for the whole horizon: its input continues the generator (and the
AR(1) state) from piece to piece, and its noise comes from a copy of the
generator moved past the trial's input draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "SignalModel",
    "Segment",
    "SystemScenario",
    "SegmentDef",
    "ScenarioDef",
    "Observation",
    "make_rng",
    "gen_input",
    "make_system",
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
    """Stationary input process: white Gaussian or AR(1).

    ``variance`` is the variance of the process itself; for AR(1) the
    driving noise is scaled by sqrt(1 - pole^2) so the output keeps that
    variance in steady state.
    """

    kind: str
    variance: float = 1.0
    pole: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("white", "ar1"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        if not 0 < self.variance < np.inf:
            raise ValueError("input variance must be positive and finite")
        if self.kind == "ar1":
            if self.pole is None or not (-1.0 < self.pole < 1.0):
                raise ValueError("ar1 pole must lie in (-1, 1)")
        elif self.pole is not None:
            raise ValueError("white input takes no pole")


def gen_input(model: SignalModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generate ``n`` samples of the input process.

    White: i.i.d. N(0, variance). AR(1): stationary start
    x(0) ~ N(0, variance), then x(t) = pole*x(t-1) + sqrt(1-pole^2)*sigma*g(t).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.empty(n)
    _fill_input(model, rng, x, None)
    return x


def _fill_input(
    model: SignalModel, rng: np.random.Generator, x: np.ndarray, y: Optional[float]
) -> Optional[float]:
    """Fill ``x`` with the input's next ``len(x)`` samples, from ``len(x)`` draws.

    ``y`` is the AR(1) sample before them, None at t=0. Returns the last
    sample written, so that the next call continues the process.
    """
    sigma = np.sqrt(model.variance)
    g = rng.standard_normal(len(x))
    if model.kind == "white":
        np.multiply(sigma, g, out=x)
        return None
    a = model.pole
    if y is None:  # stationary start
        y = x[0] = float(sigma * g[0])
        g, x = g[1:], x[1:]
    drive = np.sqrt(1.0 - a * a) * sigma * g
    # The one-pole recursion as a plain loop, exactly as lfilter([1], [1, -a],
    # drive, zi=[a*x(0)]) computes it: that filter pads b to [1, 0], so each
    # step of its first-order transposed direct form II is exactly v + a*y,
    # and the two agree bit for bit (tests/test_signals.py checks it).
    out = []
    for v in drive.tolist():
        y = v + a * y
        out.append(y)
    x[:] = out
    return y


def make_system(
    L: int, K: int, magnitude_rule: str, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a length-L system with exactly K nonzero taps.

    Positions are uniform without replacement; nonzero values are N(0,1)
    (``random``) or random signs (``unit``). Returns ``(w_opt, active)``
    where ``active`` holds the sorted nonzero indices.
    """
    if not 0 <= K <= L:
        raise ValueError(f"active tap count {K} outside [0, {L}]")
    if magnitude_rule not in ("random", "unit"):
        raise ValueError(f"unknown magnitude rule {magnitude_rule!r}")
    active = np.sort(rng.choice(L, size=K, replace=False))
    w = np.zeros(L)
    if K:
        if magnitude_rule == "random":
            vals = rng.standard_normal(K)
            # avoid the measure-zero exact zero that would break the support count
            vals[vals == 0.0] = 1.0
        else:
            vals = rng.integers(0, 2, size=K) * 2.0 - 1.0
        w[active] = vals
    return w, active


@dataclass(frozen=True)
class Segment:
    """One piece of a piecewise-constant system."""

    duration: int
    w_opt: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("segment duration must be >= 1")
        nz = np.flatnonzero(self.w_opt)
        if nz.size != self.active.size or not np.array_equal(np.sort(self.active), nz):
            raise ValueError("active set does not match the support of w_opt")


@dataclass(frozen=True)
class SystemScenario:
    """Piecewise-constant true system plus the observation-noise level."""

    L: int
    segments: tuple[Segment, ...]
    noise_variance: float

    def __post_init__(self):
        if not self.segments:
            raise ValueError("scenario needs at least one segment")
        if not self.noise_variance >= 0:  # also rejects NaN
            raise ValueError("noise variance must be >= 0")
        for seg in self.segments:
            if seg.w_opt.shape != (self.L,):
                raise ValueError("segment weight vector length differs from L")

    @property
    def n_samples(self) -> int:
        return sum(seg.duration for seg in self.segments)

    @property
    def boundaries(self) -> np.ndarray:
        """Cumulative segment start offsets, length ``len(segments)+1``."""
        return np.concatenate([[0], np.cumsum([s.duration for s in self.segments])])

    def w_opt_at(self, i: int) -> np.ndarray:
        b = self.boundaries
        k = int(np.searchsorted(b, i, side="right") - 1)
        return self.segments[k].w_opt


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
class ScenarioDef:
    """JSON-facing scenario description; systems are drawn on materialize().

    Segment systems are drawn deterministically from ``seed``: segment j
    uses the stream ``seed XOR (j+1)``, so a definition always materializes
    to the same scenario.
    """

    L: int
    segments: tuple[SegmentDef, ...]
    noise_variance: float
    input: SignalModel
    seed: int = 0

    def __post_init__(self):
        if not self.segments:
            raise ValueError("scenario needs at least one segment")
        if not 0 <= self.noise_variance < np.inf:  # also rejects NaN
            raise ValueError("noise variance must be finite and >= 0")
        if not 0 <= self.seed < 2**128:  # Philox's key range
            raise ValueError("scenario seed must lie in [0, 2**128)")
        for j, sd in enumerate(self.segments):
            if sd.K > self.L:
                raise ValueError(f"segment {j}: active tap count {sd.K} exceeds L={self.L}")

    def materialize(self) -> SystemScenario:
        segs = []
        for j, sd in enumerate(self.segments):
            w, active = make_system(self.L, sd.K, sd.magnitude_rule, make_rng(self.seed, j + 1))
            segs.append(Segment(sd.duration, w, active))
        return SystemScenario(self.L, tuple(segs), self.noise_variance)


@dataclass(frozen=True)
class Observation:
    """Regressor, noisy desired response, and the noise sample itself."""

    u: np.ndarray
    d: float
    epsilon: float


def trial_signals(
    scenario: SystemScenario, model: SignalModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one trial's raw input and noise arrays.

    Draw order is fixed (input first, then noise) so that any consumer of
    the same generator sees identical streams.
    """
    n = scenario.n_samples
    x = gen_input(model, n, rng)
    noise = rng.standard_normal(n) * np.sqrt(scenario.noise_variance)
    return x, noise


class TrialStream:
    """One trial's :func:`trial_signals` arrays, drawn a piece at a time.

    Pieces of any lengths concatenate to ``trial_signals(scenario, model,
    rng)`` bit for bit. The noise generator is a copy of ``rng`` moved past
    the trial's n input draws, ``block`` draws at a time, so that no array
    longer than ``block`` is ever allocated.
    """

    def __init__(
        self, scenario: SystemScenario, model: SignalModel, rng: np.random.Generator, block: int
    ):
        n = scenario.n_samples
        self._model = model
        self._rng = rng
        self._last = None  # the AR(1) sample before the next piece
        bits = type(rng.bit_generator)()  # a copy of rng's bit generator
        bits.state = rng.bit_generator.state
        self._noise_rng = np.random.Generator(bits)
        for lo in range(0, n, block):
            self._noise_rng.standard_normal(min(block, n - lo))
        self._noise_sd = np.sqrt(scenario.noise_variance)

    def draw(self, x: np.ndarray, noise: np.ndarray) -> None:
        """Fill ``x`` and ``noise``, of one length, with the next samples in time order.

        ``x`` may be any view, such as a reversed one; ``noise`` must be
        contiguous.
        """
        self._last = _fill_input(self._model, self._rng, x, self._last)
        self._noise_rng.standard_normal(out=noise)
        noise *= self._noise_sd


def scenario_stream(
    scenario: SystemScenario, model: SignalModel, rng: np.random.Generator
) -> Iterator[Observation]:
    """Yield the observation sequence for one trial.

    The regressor at time i is the window ``[x(i), x(i-1), ..., x(i-L+1)]``
    with zeros before t=0; the desired response uses the segment-active
    system at i plus independent observation noise.
    """
    x, noise = trial_signals(scenario, model, rng)
    L = scenario.L
    padded = np.concatenate([np.zeros(L - 1), x])
    bounds = scenario.boundaries
    seg = 0
    for i in range(scenario.n_samples):
        while i >= bounds[seg + 1]:
            seg += 1
        u = padded[i : i + L][::-1].copy()
        eps = noise[i]
        d = float(u @ scenario.segments[seg].w_opt + eps)
        yield Observation(u=u, d=d, epsilon=float(eps))
