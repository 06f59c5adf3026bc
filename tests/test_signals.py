import numpy as np
import pytest
import scipy.signal

from apamix.signals import (
    ScenarioDef,
    Segment,
    SegmentDef,
    SignalModel,
    TrialStream,
    make_rng,
    scenario_stream,
    trial_signals,
)


def input_of(model, n, seed, trial=0):
    """Trial ``trial``'s input on a one-segment scenario of ``n`` samples."""
    scenario = ScenarioDef(1, (SegmentDef(n, 1),), 0.0, model, seed)
    return trial_signals(scenario, trial)[0]


class TestInputStatistics:
    def test_white_variance(self):
        x = input_of(SignalModel(variance=1.0), 200_000, seed=3)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_ar1_stationary_moments(self):
        x = input_of(SignalModel(variance=1.0, pole=0.8), 200_000, seed=4)
        assert np.var(x) == pytest.approx(1.0, rel=0.02)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1 - 0.8) < 0.02

    def test_ar1_zero_pole_is_whitelike(self):
        x = input_of(SignalModel(variance=1.0, pole=0.0), 100_000, seed=5)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 0.02

    def test_variance_scaling(self):
        x = input_of(SignalModel(variance=4.0), 100_000, seed=6)
        assert np.var(x) == pytest.approx(4.0, rel=0.03)

    @pytest.mark.parametrize("variance, seed, trial", [(1.0, 0, 0), (2.5, 9, 4), (0.3, 3, 7)])
    def test_pole_zero_is_the_scaled_white_draw(self, variance, seed, trial):
        """Pole 0 of the recursion is the white input's own definition, bit for bit."""
        n = 1000
        x = input_of(SignalModel(variance=variance), n, seed, trial)
        want = np.sqrt(variance) * make_rng(seed, trial).standard_normal(n)
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_negative_seed_or_stream_rejected(self, seed, stream):
        with pytest.raises(ValueError, match="seed and stream index must be non-negative"):
            make_rng(seed, stream)


def ar1_by_lfilter(model, n, rng):
    """The stationary AR(1) stream of ``n`` draws of ``rng``, filtered by scipy's lfilter."""
    a = model.pole
    sigma = np.sqrt(model.variance)
    g = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = sigma * g[0]
    if n > 1:
        drive = np.sqrt(1.0 - a * a) * sigma * g[1:]
        x[1:], _ = scipy.signal.lfilter([1.0], [1.0, -a], drive, zi=np.array([a * x[0]]))
    return x


class TestAr1MatchesLfilter:
    @pytest.mark.parametrize("n", [1, 2, 3, 20_000])
    @pytest.mark.parametrize("pole", [0.8, -0.8, 0.0, 0.999, -0.999])
    def test_bit_identical(self, pole, n):
        model = SignalModel(variance=2.5, pole=pole)
        x = input_of(model, n, seed=9, trial=4)
        assert x.shape == (n,)
        assert np.array_equal(x, ar1_by_lfilter(model, n, make_rng(9, 4)))


def _drawn(L, K, magnitude_rule="random", seed=0):
    """The system that a one-segment definition materializes to."""
    d = ScenarioDef(L, (SegmentDef(10, K, magnitude_rule),), 0.0, SignalModel(), seed)
    return d.materialize().segments[0].w_opt


class TestMaterialize:
    def test_full_support(self):
        assert np.count_nonzero(_drawn(16, 16)) == 16

    def test_empty_support(self):
        w = _drawn(16, 0)
        assert w.shape == (16,) and not w.any()

    def test_paper_sparse_count(self):
        w = _drawn(256, 16, seed=1)
        assert w.shape == (256,) and np.count_nonzero(w) == 16

    def test_unit_rule(self):
        w = _drawn(32, 8, "unit", seed=2)
        assert np.count_nonzero(w) == 8 and set(np.abs(w[w != 0])) == {1.0}


def _single_segment_scenario(L, w_opt, duration, noise_variance, seed,
                             model=SignalModel()):
    w_opt = np.asarray(w_opt, float)
    seg = Segment(duration, np.count_nonzero(w_opt), w_opt=w_opt)
    return ScenarioDef(L=L, segments=(seg,), noise_variance=noise_variance, input=model,
                       seed=seed)


class TestScenarioStream:
    def test_identity_channel(self):
        L = 4
        scen = _single_segment_scenario(L, [1.0, 0, 0, 0], 50, 0.0, seed=1)
        x, _ = trial_signals(scen, 0)
        for i, (obs, _) in enumerate(scenario_stream(scen, 0)):
            assert obs.d == pytest.approx(x[i], abs=1e-15)

    def test_window_contents_and_zero_padding(self):
        L = 3
        scen = _single_segment_scenario(L, [0.0, 0, 1.0], 5, 0.0, seed=2)
        x, _ = trial_signals(scen, 0)
        obs = [o for o, _ in scenario_stream(scen, 0)]
        assert np.allclose(obs[0].u, [x[0], 0, 0])
        assert np.allclose(obs[1].u, [x[1], x[0], 0])
        assert np.allclose(obs[4].u, [x[4], x[3], x[2]])

    def test_observation_identity(self):
        scen = _single_segment_scenario(4, [0.5, -1.0, 0, 2.0], 100, 1e-2, seed=3)
        for obs, w_opt in scenario_stream(scen, 0):
            assert w_opt is scen.segments[0].w_opt
            assert obs.d == pytest.approx(float(obs.u @ w_opt) + obs.epsilon, abs=1e-15)

    def test_segment_switch_boundary(self):
        L = 2
        seg_a = Segment(10, 1, w_opt=np.array([1.0, 0.0]))
        seg_b = Segment(10, 1, w_opt=np.array([3.0, 0.0]))
        scen = ScenarioDef(
            L=L, segments=(seg_a, seg_b), noise_variance=0.0, input=SignalModel(), seed=4
        )
        x, _ = trial_signals(scen, 0)
        obs, w_opts = zip(*scenario_stream(scen, 0))
        assert obs[9].d == pytest.approx(1.0 * x[9], abs=1e-15)
        assert obs[10].d == pytest.approx(3.0 * x[10], abs=1e-15)
        assert w_opts[9] is seg_a.w_opt and w_opts[10] is seg_b.w_opt

    def test_undrawn_scenario_asks_for_materialize(self):
        scen = ScenarioDef(4, (SegmentDef(20, 2),), 1e-3, SignalModel(), 7)
        with pytest.raises(ValueError, match=r"materialize\(\) first"):
            next(scenario_stream(scen, 0))
        drawn = scen.materialize()
        assert len(list(scenario_stream(drawn, 0))) == 20

    def test_reproducible_streams(self):
        scen = _single_segment_scenario(4, [1.0, 0, 0, 0], 200, 1e-3, 6, SignalModel(pole=0.5))
        a = [(o.u.copy(), o.d, o.epsilon) for o, _ in scenario_stream(scen, 0)]
        b = [(o.u.copy(), o.d, o.epsilon) for o, _ in scenario_stream(scen, 0)]
        for (ua, da, ea), (ub, db, eb) in zip(a, b):
            assert np.array_equal(ua, ub) and da == db and ea == eb

    def test_noise_independent_of_input(self):
        n = 100_000
        scen = _single_segment_scenario(2, [1.0, 0.0], n, 1.0, seed=7)
        x, eps = trial_signals(scen, 0)
        xc = (x - x.mean()) / x.std()
        ec = (eps - eps.mean()) / eps.std()
        assert abs(np.mean(xc * ec)) < 4.0 / np.sqrt(n)

    def test_ar1_regressor_covariance(self):
        # entrywise check of R_ij = variance * pole^|i-j| at small L
        L, n, pole = 8, 100_000, 0.8
        x = input_of(SignalModel(variance=1.0, pole=pole), n, seed=8)
        windows = np.lib.stride_tricks.sliding_window_view(x, L)
        R_hat = windows.T @ windows / windows.shape[0]
        i, j = np.indices((L, L))
        R_true = pole ** np.abs(i - j)
        assert np.abs(R_hat - R_true).max() < 0.05


def reference_signals(scenario, trial):
    """A trial's input, then its noise, from one generator on its key: the
    layout of a trial's draws, written out with scipy's recursion and
    without TrialStream."""
    rng = make_rng(scenario.seed, trial)
    n = scenario.n_samples
    x = ar1_by_lfilter(scenario.input, n, rng)
    return x, rng.standard_normal(n) * np.sqrt(scenario.noise_variance)


def _pieces(durations, block):
    """Cut each segment into pieces of at most ``block`` samples."""
    out = []
    for d in durations:
        out += [block] * (d // block) + ([d % block] if d % block else [])
    return out


MODELS = [SignalModel(2.5), SignalModel(2.5, 0.8)]
DURATIONS = (300, 257)


def _two_segment_scenario(model):
    segments = tuple(SegmentDef(d, 2) for d in DURATIONS)
    return ScenarioDef(8, segments, 1e-2, model, seed=3)


@pytest.mark.parametrize("drawn", [False, True])  # the streams read no system
@pytest.mark.parametrize("model", MODELS)
def test_trial_signals_follow_the_reference_layout(model, drawn):
    scen = _two_segment_scenario(model)
    want_x, want_noise = reference_signals(scen, 7)
    x, noise = trial_signals(scen.materialize() if drawn else scen, 7)
    assert np.array_equal(x, want_x)
    assert np.array_equal(noise, want_noise)


class TestTrialStream:
    """Drawn a piece at a time, a trial's streams equal the reference layout's bit for bit."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "pieces",
        [
            _pieces(DURATIONS, 1),
            _pieces(DURATIONS, 7),  # pieces end inside segments and at their boundary
            _pieces(DURATIONS, 256),
            [557],  # the whole horizon in one piece
            [100, 200, 157, 100],  # inside, at the boundary, inside, at the end
        ],
    )
    def test_pieces_concatenate_to_the_reference(self, model, pieces):
        scen = _two_segment_scenario(model)
        n = scen.n_samples
        assert sum(pieces) == n
        want_x, want_noise = reference_signals(scen, 7)
        stream = TrialStream(scen, [7])
        x, noise = np.empty((1, n)), np.empty((1, n))
        lo = 0
        for m in pieces:  # each piece's rows contiguous, in time order, as the engine's
            stream.draw(x[:, lo : lo + m], noise[:, lo : lo + m])
            lo += m
        assert np.array_equal(x[0], want_x)
        assert np.array_equal(noise[0], want_noise)

    @pytest.mark.parametrize("pole", [0.0, 0.8])
    def test_each_row_is_its_trials_stream(self, pole):
        """A chunk's stream draws its trials together: row r equals trial
        ``trials[r]`` drawn alone, whatever the order of the trials."""
        scen = _two_segment_scenario(SignalModel(2.5, pole))
        n = scen.n_samples
        trials = [3, 1, 7]
        stream = TrialStream(scen, trials)
        x, noise = np.empty((3, n)), np.empty((3, n))
        lo = 0
        for m in [1, 7, 256, n - 264]:
            stream.draw(x[:, lo : lo + m], noise[:, lo : lo + m])
            lo += m
        for r, t in enumerate(trials):
            want_x, want_noise = trial_signals(scen, t)
            assert np.array_equal(x[r], want_x)
            assert np.array_equal(noise[r], want_noise)


class TestScenarioDef:
    def test_materialize_deterministic(self):
        d = ScenarioDef(
            L=32,
            segments=(SegmentDef(100, 32), SegmentDef(100, 4)),
            noise_variance=1e-3,
            input=SignalModel(),
            seed=9,
        )
        s1, s2 = d.materialize(), d.materialize()
        assert s1.input is d.input and s1.seed == d.seed
        assert (s1.L, s1.noise_variance) == (32, 1e-3)
        assert (s1.n_samples, s1.boundaries) == (200, (0, 100, 200))
        for a, b, sd in zip(s1.segments, s2.segments, d.segments, strict=True):
            assert np.array_equal(a.w_opt, b.w_opt)
            assert (a.duration, a.K, a.magnitude_rule) == (sd.duration, sd.K, sd.magnitude_rule)
        assert np.count_nonzero(s1.segments[1].w_opt) == 4
