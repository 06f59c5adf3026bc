import json
import math
import re
import shlex
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import apamix.harness as harness
from apamix.cli import build_parser, main as cli_main
from apamix.errors import ConfigError, DivergenceError, NumericalError
from apamix.filters import (
    FilterConfig,
    FilterState,
    ProportionateConfig,
    RegressorBuffer,
    apa_step,
    push,
    za_apa_step,
    za_papa_step,
)
from apamix.harness import (
    ExperimentConfig,
    MixingConfig,
    config_from_dict,
    config_to_dict,
    preset_paper_scenario,
    read_config,
    run_experiment,
    run_trial,
    steady_state_stats,
    sweep_rho,
    to_db,
    write_config,
    write_curves,
    write_sweep,
)
from apamix.signals import ScenarioDef, SegmentDef, SignalModel, scenario_stream


def tiny_config(L=16, M=2, n=250, runs=3, rho=1e-3, proportionate=None, seed=5,
                pole=0.0, segments=None, eps=None, mu=0.5):
    """Two-segment experiment."""
    if segments is None:
        segments = (SegmentDef(n, L), SegmentDef(n, 2))
    eps = harness.default_eps(M) if eps is None else eps
    return ExperimentConfig(
        scenario=ScenarioDef(
            L=L,
            segments=segments,
            noise_variance=1e-3,
            input=SignalModel(variance=1.0, pole=pole),
            seed=seed,
        ),
        filter2=FilterConfig(M=M, mu=mu, rho=rho, eps=eps, proportionate=proportionate),
        mixing=MixingConfig(),
        runs=runs,
        chunk_size=2,
    )


def assert_engine_matches_reference(cfg, floor=0.0):
    """run_experiment on one trial reproduces run_trial's records to 1e-9 relative.

    ``floor`` raises the absolute tolerance of each error record to that
    fraction of the record's largest magnitude.
    """
    one = replace(cfg, runs=1, chunk_size=1)
    rec = run_trial(one, 0)
    cur = run_experiment(one)
    records = {"j1": rec.ea1**2, "j2": rec.ea2**2, "j12": rec.ea1 * rec.ea2, "j": rec.ea**2}
    for name, want in records.items():
        atol = max(1e-13, floor * np.abs(want).max())
        assert np.allclose(getattr(cur, name), want, rtol=1e-9, atol=atol), name
    assert np.allclose(cur.lam, rec.lam, rtol=1e-9, atol=1e-12)


class TestReferenceVsEngine:
    @pytest.mark.parametrize("prop", [None, ProportionateConfig(rho_p=0.05, delta=0.01)])
    def test_single_trial_matches_reference(self, prop):
        assert_engine_matches_reference(tiny_config(proportionate=prop))

    def test_ar1_trial_matches_reference(self):
        assert_engine_matches_reference(tiny_config(pole=0.8))

    def test_trial_streams_depend_only_on_seed_and_index(self):
        cfg = tiny_config()
        a = run_trial(cfg, 4)
        b = run_trial(replace(cfg, runs=10, chunk_size=7), 4)
        assert np.array_equal(a.ea1, b.ea1)

    def test_repeated_trial_is_identical(self):
        cfg = tiny_config()
        a = run_trial(cfg, 2)
        b = run_trial(cfg, 2)
        assert np.array_equal(a.ea1, b.ea1) and np.array_equal(a.lam, b.lam)
        # averaging two identical records equals the record itself
        assert np.array_equal((a.ea1**2 + b.ea1**2) / 2, a.ea1**2)


def reference_segment_stats(cfg):
    """SegmentStats fields recomputed with a per-sample loop over every trial.

    Each trial runs through ``scenario_stream``, ``push`` and the ``filters``
    step functions, as ``run_trial`` does; the deviation ``w_opt - w`` is
    taken before each sample's update.
    """
    scenario = cfg.scenario.materialize()
    bounds = scenario.boundaries
    step2 = za_papa_step if cfg.filter2.proportionate is not None else za_apa_step
    n_seg = len(scenario.segments)
    sums = {key: np.zeros((n_seg, cfg.scenario.L))
            for key in ("dev1", "dev2", "sq1", "sq2", "cross", "meansq2")}
    widths = [max(10, math.ceil(cfg.steady_window_fraction * (bounds[k + 1] - bounds[k])))
              for k in range(n_seg)]
    for t in range(cfg.runs):
        s1 = FilterState.zeros(cfg.filter1, cfg.scenario.L)
        s2 = FilterState.zeros(cfg.filter2, cfg.scenario.L)
        buf = RegressorBuffer.zeros(cfg.scenario.L, cfg.filter2.M)
        trial_dev2 = np.zeros((n_seg, cfg.scenario.L))
        for i, (obs, _) in enumerate(scenario_stream(scenario, t)):
            k = int(np.searchsorted(bounds, i, side="right") - 1)
            if i >= bounds[k + 1] - widths[k]:
                w_opt = scenario.segments[k].w_opt
                dev1, dev2 = w_opt - s1.w, w_opt - s2.w
                sums["dev1"][k] += dev1
                sums["dev2"][k] += dev2
                sums["sq1"][k] += dev1**2
                sums["sq2"][k] += dev2**2
                sums["cross"][k] += dev1 * dev2
                trial_dev2[k] += dev2
            buf = push(buf, obs)
            s1, s2 = apa_step(s1, buf), step2(s2, buf)
        sums["meansq2"] += (trial_dev2 / np.array(widths)[:, None]) ** 2
    out = []
    for k in range(n_seg):
        samples = widths[k] * cfg.runs
        mean_dev2 = sums["dev2"][k] / samples
        var_across = np.maximum(sums["meansq2"][k] / cfg.runs - mean_dev2**2, 0.0)
        out.append(dict(
            mean_dev1=sums["dev1"][k] / samples,
            mean_dev2=mean_dev2,
            mean_dev2_se=np.sqrt(var_across / cfg.runs),
            msd1=sums["sq1"][k] / samples,
            msd2=sums["sq2"][k] / samples,
            cross12=sums["cross"][k] / samples,
            window_samples=samples,
        ))
    return out


class TestSegmentStatsMatchReference:
    @pytest.mark.parametrize("prop", [None, ProportionateConfig()])
    def test_two_chunks_match_per_sample_loop(self, prop):
        cfg = tiny_config(runs=3, proportionate=prop)  # chunk_size=2: two chunks
        curves = run_experiment(cfg)
        for seg, ref in zip(curves.segments, reference_segment_stats(cfg), strict=True):
            assert seg.window_samples == ref.pop("window_samples")
            for field, expected in ref.items():
                np.testing.assert_allclose(getattr(seg, field), expected, rtol=1e-9,
                                           err_msg=field)


class TestSolvesPerSample:
    """The shared Gram's inverses come from one kernel call per sub-block of
    samples; only the proportionate branch's gain-weighted Gram, which
    changes with the weights, is solved per sample."""

    @staticmethod
    def count(monkeypatch, prop):
        calls = {"solve": 0, "kernel": 0}
        solve, kernel = np.linalg.solve, harness.invert_spd_batch

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            calls["kernel"] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(harness, "invert_spd_batch", counting_kernel)
        # one chunk; each 250-sample segment is one block
        cfg = replace(tiny_config(runs=3, proportionate=prop), chunk_size=3)
        curves = run_experiment(cfg)
        sub_blocks = sum(-(-seg.duration // harness._SUB) for seg in cfg.scenario.segments)
        return calls, curves.n_samples, sub_blocks

    def test_without_gains_no_solve_and_one_kernel_call_per_sub_block(self, monkeypatch):
        calls, _, sub_blocks = self.count(monkeypatch, None)
        assert calls == {"solve": 0, "kernel": sub_blocks}

    def test_with_gains_one_solve_per_sample(self, monkeypatch):
        calls, n, sub_blocks = self.count(monkeypatch, ProportionateConfig())
        assert calls == {"solve": n, "kernel": sub_blocks}


@pytest.mark.parametrize("M", range(1, 17))
def test_gram_rows_gather_each_entry_of_the_slot_order_gram(M):
    # the engine gathers with np.take(..., mode="clip"), which would turn an
    # index out of range into a wrong entry that is still finite
    rng = np.random.default_rng(M)
    for sub in range(1, 21):
        at = harness._gram_rows(M, sub)
        assert at.shape == (M, M, M, sub)
        assert at.min() >= 0 and at.max() < M * (sub + M)
        for r in range(M):
            i0 = 2 * M + r  # the sub-block's first sample, i0 % M == r
            u = rng.standard_normal((i0 + sub, M + 2))  # u[i]: sample i's regressor
            # the lag history: H[k, c] = u(j) . u(j-k) for the sub-block's sample j = c - M
            j = i0 - M + np.arange(sub + M)
            H = np.einsum("kcl,cl->kc", u[j - np.arange(M)[:, None]], u[j])
            i = i0 + np.arange(sub)
            ages = (np.arange(M)[:, None] + i) % M  # slot p holds the sample of age (p + i) % M
            V = u[i - ages]  # V[p, t]: the regressor in slot p at the sub-block's sample t
            want = np.einsum("ptl,qtl->pqt", V, V)  # both triangles
            np.testing.assert_allclose(H.reshape(-1)[at[r]], want, rtol=1e-12)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        # three chunks on three workers, and five on two: more chunks than
        # workers, so the pool's results come back over several rounds
        for runs, workers in ((6, 3), (10, 2)):
            cfg = replace(tiny_config(runs=runs), chunk_size=2)
            c1 = run_experiment(cfg, workers=1)
            cw = run_experiment(cfg, workers=workers)
            for field in ("j1", "j2", "j12", "j", "lam", "j12_se"):
                assert np.array_equal(getattr(c1, field), getattr(cw, field))
            for s1, sw in zip(c1.segments, cw.segments):
                assert np.array_equal(s1.msd2, sw.msd2)
                assert np.array_equal(s1.mean_dev2, sw.mean_dev2)

    def test_rerun_is_bit_identical(self):
        cfg = tiny_config(runs=4)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert np.array_equal(a.j1, b.j1) and np.array_equal(a.lam, b.lam)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(tiny_config(), workers=workers)


class TestCurveInvariants:
    def test_nonnegative_and_bounded(self):
        cfg = tiny_config(runs=6)
        cur = run_experiment(cfg)
        assert (cur.j1 >= 0).all() and (cur.j2 >= 0).all() and (cur.j >= 0).all()
        lam_plus = 1 / (1 + math.exp(-4.0))
        assert (cur.lam >= 1 - lam_plus - 1e-12).all()
        assert (cur.lam <= lam_plus + 1e-12).all()

    def test_cross_emse_cauchy_schwarz_with_slack(self):
        cfg = tiny_config(runs=10)
        cur = run_experiment(cfg)
        bound = np.sqrt(cur.j1 * cur.j2) + 3 * cur.j12_se
        assert (np.abs(cur.j12) <= bound + 1e-15).all()

    def test_weight_stats_shapes(self):
        cfg = tiny_config(runs=3)
        cur = run_experiment(cfg)
        assert len(cur.segments) == 2
        seg = cur.segments[1]
        assert seg.K == 2 and seg.active.sum() == 2
        assert seg.msd2.shape == (16,)
        assert (seg.msd1 >= 0).all() and (seg.msd2 >= 0).all()


class TestSteadyStateStats:
    def test_constant_curves(self):
        cfg = tiny_config(runs=2)
        cur = run_experiment(cfg)
        const = replace(
            cur,
            j1=np.full(cur.n_samples, 2.0),
            j2=np.full(cur.n_samples, 3.0),
            j12=np.full(cur.n_samples, 1.0),
            j=np.full(cur.n_samples, 1.5),
            lam=np.full(cur.n_samples, 0.25),
        )
        st = steady_state_stats(const, 0, 0.1)
        assert (st.J1, st.J2, st.J12, st.J, st.lam) == (2.0, 3.0, 1.0, 1.5, 0.25)

    def test_window_fractions_agree_on_flat_segment(self):
        cfg = tiny_config(runs=8, n=600)
        cur = run_experiment(cfg)
        a = steady_state_stats(cur, 1, 0.1)
        b = steady_state_stats(cur, 1, 0.3)
        assert a.J1 == pytest.approx(b.J1, rel=0.5)  # same order, sampling noise apart

    @staticmethod
    def engine_window_means(cur, k):
        """The curves averaged over segment k's samples that SegmentStats counts."""
        seg = cur.segments[k]
        sl = slice(seg.end - seg.window_samples // cur.runs_used, seg.end)
        assert sl.start >= seg.start
        return harness.SteadyState(
            *(float(getattr(cur, name)[sl].mean()) for name in ("j1", "j2", "j12", "j", "lam"))
        )

    @pytest.mark.parametrize("fraction", [0.01, 0.1])
    def test_short_window_widened_to_ten_samples(self, fraction):
        # 50 samples: ceil(0.5) and ceil(5) are both widened to 10
        cur = run_experiment(tiny_config(runs=2, n=50))
        assert cur.segments[0].window_samples == 10 * cur.runs_used
        assert steady_state_stats(cur, 0, fraction) == self.engine_window_means(cur, 0)

    @pytest.mark.parametrize("durations", [(50, 250), (5, 250), (250, 50)])
    def test_curves_and_per_tap_statistics_share_one_window(self, durations):
        cfg = tiny_config(runs=2, segments=tuple(SegmentDef(d, 2) for d in durations))
        cur = run_experiment(cfg)
        for k in range(len(durations)):
            expected = self.engine_window_means(cur, k)
            assert steady_state_stats(cur, k, cfg.steady_window_fraction) == expected
        if durations == (250, 50):  # the sweep reads the last segment over that window
            assert sweep_rho(cfg, [cfg.filter2.rho]) == [(cfg.filter2.rho, expected)]

    @pytest.mark.parametrize("fraction", [1.5, 2.0])
    def test_window_longer_than_segment_rejected(self, fraction):
        cur = run_experiment(tiny_config(runs=2))
        with pytest.raises(ValueError, match="window_fraction"):
            steady_state_stats(cur, 1, fraction)

    def test_whole_segment_window(self):
        cur = run_experiment(tiny_config(runs=2))
        st = steady_state_stats(cur, 1, 1.0)
        assert st.J1 == float(cur.j1[250:].mean())


def nan_input(monkeypatch, deaths):
    """Make the engine's stream turn trial t's input NaN at sample ``deaths[t]``.

    Returns the counter of trial streams built, ``{"count": streams - 1}``:
    a chunk's stream counts once per trial.
    """
    real = harness.TrialStream
    seen = {"count": -1}

    class Fake(real):
        def __init__(self, scenario, trials):
            super().__init__(scenario, trials)
            seen["count"] += len(trials)
            self.deaths = [(r, deaths[t]) for r, t in enumerate(trials) if t in deaths]
            self.drawn = 0  # samples drawn before the next block

        def draw(self, x, noise):
            super().draw(x, noise)
            m = x.shape[1]
            for r, death in self.deaths:
                if self.drawn <= death < self.drawn + m:
                    x[r, death - self.drawn] = np.nan
            self.drawn += m

    monkeypatch.setattr(harness, "TrialStream", Fake)
    return seen


def failing_gram(monkeypatch, kind, sample):
    """Make the engine find the Gram of ``sample`` unusable in every pass.

    ``kind="shared"``: the shared-Gram kernel flags the Gram of trial 1 at
    ``sample`` as not positive definite, and leaves its inverse non-finite,
    as it does for a non-positive pivot. Its calls cover consecutive
    sub-blocks of a pass, so a sample offset, restarted with each pass,
    locates them. ``kind="gains"``: the gain-weighted solve, one call per
    sample of a pass over every trial at once, raises ``LinAlgError`` at
    ``sample``.
    """
    real_pass, real_kernel, real_solve = (
        harness._simulate_chunk, harness.invert_spd_batch, np.linalg.solve)
    at = {}

    def one_pass(config, scenario, trial_indices):
        at.update(trials=list(trial_indices), offset=0)
        return real_pass(config, scenario, trial_indices)

    def flagging_kernel(out, eps):  # out: (M, M, samples, trials)
        bad = real_kernel(out, eps)
        t = sample - at["offset"]
        if 0 <= t < bad.shape[0] and 1 in at["trials"]:
            r = at["trials"].index(1)
            out[:, :, t, r] = np.nan
            bad[t, r] = True
        at["offset"] += bad.shape[0]
        return bad

    def failing_solve(*args, **kwargs):
        at["offset"] += 1
        if at["offset"] == sample + 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(harness, "_simulate_chunk", one_pass)
    if kind == "shared":
        monkeypatch.setattr(harness, "invert_spd_batch", flagging_kernel)
    else:
        monkeypatch.setattr(np.linalg, "solve", failing_solve)


class TestDivergenceHandling:
    def test_engine_reports_trial_and_sample(self, monkeypatch):
        cfg = tiny_config(runs=4, n=60, segments=(SegmentDef(60, 16),))
        nan_input(monkeypatch, {2: 30})  # the third trial of the chunk
        with pytest.raises(DivergenceError) as exc_info:
            run_experiment(replace(cfg, chunk_size=4))
        assert exc_info.value.trial_index == 2
        assert exc_info.value.sample_index == 30

    def test_reference_trial_reports_trial_and_sample(self, monkeypatch):
        """run_trial names the trial and sample of a step's DivergenceError."""
        real, calls = harness.apa_step, {"n": 0}

        def failing_step(state, buf):
            calls["n"] += 1
            if calls["n"] == 8:  # sample 7
                raise DivergenceError("non-finite weights")
            return real(state, buf)

        monkeypatch.setattr(harness, "apa_step", failing_step)
        with pytest.raises(DivergenceError, match="non-finite weights") as exc_info:
            run_trial(tiny_config(n=20), 3)
        assert (exc_info.value.trial_index, exc_info.value.sample_index) == (3, 7)


class TestFirstDivergenceIsRaised:
    """A chunk's rows share its window, lag, Gram and solve buffers; whichever
    Gram a diverging trial meets, the run stops at the first sample at which
    a row turns non-finite and names that row's trial."""

    @pytest.mark.parametrize(
        "params, first",
        [
            (dict(), (1, 40)),  # one shared solve
            # the plain branch on the shared Gram, the other on its gain-weighted Gram
            (dict(proportionate=ProportionateConfig()), (1, 40)),
            # a one-slot window, with both kinds of Gram
            (dict(M=1, proportionate=ProportionateConfig()), (1, 40)),
            # trial 1 dies in the last segment, after the first one was reduced
            (dict(deaths={1: 150}), (1, 150)),
            # two trials die at different samples: the earlier sample is named
            (dict(deaths={1: 120, 3: 40}), (3, 40)),
            # two trials die at one sample: the lower row is named
            (dict(deaths={3: 40, 1: 40}), (1, 40)),
        ],
        ids=["shared", "gain-weighted", "one-slot", "last-segment", "earlier-sample",
             "same-sample"],
    )
    def test_names_the_first_trial_and_sample(self, params, first, monkeypatch):
        deaths = params.get("deaths", {1: 40})  # trial -> the sample its input turns NaN
        config_params = {k: v for k, v in params.items() if k != "deaths"}
        cfg = replace(tiny_config(runs=4, n=100, **config_params), chunk_size=4)
        seen = nan_input(monkeypatch, deaths)  # the chunk's four trials are 0-3
        with pytest.raises(DivergenceError) as exc_info:
            run_experiment(cfg)
        assert (exc_info.value.trial_index, exc_info.value.sample_index) == first
        assert str(exc_info.value) == "trial {} diverged at sample {}".format(*first)
        assert seen["count"] + 1 == 4  # one pass: no trial is run again

    def test_later_chunk_is_not_run(self, monkeypatch):
        """Trial 0 of the first chunk dies: the second chunk, whose trial 2
        would die sooner, is never built."""
        cfg = tiny_config(runs=4, n=100)  # chunk_size=2: trials 0-1, then 2-3
        seen = nan_input(monkeypatch, {0: 90, 2: 10})
        with pytest.raises(DivergenceError) as exc_info:
            run_experiment(cfg)
        assert (exc_info.value.trial_index, exc_info.value.sample_index) == (0, 90)
        assert seen["count"] + 1 == 2

    def test_every_trial_diverging_names_the_first(self, monkeypatch):
        nan_input(monkeypatch, {0: 30, 1: 70, 2: 10, 3: 90})
        with pytest.raises(DivergenceError) as exc_info:
            run_experiment(tiny_config(runs=4, n=100))
        assert (exc_info.value.trial_index, exc_info.value.sample_index) == (0, 30)


# the Gram that fails, the configs in which it is used, and the message
SHARED_FAILS = "projection Gram not positive definite at sample {}"
GRAM_FAILURES = [
    pytest.param("shared", None, SHARED_FAILS, id="shared"),  # the Gram of both branches
    # the shared Gram of the plain branch, and the other branch's gain-weighted Gram
    pytest.param("shared", ProportionateConfig(), SHARED_FAILS, id="shared-with-gains"),
    pytest.param("gains", ProportionateConfig(),
                 "projection solve failed at sample {}: Singular matrix", id="gain-weighted"),
]


class TestSingularGram:
    """A Gram that the engine cannot invert is a NumericalError naming its sample.

    Every experiment loads its Grams, so most failures are injected: the
    shared-Gram kernel flags one Gram, or the gain-weighted solve raises.
    """

    cfg = tiny_config(L=4, runs=2, segments=(SegmentDef(60, 2),))  # one chunk, one block

    @pytest.mark.parametrize("kind, prop, message", GRAM_FAILURES)
    @pytest.mark.parametrize("sample", [0, 37])
    def test_failure_names_the_sample(self, kind, prop, message, sample, monkeypatch):
        failing_gram(monkeypatch, kind, sample)
        cfg = replace(self.cfg, filter2=replace(self.cfg.filter2, proportionate=prop))
        with pytest.raises(NumericalError) as exc_info:
            run_experiment(cfg)
        assert str(exc_info.value) == message.format(sample)
        assert not isinstance(exc_info.value, DivergenceError)

    def test_loading_below_the_rounding_error_fails(self, tmp_path, capsys):
        """With input variance 1e6 and eps=1e-12, the loaded Gram of sample 7,
        the first full window, has eigenvalues from about 1e-12 to 1.5e7, so
        rounding outweighs the loading and the engine's Cholesky can meet a
        pivot that is not positive. The eps floor L*variance*2**-52, 1.4e-8
        at L=64, rejects such a config when it loads, by the API and the CLI
        alike; an eps just above it loads."""
        scenario = ScenarioDef(
            L=64,
            segments=(SegmentDef(20, 64),),
            noise_variance=1e-3,
            input=SignalModel(variance=1e6),
            seed=1010365541293,
        )
        buf = RegressorBuffer.zeros(64, 8)
        for _, (obs, _) in zip(range(8), scenario_stream(scenario.materialize(), 0)):
            buf = push(buf, obs)
        eig = np.linalg.eigvalsh(buf.U.T @ buf.U + 1e-12 * np.eye(8))
        assert eig[0] < 1e-15 * eig[-1]  # below double precision's relative resolution

        message = "filter2: eps=1e-12 is below L*variance*2**-52=1.42e-08"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(scenario=scenario, filter2=FilterConfig(M=8, mu=0.5, eps=1e-12), runs=1)
        cfg = ExperimentConfig(scenario=scenario, filter2=FilterConfig(M=8, mu=0.5, eps=1.5e-8),
                               runs=1)  # just above the floor: loads
        doc = config_to_dict(cfg)
        doc["filter2"]["eps"] = 1e-12
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
        assert f"config error: invalid config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, prop, _message", GRAM_FAILURES)
    def test_earlier_divergence_is_raised_first(self, kind, prop, _message, monkeypatch):
        """Trial 0 diverges at sample 35, before the Gram failure at 37 in the
        same sub-block."""
        nan_input(monkeypatch, {0: 35})
        failing_gram(monkeypatch, kind, 37)
        cfg = replace(self.cfg, filter2=replace(self.cfg.filter2, proportionate=prop))
        with pytest.raises(DivergenceError) as exc_info:
            run_experiment(cfg)
        assert (exc_info.value.trial_index, exc_info.value.sample_index) == (0, 35)

    @pytest.mark.parametrize("kind, prop, message", GRAM_FAILURES)
    def test_earlier_gram_failure_is_raised_first(self, kind, prop, message, monkeypatch):
        """The Gram fails at sample 35, before trial 0 diverges at 37 in the
        same sub-block."""
        nan_input(monkeypatch, {0: 37})
        failing_gram(monkeypatch, kind, 35)
        cfg = replace(self.cfg, filter2=replace(self.cfg.filter2, proportionate=prop))
        with pytest.raises(NumericalError) as exc_info:
            run_experiment(cfg)
        assert not isinstance(exc_info.value, DivergenceError)
        assert str(exc_info.value) == message.format(35)


class TestChunkMemory:
    """A chunk draws its trials a block at a time and reduces their records
    over the trials a sub-block at a time, and of its steady-window
    statistics only dev2 keeps a row per trial. So its memory grows neither
    with the horizon nor with a segment's length, and grows with the block
    width and the tap count only by the arrays that must."""

    @staticmethod
    def peak(segments, runs=50, chunk_size=50, workers=1, **config):
        cfg = replace(tiny_config(runs=runs, segments=segments, **config), chunk_size=chunk_size)
        tracemalloc.start()
        try:
            run_experiment(cfg, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # input and noise bytes of 50 trials x 500 more samples
    streams = 2 * 50 * 500 * 8

    def test_peak_does_not_grow_with_the_horizon(self):
        """Three 250-sample segments against one, each drawn in one block."""
        segments = (SegmentDef(250, 16), SegmentDef(250, 8), SegmentDef(250, 2))
        self.peak(segments[:1])  # the first run also allocates numpy's one-time caches
        assert self.peak(segments) - self.peak(segments[:1]) < 0.25 * self.streams

    def test_peak_does_not_grow_with_the_segment_length(self):
        """One 750-sample segment against one of 250, both drawn in blocks of 250."""
        self.peak((SegmentDef(250, 16),))
        growth = self.peak((SegmentDef(750, 16),)) - self.peak((SegmentDef(250, 16),))
        assert growth < 0.25 * self.streams

    def test_peak_does_not_grow_past_the_widest_block(self):
        """One 300-sample segment, cut into two blocks of 150, against one of 150."""
        self.peak((SegmentDef(150, 16),))
        growth = self.peak((SegmentDef(300, 16),)) - self.peak((SegmentDef(150, 16),))
        block = (2 + 4) * 50 * 150 * 8  # input, noise and four record rows of one block
        assert growth < 0.1 * block

    def test_peak_grows_with_the_block_width_by_the_draws_alone(self):
        """One segment drawn in one block of 250 against one of 150. The
        peak may grow by the block's input, noise and driving-noise columns,
        three rows of 50 trials x 100 samples, but not by record rows: the
        records are kept for one sub-block of at most 20 samples. The slack
        is half a row (measured: 2.8 rows); four record rows more would
        read about 6.8."""
        self.peak((SegmentDef(150, 16),))
        growth = self.peak((SegmentDef(250, 16),)) - self.peak((SegmentDef(150, 16),))
        assert growth < 3.5 * 50 * 100 * 8

    @pytest.mark.parametrize("M", [2, 8])
    def test_peak_grows_with_the_taps_by_the_weight_arrays_alone(self, M):
        """L=256 against L=128, 50 trials, one 250-sample segment. The arrays
        that must scale with trials x taps are U's M rows, both branches'
        weights and their update (two rows each), the attractor and dev2's
        window row: M + 6 rows of 50 x 128. The slack is two rows: one for
        the input carried across blocks (L+M-1 samples per trial), one for
        everything else (measured: M + 7.3 rows). A window row per trial for
        each of the five statistics would add four rows more."""
        narrow, wide = (SegmentDef(250, 128),), (SegmentDef(250, 256),)  # K = L: every tap active
        self.peak(narrow, L=128, M=M)
        growth = self.peak(wide, L=256, M=M) - self.peak(narrow, L=128, M=M)
        assert growth < (M + 6 + 2) * 50 * 128 * 8

    def test_peak_does_not_grow_with_the_chunk_count(self):
        """Six chunks of two trials against two, over one 200-sample segment:
        each chunk's sums go into the running total as the chunk ends, and
        are let go before the next chunk runs."""
        chunks_of_two = dict(segments=(SegmentDef(200, 16),), chunk_size=2)
        self.peak(runs=2, **chunks_of_two)
        growth = self.peak(runs=12, **chunks_of_two) - self.peak(runs=4, **chunks_of_two)
        curve_sums = 6 * 200 * 8  # lam, prod, prodsq, esq and both branches' esq of one chunk
        assert growth < 2 * curve_sums

    def test_pool_peak_does_not_grow_with_the_chunk_count(self):
        """Twenty chunks of two trials against five, on two workers: each
        chunk's sums go into the running total as the pool yields them.
        Holding them all until the pool shut down would add 15 chunks' sums;
        a quarter of that allows for the pool's bookkeeping of each chunk.
        The horizon is short, as the forked workers trace their allocations
        too."""
        chunks_of_two = dict(chunk_size=2, workers=2)
        self.peak((SegmentDef(20, 16),), runs=4, **chunks_of_two)  # the first pool imports modules
        segments = (SegmentDef(300, 16),)
        growth = (self.peak(segments, runs=40, **chunks_of_two)
                  - self.peak(segments, runs=10, **chunks_of_two))
        curve_sums = 6 * 300 * 8
        assert growth < 15 * curve_sums / 4


class TestBlockLength:
    """Bit for bit against one block per segment, also where segments end in
    a one-sample block (22 = 7*3 + 1 = 3*7 + 1, 257 = 128*2 + 1, and every
    block of length 1), and against one sub-block of shared-Gram inverses
    per block."""

    segments = (SegmentDef(22, 16), SegmentDef(22, 2)) * 3 + (SegmentDef(257, 4),) * 3
    cfg = tiny_config(runs=40, segments=segments, pole=0.8,
                      proportionate=ProportionateConfig())
    cfg = replace(cfg, chunk_size=40)  # one chunk: each sample's 40 records summed pairwise

    def run(self, monkeypatch, block=harness._BLOCK, sub=harness._SUB):
        monkeypatch.setattr(harness, "_BLOCK", block)
        monkeypatch.setattr(harness, "_SUB", sub)
        return run_experiment(self.cfg)

    @staticmethod
    def assert_same(got, want):
        for name in ("j1", "j2", "j12", "j", "lam", "j12_se"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for seg_got, seg_want in zip(got.segments, want.segments):
            for name in ("mean_dev1", "mean_dev2", "mean_dev2_se", "msd1", "msd2", "cross12"):
                assert np.array_equal(getattr(seg_got, name), getattr(seg_want, name)), name

    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])  # None: the engine's own, 256
    def test_curves_do_not_depend_on_the_block_length(self, block, monkeypatch):
        got = self.run(monkeypatch, block=block or harness._BLOCK)
        self.assert_same(got, self.run(monkeypatch, block=10**6))

    @pytest.mark.parametrize("sub", [1, 3, None])  # None: the engine's own, _SUB
    def test_curves_do_not_depend_on_the_sub_block_length(self, sub, monkeypatch):
        got = self.run(monkeypatch, sub=sub or harness._SUB)
        self.assert_same(got, self.run(monkeypatch, sub=10**6))


class TestPresets:
    def test_full_preset_fields(self):
        cfg = preset_paper_scenario("full", "white")
        assert cfg.scenario.L == 256
        assert cfg.filter2.M == 8
        assert cfg.filter2.rho == pytest.approx(8e-6)
        assert [s.duration for s in cfg.scenario.segments] == [6000, 6000, 6000]
        assert [s.K for s in cfg.scenario.segments] == [256, 80, 16]
        assert cfg.runs == 1000

    def test_full_preset_ar1(self):
        cfg = preset_paper_scenario("full", "ar1")
        assert cfg.scenario.input.pole == 0.8
        assert cfg.filter2.rho == pytest.approx(3e-5)

    def test_desk_preset_scaled_rho(self):
        cfg = preset_paper_scenario("desk", "white")
        # frozen from an independent evaluation of the bound ratio
        assert cfg.filter2.rho == pytest.approx(3.19298316e-05, rel=1e-6)
        ar = preset_paper_scenario("desk", "ar1")
        assert ar.filter2.rho == pytest.approx(1.19736868e-04, rel=1e-6)

    def test_desk_durations_cover_convergence(self):
        cfg = preset_paper_scenario("desk", "white")
        beta = 1 - (1 - 1 / 64) ** 4
        needed = 50 / (cfg.filter2.mu * beta)
        assert all(s.duration >= needed for s in cfg.scenario.segments)

    def test_zapapa_preset(self):
        cfg = preset_paper_scenario("desk", "white", filter2_kind="zapapa")
        assert cfg.filter2.proportionate is not None


@st.composite
def experiment_configs(draw):
    """Valid experiments: white or AR(1) input, zaapa or zapapa, 1-3 segments."""
    L = draw(st.integers(1, 64))
    open_unit = st.floats(-1, 1, exclude_min=True, exclude_max=True)
    positive = st.floats(1e-9, 1e3)
    mu = st.floats(0, 2, exclude_max=True)
    segments = st.builds(
        SegmentDef, st.integers(1, 10**5), st.integers(0, L), st.sampled_from(["random", "unit"])
    )
    a_plus = draw(st.floats(1e-9, 36))  # above ~36.74, lambda_of(a_plus) rounds to 1
    return ExperimentConfig(
        scenario=ScenarioDef(
            L=L,
            segments=tuple(draw(st.lists(segments, min_size=1, max_size=3))),
            noise_variance=draw(st.floats(0, 10)),
            input=SignalModel(variance=draw(positive), pole=draw(st.just(0.0) | open_unit)),
            seed=draw(st.integers(0, 2**32)),
        ),
        filter2=FilterConfig(
            M=draw(st.integers(1, min(L, 8))),
            mu=draw(mu),
            rho=draw(st.floats(0, 1)),
            eps=draw(positive),
            proportionate=draw(st.none() | st.builds(ProportionateConfig, positive, positive)),
        ),
        mixing=MixingConfig(mu_a=draw(positive), a_plus=a_plus, a0=draw(st.floats(-a_plus, a_plus))),
        runs=draw(st.integers(1, 10**6)),
        steady_window_fraction=draw(st.floats(0, 1, exclude_min=True)),
        chunk_size=draw(st.integers(1, 1000)),
    )


class TestPersistence:
    def test_config_round_trip(self, tmp_path):
        cfg = preset_paper_scenario("desk", "ar1", filter2_kind="zapapa")
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_config_error_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": {"L": 8}}')
        with pytest.raises(ConfigError, match="scenario"):
            read_config(path)
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line 1"):
            read_config(path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(experiment_configs())
    def test_json_round_trip(self, cfg):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A config file looks like:\s*```json\n(.*?)```", readme, re.DOTALL)
        assert block is not None, "README has no config example"
        config_from_dict(json.loads(block.group(1)))

    def test_readme_cli_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\s*```sh\n(.*?)```", readme, re.DOTALL)
        assert block is not None, "README has no CLI example block"
        lines = [ln for ln in block.group(1).splitlines() if ln.startswith("apamix ")]
        assert lines, "README's CLI block has no apamix line"
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])  # argparse exits on a bad flag

    def test_written_key_tree_is_pinned(self, tmp_path):
        # a renamed, added, removed or reordered field changes the file format
        def tree(doc):
            if isinstance(doc, dict):
                return {key: tree(value) for key, value in doc.items()}
            return [tree(value) for value in doc] if isinstance(doc, list) else None

        seg = {"duration": None, "K": None, "magnitude_rule": None}
        filt = {"M": None, "mu": None, "rho": None, "eps": None, "proportionate": None}
        expected = {
            "scenario": {
                "L": None,
                "segments": [seg, seg, seg],
                "noise_variance": None,
                "input": {"variance": None, "pole": None},
                "seed": None,
            },
            "filter2": {**filt, "proportionate": {"rho_p": None, "delta": None}},
            "mixing": {"mu_a": None, "a_plus": None, "a0": None},
            "runs": None,
            "steady_window_fraction": None,
            "chunk_size": None,
        }
        path = tmp_path / "cfg.json"
        write_config(preset_paper_scenario("desk", "white", filter2_kind="zapapa"), path)
        assert json.dumps(tree(json.loads(path.read_text()))) == json.dumps(expected)

    def test_curves_csv_shape(self, tmp_path):
        cfg = tiny_config(runs=2, n=40)
        cur = run_experiment(cfg)
        path = tmp_path / "curves.csv"
        write_curves(cur, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,j1,j2,j12,j,lambda"
        assert len(lines) == cur.n_samples + 1

    @pytest.mark.parametrize("db", [False, True])
    def test_csv_cells_read_back(self, db, tmp_path):
        """Every cell of both CSV files reads back as the value written: the
        four magnitudes in dB under ``db``, lambda always linear."""
        cur = run_experiment(tiny_config(runs=2, n=40))
        points = [(1e-4, steady_state_stats(cur, 1, 0.1)),
                  (0.0, harness.SteadyState(J1=1e-3, J2=0.0, J12=-2e-5, J=3e-4, lam=0.25))]
        write_curves(cur, tmp_path / "curves.csv", db=db)
        write_sweep(points, tmp_path / "sweep.csv", db=db)
        conv = to_db if db else float
        expected = {
            "curves.csv": [(i, cur.j1[i], cur.j2[i], cur.j12[i], cur.j[i], cur.lam[i])
                           for i in range(cur.n_samples)],
            "sweep.csv": [(rho, st.J1, st.J2, st.J12, st.J, st.lam) for rho, st in points],
        }
        for name, rows in expected.items():
            lines = (tmp_path / name).read_text().splitlines()[1:]
            assert len(lines) == len(rows)
            for line, (key, *mags, lam) in zip(lines, rows):
                cells = [float(cell) for cell in line.split(",")]
                assert cells == [key, *map(conv, mags), lam]

    def test_db_conversion(self):
        assert to_db(1e-3) == pytest.approx(-30.0, abs=1e-12)
        assert to_db(0.0) == -math.inf


class TestSweepRho:
    def test_sweep_returns_final_segment_stats(self):
        cfg = tiny_config(runs=4, n=300)
        pts = sweep_rho(cfg, [1e-4, 1e-3])
        assert [p[0] for p in pts] == [1e-4, 1e-3]
        for _, st in pts:
            assert st.J1 > 0 and st.J2 > 0


class TestCli:
    def test_simulate_with_config_and_csv(self, tmp_path, capsys):
        cfg = tiny_config(runs=2, n=120)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        out_path = tmp_path / "out.csv"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        assert "seg" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, prop, message", GRAM_FAILURES)
    def test_numerical_error_is_reported_with_exit_3(self, kind, prop, message, tmp_path,
                                                     capsys, monkeypatch):
        cfg = TestSingularGram.cfg
        cfg_path = tmp_path / "cfg.json"
        write_config(replace(cfg, filter2=replace(cfg.filter2, proportionate=prop)), cfg_path)
        failing_gram(monkeypatch, kind, 0)
        rc = cli_main(["simulate", "--config", str(cfg_path)])
        assert rc == 3
        assert capsys.readouterr().err == f"numerical error: {message.format(0)}\n"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("noise, variance, eps", [
        (1e300, 1.0, None),  # noise alone
        (1e-3, 1e155, 1e143),  # input alone, with eps above L*variance*2**-52
    ])
    def test_overflowed_statistic_is_reported_with_exit_3(self, noise, variance, eps, tmp_path,
                                                          capsys):
        """The weights stay finite, so no trial diverges, but the squared
        product of the two branches' errors overflows; its sum is named."""
        cfg = tiny_config(runs=2, eps=eps)
        scenario = replace(cfg.scenario, noise_variance=noise,
                           input=SignalModel(variance=variance))
        cfg_path = tmp_path / "cfg.json"
        write_config(replace(cfg, scenario=scenario), cfg_path)
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical error: non-finite sums over the trials (overflow): prodsq\n")

    def test_diverged_trial_is_reported_with_exit_3(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        write_config(replace(tiny_config(runs=4, n=60), chunk_size=4), cfg_path)
        nan_input(monkeypatch, {1: 30})
        rc = cli_main(["simulate", "--config", str(cfg_path)])
        assert rc == 3
        assert capsys.readouterr().err == "divergence: trial 1 diverged at sample 30\n"

    def test_predict_notes_proportionate_gains(self, capsys):
        rc = cli_main(["predict", "--preset", "paper-desk", "--filter2", "zapapa"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "regime" in out
        assert err.startswith("note: closed forms model the plain zero-attracting branch")

    def test_predict_preset(self, capsys):
        rc = cli_main(["predict", "--preset", "paper-desk"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "non_sparse" in out and "regime" in out
        assert err == ("note: M=4 with mu=0.5 lies outside the closed forms' validated domain; "
                       "they do not model the sliding window's reuse of each regressor\n")

    def test_predict_notes_nothing_inside_the_validated_domain(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(M=1), cfg_path)
        assert cli_main(["predict", "--config", str(cfg_path)]) == 0
        out, err = capsys.readouterr()
        assert "regime" in out and err == ""

    def test_predict_at_rho_zero_labels_the_tie_non_sparse(self, tmp_path, capsys):
        # both branches are one filter: J1 = J2 = J12 up to rounding
        cfg_path = tmp_path / "cfg.json"
        cfg = preset_paper_scenario("desk")
        write_config(replace(cfg, filter2=replace(cfg.filter2, rho=0.0)), cfg_path)
        assert cli_main(["predict", "--config", str(cfg_path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            J1, Jc, regime = row[2], row[5], row[10]
            assert Jc == J1 and regime == "non_sparse"

    def test_predict_rejects_colored_input(self, capsys):
        rc = cli_main(["predict", "--preset", "paper-desk", "--input", "ar1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: closed-form prediction")

    @pytest.mark.parametrize("pole, rc", [(0.0, 0), (-0.0, 0), (0.8, 2)])
    def test_predict_takes_white_input_as_pole_zero(self, pole, rc, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(M=1, pole=pole), cfg_path)
        assert cli_main(["predict", "--config", str(cfg_path)]) == rc
        out, err = capsys.readouterr()
        if rc == 0:
            assert "regime" in out and err == ""
        else:
            assert err == ("config error: closed-form prediction is available "
                           "for white input (pole 0) only\n")

    def test_sweep_rho_cli(self, tmp_path, capsys):
        cfg = tiny_config(runs=2, n=120)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg, cfg_path)
        out_path = tmp_path / "sweep.csv"
        rc = cli_main(
            ["sweep-rho", "--config", str(cfg_path), "--grid", "1e-4:1e-3:2",
             "--out", str(out_path)]
        )
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "rho,j1,j2,j12,j,lambda"
        assert len(lines) == 3

    def test_missing_config_is_config_error(self, capsys):
        rc = cli_main(["simulate"])
        assert rc == 2

    @pytest.mark.parametrize(
        "name, content", [("no-such.json", None), (".", None), ("cfg.json", b"\xff\xfe{")]
    )
    def test_unreadable_config_file_is_config_error(self, name, content, tmp_path, capsys):
        # a missing file, a directory, and a file that is not UTF-8 text
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        rc = cli_main(["simulate", "--config", str(path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_predict_outside_closed_form_domain_is_config_error(self, tmp_path, capsys):
        # FilterConfig accepts mu = 0; the closed forms need mu in (0, 2)
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(mu=0.0), cfg_path)
        rc = cli_main(["predict", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error: segment 0: step size mu" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-5"])
    def test_bad_runs_override_is_config_error(self, runs, capsys):
        rc = cli_main(["simulate", "--preset", "paper-desk", "--runs", runs])
        assert rc == 2
        assert "config error: --runs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, workers",
        [(["simulate"], "0"), (["simulate"], "-3"), (["sweep-rho", "--grid", "1e-4:1e-3:2"], "-1")],
    )
    def test_workers_below_one_is_config_error_before_any_trial(
        self, command, workers, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before --workers was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(runs=2, n=120), cfg_path)
        rc = cli_main([command[0], "--config", str(cfg_path), "--workers", workers, *command[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"config error: --workers {workers}: workers must be >= 1\n"

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["predict"], ["--workers", "2"]),
            # no command skips a diverged trial: every divergence raises
            (["simulate"], ["--skip-diverged"]),
            (["sweep-rho", "--grid", "1e-4:1e-3:2"], ["--skip-diverged"]),
            (["predict"], ["--skip-diverged"]),
        ],
        ids=["predict-workers", "simulate-skip", "sweep-rho-skip", "predict-skip"],
    )
    def test_unknown_run_options_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, "--preset", "paper-desk", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, rows", [(["simulate"], 3), (["sweep-rho", "--grid", "1e-4:1e-3:2"], 2)]
    )
    def test_short_steady_window_is_widened(self, extra, rows, tmp_path, capsys):
        # the desk preset on three 50-sample segments: ceil(0.1 * 50) = 5
        # samples, widened to 10
        cfg = preset_paper_scenario(scale="desk", runs=2)
        segs = tuple(replace(seg, duration=50) for seg in cfg.scenario.segments)
        cfg_path = tmp_path / "cfg.json"
        write_config(replace(cfg, scenario=replace(cfg.scenario, segments=segs)), cfg_path)
        rc = cli_main([extra[0], "--config", str(cfg_path), *extra[1:]])
        assert rc == 0
        header, *table = capsys.readouterr().out.strip().splitlines()
        assert header.split()[0] == {"simulate": "seg", "sweep-rho": "rho"}[extra[0]]
        assert len(table) == rows
        assert all(np.isfinite([float(v) for v in line.split()]).all() for line in table)

    def test_nonfinite_rho_is_config_error_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before the config was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        doc = config_to_dict(tiny_config(runs=2, n=120))
        doc["filter2"]["rho"] = float("nan")  # json writes NaN, and reads it back
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = cli_main(["simulate", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["simulate", "--out", "no-such-dir/out.csv"],
            ["sweep-rho", "--grid", "1e-4:1e-3:2", "--out", "no-such-dir/out.csv"],
            # an existing directory, which open() would refuse after the run
            ["simulate", "--out", "."],
            ["sweep-rho", "--grid", "1e-4:1e-3:2", "--out", "."],
        ],
    )
    def test_out_in_missing_directory_is_config_error_before_any_trial(
        self, extra, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before the output path was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.chdir(tmp_path)  # the --out paths are relative to it
        write_config(tiny_config(runs=2, n=120), "cfg.json")
        rc = cli_main([extra[0], "--config", "cfg.json", *extra[1:]])
        assert rc == 2
        assert "config error: --out" in capsys.readouterr().err

    def test_config_and_preset_together_are_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran with both --config and --preset")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(runs=2, n=120), cfg_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--preset", "paper-desk", "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["predict"], ["sweep-rho", "--grid", "1e-4:1e-3:2"]])
    @pytest.mark.parametrize("flag", [["--input", "ar1"], ["--filter2", "zapapa"], ["--input", "white"]])
    def test_preset_flags_with_config_are_rejected_before_any_trial(
        self, command, flag, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran with a preset flag next to --config")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(runs=2, n=120), cfg_path)
        rc = cli_main([command[0], "--config", str(cfg_path), *flag, *command[1:]])
        assert rc == 2
        assert f"config error: {flag[0]} applies to --preset only" in capsys.readouterr().err

    @pytest.mark.parametrize("durations", [(50, 120), (120, 50)])
    def test_sweep_rho_with_a_short_segment(self, durations, tmp_path, capsys):
        segs = (SegmentDef(durations[0], 16), SegmentDef(durations[1], 2))
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(runs=2, segments=segs), cfg_path)
        rc = cli_main(["sweep-rho", "--config", str(cfg_path), "--grid", "1e-4:1e-4:1"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2  # header, one point

    def test_bad_grid_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before the grid was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        cfg_path = tmp_path / "cfg.json"
        write_config(tiny_config(runs=2, n=120), cfg_path)
        for grid in ("nope", "1e-5:inf:2", "nan:1e-3:2"):
            rc = cli_main(["sweep-rho", "--config", str(cfg_path), "--grid", grid])
            assert rc == 2, grid
            assert "config error:" in capsys.readouterr().err


class TestStabilityAndConvergedStart:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
    def test_no_nonfinite_weights_over_long_run(self, mu):
        # smoke test: 20k white-input samples never produce non-finite weights
        L, M = 16, 4
        eps = harness.default_eps(M)
        cfg = ExperimentConfig(
            scenario=ScenarioDef(
                L=L,
                segments=(SegmentDef(20_000, 4),),
                noise_variance=1e-3,
                input=SignalModel(variance=1.0, pole=0.0),
                seed=11,
            ),
            filter2=FilterConfig(M=M, mu=mu, rho=1e-4, eps=eps),
            mixing=MixingConfig(),
            runs=1,
        )
        curves = run_experiment(cfg)  # any divergence would raise
        assert np.isfinite(curves.j1).all() and np.isfinite(curves.j2).all()


class TestAdmissibleRangeBracketing:
    def test_attractor_bound_brackets_emse_crossing(self):
        # simulate the sparse desk system at half and twice the closed-form
        # admissible bound: the zero-attracting branch must beat the plain
        # branch below the bound and lose above it
        from apamix.theory import TheoryInputs, rho_bound_global

        bound = rho_bound_global(
            TheoryInputs(L=64, K=4, M=4, mu=0.5, rho=0.0, noise_variance=1e-3)
        )
        eps = harness.default_eps(4)

        def run_at(rho):
            cfg = ExperimentConfig(
                scenario=ScenarioDef(
                    L=64,
                    segments=(SegmentDef(3000, 4),),
                    noise_variance=1e-3,
                    input=SignalModel(variance=1.0, pole=0.0),
                    seed=44,
                ),
                filter2=FilterConfig(M=4, mu=0.5, rho=rho, eps=eps),
                mixing=MixingConfig(),
                runs=80,
            )
            curves = run_experiment(cfg)
            return steady_state_stats(curves, 0, 0.1)

        low = run_at(0.5 * bound)
        high = run_at(2.0 * bound)
        assert low.J2 < low.J1
        assert high.J2 > high.J1


@st.composite
def engine_params(draw):
    """tiny_config arguments over every path of the chunk engine."""
    L = draw(st.integers(1, 8))
    M = draw(st.integers(1, min(L, 4)))
    eps = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
    return dict(
        L=L,
        M=M,
        eps=eps,
        proportionate=draw(st.sampled_from([None, ProportionateConfig()])),
        pole=draw(st.sampled_from([0.0, -0.5, 0.8, 0.95])),
        mu=draw(st.sampled_from([0.25, 0.5, 1.0, 1.5])),
        rho=draw(st.sampled_from([0.0, 1e-4, 1e-3])),
        segments=(
            SegmentDef(draw(st.integers(1, 60)), L),
            SegmentDef(draw(st.integers(1, 60)), max(1, L // 3)),
        ),
        seed=draw(st.integers(0, 2**16)),
    )


class TestEnginePathsMatchReference:
    """Every path of the chunk engine against the scalar reference path."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(engine_params())
    @example(dict(L=8, M=3, n=60))  # one shared solve
    @example(dict(L=8, M=3, n=60, proportionate=ProportionateConfig()))
    @example(dict(L=8, M=3, n=60, pole=0.8))
    @example(dict(L=4, M=4, segments=(SegmentDef(60, 4), SegmentDef(60, 1))))  # L == M
    @example(dict(L=1, M=1, segments=(SegmentDef(60, 1), SegmentDef(60, 1))))  # L == M == 1
    # windows wider than the benchmark's M = 8, and odd ones: the Gram's slot-to-lag map
    @example(dict(L=16, M=16, segments=(SegmentDef(53, 16), SegmentDef(61, 4))))
    @example(dict(L=16, M=16, segments=(SegmentDef(53, 16), SegmentDef(61, 4)),
                  proportionate=ProportionateConfig()))
    @example(dict(L=12, M=7, segments=(SegmentDef(53, 12), SegmentDef(61, 3)), pole=0.95))
    @example(dict(L=12, M=7, segments=(SegmentDef(53, 12), SegmentDef(61, 3)), pole=0.95,
                  proportionate=ProportionateConfig()))
    def test_single_trial_matches_reference(self, params):
        # mu > 1 with gains amplifies rounding: there the reference itself,
        # perturbed by half an ulp in each solve, moves a sample near a zero
        # crossing by more than 1e-9 of its own value. Only in that regime
        # does a difference below 1e-9 of the record's largest magnitude pass.
        amplified = params.get("mu", 0.5) > 1 and params.get("proportionate") is not None
        assert_engine_matches_reference(tiny_config(**params), floor=1e-9 if amplified else 0.0)

    def test_long_horizon_gram_does_not_drift(self):
        # the reference rebuilds every Gram from scratch; the engine takes
        # each new row and column from a running lag recursion, so any
        # drift would show here
        assert_engine_matches_reference(tiny_config(L=16, M=4, n=1500))

    @pytest.mark.parametrize("input_kind", ["white", "ar1"])
    def test_desk_horizon_matches_reference(self, input_kind):
        # one trial of the desk preset (L=64, M=4, 3 x 4,000 samples; AR(1)
        # pole 0.8): the lag recursion runs 12,000 samples without a refresh
        assert_engine_matches_reference(preset_paper_scenario("desk", input_kind))


@pytest.mark.parametrize("params", [
    dict(L=3, M=3, eps=1e-3, pole=0.95, mu=1.5, rho=0.0, seed=20434,
         segments=(SegmentDef(39, 3), SegmentDef(41, 1))),
    dict(L=4, M=4, eps=1e-3, pole=0.95, mu=1.0, rho=1e-3, seed=42143,
         segments=(SegmentDef(55, 4), SegmentDef(45, 1))),
])
def test_ill_conditioned_window_matches_reference(params):
    # L == M at pole 0.95 makes the shared Gram ill-conditioned, and mu >= 1
    # carries each inverse's rounding into the next errors; Gram inverses
    # made symmetric by copying one triangle over the other fail both cases
    assert_engine_matches_reference(tiny_config(**params))


class TestConfigRejection:
    def test_mixing_step_must_be_positive(self):
        with pytest.raises(ValueError, match="mu_a"):
            MixingConfig(mu_a=-1.0)

    def test_mixing_clip_must_be_positive(self):
        with pytest.raises(ValueError, match="a_plus"):
            MixingConfig(a_plus=-4.0)

    def test_mixing_clip_must_keep_lambda_below_one(self):
        MixingConfig(a_plus=36.0)
        with pytest.raises(ValueError, match="a_plus=40.0 rounds lambda to exactly 1"):
            MixingConfig(a_plus=40.0)

    def test_mixing_clip_must_keep_lambda_above_one_half(self):
        MixingConfig(a_plus=1e-9)
        with pytest.raises(ValueError, match=r"a_plus=1e-17 rounds lambda to exactly 0\.5$"):
            MixingConfig(a_plus=1e-17)

    def test_mixing_start_must_lie_inside_clip(self):
        with pytest.raises(ValueError, match="a0 outside"):
            MixingConfig(a_plus=2.0, a0=3.0)

    @pytest.mark.parametrize("M", [1, 2])
    def test_unloaded_projection_rejected_at_every_order(self, M):
        with pytest.raises(ValueError, match=r"^filter2: eps must be > 0$"):
            tiny_config(M=M, eps=0.0)
        # FilterConfig itself still accepts eps=0, for the reference step functions
        FilterConfig(M=M, mu=0.5, eps=0.0)

    @pytest.mark.parametrize("value", [float("nan"), -1e-3])
    def test_bad_noise_variance_is_config_error(self, value):
        doc = config_to_dict(tiny_config())
        doc["scenario"]["noise_variance"] = value
        with pytest.raises(ConfigError, match="noise variance"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "branch, field, value",
        [
            ("filter2", "rho", float("nan")),
            ("filter2", "rho", float("inf")),
            ("filter2", "eps", float("inf")),
        ],
    )
    def test_nonfinite_filter_constant_is_config_error(self, branch, field, value):
        doc = config_to_dict(tiny_config())
        doc[branch][field] = value
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field", ["rho_p", "delta"])
    def test_infinite_gain_constant_is_config_error(self, field):
        doc = config_to_dict(tiny_config(proportionate=ProportionateConfig()))
        doc["filter2"]["proportionate"][field] = float("inf")
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(doc)


INF = float("inf")


class TestBadConfigRejectedAtLoad:
    """Each case edits one key of a valid config's JSON form."""

    @pytest.mark.parametrize(
        "path, value, match",
        [
            pytest.param(("steady_window_fration",), 0.5, "'steady_window_fration' in config",
                         id="unknown-key"),
            pytest.param(("scenario", "segments", 0, "k"), 2, "'k' in config.scenario.segments[0]",
                         id="unknown-nested-key"),
            pytest.param(("filter2", "L"), 16, "unknown key 'L' in config.filter2",
                         id="implied-filter-L"),
            pytest.param(("filter1",), {"M": 2, "mu": 0.5, "eps": 2e-4},
                         "unknown key 'filter1' in config",
                         id="old-format-filter1"),
            pytest.param(("seed",), 5, "unknown key 'seed' in config", id="old-format-seed"),
            pytest.param(("filter2", "M"), 17, "filter2.M=17 exceeds scenario L=16",
                         id="M-above-L"),
            pytest.param(("filter2", "eps"), 0.0, "filter2: eps must be > 0",
                         id="unloaded-projection"),
            pytest.param(("filter2", "eps"), 1e-15,
                         "filter2: eps=1e-15 is below L*variance*2**-52=3.55e-15",
                         id="loading-below-rounding-error"),
            pytest.param(("scenario", "input", "seed"), 5, "'seed' in config.scenario.input",
                         id="implied-input-seed"),
            pytest.param(("filter2",), 3, "config.filter2 must be a JSON object",
                         id="filter-not-object"),
            pytest.param(("filter2", "proportionate"), 3,
                         "config.filter2.proportionate must be a JSON object",
                         id="gains-not-object"),
            pytest.param(("scenario", "segments"), {}, "config.scenario.segments must be a JSON array",
                         id="segments-not-array"),
            pytest.param(("mixing", "mu_a"), INF, "mu_a must be positive and finite", id="mu_a-inf"),
            pytest.param(("mixing", "a_plus"), INF, "a_plus must be positive and finite",
                         id="a_plus-inf"),
            pytest.param(("mixing", "a_plus"), 40.0, "a_plus", id="a_plus-lambda-one"),
            pytest.param(("mixing", "a_plus"), 1e-17, "a_plus", id="a_plus-lambda-one-half"),
            pytest.param(("scenario", "input", "variance"), INF, "input variance",
                         id="input-variance-inf"),
            pytest.param(("scenario", "noise_variance"), INF, "noise variance",
                         id="noise-variance-inf"),
            pytest.param(("scenario", "segments"), [], "at least one segment", id="no-segments"),
            pytest.param(("scenario", "segments", 0, "K"), 17, "exceeds L", id="K-above-L"),
            pytest.param(("scenario", "segments", 0, "K"), -1, "negative", id="K-negative"),
            pytest.param(("scenario", "segments", 1, "duration"), 0, "duration must be >= 1",
                         id="empty-segment"),
            pytest.param(("scenario", "segments", 0, "magnitude_rule"), "huge", "magnitude rule",
                         id="unknown-magnitude-rule"),
            pytest.param(("scenario", "seed"), -1, "scenario seed", id="negative-scenario-seed"),
            pytest.param(("scenario", "seed"), 2**130, "scenario seed must lie in [0, 2**128)",
                         id="scenario-seed-above-key-range"),
            pytest.param(("runs",), INF, "config.runs must be a JSON integer, not inf",
                         id="runs-inf"),
            pytest.param(("runs",), 2.5, "config.runs must be a JSON integer, not 2.5",
                         id="runs-float"),
            pytest.param(("runs",), "200", "config.runs must be a JSON integer, not '200'",
                         id="runs-string"),
            pytest.param(("runs",), True, "config.runs must be a JSON integer, not True",
                         id="runs-bool"),
            pytest.param(("scenario", "L"), 16.9, "config.scenario.L must be a JSON integer",
                         id="L-float"),
            pytest.param(("filter2", "M"), 2.7, "config.filter2.M must be a JSON integer",
                         id="M-float"),
            pytest.param(("scenario", "segments", 0, "duration"), 250.5,
                         "config.scenario.segments[0].duration must be a JSON integer",
                         id="duration-float"),
            pytest.param(("filter2", "mu"), "0.5", "config.filter2.mu must be a JSON number",
                         id="mu-string"),
            pytest.param(("filter2", "mu"), True, "config.filter2.mu must be a JSON number",
                         id="mu-bool"),
            pytest.param(("scenario", "segments", 0, "magnitude_rule"), 3,
                         "magnitude_rule must be a JSON string", id="magnitude-rule-number"),
            pytest.param(("scenario", "input", "kind"), "white",
                         "unknown key 'kind' in config.scenario.input", id="old-format-kind"),
            pytest.param(("scenario", "input", "pole"), 1.0, "input pole 1.0 must lie in (-1, 1)",
                         id="pole-one"),
            pytest.param(("scenario", "input", "pole"), -1.0,
                         "input pole -1.0 must lie in (-1, 1)", id="pole-minus-one"),
            pytest.param(("scenario", "input", "pole"), float("nan"), "input pole nan",
                         id="pole-nan"),
            pytest.param(("scenario", "input", "pole"), INF, "input pole inf", id="pole-inf"),
            pytest.param(("scenario", "input", "pole"), None,
                         "config.scenario.input.pole must be a JSON number, not None",
                         id="pole-null"),
            pytest.param(("scenario", "L"), 0, "filter length L=0 must be >= 1", id="L-zero"),
            pytest.param(("scenario", "L"), -5, "filter length L=-5 must be >= 1",
                         id="L-negative"),
        ],
    )
    def test_config_error_before_any_trial(self, path, value, match, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before the config was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        doc = config_to_dict(tiny_config())  # L = 16, two segments
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(match)):
            config_from_dict(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        for command in ("simulate", "predict"):
            assert cli_main([command, "--config", str(cfg_path)]) == 2
            assert "config error:" in capsys.readouterr().err

    def test_largest_seeds_run(self):
        cfg = tiny_config(runs=1, n=20, seed=2**128 - 1)
        doc = config_to_dict(cfg)
        assert doc["scenario"]["seed"] == 2**128 - 1
        assert np.isfinite(run_experiment(config_from_dict(doc)).j).all()
