"""Reverse sampling loop: determinism, respacing, the record, distance traces."""

import csv
import hashlib
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, cycle, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidelab import _blas
from guidelab import data as gd
from guidelab import metrics as gmet
from guidelab import models as gm
from guidelab import sampler as gsam
from guidelab import schedule as gs
from guidelab.errors import NumericalError
from guidelab.forward import rng_stream
from guidelab.guidance import GuidanceRule
from oracles import lockstep_counts


@pytest.fixture(scope="module")
def bench():
    desc = gd.eight_gaussians()
    sch = gs.respace(gs.build_linear_beta(1000, 1e-4, 0.02), 50)
    den = gm.AnalyticDenoiser(desc, sch)
    clf = gm.AnalyticClassifier(desc, sch)
    return desc, sch, den, clf


class TestSampleBasics:
    def test_unguided_single_gaussian_eps_norm(self):
        # N(0, I) data: samples stay N(0, I); mean norm within 2% of sqrt(D)
        desc = gd.ManifoldDescriptor(kind="gaussian_mixture", dim=16,
                                     weights=np.array([1.0]),
                                     means=np.zeros((1, 16)),
                                     variances=np.array([1.0]))
        sch = gs.build_linear_beta(250, 1e-4, 0.02)
        den = gm.AnalyticDenoiser(desc, sch)
        batch = gsam.sample(den, None, GuidanceRule("none"), sch, 0, 2000, seed=5)
        mean_norm = float(np.mean(np.linalg.norm(batch.samples, axis=1)))
        assert abs(mean_norm - 4.0) / 4.0 < 0.02

    def test_geoguide_s0_equals_none(self, bench):
        _, sch, den, clf = bench
        a = gsam.sample(den, clf, GuidanceRule("none"), sch, 1, 8, seed=3)
        b = gsam.sample(den, clf, GuidanceRule("geoguide", 0.0), sch, 1, 8, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_guidance_efficacy(self, bench):
        desc, sch, den, clf = bench
        ys = np.arange(64) % 8
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 2.0), sch, ys, 64, seed=4)
        fid = float(np.mean(clf.predict(batch.samples, 0) == ys))
        assert fid >= 0.90

    def test_fingerprint_checked(self, bench):
        desc, sch, den, clf = bench
        other = gs.build_linear_beta(100, 1e-4, 0.02)
        wrong_den = gm.AnalyticDenoiser(desc, other)
        with pytest.raises(gsam.SamplerError):
            gsam.sample(wrong_den, None, GuidanceRule("none"), sch, 0, 2, seed=0)
        with pytest.raises(gsam.SamplerError):
            gsam.sample(den, gm.AnalyticClassifier(desc, other),
                        GuidanceRule("adm_g", 1.0), sch, 0, 2, seed=0)

    def test_guided_rule_requires_classifier(self, bench):
        _, sch, den, _ = bench
        with pytest.raises(gsam.SamplerError):
            gsam.sample(den, None, GuidanceRule("adm_g", 1.0), sch, 0, 2, seed=0)


def _in_threads(*calls):
    """The results of ``calls``, run at once, each in its own thread, with the
    interpreter switching threads often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(calls)) as pool:
            futures = [pool.submit(call) for call in calls]
            return [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)


class TestDeterminism:
    def test_thread_count_invariant(self, bench):
        # callers may share one model pair across their own threads: calls
        # that run at once give the arrays of a serial call
        _, sch, den, clf = bench
        n = 2 * gsam.BLOCK + 2   # two full blocks and a partial third
        ys = np.arange(n) % 8

        def call():
            return gsam.sample(den, clf, GuidanceRule("geoguide", 1.0), sch, ys, n, seed=11)

        a = call()
        for b in _in_threads(*[call] * 4):
            np.testing.assert_array_equal(a.samples, b.samples)
            np.testing.assert_array_equal(a.adjustment_norms, b.adjustment_norms)
            np.testing.assert_array_equal(a.stored_x, b.stored_x)

    def test_seed_changes_output(self, bench):
        _, sch, den, clf = bench
        a = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 4, seed=1)
        b = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 4, seed=2)
        assert not np.array_equal(a.samples, b.samples)


class _RecordingStream:
    """A chain's generator that keeps a copy of every draw."""

    def __init__(self, generator, draws):
        self._generator = generator
        self._draws = draws

    def standard_normal(self, *args, **kwargs):
        out = self._generator.standard_normal(*args, **kwargs)
        self._draws.append(out.copy())
        return out


class TestNoiseWindows:
    def test_windows_replay_each_chain_stream(self, bench, monkeypatch):
        _, sch, den, clf = bench
        n, seed, S, D = 5, 13, sch.T, den.dim
        records = []
        # window widths of 1 step, 7 steps (S + 1 = 51 is not a multiple) and
        # at least S + 1 steps (one window)
        for width in (1, 7, S + 1):
            monkeypatch.setattr(gsam, "WINDOW_ENTRIES", width * n * D)
            draws = {}
            monkeypatch.setattr(gsam, "rng_stream", lambda s, c: _RecordingStream(
                rng_stream(s, c), draws.setdefault(c, [])))
            records.append(gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), sch,
                                       np.arange(n) % 8, n, seed=seed))
            assert sorted(draws) == list(range(n))
            for c, parts in draws.items():
                assert len(parts) == -(-(S + 1) // width)
                got = np.concatenate(parts)
                assert got.size == (S + 1) * D
                np.testing.assert_array_equal(
                    got, rng_stream(seed, c).standard_normal((S + 1, D)))
        for other in records[1:]:
            for name in ("samples", "adjustment_norms", "stored_x"):
                assert getattr(other, name).tobytes() == getattr(records[0], name).tobytes()

    @pytest.mark.parametrize("n_chains", [64, 512])
    def test_block_memory_bounded(self, linb_1000, n_chains):
        # 1000 steps at D = 64: pre-drawing a whole 64-chain block's noise
        # would take 32 MiB
        desc = gd.eight_gaussians()
        den = gm.AnalyticDenoiser(desc, linb_1000)
        clf = gm.AnalyticClassifier(desc, linb_1000)
        tracemalloc.start()
        try:
            batch = gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), linb_1000,
                                np.arange(n_chains) % 8, n_chains, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = sum(v.nbytes for v in vars(batch).values())
        assert peak - record < 8 * 2**20

    @pytest.mark.parametrize("steps", [50, 250, 1000])
    def test_block_size_changes_only_rounding(self, linb_1000, monkeypatch, steps):
        # the block size changes GEMM shapes, so values may differ in rounding
        desc = gd.eight_gaussians()
        sch = linb_1000 if steps == 1000 else gs.respace(linb_1000, steps)
        den, clf = gm.AnalyticDenoiser(desc, sch), gm.AnalyticClassifier(desc, sch)
        ys = np.arange(600) % 8

        def run():
            return gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), sch, ys, 600,
                               seed=3)

        a = run()
        monkeypatch.setattr(gsam, "BLOCK", 64)
        b = run()
        for name in ("samples", "adjustment_norms", "stored_x"):
            x, ref = getattr(a, name), getattr(b, name)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), name


CUTOFF_RULES = tuple(GuidanceRule(kind, s, cutoff_fraction=cut)
                     for kind, s in (("adm_g", 1.0), ("geoguide", 2.5)) for cut in (1.0, 0.3))


class TestArms:
    """Several rules in one call step in lockstep over one draw of the noise."""
    # a duplicate rule shares every step; geoguide at s = 0 adds 0 * A_t, as
    # none does, but is guided, so it shares none of none's steps
    RULES = CUTOFF_RULES + (GuidanceRule("none"), CUTOFF_RULES[3],
                            GuidanceRule("geoguide", 0.0))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equal_to_single_rule_calls(self, bench, monkeypatch, threads):
        # at 2, each call runs in a second thread that the test starts
        _, sch, den, clf = bench
        n, seed, S, D = 2 * gsam.BLOCK + 2, 11, sch.T, den.dim
        ys = np.arange(n) % 8
        draws = {}
        monkeypatch.setattr(gsam, "rng_stream", lambda s, c: _RecordingStream(
            rng_stream(s, c), draws.setdefault(c, [])))

        def run(rule):
            draws.clear()
            def call():
                return gsam.sample(den, clf, rule, sch, ys, n, seed=seed)

            out = call() if threads == 1 else _in_threads(call)[0]
            # each chain's stream yields its S + 1 rows once, however many rules
            assert sorted(draws) == list(range(n))
            assert all(sum(part.size for part in parts) == (S + 1) * D
                       for parts in draws.values())
            return out

        arms = run(self.RULES)
        assert isinstance(arms, tuple) and len(arms) == len(self.RULES)
        for rule, arm in zip(self.RULES, arms):
            one = run(rule)
            for name in ("samples", "adjustment_norms", "stored_x", "guidance_active"):
                np.testing.assert_array_equal(getattr(arm, name), getattr(one, name))

    def test_store_none(self, bench):
        # "norms" keeps no states
        _, sch, den, clf = bench
        n, ys = 6, np.arange(6) % 8
        thinned = gsam.sample(den, clf, self.RULES, sch, ys, n, seed=2)
        bare = gsam.sample(den, clf, self.RULES, sch, ys, n, seed=2, store="norms")
        for a, b in zip(thinned, bare):
            assert b.stored_x.shape == (n, 0, den.dim)
            assert b.stored_steps.shape == b.stored_ts.shape == (0,)
            np.testing.assert_array_equal(b.samples, a.samples)
            np.testing.assert_array_equal(b.adjustment_norms, a.adjustment_norms)
            # an unguided step's norm is exactly +0.0
            idle = b.adjustment_norms[:, ~b.guidance_active]
            assert np.all(idle == 0.0) and not np.any(np.signbit(idle))

    def test_store_samples(self, bench, bench_dataset, tmp_path):
        # "samples" keeps the final samples alone, and they are those of a
        # call that keeps everything
        _, sch, den, clf = bench
        n, ys = 6, np.arange(6) % 8
        thinned = gsam.sample(den, clf, self.RULES, sch, ys, n, seed=2)
        bare = gsam.sample(den, clf, self.RULES, sch, ys, n, seed=2, store="samples")
        for a, b in zip(thinned, bare):
            assert b.adjustment_norms is None
            assert b.stored_x.shape == (n, 0, den.dim)
            assert b.samples.tobytes() == a.samples.tobytes()
            np.testing.assert_array_equal(b.guidance_active, a.guidance_active)
            assert b.chain(3).adjustment_norms is None
        with pytest.raises(ValueError, match="store"):
            gsam.export_trajectories_csv(bare[0], tmp_path / "traj.csv", bench_dataset)
        assert not (tmp_path / "traj.csv").exists()

    def test_arms_without_states_need_less_memory(self, lina_1000):
        # four 512-chain x 250-step records without states peak below one
        # record that keeps its thinned states (13.4 MB)
        desc = gd.eight_gaussians()
        sch = gs.respace(lina_1000, 250)
        den, clf = gm.AnalyticDenoiser(desc, sch), gm.AnalyticClassifier(desc, sch)
        ys = np.arange(512) % 8

        def peak(rule, store):
            tracemalloc.start()
            try:
                gsam.sample(den, clf, rule, sch, ys, 512, seed=0, store=store)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        norms = peak(CUTOFF_RULES, "norms")
        assert norms < peak(CUTOFF_RULES[2], "thinned")
        # keeping samples only drops four (512, 250) norm arrays, 3.9 MiB
        assert peak(CUTOFF_RULES, "samples") <= norms - 3 * 2**20

    @pytest.mark.parametrize("rule, store, offending", [
        ((), "thinned", "()"),
        ((GuidanceRule("none"), "geoguide"), "thinned", "'geoguide'"),
        (GuidanceRule("none"), "thin", "'thin'"),
        # the level that keeps norms without states is "norms"
        (GuidanceRule("none"), "none", "'none'"),
    ])
    def test_bad_arguments_named(self, bench, rule, store, offending):
        _, sch, den, clf = bench
        with pytest.raises(ValueError) as err:
            gsam.sample(den, clf, rule, sch, 0, 2, seed=0, store=store)
        assert offending in str(err.value)


class TestSharedSteps:
    """Rules share every step until their guidance differs: the calls a
    lockstep run makes are those of ``oracles.lockstep_counts``."""
    COUNTED = ("predict_eps", "class_grad", "class_grad_direction", "adjustment",
               "guided_reverse_step")

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = dict.fromkeys(self.COUNTED, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in ((gm.AnalyticDenoiser, "predict_eps"),
                            (gm.AnalyticClassifier, "class_grad"),
                            (gm.AnalyticClassifier, "class_grad_direction"),
                            (gsam, "adjustment"), (gsam, "guided_reverse_step")):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return calls

    @pytest.fixture(scope="class")
    def ten_steps(self):
        desc = gd.eight_gaussians()
        sch = gs.respace(gs.build_linear_beta(1000, 1e-4, 0.02), 10)
        return sch, gm.AnalyticDenoiser(desc, sch), gm.AnalyticClassifier(desc, sch)

    def test_model_of_the_cutoff_preset(self):
        # per 256-chain block of the cutoff preset (250 steps), against 1000
        # denoiser calls, 650 classifier calls and 1000 updates unshared
        assert lockstep_counts(CUTOFF_RULES, 250) == (847, 500, 850)

    @pytest.mark.parametrize("rules", [CUTOFF_RULES, TestArms.RULES,
                                       TestArms.RULES[::-1], CUTOFF_RULES[1::2]],
                             ids=["cutoff", "arms", "arms_reversed", "cut_only"])
    def test_calls_follow_the_active_masks(self, ten_steps, calls, rules):
        sch, den, clf = ten_steps
        S, n = sch.T, gsam.BLOCK + 3  # two blocks
        # the cut rules split from their full twins partway through
        active = [int(r.active(np.arange(S), S).sum()) for r in CUTOFF_RULES]
        assert active[0] == active[2] == S and 0 < active[1] == active[3] < S
        gsam.sample(den, clf, rules, sch, np.arange(n) % 8, n, seed=5)
        eps, guided, updates = lockstep_counts(rules, S)
        assert calls["predict_eps"] == 2 * eps
        assert calls["class_grad"] + calls["class_grad_direction"] == 2 * guided
        # an unguided step makes no adjustment call
        assert calls["adjustment"] == 2 * guided
        assert calls["guided_reverse_step"] == 2 * updates

    @pytest.mark.parametrize("rules", [CUTOFF_RULES[0], CUTOFF_RULES[2],
                                       (CUTOFF_RULES[2],) * 3],
                             ids=["adm_g", "geoguide", "geoguide_thrice"])
    def test_one_rule_makes_one_call_a_step(self, ten_steps, calls, rules):
        # a one-rule call, and copies of one rule, share nothing and repeat nothing
        sch, den, clf = ten_steps
        gsam.sample(den, clf, rules, sch, np.arange(6) % 8, 6, seed=5)
        kind = (rules[0] if isinstance(rules, tuple) else rules).kind
        grad, other = (("class_grad", "class_grad_direction") if kind == "adm_g"
                       else ("class_grad_direction", "class_grad"))
        for name in ("predict_eps", grad, "adjustment", "guided_reverse_step"):
            assert calls[name] == sch.T, name
        assert calls[other] == 0

    def test_error_after_a_split_names_the_first_rule(self, ten_steps, monkeypatch):
        # rules 0 and 2 share steps until rule 0's cut-off; one step later
        # rules 1 and 2 turn non-finite together, and rule 1 comes first
        sch, den, clf = ten_steps
        S = sch.T
        rules = (GuidanceRule("adm_g", 1.0, cutoff_fraction=0.3),
                 GuidanceRule("geoguide", 2.5), GuidanceRule("adm_g", 1.0))
        cut = int(rules[0].active(np.arange(S), S).sum())
        assert 0 < cut < S - 1
        adjustment = gsam.adjustment

        def nan_after_the_cut(rule, classifier, x, position, y, schedule, step_index,
                              total_steps):
            a_t = adjustment(rule, classifier, x, position, y, schedule, step_index,
                             total_steps)
            if step_index == cut + 1:
                a_t[3] = np.nan
            return a_t

        monkeypatch.setattr(gsam, "adjustment", nan_after_the_cut)
        with pytest.raises(NumericalError) as err:
            gsam.sample(den, clf, rules, sch, np.arange(6) % 8, 6, seed=5)
        assert str(err.value) == (f"non-finite state at step {cut + 1} "
                                  f"(t={int(sch.timesteps[S - cut - 2])}) in chain 3 "
                                  "under rule geoguide (s=2.5, cutoff=1.0)")

    def test_duplicate_rules_do_not_alias(self, bench):
        _, sch, den, clf = bench
        rule = CUTOFF_RULES[3]
        a, b = gsam.sample(den, clf, (rule, rule), sch, np.arange(6) % 8, 6, seed=8)
        for name in ("samples", "adjustment_norms", "stored_x"):
            kept = getattr(b, name).copy()
            getattr(a, name)[...] = np.nan
            np.testing.assert_array_equal(getattr(b, name), kept)


class TestTrajectoryLogs:
    def test_log_shape_and_norms(self, bench):
        _, sch, den, clf = bench
        s = 1.3
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", s), sch, 2, 4,
                            seed=7)
        D = 64
        assert batch.ts.shape == batch.alpha_bars.shape == (sch.T,)
        assert batch.adjustment_norms.shape == (4, sch.T)
        np.testing.assert_allclose(batch.adjustment_norms, s * np.sqrt(D) / sch.T,
                                   rtol=1e-12)
        assert batch.guidance_active.all()

    def test_respaced_alpha_bars_match_parent(self, bench, linb_1000):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 1, seed=0)
        parent = linb_1000.alpha_bars[batch.ts - 1]
        np.testing.assert_allclose(batch.alpha_bars, parent, rtol=1e-12)

    def test_thinning_default(self, bench, linb_1000):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 1, seed=0)
        # ceil(50 / 50) = 1: every step stored
        np.testing.assert_array_equal(batch.stored_steps, np.arange(sch.T))
        sch250 = gs.respace(linb_1000, 250)
        den250 = gm.AnalyticDenoiser(gd.eight_gaussians(), sch250)
        thinned = gsam.sample(den250, None, GuidanceRule("none"), sch250, 0, 2, seed=0)
        # ceil(250 / 50) = 5: steps 0, 5, ..., 245 and the final step 249
        np.testing.assert_array_equal(thinned.stored_steps,
                                      np.append(np.arange(0, 250, 5), 249))
        assert thinned.stored_x.shape == (2, 51, 64)
        full = gsam.sample(den250, None, GuidanceRule("none"), sch250, 0, 2, seed=0,
                           store="full")
        np.testing.assert_array_equal(full.stored_x[:, thinned.stored_steps],
                                      thinned.stored_x)

    def test_final_state_recorded(self, bench):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 2, seed=0)
        np.testing.assert_array_equal(batch.stored_x[:, -1], batch.samples)
        assert batch.stored_ts[-1] == 0
        assert batch.stored_alpha_bars[-1] == 1.0
        # a stored state sits at the noise level of the step after it
        np.testing.assert_array_equal(batch.stored_ts[:-1], batch.ts[1:])
        np.testing.assert_array_equal(batch.stored_alpha_bars[:-1], batch.alpha_bars[1:])

    def test_cutoff_marks_active_steps(self, bench):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("adm_g", 1.0, cutoff_fraction=0.3),
                            sch, 2, 3, seed=0)
        # 0.3 of 50 steps: steps 0..14 guided
        np.testing.assert_array_equal(batch.guidance_active, np.arange(sch.T) < 15)
        assert np.all(batch.adjustment_norms[:, ~batch.guidance_active] == 0.0)
        assert np.all(batch.adjustment_norms[:, batch.guidance_active] > 0.0)

    def test_chain_views(self, bench):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 1.0), sch, [1, 5, 7],
                            3, seed=0)
        for j, view in enumerate(batch.logs):
            one = batch.chain(j)
            for name in ("samples", "targets", "adjustment_norms", "stored_x"):
                rows = getattr(batch, name)[j:j + 1]
                np.testing.assert_array_equal(getattr(view, name), rows)
                np.testing.assert_array_equal(getattr(one, name), rows)
            assert view.ts is batch.ts


class TestManifoldDistance:
    def test_single_point_dataset(self, bench):
        _, sch, den, clf = bench
        ds = gd.LabeledDataset(points=np.zeros((1, 64)), labels=np.array([0]))
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 1, seed=2)
        d_hat = gsam.trace_manifold_distance(batch, ds)
        assert d_hat.shape == (1, len(batch.stored_steps))
        np.testing.assert_allclose(d_hat[0], np.linalg.norm(batch.stored_x[0], axis=1),
                                   rtol=1e-12)

    def test_converged_chain_near_manifold(self, bench, bench_dataset):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 4, seed=9)
        d_hat = gsam.trace_manifold_distance(batch, bench_dataset)
        assert batch.stored_alpha_bars[-1] == 1.0
        # final state lands on the data manifold (sigma = 0.5 mixture)
        assert np.all(d_hat[:, -1] < 3 * 0.5 * np.sqrt(64))

    def test_chains_traced_at_once_match_one_by_one(self, bench, bench_dataset):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 1.0), sch, 3, 5, seed=4)
        d_hat = gsam.trace_manifold_distance(batch, bench_dataset)
        assert d_hat.shape == (5, len(batch.stored_steps))
        for j in range(5):
            np.testing.assert_array_equal(
                gsam.trace_manifold_distance(batch.chain(j), bench_dataset)[0], d_hat[j])

    def test_forward_traces_law(self, bench_dataset, linb_1000):
        sch = gs.respace(linb_1000, 50)
        ts, alpha_bars, d_hat = gsam.forward_manifold_traces(bench_dataset, sch,
                                                             n_draws=50, seed=3)
        assert ts.shape == alpha_bars.shape == (50,)
        assert d_hat.shape == (50, 50)
        d_theory = np.sqrt((1.0 - alpha_bars) * 64)
        noisy = 1.0 - alpha_bars >= 0.1
        ratio = d_hat[:, noisy] / d_theory[noisy]
        assert np.all((0.5 < ratio) & (ratio < 1.5))

    def test_empty_dataset_rejected(self, bench):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 1, seed=0)
        bad = gd.LabeledDataset(points=np.zeros((1, 64)), labels=np.array([0]))
        object.__setattr__(bad, "points", np.zeros((0, 64)))
        with pytest.raises(ValueError):
            gsam.trace_manifold_distance(batch, bad)


def exhaustive_distance(X, r, P):
    """The reference scan: every point's exact norm, row by row."""
    return np.array([np.min(np.linalg.norm(rj * P - x, axis=1)) for x, rj in zip(X, r)])


@st.composite
def distance_problems(draw):
    """Random datasets with duplicated or nearly duplicated rows, and states
    on, within rounding of, or away from a rescaled dataset point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = draw(st.integers(1, 70))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    pool = scale * rng.standard_normal((draw(st.integers(1, 30)), D))
    P = pool[rng.integers(0, len(pool), size=draw(st.integers(1, 60)))]
    P = P + draw(st.sampled_from([0.0, 1e-15, 1e-12])) * rng.standard_normal(P.shape)
    n = draw(st.integers(1, 8))
    alpha_bar = np.array(draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
        min_size=n, max_size=n)))
    r = np.sqrt(alpha_bar)
    offset = draw(st.sampled_from([0.0, 1e-300, 1e-15, 1e-8, 1.0, 10.0]))
    X = r[:, None] * P[rng.integers(0, len(P), size=n)] + offset * rng.standard_normal((n, D))
    return X, r, P


def _record_calls(monkeypatch):
    """A list that collects (X, r, P, result) of every nearest_distance call
    the sampler's traces make."""
    calls = []
    kernel = gsam.nearest_distance

    def recorded(X, r, P):
        out = kernel(X, r, P)
        calls.append((X, r, P, out))
        return out

    monkeypatch.setattr(gsam, "nearest_distance", recorded)
    return calls


@pytest.fixture(scope="module")
def bench_record(linb_1000):
    """The sample_trace benchmark's record: 64 chains of geoguide s=2.5 over
    1000 linear-beta steps, thinned to 51 stored states."""
    desc = gd.eight_gaussians()
    den, clf = gm.AnalyticDenoiser(desc, linb_1000), gm.AnalyticClassifier(desc, linb_1000)
    return gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), linb_1000, 0, 64, seed=0)


class TestNearestDistanceKernel:
    @settings(max_examples=300, deadline=None)
    @given(distance_problems())
    def test_equals_exhaustive_scan(self, problem):
        X, r, P = problem
        assert np.array_equal(gmet.nearest_distance(X, r, P), exhaustive_distance(X, r, P))

    def test_state_on_a_dataset_point(self, bench_dataset):
        P = bench_dataset.points[:500]
        r = np.sqrt(np.array([0.3, 0.7, 1.0]))
        X = r[:, None] * P[[7, 123, 499]]
        d = gmet.nearest_distance(X, r, P)
        assert np.all(d == 0.0)
        # the GEMM form alone cancels to rounding noise, not to zero
        screen = (np.sum(X * X, axis=1)[:, None] - 2 * r[:, None] * (X @ P.T)
                  + (r * r)[:, None] * np.sum(P * P, axis=1))
        assert np.all(np.abs(screen.min(axis=1)) < 1e-9)

    def test_duplicated_and_near_tied_points(self, monkeypatch):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((40, 16)) * 5
        P = np.concatenate([base, base[:10], base[:10] * (1 + 1e-15),
                            base[:10] + 1e-13])
        r = np.sqrt(rng.uniform(0.01, 1.0, size=30))
        X = r[:, None] * P[rng.integers(0, len(P), size=30)] \
            + 1e-10 * rng.standard_normal((30, 16))
        # a block of 4 rows, so several blocks run
        monkeypatch.setattr(_blas, "BLOCK_ENTRIES", 4 * len(P))
        np.testing.assert_array_equal(gmet.nearest_distance(X, r, P),
                                      exhaustive_distance(X, r, P))

    def test_alpha_bar_one(self, bench_dataset):
        P = bench_dataset.points
        X = np.random.default_rng(2).standard_normal((5, 64)) * 3
        r = np.ones(5)
        np.testing.assert_array_equal(gmet.nearest_distance(X, r, P),
                                      exhaustive_distance(X, r, P))

    def test_one_point_dataset(self):
        P = np.full((1, 64), 0.25)
        X = np.random.default_rng(3).standard_normal((9, 64))
        r = np.sqrt(np.linspace(0.1, 1.0, 9))
        d = gmet.nearest_distance(X, r, P)
        np.testing.assert_array_equal(d, np.linalg.norm(r[:, None] * P - X, axis=1))

    def test_non_finite_state_propagates(self):
        P = np.eye(3)
        X = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.5, 0.0, 0.0]])
        r = np.ones(3)
        np.testing.assert_array_equal(gmet.nearest_distance(X, r, P),
                                      exhaustive_distance(X, r, P))

    def test_overflowing_dataset_warns_nothing(self, linb_1000, monkeypatch):
        # ||p||^2 overflows at 1e200: the grouping GEMMs, the screen and the
        # full scan all meet inf, which the kernel expects and does not report
        ds = gd.generate(gd.eight_gaussians(), 500, seed=1)
        big = gd.LabeledDataset(points=ds.points * 1e200, labels=ds.labels,
                                descriptor=ds.descriptor)
        calls = _record_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gsam.forward_manifold_traces(big, gs.respace(linb_1000, 50), n_draws=4, seed=3)
        with np.errstate(invalid="ignore", over="ignore"):
            for X, r, P, out in calls:
                np.testing.assert_array_equal(out, exhaustive_distance(X, r, P))

    def test_forward_traces_match_exhaustive_scan(self, linb_1000):
        ds = gd.generate(gd.eight_gaussians(), 2000, seed=1)
        sch = gs.respace(linb_1000, 50)
        n_draws, seed = 6, 3
        _, _, d_hat = gsam.forward_manifold_traces(ds, sch, n_draws=n_draws, seed=seed)
        # the same draws, in the same order, as forward_manifold_traces
        pts = ds.points
        rng = rng_stream(seed, 0xF0)
        x0 = pts[rng.integers(0, len(pts), size=n_draws)]
        for k, pos in enumerate(range(1, sch.T + 1)):
            ab = sch.alpha_bars[pos - 1]
            eps = rng.standard_normal((n_draws, pts.shape[1]))
            xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
            ref = exhaustive_distance(xt, np.full(n_draws, np.sqrt(ab)), pts)
            np.testing.assert_allclose(d_hat[:, k], ref, rtol=1e-12, atol=0)

    def test_trace_memory_bounded(self, bench_dataset, linb_1000):
        desc = gd.eight_gaussians()
        sch = gs.respace(linb_1000, 51)
        den = gm.AnalyticDenoiser(desc, sch)
        batch = gsam.sample(den, None, GuidanceRule("none"), sch, 0, 1, seed=0,
                            store="full")
        assert batch.stored_x.shape == (1, 51, 64)
        tracemalloc.start()
        try:
            gsam.trace_manifold_distance(batch, bench_dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_pruning_at_bench_geometry(self, bench_record, bench_dataset, tile_pairs):
        # about 30 % of the 26.1 M pairs are computed (29.5-30.9 % on seeds 0 and 3)
        d_hat = gsam.trace_manifold_distance(bench_record, bench_dataset)
        M, K, _ = bench_record.stored_x.shape
        assert 0 < sum(tile_pairs) <= 0.4 * M * K * len(bench_dataset.points)
        r = np.sqrt(bench_record.stored_alpha_bars)
        for j in (0, 21, 63):
            np.testing.assert_array_equal(
                d_hat[j], exhaustive_distance(bench_record.stored_x[j], r,
                                              bench_dataset.points))

    def test_forward_pruning_at_bench_geometry(self, bench_dataset, linb_1000, tile_pairs,
                                               monkeypatch):
        # the distance_law preset's size: 200 draws x 50 steps; noised
        # dataset points compute about 40 % of the pairs (40.0-40.3 % on
        # seeds 0, 3 and 11)
        calls = _record_calls(monkeypatch)
        _, _, d_hat = gsam.forward_manifold_traces(bench_dataset, linb_1000, 200, seed=3)
        assert 0 < sum(tile_pairs) <= 0.45 * d_hat.size * len(bench_dataset.points)
        for X, r, P, out in calls[::10]:
            np.testing.assert_array_equal(out[:4], exhaustive_distance(X[:4], r[:4], P))


class TestGroupingMemo:
    """The grouped dataset is kept for the next call on the same points
    array, and only for that array."""

    def test_export_groups_once(self, bench, bench_dataset, tmp_path, monkeypatch):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), sch, 0, 4, seed=1)
        monkeypatch.setattr(gmet, "_grouping_memo", None)
        grouped = []
        pivots = gmet._pivots

        def counted(rows):
            grouped.append(len(rows))
            return pivots(rows)

        monkeypatch.setattr(gmet, "_pivots", counted)
        gsam.export_trajectories_csv(batch, tmp_path / "traj.csv", bench_dataset)
        gsam.forward_manifold_traces(bench_dataset, sch, 3, seed=0)
        assert grouped == [len(bench_dataset.points)]

    def test_equal_shapes_different_values(self, bench, bench_descriptor):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), sch, 0, 2, seed=5)
        r = np.sqrt(batch.stored_alpha_bars)
        for seed in (1, 2, 1):
            ds = gd.generate(bench_descriptor, 3000, seed=seed)
            d_hat = gsam.trace_manifold_distance(batch, ds)
            for j in range(2):
                np.testing.assert_array_equal(
                    d_hat[j], exhaustive_distance(batch.stored_x[j], r, ds.points))

    def test_swapped_points(self, bench, bench_descriptor):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("none"), sch, 0, 1, seed=0)
        ds = gd.generate(bench_descriptor, 3000, seed=1)
        gsam.trace_manifold_distance(batch, ds)
        object.__setattr__(ds, "points", gd.generate(bench_descriptor, 3000, seed=2).points)
        np.testing.assert_array_equal(
            gsam.trace_manifold_distance(batch, ds)[0],
            exhaustive_distance(batch.stored_x[0], np.sqrt(batch.stored_alpha_bars),
                                ds.points))

    def test_nan_state_and_dataset_rows(self, bench_record, bench_dataset):
        X = bench_record.stored_x[:2].reshape(-1, 64).copy()
        r = np.tile(np.sqrt(bench_record.stored_alpha_bars), 2)
        X[7, 3] = np.nan
        P = bench_dataset.points.copy()
        P[17, 5] = np.nan
        with np.errstate(invalid="ignore"):
            for points in (bench_dataset.points, P):
                np.testing.assert_array_equal(gmet.nearest_distance(X, r, points),
                                              exhaustive_distance(X, r, points))

    def test_grouping_memory_bounded(self, bench_record, bench_dataset, monkeypatch):
        # the grouping's operands and the one row block of a chain
        monkeypatch.setattr(gmet, "_grouping_memo", None)
        tracemalloc.start()
        try:
            gsam.trace_manifold_distance(bench_record.chain(0), bench_dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_writer_reference(batch, path, dataset):
    """The trajectory table through ``csv.writer``, one cell per value."""
    M, S = batch.adjustment_norms.shape
    d_hat = np.full((M, S), "", dtype=object)
    d_theory = np.full((M, S), "", dtype=object)
    for j in range(M):
        d_hat[j, batch.stored_steps] = gsam.trace_manifold_distance(batch.chain(j),
                                                                    dataset)[0]
    D = dataset.points.shape[1]
    d_theory[:, batch.stored_steps] = np.sqrt((1.0 - batch.stored_alpha_bars) * D)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(gsam.TRAJECTORY_CSV_HEADER)
        writer.writerows(zip(chain.from_iterable(repeat(j, S) for j in range(M)),
                             cycle(range(S)), cycle(batch.ts.tolist()),
                             cycle(batch.alpha_bars.tolist()),
                             batch.adjustment_norms.ravel().tolist(),
                             d_hat.ravel().tolist(), d_theory.ravel().tolist()))


class TestCsvExport:
    def test_csv_schema(self, bench, bench_dataset, tmp_path):
        _, sch, den, clf = bench
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 1.0), sch, 0, 2,
                            seed=0)
        path = tmp_path / "traj.csv"
        gsam.export_trajectories_csv(batch, path, dataset=bench_dataset)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == gsam.TRAJECTORY_CSV_HEADER
        assert len(rows) == 1 + 2 * sch.T
        chains = {int(r[0]) for r in rows[1:]}
        assert chains == {0, 1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_equal_csv_writer(self, bench, bench_dataset, tmp_path, seed):
        _, sch, den, clf = bench
        # every store that keeps the norms ("samples" cannot be exported)
        for store in gsam.STORE[1:]:
            batch = gsam.sample(den, clf, GuidanceRule("geoguide", 2.5), sch,
                                [0, 3, 5], 3, seed=seed, store=store)
            path, ref = tmp_path / "traj.csv", tmp_path / "ref.csv"
            gsam.export_trajectories_csv(batch, path, dataset=bench_dataset)
            _csv_writer_reference(batch, ref, bench_dataset)
            assert _sha256(path) == _sha256(ref)

    def test_csv_rows_are_the_record(self, bench, bench_dataset, tmp_path, linb_1000):
        # 250 steps store every fifth state, so d_hat is blank between them
        desc, _, _, _ = bench
        sch = gs.respace(linb_1000, 250)
        den, clf = gm.AnalyticDenoiser(desc, sch), gm.AnalyticClassifier(desc, sch)
        batch = gsam.sample(den, clf, GuidanceRule("geoguide", 1.0), sch, [2, 6], 2,
                            seed=1)
        path = tmp_path / "traj.csv"
        gsam.export_trajectories_csv(batch, path, dataset=bench_dataset)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        stored = dict(zip(batch.stored_steps.tolist(), range(len(batch.stored_steps))))
        for j in range(2):
            d_hat = gsam.trace_manifold_distance(batch.chain(j), bench_dataset)[0]
            for k in range(sch.T):
                row = rows[j * sch.T + k]
                assert row[:5] == [str(j), str(k), str(batch.ts[k]),
                                   repr(float(batch.alpha_bars[k])),
                                   repr(float(batch.adjustment_norms[j, k]))]
                if k in stored:
                    i = stored[k]
                    theory = np.sqrt((1.0 - batch.stored_alpha_bars[i]) * 64)
                    assert row[5:] == [repr(float(d_hat[i])), repr(float(theory))]
                else:
                    assert row[5:] == ["", ""]
