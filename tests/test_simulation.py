"""Scenario generators, AUC, and the replicate harness."""

import csv
import itertools
import math

import numpy as np
import pytest

from recency import simulation
from recency.estimation import fit
from recency.model import ModelSpec, logistic
from recency.prediction import _type2_vector
from recency.simulation import (
    ScenarioConfig,
    _one_replicate,
    auc,
    default_config,
    generate,
    run_replicates,
    summary_to_dict,
    write_replicates_csv,
)

SPEC = ModelSpec(covariate_names=("odn",))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 2, 3, 10, 11, 12], [0, 0, 0, 1, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc(np.ones(10), [0, 1] * 5) == 0.5

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(90)
        scores = rng.integers(0, 5, size=24).astype(float)  # force ties
        labels = rng.integers(0, 2, size=24)
        labels[0], labels[1] = 0, 1
        wins = 0.0
        pairs = 0
        for i, j in itertools.product(range(24), range(24)):
            if labels[i] == 1 and labels[j] == 0:
                pairs += 1
                if scores[i] > scores[j]:
                    wins += 1.0
                elif scores[i] == scores[j]:
                    wins += 0.5
        assert auc(scores, labels) == pytest.approx(wins / pairs, rel=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            auc([1.0, 2.0], [1, 1])


class TestScenarioConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S3")

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S1", n_total=1001)

    def test_s6_needs_three_gamma_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S6", s_gamma=(0.6, 0.19))

    def test_s6_psi_truth_is_gamma_tilt(self):
        cfg = default_config("6")
        shape, r0, r1 = cfg.s_gamma
        assert cfg.psi_true[0] == pytest.approx(shape * math.log(r1 / r0))
        assert cfg.psi_true[1] == pytest.approx(r0 - r1)
        assert cfg.psi_true[0] * cfg.psi_true[1] < 0

    def test_flip_rate_bounds(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S5", noise=(0.1, 1.0))


class TestGenerate:
    def test_seed_reproducibility(self):
        a = generate(default_config("1", n_total=400, seed=5))
        b = generate(default_config("1", n_total=400, seed=5))
        assert all(np.array_equal(x.covariates, y.covariates) and x.s == y.s
                   and x.z == y.z and x.w == y.w
                   for x, y in zip(a.train + a.test, b.train + b.test))
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_split_sizes_and_weights(self):
        gen = generate(default_config("1", n_total=600, seed=6))
        assert len(gen.train) == 300 and len(gen.test) == 300
        assert all(sub.w == 1.0 for sub in gen.train + gen.test)

    def test_test_partition_by_label(self):
        gen = generate(default_config("1", n_total=600, seed=7))
        recent, longterm, _, _ = gen.test_arrays.case_masks()
        labeled = recent | longterm
        assert [sub.label.value != "unknown" for sub in gen.test] == labeled.tolist()
        assert 0 < labeled.sum() < gen.test_arrays.n
        # error-free reports: the latent-status set is the reported-unknown set
        np.testing.assert_array_equal(gen.test_latent, ~labeled)

    def test_deterministic_cells_respected(self):
        gen = generate(default_config("1", n_total=4000, seed=8))
        for subs, ys in ((gen.train, gen.y_train), (gen.test, gen.y_test)):
            for sub, y in zip(subs, ys):
                if sub.s <= 1 and y == 0:
                    assert sub.z == 1
                if sub.s > 1 and y == 1:
                    assert sub.z == 0

    def test_z_frequencies_track_p0(self):
        # binned empirical P(z=1 | s>1, y=0) within binomial noise of the model
        cfg = default_config("1", n_total=120_000, seed=9)
        gen = generate(cfg)
        subs = gen.train + gen.test
        ys = np.concatenate([gen.y_train, gen.y_test])
        s = np.array([sub.s for sub in subs])
        z = np.array([sub.z for sub in subs])
        sel = (s > 1) & (ys == 0)
        bins = [(1.0, 4.0), (4.0, 8.0), (8.0, 14.0)]
        for lo, hi in bins:
            m = sel & (s >= lo) & (s < hi)
            n = int(m.sum())
            assert n > 200
            p_model = float(np.mean(logistic(7.0 - 0.62 * (s[m] - 1.0))))
            p_hat = float(z[m].mean())
            se = math.sqrt(p_model * (1 - p_model) / n)
            assert abs(p_hat - p_model) < 5 * se + 1e-4

    def test_s5_zero_noise_equals_s1(self):
        cfg1 = default_config("1", n_total=400, seed=10)
        cfg5 = default_config("5", n_total=400, seed=10, noise=(0.0, 0.0))
        a, b = generate(cfg1), generate(cfg5)
        assert all(x.s == y.s and x.z == y.z for x, y in zip(a.train, b.train))

    def test_s5_perturbs_train_only(self):
        # both halves carry reporting error; the truth stays that of S1
        cfg1 = default_config("1", n_total=2000, seed=11)
        cfg5 = default_config("5", n_total=2000, seed=11)
        a, b = generate(cfg1), generate(cfg5)
        for clean, noisy in ((a.train, b.train), (a.test, b.test)):
            ds = np.array([y.s - x.s for x, y in zip(clean, noisy)])
            clamped = np.array([y.s for y in noisy]) == pytest.approx(1.0 / 365.0)
            assert np.all((np.abs(ds) <= 1.0 / 6.0 + 1e-12) | clamped)
            flips = sum(1 for x, y in zip(clean, noisy) if x.z != y.z)
            assert 0.01 <= flips / len(noisy) <= 0.035
        assert all(np.array_equal(x.covariates, y.covariates) for x, y in zip(a.test, b.test))
        np.testing.assert_array_equal(a.y_test, b.y_test)
        np.testing.assert_array_equal(a.test_latent, b.test_latent)

    def test_s6_log_density_ratio_is_linear_tilt(self):
        cfg = default_config("6", n_total=200_000, seed=12)
        gen = generate(cfg)
        s = np.array([sub.s for sub in gen.train])
        y = gen.y_train
        edges = np.linspace(0.25, 6.0, 10)
        centers = 0.5 * (edges[:-1] + edges[1:])
        h1, _ = np.histogram(s[y == 1], bins=edges, density=True)
        h0, _ = np.histogram(s[y == 0], bins=edges, density=True)
        keep = (h1 > 0) & (h0 > 0)
        log_ratio = np.log(h1[keep] / h0[keep])
        slope = np.polyfit(centers[keep], log_ratio, 1)[0]
        shape, r0, r1 = cfg.s_gamma
        assert slope == pytest.approx(r0 - r1, abs=0.02)

    def test_s7_covariate_enters_z_model(self):
        cfg = default_config("7", n_total=150_000, seed=13)
        gen = generate(cfg)
        subs = gen.train + gen.test
        ys = np.concatenate([gen.y_train, gen.y_test])
        x = np.array([sub.covariates[0] for sub in subs])
        s = np.array([sub.s for sub in subs])
        z = np.array([sub.z for sub in subs])
        sel = (s > 1) & (s < 3) & (ys == 0)
        lo = sel & (x < -0.5)
        hi = sel & (x > 0.5)
        # positive coefficient: higher odn -> higher P(z=1)
        assert z[hi].mean() > z[lo].mean()

    def test_s7_refit_with_eta_covariate_recovers_coefficient(self):
        # extension hook: one shared coefficient on odn in both z-model expits
        from recency.estimation import fit
        cfg = default_config("7", n_total=8000, seed=21)
        gen = generate(cfg)
        spec = ModelSpec(covariate_names=("odn",), z_model_covariate="odn")
        res = fit(gen.train, spec)
        assert res.converged
        est = res.estimates()
        se = dict(zip(res.free_names, res.se))
        assert abs(est["eta_x"] - cfg.odn_in_z_coeff) <= 2 * se["eta_x"]

    def test_s2_three_way_split_and_target_mean(self):
        cfg = default_config("2", seed=14)
        gen = generate(cfg)
        assert gen.train_arrays.n == gen.test_arrays.n == gen.contingency_arrays.n == 1000
        y_all = np.concatenate([gen.y_train, gen.y_test, gen.y_contingency])
        assert abs(y_all.mean() - 0.5) < 0.03
        assert gen.train[0].covariates.size == 2
        assert gen.solved_beta0 is not None


@pytest.fixture(scope="module")
def small_summary():
    cfg = default_config("1", n_total=600, seed=15)
    return run_replicates(cfg, 8, SPEC)


class TestRunReplicates:
    def test_summary_structure(self, small_summary):
        su = small_summary
        assert su.n_reps == 8
        assert 0 <= su.n_converged <= 8
        assert set(su.params) == {"beta0", "beta_odn", "eta01", "eta11"}
        assert set(su.lr_params) == {"beta0", "beta_odn"}
        for ps in su.params.values():
            assert 0.0 <= ps.coverage95 <= 1.0
            assert ps.sd >= 0.0

    def test_deterministic_given_seed(self, small_summary):
        cfg = default_config("1", n_total=600, seed=15)
        again = run_replicates(cfg, 8, SPEC)
        assert summary_to_dict(again) == summary_to_dict(small_summary)

    def test_csv_schema(self, small_summary, tmp_path):
        path = tmp_path / "reps.csv"
        write_replicates_csv(path, small_summary)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["rep", "param", "estimate", "se", "covered",
                          "auc1", "auc2", "e_y", "converged"]
        assert len(rows) == sum(len(r["params"]) for r in small_summary.replicates)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_replicates(default_config("1", n_total=400, seed=0), 0, SPEC)

    def test_s1_auc2_scores_reported_unknown_set(self):
        # without reporting error the latent set is the reported-unknown set
        cfg = default_config("1", n_total=600, seed=17)
        seed_seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        row = _one_replicate((cfg, SPEC, 0, seed_seq))
        gen = generate(cfg, np.random.default_rng(seed_seq))
        theta = fit(gen.train_arrays, SPEC).theta_hat
        recent, longterm, _, _ = gen.test_arrays.case_masks()
        unknown = ~(recent | longterm)
        t2 = _type2_vector(gen.test_arrays.subset(unknown), theta, SPEC)
        assert row["auc2"] == auc(t2, gen.y_test[unknown])

    def test_s5_auc2_scores_latent_subjects_that_misreport(self, monkeypatch):
        cfg = default_config("5", n_total=2000, seed=18)
        seed_seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        gen = generate(cfg, np.random.default_rng(seed_seq))
        clean_test = generate(default_config("1", n_total=2000, seed=18),
                          np.random.default_rng(seed_seq)).test
        # latent-status subjects whose flipped z lands in a determined cell
        recent, longterm, _, _ = gen.test_arrays.case_masks()
        misreported = [sub for sub, clean, latent, labeled in zip(
            gen.test, clean_test, gen.test_latent, recent | longterm)
            if latent and labeled and sub.z != clean.z]
        assert misreported
        scored = []

        def spy(arrays, theta, spec):
            scored.append(arrays)
            return _type2_vector(arrays, theta, spec)

        monkeypatch.setattr(simulation, "_type2_vector", spy)
        row = _one_replicate((cfg, SPEC, 0, seed_seq))
        assert math.isfinite(row["auc2"])
        (arrays,) = scored
        assert arrays.n == int(gen.test_latent.sum())
        rows = set(zip(arrays.s.tolist(), arrays.z.tolist()))
        assert all((sub.s, sub.z) in rows for sub in misreported)

    def test_replicate_builds_no_subject(self, monkeypatch):
        calls = []
        original = simulation.Subject.__post_init__

        def counting(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(simulation.Subject, "__post_init__", counting)
        summary = run_replicates(default_config("1", seed=4), 1, SPEC, n_jobs=1)
        assert summary.n_reps == 1 and len(calls) == 0

    @pytest.mark.parametrize("scenario, n_total, spec", [
        ("1", 400, SPEC),
        ("6", 600, ModelSpec(covariate_names=("odn",), extended=True)),
    ], ids=["basic", "extended"])
    def test_parallel_matches_serial(self, scenario, n_total, spec):
        cfg = default_config(scenario, n_total=n_total, seed=16)
        serial = run_replicates(cfg, 4, spec, n_jobs=1)
        parallel = run_replicates(cfg, 4, spec, n_jobs=2)
        assert summary_to_dict(serial) == summary_to_dict(parallel)
