"""Scenario generators, AUC, and the replicate harness."""

import csv
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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

    def test_nan_score_gives_nan(self):
        assert math.isnan(auc([0.1, math.nan, 0.3, 0.5], [0, 1, 0, 1]))

    def test_import_leaves_scipy_stats_unloaded(self):
        # the child imports the same source tree as this test process
        src = str(Path(simulation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = "import sys, recency; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "False"

    def test_import_leaves_scipy_optimize_unloaded(self):
        # no runtime path loads scipy; tests/test_cli.py checks fits,
        # predict and simulate in a child too
        src = str(Path(simulation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = ("import sys, recency, recency.cli; "
                "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"


class TestScenarioConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S3")

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S1", n_total=1001)

    def test_s2_total_must_split_in_three(self):
        with pytest.raises(ValueError, match="^S2 splits into three equal groups; n_total must"):
            default_config("2", n_total=2000)

    def test_psi_true_only_in_s6(self):
        assert default_config("1").psi_true is None
        shape, r0, r1 = default_config("6").s_gamma
        assert default_config("6").psi_true == (shape * math.log(r1 / r0), r0 - r1)

    @pytest.mark.parametrize("scenario, beta", [("1", (1.0, 2.0, 3.0)), ("2", (0.0, -0.19)),
                                                ("6", (0.95,))])
    def test_beta_length_must_match_scenario(self, scenario, beta):
        # S2 has two covariates, every other scenario one
        n_beta = 3 if scenario == "2" else 2
        with pytest.raises(ValueError, match=f"beta_true must have {n_beta} entries for "
                                             f"S{scenario}.*got {len(beta)}$"):
            default_config(scenario, beta_true=beta)

    @pytest.mark.parametrize("n_total", [0, -2])
    def test_nonpositive_n_total_rejected(self, n_total):
        with pytest.raises(ValueError, match=f"^n_total must be positive, got {n_total}$"):
            default_config("1", n_total=n_total)

    def test_eta_length_must_be_four(self):
        # a short eta_true failed in generate with an IndexError
        with pytest.raises(ValueError, match=r"^eta_true must have 4 entries, \(eta00, eta01, "
                                             r"eta10, eta11\); got 1$"):
            default_config("1", n_total=200, eta_true=(7.0,))

    def test_noise_length_must_be_two(self):
        with pytest.raises(ValueError, match=r"^noise must have 2 entries, \(s jitter "
                                             r"half-width, z flip rate\); got 1$"):
            default_config("5", n_total=200, noise=(0.1,))

    def test_s6_needs_three_gamma_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S6", s_gamma=(0.6, 0.19))
        # and every other scenario two: a lone shape failed in generate
        with pytest.raises(ValueError, match=r"S1 needs s_gamma = \(shape, rate\), got \(0.6,\)"):
            ScenarioConfig(scenario="S1", s_gamma=(0.6,))

    def test_s6_psi_truth_is_gamma_tilt(self):
        cfg = default_config("6")
        shape, r0, r1 = cfg.s_gamma
        assert cfg.psi_true[0] == pytest.approx(shape * math.log(r1 / r0))
        assert cfg.psi_true[1] == pytest.approx(r0 - r1)
        assert cfg.psi_true[0] * cfg.psi_true[1] < 0

    def test_flip_rate_bounds(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="S5", noise=(0.1, 1.0))

    def test_negative_jitter_rejected(self):
        # _misreport skipped a negative jitter: the setting was ignored
        with pytest.raises(ValueError, match=r"^s jitter half-width must be >= 0, got -0.1$"):
            default_config("1", noise=(-0.1, 0.0))

    @pytest.mark.parametrize("field, value", [
        ("beta_true", (0.95, math.nan)), ("eta_true", (7.0, -0.62, math.inf, -5.71)),
        ("s_gamma", (math.nan, 0.19)), ("noise", (math.nan, 0.02)), ("odn_in_z_coeff", math.nan),
    ])
    def test_non_finite_setting_rejected(self, field, value):
        # without an error, a nan jitter drew nothing and a nan leak made every random z 0
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            default_config("1", **{field: value})

    @pytest.mark.parametrize("scenario, names", [
        ("1", ("odn",)), ("2", ("logvl", "odn")), ("5", ("odn",)), ("6", ("odn",)),
        ("7", ("odn",)),
    ])
    def test_covariate_names(self, scenario, names):
        cfg = default_config(scenario)
        assert cfg.covariate_names == names
        assert len(cfg.beta_true) == len(names) + 1
        assert generate(default_config(scenario, n_total=600)).train_arrays.x.shape[1] == len(names)


class TestGenerate:
    def test_seed_reproducibility(self):
        a = generate(default_config("1", n_total=400, seed=5))
        b = generate(default_config("1", n_total=400, seed=5))
        for half in ("train_arrays", "test_arrays"):
            for field in ("x", "s", "z", "w"):
                np.testing.assert_array_equal(getattr(getattr(a, half), field),
                                              getattr(getattr(b, half), field))
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_train_and_test_rows_match_the_arrays(self):
        # the benchmark's survey workload reads these per-row records
        gen = generate(default_config("2", n_total=600, seed=5))
        for rows, arrs in ((gen.train, gen.train_arrays), (gen.test, gen.test_arrays)):
            assert len(rows) == arrs.n
            for i, row in enumerate(rows):
                assert row._fields == ("covariates", "s", "z", "w")
                np.testing.assert_array_equal(row.covariates, arrs.x[i])
                assert type(row.s) is float and row.s == arrs.s[i]
                assert type(row.z) is int and row.z == arrs.z[i]
                assert type(row.w) is float and row.w == arrs.w[i]

    def test_split_sizes_and_weights(self):
        gen = generate(default_config("1", n_total=600, seed=6))
        assert gen.train_arrays.n == 300 and gen.test_arrays.n == 300
        assert (gen.train_arrays.w == 1.0).all() and (gen.test_arrays.w == 1.0).all()

    def test_test_partition_by_label(self):
        gen = generate(default_config("1", n_total=600, seed=7))
        recent, longterm, _, _ = gen.test_arrays.case_masks()
        labeled = recent | longterm
        arrs = gen.test_arrays
        assert [(s <= 1) == (z == 0) for s, z in zip(arrs.s.tolist(), arrs.z.tolist())] == \
            labeled.tolist()
        assert 0 < labeled.sum() < gen.test_arrays.n
        # error-free reports: the latent-status set is the reported-unknown set
        np.testing.assert_array_equal(gen.test_latent, ~labeled)

    def test_deterministic_cells_respected(self):
        gen = generate(default_config("1", n_total=4000, seed=8))
        for arrs, ys in ((gen.train_arrays, gen.y_train), (gen.test_arrays, gen.y_test)):
            inside = arrs.s <= 1
            assert (arrs.z[inside & (ys == 0)] == 1).all()
            assert (arrs.z[~inside & (ys == 1)] == 0).all()

    def test_z_frequencies_track_p0(self):
        # binned empirical P(z=1 | s>1, y=0) within binomial noise of the model
        cfg = default_config("1", n_total=120_000, seed=9)
        gen = generate(cfg)
        ys = np.concatenate([gen.y_train, gen.y_test])
        s = np.concatenate([gen.train_arrays.s, gen.test_arrays.s])
        z = np.concatenate([gen.train_arrays.z, gen.test_arrays.z])
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
        np.testing.assert_array_equal(a.train_arrays.s, b.train_arrays.s)
        np.testing.assert_array_equal(a.train_arrays.z, b.train_arrays.z)

    def test_s5_perturbs_train_only(self):
        # both halves carry reporting error; the truth stays that of S1
        cfg1 = default_config("1", n_total=2000, seed=11)
        cfg5 = default_config("5", n_total=2000, seed=11)
        a, b = generate(cfg1), generate(cfg5)
        for clean, noisy in ((a.train_arrays, b.train_arrays), (a.test_arrays, b.test_arrays)):
            ds = noisy.s - clean.s
            clamped = noisy.s == pytest.approx(1.0 / 365.0)
            assert np.all((np.abs(ds) <= 1.0 / 6.0 + 1e-12) | clamped)
            flips = int((clean.z != noisy.z).sum())
            assert 0.01 <= flips / noisy.n <= 0.035
        np.testing.assert_array_equal(a.test_arrays.x, b.test_arrays.x)
        np.testing.assert_array_equal(a.y_test, b.y_test)
        np.testing.assert_array_equal(a.test_latent, b.test_latent)

    @pytest.mark.parametrize("scenario", ["1", "2"])
    def test_noise_misreports_in_any_scenario(self, scenario):
        # S1 with --noise simulated clean reports: only S5 honoured the setting
        clean = generate(default_config(scenario, n_total=1200, seed=16))
        noisy = generate(default_config(scenario, n_total=1200, seed=16, noise=(0.2, 0.05)))
        halves = ["train_arrays", "test_arrays"] + (["contingency_arrays"] if scenario == "2"
                                                    else [])
        for half in halves:
            a, b = getattr(clean, half), getattr(noisy, half)
            assert (a.s != b.s).any() and (a.z != b.z).any()
            np.testing.assert_array_equal(a.x, b.x)
        for truth in ("y_train", "y_test", "test_latent"):
            np.testing.assert_array_equal(getattr(clean, truth), getattr(noisy, truth))

    def test_s2_leak_takes_the_odn_column(self):
        # column 0 of S2 is logvl; the leak took it in every scenario
        clean = generate(default_config("2", n_total=30000, seed=17))
        leaky = generate(default_config("2", n_total=30000, seed=17, odn_in_z_coeff=0.5))
        for half in ("train_arrays", "test_arrays", "contingency_arrays"):
            a, b = getattr(clean, half), getattr(leaky, half)
            np.testing.assert_array_equal(a.s, b.s)
            moved = a.z != b.z
            assert moved.sum() > 10
            # the same uniforms: z rises where odn > 0 and falls where odn < 0
            np.testing.assert_array_equal(np.sign(b.x[moved, 1]), (b.z - a.z)[moved])

    def test_s6_log_density_ratio_is_linear_tilt(self):
        cfg = default_config("6", n_total=200_000, seed=12)
        gen = generate(cfg)
        s = gen.train_arrays.s
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
        ys = np.concatenate([gen.y_train, gen.y_test])
        x = np.concatenate([gen.train_arrays.x[:, 0], gen.test_arrays.x[:, 0]])
        s = np.concatenate([gen.train_arrays.s, gen.test_arrays.s])
        z = np.concatenate([gen.train_arrays.z, gen.test_arrays.z])
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
        res = fit(gen.train_arrays, spec)
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
        assert gen.train_arrays.x.shape[1] == 2
        assert gen.solved_beta0 is not None


@pytest.mark.parametrize("scenario, spec", [
    ("1", SPEC), ("2", ModelSpec(("logvl", "odn"))), ("6", ModelSpec(("odn",), extended=True)),
    ("7", ModelSpec(("odn",), z_model_covariate="odn", fix_eta00=None)),
])
def test_truth_map_names_the_spec_parameters(scenario, spec):
    cfg = default_config(scenario)
    truth = simulation._truth_map(cfg, spec, solved_beta0=-1.5)
    assert tuple(truth) == spec.param_names
    assert [truth["beta0"], *(truth[f"beta_{c}"] for c in spec.covariate_names)] == \
        [-1.5, *cfg.beta_true[1:]]
    assert [truth[name] for name in ("eta00", "eta01", "eta10", "eta11")] == list(cfg.eta_true)
    if spec.extended:
        assert (truth["psi0"], truth["psi1"]) == cfg.psi_true
    if spec.z_model_covariate:
        assert truth["eta_x"] == cfg.odn_in_z_coeff == 0.5


def test_truth_map_refuses_a_spec_of_other_covariates():
    with pytest.raises(ValueError, match="beta has 3 entries but spec expects 2"):
        simulation._truth_map(default_config("2"), SPEC)


@pytest.fixture(scope="module")
def small_summary():
    cfg = default_config("1", n_total=600, seed=15)
    return run_replicates(cfg, 8, SPEC)


class TestRunReplicates:
    def test_tiny_draws_leave_the_comparator_and_aggregates_empty(self):
        # 6 subjects per half.  In the first replicate the latent test
        # subjects are of one class, so the Type-2 AUC is NaN; in the second
        # the 2 labeled train subjects are, so the comparator has no fit.
        # No fit converges, so no parameter has an aggregate
        su = run_replicates(default_config("1", n_total=12, seed=0), 2, SPEC)
        first, second = su.replicates
        assert math.isnan(first["auc2"]) and first["lr_params"]
        assert second["lr_params"] == {} and math.isnan(second["auc_lr"])
        assert su.n_converged == 0 and su.params == {} and su.lr_params == {}

    def test_one_class_test_half_leaves_the_test_aucs_nan(self):
        # 4 subjects per half.  In the first replicate of each draw the test
        # subjects are of one class: the Type-1 and comparator AUCs are NaN,
        # as the Type-2 AUC is on its subset.  At seed 6 the comparator
        # still fits, and its E[Y] on the train half stands
        first = run_replicates(default_config("1", n_total=8, seed=1), 2, SPEC).replicates[0]
        assert all(math.isnan(first[key]) for key in ("auc1", "auc2", "auc_lr"))
        first = run_replicates(default_config("1", n_total=8, seed=6), 1, SPEC).replicates[0]
        assert math.isnan(first["auc1"]) and math.isnan(first["auc_lr"])
        assert first["lr_params"] and math.isfinite(first["lr_e_y"])

    def test_mc_se_needs_two_replicates(self):
        stats = simulation.ParamStats(truth=0.0, mean_estimate=0.1, mean_se=0.2, sd=0.3,
                                      coverage95=1.0, n=1)
        assert math.isnan(stats.mc_se)
        assert replace(stats, n=4).mc_se == pytest.approx(0.15)

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

    def test_non_integer_thread_count_is_named(self, monkeypatch):
        monkeypatch.setenv("RECENCY_THREADS", "abc")
        with pytest.raises(ValueError, match="^RECENCY_THREADS must be an integer, got 'abc'$"):
            run_replicates(default_config("1", n_total=400, seed=0), 1, SPEC)

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
                              np.random.default_rng(seed_seq)).test_arrays
        # latent-status subjects whose flipped z lands in a determined cell
        test = gen.test_arrays
        recent, longterm, _, _ = test.case_masks()
        flipped = gen.test_latent & (recent | longterm) & (test.z != clean_test.z)
        misreported = list(zip(test.s[flipped].tolist(), test.z[flipped].tolist()))
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
        assert all(pair in rows for pair in misreported)

    def test_replicate_builds_no_subject(self, monkeypatch):
        # the per-row records of GeneratedData.train / .test are never built
        calls = []
        original = simulation._rows

        def counting(arrs):
            calls.append(1)
            return original(arrs)

        monkeypatch.setattr(simulation, "_rows", counting)
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
