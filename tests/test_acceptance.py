"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion before asserting, so a
full run always reports the complete scoreboard.  The expensive
replicate studies are module-scoped fixtures shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from recency.densityratio import profile_log_likelihood, solve_mu, tilt
from recency.estimation import fit
from recency.glm import fit_weighted_logistic
from recency.likelihood import log_pseudo_likelihood, score
from recency.model import ModelSpec, initial_theta, logistic
from recency.prediction import type2_risk
from recency.simulation import default_config, run_replicates
from subjects import subjects

SPEC = ModelSpec(covariate_names=("odn",))
SPEC_EXT = ModelSpec(covariate_names=("odn",), extended=True)
BETA_TRUE = (0.95, -0.53)
ETA_TRUE = (7.0, -0.62, -7.0, -5.71)


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def check(failures, ok, message):
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def sim1():
    t0 = time.perf_counter()
    summary = run_replicates(default_config("1", n_total=2000, seed=4), 500, SPEC)
    summary.elapsed = time.perf_counter() - t0
    return summary


@pytest.fixture(scope="module")
def sim5():
    return run_replicates(default_config("5", n_total=2000, seed=777), 300, SPEC)


@pytest.fixture(scope="module")
def sim6_basic():
    return run_replicates(default_config("6", n_total=4000, seed=99), 40, SPEC)


@pytest.fixture(scope="module")
def sim6_extended():
    return run_replicates(default_config("6", n_total=4000, seed=99), 40, SPEC_EXT)


@pytest.fixture(scope="module")
def sim7():
    return run_replicates(default_config("7", n_total=2000, seed=778), 200, SPEC)


class TestCriterion1:
    def test_sim1_reproduces_reported_table(self, sim1):
        f = []
        p = sim1.params
        check(f, abs(p["beta0"].mean_estimate - 0.95) <= 0.05,
              f"beta0 mean {p['beta0'].mean_estimate:.3f} not within 0.05 of 0.95")
        check(f, abs(p["beta_odn"].mean_estimate + 0.53) <= 0.05,
              f"beta_odn mean {p['beta_odn'].mean_estimate:.3f} not within 0.05 of -0.53")
        check(f, abs(p["eta01"].mean_estimate + 0.62) <= 0.10,
              f"eta01 mean {p['eta01'].mean_estimate:.3f} not within 0.1 of -0.62")
        check(f, abs(p["eta11"].mean_estimate + 5.71) <= 0.50,
              f"eta11 mean {p['eta11'].mean_estimate:.3f} not within 0.5 of -5.71")
        for name, ps in p.items():
            check(f, 0.91 <= ps.coverage95 <= 0.98,
                  f"{name} coverage {ps.coverage95:.3f} outside [0.91, 0.98]")
        lr = sim1.lr_params["beta0"]
        check(f, abs(lr.mean_estimate - 0.47) <= 0.03,
              f"logistic beta0 mean {lr.mean_estimate:.3f} not within 0.03 of 0.47")
        check(f, lr.coverage95 < 0.05,
              f"logistic beta0 coverage {lr.coverage95:.3f} not < 0.05")
        check(f, abs(sim1.labeled_train_mean - 418) <= 15,
              f"labeled train mean {sim1.labeled_train_mean:.1f} not within 15 of 418")
        check(f, sim1.elapsed < 300,
              f"500 replicates took {sim1.elapsed:.0f}s (target < 300s)")
        ok = report(
            1, not f,
            f"beta0 {p['beta0'].mean_estimate:.3f}, beta_odn {p['beta_odn'].mean_estimate:.3f}, "
            f"eta01 {p['eta01'].mean_estimate:.3f}, eta11 {p['eta11'].mean_estimate:.3f}, "
            f"coverages {[round(ps.coverage95, 3) for ps in p.values()]}, "
            f"LR beta0 {lr.mean_estimate:.3f} (cov {lr.coverage95:.3f}), "
            f"labeled {sim1.labeled_train_mean:.1f}, {sim1.elapsed:.0f}s",
        )
        assert ok, "; ".join(f)


class TestCriterion2:
    def test_auc_and_recency_rate_targets(self, sim1):
        f = []
        check(f, abs(sim1.auc_type1 - 0.64) <= 0.02,
              f"type-1 AUC {sim1.auc_type1:.4f} not within 0.02 of 0.64")
        check(f, abs(sim1.auc_logistic - 0.64) <= 0.02,
              f"logistic AUC {sim1.auc_logistic:.4f} not within 0.02 of 0.64")
        check(f, abs(sim1.auc_type2 - 0.98) <= 0.01,
              f"type-2 AUC {sim1.auc_type2:.4f} not within 0.01 of 0.98")
        check(f, abs(sim1.e_y_mean - 0.71) <= 0.02,
              f"E(Y) mean {sim1.e_y_mean:.4f} not within 0.02 of 0.71")
        check(f, abs(sim1.e_y_sd - 0.02) <= 0.01,
              f"E(Y) sd {sim1.e_y_sd:.4f} not near 0.02")
        ok = report(2, not f,
                    f"AUC1 {sim1.auc_type1:.3f}, AUC(LR) {sim1.auc_logistic:.3f}, "
                    f"AUC2 {sim1.auc_type2:.3f}, E(Y) {sim1.e_y_mean:.3f} (sd {sim1.e_y_sd:.3f})")
        assert ok, "; ".join(f)


class TestCriterion3:
    def test_sim5_reporting_error_robustness(self, sim5):
        f = []
        check(f, abs(sim5.auc_type2 - 0.94) <= 0.02,
              f"type-2 AUC {sim5.auc_type2:.4f} not within 0.02 of 0.94")
        check(f, abs(sim5.e_y_mean - 0.71) <= 0.03,
              f"E(Y) {sim5.e_y_mean:.4f} not within 0.03 of 0.71")
        shifted = [name for name, ps in sim5.params.items()
                   if abs(ps.mean_estimate - ps.truth) > 2 * ps.mc_se]
        check(f, bool(shifted), "no parameter shifted by > 2 MC-SE under reporting error")
        ok = report(3, not f,
                    f"AUC2 {sim5.auc_type2:.4f}, E(Y) {sim5.e_y_mean:.3f}, "
                    f"shifted params {shifted}")
        assert ok, "; ".join(f)


class TestCriterion4:
    def test_sim6_basic_bias_extended_unbiased(self, sim6_basic, sim6_extended):
        f = []
        b0 = sim6_basic.params["beta0"]
        check(f, abs(b0.mean_estimate - 0.95) > 2 * b0.mc_se,
              f"basic beta0 bias {b0.mean_estimate - 0.95:+.4f} not > 2 MC-SE ({2 * b0.mc_se:.4f})")
        psi_true = default_config("6").psi_true
        truth = {"beta0": 0.95, "beta_odn": -0.53, "eta01": -0.62, "eta11": -5.71,
                 "psi0": psi_true[0], "psi1": psi_true[1]}
        zs = {}
        for name, ps in sim6_extended.params.items():
            zs[name] = (ps.mean_estimate - truth[name]) / ps.mc_se
            check(f, abs(ps.mean_estimate - truth[name]) <= 2 * ps.mc_se,
                  f"extended {name} mean {ps.mean_estimate:.4f} beyond 2 MC-SE of {truth[name]}")
        worst = (0.0, 0.0)
        for row in sim6_extended.replicates:
            r_sum, r_tilt = row["constraint_residuals"]
            worst = (max(worst[0], r_sum), max(worst[1], r_tilt))
        check(f, worst[0] <= 1e-10 and worst[1] <= 1e-8,
              f"constraint residuals {worst} exceed (1e-10, 1e-8)")
        ok = report(4, not f,
                    f"basic beta0 bias {b0.mean_estimate - 0.95:+.3f} "
                    f"({abs(b0.mean_estimate - 0.95) / b0.mc_se:.1f} MC-SEs), extended z-scores "
                    f"{ {k: round(v, 2) for k, v in zs.items()} }, "
                    f"max residuals ({worst[0]:.1e}, {worst[1]:.1e}), "
                    f"converged {sim6_extended.n_converged}/{sim6_extended.n_reps}")
        assert ok, "; ".join(f)


class TestCriterion5:
    def test_sim7_z_model_leak_is_benign(self, sim7):
        f = []
        ps = sim7.params["beta_odn"]
        bias = abs(ps.mean_estimate + 0.53)
        check(f, bias < 0.15, f"beta_odn bias {bias:.4f} not < 0.15")
        check(f, abs(sim7.e_y_mean - 0.71) <= 0.03,
              f"E(Y) {sim7.e_y_mean:.4f} not within 0.03 of 0.71")
        ok = report(5, not f,
                    f"beta_odn mean {ps.mean_estimate:.4f} (bias {bias:.3f}), "
                    f"E(Y) {sim7.e_y_mean:.3f}")
        assert ok, "; ".join(f)


def normalized(draws):
    """Subjects from (x, s, z, w) draws, weights rescaled to sum to n."""
    x, s, z, w = zip(*draws)
    total = sum(w)
    return subjects(x, s, z, [wi * len(draws) / total for wi in w])


class TestCriterion6:
    def test_fully_labeled_matches_independent_logistic(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(20):
            n = 500
            draws = []
            for _ in range(n):
                x = rng.normal(size=1)
                y = int(rng.random() < logistic(0.6 - 0.8 * x[0]))
                s = float(rng.uniform(0.05, 1.0)) if y else float(rng.uniform(1.05, 9.0))
                draws.append((x, s, 1 - y, float(rng.uniform(0.5, 2.0))))
            subs = normalized(draws)
            res = fit(subs, SPEC)
            oracle = fit_weighted_logistic(subs.x, subs.case_masks()[0].astype(int), subs.w)
            worst = max(worst, float(np.max(np.abs(res.theta_hat.beta - oracle.beta))))
        ok = report(6, worst <= 1e-6,
                    f"max |beta_pl - beta_irls| over 20 datasets = {worst:.2e} (tol 1e-6)")
        assert ok


class TestCriterion7:
    def test_analytic_score_matches_central_differences(self):
        rng = np.random.default_rng(707)
        worst = 0.0
        for k in range(50):
            extended = k % 3 == 2
            spec = SPEC_EXT if extended else SPEC
            subs = subjects(*zip(*[(rng.normal(size=1), float(rng.gamma(0.7, 3.0)) + 1e-6,
                                    int(rng.integers(2)), float(rng.uniform(0.5, 2.0)))
                                   for _ in range(50)]))
            free = np.concatenate([
                rng.normal([0.6, -0.5], 0.5),
                rng.normal([-0.6, -4.5], [0.3, 1.0]),
                rng.normal(0.0, 0.2, size=2) if extended else [],
            ])
            theta = initial_theta(spec).with_free(free, spec)
            an = score(subs, theta, spec)
            fd = np.empty_like(an)
            for j in range(free.size):
                h = 1e-6 * (1.0 + abs(free[j]))
                up, dn = free.copy(), free.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (log_pseudo_likelihood(subs, theta.with_free(up, spec), spec)
                         - log_pseudo_likelihood(subs, theta.with_free(dn, spec), spec)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(an - fd) / (1.0 + np.abs(an)))))
        ok = report(7, worst < 1e-6,
                    f"max relative score error over 50 points = {worst:.2e} (tol 1e-6)")
        assert ok


class TestCriterion8:
    def test_sandwich_se_tracks_replicate_sd(self, sim1):
        f = []
        gaps = {}
        for name, ps in sim1.params.items():
            gaps[name] = abs(ps.mean_se - ps.sd) / ps.sd
            check(f, gaps[name] <= 0.15,
                  f"{name}: |mean se - sd|/sd = {gaps[name]:.3f} exceeds 0.15")
        ok = report(8, not f, f"se/sd gaps { {k: round(v, 3) for k, v in gaps.items()} }")
        assert ok, "; ".join(f)


class TestCriterion9:
    def test_multiplier_constraints_and_profile_reduction(self):
        rng = np.random.default_rng(909)
        feasible_checked = 0
        worst_sum = worst_tilt = 0.0
        bracket_ok = True
        for _ in range(100):
            n = int(rng.integers(15, 80))
            subs = normalized([(rng.normal(size=1), float(rng.gamma(0.8, 2.5)) + 1e-9,
                                int(rng.integers(2)), float(rng.uniform(0.5, 2.0)))
                               for _ in range(n)])
            psi = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.6, 0.6)))
            sol = solve_mu(psi, subs)
            if not sol.feasible:
                continue
            feasible_checked += 1
            worst_sum = max(worst_sum, abs(sol.residual_sum))
            worst_tilt = max(worst_tilt, abs(sol.residual_tilt))
            e = tilt(subs.s, psi)
            u = (subs.w - n) / (n * (e - 1.0))
            neg, pos = u[u < 0], u[u > 0]
            lo = neg.max() if neg.size else -math.inf
            hi = pos.min() if pos.size else math.inf
            bracket_ok &= (lo - 1e-9) <= sol.mu <= (hi + 1e-9)

        prof_gap = 0.0
        for seed in range(5):
            rng2 = np.random.default_rng(1000 + seed)
            subs = subjects(*zip(*[(rng2.normal(size=1), float(rng2.gamma(0.8, 2.5)) + 1e-9,
                                    int(rng2.integers(2))) for _ in range(60)]))
            theta = initial_theta(SPEC_EXT).with_free(
                np.array([0.5, -0.4, -0.5, -4.5, 0.0, 0.0]), SPEC_EXT)
            prof = profile_log_likelihood(subs, theta, SPEC_EXT)
            basic = log_pseudo_likelihood(subs, theta, SPEC_EXT)
            prof_gap = max(prof_gap, abs(prof - basic))

        f = []
        check(f, feasible_checked >= 30, f"only {feasible_checked} feasible draws")
        check(f, worst_sum <= 1e-10, f"sum(p)-1 residual {worst_sum:.2e} exceeds 1e-10")
        check(f, worst_tilt <= 1e-8, f"tilt residual {worst_tilt:.2e} exceeds 1e-8")
        check(f, bracket_ok, "multiplier escaped the jump-bound bracket")
        check(f, prof_gap <= 1e-10, f"profile(psi=0) vs basic gap {prof_gap:.2e} exceeds 1e-10")
        ok = report(9, not f,
                    f"{feasible_checked} feasible instances, residuals "
                    f"({worst_sum:.1e}, {worst_tilt:.1e}), profile gap {prof_gap:.1e}")
        assert ok, "; ".join(f)


class TestCriterion10:
    def test_type2_matches_monte_carlo_posterior(self):
        theta = initial_theta(SPEC).with_packed(np.array([*BETA_TRUE, *ETA_TRUE]))
        rng = np.random.default_rng(1010)
        n = 1_000_000
        worst = 0.0
        cells = (
            [(float(s), 1, float(x)) for s, x in zip(
                np.linspace(0.08, 1.0, 10), np.linspace(-1.5, 1.5, 10))],
            [(float(s), 0, float(x)) for s, x in zip(
                np.linspace(1.05, 12.0, 10), np.linspace(1.5, -1.5, 10))],
        )
        # scored as one batch; the Monte Carlo draws run point by point
        points = [point for cell in cells for point in cell]
        s, z, x = zip(*points)
        risks = type2_risk(subjects(np.array(x)[:, None], s, z), theta, SPEC)
        for (s, z, x), closed in zip(points, risks.tolist(), strict=True):
            pi = logistic(BETA_TRUE[0] + BETA_TRUE[1] * x)
            y = rng.random(n) < pi
            if s <= 1.0:
                p1 = logistic(ETA_TRUE[2] + ETA_TRUE[3] * (s - 1.0))
                zs = np.where(y, rng.random(n) < p1, True)
            else:
                p0 = logistic(ETA_TRUE[0] + ETA_TRUE[1] * (s - 1.0))
                zs = np.where(y, False, rng.random(n) < p0)
            match = zs == bool(z)
            posterior = float(y[match].mean())
            worst = max(worst, abs(closed - posterior))
        ok = report(10, worst <= 0.01,
                    f"max |closed form - MC posterior| over 20 points = {worst:.4f} (tol 0.01)")
        assert ok


PHIA_NOTE = (
    "Real-data reproduction (recency rate 0.71 vs logistic 0.63) requires the "
    "survey extract; provide it via RECENCY_PHIA_CSV to enable this check."
)


@pytest.mark.skipif("not __import__('os').environ.get('RECENCY_PHIA_CSV')",
                    reason=PHIA_NOTE)
class TestConditionalRealData:
    def test_malawi_style_recency_rate(self):
        import dataclasses
        import os

        from recency.dataio import load, preprocess
        from recency.estimation import backward_stepwise
        from recency.prediction import recency_rate

        records = load(os.environ["RECENCY_PHIA_CSV"], phia_vl=True)
        arrays, _ = preprocess(records, seed=0,
                               covariates=("age", "gender", "odn", "logvl", "cd4"))
        names = ("age", "gender", "odn", "logvl", "cd4")
        selected = backward_stepwise(arrays, names, ModelSpec(covariate_names=names))
        e_y = recency_rate(
            dataclasses.replace(arrays, x=arrays.x[:, [names.index(c) for c in selected.selected]]),
            selected.fit.theta_hat, selected.fit.spec)
        assert abs(e_y - 0.71) <= 0.02
