"""Exponential tilt, multiplier root-find, and profile likelihood."""

import math

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from fd_oracle import central_differences
from recency import densityratio
from recency.densityratio import (
    _profile_terms,
    _ProfileObjective,
    fit_extended,
    profile_log_likelihood,
    solve_mu,
    tilt,
)
from recency.estimation import SCORE_TOL, _evaluate, _sandwich, minimize
from recency.likelihood import log_pseudo_likelihood
from recency.model import ModelSpec, SubjectArrays, initial_theta
from recency.simulation import default_config, generate
from subjects import rows, subjects

SPEC_EXT = ModelSpec(covariate_names=("odn",), extended=True)


def random_subjects(rng, n, gamma=(0.8, 0.4)):
    return subjects(*zip(*[(rng.normal(size=1), float(rng.gamma(gamma[0], 1.0 / gamma[1])) + 1e-9,
                            int(rng.integers(2))) for _ in range(n)]))


class TestTilt:
    def test_zero_psi_is_identity(self):
        s = np.linspace(0.01, 20, 50)
        np.testing.assert_array_equal(tilt(s, (0.0, 0.0)), np.ones(50))

    def test_gamma_ratio_closed_form(self):
        # two gammas sharing a shape have exactly this tilt as density ratio
        a, r0, r1 = 1.7, 0.9, 0.4
        psi = (a * math.log(r1 / r0), r0 - r1)
        s = np.linspace(0.05, 12, 40)
        ratio = gamma_dist.pdf(s, a, scale=1 / r1) / gamma_dist.pdf(s, a, scale=1 / r0)
        np.testing.assert_allclose(tilt(s, psi), ratio, rtol=1e-12)

    def test_root_of_linear_exponent(self):
        assert tilt(0.5, (0.5, -1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_overflow_errors(self):
        with pytest.raises(OverflowError):
            tilt(100.0, (0.0, 10.0))


class TestSolveMu:
    def test_zero_psi_gives_empirical_weights(self):
        rng = np.random.default_rng(40)
        subs = random_subjects(rng, 25)
        sol = solve_mu((0.0, 0.0), subs)
        assert sol.feasible and sol.mu == 0.0
        np.testing.assert_allclose(sol.jumps, np.full(25, 1 / 25), rtol=1e-12)

    def test_root_matches_grid_search(self):
        subs = subjects(0.0, [0.5, 2.0] * 8, [0, 1] * 8)
        psi = (0.3, -0.3)
        sol = solve_mu(psi, subs)
        assert sol.feasible
        e = tilt(subs.s, psi)
        d = e - 1.0
        lo, hi = -1.0 / d.max(), -1.0 / d.min()
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 2_000_001)
        g = np.sum(d / (1.0 + np.outer(grid, d)), axis=1)
        best = grid[np.argmin(np.abs(g))]
        assert sol.mu == pytest.approx(best, abs=1e-6)

    def test_constraints_on_random_draws(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(100):
            subs = random_subjects(rng, int(rng.integers(10, 60)))
            psi = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.6, 0.6)))
            sol = solve_mu(psi, subs)
            if not sol.feasible:
                continue
            checked += 1
            assert abs(sol.residual_sum) <= 1e-10
            assert abs(sol.residual_tilt) <= 1e-8
            assert np.all(sol.jumps >= 0) and np.all(sol.jumps <= 1)
        assert checked >= 30  # plenty of draws land in the feasible cone

    def test_bracket_contains_mu(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            subs = random_subjects(rng, 40)
            psi = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.4, 0.4)))
            sol = solve_mu(psi, subs)
            if not sol.feasible:
                continue
            e = tilt(subs.s, psi)
            w = subs.w
            n = len(subs)
            u = (w - n) / (n * (e - 1.0))
            neg, pos = u[u < 0], u[u > 0]
            lo = neg.max() if neg.size else -math.inf
            hi = pos.min() if pos.size else math.inf
            assert lo - 1e-9 <= sol.mu <= hi + 1e-9

    def test_monotone_decreasing_g(self):
        rng = np.random.default_rng(43)
        subs = random_subjects(rng, 30)
        psi = (0.4, -0.35)
        e = tilt(subs.s, psi)
        d = e - 1.0
        w = np.ones(len(subs))
        lo, hi = -1.0 / d.max(), -1.0 / d.min()
        mus = np.linspace(lo + 1e-6, hi - 1e-6, 200)
        g = np.array([np.sum(w * d / (1 + m * d)) for m in mus])
        assert np.all(np.diff(g) < 0)

    def test_one_sided_tilt_is_infeasible_not_an_error(self):
        rng = np.random.default_rng(44)
        subs = random_subjects(rng, 20)
        sol = solve_mu((0.2, 0.1), subs)  # exponent positive for every s > 0
        assert not sol.feasible

    def test_overflowing_tilt_is_infeasible_not_an_error(self):
        rng = np.random.default_rng(44)
        subs = random_subjects(rng, 20)
        assert solve_mu((1000.0, 0.0), subs).feasible is False

    def test_root_within_the_padding_is_infeasible_not_an_error(self):
        # the subject with the largest tilt weighs 1e-300, so its pole term
        # is below the others' sum even 1e-12 of the bracket inside the
        # pole: g does not change sign between the padded ends
        subs = subjects(0.0, [0.5, 1.0, 2.0, 4.0], [0, 0, 1, 1], [4 / 3, 4 / 3, 4 / 3, 1e-300])
        sol = solve_mu((-1.0, 0.5), subs)
        assert sol.feasible is False and sol.mu == 0.0
        assert solve_mu((-1.0, 0.5), subjects(0.0, [0.5, 1.0, 2.0, 4.0], [0, 0, 1, 1])).feasible


class TestProfile:
    def test_reduces_to_basic_at_zero_psi(self):
        rng = np.random.default_rng(45)
        subs = random_subjects(rng, 60)
        theta = initial_theta(SPEC_EXT).with_free(
            np.array([0.4, -0.5, -0.4, -4.5, 0.0, 0.0]), SPEC_EXT)
        prof = profile_log_likelihood(subs, theta, SPEC_EXT)
        basic = log_pseudo_likelihood(subs, theta, SPEC_EXT)
        assert prof == pytest.approx(basic, abs=1e-10)

    def test_matches_explicit_jump_construction(self):
        # build the jumps directly and evaluate the full objective minus
        # the constant sum w*log(w/n)
        rng = np.random.default_rng(46)
        subs = random_subjects(rng, 10)
        theta = initial_theta(SPEC_EXT).with_free(
            np.array([0.3, -0.4, -0.5, -4.0, 0.25, -0.2]), SPEC_EXT)
        sol = solve_mu(tuple(theta.psi), subs)
        assert sol.feasible
        prof = profile_log_likelihood(subs, theta, SPEC_EXT)
        n = len(subs)
        explicit = 0.0
        for (x, s, z, w), p in zip(rows(subs), sol.jumps, strict=True):
            explicit += w * math.log(p)
            explicit += w * _case_term(x, s, z, theta)
        constant = sum(w * math.log(w / n) for _, _, _, w in rows(subs))
        assert prof == pytest.approx(explicit - constant, abs=1e-9)

    def test_infeasible_psi_is_minus_inf(self):
        rng = np.random.default_rng(47)
        subs = random_subjects(rng, 20)
        theta = initial_theta(SPEC_EXT).with_free(
            np.array([0.3, -0.4, -0.5, -4.0, 0.3, 0.2]), SPEC_EXT)
        assert profile_log_likelihood(subs, theta, SPEC_EXT) == -math.inf

    def test_overflowing_tilt_is_minus_inf(self):
        rng = np.random.default_rng(47)
        subs = random_subjects(rng, 20)
        theta = initial_theta(SPEC_EXT).with_free(
            np.array([0.3, -0.4, -0.5, -4.0, 1000.0, 0.0]), SPEC_EXT)
        assert profile_log_likelihood(subs, theta, SPEC_EXT) == -math.inf

    @pytest.mark.parametrize("loglik", [profile_log_likelihood, log_pseudo_likelihood],
                             ids=["profile", "pseudo"])
    def test_nan_term_is_named(self, loglik):
        # both likelihoods share one rule for a non-finite term; numpy's own
        # warning on the NaN input is silenced so that the rule is reached
        rng = np.random.default_rng(49)
        subs = random_subjects(rng, 10)
        theta = initial_theta(SPEC_EXT).with_free(
            np.array([math.nan, -0.4, -0.5, -4.0, 0.0, 0.0]), SPEC_EXT)
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError, match=r"^non-finite likelihood term at subject index 0$"):
            loglik(subs, theta, SPEC_EXT)

    def test_unscaled_weights_are_the_fits_named_error(self):
        # with weights summing to 2n every psi used to be infeasible, and
        # the profile likelihood -inf, with no word on the cause
        rng = np.random.default_rng(50)
        subs = random_subjects(rng, 20)
        doubled = subjects(subs.x, subs.s, subs.z, 2.0)
        theta = initial_theta(SPEC_EXT).with_free(
            np.array([0.3, -0.4, -0.5, -4.0, 0.25, -0.2]), SPEC_EXT)
        assert solve_mu(theta.psi, subs).feasible
        for call in (lambda: solve_mu(theta.psi, doubled),
                     lambda: profile_log_likelihood(doubled, theta, SPEC_EXT),
                     lambda: fit_extended(doubled, SPEC_EXT)):
            with pytest.raises(ValueError, match=r"^weights sum to 40\.000000 but must equal "
                                                 r"the subject count 20; rescale them"):
                call()

    def test_requires_extended_spec(self):
        rng = np.random.default_rng(48)
        subs = random_subjects(rng, 10)
        theta = initial_theta(SPEC_EXT)
        with pytest.raises(ValueError):
            profile_log_likelihood(subs, theta, ModelSpec(covariate_names=("odn",)))


def feasible_points(rng, arrs, count):
    """Random (theta, psi) free vectors whose psi is feasible with mu != 0."""
    points = []
    while len(points) < count:
        free = np.array([rng.normal(0.5, 0.5), rng.normal(-0.5, 0.5),
                         rng.normal(-0.6, 0.3), rng.normal(-4.5, 1.0),
                         rng.uniform(-0.8, 0.8), rng.uniform(-0.6, 0.6)])
        sol = solve_mu(free[4:], arrs)
        if sol.feasible and sol.mu != 0.0:
            points.append(free)
    return points


class TestProfileScore:
    """Envelope gradient and implicit-function per-subject scores against
    central differences of the profile values, and the profile Hessian
    against central differences of the gradient."""

    def setup_method(self):
        rng = np.random.default_rng(90)
        self.arrs = random_subjects(rng, 50)
        self.template = initial_theta(SPEC_EXT)
        self.obj = _ProfileObjective(self.arrs, self.template, SPEC_EXT)
        self.points = feasible_points(rng, self.arrs, 5)

    def test_gradient_matches_finite_differences(self):
        for free in self.points:
            an = self.obj.gradient(free)
            fd = central_differences(
                lambda v: profile_log_likelihood(
                    self.arrs, self.template.with_free(v, SPEC_EXT), SPEC_EXT),
                free)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_contributions_match_finite_differences(self):
        for free in self.points:
            m = self.obj.contribution_jacobian(free)
            fd = central_differences(
                lambda v: self.arrs.w * _profile_terms(
                    self.obj.kd, self.arrs, self.template.with_free(v, SPEC_EXT))[0],
                free)
            assert np.max(np.abs(m - fd) / (1.0 + np.abs(m))) < 1e-6

    def test_columns_sum_to_gradient(self):
        for free in self.points:
            total = self.obj.gradient(free)
            m = self.obj.contribution_jacobian(free)
            assert np.max(np.abs(m.sum(axis=0) - total) / (1.0 + np.abs(total))) < 1e-12

    def test_hessian_matches_finite_differences(self):
        for free in self.points:
            an = self.obj.hessian(free)
            fd = central_differences(self.obj.gradient, free)
            np.testing.assert_array_equal(an, an.T)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_infeasible_psi_gives_nan_gradient(self):
        # the objective raises; the loop's evaluation makes the gradient NaN
        free = np.array([0.3, -0.4, -0.5, -4.0, 0.3, 0.2])
        with pytest.raises(FloatingPointError):
            self.obj.gradient(free)
        _, grad, _ = _evaluate(self.obj.value_and_gradient, free)
        assert grad.shape == (6,) and np.isnan(grad).all()

    @pytest.mark.parametrize("psi", [(0.3, 0.2), (0.0, 800.0)], ids=["infeasible", "overflow"])
    def test_hessian_raises_where_psi_is_not_usable(self, psi):
        # so do the scores and the gradient
        free = np.array([0.3, -0.4, -0.5, -4.0, *psi])
        with pytest.raises(FloatingPointError):
            self.obj.hessian(free)
        with pytest.raises(FloatingPointError):
            self.obj.contribution_jacobian(free)
        with pytest.raises(FloatingPointError):
            self.obj.gradient(free)


class TestOnePassObjective:
    """The trust-region objective's one root-find and kernel pass against
    the separate value and gradient."""

    def setup_method(self):
        rng = np.random.default_rng(91)
        self.arrs = random_subjects(rng, 50)
        self.template = initial_theta(SPEC_EXT)
        self.points = feasible_points(rng, self.arrs, 5)

    def test_matches_value_and_gradient_exactly(self):
        merged = _ProfileObjective(self.arrs, self.template, SPEC_EXT)
        separate = _ProfileObjective(self.arrs, self.template, SPEC_EXT)
        for free in self.points:
            value, grad = merged.value_and_gradient(free)
            assert value == separate.value(free)
            np.testing.assert_array_equal(grad, -separate.gradient(free))
        assert merged.max_residuals == separate.max_residuals
        assert merged.rejections == separate.rejections == 0

    def test_infeasible_psi_is_one_rejection(self):
        # the objective counts it and raises; the loop's evaluation makes it inf
        obj = _ProfileObjective(self.arrs, self.template, SPEC_EXT)
        value, grad, _ = _evaluate(obj.value_and_gradient,
                                   np.array([0.3, -0.4, -0.5, -4.0, 0.3, 0.2]))
        assert value == math.inf
        assert grad.shape == (6,) and np.isnan(grad).all()
        assert obj.rejections == 1

    def test_one_root_find_per_evaluation(self, monkeypatch):
        # one solve_mu per distinct point, shared by the value/gradient and,
        # at an accepted point, the Hessian
        roots, per_point = [], {}
        asked = {"value_and_gradient": set(), "hess": set()}
        solve = densityratio.solve_mu

        def counted_solve(*args):
            roots.append(1)
            return solve(*args)

        def counted(method):
            original = getattr(_ProfileObjective, method)

            def wrapper(self, free):
                before = len(roots)
                out = original(self, free)
                key = tuple(free)
                per_point[key] = per_point.get(key, 0) + len(roots) - before
                asked[method].add(key)
                return out

            monkeypatch.setattr(_ProfileObjective, method, wrapper)

        monkeypatch.setattr(densityratio, "solve_mu", counted_solve)
        counted("value_and_gradient")
        counted("hess")
        fit_extended(generate(default_config("6", n_total=1000, seed=5)).train_arrays, SPEC_EXT)
        assert len(per_point) > 5 and set(per_point.values()) == {1}
        assert asked["hess"] <= asked["value_and_gradient"]

    def test_one_tilt_per_root_find(self, monkeypatch):
        # the objective reads e, d and 1 + mu d off the tilt solution
        calls = {"tilt": 0, "solve_mu": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(densityratio, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(densityratio, name, counted)
        fit_extended(generate(default_config("6", n_total=1000, seed=5)).train_arrays, SPEC_EXT)
        assert calls["solve_mu"] > 5 and calls["tilt"] == calls["solve_mu"]


def _case_term(x, s, z, theta):
    from recency.model import logistic
    pi = logistic(theta.beta[0] + float(x @ theta.beta[1:]))
    p0 = logistic(theta.eta[0] + theta.eta[1] * (s - 1))
    p1 = logistic(theta.eta[2] + theta.eta[3] * (s - 1))
    e = math.exp(theta.psi[0] + theta.psi[1] * s)
    if s <= 1 and z == 0:
        return math.log(pi * e * (1 - p1))
    if s > 1 and z == 1:
        return math.log((1 - pi) * p0)
    if s <= 1 and z == 1:
        return math.log(1 - pi + pi * e * p1)
    return math.log((1 - pi) * (1 - p0) + pi * e)


class TestFitExtended:
    def test_requires_an_extended_spec(self):
        arrs = generate(default_config("6", n_total=200, seed=3)).train_arrays
        with pytest.raises(ValueError, match="^fit_extended requires spec.extended$"):
            fit_extended(arrs, ModelSpec(covariate_names=("odn",)))

    def test_weights_that_pass_leave_psi_zero_feasible(self):
        # the jumps sum to sum(w) / n at every tilt, so weights off by 5e-7
        # at n = 2000 leave no tilt feasible: they are the named error, and
        # weights the rule passes leave psi = 0 feasible
        arrs = generate(default_config("6", n_total=4000, seed=3)).train_arrays
        w = arrs.w.copy()
        w[0] += 5e-7
        with pytest.raises(ValueError, match=r"^weights sum to 2000\.00000050 but must equal "
                                             r"the subject count 2000; rescale them"):
            fit_extended(SubjectArrays(x=arrs.x, s=arrs.s, z=arrs.z, w=w), SPEC_EXT)
        w[0] = 1.0 + 5e-8
        shifted = SubjectArrays(x=arrs.x, s=arrs.s, z=arrs.z, w=w)
        assert solve_mu(np.zeros(2), shifted).feasible
        res = fit_extended(shifted, SPEC_EXT)
        assert res.converged and isinstance(res.mu, float)

    def test_probe_trial_past_the_sum_bound_is_evaluated_alone(self):
        # a subject long-term by its history at s = 3e306: at the optimum
        # its tilt exponent is -2.6e305, and the flatness probe's eta01 + 5
        # trial makes its long-term branch -inf, so its term is that
        # exponent, past the exact sums' bound.  The trial is evaluated on
        # its own, and the fit settles.  At s = 1e308 the psi1 trials'
        # psi1 * s overflows too: +inf makes the tilt infeasible, and -inf
        # is a tilt of 0, with no warning
        arrs = generate(default_config("1", n_total=600, seed=1)).train_arrays
        for s0 in (3e306, 1e308):
            s, z = arrs.s.copy(), arrs.z.copy()
            s[0], z[0] = s0, 0
            res = fit_extended(SubjectArrays(x=arrs.x, s=s, z=z, w=arrs.w), SPEC_EXT)
            assert res.converged and res.iterations == 11
            assert res.estimates()["psi1"] == pytest.approx(-0.0863, abs=1e-4)

    def test_fit_delegates_for_extended_specs(self):
        from recency.estimation import fit as fit_entry
        gen = generate(default_config("1", n_total=800, seed=51))
        via_fit = fit_entry(gen.train_arrays, SPEC_EXT)
        direct = fit_extended(gen.train_arrays, SPEC_EXT)
        assert via_fit.log_pl == direct.log_pl
        assert via_fit.free_names == direct.free_names
        assert via_fit.mu == direct.mu

    def test_mu_is_the_multiplier_at_the_optimum(self):
        arrs = generate(default_config("6", n_total=2000, seed=71)).train_arrays
        ext = fit_extended(arrs, SPEC_EXT)
        assert ext.mu is not None
        assert ext.mu == solve_mu(ext.theta_hat.psi, arrs).mu

    def test_nests_basic_fit(self):
        gen = generate(default_config("1", n_total=1200, seed=50))
        from recency.estimation import fit
        basic = fit(gen.train_arrays, ModelSpec(covariate_names=("odn",)))
        ext = fit_extended(gen.train_arrays, SPEC_EXT)
        assert ext.log_pl >= basic.log_pl - 1e-8

    def test_null_tilt_recovery(self):
        # data generated without any tilt: psi_hat should be near zero
        hits = 0
        for seed in (60, 61, 62):
            gen = generate(default_config("1", n_total=3000, seed=seed))
            ext = fit_extended(gen.train_arrays, SPEC_EXT)
            est = ext.estimates()
            ses = dict(zip(ext.free_names, ext.se))
            if (abs(est["psi0"]) <= 2.5 * ses["psi0"]
                    and abs(est["psi1"]) <= 2.5 * ses["psi1"]):
                hits += 1
        assert hits >= 2

    def test_recovers_generating_tilt(self):
        # a small share of draws legitimately flag a flat eta01 direction;
        # take the first converged fit among a few seeds
        for seed in (70, 71, 72):
            cfg = default_config("6", n_total=4000, seed=seed)
            gen = generate(cfg)
            ext = fit_extended(gen.train_arrays, SPEC_EXT)
            if ext.converged:
                break
        assert ext.converged
        est = ext.estimates()
        ses = dict(zip(ext.free_names, ext.se))
        psi0_t, psi1_t = cfg.psi_true
        assert abs(est["psi0"] - psi0_t) <= 3 * ses["psi0"]
        assert abs(est["psi1"] - psi1_t) <= 3 * ses["psi1"]

    def test_constraint_residuals_tracked(self):
        gen = generate(default_config("6", n_total=2000, seed=71))
        ext = fit_extended(gen.train_arrays, SPEC_EXT)
        r_sum, r_tilt = ext.constraint_residuals
        assert r_sum <= 1e-10 and r_tilt <= 1e-8

    def test_converged_flag_and_se_rest_on_the_exact_gradient(self):
        # a finite-difference profile gradient read 1e-8 at this replicate's
        # reported optimum, where the exact gradient is 3.5e-5 on psi1
        gen = generate(default_config("6", n_total=4000, seed=3))
        ext = fit_extended(gen.train_arrays, SPEC_EXT)
        assert ext.converged
        x_hat = ext.theta_hat.free_values(SPEC_EXT)
        obj = _ProfileObjective(gen.train_arrays, ext.theta_hat, SPEC_EXT)
        assert np.max(np.abs(obj.gradient(x_hat))) < SCORE_TOL
        # a central-difference information gives the same SEs
        jac = central_differences(obj.gradient, x_hat)
        cov = _sandwich(obj.contribution_jacobian(x_hat), 0.5 * (jac + jac.T), ext.free_names)
        np.testing.assert_allclose(np.sqrt(np.diag(cov)), ext.se, rtol=1e-4)

    def test_se_match_small_step_oracle(self):
        # a converged replicate of the sim6_extended acceptance fixture whose
        # psi block reaches 1.4e7: a finite-difference information with the
        # default step erred there by 0.8 % in the psi1 SE
        cfg = default_config("6", n_total=4000, seed=99)
        gen = generate(cfg, np.random.default_rng(np.random.SeedSequence(99).spawn(40)[10]))
        ext = fit_extended(gen.train_arrays, SPEC_EXT)
        assert ext.converged
        x_hat = ext.theta_hat.free_values(SPEC_EXT)
        obj = _ProfileObjective(gen.train_arrays, ext.theta_hat, SPEC_EXT)
        jac = central_differences(obj.gradient, x_hat, h_rel=1e-7)
        cov = _sandwich(obj.contribution_jacobian(x_hat), 0.5 * (jac + jac.T), ext.free_names)
        np.testing.assert_allclose(ext.se, np.sqrt(np.diag(cov)), rtol=1e-5, atol=0)

    def test_fixture_replicate_reaches_the_positive_cone_optimum(self):
        # replicate 32 of the sim6_extended acceptance fixture: a BFGS run
        # from eta01 = 0 ended in the negative tilt cone, not converged, at
        # log-likelihood -1064.669957
        cfg = default_config("6", n_total=4000, seed=99)
        seed = np.random.SeedSequence(99).spawn(40)[32]
        ext = fit_extended(generate(cfg, np.random.default_rng(seed)).train_arrays, SPEC_EXT)
        assert ext.converged
        assert ext.log_pl == pytest.approx(-1043.566262, abs=1e-6)
        assert ext.estimates()["psi0"] > 0.0

    def test_strong_tilt_replicate_recovers_the_tilt(self):
        # a BFGS run flagged this replicate converged at psi0 = -0.051
        # (truth 0.684), log-likelihood -1096.540475
        cfg = default_config("6", n_total=4000, seed=5, s_gamma=(0.60, 0.08, 0.25))
        seed = np.random.SeedSequence(5).spawn(15)[4]
        ext = fit_extended(generate(cfg, np.random.default_rng(seed)).train_arrays, SPEC_EXT)
        assert ext.converged
        assert ext.log_pl == pytest.approx(-1048.121993, abs=1e-6)
        est = ext.estimates()
        ses = dict(zip(ext.free_names, ext.se))
        for name, truth in zip(("psi0", "psi1"), cfg.psi_true):
            assert abs(est[name] - truth) <= 3 * ses[name]

    @pytest.mark.parametrize("seed", range(5))
    def test_scaled_region_matches_the_sphere_in_fewer_steps(self, seed, monkeypatch):
        # near the tilt cone's edge the profile's psi curvature is ~1e4 times
        # the others': on the sphere |p| <= radius, rejected psi steps
        # collapse the radius and these fits take 16-18 steps
        arrs = generate(default_config("6", n_total=4000, seed=seed)).train_arrays
        ext = fit_extended(arrs, SPEC_EXT)
        monkeypatch.setattr(_ProfileObjective, "run", lambda self, start, maxiter: minimize(
            self.value_and_gradient, start, self.hess, maxiter=maxiter))
        sphere = fit_extended(arrs, SPEC_EXT)
        assert ext.converged and sphere.converged
        assert ext.iterations <= 12 < sphere.iterations
        x, x_sphere = (fit.theta_hat.free_values(SPEC_EXT) for fit in (ext, sphere))
        assert np.all(np.abs(x - x_sphere) <= 1e-6 * sphere.se)

    def test_newton_polish_finishes_a_stalled_point(self):
        arrs = generate(default_config("6", n_total=4000, seed=3)).train_arrays
        ext = fit_extended(arrs, SPEC_EXT)
        x_hat = ext.theta_hat.free_values(SPEC_EXT)
        obj = _ProfileObjective(arrs, ext.theta_hat, SPEC_EXT)
        start = x_hat + 1e-4 * np.arange(1, x_hat.size + 1) / x_hat.size
        assert np.max(np.abs(obj.gradient(start))) > 1.0
        res = obj.newton_polish(start)
        x_pol, ll_pol = res.x, -res.fun
        assert np.max(np.abs(obj.gradient(x_pol))) < SCORE_TOL
        assert ll_pol >= ext.log_pl - 1e-8
        np.testing.assert_allclose(x_pol, x_hat, rtol=0, atol=1e-6)

    def test_all_labels_known_ends_flagged_without_warnings(self):
        # cells I and II only: no mixture term ties the tilt down, so it runs
        # out until 1 + mu d squared overflows and the trust step's |p|
        # reaches 0.  The fit must end flagged, not raise one of the suite's
        # RuntimeWarning errors
        arrs = generate(default_config("1", n_total=2000, seed=3)).train_arrays
        labeled = arrs.subset((arrs.s <= 1.0) != (arrs.z == 1))
        assert not fit_extended(labeled, SPEC_EXT).converged

    @pytest.mark.parametrize("n", [200, 1])
    def test_single_s_value_ends_flagged_without_warnings(self, n):
        # every s equal: each cone start's tilt exponent is 0, so d = 0 and
        # g_mu = 0, and the profile scores' dmu = -g_psi / g_mu is not
        # finite.  The start must be rejected without a RuntimeWarning
        arrs = generate(default_config("6", n_total=400, seed=2)).train_arrays
        flat = SubjectArrays(x=arrs.x[:n], s=np.full(n, 2.0), z=arrs.z[:n], w=arrs.w[:n])
        assert not fit_extended(flat, SPEC_EXT).converged
