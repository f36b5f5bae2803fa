"""Fitting, sandwich covariance, BIC, variants, and stepwise selection."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from recency import estimation, likelihood
from recency.estimation import (
    _NegObjective,
    backward_stepwise,
    compare_eta_variants,
    fit,
    fit_report,
    load_fit,
    sandwich_covariance,
)
from recency.glm import fit_weighted_logistic
from recency.likelihood import hessian, log_pseudo_likelihood, score
from recency.model import ModelSpec, SubjectArrays, initial_theta
from recency.simulation import default_config, generate
from subjects import subjects

SPEC = ModelSpec(covariate_names=("odn",))


def sim_train(seed, n_total=2000, **over):
    return generate(default_config("1", n_total=n_total, seed=seed, **over)).train_arrays


def concat(blocks):
    """The subjects of ``blocks`` (SubjectArrays) one after another."""
    return SubjectArrays(**{f: np.concatenate([getattr(b, f) for b in blocks])
                            for f in ("x", "s", "z", "w")})


def duplicated_covariate(arrs):
    """``arrs`` with its one covariate column repeated: two unidentified betas."""
    return replace(arrs, x=np.column_stack([arrs.x[:, 0], arrs.x[:, 0]]))


def fully_labeled(rng, n=300, c=1):
    draws = []
    for _ in range(n):
        x = rng.normal(size=c)
        y = int(rng.random() < 1 / (1 + math.exp(-(0.6 - 0.8 * x[0]))))
        s = float(rng.uniform(0.05, 1.0)) if y else float(rng.uniform(1.05, 9.0))
        draws.append((x, s, 1 - y))
    # unit weights already sum to n
    return subjects(*zip(*draws))


class TestFit:
    def test_weight_sum_enforced(self):
        subs = sim_train(0)
        bad = replace(subs, w=np.full(subs.n, 0.5))
        with pytest.raises(ValueError, match="rescale"):
            fit(bad, SPEC)

    def test_weight_sum_rule_is_relative(self):
        # |sum(w) - n| <= 5e-11 n, the rule the density-ratio fit needs:
        # at n = 1000, 2.5e-8 passes and 2e-7 does not
        subs = sim_train(0)
        for offset, passes in ((2.5e-8, True), (2e-7, False)):
            w = subs.w.copy()
            w[0] += offset
            if passes:
                assert fit(replace(subs, w=w), SPEC).converged
            else:
                with pytest.raises(ValueError, match=r"^weights sum to 1000\.0000002\d* but must"):
                    fit(replace(subs, w=w), SPEC)

    def test_duplicated_halved_weights_same_argmax(self):
        # duplicating every subject keeps the weights summing to the subject
        # count and doubles the objective, so the argmax stays put
        subs = sim_train(1, n_total=800)
        base = fit(subs, SPEC)
        dup = fit(concat([subs, subs]), SPEC)
        np.testing.assert_allclose(
            dup.theta_hat.free_values(SPEC), base.theta_hat.free_values(SPEC), atol=1e-8)
        assert dup.log_pl == pytest.approx(2.0 * base.log_pl, rel=1e-12)

    def test_weight_rescaling_invariance(self):
        # the kernel is linear in the weights, so a rescale scales the
        # objective and its score without moving the argmax
        subs = sim_train(2, n_total=800)
        base = fit(subs, SPEC)
        scaled = replace(subs, w=3.0 * subs.w)
        theta = base.theta_hat
        assert log_pseudo_likelihood(scaled, theta, SPEC) == pytest.approx(
            3.0 * base.log_pl, rel=1e-12)
        np.testing.assert_allclose(score(scaled, theta, SPEC), 3.0 * score(subs, theta, SPEC),
                                   rtol=1e-12, atol=1e-12)
        moved = theta.with_free(theta.free_values(SPEC) + 0.05, SPEC)
        assert log_pseudo_likelihood(scaled, moved, SPEC) == pytest.approx(
            3.0 * log_pseudo_likelihood(subs, moved, SPEC), rel=1e-12)

    def test_fully_labeled_matches_irls(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            subs = fully_labeled(rng)
            res = fit(subs, SPEC)
            lr = fit_weighted_logistic(subs.x, subs.case_masks()[0].astype(int), subs.w)
            assert np.max(np.abs(res.theta_hat.beta - lr.beta)) < 1e-6

    def test_deterministic(self):
        subs = sim_train(3, n_total=600)
        a = fit(subs, SPEC)
        b = fit(subs, SPEC)
        np.testing.assert_array_equal(a.theta_hat.pack(), b.theta_hat.pack())
        assert a.log_pl == b.log_pl

    def test_score_near_zero_at_optimum(self):
        subs = sim_train(4, n_total=600)
        res = fit(subs, SPEC)
        g = score(subs, res.theta_hat, SPEC)
        assert np.max(np.abs(g)) < 1e-6
        assert res.converged

    def test_bic_identity(self):
        subs = sim_train(5, n_total=600)
        res = fit(subs, SPEC)
        k = len(res.free_names)
        assert res.bic == pytest.approx(-2 * res.log_pl + k * math.log(res.n_subjects), rel=1e-12)


class TestBfgsObjective:
    """The fit's one-pass objective (now driving :func:`estimation.minimize`)
    against the separate value, score and Hessian."""

    def test_matches_value_and_score_exactly(self):
        rng = np.random.default_rng(19)
        arrs = sim_train(19, n_total=600)
        for spec in (SPEC,
                     ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None),
                     ModelSpec(covariate_names=("odn",), z_model_covariate="odn")):
            template = initial_theta(spec)
            objective = _NegObjective(arrs, template, spec)
            for _ in range(4):
                free = (template.free_values(spec)
                        + rng.normal(scale=0.5, size=len(spec.free_names())))
                theta = template.with_free(free, spec)
                value, grad = objective(free)
                assert value == -log_pseudo_likelihood(arrs, theta, spec)
                np.testing.assert_array_equal(grad, -score(arrs, theta, spec))
                np.testing.assert_array_equal(objective.hess(free), -hessian(arrs, theta, spec))

    def test_degenerate_theta_gives_inf_and_nan_gradient(self):
        # case IV with pi = 0 and p0 = 1: both branches are impossible
        spec = ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None)
        template = initial_theta(spec)
        arrs = subjects(0.0, 2.0, 0)
        free = np.array([-math.inf, 0.0, -5.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                score(arrs, template.with_free(free, spec), spec)
            value, grad = _NegObjective(arrs, template, spec)(free)
        assert value == math.inf
        assert grad.shape == (3,) and np.isnan(grad).all()

    def test_one_kernel_pass_per_evaluation(self, monkeypatch):
        # one _linear_pieces pass per distinct point the trust region
        # visits: the value, score and (at an accepted point) the Hessian
        # there share it
        passes, seen = [], {}
        pieces = likelihood._linear_pieces

        def counted_pieces(*args):
            passes.append(1)
            return pieces(*args)

        def counted(method, kind):
            def wrapper(self, free):
                before = len(passes)
                out = method(self, free)
                calls = seen.setdefault(free.tobytes(), {"passes": 0, "kinds": set()})
                calls["passes"] += len(passes) - before
                calls["kinds"].add(kind)
                return out
            return wrapper

        class Counted(_NegObjective):
            __call__ = counted(_NegObjective.__call__, "value")
            hess = counted(_NegObjective.hess, "hess")

        monkeypatch.setattr(likelihood, "_linear_pieces", counted_pieces)
        monkeypatch.setattr(estimation, "_NegObjective", Counted)
        assert fit(sim_train(20, n_total=600), SPEC).converged
        assert len(seen) > 3
        assert [calls["passes"] for calls in seen.values()] == [1] * len(seen)
        assert all("value" in calls["kinds"] for calls in seen.values())


class TestStalledStart:
    """A trust-region start that stops just short of the tolerance is
    finished by a short run of the same loop from its end point, not by
    restarts."""

    @staticmethod
    def stalling_minimize(monkeypatch, offset=1e-7):
        """Stall the first minimize run: move its end point off the optimum
        and report no success.  Returns the (start, end point) of each run."""
        runs = []
        real = estimation.minimize

        def stalled(fun, x0, *args, **kwargs):
            res = real(fun, x0, *args, **kwargs)
            if not runs:
                res.x = res.x + offset * np.arange(1, res.x.size + 1) / res.x.size
                res.success = False
            runs.append((np.array(x0, dtype=float), res.x))
            return res

        monkeypatch.setattr(estimation, "minimize", stalled)
        return runs

    def test_polish_replaces_restarts(self, monkeypatch):
        subs = sim_train(21, n_total=600)
        base = fit(subs, SPEC)
        assert base.converged
        runs = self.stalling_minimize(monkeypatch)
        stalled_start = fit(subs, SPEC)
        assert len(runs) == 2
        assert runs[1][0].tobytes() == runs[0][1].tobytes()
        assert stalled_start.converged
        assert stalled_start.score_sup_norm < estimation.SCORE_TOL
        # the unperturbed fit itself stops anywhere below the score
        # tolerance, one Newton step (here ~1e-7) short of the optimum
        base_free = base.theta_hat.free_values(SPEC)
        optimum = base_free - np.linalg.solve(hessian(subs, base.theta_hat, SPEC),
                                              score(subs, base.theta_hat, SPEC))
        np.testing.assert_allclose(stalled_start.theta_hat.free_values(SPEC), optimum,
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(stalled_start.theta_hat.free_values(SPEC), base_free, rtol=0,
                                   atol=1e-8 + np.max(np.abs(optimum - base_free)))
        assert stalled_start.log_pl == pytest.approx(base.log_pl, rel=1e-12)
        np.testing.assert_allclose(stalled_start.se, base.se, rtol=1e-6)

    def test_unidentified_model_stays_flagged(self, monkeypatch):
        dup = duplicated_covariate(sim_train(11, n_total=400))
        self.stalling_minimize(monkeypatch)
        assert not fit(dup, ModelSpec(covariate_names=("odn", "odn2"))).converged


class TestStarts:
    """The default start and the plateau guard."""

    @staticmethod
    def recorded_starts(monkeypatch, first=None):
        """The start of each minimize run; ``first``, when given, replaces
        the first run's start."""
        starts = []
        real = estimation.minimize

        def recording(fun, x0, *args, **kwargs):
            if first is not None and not starts:
                x0 = first
            starts.append(np.array(x0, dtype=float))
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(estimation, "minimize", recording)
        return starts

    def test_default_start_on_decreasing_side(self, monkeypatch):
        starts = self.recorded_starts(monkeypatch)
        subs = sim_train(22, n_total=600)
        fit(subs, SPEC)
        fit(subs, ModelSpec(covariate_names=("odn",), fix_eta00=None))
        np.testing.assert_array_equal(starts[0], [0.0, 0.0, -0.5, -5.0])
        np.testing.assert_array_equal(starts[1], [0.0, 0.0, 7.0, -0.5, -5.0])

    def test_plateau_guard_restarts_from_shallow_local_maximum(self, monkeypatch):
        # replicate 24 of the criterion-3 fixture has a shallow local
        # maximum (eta01 near +0.66, flat in eta01) whose score meets the
        # tolerance: scipy's trust-exact stopped there from eta01 = -0.5.
        # An attempt started there must not settle; the guard restarts
        # from eta01 = -1 and reaches the optimum
        shallow = [0.8843480034065995, -0.6224591639343868, 0.6579423027175805, -5.872254678438176]
        starts = self.recorded_starts(monkeypatch, first=np.array(shallow))
        config = default_config("5", n_total=2000, seed=777)
        seed = np.random.SeedSequence(777).spawn(300)[24]
        train = generate(config, np.random.default_rng(seed)).train_arrays
        res = fit(train, SPEC)
        assert len(starts) == 2 and starts[1][2] == -1.0
        assert res.converged
        assert res.log_pl == pytest.approx(-588.4907, abs=1e-4)
        assert res.estimates()["eta01"] == pytest.approx(-0.35, abs=0.01)


class TestExtremeInputs:
    """A valid SubjectArrays with extreme values ends in a flagged
    FitResult, with no exception and no warning.  The data are the S1
    seed-1 train half with subject 0 long-term by its history (z = 1) at
    an extreme s."""

    SPECS = [SPEC, ModelSpec(covariate_names=("odn",), fix_eta00=None),
             ModelSpec(covariate_names=("odn",), extended=True)]
    IDS = ["default", "free-eta00", "extended"]

    @staticmethod
    def train_with(s0):
        arrs = sim_train(1)
        s, z = arrs.s.copy(), arrs.z.copy()
        s[0], z[0] = s0, 1
        return replace(arrs, s=s, z=z)

    @staticmethod
    def quiet_fit(arrs, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fit(arrs, spec)
        assert [str(w.message) for w in caught] == []
        return res

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_score_past_the_float_range_leaves_no_finite_start(self, spec):
        # the subject's eta01 score is 1e200 at every start, and its square
        # overflows: no start is finite, so the fit is the flagged start
        # template with a NaN covariance
        res = self.quiet_fit(self.train_with(1e200), spec)
        assert not res.converged and res.iterations == 0
        assert res.log_pl == -math.inf and np.isnan(res.covariance).all()
        np.testing.assert_array_equal(res.theta_hat.pack(),
                                      estimation._default_start(spec).pack())
        if spec.extended:
            assert res.mu == 0.0   # psi = 0, where the jumps are w / n

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_steps_below_rounding_end_the_run(self, spec):
        # the likelihood turns from flat to a slope of 1e20 at eta01 ~ -7e-20:
        # the trust region shrinks until x + step rounds to x, where a run
        # stops, long before the radius is small enough for the trust
        # step's norms to underflow
        res = self.quiet_fit(self.train_with(1e20), spec)
        assert not res.converged and math.isfinite(res.log_pl)
        if spec.extended:
            assert isinstance(res.mu, float)


class TestSandwich:
    def test_se_shrinks_at_root_n(self):
        # rate check over the solidly identified beta block; the rare-event
        # slope SEs are too draw-dependent for a tight ratio assertion
        small_ses = [fit(sim_train(100 + s, n_total=2000), SPEC).se[:2] for s in range(4)]
        big_ses = []
        for u in range(2):
            big = concat([sim_train(200 + 4 * u + s) for s in range(4)])
            big_ses.append(fit(big, SPEC).se[:2])
        ratio = np.mean(small_ses, axis=0) / np.mean(big_ses, axis=0)
        # 4x the data should halve the standard errors, within 10%
        np.testing.assert_allclose(ratio, 2.0, rtol=0.10)

    def test_permutation_invariance(self):
        subs = sim_train(8, n_total=600)
        res = fit(subs, SPEC)
        rng = np.random.default_rng(0)
        perm = subs.subset(rng.permutation(subs.n))
        cov_a = sandwich_covariance(subs, res.theta_hat, SPEC)
        cov_b = sandwich_covariance(perm, res.theta_hat, SPEC)
        np.testing.assert_allclose(cov_a, cov_b, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fit_is_byte_identical_under_permutation(self, seed):
        # every sum over subjects, the sandwich's meat included, is
        # correctly rounded: the subjects' order cannot move a bit
        subs = sim_train(seed)
        perm = subs.subset(np.random.default_rng(seed).permutation(subs.n))
        res, res_perm = fit(subs, SPEC), fit(perm, SPEC)
        assert res.theta_hat.pack().tobytes() == res_perm.theta_hat.pack().tobytes()
        assert res.log_pl == res_perm.log_pl
        assert res.covariance.tobytes() == res_perm.covariance.tobytes()

    def test_psd_and_symmetric(self):
        subs = sim_train(9, n_total=600)
        res = fit(subs, SPEC)
        cov = res.covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12

    def test_warns_away_from_stationarity(self):
        subs = sim_train(10, n_total=600)
        theta = initial_theta(SPEC)
        with pytest.warns(UserWarning, match="stationary"):
            sandwich_covariance(subs, theta, SPEC)

    def test_fit_hides_only_the_stationarity_warning(self, monkeypatch):
        sandwich = estimation._sandwich

        def noisy(*args):
            warnings.warn("sandwich evaluated away from a stationary point (test)", UserWarning)
            warnings.warn("overflow in the meat (test)", RuntimeWarning)
            return sandwich(*args)

        monkeypatch.setattr(estimation, "_sandwich", noisy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(sim_train(10, n_total=600), SPEC)
        assert [str(w.message) for w in caught] == ["overflow in the meat (test)"]

    def test_singular_information_names_parameter(self):
        # duplicated covariate column: beta_odn and beta_odn2 unidentified
        dup = duplicated_covariate(sim_train(11, n_total=400))
        spec = ModelSpec(covariate_names=("odn", "odn2"))
        res = fit(dup, spec)
        assert not res.converged  # flagged via failed covariance
        with pytest.raises(np.linalg.LinAlgError, match="beta_odn"):
            sandwich_covariance(dup, res.theta_hat, spec)


class TestEtaVariants:
    def test_four_variants_and_nesting(self):
        subs = sim_train(12, n_total=1200)
        table = compare_eta_variants(subs, ("odn",))
        assert [v.name for v in table] == [
            "full", "fix_eta00", "fix_eta00_eta10", "p0_one_fix_eta10"]
        full_ll = table[0].fit.log_pl
        for v in table[1:]:
            assert full_ll >= v.fit.log_pl - 1e-6

    def test_failing_variant_is_reported(self):
        subs = sim_train(12, n_total=400)
        table = compare_eta_variants(replace(subs, w=2.0 * subs.w), ("odn",))
        assert len(table) == 4
        for v in table:
            assert v.fit is None and v.log_pl is None and v.bic is None
            assert v.error.startswith("weights sum to 400.000000 but must equal")


class TestBackwardStepwise:
    @staticmethod
    def noise_covariates(subs, rng, extra=4):
        return replace(subs, x=np.column_stack([subs.x, rng.normal(size=(subs.n, extra))]))

    def test_selects_active_covariate(self):
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed + 50)
            subs = self.noise_covariates(sim_train(seed + 300, n_total=2000), rng)
            names = ("odn", "age", "gender", "cd4", "logvl")
            result = backward_stepwise(subs, names, ModelSpec(covariate_names=names))
            if result.selected == ("odn",):
                hits += 1
        assert hits >= 4

    def test_null_single_candidate_gives_intercept_only(self):
        rng = np.random.default_rng(60)
        base = sim_train(14, n_total=2000)
        # replace the covariate with pure noise: true coefficient 0
        subs = replace(base, x=rng.normal(size=(base.n, 1)))
        result = backward_stepwise(subs, ("noise",), ModelSpec(covariate_names=("noise",)))
        assert result.selected == ()

    def test_final_bic_not_worse_than_full(self):
        rng = np.random.default_rng(61)
        subs = self.noise_covariates(sim_train(15, n_total=1000), rng, extra=2)
        names = ("odn", "junk1", "junk2")
        result = backward_stepwise(subs, names, ModelSpec(covariate_names=names))
        assert result.fit.bic <= result.trace[0]["bic"] + 1e-9

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError):
            backward_stepwise(sim_train(16, n_total=400), (), SPEC)

    def test_candidates_must_name_the_columns(self):
        spec = ModelSpec(covariate_names=("odn", "age"))
        with pytest.raises(ValueError, match="^data has 1 covariate columns but 2 candidates"):
            backward_stepwise(sim_train(16, n_total=400), ("odn", "age"), spec)

    def test_z_model_covariate_is_not_dropped(self):
        # dropping the spec's z-model covariate leaves no valid spec: the
        # trial is traced with its error, and with no other trial the
        # search stops
        spec = ModelSpec(covariate_names=("odn",), z_model_covariate="odn")
        result = backward_stepwise(sim_train(16, n_total=400), ("odn",), spec)
        assert result.selected == ("odn",) and len(result.trace) == 2
        trial = result.trace[1]
        assert trial["dropped"] == "odn" and trial["bic"] == math.inf
        assert trial["error"].startswith("'z_model_covariate' is 'odn', not among covariates")


class TestFitReport:
    def test_fixed_field_names(self):
        subs = sim_train(17, n_total=600)
        res = fit(subs, SPEC)
        doc = fit_report(res)
        for key in ("beta", "eta", "psi", "se", "cov", "log_pl", "bic", "converged"):
            assert key in doc
        assert set(doc["se"]) == set(res.free_names)
        assert doc["eta"]["eta00"] == 7.0
        assert len(doc["cov"]["matrix"]) == len(res.free_names)

    @pytest.mark.parametrize("spec", [
        ModelSpec(covariate_names=("logvl", "odn")),
        ModelSpec(covariate_names=("logvl", "odn"), fix_eta00=None, extended=True),
    ], ids=["default", "free_eta00_extended"])
    def test_one_se_per_free_parameter(self, spec):
        res = fit(generate(default_config("2", n_total=600, seed=19)).train_arrays, spec)
        doc = fit_report(res)
        assert list(doc["se"]) == list(res.free_names) == doc["cov"]["params"]
        assert len(doc["se"]) == res.n_free == len(spec.free_names())

    def test_p0_one_omits_eta00_eta01(self):
        subs = sim_train(18, n_total=600)
        spec = ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None)
        doc = fit_report(fit(subs, spec))
        assert "eta00" not in doc["eta"] and "eta01" not in doc["eta"]
        assert "eta10" in doc["eta"] and "eta11" in doc["eta"]

    @pytest.mark.parametrize("spec", [
        SPEC,
        ModelSpec(covariate_names=("odn",), fix_eta00=None, fix_eta10=None),
        ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None),
        ModelSpec(covariate_names=("odn",), extended=True),
        ModelSpec(covariate_names=("odn",), z_model_covariate="odn"),
    ], ids=["default", "free_eta", "p0_one", "extended", "z_model"])
    def test_load_fit_inverts_fit_report(self, spec):
        res = fit(sim_train(24, n_total=1000), spec)
        loaded_spec, theta = load_fit(json.loads(json.dumps(fit_report(res))))
        assert loaded_spec == res.spec
        assert theta.pack().tobytes() == res.theta_hat.pack().tobytes()


def sequential_probe(loglik, free, ll_hat):
    """The flatness probe one trial point at a time, as it ran before it
    was batched: the reference the batched probe must reproduce."""
    flat = []
    for j in range(free.size):
        for sign in (1.0, -1.0):
            trial = free.copy()
            trial[j] += sign * estimation.FLATNESS_DELTA
            if loglik(trial) > ll_hat - estimation.FLATNESS_TOL:
                flat.append(j)
                break
    return flat


class TestBatchedProbe:
    """The batched flatness probe against the sequential one at every probe
    a fit runs: each trial value bit for bit a full single-point pass, and
    the same flags, rejection count and constraint residuals."""

    @staticmethod
    def checked_probe(monkeypatch):
        """Patch ``estimation._flat_directions`` to check each call against
        the reference; returns the list of (flat, rejections) per call."""
        from recency.densityratio import profile_log_likelihood

        batched = estimation._flat_directions
        calls = []

        def bookkeeping(obj):
            return getattr(obj, "rejections", None), list(getattr(obj, "max_residuals", []))

        def restore(obj, state):
            if state[0] is not None:
                obj.rejections, obj.max_residuals = state[0], list(state[1])

        def checked(obj, free, ll_hat):
            before = bookkeeping(obj)
            single = profile_log_likelihood if obj.spec.extended else log_pseudo_likelihood
            trials = []
            for j in range(free.size):
                for sign in (1.0, -1.0):
                    trials.append((j, free.copy()))
                    trials[-1][1][j] += sign * estimation.FLATNESS_DELTA
            for (j, point), loglik in zip(trials, obj.trial_logliks(free, trials)):
                want = single(obj.arrs, obj.template.with_free(point, obj.spec), obj.spec)
                assert np.float64(loglik()).tobytes() == np.float64(want).tobytes(), (j, point)
            restore(obj, before)
            want_flat = sequential_probe(obj.loglik, free, ll_hat)
            want_after = bookkeeping(obj)
            restore(obj, before)
            flat = batched(obj, free, ll_hat)
            assert flat == want_flat
            assert bookkeeping(obj) == want_after
            calls.append((flat, None if before[0] is None else want_after[0] - before[0]))
            return flat

        monkeypatch.setattr(estimation, "_flat_directions", checked)
        return calls

    def test_s1_pool(self, monkeypatch):
        calls = self.checked_probe(monkeypatch)
        free00 = ModelSpec(covariate_names=("odn",), fix_eta00=None)
        flagged = set()
        for seed in range(30):
            arrs = sim_train(seed)
            fit(arrs, SPEC)
            before = len(calls)
            if not fit(arrs, free00).converged:
                flagged.add(seed)
            assert any(flat for flat, _ in calls[before:]) == (seed in flagged)
        assert flagged == {0, 2, 24, 27}
        fit(sim_train(32), SPEC)
        assert len(calls) > 60

    def test_shallow_local_maximum(self, monkeypatch):
        # the probe at S5 replicate 24's shallow maximum flags eta01 on its
        # +delta trial, so its -delta trial is never evaluated
        calls = self.checked_probe(monkeypatch)
        shallow = [0.8843480034065995, -0.6224591639343868, 0.6579423027175805, -5.872254678438176]
        TestStarts.recorded_starts(monkeypatch, first=np.array(shallow))
        seed = np.random.SeedSequence(777).spawn(300)[24]
        train = generate(default_config("5", n_total=2000, seed=777),
                         np.random.default_rng(seed)).train_arrays
        assert fit(train, SPEC).converged
        assert calls[0][0] == [2] and calls[-1][0] == []

    def test_extended_fit_with_infeasible_psi_trials(self, monkeypatch):
        calls = self.checked_probe(monkeypatch)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        train = generate(default_config("6", n_total=4000, seed=3),
                         np.random.default_rng(seed)).train_arrays
        res = fit(train, ModelSpec(covariate_names=("odn",), extended=True))
        assert res.converged
        assert [rejected for _, rejected in calls] == [3]
