"""Case contributions, pseudo-likelihood value, analytic score and Hessian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recency.estimation import _fd_score_jacobian
from recency.likelihood import (
    Case,
    case_log_contribution,
    hessian,
    log_pseudo_likelihood,
    score,
    score_contributions,
)
from recency.model import ModelSpec, Subject, initial_theta, logistic

SPEC = ModelSpec(covariate_names=("odn",))
TABLE_THETA = initial_theta(SPEC).with_packed(np.array([0.95, -0.53, 7.0, -0.62, -7.0, -5.71]))


def random_subjects(rng, n, n_cov=1):
    subs = []
    for _ in range(n):
        subs.append(Subject(
            covariates=rng.normal(size=n_cov),
            s=float(rng.gamma(0.8, 2.5)) + 1e-6,
            z=int(rng.integers(2)),
            w=float(rng.uniform(0.5, 2.0)),
        ))
    return subs


def brute_force_term(sub, theta, spec):
    """Direct (non-log-space) reimplementation of the four case formulas."""
    pi = logistic(theta.beta[0] + float(sub.covariates @ theta.beta[1:]))
    p0 = 1.0 if spec.p0_identically_one else logistic(theta.eta[0] + theta.eta[1] * (sub.s - 1))
    p1 = logistic(theta.eta[2] + theta.eta[3] * (sub.s - 1))
    e = math.exp(theta.psi[0] + theta.psi[1] * sub.s) if theta.psi is not None else 1.0
    if sub.s <= 1 and sub.z == 0:
        return math.log(pi * e * (1 - p1))
    if sub.s > 1 and sub.z == 1:
        return math.log((1 - pi) * p0)
    if sub.s <= 1 and sub.z == 1:
        return math.log(1 - pi + pi * e * p1)
    return math.log((1 - pi) * (1 - p0) + pi * e)


class TestCaseContribution:
    def test_case_iii_collapses_to_one_minus_pi(self):
        # p1 forced to zero -> the mixture term is exactly 1 - pi = 0.5
        theta = initial_theta(SPEC).with_packed(np.array([0.0, 0.0, 7.0, 0.0, -800.0, 0.0]))
        sub = Subject(covariates=np.zeros(1), s=0.5, z=1)
        contrib = case_log_contribution(sub, theta, SPEC)
        assert contrib.case_id is Case.III
        assert contrib.log_value == pytest.approx(math.log(0.5), abs=1e-15)

    def test_case_iv_with_p0_one(self):
        # (1-pi)(1-p0) vanishes, leaving log(pi) with pi = 0.3
        spec = ModelSpec(covariate_names=(), p0_identically_one=True, fix_eta00=None)
        beta0 = math.log(0.3 / 0.7)
        theta = initial_theta(spec).with_packed(np.array([beta0, 0.0, 0.0, -7.0, -5.0]))
        sub = Subject(covariates=np.zeros(0), s=2.0, z=0)
        contrib = case_log_contribution(sub, theta, spec)
        assert contrib.case_id is Case.IV
        assert contrib.log_value == pytest.approx(math.log(0.3), abs=1e-12)

    def test_composed_oracle_point(self):
        # case I at the generating truths: log[expit(0.95) * (1 - expit(-4.145))]
        sub = Subject(covariates=np.zeros(1), s=0.5, z=0)
        expected = math.log(logistic(0.95) * (1.0 - logistic(-4.145)))
        contrib = case_log_contribution(sub, TABLE_THETA, SPEC)
        assert contrib.case_id is Case.I
        assert contrib.log_value == pytest.approx(expected, abs=1e-12)

    def test_case_ids_match_labels(self):
        rng = np.random.default_rng(5)
        for sub in random_subjects(rng, 50):
            case = case_log_contribution(sub, TABLE_THETA, SPEC).case_id
            label = sub.label.value
            if case in (Case.I, Case.II):
                assert label != "unknown"
            else:
                assert label == "unknown"


class TestLogPseudoLikelihood:
    def test_single_case_iii_with_weight(self):
        theta = initial_theta(SPEC).with_packed(np.array([0.0, 0.0, 7.0, 0.0, -800.0, 0.0]))
        sub = Subject(covariates=np.zeros(1), s=0.5, z=1, w=2.0)
        assert log_pseudo_likelihood([sub], theta, SPEC) == pytest.approx(
            2.0 * math.log(0.5), abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        subs = random_subjects(rng, 10)
        theta = initial_theta(SPEC).with_packed(np.array([0.4, -0.8, 1.2, -0.3, -2.0, -4.0]))
        expected = math.fsum(sub.w * brute_force_term(sub, theta, SPEC) for sub in subs)
        assert log_pseudo_likelihood(subs, theta, SPEC) == pytest.approx(expected, rel=1e-12)

    def test_extended_matches_brute_force(self):
        rng = np.random.default_rng(7)
        subs = random_subjects(rng, 10)
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        theta = initial_theta(spec).with_packed(
            np.array([0.4, -0.8, 7.0, -0.62, -2.0, -4.0, -0.3, 0.2]))
        expected = math.fsum(sub.w * brute_force_term(sub, theta, spec) for sub in subs)
        assert log_pseudo_likelihood(subs, theta, spec) == pytest.approx(expected, rel=1e-12)

    def test_fully_labeled_separates(self):
        # on label-determined data the objective splits into a logistic
        # log-likelihood for y plus the z-model terms
        rng = np.random.default_rng(8)
        subs = []
        for _ in range(40):
            y = int(rng.integers(2))
            s = float(rng.uniform(0.1, 1.0)) if y else float(rng.uniform(1.01, 8.0))
            subs.append(Subject(covariates=rng.normal(size=1), s=s, z=1 - y,
                                w=float(rng.uniform(0.5, 2.0))))
        theta = TABLE_THETA
        ll = log_pseudo_likelihood(subs, theta, SPEC)
        y_loglik = 0.0
        z_loglik = 0.0
        for sub in subs:
            pi = logistic(theta.beta[0] + float(sub.covariates @ theta.beta[1:]))
            p0 = logistic(theta.eta[0] + theta.eta[1] * (sub.s - 1))
            p1 = logistic(theta.eta[2] + theta.eta[3] * (sub.s - 1))
            if sub.label.value == "recent":
                y_loglik += sub.w * math.log(pi)
                z_loglik += sub.w * math.log(1 - p1)
            else:
                y_loglik += sub.w * math.log(1 - pi)
                z_loglik += sub.w * math.log(p0)
        assert ll == pytest.approx(y_loglik + z_loglik, rel=1e-12)

    def test_weight_scaling(self):
        rng = np.random.default_rng(9)
        subs = random_subjects(rng, 30)
        theta = TABLE_THETA
        base = log_pseudo_likelihood(subs, theta, SPEC)
        scaled = [Subject(covariates=s.covariates, s=s.s, z=s.z, w=3.0 * s.w) for s in subs]
        assert log_pseudo_likelihood(scaled, theta, SPEC) == pytest.approx(3.0 * base, rel=1e-12)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(10)
        subs = random_subjects(rng, 101)
        ll = log_pseudo_likelihood(subs, TABLE_THETA, SPEC)
        perm = list(rng.permutation(len(subs)))
        assert log_pseudo_likelihood([subs[i] for i in perm], TABLE_THETA, SPEC) == ll

    def test_mixture_terms_dominate_worse_branch(self):
        rng = np.random.default_rng(11)
        subs = random_subjects(rng, 200)
        theta = TABLE_THETA
        for sub in subs:
            pi = logistic(theta.beta[0] + float(sub.covariates @ theta.beta[1:]))
            term = case_log_contribution(sub, theta, SPEC)
            if term.case_id is Case.III:
                assert term.log_value >= math.log(1 - pi) - 1e-12
            elif term.case_id is Case.IV:
                assert term.log_value >= math.log(pi) - 1e-12

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError):
            log_pseudo_likelihood([], TABLE_THETA, SPEC)

    def test_degenerate_theta_gives_minus_inf(self):
        # log-space evaluation keeps every finite theta finite; the -inf
        # sentinel fires only when a branch is exactly impossible
        spec = ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None)
        theta = initial_theta(spec).with_packed(
            np.array([-math.inf, 0.0, 0.0, 0.0, -7.0, -5.0]))
        sub = Subject(covariates=np.zeros(1), s=2.0, z=0)  # case IV, pi = 0, p0 = 1
        assert log_pseudo_likelihood([sub], theta, spec) == -math.inf


def fd_gradient(subs, theta, spec, step=1e-6):
    free = theta.free_values()
    grad = np.empty(free.size)
    for j in range(free.size):
        h = step * (1.0 + abs(free[j]))
        up, dn = free.copy(), free.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (log_pseudo_likelihood(subs, theta.with_free(up), spec)
                   - log_pseudo_likelihood(subs, theta.with_free(dn), spec)) / (2 * h)
    return grad


class TestScore:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        subs = random_subjects(rng, 50)
        for _ in range(5):
            free = np.array([rng.normal(0.5, 0.5), rng.normal(-0.5, 0.5),
                             rng.normal(-0.6, 0.3), rng.normal(-4.5, 1.0)])
            theta = initial_theta(SPEC).with_free(free)
            an = score(subs, theta, SPEC)
            fd = fd_gradient(subs, theta, SPEC)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_matches_finite_differences_extended(self):
        rng = np.random.default_rng(13)
        subs = random_subjects(rng, 50)
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        theta = initial_theta(spec).with_free(
            np.array([0.7, -0.4, -0.5, -5.0, -0.2, 0.1]))
        an = score(subs, theta, spec)
        fd = fd_gradient(subs, theta, spec)
        assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_matches_finite_differences_with_eta_covariate(self):
        rng = np.random.default_rng(14)
        subs = random_subjects(rng, 50)
        spec = ModelSpec(covariate_names=("odn",), z_model_covariate="odn")
        theta = initial_theta(spec).with_free(
            np.array([0.7, -0.4, -0.5, -5.0, 0.4]))
        an = score(subs, theta, spec)
        fd = fd_gradient(subs, theta, spec)
        assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_contributions_sum_to_score(self):
        rng = np.random.default_rng(15)
        subs = random_subjects(rng, 60)
        theta = TABLE_THETA
        m = score_contributions(subs, theta, SPEC)
        total = score(subs, theta, SPEC)
        assert np.max(np.abs(m.sum(axis=0) - total) / (1.0 + np.abs(total))) < 1e-12

    def test_weight_scaling_scales_score(self):
        rng = np.random.default_rng(16)
        subs = random_subjects(rng, 30)
        base = score(subs, TABLE_THETA, SPEC)
        scaled = [Subject(covariates=s.covariates, s=s.s, z=s.z, w=2.0 * s.w) for s in subs]
        np.testing.assert_allclose(score(scaled, TABLE_THETA, SPEC), 2.0 * base, rtol=1e-12)


HESSIAN_SPECS = {
    "fixed_etas": ModelSpec(covariate_names=("odn", "age")),
    "full_eta": ModelSpec(covariate_names=("odn", "age"), fix_eta00=None, fix_eta10=None),
    "p0_one": ModelSpec(covariate_names=("odn", "age"), p0_identically_one=True,
                        fix_eta00=None),
    "z_model_covariate": ModelSpec(covariate_names=("odn", "age"), fix_eta10=None,
                                   z_model_covariate="age"),
    "extended": ModelSpec(covariate_names=("odn", "age"), fix_eta00=None, extended=True),
}


class TestHessian:
    @pytest.mark.parametrize("variant", sorted(HESSIAN_SPECS))
    def test_matches_central_differences_of_score(self, variant):
        spec = HESSIAN_SPECS[variant]
        rng = np.random.default_rng(sorted(HESSIAN_SPECS).index(variant) + 40)
        subs = random_subjects(rng, 60, n_cov=2)
        template = initial_theta(spec)
        for _ in range(5):
            free = template.free_values() + rng.normal(scale=0.7, size=len(spec.free_names()))
            an = hessian(subs, template.with_free(free), spec)
            fd = _fd_score_jacobian(lambda v: score(subs, template.with_free(v), spec), free)
            assert an.shape == (free.size, free.size)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6


@st.composite
def weighted_sample(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 40))
    variant = draw(st.sampled_from(sorted(HESSIAN_SPECS)))
    rng = np.random.default_rng(seed)
    spec = HESSIAN_SPECS[variant]
    template = initial_theta(spec)
    theta = template.with_free(
        template.free_values() + rng.normal(scale=1.0, size=len(spec.free_names())))
    return random_subjects(rng, n, n_cov=2), theta, spec, rng


class TestHessianProperties:
    @settings(max_examples=30, deadline=None)
    @given(weighted_sample())
    def test_symmetric(self, sample):
        subs, theta, spec, _ = sample
        h = hessian(subs, theta, spec)
        np.testing.assert_allclose(h, h.T, rtol=0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(weighted_sample(), st.floats(0.01, 100.0))
    def test_linear_in_weights(self, sample, factor):
        subs, theta, spec, _ = sample
        scaled = [Subject(covariates=s.covariates, s=s.s, z=s.z, w=factor * s.w) for s in subs]
        base = hessian(subs, theta, spec)
        np.testing.assert_allclose(hessian(scaled, theta, spec), factor * base,
                                   rtol=1e-12, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(weighted_sample())
    def test_permutation_invariant(self, sample):
        subs, theta, spec, rng = sample
        perm = [subs[i] for i in rng.permutation(len(subs))]
        np.testing.assert_allclose(hessian(perm, theta, spec), hessian(subs, theta, spec),
                                   rtol=0, atol=1e-10)
