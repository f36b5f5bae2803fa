"""Case contributions, pseudo-likelihood value, analytic score and Hessian."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracle import central_differences
from recency import likelihood
from recency.likelihood import (
    _SUM_BLOCK,
    _case_pass,
    _exact_colsum,
    _KernelData,
    _linear_pieces,
    _log_sigmoid_pair,
    _PairProducts,
    _trial_summands,
    hessian,
    log_pseudo_likelihood,
    score,
    score_contributions,
)
from recency.model import ModelSpec, SubjectArrays, initial_theta, logistic
from subjects import rows, subjects

SPEC = ModelSpec(covariate_names=("odn",))
TABLE_THETA = initial_theta(SPEC).with_packed(np.array([0.95, -0.53, 7.0, -0.62, -7.0, -5.71]))


def random_subjects(rng, n, n_cov=1):
    return subjects(*zip(*[(rng.normal(size=n_cov), float(rng.gamma(0.8, 2.5)) + 1e-6,
                            int(rng.integers(2)), float(rng.uniform(0.5, 2.0)))
                           for _ in range(n)]))


def brute_force_term(x, s, z, theta, spec):
    """Direct (non-log-space) reimplementation of the four case formulas."""
    pi = logistic(theta.beta[0] + float(x @ theta.beta[1:]))
    p0 = 1.0 if spec.p0_identically_one else logistic(theta.eta[0] + theta.eta[1] * (s - 1))
    p1 = logistic(theta.eta[2] + theta.eta[3] * (s - 1))
    e = math.exp(theta.psi[0] + theta.psi[1] * s) if theta.psi is not None else 1.0
    if s <= 1 and z == 0:
        return math.log(pi * e * (1 - p1))
    if s > 1 and z == 1:
        return math.log((1 - pi) * p0)
    if s <= 1 and z == 1:
        return math.log(1 - pi + pi * e * p1)
    return math.log((1 - pi) * (1 - p0) + pi * e)


def case_terms(arrs, theta, spec):
    """(case I-IV of each subject, unweighted terms) from the kernel pass."""
    cases = np.select(arrs.case_masks(), ["I", "II", "III", "IV"], default="")
    return cases.tolist(), _case_pass(_KernelData(arrs, spec), theta).terms


# every float64 class: zeros of both signs, infinities, NaN, subnormals,
# |t| past 745 (where exp(-|t|) underflows) and ordinary values
FLOAT64 = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     745.0, -745.0, 746.0, -746.0, 1e308, -1e308]),
    st.floats(min_value=-800.0, max_value=800.0),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


class TestLogSigmoidPair:
    """The kernel's one-logaddexp pair against the two logaddexps it
    replaces, bit for bit."""

    @staticmethod
    def assert_pair(t):
        with np.errstate(invalid="ignore"):   # logaddexp flags a NaN input
            log_s, log_c = _log_sigmoid_pair(t)
        nan = np.isnan(t)
        assert np.isnan(log_s[nan]).all() and np.isnan(log_c[nan]).all()
        assert log_s[~nan].tobytes() == (-np.logaddexp(0.0, -t[~nan])).tobytes()
        assert log_c[~nan].tobytes() == (-np.logaddexp(0.0, t[~nan])).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(FLOAT64, min_size=1, max_size=40))
    def test_every_float_class(self, values):
        self.assert_pair(np.array(values))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
        self.assert_pair(bits.view(np.float64))
        self.assert_pair(rng.normal(scale=40.0, size=200_000))


def reference_pass(arrs, theta, spec):
    """Terms and branch shares as the pass formed them with four
    log-sigmoid logaddexps and the term's logaddexp over every cell: the
    reference the lean pass must match bit for bit."""
    lb = theta.beta[0] + arrs.x @ theta.beta[1:]
    inside = arrs.s <= 1.0
    sm1 = arrs.s - 1.0
    q = np.where(inside, theta.eta[2] + theta.eta[3] * sm1, theta.eta[0] + theta.eta[1] * sm1)
    if spec.z_model_covariate is not None:
        q = q + theta.eta_x * arrs.x[:, spec.z_model_covariate_index]
    log_pi, log_1m_pi = -np.logaddexp(0.0, -lb), -np.logaddexp(0.0, lb)
    log_p, log_1m_p = -np.logaddexp(0.0, -q), -np.logaddexp(0.0, q)
    if spec.p0_identically_one:
        log_p = np.where(inside, log_p, 0.0)
        log_1m_p = np.where(inside, log_1m_p, -np.inf)
    tilt = theta.psi[0] + theta.psi[1] * arrs.s if spec.extended else np.zeros_like(arrs.s)
    pos = arrs.z == 1
    log_pz = np.where(pos, log_p, log_1m_p)
    long = log_1m_pi + np.where(inside, np.where(pos, 0.0, -np.inf), log_pz)
    recent = log_pi + tilt + np.where(inside, log_pz, np.where(pos, -np.inf, 0.0))
    terms = np.logaddexp(long, recent)
    return terms, np.exp(recent - terms), np.exp(long - terms)


class TestLeanPass:
    """The pass with one logaddexp per log-sigmoid pair and the term's
    logaddexp on the mixture cells only, against the reference pass."""

    SPECS = [ModelSpec(covariate_names=("odn", "age"), fix_eta00=None, fix_eta10=None),
             ModelSpec(covariate_names=("odn", "age"), p0_identically_one=True, fix_eta00=None),
             ModelSpec(covariate_names=("odn", "age"), z_model_covariate="age"),
             ModelSpec(covariate_names=("odn", "age"), extended=True, fix_eta00=None)]

    @staticmethod
    def assert_same(arrs, theta, spec):
        with np.errstate(invalid="ignore", over="ignore"):
            cp = _case_pass(_KernelData(arrs, spec), theta)
            want = reference_pass(arrs, theta, spec)
        for got, ref in zip((cp.terms, cp.v, cp.a), want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=["free_eta", "p0_one", "z_model", "extended"])
    def test_random_and_extreme_points(self, spec):
        rng = np.random.default_rng(31)
        k = len(initial_theta(spec).pack())
        for _ in range(60):
            n = int(rng.integers(1, 200))
            s = np.where(rng.random(n) < 0.1, 1.0, rng.gamma(0.8, 2.5, n) + 1e-9)
            arrs = SubjectArrays(x=rng.normal(size=(n, 2)), s=s, z=rng.integers(0, 2, n),
                                 w=rng.uniform(0.5, 2.0, n))
            packed = rng.normal(size=k) * rng.choice([0.5, 5.0, 50.0, 1000.0])
            packed[rng.integers(k)] = rng.choice([0.0, -0.0, 800.0, -800.0, math.inf])
            self.assert_same(arrs, initial_theta(spec).with_packed(packed), spec)

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_labeled_cell_term_of_signed_zero_branches(self, case):
        # pi = 1 and p1 = 0 in cell I, pi = 0 and p0 = 1 in cell II: the
        # finite branch is -0.0 + -0.0, and logaddexp's term is +0.0
        spec = self.SPECS[3]
        sign = 1.0 if case == "I" else -1.0
        packed = [800.0 * sign, 0.0, 0.0, 800.0, 0.0, -800.0, 0.0, -0.0, -0.0]
        arrs = subjects(np.zeros((1, 2)), 0.5 if case == "I" else 2.0, int(case == "II"))
        self.assert_same(arrs, initial_theta(spec).with_packed(np.array(packed)), spec)
        assert _case_terms_of(arrs, packed, spec).tobytes() == np.zeros(1).tobytes()


def _case_terms_of(arrs, packed, spec):
    theta = initial_theta(spec).with_packed(np.array(packed))
    return _case_pass(_KernelData(arrs, spec), theta).terms


class TestCaseContribution:
    def test_case_iii_collapses_to_one_minus_pi(self):
        # p1 forced to zero -> the mixture term is exactly 1 - pi = 0.5
        theta = initial_theta(SPEC).with_packed(np.array([0.0, 0.0, 7.0, 0.0, -800.0, 0.0]))
        [case], [term] = case_terms(subjects(0.0, 0.5, 1), theta, SPEC)
        assert case == "III"
        assert term == pytest.approx(math.log(0.5), abs=1e-15)

    def test_case_iv_with_p0_one(self):
        # (1-pi)(1-p0) vanishes, leaving log(pi) with pi = 0.3
        spec = ModelSpec(covariate_names=(), p0_identically_one=True, fix_eta00=None)
        beta0 = math.log(0.3 / 0.7)
        theta = initial_theta(spec).with_packed(np.array([beta0, 0.0, 0.0, -7.0, -5.0]))
        [case], [term] = case_terms(subjects(np.zeros((1, 0)), 2.0, 0), theta, spec)
        assert case == "IV"
        assert term == pytest.approx(math.log(0.3), abs=1e-12)

    def test_composed_oracle_point(self):
        # case I at the generating truths: log[expit(0.95) * (1 - expit(-4.145))]
        expected = math.log(logistic(0.95) * (1.0 - logistic(-4.145)))
        [case], [term] = case_terms(subjects(0.0, 0.5, 0), TABLE_THETA, SPEC)
        assert case == "I"
        assert term == pytest.approx(expected, abs=1e-12)

    def test_case_ids_match_labels(self):
        rng = np.random.default_rng(5)
        subs = random_subjects(rng, 50)
        cases, _ = case_terms(subs, TABLE_THETA, SPEC)
        for case, (_, s, z, _) in zip(cases, rows(subs), strict=True):
            labeled = (s <= 1 and z == 0) or (s > 1 and z == 1)
            assert (case in ("I", "II")) == labeled


class TestWindowBoundary:
    """s = 1 is inside the recency window; the next double up is not."""

    SPEC_EXT = ModelSpec(covariate_names=("odn",), extended=True)
    THETA = initial_theta(SPEC_EXT).with_packed(
        np.array([0.4, -0.8, 7.0, -0.62, -7.0, -4.0, -0.3, 0.2]))

    @pytest.mark.parametrize("z", [0, 1])
    @pytest.mark.parametrize("s", [1.0, float(np.nextafter(1.0, 2.0))])
    def test_term_and_recent_share(self, s, z):
        arrs = subjects(0.3, s, z)
        cp = _case_pass(_KernelData(arrs, self.SPEC_EXT), self.THETA)
        assert cp.terms[0] == pytest.approx(
            brute_force_term(arrs.x[0], s, z, self.THETA, self.SPEC_EXT), rel=1e-12)
        if (s, z) == (1.0, 0):
            assert cp.v[0] == 1.0     # cell I: recent
        elif s > 1.0 and z == 1:
            assert cp.v[0] == 0.0     # cell II: long-term
        else:
            assert 0.0 < cp.v[0] < 1.0


class TestLogPseudoLikelihood:
    def test_single_case_iii_with_weight(self):
        theta = initial_theta(SPEC).with_packed(np.array([0.0, 0.0, 7.0, 0.0, -800.0, 0.0]))
        sub = subjects(0.0, 0.5, 1, w=2.0)
        assert log_pseudo_likelihood(sub, theta, SPEC) == pytest.approx(
            2.0 * math.log(0.5), abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        subs = random_subjects(rng, 10)
        theta = initial_theta(SPEC).with_packed(np.array([0.4, -0.8, 1.2, -0.3, -2.0, -4.0]))
        expected = math.fsum(w * brute_force_term(x, s, z, theta, SPEC)
                             for x, s, z, w in rows(subs))
        assert log_pseudo_likelihood(subs, theta, SPEC) == pytest.approx(expected, rel=1e-12)

    def test_extended_matches_brute_force(self):
        rng = np.random.default_rng(7)
        subs = random_subjects(rng, 10)
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        theta = initial_theta(spec).with_packed(
            np.array([0.4, -0.8, 7.0, -0.62, -2.0, -4.0, -0.3, 0.2]))
        expected = math.fsum(w * brute_force_term(x, s, z, theta, spec)
                             for x, s, z, w in rows(subs))
        assert log_pseudo_likelihood(subs, theta, spec) == pytest.approx(expected, rel=1e-12)

    def test_fully_labeled_separates(self):
        # on label-determined data the objective splits into a logistic
        # log-likelihood for y plus the z-model terms
        rng = np.random.default_rng(8)
        draws = []
        for _ in range(40):
            y = int(rng.integers(2))
            s = float(rng.uniform(0.1, 1.0)) if y else float(rng.uniform(1.01, 8.0))
            draws.append((rng.normal(size=1), s, 1 - y, float(rng.uniform(0.5, 2.0))))
        subs = subjects(*zip(*draws))
        theta = TABLE_THETA
        ll = log_pseudo_likelihood(subs, theta, SPEC)
        y_loglik = 0.0
        z_loglik = 0.0
        for x, s, z, w in draws:
            pi = logistic(theta.beta[0] + float(x @ theta.beta[1:]))
            p0 = logistic(theta.eta[0] + theta.eta[1] * (s - 1))
            p1 = logistic(theta.eta[2] + theta.eta[3] * (s - 1))
            if z == 0:   # recent
                y_loglik += w * math.log(pi)
                z_loglik += w * math.log(1 - p1)
            else:
                y_loglik += w * math.log(1 - pi)
                z_loglik += w * math.log(p0)
        assert ll == pytest.approx(y_loglik + z_loglik, rel=1e-12)

    def test_weight_scaling(self):
        rng = np.random.default_rng(9)
        subs = random_subjects(rng, 30)
        theta = TABLE_THETA
        base = log_pseudo_likelihood(subs, theta, SPEC)
        scaled = replace(subs, w=3.0 * subs.w)
        assert log_pseudo_likelihood(scaled, theta, SPEC) == pytest.approx(3.0 * base, rel=1e-12)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(10)
        subs = random_subjects(rng, 101)
        ll = log_pseudo_likelihood(subs, TABLE_THETA, SPEC)
        perm = rng.permutation(len(subs))
        assert log_pseudo_likelihood(subs.subset(perm), TABLE_THETA, SPEC) == ll

    def test_mixture_terms_dominate_worse_branch(self):
        rng = np.random.default_rng(11)
        subs = random_subjects(rng, 200)
        theta = TABLE_THETA
        for x, case, term in zip(subs.x, *case_terms(subs, theta, SPEC), strict=True):
            pi = logistic(theta.beta[0] + float(x @ theta.beta[1:]))
            if case == "III":
                assert term >= math.log(1 - pi) - 1e-12
            elif case == "IV":
                assert term >= math.log(pi) - 1e-12

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty dataset"):
            log_pseudo_likelihood(subjects(np.zeros((0, 1)), [], []), TABLE_THETA, SPEC)

    def test_degenerate_theta_gives_minus_inf(self):
        # log-space evaluation keeps every finite theta finite; the -inf
        # sentinel fires only when a branch is exactly impossible
        spec = ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None)
        theta = initial_theta(spec).with_packed(
            np.array([-math.inf, 0.0, 0.0, 0.0, -7.0, -5.0]))
        sub = subjects(0.0, 2.0, 0)  # case IV, pi = 0, p0 = 1
        assert log_pseudo_likelihood(sub, theta, spec) == -math.inf


def fd_gradient(subs, theta, spec):
    return central_differences(
        lambda v: log_pseudo_likelihood(subs, theta.with_free(v, spec), spec),
        theta.free_values(spec))


HESSIAN_SPECS = {
    "fixed_etas": ModelSpec(covariate_names=("odn", "age")),
    "full_eta": ModelSpec(covariate_names=("odn", "age"), fix_eta00=None, fix_eta10=None),
    "p0_one": ModelSpec(covariate_names=("odn", "age"), p0_identically_one=True,
                        fix_eta00=None),
    "z_model_covariate": ModelSpec(covariate_names=("odn", "age"), fix_eta10=None,
                                   z_model_covariate="age"),
    "extended": ModelSpec(covariate_names=("odn", "age"), fix_eta00=None, extended=True),
}


class TestScore:
    @pytest.mark.parametrize("variant", sorted(HESSIAN_SPECS))
    def test_matches_finite_differences_every_spec(self, variant):
        spec = HESSIAN_SPECS[variant]
        rng = np.random.default_rng(sorted(HESSIAN_SPECS).index(variant) + 20)
        subs = random_subjects(rng, 60, n_cov=2)
        template = initial_theta(spec)
        for _ in range(5):
            theta = template.with_free(
                template.free_values(spec) + rng.normal(scale=0.7, size=len(spec.free_names())),
                spec)
            an = score(subs, theta, spec)
            fd = fd_gradient(subs, theta, spec)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        subs = random_subjects(rng, 50)
        for _ in range(5):
            free = np.array([rng.normal(0.5, 0.5), rng.normal(-0.5, 0.5),
                             rng.normal(-0.6, 0.3), rng.normal(-4.5, 1.0)])
            theta = initial_theta(SPEC).with_free(free, SPEC)
            an = score(subs, theta, SPEC)
            fd = fd_gradient(subs, theta, SPEC)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_matches_finite_differences_extended(self):
        rng = np.random.default_rng(13)
        subs = random_subjects(rng, 50)
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        theta = initial_theta(spec).with_free(
            np.array([0.7, -0.4, -0.5, -5.0, -0.2, 0.1]), spec)
        an = score(subs, theta, spec)
        fd = fd_gradient(subs, theta, spec)
        assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6

    def test_matches_finite_differences_with_eta_covariate(self):
        rng = np.random.default_rng(14)
        subs = random_subjects(rng, 50)
        spec = ModelSpec(covariate_names=("odn",), z_model_covariate="odn")
        theta = initial_theta(spec).with_free(
            np.array([0.7, -0.4, -0.5, -5.0, 0.4]), spec)
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
        scaled = replace(subs, w=2.0 * subs.w)
        np.testing.assert_allclose(score(scaled, TABLE_THETA, SPEC), 2.0 * base, rtol=1e-12)


class TestHessian:
    @pytest.mark.parametrize("variant", sorted(HESSIAN_SPECS))
    def test_matches_central_differences_of_score(self, variant):
        spec = HESSIAN_SPECS[variant]
        rng = np.random.default_rng(sorted(HESSIAN_SPECS).index(variant) + 40)
        subs = random_subjects(rng, 60, n_cov=2)
        template = initial_theta(spec)
        for _ in range(5):
            free = template.free_values(spec) + rng.normal(scale=0.7, size=len(spec.free_names()))
            an = hessian(subs, template.with_free(free, spec), spec)
            fd = central_differences(lambda v: score(subs, template.with_free(v, spec), spec), free,
                                     h_rel=1e-5)
            assert an.shape == (free.size, free.size)
            assert np.max(np.abs(an - fd) / (1.0 + np.abs(an))) < 1e-6


    def test_non_finite_entry_is_named(self):
        # a covariate of 1e200 makes its beta's Hessian entry x^2 pi (1 - pi)
        # overflow; numpy's own overflow warning is silenced so that the rule
        # is reached
        subs = subjects([[1e200], [0.5]], [0.5, 2.0], [0, 1])
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="^non-finite Hessian entry$"):
            hessian(subs, initial_theta(SPEC), SPEC)


class TestHessianWindowPairs:
    @pytest.mark.parametrize("variant", ["full_eta", "extended"])
    def test_skipped_pairs_leave_the_hessian_bit_identical(self, variant, monkeypatch):
        # an outside-window and an inside-window eta share no subject:
        # writing +0.0 for their entry gives the all-pairs sum bit for bit
        spec = replace(HESSIAN_SPECS[variant], fix_eta10=None)
        assert {"eta00", "eta01", "eta10", "eta11"} <= set(spec.free_names())
        rng = np.random.default_rng(61)
        subs = random_subjects(rng, 300, n_cov=2)
        template = initial_theta(spec)
        thetas = [template.with_free(template.free_values(spec)
                                     + rng.normal(scale=0.7, size=len(spec.free_names())), spec)
                  for _ in range(5)]
        skipped = [hessian(subs, theta, spec) for theta in thetas]
        monkeypatch.setattr(likelihood, "_WINDOW_SIDE", {})
        for theta, h in zip(thetas, skipped):
            assert h.tobytes() == hessian(subs, theta, spec).tobytes()


@st.composite
def weighted_sample(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 40))
    variant = draw(st.sampled_from(sorted(HESSIAN_SPECS)))
    rng = np.random.default_rng(seed)
    spec = HESSIAN_SPECS[variant]
    template = initial_theta(spec)
    theta = template.with_free(
        template.free_values(spec) + rng.normal(scale=1.0, size=len(spec.free_names())), spec)
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
        scaled = replace(subs, w=factor * subs.w)
        base = hessian(subs, theta, spec)
        np.testing.assert_allclose(hessian(scaled, theta, spec), factor * base,
                                   rtol=1e-12, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(weighted_sample())
    def test_permutation_invariant(self, sample):
        subs, theta, spec, rng = sample
        perm = subs.subset(rng.permutation(len(subs)))
        np.testing.assert_array_equal(hessian(perm, theta, spec), hessian(subs, theta, spec))

    @settings(max_examples=30, deadline=None)
    @given(weighted_sample())
    def test_score_permutation_invariant(self, sample):
        subs, theta, spec, rng = sample
        perm = subs.subset(rng.permutation(len(subs)))
        np.testing.assert_array_equal(score(perm, theta, spec), score(subs, theta, spec))


def column_fsums(m):
    """The reference: math.fsum of each column."""
    return np.array([math.fsum(col) for col in m.T.tolist()])


@st.composite
def summands(draw):
    """(n, k) matrices at the block edges and at 1e5 rows, k up to the S6
    Hessian's 20 pairs: values over 1e-300..1e300, subnormals, signed
    zeros, or pairs that cancel."""
    k = draw(st.integers(1, 20))
    rows = _SUM_BLOCK // k   # rows per block
    n = draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 100_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["span", "subnormal", "zeros", "cancel"]))
    if kind == "span":
        m = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-300, 300, (n, k))
    elif kind == "subnormal":
        m = rng.integers(-(1 << 40), 1 << 40, (n, k)) * 5e-324
    elif kind == "zeros":
        m = rng.choice([0.0, -0.0], (n, k))
    else:
        half = rng.standard_normal((n // 2, k)) * 10.0 ** rng.uniform(-20, 20, (n // 2, k))
        m = np.concatenate([half, -half, rng.standard_normal((n % 2, k))])[rng.permutation(n)]
    extra = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, k - 1),
                                    st.floats(allow_nan=False, allow_infinity=False)),
                          max_size=4 if n else 0))
    for i, j, value in extra:
        m[i, j] = value
    return m


class TestExactColsum:
    @settings(max_examples=60, deadline=None)
    @given(summands())
    def test_equals_math_fsum_per_column(self, m):
        try:
            want = column_fsums(m)
        except OverflowError:   # fsum's running sum overflowed
            with pytest.raises(OverflowError):
                _exact_colsum(m)
            return
        got = _exact_colsum(m)
        assert got.tobytes() == want.tobytes()   # +0.0 where fsum gives +0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("over", [0, 1], ids=["extracted", "fsum_fallback"])
    @pytest.mark.parametrize("n", [2**13 - 1, 2**13, 2**14 - 1, 2**14])
    def test_block_at_the_extraction_bound(self, n, over, sign):
        """One block of 2**bits - 1 or 2**bits rows whose values sit just
        under 2**e, at the largest e the extraction takes (e +
        n.bit_length() = 1022, so sigma = 2**1022), and at one past it,
        which fsum sums.  Every first-pass q is near 2**e, so the exact
        partial sums come as close to sigma as the bound allows; negative
        values put them on the finer grid below sigma, where a block one
        row too long for its bits would round.  A few tiny values need
        later passes."""
        e = 1022 - n.bit_length() + over
        rng = np.random.default_rng(n)
        # 2**e less a few units of 2**(e - 53 + g), g up to bits: some first
        # passes round, some take the value whole
        g = rng.integers(0, n.bit_length() + 1, n)
        col = math.ldexp(1.0, e) - np.ldexp(rng.integers(1, 2**10, n).astype(float), e - 53 + g)
        col[rng.integers(0, n, 5)] = rng.standard_normal(5) * math.ldexp(1.0, e - 300)
        m = sign * col[:, None]
        assert _exact_colsum(m).tobytes() == column_fsums(m).tobytes()

    @pytest.mark.parametrize("col", [[math.inf, 1.0], [math.nan, 1.0], [-math.inf, 2.0, 3.0]])
    def test_non_finite_as_fsum(self, col):
        m = np.array(col)[:, None]
        assert _exact_colsum(m).tobytes() == column_fsums(m).tobytes()

    @pytest.mark.parametrize("col, error", [([math.inf, -math.inf], ValueError),
                                            ([1e308, 1e308, -1e308], OverflowError)])
    def test_fsum_errors_raised(self, col, error):
        with pytest.raises(error):
            _exact_colsum(np.array(col)[:, None])


class TestPairProducts:
    def test_blocks_are_weighted_design_products(self):
        """Each row block of the Hessian's summands is bit for bit
        ((w d_j) h) d_i formed from the design columns, and each of the
        sandwich meat's is m_j m_i."""
        rng = np.random.default_rng(4)
        n = 3000
        arrs = SubjectArrays(x=rng.normal(size=(n, 2)), s=rng.gamma(0.8, 2.5, n) + 1e-6,
                             z=rng.integers(0, 2, n), w=rng.uniform(0.5, 1.5, n))
        spec = ModelSpec(covariate_names=("odn", "age"), fix_eta00=None,
                         z_model_covariate="odn", extended=True)
        kd = _KernelData(arrs, spec)
        h = {key: rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n)
             for key in ("aa", "aq", "at", "qq", "qt", "tt")}
        j, i = kd.pairs
        keys = ["".join(sorted(kd.predictors[a] + kd.predictors[b])) for a, b in zip(j, i)]
        products = _PairProducts(kd.weighted_design, kd.design, j, i,
                                 [h[key] for key in keys], range(len(keys)))
        assert products.shape == (n, len(j))
        m = rng.standard_normal((n, 5)) * 10.0 ** rng.uniform(-5, 5, (n, 5))
        mj, mi = np.triu_indices(5)
        meat = _PairProducts(m, m, mj, mi)
        assert meat.shape == (n, len(mj))
        cols = kd.design.T
        for rows in (slice(0, 1000), slice(1000, 2999), slice(2999, 3000)):
            block = products[rows]
            for c, (a, b) in enumerate(zip(j, i)):
                want = ((arrs.w[rows] * cols[a][rows]) * h[keys[c]][rows]) * cols[b][rows]
                assert block[:, c].tobytes() == want.tobytes()
            block = meat[rows]
            for c, (a, b) in enumerate(zip(mj, mi)):
                assert block[:, c].tobytes() == (m[rows, a] * m[rows, b]).tobytes()


class TestTrialTerms:
    """The probe's batched columns against one single-point pass per trial."""

    @pytest.mark.parametrize("spec", [
        ModelSpec(covariate_names=("odn", "age")),
        ModelSpec(covariate_names=("odn", "age"), p0_identically_one=True, fix_eta00=None),
        ModelSpec(covariate_names=("odn", "age"), fix_eta00=None, z_model_covariate="odn"),
        ModelSpec(covariate_names=("odn", "age"), extended=True),
    ], ids=["default", "p0_one", "z_model", "extended"])
    def test_columns_are_single_pass_totals(self, spec):
        rng = np.random.default_rng(12)
        n = 5000
        s = np.where(rng.random(n) < 0.05, 1.0, rng.gamma(0.8, 2.5, n) + 1e-6)
        x = rng.normal(size=(n, 2))
        z = rng.integers(0, 2, n)
        # beta_age + 5 makes row 7 (cell II) a summand of -5e305, too large to bucket
        x[7, 1], s[7], z[7] = 1e305, 3.0, 1
        arrs = SubjectArrays(x=x, s=s, z=z, w=rng.uniform(0.5, 1.5, n))
        kd = _KernelData(arrs, spec)
        template = initial_theta(spec)
        free = template.free_values(spec) + rng.normal(scale=0.3, size=len(kd.predictors))
        age = spec.free_names().index("beta_age")
        free[age] = 0.0
        points = []
        for j in range(free.size):
            for delta in (5.0, -5.0, math.inf):
                points.append(free.copy())
                points[-1][j] += delta
        trials = [(template.with_free(p, spec), kd.predictors[j // 3], None)
                  for j, p in enumerate(points)]
        with np.errstate(invalid="ignore", over="ignore"):
            columns, direct = _trial_summands(
                kd, _linear_pieces(kd, template.with_free(free, spec)), trials)
            # the mask is whole before any sum
            assert direct[3 * age] and not direct[3 * age + 1]
            assert (~direct).sum() > len(trials) // 2
            totals = _exact_colsum(columns)
            for c, (theta, _, _) in enumerate(trials):
                summands = arrs.w * _case_pass(kd, theta).terms
                if direct[c]:
                    assert not (np.abs(summands) < 2.0**1000).all()
                else:
                    assert totals[c].tobytes() == _exact_colsum(summands[:, None]).tobytes()
