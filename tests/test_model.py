"""Core probability primitives and domain types."""

import math
from dataclasses import replace

import numpy as np
import pytest

from recency.likelihood import _linear_pieces, log_pseudo_likelihood
from recency.model import (
    ModelSpec,
    RecencyLabel,
    Subject,
    SubjectArrays,
    Theta,
    as_arrays,
    derive_label,
    initial_theta,
    logistic,
    pi_recent,
)


class TestLogistic:
    def test_zero_is_half(self):
        assert logistic(0.0) == 0.5

    def test_seven(self):
        # expit(7) > 0.999: the rationale for pinning eta00 at 7
        assert logistic(7.0) == pytest.approx(0.9990889488055994, abs=1e-12)
        assert logistic(7.0) > 0.999

    def test_minus_seven_is_complement(self):
        assert logistic(-7.0) == pytest.approx(1.0 - logistic(7.0), abs=1e-15)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=2000)
        np.testing.assert_allclose(logistic(x) + logistic(-x), 1.0, atol=1e-15)

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            assert logistic(800.0) == 1.0
            assert logistic(-800.0) == 0.0

    def test_monotone(self):
        x = np.linspace(-30, 30, 5000)
        assert np.all(np.diff(logistic(x)) >= 0)


class TestPiRecent:
    def test_table_truth_point(self):
        # beta = (0.95, -0.53) at x = 0 is expit(0.95)
        assert pi_recent([0.0], [0.95, -0.53]) == pytest.approx(0.7211151780228631, abs=1e-12)

    def test_all_zero(self):
        assert pi_recent(np.zeros(5), np.zeros(6)) == 0.5

    def test_x_one(self):
        expected = logistic(0.95 - 0.53)
        assert pi_recent([1.0], [0.95, -0.53]) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pi_recent([1.0, 2.0], [0.5, 0.1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4)
        slopes = rng.normal(size=4)
        perm = rng.permutation(4)
        a = pi_recent(x, np.concatenate([[0.3], slopes]))
        b = pi_recent(x[perm], np.concatenate([[0.3], slopes[perm]]))
        assert a == pytest.approx(b, abs=1e-15)


def p_positive(s, eta, p0_one=False):
    """P(z = 1) at gaps s from the kernel's one test-result predictor: p1
    where s <= 1, p0 where s > 1."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    spec = ModelSpec(covariate_names=(), fix_eta00=None, fix_eta10=None,
                     p0_identically_one=p0_one)
    arrs = SubjectArrays(x=np.zeros((s.size, 0)), s=s, z=np.zeros(s.size, dtype=int),
                         w=np.ones(s.size))
    return np.exp(_linear_pieces(arrs, Theta(beta=np.zeros(1), eta=eta), spec)[2])


class TestP0P1:
    ETA = (7.0, -0.62, -7.0, -5.71)

    def test_boundary_s_equals_one(self):
        # s = 1 is inside the window (p1); the next double up is outside (p0)
        p1, p0 = p_positive([1.0, np.nextafter(1.0, 2.0)], self.ETA)
        assert p1 == pytest.approx(logistic(-7.0), abs=1e-15)
        assert p0 == pytest.approx(logistic(7.0), abs=1e-15)

    def test_p0_one_branch(self):
        p0 = p_positive(2.0, self.ETA, p0_one=True)
        assert p0 == 1.0

    def test_half_year(self):
        p1 = p_positive(0.5, self.ETA)
        assert p1 == pytest.approx(logistic(-7.0 + (-5.71) * (-0.5)), abs=1e-15)
        assert p1 == pytest.approx(logistic(-4.145), abs=1e-15)

    def test_monotone_decreasing_when_slopes_negative(self):
        s = np.linspace(0.05, 15, 400)
        p = p_positive(s, self.ETA)
        assert np.all(np.diff(p[s <= 1.0]) <= 0)   # p1
        assert np.all(np.diff(p[s > 1.0]) <= 0)    # p0


class TestDeriveLabel:
    def test_recent(self):
        assert derive_label(0.4, 0) is RecencyLabel.RECENT

    def test_long_term(self):
        assert derive_label(3.0, 1) is RecencyLabel.LONG_TERM

    def test_unknown_cells(self):
        assert derive_label(0.4, 1) is RecencyLabel.UNKNOWN
        assert derive_label(3.0, 0) is RecencyLabel.UNKNOWN

    def test_boundary_counts_as_within_one_year(self):
        assert derive_label(1.0, 0) is RecencyLabel.RECENT
        assert derive_label(1.0, 1) is RecencyLabel.UNKNOWN

    def test_partition_of_the_plane(self):
        # exactly four cells, two of them unknown
        labels = {(s, z): derive_label(s, z) for s in (0.2, 0.9, 1.0, 1.1, 8.0) for z in (0, 1)}
        cells = {(s <= 1.0, z): lab for (s, z), lab in labels.items()}
        assert len(cells) == 4
        assert sum(1 for lab in cells.values() if lab is RecencyLabel.UNKNOWN) == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_label(-1.0, 0)
        with pytest.raises(ValueError):
            derive_label(1.0, 2)


class TestSubject:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Subject(covariates=np.zeros(1), s=0.0, z=0)
        with pytest.raises(ValueError):
            Subject(covariates=np.zeros(1), s=math.inf, z=0)
        with pytest.raises(ValueError):
            Subject(covariates=np.zeros(1), s=1.0, z=0, w=0.0)
        with pytest.raises(ValueError):
            Subject(covariates=np.zeros(1), s=1.0, z=0.5)

    def test_label_property(self):
        sub = Subject(covariates=np.zeros(1), s=0.5, z=0)
        assert sub.label is RecencyLabel.RECENT

    def test_as_arrays_rejects_ragged(self):
        subs = [Subject(covariates=np.zeros(1), s=1.0, z=0),
                Subject(covariates=np.zeros(2), s=1.0, z=0)]
        with pytest.raises(ValueError):
            as_arrays(subs)

    def test_as_arrays_rejects_empty(self):
        with pytest.raises(ValueError):
            as_arrays([])


class TestThetaAndSpec:
    def test_pack_roundtrip(self):
        theta = Theta(beta=np.array([0.1, 0.2]), eta=np.array([7.0, -0.6, -7.0, -5.7]),
                      psi=np.array([0.3, -0.4]), eta_x=0.9)
        packed = theta.pack()
        assert packed.size == 9
        rebuilt = theta.with_packed(packed)
        np.testing.assert_array_equal(rebuilt.pack(), packed)

    def test_default_spec_free_names(self):
        spec = ModelSpec(covariate_names=("odn",))
        assert spec.free_names() == ("beta0", "beta_odn", "eta01", "eta11")

    def test_p0_one_removes_eta00_eta01(self):
        spec = ModelSpec(covariate_names=("odn",), p0_identically_one=True,
                         fix_eta00=None, fix_eta10=-7.0)
        free = spec.free_names()
        assert "eta00" not in free and "eta01" not in free
        assert free == ("beta0", "beta_odn", "eta11")

    def test_extended_adds_psi(self):
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        assert spec.free_names()[-2:] == ("psi0", "psi1")

    def test_initial_theta_matches_convention(self):
        spec = ModelSpec(covariate_names=("odn",))
        theta = initial_theta(spec)
        np.testing.assert_array_equal(theta.pack(), [0.0, 0.0, 7.0, 0.0, -7.0, -5.0])

    @pytest.mark.parametrize("extra", [{"psi": np.zeros(2)}, {"eta_x": 0.0}])
    def test_entry_the_spec_lacks_is_rejected(self, extra):
        # a tilt or eta_x the spec does not have would be ignored silently
        spec = ModelSpec(covariate_names=("odn",))
        theta = replace(initial_theta(spec), **extra)
        subs = [Subject(covariates=np.zeros(1), s=0.5, z=1)]
        with pytest.raises(ValueError, match=next(iter(extra))):
            log_pseudo_likelihood(subs, theta, spec)

    def test_z_model_covariate_must_exist(self):
        with pytest.raises(ValueError):
            ModelSpec(covariate_names=("odn",), z_model_covariate="age")
