"""Core probability primitives and domain types."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recency.estimation import fit
from recency.likelihood import _KernelData, _linear_pieces, log_pseudo_likelihood
from recency.model import (
    ModelSpec,
    SubjectArrays,
    Theta,
    as_arrays,
    initial_theta,
    logistic,
    pi_recent,
)
from recency.prediction import type2_risk
from recency.simulation import default_config, generate
from subjects import subjects


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
    return np.exp(_linear_pieces(_KernelData(arrs, spec), Theta(beta=np.zeros(1), eta=eta))[2])


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


def labels(s, z):
    """Each subject's tri-state label, read from case_masks."""
    recent, longterm, _, _ = subjects(0.0, s, z).case_masks()
    return np.where(recent, "recent", np.where(longterm, "longterm", "unknown")).tolist()


class TestDeriveLabel:
    """The label the reported (s, z) derives: cell I is recent, cell II
    long-term, cells III and IV unknown."""

    def test_recent(self):
        assert labels(0.4, 0) == ["recent"]

    def test_long_term(self):
        assert labels(3.0, 1) == ["longterm"]

    def test_unknown_cells(self):
        assert labels([0.4, 3.0], [1, 0]) == ["unknown", "unknown"]

    def test_boundary_counts_as_within_one_year(self):
        assert labels([1.0, 1.0], [0, 1]) == ["recent", "unknown"]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="s must be finite and positive, got -1.0 at row 0"):
            labels(-1.0, 0)
        with pytest.raises(ValueError, match="z must be 0 or 1, got 2 at row 0"):
            labels(1.0, 2)


def one_subject(**bad):
    """One valid subject's columns, with ``bad`` in place of its values."""
    cols = {"x": np.zeros((1, 1)), "s": np.ones(1), "z": np.zeros(1, dtype=int),
            "w": np.ones(1)}
    cols.update({name: np.array([value]) for name, value in bad.items()})
    return SubjectArrays(**cols)


class TestSubject:
    """Per-subject invariants, which SubjectArrays checks when it is built."""

    def test_invariants(self):
        for field, value in (("s", 0.0), ("s", math.inf), ("w", 0.0), ("z", 0.5)):
            with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value} at row 0$"):
                one_subject(**{field: value})

    def test_label_property(self):
        assert labels([0.5, 3.0, 0.5, 3.0], [0, 1, 1, 0]) == [
            "recent", "longterm", "unknown", "unknown"]

    def test_as_arrays_rejects_ragged(self):
        with pytest.raises(ValueError, match="x has 1 rows but s has 2: row 1 has no x"):
            as_arrays(SubjectArrays(x=np.zeros((1, 1)), s=np.ones(2), z=np.zeros(2, dtype=int),
                                    w=np.ones(2)))

    def test_as_arrays_rejects_empty(self):
        with pytest.raises(ValueError, match="empty dataset"):
            as_arrays(subjects(np.zeros((0, 1)), [], []))


def s1_train():
    return generate(default_config("1", n_total=2000, seed=0)).train_arrays


def with_row(arrs, field, row, value):
    """``arrs`` with ``field[row]`` set to ``value`` (z as float when it must be)."""
    col = getattr(arrs, field).copy()
    if isinstance(value, float) and col.dtype.kind != "f":
        col = col.astype(float)
    col[row] = value
    return replace(arrs, **{field: col})


class TestSubjectArrays:
    """Bad survey columns raise a ValueError naming the field and the row;
    before the check, fit took each of these without an error."""

    @pytest.mark.parametrize("field, value, shown", [
        ("z", 2, "2"), ("z", 0.5, "0.5"), ("s", -1.0, "-1.0"), ("s", math.nan, "nan"),
        ("w", -1.0, "-1.0"), ("x", math.inf, r"\[inf\]"),
    ])
    def test_bad_value_names_field_and_row(self, field, value, shown):
        arrs = s1_train()
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {shown} at row 17$"):
            fit(with_row(arrs, field, 17, value), ModelSpec(("odn",)))

    def test_negative_weight_with_the_sum_kept(self):
        arrs = s1_train()
        w = arrs.w.copy()
        w[17], w[18] = -1.0, 3.0
        assert w.sum() == arrs.n
        with pytest.raises(ValueError, match="^w must be finite and positive, got -1.0 at row 17$"):
            replace(arrs, w=w)

    def test_short_covariate_matrix(self):
        arrs = s1_train()
        with pytest.raises(ValueError, match="^x has 999 rows but s has 1000: row 999 has no x$"):
            replace(arrs, x=arrs.x[:-1])

    def test_float_z_of_zeros_and_ones(self):
        arrs = s1_train()
        with pytest.raises(ValueError, match="^z must have an integer dtype, got float64$"):
            replace(arrs, z=arrs.z.astype(float))

    @pytest.mark.parametrize("field, shape", [("x", (3,)), ("s", (3, 1)), ("w", (3, 1))])
    def test_wrong_rank(self, field, shape):
        cols = {"x": np.zeros((3, 1)), "s": np.ones(3), "z": np.zeros(3, dtype=int),
                "w": np.ones(3), field: np.ones(shape)}
        with pytest.raises(ValueError, match=rf"^{field} must be .*-d"):
            SubjectArrays(**cols)

    def test_empty_dataset(self):
        spec = ModelSpec(("odn",))
        with pytest.raises(ValueError, match="^empty dataset$"):
            log_pseudo_likelihood(s1_train().subset(np.zeros(1000, dtype=bool)),
                                  initial_theta(spec), spec)

    def test_no_covariates_and_no_copy(self):
        # backward_stepwise may drop every covariate
        arrs = s1_train()
        x = arrs.x[:, []]
        kept = replace(arrs, x=x)
        assert kept.x is x and kept.s is arrs.s and kept.z is arrs.z and kept.w is arrs.w

    @pytest.mark.parametrize("data", [[], [(np.zeros(1), 0.5, 0, 1.0)], {"s": np.ones(2)}],
                             ids=["empty-list", "row-list", "dict"])
    def test_anything_else_is_a_type_error(self, data):
        spec = ModelSpec(("odn",))
        with pytest.raises(TypeError, match=f"expected SubjectArrays, got {type(data).__name__}"):
            as_arrays(data)
        with pytest.raises(TypeError, match="expected SubjectArrays"):
            fit(data, spec)
        with pytest.raises(TypeError, match="expected SubjectArrays"):
            type2_risk(data, initial_theta(spec), spec)

    def test_column_that_is_not_an_array(self):
        with pytest.raises(TypeError, match="^s must be a numpy array, got list$"):
            SubjectArrays(x=np.zeros((2, 1)), s=[0.5, 2.0], z=np.zeros(2, dtype=int),
                          w=np.ones(2))


NEXT_AFTER_ONE = float(np.nextafter(1.0, 2.0))


@st.composite
def valid_columns(draw):
    """Columns of 1-30 valid subjects with 0-3 covariates; s is often
    exactly 1.0 or the next double up."""
    n = draw(st.integers(1, 30))
    c = draw(st.integers(0, 3))
    x = draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=c, max_size=c),
                      min_size=n, max_size=n))
    gap = st.one_of(st.sampled_from([1.0, NEXT_AFTER_ONE]), st.floats(1e-6, 50.0))
    s = draw(st.lists(gap, min_size=n, max_size=n))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    w = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return {"x": np.array(x, dtype=float).reshape(n, c), "s": np.array(s),
            "z": np.array(z, dtype=int), "w": np.array(w)}


class TestSubjectArraysProperties:
    @settings(max_examples=60, deadline=None)
    @given(valid_columns())
    def test_valid_columns_construct_uncopied(self, cols):
        arrs = SubjectArrays(**cols)
        assert all(getattr(arrs, name) is col for name, col in cols.items())

    @settings(max_examples=60, deadline=None)
    @given(valid_columns())
    def test_case_masks_partition_rows(self, cols):
        arrs = SubjectArrays(**cols)
        masks = np.array(arrs.case_masks())
        assert (masks.sum(axis=0) == 1).all()
        inside = np.array([s <= 1.0 for s in cols["s"].tolist()])
        assert inside[cols["s"] == 1.0].all() and not inside[cols["s"] == NEXT_AFTER_ONE].any()
        negative = cols["z"] == 0
        for mask, expected in zip(masks, (inside & negative, ~inside & ~negative,
                                          inside & ~negative, ~inside & negative)):
            np.testing.assert_array_equal(mask, expected)

    @settings(max_examples=60, deadline=None)
    @given(valid_columns(), st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
    def test_type2_in_unit_interval_and_pinned_in_cells_i_ii(self, cols, free):
        arrs = SubjectArrays(**cols)
        spec = ModelSpec(tuple(f"c{j}" for j in range(arrs.x.shape[1])))
        # beta, then the free eta01 and eta11
        theta = initial_theta(spec).with_free(np.array(free[:spec.n_beta] + free[4:]), spec)
        t2 = type2_risk(arrs, theta, spec)
        recent, longterm, _, _ = arrs.case_masks()
        assert t2.shape == (arrs.n,) and ((t2 >= 0.0) & (t2 <= 1.0)).all()
        assert (t2[recent] == 1.0).all() and (t2[longterm] == 0.0).all()

    @settings(max_examples=100, deadline=None)
    @given(valid_columns(), st.data())
    def test_one_corrupt_cell_names_field_and_row(self, cols, data):
        n, c = cols["x"].shape
        field = data.draw(st.sampled_from(["s", "z", "w"] + (["x"] if c else [])))
        row = data.draw(st.integers(0, n - 1))
        bad = {"x": [math.inf, -math.inf, math.nan],
               "s": [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan],
               "z": [2, -1, 0.5, math.nan],
               "w": [0.0, -1.0, math.inf, math.nan]}[field]
        value = data.draw(st.sampled_from(bad))
        col = cols[field].astype(float) if isinstance(value, float) else cols[field].copy()
        if field == "x":
            col[row, data.draw(st.integers(0, c - 1))] = value
        else:
            col[row] = value
        with pytest.raises(ValueError, match=rf"^{field} must be .* at row {row}$"):
            SubjectArrays(**{**cols, field: col})


class TestThetaAndSpec:
    @pytest.mark.parametrize("fields, message", [
        (dict(beta=np.zeros((1, 2))), "^beta must be a 1-d vector with the intercept in slot 0$"),
        (dict(beta=np.zeros(0)), "^beta must be a 1-d vector with the intercept in slot 0$"),
        (dict(eta=np.zeros(3)), r"^eta must have 4 entries .* got shape \(3,\)$"),
        (dict(psi=np.zeros(3)), r"^psi must have 2 entries, got shape \(3,\)$"),
    ], ids=["beta-2d", "beta-empty", "eta", "psi"])
    def test_shape_errors(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Theta(**{"beta": np.zeros(2), "eta": np.zeros(4), **fields})

    def test_with_packed_checks_the_length(self):
        theta = initial_theta(ModelSpec(covariate_names=("odn",), extended=True))
        with pytest.raises(ValueError, match="^expected packed length 8, got 7$"):
            theta.with_packed(np.zeros(7))

    def test_z_model_covariate_index(self):
        assert ModelSpec(covariate_names=("odn", "age")).z_model_covariate_index is None
        spec = ModelSpec(covariate_names=("odn", "age"), z_model_covariate="age")
        assert spec.z_model_covariate_index == 1

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
        with pytest.raises(ValueError, match=next(iter(extra))):
            log_pseudo_likelihood(subjects(0.0, 0.5, 1), theta, spec)

    @pytest.mark.parametrize("names, shown", [
        (("odn", "odn"), "odn"), (("age", "odn", "cd4", "odn", "age"), "age, odn"),
    ])
    def test_repeated_covariate_rejected(self, names, shown):
        # two beta_odn entries would share one name in every report
        with pytest.raises(ValueError, match=rf"^covariate\(s\) listed more than once: {shown}$"):
            ModelSpec(covariate_names=names)
        with pytest.raises(ValueError, match="listed more than once"):
            replace(ModelSpec(covariate_names=("odn",)), covariate_names=names)

    def test_z_model_covariate_must_exist(self):
        with pytest.raises(ValueError, match="^'z_model_covariate' is 'age', not among"):
            ModelSpec(covariate_names=("odn",), z_model_covariate="age")

    @pytest.mark.parametrize("kwargs, field", [
        # a bare string was split into the covariates o, d and n
        ({"covariate_names": "odn"}, "covariate_names"),
        ({"covariate_names": ("odn", 1)}, "covariate_names"),
        ({"covariate_names": None}, "covariate_names"),
        ({"fix_eta00": "7"}, "fix_eta00"),
        ({"fix_eta00": True}, "fix_eta00"),
        ({"fix_eta00": math.nan}, "fix_eta00"),
        ({"fix_eta10": -math.inf}, "fix_eta10"),
        ({"fix_eta10": [-7.0]}, "fix_eta10"),
        ({"p0_identically_one": "yes"}, "p0_identically_one"),
        ({"extended": 1}, "extended"),
    ], ids=lambda v: v if isinstance(v, str) else repr(next(iter(v.values()))))
    def test_wrongly_typed_field_named(self, kwargs, field):
        spec = {"covariate_names": ("odn",), **kwargs}
        with pytest.raises(ValueError, match=f"^'{field}' is "):
            ModelSpec(**spec)

    @pytest.mark.parametrize("value", [np.float64(7.0), np.int64(7), 7],
                             ids=["float64", "int64", "int"])
    def test_numpy_and_integer_pins_are_numbers(self, value):
        spec = ModelSpec(covariate_names=["odn"], fix_eta00=value, fix_eta10=value)
        assert spec.covariate_names == ("odn",)
        assert type(spec.fix_eta00) is float and spec.fix_eta00 == 7.0
        assert type(spec.fix_eta10) is float and spec.fix_eta10 == 7.0
