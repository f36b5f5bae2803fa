"""Risk predictions, recency rate, incidence, and the rule-based baseline."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recency.estimation import fit
from recency.model import ModelSpec, initial_theta, logistic, pi_recent
from recency.prediction import (
    _reprs,
    export_predictions,
    incidence,
    recency_rate,
    rita_classify,
    type2_risk,
)
from recency.simulation import default_config, generate
from subjects import subjects

SPEC = ModelSpec(covariate_names=("odn",))
THETA = initial_theta(SPEC).with_packed(np.array([0.95, -0.53, 7.0, -0.62, -7.0, -5.71]))


def type1(x, theta=THETA):
    """Type-1 risk of subjects with these odn values."""
    return pi_recent(np.asarray(x, dtype=float)[:, None], theta.beta)


def type2(s, z, x=0.0, theta=THETA, spec=SPEC):
    """Type-2 risk of subjects (s, z, x), scored as one batch."""
    return type2_risk(subjects(x if np.ndim(x) == 0 else np.asarray(x)[:, None], s, z),
                      theta, spec)


class TestType1:
    def test_table_point(self):
        assert type1([0.0]) == pytest.approx([logistic(0.95)], abs=1e-12)

    def test_zero_beta(self):
        theta = initial_theta(SPEC)
        np.testing.assert_array_equal(type1([0.0], theta), [0.5])

    def test_monotone_in_odn(self):
        risks = type1(np.linspace(-3, 3, 25))
        assert (np.diff(risks) < 0).all()


class TestType2:
    def test_labeled_cells_exact(self):
        # the boundary s = 1 is recent
        np.testing.assert_array_equal(type2([0.5, 3.0, 1.0], [0, 1, 0]), [1.0, 0.0, 1.0])

    def test_case_iii_closed_form(self):
        # 1 / (exp(-x'beta) * (1 + exp(-eta10 - eta11 (s-1))) + 1)
        expected = 1.0 / (math.exp(-0.95) * (1.0 + math.exp(4.145)) + 1.0)
        assert type2(0.5, 1) == pytest.approx([expected], rel=1e-12)

    def test_case_iv_closed_form(self):
        s = 6.0
        p0 = logistic(7.0 - 0.62 * (s - 1.0))
        expected = 1.0 / (math.exp(-0.95) * (1.0 - p0) + 1.0)
        assert type2(s, 0) == pytest.approx([expected], rel=1e-12)

    def test_p0_one_forces_case_iv_to_one(self):
        spec = ModelSpec(covariate_names=("odn",), p0_identically_one=True, fix_eta00=None)
        theta = initial_theta(spec).with_packed(np.array([0.95, -0.53, 0.0, 0.0, -7.0, -5.71]))
        np.testing.assert_array_equal(type2(4.0, 0, theta=theta, spec=spec), [1.0])

    def test_monotone_in_s(self):
        with_z1 = type2(np.linspace(0.02, 1.0, 30), 1)
        assert (np.diff(with_z1) <= 0).all()
        with_z0 = type2(np.linspace(1.01, 20, 30), 0)
        assert (np.diff(with_z0) <= 0).all()

    def test_drops_fast_as_s_approaches_one_with_positive_test(self):
        early, late = type2([0.05, 0.95], 1)
        assert early > 50 * late

    def test_matches_monte_carlo_posterior(self):
        rng = np.random.default_rng(80)
        points = [(0.5, 1, 0.3), (2.5, 0, -0.8)]
        closed = type2(*map(list, zip(*points)))
        for (s, z, x), risk in zip(points, closed, strict=True):
            n = 400_000
            pi = logistic(0.95 - 0.53 * x)
            y = rng.random(n) < pi
            if s <= 1:
                p1 = logistic(-7.0 - 5.71 * (s - 1.0))
                zs = np.where(y, rng.random(n) < p1, True)
                mask = zs == (z == 1)
            else:
                p0 = logistic(7.0 - 0.62 * (s - 1.0))
                zs = np.where(y, False, rng.random(n) < p0)
                mask = zs == (z == 1)
            posterior = y[mask].mean()
            assert risk == pytest.approx(posterior, abs=0.02)

    def test_tilt_enters_unknown_cells(self):
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        free = np.array([0.95, -0.53, -0.62, -5.71, 0.0, 0.0])
        theta0 = initial_theta(spec).with_free(free, spec)
        tilted = initial_theta(spec).with_free(
            np.array([0.95, -0.53, -0.62, -5.71, -0.4, 0.2]), spec)
        s = 3.0
        (base,) = type2(s, 0, theta=theta0, spec=spec)
        (up,) = type2(s, 0, theta=tilted, spec=spec)
        e = math.exp(-0.4 + 0.2 * s)  # tilt multiplies the recent branch
        p0 = logistic(7.0 - 0.62 * (s - 1.0))
        expected = 1.0 / (math.exp(-0.95) * (1.0 - p0) / e + 1.0)
        assert up == pytest.approx(expected, rel=1e-12)
        assert up != base

    def test_one_row_batch_equals_its_row_in_the_full_batch(self):
        # the "tiny prediction batch": each subject scored alone gets the
        # bits it gets inside the batch
        rng = np.random.default_rng(81)
        arrs = subjects(rng.normal(size=(40, 1)), rng.gamma(0.8, 2.5, size=40),
                        rng.integers(0, 2, size=40))
        full = type2_risk(arrs, THETA, SPEC)
        alone = [type2_risk(arrs.subset([i]), THETA, SPEC)[0] for i in range(arrs.n)]
        assert full.tolist() == alone


class TestRecencyRate:
    def test_all_recent_is_one(self):
        assert recency_rate(subjects(0.0, [0.5, 0.9], 0), THETA, SPEC) == 1.0

    def test_weighted_average(self):
        subs = subjects(0.0, [0.5, 4.0], [0, 1], w=[3.0, 1.0])
        assert recency_rate(subs, THETA, SPEC) == pytest.approx(0.75, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty dataset"):
            recency_rate(subjects(np.zeros((0, 1)), [], []), THETA, SPEC)

    def test_theta_without_psi_rejected_under_extended_spec(self, tmp_path):
        spec = ModelSpec(covariate_names=("odn",), extended=True)
        subs = subjects(0.0, [0.5, 4.0], [1, 0])
        with pytest.raises(ValueError, match="psi"):
            recency_rate(subs, THETA, spec)
        with pytest.raises(ValueError, match="psi"):
            export_predictions(tmp_path / "pred.csv", subs, THETA, spec)
        assert not (tmp_path / "pred.csv").exists()


class TestIncidence:
    def test_zero_prevalence(self):
        assert incidence(0.0, 0.5, 0.7) == 0.0

    def test_full_art_coverage(self):
        assert incidence(0.1, 1.0, 0.7) == 0.0

    def test_arithmetic_point(self):
        value = incidence(0.1, 0.7, 0.71)
        expected = 0.0213 / (0.9 + 0.0213)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.02312, abs=5e-5)

    def test_monotonicity(self):
        base = incidence(0.1, 0.7, 0.71)
        assert incidence(0.2, 0.7, 0.71) > base
        assert incidence(0.1, 0.6, 0.71) > base
        assert incidence(0.1, 0.7, 0.80) > base

    def test_zero_over_zero_guard(self):
        with pytest.raises(ZeroDivisionError):
            incidence(1.0, 1.0, 0.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            incidence(1.2, 0.5, 0.5)


class TestRita:
    def test_both_thresholds_met(self):
        assert rita_classify(1.0, 5000.0) == 1

    def test_odn_too_high(self):
        assert rita_classify(2.0, 5000.0) == 0

    def test_vl_too_low(self):
        assert rita_classify(1.0, 500.0) == 0

    def test_boundaries_inclusive(self):
        assert rita_classify(1.5, 1000.0) == 1


class TestExport:
    def test_bytes_match_csv_writer(self, tmp_path):
        # ids with each character csv.writer quotes, one with a leading
        # space (not quoted) and one that only looks quoted
        ids = ["a,b", 'say "hi"', "cr\rid", "lf\nid", " lead", '"q"', "plain"]
        subs = subjects([[0.2], [-0.1], [0.0], [1.0], [0.3], [-1.0], [0.5]],
                        [0.5, 0.5, 4.0, 4.0, 0.25, 2.0, 1.0], [0, 1, 0, 1, 0, 1, 0])
        path = tmp_path / "pred.csv"
        export_predictions(path, subs, THETA, SPEC, ids)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert path.read_bytes() == expected.read_bytes()
        assert [row[0] for row in rows[1:]] == ids

    def test_csv_round_trip(self, tmp_path):
        subs = subjects([[0.2], [-0.1], [0.0], [1.0]], [0.5, 0.5, 4.0, 4.0], [0, 1, 0, 1])
        path = tmp_path / "pred.csv"
        export_predictions(path, subs, THETA, SPEC)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["recent", "unknown", "unknown", "longterm"]
        assert float(rows[0]["type2"]) == 1.0
        assert float(rows[3]["type2"]) == 0.0
        assert [float(row["type1"]) for row in rows] == pi_recent(subs.x, THETA.beta).tolist()
        assert [float(row["type2"]) for row in rows] == type2_risk(subs, THETA, SPEC).tolist()

    def test_id_count_is_checked_before_the_file_opens(self, tmp_path):
        subs = subjects([[0.2], [-0.1], [0.0], [1.0]], [0.5, 0.5, 4.0, 4.0], [0, 1, 0, 1])
        path = tmp_path / "pred.csv"
        with pytest.raises(ValueError, match=r"^3 ids for 4 rows$"):
            export_predictions(path, subs, THETA, SPEC, ["a", "b", "c"])
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(),
        # signed zeros, the smallest subnormal and normal, and the values
        # where repr switches to and from exponent notation
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
                         9999999999999998.0, 1e-5, 0.0001, 1.0, 0.1 + 0.2]),
    ), min_size=1, max_size=40), st.integers(1, 3))
    def test_distinct_value_text_is_repr_per_element(self, values, step):
        a = np.array(values)
        assert _reprs(a) == [repr(v) for v in values]
        # a strided view is told apart by the same bits
        assert _reprs(a[::step]) == [repr(v) for v in values[::step]]

    def test_non_float_column_keeps_its_own_repr(self):
        assert _reprs(np.array([1, 2, 1])) == ["1", "2", "1"]


class TestCovariateCount:
    """A dataset whose x has another column count than the spec's
    covariates is named, not left to numpy's matmul error."""

    @pytest.mark.parametrize("call", [
        lambda arrs, tmp: fit(arrs, SPEC),
        lambda arrs, tmp: fit(arrs, replace(SPEC, extended=True)),
        lambda arrs, tmp: recency_rate(arrs, THETA, SPEC),
        lambda arrs, tmp: type2_risk(arrs, THETA, SPEC),
        lambda arrs, tmp: export_predictions(tmp / "pred.csv", arrs, THETA, SPEC),
    ], ids=["fit", "fit_extended", "recency_rate", "type2_risk", "export_predictions"])
    def test_doubled_odn_column_is_named(self, tmp_path, call):
        arrs = generate(default_config("1", n_total=200, seed=0)).train_arrays
        doubled = replace(arrs, x=np.hstack([arrs.x, arrs.x]))
        with pytest.raises(ValueError, match=r"^x has 2 covariate column\(s\) but the spec has 1: "
                                             r"\('odn',\)$"):
            call(doubled, tmp_path)
        assert not (tmp_path / "pred.csv").exists()
