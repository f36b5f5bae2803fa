"""CSV loading and the preprocessing pipeline."""

import math

import numpy as np
import pytest

from recency.dataio import ColumnMap, DataError, load, preprocess


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")
    return path


HEADER = ["id", "weight", "test_year", "test_month", "interview_year",
          "interview_month", "z", "age", "gender", "odn", "vl", "cd4"]


def standard_rows():
    return [
        ["a", 1.0, 2015, 3, 2016, 3, 0, 25, 1, 1.2, 0, 500],
        ["b", 2.0, 2014, 6, 2016, 1, 1, 40, 0, 3.1, 12000, 350],
        ["c", 3.0, 2015, 9, 2016, 2, 1, 31, 1, 0.4, 900, 610],
    ]


class TestLoad:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        records = load(path)
        assert len(records) == 3
        assert records[0].id == "a" and records[0].weight == 1.0
        assert records[1].z == 1 and records[1].vl == 12000

    def test_na_token_becomes_none(self, tmp_path):
        rows = standard_rows()
        rows[0][3] = "NA"
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        assert load(path)[0].test_month is None

    def test_unparseable_weight_names_row(self, tmp_path):
        rows = standard_rows()
        rows[1][1] = "heavy"
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="row 3"):
            load(path)

    def test_missing_mandatory_column(self, tmp_path):
        header = [c for c in HEADER if c != "weight"]
        rows = [r[:1] + r[2:] for r in standard_rows()]
        path = write_csv(tmp_path / "d.csv", header, rows)
        with pytest.raises(DataError, match="weight"):
            load(path)

    def test_s_column_substitutes_for_interview_date(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["id", "weight", "z", "s", "odn"],
                         [["a", 1.0, 0, 0.5, 1.2], ["b", 1.0, 1, 2.5, 0.3]])
        records = load(path)
        assert records[0].s == 0.5

    def test_month_out_of_range(self, tmp_path):
        rows = standard_rows()
        rows[0][3] = 13
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="test_month"):
            load(path)

    def test_negative_vl_rejected(self, tmp_path):
        rows = standard_rows()
        rows[0][10] = -5
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="vl"):
            load(path)

    def test_column_mapping_override(self, tmp_path):
        header = ["pid", "wt", "ty", "tm", "iy", "im", "result", "odn_val"]
        rows = [["x", 1.5, 2015, 2, 2016, 2, 1, 0.8]]
        path = write_csv(tmp_path / "d.csv", header, rows)
        cmap = ColumnMap(id="pid", weight="wt", test_year="ty", test_month="tm",
                         interview_year="iy", interview_month="im", z="result",
                         s=None, odn="odn_val")
        rec = load(path, cmap)[0]
        assert rec.id == "x" and rec.odn == 0.8


class TestPreprocess:
    def test_month_arithmetic_boundary(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        subjects, report = preprocess(load(path), covariates=("odn",))
        # test 2015-03 to interview 2016-03 is exactly one year
        assert subjects[0].s == pytest.approx(1.0)
        assert subjects[1].s == pytest.approx(19 / 12)
        assert report.n_retained == 3

    def test_logvl_of_zero_vl(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        _, report = preprocess(load(path), covariates=("logvl",))
        # standardization stats are computed on log(VL + 1); row a has VL = 0
        mean, sd = report.stats["logvl"]
        raw = [math.log1p(0), math.log1p(12000), math.log1p(900)]
        assert mean == pytest.approx(np.mean(raw))
        assert sd == pytest.approx(np.std(raw))

    def test_weight_rescaling(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        subjects, _ = preprocess(load(path), covariates=("odn",))
        weights = [sub.w for sub in subjects]
        assert weights == pytest.approx([0.5, 1.0, 1.5])
        assert math.fsum(weights) == pytest.approx(3.0, abs=1e-9)

    def test_standardized_moments(self, tmp_path):
        rng = np.random.default_rng(31)
        rows = []
        for i in range(50):
            rows.append([f"r{i}", float(rng.uniform(0.5, 2)), 2014, int(rng.integers(1, 13)),
                         2016, 6, int(rng.integers(2)), float(rng.uniform(18, 60)), 1,
                         float(rng.normal(2, 1)), float(rng.uniform(0, 1e5)),
                         float(rng.uniform(200, 900))])
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        subjects, _ = preprocess(load(path), covariates=("age", "odn", "logvl", "cd4"))
        mat = np.stack([sub.covariates for sub in subjects])
        np.testing.assert_allclose(mat.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(mat.std(axis=0), 1.0, atol=1e-9)

    def test_drop_reasons_recorded(self, tmp_path):
        rows = standard_rows()
        rows[0][6] = "NA"      # missing z
        rows[1][2] = "NA"      # missing test year
        rows[2][9] = "NA"      # missing odn
        rows.append(["d", 1.0, 2016, 3, 2016, 3, 0, 25, 1, 1.0, 10, 400])  # s = 0
        rows.append(["e", 1.0, 2015, 1, 2016, 1, 1, 30, 0, 0.9, 20, 450])  # kept
        rows.append(["f", 1.0, 2014, 5, 2016, 1, 0, 22, 1, 2.4, 30, 520])  # kept
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        subjects, report = preprocess(load(path), covariates=("odn",))
        reasons = dict(report.dropped)
        assert "missing test result" in reasons["a"]
        assert "missing test year" in reasons["b"]
        assert "covariate odn" in reasons["c"]
        assert "nonpositive" in reasons["d"]
        assert len(subjects) == 2

    def test_imputation_reproducible_and_feasible(self, tmp_path):
        rows = []
        for i in range(30):
            rows.append([f"r{i}", 1.0, 2016, "NA", 2016, 7, 1, 30, 1, 1.0 + 0.1 * i, 10, 400])
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        subs_a, rep_a = preprocess(load(path), seed=5, covariates=("odn",))
        subs_b, rep_b = preprocess(load(path), seed=5, covariates=("odn",))
        assert [s.s for s in subs_a] == [s.s for s in subs_b]
        assert rep_a.imputations == rep_b.imputations
        # same-year imputation must leave the test strictly before the interview
        for _, month in rep_a.imputations:
            assert 1 <= month <= 6
        subs_c, _ = preprocess(load(path), seed=6, covariates=("odn",))
        assert [s.s for s in subs_c] != [s.s for s in subs_a]

    def test_imputation_disabled_drops(self, tmp_path):
        rows = standard_rows()
        rows[0][3] = "NA"
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        subjects, report = preprocess(load(path), covariates=("odn",), impute_month=False)
        assert len(subjects) == 2
        assert any("imputation disabled" in reason for _, reason in report.dropped)

    def test_zero_variance_covariate_errors(self, tmp_path):
        rows = standard_rows()
        for r in rows:
            r[9] = 2.0
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="odn"):
            preprocess(load(path), covariates=("odn",))

    def test_frozen_standardization(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows()[:1])
        subjects, report = preprocess(load(path), covariates=("odn",),
                                      standardization={"odn": [1.0, 0.5]})
        assert subjects[0].covariates[0] == pytest.approx((1.2 - 1.0) / 0.5)
        assert report.stats["odn"] == (1.0, 0.5)
        with pytest.raises(DataError, match="odn"):
            preprocess(load(path), covariates=("odn",), standardization={})

    def test_all_rows_dropped_errors(self, tmp_path):
        rows = [["a", 1.0, "NA", "NA", 2016, 3, 0, 25, 1, 1.2, 0, 500]]
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="no usable rows"):
            preprocess(load(path), covariates=("odn",))

    def test_gender_passthrough_not_standardized(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        subjects, report = preprocess(load(path), covariates=("gender", "odn"))
        assert {sub.covariates[0] for sub in subjects} == {0.0, 1.0}
        assert "gender" not in report.stats

    def test_phia_vl_categories(self, tmp_path):
        rows = [
            ["a", 1.0, 2015, 3, 2016, 3, 0, 25, 1, 1.2, "undetectable", 500],
            ["b", 1.0, 2014, 6, 2016, 1, 1, 40, 0, 3.1, "less than 20", 350],
            ["c", 1.0, 2015, 9, 2016, 2, 1, 31, 1, 0.4, "more than 10 million", 610],
            ["d", 1.0, 2015, 1, 2016, 2, 1, 28, 0, 0.9, 4500, 410],
        ]
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        records = load(path, phia_vl=True)
        subjects, report = preprocess(records, seed=3, covariates=("logvl",))
        mean, sd = report.stats["logvl"]
        assert len(subjects) == 4
        raw = {rec.id: rec for rec in records}
        assert raw["a"].vl_raw == "undetectable"
        # recover the resolved values from the standardized columns
        resolved = {sub_id: mean + sd * sub.covariates[0]
                    for sub_id, sub in zip("abcd", subjects)}
        assert resolved["a"] == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= math.expm1(resolved["b"]) < 20.0
        assert math.expm1(resolved["c"]) == pytest.approx(1e7, rel=1e-6)

    def test_unknown_covariate_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        with pytest.raises(DataError, match="unknown covariate"):
            preprocess(load(path), covariates=("bmi",))
