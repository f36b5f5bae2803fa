"""CSV loading and the preprocessing pipeline."""

import csv
import dataclasses
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from recency import dataio
from recency.dataio import ColumnMap, DataError, RawColumns, load, preprocess
from recency.estimation import backward_stepwise, fit
from recency.model import ModelSpec
from recency.prediction import recency_rate
from recency.simulation import default_config, generate


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
        assert records.ids[0] == "a" and records.weight[0] == 1.0
        assert records.z[1] == 1 and records.vl[1] == 12000

    def test_na_token_becomes_none(self, tmp_path):
        rows = standard_rows()
        rows[0][3] = "NA"
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        assert math.isnan(load(path).test_month[0])

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
        assert records.s[0] == 0.5

    def test_short_row_reads_missing_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("weight,z,s,odn,id\n1.0,0,0.5,1.2\n1.0,1,2.5\n")
        records = load(path)
        assert records.ids == ["1", "2"]
        assert records.odn[0] == 1.2 and math.isnan(records.odn[1])

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["weight", "age", "gender", "odn", "vl", "cd4"])
    def test_nonfinite_cell_names_row(self, tmp_path, column, token):
        rows = standard_rows()
        rows[1][HEADER.index(column)] = token
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match=f"row 3: column '{column}' must be finite"):
            load(path, phia_vl=column == "vl")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_nonfinite_s_names_row(self, tmp_path, token):
        path = write_csv(tmp_path / "d.csv", ["id", "weight", "z", "s", "odn"],
                         [["a", 1.0, 0, 0.5, 1.2], ["b", 1.0, 1, token, 0.3]])
        with pytest.raises(DataError, match="row 3: column 's' must be finite"):
            load(path)

    @pytest.mark.parametrize("column, cell", [
        ("odn", "1_0"), ("test_year", "2_015"), ("test_month", "\u0663"), ("odn", "\u0661.5"),
    ])
    def test_underscore_and_non_ascii_digits_refused(self, tmp_path, column, cell):
        # int and float read 2_015 as 2015 and an Arabic-Indic three as 3
        rows = standard_rows()
        rows[1][HEADER.index(column)] = cell
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match=f"^row 3: column '{column}' has unparseable value"):
            csv_path_load(path)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"])
    def test_underscore_viral_load_is_categorical_under_phia_vl(self, tmp_path, cell):
        rows = standard_rows()
        rows[1][HEADER.index("vl")] = cell
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        records = csv_path_load(path, phia_vl=True)
        assert records.vl_raw == {1: cell} and math.isnan(records.vl[1])

    @pytest.mark.parametrize("others", [
        ["2014", "2015"],            # every cell an integer: the first parse
        ["NA", "2015"],              # an NA cell: the second parse
        ["2014", "NA "],             # a padded NA: cell by cell
        ["2014", "\u0662\u0660"],    # a non-ASCII cell: cell by cell
    ], ids=["plain", "na", "padded-na", "non-ascii"])
    def test_integer_beyond_float_range_is_not_finite(self, others):
        huge = "1" + "0" * 400
        with pytest.raises(DataError, match=f"^row 3: column 'test_year' must be finite, "
                                            f"got '{huge}'$"):
            dataio._parse([others[0], huge, others[1]], int, "test_year")

    def test_column_mapping_override(self, tmp_path):
        header = ["pid", "wt", "ty", "tm", "iy", "im", "result", "odn_val"]
        rows = [["x", 1.5, 2015, 2, 2016, 2, 1, 0.8]]
        path = write_csv(tmp_path / "d.csv", header, rows)
        cmap = ColumnMap(id="pid", weight="wt", test_year="ty", test_month="tm",
                         interview_year="iy", interview_month="im", z="result",
                         s=None, odn="odn_val")
        records = load(path, cmap)
        assert records.ids[0] == "x" and records.odn[0] == 0.8


class TestPreprocess:
    def test_month_arithmetic_boundary(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        arrays, report = preprocess(load(path), covariates=("odn",))
        # test 2015-03 to interview 2016-03 is exactly one year
        assert arrays.s[0] == pytest.approx(1.0)
        assert arrays.s[1] == pytest.approx(19 / 12)
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
        arrays, _ = preprocess(load(path), covariates=("odn",))
        weights = arrays.w.tolist()
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
        arrays, _ = preprocess(load(path), covariates=("age", "odn", "logvl", "cd4"))
        mat = arrays.x
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
        arrays, report = preprocess(load(path), covariates=("odn",))
        reasons = dict(report.dropped)
        assert "missing test result" in reasons["a"]
        assert "missing test year" in reasons["b"]
        assert "covariate odn" in reasons["c"]
        assert "nonpositive" in reasons["d"]
        assert arrays.n == 2

    def test_imputation_reproducible_and_feasible(self, tmp_path):
        rows = []
        for i in range(30):
            rows.append([f"r{i}", 1.0, 2016, "NA", 2016, 7, 1, 30, 1, 1.0 + 0.1 * i, 10, 400])
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        arrs_a, rep_a = preprocess(load(path), seed=5, covariates=("odn",))
        arrs_b, rep_b = preprocess(load(path), seed=5, covariates=("odn",))
        assert arrs_a.s.tolist() == arrs_b.s.tolist()
        assert rep_a.imputations == rep_b.imputations
        # same-year imputation must leave the test strictly before the interview
        for _, month in rep_a.imputations:
            assert 1 <= month <= 6
        arrs_c, _ = preprocess(load(path), seed=6, covariates=("odn",))
        assert arrs_c.s.tolist() != arrs_a.s.tolist()

    def test_imputation_disabled_drops(self, tmp_path):
        rows = standard_rows()
        rows[0][3] = "NA"
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        arrays, report = preprocess(load(path), covariates=("odn",), impute_month=False)
        assert arrays.n == 2
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
        arrays, report = preprocess(load(path), covariates=("odn",),
                                    standardization={"odn": [1.0, 0.5]})
        assert arrays.x[0, 0] == pytest.approx((1.2 - 1.0) / 0.5)
        assert report.stats["odn"] == (1.0, 0.5)
        with pytest.raises(DataError, match="odn"):
            preprocess(load(path), covariates=("odn",), standardization={})

    def test_weights_that_cannot_be_rescaled(self, tmp_path):
        rows = standard_rows()
        for r in rows:
            r[1] = 1e308   # the sum overflows
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="cannot be rescaled"):
            preprocess(load(path), covariates=("odn",))

    def test_random_draws_keep_row_order(self, tmp_path):
        # Pins the draw order: months for NA test months and values for
        # "less than N" loads are drawn row by row, a row's month first; a
        # row imputed and then dropped (c, f) still consumes its draws, and
        # one with no feasible month (d) or no result (h) consumes none.
        # The expected values were recorded from the row-by-row implementation.
        rows = [
            ["a", 1.0, 2015, "NA", 2016, 3, 0, 25, 1, 1.2, "less than 20", 500],
            ["b", 2.0, 2015, 6, 2016, 1, 1, 40, 0, 3.1, "less than 1000", 350],
            ["c", 1.5, 2016, "NA", 2016, 7, 1, 31, 1, "NA", "less than 50", 610],
            ["d", 1.0, 2016, "NA", 2016, 1, 0, 28, 0, 0.4, 900, 410],
            ["e", 1.0, 2014, "NA", 2016, 5, 1, 33, 1, 2.0, "undetectable", 420],
            ["f", 1.0, 2015, "NA", 2016, 2, 0, 45, 0, 0.7, "NA", 380],
            ["g", 1.0, 2015, 9, 2016, 2, 1, 52, 1, 1.9, "less than 40", 700],
            ["h", 1.0, 2015, 4, 2016, 4, "NA", 29, 0, 1.1, "less than 30", 300],
            ["i", 1.0, 2013, "NA", 2016, 8, 1, 37, 1, 0.5, "more than 10 million", 560],
        ]
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        arrays, report = preprocess(load(path, phia_vl=True), seed=3, covariates=("logvl", "odn"),
                                    standardization={"logvl": [0.0, 1.0], "odn": [0.0, 1.0]})
        assert report.imputations == [("a", 10), ("c", 1), ("e", 1), ("f", 2), ("i", 8)]
        assert report.dropped == [("c", "missing covariate odn"), ("d", "no feasible test month"),
                                  ("f", "missing covariate logvl"), ("h", "missing test result")]
        assert report.ids == ["a", "b", "e", "g", "i"]
        assert arrays.s.tolist() == [0.4166666666666667, 0.5833333333333334, 2.3333333333333335,
                                     0.4166666666666667, 3.0]
        assert arrays.x[:, 0].tolist() == [1.746798736503929, 6.687450775263712, 0.0,
                                           2.9082704829320387, 16.118095750958314]

    def test_all_rows_dropped_errors(self, tmp_path):
        rows = [["a", 1.0, "NA", "NA", 2016, 3, 0, 25, 1, 1.2, 0, 500]]
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match="no usable rows"):
            preprocess(load(path), covariates=("odn",))

    def test_gender_passthrough_not_standardized(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        arrays, report = preprocess(load(path), covariates=("gender", "odn"))
        assert set(arrays.x[:, 0].tolist()) == {0.0, 1.0}
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
        arrays, report = preprocess(records, seed=3, covariates=("logvl",))
        mean, sd = report.stats["logvl"]
        assert arrays.n == 4
        raw = dict(zip(records.ids, range(len(records))))
        assert records.vl_raw[raw["a"]] == "undetectable"
        # recover the resolved values from the standardized columns
        resolved = {sub_id: mean + sd * x[0] for sub_id, x in zip("abcd", arrays.x)}
        assert resolved["a"] == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= math.expm1(resolved["b"]) < 20.0
        assert math.expm1(resolved["c"]) == pytest.approx(1e7, rel=1e-6)

    @pytest.mark.parametrize("text", ["less than 1_000", "less than 2 000", "more than 1 2"])
    def test_ambiguous_categorical_viral_load_refused(self, tmp_path, text):
        # the first digit run was the bound: 1 or 2 where the survey meant 1000 or 2000
        rows = standard_rows()
        rows[1][HEADER.index("vl")] = text
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match=f"^record b: unrecognized categorical viral "
                                            f"load '{text}'$"):
            preprocess(load(path, phia_vl=True), covariates=("logvl",))

    @pytest.mark.parametrize("text, bound", [("less than 40 copies/ml", 40.0),
                                             ("less than 1,000", 1000.0)])
    def test_one_number_bounds_a_categorical_viral_load(self, text, bound):
        drawn = dataio._resolve_vl(text, "a", np.random.default_rng(4))
        assert drawn == np.random.default_rng(4).uniform(0.0, bound)

    def test_absent_covariate_named(self, tmp_path):
        header = [c for c in HEADER if c not in ("age", "cd4")]
        rows = [[v for c, v in zip(HEADER, r) if c not in ("age", "cd4")] for r in standard_rows()]
        path = write_csv(tmp_path / "d.csv", header, rows)
        with pytest.raises(DataError, match=r"^data is missing covariate column\(s\): cd4, age$"):
            preprocess(load(path), covariates=("odn", "cd4", "age"))

    def test_all_na_covariate_is_absent(self, tmp_path):
        rows = standard_rows()
        for r in rows:
            r[HEADER.index("odn")] = "NA"
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        with pytest.raises(DataError, match=r"missing covariate column\(s\): odn$"):
            preprocess(load(path), covariates=("odn",))

    def test_header_only_file_has_no_usable_rows(self, tmp_path):
        # no row to hold a value is no evidence that a column is absent
        path = write_csv(tmp_path / "d.csv", HEADER, [])
        with pytest.raises(DataError, match="^no usable rows after preprocessing$"):
            preprocess(load(path), covariates=("odn",))

    def test_categorical_viral_loads_are_not_absent(self, tmp_path):
        rows = standard_rows()
        for r, vl in zip(rows, ["undetectable", "less than 20", "more than 1 million"]):
            r[HEADER.index("vl")] = vl
        path = write_csv(tmp_path / "d.csv", HEADER, rows)
        records = load(path, phia_vl=True)
        assert np.isnan(records.vl).all()
        arrays, _ = preprocess(records, covariates=("logvl",))
        assert arrays.n == 3

    def test_unknown_covariate_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", HEADER, standard_rows())
        with pytest.raises(DataError, match="unknown covariate"):
            preprocess(load(path), covariates=("bmi",))


ARRAY_FIELDS = [f.name for f in dataclasses.fields(RawColumns) if f.name not in ("ids", "vl_raw")]


def csv_path_load(path, **kwargs):
    """:func:`load` with its numpy path declined: the csv module reads every cell."""
    with mock.patch.object(dataio, "_numpy_columns", return_value=None):
        return load(path, **kwargs)


def outcome(read, path, **kwargs):
    try:
        return read(path, **kwargs)
    except Exception as exc:   # compared by type and text
        return exc


def numpy_path_load(path, **kwargs):
    """``(outcome of load, whether its numpy path accepted the file)``."""
    taken = []
    real = dataio._numpy_columns

    def spy(*args):
        result = real(*args)
        taken.append(result is not None)
        return result

    with mock.patch.object(dataio, "_numpy_columns", spy):
        got = outcome(load, path, **kwargs)
    return got, taken == [True]


def assert_same(got, want):
    """Equal exceptions by type and text, or equal columns: every array by
    dtype, shape and bytes, ids and vl_raw by value."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.ids == want.ids and got.vl_raw == want.vl_raw
    for name in ARRAY_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


PLAIN_HEADER = "id,weight,test_year,test_month,interview_year,interview_month,z,odn,vl"
PLAIN_ROWS = ["a,1.5,2015,3,2016,3,0,1.2,0", "b,0.25,2014,NA,2016,1,1,NA,12000",
              "c,2.0,2015,9,2016,2,1,0.4,NA"]


def plain_csv(path, rows=PLAIN_ROWS, header=PLAIN_HEADER, end="\n"):
    with open(path, "w", newline="") as fh:
        fh.write(end.join([header, *rows]) + end)
    return path


class TestNumpyPath:
    """load's numpy path returns what the csv path returns, or declines."""

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_plain_file_takes_the_numpy_path(self, tmp_path, end):
        path = plain_csv(tmp_path / "d.csv", end=end)
        got, taken = numpy_path_load(path)
        assert taken
        assert_same(got, csv_path_load(path))
        assert got.ids == ["a", "b", "c"] and math.isnan(got.test_month[1])

    @pytest.mark.parametrize("rows, header", [
        # signs, a negative zero and leading zeros in integer fields
        (["a,1.5,+2015,03,2016,3,-0,1.2,0"], PLAIN_HEADER),
        # padded numbers, which float and int both read
        (["a, 1.5 ,2015, 3,2016,3 ,0,1.2,0"], PLAIN_HEADER),
        # exponents, and an id column that is not the first
        (["1.5e0,a,2015,3,2016,3,1,12E-1,1e4"],
         "weight,id,test_year,test_month,interview_year,interview_month,z,odn,vl"),
        # no id column, an unused column and an id-like NA
        (["1.5,2015,3,2016,3,0,x y,NA"], "weight,test_year,test_month,interview_year,"
                                          "interview_month,z,note,odn"),
        # a quoted header: the csv module reads it, numpy the rows below
        (PLAIN_ROWS, ",".join(f'"{col}"' for col in PLAIN_HEADER.split(","))),
        # out-of-range values reach the same range check
        (["a,1.5,2015,13,2016,3,0,1.2,0"], PLAIN_HEADER),
        (["a,-1.5,2015,3,2016,3,0,1.2,0"], PLAIN_HEADER),
        (["a,1.5,2015,3,2016,3,2,1.2,0"], PLAIN_HEADER),
        (["a,1.5,2015,3,2016,3,0,1.2,-4"], PLAIN_HEADER),
        (["a,NA,2015,3,2016,3,0,1.2,0"], PLAIN_HEADER),
    ])
    def test_accepted_files_match_the_csv_path(self, tmp_path, rows, header):
        path = plain_csv(tmp_path / "d.csv", rows, header)
        got, taken = numpy_path_load(path)
        assert taken
        assert_same(got, outcome(csv_path_load, path))

    @pytest.mark.parametrize("cell, value", [
        ("id", '"a,1"'), ("id", "Nancy"), ("odn", "nan"), ("odn", "NaN"), ("odn", "inf"),
        ("odn", "-Infinity"), ("odn", "1e400"), ("odn", "1_0"), ("odn", ""), ("odn", "NA "),
        ("odn", " "), ("weight", "x"), ("test_month", "3.0"), ("z", "1e0"),
        ("test_year", "99999999999999999999"), ("test_year", "1" + "0" * 400),
        ("test_year", "2_015"), ("odn", "\u0663"), ("vl", "undetectable"),
    ])
    def test_declined_cells(self, tmp_path, cell, value):
        rows = [row.split(",") for row in PLAIN_ROWS]
        rows[1][PLAIN_HEADER.split(",").index(cell)] = value
        path = plain_csv(tmp_path / "d.csv", [",".join(row) for row in rows])
        for phia_vl in (False, True):
            got, taken = numpy_path_load(path, phia_vl=phia_vl)
            assert not taken
            assert_same(got, outcome(csv_path_load, path, phia_vl=phia_vl))

    @pytest.mark.parametrize("text", [
        PLAIN_HEADER + "\n" + PLAIN_ROWS[0] + "\n\n" + PLAIN_ROWS[1] + "\n",   # blank line
        PLAIN_HEADER + "\n" + PLAIN_ROWS[0] + "\n   \n",                     # whitespace row
        PLAIN_HEADER + "\n" + PLAIN_ROWS[0] + "\na,1.0\n",                   # short row
        PLAIN_HEADER + "\n" + PLAIN_ROWS[0] + ",extra\n",                    # long row
        PLAIN_HEADER + "\r" + PLAIN_ROWS[0] + "\r",                          # bare CR
        PLAIN_HEADER + "\n",                                                  # no data row
    ])
    def test_declined_layouts(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        got, taken = numpy_path_load(path)
        assert not taken
        assert_same(got, outcome(csv_path_load, path))

    @pytest.mark.parametrize("bad_row, parses", [(0, 1), (2, 2)])
    def test_a_bad_cell_in_the_top_rows_declines_at_the_probe(self, tmp_path, bad_row, parses):
        rows = [row.split(",") for row in PLAIN_ROWS]
        rows[bad_row][-1] = "undetectable"
        path = plain_csv(tmp_path / "d.csv", [",".join(row) for row in rows])
        with mock.patch.object(dataio, "_PROBE_ROWS", 2), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            got, taken = numpy_path_load(path, phia_vl=True)
        # a bad first row fails the probe; a bad third row, past it, fails the full parse
        assert not taken and loadtxt.call_count == parses
        assert_same(got, csv_path_load(path, phia_vl=True))

    def test_a_warning_from_numpy_declines(self, tmp_path):
        # a numpy that reads "3.0" into an integer, as some releases did,
        # warns as it does so; load must not take that 3
        real = np.loadtxt

        def lenient(lines, dtype=float, **kwargs):
            if dtype is np.int64:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                return real(lines, **kwargs).astype(np.int64)
            return real(lines, dtype=dtype, **kwargs)

        rows = [row.split(",") for row in PLAIN_ROWS]
        rows[1][PLAIN_HEADER.split(",").index("test_year")] = "2014.0"
        path = plain_csv(tmp_path / "d.csv", [",".join(row) for row in rows])
        with mock.patch.object(np, "loadtxt", lenient):
            got, taken = numpy_path_load(path)
        assert not taken
        assert str(got) == "row 3: column 'test_year' has unparseable value '2014.0'"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once_by_the_csv_module(self, tmp_path):
        path = plain_csv(tmp_path / "d.csv")
        read_end, write_end = os.pipe()
        os.write(write_end, path.read_bytes())   # far less than a pipe holds
        os.close(write_end)
        try:
            with mock.patch.object(dataio, "_numpy_columns") as numpy_columns:
                got = load(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        numpy_columns.assert_not_called()
        assert_same(got, load(path))


class TestByteOrderMark:
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark,
    which must not become part of the first header name."""

    @pytest.mark.parametrize("header, rows", [
        (PLAIN_HEADER, PLAIN_ROWS),                                  # numpy path
        (PLAIN_HEADER, [",".join(f'"{cell}"' for cell in row.split(","))
                        for row in PLAIN_ROWS]),                     # csv path
        ("weight,id,test_year,test_month,interview_year,interview_month,z,odn,vl",
         [",".join([row.split(",")[1], row.split(",")[0], *row.split(",")[2:]])
          for row in PLAIN_ROWS]),                                   # weight first
    ], ids=["plain", "quoted", "weight_first"])
    def test_bom_file_loads_as_without(self, tmp_path, header, rows):
        path = plain_csv(tmp_path / "d.csv", rows, header)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        want, want_numpy = numpy_path_load(path)
        got, got_numpy = numpy_path_load(bom)
        assert got_numpy == want_numpy
        assert_same(got, want)
        assert got.ids == ["a", "b", "c"]


# a cell grammar for the differential test: numbers both paths read, the
# NA token, and text only the csv path reads (or rejects)
_INTEGERS = st.one_of(
    st.integers(-3, 2030).map(str),
    st.builds("{}{:03d}".format, st.sampled_from(["+", "-"]), st.integers(0, 20)),
)
_NUMBERS = st.one_of(
    _INTEGERS,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}e{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 99),
              st.integers(-330, 330)),
    st.sampled_from(["-0.0", ".5", "5.", "1E+02", "1e400", "-1e400",
                     "9223372036854775808", "99999999999999999999"]),
)
_IN_RANGE = {
    "weight": st.floats(0.01, 100.0).map(repr),
    "test_year": st.integers(2000, 2016).map(str),
    "test_month": st.integers(1, 12).map(str),
    "interview_year": st.integers(2015, 2017).map(str),
    "interview_month": st.integers(1, 12).map(str),
    "z": st.sampled_from(["0", "1"]),
    "s": st.floats(0.01, 10.0).map(repr),
    "odn": st.floats(-5.0, 5.0).map(repr),
    "vl": st.integers(0, 10**6).map(str),
}
_CSV_ONLY = st.sampled_from([
    "", "NA ", " NA", " ", " 3", "3 ", "\t2", "1_0", "nan", "NaN", "inf", "-Infinity", "INF",
    "3.0", "3e0", "x", "undetectable", "less than 20", '"4"', '"NA"',
])
_PLAIN_IDS = st.from_regex(r"[A-Za-z0-9_ .-]{0,6}", fullmatch=True)
_QUOTED_IDS = st.sampled_from(['"p,1"', '"p""2"', '""', '"NA"', 'p"3'])
COLUMNS = ["id", *_IN_RANGE]


@st.composite
def csv_texts(draw):
    """A CSV file's text: a permuted header, rows of grammar cells, LF or
    CRLF line ends, and (unless plain) text only the csv path reads, blank
    lines, short or long rows and columns left out."""
    plain = draw(st.booleans())
    header = draw(st.permutations(COLUMNS))
    if not plain and draw(st.booleans()):
        header = header[:draw(st.integers(2, len(header)))]
    quote = draw(st.sampled_from(["", '"']))   # the header is read by the csv module
    lines = [",".join(f"{quote}{col}{quote}" for col in header)]
    for _ in range(draw(st.integers(0, 6))):
        row = []
        for col in header:
            if col == "id":
                row.append(draw(_PLAIN_IDS if plain else st.one_of(_PLAIN_IDS, _QUOTED_IDS)))
                continue
            good = _IN_RANGE[col]
            if plain:
                # mostly in range, so a row reaches every check
                other = _INTEGERS if col in dataio.INT_FIELDS else _NUMBERS
                cell = st.one_of(good, good, good, good, st.just("NA"), other)
            else:
                cell = st.one_of(good, _NUMBERS, st.just("NA"), _CSV_ONLY)
            row.append(draw(cell))
        if not plain:
            row = row[:draw(st.integers(0, len(row)))] + draw(st.lists(_NUMBERS, max_size=1))
        lines.append(",".join(row))
    if not plain and draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "   "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestNumpyPathDifferential:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), phia_vl=st.booleans(), probe=st.sampled_from([1, 2, 1000]))
    def test_load_equals_the_csv_path(self, tmp_path_factory, text, phia_vl, probe):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(dataio, "_PROBE_ROWS", probe):
            got, taken = numpy_path_load(path, phia_vl=phia_vl)
        event("numpy path" if taken else "csv path")
        assert_same(got, outcome(csv_path_load, path, phia_vl=phia_vl))


class TestPhiaRoute:
    """The route of the guarded real-data check, on a synthetic extract."""

    COVARIATES = ("age", "gender", "odn", "logvl", "cd4")
    CATEGORIES = ("undetectable", "less than 20", "less than 1,000", "more than 10 million")

    def phia_csv(self, path, seed):
        """An S1 draw as a PHIA-shaped extract: month/year dates with some
        NA test months, odn = 2 + x, and age, gender, cd4 and a partly
        categorical vl drawn independently of recency."""
        arrs = generate(default_config("1", n_total=4000, seed=seed)).train_arrays
        rng = np.random.default_rng(seed)
        n = arrs.n
        months = np.maximum(1, np.rint(arrs.s * 12.0)).astype(int)
        interview = 2016 * 12 + rng.integers(0, 12, n)    # months since year 0, January = 0
        test = interview - months
        # a test month is asked for only where the years differ, so a month is always feasible
        na_month = (test // 12 < interview // 12) & (rng.random(n) < 0.05)
        vl = np.exp(rng.uniform(0.0, 14.0, n)).round()
        categorical = rng.random(n) < 0.15
        labels = rng.choice(self.CATEGORIES, n)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER)
            for i in range(n):
                writer.writerow([
                    f"r{i}", 1.0, test[i] // 12, "NA" if na_month[i] else test[i] % 12 + 1,
                    interview[i] // 12, interview[i] % 12 + 1, int(arrs.z[i]),
                    int(rng.integers(15, 65)), int(rng.integers(0, 2)),
                    repr(2.0 + float(arrs.x[i, 0])),
                    labels[i] if categorical[i] else repr(float(vl[i])),
                    repr(float(rng.normal(500.0, 150.0)))])
        return n, int(categorical.sum()), int(na_month.sum())

    def test_load_preprocess_stepwise_recency_rate(self, tmp_path):
        path = tmp_path / "phia.csv"
        n, n_categorical, n_na_month = self.phia_csv(path, seed=0)
        records = load(path, phia_vl=True)
        assert len(records.vl_raw) == n_categorical > 0
        arrays, report = preprocess(records, seed=0, covariates=self.COVARIATES)
        # every categorical viral load resolves, and every NA month is imputed
        assert report.dropped == [] and arrays.n == n
        assert len(report.imputations) == n_na_month > 0
        result = backward_stepwise(arrays, self.COVARIATES,
                                   ModelSpec(covariate_names=self.COVARIATES))
        assert "odn" in result.selected
        assert result.fit.converged
        spec = ModelSpec(covariate_names=result.selected)
        chosen = dataclasses.replace(
            arrays, x=arrays.x[:, [self.COVARIATES.index(c) for c in result.selected]])
        e_y = recency_rate(chosen, result.fit.theta_hat, result.fit.spec)
        assert e_y == recency_rate(chosen, fit(chosen, spec).theta_hat, spec)
