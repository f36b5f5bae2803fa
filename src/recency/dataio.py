"""CSV ingestion and survey preprocessing.

The pipeline turns raw survey rows into model-ready subjects: derive the
test-to-interview gap in years from month-resolution dates (each date
taken at its month midpoint), impute missing test months uniformly over
the months compatible with the interview date, log-transform viral load,
standardize continuous covariates, and rescale sampling weights so they
sum to the retained sample size.  Rows that cannot be used are dropped
with a recorded reason, never silently.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .model import Subject

__all__ = [
    "ColumnMap",
    "RawRecord",
    "StandardizationReport",
    "DataError",
    "load",
    "preprocess",
    "CONTINUOUS_COVARIATES",
]

MISSING = "NA"
CONTINUOUS_COVARIATES = ("age", "odn", "logvl", "cd4")
KNOWN_COVARIATES = ("age", "gender", "odn", "logvl", "cd4")


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnMap:
    """Logical field -> CSV column name; set a name to None if absent."""

    id: str | None = "id"
    weight: str = "weight"
    test_year: str | None = "test_year"
    test_month: str | None = "test_month"
    interview_year: str | None = "interview_year"
    interview_month: str | None = "interview_month"
    z: str = "z"
    s: str | None = "s"
    age: str | None = "age"
    gender: str | None = "gender"
    odn: str | None = "odn"
    vl: str | None = "vl"
    cd4: str | None = "cd4"


@dataclass
class RawRecord:
    id: str
    weight: float
    test_year: int | None = None
    test_month: int | None = None
    interview_year: int | None = None
    interview_month: int | None = None
    z: int | None = None
    age: float | None = None
    gender: float | None = None
    odn: float | None = None
    vl: float | None = None
    cd4: float | None = None
    s: float | None = None
    vl_raw: str | None = None


@dataclass
class StandardizationReport:
    """What preprocessing did: scaling constants, drops, imputations, and
    the ids of the retained rows in subject order."""

    stats: dict[str, tuple[float, float]] = field(default_factory=dict)
    dropped: list[tuple[str, str]] = field(default_factory=list)
    imputations: list[tuple[str, int]] = field(default_factory=list)
    n_retained: int = 0
    ids: list[str] = field(default_factory=list)


def _parse_cell(raw, row_num, col, kind):
    raw = raw.strip() if raw is not None else ""
    if raw == "" or raw == MISSING:
        return None
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError:
        raise DataError(f"row {row_num}: column {col!r} has unparseable value {raw!r}") from None


def load(path, columns: ColumnMap = ColumnMap(), *, phia_vl: bool = False) -> list[RawRecord]:
    """Read typed records from a headered CSV; missing token is ``NA``.

    Mandatory columns: weight, z, and either s or the interview date
    pair.  With ``phia_vl`` the viral-load column may hold the survey's
    categorical strings ("undetectable", "less than 20", ...), resolved
    later by :func:`preprocess`.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: no header row")
        header = set(reader.fieldnames)
        missing = []
        if columns.weight not in header:
            missing.append(columns.weight)
        if columns.z not in header:
            missing.append(columns.z)
        has_s = columns.s is not None and columns.s in header
        has_interview = (columns.interview_year in header
                         and columns.interview_month in header)
        if not has_s and not has_interview:
            missing.append(f"{columns.s or 's'} or {columns.interview_year}+{columns.interview_month}")
        if missing:
            raise DataError(f"{path}: missing mandatory column(s): {', '.join(missing)}")

        records = []
        for row_num, row in enumerate(reader, start=2):
            rid = row.get(columns.id, "").strip() if columns.id in header else ""
            if not rid:
                rid = str(row_num - 1)
            weight = _parse_cell(row.get(columns.weight), row_num, columns.weight, float)
            if weight is None:
                raise DataError(f"row {row_num}: column {columns.weight!r} is mandatory")
            if weight <= 0:
                raise DataError(f"row {row_num}: weight must be positive, got {weight}")
            rec = RawRecord(id=rid, weight=weight)
            for name in ("test_year", "test_month", "interview_year", "interview_month", "z"):
                col = getattr(columns, name)
                if col and col in header:
                    setattr(rec, name, _parse_cell(row.get(col), row_num, col, int))
            for name in ("age", "gender", "odn", "cd4"):
                col = getattr(columns, name)
                if col and col in header:
                    setattr(rec, name, _parse_cell(row.get(col), row_num, col, float))
            if columns.vl and columns.vl in header:
                raw = (row.get(columns.vl) or "").strip()
                if phia_vl and raw and raw != MISSING and not _is_number(raw):
                    rec.vl_raw = raw
                else:
                    rec.vl = _parse_cell(row.get(columns.vl), row_num, columns.vl, float)
            if has_s:
                rec.s = _parse_cell(row.get(columns.s), row_num, columns.s, float)
            for name in ("test_month", "interview_month"):
                val = getattr(rec, name)
                if val is not None and not 1 <= val <= 12:
                    raise DataError(f"row {row_num}: {name} must be in 1..12, got {val}")
            if rec.z is not None and rec.z not in (0, 1):
                raise DataError(f"row {row_num}: z must be 0 or 1, got {rec.z}")
            if rec.vl is not None and rec.vl < 0:
                raise DataError(f"row {row_num}: vl must be nonnegative, got {rec.vl}")
            records.append(rec)
    return records


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


_NUMBER = re.compile(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?")


def _parse_quantity(text: str) -> float:
    mult = 1e6 if "million" in text else 1.0
    m = _NUMBER.search(text.replace(",", ""))
    if m is None:
        raise ValueError(text)
    return float(m.group(0)) * mult


def _resolve_vl(rec: RawRecord, rng) -> float | None:
    if rec.vl is not None:
        return rec.vl
    if rec.vl_raw is None:
        return None
    text = rec.vl_raw.strip().lower().replace("'", "").replace("`", "")
    try:
        if text == "undetectable":
            return 0.0
        if text.startswith("less than"):
            return float(rng.uniform(0.0, _parse_quantity(text)))
        if text.startswith("more than"):
            return _parse_quantity(text)
    except ValueError:
        pass
    raise DataError(f"record {rec.id}: unrecognized categorical viral load {rec.vl_raw!r}")


def _feasible_months(rec: RawRecord) -> list[int]:
    # any month that leaves the test strictly before the interview (s > 0)
    out = []
    for m in range(1, 13):
        gap = (rec.interview_year - rec.test_year) * 12 + (rec.interview_month - m)
        if gap >= 1:
            out.append(m)
    return out


def preprocess(records, seed: int = 0, covariates=("odn",), *,
               impute_month: bool = True, standardization=None):
    """Turn raw records into Subjects plus a processing report.

    Derives s (years, month midpoints) where not precomputed, imputes
    missing test months uniformly over feasible values, drops rows
    missing the test year / result / any requested covariate, applies
    logVL = log(VL + 1), standardizes continuous covariates to mean 0
    and sd 1, and rescales weights to sum to the retained count.

    ``standardization`` maps each continuous covariate to the frozen
    (mean, sd) of a fitted sample, as ``fit.json`` stores them under
    ``preprocessing.standardization``; new data scored against that fit
    must be put on its scale, not re-standardized with its own moments.
    Without it the moments are computed on the retained rows, so running
    preprocess on already-processed values is idempotent only up to
    re-standardization.
    """
    covariates = tuple(covariates)
    for name in covariates:
        if name not in KNOWN_COVARIATES:
            raise DataError(f"unknown covariate {name!r}; supported: {KNOWN_COVARIATES}")
    rng = np.random.default_rng(seed)
    report = StandardizationReport()

    kept: list[tuple[RawRecord, float, dict]] = []
    for rec in records:
        if rec.z is None:
            report.dropped.append((rec.id, "missing test result"))
            continue
        s = rec.s
        if s is None:
            if rec.test_year is None:
                report.dropped.append((rec.id, "missing test year"))
                continue
            if rec.interview_year is None or rec.interview_month is None:
                report.dropped.append((rec.id, "missing interview date"))
                continue
            test_month = rec.test_month
            if test_month is None:
                if not impute_month:
                    report.dropped.append((rec.id, "missing test month (imputation disabled)"))
                    continue
                feasible = _feasible_months(rec)
                if not feasible:
                    report.dropped.append((rec.id, "no feasible test month"))
                    continue
                test_month = int(feasible[rng.integers(len(feasible))])
                report.imputations.append((rec.id, test_month))
            months = ((rec.interview_year - rec.test_year) * 12
                      + (rec.interview_month - test_month))
            s = months / 12.0
        if not (math.isfinite(s) and s > 0):
            report.dropped.append((rec.id, f"nonpositive time gap s={s}"))
            continue

        values = {}
        missing_cov = None
        for name in covariates:
            if name == "logvl":
                vl = _resolve_vl(rec, rng)
                values[name] = None if vl is None else math.log1p(vl)
            else:
                values[name] = getattr(rec, name)
            if values[name] is None:
                missing_cov = name
                break
        if missing_cov is not None:
            report.dropped.append((rec.id, f"missing covariate {missing_cov}"))
            continue
        kept.append((rec, s, values))

    if not kept:
        raise DataError("no usable rows after preprocessing")

    n = len(kept)
    matrix = np.array([[vals[name] for name in covariates] for _, _, vals in kept])
    for j, name in enumerate(covariates):
        if name in CONTINUOUS_COVARIATES:
            if standardization is None:
                mean = matrix[:, j].mean()
                sd = matrix[:, j].std(ddof=0)
            elif name in standardization:
                mean, sd = standardization[name]
            else:
                raise DataError(f"no frozen standardization for covariate {name!r}")
            if sd <= 0:
                raise DataError(f"covariate {name!r} has zero variance; cannot standardize")
            matrix[:, j] = (matrix[:, j] - mean) / sd
            report.stats[name] = (float(mean), float(sd))

    weights = np.array([rec.weight for rec, _, _ in kept])
    weights = weights * (n / weights.sum())

    subjects = [
        Subject(covariates=matrix[i], s=kept[i][1], z=kept[i][0].z, w=weights[i])
        for i in range(n)
    ]
    report.n_retained = n
    report.ids = [rec.id for rec, _, _ in kept]
    return subjects, report
