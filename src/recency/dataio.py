"""CSV ingestion and survey preprocessing, one column at a time.

:func:`load` reads a headered CSV once with the stdlib ``csv`` module into
:class:`RawColumns`: the row ids plus one float64 array per field, with
NaN for a missing cell.  Every cell is validated on the way, and the
earliest bad row raises a :class:`DataError` that names it.

:func:`preprocess` turns those columns into the model's
:class:`~recency.model.SubjectArrays`: derive the test-to-interview gap
in years from month-resolution dates (each date taken at its month
midpoint), impute missing test months uniformly over the months
compatible with the interview date, log-transform viral load,
standardize continuous covariates, and rescale sampling weights so they
sum to the retained sample size.  Rows that cannot be used are dropped
with a recorded reason, never silently.  No per-row object is built.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .model import SubjectArrays

__all__ = [
    "ColumnMap",
    "RawColumns",
    "StandardizationReport",
    "DataError",
    "load",
    "preprocess",
    "CONTINUOUS_COVARIATES",
]

MISSING = "NA"
_MISSING_CELLS = frozenset(("", MISSING))
CONTINUOUS_COVARIATES = ("age", "odn", "logvl", "cd4")
KNOWN_COVARIATES = ("age", "gender", "odn", "logvl", "cd4")
# parsed in this order after weight, so the first bad field is the one reported
INT_FIELDS = ("test_year", "test_month", "interview_year", "interview_month", "z")
FLOAT_FIELDS = ("age", "gender", "odn", "cd4", "vl", "s")


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


@dataclass(frozen=True)
class RawColumns:
    """What :func:`load` read: the row ids and one float64 array per field.

    NaN marks a cell that is ``NA`` or empty, and every cell of a column
    the CSV lacks.  Integer fields hold whole numbers.  ``vl_raw`` maps
    the row index of each categorical viral-load string (read under
    ``phia_vl``) to its text; ``vl`` is NaN in those rows.
    """

    ids: list[str]
    weight: np.ndarray
    test_year: np.ndarray
    test_month: np.ndarray
    interview_year: np.ndarray
    interview_month: np.ndarray
    z: np.ndarray
    age: np.ndarray
    gender: np.ndarray
    odn: np.ndarray
    cd4: np.ndarray
    vl: np.ndarray
    s: np.ndarray
    vl_raw: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class StandardizationReport:
    """What preprocessing did: scaling constants, drops, imputations, and
    the ids of the retained rows in subject order."""

    stats: dict[str, tuple[float, float]] = field(default_factory=dict)
    dropped: list[tuple[str, str]] = field(default_factory=list)
    imputations: list[tuple[str, int]] = field(default_factory=list)
    n_retained: int = 0
    ids: list[str] = field(default_factory=list)


def _parse(cells, kind, col, categorical=None) -> np.ndarray:
    """One column's cells as float64, NaN where a cell is NA or empty.

    Raises a DataError naming the row of the first cell ``kind`` cannot
    parse or that is not finite.  With ``categorical`` (a dict), a cell
    ``float`` cannot parse is stored there under its row index instead.
    """
    try:
        values = np.array(list(map(kind, cells)), dtype=float)
        missing = 0
    except ValueError:   # an NA or empty cell stops map: one pass that reads them as NaN
        try:
            values = np.array([math.nan if cell in _MISSING_CELLS else kind(cell)
                               for cell in cells], dtype=float)
            missing = cells.count("") + cells.count(MISSING)
        except ValueError:
            values = None
    # every NaN a missing cell's, none parsed from text, and no infinity
    if values is not None and np.isnan(values).sum() == missing and not np.isinf(values).any():
        return values
    # a bad, non-finite, categorical or padded missing cell: cell by cell
    out = []
    for i, cell in enumerate(cells):
        text = cell.strip()
        value = math.nan
        if text and text != MISSING:
            try:
                value = kind(text)
            except ValueError:
                if categorical is None:
                    raise DataError(f"row {i + 2}: column {col!r} has unparseable "
                                    f"value {text!r}") from None
                categorical[i] = text
            else:
                if not math.isfinite(value):
                    raise DataError(f"row {i + 2}: column {col!r} must be finite, got {text!r}")
        out.append(value)
    return np.array(out, dtype=float)


def _check(bad, message):
    """Raise a DataError for the first row where ``bad`` holds."""
    if bad.any():
        i = int(bad.argmax())
        raise DataError(f"row {i + 2}: {message(i)}")


def load(path, columns: ColumnMap = ColumnMap(), *, phia_vl: bool = False) -> RawColumns:
    """Read a headered CSV into :class:`RawColumns`; missing token is ``NA``.

    Mandatory columns: weight, z, and either s or the interview date
    pair.  Numeric cells must be finite; weights positive; months in
    1..12; z 0 or 1; viral load nonnegative.  The first failing check
    raises, at its first bad row: weight, then ``INT_FIELDS`` and
    ``FLOAT_FIELDS`` in order, then the range checks.  With ``phia_vl``
    the viral-load column may hold the survey's categorical strings
    ("undetectable", "less than 20", ...), resolved later by
    :func:`preprocess`.  A row with no id gets its 1-based data-row
    number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: no header row")
        rows = [row for row in reader if row]   # blank lines are not rows
    position = {name: j for j, name in enumerate(header)}   # a repeated name reads its last column
    missing = [col for col in (columns.weight, columns.z) if col not in position]
    has_s = columns.s is not None and columns.s in position
    has_interview = columns.interview_year in position and columns.interview_month in position
    if not has_s and not has_interview:
        missing.append(f"{columns.s or 's'} or {columns.interview_year}+{columns.interview_month}")
    if missing:
        raise DataError(f"{path}: missing mandatory column(s): {', '.join(missing)}")

    n = len(rows)
    width = len(header)
    rows = [row + [""] * (width - len(row)) if len(row) < width else row for row in rows]
    vl_raw: dict[int, str] = {}

    def parse(name, kind):
        col = getattr(columns, name)
        if not col or col not in position:
            return np.full(n, math.nan)
        categorical = vl_raw if phia_vl and name == "vl" else None
        return _parse(list(map(itemgetter(position[col]), rows)), kind, col, categorical)

    weight = parse("weight", float)
    _check(np.isnan(weight), lambda i: f"column {columns.weight!r} is mandatory")
    _check(weight <= 0, lambda i: f"weight must be positive, got {float(weight[i])}")
    parsed = {name: parse(name, int) for name in INT_FIELDS}
    parsed.update({name: parse(name, float) for name in FLOAT_FIELDS})
    for name in ("test_month", "interview_month"):
        val = parsed[name]
        _check((val < 1) | (val > 12), lambda i: f"{name} must be in 1..12, got {int(val[i])}")
    z = parsed["z"]
    _check((z != 0) & (z != 1) & ~np.isnan(z), lambda i: f"z must be 0 or 1, got {int(z[i])}")
    vl = parsed["vl"]
    _check(vl < 0, lambda i: f"vl must be nonnegative, got {float(vl[i])}")

    id_cells = map(itemgetter(position[columns.id]), rows) if columns.id in position else [""] * n
    ids = [cell.strip() or str(i + 1) for i, cell in enumerate(id_cells)]
    return RawColumns(ids=ids, weight=weight, vl_raw=vl_raw, **parsed)


_NUMBER = re.compile(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?")


def _parse_quantity(text: str) -> float:
    mult = 1e6 if "million" in text else 1.0
    m = _NUMBER.search(text.replace(",", ""))
    if m is None:
        raise ValueError(text)
    return float(m.group(0)) * mult


def _resolve_vl(raw: str, rid: str, rng) -> float:
    text = raw.strip().lower().replace("'", "").replace("`", "")
    try:
        if text == "undetectable":
            return 0.0
        if text.startswith("less than"):
            return float(rng.uniform(0.0, _parse_quantity(text)))
        if text.startswith("more than"):
            return _parse_quantity(text)
    except ValueError:
        pass
    raise DataError(f"record {rid}: unrecognized categorical viral load {raw!r}")


def preprocess(records: RawColumns, seed: int = 0, covariates=("odn",), *,
               impute_month: bool = True, standardization=None):
    """Turn loaded columns into ``(SubjectArrays, StandardizationReport)``.

    Derives s (years, month midpoints) where not precomputed, imputes
    missing test months uniformly over feasible values, drops rows
    missing the test year / result / any requested covariate, applies
    logVL = log(VL + 1), standardizes continuous covariates to mean 0
    and sd 1, and rescales weights to sum to the retained count.  The
    report's ``ids`` name the retained rows in the arrays' order.

    Random draws (a month for each row that needs one, a value for each
    "less than N" viral load) are made row by row in file order, a row's
    month before its viral load, so a seed gives the same data whatever
    else the file holds.  A row is dropped for the first reason it
    meets, covariates checked in the order given; a viral load is drawn
    only for a row still kept when ``logvl`` is checked.

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
    ids = records.ids
    n = len(records)
    alive = np.ones(n, dtype=bool)
    reasons: dict[int, str] = {}

    def drop(mask, why):
        for i in np.flatnonzero(mask & alive):
            reasons[int(i)] = why(i) if callable(why) else why
        alive[mask] = False

    drop(np.isnan(records.z), "missing test result")
    dated = np.isnan(records.s)
    drop(dated & np.isnan(records.test_year), "missing test year")
    drop(dated & (np.isnan(records.interview_year) | np.isnan(records.interview_month)),
         "missing interview date")
    # the last test month that leaves the test strictly before the interview
    latest = (records.interview_year - records.test_year) * 12 + records.interview_month - 1
    month = records.test_month.copy()
    imputing = dated & np.isnan(month) & alive
    if not impute_month:
        drop(imputing, "missing test month (imputation disabled)")
    drop(imputing & ~(latest >= 1), "no feasible test month")
    imputing &= alive

    def gap(rows):
        return ((records.interview_year[rows] - records.test_year[rows]) * 12
                + (records.interview_month[rows] - month[rows])) / 12.0

    s = records.s.copy()
    known = dated & ~imputing & alive
    s[known] = gap(known)
    drop(~(s > 0) & ~imputing, lambda i: f"nonpositive time gap s={float(s[i])}")

    vl = records.vl.copy()
    resolving = np.zeros(n, dtype=bool)
    for name in covariates:
        if name == "logvl":
            resolving[list(records.vl_raw)] = True
            resolving &= alive
            drop(np.isnan(vl) & ~resolving, "missing covariate logvl")
        else:
            drop(np.isnan(getattr(records, name)), f"missing covariate {name}")

    for i in np.flatnonzero(imputing | resolving).tolist():
        if imputing[i]:
            month[i] = 1 + int(rng.integers(int(min(12, latest[i]))))
            report.imputations.append((ids[i], int(month[i])))
        if resolving[i]:
            vl[i] = _resolve_vl(records.vl_raw[i], ids[i], rng)
    s[imputing] = gap(imputing)
    report.dropped = [(ids[i], reasons[i]) for i in sorted(reasons)]

    kept = np.flatnonzero(alive)
    n = kept.size
    if not n:
        raise DataError("no usable rows after preprocessing")
    matrix = np.empty((n, len(covariates)))   # standardized in place, column by column
    for j, name in enumerate(covariates):
        if name == "logvl":   # math.log1p, not np.log1p, which rounds some values differently
            matrix[:, j] = [math.log1p(v) for v in vl[kept].tolist()]
        else:
            matrix[:, j] = getattr(records, name)[kept]
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

    weights = records.weight[kept]
    with np.errstate(over="ignore"):   # an overflowing sum is reported below
        total = weights.sum()
    weights = weights * (n / total)
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        raise DataError(f"weights cannot be rescaled to sum to {n}: their sum is {total}")

    report.n_retained = n
    report.ids = [ids[i] for i in kept.tolist()]
    arrays = SubjectArrays(x=matrix, s=s[kept], z=records.z[kept].astype(int), w=weights)
    return arrays, report
