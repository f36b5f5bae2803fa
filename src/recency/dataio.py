"""CSV ingestion and survey preprocessing, one column at a time.

:func:`load` reads a headered CSV into :class:`RawColumns`: the row ids
plus one float64 array per field, with NaN for a missing cell.  The rows
of a plain file (numbers and ``NA`` cells, no quotes) are parsed by
numpy's C text reader, in one read of the file; on anything that reader
might read differently :func:`load` declines, reads the file again and
parses it with the stdlib ``csv`` module, cell by cell, so both paths
give the same arrays, ids and errors.  Every cell is validated on the
way, and the earliest bad row raises a :class:`DataError` that names it.

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
import warnings
from dataclasses import dataclass, field
from itertools import repeat
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
# an exactly-NA cell: the literal first, so re scans for it, then a separator
# or an end of the text on each side
_NA_CELL = re.compile(r"NA(?<![^,\n]NA)(?![^,\n])")
CONTINUOUS_COVARIATES = ("age", "odn", "logvl", "cd4")
KNOWN_COVARIATES = ("age", "gender", "odn", "logvl", "cd4")
# parsed in this order after weight, so the first bad field is the one reported
INT_FIELDS = ("test_year", "test_month", "interview_year", "interview_month", "z")
FLOAT_FIELDS = ("age", "gender", "odn", "cd4", "vl", "s")
_PROBE_ROWS = 1000


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
    parse or that is not finite (an integer beyond float range included).
    A cell with an underscore or a non-ASCII character, which ``int`` and
    ``float`` would read, cannot be parsed.  With ``categorical`` (a
    dict), a cell that cannot be parsed is stored there under its row
    index instead.
    """
    values = None
    joined = "".join(cells)
    if joined.isascii() and "_" not in joined:
        try:
            try:
                values = np.array(list(map(kind, cells)), dtype=float)
                missing = 0
            except ValueError:   # an NA or empty cell stops map: one pass that reads them as NaN
                values = np.array([math.nan if cell in _MISSING_CELLS else kind(cell)
                                   for cell in cells], dtype=float)
                missing = cells.count("") + cells.count(MISSING)
        except (ValueError, OverflowError):   # a bad cell, or an integer beyond float range
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
                if not text.isascii() or "_" in text:
                    raise ValueError(text)
                value = kind(text)
            except ValueError:
                if categorical is None:
                    raise DataError(f"row {i + 2}: column {col!r} has unparseable "
                                    f"value {text!r}") from None
                categorical[i] = text
            else:
                try:
                    finite = math.isfinite(value)
                except OverflowError:   # an integer beyond float range
                    finite = False
                if not finite:
                    raise DataError(f"row {i + 2}: column {col!r} must be finite, got {text!r}")
        out.append(value)
    return np.array(out, dtype=float)


def _check(bad, message):
    """Raise a DataError for the first row where ``bad`` holds."""
    if bad.any():
        i = int(bad.argmax())
        raise DataError(f"row {i + 2}: {message(i)}")


def _spells_nonfinite(text: str) -> bool:
    """Whether ``text`` holds ``nan`` or ``inf`` in any case (its lowered
    copy is freed on return, before the parse builds its own)."""
    lowered = text.lower()
    return "nan" in lowered or "inf" in lowered


def _numpy_columns(text: str, width: int, usecols: dict, id_col):
    """The numeric columns and id cells of the data rows ``text`` (the file
    after its header) from numpy's C reader, or None to decline.

    ``usecols`` maps each field to its column; ``id_col`` is the id
    column or None.  Returns ``(id_cells, {field: float64 array})`` only
    where the ``csv`` path of :func:`load` would read the same values and
    ids and raise no parse error: the rows hold no quote, bare CR or NUL,
    no ``nan``/``inf`` spelling in any case, every line has the header's
    width (so no row is blank or ragged), every used cell is a number or
    exactly ``NA``, no value overflows, and every integer field is what
    ``int`` reads.  Anything else declines.  The first ``_PROBE_ROWS``
    rows are parsed before the rest is split, so a bad cell among them
    declines at little cost.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    ints = [name for name in usecols if name in INT_FIELDS]

    def with_na_as(token, lines):
        # no nan is spelled in the file, so a nan read stands for an NA cell
        return [_NA_CELL.sub(token, line) if MISSING in line else line for line in lines]

    read = dict(delimiter=",", comments=None, ndmin=2)
    floats = list(usecols.values())
    try:
        with warnings.catch_warnings():
            # any warning declines: an empty parse, or a numpy that reads
            # "3.0" into an integer with a DeprecationWarning
            warnings.simplefilter("error")
            np.loadtxt(with_na_as("nan", text.split("\n", _PROBE_ROWS)[:_PROBE_ROWS]),
                       usecols=floats, **read)
            if _spells_nonfinite(text):
                return None
            lines = text.split("\n")
            if not lines[-1]:
                lines.pop()
            values = np.loadtxt(with_na_as("nan", lines), usecols=floats, **read)
            if (len(values) != len(lines) or np.isinf(values).any()
                    or set(map(str.count, lines, repeat(","))) != {width - 1}):
                return None
            whole = np.loadtxt(with_na_as("0", lines), dtype=np.int64,
                               usecols=[usecols[name] for name in ints], **read)
    except (ValueError, Warning):
        return None
    columns = dict(zip(usecols, values.T.copy()))
    for name, col in zip(ints, whole.T):
        columns[name] = np.where(np.isnan(columns[name]), math.nan, col)
    if id_col is None:
        return [""] * len(lines), columns
    return [line.split(",", id_col + 1)[id_col] for line in lines], columns


def load(path, columns: ColumnMap = ColumnMap(), *, phia_vl: bool = False) -> RawColumns:
    """Read a headered UTF-8 CSV into :class:`RawColumns`, with or without
    a byte-order mark; missing token is ``NA``.

    Mandatory columns: weight, z, and either s or the interview date
    pair.  Numeric cells must be finite; weights positive; months in
    1..12; z 0 or 1; viral load nonnegative.  The first failing check
    raises, at its first bad row: weight, then ``INT_FIELDS`` and
    ``FLOAT_FIELDS`` in order, then the range checks.  With ``phia_vl``
    the viral-load column may hold the survey's categorical strings
    ("undetectable", "less than 20", ...), resolved later by
    :func:`preprocess`.  A row with no id gets its 1-based data-row
    number.

    The ``csv`` module reads the header; numpy's C reader parses the
    rows below it when :func:`_numpy_columns` can vouch for the result.
    Otherwise (quoted or empty cells, categorical viral loads, a bad
    cell, ...) the file is read again from the top and the ``csv`` module
    reads it cell by cell, which also names any bad row.  A pipe, which
    cannot be read twice, goes to the ``csv`` module from the start.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: no header row")
        position = {name: j for j, name in enumerate(header)}   # a repeated name reads its last column
        missing = [col for col in (columns.weight, columns.z) if col not in position]
        has_s = columns.s is not None and columns.s in position
        has_interview = columns.interview_year in position and columns.interview_month in position
        if not has_s and not has_interview:
            missing.append(f"{columns.s or 's'} or {columns.interview_year}+{columns.interview_month}")
        if missing:
            raise DataError(f"{path}: missing mandatory column(s): {', '.join(missing)}")

        usecols = {name: position[col] for name in ("weight",) + INT_FIELDS + FLOAT_FIELDS
                   if (col := getattr(columns, name)) and col in position}
        id_col = position.get(columns.id)
        fast = None
        if fh.seekable():   # a pipe is read once, by the csv module
            # the rest of the file at once; no copy of it is left for the csv path
            fast = _numpy_columns(fh.read(), len(header), usecols, id_col)
            if fast is None:   # read the file again, one row at a time
                fh.seek(0)
                next(reader)
        if fast is None:
            rows = [row for row in reader if row]   # blank lines are not rows
    vl_raw: dict[int, str] = {}
    if fast is None:
        n = len(rows)
        width = len(header)
        rows = [row + [""] * (width - len(row)) if len(row) < width else row for row in rows]
        id_cells = map(itemgetter(id_col), rows) if id_col is not None else [""] * n

        def parse(name):
            if name not in usecols:
                return np.full(n, math.nan)
            categorical = vl_raw if phia_vl and name == "vl" else None
            return _parse(list(map(itemgetter(usecols[name]), rows)),
                          int if name in INT_FIELDS else float, getattr(columns, name), categorical)
    else:
        id_cells, arrays = fast
        n = len(id_cells)

        def parse(name):
            return arrays[name] if name in arrays else np.full(n, math.nan)

    weight = parse("weight")
    _check(np.isnan(weight), lambda i: f"column {columns.weight!r} is mandatory")
    _check(weight <= 0, lambda i: f"weight must be positive, got {float(weight[i])}")
    parsed = {name: parse(name) for name in INT_FIELDS + FLOAT_FIELDS}
    for name in ("test_month", "interview_month"):
        val = parsed[name]
        _check((val < 1) | (val > 12), lambda i: f"{name} must be in 1..12, got {int(val[i])}")
    z = parsed["z"]
    _check((z != 0) & (z != 1) & ~np.isnan(z), lambda i: f"z must be 0 or 1, got {int(z[i])}")
    vl = parsed["vl"]
    _check(vl < 0, lambda i: f"vl must be nonnegative, got {float(vl[i])}")

    ids = list(map(str.strip, id_cells))
    if not all(ids):
        ids = [cell or str(i + 1) for i, cell in enumerate(ids)]
    return RawColumns(ids=ids, weight=weight, vl_raw=vl_raw, **parsed)


_NUMBER = re.compile(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?")


def _parse_quantity(text: str) -> float:
    """The one number in ``text``, times 1e6 for "million"; ValueError if none, several or ``_``."""
    numbers = _NUMBER.findall(text.replace(",", ""))
    if len(numbers) != 1 or "_" in text:
        raise ValueError(text)
    return float(numbers[0]) * (1e6 if "million" in text else 1.0)


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
    # a column the CSV lacks reads as NaN in every row; a categorical viral load is a value
    absent = [name for name in covariates if n
              and np.isnan(records.vl if name == "logvl" else getattr(records, name)).all()
              and not (name == "logvl" and records.vl_raw)]
    if absent:
        raise DataError(f"data is missing covariate column(s): {', '.join(absent)}")
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
