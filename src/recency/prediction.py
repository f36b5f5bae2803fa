"""Recent-infection risk predictions, recency rate, and incidence.

Type-1 risk uses biomarkers alone; Type-2 risk folds in the self-report
testing history, which pins the label exactly for two of the four (s, z)
cells and has a closed Bayes form in the other two.  That posterior is
d(term)/d(tilt exponent) of the subject's likelihood term, read from the
likelihood kernel's pass: this module computes no log-probability.  The
incidence formula converts a recency rate into an annual incidence given
externally supplied prevalence and treatment-coverage inputs.
"""

from __future__ import annotations

import re

import numpy as np

from .likelihood import _case_pass, _exact_sum, _KernelData
from .model import ModelSpec, SubjectArrays, Theta, as_arrays, check_theta_spec, pi_recent

__all__ = [
    "type2_risk",
    "recency_rate",
    "incidence",
    "rita_classify",
    "export_predictions",
]

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _type2_vector(arrs: SubjectArrays, theta: Theta, spec: ModelSpec) -> np.ndarray:
    check_theta_spec(theta, spec)
    return _case_pass(_KernelData(arrs, spec), theta).v


def type2_risk(data: SubjectArrays, theta_hat: Theta, spec: ModelSpec) -> np.ndarray:
    """P(recent | s, z, covariates), one risk per subject.

    Exactly 1 for (s <= 1, z = 0) and exactly 0 for (s > 1, z = 1); the
    unknown cells use the closed Bayes forms, which under p0 == 1 reduce
    to 1 in the (s > 1, z = 0) cell.  Under an extended spec the fitted
    tilt enters the recent-infection branch of both forms.  (Type-1 risk,
    biomarkers only, is ``pi_recent(data.x, theta_hat.beta)``.)
    """
    return _type2_vector(as_arrays(data), theta_hat, spec)


def recency_rate(data, theta_hat: Theta, spec: ModelSpec) -> float:
    """Weighted average Type-2 risk over every subject in the sample."""
    arrs = as_arrays(data)
    t2 = _type2_vector(arrs, theta_hat, spec)
    return _exact_sum(arrs.w * t2) / _exact_sum(arrs.w)


def incidence(p_hiv: float, p_art: float, e_y: float) -> float:
    """Annual incidence from prevalence, ART coverage, and recency rate."""
    for name, val in (("p_hiv", p_hiv), ("p_art", p_art), ("e_y", e_y)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {val}")
    num = p_hiv * (1.0 - p_art) * e_y
    den = (1.0 - p_hiv) + num
    if den == 0.0:
        raise ZeroDivisionError("incidence undefined: p_hiv = 1 with p_art = 1 or E(Y) = 0")
    return num / den


def rita_classify(odn: float, vl: float) -> int:
    """Baseline rule: recent iff ODn <= 1.5 and viral load >= 1000.

    Takes raw (unstandardized) assay values; comparator only.
    """
    return int(odn <= 1.5 and vl >= 1000.0)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer's default dialect writes it: in double quotes,
    its own doubled, when it holds a comma, a double quote, CR or LF."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reprs(a: np.ndarray, end: str = "") -> list[str]:
    """``repr`` of each element of ``a`` followed by ``end``, each distinct
    float64 formatted once.  Values are told apart by their bits:
    ``np.unique`` on the floats would merge -0.0 with 0.0."""
    if a.dtype != np.float64:
        return [text + end for text in map(repr, a.tolist())]
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    texts = [text + end for text in map(repr, bits.view(np.float64).tolist())]
    return np.array(texts, dtype=object)[inverse].tolist()


def export_predictions(path, data, theta_hat: Theta, spec: ModelSpec, ids=None) -> None:
    """Write the prediction CSV: id, s, z, label, type1, type2.

    The bytes are csv.writer's: CRLF line ends, floats as repr and ids
    quoted where they must be.  A wrong id count is refused before the
    file is opened.  Each column's text is built once, and the
    s and Type-2 columns, which repeat many values, format each distinct
    value once.
    """
    arrs = as_arrays(data)
    t2 = _type2_vector(arrs, theta_hat, spec)   # first: it checks x against the spec
    t1 = np.atleast_1d(pi_recent(arrs.x, theta_hat.beta))
    ids = list(map(str, range(arrs.n) if ids is None else ids))
    if len(ids) != arrs.n:
        raise ValueError(f"{len(ids)} ids for {arrs.n} rows")
    if _NEEDS_QUOTES.search("".join(ids)):
        ids = list(map(_csv_field, ids))
    recent, longterm, _, _ = arrs.case_masks()
    labels = np.where(recent, "recent", np.where(longterm, "longterm", "unknown"))
    lines = map(",".join, zip(ids, _reprs(arrs.s), map(str, arrs.z.tolist()), labels.tolist(),
                              map(repr, t1.tolist()), _reprs(t2, end="\r\n"), strict=True))
    with open(path, "w", newline="") as fh:
        fh.write("id,s,z,label,type1,type2\r\n")
        fh.writelines(lines)
