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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .likelihood import _case_pass
from .model import (
    ModelSpec,
    RecencyLabel,
    Subject,
    Theta,
    as_arrays,
    check_theta_spec,
    pi_recent,
)

__all__ = [
    "RiskPair",
    "type1_risk",
    "type2_risk",
    "risk_pairs",
    "recency_rate",
    "incidence",
    "rita_classify",
    "export_predictions",
]


@dataclass(frozen=True)
class RiskPair:
    type1: float
    type2: float | None


def type1_risk(subject: Subject, theta_hat: Theta) -> float:
    """P(recent | covariates) at the fitted coefficients."""
    return pi_recent(subject.covariates, theta_hat.beta)


def _type2_vector(arrs, theta: Theta, spec: ModelSpec) -> np.ndarray:
    return _case_pass(arrs, theta, spec).v


def type2_risk(subject: Subject, theta_hat: Theta, spec: ModelSpec) -> float:
    """P(recent | s, z, covariates).

    Exactly 1 for (s <= 1, z = 0) and exactly 0 for (s > 1, z = 1); the
    unknown cells use the closed Bayes forms, which under p0 == 1 reduce
    to 1 in the (s > 1, z = 0) cell.  Under an extended spec the fitted
    tilt enters the recent-infection branch of both forms.
    """
    check_theta_spec(theta_hat, spec)
    arrs = as_arrays([subject])
    return float(_type2_vector(arrs, theta_hat, spec)[0])


def risk_pairs(data, theta_hat: Theta, spec: ModelSpec) -> list[RiskPair]:
    arrs = as_arrays(data)
    t1 = pi_recent(arrs.x, theta_hat.beta)
    t2 = _type2_vector(arrs, theta_hat, spec)
    return [RiskPair(type1=float(a), type2=float(b)) for a, b in zip(np.atleast_1d(t1), t2)]


def recency_rate(data, theta_hat: Theta, spec: ModelSpec) -> float:
    """Weighted average Type-2 risk over every subject in the sample."""
    arrs = as_arrays(data)
    t2 = _type2_vector(arrs, theta_hat, spec)
    return math.fsum(arrs.w * t2) / math.fsum(arrs.w)


def incidence(p_hiv: float, p_art: float, e_y: float) -> float:
    """Annual incidence from prevalence, ART coverage, and recency rate."""
    for name, val in (("p_hiv", p_hiv), ("p_art", p_art), ("e_y", e_y)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {val}")
    num = p_hiv * (1.0 - p_art) * e_y
    den = (1.0 - p_hiv) + num
    if den == 0.0:
        raise ZeroDivisionError("incidence undefined: prevalence 1 with no recent infections")
    return num / den


def rita_classify(odn: float, vl: float) -> int:
    """Baseline rule: recent iff ODn <= 1.5 and viral load >= 1000.

    Takes raw (unstandardized) assay values; comparator only.
    """
    return int(odn <= 1.5 and vl >= 1000.0)


def export_predictions(path, data, theta_hat: Theta, spec: ModelSpec, ids=None) -> None:
    """Write the prediction CSV: id, s, z, label, type1, type2."""
    arrs = as_arrays(data)
    t1 = np.atleast_1d(pi_recent(arrs.x, theta_hat.beta))
    t2 = _type2_vector(arrs, theta_hat, spec)
    if ids is None:
        ids = [str(i) for i in range(arrs.n)]
    recent, longterm, _, _ = arrs.case_masks()
    labels = np.where(recent, RecencyLabel.RECENT.value,
                      np.where(longterm, RecencyLabel.LONG_TERM.value,
                               RecencyLabel.UNKNOWN.value))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "s", "z", "label", "type1", "type2"])
        writer.writerows(zip(ids, map(repr, arrs.s.tolist()), arrs.z.tolist(),
                             labels.tolist(), map(repr, t1.tolist()), map(repr, t2.tolist()),
                             strict=True))
