"""Weighted log pseudo-likelihood and its analytic per-subject scores.

Each subject contributes one of four case terms according to its (s, z)
cell:

    I   (s <= 1, z = 0):  log[pi * (1 - p1)]
    II  (s > 1,  z = 1):  log[(1 - pi) * p0]
    III (s <= 1, z = 1):  log[1 - pi + pi * p1]
    IV  (s > 1,  z = 0):  log[(1 - pi) * (1 - p0) + pi]

Sampling weights enter as exponents on the per-subject factors, so in
log space each case term is simply scaled by its weight.  Under an
extended spec the recent-infection branches additionally carry the tilt
factor exp(psi0 + psi1 * s).  The mixture cases III/IV are
evaluated with log-sum-exp so extreme parameter values degrade to -inf
instead of producing NaN from catastrophic cancellation.

Only this module evaluates the terms: one :func:`_case_pass` gives them
and all the per-subject scores need, so an optimizer step costs one pass.
d(term)/d(tilt exponent) is the recent branch's share of the term: 1 in
cell I, 0 in II, the Bayes posterior of recency in III and IV.  That is
the Type-2 risk, which prediction reads from the same pass.

Reductions over subjects use compensated summation (math.fsum), which
makes the total exactly invariant under subject permutation.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelSpec,
    SubjectArrays,
    Theta,
    as_arrays,
    check_theta_spec,
)

__all__ = [
    "Case",
    "CaseContribution",
    "case_log_contribution",
    "log_pseudo_likelihood",
    "score",
    "score_contributions",
]


class Case(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class CaseContribution:
    case_id: Case
    log_value: float


def _linear_pieces(arrs: SubjectArrays, theta: Theta, spec: ModelSpec):
    """Per-subject log-probabilities of both models, and the tilt exponent."""
    lb = theta.beta[0] + arrs.x @ theta.beta[1:]
    q0 = theta.eta[0] + theta.eta[1] * (arrs.s - 1.0)
    q1 = theta.eta[2] + theta.eta[3] * (arrs.s - 1.0)
    if spec.z_model_covariate is not None:
        xz = arrs.x[:, spec.z_model_covariate_index]
        q0 = q0 + theta.eta_x * xz
        q1 = q1 + theta.eta_x * xz
    log_pi = -np.logaddexp(0.0, -lb)
    log_1m_pi = -np.logaddexp(0.0, lb)
    log_p1 = -np.logaddexp(0.0, -q1)
    log_1m_p1 = -np.logaddexp(0.0, q1)
    if spec.p0_identically_one:
        log_p0 = np.zeros_like(q0)
        log_1m_p0 = np.full_like(q0, -np.inf)
    else:
        log_p0 = -np.logaddexp(0.0, -q0)
        log_1m_p0 = -np.logaddexp(0.0, q0)
    if spec.extended:
        tilt_exp = theta.psi[0] + theta.psi[1] * arrs.s
    else:
        tilt_exp = np.zeros_like(arrs.s)
    return log_pi, log_1m_pi, log_p0, log_1m_p0, log_p1, log_1m_p1, tilt_exp


# v = d(term)/d(tilt exponent), the recent branch's posterior share
_CasePass = namedtuple("_CasePass", "pieces masks terms v")


def _case_pass(arrs: SubjectArrays, theta: Theta, spec: ModelSpec) -> _CasePass:
    """The four case terms and their tilt coefficients v from one
    :func:`_linear_pieces` pass."""
    pieces = _linear_pieces(arrs, theta, spec)
    log_pi, log_1m_pi, log_p0, log_1m_p0, log_p1, log_1m_p1, tilt_exp = pieces
    m1, m2, m3, m4 = masks = arrs.case_masks()
    terms = np.empty(arrs.n)
    v = np.zeros(arrs.n)
    terms[m1] = log_pi[m1] + log_1m_p1[m1] + tilt_exp[m1]
    v[m1] = 1.0
    terms[m2] = log_1m_pi[m2] + log_p0[m2]
    log_r3 = log_pi[m3] + tilt_exp[m3] + log_p1[m3]
    terms[m3] = np.logaddexp(log_1m_pi[m3], log_r3)
    v[m3] = np.exp(log_r3 - terms[m3])
    log_r4 = log_pi[m4] + tilt_exp[m4]
    terms[m4] = np.logaddexp(log_1m_pi[m4] + log_1m_p0[m4], log_r4)
    v[m4] = np.exp(log_r4 - terms[m4])
    return _CasePass(pieces, masks, terms, v)


def _case_terms(arrs: SubjectArrays, theta: Theta, spec: ModelSpec) -> np.ndarray:
    return _case_pass(arrs, theta, spec).terms


def case_log_contribution(subject, theta: Theta, spec: ModelSpec) -> CaseContribution:
    """Unweighted log likelihood term of a single subject."""
    check_theta_spec(theta, spec)
    arrs = as_arrays([subject])
    term = float(_case_terms(arrs, theta, spec)[0])
    if subject.s <= 1.0:
        case = Case.I if subject.z == 0 else Case.III
    else:
        case = Case.II if subject.z == 1 else Case.IV
    return CaseContribution(case_id=case, log_value=term)


def log_pseudo_likelihood(data, theta: Theta, spec: ModelSpec) -> float:
    """Weighted log pseudo-likelihood sum(w_i * case term_i).

    Returns -inf if any contribution degenerates (possible only at
    pathological theta); raises on an empty dataset.
    """
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    terms = _case_terms(arrs, theta, spec)
    if np.isneginf(terms).any():
        return -math.inf
    if not np.isfinite(terms).all():
        bad = int(np.flatnonzero(~np.isfinite(terms))[0])
        raise FloatingPointError(f"non-finite likelihood term at subject index {bad}")
    return math.fsum(arrs.w * terms)


def score_contributions(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Per-subject weighted score vectors m_i over the FREE parameters.

    Rows sum to the gradient of :func:`log_pseudo_likelihood`. Raises if
    any intermediate is non-finite, naming the offending subject.
    """
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    return _case_scores(arrs, spec, _case_pass(arrs, theta, spec))


def _case_scores(arrs: SubjectArrays, spec: ModelSpec, cp: _CasePass) -> np.ndarray:
    """Weighted per-subject derivatives of the case terms; (n, free)."""
    log_pi, log_1m_pi, log_p0, log_1m_p0, log_p1, _, _ = cp.pieces
    m1, m2, m3, m4 = cp.masks
    n = arrs.n
    pi = np.exp(log_pi)
    p1 = np.exp(log_p1)
    p0 = np.exp(log_p0)
    v = cp.v                  # d(term)/d(tilt exponent)

    coef_beta = np.zeros(n)   # d(term)/d(linear predictor of pi)
    u0 = np.zeros(n)          # d(term)/d(q0)
    u1 = np.zeros(n)          # d(term)/d(q1)

    coef_beta[m1] = 1.0 - pi[m1]
    u1[m1] = -p1[m1]

    coef_beta[m2] = -pi[m2]
    u0[m2] = 1.0 - p0[m2]

    a3 = np.exp(log_1m_pi[m3] - cp.terms[m3])                # long-term share of mix
    b3 = v[m3]
    coef_beta[m3] = (1.0 - pi[m3]) * b3 - pi[m3] * a3
    u1[m3] = b3 * (1.0 - p1[m3])

    a4 = np.exp(log_1m_pi[m4] + log_1m_p0[m4] - cp.terms[m4])
    b4 = v[m4]
    coef_beta[m4] = (1.0 - pi[m4]) * b4 - pi[m4] * a4
    u0[m4] = -a4 * p0[m4]

    cols = [coef_beta]                                       # beta0
    cols += [coef_beta * arrs.x[:, j] for j in range(arrs.x.shape[1])]
    cols += [u0, u0 * (arrs.s - 1.0), u1, u1 * (arrs.s - 1.0)]
    if spec.z_model_covariate is not None:
        xz = arrs.x[:, spec.z_model_covariate_index]
        cols.append((u0 + u1) * xz)
    if spec.extended:
        cols += [v, v * arrs.s]
    grad = np.column_stack(cols) * arrs.w[:, None]

    free = ~spec.fixed_mask()
    m = grad[:, free]
    if not np.isfinite(m).all():
        bad = int(np.flatnonzero(~np.isfinite(m).all(axis=1))[0])
        raise FloatingPointError(f"non-finite score contribution at subject index {bad}")
    return m


def _column_fsum(m: np.ndarray) -> np.ndarray:
    """Correctly rounded column sums of an (n, k) matrix."""
    return np.array([math.fsum(col) for col in m.T.tolist()])


def score(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Analytic gradient of the log pseudo-likelihood over free parameters."""
    return _column_fsum(score_contributions(data, theta, spec))
