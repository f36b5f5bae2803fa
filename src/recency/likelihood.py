"""Weighted log pseudo-likelihood, its analytic scores and its Hessian.

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
the Type-2 risk, which prediction reads from the same pass.  The same
pass gives the Hessian (the negated observed information) that the
Newton finish and the sandwich use.

Reductions over subjects use compensated summation (math.fsum), which
makes the total exactly invariant under subject permutation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from operator import add

import numpy as np

from .model import (
    ModelSpec,
    SubjectArrays,
    Theta,
    as_arrays,
    check_theta_spec,
)

__all__ = [
    "hessian",
    "log_pseudo_likelihood",
    "score",
    "score_contributions",
]


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


def _design(arrs: SubjectArrays, spec: ModelSpec) -> list:
    """Design rows D_i, one (predictors, column) pair per free parameter in
    free order: the linear predictors the parameter enters (a = logit pi,
    q0, q1, t = tilt exponent) and d(predictor)/d(parameter)."""
    ones = np.ones(arrs.n)
    sm1 = arrs.s - 1.0
    cols = [(("a",), ones)] + [(("a",), arrs.x[:, j]) for j in range(arrs.x.shape[1])]
    cols += [(("q0",), ones), (("q0",), sm1), (("q1",), ones), (("q1",), sm1)]
    if spec.z_model_covariate is not None:
        cols.append((("q0", "q1"), arrs.x[:, spec.z_model_covariate_index]))
    if spec.extended:
        cols += [(("t",), ones), (("t",), arrs.s)]
    return [col for col, fixed in zip(cols, spec.fixed_mask()) if not fixed]


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

    u = {"a": coef_beta, "q0": u0, "q1": u1, "t": v}
    m = np.column_stack([reduce(add, (u[p] for p in preds)) * col
                         for preds, col in _design(arrs, spec)]) * arrs.w[:, None]
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


def _case_hessian(arrs: SubjectArrays, spec: ModelSpec, cp: _CasePass) -> np.ndarray:
    """Hessian of the weighted case terms over the free parameters; (k, k).

    It is sum_i w_i D_i^T h_i D_i, with h_i the subject's curvature in its
    linear predictors (a, q0, q1, t).  A single-branch cell is a sum of
    log-logistic terms; a mixture cell log(e^l + e^r) has curvature
    a l'' + b r'' + a b (r' - l')(r' - l')^T with b = v and a = 1 - v.
    Since v is 1 in cell I and 0 in cell II, one formula covers all four
    cells: q1 enters only where s <= 1 (I, III), q0 only where s > 1
    (II, IV), so q0 and q1 never share a curvature term.  One fsum per
    parameter pair keeps the result exactly permutation invariant, and no
    (n, k, k) array exists.
    """
    log_pi, _, log_p0, _, log_p1, _, _ = cp.pieces
    m1, _, m3, _ = cp.masks
    inside = m1 | m3
    pi = np.exp(log_pi)
    p0 = np.exp(log_p0)
    p1 = np.exp(log_p1)
    v = cp.v
    ab = v * (1.0 - v)
    d0 = np.where(inside, 0.0, p0)            # d(r - l)/d(q0)
    d1 = np.where(inside, 1.0 - p1, 0.0)      # d(r - l)/d(q1)
    h = {
        ("a", "a"): ab - pi * (1.0 - pi),
        ("a", "q0"): ab * d0,
        ("a", "q1"): ab * d1,
        ("a", "t"): ab,
        ("q0", "q0"): np.where(inside, 0.0, ab * p0 * p0 - (1.0 - v) * p0 * (1.0 - p0)),
        ("q0", "t"): ab * d0,
        ("q1", "q1"): np.where(inside, ab * d1 * d1 - v * p1 * (1.0 - p1), 0.0),
        ("q1", "t"): ab * d1,
        ("t", "t"): ab,
    }
    h.update({(q, p): val for (p, q), val in list(h.items())})
    design = _design(arrs, spec)
    hess = np.zeros((len(design), len(design)))
    for j, (preds_j, col_j) in enumerate(design):
        wc = arrs.w * col_j
        for i in range(j, len(design)):
            preds_i, col_i = design[i]
            terms = [h[p, q] for p in preds_j for q in preds_i if (p, q) in h]
            if terms:
                hess[j, i] = hess[i, j] = math.fsum((wc * reduce(add, terms) * col_i).tolist())
    if not np.isfinite(hess).all():
        raise FloatingPointError("non-finite Hessian entry")
    return hess


def hessian(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Analytic Hessian of the log pseudo-likelihood over free parameters.

    It is the Jacobian of :func:`score`, i.e. the negated observed
    information.
    """
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    return _case_hessian(arrs, spec, _case_pass(arrs, theta, spec))
