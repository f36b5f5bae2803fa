"""Weighted log pseudo-likelihood, its analytic scores and its Hessian.

Each subject's term mixes two branches, a long-term infection and a
recent one:

    term = log[(1 - pi) * L + pi * e * R]

with pi = P(recent | x), e = exp(psi0 + psi1 * s) the tilt factor of an
extended spec (1 otherwise), and L, R the chances of the reported test
result z under each branch.  One test-result predictor q per subject
gives p = P(z = 1 | q): q = eta10 + eta11 * (s - 1) inside the recency
window (s <= 1), q = eta00 + eta01 * (s - 1) outside it, plus
eta_x * x under a z-model covariate.  The self-reported history rules
out one branch in two of the four (s, z) cells:

    inside  (s <= 1):  L = z                    R = P(z | q)
    outside (s > 1):   L = P(z | q)             R = 1 - z

so cell I (s <= 1, z = 0) is recent and cell II (s > 1, z = 1) long-term,
while cells III and IV stay mixtures.  Each branch is summed in log
space and the term is their logaddexp, so an impossible branch is -inf
and extreme parameter values degrade to -inf instead of producing NaN
from catastrophic cancellation.  Sampling weights enter as exponents on
the per-subject factors, so in log space each term is scaled by its
weight.

Only this module evaluates the terms: one :func:`_case_pass` gives them
and the branch shares v (recent) and a (long-term) that all per-subject
scores need, so an optimizer step costs one pass.  v = d(term)/d(tilt
exponent) is 1 in cell I, 0 in II and the Bayes posterior of recency in
III and IV.  That is the Type-2 risk, which prediction reads from the
same pass.  The same pass gives the Hessian (the negated observed
information) that the Newton finish and the sandwich use.

Every reduction over subjects is correctly rounded: :func:`_exact_colsum`
returns what math.fsum returns, from exact exponent-bucket totals that
numpy forms a row block at a time.  So each total is exactly invariant
under subject permutation.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
    """Per-subject log pi, log(1 - pi), log p, log(1 - p) of the one
    test-result predictor q, the tilt exponent and the inside-window mask."""
    if arrs.x.shape[1] != spec.n_covariates:
        raise ValueError(f"x has {arrs.x.shape[1]} covariate column(s) but the spec has "
                         f"{spec.n_covariates}: {spec.covariate_names}")
    lb = theta.beta[0] + arrs.x @ theta.beta[1:]
    inside = arrs.s <= 1.0
    sm1 = arrs.s - 1.0
    q = np.where(inside, theta.eta[2] + theta.eta[3] * sm1, theta.eta[0] + theta.eta[1] * sm1)
    if spec.z_model_covariate is not None:
        q = q + theta.eta_x * arrs.x[:, spec.z_model_covariate_index]
    log_pi = -np.logaddexp(0.0, -lb)
    log_1m_pi = -np.logaddexp(0.0, lb)
    log_p = -np.logaddexp(0.0, -q)
    log_1m_p = -np.logaddexp(0.0, q)
    if spec.p0_identically_one:
        log_p = np.where(inside, log_p, 0.0)
        log_1m_p = np.where(inside, log_1m_p, -np.inf)
    if spec.extended:
        tilt_exp = theta.psi[0] + theta.psi[1] * arrs.s
    else:
        tilt_exp = np.zeros_like(arrs.s)
    return log_pi, log_1m_pi, log_p, log_1m_p, tilt_exp, inside


# v = d(term)/d(tilt exponent) and a: the recent and long-term branches'
# posterior shares of each term
_CasePass = namedtuple("_CasePass", "pieces terms v a")


def _case_pass(arrs: SubjectArrays, theta: Theta, spec: ModelSpec) -> _CasePass:
    """Every subject's term logaddexp(long, recent) and its branch shares
    from one :func:`_linear_pieces` pass."""
    pieces = _linear_pieces(arrs, theta, spec)
    log_pi, log_1m_pi, log_p, log_1m_p, tilt_exp, inside = pieces
    pos = arrs.z == 1
    log_pz = np.where(pos, log_p, log_1m_p)             # log P(z | q)
    long = log_1m_pi + np.where(inside, np.where(pos, 0.0, -np.inf), log_pz)
    recent = log_pi + tilt_exp + np.where(inside, log_pz, np.where(pos, -np.inf, 0.0))
    terms = np.logaddexp(long, recent)
    # an impossible term has -inf in both branches: v and a are NaN there,
    # and the term's -inf is what the callers report
    with np.errstate(invalid="ignore"):
        v = np.exp(recent - terms)
        a = np.exp(long - terms)
    return _CasePass(pieces, terms, v, a)


def _case_terms(arrs: SubjectArrays, theta: Theta, spec: ModelSpec) -> np.ndarray:
    return _case_pass(arrs, theta, spec).terms


def log_pseudo_likelihood(data, theta: Theta, spec: ModelSpec) -> float:
    """Weighted log pseudo-likelihood sum(w_i * case term_i).

    Returns -inf if any contribution degenerates (possible only at
    pathological theta); raises on an empty dataset.
    """
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    return _weighted_total(arrs.w, _case_terms(arrs, theta, spec))


def _weighted_total(w, terms) -> float:
    """sum(w * terms): -inf if a term is -inf, and a FloatingPointError
    naming the first subject whose term is otherwise non-finite."""
    if np.isneginf(terms).any():
        return -math.inf
    if not np.isfinite(terms).all():
        bad = int(np.flatnonzero(~np.isfinite(terms))[0])
        raise FloatingPointError(f"non-finite likelihood term at subject index {bad}")
    return _exact_sum(w * terms)


def score_contributions(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Per-subject weighted score vectors m_i over the FREE parameters.

    Rows sum to the gradient of :func:`log_pseudo_likelihood`. Raises if
    any intermediate is non-finite, naming the offending subject.
    """
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    return _case_scores(arrs, spec, _case_pass(arrs, theta, spec))


def _design(arrs: SubjectArrays, spec: ModelSpec) -> list:
    """Design rows D_i, one (predictor, column) pair per free parameter in
    free order: the linear predictor the parameter enters (a = logit pi,
    q, t = tilt exponent) and d(predictor)/d(parameter).  The eta columns
    carry the window gating: eta00 and eta01 act on q only outside it,
    eta10 and eta11 only inside."""
    ones = np.ones(arrs.n)
    inside = (arrs.s <= 1.0).astype(float)
    outside = 1.0 - inside
    sm1 = arrs.s - 1.0
    cols = [("a", ones)] + [("a", arrs.x[:, j]) for j in range(arrs.x.shape[1])]
    cols += [("q", outside), ("q", outside * sm1), ("q", inside), ("q", inside * sm1)]
    if spec.z_model_covariate is not None:
        cols.append(("q", arrs.x[:, spec.z_model_covariate_index]))
    if spec.extended:
        cols += [("t", ones), ("t", arrs.s)]
    return [col for col, fixed in zip(cols, spec.fixed_mask()) if not fixed]


def _case_scores(arrs: SubjectArrays, spec: ModelSpec, cp: _CasePass) -> np.ndarray:
    """Weighted per-subject derivatives of the case terms; (n, free).

    d(term)/d(a) = (1 - pi) v - pi a, d(term)/d(t) = v, and q enters one
    branch, whose share times (z - p) is d(term)/d(q).
    """
    log_pi, _, log_p, _, _, inside = cp.pieces
    pi = np.exp(log_pi)
    u = {"a": (1.0 - pi) * cp.v - pi * cp.a,
         "q": np.where(inside, cp.v, cp.a) * (arrs.z - np.exp(log_p)),
         "t": cp.v}
    m = np.column_stack([u[pred] * col for pred, col in _design(arrs, spec)]) * arrs.w[:, None]
    if not np.isfinite(m).all():
        bad = int(np.flatnonzero(~np.isfinite(m).all(axis=1))[0])
        raise FloatingPointError(f"non-finite score contribution at subject index {bad}")
    return m


# _exact_colsum reads about this many values per pass, so each of its
# temporaries stays near 128 kB; its bucket totals stay exact up to
# _EXACT_ROWS rows in all
_SUM_BLOCK = 16384
_EXACT_ROWS = 1 << 26


def _exact_colsum(m) -> np.ndarray:
    """math.fsum of each column of ``m``, an (n, k) array or an object with
    ``shape`` whose row slices ``m[a:b]`` are the array's rows.

    np.frexp writes each value as mant * 2**e.  The integer and fraction
    parts of mant * 2**27 are added up per (column, e) by np.bincount, one
    block of about _SUM_BLOCK values at a time.  Up to 2**26 rows every
    such total is exact: the integer parts stay below 2**53 and the
    fraction parts are multiples of 2**-26 below 2**27.  So math.fsum over
    a column's scaled totals is the correctly rounded sum of the column,
    which is fsum's own result (Neal 2015, arXiv:1505.05571).  Where fsum
    could overflow or meets a non-finite value, or past 2**26 rows, fsum
    sums the column itself, so every result and exception matches it.  An
    empty or all-zero column gives +0.0.
    """
    n, k = m.shape
    if n == 0:
        return np.zeros(k)
    blocks = []
    rows = max(1, _SUM_BLOCK // k)
    for start in range(0, n, rows):
        frac, e = np.frexp(m[start:start + rows])
        frac *= 2.0**27
        whole = np.trunc(frac)
        with np.errstate(invalid="ignore"):   # inf - inf: a non-finite total, handled below
            frac -= whole
        e0, e1 = int(e.min()), int(e.max())
        width = e1 - e0 + 1
        # column j's exponents go to buckets j * width + (e - e0)
        bucket = np.add(e, np.arange(-e0, k * width - e0, width), dtype=np.intp).ravel()
        del e
        sums = [np.bincount(bucket, part.ravel(), k * width) for part in (whole, frac)]
        blocks.append((e0, e1, np.stack(sums)))
    lo, hi = min(b[0] for b in blocks), max(b[1] for b in blocks)
    if len(blocks) == 1:
        totals = blocks[0][2]
    else:
        totals = np.zeros((2, k * (hi - lo + 1)))
        for e0, e1, sums in blocks:
            totals.reshape(2, k, -1)[:, :, e0 - lo:e1 - lo + 1] += sums.reshape(2, k, -1)
    # every value is below 2**hi, so fsum's running sums stay below 2**1022
    if n < _EXACT_ROWS and hi + n.bit_length() <= 1022 and np.isfinite(totals).all():
        parts = np.ldexp(totals.reshape(2, k, -1), np.arange(lo - 27, hi - 26)).transpose(1, 0, 2)
        return np.array([math.fsum(col) for col in parts.reshape(k, -1).tolist()])
    return np.array([math.fsum(col) for col in np.asarray(m[0:n]).T.tolist()])


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum of a vector, by :func:`_exact_colsum`."""
    return float(_exact_colsum(x.reshape(-1, 1))[0])


def score(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Analytic gradient of the log pseudo-likelihood over free parameters."""
    return _exact_colsum(score_contributions(data, theta, spec))


class _PairProducts:
    """The Hessian's summands w col_j h col_i, one column per pair (j, i),
    as a matrix that :func:`_exact_colsum` reads a row block at a time:
    no (n, pairs) array is held.  Each product is formed as
    (w col_j h) col_i."""

    def __init__(self, w, design, h, j, i):
        self.w = w
        self.cols = [col for _, col in design]
        self.j, self.i = j, i
        keys = ["".join(sorted(design[j][0] + design[i][0])) for j, i in zip(self.j, self.i)]
        used = list(dict.fromkeys(keys))
        self.h = [h[key] for key in used]
        self.h_col = [used.index(key) for key in keys]
        self.shape = (w.size, len(keys))

    def __getitem__(self, rows):
        d = np.column_stack([col[rows] for col in self.cols])
        h = np.column_stack([h[rows] for h in self.h])
        out = (self.w[rows, None] * d)[:, self.j]
        out *= h[:, self.h_col]
        out *= d[:, self.i]
        return out


# the side of s = 1 on which each gated eta column is nonzero
_WINDOW_SIDE = {"eta00": "outside", "eta01": "outside", "eta10": "inside", "eta11": "inside"}


def _case_hessian(arrs: SubjectArrays, spec: ModelSpec, cp: _CasePass) -> np.ndarray:
    """Hessian of the weighted case terms over the free parameters; (k, k).

    It is sum_i w_i D_i^T h_i D_i, with h_i the subject's curvature in its
    linear predictors (a, q, t).  A term log(e^l + e^r) has curvature
    (1 - v) l'' + v r'' + v (1 - v) (r' - l')(r' - l')^T, and q enters the
    recent branch r inside the window and the long-term branch l outside
    it.  Since v is 1 in cell I and 0 in cell II, one formula covers all
    four cells.  Each pair's sum is correctly rounded, hence exactly
    permutation invariant, and no (n, k, k) array exists.  An eta acting
    outside the window (eta00, eta01) and one acting inside it (eta10,
    eta11) share no subject, so their entry is +0.0 without a sum.
    """
    log_pi, _, log_p, _, _, inside = cp.pieces
    pi = np.exp(log_pi)
    p = np.exp(log_p)
    v = cp.v
    ab = v * (1.0 - v)
    d = np.where(inside, 1.0 - p, p)          # d(r - l)/d(q) in the mixture cells
    abd = ab * d
    h = {
        "aa": ab - pi * (1.0 - pi),
        "aq": abd,
        "at": ab,
        "qq": abd * d - np.where(inside, v, 1.0 - v) * p * (1.0 - p),
        "qt": abd,
        "tt": ab,
    }
    design = _design(arrs, spec)
    side = [_WINDOW_SIDE.get(name) for name in spec.free_names()]
    j, i = np.array([(a, b) for a, b in zip(*np.triu_indices(len(design)))
                     if None in (side[a], side[b]) or side[a] == side[b]]).T
    hess = np.zeros((len(design), len(design)))
    hess[j, i] = hess[i, j] = _exact_colsum(_PairProducts(arrs.w, design, h, j, i))
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
