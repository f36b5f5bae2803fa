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
space, so an impossible branch is -inf and extreme parameter values
degrade to -inf instead of producing NaN from catastrophic cancellation.
The term is the logaddexp of the two branches, formed only in the
mixture cells; in cells I and II it is the one finite branch, which is
what logaddexp returns there.  Sampling weights enter as exponents on
the per-subject factors, so in log space each term is scaled by its
weight.

Only this module evaluates the terms: one :func:`_case_pass` gives them
and the branch shares v (recent) and a (long-term) that all per-subject
scores need, so an optimizer step costs one pass.  v = d(term)/d(tilt
exponent) is 1 in cell I, 0 in II and the Bayes posterior of recency in
III and IV.  That is the Type-2 risk, which prediction reads from the
same pass.  The same pass gives the Hessian (the negated observed
information) that the trust-region loop and the sandwich use.  Each pair
log sigmoid(t), log(1 - sigmoid(t)) comes from one logaddexp
(:func:`_log_sigmoid_pair`), and what depends on the data alone (the
cell masks, s - 1, the design matrix D and w D, the Hessian's pairs) is
built once per data set and spec (:class:`_KernelData`).
:func:`_trial_summands` evaluates the same terms at several points that
each move one linear predictor, one (n, trials) column per point.

Every reduction over subjects is correctly rounded: :func:`_exact_colsum`
returns what math.fsum returns, a row block at a time, by error-free
extraction.  With every |b| of a block of fewer than 2**bits rows below
2**e, and sigma = 2**(e + bits), q = (b + sigma) - sigma and b - q are
exact, and each q is a multiple of 2**-53 sigma no larger than 2**e.  So
any partial sum of q is a multiple of 2**-53 sigma smaller than sigma: a
float, formed without rounding in whatever order numpy or BLAS adds.  A
few passes leave nothing behind, and fsum rounds the exact partial sums
once.  So each total is exactly invariant under subject permutation and
BLAS thread count, and a column's total does not depend on the columns
summed beside it.
"""

from __future__ import annotations

import functools
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


def _log_sigmoid_pair(t):
    """(log sigmoid(t), log(1 - sigmoid(t))) from one a = logaddexp(0, -|t|).

    log sigmoid(t) is -a for t >= 0 and t - a otherwise; log(1 - sigmoid(t))
    is -a - t for t >= 0 and -a otherwise.  np.logaddexp forms
    x + log1p(exp(-|x - y|)) in scalar libm, so these are bit for bit
    -logaddexp(0, -t) and -logaddexp(0, t), signed zeros, infinities and
    NaN included.
    """
    a = np.logaddexp(0.0, -np.abs(t))
    up = t >= 0.0
    neg_a = -a
    return np.where(up, neg_a, t - a), np.where(up, neg_a - t, neg_a)


class _KernelData:
    """What the kernel reads of one data set under one spec, built once.

    The cell masks, s - 1 and the branch factors the cells fix (0 or -inf)
    are formed here; the design matrix, w times it and the Hessian's pair
    index on their first use.
    """

    def __init__(self, arrs: SubjectArrays, spec: ModelSpec):
        if arrs.x.shape[1] != spec.n_covariates:
            raise ValueError(f"x has {arrs.x.shape[1]} covariate column(s) but the spec has "
                             f"{spec.n_covariates}: {spec.covariate_names}")
        self.spec, self.n = spec, arrs.n
        self.x, self.s, self.z, self.w = arrs.x, arrs.s, arrs.z, arrs.w
        self.inside = arrs.s <= 1.0
        self.pos = arrs.z == 1
        self.mixture = self.inside == self.pos     # cells III and IV
        self.sm1 = arrs.s - 1.0
        # log L inside the window and log R outside it: log z and log(1 - z)
        self.long_in = np.where(self.pos, 0.0, -np.inf)
        self.recent_out = np.where(self.pos, -np.inf, 0.0)
        self.zx = (None if spec.z_model_covariate is None
                   else arrs.x[:, spec.z_model_covariate_index])
        # the linear predictor each free parameter enters, in free order:
        # a = logit pi for a beta, q for an eta, t = the tilt exponent for a psi
        self.predictors = [{"b": "a", "e": "q", "p": "t"}[name[0]] for name in spec.free_names()]

    @functools.cached_property
    def design(self) -> np.ndarray:
        """Design rows D_i as an (n, free) matrix, one column per free
        parameter in free order: d(predictor)/d(parameter) for the linear
        predictor the parameter enters (:attr:`predictors`).  The eta
        columns carry the window gating: eta00 and eta01 act on q only
        outside it, eta10 and eta11 only inside."""
        ones = np.ones(self.n)
        inside = self.inside.astype(float)
        outside = 1.0 - inside
        cols = [ones] + [self.x[:, j] for j in range(self.x.shape[1])]
        cols += [outside, outside * self.sm1, inside, inside * self.sm1]
        if self.zx is not None:
            cols.append(self.zx)
        if self.spec.extended:
            cols += [ones, self.s]
        return np.column_stack([col for col, fixed in zip(cols, self.spec.fixed_mask())
                                if not fixed])

    @functools.cached_property
    def weighted_design(self) -> np.ndarray:
        """w_i D_i, the first factor of every Hessian summand."""
        return self.w[:, None] * self.design

    @functools.cached_property
    def pairs(self):
        """The (j, i) index of the Hessian entries that are summed: j <= i,
        less the eta pairs on opposite sides of s = 1."""
        side = [_WINDOW_SIDE.get(name) for name in self.spec.free_names()]
        return np.array([(a, b) for a, b in zip(*np.triu_indices(len(side)))
                         if None in (side[a], side[b]) or side[a] == side[b]]).T


def _q_pieces(kd: _KernelData, theta: Theta):
    """log p and log(1 - p) of the test-result predictor q, formed on each
    subject's own side of s = 1 only: a q of +-inf is a certain test result."""
    eta = theta.eta
    with np.errstate(over="ignore"):
        q = np.where(kd.inside, eta[2], eta[0]) + np.where(kd.inside, eta[3], eta[1]) * kd.sm1
    if kd.zx is not None:
        q = q + theta.eta_x * kd.zx
    log_p, log_1m_p = _log_sigmoid_pair(q)
    if kd.spec.p0_identically_one:
        log_p = np.where(kd.inside, log_p, 0.0)
        log_1m_p = np.where(kd.inside, log_1m_p, -np.inf)
    return log_p, log_1m_p


def _tilt_exponent(kd: _KernelData, theta: Theta):
    """psi0 + psi1 * s under an extended spec, +-inf where the product
    overflows; None (no tilt) otherwise."""
    with np.errstate(over="ignore"):
        return theta.psi[0] + theta.psi[1] * kd.s if kd.spec.extended else None


def _linear_pieces(kd: _KernelData, theta: Theta):
    """Per-subject log pi, log(1 - pi), log p, log(1 - p) and the tilt
    exponent (None without a tilt)."""
    log_pi, log_1m_pi = _log_sigmoid_pair(theta.beta[0] + kd.x @ theta.beta[1:])
    return (log_pi, log_1m_pi, *_q_pieces(kd, theta), _tilt_exponent(kd, theta))


def _q_branches(kd: _KernelData, log_p, log_1m_p):
    """The parts of the long-term and recent branches that q sets: log L and
    log R of the module docstring."""
    log_pz = np.where(kd.pos, log_p, log_1m_p)               # log P(z | q)
    log_l = np.where(kd.inside, kd.long_in, log_pz)
    return log_l, np.where(kd.inside, log_pz, kd.recent_out)


def _terms(kd: _KernelData, log_pi, log_1m_pi, q_branches, tilt_exp):
    """Each subject's long-term and recent branch and its term."""
    log_l, log_r = q_branches
    long = log_1m_pi + log_l
    recent = (log_pi if tilt_exp is None else log_pi + tilt_exp) + log_r
    # in cells I and II the other branch is -inf (NaN where the kept one's
    # pi or tilt is not finite): logaddexp returns the larger branch plus
    # log1p(exp(-inf)) = 0.0, or NaN
    terms = np.maximum(long, recent)
    terms += 0.0
    np.logaddexp(long, recent, out=terms, where=kd.mixture)
    return long, recent, terms


# v = d(term)/d(tilt exponent) and a: the recent and long-term branches'
# posterior shares of each term
_CasePass = namedtuple("_CasePass", "pieces terms v a")


def _case_pass(kd: _KernelData, theta: Theta) -> _CasePass:
    """Every subject's term logaddexp(long, recent) and its branch shares
    from one :func:`_linear_pieces` pass."""
    pieces = _linear_pieces(kd, theta)
    log_pi, log_1m_pi, log_p, log_1m_p, tilt_exp = pieces
    long, recent, terms = _terms(kd, log_pi, log_1m_pi, _q_branches(kd, log_p, log_1m_p),
                                 tilt_exp)
    # an impossible term has -inf in both branches: v and a are NaN there,
    # and the term's -inf is what the callers report
    with np.errstate(invalid="ignore"):
        v = np.exp(recent - terms)
        a = np.exp(long - terms)
    return _CasePass(pieces, terms, v, a)


def _case_terms(kd: _KernelData, theta: Theta) -> np.ndarray:
    return _case_pass(kd, theta).terms


def log_pseudo_likelihood(data, theta: Theta, spec: ModelSpec) -> float:
    """Weighted log pseudo-likelihood sum(w_i * case term_i).

    Returns -inf if any contribution degenerates (possible only at
    pathological theta); raises on an empty dataset.
    """
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    return _weighted_total(arrs.w, _case_terms(_KernelData(arrs, spec), theta))


def _weighted_total(w, terms) -> float:
    """sum(w * terms): -inf if a term is -inf, and a FloatingPointError
    naming the first subject whose term is otherwise non-finite."""
    if np.isneginf(terms).any():
        return -math.inf
    if not np.isfinite(terms).all():
        bad = int(np.flatnonzero(~np.isfinite(terms))[0])
        raise FloatingPointError(f"non-finite likelihood term at subject index {bad}")
    return _exact_sum(w * terms)


def _trial_summands(kd: _KernelData, pieces, trials):
    """The (n, trials) summands w (term - adjust), and the mask of the
    columns marked direct.

    ``trials`` holds (theta, predictor, adjust) per column, each moving the
    parameters of one linear predictor away from a base point whose
    :func:`_linear_pieces` are given; ``adjust`` is None or a vector.  A
    column recomputes that predictor's pieces (the a-pieces of a beta
    trial, the q-pieces of an eta trial, the tilt exponent of a psi trial)
    and reuses the base's others, through the one term formula,
    :func:`_terms`.  So every summand is bit for bit the one a single pass
    at the trial gives.  A column with a non-finite summand, or one past
    the exact sums' overflow bound, is zeroed and marked direct: a single
    evaluation at the trial gives its value.
    """
    log_pi, log_1m_pi, log_p, log_1m_p, tilt = pieces
    base_q = _q_branches(kd, log_p, log_1m_p)
    # a column at or above this would send _exact_colsum to its fsum
    # fallback: the extraction's overflow bound
    limit = 2.0 ** (1022 - kd.n.bit_length())
    summands = np.empty((kd.n, len(trials)), order="F")
    direct = np.zeros(len(trials), dtype=bool)
    for c, (theta, pred, adjust) in enumerate(trials):
        a_pieces = (_log_sigmoid_pair(theta.beta[0] + kd.x @ theta.beta[1:]) if pred == "a"
                    else (log_pi, log_1m_pi))
        q_branches = _q_branches(kd, *_q_pieces(kd, theta)) if pred == "q" else base_q
        tilt_exp = _tilt_exponent(kd, theta) if pred == "t" else tilt
        terms = _terms(kd, *a_pieces, q_branches, tilt_exp)[2]
        if adjust is not None:
            terms -= adjust
        col = np.multiply(terms, kd.w, out=summands[:, c])
        with np.errstate(invalid="ignore"):
            direct[c] = not (np.abs(col) < limit).all()
        if direct[c]:
            col[:] = 0.0
    return summands, direct


def score_contributions(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Per-subject weighted score vectors m_i over the FREE parameters.

    Rows sum to the gradient of :func:`log_pseudo_likelihood`. Raises if
    any intermediate is non-finite, naming the offending subject.
    """
    check_theta_spec(theta, spec)
    kd = _KernelData(as_arrays(data), spec)
    return _case_scores(kd, _case_pass(kd, theta))


def _case_scores(kd: _KernelData, cp: _CasePass) -> np.ndarray:
    """Weighted per-subject derivatives of the case terms; (n, free).

    d(term)/d(a) = (1 - pi) v - pi a, d(term)/d(t) = v, and q enters one
    branch, whose share times (z - p) is d(term)/d(q).
    """
    log_pi, _, log_p, _, _ = cp.pieces
    pi = np.exp(log_pi)
    u = {"a": (1.0 - pi) * cp.v - pi * cp.a,
         "q": np.where(kd.inside, cp.v, cp.a) * (kd.z - np.exp(log_p)),
         "t": cp.v}
    m = np.column_stack([u[pred] for pred in kd.predictors])
    m *= kd.design
    m *= kd.w[:, None]
    if not np.isfinite(m).all():
        bad = int(np.flatnonzero(~np.isfinite(m).all(axis=1))[0])
        raise FloatingPointError(f"non-finite score contribution at subject index {bad}")
    return m


# _exact_colsum reads about this many values per pass, so each of its
# temporaries stays near 128 kB
_SUM_BLOCK = 16384


def _exact_colsum(m) -> np.ndarray:
    """math.fsum of each column of ``m``, an (n, k) array or an object with
    ``shape`` whose row slices ``m[a:b]`` are the array's rows.

    The only such lazy input is :class:`_PairProducts`, the Hessian's and
    the sandwich meat's k**2 / 2 pair products (:func:`_pair_sums`): made
    whole, the meat's 15 at 1e5 rows take about twice the time and fifty
    times the peak memory, while a block of them stays in cache.

    Each block of about _SUM_BLOCK values, with rows < 2**bits, is split by
    error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008).  math.frexp of the block's largest |b| gives e with every |b| <
    2**e.  With sigma = 2**(e + bits), q = (b + sigma) - sigma and b - q
    are exact, and every q is a multiple of 2**-53 sigma with |q| <= 2**e.
    Fewer than 2**bits such q sum to less than sigma in magnitude, so every
    partial sum on the way is a multiple of 2**-53 sigma below sigma: a
    float.  The column sums of q are therefore exact in any order, and a
    BLAS product forms them.  The remainder b - q is at most 2**-53 sigma,
    and the next pass extracts it, until it is all zero; real summands
    take two or three passes.  math.fsum over a column's exact partial sums
    is then the correctly rounded sum of the column, which is fsum's own
    result.  Where fsum could overflow or meets a non-finite value, fsum
    sums the column itself, so every result and exception matches it.  An
    empty or all-zero column gives +0.0.
    """
    n, k = m.shape
    rows = max(1, _SUM_BLOCK // k)
    bits = min(rows, n).bit_length()
    ones = np.ones(min(rows, n))
    # past the check below every value is under 2**limit, so fsum's running
    # sums stay under 2**1022
    limit = 1022 - n.bit_length()
    partials = []
    for start in range(0, n, rows):
        b = m[start:start + rows]
        top, bottom = b.max(), b.min()
        if not (math.isfinite(top) and math.isfinite(bottom)):
            break
        largest = max(top, -bottom)
        if math.frexp(largest)[1] > limit:
            break
        while largest:
            sigma = math.ldexp(1.0, math.frexp(largest)[1] + bits)
            q = b + sigma
            q -= sigma
            partials.append(ones[:len(q)] @ q)
            b = b - q
            largest = max(b.max(), -b.min())
    else:
        return np.array([math.fsum(col) for col in np.reshape(partials, (-1, k)).T.tolist()])
    return np.array([math.fsum(col) for col in np.asarray(m[0:n]).T.tolist()])


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum of a vector, by :func:`_exact_colsum`."""
    return float(_exact_colsum(x.reshape(-1, 1))[0])


def score(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Analytic gradient of the log pseudo-likelihood over free parameters."""
    return _exact_colsum(score_contributions(data, theta, spec))


class _PairProducts:
    """The summands (left_j h) right_i, one column per pair (j, i), as a
    matrix that :func:`_exact_colsum` reads a row block at a time: no
    (n, pairs) array is held.  Pair c's curvature is h[h_col[c]], so a
    shared one is sliced once per block; with no h it is left_j right_i."""

    def __init__(self, left, right, j, i, h=(), h_col=()):
        self.left, self.right = left, right
        self.j, self.i = j, i
        self.h, self.h_col = h, h_col
        self.shape = (left.shape[0], len(j))

    def __getitem__(self, rows):
        out = self.left[rows][:, self.j]
        if self.h:
            out *= np.column_stack([h[rows] for h in self.h])[:, self.h_col]
        out *= self.right[rows][:, self.i]
        return out


def _pair_sums(left, right, pairs, h=(), h_col=()) -> np.ndarray:
    """The symmetric (k, k) matrix whose (j, i) and (i, j) entries are the
    correctly rounded sum of the :class:`_PairProducts` column of each pair
    (j, i) in ``pairs``; +0.0 off the pairs."""
    j, i = pairs
    k = left.shape[1]
    out = np.zeros((k, k))
    out[j, i] = out[i, j] = _exact_colsum(_PairProducts(left, right, j, i, h, h_col))
    return out


# the side of s = 1 on which each gated eta column is nonzero
_WINDOW_SIDE = {"eta00": "outside", "eta01": "outside", "eta10": "inside", "eta11": "inside"}


def _case_hessian(kd: _KernelData, cp: _CasePass) -> np.ndarray:
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
    log_pi, _, log_p, _, _ = cp.pieces
    inside = kd.inside
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
    keys = ["".join(sorted(kd.predictors[j] + kd.predictors[i])) for j, i in zip(*kd.pairs)]
    used = list(dict.fromkeys(keys))
    hess = _pair_sums(kd.weighted_design, kd.design, kd.pairs,
                      [h[key] for key in used], [used.index(key) for key in keys])
    if not np.isfinite(hess).all():
        raise FloatingPointError("non-finite Hessian entry")
    return hess


def hessian(data, theta: Theta, spec: ModelSpec) -> np.ndarray:
    """Analytic Hessian of the log pseudo-likelihood over free parameters.

    It is the Jacobian of :func:`score`, i.e. the negated observed
    information.
    """
    check_theta_spec(theta, spec)
    kd = _KernelData(as_arrays(data), spec)
    return _case_hessian(kd, _case_pass(kd, theta))
