"""Density-ratio extension: exponential tilt on the time-gap distribution.

When the time since the last test is allowed to depend on recency
status, the two conditional densities are linked by the tilt
exp(psi0 + psi1 * s) and the baseline density is profiled out
nonparametrically (one jump per observed s).  The jumps have the closed
form

    p_i = w_i / (n + n * mu * (e_i - 1)),        e_i = tilt(s_i)

with a single multiplier mu solving

    g(mu) = sum_i w_i (e_i - 1) / (1 + mu (e_i - 1)) = 0,

which enforces both constraints sum(p) = 1 and sum(p (e - 1)) = 0.
g is strictly decreasing between the poles of its terms, so the root is
bracketed on the open interval where every denominator stays positive.

The profile objective adds -sum w_i log(1 + mu (e_i - 1)) to the tilted
pseudo-likelihood.  Since g is the mu-derivative of that term, the
envelope theorem makes the profile gradient the partial derivative with
mu held fixed.  The per-subject scores for the sandwich also need
d mu / d psi = -g_psi / g_mu from the implicit-function rule, with

    g_mu  = -sum_i w_i d_i^2 / (1 + mu d_i)^2,
    g_psi =  sum_i w_i e_i (1, s_i) / (1 + mu d_i)^2,    d_i = e_i - 1

The profile Hessian is the case-term Hessian plus, in the psi block,

    -sum_i w_i mu (1 - mu) e_i x_i x_i^T / (1 + mu d_i)^2 + g_psi g_psi^T / g_mu,

with x_i = (1, s_i): the curvature of -w log(1 + mu d) at fixed mu, and
its mixed mu-psi derivative -g_psi times d mu / d psi.  Since the term's
mu-derivative -g vanishes at the root, no d^2 mu / d psi^2 term appears
(Qin & Lawless 1994, Ann. Stat. 22:300; Qin 1998, Biometrika 85:619).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimation import POLISH_STEPS, FitResult, _check_weight_sum, _maximize, _prepare, _sandwich
from .estimation import brentq, minimize
from .likelihood import (
    _case_hessian,
    _case_pass,
    _case_scores,
    _case_terms,
    _exact_colsum,
    _exact_sum,
    _KernelData,
    _trial_summands,
    _weighted_total,
)
from .model import ModelSpec, Theta, as_arrays, check_theta_spec

__all__ = [
    "TiltSolution",
    "tilt",
    "solve_mu",
    "profile_log_likelihood",
    "fit_extended",
]

SUM_TOL = 1e-10       # |sum(p) - 1|
TILT_CONSTRAINT_TOL = 1e-8   # |sum(p (e - 1))|


def tilt(s, psi):
    """Density ratio exp(psi0 + psi1 * s); errors on overflow."""
    s = np.asarray(s, dtype=float)
    psi = np.asarray(psi, dtype=float)
    expo = psi[0] + psi[1] * s
    if np.any(expo > 700.0):
        raise OverflowError("tilt exponent overflows float64; bound psi during optimization")
    return np.exp(expo)


@dataclass(frozen=True)
class TiltSolution:
    """Multiplier and nonparametric jumps for one psi, with the tilt
    e = tilt(s, psi), d = e - 1 and 1 + mu d they were solved with.
    Where the tilt overflows float64, psi is infeasible and every array
    is NaN."""

    mu: float
    jumps: np.ndarray
    feasible: bool
    residual_sum: float    # sum(jumps) - 1
    residual_tilt: float   # sum(jumps * (e - 1))
    e: np.ndarray
    d: np.ndarray
    denom: np.ndarray


def _solution(mu, w, n, e, d, feasible=True):
    """The jumps at ``mu``: feasible where every 1 + mu d is positive and both
    constraints hold, so the jumps are positive, sum to 1 and none exceeds 1."""
    denom = 1.0 + mu * d
    jumps = w / (n * denom)
    total, r_tilt = _exact_colsum(np.column_stack([jumps, jumps * d])).tolist()
    r_sum = total - 1.0
    feasible = (feasible and np.all(denom > 0.0)
                and abs(r_sum) <= SUM_TOL and abs(r_tilt) <= TILT_CONSTRAINT_TOL)
    return TiltSolution(mu=float(mu), jumps=jumps, feasible=bool(feasible),
                        residual_sum=r_sum, residual_tilt=r_tilt, e=e, d=d, denom=denom)


def solve_mu(psi, data) -> TiltSolution:
    """Root-find the multiplier for given psi.  The one judge of whether
    psi is usable: an infeasible psi, one whose tilt overflows included,
    is a result with ``feasible`` False, not an exception.  Weights that
    do not sum to the subject count raise the fit's ValueError, since no
    psi is feasible then."""
    arrs = as_arrays(data)
    _check_weight_sum(arrs)
    w = arrs.w
    n = arrs.n
    try:
        e = tilt(arrs.s, psi)
    except OverflowError:
        nan = np.full(n, math.nan)
        return TiltSolution(0.0, nan, False, math.nan, math.nan, nan, nan, nan)
    d = e - 1.0
    if np.max(np.abs(d)) < 1e-10:
        # degenerate tilt: empirical weights are already the solution
        return _solution(0.0, w, n, e, d)
    dmax = d.max()
    dmin = d.min()
    if dmax <= 0.0 or dmin >= 0.0:
        # g keeps one sign on the whole feasible interval: no root
        return _solution(0.0, w, n, e, d, feasible=False)

    wd = w * d
    buf = np.empty(n)

    def g(mu):
        # pairwise numpy sum: called ~15x per root-find, an exact sum is too slow here.
        # The terms are w * d / (1.0 + mu * d)'s floats, formed in one buffer
        np.multiply(d, mu, out=buf)
        np.add(buf, 1.0, out=buf)
        np.divide(wd, buf, out=buf)
        return float(np.sum(buf))

    lo = -1.0 / dmax
    hi = -1.0 / dmin
    pad = 1e-12 * (hi - lo)
    lo_in, hi_in = lo + pad, hi - pad
    g_lo, g_hi = g(lo_in), g(hi_in)
    if not (g_lo > 0.0 > g_hi):
        return _solution(0.0, w, n, e, d, feasible=False)
    mu = brentq(g, lo_in, hi_in, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return _solution(mu, w, n, e, d)


def _log_denominators(sol):
    """log(1 + mu d), by which the profile terms fall short of the case
    terms at a feasible psi."""
    return np.log1p(sol.mu * sol.d)


def _profile_terms(kd, arrs, theta):
    """Per-subject profile terms, the case terms less log(1 + mu d), and
    the tilt solution; the terms are None where psi is infeasible."""
    sol = solve_mu(theta.psi, arrs)
    if not sol.feasible:
        return None, sol
    return _case_terms(kd, theta) - _log_denominators(sol), sol


def profile_log_likelihood(data, theta: Theta, spec: ModelSpec) -> float:
    """Profile objective over (beta, eta, psi); -inf where :func:`solve_mu`
    finds psi infeasible, an overflowing tilt included.  Its terms follow
    :func:`log_pseudo_likelihood`'s rule: a -inf term makes the total -inf,
    and a NaN one raises FloatingPointError.  Weights that do not sum to
    the subject count raise :func:`solve_mu`'s ValueError."""
    if not spec.extended:
        raise ValueError("profile likelihood requires an extended spec")
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    terms, _ = _profile_terms(_KernelData(arrs, spec), arrs, theta)
    return -math.inf if terms is None else _weighted_total(arrs.w, terms)


class _ProfileObjective:
    """The extended fit's objective for :func:`estimation._maximize`:
    the profile likelihood, its analytic gradient, Hessian and sandwich,
    and :func:`estimation.minimize` runs on its negation with rejection
    counting.  One cached root-find, kernel pass and set of multiplier
    pieces per distinct point serves every method but ``value``: the loop
    asks for the value and gradient at each trial point and for the
    Hessian at each accepted one.  The flatness probe's trial points come
    from one batched pass (:meth:`trial_logliks`).

    Its runs measure the trust region as |D p| <= radius, D from the
    first Hessian's diagonal (``minimize(..., scaled=True)``).  Near the
    tilt cone's edge the psi curvature is ~1e4 times the others'.  On the
    sphere, the first psi steps of an S6 fit left the cone or climbed its
    wall and were rejected until the radius had fallen to 1/128, and 7
    more steps grew it back.  The basic fit keeps the sphere, which takes
    it fewer steps."""

    def __init__(self, arrs, template, spec):
        self.arrs = arrs
        self.template = template
        self.spec = spec
        self.kd = _KernelData(arrs, spec)
        names = spec.free_names()
        self.psi_cols = [names.index("psi0"), names.index("psi1")]
        self.rejections = 0
        self.max_residuals = [0.0, 0.0]
        self._x = self._pieces = None

    def _negated_total(self, contrib, sol):
        """-sum(contrib), or inf counted as a rejection when it is None."""
        if contrib is None or not np.isfinite(contrib).all():
            self.rejections += 1
            return math.inf
        self._note_residuals(sol)
        return -_exact_sum(contrib)

    def _note_residuals(self, sol):
        self.max_residuals[0] = max(self.max_residuals[0], abs(sol.residual_sum))
        self.max_residuals[1] = max(self.max_residuals[1], abs(sol.residual_tilt))

    def value(self, free):
        terms, sol = _profile_terms(self.kd, self.arrs, self.template.with_free(free, self.spec))
        return self._negated_total(None if terms is None else self.arrs.w * terms, sol)

    def value_and_gradient(self, free):
        """The loop's objective (value, -gradient) from the cached pass;
        (inf, NaNs) where psi is infeasible."""
        try:
            sol, cp, mp = self._feasible_pass(free)
        except FloatingPointError:
            return self._negated_total(None, None), np.full(free.size, np.nan)
        contrib = self.arrs.w * (cp.terms - _log_denominators(sol))
        try:
            m = self._profile_scores(sol, cp, mp)
        except FloatingPointError:
            return self._negated_total(contrib, sol), np.full(free.size, np.nan)
        if not np.isfinite(contrib).all():
            grad = -_exact_colsum(m)
            return self._negated_total(contrib, sol), grad
        # the value and the scores from one exact column sum
        self._note_residuals(sol)
        sums = _exact_colsum(np.column_stack([contrib, m]))
        return -float(sums[0]), -sums[1:]

    def hess(self, free):
        """-hessian for :func:`estimation.minimize`, which asks for it only
        at accepted points, where psi is feasible."""
        return -self.hessian(free)

    def run(self, start, maxiter):
        """One scaled :func:`estimation.minimize` run of at most ``maxiter``
        steps from ``start``."""
        return minimize(self.value_and_gradient, start, self.hess, maxiter=maxiter, scaled=True)

    def trial_logliks(self, free, trials):
        """:meth:`loglik` at each trial point, a (j, point) pair whose point
        moves ``free``'s entry j, from one :func:`likelihood._trial_summands`
        array over ``free``'s cached pieces and one exact column sum: one
        callable per trial that returns that value and does its rejection
        or residual bookkeeping.
        A trial that moves a beta or an eta keeps psi, and with it
        ``free``'s tilt solution; a psi trial solves for its own."""
        sol, cp, _ = self._feasible_pass(free)
        base = _log_denominators(sol)
        columns, outcomes = [], []
        for j, point in trials:
            theta = self.template.with_free(point, self.spec)
            pred = self.kd.predictors[j]
            trial_sol = solve_mu(theta.psi, self.arrs) if pred == "t" else sol
            if not trial_sol.feasible:
                outcomes.append((point, None, None))
                continue
            outcomes.append((point, trial_sol, len(columns)))
            columns.append((theta, pred, _log_denominators(trial_sol) if pred == "t" else base))
        summands, direct = _trial_summands(self.kd, cp.pieces, columns)
        totals = _exact_colsum(summands)

        def loglik(point, trial_sol, column):
            if trial_sol is None:
                return -self._negated_total(None, None)
            if direct[column]:
                return self.loglik(point)
            self._note_residuals(trial_sol)
            return float(totals[column])

        return [functools.partial(loglik, *outcome) for outcome in outcomes]

    def _feasible_pass(self, free):
        """Tilt solution, kernel pass and multiplier pieces at ``free``,
        kept for the last distinct point; raises FloatingPointError where
        psi is infeasible."""
        if self._x is None or not np.array_equal(free, self._x):
            theta = self.template.with_free(free, self.spec)
            sol = solve_mu(theta.psi, self.arrs)
            pieces = (sol, _case_pass(self.kd, theta),
                      self._multiplier_pieces(sol)) if sol.feasible else None
            self._x, self._pieces = np.array(free, dtype=float), pieces
        if self._pieces is None:
            raise FloatingPointError("profile derivatives requested at infeasible psi")
        return self._pieces

    def multiplier(self, free):
        """mu at ``free``, or None where psi is infeasible."""
        try:
            return self._feasible_pass(free)[0].mu
        except FloatingPointError:
            return None

    def contribution_jacobian(self, free):
        """Per-subject profile scores m_i; (n, k)."""
        return self._profile_scores(*self._feasible_pass(free))

    def _multiplier_pieces(self, sol):
        """d(e)/d(psi0, psi1), g_mu and g_psi at the solution's tilt.

        Far out on a tilt, d^2 and 1 + mu d squared overflow.  g_mu is then
        -inf, and dmu = -g_psi / g_mu its limit 0, or NaN, which
        :meth:`_profile_scores` and :meth:`hessian` reject as non-finite."""
        arrs = self.arrs
        de = np.column_stack([sol.e, sol.e * arrs.s])
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _exact_colsum(np.column_stack([arrs.w * sol.d * sol.d / sol.denom**2,
                                                  (arrs.w / sol.denom**2)[:, None] * de]))
        return de, -float(sums[0]), sums[1:]

    def _profile_scores(self, sol, cp, mp):
        """Profile scores from the kernel pass cp and the multiplier
        pieces mp at a feasible psi.

        The case-term scores, plus in the psi columns the derivative of
        -w log(1 + mu d) through d = e - 1 and through mu(psi), whose
        slope -g_psi / g_mu follows from g(mu(psi), psi) = 0.  The mu(psi)
        part sums to -g * dmu/dpsi = 0 over subjects, so the columns add
        up to the envelope gradient.
        """
        arrs = self.arrs
        m = _case_scores(self.kd, cp)
        de, g_mu, g_psi = mp
        # with every s equal, d = 0 and g_mu = 0: the non-finite dmu is rejected below
        with np.errstate(divide="ignore", invalid="ignore"):
            dmu = -g_psi / g_mu
            m[:, self.psi_cols] -= (arrs.w / sol.denom)[:, None] * (sol.mu * de + sol.d[:, None] * dmu)
        if not np.isfinite(m).all():
            raise FloatingPointError("non-finite profile score")
        return m

    def hessian(self, free):
        """Hessian of the (positive) profile objective; (k, k).

        The case-term Hessian plus the psi-block correction of the module
        docstring; raises FloatingPointError where psi is infeasible.
        """
        sol, cp, (_, g_mu, g_psi) = self._feasible_pass(free)
        s = self.arrs.s
        # where 1 + mu d squared overflows, q is its limit 0, or NaN, which raises below
        with np.errstate(over="ignore"):
            q = self.arrs.w * sol.mu * (1.0 - sol.mu) * sol.e / sol.denom**2
        c00, c01, c11 = _exact_colsum(np.column_stack([q, q * s, q * s * s]))
        hess = _case_hessian(self.kd, cp)
        hess[np.ix_(self.psi_cols, self.psi_cols)] += (
            np.outer(g_psi, g_psi) / g_mu - np.array([[c00, c01], [c01, c11]]))
        if not np.isfinite(hess).all():
            raise FloatingPointError("non-finite profile Hessian")
        return hess

    def gradient(self, free):
        """Gradient of the (positive) profile objective; NaN where psi is
        infeasible."""
        try:
            m = self.contribution_jacobian(free)
        except FloatingPointError:
            return np.full(free.size, np.nan)
        return _exact_colsum(m)

    def loglik(self, free):
        return -self.value(free)

    def newton_polish(self, free):
        """The finishing run from a run's end point that is short of the
        score tolerance: :meth:`run` with at most POLISH_STEPS steps."""
        return self.run(free, POLISH_STEPS)

    def covariance(self, free):
        """Sandwich of the analytic per-subject profile scores and the
        analytic profile Hessian."""
        return _sandwich(self.contribution_jacobian(free), self.hessian(free),
                         self.spec.free_names())


def fit_extended(data, spec: ModelSpec) -> FitResult:
    """Maximize the profile likelihood over (beta, free eta, psi0, psi1).

    The basic fit's attempt loop (:func:`estimation._maximize`) runs
    :func:`estimation.minimize` on the analytic profile gradient and
    Hessian from one start inside each sign-compatible tilt cone, the
    other parameters at the basic fit's default start, and stops at the
    first settled attempt; each run's trust region is scaled by its first
    Hessian's diagonal (see :class:`_ProfileObjective`), which takes an
    S6 fit at n_total = 4000 about 9 steps, where the sphere took 17.
    The result also carries the multiplier at the
    optimum, the worst constraint residuals seen over accepted
    evaluations, and the number of infeasible-psi rejections.
    """
    if not spec.extended:
        raise ValueError("fit_extended requires spec.extended")
    arrs, template = _prepare(data, spec)
    obj = _ProfileObjective(arrs, template, spec)
    x0 = template.free_values(spec)

    # psi = 0 sits on the boundary of the feasible cone (the tilt must
    # cross 1 inside the observed s-range), so start a small step inside
    # each of the two sign-compatible cones
    med_s = float(np.median(arrs.s))
    i0, i1 = obj.psi_cols
    delta = 0.1
    starts = []
    for sign in (+1.0, -1.0):
        cone = x0.copy()
        cone[i0] = sign * delta
        cone[i1] = -sign * delta / med_s
        starts.append(cone)

    res = _maximize(obj, starts)
    # the covariance left the cached pass at the optimum
    return replace(res, mu=obj.multiplier(res.theta_hat.free_values(spec)),
                   constraint_residuals=tuple(obj.max_residuals),
                   infeasible_rejections=obj.rejections)
