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

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize

from .estimation import FitResult, MAX_ITER, SCORE_TOL, _maximize, _newton_polish, _prepare, _sandwich
from .likelihood import _case_hessian, _case_pass, _case_scores, _case_terms, _column_fsum
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
    """Multiplier and nonparametric jumps for one psi."""

    mu: float
    jumps: np.ndarray
    feasible: bool
    residual_sum: float    # sum(jumps) - 1
    residual_tilt: float   # sum(jumps * (e - 1))


def _solution(mu, w, n, d, feasible_extra=True):
    denom = 1.0 + mu * d
    jumps = w / (n * denom)
    r_sum = math.fsum(jumps) - 1.0
    r_tilt = math.fsum(jumps * d)
    feasible = (
        feasible_extra
        and np.all(denom > 0.0)
        and np.all(jumps <= 1.0 + 1e-12)
        and np.all(jumps >= 0.0)
        and abs(r_sum) <= SUM_TOL
        and abs(r_tilt) <= TILT_CONSTRAINT_TOL
    )
    if feasible and d.any():
        nz = d != 0.0
        u = (w[nz] - n) / (n * d[nz])
        neg = u[u < 0.0]
        pos = u[u > 0.0]
        lo = neg.max() if neg.size else -math.inf
        hi = pos.min() if pos.size else math.inf
        feasible = (lo - 1e-12) <= mu <= (hi + 1e-12)
    return TiltSolution(mu=float(mu), jumps=jumps, feasible=bool(feasible),
                        residual_sum=r_sum, residual_tilt=r_tilt)


def solve_mu(psi, data) -> TiltSolution:
    """Root-find the multiplier for given psi; infeasibility is a result,
    not an exception."""
    arrs = as_arrays(data)
    w = arrs.w
    n = arrs.n
    e = tilt(arrs.s, psi)
    d = e - 1.0
    if np.max(np.abs(d)) < 1e-10:
        # degenerate tilt: empirical weights are already the solution
        return _solution(0.0, w, n, d)
    dmax = d.max()
    dmin = d.min()
    if dmax <= 0.0 or dmin >= 0.0:
        # g keeps one sign on the whole feasible interval: no root
        return _solution(0.0, w, n, d, feasible_extra=False)

    def g(mu):
        # pairwise numpy sum: called ~60x per root-find, fsum is too slow here
        return float(np.sum(w * d / (1.0 + mu * d)))

    lo = -1.0 / dmax
    hi = -1.0 / dmin
    pad = 1e-12 * (hi - lo)
    lo_in, hi_in = lo + pad, hi - pad
    g_lo, g_hi = g(lo_in), g(hi_in)
    if not (g_lo > 0.0 > g_hi):
        return _solution(0.0, w, n, d, feasible_extra=False)
    mu = brentq(g, lo_in, hi_in, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return _solution(mu, w, n, d)


def _profile_pieces(arrs, theta, spec):
    """Per-subject profile contributions and the tilt solution, or None."""
    sol = solve_mu(theta.psi, arrs)
    if not sol.feasible:
        return None, sol
    return _profile_contrib(arrs, theta.psi, sol, _case_terms(arrs, theta, spec)), sol


def _profile_contrib(arrs, psi, sol, terms):
    return arrs.w * (-np.log1p(sol.mu * (tilt(arrs.s, psi) - 1.0)) + terms)


def profile_log_likelihood(data, theta: Theta, spec: ModelSpec) -> float:
    """Profile objective over (beta, eta, psi); -inf when psi makes the
    jump constraints infeasible."""
    if not spec.extended:
        raise ValueError("profile likelihood requires an extended spec")
    check_theta_spec(theta, spec)
    arrs = as_arrays(data)
    contrib, _ = _profile_pieces(arrs, theta, spec)
    if contrib is None or np.isneginf(contrib).any():
        return -math.inf
    return math.fsum(contrib)


class _ProfileObjective:
    """The extended fit's objective for :func:`estimation._maximize`:
    the profile likelihood, its analytic gradient, Hessian and sandwich,
    and trust-exact runs on its negation with rejection counting.  One
    cached root-find and kernel pass per distinct point serves every
    method but ``value``: trust-exact asks for the value, gradient and
    Hessian at each trial point, the Hessian first."""

    def __init__(self, arrs, template, spec):
        self.arrs = arrs
        self.template = template
        self.spec = spec
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
        self.max_residuals[0] = max(self.max_residuals[0], abs(sol.residual_sum))
        self.max_residuals[1] = max(self.max_residuals[1], abs(sol.residual_tilt))
        return -math.fsum(contrib)

    def value(self, free):
        theta = self.template.with_free(free)
        try:
            contrib, sol = _profile_pieces(self.arrs, theta, self.spec)
        except (OverflowError, FloatingPointError):
            contrib = sol = None
        return self._negated_total(contrib, sol)

    def value_and_gradient(self, free):
        """Trust-exact objective (value, -gradient) from the cached pass;
        (inf, NaNs) where psi is infeasible."""
        try:
            theta, sol, cp = self._feasible_pass(free)
        except FloatingPointError:
            return self._negated_total(None, None), np.full(free.size, np.nan)
        contrib = _profile_contrib(self.arrs, theta.psi, sol, cp.terms)
        try:
            grad = -_column_fsum(self._profile_scores(theta, sol, cp))
        except FloatingPointError:
            grad = np.full(free.size, np.nan)
        return self._negated_total(contrib, sol), grad

    def hess(self, free):
        """-hessian for trust-exact.  Zeros where psi is not usable: the
        Hessian is asked for before the value, which is inf there, so the
        step is rejected anyway, and scipy raises on a non-finite one."""
        try:
            return -self.hessian(free)
        except FloatingPointError:
            return np.zeros((free.size, free.size))

    def run(self, start):
        """One trust-exact run from ``start``."""
        return minimize(self.value_and_gradient, start, jac=True, hess=self.hess,
                        method="trust-exact", options={"gtol": SCORE_TOL, "maxiter": MAX_ITER})

    def _feasible_pass(self, free):
        """Theta, tilt solution and kernel pass at ``free``, kept for the
        last distinct point; raises FloatingPointError where psi is
        infeasible or its tilt overflows."""
        if self._x is None or not np.array_equal(free, self._x):
            theta = self.template.with_free(free)
            try:
                sol = solve_mu(theta.psi, self.arrs)
            except OverflowError:
                sol = None
            feasible = sol is not None and sol.feasible
            cp = _case_pass(self.arrs, theta, self.spec) if feasible else None
            self._x, self._pieces = np.array(free, dtype=float), (theta, sol, cp)
        theta, sol, cp = self._pieces
        if cp is None:
            raise FloatingPointError("profile derivatives requested at infeasible psi")
        return theta, sol, cp

    def multiplier(self, free):
        """mu at ``free``, or None where psi is infeasible."""
        try:
            return self._feasible_pass(free)[1].mu
        except FloatingPointError:
            return None

    def contribution_jacobian(self, free):
        """Per-subject profile scores m_i; (n, k)."""
        return self._profile_scores(*self._feasible_pass(free))

    def _multiplier_pieces(self, theta, sol):
        """e, d = e - 1, 1 + mu d, d(e)/d(psi0, psi1), g_mu and g_psi."""
        arrs = self.arrs
        e = tilt(arrs.s, theta.psi)
        d = e - 1.0
        denom = 1.0 + sol.mu * d
        de = np.column_stack([e, e * arrs.s])
        g_mu = -math.fsum(arrs.w * d * d / denom**2)
        g_psi = _column_fsum((arrs.w / denom**2)[:, None] * de)
        return e, d, denom, de, g_mu, g_psi

    def _profile_scores(self, theta, sol, cp):
        """Profile scores from the kernel pass cp at a feasible psi.

        The case-term scores, plus in the psi columns the derivative of
        -w log(1 + mu d) through d = e - 1 and through mu(psi), whose
        slope -g_psi / g_mu follows from g(mu(psi), psi) = 0.  The mu(psi)
        part sums to -g * dmu/dpsi = 0 over subjects, so the columns add
        up to the envelope gradient.
        """
        arrs = self.arrs
        m = _case_scores(arrs, self.spec, cp)
        _, d, denom, de, g_mu, g_psi = self._multiplier_pieces(theta, sol)
        dmu = -g_psi / g_mu
        m[:, self.psi_cols] -= (arrs.w / denom)[:, None] * (sol.mu * de + d[:, None] * dmu)
        if not np.isfinite(m).all():
            raise FloatingPointError("non-finite profile score")
        return m

    def hessian(self, free):
        """Hessian of the (positive) profile objective; (k, k).

        The case-term Hessian plus the psi-block correction of the module
        docstring; raises FloatingPointError where psi is infeasible.
        """
        theta, sol, cp = self._feasible_pass(free)
        e, _, denom, _, g_mu, g_psi = self._multiplier_pieces(theta, sol)
        s = self.arrs.s
        q = self.arrs.w * sol.mu * (1.0 - sol.mu) * e / denom**2
        c00, c01, c11 = _column_fsum(np.column_stack([q, q * s, q * s * s]))
        hess = _case_hessian(self.arrs, self.spec, cp)
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
        return _column_fsum(m)

    def loglik(self, free):
        return -self.value(free)

    def newton_polish(self, free, ll):
        """Push the gradient below tolerance once trust-exact stalls on value
        noise, with the shared :func:`estimation._newton_polish` loop on the
        analytic profile gradient and Hessian."""
        return _newton_polish(self, free, ll)

    def covariance(self, free):
        """Sandwich of the analytic per-subject profile scores and the
        analytic profile Hessian."""
        return _sandwich(self.contribution_jacobian(free), self.hessian(free),
                         self.spec.free_names())


def fit_extended(data, spec: ModelSpec) -> FitResult:
    """Maximize the profile likelihood over (beta, free eta, psi0, psi1).

    The basic fit's attempt loop (:func:`estimation._maximize`) runs
    trust-exact on the analytic profile gradient and Hessian from one
    start inside each sign-compatible tilt cone, the other parameters at
    the basic fit's default start, and stops at the first settled
    attempt.  The result also carries the multiplier at the optimum, the
    worst constraint residuals seen over accepted evaluations, and the
    number of infeasible-psi rejections.
    """
    if not spec.extended:
        raise ValueError("fit_extended requires spec.extended")
    arrs, template = _prepare(data, spec)
    obj = _ProfileObjective(arrs, template, spec)
    x0 = template.free_values()

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
    return replace(res, mu=obj.multiplier(res.theta_hat.free_values()),
                   constraint_residuals=tuple(obj.max_residuals),
                   infeasible_rejections=obj.rejections)
