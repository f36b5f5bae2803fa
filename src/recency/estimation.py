"""Pseudo-likelihood maximization, sandwich covariance, and model selection.

The optimizer is the package's own trust-region Newton loop
(:func:`minimize`; More & Sorensen 1983) on the analytic score and
Hessian of the negative log pseudo-likelihood.  It forms the Hessian only
at accepted iterates, takes the exact subproblem step from its
eigendecomposition, and stops once the score's norm is below 1e-6 (one
step later, unless it is also below 1e-8), or after 500 steps.  Near
the optimum of a large sample the values can no longer tell a step's
gain from rounding, so there the score decides.  Its trust region is a
sphere, except where a caller asks for one scaled by the first
Hessian's diagonal (``scaled=True``): the density-ratio fit does, as
its tilt parameters' curvature dwarfs the others'.  It is the only
optimizer: a run that ends short of the tolerance is finished by a short
run of the same loop from its end point.  :func:`brentq` is Brent's
root-finder for the density-ratio multiplier and the S2 intercept, so no
fit or draw needs scipy.

The likelihood has a plateau: as eta01 -> +inf, p0 -> 1 for every s > 1,
and a walk started at eta01 = 0 can run out to it.  So the default start
puts eta01 on the decreasing side (-0.5, and eta00 at 7 when it is
free), and an attempt counts as settled only when its score meets the
tolerance and the flatness probe finds no direction the data cannot
reject.  An unsettled attempt restarts further down that side
(eta01 = -1, then -2).  That flatness probe evaluates its 2k trial
points (+-5 along each free parameter) in one batched pass that reuses
the end point's pieces; every trial value is bit for bit a single-point
pass's, and the flags are decided in trial order as before, so no
decision changes.  The density-ratio fit runs the same attempt
loop (:func:`_maximize`) on its profile objective from its own starts.
Non-convergence is flagged on the result, never raised, so replicate
harnesses can count failures: a start that is not finite is skipped, and
with none finite the fit is the flagged start template.  An objective
raises FloatingPointError or OverflowError at a point it cannot use, and
:func:`minimize` alone turns that into a rejected step, so no fit raises
on finite data.  The one error, raised before any start runs, is for
weights whose sum is off the subject count by more than a relative
WEIGHT_SUM_TOL.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .likelihood import _case_hessian, _case_pass, _case_scores, _exact_colsum, _exact_sum
from .likelihood import _KernelData, _linear_pieces, _pair_sums, _trial_summands
from .likelihood import log_pseudo_likelihood, score
from .model import ETA_NAMES, ModelSpec, Theta, _is_number, as_arrays, check_theta_spec, initial_theta

__all__ = [
    "FitResult",
    "fit",
    "sandwich_covariance",
    "compare_eta_variants",
    "backward_stepwise",
    "VariantFit",
    "StepwiseResult",
    "fit_report",
    "load_fit",
]

SCORE_TOL = 1e-6
MAX_ITER = 500
POLISH_STEPS = 5      # the finishing run's steps after a run that ends short of SCORE_TOL
START_ETA00 = 7.0
START_ETA01 = -0.5
RESTART_ETA01 = (-1.0, -2.0)
WEIGHT_SUM_TOL = 5e-11   # |sum(w) / n - 1|: half the density-ratio jumps' SUM_TOL
NEAR_SINGULAR_RTOL = 1e-10
# a direction is unidentified when a +-5 move costs < 0.01 log-likelihood:
# the optimum then sits at (or runs toward) an infinite parameter value
FLATNESS_DELTA = 5.0
FLATNESS_TOL = 1e-2


# the trust region's initial and largest radius and its acceptance ratio,
# as in scipy's trust-exact
TRUST_RADIUS = 1.0
MAX_TRUST_RADIUS = 1000.0
ACCEPT_RATIO = 0.15
# relative rounding noise of an objective value: below it, a predicted
# decrease cannot be checked against the values
VALUE_RTOL = 1e-12
BRENT_RTOL = 4 * np.finfo(float).eps


@dataclass
class MinimizeResult:
    """Where one :func:`minimize` run ended and why.  ``nit`` counts the
    steps tried, ``nfev`` the objective evaluations and ``nhev`` the
    Hessians formed: one per accepted iterate."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    nhev: int
    success: bool
    message: str


def minimize(fun, x0, hess, gtol=SCORE_TOL, maxiter=MAX_ITER, scaled=False) -> MinimizeResult:
    """Trust-region Newton minimization (More & Sorensen 1983; Nocedal &
    Wright 2006, section 4.3).

    ``fun(x)`` returns the value and gradient at x.  A point where it raises
    FloatingPointError or OverflowError, or gives a NaN value or a gradient
    whose 2-norm is not finite, is inf (:func:`_evaluate`): no step reaches it.
    ``hess(x)`` is asked for only at accepted iterates, right after
    ``fun(x)``, so an objective that keeps its last pass serves both, and
    a rejected step re-solves with the same Hessian.  Each step is the
    exact minimizer of the quadratic model inside the radius
    (:func:`_trust_step`); the ratio test accepts it and resizes the
    radius as scipy's ``trust-exact`` does.  Where the predicted decrease
    is below the rounding noise of the values, a step that keeps the value
    within that noise is accepted when it shrinks the gradient.

    The run succeeds when the gradient's 2-norm is below ``gtol``.  The
    first point that meets it, unless it meets ``gtol / 100`` too, takes
    one more step, so a run ends well inside the tolerance rather than
    just below it.  Otherwise the run stops at ``maxiter`` steps, at a
    non-finite start or Hessian, or when a step cannot decrease the
    value: x + step rounds to x, or the predicted decrease underflows.

    With ``scaled`` the trust region is the ellipsoid |D p| <= radius
    (More 1983, "Recent developments in algorithms and software for trust
    region methods"), D from the run's first Hessian
    (:func:`_diagonal_scale`) and kept for the whole run, so a
    coordinate whose curvature is far above the others' no longer sets
    every step's length.  As D >= 1, the first step stays inside the
    sphere's box in every coordinate.  The stopping test stays on the
    unscaled gradient.
    """
    x = np.array(x0, dtype=float)
    f, g, gnorm = _evaluate(fun, x)
    nfev, nhev, nit, radius, h, scale = 1, 0, 0, TRUST_RADIUS, None, None
    stop = None if math.isfinite(f) else "start is not finite"
    finishing = False
    while stop is None:
        if gnorm < gtol:
            if finishing or gnorm < gtol / 100:
                break
            finishing = True
        if nit == maxiter:
            stop = "maximum number of iterations reached"
            break
        if h is None:
            try:
                h = hess(x)
            except (FloatingPointError, OverflowError):
                stop = "Hessian is not finite"
                break
            nhev += 1
            if scaled and nhev == 1:
                scale = _diagonal_scale(h)
        if scale is None:
            step, on_boundary = _trust_step(g, h, radius)
        else:
            # the sphere's step in the variables D x, mapped back
            step, on_boundary = _trust_step(g / scale, h / np.outer(scale, scale), radius)
            step /= scale
        predicted = -(g @ step + 0.5 * (step @ h @ step))
        trial = x + step
        if not predicted > 0.0 or np.array_equal(trial, x):
            stop = "the step cannot decrease the value"
            break
        nit += 1
        f_new, g_new, gnorm_new = _evaluate(fun, trial)
        nfev += 1
        rho = (f - f_new) / predicted
        noise = VALUE_RTOL * (1.0 + abs(f))
        if predicted < noise and f_new - f < noise and gnorm_new < gnorm:
            rho = 1.0   # the values agree to rounding, so the score decides
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, MAX_TRUST_RADIUS)
        if rho > ACCEPT_RATIO:
            x, f, g, gnorm, h = trial, f_new, g_new, gnorm_new, None
    success = stop is None or finishing and bool(gnorm < gtol)
    return MinimizeResult(x=x, fun=f, nit=nit, nfev=nfev, nhev=nhev, success=success,
                          message="gradient norm below gtol" if success else stop)


def _evaluate(fun, x):
    """``fun(x)`` and the gradient's 2-norm; the value is inf (no step may
    reach x) where ``fun`` raises FloatingPointError or OverflowError (the
    gradient NaN) or the value is NaN or the norm, which may overflow, is not finite."""
    try:
        f, g = fun(x)
    except (FloatingPointError, OverflowError):
        return math.inf, np.full(x.size, math.nan), math.nan
    with np.errstate(over="ignore"):
        gnorm = np.linalg.norm(g)
    return (math.inf if math.isnan(f) or not math.isfinite(gnorm) else f), g, gnorm


def _diagonal_scale(h):
    """D = sqrt|diag h| over its smallest entry, or None (the sphere) where
    an entry is zero or D is not finite."""
    root = np.sqrt(np.abs(np.diag(h)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = root / root.min()
    return scale if np.isfinite(scale).all() else None


def _trust_step(g, h, radius):
    """The minimizer of g.p + p.h.p / 2 over |p| <= radius, and whether it
    lies on the boundary, from the eigendecomposition h = V diag(lam) V^T.

    Inside the radius it is the Newton step.  On the boundary it is
    p(sigma) = -(h + sigma I)^-1 g with sigma >= max(0, -lam_min) and
    |p(sigma)| = radius, found by :func:`brentq` on 1/radius - 1/|p|.  In
    the hard case g has no component along the lowest eigenvectors (to
    rounding) and |p(-lam_min)| < radius, so no such sigma exists; the
    step is then p(-lam_min) plus the move along the lowest eigenvector
    that reaches the boundary.
    """
    lam, v = np.linalg.eigh(h)
    gam = v.T @ g
    if lam[0] > 0.0:
        newton = -gam / lam
        if np.linalg.norm(newton) <= radius:
            return v @ newton, False
    # t = sigma - max(0, -lam_min) >= 0, so lam + sigma = d + t with d >= 0
    d = lam + max(0.0, -lam[0])
    gnorm = np.linalg.norm(g)

    def slack(t):
        den = d + t
        if np.any((den == 0.0) & (gam != 0.0)):
            return 1.0 / radius   # |p| is infinite at a pole
        p_norm = np.linalg.norm(np.divide(gam, den, out=np.zeros_like(gam), where=den != 0.0))
        return 1.0 / radius - 1.0 / p_norm if p_norm else -math.inf

    # the lowest eigenvalues, to rounding, and p(0) without their directions
    lowest = d <= lam.size * np.finfo(float).eps * np.max(np.abs(lam))
    rest = -np.divide(gam, d, out=np.zeros_like(gam), where=~lowest)
    rest_norm = np.linalg.norm(rest)
    if (rest_norm <= radius and np.all(np.abs(gam[lowest]) <= 1e-12 * gnorm)
            or slack(0.0) <= 0.0):
        rest[0] += math.copysign(math.sqrt(radius**2 - rest_norm**2), -gam[0])
        return v @ rest, True
    # every |p(t)| <= |g| / t, so the root lies in (0, 2 |g| / radius]
    t = brentq(slack, 0.0, 2.0 * gnorm / radius, xtol=1e-15 * gnorm / radius)
    return v @ (-gam / (d + t)), True


def brentq(f, a, b, xtol=2e-12, rtol=BRENT_RTOL, maxiter=100) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign, to
    within xtol + rtol |root|: Brent's method (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4), step for step as
    ``scipy.optimize.brentq`` takes it.  Raises ValueError on an unsigned
    bracket, a NaN value or rtol < 4 eps, and RuntimeError after
    ``maxiter`` steps.
    """
    if not rtol >= BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENT_RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.6g} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf   # a bisection unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge after {maxiter} iterations, value is {xcur}")


def select_candidate(candidates):
    """Highest likelihood wins; a converged candidate within likelihood
    resolution (0.01) of the leader beats a stalled leader."""
    best = max(candidates, key=lambda c: c[1])
    settled = [c for c in candidates if c[2] < SCORE_TOL and c[1] >= best[1] - 1e-2]
    return max(settled, key=lambda c: c[1]) if settled else best


@dataclass
class FitResult:
    """Estimates plus inference byproducts of one maximization."""

    theta_hat: Theta
    covariance: np.ndarray      # over free parameters, in free_names order
    log_pl: float
    bic: float
    n_subjects: int
    converged: bool
    iterations: int
    spec: ModelSpec
    score_sup_norm: float
    recency_rate: float | None = None
    # density-ratio extras (populated by fit_extended only)
    mu: float | None = None     # a float in every extended fit
    constraint_residuals: tuple[float, float] | None = None
    infeasible_rejections: int = 0

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    @property
    def free_names(self) -> tuple[str, ...]:
        return self.spec.free_names()

    @property
    def n_free(self) -> int:
        return len(self.free_names)

    def estimates(self) -> dict[str, float]:
        free = self.theta_hat.free_values(self.spec)
        return {name: float(v) for name, v in zip(self.free_names, free)}


class _NegObjective:
    """The basic fit's objective for :func:`_maximize`.  :func:`minimize`
    gets -log_pseudo_likelihood and -score at each trial point, and
    -hessian at each accepted one, from one kernel pass per distinct
    point, which raises where the point is not usable; the flatness probe
    gets its trial points from one batched pass (:meth:`trial_logliks`);
    the other methods call the public kernel functions."""

    def __init__(self, arrs, template, spec):
        self.arrs, self.template, self.spec = arrs, template, spec
        self.kd = _KernelData(arrs, spec)
        self._x = self._cp = None

    def _theta(self, free):
        return self.template.with_free(free, self.spec)

    def _pass(self, free):
        if self._x is None or not np.array_equal(free, self._x):
            self._cp = _case_pass(self.kd, self._theta(free))
            self._x = np.array(free, dtype=float)
        return self._cp

    def __call__(self, free):
        """(value, gradient), both from one exact column sum; raises
        FloatingPointError where a score is not finite."""
        cp = self._pass(free)
        m = _case_scores(self.kd, cp)
        # finite scores imply finite terms: a term that is not finite makes
        # its v NaN, and beta0, whose score reads v, is always free
        sums = _exact_colsum(np.column_stack([self.arrs.w * cp.terms, m]))
        return -float(sums[0]), -sums[1:]

    def hess(self, free):
        return -_case_hessian(self.kd, self._pass(free))

    def trial_logliks(self, free, trials):
        """:meth:`loglik` at each trial point, a (j, point) pair whose point
        moves ``free``'s entry j, from one :func:`likelihood._trial_summands`
        array that reuses ``free``'s pieces and one exact column sum: one
        callable per trial that returns that value, or raises what
        :meth:`loglik` raises there."""
        summands, direct = _trial_summands(self.kd, _linear_pieces(self.kd, self._theta(free)),
                                           [(self._theta(point), self.kd.predictors[j], None)
                                            for j, point in trials])
        totals = _exact_colsum(summands)
        return [functools.partial(self.loglik, point) if bad else functools.partial(float, total)
                for (_, point), bad, total in zip(trials, direct, totals)]

    def run(self, start, maxiter):
        """One :func:`minimize` run of at most ``maxiter`` steps from
        ``start``.  The cached pass is dropped on return, so no later stage
        holds it."""
        try:
            return minimize(self, start, self.hess, maxiter=maxiter)
        finally:
            self._x = self._cp = None

    def loglik(self, free):
        return log_pseudo_likelihood(self.arrs, self._theta(free), self.spec)

    def gradient(self, free):
        return score(self.arrs, self._theta(free), self.spec)

    def newton_polish(self, free):
        """The finishing run from a run's end point: :meth:`run` with at
        most POLISH_STEPS steps."""
        return self.run(free, POLISH_STEPS)

    def covariance(self, free):
        return sandwich_covariance(self.arrs, self._theta(free), self.spec)


def _default_start(spec: ModelSpec) -> Theta:
    """:func:`initial_theta` with eta01 on the decreasing side of p0, and
    eta00 at START_ETA00 when it is free."""
    theta = initial_theta(spec)
    names = spec.free_names()
    eta = theta.eta.copy()
    if "eta00" in names:
        eta[0] = START_ETA00
    if "eta01" in names:
        eta[1] = START_ETA01
    return replace(theta, eta=eta)


def _starts(x0: np.ndarray, names):
    """``x0``, then x0 with eta01 further down its decreasing side."""
    yield x0
    if "eta01" in names:
        j = names.index("eta01")
        for value in RESTART_ETA01:
            start = x0.copy()
            start[j] = value
            yield start


def _check_weight_sum(arrs) -> None:
    """Raise ValueError unless the weights sum to the subject count n to within
    a relative WEIGHT_SUM_TOL: the rescale sets the sandwich and BIC scale,
    and the density-ratio jumps sum to sum(w) / n at every tilt.  np.sum's
    rounding error is far below the tolerance, so the exact total is needed
    only near it."""
    if abs(np.sum(arrs.w) - arrs.n) <= 0.5 * WEIGHT_SUM_TOL * arrs.n:
        return
    total = _exact_sum(arrs.w)
    if abs(total - arrs.n) > WEIGHT_SUM_TOL * arrs.n:
        digits = max(6, 1 - math.floor(math.log10(abs(total - arrs.n))))   # to the departure
        raise ValueError(
            f"weights sum to {total:.{digits}f} but must equal the subject count {arrs.n}; "
            "rescale them (w *= n / w.sum()) before fitting"
        )


def _prepare(data, spec: ModelSpec):
    """Arrays and :func:`_default_start` of either fit, whose weights
    must pass :func:`_check_weight_sum`."""
    arrs = as_arrays(data)
    _check_weight_sum(arrs)
    return arrs, _default_start(spec)


def _maximize(obj, starts) -> FitResult:
    """The attempt loop both fits share, ending in their :class:`FitResult`.

    ``obj`` (:class:`_NegObjective` or the profile objective) gives
    ``run(start, maxiter)``, one :func:`minimize` run, and
    ``newton_polish(x)``, the same run with at most POLISH_STEPS steps;
    the (positive) objective's ``loglik``, ``gradient`` and
    ``covariance`` over the free parameters; and the probe's batched
    ``trial_logliks`` (:func:`_flat_directions`).  :func:`minimize` is the
    only optimizer.  For each start in turn: run it, finish the end point
    with ``newton_polish`` when its score is above SCORE_TOL, and apply
    the plateau guard (a stationary point with a direction the data
    cannot reject is the plateau or a shallow local maximum beside it);
    stop at the first settled attempt.  ``iterations`` counts the steps
    of every run.  The :func:`select_candidate` pick gets its BIC and
    covariance; one that cannot be formed is NaN and flags the fit.  With
    no finite start it is the start template, flagged, with ll = -inf.
    """
    candidates = []
    total_iter = 0
    for start in starts:
        res = obj.run(start, MAX_ITER)
        total_iter += res.nit
        if not math.isfinite(res.fun):
            continue   # the start is not finite, and no run leaves it
        ll = obj.loglik(res.x)   # finite, as every point a run ends at is
        sup = _sup_norm(obj.gradient(res.x))
        if sup >= SCORE_TOL:
            res = obj.newton_polish(res.x)
            total_iter += res.nit
            ll = obj.loglik(res.x)
            sup = _sup_norm(obj.gradient(res.x))
        x = res.x
        settled = sup < SCORE_TOL and not _flat_directions(obj, x, ll)
        candidates.append((x, ll, sup, settled))
        if settled:
            break
    if candidates:
        x_hat, ll, sup, converged = select_candidate(candidates)
    else:
        x_hat, ll, sup, converged = obj.template.free_values(obj.spec), -math.inf, math.inf, False
    k, n = x_hat.size, obj.arrs.n
    cov = np.full((k, k), np.nan)
    if candidates:   # the template, where no start was finite, gets none
        try:
            with warnings.catch_warnings():
                # an unsettled x_hat is flagged already; any other warning passes
                warnings.filterwarnings("ignore", "sandwich evaluated away from a stationary point")
                cov = obj.covariance(x_hat)
        except (np.linalg.LinAlgError, ValueError, FloatingPointError, OverflowError):
            converged = False
    return FitResult(
        theta_hat=obj.template.with_free(x_hat, obj.spec), covariance=cov, log_pl=ll,
        bic=-2.0 * ll + k * math.log(n), n_subjects=n, converged=converged,
        iterations=total_iter, spec=obj.spec, score_sup_norm=sup,
    )


def fit(data, spec: ModelSpec) -> FitResult:
    """Maximize the weighted log pseudo-likelihood over the free parameters.

    :func:`_maximize` starts at :func:`_default_start` (zeros, eta01 =
    -0.5, eta11 = -5, and eta00 = 7 when free), then at eta01 = -1 and -2
    while no attempt has settled.  An extended spec goes to
    :func:`densityratio.fit_extended`.  Weights must already be rescaled
    to sum to the subject count (the rescale only affects the
    sandwich/BIC scale, not the argmax).
    """
    if spec.extended:
        from .densityratio import fit_extended
        return fit_extended(data, spec)
    arrs, template = _prepare(data, spec)
    return _maximize(_NegObjective(arrs, template, spec),
                     _starts(template.free_values(spec), spec.free_names()))


def _sup_norm(g: np.ndarray) -> float:
    return float(np.max(np.abs(g))) if g.size else 0.0


def _flat_directions(obj, free: np.ndarray, ll_hat: float) -> list[int]:
    """Indices of free parameters whose +-FLATNESS_DELTA move the data
    cannot reject (log-likelihood loss < FLATNESS_TOL); such a direction
    has its supremum at infinity rather than an interior optimum.

    ``obj.trial_logliks`` evaluates all 2k trial points in one batched
    pass and gives, per trial, a callable that returns its log-likelihood
    as ``obj.loglik`` there would, with the same side effects.  They are
    called in trial order, and a parameter's -delta trial only when its
    +delta trial is rejected, so every flag is what evaluating the trials
    one at a time decides.
    """
    trials = []
    for j in range(free.size):
        for sign in (1.0, -1.0):
            point = free.copy()
            point[j] += sign * FLATNESS_DELTA
            trials.append((j, point))
    flat = []
    for (j, _), loglik in zip(trials, obj.trial_logliks(free, trials)):
        if j not in flat and loglik() > ll_hat - FLATNESS_TOL:
            flat.append(j)
    return flat


def _sandwich(m: np.ndarray, jac: np.ndarray, names) -> np.ndarray:
    """Robust covariance (1/n) I^-1 C I^-T from per-subject scores m (n, k)
    and the total score Jacobian jac (k, k), with I = jac / n and
    C = m^T m / n.  The meat m^T m is summed by :func:`_pair_sums`, as the
    Hessian is, so each entry is correctly rounded and C, like jac, is
    exactly invariant under subject permutation.  Raises
    LinAlgError naming the nearly-unidentified parameter when I is
    numerically singular."""
    n, k = m.shape
    info = jac / n
    c_mat = _pair_sums(m, m, np.triu_indices(k)) / n
    svals = np.linalg.svd(info, compute_uv=False)
    # near-singular information means an effectively unidentified direction,
    # e.g. a likelihood whose supremum sits at an infinite parameter value
    if svals[-1] <= NEAR_SINGULAR_RTOL * max(svals[0], 1.0):
        _, _, vt = np.linalg.svd(info)
        culprit = names[int(np.argmax(np.abs(vt[-1])))]
        raise np.linalg.LinAlgError(
            f"information matrix is numerically singular; parameter {culprit!r} "
            "is not identified by the data"
        )
    inv_info = np.linalg.solve(info, np.eye(info.shape[0]))
    cov = inv_info @ c_mat @ inv_info.T / n
    return 0.5 * (cov + cov.T)


def sandwich_covariance(data, theta_hat: Theta, spec: ModelSpec) -> np.ndarray:
    """Robust covariance (1/n) I^-1 C I^-T of the free-parameter estimates.

    C is the outer product of the analytic per-subject scores and I the
    analytic Hessian, both from one kernel pass; the density-ratio fit
    feeds its own profile scores and Hessian to the same
    :func:`_sandwich`.  Raises LinAlgError naming the nearly-unidentified
    parameter when I is numerically singular.
    """
    check_theta_spec(theta_hat, spec)
    kd = _KernelData(as_arrays(data), spec)
    cp = _case_pass(kd, theta_hat)
    m = _case_scores(kd, cp)
    sup = _sup_norm(m.sum(axis=0))
    if sup >= 1e-4:
        warnings.warn(
            f"sandwich evaluated away from a stationary point (score sup-norm {sup:.2e})",
            stacklevel=2,
        )
    return _sandwich(m, _case_hessian(kd, cp), spec.free_names())


@dataclass
class VariantFit:
    name: str
    spec: ModelSpec
    fit: FitResult | None
    error: str | None = None

    @property
    def log_pl(self):
        return None if self.fit is None else self.fit.log_pl

    @property
    def bic(self):
        return None if self.fit is None else self.fit.bic


ETA_VARIANTS = (
    ("full", dict(fix_eta00=None, fix_eta10=None, p0_identically_one=False)),
    ("fix_eta00", dict(fix_eta00=7.0, fix_eta10=None, p0_identically_one=False)),
    ("fix_eta00_eta10", dict(fix_eta00=7.0, fix_eta10=-7.0, p0_identically_one=False)),
    ("p0_one_fix_eta10", dict(fix_eta00=None, fix_eta10=-7.0, p0_identically_one=True)),
)


def compare_eta_variants(data, covariates) -> list[VariantFit]:
    """Fit the four eta-structure variants and report LL/BIC for each.

    A failing variant is reported with its error instead of aborting the
    others.
    """
    out = []
    for name, kw in ETA_VARIANTS:
        spec = ModelSpec(covariate_names=tuple(covariates), **kw)
        try:
            out.append(VariantFit(name=name, spec=spec, fit=fit(data, spec)))
        except Exception as exc:  # structural failures only; fit never raises statistically
            out.append(VariantFit(name=name, spec=spec, fit=None, error=str(exc)))
    return out


@dataclass
class StepwiseResult:
    selected: tuple[str, ...]
    fit: FitResult
    trace: list[dict] = field(default_factory=list)


def backward_stepwise(data, candidate_covariates, spec: ModelSpec) -> StepwiseResult:
    """Greedy BIC deletion: drop the covariate whose removal lowers BIC
    the most; stop when no deletion lowers it.  The intercept is always
    retained; the eta structure of ``spec`` is kept throughout.
    """
    candidates = list(candidate_covariates)
    if not candidates:
        raise ValueError("candidate covariate list is empty")
    arrs = as_arrays(data)
    if arrs.x.shape[1] != len(candidates):
        raise ValueError(
            f"data has {arrs.x.shape[1]} covariate columns but {len(candidates)} candidates given"
        )

    def fit_cols(names):
        idx = [candidates.index(nm) for nm in names]
        sub_spec = replace(spec, covariate_names=tuple(names))
        return fit(replace(arrs, x=arrs.x[:, idx]), sub_spec)

    current = list(candidates)
    current_fit = fit_cols(current)
    trace = [{"kept": tuple(current), "dropped": None, "bic": current_fit.bic,
              "log_pl": current_fit.log_pl}]
    while current:
        trials = []
        for name in current:
            reduced = [c for c in current if c != name]
            try:
                cand_fit = fit_cols(reduced)
                trials.append((cand_fit.bic, name, cand_fit))
            except Exception as exc:
                trace.append({"kept": tuple(reduced), "dropped": name,
                              "bic": math.inf, "error": str(exc)})
        if not trials:
            break
        trials.sort(key=lambda t: t[0])
        best_bic, drop_name, best_fit = trials[0]
        if best_bic >= current_fit.bic:
            break
        current = [c for c in current if c != drop_name]
        current_fit = best_fit
        trace.append({"kept": tuple(current), "dropped": drop_name,
                      "bic": best_fit.bic, "log_pl": best_fit.log_pl})
    return StepwiseResult(selected=tuple(current), fit=current_fit, trace=trace)


def fit_report(result: FitResult) -> dict:
    """JSON-serializable report with the fixed external field names."""
    spec = result.spec
    theta = result.theta_hat
    eta = {name: float(v) for name, v in zip(ETA_NAMES, theta.eta)
           if name in _reported_etas(spec)}
    ses = {name: float(v) for name, v in zip(result.free_names, result.se)}
    report = {
        "beta": [float(b) for b in theta.beta],
        "covariates": list(spec.covariate_names),
        "eta": eta,
        "psi": None if theta.psi is None else [float(p) for p in theta.psi],
        "se": ses,
        "cov": {
            "params": list(result.free_names),
            "matrix": np.asarray(result.covariance).tolist(),
        },
        "log_pl": float(result.log_pl),
        "bic": float(result.bic),
        "n_subjects": result.n_subjects,
        "converged": bool(result.converged),
        "iterations": result.iterations,
        "recency_rate": result.recency_rate,
        "spec": asdict(spec),
    }
    if theta.eta_x is not None:
        report["eta_x"] = float(theta.eta_x)
    if spec.extended:
        report["mu"] = result.mu
        report["constraint_residuals"] = (
            None if result.constraint_residuals is None
            else [float(r) for r in result.constraint_residuals]
        )
        report["infeasible_rejections"] = result.infeasible_rejections
    return report


def _reported_etas(spec: ModelSpec) -> tuple[str, ...]:
    """The eta names a fit report carries: p0_identically_one removes
    eta00 and eta01 from the model."""
    return ETA_NAMES[2:] if spec.p0_identically_one else ETA_NAMES


def _same_keys(what: str, got, wanted) -> None:
    bad = sorted(set(got) ^ set(wanted))
    if bad:
        state = "unknown" if bad[0] in got else "missing"
        raise ValueError(f"{what} {bad[0]!r} is {state}")


def load_fit(doc) -> tuple[ModelSpec, Theta]:
    """The spec and estimates of a parsed :func:`fit_report` document.

    Its inverse: beta, eta, eta_x and psi are read by the spec's parameter
    names, and the eta entries the spec removes keep their
    :func:`initial_theta` values.  A missing, unknown, wrongly typed or
    wrongly sized entry, a ``covariates`` list that is not the spec's, or
    a fixed entry away from the spec's value raises ValueError naming its
    key.
    """
    for key, kind in (("spec", dict), ("beta", list), ("eta", dict)):
        if not isinstance(doc, dict) or not isinstance(doc.get(key), kind):
            raise ValueError(f"no {key!r} {'object' if kind is dict else 'array'}")
    _same_keys("spec key", doc["spec"], [f.name for f in fields(ModelSpec)])
    spec = ModelSpec(**doc["spec"])   # names a wrongly typed value's key
    if doc.get("covariates") != list(spec.covariate_names):
        raise ValueError(f"'covariates' is {doc.get('covariates')!r} but the spec's "
                         f"covariate_names are {list(spec.covariate_names)!r}")
    _same_keys("eta name", doc["eta"], _reported_etas(spec))
    sizes = {"beta": spec.n_beta, "eta_x": int(spec.z_model_covariate is not None),
             "psi": 2 * spec.extended}
    for key, size in sizes.items():
        got = 0 if doc.get(key) is None else np.size(doc[key])
        if got != size:
            raise ValueError(f"{key!r} holds {got} values but the spec has {size}")
    template = initial_theta(spec)
    eta = {**dict(zip(ETA_NAMES, template.eta)), **doc["eta"]}
    values = [*doc["beta"], *(eta[name] for name in ETA_NAMES)]
    values += [doc["eta_x"]] if sizes["eta_x"] else []
    values += doc["psi"] if sizes["psi"] else []
    for name, value, fixed, pinned in zip(spec.param_names, values, spec.fixed_mask(),
                                          template.pack()):
        if not _is_number(value):
            raise ValueError(f"{name!r} is {value!r}, not a number")
        if fixed and value != pinned:
            raise ValueError(f"{name!r} is {value} but the spec fixes it at {pinned}")
    return spec, template.with_packed(values)
