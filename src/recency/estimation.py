"""Pseudo-likelihood maximization, sandwich covariance, and model selection.

The optimizer takes exact trust-region Newton steps (More & Sorensen
1983; scipy's ``trust-exact``) on the analytic score and Hessian of the
negative log pseudo-likelihood, stopping when the score's norm drops
below 1e-6 or after 500 iterations.  Near the optimum of a large sample
the trust region can no longer tell objective values apart and stops
with a score near 1e-5; plain Newton steps then finish the last decades.

The likelihood has a plateau: as eta01 -> +inf, p0 -> 1 for every s > 1,
and a walk started at eta01 = 0 can run out to it.  So the default start
puts eta01 on the decreasing side (-0.5, and eta00 at 7 when it is
free), and an attempt counts as settled only when its score meets the
tolerance and the flatness probe finds no direction the data cannot
reject.  An unsettled attempt restarts further down that side
(eta01 = -1, then -2).  The density-ratio fit runs the same attempt
loop (:func:`_maximize`) on its profile objective from its own starts.
Non-convergence is flagged on the result, never raised, so replicate
harnesses can count failures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .likelihood import _case_hessian, _case_pass, _case_scores, _column_fsum
from .likelihood import hessian, log_pseudo_likelihood, score
from .model import ModelSpec, Theta, as_arrays, check_theta_spec, initial_theta

__all__ = [
    "FitResult",
    "fit",
    "sandwich_covariance",
    "compare_eta_variants",
    "backward_stepwise",
    "VariantFit",
    "StepwiseResult",
    "fit_report",
]

SCORE_TOL = 1e-6
MAX_ITER = 500
POLISH_STEPS = 5      # Newton steps after the trust region stalls
START_ETA00 = 7.0
START_ETA01 = -0.5
RESTART_ETA01 = (-1.0, -2.0)
WEIGHT_SUM_TOL = 1e-6
NEAR_SINGULAR_RTOL = 1e-10
# a direction is unidentified when a +-5 move costs < 0.01 log-likelihood:
# the optimum then sits at (or runs toward) an infinite parameter value
FLATNESS_DELTA = 5.0
FLATNESS_TOL = 1e-2


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
    free_names: tuple[str, ...]
    score_sup_norm: float
    recency_rate: float | None = None
    # density-ratio extras (populated by fit_extended only)
    mu: float | None = None
    constraint_residuals: tuple[float, float] | None = None
    infeasible_rejections: int = 0

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    @property
    def n_free(self) -> int:
        return len(self.free_names)

    def estimates(self) -> dict[str, float]:
        free = self.theta_hat.free_values()
        return {name: float(v) for name, v in zip(self.free_names, free)}


class _NegObjective:
    """The basic fit's objective for :func:`_maximize`.  Trust-exact gets
    -log_pseudo_likelihood, -score and -hessian from one kernel pass per
    distinct point (it asks for all three at every trial point, the
    Hessian first); the other methods call the public kernel functions."""

    def __init__(self, arrs, template, spec):
        self.arrs, self.template, self.spec = arrs, template, spec
        self._x = self._cp = None

    def _pass(self, free):
        if self._x is None or not np.array_equal(free, self._x):
            self._cp = _case_pass(self.arrs, self.template.with_free(free), self.spec)
            self._x = np.array(free, dtype=float)
        return self._cp

    def __call__(self, free):
        """(value, gradient); inf where a term is not finite, NaNs where a
        score is not."""
        cp = self._pass(free)
        terms = cp.terms
        value = -math.fsum(self.arrs.w * terms) if np.isfinite(terms).all() else math.inf
        try:
            return value, -_column_fsum(_case_scores(self.arrs, self.spec, cp))
        except FloatingPointError:
            return value, np.full(free.size, np.nan)

    def hess(self, free):
        return -_case_hessian(self.arrs, self.spec, self._pass(free))

    def run(self, start):
        """One trust-exact run from ``start``.  The cached pass is dropped
        on return, so no later stage holds it."""
        try:
            return minimize(self, start, jac=True, hess=self.hess, method="trust-exact",
                            options={"gtol": SCORE_TOL, "maxiter": MAX_ITER})
        finally:
            self._x = self._cp = None

    def loglik(self, free):
        return log_pseudo_likelihood(self.arrs, self.template.with_free(free), self.spec)

    def gradient(self, free):
        return score(self.arrs, self.template.with_free(free), self.spec)

    def hessian(self, free):
        return hessian(self.arrs, self.template.with_free(free), self.spec)

    def newton_polish(self, free, ll):
        return _newton_polish(self, free, ll)

    def covariance(self, free):
        return sandwich_covariance(self.arrs, self.template.with_free(free), self.spec)


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


def _prepare(data, spec: ModelSpec):
    """Arrays and :func:`_default_start` of either fit.  Weights must sum
    to the subject count: the rescale sets the sandwich and BIC scale."""
    arrs = as_arrays(data)
    total = math.fsum(arrs.w)
    if abs(total - arrs.n) > WEIGHT_SUM_TOL:
        raise ValueError(
            f"weights sum to {total:.6f} but must equal the subject count {arrs.n}; "
            "rescale them (w *= n / w.sum()) before fitting"
        )
    return arrs, _default_start(spec)


def _maximize(obj, starts) -> FitResult:
    """The attempt loop both fits share, ending in their :class:`FitResult`.

    ``obj`` (:class:`_NegObjective` or the profile objective) gives
    ``run(start)``, one trust-exact run, and the (positive) objective's
    ``loglik``, ``gradient``, ``hessian``, ``newton_polish`` and
    ``covariance`` over the free parameters.  For each start in turn: run
    it, polish the end point when its score is above SCORE_TOL, and apply
    the plateau guard (a stationary point with a direction the data
    cannot reject is the plateau or a shallow local maximum beside it);
    stop at the first settled attempt.  The :func:`select_candidate` pick,
    or the start template flagged when every attempt degenerated, gets
    its BIC and covariance; one that cannot be formed is NaN and flags
    the fit.
    """
    candidates = []
    total_iter = 0
    for start in starts:
        try:
            res = obj.run(start)
            total_iter += res.nit
            x = res.x
            ll = obj.loglik(x)
            if not np.isfinite(ll):
                continue
            sup = _sup_norm(obj.gradient(x))
            if sup >= SCORE_TOL:
                x, ll = obj.newton_polish(x, ll)
                sup = _sup_norm(obj.gradient(x))
        except FloatingPointError:
            continue
        settled = sup < SCORE_TOL and not _flat_directions(obj.loglik, x, ll)
        candidates.append((x, ll, sup, settled))
        if settled:
            break
    if candidates:
        x_hat, ll, sup, converged = select_candidate(candidates)
    else:
        x_hat, ll, sup, converged = obj.template.free_values(), -math.inf, math.inf, False
    k, n = x_hat.size, obj.arrs.n
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cov = obj.covariance(x_hat)
    except (np.linalg.LinAlgError, ValueError, FloatingPointError):
        cov = np.full((k, k), np.nan)
        converged = False
    return FitResult(
        theta_hat=obj.template.with_free(x_hat), covariance=cov, log_pl=ll,
        bic=-2.0 * ll + k * math.log(n), n_subjects=n, converged=converged,
        iterations=total_iter, spec=obj.spec, free_names=obj.spec.free_names(),
        score_sup_norm=sup,
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
                     _starts(template.free_values(), spec.free_names()))


def _sup_norm(g: np.ndarray) -> float:
    return float(np.max(np.abs(g))) if g.size else 0.0


def _newton_polish(obj, free: np.ndarray, ll: float):
    """Newton steps from a stalled optimizer point until the score
    sup-norm is below SCORE_TOL, at most POLISH_STEPS of them.

    The trust region compares near-equal objective values and stalls
    near a 1e-5 score; a Newton step needs only ``obj.gradient`` and its
    Jacobian ``obj.hessian``, so it finishes the last decades.  Each step is
    halved up to 8 times until the log-likelihood does not fall by more
    than value noise (1e-8).  Returns the final point and its
    log-likelihood; a failed solve or line search stops early.
    """
    x = free.copy()
    for _ in range(POLISH_STEPS):
        try:
            g = obj.gradient(x)
            if np.max(np.abs(g)) < SCORE_TOL:
                break
            step_vec = np.linalg.solve(obj.hessian(x), -g)
        except (np.linalg.LinAlgError, FloatingPointError):
            break
        scale = 1.0
        improved = False
        for _ in range(8):
            cand = x + scale * step_vec
            try:
                ll_cand = obj.loglik(cand)
            except FloatingPointError:
                ll_cand = -math.inf
            # tolerate value-noise-level regressions: the score is the
            # convergence witness here, not the objective
            if math.isfinite(ll_cand) and ll_cand >= ll - 1e-8:
                x, ll = cand, ll_cand
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return x, ll


def _flat_directions(loglik_fn, free: np.ndarray, ll_hat: float) -> list[int]:
    """Indices of free parameters whose +-FLATNESS_DELTA move the data
    cannot reject (log-likelihood loss < FLATNESS_TOL); such a direction
    has its supremum at infinity rather than an interior optimum."""
    flat = []
    for j in range(free.size):
        for sign in (1.0, -1.0):
            trial = free.copy()
            trial[j] += sign * FLATNESS_DELTA
            if loglik_fn(trial) > ll_hat - FLATNESS_TOL:
                flat.append(j)
                break
    return flat


def _sandwich(m: np.ndarray, jac: np.ndarray, names) -> np.ndarray:
    """Robust covariance (1/n) I^-1 C I^-T from per-subject scores m (n, k)
    and the total score Jacobian jac (k, k), with I = jac / n and
    C = m^T m / n.  Raises LinAlgError naming the nearly-unidentified
    parameter when I is numerically singular."""
    n = m.shape[0]
    info = jac / n
    c_mat = (m.T @ m) / n
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
    arrs = as_arrays(data)
    cp = _case_pass(arrs, theta_hat, spec)
    m = _case_scores(arrs, spec, cp)
    sup = _sup_norm(m.sum(axis=0))
    if sup >= 1e-4:
        warnings.warn(
            f"sandwich evaluated away from a stationary point (score sup-norm {sup:.2e})",
            stacklevel=2,
        )
    return _sandwich(m, _case_hessian(arrs, spec, cp), spec.free_names())


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
    others.  Use :func:`best_variant` for the tie-broken winner.
    """
    out = []
    for name, kw in ETA_VARIANTS:
        spec = ModelSpec(covariate_names=tuple(covariates), **kw)
        try:
            out.append(VariantFit(name=name, spec=spec, fit=fit(data, spec)))
        except Exception as exc:  # structural failures only; fit never raises statistically
            out.append(VariantFit(name=name, spec=spec, fit=None, error=str(exc)))
    return out


def best_variant(variants: list[VariantFit]) -> VariantFit:
    """Lowest BIC; ties (within 1e-9) go to the variant with fewer free parameters."""
    ok = [v for v in variants if v.fit is not None]
    if not ok:
        raise ValueError("every variant failed to fit")
    return min(ok, key=lambda v: (round(v.fit.bic / 1e-9) * 1e-9, v.fit.n_free))


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
    eta = {}
    for j, name in enumerate(("eta00", "eta01", "eta10", "eta11")):
        if spec.p0_identically_one and name in ("eta00", "eta01"):
            continue
        eta[name] = float(theta.eta[j])
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
        "spec": {
            "covariate_names": list(spec.covariate_names),
            "fix_eta00": spec.fix_eta00,
            "fix_eta10": spec.fix_eta10,
            "p0_identically_one": spec.p0_identically_one,
            "extended": spec.extended,
            "z_model_covariate": spec.z_model_covariate,
        },
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
