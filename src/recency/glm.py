"""Weighted logistic regression via IRLS.

Used as the comparator model fitted on label-determined subjects only,
and as an independent oracle for the pseudo-likelihood estimator on
fully labeled data.  Deliberately has no code in common with the
pseudo-likelihood path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LogisticFit", "fit_weighted_logistic"]

TOL = 1e-10       # converged when the score sup-norm is below TOL * max(1, n)
MAX_ITER = 100


@dataclass(frozen=True)
class LogisticFit:
    beta: np.ndarray        # intercept in slot 0
    cov: np.ndarray         # inverse Fisher information
    converged: bool
    iterations: int

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lin = self.beta[0] + x @ self.beta[1:]
        return np.where(lin >= 0, 1.0 / (1.0 + np.exp(-np.abs(lin))),
                        np.exp(-np.abs(lin)) / (1.0 + np.exp(-np.abs(lin))))


def _loglik(X, y, w, beta):
    lin = X @ beta
    return float(np.sum(w * (y * lin - np.logaddexp(0.0, lin))))


def fit_weighted_logistic(x, y, w=None) -> LogisticFit:
    """Maximize sum(w_i * [y_i log p_i + (1-y_i) log(1-p_i)]) by IRLS.

    ``x`` is (n, c) without an intercept column; one is prepended.
    Newton steps are halved when they fail to improve the likelihood.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.size
    if x.shape[0] != n:
        raise ValueError("x and y disagree on the number of observations")
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    if y.min() == y.max():
        raise ValueError("both outcome classes must be present")
    X = np.column_stack([np.ones(n), x])
    beta = np.zeros(X.shape[1])
    ll = _loglik(X, y, w, beta)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        lin = X @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(lin, -700, 700)))
        grad = X.T @ (w * (y - p))
        if np.max(np.abs(grad)) < TOL * max(1.0, n):
            converged = True
            break
        fisher = X.T @ (X * (w * p * (1.0 - p))[:, None])
        try:
            step = np.linalg.solve(fisher, grad)
        except np.linalg.LinAlgError:
            break
        # step halving keeps IRLS monotone on badly scaled data
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_new = _loglik(X, y, w, cand)
            if ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = ll_new
    lin = X @ beta
    p = 1.0 / (1.0 + np.exp(-np.clip(lin, -700, 700)))
    fisher = X.T @ (X * (w * p * (1.0 - p))[:, None])
    cov = np.linalg.inv(fisher)
    return LogisticFit(beta=beta, cov=cov, converged=converged, iterations=it)
