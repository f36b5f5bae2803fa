"""IRLS logistic regression against independent references."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from recency.glm import fit_weighted_logistic


def make_data(rng, n=200, c=2):
    x = rng.normal(size=(n, c))
    lin = 0.4 + x @ np.array([0.8, -1.1][:c])
    y = (rng.random(n) < 1 / (1 + np.exp(-lin))).astype(float)
    w = rng.uniform(0.5, 2.0, size=n)
    return x, y, w


class TestWeightedLogistic:
    def test_matches_direct_optimizer(self):
        rng = np.random.default_rng(21)
        x, y, w = make_data(rng)
        res = fit_weighted_logistic(x, y, w)
        X = np.column_stack([np.ones(len(y)), x])

        def nll(beta):
            lin = X @ beta
            return -np.sum(w * (y * lin - np.logaddexp(0.0, lin)))

        direct = minimize(nll, np.zeros(3), method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        np.testing.assert_allclose(res.beta, direct.x, atol=1e-5)

    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(22)
        y = (rng.random(500) < 0.3).astype(float)
        w = rng.uniform(0.5, 2.0, size=500)
        res = fit_weighted_logistic(np.zeros((500, 0)), y, w)
        p_bar = np.average(y, weights=w)
        assert res.beta[0] == pytest.approx(math.log(p_bar / (1 - p_bar)), abs=1e-8)

    def test_cov_is_inverse_fisher(self):
        rng = np.random.default_rng(23)
        x, y, w = make_data(rng)
        res = fit_weighted_logistic(x, y, w)
        X = np.column_stack([np.ones(len(y)), x])
        p = 1 / (1 + np.exp(-(X @ res.beta)))
        fisher = X.T @ (X * (w * p * (1 - p))[:, None])
        np.testing.assert_allclose(res.cov, np.linalg.inv(fisher), rtol=1e-8)

    def test_x_and_y_must_agree(self):
        with pytest.raises(ValueError, match="^x and y disagree on the number of observations$"):
            fit_weighted_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 1.0]))

    def test_step_that_lowers_the_likelihood_is_halved(self):
        # Cauchy covariates: a full Newton step from some iterate lowers the
        # likelihood, and taking it leads to a singular Fisher information
        x = np.array([[-1.4331260678687738, -0.20593751698816895],
                      [0.2343127612213643, -0.5682729536851783],
                      [0.7246291368760791, 4.838660822215595],
                      [0.5551556215946406, -0.3746149679316053],
                      [-7.424781580582374, 0.4124188851411523],
                      [-28.42548242694046, 0.07525288516857027],
                      [-1.5952611843855982, 3.2336797225603724],
                      [-0.6642575470580129, 0.127611880367123]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        w = np.array([0.21582305733805934, 2.6644376572548434, 2.660301115507139,
                      1.9778558736723495, 2.549562977145296, 0.21714205132668185,
                      0.2788159916320915, 2.2555263857477197])
        res = fit_weighted_logistic(x, y, w)
        assert res.converged
        X = np.column_stack([np.ones(8), x])
        p = 1.0 / (1.0 + np.exp(-(X @ res.beta)))
        assert np.max(np.abs(X.T @ (w * (y - p)))) < 1e-9

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            fit_weighted_logistic(np.zeros((5, 1)), np.ones(5))

    def test_converges_flag(self):
        rng = np.random.default_rng(24)
        x, y, w = make_data(rng)
        assert fit_weighted_logistic(x, y, w).converged
