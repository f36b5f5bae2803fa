"""The fits' own optimizers: the trust-region Newton loop and Brent's
root-finder, against their defining properties and against scipy."""

import math

import numpy as np
import pytest
import scipy.optimize

from recency import densityratio, estimation, simulation
from recency.densityratio import solve_mu
from recency.estimation import TRUST_RADIUS, _diagonal_scale, _trust_step, brentq, minimize
from recency.simulation import default_config, generate


def quadratic(a, b):
    """f(x) = x.a.x / 2 - b.x as (value, gradient), and its Hessian."""
    return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), (lambda x: a)


def exponential_wall(ell=1e-3, amp=20.0):
    """f = sum a (y - 10)^2 / 2 + amp (e^(v / ell) - v / ell) over x = (y, v),
    a = (1, 100), as (value, gradient), and its Hessian.  At v = -3 ell
    the v curvature is 1e6, and the quadratic model's Newton step in v
    lands at v = 16 ell, past the optimum v = 0, where e^(v / ell) is
    9e6."""
    a = np.array([1.0, 100.0])

    def fun(x):
        v = x[-1] / ell
        if v > 700.0:
            return math.inf, np.full(x.size, np.nan)
        return (0.5 * a @ (x[:-1] - 10.0) ** 2 + amp * (math.exp(v) - v),
                np.r_[a * (x[:-1] - 10.0), amp * (math.exp(v) - 1.0) / ell])

    return fun, (lambda x: np.diag(np.r_[a, amp * math.exp(x[-1] / ell) / ell**2]))


def saddle(x):
    """x^2 - y^2 + y^4: its Hessian diag(2, 12 y^2 - 2) is indefinite near
    y = 0, and its minima are at y = +-sqrt(1/2)."""
    return x[0] ** 2 - x[1] ** 2 + x[1] ** 4, np.array([2 * x[0], -2 * x[1] + 4 * x[1] ** 3])


def saddle_hess(x):
    return np.diag([2.0, -2.0 + 12 * x[1] ** 2])


def rosenbrock(x):
    return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)


def model(g, h, p):
    return g @ p + 0.5 * p @ h @ p


class Recorded:
    """``fun`` and ``hess`` that log the points ``fun`` is asked at."""

    def __init__(self, fun, hess):
        self.fun, self.hess = fun, hess
        self.trials = []

    def __call__(self, x):
        self.trials.append(np.array(x))
        return self.fun(x)


class TestTrustStep:
    def test_interior_newton_step(self):
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([0.5, -0.2])
        p, on_boundary = _trust_step(g, h, 1.0)
        assert not on_boundary
        np.testing.assert_allclose(h @ p, -g, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_boundary_step_is_the_model_minimizer(self, seed):
        # More-Sorensen optimality: (h + sigma I) p = -g with sigma >= 0,
        # h + sigma I positive semidefinite, and |p| = radius when sigma > 0
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        q = np.linalg.qr(rng.normal(size=(k, k)))[0]
        h = q @ np.diag(rng.normal(scale=3.0, size=k)) @ q.T
        g = rng.normal(size=k)
        radius = float(rng.uniform(0.05, 2.0))
        p, on_boundary = _trust_step(g, h, radius)
        norm = np.linalg.norm(p)
        assert norm <= radius * (1 + 1e-12)
        if on_boundary:
            assert norm == pytest.approx(radius, rel=1e-10)
            sigma = -(p @ (h @ p + g)) / (p @ p)
            assert sigma >= -1e-10
            np.testing.assert_allclose(h @ p + sigma * p, -g, rtol=0, atol=1e-8)
            assert np.linalg.eigvalsh(h + sigma * np.eye(k))[0] >= -1e-8
        # no point of the ball does better, on a random sample of it
        trial = rng.normal(size=(2000, k))
        trial *= radius * rng.uniform(0, 1, (2000, 1)) ** (1 / k) / np.linalg.norm(
            trial, axis=1, keepdims=True)
        best = min(model(g, h, t) for t in trial)
        assert model(g, h, p) <= best + 1e-12

    def test_indefinite_hessian_steps_to_the_boundary(self):
        h = np.array([[1.0, 0.0], [0.0, -2.0]])
        g = np.array([0.3, 0.1])
        p, on_boundary = _trust_step(g, h, 0.5)
        assert on_boundary
        assert np.linalg.norm(p) == pytest.approx(0.5, rel=1e-12)
        assert model(g, h, p) < model(g, h, -0.5 * g / np.linalg.norm(g))

    @pytest.mark.parametrize("rotate", [False, True])
    def test_hard_case_steps_along_the_lowest_eigenvector(self, rotate):
        # g has no component along the lowest eigenvector, and
        # p(-lam_min) = (0, -1/3, -1/6) lies inside the radius
        q = (np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0] if rotate
             else np.eye(3))
        h = q @ np.diag([-1.0, 2.0, 5.0]) @ q.T
        g = q @ np.array([0.0, 1.0, 1.0])
        p, on_boundary = _trust_step(g, h, 1.0)
        local = q.T @ p
        assert on_boundary
        assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(local[1:], [-1 / 3, -1 / 6], rtol=1e-10)
        assert abs(local[0]) == pytest.approx(math.sqrt(1 - 1 / 9 - 1 / 36), rel=1e-10)


    def test_lowest_pair_a_rounding_apart(self):
        # g has a component beyond 1e-12 |g| along the second of two lowest
        # eigenvalues 1.5e-15 apart, yet |p(-lam_min)| is inside the
        # radius: there is no boundary root to bracket
        h = np.diag([-1.0, -1.0 + 1.5e-15, 3.0])
        g = np.array([0.0, 2e-15, 1e-3])
        p, on_boundary = _trust_step(g, h, 10.0)
        assert on_boundary
        assert np.linalg.norm(p) == pytest.approx(10.0, rel=1e-12)
        assert model(g, h, p) == pytest.approx(-50.0, rel=1e-6)


class TestMinimize:
    def test_convex_quadratic_takes_one_newton_step(self):
        a = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.5]])
        b = np.array([0.4, -0.3, 0.2])
        optimum = np.linalg.solve(a, b)
        obj = Recorded(*quadratic(a, b))
        res = minimize(obj, optimum + [0.1, -0.2, 0.1], obj.hess)
        # one step, to the optimum, where the run stops
        assert res.success and res.nit == 1 and res.nhev == 1
        np.testing.assert_allclose(obj.trials[1], optimum, rtol=0, atol=1e-15)
        np.testing.assert_allclose(res.x, optimum, rtol=0, atol=1e-15)
        assert res.fun == pytest.approx(-0.5 * b @ optimum, rel=1e-15)

    def test_indefinite_start_takes_a_boundary_step(self):
        obj = Recorded(saddle, saddle_hess)
        res = minimize(obj, np.array([0.1, 0.05]), obj.hess)
        assert np.linalg.norm(obj.trials[1] - obj.trials[0]) == pytest.approx(TRUST_RADIUS)
        assert res.success
        np.testing.assert_allclose(np.abs(res.x), [0.0, math.sqrt(0.5)], rtol=0, atol=1e-9)

    def test_infinite_value_is_a_rejected_step_that_shrinks_the_radius(self):
        # the quadratic's minimum (3, 0) lies beyond a wall at x0 = 0.5
        fun, hess = quadratic(np.eye(2), np.array([3.0, 0.0]))

        def walled(x):
            value, grad = fun(x)
            return (math.inf if x[0] > 0.5 else value), grad

        obj = Recorded(walled, hess)
        res = minimize(obj, np.zeros(2), obj.hess, maxiter=2)
        steps = [np.linalg.norm(t) for t in obj.trials[1:]]
        assert steps == pytest.approx([TRUST_RADIUS, TRUST_RADIUS / 4])
        np.testing.assert_allclose(res.x, [0.25, 0.0])
        assert not res.success and res.nit == 2

    def test_hessian_only_at_accepted_iterates(self):
        calls = []

        def fun(x):
            calls.append(("fun", np.array(x)))
            return rosenbrock(x)

        def hess(x):
            calls.append(("hess", np.array(x)))
            return scipy.optimize.rosen_hess(x)

        res = minimize(fun, np.array([-1.2, 1.0, -0.5, 0.8]), hess)
        assert res.success
        hessians = [x for kind, x in calls if kind == "hess"]
        assert res.nhev == len(hessians) and res.nfev == len(calls) - len(hessians)
        assert res.nfev > res.nhev + 1   # some steps were rejected
        # each Hessian is asked for right after the value at its point,
        # never twice at one point, and the values there fall
        for i, (kind, x) in enumerate(calls):
            if kind == "hess":
                assert calls[i - 1][0] == "fun"
                np.testing.assert_array_equal(calls[i - 1][1], x)
        assert len({x.tobytes() for x in hessians}) == len(hessians)
        values = [rosenbrock(x)[0] for x in hessians]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_non_finite_start_stops(self):
        res = minimize(lambda x: (math.inf, np.zeros(1)), np.zeros(1), lambda x: np.eye(1))
        assert not res.success and res.nit == 0 and res.nhev == 0

    def test_scaled_region_steps_past_a_stiff_wall_in_fewer_steps(self):
        # the sphere's radius-1 step moves v by up to 1000 ell: it is
        # rejected until the radius has collapsed, and regrowing it to reach
        # y = 10 costs steps.  |D p| <= radius moves v by at most radius / 998
        fun, hess = exponential_wall()
        x0 = np.array([0.0, 0.0, -3e-3])
        np.testing.assert_allclose(np.diag(hess(x0)), [1.0, 100.0, 20e6 * math.exp(-3.0)])
        scale = _diagonal_scale(hess(x0))
        gtol = 1e-5
        sphere = minimize(fun, x0, hess, gtol=gtol)
        obj = Recorded(fun, hess)
        scaled = minimize(obj, x0, hess, gtol=gtol, scaled=True)
        assert sphere.success and scaled.success
        assert scaled.nit < sphere.nit - 5
        np.testing.assert_allclose(scaled.x, [10.0, 10.0, 0.0], rtol=0, atol=1e-9)
        # the stopping test reads the unscaled gradient: the run went on past
        # a point whose scaled gradient |g / D| was already below gtol
        grads = [fun(x)[1] for x in obj.trials]
        assert any(np.linalg.norm(g / scale) < gtol <= np.linalg.norm(g) for g in grads)
        assert np.linalg.norm(fun(scaled.x)[1]) < gtol

    @pytest.mark.parametrize("case", ["zero", "overflow"])
    def test_degenerate_first_diagonal_keeps_the_sphere(self, case):
        # D needs every diagonal entry of the first Hessian nonzero and
        # sqrt of their ratio finite; otherwise the run is the sphere's
        if case == "zero":
            # the saddle at y^2 = 1/6, where d2f/dy2 = 0
            fun, hess, x0 = saddle, saddle_hess, np.array([0.1, math.sqrt(1 / 6)])
            assert hess(x0)[1, 1] == 0.0
        else:
            # curvatures 1e300 and 5e-324: sqrt of their ratio overflows
            fun, hess = quadratic(np.diag([1e300, 5e-324]), np.array([0.0, 1.0]))
            x0 = np.array([1e-152, 0.0])
        assert _diagonal_scale(hess(x0)) is None
        runs = []
        for scaled in (False, True):
            obj = Recorded(fun, hess)
            res = minimize(obj, x0, hess, maxiter=20, scaled=scaled)
            runs.append((res.x.tobytes(), float(res.fun), res.nit, res.nfev, res.nhev, res.success,
                         res.message, [x.tobytes() for x in obj.trials]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(12))
    def test_same_minimizer_as_scipy_trust_exact(self, seed):
        # Rosenbrock's function from a random start, and zero-residual
        # least squares sum (tanh(a x) - tanh(a x*))^2 / 2 in 2-8
        # dimensions, whose Hessian is indefinite away from x*; both have
        # value 0 at the optimum, so scipy's ratio test resolves it
        rng = np.random.default_rng(seed)
        if seed % 3 == 2:
            fun, hess = rosenbrock, scipy.optimize.rosen_hess
            x0 = rng.uniform(-2, 2, size=int(rng.integers(2, 4)))
        else:
            k = int(rng.integers(2, 9))
            a = rng.normal(size=(3 * k, k))
            target = np.tanh(a @ rng.normal(size=k))

            def fun(x):
                th = np.tanh(a @ x)
                r = th - target
                return 0.5 * r @ r, a.T @ (r * (1 - th**2))

            def hess(x):
                th = np.tanh(a @ x)
                sech2 = 1 - th**2
                return (a.T * (sech2**2 - 2 * (th - target) * th * sech2)) @ a

            x0 = rng.normal(size=k)
        ours = minimize(fun, x0, hess, gtol=1e-10)
        theirs = scipy.optimize.minimize(fun, x0, jac=True, hess=hess, method="trust-exact",
                                         options={"gtol": 1e-10})
        assert ours.success and theirs.success
        np.testing.assert_allclose(ours.x, theirs.x, rtol=0, atol=1e-8)


def random_function(rng):
    """A smooth function with one root in a random bracket, and the bracket."""
    root = float(rng.normal(scale=10.0))
    scale = float(10.0 ** rng.uniform(-3, 3))
    slope, cubic = rng.uniform(0.1, 5.0), rng.uniform(0.0, 2.0)

    def f(x):
        return scale * (math.tanh(slope * (x - root)) + cubic * (x - root) ** 3)

    lo, hi = root - rng.uniform(1e-3, 20.0), root + rng.uniform(1e-3, 20.0)
    return (f, lo, hi) if rng.random() < 0.5 else ((lambda x: -f(x)), lo, hi)


def close_roots(ours, theirs, xtol, rtol):
    return abs(ours - theirs) <= xtol + rtol * abs(theirs)


class TestBrentq:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_root_as_scipy_on_random_brackets(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            f, lo, hi = random_function(rng)
            xtol = float(10.0 ** rng.uniform(-15, -4))
            rtol = estimation.BRENT_RTOL * float(rng.uniform(1, 100))
            ours = brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            theirs = scipy.optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            assert close_roots(ours, theirs, xtol, rtol)

    @staticmethod
    def both_roots(monkeypatch, module):
        """Wrap ``module.brentq`` so that each call also runs scipy's."""
        pairs = []

        def both(f, a, b, **kwargs):
            ours = brentq(f, a, b, **kwargs)
            pairs.append((ours, scipy.optimize.brentq(f, a, b, **kwargs), kwargs))
            return ours

        monkeypatch.setattr(module, "brentq", both)
        return pairs

    def test_same_root_as_scipy_in_solve_mu(self, monkeypatch):
        pairs = self.both_roots(monkeypatch, densityratio)
        arrs = generate(default_config("6", n_total=1000, seed=5)).train_arrays
        rng = np.random.default_rng(7)
        for _ in range(60):
            solve_mu((rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8)), arrs)
        assert len(pairs) > 20
        for ours, theirs, kw in pairs:
            assert close_roots(ours, theirs, kw["xtol"], kw["rtol"])

    def test_same_root_as_scipy_in_the_s2_intercept(self, monkeypatch):
        pairs = self.both_roots(monkeypatch, simulation)
        for seed in range(10):
            generate(default_config("2", seed=seed))
        assert len(pairs) == 10
        for ours, theirs, kw in pairs:
            assert close_roots(ours, theirs, kw["xtol"], estimation.BRENT_RTOL)

    def test_endpoint_root_and_errors(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="rtol too small"):
            brentq(lambda x: x, -1.0, 1.0, rtol=1e-17)
        with pytest.raises(RuntimeError, match="did not converge"):
            brentq(lambda x: x, -1.0, 2.0, maxiter=1)
