import math

import numpy as np
import pytest

from bozk.grid import make_grid
from bozk.weights import (
    WeightSpec,
    _beta_poly,
    _blend_monotone,
    _blend_quintic,
    _deriv,
    _horner,
    a2_statistic,
    beta,
    beta_audit,
)


def _knot(n):
    """<x>, <x>', <x>'' at x = N and the blend's width 2N."""
    v0 = math.hypot(1.0, n)
    return v0, n / v0, (1.0 + n * n) ** -1.5, 2.0 * n


def _solved_quintic(v0, d0, s0, w):
    # the 6x6 Hermite system: p, p', p'' at tau = 0 and at tau = 1
    A = np.zeros((6, 6))
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    A[2, 2] = 2.0
    A[3, :] = 1.0
    A[4, :] = np.arange(6)
    A[5, :] = np.arange(6) * (np.arange(6) - 1)
    return np.linalg.solve(A, np.array([v0, w * d0, w * w * s0, w, 0.0, 0.0]))


class TestBeta:
    def test_origin_value(self):
        for n in (1, 3, 9):
            assert beta(n, 0.0) == 1.0

    def test_plateau_value(self):
        assert beta(5, 20.0) == 10.0
        assert beta(2, 6.0) == 4.0

    def test_matching_point(self):
        assert abs(beta(5, 5.0) - math.sqrt(26.0)) < 1e-14

    def test_symmetry(self):
        xs = np.linspace(0.0, 30.0, 500)
        assert np.array_equal(beta(7, xs), beta(7, -xs))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_audit_slope_bounds(self, n):
        audit = beta_audit(n)
        assert audit.min_slope >= -1e-9
        assert audit.max_slope <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_nondecreasing_with_fd_slope_bound(self, n):
        xs = np.linspace(0.0, 4.0 * n, 20001)
        vals = beta(n, xs)
        slopes = np.diff(vals) / np.diff(xs)
        assert slopes.min() >= -1e-8
        assert slopes.max() <= 1.0 + 1e-8

    def test_c2_contact_at_knots(self):
        # second differences stay continuous through |x| = N and 3N
        n = 4
        for knot in (4.0, 12.0):
            h = 1e-4
            xs = knot + h * np.arange(-3, 4)
            vals = beta(n, xs)
            second = np.diff(vals, 2) / h**2
            assert np.max(np.abs(np.diff(second))) < 1e-2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            beta(0, 1.0)


class TestBlend:
    @pytest.mark.parametrize(
        "n, blend",
        [(2, _blend_quintic), (8, _blend_quintic), (32, _blend_quintic), (1, _blend_monotone)],
    )
    def test_end_conditions(self, n, blend):
        v0, d0, s0, w = _knot(n)
        c = blend(v0, d0, s0, w)
        d1 = _deriv(c)
        d2 = _deriv(d1)
        got = [_horner(p, t) for t in (0.0, 1.0) for p in (c, d1, d2)]
        want = [v0, w * d0, w * w * s0, w, 0.0, 0.0]
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12

    def test_closed_form_matches_solved_system(self):
        for n in range(1, 65):
            ends = _knot(n)
            solved = _solved_quintic(*ends)
            diff = np.max(np.abs(_blend_quintic(*ends) - solved))
            assert diff <= 1e-14 * np.max(np.abs(solved))

    def test_horner_bit_equal_to_polyval(self):
        rng = np.random.default_rng(5)
        for degree in range(7):
            c = rng.standard_normal(degree + 1)
            x = rng.uniform(-2.0, 2.0, 257)
            ref = np.polynomial.polynomial.polyval(x, c)
            assert np.array_equal(_horner(c, x).view(np.uint64), ref.view(np.uint64))
            assert _horner(c, float(x[0])) == np.polynomial.polynomial.polyval(float(x[0]), c)

    def test_deriv_bit_equal_to_polynomial_deriv(self):
        c = np.random.default_rng(6).standard_normal(7)
        P = np.polynomial.Polynomial(c)
        assert np.array_equal(_deriv(c), P.deriv(1).coef)
        assert np.array_equal(_deriv(_deriv(c)), P.deriv(2).coef)

    def test_monotone_bit_equal_to_polynomial_construction(self):
        for n in (1, 2, 8):
            v0, d0, s0, w = _knot(n)
            a = w * d0
            b = w * w * s0 + 2.0 * a
            c = 60.0 * (w - v0) - 19.0 * a - 4.0 * b
            cubic = np.polynomial.Polynomial([a, b, c, -a - b - c])
            old = (cubic * np.polynomial.Polynomial([1.0, -1.0]) ** 2).integ(1, k=[v0])
            assert np.array_equal(_blend_monotone(v0, d0, s0, w), old.coef)

    def test_monotone_chosen_only_at_one(self):
        for n in list(range(1, 65)) + [512, 4096]:
            chosen = _beta_poly(n)[0]
            blend = _blend_monotone if n == 1 else _blend_quintic
            assert np.array_equal(chosen, blend(*_knot(n)))


class TestWeightSpecs:
    def test_truncated_at_origin(self):
        g = make_grid(32, 32, 10.0, 10.0)
        w = WeightSpec.truncated(3).evaluate(g.xmesh, g.ymesh)
        i0 = np.argmin(np.abs(g.x))
        j0 = np.argmin(np.abs(g.y))
        assert abs(w[j0, i0] - 1.0) < 1e-12

    def test_polynomial_zero_is_one(self):
        g = make_grid(16, 16, 7.0, 7.0)
        w = WeightSpec.polynomial(0.0).evaluate(g.xmesh, g.ymesh)
        assert np.array_equal(w, np.ones_like(w))

    def test_damped_value(self):
        spec = WeightSpec.damped(1.0, 0.5)
        v = float(spec.evaluate(np.array(1.0), np.array(0.0)))
        assert abs(v - math.sqrt(2.0) * math.exp(-0.5)) < 1e-14

    def test_truncated_below_polynomial(self):
        g = make_grid(64, 64, 40.0, 40.0)
        wn = WeightSpec.truncated(4).evaluate(g.xmesh, g.ymesh)
        pl = WeightSpec.polynomial(1.0).evaluate(g.xmesh, g.ymesh)
        assert np.all(wn <= pl + 1e-12)
        rho = np.hypot(g.xmesh, g.ymesh)
        assert np.max(np.abs((wn - pl)[rho <= 4.0])) == 0.0

    def test_damped_gradient_uniform_in_lambda(self):
        g = make_grid(96, 96, 60.0, 60.0)
        worst = 0.0
        for lam in (0.5, 0.1, 0.01, 0.001):
            w = WeightSpec.damped(1.0, lam).evaluate(g.xmesh, g.ymesh)
            gx = np.gradient(w, g.dx, axis=1)
            gy = np.gradient(w, g.dy, axis=0)
            worst = max(worst, float(np.max(np.hypot(gx, gy))))
        assert worst < 1.5  # recorded uniform ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec.truncated(0)
        with pytest.raises(ValueError):
            WeightSpec.polynomial(-1.0)
        with pytest.raises(ValueError):
            WeightSpec.gamma_power(1.5)
        with pytest.raises(ValueError):
            WeightSpec.damped(0.5, 1.0)


class TestA2Statistic:
    def test_symmetric_interval_value_is_l_independent(self):
        for L in (0.5, 1.0, 3.0, 17.0, 400.0):
            v = a2_statistic(0.5, (-L, L))
            assert abs(v - 4.0 / 3.0) < 1e-12

    def test_divergent_above_one(self):
        assert math.isinf(a2_statistic(1.5, (-1.0, 1.0)))
        assert math.isinf(a2_statistic(1.5, (-2.0, 0.5)))
        assert math.isinf(a2_statistic(-1.5, (0.0, 1.0)))

    def test_zero_exponent(self):
        for iv in ((-3.0, 3.0), (1.0, 9.0), (-7.0, -2.0)):
            assert a2_statistic(0.0, iv) == 1.0

    def test_alpha_one_off_origin_is_finite(self):
        assert math.isfinite(a2_statistic(1.0, (1.0, 2.0)))
        # mean |x| times mean 1/|x| on an interval of length 5 away from 0
        expected = 4.5 * math.log(3.5) / 5
        for iv in ((2.0, 7.0), (-7.0, -2.0)):
            assert a2_statistic(1.0, iv) == pytest.approx(expected, rel=1e-14, abs=0)
        assert math.isinf(a2_statistic(1.0, (-1.0, 1.0)))

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            a2_statistic(0.5, (2.0, 2.0))
