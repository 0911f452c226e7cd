import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bozk
from bozk import stein
from bozk.stein import (
    _BLOCK,
    _GL_ORDER,
    MIXED_PHASE_CALIBRATION,
    SteinConfig,
    UniformCubicSpline,
    _gauss_legendre,
    _uniform_step,
    mixed_phase_bound,
    phase_bound,
    probe_window,
    refine_divergence,
    refinement_ladder,
    stein_derivative,
)

# Exact constants of the pure-phase functional, from the closed form
#   Db(e^{icx})^2 = |c|^{2b} * int |1 - e^{iy}|^2 / |y|^{1+2b} dy
# evaluated analytically (cross-checked against adaptive quadrature):
#   b = 1/4 -> 4 sqrt(2 pi),  b = 1/2 -> 2 pi,  b = 3/4 -> (8/3) sqrt(2 pi).
PHASE_CONSTANT_SQ = {
    0.25: 4.0 * math.sqrt(2.0 * math.pi),
    0.50: 2.0 * math.pi,
    0.75: (8.0 / 3.0) * math.sqrt(2.0 * math.pi),
}


def sampled_line(r_outer=400.0, dx=0.005, pad=20.0):
    n = math.ceil((r_outer + pad) / dx)
    return dx * np.arange(-n, n + 1)


class TestSteinDerivative:
    def test_constant_gives_zero(self):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        res = stein_derivative(
            xs, np.full_like(xs, 2.7), SteinConfig(b=0.5, r_outer=5.0), [0.0, 1.0]
        )
        assert np.max(res.values) < 1e-12

    @pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
    def test_pure_phase_oracle_half_order(self, c):
        xs = sampled_line()
        res = stein_derivative(
            xs, np.exp(1j * c * xs), SteinConfig(b=0.5, r_outer=400.0), [0.0]
        )
        exact = math.sqrt(2.0 * math.pi * c)
        assert abs(res.values[0] - exact) / exact < 1e-3

    def test_pure_phase_independent_of_point(self):
        xs = sampled_line(r_outer=100.0)
        res = stein_derivative(
            xs, np.exp(2j * xs), SteinConfig(b=0.5, r_outer=100.0), [-3.0, 0.0, 1.7, 8.0]
        )
        spread = np.max(res.values) - np.min(res.values)
        assert spread / np.mean(res.values) < 1e-3

    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    def test_phase_constant_bracket_and_paper_bound(self, b):
        xs = sampled_line()
        cfg = SteinConfig(b=b, r_outer=400.0)
        for eta, t in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.5)):
            c = t * eta * eta
            res = stein_derivative(xs, np.exp(1j * c * xs), cfg, [0.0])
            meas = res.values[0]
            upper = res.upper()[0]
            exact = math.sqrt(PHASE_CONSTANT_SQ[b]) * c**b
            bound = phase_bound(b, eta, t)
            # the truncated value brackets the exact constant ...
            assert meas - 1e-3 * exact <= exact <= upper + 1e-3 * exact
            # ... and never exceeds the closed-form estimate
            assert meas <= bound * (1 + 1e-12)

    def test_homogeneity_in_amplitude(self):
        xs = sampled_line(r_outer=20.0, dx=0.01, pad=3.0)
        f = np.exp(-(xs**2)) * (1 + 0.3 * np.sin(xs))
        cfg = SteinConfig(b=0.4, r_outer=20.0)
        a = stein_derivative(xs, f, cfg, [0.0, 0.5]).values
        b_ = stein_derivative(xs, -2.5 * f, cfg, [0.0, 0.5]).values
        assert np.max(np.abs(b_ - 2.5 * a)) < 1e-12 * np.max(b_)

    def test_translation_invariance(self):
        xs = sampled_line(r_outer=20.0, dx=0.01, pad=5.0)
        cfg = SteinConfig(b=0.5, r_outer=20.0)
        f = np.exp(-(xs**2))
        g = np.exp(-((xs - 1.5) ** 2))
        a = stein_derivative(xs, f, cfg, [0.25]).values[0]
        b_ = stein_derivative(xs, g, cfg, [1.75]).values[0]
        assert abs(a - b_) / a < 1e-6

    def test_boundary_margin_enforced(self):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=1.0)
        with pytest.raises(ValueError):
            stein_derivative(xs, np.exp(1j * xs), SteinConfig(b=0.5, r_outer=5.0), [xs[-1] - 1.0])

    def test_nonuniform_grid_rejected(self):
        xs = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(ValueError):
            stein_derivative(xs, np.ones(4), SteinConfig(b=0.5, r_outer=2.0), [0.0])

    @pytest.mark.parametrize("jitter", [0.0, 3e-10, 9e-10, 1.1e-9, 1e-6, np.nan, -0.5])
    def test_uniformity_check_keeps_allclose_decision(self, jitter):
        xs = 0.1 * np.arange(50.0)
        xs[31] += jitter * 0.1
        steps = np.diff(xs)
        expected = steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        try:
            _uniform_step(xs)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected

    @pytest.mark.parametrize("where", [_BLOCK - 1, _BLOCK, _BLOCK + 50])
    @pytest.mark.parametrize("jitter", [0.0, 3e-10, 1.1e-9, np.nan])
    def test_uniformity_check_past_one_block(self, where, jitter):
        # step `where` is the last of the first block, the first of the
        # second, or inside the second
        xs = 0.1 * np.arange(_BLOCK + 100.0)
        xs[where + 1 :] += jitter * 0.1
        steps = np.diff(xs)
        expected = np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        assert expected == (jitter in (0.0, 3e-10))
        if expected:
            assert _uniform_step(xs) == xs[1] - xs[0]
        else:
            with pytest.raises(ValueError, match="uniform"):
                _uniform_step(xs)

    def test_one_row_keeps_its_return_types(self):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        res = stein_derivative(xs, np.exp(1j * xs), SteinConfig(b=0.5, r_outer=5.0), [0.0, 1.0])
        assert res.values.shape == (2,)
        assert type(res.tail_sq_bound) is float
        assert res.upper().shape == (2,)

    def test_verify_size_call_allocates_little(self):
        # one verify-size call: 168,001 complex samples, R = 400, one node
        # point; a full-length spline or copy of the samples would show here
        xs = sampled_line()
        fs = np.exp(1j * xs)
        cfg = SteinConfig(b=0.5, r_outer=400.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stein_derivative(xs, fs, cfg, [0.0])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * fs.nbytes


class TestBlockedOuterBand:
    """The outer band summed block by block against one unblocked sum."""

    @staticmethod
    def unblocked(monkeypatch, *args):
        with monkeypatch.context() as m:
            m.setattr(stein, "_BLOCK", 1 << 30)
            return stein_derivative(*args)

    def test_verify_size_call(self, monkeypatch):
        xs = sampled_line()
        cfg = SteinConfig(b=0.5, r_outer=400.0)
        for c in (1.0, 4.0):
            fs = np.exp(1j * c * xs)
            blocked = stein_derivative(xs, fs, cfg, [0.0])
            ref = self.unblocked(monkeypatch, xs, fs, cfg, [0.0])
            assert np.allclose(blocked.values, ref.values, rtol=1e-14, atol=0.0)
            assert blocked.tail_sq_bound == ref.tail_sq_bound

    @pytest.mark.parametrize("block", [7, 64, 1000])
    def test_stack_on_and_off_the_nodes(self, monkeypatch, block):
        # blocks that split the band unevenly, on an (S, N) stack, with one
        # point off the grid nodes
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        fs = TestStacks.stack(xs, 3)
        cfg = SteinConfig(b=0.4, r_outer=5.0)
        pts = [0.0, 0.5, 1.03]
        monkeypatch.setattr(stein, "_BLOCK", block)
        blocked = stein_derivative(xs, fs, cfg, pts)
        ref = self.unblocked(monkeypatch, xs, fs, cfg, pts)
        assert np.allclose(blocked.values, ref.values, rtol=1e-14, atol=0.0)
        assert np.array_equal(blocked.tail_sq_bound, ref.tail_sq_bound)


class TestStacks:
    @staticmethod
    def stack(xs, rows):
        rng = np.random.default_rng(rows)
        amp = rng.standard_normal((rows, 1)) + 1j * rng.standard_normal((rows, 1))
        freq = rng.uniform(0.0, 3.0, (rows, 1))
        return amp * np.exp(-(xs**2) + 1j * freq * xs) * (1.0 + (xs >= 0.1))

    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_stein_rows_equal_single_calls(self, rows):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        fs = self.stack(xs, rows)
        cfg = SteinConfig(b=0.5, r_outer=5.0)
        pts = [0.0, 0.5, 1.03]  # 1.03 is off the grid
        res = stein_derivative(xs, fs, cfg, pts)
        assert res.values.shape == (rows, 3)
        assert res.tail_sq_bound.shape == (rows,)
        upper = res.upper()
        for s in range(rows):
            one = stein_derivative(xs, fs[s], cfg, pts)
            assert np.array_equal(res.values[s], one.values)
            assert res.tail_sq_bound[s] == one.tail_sq_bound
            assert np.array_equal(upper[s], one.upper())

    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_probe_window_rows_equal_single_calls(self, rows):
        step = 1.0 / 128.0
        n = math.ceil((0.5 + 2.0 + 8.0 * step) / step)
        xs = step * np.arange(-n, n + 1)
        fs = self.stack(xs, rows)
        vals = probe_window(xs, fs, 0.5, step, 0.5)
        assert vals.shape[0] == rows
        for s in range(rows):
            assert np.array_equal(vals[s], probe_window(xs, fs[s], 0.5, step, 0.5))


def test_gauss_legendre_rule_computed_once_and_read_only():
    nodes, weights = _gauss_legendre()
    assert _gauss_legendre()[0] is nodes
    gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
    assert np.array_equal(nodes.view(np.uint64), gx.view(np.uint64))
    assert np.array_equal(weights.view(np.uint64), gw.view(np.uint64))
    for rule in (nodes, weights):
        with pytest.raises(ValueError):
            rule[0] = 0.0


class TestPhaseBounds:
    def test_closed_form_constant(self):
        assert abs(phase_bound(0.5, 1.0, 1.0) - math.sqrt(8.0)) < 1e-14

    def test_zero_time(self):
        assert phase_bound(0.3, 5.0, 0.0) == 0.0
        assert mixed_phase_bound(0.3, 0.0, 2.0) == 0.0

    def test_scaling_in_eta(self):
        # (eta^2 t)^b doubles when eta^2 quadruples at b = 1/2
        assert abs(phase_bound(0.5, 2.0, 1.0) - 2.0 * math.sqrt(8.0)) < 1e-13

    def test_out_of_range_order(self):
        for b in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                phase_bound(b, 1.0, 1.0)
            with pytest.raises(ValueError):
                mixed_phase_bound(b, 1.0, 1.0)

    def test_mixed_bound_monotone_in_x(self):
        vals = [mixed_phase_bound(0.5, 2.0, x) for x in (0.0, 0.5, 1.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("b,t", [(0.25, 1.0), (0.5, 0.25), (0.75, 1.0)])
    def test_mixed_bound_dominates_measurement(self, b, t):
        xs = sampled_line(r_outer=100.0, dx=0.005, pad=15.0)
        f = np.exp(-1j * t * xs * np.abs(xs))
        res = stein_derivative(xs, f, SteinConfig(b=b, r_outer=100.0), [0.0, 1.0, 5.0])
        for x, v in zip((0.0, 1.0, 5.0), res.values):
            assert v <= mixed_phase_bound(b, t, x)
        assert MIXED_PHASE_CALIBRATION == 5.0  # recorded calibration ceiling


class TestRefineDivergence:
    def test_heaviside_divergent(self):
        rep = refine_divergence(lambda x: (x >= 0).astype(float), 0.5, 5)
        assert rep.verdict == "divergent"
        assert all(r > 1.10 for r in rep.ratios[-2:])

    def test_smooth_bump_convergent(self):
        rep = refine_divergence(lambda x: np.exp(-8.0 * x**2), 0.5, 6)
        assert rep.verdict == "convergent"

    def test_narrow_ramp_divergent_wide_ramp_not(self):
        def ramp(w):
            return lambda x: np.clip(x / w, -1.0, 1.0)

        assert refine_divergence(ramp(0.01), 0.5, 5).verdict == "divergent"
        wide = refine_divergence(ramp(1.5), 0.5, 6)
        assert wide.verdict == "convergent"

    def test_zero_function(self):
        rep = refine_divergence(lambda x: np.zeros_like(x), 0.5, 4)
        assert rep.verdict == "convergent"
        assert all(l.window_norm == 0.0 for l in rep.levels)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            refine_divergence(lambda x: np.zeros_like(x), 0.5, 2)


class TestRefinementLadder:
    LADDER = dict(h0=0.0625, window=0.5)

    def test_split_slice_weights_add_exactly(self):
        def step_fn(xs):
            return (xs >= 0).astype(float)

        one = refinement_ladder(lambda xs: [(1.0, step_fn(xs))], 0.5, 3, **self.LADDER)
        two = refinement_ladder(
            lambda xs: [(0.5, step_fn(xs)), (0.5, step_fn(xs))], 0.5, 3, **self.LADDER
        )
        assert one == two

    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="3 refinement levels"):
            refinement_ladder(lambda xs: [(1.0, np.zeros_like(xs))], 0.5, 2, **self.LADDER)


class TestUniformCubicSpline:
    def test_reproduces_cubic_in_interior(self):
        def p(x):
            return 0.1 * x**3 + x + 10.0

        xs = 0.1 * np.arange(-100, 101)
        spline = UniformCubicSpline(xs, p(xs))
        # off-grid points at least 40 cells from either end
        q = np.linspace(-5.96, 5.96, 77) + 0.0123
        np.testing.assert_allclose(spline(q), p(q), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            spline(q, derivative=True), 0.3 * q**2 + 1.0, rtol=1e-12, atol=0.0
        )

    def test_node_values_are_the_samples(self):
        xs = 0.01 * np.arange(-300, 301)
        rng = np.random.default_rng(5)
        fs = rng.standard_normal(xs.size) + 1j * rng.standard_normal(xs.size)
        err = np.max(np.abs(UniformCubicSpline(xs, fs)(xs) - fs))
        assert err <= 1e-12 * np.max(np.abs(fs))

    # interior, touching the left end, touching the right end
    @pytest.mark.parametrize("lo, hi", [(200, 400), (0, 150), (10, 120), (450, 600), (500, 590)])
    def test_window_equals_whole_array_build(self, lo, hi):
        xs = 0.01 * np.arange(-300, 301)
        rng = np.random.default_rng(11)
        fs = rng.standard_normal(xs.size) + 1j * rng.standard_normal(xs.size)
        whole = UniformCubicSpline(xs, fs)
        window = UniformCubicSpline(xs, fs, lo, hi)
        assert window.coef.size < whole.coef.size
        q = xs[lo] + (xs[hi] - xs[lo]) * np.linspace(0.0, 1.0, 1001, endpoint=False)
        for derivative in (False, True):
            assert np.array_equal(window(q, derivative), whole(q, derivative))

    def test_query_outside_the_window_raises(self):
        xs = 0.01 * np.arange(-300, 301)
        window = UniformCubicSpline(xs, np.sin(xs), 200, 400)
        for x in (xs[150], xs[199] + 0.005, xs[400] + 0.005, xs[450]):
            with pytest.raises(ValueError, match="outside the coefficient window"):
                window(np.array([x]))


# Any top-level import outside the standard library, numpy and bozk fails.
NUMPY_ONLY = """
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bozk"}


class NumpyOnly:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] not in ALLOWED:
            raise ImportError(name + " is blocked")
        return None


sys.meta_path.insert(0, NumpyOnly())
from bozk.cli import execute

sys.exit(execute(["verify", "--out", sys.argv[1], "--quiet"]))
"""


def test_verify_runs_on_numpy_alone(tmp_path):
    src = str(Path(bozk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "verify.csv").exists()


def test_config_validation():
    with pytest.raises(ValueError):
        SteinConfig(b=0.5, r_outer=0.5)
    with pytest.raises(ValueError):
        SteinConfig(b=0.5, h_inner=1.5)
    with pytest.raises(ValueError):
        SteinConfig(b=1.2)
