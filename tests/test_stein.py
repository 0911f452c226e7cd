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
    _GL_NODES,
    _GL_ORDER,
    _GL_WEIGHTS,
    DIVERGENCE_THRESHOLD,
    PROBE_NODES_PER_DECADE,
    PROBE_R_OUTER,
    SteinConfig,
    cubic_basis,
    cubic_combine,
    diverges,
    increment_ratios,
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


def on_line(xs, fs, cfg, points):
    """stein_derivative of fs on the uniform grid xs at the nodes of xs at the
    given points, with the step xs[1] - xs[0]."""
    dx = xs[1] - xs[0]
    nodes = np.rint((np.asarray(points) - xs[0]) / dx).astype(np.intp)
    assert np.allclose(xs[nodes], points, rtol=0.0, atol=1e-9 * dx), "points off the nodes"
    return stein_derivative(fs, dx, cfg, nodes)


class TestSteinDerivative:
    def test_constant_gives_zero(self):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        res = on_line(
            xs, np.full_like(xs, 2.7), SteinConfig(b=0.5, r_outer=5.0), [0.0, 1.0]
        )
        assert np.max(res.values) < 1e-12

    @pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
    def test_pure_phase_oracle_half_order(self, c):
        xs = sampled_line()
        res = on_line(
            xs, np.exp(1j * c * xs), SteinConfig(b=0.5, r_outer=400.0), [0.0]
        )
        exact = math.sqrt(2.0 * math.pi * c)
        assert abs(res.values[0] - exact) / exact < 1e-3

    def test_pure_phase_independent_of_point(self):
        xs = sampled_line(r_outer=100.0)
        res = on_line(
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
            res = on_line(xs, np.exp(1j * c * xs), cfg, [0.0])
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
        a = on_line(xs, f, cfg, [0.0, 0.5]).values
        b_ = on_line(xs, -2.5 * f, cfg, [0.0, 0.5]).values
        assert np.max(np.abs(b_ - 2.5 * a)) < 1e-12 * np.max(b_)

    def test_translation_invariance(self):
        xs = sampled_line(r_outer=20.0, dx=0.01, pad=5.0)
        cfg = SteinConfig(b=0.5, r_outer=20.0)
        f = np.exp(-(xs**2))
        g = np.exp(-((xs - 1.5) ** 2))
        a = on_line(xs, f, cfg, [0.25]).values[0]
        b_ = on_line(xs, g, cfg, [1.75]).values[0]
        assert abs(a - b_) / a < 1e-6

    def test_boundary_margin_enforced(self):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=1.0)
        with pytest.raises(ValueError):
            on_line(xs, np.exp(1j * xs), SteinConfig(b=0.5, r_outer=5.0), [xs[-1] - 1.0])

    def test_off_node_point_rejected(self):
        # x = 1.03 is half a cell past node 51 of x = 0 (index 350)
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        cfg = SteinConfig(b=0.5, r_outer=5.0)
        with pytest.raises(ValueError, match="sample nodes"):
            stein_derivative(np.exp(1j * xs), 0.02, cfg, [350, 350 + 51.5])

    @pytest.mark.parametrize(
        "nodes, ok",
        [
            ([8000], True),
            (np.array([8000], dtype=np.uint32), True),
            ([8000.0], False),
            ([8000.5], False),
            ([np.nan], False),
            ([True], False),
        ],
    )
    def test_nodes_must_be_integers(self, nodes, ok):
        # nodes are indices into the samples, never positions rebuilt from
        # a first node and a step
        xs = sampled_line(r_outer=5.0, dx=0.001, pad=2.0)
        fs = np.exp(1j * xs)
        cfg = SteinConfig(b=0.5, r_outer=5.0)
        dx = xs[1] - xs[0]
        if ok:
            ref = on_line(xs, fs, cfg, [xs[8000]]).values
            assert stein_derivative(fs, dx, cfg, nodes).values == ref
        else:
            with pytest.raises(ValueError, match="sample nodes"):
                stein_derivative(fs, dx, cfg, nodes)

    def test_node_past_either_margin_rejected(self):
        # 101 samples of step 0.1 leave nodes 20 .. 80 two units inside
        cfg = SteinConfig(b=0.5, r_outer=2.0)
        fs = np.ones(101)
        assert stein_derivative(fs, 0.1, cfg, [20, 50, 80]).values.shape == (3,)
        for node in (-50, 19, 81, 150):
            with pytest.raises(ValueError, match="sample boundary"):
                stein_derivative(fs, 0.1, cfg, [50, node])

    def test_nonpositive_or_nonfinite_step_rejected(self):
        cfg = SteinConfig(b=0.5, r_outer=2.0)
        for dx in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive, finite step"):
                stein_derivative(np.ones(101), dx, cfg, [50])

    @pytest.mark.parametrize("epsilon", [0.3, 0.7])
    def test_probe_window_on_a_step_that_is_not_dyadic(self, epsilon):
        # a ladder step epsilon/16 * 2^-k that is not a dyadic fraction: the
        # window nodes are integer cell counts from the origin, so the probe
        # reads the same nodes as the entries of the grid's x array in the
        # window, and hands the quadrature the step itself
        step = epsilon / 16.0 * 0.5**7
        n = math.ceil((0.5 * epsilon + 2.0 + 8.0 * step) / step)
        xs = step * np.arange(-n, n + 1)
        fs = np.exp(-8.0 * xs**2) * (1.0 + (xs >= 0.0))
        vals = probe_window(fs, step, n, 0.5, epsilon)
        cells = np.abs(np.arange(xs.size) - n)
        nodes = np.flatnonzero((cells >= 4) & (cells * step <= 0.5 * epsilon))
        window = np.flatnonzero((np.abs(xs) >= 4.0 * step) & (np.abs(xs) <= 0.5 * epsilon))
        assert np.array_equal(nodes, window)
        cfg = SteinConfig(b=0.5, r_outer=2.0, h_inner=2.0 * step, nodes_per_decade=48)
        assert np.array_equal(vals, stein_derivative(fs, step, cfg, nodes).values)
        _, ratios = refinement_ladder(lambda x: np.exp(-8.0 * x**2)[None], [1.0], 0.5, 8, epsilon)
        assert len(ratios) == 7

    def test_one_row_keeps_its_return_types(self):
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        res = on_line(xs, np.exp(1j * xs), SteinConfig(b=0.5, r_outer=5.0), [0.0, 1.0])
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
            on_line(xs, fs, cfg, [0.0])
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
            return on_line(*args)

    def test_verify_size_call(self, monkeypatch):
        xs = sampled_line()
        cfg = SteinConfig(b=0.5, r_outer=400.0)
        for c in (1.0, 4.0):
            fs = np.exp(1j * c * xs)
            blocked = on_line(xs, fs, cfg, [0.0])
            ref = self.unblocked(monkeypatch, xs, fs, cfg, [0.0])
            assert np.allclose(blocked.values, ref.values, rtol=1e-14, atol=0.0)
            assert blocked.tail_sq_bound == ref.tail_sq_bound

    @pytest.mark.parametrize("block", [7, 64, 1000])
    def test_stack_at_several_nodes(self, monkeypatch, block):
        # blocks that split the band unevenly, on an (S, N) stack
        xs = sampled_line(r_outer=5.0, dx=0.02, pad=2.0)
        fs = TestStacks.stack(xs, 3)
        cfg = SteinConfig(b=0.4, r_outer=5.0)
        pts = [0.0, 0.5, 1.04]
        monkeypatch.setattr(stein, "_BLOCK", block)
        blocked = on_line(xs, fs, cfg, pts)
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
        pts = [0.0, 0.5, 1.04]
        res = on_line(xs, fs, cfg, pts)
        assert res.values.shape == (rows, 3)
        assert res.tail_sq_bound.shape == (rows,)
        upper = res.upper()
        for s in range(rows):
            one = on_line(xs, fs[s], cfg, pts)
            assert np.array_equal(res.values[s], one.values)
            assert res.tail_sq_bound[s] == one.tail_sq_bound
            assert np.array_equal(upper[s], one.upper())

    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_probe_window_rows_equal_single_calls(self, rows):
        step = 1.0 / 128.0
        n = math.ceil((0.5 + 2.0 + 8.0 * step) / step)
        xs = step * np.arange(-n, n + 1)
        fs = self.stack(xs, rows)
        vals = probe_window(fs, step, n, 0.5, 1.0)
        assert vals.shape[0] == rows
        for s in range(rows):
            assert np.array_equal(vals[s], probe_window(fs[s], step, n, 0.5, 1.0))


def x_array_probe(xs, fs, b, step, epsilon):
    """The probe rule that read its grid off an x array: the window nodes
    from |xs| and the quadrature step xs[1] - xs[0]."""
    nodes = np.flatnonzero((np.abs(xs) >= 4.0 * step) & (np.abs(xs) <= 0.5 * epsilon))
    cfg = SteinConfig(
        b=b, r_outer=PROBE_R_OUTER, h_inner=min(2.0 * step, 0.5),
        nodes_per_decade=PROBE_NODES_PER_DECADE,
    )
    return stein_derivative(fs, xs[1] - xs[0], cfg, nodes).values


class TestProbeGrid:
    """probe_window's grid step * (k - origin) against the x arrays that its
    callers build: refinement_ladder's step * (-n .. n), and xi_line's
    2 pi (-nx/2 .. nx/2 - 1) / lx with step 2 pi / lx."""

    @staticmethod
    def ladder(epsilon, k):
        step = epsilon / 16.0 * 0.5**k
        n = math.ceil((0.5 * epsilon + PROBE_R_OUTER + 8.0 * step) / step)
        return step * np.arange(-n, n + 1), step, n

    @staticmethod
    def box(lx, nx):
        return 2.0 * np.pi * np.arange(-nx // 2, nx // 2) / lx, 2.0 * np.pi / lx, nx // 2

    @staticmethod
    def compare(xs, step, origin, epsilon):
        fs = TestStacks.stack(xs, 2)
        return probe_window(fs, step, origin, 0.5, epsilon), x_array_probe(xs, fs, 0.5, step, epsilon)

    # the ladder of epsilon 0.5, levels 0 .. 7 (3 to 8 levels deep), has
    # dyadic steps, so every grid agrees with its x array bit for bit
    @pytest.mark.parametrize("k", range(8))
    def test_dyadic_ladder_bit_identical(self, k):
        xs, step, n = self.ladder(0.5, k)
        vals, ref = self.compare(xs, step, n, 0.5)
        assert np.array_equal(vals, ref)

    # domain_growth_study's 16pi and 32pi boxes at its density, with its
    # cutoff floor of 16 cells
    @pytest.mark.parametrize("lx, nx", [(16 * np.pi, 128), (32 * np.pi, 256)])
    def test_pi_boxes_bit_identical(self, lx, nx):
        xs, step, h = self.box(lx, nx)
        vals, ref = self.compare(xs, step, h, 16.0 * step)
        assert np.array_equal(vals, ref)

    # where the x array's step differs from step at roundoff, so do the
    # values; the window nodes are the same
    @pytest.mark.parametrize("epsilon", [0.3, 0.7])
    @pytest.mark.parametrize("k", range(8))
    def test_ladder_off_the_dyadic_fractions(self, epsilon, k):
        xs, step, n = self.ladder(epsilon, k)
        vals, ref = self.compare(xs, step, n, epsilon)
        assert vals.shape == ref.shape
        assert np.all(np.abs(vals - ref) <= 1e-10 * np.abs(ref))

    @pytest.mark.parametrize("lx, nx", [(20.0, 64), (40.0, 128)])
    def test_boxes_off_pi(self, lx, nx):
        xs, step, h = self.box(lx, nx)
        vals, ref = self.compare(xs, step, h, 16.0 * step)
        assert vals.shape == ref.shape
        assert np.all(np.abs(vals - ref) <= 1e-10 * np.abs(ref))


def test_gauss_legendre_rule_computed_once_and_read_only():
    # the module constants are leggauss's rule, bit for bit, and read-only
    gx, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
    assert np.array_equal(_GL_NODES.view(np.uint64), gx.view(np.uint64))
    assert np.array_equal(_GL_WEIGHTS.view(np.uint64), gw.view(np.uint64))
    for rule in (_GL_NODES, _GL_WEIGHTS):
        with pytest.raises(ValueError):
            rule[0] = 0.0


class TestPhaseBounds:
    def test_closed_form_constant(self):
        assert abs(phase_bound(0.5, 1.0, 1.0) - math.sqrt(8.0)) < 1e-14

    def test_zero_time(self):
        assert phase_bound(0.3, 5.0, 0.0) == 0.0

    def test_scaling_in_eta(self):
        # (eta^2 t)^b doubles when eta^2 quadruples at b = 1/2
        assert abs(phase_bound(0.5, 2.0, 1.0) - 2.0 * math.sqrt(8.0)) < 1e-13

    def test_out_of_range_order(self):
        for b in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                phase_bound(b, 1.0, 1.0)


class TestIncrementRatios:
    @staticmethod
    def ratios_of(increments, first=1.0):
        """The norm ratios of a ladder whose squared norms start at `first`
        and grow by `increments`."""
        sq = np.cumsum([first] + list(increments))
        return list(np.sqrt(sq[1:] / sq[:-1]))

    def test_constant_increments_read_one(self):
        q = increment_ratios(self.ratios_of([2.0, 2.0, 2.0, 2.0], first=3.0))
        np.testing.assert_allclose(q, 1.0, rtol=1e-13)
        assert diverges(self.ratios_of([2.0, 2.0, 2.0, 2.0], first=3.0))

    def test_halving_increments_read_one_half(self):
        ratios = self.ratios_of([1.0, 0.5, 0.25, 0.125], first=5.0)
        np.testing.assert_allclose(increment_ratios(ratios), 0.5, rtol=1e-13)
        assert not diverges(ratios)

    def test_vanishing_increment_reads_zero(self):
        assert increment_ratios([1.0, 1.0, 1.0]) == [0.0, 0.0]
        assert not diverges([1.0, 1.0, 1.0])

    def test_verdict_reads_the_last_two(self):
        # the first increment ratio is 0.5 and the last two are 1: divergent;
        # a three-level ladder has one increment ratio, and it alone decides
        assert diverges(self.ratios_of([4.0, 2.0, 2.0, 2.0]))
        assert not diverges(self.ratios_of([2.0, 2.0, 2.0, 1.0]))
        assert diverges(self.ratios_of([1.0, 0.8]))
        assert not diverges(self.ratios_of([1.0, 0.7]))


class TestRefineDivergence:
    def test_heaviside_divergent(self):
        rep = refine_divergence(lambda x: (x >= 0).astype(float), 0.5, 5)
        assert rep.verdict == "divergent"
        assert all(r > 1.10 for r in rep.ratios[-2:])
        assert all(q > DIVERGENCE_THRESHOLD for q in increment_ratios(rep.ratios)[-2:])

    def test_heaviside_divergent_at_depth(self):
        # at 7 levels the last two norm ratios (1.0981, 1.0822) have fallen
        # towards 1, while the increments of the squared norms approach the
        # closed form 2 ln 2 |J|^2 of a unit jump, so their ratio tends to 1
        rep = refine_divergence(lambda x: (x >= 0).astype(float), 0.5, 7)
        assert rep.verdict == "divergent"
        assert all(r < 1.10 for r in rep.ratios[-2:])
        q = increment_ratios(rep.ratios)
        assert all(1.0 < x < 1.01 for x in q[-2:])
        increments = np.diff(np.square(rep.levels))
        slope = 2.0 * math.log(2.0)
        assert np.all(np.diff(increments) > 0.0)
        assert 0.99 * slope < increments[-1] < slope

    def test_smooth_bump_convergent(self):
        rep = refine_divergence(lambda x: np.exp(-8.0 * x**2), 0.5, 6)
        assert rep.verdict == "convergent"
        assert all(0.5 < q < 0.51 for q in increment_ratios(rep.ratios)[-2:])

    def test_narrow_ramp_divergent_wide_ramp_not(self):
        def ramp(w):
            return lambda x: np.clip(x / w, -1.0, 1.0)

        narrow = refine_divergence(ramp(0.01), 0.5, 5)
        assert narrow.verdict == "divergent"
        assert all(q > 0.95 for q in increment_ratios(narrow.ratios)[-2:])
        wide = refine_divergence(ramp(1.5), 0.5, 6)
        assert wide.verdict == "convergent"
        assert all(q < 0.51 for q in increment_ratios(wide.ratios)[-2:])

    def test_zero_function(self):
        rep = refine_divergence(lambda x: np.zeros_like(x), 0.5, 4)
        assert rep.verdict == "convergent"
        assert all(v == 0.0 for v in rep.levels)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            refine_divergence(lambda x: np.zeros_like(x), 0.5, 2)


class TestRefinementLadder:
    def test_split_slice_weights_add_exactly(self):
        def step_fn(xs):
            return (xs >= 0).astype(float)

        one = refinement_ladder(lambda xs: step_fn(xs)[None], [1.0], 0.5, 3, 1.0)
        two = refinement_ladder(
            lambda xs: np.stack([step_fn(xs), step_fn(xs)]), [0.5, 0.5], 0.5, 3, 1.0
        )
        assert one == two

    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="3 refinement levels"):
            refinement_ladder(lambda xs: np.zeros_like(xs)[None], [1.0], 0.5, 2, 1.0)


class TestUniformCubicSpline:
    """The four-point local cubic that reads the log band."""

    @staticmethod
    def local_cubic(fs, t):
        return cubic_combine(cubic_basis(t, fs.shape[-1]), fs)

    def test_reproduces_cubic_in_interior(self):
        def p(x):
            return 0.1 * x**3 + x + 10.0

        xs = 0.1 * np.arange(-100, 101)
        # off-grid points at least 40 cells from either end
        q = np.linspace(-5.96, 5.96, 77) + 0.0123
        np.testing.assert_allclose(
            self.local_cubic(p(xs), (q - xs[0]) / 0.1), p(q), rtol=1e-12, atol=0.0
        )

    def test_node_values_are_the_samples(self):
        n = 601
        rng = np.random.default_rng(5)
        fs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # every node whose cell has all four of its nodes in the array
        nodes = np.arange(1, n - 2)
        vals = self.local_cubic(fs, nodes.astype(np.float64))
        assert np.array_equal(vals.view(np.uint64), fs[nodes].view(np.uint64))

    def test_query_near_either_end_raises(self):
        fs = np.sin(0.01 * np.arange(601))
        # cells 1 .. 598 have nodes 0 .. 600 around them
        self.local_cubic(fs, np.array([1.0, 598.999]))
        for t in (-0.5, 0.0, 0.999, 599.0, 599.5, 600.0):
            with pytest.raises(ValueError, match="four samples"):
                self.local_cubic(fs, np.array([300.0, t]))


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
