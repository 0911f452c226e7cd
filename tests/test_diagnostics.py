import math

import numpy as np
import pytest

from bozk import fields
from bozk.diagnostics import (
    _dx_power,
    algebra_ratio,
    commutator_ratio,
    conservation_report,
    half_derivative_commutator_ratio,
    interpolation_ratio,
    norm,
    trilinear_ratio,
)
from bozk.grid import RealField, forward, make_grid
from bozk.operators import NormSpec, fractional_op, sobolev_weight
from bozk.solver import SolverConfig, run
from bozk.weights import WeightSpec

TWO_PI = 2.0 * np.pi


def smooth_family(grid, seed, count):
    return [fields.random_smooth(grid, seed + k) for k in range(count)]


class TestNorms:
    def test_h1_of_cosine(self):
        # single-mode Plancherel: ||cos||^2 = 2 pi^2, weight (1+xi^2+eta^2) = 2
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x))
        assert abs(norm(u, NormSpec.hs(1.0)) - TWO_PI) < 1e-12

    def test_three_paths_agree_at_order_zero(self):
        g = make_grid(32, 32, 7.0, 7.0)
        u = fields.random_smooth(g, 1)
        a = norm(u, NormSpec.hs(0.0))
        b = norm(u, NormSpec.l2r(0.0))
        c = u.l2()
        assert abs(a - c) < 1e-12 * c and abs(b - c) < 1e-12 * c

    def test_aniso_of_cosine(self):
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x))
        expect = math.sqrt(6.0 * 2.0 * math.pi**2)
        assert abs(norm(u, NormSpec.aniso(2.0, 2.0)) - expect) < 1e-12

    def test_monotone_in_s(self):
        g = make_grid(32, 32, 9.0, 9.0)
        u = fields.random_smooth(g, 2)
        vals = [norm(u, NormSpec.hs(s)) for s in np.arange(0.0, 4.5, 0.5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zsr_pythagorean(self):
        g = make_grid(32, 32, 9.0, 9.0)
        u = fields.random_smooth(g, 3)
        z = norm(u, NormSpec.zsr(2.0, 1.0))
        h = norm(u, NormSpec.hs(2.0))
        l = norm(u, NormSpec.l2r(1.0))
        assert abs(z**2 - h**2 - l**2) < 1e-10 * z**2

    @pytest.mark.parametrize("spec", [
        NormSpec.hs(2.5),
        NormSpec.aniso(3.0, 2.5),
        NormSpec.l2r(1.5),
        NormSpec.zsr(4.0, 1.0),
        NormSpec.l2w(WeightSpec.truncated(4)),
        NormSpec.l2w(WeightSpec.damped(0.5, 0.1)),
    ], ids=NormSpec.label)
    def test_rows_match_definitions(self, spec):
        # one Fourier row plus one spatial row reads each norm as its
        # definition does: Parseval sums per Fourier weight, grid sums per w^2
        g = make_grid(48, 32, 16 * np.pi, 8 * np.pi)
        u = fields.random_smooth(g, 5, amplitude=0.5)
        F = forward(u)
        poly = lambda r: WeightSpec.polynomial(r).evaluate(g.xmesh, g.ymesh) ** 2
        if spec.kind == "hs":
            ref = F.l2(sobolev_weight(g, "J", spec.s))
        elif spec.kind == "aniso":
            parts = [F.l2(), F.l2(sobolev_weight(g, "J_x", spec.s1)),
                     F.l2(sobolev_weight(g, "J_y", spec.s2))]
            ref = math.sqrt(sum(p * p for p in parts))
        elif spec.kind == "l2r":
            ref = u.l2(poly(spec.r))
        elif spec.kind == "zsr":
            ref = math.hypot(F.l2(sobolev_weight(g, "J", spec.s)), u.l2(poly(spec.r)))
        else:
            ref = u.l2(spec.weight.evaluate(g.xmesh, g.ymesh) ** 2)
        assert abs(norm(u, spec) - ref) <= 1e-14 * ref

    def test_labels_and_kinds(self):
        assert [spec.label() for spec in (
            NormSpec.hs(2.0), NormSpec.aniso(3.0, 2.5), NormSpec.l2r(1.0),
            NormSpec.zsr(4.0, 1.5), NormSpec.l2w(WeightSpec.truncated(8)),
        )] == ["hs_2", "aniso_3_2.5", "l2r_1", "zsr_4_1.5", "l2w_trunc8"]
        with pytest.raises(ValueError, match="unknown norm kind"):
            NormSpec(kind="h1")
        with pytest.raises(ValueError, match="r must be >= 0"):
            NormSpec.zsr(2.0, -1.0)

    def test_l2w_matches_l2r_for_polynomial(self):
        g = make_grid(32, 32, 9.0, 9.0)
        u = fields.random_smooth(g, 4)
        a = norm(u, NormSpec.l2r(1.5))
        b = norm(u, NormSpec.l2w(WeightSpec.polynomial(1.5)))
        assert abs(a - b) < 1e-12 * a


class TestConservationReport:
    def test_linear_run_drifts_at_roundoff(self):
        g = make_grid(48, 48, 16 * np.pi, 16 * np.pi)
        phi = fields.dx_gaussian(g, amplitude=0.5)
        cfg = SolverConfig(dt=1e-3, t_final=0.05, mu=0.0, stride=10, nonlinear=False)
        rep = conservation_report(run(phi, cfg).series)
        assert rep.l2_drift < 1e-12
        assert rep.zero_mode_drift < 1e-13
        assert rep.moment_residual < 1e-2

    def test_dissipative_series_rejected(self):
        g = make_grid(32, 32, 12.0, 12.0)
        phi = fields.gaussian(g, 0.2, 1.0, 1.0)
        series = run(phi, SolverConfig(dt=1e-3, t_final=0.01, mu=0.1, stride=5)).series
        with pytest.raises(ValueError):
            conservation_report(series)


@pytest.fixture(scope="module")
def grid():
    return make_grid(48, 48, 20.0, 20.0)


class TestRatios:

    def test_interpolation_scale_invariance_exact(self, grid):
        f = fields.random_smooth(grid, 5)
        a = interpolation_ratio(f, 2.0, 1.0, 0.5)
        b = interpolation_ratio(RealField(grid, -7.0 * f.samples), 2.0, 1.0, 0.5)
        assert abs(a - b) <= 1e-13 * a

    def test_commutator_bihomogeneous(self, grid):
        a_field = fields.random_smooth(grid, 6)
        f = fields.random_smooth(grid, 7)
        base = commutator_ratio(a_field, f, 1, 1)
        s1 = commutator_ratio(RealField(grid, 2.0 * a_field.samples), f, 1, 1)
        s2 = commutator_ratio(a_field, RealField(grid, 2.0 * f.samples), 1, 1)
        assert abs(base - s1) <= 1e-13 * base
        assert abs(base - s2) <= 1e-13 * base

    def test_algebra_degree_two_homogeneous(self, grid):
        u = fields.random_smooth(grid, 8)
        v = fields.random_smooth(grid, 9)
        a = algebra_ratio(u, v, 3.0, 3.0)
        b = algebra_ratio(RealField(grid, 11.0 * u.samples), v, 3.0, 3.0)
        assert abs(a - b) <= 1e-13 * a

    def test_trilinear_pairing_matches_physical_space(self, grid):
        # the Parseval pairing on the aniso row equals the physical-space sum
        # of J_x^s1, J_y^s2 products
        u = fields.random_smooth(grid, 8)
        w = RealField(grid, u.samples * _dx_power(u, 1).samples)

        def pair(a, b):
            return float(np.sum(a.samples * b.samples) * grid.cell_area)

        lhs = abs(pair(u, w) + pair(fractional_op(u, "J_x", 3.0), fractional_op(w, "J_x", 3.0))
                  + pair(fractional_op(u, "J_y", 2.5), fractional_op(w, "J_y", 2.5)))
        ref = lhs / norm(u, NormSpec.aniso(3.0, 2.5)) ** 3
        assert abs(trilinear_ratio(u, 3.0, 2.5) - ref) <= 1e-13 * ref

    def test_trilinear_degree_three_homogeneous(self, grid):
        u = fields.random_smooth(grid, 10)
        a = trilinear_ratio(u, 3.0, 2.5)
        b = trilinear_ratio(RealField(grid, 3.0 * u.samples), 3.0, 2.5)
        assert abs(a - b) <= 1e-12 * max(a, 1e-12)

    def test_regression_ceilings_two_seeds(self, grid):
        # recorded ceilings; both seeds must stay below them
        ceilings = {
            "interpolation": 1.2,
            "commutator": 1.5,
            "algebra": 0.5,
            "trilinear": 0.1,
            "d_half": 0.2,
        }
        for seed in (100, 4242):
            fam = smooth_family(grid, seed, 50)
            worst = dict.fromkeys(ceilings, 0.0)
            for i, f in enumerate(fam):
                a = fam[(i + 1) % len(fam)]
                worst["interpolation"] = max(
                    worst["interpolation"], interpolation_ratio(f, 2.0, 1.0, 0.5)
                )
                worst["commutator"] = max(worst["commutator"], commutator_ratio(a, f, 1, 1))
                worst["algebra"] = max(worst["algebra"], algebra_ratio(f, a, 3.0, 3.0))
                worst["trilinear"] = max(worst["trilinear"], trilinear_ratio(f, 3.0, 2.5))
                worst["d_half"] = max(
                    worst["d_half"], half_derivative_commutator_ratio(a, f)
                )
            for kind, ceiling in ceilings.items():
                assert worst[kind] <= ceiling, (seed, kind, worst[kind])

    def test_truncated_weight_uniformity(self, grid):
        f = fields.random_smooth(grid, 11)
        base = interpolation_ratio(f, 2.0, 1.0, 0.5, weight=WeightSpec.truncated(8))
        per_n = [
            interpolation_ratio(f, 2.0, 1.0, 0.5, weight=WeightSpec.truncated(n))
            for n in (4, 8, 16, 32)
        ]
        assert max(per_n) <= 1.1 * base

    def test_ratios_positive(self, grid):
        f = fields.random_smooth(grid, 12)
        a = fields.random_smooth(grid, 13)
        assert interpolation_ratio(f, 2.0, 1.0, 0.5) > 0
        assert commutator_ratio(a, f, 1, 1) > 0
        assert algebra_ratio(f, a, 3.0, 3.0) > 0
        assert trilinear_ratio(f, 3.0, 2.5) > 0
        assert half_derivative_commutator_ratio(a, f) > 0

    def test_preconditions(self, grid):
        f = fields.random_smooth(grid, 14)
        with pytest.raises(ValueError):
            interpolation_ratio(f, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            commutator_ratio(f, f, 0, 0)
        with pytest.raises(ValueError):
            commutator_ratio(f, f, 2, 2)
        with pytest.raises(ValueError):
            trilinear_ratio(f, 2.0, 1.5)
        with pytest.raises(ValueError):
            algebra_ratio(RealField.zeros(grid), f, 3.0, 3.0)
