import math

import numpy as np
import pytest

from bozk import fields, solver
from bozk.diagnostics import norm
from bozk.grid import RealField, inverse, make_grid
from bozk.operators import NormSpec
from bozk.solver import SolverConfig, run
from bozk.stein import PROBE_R_OUTER, probe_window
from bozk.uc import (
    B1_ETA_TARGETS,
    CutoffSpec,
    _semidiscrete_rows,
    b1_indicator,
    domain_growth_study,
    moment_drift,
    obstruction_density,
    persistence_scan,
    spectrum_tail_ratio,
)

L16 = 16 * np.pi


class TestCutoff:
    def test_plateau_support_range(self):
        cut = CutoffSpec(0.5)
        xi = np.linspace(-1.0, 1.0, 4001)
        v = cut.chi_tilde(xi)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(v[np.abs(xi) >= 0.5] == 0.0)
        assert np.all(v[np.abs(xi) <= 0.249] == 1.0)

    def test_eta_factor(self):
        cut = CutoffSpec(1.0)
        assert abs(cut.chi(np.array(0.0), np.array(2.0)) - np.exp(-4.0)) < 1e-14

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CutoffSpec(0.0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(128, 128, L16, L16)


def per_slice_level_norms(phi, t, levels=4):
    """b1_indicator's level norms from the per-slice loop: one kern @ col
    transform and one probe_window call per eta slice."""
    cut = CutoffSpec()
    rows = _semidiscrete_rows(phi, B1_ETA_TARGETS)
    etas, uniq = np.unique([e for e, _ in rows], return_index=True)
    d = np.diff(etas)
    wts = np.concatenate([[d[0] / 2], (d[:-1] + d[1:]) / 2, [d[-1] / 2]])
    g = phi.grid
    window = 0.5 * cut.epsilon
    norms = []
    for k in range(levels):
        step = cut.epsilon / 16.0 * 0.5**k
        n = math.ceil((window + PROBE_R_OUTER + 8.0 * step) / step)
        xi = step * np.arange(-n, n + 1)
        kern = np.exp(-1j * np.outer(xi, g.x)) * g.dx
        total = 0.0
        for w, idx in zip(wts, uniq):
            eta, col = rows[idx]
            f = (2.0 * t * cut.chi(xi, eta) * np.exp(1j * t * xi * (eta**2 - np.abs(xi)))
                 * np.sign(xi) * (kern @ col))
            vals = probe_window(xi, f, 0.5, step, window)
            total += w * float(np.sum(vals**2) * step)
        norms.append(math.sqrt(total))
    return norms


class TestB1Indicator:
    @pytest.mark.parametrize("family", ["gaussian", "dx_gaussian"])
    def test_level_norms_match_per_slice_loop(self, grid, family):
        phi = getattr(fields, family)(grid, amplitude=1.0)
        rep = b1_indicator(phi, 0.5)
        ref = per_slice_level_norms(phi, 0.5)
        got = [l.window_norm for l in rep.levels]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_gaussian_obstructed(self, grid, t):
        phi = fields.gaussian(grid, amplitude=1.0)
        assert b1_indicator(phi, t).verdict == "obstructed"

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_dx_gaussian_persists(self, grid, t):
        phi = fields.dx_gaussian(grid, amplitude=1.0)
        assert b1_indicator(phi, t).verdict == "persists"

    def test_zero_field_persists(self, grid):
        rep = b1_indicator(RealField.zeros(grid), 0.5)
        assert rep.verdict == "persists"
        assert all(l.window_norm == 0.0 for l in rep.levels)

    def test_amplitude_invariance(self, grid):
        phi = fields.gaussian(grid, amplitude=1.0)
        scaled = RealField(grid, 13.7 * phi.samples)
        a = b1_indicator(phi, 0.5)
        b = b1_indicator(scaled, 0.5)
        assert a.verdict == b.verdict == "obstructed"
        assert np.allclose(a.ratios, b.ratios, rtol=1e-12)

    def test_derivative_family_persists(self, grid):
        for sx, sy in ((1.2, 1.6), (2.0, 1.0)):
            phi = fields.dx_gaussian(grid, amplitude=0.7, sigma_x=sx, sigma_y=sy)
            assert b1_indicator(phi, 0.3).verdict == "persists"

    def test_derivative_of_seeded_family_persists(self, grid):
        # x-derivatives of arbitrary smooth decaying fields carry no x-mean
        from bozk.grid import SpectrumField, forward, inverse

        for seed in (21, 22, 23):
            # envelope tight enough that the box boundary carries no mass
            g0 = fields.random_smooth(
                grid, seed, spectral_width=0.6, envelope_width=3.5
            )
            phi = inverse(
                SpectrumField(grid, 1j * grid.xi2 * forward(g0).coeffs)
            )
            assert b1_indicator(phi, 0.5).verdict == "persists"

    def test_colliding_eta_targets(self):
        # eta spacing 1: the nine targets snap onto five distinct grid etas
        g = make_grid(128, 16, L16, 2 * np.pi)
        etas = {e for e, _ in _semidiscrete_rows(RealField.zeros(g), B1_ETA_TARGETS)}
        assert sorted(etas) == [-2.0, -1.0, 0.0, 1.0, 2.0]

        def bump(x, y):
            return np.exp(-x**2 / 4.5) * (1 + np.cos(y) / 2)

        def dx_bump(x, y):
            return -2 * x / 4.5 * bump(x, y)

        assert b1_indicator(RealField.from_function(g, bump), 0.5).verdict == "obstructed"
        assert b1_indicator(RealField.from_function(g, dx_bump), 0.5).verdict == "persists"

    def test_unresolved_spectrum_rejected(self):
        g = make_grid(32, 32, L16, L16)
        phi = fields.gaussian(g, amplitude=1.0, sigma_x=0.4, sigma_y=0.4)
        assert spectrum_tail_ratio(phi) > 1e-8
        with pytest.raises(ValueError, match="not resolved"):
            b1_indicator(phi, 0.5)

    def test_preconditions(self, grid):
        phi = fields.gaussian(grid)
        with pytest.raises(ValueError):
            b1_indicator(phi, 0.0)
        with pytest.raises(ValueError):
            b1_indicator(phi, 0.5, levels=2)


class TestPersistenceScan:
    def test_r_zero_reduces_to_l2_series(self, monkeypatch):
        g = make_grid(64, 64, L16, L16)
        phi = fields.dx_gaussian(g, amplitude=0.4)
        cfg = SolverConfig(dt=2e-3, t_final=0.1, mu=0.0, stride=10)
        seen = []

        def spy(F):
            seen.append(inverse(F))
            return seen[-1]

        monkeypatch.setattr(solver, "inverse", spy)
        table = persistence_scan(phi, cfg, [0.0], 2.0)
        # Z_{2,0}^2 is ||u||_{H^2}^2 plus the conserved ||u||^2
        hs2 = [norm(u, NormSpec.hs(2.0)) ** 2 for u in seen[: len(table.t)]]
        w0 = np.sqrt(table.series[0.0] ** 2 - hs2)
        assert np.max(np.abs(w0 - table.raw.l2)) < 1e-12 * table.raw.l2[0]
        assert np.max(np.abs(w0 - w0[0])) / w0[0] < 1e-10

    def test_bounded_series_mean_zero_data(self):
        g = make_grid(96, 96, L16, L16)
        phi = fields.dx_gaussian(g, amplitude=0.3)
        cfg = SolverConfig(dt=1e-3, t_final=0.2, mu=0.0, stride=20)
        table = persistence_scan(phi, cfg, [1.0, 2.0, 3.0], 6.0)
        for row in table.rows:
            assert not row.flagged, row
            assert np.all(np.isfinite(table.series[row.r]))

    def test_precondition_balance(self):
        g = make_grid(32, 32, 12.0, 12.0)
        phi = fields.dx_gaussian(g, 0.2, 1.0, 1.0)
        cfg = SolverConfig(dt=1e-2, t_final=0.05)
        with pytest.raises(ValueError):
            persistence_scan(phi, cfg, [2.0], 3.0)  # s < 2r
        with pytest.raises(ValueError):
            persistence_scan(phi, cfg, [3.6], 8.0)  # r out of range


class TestMomentDrift:
    def test_slope_matches_prediction(self):
        g = make_grid(128, 128, L16, L16)
        phi = fields.dx_gaussian(g, amplitude=0.6)
        series = run(phi, SolverConfig(dt=1e-3, t_final=0.3, mu=0.0, stride=30)).series
        md = moment_drift(series)
        assert md.rel_error < 5e-3  # 16pi box floor; the tight 1e-3 case runs on 24pi in acceptance
        assert md.zero_crossings == 0

    def test_zero_data(self):
        g = make_grid(32, 32, 10.0, 10.0)
        series = run(RealField.zeros(g), SolverConfig(dt=0.01, t_final=0.05, stride=1)).series
        md = moment_drift(series)
        assert md.slope == 0.0
        assert md.zero_crossings == 0

    def test_single_crossing_for_negative_start(self):
        g = make_grid(128, 128, L16, L16)

        def mixed(x, y):
            return -0.8 * x * np.exp(-(x**2 + y**2) / (2 * 1.2**2)) + 0.3 * np.exp(
                -((x - 3.5) ** 2 + y**2) / (2 * 1.2**2)
            )

        phi = RealField.from_function(g, mixed)
        series = run(phi, SolverConfig(dt=2e-3, t_final=2.0, mu=0.0, stride=50)).series
        md = moment_drift(series)
        assert series.moment_x[0] < 0 < series.moment_x[-1]
        assert md.zero_crossings == 1

    def test_needs_enough_records(self):
        g = make_grid(32, 32, 10.0, 10.0)
        series = run(
            fields.gaussian(g, 0.1, 1.0, 1.0),
            SolverConfig(dt=0.01, t_final=0.02, stride=100),
        ).series
        with pytest.raises(ValueError):
            moment_drift(series)

    def test_dissipative_series_rejected(self):
        g = make_grid(32, 32, 10.0, 10.0)
        series = run(
            fields.gaussian(g, 0.1, 1.0, 1.0),
            SolverConfig(dt=0.01, t_final=0.1, mu=0.1, stride=2),
        ).series
        with pytest.raises(ValueError):
            moment_drift(series)


class TestDomainGrowth:
    def test_dichotomy_small(self):
        base = make_grid(64, 64, L16, L16)
        cfg = SolverConfig(dt=2e-3, t_final=0.2, mu=0.0, stride=50)
        rep = domain_growth_study(
            lambda g: fields.gaussian(g, amplitude=0.75, sigma_x=1.2, sigma_y=1.2),
            base,
            cfg,
            doublings=1,
            cut=CutoffSpec(2.0),
        )
        assert rep.factors[2.5][0] >= 1.5
        assert abs(rep.factors[2.0][0] - 1.0) <= 0.10

    def test_obstruction_density_orders(self):
        g = make_grid(64, 64, L16, L16)
        u = fields.gaussian(g, amplitude=1.0)
        with pytest.raises(ValueError):
            obstruction_density(u, 3.2)
        assert obstruction_density(u, 2.0, CutoffSpec(2.0)) > 0.0
