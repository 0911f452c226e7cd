import math
import tracemalloc

import numpy as np
import pytest

from bozk import fields, solver, uc
from bozk.diagnostics import norm
from bozk.grid import RealField, forward, inverse, make_grid, xi_line
from bozk.operators import NormSpec, dispersion
from bozk.solver import SolverConfig, run
from bozk.stein import PROBE_R_OUTER, probe_window
from bozk.uc import (
    B1_ETA_TARGETS,
    DENSITY_ETA_TARGETS,
    CutoffSpec,
    _eta_rows,
    b1_indicator,
    domain_growth_study,
    moment_drift,
    obstruction_density,
    persistence_scan,
    spectrum_tail_ratio,
)

L16 = 16 * np.pi


class TestCutoff:
    # the widths that the default, configs/uc.cfg, the test manifests and
    # domain_growth_study's floor on a 16pi box build
    @pytest.mark.parametrize("eps", [0.5, 0.75, 1.0, 2.0])
    def test_plateau_support_range(self, eps):
        xi = np.linspace(-2.0 * eps, 2.0 * eps, 4001)
        v = CutoffSpec(eps).chi_tilde(xi)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(v[np.abs(xi) >= eps] == 0.0)
        assert np.all(v[np.abs(xi) <= 0.5 * eps - 1e-12] == 1.0)

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
    transform and one probe_window call per eta slice, on the partial
    y-transform of the whole field read at the nearest grid eta of each
    target."""
    cut = CutoffSpec()
    g = phi.grid
    col = np.fft.fft(phi.samples, axis=0) * (g.dy * (-1.0) ** g.my)[:, None]
    nearest = [int(np.argmin(np.abs(g.eta - target))) for target in B1_ETA_TARGETS]
    etas, uniq = np.unique(g.eta[nearest], return_index=True)
    d = np.diff(etas)
    wts = np.concatenate([[d[0] / 2], (d[:-1] + d[1:]) / 2, [d[-1] / 2]])
    window = 0.5 * cut.epsilon
    norms = []
    for k in range(levels):
        step = cut.epsilon / 16.0 * 0.5**k
        n = math.ceil((window + PROBE_R_OUTER + 8.0 * step) / step)
        xi = step * np.arange(-n, n + 1)
        kern = np.exp(-1j * np.outer(xi, g.x)) * g.dx
        total = 0.0
        for w, eta, idx in zip(wts, etas, uniq):
            f = (2.0 * t * cut.chi(xi, eta) * np.exp(1j * t * xi * (eta**2 - np.abs(xi)))
                 * np.sign(xi) * (kern @ col[nearest[idx]]))
            vals = probe_window(xi, f, 0.5, step, cut.epsilon)
            total += w * float(np.sum(vals**2) * step)
        norms.append(math.sqrt(total))
    return norms


def per_row_density(u, r, cut):
    """obstruction_density from one probe_window call (or one masked max at
    b = 0) per eta target."""
    b = r - 2.0
    g = u.grid
    F = forward(u)
    window = 0.5 * cut.epsilon
    peak = 0.0
    for target in DENSITY_ETA_TARGETS:
        n = int(np.argmin(np.abs(g.eta - target)))
        xi, line = xi_line(F, n)
        q = cut.chi(xi, float(g.eta[n])) * np.sign(xi) * line
        if b == 0.0:
            sel = (np.abs(xi) > 0) & (np.abs(xi) <= window)
            val = float(np.max(np.abs(q[sel]) ** 2))
        else:
            vals = probe_window(xi, q, b, 2.0 * np.pi / g.lx, cut.epsilon)
            val = float(np.max(vals**2))
        peak = max(peak, val)
    return peak


class TestB1Indicator:
    @pytest.mark.parametrize("family", ["gaussian", "dx_gaussian"])
    def test_level_norms_match_per_slice_loop(self, grid, family):
        phi = getattr(fields, family)(grid, amplitude=1.0)
        rep = b1_indicator(phi, 0.5)
        ref = per_slice_level_norms(phi, 0.5)
        np.testing.assert_allclose(rep.levels, ref, rtol=1e-13, atol=0.0)

    def test_phase_is_the_dispersion_relation(self, grid, monkeypatch):
        # an off-centre gaussian has a complex transform, so a flipped
        # dispersion sign changes the slices beyond conjugating them
        phi = fields.gaussian(grid, amplitude=1.0, center_x=0.7)
        ref = b1_indicator(phi, 0.5).levels
        monkeypatch.setattr(uc, "dispersion", lambda xi, eta: -dispersion(xi, eta))
        flipped = b1_indicator(phi, 0.5).levels
        assert not np.allclose(flipped, ref, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_gaussian_obstructed(self, grid, t):
        phi = fields.gaussian(grid, amplitude=1.0)
        assert b1_indicator(phi, t).verdict == "obstructed"

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_dx_gaussian_persists(self, grid, t):
        phi = fields.dx_gaussian(grid, amplitude=1.0)
        assert b1_indicator(phi, t).verdict == "persists"

    def test_cutoff_width_off_the_dyadic_fractions(self, grid):
        # epsilon = 0.3 gives ladder steps that are not dyadic fractions; at
        # 7 levels the window nodes lie more than 1e-9 cells off the float
        # model xs[0] + k (xs[1] - xs[0]) of the grid, and the indicator
        # still reads them
        phi = fields.dx_gaussian(grid, amplitude=1.0)
        rep = b1_indicator(phi, 0.5, CutoffSpec(0.3), levels=7)
        assert len(rep.levels) == 7
        assert rep.verdict == "persists"

    def test_zero_field_persists(self, grid):
        rep = b1_indicator(RealField.zeros(grid), 0.5)
        assert rep.verdict == "persists"
        assert all(v == 0.0 for v in rep.levels)

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
        assert [g.eta[n] for n in _eta_rows(g, B1_ETA_TARGETS)] == [-2.0, -1.0, 0.0, 1.0, 2.0]

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


def finest_level_points(levels, epsilon=0.5):
    """The xi points of refinement_ladder's finest level."""
    step = epsilon / 16.0 * 0.5 ** (levels - 1)
    return 2 * math.ceil((0.5 * epsilon + PROBE_R_OUTER + 8.0 * step) / step) + 1


class TestBlockedSlices:
    """b1_indicator's slices, built _SLICE_POINTS xi points at a time."""

    @pytest.mark.parametrize("block", [7, None, 1000])
    def test_ratios_equal_one_block_bit_for_bit(self, grid, monkeypatch, block):
        # at 5 levels the finest level's 2321 xi points span ten default
        # blocks; an off-centre gaussian has a complex transform
        assert finest_level_points(5) > 8 * uc._SLICE_POINTS
        phi = fields.gaussian(grid, amplitude=1.0, center_x=0.7)
        if block is not None:
            monkeypatch.setattr(uc, "_SLICE_POINTS", block)
        blocked = b1_indicator(phi, 0.5, levels=5)
        monkeypatch.setattr(uc, "_SLICE_POINTS", finest_level_points(5) + 1)
        whole = b1_indicator(phi, 0.5, levels=5)
        assert blocked.levels == whole.levels
        assert blocked.ratios == whole.ratios

    def test_peak_above_the_finest_stack_stays_bounded(self, grid):
        # the level's (S, P) stack grows with P; the rest is a block's
        # temporaries and the quadrature's, under 2.5 MB from 4 to 6 levels
        # (a (P, nx) kernel alone is 2.4 MB at 4 levels and 9.5 MB at 6)
        phi = fields.gaussian(grid, amplitude=1.0)
        rows = len(uc._eta_rows(grid, B1_ETA_TARGETS))
        for levels in (4, 5, 6):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                b1_indicator(phi, 0.5, levels=levels)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            stack = rows * finest_level_points(levels) * 16
            assert peak - stack < 2.5 * 2**20, (levels, peak, stack)


class TestPersistenceScan:
    def test_r_zero_reduces_to_l2_series(self, monkeypatch):
        g = make_grid(64, 64, L16, L16)
        phi = fields.dx_gaussian(g, amplitude=0.4)
        cfg = SolverConfig(dt=2e-3, t_final=0.1, mu=0.0, stride=10)
        seen = []

        def spy(F, *work):
            seen.append(inverse(F))
            return inverse(F, *work)

        monkeypatch.setattr(solver, "inverse", spy)
        table = persistence_scan(phi, cfg, [0.0], 2.0)
        # Z_{2,0}^2 is ||u||_{H^2}^2 plus the conserved ||u||^2
        assert len(seen) == len(table.t)
        hs2 = [norm(u, NormSpec.hs(2.0)) ** 2 for u in seen]
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
    @staticmethod
    def small_study(**kwargs):
        return domain_growth_study(
            lambda g: fields.gaussian(g, amplitude=0.75, sigma_x=1.2, sigma_y=1.2),
            make_grid(64, 64, L16, L16),
            SolverConfig(dt=2e-3, t_final=0.2, mu=0.0, stride=50),
            doublings=1,
            **kwargs,
        )

    def test_dichotomy_small(self):
        rep = self.small_study(cut=CutoffSpec(2.0))
        assert rep.factors[2.5][0] >= 1.5
        assert abs(rep.factors[2.0][0] - 1.0) <= 0.10

    def test_default_cut_floors_to_sixteen_base_cells(self):
        # 16 dxi of the 16pi base box is 2; the default width 0.5 would leave
        # the base box's r = 5/2 window inside its four-cell floor
        rep = self.small_study()
        assert rep.obstructed[2.5] and rep.stable[2.0]
        assert rep.factors == self.small_study(cut=CutoffSpec(2.0)).factors

    def test_obstruction_density_empty_window_raises(self, grid):
        # on a 16pi box dxi = 1/8: the default plateau |xi| <= 1/4 is inside
        # the four-cell floor 1/2, and |xi| <= 1/10 holds no nonzero xi
        u = fields.gaussian(grid, amplitude=1.0)
        with pytest.raises(ValueError, match="probe window"):
            obstruction_density(u, 2.5)
        with pytest.raises(ValueError, match="no nonzero grid xi"):
            obstruction_density(u, 2.0, CutoffSpec(0.2))

    def test_obstruction_density_orders(self):
        g = make_grid(64, 64, L16, L16)
        u = fields.gaussian(g, amplitude=1.0)
        with pytest.raises(ValueError):
            obstruction_density(u, 3.2)
        assert obstruction_density(u, 2.0, CutoffSpec(2.0)) > 0.0

    @pytest.mark.parametrize("r", [2.0, 2.5])
    @pytest.mark.parametrize("ny, ly, distinct", [(128, L16, 3), (16, 2 * np.pi, 2)])
    def test_obstruction_density_matches_per_row_loop(self, r, ny, ly, distinct):
        # on the 2pi box eta steps by 1, so the targets 0 and 0.5 share a row
        g = make_grid(128, ny, L16, ly)
        assert len(_eta_rows(g, DENSITY_ETA_TARGETS)) == distinct
        u = RealField.from_function(
            g, lambda x, y: np.exp(-x**2 / 3.0) * (1.0 + 0.5 * np.cos(y)) * (1.0 + 0.3 * x)
        )
        cut = CutoffSpec(2.0)
        assert obstruction_density(u, r, cut) == per_row_density(u, r, cut)
