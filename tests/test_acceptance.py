"""Acceptance suite: the exit criteria of the package, one test per
criterion, each printing a PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from bozk import fields
from bozk.cli import EXIT_OK, execute
from bozk.diagnostics import (
    algebra_ratio,
    commutator_ratio,
    conservation_report,
    half_derivative_commutator_ratio,
    interpolation_ratio,
    trilinear_ratio,
)
from bozk.grid import RealField, forward, inverse, make_grid
from bozk.operators import propagate, smoothing_ratio
from bozk.solver import SolverConfig, picard_solve, run
from bozk.stein import SteinConfig, phase_bound, refine_divergence, stein_derivative
from bozk.uc import CutoffSpec, b1_indicator, domain_growth_study, persistence_scan
from bozk.weights import WeightSpec, a2_statistic
from helpers import dealias

L16 = 16.0 * math.pi


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def conservation_run():
    """mu = 0, 128^2 on [0, 16pi)^2, gaussian data, T = 0.5, dt = 5e-4."""
    grid = make_grid(128, 128, L16, L16)
    phi = fields.gaussian(grid, amplitude=1.0, sigma_x=1.5, sigma_y=1.5)
    cfg = SolverConfig(dt=5e-4, t_final=0.5, mu=0.0, stride=50)
    start = time.perf_counter()
    result = run(phi, cfg)
    elapsed = time.perf_counter() - start
    return grid, phi, result, elapsed


@pytest.fixture(scope="module")
def moment_grid():
    """Wider x-box for the moment law (see decisions ledger)."""
    grid = make_grid(192, 128, 24.0 * math.pi, L16)
    phi = fields.dx_gaussian(grid, amplitude=0.6, sigma_x=1.5, sigma_y=1.5)
    return grid, phi


def test_criterion_01_conservation(conservation_run):
    grid, phi, result, elapsed = conservation_run
    rep = conservation_report(result.series)
    ok = rep.l2_drift < 1e-8 and rep.zero_mode_drift < 1e-12 and elapsed < 60.0
    report(
        1,
        ok,
        f"L2 drift {rep.l2_drift:.2e} < 1e-8, zero-mode drift "
        f"{rep.zero_mode_drift:.2e} < 1e-12, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_02_moment_law(moment_grid):
    grid, phi = moment_grid
    half_sq = 0.5 * phi.l2() ** 2

    def slope(dt, t_final):
        # dense records average out the small bounded oscillation of M_x
        stride = max(1, int(round(0.01 / dt)))
        s = run(phi, SolverConfig(dt=dt, t_final=t_final, mu=0.0, stride=stride)).series
        return float(np.polyfit(s.t, s.moment_x, 1)[0])

    s_fine = slope(5e-4, 0.5)
    rel = abs(s_fine - half_sq) / half_sq
    law_ok = rel < 1e-3

    # integrator-order clause: slope error against a dt/8 reference
    strong = fields.dx_gaussian(grid, amplitude=2.0, sigma_x=1.5, sigma_y=1.5)

    def strong_slope(dt):
        stride = max(1, int(round(0.04 / dt)))
        s = run(strong, SolverConfig(dt=dt, t_final=0.4, mu=0.0, stride=stride)).series
        return float(np.polyfit(s.t, s.moment_x, 1)[0])

    ref = strong_slope(1.25e-3)
    e_coarse = abs(strong_slope(2e-2) - ref)
    e_half = abs(strong_slope(1e-2) - ref)
    order_ok = e_coarse >= 4.0 * e_half
    report(
        2,
        law_ok and order_ok,
        f"slope rel err {rel:.2e} < 1e-3; dt-halving shrink "
        f"{e_coarse / e_half:.1f}x >= 4x",
    )


def test_criterion_03_dissipation_ordering(conservation_run):
    grid, phi, base, _ = conservation_run

    def gap(a, b):
        return float(np.sqrt(np.sum((a.samples - b.samples) ** 2) * grid.cell_area))

    distances = {}
    monotone_ok = True
    for mu in (1e-2, 1e-3, 1e-4):
        res = run(phi, SolverConfig(dt=1e-3, t_final=0.5, mu=mu, stride=50))
        monotone_ok &= bool(np.all(np.diff(res.series.l2) <= 1e-13))
        distances[mu] = gap(res.final, base.final)
    ordered = distances[1e-4] < distances[1e-3] < distances[1e-2]
    report(
        3,
        monotone_ok and ordered,
        f"||u|| non-increasing for all mu; terminal gaps "
        f"{distances[1e-4]:.2e} < {distances[1e-3]:.2e} < {distances[1e-2]:.2e}",
    )


def test_criterion_04_propagator_laws():
    grid = make_grid(48, 48, 12.0, 12.0)
    rng = np.random.default_rng(0)
    smooth = inverse(dealias(forward(RealField(grid, rng.standard_normal((48, 48))))))
    F = forward(smooth)
    scale = np.max(np.abs(F.coeffs))
    grp = np.max(
        np.abs(
            propagate(propagate(F, 0.3, 0.0), 0.45, 0.0).coeffs
            - propagate(F, 0.75, 0.0).coeffs
        )
    )
    semi = np.max(
        np.abs(
            propagate(propagate(F, 0.2, 0.4), 0.5, 0.4).coeffs
            - propagate(F, 0.7, 0.4).coeffs
        )
    )
    laws_ok = grp < 1e-12 * scale and semi < 1e-12 * scale

    contraction_ok = True
    for seed in range(100):
        f = RealField(grid, np.random.default_rng(seed).standard_normal((48, 48)))
        evolved = inverse(propagate(forward(f), 0.15, 0.05))
        contraction_ok &= evolved.l2() <= f.l2() * (1 + 1e-12)

    rough = RealField(grid, np.random.default_rng(7).standard_normal((48, 48)))
    ratios = [smoothing_ratio(rough, 0.5, t, 1.0) for t in (1e-1, 1e-2, 1e-3)]
    smoothing_ok = max(ratios) < 1.0  # recorded ceiling for this mu and data class
    report(
        4,
        laws_ok and contraction_ok and smoothing_ok,
        f"composition residuals {grp / scale:.1e}/{semi / scale:.1e} < 1e-12, "
        f"contraction on 100 fields, smoothing ratios max {max(ratios):.3f} bounded",
    )


def test_criterion_05_picard_agreement():
    grid = make_grid(64, 64, L16, L16)
    phi = fields.gaussian(grid, amplitude=0.25, sigma_x=1.5, sigma_y=1.5)
    pic = picard_solve(phi, 0.05, mu=0.1, tol=1e-12)
    r = pic.residuals
    geometric = all(r[i + 1] < r[i] for i in range(1, len(r) - 1))
    stepper = run(phi, SolverConfig(dt=0.05 / 64, t_final=0.05, mu=0.1, stride=10**6))
    gap = float(
        np.sqrt(np.sum((pic.final.samples - stepper.final.samples) ** 2) * grid.cell_area)
    )
    report(
        5,
        geometric and gap < 1e-6,
        f"geometric residuals over {pic.iterations} iterations, "
        f"stepper gap {gap:.2e} < 1e-6",
    )


def test_criterion_06_stein_oracles():
    # closed-form constants: int |1-e^{iy}|^2 |y|^{-1-2b} dy
    const_sq = {
        0.25: 4.0 * math.sqrt(2.0 * math.pi),
        0.50: 2.0 * math.pi,
        0.75: (8.0 / 3.0) * math.sqrt(2.0 * math.pi),
    }
    r_out = 600.0
    dx = 0.005
    n = math.ceil((r_out + 20.0) / dx)
    xs = dx * np.arange(-n, n + 1)

    pure_ok = True
    for c in (1.0, 2.0, 4.0):
        res = stein_derivative(
            np.exp(1j * c * xs), dx, SteinConfig(b=0.5, r_outer=r_out), [n, n + 200, n - 400]
        )
        exact = math.sqrt(2.0 * math.pi * c)
        pure_ok &= bool(np.max(np.abs(res.values - exact)) / exact < 1e-3)
        pure_ok &= (np.max(res.values) - np.min(res.values)) / exact < 1e-3

    bound_ok = True
    for b in (0.25, 0.5, 0.75):
        for eta, t in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.5)):
            c = t * eta * eta
            res = stein_derivative(
                np.exp(1j * c * xs), dx, SteinConfig(b=b, r_outer=r_out), [n]
            )
            meas, upper = res.values[0], res.upper()[0]
            exact = math.sqrt(const_sq[b]) * c**b
            bound_ok &= meas <= phase_bound(b, eta, t) * (1 + 1e-12)
            bound_ok &= meas - 1e-3 * exact <= exact <= upper + 1e-3 * exact

    heav = refine_divergence(lambda x: (x >= 0).astype(float), 0.5, 5)
    bump = refine_divergence(lambda x: np.exp(-8.0 * x**2), 0.5, 6)
    verdicts_ok = heav.verdict == "divergent" and bump.verdict == "convergent"
    report(
        6,
        pure_ok and bound_ok and verdicts_ok,
        "pure phases within 1e-3 of sqrt(2 pi c); bound respected and exact "
        "constant bracketed for b in {1/4, 1/2, 3/4}; jump divergent / bump convergent",
    )


def test_criterion_07_uc_dichotomy():
    grid = make_grid(128, 128, L16, L16)
    gauss = fields.gaussian(grid, amplitude=1.0, sigma_x=1.5, sigma_y=1.5)
    deriv = fields.dx_gaussian(grid, amplitude=1.0, sigma_x=1.5, sigma_y=1.5)
    ok = True
    for t in (0.1, 1.0):
        ok &= b1_indicator(gauss, t).verdict == "obstructed"
        ok &= b1_indicator(deriv, t).verdict == "persists"
    scaled_g = RealField(grid, 31.0 * gauss.samples)
    scaled_d = RealField(grid, 0.03 * deriv.samples)
    ok &= b1_indicator(scaled_g, 0.5).verdict == "obstructed"
    ok &= b1_indicator(scaled_d, 0.5).verdict == "persists"
    report(7, ok, "obstructed for gaussian / persists for its x-derivative at "
                  "t in {0.1, 1.0}; verdicts scale-invariant")


def test_criterion_08_persistence_thresholds():
    grid = make_grid(128, 128, L16, L16)
    phi = fields.dx_gaussian(grid, amplitude=0.3, sigma_x=1.5, sigma_y=1.5)
    cfg = SolverConfig(dt=1e-3, t_final=0.4, mu=0.0, stride=40)
    table = persistence_scan(phi, cfg, [1.0, 2.0, 3.0], 6.0)
    bounded_ok = all(not row.flagged for row in table.rows) and all(
        np.all(np.isfinite(table.series[row.r])) for row in table.rows
    )
    # sampled continuity: no jumps between consecutive records
    for row in table.rows:
        z = table.series[row.r]
        bounded_ok &= bool(np.max(np.abs(np.diff(z))) < 0.2 * np.max(z))

    base = make_grid(96, 96, L16, L16)
    study = domain_growth_study(
        lambda g: fields.gaussian(g, amplitude=0.75, sigma_x=1.2, sigma_y=1.2),
        base,
        SolverConfig(dt=1e-3, t_final=0.4, mu=0.0, stride=100),
        doublings=2,
        cut=CutoffSpec(2.0),
    )
    sharp_ok = all(f >= 1.5 for f in study.factors[2.5])
    stable_ok = all(abs(f - 1.0) <= 0.10 for f in study.factors[2.0])
    report(
        8,
        bounded_ok and sharp_ok and stable_ok,
        f"Z(s,r) bounded for r in (1,2,3); r=5/2 growth "
        f"{['%.2f' % f for f in study.factors[2.5]]} >= 1.5x/doubling, "
        f"r=2 within 10% {['%.3f' % f for f in study.factors[2.0]]}",
    )


def test_criterion_09_inequality_suites():
    grid = make_grid(48, 48, 20.0, 20.0)
    ceilings = {
        "interpolation": 1.2,
        "commutator": 1.5,
        "algebra": 0.5,
        "trilinear": 0.1,
        "d_half": 0.2,
    }
    stable_ok = True
    for seed in (100, 4242):
        fam = [fields.random_smooth(grid, seed + k) for k in range(50)]
        worst = dict.fromkeys(ceilings, 0.0)
        for i, f in enumerate(fam):
            a = fam[(i + 1) % len(fam)]
            worst["interpolation"] = max(
                worst["interpolation"], interpolation_ratio(f, 2.0, 1.0, 0.5)
            )
            worst["commutator"] = max(worst["commutator"], commutator_ratio(a, f, 1, 1))
            worst["algebra"] = max(worst["algebra"], algebra_ratio(f, a, 3.0, 3.0))
            worst["trilinear"] = max(worst["trilinear"], trilinear_ratio(f, 3.0, 2.5))
            worst["d_half"] = max(worst["d_half"], half_derivative_commutator_ratio(a, f))
        stable_ok &= all(worst[k] <= ceilings[k] for k in ceilings)

    f = fields.random_smooth(grid, 100)
    base = interpolation_ratio(f, 2.0, 1.0, 0.5)
    exact_ok = (
        abs(interpolation_ratio(RealField(grid, 5.0 * f.samples), 2.0, 1.0, 0.5) - base)
        <= 1e-13 * base
    )
    anchor = interpolation_ratio(f, 2.0, 1.0, 0.5, weight=WeightSpec.truncated(8))
    per_n = [
        interpolation_ratio(f, 2.0, 1.0, 0.5, weight=WeightSpec.truncated(n))
        for n in (4, 8, 16, 32)
    ]
    uniform_ok = max(per_n) <= 1.1 * anchor
    report(
        9,
        stable_ok and exact_ok and uniform_ok,
        "scaling invariance to roundoff, ceilings stable across two seeds, "
        f"w_N interpolation uniform over N (max {max(per_n):.3f} <= {1.1 * anchor:.3f})",
    )


def test_criterion_10_a2_dichotomy():
    finite_ok = all(
        abs(a2_statistic(0.5, (-L, L)) - 4.0 / 3.0) < 1e-12 for L in (1.0, 7.0, 123.0)
    )
    inf_ok = math.isinf(a2_statistic(1.5, (-1.0, 1.0))) and math.isinf(
        a2_statistic(1.5, (-0.3, 2.0))
    )
    report(10, finite_ok and inf_ok,
           "|x|^(1/2) statistic = 4/3 independent of L; |x|^(3/2) divergent at origin")


def test_criterion_11_reproducibility(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.nx = 48\ngrid.ny = 48\ngrid.lx = 16pi\ngrid.ly = 16pi\n"
        "data.kind = gaussian\ndata.amplitude = 0.5\n"
        "solver.dt = 5e-3\nsolver.t_final = 0.05\nsolver.stride = 2\n"
        "diag.hs = 2\ndiag.weights = poly:1\nseed = 5\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = execute(
            ["simulate", "--config", str(cfg), "--out", str(out), "--seed", "5", "--quiet"]
        )
        assert code == EXIT_OK
        outs.append(out)
    same_csv = (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()
    same_bin = (outs[0] / "final.bozk").read_bytes() == (outs[1] / "final.bozk").read_bytes()
    report(11, same_csv and same_bin,
           "identical manifest + seed give byte-identical series.csv and snapshot")
