import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from bozk import fields, solver
from bozk.diagnostics import norm
from bozk.grid import (
    NonFiniteField,
    RealField,
    SpectrumField,
    forward,
    inverse,
    make_grid,
    multiplier_array,
)
from bozk.operators import NormSpec, propagate, propagator_array, sobolev_weight
from bozk.solver import (
    PicardDivergence,
    SolverAbort,
    SolverConfig,
    _StepKernel,
    nonlinear_rhs,
    picard_solve,
    run,
)
from bozk.weights import WeightSpec
from helpers import bits, centre_phase, dealias, dealias_mask, inverse_imag_residual

TWO_PI = 2.0 * np.pi


def l2_gap(a, b):
    return float(np.sqrt(np.sum((a.samples - b.samples) ** 2) * a.grid.cell_area))


class TestNonlinearRHS:
    def test_zero_maps_to_zero(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        out = nonlinear_rhs(forward(RealField.zeros(g)))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_constant_killed_by_derivative(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        out = nonlinear_rhs(forward(RealField.from_function(g, lambda x, y: 3.0 + 0 * x)))
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_single_mode_output(self):
        # -1/2 d_x(sin^2 x) = -1/2 sin(2x)
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.sin(x))
        out = inverse(nonlinear_rhs(forward(u)))
        expect = RealField.from_function(g, lambda x, y: -0.5 * np.sin(2 * x))
        assert np.max(np.abs(out.samples - expect.samples)) < 1e-12

    def test_zero_column_never_touched(self):
        g = make_grid(32, 32, 9.0, 9.0)
        u = fields.random_smooth(g, 0)
        out = nonlinear_rhs(forward(u))
        assert np.max(np.abs(out.coeffs[:, 0])) == 0.0

    def test_nyquist_column_never_touched(self):
        # d_x is odd in xi, so its symbol averages to 0 on the self-paired
        # Nyquist column (which the 2/3 mask zeroes as well)
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        F = forward(fields.random_smooth(g, 3, spectral_width=8.0))
        assert np.max(np.abs(F.coeffs[:, -1])) > 1e-3
        out = nonlinear_rhs(F)
        assert np.all(out.coeffs[:, -1] == 0.0)

    def test_zero_outside_the_dealias_mask(self):
        # the 2/3 mask on the output lives in the advection symbol
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        F = forward(fields.random_smooth(g, 3, spectral_width=8.0))
        mask = dealias_mask(g)
        assert np.max(np.abs(F.coeffs[~mask])) > 1e-3
        out = nonlinear_rhs(F)
        assert np.all(out.coeffs[~mask] == 0.0)
        assert np.max(np.abs(out.coeffs[mask])) > 1e-3

    @pytest.mark.parametrize("nx, ny", [(100, 70), (256, 256)])
    def test_matches_the_phase_carrying_formula(self, nx, ny):
        # nonlinear_rhs leaves the centring phase out around the square; the
        # formula here keeps it, through grid.inverse and grid.forward
        g = make_grid(nx, ny, 16 * np.pi, 8 * np.pi)
        F = forward(fields.random_smooth(g, 5, amplitude=2.0))
        mask = dealias_mask(g)
        u = inverse(SpectrumField(g, np.where(mask, F.coeffs, 0.0)))
        square = forward(RealField(g, np.square(u.samples))).coeffs
        symbol = multiplier_array(g, lambda xi, eta: -0.5j * xi)
        ref = np.where(mask, symbol * square, 0.0)
        out = nonlinear_rhs(F).coeffs
        assert np.max(np.abs(ref)) > 1e-3
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_undealiased_steps_keep_the_spectrum_hermitian():
    # the 2/3 mask acts only around the square, so the state itself keeps
    # its Nyquist content; it stays the transform of a real field: inverse()
    # drops nothing, and Parseval (the hs_* records) agrees with the
    # physical norm
    g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
    phi = fields.random_smooth(g, 3, spectral_width=8.0)
    kernel = _StepKernel(g, SolverConfig(dt=1e-3, t_final=0.02))
    c = forward(phi).coeffs
    for _ in range(20):
        c = kernel.advance(c)
    F = SpectrumField(g, c)
    u = inverse(F)
    assert inverse_imag_residual(F) <= 1e-15
    assert abs(F.l2() - u.l2()) <= 1e-14 * u.l2()


def reference_step(g, c, dt, mu, audit, phased=False):
    """One IF-RK4 step in the kernel's arithmetic: full-plane transforms of
    each masked stage input, then the stage arithmetic on contiguous copies
    of the full-height columns 0..nx//3 of the coefficients divided by lx ly,
    every product spelled out as np.multiply(a, b) in the kernel's operand
    order (operators would let numpy's temporary elision swap them on
    arrays of 256 KiB or more).  Its tables are its own: the propagators of
    dt/2 and dt from propagator_array, and the masked advection symbol from
    multiplier_array, all full height.

    With `phased`, the stages carry the centring phase: they are taken in
    and out through the centring phase tables of helpers.centre_phase, in
    raw transform units, which gives the same step up to roundoff."""
    keep = g.nx // 3 + 1
    n = g.nx * g.ny
    mask = dealias_mask(g)

    def cols(a):
        return np.ascontiguousarray(a[:, :keep])

    symbol = np.where(mask, multiplier_array(g, lambda xi, eta: -0.5j * xi), 0.0)
    table = np.multiply(cols(symbol), 0.5 * dt / n)
    eh = cols(propagator_array(g, 0.5 * dt, mu))
    ef = propagator_array(g, dt, mu)

    def rhs(x, audit=None):
        full = np.zeros(g.spectral_shape, dtype=np.complex128)
        full[:, :keep] = x
        raw = np.fft.ifft(np.where(mask, full, 0.0), axis=0, norm="forward")
        u = np.fft.irfft(raw, n=g.nx, axis=1, norm="forward")
        if audit is not None:
            audit(float(np.max(np.abs(u))))
        return np.multiply(cols(np.fft.rfft2(np.multiply(u, u))), table)

    if phased:
        a = np.multiply(np.multiply(cols(c), cols(centre_phase(g) / g.cell_area)), 1.0 / n)
    else:
        a = np.multiply(cols(c), 1.0 / (g.lx * g.ly))
    efk = cols(ef)
    k1 = rhs(a, audit)
    k2 = rhs(np.multiply(eh, np.add(a, k1)))
    k3 = rhs(np.add(np.multiply(eh, a), k2))
    k4 = rhs(np.add(np.multiply(efk, a), np.multiply(np.multiply(eh, k3), 2.0)))
    twice = np.multiply(np.multiply(eh, np.add(k2, k3)), 2.0)
    inc = np.add(np.add(np.multiply(efk, k1), twice), k4)
    if phased:
        inc = np.multiply(np.multiply(inc, n / 3.0), cols(g.cell_area * centre_phase(g)))
    else:
        inc = np.multiply(inc, g.lx * g.ly / 3.0)
    new = np.multiply(ef, c)
    new[:, :keep] = np.add(new[:, :keep], inc)
    return new


@pytest.mark.parametrize("nx, ny", [(64, 64), (96, 72), (256, 128)])
def test_step_matches_reference_exactly(nx, ny):
    # one grid below numpy's elision size, one above, and one where 3
    # divides nx, so the kept band ends exactly at the alias-free limit;
    # the pruned transforms skip only modes that are zero on the way in
    # or masked on the way out, and the modes past the band see only the
    # full-step propagator; the step that carries the centring phase
    # differs from it by roundoff alone
    g = make_grid(nx, ny, 16 * np.pi, 8 * np.pi)
    cfg = SolverConfig(dt=2e-3, t_final=1.0, mu=0.05)
    kernel = _StepKernel(g, cfg)
    keep = nx // 3 + 1
    c = forward(fields.random_smooth(g, 5, amplitude=2.0)).coeffs
    ref, phased = c.copy(), c.copy()
    for _ in range(3):
        seen, ref_seen, phased_seen = [], [], []
        start = c.copy()
        c = kernel.advance(c, seen.append)
        ref = reference_step(g, ref, cfg.dt, cfg.mu, ref_seen.append)
        phased = reference_step(g, phased, cfg.dt, cfg.mu, phased_seen.append, phased=True)
        assert np.array_equal(c, ref)
        assert seen == ref_seen
        assert np.max(np.abs(c - phased)) <= 1e-14 * np.max(np.abs(c))
        assert seen == pytest.approx(phased_seen, rel=1e-14, abs=0.0)
        assert np.array_equal(c[:, keep:], np.multiply(kernel.e_full, start)[:, keep:])
    assert np.max(np.abs(c[:, 1:])) > 0
    assert np.max(np.abs(c[:, keep:])) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_state_raises_before_the_audit(bad):
    g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
    c = forward(fields.gaussian(g, amplitude=0.5)).coeffs
    c[1, 1] = bad
    seen = []
    with pytest.raises(NonFiniteField), np.errstate(invalid="ignore"):
        _StepKernel(g, SolverConfig(dt=1e-3, t_final=0.01)).advance(c, seen.append)
    assert seen == []


# a spike in one retained mode of a propagator table and where the run
# stops; the t and step are those of the step that failed, and the last
# case grows the state past the blow-up amplitude without overflowing
@pytest.mark.parametrize("table, value, t, step, detail", [
    ("half", np.nan, 0.0, 1, "field contains non-finite samples"),  # stage 2
    ("half", 1e200, 0.0, 1, "field contains non-finite samples"),  # stage 2, u^2
    ("half", 1e100, 0.0, 1, "field contains non-finite samples"),  # stage 3, u^2
    ("full", np.nan, 0.0, 1, "field contains non-finite samples"),  # stage 4
    ("full", 1e200, 0.0, 1, "field contains non-finite samples"),  # stage 4, u^2
    ("full", 1e150, 1e-3, 1, "max|u| = 3.040e+290"),  # step 2, stage k1
])
def test_stage_blow_up(monkeypatch, table, value, t, step, detail):
    g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
    dt = 1e-3
    real = solver.propagator_array

    def spiked(grid, tau, mu):
        out = real(grid, tau, mu)
        if tau == (0.5 * dt if table == "half" else dt):
            out[1, 1] = value
        return out

    monkeypatch.setattr(solver, "propagator_array", spiked)
    with pytest.raises(SolverAbort) as err, np.errstate(all="ignore"):
        run(fields.gaussian(g, amplitude=0.5), SolverConfig(dt=dt, t_final=0.01, stride=100))
    e = err.value
    assert (e.reason, e.t, e.step, e.detail) == ("blow_up", t, step, detail)


class TestStep:
    # one step, taken through `run`
    def test_linear_mode_matches_propagator(self):
        g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
        phi = RealField.from_function(g, lambda x, y: np.cos(0.25 * x + 0.5 * y))
        cfg = SolverConfig(dt=0.05, t_final=0.05, mu=0.0, nonlinear=False)
        out = forward(run(phi, cfg).final)
        start = forward(phi)
        exact = propagate(start, 0.05, 0.0)
        assert np.max(np.abs(out.coeffs - exact.coeffs)) < 1e-13 * np.max(
            np.abs(start.coeffs)
        )

    def test_zero_mode_exact_decay(self):
        g = make_grid(32, 32, 12.0, 12.0)
        phi = fields.gaussian(g, amplitude=0.5, sigma_x=1.0, sigma_y=1.0)
        mu, dt = 0.3, 0.01
        cfg = SolverConfig(dt=dt, t_final=dt, mu=mu, stride=1)
        c = forward(phi).coeffs
        new = _StepKernel(g, cfg).advance(c.copy())
        expect = c[:, 0] * np.exp(-mu * g.eta**2 * dt)
        assert np.max(np.abs(new[:, 0] - expect)) < 1e-15
        drift = run(phi, cfg).series.zero_mode_drift
        assert drift[1] == np.max(np.abs(new[:, 0] - c[:, 0]))

    def test_blowup_detected(self):
        g = make_grid(16, 16, 4.0, 4.0)
        huge = RealField(g, np.full((16, 16), 5e8))
        with pytest.raises(SolverAbort) as err:
            run(huge, SolverConfig(dt=1e-9, t_final=1e-6, mu=0.0))
        assert err.value.reason == "blow_up"
        assert (err.value.t, err.value.step) == (0.0, 0)

    def test_cfl_audit_triggers(self):
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=40.0)
        with pytest.raises(SolverAbort) as err:
            run(phi, SolverConfig(dt=0.05, t_final=0.2, mu=0.0))
        assert err.value.reason == "cfl_audit"


class TestRun:
    def test_zero_data_stays_zero(self):
        g = make_grid(16, 16, 8.0, 8.0)
        res = run(RealField.zeros(g), SolverConfig(dt=0.01, t_final=0.05, stride=2))
        assert np.max(res.series.l2) == 0.0
        assert np.max(np.abs(res.final.samples)) == 0.0

    def test_l2_conserved_and_zero_mode_frozen(self):
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=1.0)
        res = run(phi, SolverConfig(dt=1e-3, t_final=0.1, mu=0.0, stride=20))
        s = res.series
        assert np.max(np.abs(s.l2 - s.l2[0])) / s.l2[0] < 1e-10
        assert np.max(s.zero_mode_drift) == 0.0

    def test_dissipative_norm_monotone(self):
        g = make_grid(48, 48, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=1.0)
        res = run(phi, SolverConfig(dt=1e-3, t_final=0.1, mu=1e-2, stride=10))
        assert np.all(np.diff(res.series.l2) <= 1e-13)

    def test_viscosity_limit_monotone(self):
        g = make_grid(48, 48, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=0.8)
        cfg = lambda mu: SolverConfig(dt=1e-3, t_final=0.1, mu=mu, stride=100)
        ref = run(phi, cfg(0.0)).final
        gaps = [l2_gap(run(phi, cfg(mu)).final, ref) for mu in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_fourth_order_in_time(self):
        g = make_grid(48, 48, 16 * np.pi, 16 * np.pi)
        phi = fields.dx_gaussian(g, amplitude=2.0, sigma_x=1.5, sigma_y=1.5)

        def terminal(dt):
            return run(phi, SolverConfig(dt=dt, t_final=0.2, mu=0.0, stride=10**6)).final

        ref = terminal(1.25e-3)
        e1 = l2_gap(terminal(2e-2), ref)
        e2 = l2_gap(terminal(1e-2), ref)
        assert 16 * 0.8 <= e1 / e2 <= 16 * 1.2

    def test_fourth_order_with_nyquist_content(self):
        # random_smooth data carries Nyquist content, on which a propagator
        # that is not a true group cuts the stepper to first order
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        phi = fields.random_smooth(g, 3)

        def terminal(n):
            return run(phi, SolverConfig(dt=0.4 / n, t_final=0.4, stride=10**6)).final

        ref = terminal(2048)
        errs = [l2_gap(terminal(n), ref) for n in (16, 32, 64, 128)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.9)

    def test_linear_run_unitary_with_nyquist_content(self):
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        phi = fields.random_smooth(g, 3)
        cfg = SolverConfig(dt=5e-3, t_final=0.5, nonlinear=False, stride=10)
        s = run(phi, cfg).series
        assert np.max(np.abs(s.l2 - s.l2[0])) <= 1e-14 * s.l2[0]

    def test_records_increasing(self):
        g = make_grid(32, 32, 10.0, 10.0)
        res = run(fields.gaussian(g, 0.3, 1.0, 1.0), SolverConfig(dt=0.01, t_final=0.1, stride=3))
        assert np.all(np.diff(res.series.t) > 0)


class TestPicard:
    def test_zero_data_one_iteration(self):
        g = make_grid(16, 16, 8.0, 8.0)
        res = picard_solve(RealField.zeros(g), 0.05, mu=0.1)
        assert res.iterations == 1
        assert res.residuals == [0.0]

    def test_geometric_contraction(self):
        g = make_grid(48, 48, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=0.25)
        res = picard_solve(phi, 0.05, mu=0.1, tol=1e-12)
        r = res.residuals
        assert len(r) >= 3
        assert all(r[i + 1] < r[i] for i in range(1, len(r) - 1))

    def test_matches_time_stepper(self):
        # 64 modes on 16 pi keep the data's Nyquist content at roundoff, so
        # the two discretisations of the same flow agree far below 1e-6
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=0.25)
        pic = picard_solve(phi, 0.05, mu=0.1, tol=1e-12)
        st = run(phi, SolverConfig(dt=0.05 / 64, t_final=0.05, mu=0.1, stride=10**6))
        assert l2_gap(pic.final, st.final) < 1e-6

    def test_needs_positive_viscosity(self):
        g = make_grid(16, 16, 4.0, 4.0)
        with pytest.raises(ValueError):
            picard_solve(fields.gaussian(g, 0.1, 0.5, 0.5), 0.05, mu=0.0)

    def test_nonconvergence_raises(self):
        g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=8.0)
        with pytest.raises(PicardDivergence) as err:
            picard_solve(phi, 2.0, mu=0.01, max_iter=6)
        assert len(err.value.residuals) == 6
        assert isinstance(err.value, SolverAbort)
        assert (err.value.reason, err.value.t, err.value.step) == (
            "picard_divergence", 2.0, 6
        )

    def test_overflowing_iterate_raises(self):
        # with the default 25 sweeps the iterates overflow before giving up
        g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
        phi = fields.gaussian(g, amplitude=8.0)
        with pytest.raises(PicardDivergence) as err:
            picard_solve(phi, 2.0, mu=0.01)
        res = err.value.residuals
        assert err.value.step == len(res) + 1 <= 25
        assert all(np.isfinite(res))

    def test_first_sweep_overflow_raises(self):
        # at 1e200 u^2 overflows; at 1e154 u^2 stays finite but its transform
        # overflows, so sweep 1 leaves every node past the first NaN while
        # node 0's residual reads 0
        g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
        for amplitude in (1e200, 1e154):
            with pytest.raises(PicardDivergence) as err:
                picard_solve(fields.gaussian(g, amplitude=amplitude), 2.0, mu=0.01)
            assert (err.value.step, err.value.residuals) == (1, [])

    @pytest.mark.parametrize("n_nodes", [5, 7, 33])
    def test_sweep_matches_weighted_sum(self, monkeypatch, n_nodes):
        # with nonlinear_rhs fixed to N_m, sweep 1 gives node j the value
        # free[j] + sum_m w_j[m] E((j - m) h) N_m, which sweep 2 reads; node 1
        # takes the trapezoid, even nodes Simpson, odd nodes >= 3 the 3/8 tail
        g = make_grid(16, 16, 8.0, 8.0)
        phi = fields.gaussian(g, amplitude=0.5, sigma_x=1.0, sigma_y=1.0)
        t_final, mu = 0.5, 0.1
        rng = np.random.default_rng(n_nodes)
        N = rng.standard_normal((n_nodes, *g.spectral_shape)) + 1j * rng.standard_normal(
            (n_nodes, *g.spectral_shape)
        )
        seen = []

        def fixed(F, audit=None):
            seen.append(F.coeffs.copy())
            return SpectrumField(g, N[(len(seen) - 1) % n_nodes])

        monkeypatch.setattr(solver, "nonlinear_rhs", fixed)
        res = picard_solve(phi, t_final, mu, tol=1e-300, n_nodes=n_nodes)
        # the second sweep sees the same N_m, so it reproduces the first
        assert res.iterations == 2 and res.residuals[1] == 0.0
        h = t_final / (n_nodes - 1)
        phi_hat = forward(phi).coeffs
        for j in range(n_nodes):
            w = _cumulative_weights(j, h)
            ref = propagator_array(g, j * h, mu) * phi_hat
            for m in range(j + 1):
                ref = ref + w[m] * (propagator_array(g, (j - m) * h, mu) * N[m])
            got = seen[n_nodes + j]
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), j


def _cumulative_weights(j, h):
    """Newton-Cotes weights for int_0^{t_j} on nodes 0..j of spacing h.

    Composite Simpson for even j; for odd j >= 3 the last three panels use
    the 3/8 rule so the order stays 4; j = 1 falls back to the trapezoid.
    """
    w = np.zeros(j + 1)
    if j == 0:
        return w
    if j == 1:
        w[:2] = 0.5 * h
        return w
    m = j if j % 2 == 0 else j - 3
    for k in range(0, m, 2):
        w[k] += h / 3.0
        w[k + 1] += 4.0 * h / 3.0
        w[k + 2] += h / 3.0
    if j % 2 == 1:
        w[m] += 3.0 * h / 8.0
        w[m + 1] += 9.0 * h / 8.0
        w[m + 2] += 9.0 * h / 8.0
        w[j] += 3.0 * h / 8.0
    return w



def full_plane_if_rk4(phi, dt, n_steps, mu):
    """IF-RK4 on the full FFT-ordered plane with fft2/ifft2: the same stages,
    propagators (exponentials of the Nyquist-symmetrised generator) and 2/3
    mask, written out from scratch."""
    g = phi.grid
    mx = np.fft.fftfreq(g.nx, d=1.0 / g.nx)
    my = np.fft.fftfreq(g.ny, d=1.0 / g.ny)
    xi = (2.0 * np.pi * mx / g.lx)[None, :]
    eta = (2.0 * np.pi * my / g.ly)[:, None]
    phase = np.where((mx[None, :] + my[:, None]) % 2 == 0, 1.0, -1.0)
    mask = (np.abs(mx) <= g.nx // 3)[None, :] & (np.abs(my) <= g.ny // 3)[:, None]

    def fwd(u):
        return np.fft.fft2(u) * (g.cell_area * phase)

    def inv(c):
        return np.fft.ifft2(c * (phase / g.cell_area)).real

    def propagator(t):
        v = 1j * t * (xi * eta**2 - xi * np.abs(xi)) - t * mu * (xi**2 + eta**2)
        sym = 0.5 * (v + np.conj(np.roll(v[::-1, ::-1], shift=(1, 1), axis=(0, 1))))
        v[:, g.nx // 2] = sym[:, g.nx // 2]
        v[g.ny // 2, :] = sym[g.ny // 2, :]
        return np.exp(v)

    def rhs(c):
        w = fwd(inv(np.where(mask, c, 0.0)) ** 2) * (-0.5j * xi)
        return np.where(mask, w, 0.0)

    eh, ef = propagator(0.5 * dt), propagator(dt)
    c = fwd(phi.samples)
    for _ in range(n_steps):
        k1 = rhs(c)
        k2 = rhs(eh * (c + (0.5 * dt) * k1))
        k3 = rhs(eh * c + (0.5 * dt) * k2)
        k4 = rhs(ef * c + dt * (eh * k3))
        c = ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)
    return inv(c)


@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_half_plane_stepper_matches_full_plane(mu):
    g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
    phi = fields.gaussian(g, amplitude=4.0, sigma_x=1.2, sigma_y=1.8, center_x=0.7, center_y=-0.4)
    dt, n_steps = 5e-3, 20
    cfg = SolverConfig(dt=dt, t_final=n_steps * dt, mu=mu, stride=n_steps)
    out = run(phi, cfg).final.samples
    ref = full_plane_if_rk4(phi, dt, n_steps, mu)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(out - phi.samples)) > 1e-3 * np.max(np.abs(ref))


def test_every_step_is_audited():
    # the breach is caught at the step that first starts from a state over
    # the CFL limit, and reported at the index of that state; records (only
    # at both ends here) never see it, and the run ended one step earlier
    # stays clean
    g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
    phi = fields.gaussian(g, amplitude=50.0)
    cfg = SolverConfig(dt=2e-3, t_final=1.0, stride=500)
    with pytest.raises(SolverAbort) as err:
        run(phi, cfg)
    e = err.value
    assert e.reason == "cfl_audit"
    assert 0 < e.step < 500 and e.t == pytest.approx(e.step * 2e-3)
    res = run(phi, SolverConfig(dt=2e-3, t_final=(e.step - 1) * 2e-3, stride=500))
    assert list(res.series.step) == [0, e.step - 1]


def edge_ratio(u):
    """max(max|u[0, :]|, max|u[:, 0]|) / max|u|, or 0 for u = 0."""
    peak = np.max(np.abs(u.samples))
    edge = max(np.max(np.abs(u.samples[0, :])), np.max(np.abs(u.samples[:, 0])))
    return edge / peak if peak > 0 else 0.0


EVERY_KIND = (
    NormSpec.hs(0.5),
    NormSpec.hs(2.5),
    NormSpec.aniso(3.0, 2.5),
    NormSpec.l2r(1.5),
    NormSpec.zsr(4.0, 1.0),
    NormSpec.l2w(WeightSpec.polynomial(2.0)),
    NormSpec.l2w(WeightSpec.truncated(8)),
    NormSpec.l2w(WeightSpec.gamma_power(0.5)),
    NormSpec.l2w(WeightSpec.damped(0.5, 0.1)),
)


READOUT_NORMS = [(), *((spec,) for spec in EVERY_KIND), EVERY_KIND[::-1]]
READOUT_IDS = ["none", *(spec.label() for spec in EVERY_KIND), "all"]


@pytest.mark.parametrize(
    "norms, nonlinear",
    [*((norms, True) for norms in READOUT_NORMS), *((norms, False) for norms in READOUT_NORMS)],
    ids=[*READOUT_IDS, *(f"{i}-linear" for i in READOUT_IDS)],
)
def test_record_readout_matches_reference_norms(monkeypatch, norms, nonlinear):
    # every recorded column against the norm of the recorded field, one kind
    # at a time and all kinds in one run; the grid is not square, so a row
    # built on transposed axes fails here; a nonlinear run's readout runs in
    # the kernel's stage block and transform buffer, a linear run's in that
    # buffer and a sample array of its own
    g = make_grid(48, 32, 16 * np.pi, 8 * np.pi)
    seen = []

    def spy(F, *work):
        seen.append((F.coeffs.copy(), inverse(F)))
        return inverse(F, *work)

    monkeypatch.setattr(solver, "inverse", spy)
    phi = fields.random_smooth(g, 4, amplitude=0.5)
    cfg = SolverConfig(dt=1e-3, t_final=0.01, mu=0.01, stride=4, nonlinear=nonlinear)
    s = run(phi, cfg, norms=norms).series
    assert len(seen) == len(s.t)  # one transform per record, none after
    assert list(s.step) == [0, 4, 8, 10] and len(seen) == 4

    def close(col, ref, scale=None):
        ref = np.array(ref)
        scale = np.abs(ref) if scale is None else scale
        assert np.all(np.abs(col - ref) <= 1e-14 * scale)

    close(s.l2, [u.l2() for _, u in seen])
    moment = [np.sum(g.xmesh * u.samples) * g.cell_area for _, u in seen]
    close(s.moment_x, moment, np.max(np.abs(moment)))
    assert np.array_equal(s.edge_ratio, [edge_ratio(u) for _, u in seen])
    assert list(s.norms) == list(norms)
    for spec in norms:
        close(s.norms[spec], [norm(u, spec) for _, u in seen])


@pytest.mark.parametrize("mu", [0.0, 0.01])
@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
def test_recording_does_not_touch_the_flow(nonlinear, mu):
    # a nonlinear run's records read through the kernel's stage block and
    # transform pair, which hold nothing between steps: a run that records
    # every step steps the same state, bit for bit, as one that records
    # only the endpoints, and the records both runs take agree bit for bit
    g = make_grid(48, 32, 16 * np.pi, 8 * np.pi)
    phi = fields.random_smooth(g, 4, amplitude=0.5)
    every, ends = (
        run(phi, SolverConfig(dt=1e-3, t_final=0.01, mu=mu, stride=stride, nonlinear=nonlinear),
            norms=EVERY_KIND)
        for stride in (1, 10)
    )
    assert np.array_equal(every.final.samples, ends.final.samples)
    a, b = every.series, ends.series
    assert list(a.step) == list(range(11)) and list(b.step) == [0, 10]
    shared = [0, 10]
    for name in ("t", "l2", "moment_x", "zero_mode_drift", "edge_ratio"):
        assert np.array_equal(getattr(a, name)[shared], getattr(b, name)), name
    for spec in EVERY_KIND:
        assert np.array_equal(a.norms[spec][shared], b.norms[spec]), spec.label()


def test_edge_ratio_of_zero_field():
    g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
    s = run(RealField.zeros(g), SolverConfig(dt=1e-3, t_final=3e-3, stride=1)).series
    assert s.edge_ratio.tolist() == [0.0] * 4


# one propagator entry spiked in a linear run, which audits only at records:
# NaN reaches the record's inverse transform; 1e100 grows the field to
# max|u| ~ 5e297 by step 3, so squaring it would overflow (a RuntimeWarning,
# an error under the test settings) unless the audit stops the run first
@pytest.mark.parametrize("value, detail", [
    (np.nan, "field contains non-finite samples"),
    (1e100, "max|u| = 5.402e+297"),
])
def test_linear_record_blow_up(monkeypatch, value, detail):
    g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
    dt = 1e-3
    real = solver.propagator_array

    def spiked(grid, tau, mu):
        out = real(grid, tau, mu)
        if tau == dt:
            out[1, 1] = value
        return out

    monkeypatch.setattr(solver, "propagator_array", spiked)
    cfg = SolverConfig(dt=dt, t_final=0.01, stride=3, nonlinear=False)
    with pytest.raises(SolverAbort) as err:
        run(fields.gaussian(g, amplitude=0.5), cfg)
    e = err.value
    assert (e.reason, e.t, e.step, e.detail) == ("blow_up", 0.003, 3, detail)


@pytest.mark.parametrize("n_steps, stride", [(10, 3), (10, 5), (3, 10), (1, 1)])
def test_record_storage(monkeypatch, n_steps, stride):
    # one stored value per record in every column, each equal bit for bit
    # to a readout of the recorded state; the hs and weighted references
    # repeat the record's one-pass arithmetic (their agreement with `norm`
    # is test_record_readout_matches_reference_norms)
    g = make_grid(32, 24, 16 * np.pi, 12 * np.pi)
    seen = []

    def spy(F, *work):
        seen.append(F.coeffs.copy())
        return inverse(F, *work)

    monkeypatch.setattr(solver, "inverse", spy)
    spec = WeightSpec.polynomial(1.0)
    hs, weighted = NormSpec.hs(2.0), NormSpec.l2w(spec)
    dt = 1e-3
    cfg = SolverConfig(dt=dt, t_final=n_steps * dt, mu=0.01, stride=stride)
    s = run(fields.random_smooth(g, 4, amplitude=0.5), cfg, norms=(hs, weighted)).series
    want = sorted({*range(0, n_steps + 1, stride), n_steps})
    cols = [s.t, s.step, s.l2, s.moment_x, s.zero_mode_drift, s.edge_ratio,
            s.norms[hs], s.norms[weighted]]
    assert all(col.shape == (len(want),) for col in cols)
    assert s.step.dtype == np.int64 and s.step.tolist() == want

    hs_row = sobolev_weight(g, "J", 2.0) * g.parseval_weight
    w2 = np.square(spec.evaluate(g.xmesh, g.ymesh))
    area = g.cell_area
    zero0 = seen[0][:, 0]
    times = np.concatenate([[0.0], np.cumsum(np.full(n_steps, dt))])  # t += dt
    ref = []
    for n, c in zip(want, seen):
        u = inverse(SpectrumField(g, c))
        csq = np.square(c.real) + np.square(c.imag)
        ref.append([
            times[n],
            n,
            u.l2(),
            np.sum(g.xmesh * u.samples) * area,
            np.max(np.abs(c[:, 0] - zero0)),
            edge_ratio(u),
            np.sqrt(np.einsum("kij,ij->k", hs_row[None], csq))[0],
            np.sqrt(np.einsum("kij,ij->k", w2[None], np.square(u.samples)) * area)[0],
        ])
    for col, values in zip(cols, zip(*ref)):
        assert np.array_equal(col, values)


def test_record_storage_grows_by_columns_only():
    # a 64^2 linear run's traced peak, between 1001 and 2001 records, may
    # grow only by the record storage: 8 bytes per column and per step
    # index, with the same again as slack; a per-record copy of the zero
    # mode alone would add ny * 16 bytes a record
    g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
    phi = fields.gaussian(g, amplitude=0.5)
    norms = dict(norms=(NormSpec.hs(2.0), NormSpec.l2w(WeightSpec.polynomial(1.0))))
    run(phi, SolverConfig(dt=1e-4, t_final=1e-4, nonlinear=False), **norms)  # fill grid caches
    peaks = []
    for n_steps in (1000, 2000):
        cfg = SolverConfig(dt=1e-4, t_final=n_steps * 1e-4, stride=1, nonlinear=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = run(phi, cfg, **norms)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert len(res.series.t) == n_steps + 1
    columns = 5 + 1 + 1 + 1  # t, l2, moment_x, drift, edge_ratio, hs, weighted, step
    assert peaks[1] - peaks[0] <= 2 * 8 * columns * 1000


@pytest.mark.parametrize("nonlinear", [True, False], ids=["nonlinear", "linear"])
def test_steps_and_records_allocate_no_field(monkeypatch, nonlinear):
    # from the first step on, a 256^2 run steps its state in place and
    # transforms every record, the last one included, in its one buffer
    # pair, so its traced peak grows by less than one spectral array:
    # only numpy's cast buffers and the records' small temporaries remain
    g = make_grid(256, 256, 16 * np.pi, 16 * np.pi)
    phi = fields.gaussian(g, amplitude=0.5)
    cfg = SolverConfig(dt=1e-3, t_final=0.01, stride=1, nonlinear=nonlinear)
    norms = (NormSpec.hs(2.0), NormSpec.l2w(WeightSpec.polynomial(1.0)))
    run(phi, cfg, norms=norms)  # fill grid caches
    real = _StepKernel.advance
    marks, same = [], []

    def spy(self, c, audit=None):
        if not marks:
            marks.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        out = real(self, c, audit)
        same.append(out is c)
        return out

    monkeypatch.setattr(_StepKernel, "advance", spy)
    tracemalloc.start()
    try:
        run(phi, cfg, norms=norms)
        growth = tracemalloc.get_traced_memory()[1] - marks[0]
    finally:
        tracemalloc.stop()
    assert same == [True] * 10
    assert growth < 16 * 256 * 129  # one spectral array, 528384 bytes


def test_nonlinear_records_read_through_the_stage_block(monkeypatch):
    # every run reads |u_hat|^2 in its spectral buffer, which the record's
    # inverse pass has freed; a nonlinear run's u^2 is a view of the
    # kernel's stage block, not an array of its own
    kernels, reads = [], []
    real_init, real_read = _StepKernel.__init__, solver.read_norms

    def init(self, *args):
        real_init(self, *args)
        kernels.append(self)

    def spy(rows, power, square):
        reads.append((power, square))
        return real_read(rows, power, square)

    monkeypatch.setattr(_StepKernel, "__init__", init)
    monkeypatch.setattr(solver, "read_norms", spy)
    g = make_grid(48, 32, 16 * np.pi, 8 * np.pi)
    phi = fields.random_smooth(g, 4, amplitude=0.5)
    for nonlinear in (True, False):
        cfg = SolverConfig(dt=1e-3, t_final=0.01, stride=4, nonlinear=nonlinear)
        s = run(phi, cfg, norms=(NormSpec.zsr(2.0, 1.0),)).series
        kernel = kernels.pop()
        assert len(reads) == len(s.t) == 4
        for power, square in reads:
            assert power.shape == g.spectral_shape and power.flags.c_contiguous
            assert np.shares_memory(power, kernel.scratch[0])
            if nonlinear:
                assert np.shares_memory(square, kernel.stages)
            assert not np.shares_memory(square, kernel.scratch[0])
        reads.clear()


def test_a_run_holds_one_copy_of_the_advection_symbol():
    # the kernel's rhs table is one row, a fresh _advection_row scaled in
    # place, and the grid caches no symbol, after a run or a nonlinear_rhs;
    # as the symbol depends on xi alone and the mask drops the Nyquist row,
    # the row is bit for bit every kept row of the masked symbol table times
    # the same factor
    g = make_grid(48, 32, 16 * np.pi, 8 * np.pi)
    cfg = SolverConfig(dt=1e-3, t_final=4e-3)
    phi = fields.gaussian(g, amplitude=0.5)
    run(phi, cfg)
    nonlinear_rhs(forward(phi))
    table = _StepKernel(g, cfg).table
    assert all(np.asarray(v).dtype.kind != "c" for v in vars(g).values())
    scale = 0.5 * cfg.dt / (g.nx * g.ny)
    mask = dealias_mask(g)
    masked = np.where(mask, multiplier_array(g, lambda xi, eta: -0.5j * xi), 0.0)
    kept = (masked * scale)[mask[:, 0], : table.size]
    assert kept.shape == solver._band_shape(g)
    assert np.array_equal(bits(kept), bits(np.broadcast_to(table, kept.shape)))
    assert np.array_equal(bits(table), bits(solver._advection_row(g) * scale))


@pytest.mark.parametrize("nx, ny", [(96, 72), (8, 256), (256, 8), (256, 256)])
def test_kernel_holds_only_the_kept_band(nx, ny):
    # between the transforms the kernel holds only the modes |m| <= nx/3,
    # |n| <= ny/3: its stage block and half-step table on that band, rows
    # n = 0..ny/3 then n = -ny/3..-1, and its rhs table as one row; a
    # nonlinear record's u^2 view still fits the block
    g = make_grid(nx, ny, 16 * np.pi, 8 * np.pi)
    cfg = SolverConfig(dt=1e-3, t_final=2e-3, stride=1)
    kernel = _StepKernel(g, cfg)
    band = (2 * (ny // 3) + 1, nx // 3 + 1)
    assert solver._band_shape(g) == band
    assert kernel.stages.shape == (4, *band)
    assert kernel.e_half.shape == band
    assert kernel.table.shape == (band[1],)
    half = propagator_array(g, 0.5 * cfg.dt, cfg.mu)[:, : band[1]]
    assert np.array_equal(kernel.e_half, np.concatenate((half[: ny // 3 + 1], half[ny - ny // 3 :])))
    assert solver._floats(kernel.stages, 0, (ny, nx)).shape == (ny, nx)
    s = run(fields.gaussian(g, amplitude=0.5), cfg, norms=(NormSpec.hs(1.0),)).series
    assert np.all(np.isfinite(s.norms[NormSpec.hs(1.0)]))


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="older CPython keeps call arguments in the caller's frame"
)
def test_run_frees_a_temporary_initial_field_before_stepping(monkeypatch):
    # a caller that passes phi as a temporary leaves run its only holder,
    # and run drops it once it has the transform, so its samples are gone
    # before the first step
    g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
    refs, alive = [], []
    real = _StepKernel.advance

    def spy(self, c, audit=None):
        if not alive:
            alive.append(refs[0]() is not None)
        return real(self, c, audit)

    def temporary():
        phi = fields.gaussian(g, amplitude=0.5)
        refs.append(weakref.ref(phi.samples))
        return phi

    monkeypatch.setattr(_StepKernel, "advance", spy)
    run(temporary(), SolverConfig(dt=1e-3, t_final=2e-3))
    assert alive == [False]


def test_run_keeps_the_record_closure():
    # perfbench's tracer finds the code object named `record` among run's
    # constants and opens one record span at each `inverse` call made from it
    records = [
        c for c in run.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == "record"
    ]
    assert len(records) == 1
    assert "inverse" in records[0].co_names


def test_tracer_hooks_stay(monkeypatch):
    # perfbench's tracer wraps `advance` on the kernel class, and it finds
    # each Picard sweep by that sweep's n_nodes calls to the module-level
    # nonlinear_rhs
    assert "advance" in vars(_StepKernel)
    calls = []
    real = solver.nonlinear_rhs

    def counted(F):
        calls.append(F)
        return real(F)

    monkeypatch.setattr(solver, "nonlinear_rhs", counted)
    g = make_grid(32, 32, 16 * np.pi, 16 * np.pi)
    res = picard_solve(fields.gaussian(g, amplitude=0.25), 0.01, 0.1, tol=1.0, n_nodes=7)
    assert res.iterations == 1
    assert len(calls) == 7


def test_semidiscrete_energy_balance():
    # <u, H u_xx + u_xyy + P(u u_x)> = 0 to roundoff for dealiased u: the
    # linear symbols are imaginary odd and the masked product is alias-free,
    # so the quadratic triads cancel exactly.  Sizes not divisible by 3 keep
    # the retained band strictly below the alias-free limit.
    from bozk.grid import SpectrumField, apply_multiplier

    g = make_grid(64, 64, 11.0, 11.0)
    rng = np.random.default_rng(12)
    u = inverse(dealias(forward(RealField(g, rng.standard_normal((64, 64))))))
    F = forward(u)
    lin = inverse(
        apply_multiplier(F, lambda xi, eta: 1j * xi * np.abs(xi) - 1j * xi * eta**2)
    )
    ux = inverse(SpectrumField(g, 1j * g.xi2 * F.coeffs))
    adv = inverse(dealias(forward(RealField(g, u.samples * ux.samples))))
    total = np.sum(u.samples * (lin.samples + adv.samples)) * g.cell_area
    scale = u.l2() ** 2
    assert abs(total) < 1e-11 * scale


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.5, t_final=0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_final=1.0, mu=-1e-3)
