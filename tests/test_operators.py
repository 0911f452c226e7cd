import numpy as np
import pytest

from bozk.grid import RealField, forward, inverse, make_grid, multiplier_array
from bozk.operators import (
    _BASES,
    dispersion,
    fractional_op,
    hilbert_x,
    propagate,
    propagator_array,
    smoothing_ratio,
    sobolev_weight,
)
from helpers import bits, dealias, inverse_imag_residual

TWO_PI = 2.0 * np.pi


def band_limited(grid, seed, zero_x_mean=False):
    rng = np.random.default_rng(seed)
    f = RealField(grid, rng.standard_normal((grid.ny, grid.nx)))
    f = inverse(dealias(forward(f)))
    if zero_x_mean:
        f = RealField(grid, f.samples - f.samples.mean(axis=1, keepdims=True))
    return f


def test_dispersion_is_odd_and_vanishes_on_axis():
    xi = np.linspace(-5, 5, 41)
    eta = np.linspace(-3, 3, 41)
    assert np.allclose(dispersion(-xi, -eta), -dispersion(xi, eta))
    assert np.all(dispersion(np.zeros(7), np.arange(7.0)) == 0.0)


@pytest.mark.parametrize("nx, ny, lx, ly", [
    (8, 8, 1.0, 1.0),
    (96, 72, 16 * np.pi, 8 * np.pi),
    (64, 256, 3.0, 40.0),
    (256, 8, 50.0, 0.5),
])
def test_sobolev_weight_is_the_symmetrised_multiplier_bit_for_bit(nx, ny, lx, ly):
    # every base is even in xi and eta, so the Nyquist average is the
    # identity and the real evaluation is the multiplier's real part, bit
    # for bit; a weight that is non-finite at xi = eta = 0 raises as there
    g = make_grid(nx, ny, lx, ly)
    raised = 0
    for kind, base in _BASES.items():
        for s in (-1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7):
            try:
                ref = multiplier_array(g, lambda xi, eta: base(xi, eta) ** s).real
            except ValueError:
                with pytest.raises(ValueError, match="non-finite"):
                    sobolev_weight(g, kind, s)
                raised += 1
                continue
            w = sobolev_weight(g, kind, s)
            assert w.shape == g.spectral_shape
            assert np.array_equal(bits(w), bits(ref))
    assert raised == 4  # D and D_x at the two negative orders


class TestHilbert:
    def test_cos_to_sin(self):
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        h = hilbert_x(RealField.from_function(g, lambda x, y: np.cos(x)))
        s = RealField.from_function(g, lambda x, y: np.sin(x))
        assert np.max(np.abs(h.samples - s.samples)) < 1e-13

    def test_constant_annihilated(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        h = hilbert_x(RealField.from_function(g, lambda x, y: np.ones_like(x)))
        assert np.max(np.abs(h.samples)) == 0.0

    def test_involution_on_zero_mean(self):
        g = make_grid(32, 32, TWO_PI, TWO_PI)
        f = band_limited(g, 1, zero_x_mean=True)
        hh = hilbert_x(hilbert_x(f))
        assert np.max(np.abs(hh.samples + f.samples)) < 1e-12


class TestFractional:
    def test_identity_at_zero_order(self):
        g = make_grid(16, 16, 4.0, 4.0)
        f = band_limited(g, 2)
        for kind in ("J", "J_x", "J_y", "D", "D_x"):
            out = fractional_op(f, kind, 0.0)
            assert np.max(np.abs(out.samples - f.samples)) < 1e-12

    def test_j2_scales_diagonal_mode_by_three(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x + y))
        out = fractional_op(u, "J", 2.0)
        assert np.max(np.abs(out.samples - 3.0 * u.samples)) < 1e-12

    def test_dx_order_one_fixes_cosine(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x))
        out = fractional_op(u, "D_x", 1.0)
        assert np.max(np.abs(out.samples - u.samples)) < 1e-12

    def test_negative_homogeneous_needs_zero_mean(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: 1.0 + np.cos(x))
        with pytest.raises(ValueError):
            fractional_op(u, "D", -1.0)
        with pytest.raises(ValueError):
            fractional_op(u, "D_x", -0.5)

    def test_negative_homogeneous_raises_on_zero_mean(self):
        # cos(x) has no mass on the xi = 0 line, and D_x^-1 still raises
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x))
        with pytest.raises(ValueError, match="z >= 0"):
            fractional_op(u, "D_x", -1.0)

    def test_unknown_kind(self):
        g = make_grid(16, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            fractional_op(band_limited(g, 0), "Q", 1.0)


class TestPropagate:
    def test_unit_modulus_at_zero_viscosity(self):
        g = make_grid(32, 32, 8.0, 8.0)
        F = dealias(forward(band_limited(g, 3)))
        for t in (0.1, -2.5, 7.0):
            P = propagate(F, t, 0.0)
            assert np.max(np.abs(np.abs(P.coeffs) - np.abs(F.coeffs))) < 1e-12

    def test_stationary_mode_pure_decay(self):
        # omega(1, 1) = 1 - 1 = 0, so only the damping factor acts
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        F = forward(RealField.from_function(g, lambda x, y: np.cos(x + y)))
        mu, t = 0.3, 0.7
        P = propagate(F, t, mu)
        assert np.max(np.abs(P.coeffs - F.coeffs * np.exp(-2 * mu * t))) < 1e-12

    def test_contraction_on_random_fields(self):
        g = make_grid(16, 16, 5.0, 5.0)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            f = RealField(g, rng.standard_normal((16, 16)))
            evolved = inverse(propagate(forward(f), 0.2, 0.05))
            assert evolved.l2() <= f.l2() * (1 + 1e-12)

    def test_group_law(self):
        g = make_grid(32, 32, 8.0, 8.0)
        F = dealias(forward(band_limited(g, 4)))
        a = propagate(propagate(F, 0.3, 0.0), 0.45, 0.0)
        b = propagate(F, 0.75, 0.0)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * np.max(np.abs(F.coeffs))

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_group_law_on_the_whole_table(self, mu):
        # the Nyquist column included: the table is the exponential of a
        # symmetrised generator, not a symmetrised exponential
        g = make_grid(64, 64, 16 * np.pi, 16 * np.pi)
        step = propagator_array(g, 0.4 / 64, mu)
        acc = np.ones_like(step)
        for _ in range(64):
            acc = acc * step
        assert np.max(np.abs(acc - propagator_array(g, 0.4, mu))) <= 1e-13

    def test_semigroup_law(self):
        g = make_grid(32, 32, 8.0, 8.0)
        F = dealias(forward(band_limited(g, 5)))
        a = propagate(propagate(F, 0.2, 0.4), 0.5, 0.4)
        b = propagate(F, 0.7, 0.4)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * np.max(np.abs(F.coeffs))

    def test_realness(self):
        g = make_grid(32, 32, 8.0, 8.0)
        rng = np.random.default_rng(6)
        f = RealField(g, rng.standard_normal((32, 32)))
        P = propagate(forward(f), 1.3, 0.2)
        assert inverse_imag_residual(P) < 1e-12

    def test_backward_diffusion_rejected(self):
        g = make_grid(16, 16, 1.0, 1.0)
        F = forward(band_limited(g, 7))
        with pytest.raises(ValueError):
            propagate(F, -0.1, 0.5)
        propagate(F, -0.1, 0.0)  # free flow runs backwards fine


def test_skew_adjointness():
    # <f, H d_x^2 f + f_xyy> = 0 to roundoff: both symbols are imaginary odd
    g = make_grid(32, 32, 8.0, 8.0)
    rng = np.random.default_rng(8)
    f = RealField(g, rng.standard_normal((32, 32)))
    F = forward(f)
    sym = lambda xi, eta: 1j * xi * np.abs(xi) - 1j * xi * eta**2
    from bozk.grid import apply_multiplier

    lf = inverse(apply_multiplier(F, sym))
    pairing = np.sum(f.samples * lf.samples) * g.cell_area
    scale = f.l2() * lf.l2()
    assert abs(pairing) < 1e-12 * max(scale, 1.0)


class TestSmoothingRatio:
    def test_small_order_limit(self):
        g = make_grid(32, 32, 8.0, 8.0)
        rng = np.random.default_rng(9)
        phi = RealField(g, rng.standard_normal((32, 32)))
        r = smoothing_ratio(phi, mu=0.5, t=1.0, lam=1e-8)
        assert r <= 0.5 + 1e-6

    def test_bounded_over_small_times(self):
        g = make_grid(32, 32, 8.0, 8.0)
        rng = np.random.default_rng(10)
        phi = RealField(g, rng.standard_normal((32, 32)))
        ratios = [smoothing_ratio(phi, 0.5, t, 1.0) for t in (1e-1, 1e-2, 1e-3)]
        assert max(ratios) < 1.0  # recorded ceiling for rough data at mu = 1/2

    def test_preconditions(self):
        g = make_grid(16, 16, 1.0, 1.0)
        phi = band_limited(g, 11)
        with pytest.raises(ValueError):
            smoothing_ratio(phi, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            smoothing_ratio(RealField.zeros(g), 0.5, 0.1, 1.0)
