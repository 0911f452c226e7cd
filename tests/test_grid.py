import numpy as np
import pytest

from bozk.grid import (
    RealField,
    SpectrumField,
    apply_multiplier,
    forward,
    inverse,
    make_grid,
    multiplier_array,
    xi_line,
)
from bozk import fields
from bozk.diagnostics import norm
from bozk.operators import NormSpec, dispersion
from bozk.solver import SolverConfig, run
from helpers import bits, centre_phase, dealias, inverse_imag_residual

TWO_PI = 2.0 * np.pi


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal((grid.ny, grid.nx)))


class TestMakeGrid:
    def test_wavenumber_set(self):
        # stored columns 0..3 and the Nyquist column -4; with the unstored
        # mirrors -3..-1 they make up the whole set
        g = make_grid(8, 8, TWO_PI, TWO_PI)
        assert list(g.mx) == [0, 1, 2, 3, -4]
        assert sorted(set(g.mx) | set(-g.mx[1:-1])) == list(range(-4, 4))
        xi, _ = xi_line(forward(random_field(g)), 0)
        assert list(xi) == [float(m) for m in range(-4, 4)]

    def test_spacing_follows_period(self):
        g = make_grid(8, 8, 2 * TWO_PI, TWO_PI)
        assert np.isclose(np.min(np.abs(g.xi[g.xi > 0])), 0.5)
        assert np.isclose(np.min(np.abs(g.eta[g.eta > 0])), 1.0)

    @pytest.mark.parametrize("nx,ny", [(7, 8), (8, 7), (6, 8), (8, 4)])
    def test_rejects_odd_or_tiny(self, nx, ny):
        with pytest.raises(ValueError):
            make_grid(nx, ny, 1.0, 1.0)

    @pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_lengths(self, lx, ly):
        with pytest.raises(ValueError):
            make_grid(8, 8, lx, ly)

    def test_centred_coordinates(self):
        g = make_grid(16, 16, 8.0, 4.0)
        assert g.x[0] == -4.0 and g.y[0] == -2.0
        assert np.isclose(g.x[-1], 4.0 - g.dx)


class TestTransforms:
    def test_constant_field(self):
        g = make_grid(8, 8, TWO_PI, TWO_PI)
        F = forward(RealField.from_function(g, lambda x, y: np.ones_like(x)))
        assert np.isclose(F.coeffs[0, 0], TWO_PI**2)
        off = np.abs(F.coeffs).sum() - abs(F.coeffs[0, 0])
        assert off < 1e-10

    def test_cosine_modes(self):
        # cos(x) = (e^{ix} + e^{-ix})/2: each mode carries (2 pi)^2 / 2
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        F = forward(RealField.from_function(g, lambda x, y: np.cos(x)))
        plus = F.coeffs[0, list(g.mx).index(1)]
        xi, row = xi_line(F, 0)
        minus = row[list(xi).index(-1.0)]
        assert np.isclose(plus, 0.5 * TWO_PI**2)
        assert np.isclose(minus, 0.5 * TWO_PI**2)

    def test_roundtrip(self):
        g = make_grid(32, 16, 5.0, 9.0)
        f = random_field(g, 1)
        back = inverse(forward(f))
        rel = np.linalg.norm(back.samples - f.samples) / np.linalg.norm(f.samples)
        assert rel < 1e-12

    def test_grid_mismatch_rejected(self):
        g1 = make_grid(16, 16, 1.0, 1.0)
        f = random_field(g1)
        with pytest.raises(ValueError):
            SpectrumField(make_grid(32, 32, 1.0, 1.0), forward(f).coeffs)

    def test_parseval(self):
        for seed in range(5):
            g = make_grid(24, 40, 3.0, 11.0)
            f = random_field(g, seed)
            assert abs(f.l2() - forward(f).l2()) / f.l2() < 1e-10

    def test_conjugate_symmetry_of_real_transform(self):
        # the self-paired columns (0 and Nyquist) pair row n with row -n
        g = make_grid(16, 16, 2.0, 3.0)
        C = forward(random_field(g, 2)).coeffs
        cols = C[:, [0, -1]]
        flipped = np.conj(cols[-np.arange(g.ny)])
        assert np.max(np.abs(cols - flipped)) < 1e-9


class TestMultiplier:
    def test_identity(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        F = forward(random_field(g, 3))
        G = apply_multiplier(F, lambda xi, eta: np.ones_like(xi))
        assert np.array_equal(F.coeffs, G.coeffs)

    def test_j1_on_diagonal_mode(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x + y))
        G = apply_multiplier(forward(u), lambda xi, eta: (1 + xi**2 + eta**2) ** 0.5)
        assert np.max(np.abs(inverse(G).samples - np.sqrt(3) * u.samples)) < 1e-12

    def test_second_derivative_of_cosine(self):
        g = make_grid(16, 16, TWO_PI, TWO_PI)
        u = RealField.from_function(g, lambda x, y: np.cos(x))
        F = forward(u)
        G = apply_multiplier(apply_multiplier(F, lambda xi, eta: 1j * xi),
                             lambda xi, eta: 1j * xi)
        assert np.max(np.abs(inverse(G).samples + u.samples)) < 1e-12

    def test_linearity_exact(self):
        g = make_grid(16, 16, 4.0, 4.0)
        m = lambda xi, eta: (1 + xi**2) ** 0.7
        F = forward(random_field(g, 4))
        G = forward(random_field(g, 5))
        lhs = apply_multiplier(
            SpectrumField(g, 2.0 * F.coeffs + 3.0 * G.coeffs), m
        ).coeffs
        rhs = 2.0 * apply_multiplier(F, m).coeffs + 3.0 * apply_multiplier(G, m).coeffs
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 4 * np.finfo(float).eps * scale

    def test_nonfinite_multiplier_rejected(self):
        g = make_grid(16, 16, 4.0, 4.0)
        F = forward(random_field(g))
        with pytest.raises(ValueError):
            apply_multiplier(F, lambda xi, eta: 1.0 / (xi**2 + eta**2))

    def test_hermitian_multiplier_keeps_inverse_real(self):
        g = make_grid(16, 16, 4.0, 4.0)
        F = forward(random_field(g, 6))
        G = apply_multiplier(F, lambda xi, eta: np.exp(1j * (xi * eta**2 - xi * np.abs(xi))))
        assert inverse_imag_residual(G) < 1e-12


class TestDealias:
    def test_mask_at_twelve(self):
        g = make_grid(12, 12, TWO_PI, TWO_PI)
        F = SpectrumField(g, np.ones((12, 7), dtype=complex))
        D = dealias(F).coeffs
        for i, m in enumerate(g.mx):
            kept = D[0, i] != 0
            assert kept == (abs(m) <= 4), f"mode {m}"
        # mode -5 is the unstored mirror of mode 5
        zeroed = {int(m) for i, m in enumerate(g.mx) if D[0, i] == 0}
        assert zeroed == {-6, 5}

    def test_projection_idempotent(self):
        g = make_grid(24, 24, 1.0, 1.0)
        F = forward(random_field(g, 7))
        once = dealias(F)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_constant_untouched(self):
        g = make_grid(16, 16, 1.0, 1.0)
        F = forward(RealField.from_function(g, lambda x, y: 3.0 + 0 * x))
        assert np.isclose(dealias(F).coeffs[0, 0], F.coeffs[0, 0])



def full_plane(g):
    """Full FFT-ordered wavenumber meshes and centring phase of the grid."""
    mx = np.fft.fftfreq(g.nx, d=1.0 / g.nx)
    my = np.fft.fftfreq(g.ny, d=1.0 / g.ny)
    xi = (2.0 * np.pi * mx / g.lx)[None, :]
    eta = (2.0 * np.pi * my / g.ly)[:, None]
    phase = np.where((mx[None, :] + my[:, None]) % 2 == 0, 1.0, -1.0)
    return xi, eta, phase


def full_forward(f):
    _, _, phase = full_plane(f.grid)
    return np.fft.fft2(f.samples) * (f.grid.cell_area * phase)


def full_multiplier(g, m):
    """Symbol on the full plane, averaged with its conjugate flip on the
    Nyquist column and row."""
    xi, eta, _ = full_plane(g)
    with np.errstate(all="ignore"):
        vals = np.array(np.broadcast_to(m(xi, eta), (g.ny, g.nx)), dtype=complex)
        flip = np.conj(np.roll(vals[::-1, ::-1], shift=(1, 1), axis=(0, 1)))
        sym = 0.5 * (vals + flip)
    out = vals.copy()
    out[:, g.nx // 2] = sym[:, g.nx // 2]
    out[g.ny // 2, :] = sym[g.ny // 2, :]
    return out


def nyquist_field(g, seed):
    """Random samples plus content on the x-, y- and corner Nyquist modes."""
    alt_x = (-1.0) ** np.arange(g.nx)[None, :]
    alt_y = (-1.0) ** np.arange(g.ny)[:, None]
    f = random_field(g, seed).samples
    return RealField(g, f + 3.0 * alt_x * np.cos(g.ymesh) + 2.0 * alt_y + alt_x * alt_y)


class TestHalfPlaneLayout:
    """The stored half plane is the left half (columns 0..nx/2) of the full
    FFT-ordered plane."""

    def test_forward_is_left_half_of_full_transform(self):
        # (10, 14) and (70, 50) have odd half sizes, so the Nyquist row and
        # column sit at odd indices and carry a flipped phase
        for nx, ny, seed in [(16, 16, 0), (24, 40, 1), (64, 32, 2), (10, 14, 3), (70, 50, 4)]:
            g = make_grid(nx, ny, 3.0, 7.0)
            f = nyquist_field(g, seed)
            ref = full_forward(f)[:, : nx // 2 + 1]
            C = forward(f).coeffs
            assert C.shape == (ny, nx // 2 + 1)
            assert np.max(np.abs(C - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nx, ny", [(16, 12), (10, 14), (70, 50)])
    def test_transforms_are_phased_raw_transforms(self, nx, ny):
        # bit for bit rfft2 times cell_area and the phase table, and irfft2
        # of the coefficients times the phase table over cell_area, on
        # even and odd half sizes
        g = make_grid(nx, ny, 3.0, 7.0)
        f = nyquist_field(g, 6)
        F = forward(f)
        ref = np.fft.rfft2(f.samples) * (g.cell_area * centre_phase(g))
        assert np.array_equal(bits(F.coeffs), bits(ref))
        raw = F.coeffs * (centre_phase(g) / g.cell_area)
        assert np.array_equal(bits(inverse(F).samples), bits(np.fft.irfft2(raw, s=(ny, nx))))

    @pytest.mark.parametrize(
        "symbol",
        [
            lambda xi, eta: np.exp(1j * 0.7 * dispersion(xi, eta) - 0.7 * 0.1 * (xi**2 + eta**2)),
            lambda xi, eta: -1j * np.sign(xi),
            lambda xi, eta: (1.0 + xi**2 + eta**2) ** 1.25,
            lambda xi, eta: (1.0 + xi) * np.exp(0.3j * eta) + 1j * eta**2,
        ],
        ids=["propagator", "hilbert", "J^2.5", "non_hermitian"],
    )
    def test_multiplier_is_left_half_of_full_array(self, symbol):
        g = make_grid(16, 12, 5.0, 3.0)
        ref = full_multiplier(g, symbol)[:, : g.nx // 2 + 1]
        out = multiplier_array(g, symbol)
        assert np.array_equal(out, ref)

    def test_parseval_counts_multiplicity(self):
        for nx, ny, seed in [(16, 16, 3), (24, 10, 4)]:
            g = make_grid(nx, ny, 4.0, 2.5)
            f = nyquist_field(g, seed)
            F = forward(f)
            assert abs(F.l2() - f.l2()) <= 1e-13 * f.l2()
            # the H^2 norm, whose Fourier weight is (1 + xi^2 + eta^2)^2,
            # against the full-plane Parseval sum
            xi, eta, _ = full_plane(g)
            w_full = (1.0 + xi**2 + eta**2) ** 2
            full = np.sqrt(np.sum(w_full * np.abs(full_forward(f)) ** 2)
                           * (TWO_PI / g.lx) * (TWO_PI / g.ly)) / TWO_PI
            half = norm(f, NormSpec.hs(2.0))
            assert abs(half - full) <= 1e-13 * full

    def test_xi_line_is_full_plane_row(self):
        g = make_grid(16, 12, 5.0, 3.0)
        f = nyquist_field(g, 5)
        full = full_forward(f)
        xi_full, _, _ = full_plane(g)
        order = np.argsort(xi_full[0])
        F = forward(f)
        for n in range(g.ny):
            xi, row = xi_line(F, n)
            assert np.array_equal(xi, xi_full[0, order])
            ref = full[n, order]
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(full))

    def test_imag_residual_sits_on_self_paired_columns(self):
        # inverse keeps the Hermitian part; what it drops is the imaginary
        # part of the full-plane inverse, which only columns 0 and Nyquist
        # can carry
        g = make_grid(16, 12, 5.0, 3.0)
        F = forward(nyquist_field(g, 6))
        assert inverse_imag_residual(F) < 1e-12 * np.max(np.abs(F.coeffs))
        rng = np.random.default_rng(7)
        C = F.coeffs.copy()
        C[:, 1:-1] += rng.standard_normal(C[:, 1:-1].shape) * 1j
        assert inverse_imag_residual(SpectrumField(g, C)) < 1e-12 * np.max(np.abs(C))
        C[:, [0, -1]] += rng.standard_normal((g.ny, 2)) * 1j
        xi, eta, phase = full_plane(g)
        full = np.zeros((g.ny, g.nx), dtype=complex)
        full[:, : g.nx // 2 + 1] = C
        mirror = np.conj(C[-np.arange(g.ny), 1 : g.nx // 2])
        full[:, g.nx // 2 + 1 :] = mirror[:, ::-1]
        ref = np.max(np.abs(np.fft.ifft2(full * phase / g.cell_area).imag))
        assert ref > 1e-3
        assert abs(inverse_imag_residual(SpectrumField(g, C)) - ref) <= 1e-12 * ref


def test_field_validation():
    g = make_grid(8, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        RealField(g, np.zeros((4, 8)))
    bad = np.zeros((8, 8))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        RealField(g, bad)


def test_grid_owns_only_its_axes():
    # after transforms and a run, every array the grid owns is one of its
    # 1-D axes: the centring phase is applied by sign flips, the advection
    # row lives in the solver, and parseval_weight is a broadcast view of
    # one row
    g = make_grid(256, 256, 16 * np.pi, 16 * np.pi)
    u = fields.gaussian(g, amplitude=0.5)
    inverse(forward(u))
    run(u, SolverConfig(dt=1e-3, t_final=2e-3, stride=1), norms=[NormSpec.hs(1.0)])
    arrays = {k: v for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert "parseval_weight" in arrays
    owned = {k: v.shape for k, v in arrays.items() if v.flags.owndata}
    assert owned and all(len(shape) == 1 for shape in owned.values()), owned
