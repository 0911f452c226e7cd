"""Periodic 2-D grids, discrete Fourier transforms, and diagonal multipliers.

Conventions fixed here and relied on everywhere else:

* Physical arrays have shape ``(ny, nx)``: axis 0 is y, axis 1 is x, so x is
  the fastest-varying (contiguous) direction in C order.
* The spatial grid is centred, ``x_i = -Lx/2 + i*dx``, ``y_j = -Ly/2 + j*dy``.
* Spectral coefficients are normalised to approximate the continuum transform
  ``u_hat(xi, eta) = int exp(-i(x*xi + y*eta)) u dx dy``, i.e. they equal the
  raw DFT times ``dx*dy`` times the exact centring phase ``(-1)**(m+n)``.
* Fields are real, so their transforms are Hermitian,
  ``u_hat(-xi, -eta) = conj u_hat(xi, eta)``, and only the half plane is
  stored: coefficient arrays have shape ``(ny, nx//2 + 1)`` (the layout of
  ``rfft2``).  Rows follow FFT order, ``n in [-ny/2, ny/2)``; the columns are
  ``m = 0, 1, ..., nx/2 - 1`` and last the Nyquist column, which keeps the
  wavenumber ``xi = -pi*nx/Lx``.  Columns 0 and Nyquist are self-paired (the
  partner of row n is row -n of the same column); every other column stands
  for itself and its unstored mirror at -xi, so Parseval counts it twice.
* The Nyquist lines (the last column and the row ``n = -ny/2``) have no
  partner of opposite sign, so every symbol, generators included, is
  evaluated on them only by :func:`multiplier_array`, which symmetrises
  it there (average over the two Nyquist signs).  A symbol even in xi and
  eta is its own average, and the rows and columns the 2/3 mask keeps hold
  no Nyquist line, so the Sobolev weights and the solver's advection row
  skip it.  This keeps inverse transforms of Hermitian data exactly real
  without branching; a propagator is the exponential of a symmetrised
  generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

Multiplier = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on ``[-Lx/2, Lx/2) x [-Ly/2, Ly/2)``."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        if self.nx % 2 != 0 or self.ny % 2 != 0 or self.nx < 8 or self.ny < 8:
            raise ValueError(
                f"grid sizes must be even and >= 8, got nx={self.nx}, ny={self.ny}"
            )
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ValueError(
                f"period lengths must be finite and positive, got {self.lx}, {self.ly}"
            )

        dx = self.lx / self.nx
        dy = self.ly / self.ny
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

        # stored columns: m = 0..nx/2-1, then the Nyquist column m = -nx/2
        mx = np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(np.int64)[: self.nx // 2 + 1]
        my = np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(np.int64)
        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "my", my)
        object.__setattr__(self, "xi", 2.0 * np.pi * mx / self.lx)
        object.__setattr__(self, "eta", 2.0 * np.pi * my / self.ly)

        x = -0.5 * self.lx + dx * np.arange(self.nx)
        y = -0.5 * self.ly + dy * np.arange(self.ny)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

        for arr in (mx, my, x, y):
            arr.setflags(write=False)

    # broadcastable 2-D views -------------------------------------------------

    @property
    def spectral_shape(self) -> tuple:
        """Coefficient shape, (ny, nx//2 + 1)."""
        return (self.ny, self.mx.size)

    @property
    def xi2(self) -> np.ndarray:
        """xi broadcast to coefficient shape (ny, nx//2 + 1)."""
        return np.broadcast_to(self.xi[None, :], self.spectral_shape)

    @property
    def eta2(self) -> np.ndarray:
        return np.broadcast_to(self.eta[:, None], self.spectral_shape)

    @property
    def xmesh(self) -> np.ndarray:
        return np.broadcast_to(self.x[None, :], (self.ny, self.nx))

    @property
    def ymesh(self) -> np.ndarray:
        return np.broadcast_to(self.y[:, None], (self.ny, self.nx))

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @functools.cached_property
    def parseval_weight(self) -> np.ndarray:
        """Weight of each coefficient's ``|u_hat|^2`` in the Parseval sum for
        ``||u||^2``: the column's multiplicity (1 for column 0 and the
        Nyquist column, 2 for the rest, which also stand for their unstored
        mirrors) times ``dxi*deta/(2 pi)^2 = 1/(lx*ly)``; read-only, cached."""
        row = np.full(self.mx.size, 2.0 / (self.lx * self.ly))
        row[[0, -1]] *= 0.5
        return np.broadcast_to(row, self.spectral_shape)


class NonFiniteField(ValueError):
    """A field sample is NaN or infinite: bad input data at an I/O boundary,
    or a blow-up inside the solver (which reports it as a numerical abort)."""


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid2D:
    """Validate sizes and build a :class:`Grid2D`."""
    return Grid2D(nx=int(nx), ny=int(ny), lx=float(lx), ly=float(ly))


@dataclass(frozen=True)
class RealField:
    """Real samples on a grid; shape ``(ny, nx)``, x fastest."""

    grid: Grid2D
    samples: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.samples, dtype=np.float64)
        if a.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(f"samples shape {a.shape} != {(self.grid.ny, self.grid.nx)}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteField("field contains non-finite samples")
        object.__setattr__(self, "samples", a)

    @classmethod
    def from_function(cls, grid: Grid2D, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "RealField":
        return cls(grid, np.asarray(fn(grid.xmesh, grid.ymesh), dtype=np.float64))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "RealField":
        return cls(grid, np.zeros((grid.ny, grid.nx)))

    def l2(self, weight: Optional[np.ndarray] = None) -> float:
        """Discrete L2 norm, ``sqrt(sum weight f^2 dx dy)``; ``weight`` is a
        nonnegative array of sample shape multiplying f^2 (pass w^2 for
        ``||w f||``), unweighted when omitted."""
        sq = self.samples**2
        if weight is not None:
            sq = weight * sq
        return float(np.sqrt(np.sum(sq) * self.grid.cell_area))


@dataclass(frozen=True)
class SpectrumField:
    """Complex coefficients approximating the continuum transform."""

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.coeffs, dtype=np.complex128)
        if a.shape != self.grid.spectral_shape:
            raise ValueError(f"coeffs shape {a.shape} != {self.grid.spectral_shape}")
        object.__setattr__(self, "coeffs", a)

    def l2(self) -> float:
        """L2 norm of the underlying field via Parseval: each coefficient
        counts with ``Grid2D.parseval_weight``."""
        c = self.coeffs
        sq = np.square(c.real)
        sq += np.square(c.imag)
        sq *= self.grid.parseval_weight
        return float(np.sqrt(np.sum(sq)))


# The transform pair is rfft2/irfft2.  Both run their y pass in place on an
# array they own: a second half-plane temporary per call made glibc trim and
# re-fault the heap on every transform (about a quarter more minor page
# faults over a whole 256^2 run), for the same arithmetic.


def _flip_centre_phase(a: np.ndarray) -> None:
    """Multiply the half-plane array `a` in place by the centring phase
    ``(-1)**(m+n)``, ``exp(-i xi_m x_0 - i eta_n y_0)`` on the centred grid.
    In both FFT-order axes an index has the parity of its wavenumber index
    (nx and ny are even), so the phase is -1 exactly on the odd rows' even
    columns and the even rows' odd columns.  A flip is a product with -1,
    not a negation: after a product with a scale s it gives the bits of one
    product with -s on every finite coefficient with a nonzero part, the
    sign of a zero part included, which a negation would flip."""
    a[0::2, 1::2] *= -1.0
    a[1::2, 0::2] *= -1.0


def forward(f: RealField) -> SpectrumField:
    g = f.grid
    coeffs = np.fft.rfft2(f.samples, out=np.empty(g.spectral_shape, dtype=np.complex128))
    coeffs *= g.cell_area
    _flip_centre_phase(coeffs)
    return SpectrumField(g, coeffs)


def inverse(
    F: SpectrumField, work: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> RealField:
    """The field of `F`.  With `work`, a complex array of coefficient shape
    and a float array of sample shape, the raw coefficients go into
    ``work[0]`` and the samples into ``work[1]``, which the result then
    shares; without it, both are fresh."""
    g = F.grid
    raw, samples = (None, None) if work is None else work
    raw = np.multiply(F.coeffs, 1.0 / g.cell_area, out=raw)
    _flip_centre_phase(raw)
    np.fft.ifft(raw, axis=0, out=raw)  # irfft2 is this y pass, then irfft along x
    return RealField(g, np.fft.irfft(raw, n=g.nx, axis=1, out=samples))


def xi_line(F: SpectrumField, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(xi, u_hat(xi, eta_n))`` on the whole xi line, xi ascending from
    ``-pi*nx/Lx`` (the Nyquist column) to ``pi*(nx - 2)/Lx``.

    The negative columns are not stored; they are rebuilt from row ``-n`` by
    Hermitian symmetry, ``u_hat(-xi, eta_n) = conj u_hat(xi, eta_-n)``."""
    g = F.grid
    h = g.nx // 2
    c = F.coeffs
    row = np.concatenate((c[n, h:], np.conj(c[-n, h - 1 : 0 : -1]), c[n, :h]))
    return 2.0 * np.pi * np.arange(-h, h) / g.lx, row


def multiplier_array(grid: Grid2D, m: Multiplier) -> np.ndarray:
    """Evaluate a symbol on the grid and symmetrise its Nyquist lines.

    For a Hermitian symbol (``m(-xi,-eta) = conj m(xi, eta)``) the returned
    array satisfies the same identity on the discrete index set, including
    the self-paired Nyquist lines, so multiplying a Hermitian spectrum keeps
    it exactly Hermitian.  Off the Nyquist lines the values are untouched.
    Symmetrise a propagator's generator, not its exponential: the average is
    linear, so it respects sums of generators but not products of
    exponentials, and only ``exp`` of the symmetrised generator is a group.

    A Nyquist-line value is ``(m(p) + conj m(p*))/2``, where ``p*`` is the
    grid point paired with ``p``: on the Nyquist column, the same column at
    row ``-n``; on the Nyquist row, the same row at ``-xi`` (for columns 0
    and Nyquist, ``p`` itself), which the half plane does not store, so the
    symbol is evaluated there once more.
    """
    ny = grid.ny
    xi_pair = -grid.xi
    xi_pair[[0, -1]] = grid.xi[[0, -1]]
    with np.errstate(all="ignore"):
        vals = np.asarray(m(grid.xi2, grid.eta2), dtype=np.complex128)
        out = np.array(np.broadcast_to(vals, grid.spectral_shape))
        pair = np.asarray(m(xi_pair, np.full_like(xi_pair, grid.eta[ny // 2])), dtype=np.complex128)
        row = 0.5 * (out[ny // 2] + np.conj(pair))
        out[:, -1] = 0.5 * (out[:, -1] + np.conj(out[-np.arange(ny), -1]))
        out[ny // 2] = row
    if not np.all(np.isfinite(out)):
        raise ValueError("multiplier is non-finite at a grid wavenumber")
    return out


def apply_multiplier(F: SpectrumField, m: Multiplier) -> SpectrumField:
    """Pointwise multiply the spectrum by a symbol of (xi, eta)."""
    return SpectrumField(F.grid, F.coeffs * multiplier_array(F.grid, m))


def require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
