"""Linear symbols of the equation: Hilbert transform, fractional powers,
the norm rows, and the exact propagators of the free and parabolically
regularised flows.

The dispersion relation is ``omega(xi, eta) = xi*eta**2 - xi*|xi|`` (odd in
xi, even in eta, and zero on the xi = 0 line), so the free propagator
multiplies each coefficient by the unit-modulus phase ``exp(i t omega)`` and
the regularised one adds the decay ``exp(-t mu (xi^2 + eta^2))``.

The self-paired x-Nyquist column carries no continuum sign for xi, so every
symbol, generators included, is averaged over the two Nyquist signs there,
and only by :func:`bozk.grid.multiplier_array`; odd symbols annihilate the
column.  The even, real Sobolev weights are their own average, so
:func:`sobolev_weight` evaluates them directly.  A propagator is the exponential of its symmetrised generator, so its
Nyquist column is ``exp(-t mu (xi^2 + eta^2))`` and composition laws hold
exactly on the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .grid import (
    Grid2D,
    RealField,
    SpectrumField,
    apply_multiplier,
    forward,
    inverse,
    multiplier_array,
)
from .weights import WeightSpec, short_repr

# samples per block of a spatial norm row's evaluation
_ROW_BLOCK = 8192

# squared-modulus base of each fractional kind: J^z has the symbol
# base**(z/2), D^z has sqrt(base)**z, and base**s weighs the Sobolev norms
_BASES = {
    "J": lambda xi, eta: 1.0 + xi**2 + eta**2,
    "J_x": lambda xi, eta: 1.0 + xi**2,
    "J_y": lambda xi, eta: 1.0 + eta**2,
    "D": lambda xi, eta: xi**2 + eta**2,
    "D_x": lambda xi, eta: xi**2,
}


def dispersion(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """omega(xi, eta) = xi*eta^2 - xi*|xi|."""
    return xi * eta**2 - xi * np.abs(xi)


def hilbert_x(f: RealField) -> RealField:
    """Hilbert transform in x: the multiplier -i*sgn(xi), with sgn(0) = 0.

    The xi = 0 line is annihilated (principal-value convention) and so is the
    self-paired x-Nyquist column, where the odd symbol averages to zero; on
    the remaining modes the multiplier squares to -1.
    """
    return inverse(apply_multiplier(forward(f), lambda xi, eta: -1j * np.sign(xi)))


def sobolev_weight(grid: Grid2D, kind: str, s: float) -> np.ndarray:
    """Real Fourier weight ``base**s`` of a fractional kind, as
    :func:`norm_rows` takes it: ``(1 + xi^2 + eta^2)^s`` for "J", a
    read-only array of coefficient shape.  Every base is even in xi and
    eta, so the Nyquist average of :func:`multiplier_array` is the
    identity on it: the weight is evaluated as a real array from the 1-D
    axes, bit for bit the real part of that average.  A non-finite value
    raises ``ValueError``, as there."""
    with np.errstate(all="ignore"):
        w = _BASES[kind](grid.xi[None, :], grid.eta[:, None])
        w **= s
    if not np.all(np.isfinite(w)):
        raise ValueError("multiplier is non-finite at a grid wavenumber")
    return np.broadcast_to(w, grid.spectral_shape)


@dataclass(frozen=True)
class NormSpec:
    """One norm, whose square is a Parseval sum of |u_hat|^2 against a
    Fourier weight plus a grid sum of u^2 against a spatial weight w^2; a
    kind has at most one of each part (see :func:`norm_rows`)."""

    kind: str
    s: Optional[float] = None
    s1: Optional[float] = None
    s2: Optional[float] = None
    r: Optional[float] = None
    weight: Optional[WeightSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in ("hs", "aniso", "l2r", "zsr", "l2w"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.r is not None and self.r < 0:
            raise ValueError("spatial decay order r must be >= 0")

    @classmethod
    def hs(cls, s: float) -> "NormSpec":
        return cls(kind="hs", s=float(s))

    @classmethod
    def aniso(cls, s1: float, s2: float) -> "NormSpec":
        return cls(kind="aniso", s1=float(s1), s2=float(s2))

    @classmethod
    def l2r(cls, r: float) -> "NormSpec":
        return cls(kind="l2r", r=float(r))

    @classmethod
    def zsr(cls, s: float, r: float) -> "NormSpec":
        return cls(kind="zsr", s=float(s), r=float(r))

    @classmethod
    def l2w(cls, weight: WeightSpec) -> "NormSpec":
        return cls(kind="l2w", weight=weight)

    def label(self) -> str:
        """The kind, then its parameters in field order: ``hs_2``,
        ``aniso_3_2.5``, ``l2r_1``, ``zsr_4_1``, ``l2w_poly1``."""
        if self.kind == "l2w":
            return f"l2w_{self.weight.label()}"
        values = (self.s, self.s1, self.s2, self.r)
        return "_".join([self.kind, *(short_repr(v) for v in values if v is not None)])


class NormRows(NamedTuple):
    grid: Grid2D
    fourier: np.ndarray  # Fourier weight times Grid2D.parseval_weight
    spatial: np.ndarray  # w^2
    has_fourier: np.ndarray  # per spec: whether it has a row in `fourier`
    has_spatial: np.ndarray


def norm_rows(grid: Grid2D, specs: Sequence[NormSpec]) -> NormRows:
    """The rows of `specs` on `grid`, at most one Fourier and one spatial
    row per spec, each table in spec order.  The Fourier weight is
    ``(1 + xi^2 + eta^2)^s`` for H^s and Z_{s,r}, ``1 + (1 + xi^2)^s1 +
    (1 + eta^2)^s2`` for H^{s1,s2}; w is the spec's weight for ``l2w``
    and ``<x,y>^r`` for L^2(<x,y>^{2r}) and Z_{s,r}."""
    has_f = np.array([spec.kind in ("hs", "aniso", "zsr") for spec in specs], dtype=bool)
    has_s = np.array([spec.kind in ("l2w", "l2r", "zsr") for spec in specs], dtype=bool)
    fourier = np.empty((int(has_f.sum()), *grid.spectral_shape))
    for row, spec in zip(fourier, compress(specs, has_f)):
        if spec.kind == "aniso":
            w = 1.0 + sobolev_weight(grid, "J_x", spec.s1) + sobolev_weight(grid, "J_y", spec.s2)
        else:
            w = sobolev_weight(grid, "J", spec.s)
        np.multiply(w, grid.parseval_weight, out=row)
    spatial = np.empty((int(has_s.sum()), grid.ny, grid.nx))
    # w is evaluated from the 1-D axes, a block of about _ROW_BLOCK samples
    # at a time, so no full-grid temporary is built
    step = max(1, _ROW_BLOCK // grid.nx)
    for row, spec in zip(spatial, compress(specs, has_s)):
        w = spec.weight or WeightSpec.polynomial(spec.r)
        for i in range(0, grid.ny, step):
            block = w.evaluate(grid.x[None, :], grid.y[i : i + step, None])
            np.square(block, out=row[i : i + step])
    return NormRows(grid, fourier, spatial, has_f, has_s)


def read_norms(
    rows: NormRows, power: Optional[np.ndarray], square: Optional[np.ndarray]
) -> np.ndarray:
    """``sqrt(Fourier sum + spatial sum)`` of every spec of `rows`, given
    ``power = |u_hat|^2`` and ``square = u^2``; a part that no spec has is
    not read, so its array may be None.  The einsum reductions use no BLAS,
    whose summation order may vary from run to run."""
    total = np.zeros(rows.has_fourier.size)
    if len(rows.fourier):
        total[rows.has_fourier] += np.einsum("kij,ij->k", rows.fourier, power)
    if len(rows.spatial):
        total[rows.has_spatial] += np.einsum("kij,ij->k", rows.spatial, square) * rows.grid.cell_area
    return np.sqrt(total, out=total)


def fractional_op(f: RealField, kind: str, z: float) -> RealField:
    """Apply J^z, J_x^z, J_y^z, D^z or D_x^z.

    The homogeneous operators D and D_x take z >= 0 only: with z < 0 they
    are singular on the zero mode (respectively the whole xi = 0 line).
    """
    if kind not in _BASES:
        raise ValueError(f"unknown fractional operator kind {kind!r}")
    base = _BASES[kind]
    if kind.startswith("D") and z < 0:
        raise ValueError(f"{kind}^z needs z >= 0, got {z}")
    F = forward(f)
    if kind.startswith("J"):
        return inverse(apply_multiplier(F, lambda xi, eta: base(xi, eta) ** (z / 2.0)))
    return inverse(apply_multiplier(F, lambda xi, eta: np.sqrt(base(xi, eta)) ** z))


def propagator_array(grid: Grid2D, t: float, mu: float) -> np.ndarray:
    """Grid symbol of E_mu(t): the exponential of the Nyquist-symmetrised
    generator ``i t omega - t mu (xi^2 + eta^2)``, so the table is a true
    (semi)group, ``E(s) E(t) = E(s + t)``, Nyquist column included."""
    if mu < 0:
        raise ValueError("viscosity mu must be >= 0")
    if mu > 0 and t < 0:
        raise ValueError("backward diffusion: t < 0 requires mu = 0")

    def generator(xi, eta):
        return 1j * t * dispersion(xi, eta) - t * (mu * (xi**2 + eta**2))

    return np.exp(multiplier_array(grid, generator))


def propagate(F: SpectrumField, t: float, mu: float = 0.0) -> SpectrumField:
    """Exact linear evolution by time t (unitary for mu = 0, contraction for mu > 0)."""
    return SpectrumField(F.grid, F.coeffs * propagator_array(F.grid, t, mu))


def smoothing_ratio(phi: RealField, mu: float, t: float, lam: float) -> float:
    """||J^lam E_mu(t) phi|| / ((1 + t^(-lam/2)) ||phi||).

    Bounded in t for fixed mu > 0; quantifies the parabolic gain of lam
    derivatives at the cost of t^(-lam/2).
    """
    if mu <= 0 or t <= 0 or lam <= 0:
        raise ValueError("smoothing_ratio needs mu > 0, t > 0, lam > 0")
    denom = phi.l2()
    if denom == 0.0:
        raise ValueError("smoothing_ratio is undefined for the zero field")
    evolved = inverse(propagate(forward(phi), t, mu))
    num = fractional_op(evolved, "J", lam).l2()
    return num / ((1.0 + t ** (-lam / 2.0)) * denom)
