"""Helpers shared by the test modules."""

import math

import numpy as np

from bozk.grid import SpectrumField
from bozk.uc import B1_ETA_TARGETS, CutoffSpec


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bit patterns of the float64 or complex128 array `a`, so that
    ``np.array_equal`` tells -0.0 from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def dealias_mask(g) -> np.ndarray:
    """The 2/3 rule on the coefficient array of the grid `g`: True on the
    modes ``|m| <= nx//3``, ``|n| <= ny//3`` that the stepper keeps around
    its quadratic term.  When 3 divides nx the kept boundary mode nx/3 sits
    exactly at the alias-free limit (its self-interaction folds back onto
    itself); other sizes make quadratic products strictly alias-free."""
    return (np.abs(g.mx) <= g.nx // 3)[None, :] & (np.abs(g.my) <= g.ny // 3)[:, None]


def dealias(F: SpectrumField) -> SpectrumField:
    """F with every coefficient outside :func:`dealias_mask` zeroed: the
    2/3 rule the stepper applies around its quadratic term."""
    return SpectrumField(F.grid, np.where(dealias_mask(F.grid), F.coeffs, 0.0))


def centre_phase(g) -> np.ndarray:
    """The centring phase ``(-1)**(m+n)`` on the coefficient array of the
    grid `g`, as a table: ``exp(-i xi_m x_0 - i eta_n y_0)`` on the centred
    grid, which takes a raw ``rfft2`` times ``cell_area`` to the
    normalised coefficients."""
    return np.where((g.mx[None, :] + g.my[:, None]) % 2 == 0, 1.0, -1.0)


def inverse_imag_residual(F: SpectrumField) -> float:
    """Max |imaginary part| discarded by :func:`inverse`; realness diagnostic.

    Only the self-paired columns (0 and Nyquist) can carry it: a column's y
    profile is ``ifft`` along y, constant in x for column 0 and alternating
    in sign along x for the Nyquist column, and :func:`inverse` keeps the
    real part of each."""
    g = F.grid
    raw = F.coeffs[:, [0, -1]] * (centre_phase(g) / g.cell_area)[:, [0, -1]]
    imag = np.fft.ifft(raw, axis=0).imag / g.nx
    return float(np.max(np.abs(imag[:, 0]) + np.abs(imag[:, 1])))


def jump_slope(phi, t: float, cut: CutoffSpec = CutoffSpec()) -> float:
    """The closed-form increment per level of b1_indicator's squared window
    norm: ``2 ln 2 * sum_eta w_eta |J(eta)|^2`` with the jump
    ``J = 4 t chi(0, eta) phi_hat(0, eta)`` of its slices at xi = 0, read at
    the distinct grid etas nearest B1_ETA_TARGETS with their trapezoid
    weights.  ``phi_hat(0, eta)`` is the x-sum of the partial y-transform
    ``A(x, eta) = sum_j phi e^(-i eta y_j) dy`` that b1_indicator builds."""
    g = phi.grid
    rows = sorted({int(np.argmin(np.abs(g.eta - e))) for e in B1_ETA_TARGETS},
                  key=lambda n: g.eta[n])
    etas = g.eta[rows]
    cols = np.fft.fft(phi.samples, axis=0)[rows] * (g.dy * (-1.0) ** g.my[rows])[:, None]
    d = np.diff(etas)
    w = np.concatenate([[d[0] / 2], (d[:-1] + d[1:]) / 2, [d[-1] / 2]])
    jump = 4.0 * t * cut.chi(0.0, etas) * cols.sum(axis=1) * g.dx
    return 2.0 * math.log(2.0) * float(np.sum(w * np.abs(jump) ** 2))
