"""Helpers shared by the test modules."""

import numpy as np

from bozk.grid import SpectrumField


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


def inverse_imag_residual(F: SpectrumField) -> float:
    """Max |imaginary part| discarded by :func:`inverse`; realness diagnostic.

    Only the self-paired columns (0 and Nyquist) can carry it: a column's y
    profile is ``ifft`` along y, constant in x for column 0 and alternating
    in sign along x for the Nyquist column, and :func:`inverse` keeps the
    real part of each."""
    g = F.grid
    raw = F.coeffs[:, [0, -1]] * g.inverse_scale[:, [0, -1]]
    imag = np.fft.ifft(raw, axis=0).imag / g.nx
    return float(np.max(np.abs(imag[:, 0]) + np.abs(imag[:, 1])))
