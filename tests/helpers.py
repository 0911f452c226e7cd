"""Helpers shared by the test modules."""

import numpy as np

from bozk.grid import SpectrumField


def dealias(F: SpectrumField) -> SpectrumField:
    """F with every coefficient outside ``Grid2D.dealias_mask`` zeroed: the
    2/3 rule the stepper applies around its quadratic term."""
    return SpectrumField(F.grid, np.where(F.grid.dealias_mask, F.coeffs, 0.0))
