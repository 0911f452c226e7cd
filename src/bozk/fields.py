"""Named initial-data families."""

from __future__ import annotations

import numpy as np

from .grid import Grid2D, RealField, apply_multiplier, forward, inverse


def gaussian(
    grid: Grid2D,
    amplitude: float = 1.0,
    sigma_x: float = 1.5,
    sigma_y: float = 1.5,
    center: tuple[float, float] = (0.0, 0.0),
) -> RealField:
    cx, cy = center

    def f(x, y):
        return amplitude * np.exp(
            -((x - cx) ** 2) / (2 * sigma_x**2) - ((y - cy) ** 2) / (2 * sigma_y**2)
        )

    return RealField.from_function(grid, f)


def dx_gaussian(
    grid: Grid2D,
    amplitude: float = 1.0,
    sigma_x: float = 1.5,
    sigma_y: float = 1.5,
    center: tuple[float, float] = (0.0, 0.0),
) -> RealField:
    """Exact x-derivative of the gaussian profile; its x-mean transform
    vanishes identically (the strong-decay persistence class)."""
    cx, cy = center

    def f(x, y):
        g = np.exp(
            -((x - cx) ** 2) / (2 * sigma_x**2) - ((y - cy) ** 2) / (2 * sigma_y**2)
        )
        return -amplitude * (x - cx) / sigma_x**2 * g

    return RealField.from_function(grid, f)


def two_solitary_bumps(
    grid: Grid2D,
    amplitude: float = 1.0,
    width: float = 2.0,
    separation: float = 8.0,
) -> RealField:
    """Two radial sech^2 humps on the x-axis, a collision-style setup."""

    def f(x, y):
        r1 = np.hypot(x - 0.5 * separation, y)
        r2 = np.hypot(x + 0.5 * separation, y)
        return amplitude * (1.0 / np.cosh(r1 / width) ** 2 + 1.0 / np.cosh(r2 / width) ** 2)

    return RealField.from_function(grid, f)


def random_smooth(
    grid: Grid2D,
    seed: int,
    amplitude: float = 1.0,
    spectral_width: float = 1.0,
    envelope_width: float | None = None,
) -> RealField:
    """Seeded band-limited noise under a spatial envelope; the workhorse of
    the randomized verification suites."""
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((grid.ny, grid.nx))
    F = forward(RealField(grid, white))
    two_w2 = 2 * spectral_width**2
    smooth = inverse(apply_multiplier(F, lambda xi, eta: np.exp(-(xi**2 + eta**2) / two_w2)))
    w = envelope_width if envelope_width is not None else min(grid.lx, grid.ly) / 6.0
    env = np.exp(-(grid.xmesh**2 + grid.ymesh**2) / (2 * w**2))
    samples = smooth.samples * env
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples * (amplitude / peak)
    return RealField(grid, samples)
