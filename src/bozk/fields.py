"""Named initial-data families."""

from __future__ import annotations

import math

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
    F = forward(RealField(grid, _white_noise(seed, (grid.ny, grid.nx))))
    two_w2 = 2 * spectral_width**2
    smooth = inverse(apply_multiplier(F, lambda xi, eta: np.exp(-(xi**2 + eta**2) / two_w2)))
    w = envelope_width if envelope_width is not None else min(grid.lx, grid.ly) / 6.0
    env = np.exp(-(grid.xmesh**2 + grid.ymesh**2) / (2 * w**2))
    samples = smooth.samples * env
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples * (amplitude / peak)
    return RealField(grid, samples)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser on a uint64 array, in wrapping arithmetic."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _white_noise(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal samples, a pure function of seed and shape.

    A SplitMix64 counter stream (Steele, Lea & Flood, OOPSLA 2014) keyed by
    the finalised seed, so neighbouring seeds give unrelated streams; its
    top 53 bits are uniform on [0, 1), and the Box-Muller transform pairs
    the first half of the uniforms (radii) with the second half (angles).
    Built on numpy's uint64 arithmetic alone: importing numpy.random costs
    every child that builds random data about 6 MB of memory.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    n = math.prod(shape)
    key = _mix64(np.array([seed], dtype=np.uint64))
    count = np.arange(1, n + n % 2 + 1, dtype=np.uint64)
    bits = _mix64(count * np.uint64(0x9E3779B97F4A7C15) + key)
    u = (bits >> np.uint64(11)) * 2.0**-53
    half = n - n // 2
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * math.pi * u[half:]
    out = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    return out[:n].reshape(shape)
