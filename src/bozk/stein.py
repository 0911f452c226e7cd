"""Quadrature engine for the fractional difference functional

    Db f(x) = ( int |f(x) - f(y)|^2 / |x - y|^(1+2b) dy )^(1/2),  b in (0,1),

on sampled one-variable functions, plus the closed-form phase bounds and the
jump/refinement divergence detector built on it.

The integrand is singular at y = x and the integral runs over all of R, so
the evaluation splits |x - y| = z into three zones:

* z < h        : analytic inner patch with the local linear model
                 |f(x) - f(y)| ~ |f'(x)| z, integrated exactly;
* h <= z <= z1 : log-spaced Gauss-Legendre panels (z1 ~ 1), samples read
                 through the interpolating cubic spline;
* z1 <= z <= R : trapezoid on the sample grid itself (pure index shifts when
                 the evaluation point is a grid node);
* z > R        : not integrated; a uniform oscillation bound on this tail is
                 reported as an error bar, never added to the value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

# Calibrated ceiling for the mixed-phase estimate; see mixed_phase_bound.
MIXED_PHASE_CALIBRATION = 5.0

# Decay-persistence probe policy: refine_divergence, uc.b1_indicator and
# uc.obstruction_density all integrate through probe_window, with this reach
# and node density, and read their refinement ratios with these thresholds.
PROBE_R_OUTER = 2.0
PROBE_NODES_PER_DECADE = 48
DIVERGENCE_DELTA = 0.10    # divergent: both of the last two ratios > 1 + delta
CONVERGENCE_DELTA = 0.02   # convergent: both within delta of 1

_GL_ORDER = 8
_BAND_POINTS = 64  # evaluation points per log-band block: bounds its temporaries
_BLOCK = 1 << 14   # samples per block of the uniformity check, outer band and tail bound

# Inverse of the cubic B-spline sampling filter (1, 4, 1)/6 is
# sqrt(3) z^|k| with z = sqrt(3) - 2; |z|^30 < 1e-17 ends the taps.
_PAD = 31
_PREFILTER = math.sqrt(3.0) * (math.sqrt(3.0) - 2.0) ** np.abs(np.arange(1 - _PAD, _PAD))


class UniformCubicSpline:
    """Interpolating cubic spline through samples fs on the uniform grid xs.

    The B-spline coefficients come from an FIR prefilter (Unser, Aldroubi &
    Eden, IEEE Trans. Signal Process. 41, 1993) over the samples extended by
    odd reflection at both ends.  Away from the ends this is the interpolating
    spline of any end condition: the end terms decay by |z| = 0.268 per cell.

    Only the coefficients that serve the cells lo <= x_i < hi are built, from
    the samples within _PAD cells of that window; odd reflection enters only
    where the window reaches an end of the array.  The grid's x0 and dx and
    its cell indices stay those of the whole array, so a window evaluates bit
    for bit like the whole-array build, and a query outside it raises.  fs may
    be one row (N,) or a stack (S, N) of rows on the same grid.
    """

    def __init__(self, xs: np.ndarray, fs: np.ndarray, lo: int = 0, hi: Optional[int] = None):
        self.n = len(xs)
        self.x0 = float(xs[0])
        self.dx = (float(xs[-1]) - self.x0) / (self.n - 1)
        lo = max(lo, 0)
        hi = self.n - 1 if hi is None else min(hi, self.n - 1)
        if lo < _PAD and hi + _PAD >= self.n:
            lo, hi = 0, self.n - 1  # both ends reached: the whole-array build
        start, stop = max(lo - _PAD, 0), min(hi + _PAD + 1, self.n)
        seg = np.asarray(fs)[..., start:stop]
        pad = (start - (lo - _PAD), hi + _PAD + 1 - stop)
        if any(pad):
            widths = [(0, 0)] * (seg.ndim - 1) + [pad]
            seg = np.pad(seg, widths, mode="reflect", reflect_type="odd")
        # c_(lo-1) .. c_(hi+1)
        self.coef = np.apply_along_axis(np.convolve, -1, seg, _PREFILTER, "valid")
        self.lo = lo

    def basis(self, x: np.ndarray, derivative: bool = False):
        """Window-local coefficient index of each query point and its four
        B-spline weights (of the derivative, before the 1/dx factor, if asked);
        one basis serves every row of the stack."""
        t = (np.asarray(x, dtype=np.float64) - self.x0) / self.dx
        i = np.clip(np.floor(t), 0, self.n - 2).astype(np.intp)
        u = t - i
        v = 1.0 - u
        j = i - self.lo
        if j.size and (j.min() < 0 or j.max() + 3 >= self.coef.shape[-1]):
            raise ValueError("spline query outside the coefficient window")
        if derivative:
            w = (-0.5 * v * v, u * (1.5 * u - 2.0), v * (2.0 - 1.5 * v), 0.5 * u * u)
        else:
            w = (v**3 / 6.0, 2.0 / 3.0 - u * u * (1.0 - 0.5 * u),
                 2.0 / 3.0 - v * v * (1.0 - 0.5 * v), u**3 / 6.0)
        return j, w

    @staticmethod
    def combine(basis, coef: np.ndarray) -> np.ndarray:
        """Spline sum of a basis over coefficients coef (one row or a stack)."""
        j, w = basis
        return (w[0] * coef[..., j] + w[1] * coef[..., j + 1]
                + w[2] * coef[..., j + 2] + w[3] * coef[..., j + 3])

    def __call__(self, x: np.ndarray, derivative: bool = False) -> np.ndarray:
        s = self.combine(self.basis(x, derivative), self.coef)
        return s / self.dx if derivative else s


@dataclass(frozen=True)
class SteinConfig:
    """Quadrature parameters: fractional order and zone boundaries."""

    b: float
    r_outer: float = 50.0
    h_inner: float = 1e-3
    nodes_per_decade: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"fractional order b must lie in (0, 1), got {self.b}")
        if not 0.0 < self.h_inner < 1.0 < self.r_outer:
            raise ValueError("need 0 < h_inner < 1 < r_outer")
        if self.nodes_per_decade < 8:
            raise ValueError("nodes_per_decade too small for the singular band")


@dataclass(frozen=True)
class SteinResult:
    values: np.ndarray                       # (P,), or (S, P) for a stack
    tail_sq_bound: Union[float, np.ndarray]  # float, or (S,) for a stack

    def upper(self) -> np.ndarray:
        """Value consistent with assigning the whole tail bound to the integral."""
        return np.sqrt(self.values**2 + np.asarray(self.tail_sq_bound)[..., None])


@functools.lru_cache(maxsize=None)
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """The _GL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only.

    Computed on first use, not at import: leggauss loads numpy's LAPACK
    module, which subcommands without a Stein call never need."""
    rule = np.polynomial.legendre.leggauss(_GL_ORDER)
    for a in rule:
        a.flags.writeable = False
    return rule


def _log_band_nodes(h: float, z1: float, nodes_per_decade: int):
    """Gauss-Legendre nodes/weights for int_h^z1 g(z) dz in s = log z."""
    s0, s1 = math.log(h), math.log(z1)
    decades = max((s1 - s0) / math.log(10.0), 1e-9)
    panels = max(1, math.ceil(decades * nodes_per_decade / _GL_ORDER))
    gx, gw = _gauss_legendre()
    edges = np.linspace(s0, s1, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    z = np.exp(s)
    return z, w * z  # weights carry the dz = z ds Jacobian


def _uniform_step(xs: np.ndarray) -> float:
    """The step of the grid xs, or ValueError unless it is uniform and
    increasing: the decision of np.allclose(steps, dx, rtol=1e-9, atol=0) on
    every grid with finite steps, made in blocks of _BLOCK steps."""
    bad = "sample grid must be uniform and increasing"
    dx = float(xs[1] - xs[0])
    if not 0.0 < dx < math.inf:  # a NaN step fails the comparison too
        raise ValueError(bad)
    buf = np.empty(min(xs.size - 1, _BLOCK))
    for a in range(0, xs.size - 1, _BLOCK):
        steps = buf[: min(_BLOCK, xs.size - 1 - a)]
        np.subtract(xs[a + 1 : a + 1 + steps.size], xs[a : a + steps.size], out=steps)
        np.subtract(steps, dx, out=steps)
        if not np.abs(steps, out=steps).max() <= 1e-9 * dx:  # so does a NaN here
            raise ValueError(bad)
    return dx


def _abs_diff(a, b, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|a - b| into the real buffer out, through the buffer diff."""
    np.subtract(a, b, out=diff)
    return np.abs(diff, out=out)


def stein_derivative(
    xs: np.ndarray,
    fs: np.ndarray,
    cfg: SteinConfig,
    points: Sequence[float],
) -> SteinResult:
    """Evaluate Db f at the given points from uniform samples (xs, fs).

    Points must sit at least r_outer inside the sampled interval.  Complex
    samples are allowed (the integrand uses |.|^2).  The returned tail bound
    is 2 * osc(f)^2 * R^(-2b) / b, a uniform bound on the neglected squared
    mass beyond R.

    fs may be a stack (S, N) of rows on the one grid xs; values are then
    (S, P) and the tail bound has one entry per row.  Every reduction runs
    per row, so a row's results do not depend on the rest of the stack.
    """
    xs = np.asarray(xs, dtype=np.float64)
    fs = np.asarray(fs)
    if xs.ndim != 1 or fs.ndim not in (1, 2) or fs.shape[-1] != xs.size:
        raise ValueError("xs must be 1-D and fs a matching 1-D array or (S, N) stack")
    dx = _uniform_step(xs)
    if not np.isfinite(fs).all():
        raise ValueError("samples contain non-finite values")
    rows = fs.reshape(-1, xs.size)

    pts = np.atleast_1d(np.asarray(points, dtype=np.float64))
    b, h, big_r = cfg.b, cfg.h_inner, cfg.r_outer
    if np.any(pts - big_r < xs[0] - 1e-12) or np.any(pts + big_r > xs[-1] + 1e-12):
        raise ValueError("evaluation points too close to the sample boundary")

    # outer band starts on a grid multiple at ~1 so trapezoid nodes are shifts
    k0 = max(1, math.ceil((1.0 - 1e-12) / dx))
    k1 = math.floor((big_r + 1e-12) / dx)
    z1 = k0 * dx
    r_eff = k1 * dx
    if z1 >= r_eff:
        raise ValueError("r_outer leaves no room for the outer band at this step")

    idx = [int(round((x - xs[0]) / dx)) for x in pts]
    on_node = [abs(xs[i] - x) < 1e-9 * dx for i, x in zip(idx, pts)]
    # node points read the spline within z1, others along the whole outer band
    reach = (k0 if all(on_node) else k1) + 2
    lo, hi = (min(idx) - reach, max(idx) + reach) if idx else (0, 0)
    spline = UniformCubicSpline(xs, rows, lo, hi)

    zb, wb = _log_band_nodes(h, z1, cfg.nodes_per_decade)
    kernel_b = wb * zb ** (-1.0 - 2.0 * b)

    inner_scale = h ** (2.0 - 2.0 * b) / (1.0 - b)

    # inner patch for all rows and points at once: (rows x points)
    fx = spline(pts)
    inner = np.abs(spline(pts, derivative=True)) ** 2 * inner_scale
    # log band one row at a time and _BAND_POINTS points at a time, from
    # spline weights shared by the rows
    band = np.empty(fx.shape)
    for a in range(0, pts.size, _BAND_POINTS):
        near = slice(a, a + _BAND_POINTS)
        minus = spline.basis(pts[near, None] - zb)
        plus = spline.basis(pts[near, None] + zb)
        for s, coef in enumerate(spline.coef):
            f0 = fx[s, near, None]
            band[s, near] = np.sum(
                (
                    np.abs(f0 - spline.combine(minus, coef)) ** 2
                    + np.abs(f0 - spline.combine(plus, coef)) ** 2
                )
                * kernel_b,
                axis=1,
            )

    # the outer zone, offsets k0 <= k <= k1 cells, and then the oscillation
    # bound run in blocks of _BLOCK samples through these buffers
    width = min(xs.size, _BLOCK)
    diff = np.empty(width, dtype=np.result_type(spline.coef, rows))
    sq_m = np.empty(width)
    sq_p = np.empty(width)
    kernel_o = np.empty(width)
    outer = np.zeros(fx.shape)
    for a in range(k0, k1 + 1, _BLOCK):
        stop = min(a + _BLOCK, k1 + 1)
        km, dm, dp, dd = (buf[: stop - a] for buf in (kernel_o, sq_m, sq_p, diff))
        np.multiply(np.arange(a, stop, dtype=np.float64), dx, out=km)
        np.power(km, -1.0 - 2.0 * b, out=km)
        km *= dx  # trapezoid weights: dx, halved at both ends
        if a == k0:
            km[0] *= 0.5
        if stop == k1 + 1:
            km[-1] *= 0.5
        for j, (x, i, node) in enumerate(zip(pts, idx, on_node)):
            if not node:  # the offsets k dx, built only off the grid nodes
                z = np.arange(a, stop, dtype=np.float64) * dx
                far_m = spline.basis(x - z)
                far_p = spline.basis(x + z)
            for s, f in enumerate(rows):
                if node:
                    fm = f[i - stop + 1 : i - a + 1][::-1]
                    fp = f[i + a : i + stop]
                else:
                    fm = spline.combine(far_m, spline.coef[s])
                    fp = spline.combine(far_p, spline.coef[s])
                np.square(_abs_diff(fx[s, j], fm, dd, dm), out=dm)
                np.square(_abs_diff(fx[s, j], fp, dd, dp), out=dp)
                np.add(dm, dp, out=dm)
                outer[s, j] += np.sum(np.multiply(dm, km, out=dm))
    values = np.sqrt(np.maximum(inner + band + outer, 0.0))

    tails = np.empty(len(rows))
    for s, (f, mean) in enumerate(zip(rows, rows.mean(axis=1))):
        dev = 0.0
        for a in range(0, f.size, width):
            seg = f[a : a + width]
            dev = max(dev, float(_abs_diff(seg, mean, diff[: seg.size], sq_m[: seg.size]).max()))
        osc = 2.0 * dev
        tails[s] = 2.0 * osc**2 * r_eff ** (-2.0 * b) / b
    if fs.ndim == 1:
        return SteinResult(values=values[0], tail_sq_bound=float(tails[0]))
    return SteinResult(values=values, tail_sq_bound=tails)


def phase_bound(b: float, eta: float, t: float) -> float:
    """Closed-form bound (2/(1-b) + 2/b)^(1/2) * (eta^2 t)^b for Db of the
    linear-in-x phase exp(i t eta^2 x); the scaling in (eta^2 t)^b is exact."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.sqrt(2.0 / (1.0 - b) + 2.0 / b) * (eta**2 * t) ** b


def mixed_phase_bound(b: float, t: float, x: float) -> float:
    """Calibrated estimate c0 * (t^(b/2) + t^b |x|^b) for Db of exp(-i t x|x|).

    The two terms are the exact small-|x| and large-|x| scalings; c0 is a
    recorded measurement ceiling, not a derived constant.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    return MIXED_PHASE_CALIBRATION * (t ** (b / 2.0) + t**b * abs(x) ** b)


def probe_window(
    xs: np.ndarray, fs: np.ndarray, b: float, step: float, window: float
) -> np.ndarray:
    """Db of the samples (xs, fs), of grid step `step`, under the probe
    policy: reach PROBE_R_OUTER, PROBE_NODES_PER_DECADE log-band nodes and an
    inner patch of min(2 step, 1/2), evaluated at the window points
    4 step <= |x| <= window (a four-cell resolution floor around the
    origin).  fs may be an (S, N) stack; the values are then (S, P)."""
    pts = xs[(np.abs(xs) >= 4.0 * step) & (np.abs(xs) <= window)]
    cfg = SteinConfig(
        b=b,
        r_outer=PROBE_R_OUTER,
        h_inner=min(2.0 * step, 0.5),
        nodes_per_decade=PROBE_NODES_PER_DECADE,
    )
    return stein_derivative(xs, fs, cfg, pts).values


@dataclass(frozen=True)
class RefinementLevel:
    step: float
    window_norm: float


def refinement_ladder(
    slices: Callable[[np.ndarray], Iterable[Tuple[float, np.ndarray]]],
    b: float,
    levels: int,
    *,
    h0: float,
    window: float,
) -> Tuple[List[RefinementLevel], List[float]]:
    """Windowed L2 mass of Db on dyadically refined grids, and its ratios.

    Level k samples on the symmetric grid of step h0 * 2^-k reaching
    window + PROBE_R_OUTER (plus eight cells) on each side.  ``slices(xs)``
    returns (weight, samples) pairs on that grid; the slices of a level go
    through one :func:`probe_window` call as a stack, and the level's window
    norm is the square root of the weighted sum of their squared masses.
    Ratios are successive window-norm quotients (1.0 after a vanishing level).
    """
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    out_levels: List[RefinementLevel] = []
    for k in range(levels):
        step = h0 * 0.5**k
        n = math.ceil((window + PROBE_R_OUTER + 8.0 * step) / step)
        xs = step * np.arange(-n, n + 1)
        weights, rows = zip(*slices(xs))
        total = 0.0
        for weight, vals in zip(weights, probe_window(xs, np.stack(rows), b, step, window)):
            total += weight * float(np.sum(vals**2) * step)
        out_levels.append(RefinementLevel(step=step, window_norm=math.sqrt(total)))
    ratios = [
        c.window_norm / a.window_norm if a.window_norm > 1e-300 else 1.0
        for a, c in zip(out_levels, out_levels[1:])
    ]
    return out_levels, ratios


def diverges(ratios: Sequence[float]) -> bool:
    """The divergence verdict: both of the last two refinement ratios exceed
    1 + DIVERGENCE_DELTA."""
    return all(r > 1.0 + DIVERGENCE_DELTA for r in ratios[-2:])


@dataclass(frozen=True)
class RefinementReport:
    levels: List[RefinementLevel]
    ratios: List[float]
    # refine_divergence: "divergent" | "convergent" | "inconclusive";
    # uc.b1_indicator: "obstructed" | "persists"
    verdict: str


def refine_divergence(
    f: Callable[[np.ndarray], np.ndarray], b: float, levels: int
) -> RefinementReport:
    """Windowed L2 mass of Db f on dyadically refined grids.

    Runs :func:`refinement_ladder` on the single slice f (coarsest step
    1/16, window [-1/2, 1/2]).  A jump at the origin makes the window norms
    grow without bound under refinement ("divergent"); a function with
    bounded Db stabilises ("convergent").
    """
    out_levels, ratios = refinement_ladder(
        lambda xs: [(1.0, np.asarray(f(xs)))], b, levels, h0=0.0625, window=0.5
    )
    if diverges(ratios):
        verdict = "divergent"
    elif all(abs(r - 1.0) <= CONVERGENCE_DELTA for r in ratios[-2:]):
        verdict = "convergent"
    else:
        verdict = "inconclusive"
    return RefinementReport(levels=out_levels, ratios=ratios, verdict=verdict)
