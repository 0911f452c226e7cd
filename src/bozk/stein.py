"""Quadrature engine for the fractional difference functional

    Db f(x) = ( int |f(x) - f(y)|^2 / |x - y|^(1+2b) dy )^(1/2),  b in (0,1),

on sampled one-variable functions, plus the closed-form phase bounds and the
jump/refinement divergence detector built on it.

The integrand is singular at y = x and the integral runs over all of R, so
the evaluation splits |x - y| = z into four zones:

* z < h        : analytic inner patch with the local linear model
                 |f(x) - f(y)| ~ |f'(x)| z, integrated exactly, f'(x) the
                 centred five-point difference of the samples;
* h <= z <= z1 : log-spaced Gauss-Legendre panels (z1 ~ 1), samples read
                 through the four-point local cubic (Lagrange) on the cell
                 around each query, so no coefficients are built;
* z1 <= z <= R : trapezoid on the sample grid itself (pure index shifts, as
                 every evaluation point is a grid node);
* z > R        : not integrated; a uniform oscillation bound on this tail is
                 reported as an error bar, never added to the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

# Decay-persistence probe policy: refine_divergence, uc.b1_indicator and
# uc.obstruction_density all integrate through probe_window, with this reach
# and node density, and a ladder's verdict reads its increment ratios against
# this one threshold (a jump's tend to 1, a smooth slice's to 1/2).
PROBE_R_OUTER = 2.0
PROBE_NODES_PER_DECADE = 48
DIVERGENCE_THRESHOLD = 0.75  # divergent: both of the last two increment ratios exceed it

# The _GL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only: the positive
# half of numpy.polynomial.legendre.leggauss(8) to 17 digits, mirrored, which
# is the same rule bit for bit (leggauss symmetrises it exactly).
_GL_ORDER = 8
_GL_HALF_NODES = np.array(
    [0.18343464249564978, 0.52553240991632899, 0.79666647741362673, 0.96028985649753618]
)
_GL_HALF_WEIGHTS = np.array(
    [0.36268378337836166, 0.31370664587788688, 0.22238103445337443, 0.10122853629037706]
)
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
_GL_NODES.flags.writeable = False
_GL_WEIGHTS.flags.writeable = False
_BAND_POINTS = 64  # evaluation points per log-band block: bounds its temporaries
_BLOCK = 1 << 14   # samples per block of the outer band and tail bound


def cubic_basis(t: np.ndarray, n: int):
    """The four-point local cubic at fractional sample positions t, counted
    in cells from the first of n samples: the index of the first of the four
    nodes i - 1 .. i + 2 around each cell i <= t < i + 1, and their Lagrange
    weights.  A position on a node weighs that node by exactly 1 and the
    others by 0.  ValueError unless all four nodes lie in the array; one
    basis serves every row of a stack."""
    t = np.asarray(t, dtype=np.float64)
    i = np.floor(t).astype(np.intp)
    if i.size and (i.min() < 1 or i.max() > n - 3):
        raise ValueError("local cubic query needs four samples around it")
    u = t - i
    p, v, q = 1.0 + u, 1.0 - u, 2.0 - u
    return i - 1, (-u * v * q / 6.0, p * v * q / 2.0, p * u * q / 2.0, -p * u * v / 6.0)


def cubic_combine(basis, f: np.ndarray) -> np.ndarray:
    """The local cubic of a basis through the samples f (one row or a stack)."""
    j, w = basis
    return w[0] * f[..., j] + w[1] * f[..., j + 1] + w[2] * f[..., j + 2] + w[3] * f[..., j + 3]


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
    values: np.ndarray         # (S, P)
    tail_sq_bound: np.ndarray  # (S,)

    def upper(self) -> np.ndarray:
        """Value consistent with assigning the whole tail bound to the integral."""
        return np.sqrt(self.values**2 + self.tail_sq_bound[:, None])


def _log_band_nodes(h: float, z1: float, nodes_per_decade: int):
    """Gauss-Legendre nodes/weights for int_h^z1 g(z) dz in s = log z."""
    s0, s1 = math.log(h), math.log(z1)
    decades = max((s1 - s0) / math.log(10.0), 1e-9)
    panels = max(1, math.ceil(decades * nodes_per_decade / _GL_ORDER))
    edges = np.linspace(s0, s1, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    z = np.exp(s)
    return z, w * z  # weights carry the dz = z ds Jacobian


def _sq_gap(f0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|f0 - w|^2, through the fresh array w itself."""
    d = np.abs(np.subtract(f0, w, out=w))
    return np.square(d, out=d)


def _outer_zone(rows, fx, idx, dx, b, k0, k1) -> np.ndarray:
    """The trapezoid over the offsets k0 <= k <= k1 cells, (S, P), in blocks
    of _BLOCK offsets.  A block of m offsets reads each (row, node) pair's
    samples on both sides as one window of the rows, _BLOCK // m pairs at a
    time, so no temporary holds more than _BLOCK samples."""
    outer = np.zeros(fx.size)
    f0 = fx.reshape(-1, 1)
    row, node = np.divmod(np.arange(fx.size), idx.size)
    for a in range(k0, k1 + 1, _BLOCK):
        stop = min(a + _BLOCK, k1 + 1)
        kernel = np.power(np.arange(a, stop, dtype=np.float64) * dx, -1.0 - 2.0 * b)
        kernel *= dx  # trapezoid weights: dx, halved at both ends
        if a == k0:
            kernel[0] *= 0.5
        if stop == k1 + 1:
            kernel[-1] *= 0.5
        win = np.lib.stride_tricks.sliding_window_view(rows, stop - a, axis=1)
        chunk = max(1, _BLOCK // (stop - a))
        for c in range(0, fx.size, chunk):
            s, i = row[c : c + chunk], idx[node[c : c + chunk]]
            sq = _sq_gap(f0[c : c + chunk], win[s, i - stop + 1, ::-1])
            sq += _sq_gap(f0[c : c + chunk], win[s, i + a])
            sq *= kernel
            outer[c : c + chunk] += np.sum(sq, axis=1)
    return outer.reshape(fx.shape)


def _tail_sq_bound(rows, r_eff, b) -> np.ndarray:
    """2 osc^2 R^(-2b) / b per row, osc twice the largest deviation from the
    row mean, read a block of columns of every row at a time."""
    mean = rows.mean(axis=1, keepdims=True)
    dev = np.zeros(len(rows))
    cols = max(1, _BLOCK // len(rows))
    for a in range(0, rows.shape[1], cols):
        dev = np.maximum(dev, np.abs(rows[:, a : a + cols] - mean).max(axis=1))
    return 2.0 * (2.0 * dev) ** 2 * r_eff ** (-2.0 * b) / b


def stein_derivative(
    fs: np.ndarray,
    dx: float,
    cfg: SteinConfig,
    nodes: Sequence[int],
) -> SteinResult:
    """Evaluate Db f at the sample nodes `nodes` (integer indices into the
    samples) for each row of the (S, N) stack fs of samples of uniform step
    dx; the values are (S, P) and the tail bound has one entry per row.

    Each node must sit at least r_outer inside the sampled interval;
    ValueError unless fs is an (S, N) stack, dx is positive and finite and
    the nodes are integers.  Complex samples are allowed (the integrand uses
    |.|^2).  The tail bound is 2 * osc(f)^2 * R^(-2b) / b, a uniform bound
    on the neglected squared mass beyond R.  Every reduction runs per row,
    so a row's results do not depend on the rest of the stack.
    """
    rows = np.asarray(fs)
    if rows.ndim != 2:
        raise ValueError("fs must be an (S, N) stack of rows")
    rows = rows.astype(np.result_type(rows, np.float64), copy=False)  # window copies take its dtype
    dx = float(dx)
    if not 0.0 < dx < math.inf:  # a NaN dx fails too
        raise ValueError("sample grid needs a positive, finite step dx")
    if not np.isfinite(rows).all():
        raise ValueError("samples contain non-finite values")
    n = rows.shape[1]

    idx = np.atleast_1d(np.asarray(nodes))
    if idx.dtype.kind not in "iu":
        raise ValueError("evaluation points must be sample nodes, given as integer indices")
    idx = idx.astype(np.intp)
    b, h, big_r = cfg.b, cfg.h_inner, cfg.r_outer
    if np.any(idx * dx - big_r < -1e-12) or np.any((n - 1 - idx) * dx - big_r < -1e-12):
        raise ValueError("evaluation points too close to the sample boundary")

    # outer band starts on a grid multiple at ~1 so trapezoid nodes are shifts
    k0 = max(1, math.ceil((1.0 - 1e-12) / dx))
    k1 = math.floor((big_r + 1e-12) / dx)
    z1 = k0 * dx
    r_eff = k1 * dx
    if z1 >= r_eff:
        raise ValueError("r_outer leaves no room for the outer band at this step")

    zb, wb = _log_band_nodes(h, z1, cfg.nodes_per_decade)
    kernel_b = wb * zb ** (-1.0 - 2.0 * b)
    cells = zb / dx

    inner_scale = h ** (2.0 - 2.0 * b) / (1.0 - b)

    # inner patch for all rows and points at once: (rows x points), with
    # f'(x) the centred five-point difference
    fx = rows[:, idx]
    slope = rows[:, idx - 2] - rows[:, idx + 2] + 8.0 * (rows[:, idx + 1] - rows[:, idx - 1])
    inner = np.abs(slope / (12.0 * dx)) ** 2 * inner_scale
    # log band one row at a time and _BAND_POINTS points at a time, from
    # local cubic weights shared by the rows
    band = np.empty(fx.shape)
    for a in range(0, idx.size, _BAND_POINTS):
        near = slice(a, a + _BAND_POINTS)
        minus = cubic_basis(idx[near, None] - cells, n)
        plus = cubic_basis(idx[near, None] + cells, n)
        for s, f in enumerate(rows):
            f0 = fx[s, near, None]
            sq = _sq_gap(f0, cubic_combine(minus, f)) + _sq_gap(f0, cubic_combine(plus, f))
            band[s, near] = np.sum(sq * kernel_b, axis=1)

    values = np.sqrt(np.maximum(inner + band + _outer_zone(rows, fx, idx, dx, b, k0, k1), 0.0))
    return SteinResult(values=values, tail_sq_bound=_tail_sq_bound(rows, r_eff, b))


def phase_bound(b: float, eta: float, t: float) -> float:
    """Closed-form bound (2/(1-b) + 2/b)^(1/2) * (eta^2 t)^b for Db of the
    linear-in-x phase exp(i t eta^2 x); the scaling in (eta^2 t)^b is exact."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.sqrt(2.0 / (1.0 - b) + 2.0 / b) * (eta**2 * t) ** b


def probe_window(
    fs: np.ndarray, step: float, origin: int, b: float, epsilon: float
) -> np.ndarray:
    """Db of the samples fs on the grid step * (k - origin), under the probe
    policy: reach PROBE_R_OUTER, PROBE_NODES_PER_DECADE log-band nodes and an
    inner patch of min(2 step, 1/2), evaluated at the window nodes k with
    |k - origin| >= 4 and |k - origin| step <= epsilon/2: the plateau of a
    cutoff of width epsilon, less a four-cell resolution floor around the
    origin.  fs is an (S, N) stack and the values are (S, P); ValueError
    if no sample is left in the window or fs is not a stack."""
    window = 0.5 * epsilon
    cells = np.abs(np.arange(np.shape(fs)[-1]) - origin)
    nodes = np.flatnonzero((cells >= 4) & (cells * step <= window))
    if not nodes.size:
        raise ValueError(f"no sample in the probe window {4.0 * step:g} <= |x| <= {window:g}")
    cfg = SteinConfig(
        b=b,
        r_outer=PROBE_R_OUTER,
        h_inner=min(2.0 * step, 0.5),
        nodes_per_decade=PROBE_NODES_PER_DECADE,
    )
    return stein_derivative(fs, step, cfg, nodes).values


def refinement_ladder(
    slices: Callable[[np.ndarray], np.ndarray],
    weights: Sequence[float],
    b: float,
    levels: int,
    epsilon: float,
) -> Tuple[List[float], List[float]]:
    """Windowed L2 mass of Db on dyadically refined grids, and its ratios.

    Level k samples on the symmetric grid of step epsilon/16 * 2^-k reaching
    epsilon/2 + PROBE_R_OUTER (plus eight cells) on each side.  ``slices(xs)``
    returns the level's rows as one (S, N) stack on that grid, which goes
    through one :func:`probe_window` call; the level's window norm is the
    square root of the sum of the rows' squared masses, row s weighted by
    weights[s].  Ratios are successive window-norm quotients (1.0 after a
    vanishing level).
    """
    if levels < 3:
        raise ValueError("need at least 3 refinement levels")
    norms: List[float] = []
    for k in range(levels):
        step = epsilon / 16.0 * 0.5**k
        n = math.ceil((0.5 * epsilon + PROBE_R_OUTER + 8.0 * step) / step)
        xs = step * np.arange(-n, n + 1)
        total = 0.0
        vals = probe_window(slices(xs), step, n, b, epsilon)
        for weight, row in zip(weights, vals, strict=True):
            total += weight * float(np.sum(row**2) * step)
        norms.append(math.sqrt(total))
    ratios = [c / a if a > 1e-300 else 1.0 for a, c in zip(norms, norms[1:])]
    return norms, ratios


def increment_ratios(ratios: Sequence[float]) -> List[float]:
    """The ratios d_(k+1) / d_k of the increments d_k = N_(k+1)^2 - N_k^2 of a
    ladder's squared window norms, from its norm ratios rho_k = N_(k+1) / N_k
    as rho_k^2 (rho_(k+1)^2 - 1) / (rho_k^2 - 1); a vanishing d_k reads 0.
    A jump J adds 2 ln 2 |J|^2 per halving of the step, so its ratios tend to
    1; a slice with bounded Db converges at O(h), and its ratios tend to 1/2."""
    return [a * a * (c * c - 1.0) / (a * a - 1.0) if a * a != 1.0 else 0.0
            for a, c in zip(ratios, ratios[1:])]


def diverges(ratios: Sequence[float]) -> bool:
    """The divergence verdict: both of the last two increment ratios (the
    one, on a three-level ladder) exceed DIVERGENCE_THRESHOLD."""
    return all(q > DIVERGENCE_THRESHOLD for q in increment_ratios(ratios)[-2:])


@dataclass(frozen=True)
class RefinementReport:
    levels: List[float]  # window norm per level
    ratios: List[float]
    verdict: str  # "divergent" | "convergent"; "obstructed" | "persists" in uc


def refine_divergence(
    f: Callable[[np.ndarray], np.ndarray], b: float, levels: int
) -> RefinementReport:
    """Windowed L2 mass of Db f on dyadically refined grids.

    Runs :func:`refinement_ladder` on the single slice f with epsilon = 1
    (coarsest step 1/16, window [-1/2, 1/2]).  A jump at the origin makes
    the window norms grow without bound under refinement ("divergent"); a
    function with bounded Db stabilises ("convergent"); see :func:`diverges`.
    """
    out_levels, ratios = refinement_ladder(
        lambda xs: np.asarray(f(xs))[None], [1.0], b, levels, 1.0
    )
    return RefinementReport(out_levels, ratios, "divergent" if diverges(ratios) else "convergent")
