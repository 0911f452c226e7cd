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
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

# Decay-persistence probe policy: refine_divergence, uc.b1_indicator and
# uc.obstruction_density all integrate through probe_window, with this reach
# and node density, and read their refinement ratios with these thresholds.
PROBE_R_OUTER = 2.0
PROBE_NODES_PER_DECADE = 48
DIVERGENCE_DELTA = 0.10    # divergent: both of the last two ratios > 1 + delta
CONVERGENCE_DELTA = 0.02   # convergent: both within delta of 1

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
_BLOCK = 1 << 14   # samples per block of the uniformity check, outer band and tail bound


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
    values: np.ndarray                       # (P,), or (S, P) for a stack
    tail_sq_bound: Union[float, np.ndarray]  # float, or (S,) for a stack

    def upper(self) -> np.ndarray:
        """Value consistent with assigning the whole tail bound to the integral."""
        return np.sqrt(self.values**2 + np.asarray(self.tail_sq_bound)[..., None])


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
    fs: np.ndarray,
    dx: float,
    cfg: SteinConfig,
    nodes: Sequence[int],
) -> SteinResult:
    """Evaluate Db f at the sample nodes `nodes` (integer indices into the
    samples) from the samples fs of uniform step dx.

    Each node must sit at least r_outer inside the sampled interval;
    ValueError unless dx is positive and finite and the nodes are integers.
    Complex samples are allowed (the integrand uses |.|^2).  The returned
    tail bound is 2 * osc(f)^2 * R^(-2b) / b, a uniform bound on the
    neglected squared mass beyond R.

    fs may be a stack (S, N) of rows on the one grid; values are then
    (S, P) and the tail bound has one entry per row.  Every reduction runs
    per row, so a row's results do not depend on the rest of the stack.
    """
    fs = np.asarray(fs)
    if fs.ndim not in (1, 2):
        raise ValueError("fs must be a 1-D array or an (S, N) stack")
    dx = float(dx)
    if not 0.0 < dx < math.inf:  # a NaN dx fails too
        raise ValueError("sample grid needs a positive, finite step dx")
    if not np.isfinite(fs).all():
        raise ValueError("samples contain non-finite values")
    n = fs.shape[-1]
    rows = fs.reshape(-1, n)

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
            band[s, near] = np.sum(
                (
                    np.abs(f0 - cubic_combine(minus, f)) ** 2
                    + np.abs(f0 - cubic_combine(plus, f)) ** 2
                )
                * kernel_b,
                axis=1,
            )

    # the outer zone, offsets k0 <= k <= k1 cells, and then the oscillation
    # bound run in blocks of _BLOCK samples through these buffers
    width = min(n, _BLOCK)
    diff = np.empty(width, dtype=np.result_type(rows, np.float64))
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
        for j, i in enumerate(idx):
            for s, f in enumerate(rows):
                fm = f[i - stop + 1 : i - a + 1][::-1]
                fp = f[i + a : i + stop]
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


def probe_window(
    xs: np.ndarray, fs: np.ndarray, b: float, step: float, epsilon: float
) -> np.ndarray:
    """Db of the samples (xs, fs) on the uniform grid xs, of step `step`
    (the quadrature reads the grid's step as xs[1] - xs[0]; ValueError
    unless xs is uniform and increasing, see _uniform_step, and fs has one
    sample per entry of xs), under the probe policy: reach PROBE_R_OUTER,
    PROBE_NODES_PER_DECADE log-band nodes and an inner patch of
    min(2 step, 1/2), evaluated at the window nodes
    4 step <= |x| <= epsilon/2: the plateau of a cutoff of width epsilon,
    less a four-cell resolution floor around the origin.  ValueError if no
    sample is left there.  fs may be an (S, N) stack; the values are then
    (S, P)."""
    if np.shape(fs)[-1] != xs.size:
        raise ValueError("fs must have one sample per node of xs")
    dx = _uniform_step(xs)
    window = 0.5 * epsilon
    nodes = np.flatnonzero((np.abs(xs) >= 4.0 * step) & (np.abs(xs) <= window))
    if not nodes.size:
        raise ValueError(f"no sample in the probe window {4.0 * step:g} <= |x| <= {window:g}")
    cfg = SteinConfig(
        b=b,
        r_outer=PROBE_R_OUTER,
        h_inner=min(2.0 * step, 0.5),
        nodes_per_decade=PROBE_NODES_PER_DECADE,
    )
    return stein_derivative(fs, dx, cfg, nodes).values


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
        vals = probe_window(xs, slices(xs), b, step, epsilon)
        for weight, row in zip(weights, vals, strict=True):
            total += weight * float(np.sum(row**2) * step)
        norms.append(math.sqrt(total))
    ratios = [c / a if a > 1e-300 else 1.0 for a, c in zip(norms, norms[1:])]
    return norms, ratios


def diverges(ratios: Sequence[float]) -> bool:
    """The divergence verdict: both of the last two refinement ratios exceed
    1 + DIVERGENCE_DELTA."""
    return all(r > 1.0 + DIVERGENCE_DELTA for r in ratios[-2:])


@dataclass(frozen=True)
class RefinementReport:
    levels: List[float]  # window norm per level
    ratios: List[float]
    # refine_divergence: "divergent" | "convergent" | "inconclusive";
    # uc.b1_indicator: "obstructed" | "persists"
    verdict: str


def refine_divergence(
    f: Callable[[np.ndarray], np.ndarray], b: float, levels: int
) -> RefinementReport:
    """Windowed L2 mass of Db f on dyadically refined grids.

    Runs :func:`refinement_ladder` on the single slice f with epsilon = 1
    (coarsest step 1/16, window [-1/2, 1/2]).  A jump at the origin makes
    the window norms grow without bound under refinement ("divergent"); a
    function with bounded Db stabilises ("convergent").
    """
    out_levels, ratios = refinement_ladder(
        lambda xs: np.asarray(f(xs))[None], [1.0], b, levels, 1.0
    )
    if diverges(ratios):
        verdict = "divergent"
    elif all(abs(r - 1.0) <= CONVERGENCE_DELTA for r in ratios[-2:]):
        verdict = "convergent"
    else:
        verdict = "inconclusive"
    return RefinementReport(levels=out_levels, ratios=ratios, verdict=verdict)
