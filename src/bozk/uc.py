"""Decay-persistence experiments: the Fourier-side obstruction of strong
x-decay and weighted-norm persistence scans.  The scan keeps its run's
series, so the first-moment law is read off it by the rule that reads every
run's, diagnostics.conservation_report.

The central mechanism: the x-mean transform u_hat(0, eta, t) is conserved, so
whenever it is nonzero the evolved spectrum carries a sgn(xi)-type jump
factor at xi = 0, and the fractional difference functional D^(1/2) of the
localised spectrum slice diverges under xi-refinement (a jump is square
integrable but its half-order Stein derivative is not locally so).  Data with
vanishing x-mean transform escapes the obstruction.  On periodic boxes,
xi-refinement is domain growth: dxi = 2*pi/L, so the divergence appears as
domain-size dependence at fixed resolution density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from .grid import Grid2D, RealField, forward, make_grid, xi_line
from .operators import NormSpec, dispersion
from .solver import SolverAbort, SolverConfig, TimeSeries, run
from .stein import RefinementReport, diverges, probe_window, refinement_ladder

OBSTRUCTION_GROWTH_THRESHOLD = 1.5   # per domain doubling; recorded calibration
STABLE_BAND = 0.10                   # "unchanged" tolerance per doubling
GROWTH_ORDERS = (2.0, 2.5)           # decay orders of the domain-growth study
B1_ETA_TARGETS = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
DENSITY_ETA_TARGETS = (0.0, 0.5, 1.0) # obstruction_density's eta rows
TAIL_TOL = 1e-8                      # largest relative spectral tail probed
GROWTH_LIMIT = 2.0                   # persistence flag: max Z / initial Z
BOUNDARY_TOL = 1e-3                  # edge/interior amplitude abort level
_SLICE_POINTS = 256                  # xi points per block of b1_indicator's slices


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity glue built from exp(-1/t): 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class CutoffSpec:
    """chi(xi, eta) = chi_tilde(xi) * exp(-eta^2), with chi_tilde a smooth
    bump supported in (-eps, eps) and identically 1 on (-eps/2, eps/2)."""

    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("cutoff width epsilon must be positive")

    def chi_tilde(self, xi: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(xi, dtype=np.float64))
        # ramp from 1 at eps/2 down to 0 at eps
        return _smoothstep((self.epsilon - a) / (0.5 * self.epsilon))

    def chi(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        return self.chi_tilde(xi) * np.exp(-np.asarray(eta) ** 2)


def _eta_rows(grid: Grid2D, targets: Sequence[float]) -> List[int]:
    """The distinct grid rows whose eta is nearest one of the targets, in
    ascending eta (a tie goes to the row that comes first in grid order)."""
    rows = {int(np.argmin(np.abs(grid.eta - target))) for target in targets}
    return sorted(rows, key=lambda n: grid.eta[n])


def spectrum_tail_ratio(phi: RealField) -> float:
    """Relative spectral magnitude near the grid edge; resolution check."""
    F = forward(phi)
    mag = np.abs(F.coeffs)
    peak = float(mag.max())
    if peak == 0.0:
        return 0.0
    edge = (np.abs(phi.grid.mx)[None, :] >= 0.40 * phi.grid.nx) | (
        np.abs(phi.grid.my)[:, None] >= 0.40 * phi.grid.ny
    )
    return float(mag[edge].max() / peak)


def b1_indicator(
    phi: RealField,
    t: float,
    cut: CutoffSpec = CutoffSpec(),
    levels: int = 4,
) -> RefinementReport:
    """Refinement probe of the sgn(xi) term of the linearly evolved spectrum.

    For each grid eta nearest to one of B1_ETA_TARGETS, the slice

        f_eta(xi) = 2 t chi(xi, eta) e^(i t xi (eta^2 - |xi|)) sgn(xi) phi_hat(xi, eta)

    is sampled on xi-grids of dyadically increasing resolution; its half-order
    Stein derivative is integrated over the cutoff's plateau (minus a
    four-cell resolution floor) and aggregated over eta.  Squared level norms
    that grow by a constant step mean phi_hat(0, eta) != 0 ("obstructed");
    steps that halve mean the x-mean transform vanishes ("persists"); see
    stein.diverges.  The verdict is invariant under scaling of phi.
    """
    if t <= 0:
        raise ValueError("b1_indicator needs t > 0")
    tail = spectrum_tail_ratio(phi)
    if tail > TAIL_TOL:
        raise ValueError(
            f"spectrum not resolved: relative tail {tail:.2e} > {TAIL_TOL:.0e}"
        )
    g = phi.grid
    rows = _eta_rows(g, B1_ETA_TARGETS)
    # partial transforms A(x_i, eta) = sum_j phi e^(-i eta y_j) dy of the rows
    sign = np.where(g.my[rows] % 2 == 0, 1.0, -1.0)
    cols = np.fft.fft(phi.samples, axis=0)[rows] * (g.dy * sign)[:, None]
    # trapezoid weights on the distinct grid etas
    etas = g.eta[rows]
    if len(etas) > 1:
        d = np.diff(etas)
        wts = np.empty_like(etas)
        wts[0] = d[0] / 2
        wts[-1] = d[-1] / 2
        wts[1:-1] = (d[:-1] + d[1:]) / 2
    else:
        wts = np.array([1.0])

    eta = etas[:, None]

    def eta_slices(xi: np.ndarray) -> np.ndarray:
        # _SLICE_POINTS xi points at a time, so the level holds its (S, P)
        # stack and one block's temporaries, never a (P, nx) kernel
        out = np.empty((len(rows), xi.size), dtype=np.complex128)
        for a in range(0, xi.size, _SLICE_POINTS):
            x = xi[a : a + _SLICE_POINTS]
            kern = -1j * np.outer(x, g.x)
            np.exp(kern, out=kern)
            kern *= g.dx
            # the block's slice transforms at once; einsum without optimize
            # sums in its own loops, so no BLAS call is made
            phats = np.einsum("px,sx->sp", kern, cols)
            out[:, a : a + x.size] = (
                2.0
                * t
                * cut.chi(x, eta)
                * np.exp(1j * t * dispersion(x, eta))
                * np.sign(x)
                * phats
            )
        return out

    out_levels, ratios = refinement_ladder(eta_slices, wts, 0.5, levels, cut.epsilon)
    return RefinementReport(out_levels, ratios, "obstructed" if diverges(ratios) else "persists")


@dataclass(frozen=True)
class PersistenceRow:
    r: float
    initial: float
    peak: float
    growth: float
    flagged: bool


@dataclass(frozen=True)
class PersistenceTable:
    t: np.ndarray
    series: Dict[float, np.ndarray]   # r -> Z_{s,r} norm per record
    rows: List[PersistenceRow]
    boundary_ratio: float             # max boundary |u| / max |u| over the run
    raw: TimeSeries                   # the underlying run diagnostics


def persistence_scan(
    phi: RealField,
    cfg: SolverConfig,
    r_list: Sequence[float],
    s: float,
) -> PersistenceTable:
    """Track Z_{s,r} norms along a run and flag runaway growth.

    Weighted norms on a periodic box only mean something while the solution
    stays away from the boundary; the scan records the worst boundary/interior
    amplitude ratio and raises :class:`SolverAbort` ("boundary", at the first
    record over the tolerance) when it exceeds BOUNDARY_TOL.  An r whose norm
    grows past GROWTH_LIMIT times its initial value is flagged.
    """
    r_list = [float(r) for r in r_list]
    if any(r < 0 or r >= 3.5 for r in r_list):
        raise ValueError("decay orders r must lie in [0, 7/2)")
    if s < 2.0 * max(r_list):
        raise ValueError("regularity s must be at least 2*max(r)")

    specs = {r: NormSpec.zsr(s, r) for r in r_list}
    ts = run(phi, cfg, norms=list(specs.values())).series
    edge = ts.edge_ratio
    if np.any(edge > BOUNDARY_TOL):
        i = int(np.argmax(edge > BOUNDARY_TOL))
        raise SolverAbort(
            "boundary",
            float(ts.t[i]),
            int(ts.step[i]),
            f"solution reached the domain boundary (edge/interior amplitude "
            f"{edge[i]:.2e} > {BOUNDARY_TOL:.0e}); weighted norms untrusted",
        )
    series: Dict[float, np.ndarray] = {}
    rows: List[PersistenceRow] = []
    for r in r_list:
        z = series[r] = ts.norms[specs[r]]
        growth = float(z.max() / z[0]) if z[0] > 0 else 1.0
        rows.append(
            PersistenceRow(
                r=r,
                initial=float(z[0]),
                peak=float(z.max()),
                growth=growth,
                flagged=growth > GROWTH_LIMIT,
            )
        )
    return PersistenceTable(
        t=ts.t, series=series, rows=rows, boundary_ratio=float(edge.max()), raw=ts
    )


@dataclass(frozen=True)
class DomainGrowthRow:
    length: float
    indicators: Dict[float, float]   # r -> obstruction density at this domain


@dataclass(frozen=True)
class DomainGrowthReport:
    rows: List[DomainGrowthRow]
    factors: Dict[float, List[float]]  # r -> per-doubling growth factors
    threshold: float
    obstructed: Dict[float, bool]      # every factor >= threshold
    stable: Dict[float, bool]          # every factor within the stable band


def obstruction_density(
    u: RealField,
    r: float,
    cut: CutoffSpec = CutoffSpec(),
) -> float:
    """Peak squared D^(r-2) density of chi*sgn(xi)*u_hat near xi = 0.

    The x-decay rate r maps to the fractional order b = r - 2 of the
    xi-side functional applied at the second-derivative level: a jump of
    u_hat at xi = 0 (conserved x-mean) leaves every b = 0 quantity bounded
    but makes the b = 1/2 density blow up like 1/dxi at the resolution
    floor, i.e. linearly in the domain length.  The density is read on the
    cutoff's plateau |xi| <= epsilon/2, less a four-cell floor for b > 0;
    ValueError if the grid has no xi there.
    """
    b = float(r) - 2.0
    if not 0.0 <= b < 1.0:
        raise ValueError("obstruction density is defined for r in [2, 3)")
    g = u.grid
    F = forward(u)
    rows = _eta_rows(g, DENSITY_ETA_TARGETS)
    xi = xi_line(F, rows[0])[0]
    q = np.stack([cut.chi(xi, g.eta[n]) * np.sign(xi) * xi_line(F, n)[1] for n in rows])
    if b < 0.02:
        # zeroth order needs no resolution floor; the sup converges to
        # the conserved |u_hat(0+, eta)| as the window fills in
        sel0 = (np.abs(xi) > 0) & (np.abs(xi) <= 0.5 * cut.epsilon)
        if not np.any(sel0):
            raise ValueError(f"no nonzero grid xi on the plateau |xi| <= {0.5 * cut.epsilon:g}")
        return float(np.max(np.abs(q[:, sel0]) ** 2))
    # xi_line's xi is the grid of step 2pi/lx whose xi = 0 is node nx/2
    vals = probe_window(q, 2.0 * np.pi / g.lx, g.nx // 2, b, cut.epsilon)
    return float(np.max(vals**2))


def domain_growth_study(
    data: Callable[[Grid2D], RealField],
    base_grid: Grid2D,
    cfg: SolverConfig,
    doublings: int = 2,
    *,
    cut: CutoffSpec = CutoffSpec(),
) -> DomainGrowthReport:
    """Fixed physical data on domains L, 2L, 4L at fixed resolution density;
    reports the obstruction densities at r in GROWTH_ORDERS and their
    per-doubling growth.

    An r whose density grows by at least OBSTRUCTION_GROWTH_THRESHOLD at
    every doubling is marked obstructed; densities staying within the stable
    band are the persistence side of the dichotomy.  The cutoff is widened
    to at least 16 cells of the base grid's dxi, so that the density's
    window holds points on every domain.
    """
    cut = CutoffSpec(max(cut.epsilon, 16.0 * 2.0 * np.pi / base_grid.lx))
    rows: List[DomainGrowthRow] = []
    for k in range(doublings + 1):
        f = 2**k
        g = make_grid(base_grid.nx * f, base_grid.ny * f, base_grid.lx * f, base_grid.ly * f)
        phi = data(g)
        rr = run(phi, cfg)
        inds = {r: obstruction_density(rr.final, r, cut) for r in GROWTH_ORDERS}
        rows.append(DomainGrowthRow(length=g.lx, indicators=inds))
    factors: Dict[float, List[float]] = {}
    obstructed: Dict[float, bool] = {}
    stable: Dict[float, bool] = {}
    for r in GROWTH_ORDERS:
        vals = [row.indicators[r] for row in rows]
        fac = [b / a if a > 0 else 1.0 for a, b in zip(vals, vals[1:])]
        factors[r] = fac
        obstructed[r] = all(x >= OBSTRUCTION_GROWTH_THRESHOLD for x in fac)
        stable[r] = all(abs(x - 1.0) <= STABLE_BAND for x in fac)
    return DomainGrowthReport(
        rows=rows, factors=factors, threshold=OBSTRUCTION_GROWTH_THRESHOLD,
        obstructed=obstructed, stable=stable,
    )
