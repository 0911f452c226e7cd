"""Time evolution of u_t + H u_xx + u_xyy + u u_x = mu*Lap(u).

The stepper is an integrating-factor classical RK4: the stiff linear symbol
is applied through its exact exponential (so the linear flow is integrated
without error and the zero mode u_hat(0, eta) evolves by exactly
exp(-mu eta^2 dt) per step), and only the quadratic term -1/2 d_x(u^2) passes
through the Runge-Kutta stages.  The only stability restriction left is the
advective one, audited as dt * max|u| * max|xi| <= 0.5.

A Picard iteration on the Duhamel integral equation

    u(t) = E_mu(t) phi - int_0^t E_mu(t - t') 1/2 d_x(u^2)(t') dt'

provides an independent small-time solver for mu > 0; the two paths agreeing
is one of the package's cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grid import (
    Grid2D,
    NonFiniteField,
    RealField,
    SpectrumField,
    dealias,
    forward,
    inverse,
)
from .operators import propagator_array, sobolev_weight
from .weights import WeightSpec

CFL_LIMIT = 0.5
BLOWUP_AMPLITUDE = 1e8


class SolverAbort(RuntimeError):
    """Numerical abort: blow-up, a violated stability audit, a failed
    contraction, or a solution that reached the box edge."""

    def __init__(self, reason: str, t: float, step: int, detail: str = ""):
        super().__init__(f"{reason} at t={t:.6g} (step {step}): {detail}")
        self.reason = reason
        self.t = t
        self.step = step
        self.detail = detail


class PicardDivergence(SolverAbort):
    """Fixed-point iteration failed to contract (T too large for the data).

    `step` counts the sweeps run; `residuals` holds the finite residuals, one
    fewer than the sweeps when the last sweep went non-finite."""

    def __init__(self, t_final: float, sweeps: int, residuals: Sequence[float]):
        detail = (
            f"no contraction after {sweeps} iterations; last residual {residuals[-1]:.3e}"
            if len(residuals) == sweeps
            else f"iterate went non-finite in sweep {sweeps}"
        )
        super().__init__("picard_divergence", t_final, sweeps, detail)
        self.residuals = list(residuals)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    mu: float = 0.0
    dealias: bool = True
    stride: int = 10
    nonlinear: bool = True

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.dt, self.t_final, self.mu))):
            raise ValueError("dt, t_final and mu must be finite")
        if self.dt <= 0 or self.t_final <= 0 or self.dt > self.t_final * (1 + 1e-12):
            raise ValueError("need 0 < dt <= t_final")
        if self.mu < 0:
            raise ValueError("viscosity mu must be >= 0")
        if self.stride < 1:
            raise ValueError("diagnostic stride must be >= 1")


def nonlinear_rhs(
    F: SpectrumField,
    use_dealias: bool = True,
    audit: Optional[Callable[[float], None]] = None,
) -> SpectrumField:
    """Spectrum of -1/2 d_x(u^2), with the 2/3 mask around the square.

    `audit`, when given, is called with max|u| of the field that is squared
    before the square is taken; it may raise to stop the evaluation."""
    g = F.grid
    src = dealias(F) if use_dealias else F
    u = inverse(src)
    if audit is not None:
        audit(float(np.max(np.abs(u.samples))))
    w = forward(RealField(g, u.samples**2))
    out = w.coeffs * g.advection_symbol
    if use_dealias:
        out = np.where(g.dealias_mask, out, 0.0)
    return SpectrumField(g, out)


class _StepKernel:
    """Per-run precomputed arrays for the IF-RK4 stage."""

    def __init__(self, grid: Grid2D, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self.e_half = propagator_array(grid, 0.5 * cfg.dt, cfg.mu)
        self.e_full = propagator_array(grid, cfg.dt, cfg.mu)

    def advance(
        self, c: np.ndarray, audit: Optional[Callable[[float], None]] = None
    ) -> np.ndarray:
        """Coefficients one dt after `c`; `audit` sees max|u| of the field
        stage k1 squares, i.e. of `c` (dealiased when the run dealiases)."""
        cfg = self.cfg
        if not cfg.nonlinear:
            return self.e_full * c
        g = self.grid
        dt, eh, ef = cfg.dt, self.e_half, self.e_full

        def rhs(coeffs: np.ndarray) -> np.ndarray:
            return nonlinear_rhs(SpectrumField(g, coeffs), cfg.dealias).coeffs

        k1 = nonlinear_rhs(SpectrumField(g, c), cfg.dealias, audit).coeffs
        c2 = rhs(eh * (c + (0.5 * dt) * k1))
        c3 = rhs(eh * c + (0.5 * dt) * c2)
        c4 = rhs(ef * c + dt * (eh * c3))
        return ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (c2 + c3) + c4)


@dataclass(frozen=True)
class RunDiagnostics:
    """What to record along a run (every `stride` steps plus both endpoints)."""

    hs_orders: Tuple[float, ...] = ()
    weights: Tuple[WeightSpec, ...] = ()
    extra: Tuple[Tuple[str, Callable[[RealField], float]], ...] = ()


@dataclass
class TimeSeries:
    """Per-record diagnostics of one run; rows strictly increasing in t."""

    mu: float
    phi_l2: float
    t: np.ndarray
    step: np.ndarray  # step index of each record
    l2: np.ndarray
    moment_x: np.ndarray
    zero_mode: np.ndarray  # (n_records, ny) complex
    hs: Dict[float, np.ndarray]
    weighted: Dict[str, np.ndarray]
    extra: Dict[str, np.ndarray]

    def zero_mode_drift(self) -> np.ndarray:
        """max_eta |u_hat(0,eta,t) - u_hat(0,eta,0)| per record."""
        return np.max(np.abs(self.zero_mode - self.zero_mode[0]), axis=1)


@dataclass(frozen=True)
class RunResult:
    series: TimeSeries
    final: RealField


def run(
    phi: RealField,
    cfg: SolverConfig,
    diagnostics: Optional[RunDiagnostics] = None,
) -> RunResult:
    """Evolve phi to t_final, recording diagnostics every `stride` steps."""
    diag = diagnostics or RunDiagnostics()
    g = phi.grid
    kernel = _StepKernel(g, cfg)
    max_xi = float(np.max(np.abs(g.xi)))
    # final time is n_steps * dt, the closest step multiple to t_final
    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))

    hs_w = {s: sobolev_weight(g, "J", s) for s in diag.hs_orders}
    w2 = {spec.label(): spec.evaluate(g.xmesh, g.ymesh) ** 2 for spec in diag.weights}
    area = g.cell_area

    rows: List[dict] = []

    def audit(m: float, t: float, n: int) -> None:
        """Stability and blow-up checks on max|u| of the state after step n."""
        if m > BLOWUP_AMPLITUDE:
            raise SolverAbort("blow_up", t, n, f"max|u| = {m:.3e}")
        cfl = cfg.dt * m * max_xi
        if cfg.nonlinear and cfl > CFL_LIMIT:
            raise SolverAbort(
                "cfl_audit", t, n, f"dt*max|u|*max|xi| = {cfl:.3f} > {CFL_LIMIT}"
            )

    def record(c: np.ndarray, t: float, n: int) -> None:
        u = inverse(spec := SpectrumField(g, c))
        audit(float(np.max(np.abs(u.samples))), t, n)
        row = {
            "t": t,
            "step": n,
            "l2": u.l2(),
            "moment_x": float(np.sum(g.xmesh * u.samples) * area),
            "zero_mode": spec.zero_mode_row(),
            "hs": {s: spec.l2(w) for s, w in hs_w.items()},
            "weighted": {lbl: u.l2(w) for lbl, w in w2.items()},
            "extra": {lbl: fn(u) for lbl, fn in diag.extra},
        }
        rows.append(row)

    # every step audits the state it starts from (stage k1's field), every
    # record the state it reads; a non-finite sample anywhere in the loop is
    # a blow-up, and for one inside a step, t is the time that step started
    # from
    c = forward(phi).coeffs
    t = 0.0
    n = 0
    try:
        record(c, t, n)
        for n in range(1, n_steps + 1):
            c = kernel.advance(c, functools.partial(audit, t=t, n=n - 1))
            t += cfg.dt
            if n % cfg.stride == 0 or n == n_steps:
                record(c, t, n)
    except NonFiniteField as exc:
        raise SolverAbort("blow_up", t, n, str(exc)) from None

    series = TimeSeries(
        mu=cfg.mu,
        phi_l2=rows[0]["l2"],
        t=np.array([r["t"] for r in rows]),
        step=np.array([r["step"] for r in rows]),
        l2=np.array([r["l2"] for r in rows]),
        moment_x=np.array([r["moment_x"] for r in rows]),
        zero_mode=np.array([r["zero_mode"] for r in rows]),
        hs={s: np.array([r["hs"][s] for r in rows]) for s in diag.hs_orders},
        weighted={
            lbl: np.array([r["weighted"][lbl] for r in rows]) for lbl in w2
        },
        extra={lbl: np.array([r["extra"][lbl] for r in rows]) for lbl, _ in diag.extra},
    )
    return RunResult(series=series, final=inverse(SpectrumField(g, c)))


def _cumulative_weights(j: int, h: float) -> np.ndarray:
    """Newton-Cotes weights for int_0^{t_j} on nodes 0..j of spacing h.

    Composite Simpson for even j; for odd j >= 3 the last three panels use
    the 3/8 rule so the order stays 4; j = 1 falls back to the trapezoid.
    """
    w = np.zeros(j + 1)
    if j == 0:
        return w
    if j == 1:
        w[:2] = 0.5 * h
        return w
    m = j if j % 2 == 0 else j - 3
    for k in range(0, m, 2):
        w[k] += h / 3.0
        w[k + 1] += 4.0 * h / 3.0
        w[k + 2] += h / 3.0
    if j % 2 == 1:
        w[m] += 3.0 * h / 8.0
        w[m + 1] += 9.0 * h / 8.0
        w[m + 2] += 9.0 * h / 8.0
        w[j] += 3.0 * h / 8.0
    return w


@dataclass(frozen=True)
class PicardResult:
    final: RealField
    residuals: List[float]
    iterations: int


def picard_solve(
    phi: RealField,
    t_final: float,
    mu: float,
    max_iter: int = 25,
    tol: float = 1e-10,
    n_nodes: int = 33,
) -> PicardResult:
    """Solve the Duhamel integral equation by fixed-point iteration.

    The time integral uses a fixed (n_nodes)-point composite Simpson grid on
    [0, t_final]; iterates are compared in the sup-in-t L2 norm.  The caller
    supplies t_final; non-convergence, including an iterate that overflows,
    raises :class:`PicardDivergence`.
    """
    if mu <= 0:
        raise ValueError("picard_solve needs mu > 0 (parabolic regularisation)")
    if t_final <= 0 or n_nodes < 5 or n_nodes % 2 == 0:
        raise ValueError("need t_final > 0 and an odd n_nodes >= 5")
    if max_iter < 1 or not tol > 0:
        raise ValueError("need picard max_iter >= 1 and tol > 0")
    g = phi.grid
    h = t_final / (n_nodes - 1)
    # E_mu(k*h) for k = 0..n-1; uniform nodes make E(t_j - t_m) = table[j - m]
    table = [propagator_array(g, k * h, mu) for k in range(n_nodes)]
    phi_hat = forward(phi).coeffs
    free = [table[j] * phi_hat for j in range(n_nodes)]
    weights = [_cumulative_weights(j, h) for j in range(n_nodes)]

    u = [f.copy() for f in free]
    residuals: List[float] = []
    # an iterate that overflows is the divergence the sweeps detect
    with np.errstate(over="ignore"):
        for it in range(1, max_iter + 1):
            try:
                rhs = [nonlinear_rhs(SpectrumField(g, u[m])).coeffs for m in range(n_nodes)]
            except NonFiniteField:
                raise PicardDivergence(t_final, it, residuals) from None
            new = []
            for j in range(n_nodes):
                acc = free[j].copy()
                wj = weights[j]
                for m in range(j + 1):
                    if wj[m] != 0.0:
                        acc += wj[m] * (table[j - m] * rhs[m])
                new.append(acc)
            res = max(SpectrumField(g, new[j] - u[j]).l2() for j in range(n_nodes))
            if not math.isfinite(res):
                raise PicardDivergence(t_final, it, residuals)
            residuals.append(res)
            u = new
            if res < tol:
                return PicardResult(
                    final=inverse(SpectrumField(g, u[-1])),
                    residuals=residuals,
                    iterations=it,
                )
    raise PicardDivergence(t_final, max_iter, residuals)
