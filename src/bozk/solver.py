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

from .grid import Grid2D, NonFiniteField, RealField, SpectrumField, forward, inverse
from .operators import NormSpec, norm_rows, propagator_array, read_norms

CFL_LIMIT = 0.5
BLOWUP_AMPLITUDE = 1e8
# the x-mean transform of phi counts as vanishing at or below this fraction
# of max|phi_hat|
X_MEAN_TOL = 1e-8


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


def _scratch(g: Grid2D) -> Tuple[np.ndarray, np.ndarray]:
    """Buffers of :func:`_rhs_into`: the full-width transform buffer, whose
    columns past nx//3 are zero between calls, and the sample buffer."""
    return np.zeros(g.spectral_shape, dtype=np.complex128), np.empty((g.ny, g.nx))


def _raw(g: Grid2D, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the columns 0..nx//3 of the coefficients `c` into `out` in raw
    transform units, the input of ``norm="forward"`` inverse passes: times
    ``Grid2D.inverse_scale``, and times the 1/(nx ny) that such passes
    leave out."""
    keep = out.shape[1]
    np.multiply(c[:, :keep], g.inverse_scale[:, :keep], out=out)
    out *= 1.0 / (g.nx * g.ny)
    return out


def _rhs_into(
    x: np.ndarray,
    out: np.ndarray,
    table: np.ndarray,
    spec: np.ndarray,
    u: np.ndarray,
    audit: Optional[Callable[[float], None]] = None,
) -> None:
    """Write ``table`` times the raw transform of u^2 into `out`, on the
    columns 0..nx//3 that the 2/3 mask keeps, where `x` holds u on those
    columns in raw units (see :func:`_raw`).  `table` is
    ``Grid2D.advection_symbol`` times the output normalisation, so `out`
    is the spectrum of -1/2 d_x(u^2) in the table's units.

    `x` is read before `out` is written, so they may be one array, and
    either may be the kept columns of `spec`; the rows of `x` that the 2/3
    mask drops are zeroed.  `spec` and `u` come from :func:`_scratch`: the
    inverse x pass reads all of `spec`, so it pads nothing, and the forward
    x pass fills it, so its tail is zeroed again after.  Non-finite
    samples, or a square that overflows, raise :class:`NonFiniteField`;
    `audit`, when given, sees max|u| of the finite field before it is
    squared."""
    ny, keep = x.shape
    x[ny // 3 + 1 : ny - ny // 3] = 0.0
    np.fft.ifft(x, axis=0, norm="forward", out=spec[:, :keep])
    np.fft.irfft(spec, n=u.shape[1], axis=1, norm="forward", out=u)
    if audit is not None:
        top = max(float(np.max(u)), -float(np.min(u)))  # max|u|, NaN if any is
        if not math.isfinite(top):
            raise NonFiniteField("field contains non-finite samples")
        audit(top)
    np.square(u, out=u)
    if not math.isfinite(np.max(u)):
        raise NonFiniteField("field contains non-finite samples")
    np.fft.rfft(u, axis=1, out=spec)
    np.fft.fft(spec[:, :keep], axis=0, out=out)
    spec[:, keep:] = 0.0
    out *= table


def nonlinear_rhs(
    F: SpectrumField, audit: Optional[Callable[[float], None]] = None
) -> SpectrumField:
    """Spectrum of -1/2 d_x(u^2), with the 2/3 mask around the square (the
    mask on the output is folded into ``Grid2D.advection_symbol``).

    `audit`, when given, is called with max|u| of the field that is squared
    before the square is taken; it may raise to stop the evaluation.
    Non-finite samples, or a square that overflows, raise
    :class:`NonFiniteField`.  The step kernel runs the same code in its own
    buffers."""
    g = F.grid
    sym = g.advection_symbol
    out, u = _scratch(g)  # the transform buffer is the result
    x = _raw(g, F.coeffs, out[:, : sym.shape[1]])
    _rhs_into(x, x, sym * g.forward_scale[:, : sym.shape[1]], out, u, audit)
    return SpectrumField(g, out)


class _StepKernel:
    """The IF-RK4 step on plain arrays, with the tables and buffers of one
    run.  Between the transforms, everything runs on the columns 0..nx//3
    that the 2/3 mask keeps, in raw transform units (see :func:`_raw`), so
    `e_half` holds only those columns, and so do the rhs table
    (``Grid2D.advection_symbol`` times dt/2 and the 1/(nx ny) of raw units)
    and the stage buffers.  The state's other columns see only `e_full`, as
    the stage values vanish there."""

    def __init__(self, grid: Grid2D, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self.e_full = propagator_array(grid, cfg.dt, cfg.mu)
        if cfg.nonlinear:
            sym = grid.advection_symbol
            keep = sym.shape[1]
            self.e_half = np.ascontiguousarray(
                propagator_array(grid, 0.5 * cfg.dt, cfg.mu)[:, :keep]
            )
            self.table = sym * (0.5 * cfg.dt / (grid.nx * grid.ny))
            self.a, self.k1, self.k2, self.k3 = np.empty((4, *sym.shape), dtype=np.complex128)
            self.scratch = _scratch(grid)

    def advance(
        self, c: np.ndarray, audit: Optional[Callable[[float], None]] = None
    ) -> np.ndarray:
        """Coefficients one dt after `c`, as a new array; `audit` sees max|u|
        of the field stage k1 squares, i.e. of `c` after the 2/3 mask.

        The stage values k1..k4 below are dt/2 times those of RK4, in raw
        units.  Each product with a propagator keeps one operand order on
        every grid (complex multiplication is not bitwise commutative under
        FMA)."""
        cfg = self.cfg
        if not cfg.nonlinear:
            return self.e_full * c
        g, eh = self.grid, self.e_half
        keep = eh.shape[1]
        ef = self.e_full[:, :keep]
        a, k1, k2, k3 = self.a, self.k1, self.k2, self.k3

        def rhs(x: np.ndarray, out: np.ndarray, audit=None) -> None:
            _rhs_into(x, out, self.table, *self.scratch, audit)

        rhs(_raw(g, c, a), k1, audit)
        # k2 = rhs(eh (a + k1))
        np.add(a, k1, out=k2)
        np.multiply(eh, k2, out=k2)
        rhs(k2, k2)
        # k3 = rhs(eh a + k2)
        np.multiply(eh, a, out=k3)
        k3 += k2
        rhs(k3, k3)
        # k4 = rhs(ef a + 2 eh k3), in a; k3 is summed into k2 first
        k2 += k3
        np.multiply(eh, k3, out=k3)
        k3 *= 2.0
        np.multiply(ef, a, out=a)
        a += k3
        rhs(a, a)
        # ef c + (ef k1 + 2 eh (k2 + k3) + k4) / 3, back in coefficients
        np.multiply(eh, k2, out=k2)
        k2 *= 2.0
        np.multiply(ef, k1, out=k1)
        k1 += k2
        k1 += a
        k1 *= g.nx * g.ny / 3.0
        k1 *= g.forward_scale[:, :keep]
        new = self.e_full * c
        new[:, :keep] += k1
        return new


@dataclass
class TimeSeries:
    """Per-record diagnostics of one run; rows strictly increasing in t.
    The arrays are views of storage that `run` allocates once per run."""

    mu: float
    nonlinear: bool
    phi_l2: float
    # max|phi_hat(0, eta)| <= X_MEAN_TOL * max|phi_hat|; the moment law is
    # measured only for such data (see diagnostics.conservation_report)
    x_mean_vanishes: bool
    t: np.ndarray
    step: np.ndarray  # step index of each record, int64
    l2: np.ndarray
    moment_x: np.ndarray
    zero_mode_drift: np.ndarray  # max_eta |u_hat(0,eta,t) - u_hat(0,eta,0)|
    edge_ratio: np.ndarray  # max(max|u[0, :]|, max|u[:, 0]|) / max|u|, 0 for u = 0
    norms: Dict[NormSpec, np.ndarray]

    def moment_rate(self) -> float:
        """dM_x/dt predicted for the mu = 0 flow: ||phi||^2 / 2 for the full
        equation, 0 for the linear one, whose propagator keeps M_x."""
        return 0.5 * self.phi_l2**2 if self.nonlinear else 0.0


@dataclass(frozen=True)
class RunResult:
    series: TimeSeries
    final: RealField


def run(phi: RealField, cfg: SolverConfig, *, norms: Sequence[NormSpec] = ()) -> RunResult:
    """Evolve phi to t_final, recording diagnostics every `stride` steps and
    at both endpoints: the L2 norm, the first x-moment, the drift
    max_eta |u_hat(0, eta, t) - u_hat(0, eta, 0)| of the x-mean transform,
    the edge ratio and each of `norms` (keyed by its spec)."""
    g = phi.grid
    kernel = _StepKernel(g, cfg)
    max_xi = float(np.max(np.abs(g.xi)))
    # final time is n_steps * dt, the closest step multiple to t_final
    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))
    stride = cfg.stride

    norms = list(dict.fromkeys(norms))
    rows = norm_rows(g, norms)  # built once per run, read at every record
    area = g.cell_area
    xmesh = g.xmesh
    usq = np.empty((g.ny, g.nx))  # x u, then u^2
    csq, isq = np.empty((2, *g.spectral_shape))  # |u_hat|^2, (Im u_hat)^2

    # one row per quantity, one column per record (steps 0, stride, ...,
    # and n_steps): t, l2, moment_x, the zero-mode drift, the edge ratio,
    # then the norms in their input order
    n_records = n_steps // stride + 1 + (n_steps % stride != 0)
    store = np.empty((5 + len(norms), n_records))
    steps = np.empty(n_records, dtype=np.int64)

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
        u = inverse(SpectrumField(g, c))
        samples = u.samples
        top = max(float(np.max(samples)), -float(np.min(samples)))  # max|u|
        audit(top, t, n)
        i = -(-n // stride)  # the record index of step n
        steps[i] = n
        col = store[:, i]
        col[0] = t
        np.multiply(xmesh, samples, out=usq)
        col[2] = np.sum(usq) * area
        np.square(samples, out=usq)
        col[1] = np.sqrt(np.sum(usq) * area)
        col[3] = np.max(np.abs(c[:, 0] - zero0))
        edge = max(float(np.max(np.abs(samples[0]))), float(np.max(np.abs(samples[:, 0]))))
        col[4] = edge / top if top > 0 else 0.0
        if len(rows.fourier):
            np.square(c.real, out=csq)
            np.square(c.imag, out=isq)
            np.add(csq, isq, out=csq)
        col[5:] = read_norms(rows, csq, usq)

    # every step audits the state it starts from (stage k1's field), every
    # record the state it reads; a non-finite sample anywhere in the loop is
    # a blow-up, and for one inside a step, t is the time that step started
    # from
    c = forward(phi).coeffs
    zero0 = c[:, 0].copy()  # u_hat(0, eta, 0), the x-mean transform of phi
    x_mean_vanishes = bool(np.max(np.abs(c[:, 0])) <= X_MEAN_TOL * np.max(np.abs(c)))
    t = 0.0
    n = 0
    try:
        record(c, t, n)
        for n in range(1, n_steps + 1):
            c = kernel.advance(c, functools.partial(audit, t=t, n=n - 1))
            t += cfg.dt
            if n % stride == 0 or n == n_steps:
                record(c, t, n)
    except NonFiniteField as exc:
        raise SolverAbort("blow_up", t, n, str(exc)) from None

    t_col, l2, moment_x, drift, edge_ratio, *cols = store
    series = TimeSeries(
        mu=cfg.mu,
        nonlinear=cfg.nonlinear,
        phi_l2=float(l2[0]),
        x_mean_vanishes=x_mean_vanishes,
        t=t_col,
        step=steps,
        l2=l2,
        moment_x=moment_x,
        zero_mode_drift=drift,
        edge_ratio=edge_ratio,
        norms=dict(zip(norms, cols)),
    )
    return RunResult(series=series, final=inverse(SpectrumField(g, c)))


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
    [0, t_final] (the 3/8 rule on the last three panels up to an odd node
    j >= 3, the trapezoid up to node 1).  On uniform nodes its sum S_j at
    node j follows
    from S_{j-2} or S_{j-3} with E(h), E(2h) and E(3h) alone, so a sweep
    is one pass over the nodes, oldest first.  Iterates are compared in the
    sup-in-t L2 norm.  The caller supplies t_final; non-convergence,
    including an iterate that overflows or goes non-finite, raises
    :class:`PicardDivergence`.
    """
    if mu <= 0:
        raise ValueError("picard_solve needs mu > 0 (parabolic regularisation)")
    if t_final <= 0 or n_nodes < 5 or n_nodes % 2 == 0:
        raise ValueError("need t_final > 0 and an odd n_nodes >= 5")
    if max_iter < 1 or not tol > 0:
        raise ValueError("need picard max_iter >= 1 and tol > 0")
    g = phi.grid
    h = t_final / (n_nodes - 1)
    phi_hat = forward(phi).coeffs
    free = [propagator_array(g, j * h, mu) * phi_hat for j in range(n_nodes)]
    e1, e2, e3 = (propagator_array(g, k * h, mu) for k in (1, 2, 3))

    u = list(free)
    residuals: List[float] = []
    # an iterate that overflows, or whose transform does, is the divergence
    # the sweeps detect
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            N, S = [], []  # N_{j-3}..N_j and S_{j-2}..S_j of this sweep
            res = 0.0
            for j in range(n_nodes):
                try:
                    N.append(nonlinear_rhs(SpectrumField(g, u[j])).coeffs)
                except NonFiniteField:
                    raise PicardDivergence(t_final, it, residuals) from None
                if j == 0:
                    s = np.zeros_like(phi_hat)
                elif j == 1:
                    s = 0.5 * h * (e1 * N[-2] + N[-1])
                elif j % 2 == 0:
                    s = e2 * S[-2] + h / 3.0 * (e2 * N[-3] + 4.0 * (e1 * N[-2]) + N[-1])
                else:
                    s = e3 * S[-3] + 3.0 * h / 8.0 * (
                        e3 * N[-4] + 3.0 * (e2 * N[-3]) + 3.0 * (e1 * N[-2]) + N[-1]
                    )
                S.append(s)
                del N[:-3], S[:-3]
                new = free[j] + s
                r = SpectrumField(g, new - u[j]).l2()
                # a NaN node residual must not be lost in the maximum
                if not math.isfinite(r):
                    raise PicardDivergence(t_final, it, residuals)
                res = max(res, r)
                u[j] = new
            residuals.append(res)
            if res < tol:
                return PicardResult(
                    final=inverse(SpectrumField(g, u[-1])),
                    residuals=residuals,
                    iterations=it,
                )
    raise PicardDivergence(t_final, max_iter, residuals)
