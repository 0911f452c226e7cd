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
    """The transform buffer pair of one run: the full-width spectral buffer,
    whose columns past nx//3 are zero between calls of :func:`_rhs_into`,
    and the sample buffer.  The stages of a step and the inverse transform
    and spectral readout of each record run in it."""
    return np.zeros(g.spectral_shape, dtype=np.complex128), np.empty((g.ny, g.nx))


def _floats(block: np.ndarray, start: int, shape: Tuple[int, ...]) -> np.ndarray:
    """A contiguous float64 array of `shape` over the memory of the
    contiguous array `block`, from its float64 slot `start` on."""
    flat = block.reshape(-1).view(np.float64)
    return flat[start : start + math.prod(shape)].reshape(shape)


def _band_shape(g: Grid2D) -> Tuple[int, int]:
    """Shape of a band array, which holds the kept band of the 2/3 mask:
    the rows ``n = 0..ny//3``, then ``n = -ny//3..-1``, of the columns
    ``0..nx//3``."""
    return 2 * (g.ny // 3) + 1, g.nx // 3 + 1


def _advection_row(g: Grid2D) -> np.ndarray:
    """Grid symbol ``-i xi/2`` of -1/2 d_x on the columns of the kept band,
    as one row: the symbol depends on xi alone and the band holds no
    Nyquist line, the only places where ``grid.multiplier_array`` changes
    a value, so every kept row of the masked symbol table equals this row
    bit for bit.  A fresh array on every call, so a caller that scales it
    in place holds the one copy."""
    return -0.5j * g.xi[: _band_shape(g)[1]]


def _band_rows(ny: int) -> Tuple[Tuple[slice, slice], Tuple[slice, slice]]:
    """The two row blocks of the kept band, ``n = 0..ny//3`` and
    ``n = -ny//3..-1``, each as a pair: its rows in a full-height array and
    in a band array, which stacks the two blocks."""
    h = ny // 3
    return (slice(0, h + 1), slice(0, h + 1)), (slice(ny - h, ny), slice(h + 1, 2 * h + 1))


def _scatter(x: np.ndarray, full: np.ndarray) -> None:
    """Write the band array `x` into the kept rows of the full-height
    `full`, and zero the rows between them, which the 2/3 mask drops."""
    (top, xtop), (bottom, xbottom) = _band_rows(full.shape[0])
    full[top] = x[xtop]
    full[top.stop : bottom.start] = 0.0
    full[bottom] = x[xbottom]


def _gather(full: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the kept rows of the full-height `full`, on the columns of
    the band array `out`, into `out`, and return `out`."""
    keep = out.shape[1]
    for rows, band in _band_rows(full.shape[0]):
        out[band] = full[rows, :keep]
    return out


def _rhs_into(
    x: np.ndarray,
    out: np.ndarray,
    table: np.ndarray,
    spec: np.ndarray,
    u: np.ndarray,
    audit: Optional[Callable[[float], None]] = None,
) -> None:
    """Write ``table`` times the transform of u^2 into `out`, on the kept
    band of the 2/3 mask (see :func:`_band_shape`), where `x` holds the
    coefficients of u divided by ``lx ly`` on that band.  `table` is one row,
    :func:`_advection_row` times the output normalisation, so `out` is
    the spectrum of -1/2 d_x(u^2) in the table's units.

    No centring phase is applied on either side: without it the inverse
    passes give the samples of u shifted by half the box, and as u -> u^2
    commutes with that shift, the forward passes return the coefficients
    of u^2 without the phase too.  The samples keep their magnitude, so
    the audit and an overflowing square see the field itself.

    `x` is read before `out` is written, so they may be one array.  `spec`
    and `u` come from :func:`_scratch`: `x` is scattered into the kept
    columns of `spec`, whose y passes run in place, the inverse x pass
    reads all of `spec`, so it pads nothing, and the forward x pass fills
    it, so its tail is zeroed again after.  Non-finite samples, or a
    square that overflows, raise :class:`NonFiniteField`; `audit`, when
    given, sees max|u| of the finite field before it is squared."""
    keep = x.shape[1]
    cols = spec[:, :keep]
    _scatter(x, cols)
    np.fft.ifft(cols, axis=0, norm="forward", out=cols)
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
    np.fft.fft(cols, axis=0, out=cols)
    _gather(cols, out)
    spec[:, keep:] = 0.0
    out *= table


def nonlinear_rhs(F: SpectrumField) -> SpectrumField:
    """Spectrum of -1/2 d_x(u^2), with the 2/3 mask around the square (the
    mask on the output is folded into the kept band).

    Non-finite samples, or a square that overflows, raise
    :class:`NonFiniteField`.  The step kernel runs the same code in its own
    buffers."""
    g = F.grid
    out, u = _scratch(g)  # the transform buffer is the result
    x = _gather(F.coeffs, np.empty(_band_shape(g), dtype=np.complex128))
    x *= 1.0 / (g.lx * g.ly)
    _rhs_into(x, x, _advection_row(g) * g.cell_area, out, u)
    _scatter(x, out[:, : x.shape[1]])
    return SpectrumField(g, out)


class _StepKernel:
    """The IF-RK4 step on plain arrays, with the tables and buffers of one
    run.  Between the transforms, everything runs on the kept band of the
    2/3 mask (see :func:`_band_shape`), on the coefficients divided by
    ``lx ly`` (see :func:`_rhs_into`), so `e_half` holds only that band, and so does
    `stages`, the one block of the four stage buffers; the rhs table is one
    row, :func:`_advection_row` times dt/2 and the 1/(nx ny) that takes
    the unnormalised forward passes back to those units, the run's one copy
    of the symbol.  The state's other modes see only `e_full`, as the stage
    values vanish there.  `scratch` is the run's transform buffer pair,
    built for linear runs too, whose records read through it."""

    def __init__(self, grid: Grid2D, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self.e_full = propagator_array(grid, cfg.dt, cfg.mu)
        if cfg.nonlinear:
            self.table = _advection_row(grid)
            self.table *= 0.5 * cfg.dt / (grid.nx * grid.ny)
            self.e_half = _gather(
                propagator_array(grid, 0.5 * cfg.dt, cfg.mu),
                np.empty(_band_shape(grid), dtype=np.complex128),
            )
            self.stages = np.empty((4, *_band_shape(grid)), dtype=np.complex128)
            self.a, self.k1, self.k2, self.k3 = self.stages
        self.scratch = _scratch(grid)

    def advance(
        self, c: np.ndarray, audit: Optional[Callable[[float], None]] = None
    ) -> np.ndarray:
        """Advance the coefficients `c` by one dt in place and return `c`;
        `audit` sees max|u| of the field stage k1 squares, i.e. of `c` after
        the 2/3 mask.

        The stage values k1..k4 below are dt/2 times those of RK4, divided
        by ``lx ly``.  Each product with a propagator keeps one operand order
        on every grid (complex multiplication is not bitwise commutative
        under FMA); those with `e_full` run on its two row blocks of the
        band.  Every stage buffer is written before it is read, so `stages`
        holds nothing between calls: `run`'s records use its memory for
        their readout."""
        cfg = self.cfg
        if not cfg.nonlinear:
            return np.multiply(self.e_full, c, out=c)
        g, eh, ef = self.grid, self.e_half, self.e_full
        keep = eh.shape[1]
        blocks = _band_rows(g.ny)
        a, k1, k2, k3 = self.a, self.k1, self.k2, self.k3

        def rhs(x: np.ndarray, out: np.ndarray, audit=None) -> None:
            _rhs_into(x, out, self.table, *self.scratch, audit)

        _gather(c, a)
        a *= 1.0 / (g.lx * g.ly)
        rhs(a, k1, audit)
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
        for rows, band in blocks:
            np.multiply(ef[rows, :keep], a[band], out=a[band])
        a += k3
        rhs(a, a)
        # ef c + (ef k1 + 2 eh (k2 + k3) + k4) / 3, back in coefficients
        np.multiply(eh, k2, out=k2)
        k2 *= 2.0
        for rows, band in blocks:
            np.multiply(ef[rows, :keep], k1[band], out=k1[band])
        k1 += k2
        k1 += a
        k1 *= g.lx * g.ly / 3.0
        np.multiply(ef, c, out=c)
        for rows, band in blocks:
            c[rows, :keep] += k1[band]
        return c


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
    the edge ratio and each of `norms` (keyed by its spec).

    The state steps in place, and every transform runs in the kernel's one
    buffer pair, so `final` is the field of the last record, which is
    always the last step's, and shares the pair's sample buffer."""
    g = phi.grid
    # a caller that passes phi as a temporary leaves this frame its only
    # holder (CPython >= 3.11 moves call arguments into the callee's
    # frame), so its samples are freed before the run's tables are built
    c = forward(phi).coeffs
    del phi
    zero0 = c[:, 0].copy()  # u_hat(0, eta, 0), the x-mean transform of phi
    x_mean_vanishes = bool(np.max(np.abs(c[:, 0])) <= X_MEAN_TOL * np.max(np.abs(c)))
    kernel = _StepKernel(g, cfg)
    max_xi = float(np.max(np.abs(g.xi)))
    # final time is n_steps * dt, the closest step multiple to t_final
    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))
    stride = cfg.stride

    norms = list(dict.fromkeys(norms))
    rows = norm_rows(g, norms)  # built once per run, read at every record
    area = g.cell_area
    xmesh = g.xmesh
    # the run's transform buffer pair; once a record's inverse pass is done
    # with the spectral buffer, its memory, read as two contiguous float
    # arrays, holds (Im u_hat)^2 and |u_hat|^2, so no pass over it is
    # strided; a nonlinear run's record then zeroes the tail columns again
    work = kernel.scratch
    isq = _floats(work[0], 0, g.spectral_shape)
    csq = _floats(work[0], isq.size, g.spectral_shape)
    # usq holds x u, then u^2; in a nonlinear run it is a float view of the
    # kernel's stage block, which is idle outside advance (see
    # _StepKernel.advance)
    if cfg.nonlinear:
        usq = _floats(kernel.stages, 0, (g.ny, g.nx))
    else:
        usq = np.empty((g.ny, g.nx))
    keep = _band_shape(g)[1]

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

    def record(c: np.ndarray, t: float, n: int) -> RealField:
        u = inverse(SpectrumField(g, c), work)
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
        if cfg.nonlinear:
            work[0][:, keep:] = 0.0  # the tail that _rhs_into reads as zero
        return u

    # every step audits the state it starts from (stage k1's field), every
    # record the state it reads; a non-finite sample anywhere in the loop is
    # a blow-up, and for one inside a step, t is the time that step started
    # from
    t = 0.0
    n = 0
    try:
        final = record(c, t, n)
        for n in range(1, n_steps + 1):
            kernel.advance(c, functools.partial(audit, t=t, n=n - 1))
            t += cfg.dt
            if n % stride == 0 or n == n_steps:
                final = record(c, t, n)
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
    return RunResult(series=series, final=final)


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
