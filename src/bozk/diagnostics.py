"""Norms, conservation reports, and numeric ratio checks for the a-priori
inequalities the solver's analysis rests on.

Each inequality check returns the ratio LHS / RHS-without-constant.  No
specific constants are asserted here: the ratios obey exact scaling
invariances (tested to roundoff) and recorded regression ceilings (stored
with the test suite), never a theoretical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import RealField, apply_multiplier, forward, inverse, require_same_grid
from .operators import NormSpec, fractional_op, hilbert_x, norm_rows, read_norms
from .solver import TimeSeries
from .weights import WeightSpec


def norm(u: RealField, spec: NormSpec) -> float:
    """Evaluate one norm from its rows, as `run` reads its records: the
    Fourier part by Parseval (exact on the grid), the spatial part as a sum
    on the periodic grid; a part the spec lacks is not computed."""
    rows = norm_rows(u.grid, [spec])
    c = forward(u).coeffs if len(rows.fourier) else None
    power = None if c is None else np.square(c.real) + np.square(c.imag)
    square = np.square(u.samples) if len(rows.spatial) else None
    return float(read_norms(rows, power, square)[0])


@dataclass(frozen=True)
class ConservationReport:
    l2_drift: float          # max relative drift of ||u||
    zero_mode_drift: float   # max over (t, eta) of |u_hat(0,eta,t) - u_hat(0,eta,0)|
    # max |M_x(t) - M_x(0) - t moment_rate| / ((T/2)||phi||^2); None unless
    # the x-mean transform of phi vanishes (TimeSeries.x_mean_vanishes)
    moment_residual: Optional[float]


def conservation_report(ts: TimeSeries) -> ConservationReport:
    """Drift of the invariants of the mu = 0 flow against the t = 0 record.

    The moment law is measured only for data whose x-mean transform
    vanishes.  Otherwise the solution grows algebraic x-tails (the sgn(xi)
    term at xi = 0) that reach the box edge, where the non-periodic weight x
    jumps, so the box moment follows neither law and `moment_residual` is
    None."""
    if ts.mu != 0.0:
        raise ValueError(
            "conservation_report applies to mu = 0 series only; dissipative "
            "runs obey a different contract"
        )
    base = ts.l2[0]
    l2_drift = float(np.max(np.abs(ts.l2 - base)) / base) if base > 0 else 0.0
    zm = float(np.max(ts.zero_mode_drift))
    scale = 0.5 * ts.t[-1] * ts.phi_l2**2
    if not ts.x_mean_vanishes:
        moment = None
    elif scale > 0:
        resid = np.abs(ts.moment_x - ts.moment_x[0] - ts.t * ts.moment_rate())
        moment = float(np.max(resid) / scale)
    else:
        moment = 0.0
    return ConservationReport(l2_drift=l2_drift, zero_mode_drift=zm, moment_residual=moment)


# ---------------------------------------------------------------------------
# inequality ratio checks
# ---------------------------------------------------------------------------


def _dx_power(u: RealField, order: int) -> RealField:
    return inverse(apply_multiplier(forward(u), lambda xi, eta: (1j * xi) ** order))


def interpolation_ratio(
    f: RealField,
    a: float,
    b: float,
    alpha: float,
    weight: Optional[WeightSpec] = None,
) -> float:
    """||J^(alpha a) (w^((1-alpha) b) f)|| / (||w^b f||^(1-alpha) ||J^a f||^alpha).

    `weight` supplies the base w(x, y): the default is <x,y>; pass a
    truncated spec for the w_N variant (whose ratios stay bounded uniformly
    in N).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("interpolation exponent alpha must lie in (0, 1)")
    g = f.grid
    base = (weight or WeightSpec.polynomial(1.0)).evaluate(g.xmesh, g.ymesh)
    lhs = fractional_op(
        RealField(g, base ** ((1.0 - alpha) * b) * f.samples), "J", alpha * a
    ).l2()
    wbf = f.l2(base ** (2.0 * b))
    jaf = fractional_op(f, "J", a).l2()
    denom = wbf ** (1.0 - alpha) * jaf**alpha
    if denom == 0.0:
        raise ValueError("zero denominator in interpolation ratio")
    return lhs / denom


def commutator_ratio(a_field: RealField, f: RealField, l: int, m: int) -> float:
    """||d_x^l [H; a] d_x^m f|| / (||d_x^(l+m) a||_inf ||f||).

    The commutator is composed explicitly in physical space (multiply,
    transform, multiply); no symbol calculus is assumed.
    """
    if l < 0 or m < 0 or not 1 <= l + m <= 3:
        raise ValueError("commutator orders need l, m >= 0 and 1 <= l+m <= 3")
    require_same_grid(a_field, f)
    g = f.grid
    dmf = _dx_power(f, m)
    inner = RealField(g, a_field.samples * dmf.samples)
    term1 = hilbert_x(inner)
    term2 = RealField(g, a_field.samples * hilbert_x(dmf).samples)
    lhs = _dx_power(RealField(g, term1.samples - term2.samples), l).l2()
    sup = float(np.max(np.abs(_dx_power(a_field, l + m).samples)))
    denom = sup * f.l2()
    if denom == 0.0:
        raise ValueError("zero denominator in commutator ratio")
    return lhs / denom


def algebra_ratio(u: RealField, v: RealField, s1: float, s2: float) -> float:
    """||uv||_{s1,s2} / (||u||_{s1,s2} ||v||_{s1,s2})."""
    require_same_grid(u, v)
    spec = NormSpec.aniso(s1, s2)
    denom = norm(u, spec) * norm(v, spec)
    if denom == 0.0:
        raise ValueError("zero denominator in algebra ratio")
    uv = RealField(u.grid, u.samples * v.samples)
    return norm(uv, spec) / denom


def trilinear_ratio(u: RealField, s1: float, s2: float) -> float:
    """|(u, u u_x)_{s1,s2}| / ||u||_{s1,s2}^3 for the anisotropic pairing,
    summed by Parseval on the Fourier row of the H^{s1,s2} norm."""
    if not (s2 > 2.0 and s1 >= s2):
        raise ValueError("trilinear check needs s2 > 2 and s1 >= s2")
    g = u.grid
    spec = NormSpec.aniso(s1, s2)
    U = forward(u).coeffs
    W = forward(RealField(g, u.samples * _dx_power(u, 1).samples)).coeffs
    lhs = abs(float(np.sum(norm_rows(g, [spec]).fourier[0] * (U.conj() * W).real)))
    denom = norm(u, spec) ** 3
    if denom == 0.0:
        raise ValueError("zero denominator in trilinear ratio")
    return lhs / denom


def half_derivative_commutator_ratio(phi: RealField, f: RealField) -> float:
    """||[D_x^(1/2); phi] f|| / (||phi||_{H^2} ||f||), the half-derivative
    analogue of the commutator check."""
    require_same_grid(phi, f)
    g = phi.grid
    dprod = fractional_op(RealField(g, phi.samples * f.samples), "D_x", 0.5).samples
    lhs = RealField(g, dprod - phi.samples * fractional_op(f, "D_x", 0.5).samples).l2()
    denom = norm(phi, NormSpec.hs(2.0)) * f.l2()
    if denom == 0.0:
        raise ValueError("zero denominator in half-derivative commutator ratio")
    return lhs / denom
