"""Norms, conservation reports, and numeric ratio checks for the a-priori
inequalities the solver's analysis rests on.

Each inequality check returns the ratio LHS / RHS-without-constant.  No
specific constants are asserted here: the ratios obey exact scaling
invariances (tested to roundoff) and recorded regression ceilings (stored
with the test suite), never a theoretical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import RealField, apply_multiplier, forward, inverse, require_same_grid
from .operators import fractional_op, hilbert_x, sobolev_weight
from .solver import TimeSeries
from .weights import WeightSpec, weight_field


@dataclass(frozen=True)
class NormSpec:
    kind: str
    s: Optional[float] = None
    s1: Optional[float] = None
    s2: Optional[float] = None
    r: Optional[float] = None
    weight: Optional[WeightSpec] = None

    @classmethod
    def hs(cls, s: float) -> "NormSpec":
        return cls(kind="hs", s=float(s))

    @classmethod
    def aniso(cls, s1: float, s2: float) -> "NormSpec":
        return cls(kind="aniso", s1=float(s1), s2=float(s2))

    @classmethod
    def l2r(cls, r: float) -> "NormSpec":
        if r < 0:
            raise ValueError("spatial decay order r must be >= 0")
        return cls(kind="l2r", r=float(r))

    @classmethod
    def zsr(cls, s: float, r: float) -> "NormSpec":
        if r < 0:
            raise ValueError("spatial decay order r must be >= 0")
        return cls(kind="zsr", s=float(s), r=float(r))

    @classmethod
    def l2w(cls, weight: WeightSpec) -> "NormSpec":
        return cls(kind="l2w", weight=weight)

    def label(self) -> str:
        if self.kind == "hs":
            return f"hs_{self.s:g}"
        if self.kind == "aniso":
            return f"aniso_{self.s1:g}_{self.s2:g}"
        if self.kind == "l2r":
            return f"l2r_{self.r:g}"
        if self.kind == "zsr":
            return f"zsr_{self.s:g}_{self.r:g}"
        return f"l2w_{self.weight.label()}"


def norm(u: RealField, spec: NormSpec) -> float:
    """Evaluate one norm.  Fourier-multiplier parts act spectrally (exact on
    the grid); weighted parts integrate in physical space on the periodic
    grid."""
    g = u.grid
    if spec.kind == "hs":
        return forward(u).l2(sobolev_weight(g, "J", spec.s))
    if spec.kind == "aniso":
        F = forward(u)
        a = F.l2()
        b = F.l2(sobolev_weight(g, "J_x", spec.s1))
        c = F.l2(sobolev_weight(g, "J_y", spec.s2))
        return math.sqrt(a * a + b * b + c * c)
    if spec.kind == "l2r":
        return u.l2((1.0 + g.xmesh**2 + g.ymesh**2) ** spec.r)
    if spec.kind == "zsr":
        a = norm(u, NormSpec.hs(spec.s))
        b = norm(u, NormSpec.l2r(spec.r))
        return math.sqrt(a * a + b * b)
    if spec.kind == "l2w":
        return u.l2(weight_field(g, spec.weight).samples ** 2)
    raise ValueError(f"unknown norm kind {spec.kind!r}")


@dataclass(frozen=True)
class ConservationReport:
    l2_drift: float          # max relative drift of ||u||
    zero_mode_drift: float   # max over (t, eta) of |u_hat(0,eta,t) - u_hat(0,eta,0)|
    moment_residual: float   # max |M_x(t) - M_x(0) - (t/2)||phi||^2| / ((T/2)||phi||^2)


def conservation_report(ts: TimeSeries) -> ConservationReport:
    """Drift of the invariants of the mu = 0 flow against the t = 0 record."""
    if ts.mu != 0.0:
        raise ValueError(
            "conservation_report applies to mu = 0 series only; dissipative "
            "runs obey a different contract"
        )
    base = ts.l2[0]
    l2_drift = float(np.max(np.abs(ts.l2 - base)) / base) if base > 0 else 0.0
    zm = float(np.max(ts.zero_mode_drift()))
    pred = 0.5 * ts.phi_l2**2
    horizon = ts.t[-1]
    if pred > 0 and horizon > 0:
        resid = np.abs(ts.moment_x - ts.moment_x[0] - 0.5 * ts.t * ts.phi_l2**2)
        moment = float(np.max(resid) / (0.5 * horizon * ts.phi_l2**2))
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
    """|(u, u u_x)_{s1,s2}| / ||u||_{s1,s2}^3 for the anisotropic pairing."""
    if not (s2 > 2.0 and s1 >= s2):
        raise ValueError("trilinear check needs s2 > 2 and s1 >= s2")
    g = u.grid
    area = g.cell_area
    ux = _dx_power(u, 1)
    uux = RealField(g, u.samples * ux.samples)

    def pair(fa: RealField, fb: RealField) -> float:
        return float(np.sum(fa.samples * fb.samples) * area)

    jint = pair(u, uux)
    jx_u = fractional_op(u, "J_x", s1)
    jx_w = fractional_op(uux, "J_x", s1)
    jy_u = fractional_op(u, "J_y", s2)
    jy_w = fractional_op(uux, "J_y", s2)
    lhs = abs(jint + pair(jx_u, jx_w) + pair(jy_u, jy_w))
    denom = norm(u, NormSpec.aniso(s1, s2)) ** 3
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
