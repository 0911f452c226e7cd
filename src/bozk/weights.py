"""Spatial weight families and the A2 interval statistic.

Four families, all nonnegative functions of (x, y):

* ``truncated(N)``   -- radial, equals <rho> = (1+rho^2)^(1/2) for rho <= N and
  the constant 2N for rho >= 3N, with a quintic blend on [N, 3N] audited at
  construction for monotonicity and slope <= 1.
* ``polynomial(r)``  -- <x,y>^r = (1+x^2+y^2)^(r/2).
* ``gamma_power(g)`` -- the same with exponent g restricted to [0, 1] (smooth
  bounded-derivative regime).
* ``damped(g, lam)`` -- (1+x^2+y^2)^(g/2) * exp(-lam*(x^2+y^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

_SLOPE_TOL = 1e-9


@dataclass(frozen=True)
class BetaAudit:
    """Construction-time measurements of one truncated profile."""

    min_slope: float
    max_slope: float


def _angle_bracket(x: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + x * x)


def _horner(c: np.ndarray, x):
    """sum c_k x^k by Horner's rule, lowest coefficient first; the same
    operations, so the same bits, as numpy.polynomial's polyval."""
    y = c[-1] + x * 0.0
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


def _deriv(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of sum c_k x^k."""
    return c[1:] * np.arange(1, len(c))


def _blend_quintic(v0: float, d0: float, s0: float, w: float) -> np.ndarray:
    # p(0), p'(0), p''(0) give c0..c2.  The rest, q = c3 t^3 + c4 t^4 + c5 t^5,
    # must meet q(1) = dl, q'(1) = D and q''(1) = E so that p(1) = w and
    # p'(1) = p''(1) = 0; that 3x3 system inverts in closed form.
    c0, c1, c2 = v0, w * d0, 0.5 * w * w * s0
    dl = w - (c0 + c1 + c2)
    D = -(c1 + 2.0 * c2)
    E = -2.0 * c2
    return np.array([
        c0, c1, c2,
        10.0 * dl - 4.0 * D + 0.5 * E,
        -15.0 * dl + 7.0 * D - E,
        6.0 * dl - 3.0 * D + 0.5 * E,
    ])


def _blend_monotone(v0: float, d0: float, s0: float, w: float) -> np.ndarray:
    # Fallback used when the quintic dips: integrate the explicitly
    # nonnegative slope profile sigma(tau) = (a + b*tau + c*tau^2 + d*tau^3)
    # * (1 - tau)^2 with sigma(0), sigma'(0) and the total rise matched and
    # the cubic factor vanishing at tau = 1.  Same C^2 end contact, degree 6.
    a = w * d0
    b = w * w * s0 + 2.0 * a
    rise = w - v0
    c = 60.0 * rise - 19.0 * a - 4.0 * b
    d = -a - b - c
    sigma = np.convolve([a, b, c, d], [1.0, -2.0, 1.0])
    return np.concatenate(([v0], sigma / np.arange(1, len(sigma) + 1)))


@lru_cache(maxsize=None)
def _beta_poly(n: int) -> Tuple[np.ndarray, BetaAudit]:
    """Blend on [N, 3N] in the scaled variable tau = (x - N) / (2N), as its
    coefficients in tau, lowest first.

    End conditions: value/slope/curvature of <x> at x = N, value 2N with zero
    slope and curvature at x = 3N.  A quintic Hermite fit is tried first; if
    the dense audit finds its slope outside [0, 1] (which happens only for
    N = 1) a guaranteed-monotone degree-6 profile replaces it.
    """
    if n < 1:
        raise ValueError("truncated weight needs N >= 1")
    w = 2.0 * n
    v0 = math.hypot(1.0, n)
    d0 = n / v0
    s0 = (1.0 + n * n) ** -1.5

    tau = np.linspace(0.0, 1.0, 4001)
    poly = None
    lo = hi = 0.0
    for candidate in (_blend_quintic(v0, d0, s0, w), _blend_monotone(v0, d0, s0, w)):
        slope = _horner(_deriv(candidate), tau) / w
        lo, hi = float(slope.min()), float(slope.max())
        if lo >= -_SLOPE_TOL and hi <= 1.0 + _SLOPE_TOL:
            poly = candidate
            break
    if poly is None:
        raise AssertionError(
            f"beta blend audit failed for N={n}: slope range [{lo:.3e}, {hi:.3e}]"
        )
    return poly, BetaAudit(min_slope=lo, max_slope=hi)


def beta_audit(n: int) -> BetaAudit:
    return _beta_poly(n)[1]


def beta(n: int, x) -> np.ndarray | float:
    """Truncated radial profile: <x> inside |x| <= N, constant 2N past 3N."""
    poly, _ = _beta_poly(n)
    ax = np.abs(np.asarray(x, dtype=np.float64))
    scalar = ax.ndim == 0
    ax = np.atleast_1d(ax)
    out = np.where(ax <= n, _angle_bracket(ax), 2.0 * n)
    band = (ax > n) & (ax < 3.0 * n)
    if np.any(band):
        out[band] = _horner(poly, (ax[band] - n) / (2.0 * n))
    return float(out[0]) if scalar else out


def short_repr(v: float) -> str:
    """``f"{v:g}"`` when it reads back as v, else ``repr(v)``: a short
    label that still tells apart two orders that differ past six digits."""
    s = f"{v:g}"
    return s if float(s) == v else repr(float(v))


@dataclass(frozen=True)
class WeightSpec:
    kind: str
    n: Optional[int] = None
    r: Optional[float] = None
    gamma: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind == "truncated":
            if self.n is None or self.n < 1:
                raise ValueError("truncated weight needs integer N >= 1")
        elif self.kind == "polynomial":
            if self.r is None or self.r < 0:
                raise ValueError("polynomial weight needs r >= 0")
        elif self.kind == "gamma_power":
            if self.gamma is None or not 0.0 <= self.gamma <= 1.0:
                raise ValueError("gamma_power weight needs gamma in [0, 1]")
        elif self.kind == "damped":
            if self.gamma is None or not 0.0 <= self.gamma <= 1.0:
                raise ValueError("damped weight needs gamma in [0, 1]")
            if self.lam is None or not 0.0 < self.lam < 1.0:
                raise ValueError("damped weight needs lambda in (0, 1)")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def truncated(cls, n: int) -> "WeightSpec":
        return cls(kind="truncated", n=int(n))

    @classmethod
    def polynomial(cls, r: float) -> "WeightSpec":
        return cls(kind="polynomial", r=float(r))

    @classmethod
    def gamma_power(cls, gamma: float) -> "WeightSpec":
        return cls(kind="gamma_power", gamma=float(gamma))

    @classmethod
    def damped(cls, gamma: float, lam: float) -> "WeightSpec":
        return cls(kind="damped", gamma=float(gamma), lam=float(lam))

    def label(self) -> str:
        if self.kind == "truncated":
            return f"trunc{self.n}"
        if self.kind == "polynomial":
            return f"poly{short_repr(self.r)}"
        if self.kind == "gamma_power":
            return f"gamma{short_repr(self.gamma)}"
        return f"damp{short_repr(self.gamma)}_{short_repr(self.lam)}"

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        rho2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        if self.kind == "truncated":
            return np.asarray(beta(self.n, np.sqrt(rho2)))
        if self.kind == "polynomial":
            return (1.0 + rho2) ** (self.r / 2.0)
        if self.kind == "gamma_power":
            return (1.0 + rho2) ** (self.gamma / 2.0)
        return (1.0 + rho2) ** (self.gamma / 2.0) * np.exp(-self.lam * rho2)


def _abs_power_integral(e: float, a: float, b: float) -> float:
    """int_a^b |x|^e dx by exact antiderivative; inf when it diverges."""
    touches_zero = a <= 0.0 <= b
    if e <= -1.0 and touches_zero:
        return math.inf

    def anti(x: float) -> float:
        return math.copysign(abs(x) ** (e + 1.0) / (e + 1.0), x)

    if e == -1.0:
        # away from zero by the divergence check above
        return abs(math.log(abs(b) / abs(a)))
    return anti(b) - anti(a)


def a2_statistic(alpha: float, interval: Tuple[float, float]) -> float:
    """(mean of |x|^alpha) * (mean of |x|^-alpha) over the interval.

    Finite for every interval exactly when alpha lies in (-1, 1); returns
    ``math.inf`` when either factor diverges (an interval through the origin
    with |alpha| >= 1).  Uses closed-form antiderivatives so the dichotomy is
    exact rather than resolution-dependent.
    """
    a, b = interval
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    length = b - a
    i_plus = _abs_power_integral(alpha, a, b)
    i_minus = _abs_power_integral(-alpha, a, b)
    if math.isinf(i_plus) or math.isinf(i_minus):
        return math.inf
    return (i_plus / length) * (i_minus / length)
