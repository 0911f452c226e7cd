"""Flat key-value run manifests.

The config format is plain text, one `key = value` per line, dotted keys,
`#` comments.  Lengths accept a trailing `pi` (e.g. `grid.lx = 16pi`).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from .grid import Grid2D, RealField, make_grid
from .solver import SolverConfig
from .weights import WeightSpec
from .fields import FAMILIES
from .io import read_snapshot


class ManifestError(ValueError):
    """Configuration rejected; maps to exit code 2."""


def _float(text: str) -> float:
    """The one float parser of every key: nan and inf are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ManifestError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_length(text: str) -> float:
    t = text.strip().lower()
    if t.endswith("pi"):
        return _float(t[:-2] or "1") * math.pi
    return _float(t)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ManifestError(f"not a boolean: {text!r}")


def _parse_weight(token: str) -> WeightSpec:
    kind, *v = token.strip().split(":")
    n = {"poly": 1, "trunc": 1, "gamma": 1, "damp": 2}.get(kind)
    if n is None:
        raise ManifestError(f"unknown weight kind in {token!r}")
    if len(v) != n:
        raise ManifestError(f"bad weight spec {token!r}: {kind} takes {n} field(s)")
    try:
        if kind == "poly":
            return WeightSpec.polynomial(_float(v[0]))
        if kind == "trunc":
            return WeightSpec.truncated(int(v[0]))
        if kind == "gamma":
            return WeightSpec.gamma_power(_float(v[0]))
        return WeightSpec.damped(_float(v[0]), _float(v[1]))
    except ValueError as exc:
        raise ManifestError(f"bad weight spec {token!r}: {exc}") from exc


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(_float(s) for s in text.split(","))


# manifest key -> (RunManifest attribute, parser), applied in this order.
# "data_params" entries land in that dict under the key's last part.  An
# empty diag list records nothing; an empty uc.r_list is rejected.
_KEYS: Dict[str, Tuple[str, Callable[[str], Any]]] = {
    "grid.nx": ("nx", int),
    "grid.ny": ("ny", int),
    "grid.lx": ("lx", _parse_length),
    "grid.ly": ("ly", _parse_length),
    "data.kind": ("data_kind", str),
    **{
        f"data.{name}": ("data_params", _float)
        for name in ("amplitude", "sigma_x", "sigma_y", "center_x", "center_y",
                     "spectral_width")
    },
    "data.seed": ("data_params", int),
    "data.path": ("data_path", str),
    "solver.dt": ("dt", _float),
    "solver.t_final": ("t_final", _float),
    "solver.mu": ("mu", _float),
    "solver.stride": ("stride", int),
    "solver.nonlinear": ("nonlinear", _parse_bool),
    "diag.hs": ("hs_orders", lambda v: _floats(v) if v else ()),
    "diag.weights": (
        "weights", lambda v: tuple(_parse_weight(t) for t in v.split(",")) if v else ()
    ),
    "uc.t": ("uc_t", _float),
    "uc.levels": ("uc_levels", int),
    "uc.epsilon": ("uc_epsilon", _float),
    "uc.r_list": ("uc_r_list", _floats),
    "uc.s": ("uc_s", _float),
    "uc.doublings": ("uc_doublings", int),
    "picard.t_final": ("picard_t_final", _float),
    "picard.mu": ("picard_mu", _float),
    "picard.max_iter": ("picard_max_iter", int),
    "picard.tol": ("picard_tol", _float),
    "picard.nodes": ("picard_nodes", int),
    "seed": ("seed", int),
}


@dataclass
class RunManifest:
    nx: int = 128
    ny: int = 128
    lx: float = 16 * math.pi
    ly: float = 16 * math.pi
    data_kind: str = "gaussian"
    data_params: Dict[str, float] = field(default_factory=dict)  # data.seed is an int
    data_path: Optional[str] = None
    dt: float = 1e-3
    t_final: float = 0.5
    mu: float = 0.0
    stride: int = 10
    nonlinear: bool = True
    hs_orders: Tuple[float, ...] = ()
    weights: Tuple[WeightSpec, ...] = ()
    uc_t: float = 0.5
    uc_levels: int = 4
    uc_epsilon: float = 0.5
    uc_r_list: Tuple[float, ...] = (1.0, 2.0, 3.0)
    uc_s: float = 6.0
    uc_doublings: int = 0
    picard_t_final: float = 0.05
    picard_mu: float = 0.1
    picard_max_iter: int = 25
    picard_tol: float = 1e-10
    picard_nodes: int = 33
    seed: int = 0

    def grid(self) -> Grid2D:
        try:
            return make_grid(self.nx, self.ny, self.lx, self.ly)
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc

    def solver_config(self) -> SolverConfig:
        try:
            return SolverConfig(
                dt=self.dt,
                t_final=self.t_final,
                mu=self.mu,
                stride=self.stride,
                nonlinear=self.nonlinear,
            )
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc

    def initial_data(self, grid: Grid2D) -> RealField:
        if self.data_kind == "file":
            if not self.data_path:
                raise ManifestError("data.kind = file requires data.path")
            snap = read_snapshot(self.data_path)
            if snap.grid != grid:
                raise ManifestError(
                    "snapshot grid does not match the manifest grid"
                )
            return snap
        family = FAMILIES.get(self.data_kind)
        if family is None:
            raise ManifestError(f"unknown data family {self.data_kind!r}")
        # data.seed wins over seed; keys the family does not take are ignored
        given = {"seed": self.seed, **self.data_params}
        names = inspect.signature(family).parameters
        return family(grid, **{k: v for k, v in given.items() if k in names})


def parse_manifest_text(text: str) -> RunManifest:
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ManifestError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in _KEYS:
            raise ManifestError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value

    m = RunManifest()
    try:
        for key, (attr, parse) in _KEYS.items():
            if key in raw:
                value = parse(raw[key])
                if attr == "data_params":
                    m.data_params[key.split(".", 1)[1]] = value
                else:
                    setattr(m, attr, value)
    except ManifestError:
        raise
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc

    # eager validation so config errors surface before any work
    m.grid()
    m.solver_config()
    return m


def load_manifest(path: str | Path) -> RunManifest:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read config ({exc.strerror})") from None
    return parse_manifest_text(text)
