"""Workload definitions and output checks for the CLI benchmark.

A workload is a list of ``bozk`` invocations.  Each invocation gets a
manifest derived from one of ``configs/*.cfg``: the base file followed by
override lines.  The workload seed changes only the data (amplitudes, the
random field, the program's own ``seed``), never the grid, step count,
record stride or level count, so every seed does the same amount of work.

The checks turn an invocation's exit code and output directory into a list
of failure reasons; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("evolve", "record", "probe")

# criterion 01 of the acceptance suite
L2_DRIFT_MAX = 1e-8
ZERO_MODE_DRIFT_MAX = 1e-12

# criterion 11: files that must be byte-identical across repeats of a seed
REPRODUCIBLE_FILES = ("series.csv", "final.bozk")


@dataclass
class Invocation:
    """One ``bozk <subcommand> --config <manifest>`` call and what it must produce."""

    name: str
    subcommand: str
    settings: Dict[str, str] = field(default_factory=dict)  # effective manifest keys
    expect_verdict: Optional[str] = None           # uc only

    def config(self, manifest_dir: Path) -> Path:
        return manifest_dir / f"{self.name}.cfg"

    def argv(self, manifest_dir: Path, out: Path) -> List[str]:
        return [self.subcommand, "--config", str(self.config(manifest_dir)),
                "--out", str(out), "--quiet"]

    def steps(self) -> int:
        """IF-RK4 steps the invocation takes (simulate, linear and the uc scan)."""
        if self.subcommand not in ("simulate", "linear", "uc"):
            return 0
        dt = float(self.settings["solver.dt"])
        return max(1, int(round(float(self.settings["solver.t_final"]) / dt)))

    def records(self) -> int:
        """Diagnostic records: both endpoints plus every `stride`-th step."""
        n = self.steps()
        if n == 0:
            return 0
        stride = int(self.settings["solver.stride"])
        return n // stride + 1 + (1 if n % stride else 0)


def parse_settings(text: str) -> Dict[str, str]:
    """Effective keys of a flat ``key = value`` manifest (later lines win)."""
    out: Dict[str, str] = {}
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if "=" in body:
            key, value = (s.strip() for s in body.split("=", 1))
            out[key] = value
    return out


def program_seed(seed: int) -> int:
    """The program's seeds must be non-negative; fold the workload seed in."""
    return seed % 2**31


def _amplitude(workload: str, seed: int, name: str, lo: float, hi: float) -> float:
    rng = random.Random(f"{workload}:{name}:{seed}")
    return round(lo + (hi - lo) * rng.random(), 6)


def _spec(workload: str, seed: int) -> List[tuple]:
    """(invocation name, subcommand, base config, overrides, expected verdict)."""
    s = program_seed(seed)
    if workload == "evolve":
        # 256 nonlinear steps at 256^2; records at steps 0, 128 and 256 only
        return [("simulate", "simulate", "simulate", {
            "grid.nx": "256", "grid.ny": "256",
            "data.amplitude": _amplitude(workload, seed, "simulate", 0.5, 1.5),
            "solver.t_final": "0.128", "solver.stride": "128",
            "seed": s,
        }, None)]
    if workload == "record":
        # propagator-only: 1000 steps at 128^2, a record after every step
        return [("linear", "linear", "simulate", {
            "data.kind": "random_smooth", "data.seed": s,
            "data.amplitude": _amplitude(workload, seed, "linear", 0.5, 1.5),
            "solver.nonlinear": "false", "solver.stride": "1",
            "diag.hs": "1,2,3,4",
            "diag.weights": "poly:2,trunc:8,gamma:0.5,damp:0.5:0.1",
            "seed": s,
        }, None)]
    if workload == "probe":
        uc = {"uc.levels": "4", "solver.t_final": "0.1", "solver.stride": "20", "seed": s}
        picard = {"data.amplitude": _amplitude(workload, seed, "picard", 0.2, 0.3), "seed": s}
        return [
            ("uc-gaussian", "uc", "uc", dict(uc, **{
                "data.kind": "gaussian",
                "data.amplitude": _amplitude(workload, seed, "uc-gaussian", 0.5, 1.0),
            }), "obstructed"),
            ("uc-dx_gaussian", "uc", "uc", dict(uc, **{
                "data.kind": "dx_gaussian",
                "data.amplitude": _amplitude(workload, seed, "uc-dx_gaussian", 0.5, 1.0),
            }), "persists"),
            ("verify", "verify", "picard", picard, None),
            ("picard", "picard", "picard", picard, None),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def build(workload: str, seed: int, configs: Path, manifest_dir: Path) -> List[Invocation]:
    """Write the workload's manifests into `manifest_dir` and return its invocations."""
    manifest_dir.mkdir(parents=True, exist_ok=True)
    invocations = []
    for name, sub, base, overrides, verdict in _spec(workload, seed):
        text = (configs / f"{base}.cfg").read_text()
        text += f"\n# benchmark workload {workload}, seed {seed}\n"
        text += "".join(f"{k} = {v}\n" for k, v in overrides.items())
        inv = Invocation(name, sub, parse_settings(text), verdict)
        inv.config(manifest_dir).write_text(text)
        invocations.append(inv)
    return invocations


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def check_output(inv: Invocation, out: Path, exit_code: int) -> List[str]:
    """Failure reasons for one invocation's output; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        summ = _summary(out)
    except (OSError, ValueError) as exc:
        return [f"unreadable summary.json: {exc}"]
    problems = []
    if inv.subcommand in ("simulate", "linear"):
        cons = summ.get("conservation", {})
        l2 = cons.get("l2_drift", math.inf)
        zm = cons.get("zero_mode_drift", math.inf)
        if not l2 < L2_DRIFT_MAX:
            problems.append(f"l2_drift {l2} >= {L2_DRIFT_MAX}")
        if not zm < ZERO_MODE_DRIFT_MAX:
            problems.append(f"zero_mode_drift {zm} >= {ZERO_MODE_DRIFT_MAX}")
        if summ.get("records") != inv.records():
            problems.append(f"records {summ.get('records')} != {inv.records()}")
    elif inv.subcommand == "uc":
        if summ.get("b1_verdict") != inv.expect_verdict:
            problems.append(f"uc verdict {summ.get('b1_verdict')!r} != {inv.expect_verdict!r}")
    elif inv.subcommand == "verify":
        if summ.get("failures") != 0 or not summ.get("checks"):
            problems.append(f"verify failures {summ.get('failures')} of {summ.get('checks')}")
    elif inv.subcommand == "picard":
        tol = float(inv.settings["picard.tol"])
        res = summ.get("final_residual", math.inf)
        if not res < tol:
            problems.append(f"picard final_residual {res} >= picard.tol {tol}")
    return problems


def file_digests(out: Path) -> Dict[str, str]:
    """sha256 of the criterion-11 files present in an output directory."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in REPRODUCIBLE_FILES
        if (out / name).exists()
    }


class OutputLedger:
    """Checks every invocation of a run and counts failures.

    The first output of an invocation fixes its criterion-11 digests; every
    later repeat of the same seed must reproduce them byte for byte.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self._digests: Dict[str, Dict[str, str]] = {}

    def record(self, inv: Invocation, out: Path, exit_code: int) -> bool:
        problems = check_output(inv, out, exit_code)
        if exit_code == 0:
            digests = file_digests(out)
            first = self._digests.setdefault(inv.name, digests)
            for name, digest in digests.items():
                if first.get(name) != digest:
                    problems.append(f"{name} differs from the first repeat (criterion 11)")
        self.attempted += 1
        if problems:
            self.failures.append(f"{inv.name} [{out}]: " + "; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)
