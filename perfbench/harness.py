"""Process-level harness: fresh-interpreter invocations, set-up probes and
the timed passes of the end-to-end measurement."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import workloads as wl

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"  # under the checkout root; holds every run's files
# the `bozk` console script, spelled out so no installed copy is picked up
ENTRY = "import sys; sys.argv[0] = 'bozk'; from bozk.cli import main; main()"
SETUP_SAMPLES = 5

Metric = Tuple[float, str, int]  # value, unit, sample count


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed program output)."""


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    maxrss_kb: int
    cpu_s: float


@dataclass
class Context:
    root: Path
    workload: str
    seed: int
    seconds: int
    run_dir: Path
    manifest_dir: Path
    invocations: List[wl.Invocation]
    env: Dict[str, str]
    ledger: wl.OutputLedger


def child_env(root: Path) -> Dict[str, str]:
    """Environment of every child: this checkout's sources first, and bytecode
    caches allowed, since users do not recompile on every run."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: List[str], ctx: Context, log: Path) -> ChildResult:
    """Run one child to completion; its resource usage comes from wait4."""
    log.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=ctx.env, cwd=ctx.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return ChildResult(proc.returncode, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


def bozk_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-c", ENTRY, *args]


def warm_up(ctx: Context) -> None:
    """One untimed invocation so the bytecode caches of every module exist."""
    out = ctx.run_dir / "warmup"
    config = str(ctx.invocations[0].config(ctx.manifest_dir))
    res = run_child(bozk_argv(["diagnose", "--config", config, "--out", str(out), "--quiet"]),
                    ctx, out / "diagnose.log")
    if res.exit_code != 0:
        raise BenchError(f"warm-up `bozk diagnose` exited {res.exit_code}; see {out}")


def setup_probe(ctx: Context, index: int) -> dict:
    """Time one fresh set-up interpreter: the child's own split plus the
    parent-side wall time, start-up included."""
    paths = [str(inv.config(ctx.manifest_dir)) for inv in ctx.invocations]
    log = ctx.run_dir / "setup" / f"{index}.log"
    res = run_child([sys.executable, str(HERE / "setup_child.py"), *paths], ctx, log)
    if res.exit_code != 0:
        raise BenchError(f"set-up probe exited {res.exit_code}; see {log}")
    split = json.loads(log.read_text().strip().splitlines()[-1])
    return dict(split, wall_s=res.wall_s)


def subprocess_pass(ctx: Context, tag: str) -> dict:
    """One pass over the workload, each invocation in a fresh interpreter.
    Outputs are checked after the timed region."""
    base = ctx.run_dir / "out" / tag
    done = []
    t0 = time.perf_counter()
    for inv in ctx.invocations:
        out = base / inv.name
        res = run_child(bozk_argv(inv.argv(ctx.manifest_dir, out)), ctx, base / f"{inv.name}.log")
        done.append((inv, out, res))
    wall = time.perf_counter() - t0
    ok = all([ctx.ledger.record(inv, out, res.exit_code) for inv, out, res in done])
    if ok:
        shutil.rmtree(base)
    return {
        "wall_s": wall,
        "peak_rss_kb": max(res.maxrss_kb for _, _, res in done),
        "cpu_s": sum(res.cpu_s for _, _, res in done),
        "invocations": {inv.name: res.wall_s for inv, _, res in done},
    }


def measure_end_to_end(ctx: Context) -> Tuple[Dict[str, Metric], dict]:
    """Alternate set-up probes and passes for `ctx.seconds`, so both medians
    sample the same stretch of machine time; this shared 2-core host drifts
    by 20-30% over tens of seconds."""
    warm_up(ctx)
    setup: List[dict] = []
    passes: List[dict] = []
    t0 = time.perf_counter()
    # start another cycle only if it is expected to finish inside the budget
    while not passes or (
        time.perf_counter() - t0
        + statistics.median(s["wall_s"] for s in setup)
        + statistics.median(p["wall_s"] for p in passes)
        <= ctx.seconds
    ):
        setup.append(setup_probe(ctx, len(setup)))
        passes.append(subprocess_pass(ctx, f"pass{len(passes)}"))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe(ctx, len(setup)))
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_kb"] / 1024.0 for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(s["wall_s"] for s in setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    return metrics, {"passes": passes, "setup": setup}
