"""CLI wall-time benchmark for bozk.

    python3 perfbench/run.py --workload {evolve,record,probe} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/bozk``
and ``configs``).  The benchmark writes the workload's manifests from the
seed, then runs every ``bozk`` invocation of the workload in a fresh
interpreter, one after another (a closed loop with one client), checking
every output.

``--trace 0`` prints the end-to-end metrics: the median wall time of one
pass over the workload (``wall_s``), the median wall time of a fresh
interpreter that imports ``bozk.cli``, loads the manifests and builds the
initial data (``setup_s``), and the median over passes of the largest child
``ru_maxrss`` (``peak_rss_mb``).  ``failed_frac`` is failed / attempted
invocations; the final JSON line carries it as ``failed`` and
``attempted``.

``--trace 1`` prints the per-layer metrics of a traced in-process run (see
``tracer.py``).

Every run writes a result file with its provenance under
``.perfbench_work/results/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, List

import harness
import workloads as wl
from harness import BenchError, Context, Metric

THREAD_VARS = ("BOZK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit(root: Path):
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """sha256 over src/bozk and configs; identifies the code when no commit
    is available (the benchmark may run in a plain source tree)."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "bozk").glob("*.py"), *(root / "configs").glob("*.cfg")]):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cache_sizes() -> Dict[str, int]:
    try:
        res = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in res.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def provenance(ctx: Context) -> dict:
    return {
        "commit": _commit(ctx.root),
        "source_sha256": _source_digest(ctx.root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache_bytes": _cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "pythondontwritebytecode_in_parent": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "program_seed": wl.program_seed(ctx.seed),
    }


def report(ctx: Context, trace: int, metrics: Dict[str, Metric], detail: dict) -> int:
    ledger = ctx.ledger
    correct = ledger.failed == 0
    prov = provenance(ctx)
    results = ctx.root / harness.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{ctx.workload}-seed{ctx.seed}-trace{trace}.json"
    result_path.write_text(json.dumps({
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "detail": detail,
    }, indent=1, default=str) + "\n")

    print(f"perfbench workload={ctx.workload} seed={ctx.seed} trace={trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={n}")
    frac = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'failed_frac':<34} {frac:>14.6g} {'ratio':<6} n={ledger.attempted}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"result file: {result_path.relative_to(ctx.root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bozk" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"perfbench: {root} holds no bozk source tree (src/bozk, configs)", file=sys.stderr)
        return 2
    run_dir = root / harness.WORK_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    manifest_dir = run_dir / "manifests"
    ctx = Context(
        root=root, workload=args.workload, seed=args.seed, seconds=args.seconds,
        run_dir=run_dir, manifest_dir=manifest_dir,
        invocations=wl.build(args.workload, args.seed, root / "configs", manifest_dir),
        env=harness.child_env(root), ledger=wl.OutputLedger(),
    )
    try:
        if args.trace:
            import tracer

            metrics, detail = tracer.measure_layers(ctx)
        else:
            metrics, detail = harness.measure_end_to_end(ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    return report(ctx, args.trace, metrics, detail)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
