"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench -q

They show that a doctored output is counted as failed, that the metric names
agree with BENCHMARK.json, and that the benchmark refuses to run without a
source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]


def _context(tmp_path: Path, workload: str, seed: int = 7) -> harness.Context:
    manifests = tmp_path / "manifests"
    return harness.Context(
        root=ROOT, workload=workload, seed=seed, seconds=1, run_dir=tmp_path,
        manifest_dir=manifests,
        invocations=wl.build(workload, seed, ROOT / "configs", manifests),
        env=harness.child_env(ROOT), ledger=wl.OutputLedger(),
    )


def _run(ctx: harness.Context, name: str, tmp_path: Path) -> tuple:
    inv = next(i for i in ctx.invocations if i.name == name)
    out = tmp_path / "out" / name
    res = harness.run_child(harness.bozk_argv(inv.argv(ctx.manifest_dir, out)), ctx,
                            tmp_path / f"{name}.log")
    return inv, out, res.exit_code


def _doctor(out: Path, **changes) -> None:
    summary = json.loads((out / "summary.json").read_text())
    summary.update(changes)
    (out / "summary.json").write_text(json.dumps(summary))


def test_doctored_probe_outputs_count_as_failed(tmp_path):
    ctx = _context(tmp_path, "probe")
    picard, p_out, p_code = _run(ctx, "picard", tmp_path)
    uc, u_out, u_code = _run(ctx, "uc-dx_gaussian", tmp_path)
    assert ctx.ledger.record(picard, p_out, p_code)
    assert ctx.ledger.record(uc, u_out, u_code)

    _doctor(p_out, final_residual=1e-3)
    _doctor(u_out, b1_verdict="obstructed")
    assert not ctx.ledger.record(picard, p_out, p_code)
    assert not ctx.ledger.record(uc, u_out, u_code)
    assert not ctx.ledger.record(picard, p_out, 3)
    assert (ctx.ledger.attempted, ctx.ledger.failed) == (5, 3)


def test_doctored_series_counts_as_failed(tmp_path):
    ctx = _context(tmp_path, "record")
    inv = ctx.invocations[0]
    out = tmp_path / "fake"
    out.mkdir()
    rows = "t,l2\n0,1\n"
    (out / "series.csv").write_text(rows)
    (out / "summary.json").write_text(json.dumps({
        "records": inv.records(),
        "conservation": {"l2_drift": 1e-15, "zero_mode_drift": 0.0},
    }))
    assert ctx.ledger.record(inv, out, 0)
    (out / "series.csv").write_text(rows.replace("0,1", "0,1.0000000000000002"))
    assert not ctx.ledger.record(inv, out, 0)  # criterion 11: repeat differs
    _doctor(out, conservation={"l2_drift": 1e-7, "zero_mode_drift": 0.0})
    (out / "series.csv").write_text(rows)
    assert not ctx.ledger.record(inv, out, 0)  # criterion 01: drift too large
    assert ctx.ledger.failed == 2


def test_benchmark_json_names_what_the_benchmark_emits():
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "setup_s", "peak_rss_mb"}
    layers = {m["name"] for m in spec["per_layer"]}
    emitted = set(tracer.layer_metrics(tracer.SpanIndex([])))
    emitted |= {"cli.import_s", "manifest.load_s", "cli.cpu_s", "trace.overhead_s"}
    emitted |= {f"{k}.{n}" for n, _, _ in tracer.SWEEP_SIZES
                for k in ("grid.forward_ms", "grid.inverse_ms",
                          "solver.nonlinear_rhs_ms", "solver.step_ms")}
    assert layers == emitted
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
