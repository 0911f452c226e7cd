"""Traced in-process run: per-layer spans and counts, plus a kernel sweep.

The tracer edits nothing under ``src/``.  It wraps the public functions each
layer exposes, rebinding every name that refers to an original function in
every ``bozk`` module (``forward`` is bound in ``grid``, ``solver``, ``uc``,
``diagnostics``, ``fields``, ``operators`` and the package itself), and
checks that no unwrapped binding is left.  Two hooks reach past the public
surface because ``solver.run`` inlines its loop: the IF-RK4 step method
``_StepKernel.advance`` is wrapped on its class, and the per-record closure
inside ``run`` is recognised by its code object when it calls the wrapped
``inverse`` (see ``Tracer._open``).  No ``sys.settrace`` hook is used: it
puts the interpreter in tracing mode and slowed the 256^2 stepper by ~9%.

A span is ``[name, start, end, parent, invocation, thread, note]``.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the durations of its child spans.  Spans opened on
the ``verify`` pool's worker threads have no parent; the invocation id ties
them to the ``verify`` call that started them.

One traced run is: the warm-up, three set-up probes (``cli.import_s``,
``manifest.load_s``), one subprocess pass (``cli.cpu_s``), then three
in-process passes through ``bozk.cli.execute`` (an untimed warm-up, one
untraced, one traced; ``trace.overhead_s`` is traced minus untraced wall
time), and last an isolated kernel sweep at 128^2, 256^2 and 512^2 with
tracing off.  Layer metrics come from the traced pass.  The amount of work
is fixed; it does not depend on ``--seconds``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import harness
from harness import BenchError, Context, Metric

SETUP_SAMPLES = 3
SWEEP_SIZES = ((128, 20, 12), (256, 5, 6), (512, 1, 3))  # N, calls per sample, steps
SWEEP_SAMPLES = 3

RATIO_FUNCTIONS = ("interpolation_ratio", "commutator_ratio", "algebra_ratio",
                   "trilinear_ratio", "half_derivative_commutator_ratio")
IO_WRITERS = ("write_csv", "write_snapshot", "write_json")


def _nbytes_forward(args, kwargs, result):
    return {"bytes": args[0].samples.nbytes + result.coeffs.nbytes}


def _nbytes_inverse(args, kwargs, result):
    return {"bytes": args[0].coeffs.nbytes + result.samples.nbytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _picard_note(signature):
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"n_nodes": bound.arguments["n_nodes"], "iterations": result.iterations}
    return note


# (module, attribute, span name, note function or None); attributes with a dot
# are methods on a class of that module
def _hooks(bozk) -> List[tuple]:
    hooks = [
        ("grid", "forward", "grid.forward", _nbytes_forward),
        ("grid", "inverse", "grid.inverse", _nbytes_inverse),
        ("operators", "propagator_array", "operators.propagator_array", None),
        ("solver", "run", "solver.run",
         lambda a, k, r: {"records": len(r.series.t)}),
        ("solver", "nonlinear_rhs", "solver.nonlinear_rhs", None),
        ("solver", "picard_solve", "solver.picard_solve",
         _picard_note(inspect.signature(bozk.solver.picard_solve))),
        ("solver", "_StepKernel.advance", "solver.step", None),
        ("stein", "stein_derivative", "stein.stein_derivative",
         lambda a, k, r: {"points": int(r.values.size)}),
        ("uc", "b1_indicator", "uc.b1_indicator",
         lambda a, k, r: {"levels": len(r.levels)}),
        ("uc", "persistence_scan", "uc.persistence_scan", None),
        ("diagnostics", "norm", "diagnostics.norm", None),
    ]
    hooks += [("diagnostics", f, f"diagnostics.{f}", None) for f in RATIO_FUNCTIONS]
    hooks += [("io", f, f"io.{f}", _file_bytes) for f in IO_WRITERS]
    return hooks


class TraceCoverageError(BenchError):
    """The trace does not cover what it claims to (a hook missed or a count disagrees)."""


class Tracer:
    def __init__(self, bozk) -> None:
        self.bozk = bozk
        self.spans: List[list] = []
        self.invocation = None
        self._local = threading.local()
        self._restore: List[tuple] = []
        self.record_code = next(
            (c for c in bozk.solver.run.__code__.co_consts
             if isinstance(c, types.CodeType) and c.co_name == "record"),
            None,
        )
        if self.record_code is None:
            raise TraceCoverageError("no `record` closure inside bozk.solver.run")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.invocation,
                threading.get_ident(), None]
        stack.append(span)
        span[1] = time.perf_counter()
        return span

    def _open(self, name: str, caller) -> list:
        """Open a span for a call made from the frame running `caller`.

        A record has no wrapped entry of its own.  Its first statement is a
        wrapped `inverse` call made from the record closure, which opens the
        record span; the span closes at the next wrapped call made from any
        other frame (the next step, the final transform) or when `run` ends.
        """
        stack = self._stack()
        in_record = bool(stack) and stack[-1][0] == "solver.record"
        if in_record and caller is not self.record_code:
            self._close(stack[-1])
        elif caller is self.record_code and not in_record:
            self._push("solver.record")
        return self._push(name)

    def _close(self, span: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            top[2] = end
            self.spans.append(top)
            if top is span:
                break

    def wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, sys._getframe(1).f_code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result
        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bozk" or n.startswith("bozk.")]
        originals = []
        for mod_name, attr, span_name, note in _hooks(self.bozk):
            mod = sys.modules.get(f"bozk.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    raise TraceCoverageError(f"hook target bozk.{mod_name}.{attr} not found")
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(span_name, orig, note))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                raise TraceCoverageError(f"hook target bozk.{mod_name}.{attr} not found")
            originals.append(orig)
            wrapper = self.wrap(span_name, orig, note)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._restore.append((m, key, orig))
                    setattr(m, key, wrapper)
        # coverage: no bozk module may still call an original directly
        left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
                if any(v is o for o in originals)]
        if left:
            self.uninstall()
            raise TraceCoverageError(f"unwrapped bindings remain: {', '.join(left)}")
        self.spans = []

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def invoke(self, index: int, fn, *args):
        """Run one CLI invocation under its own invocation id and span."""
        self.invocation = index
        span = self._push("cli.execute")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.invocation = None


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _dur(span) -> float:
    return span[2] - span[1]


class SpanIndex:
    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        self.children: Dict[int, List[list]] = defaultdict(list)
        for s in spans:
            self.by_name[s[0]].append(s)
            if s[3] is not None:
                self.children[id(s[3])].append(s)

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str) -> float:
        return float(sum(_dur(s) for s in self.by_name[name]))

    def self_time(self, span) -> float:
        return _dur(span) - sum(_dur(c) for c in self.children[id(span)])

    def self_total(self, name: str) -> float:
        return float(sum(self.self_time(s) for s in self.by_name[name]))

    def note_sum(self, name: str, key: str) -> int:
        return sum(s[6][key] for s in self.by_name[name])

    def picard_sweeps(self) -> List[float]:
        """Durations of Picard sweeps.  A sweep starts at the first of its
        n_nodes nonlinear_rhs evaluations and ends where the next sweep starts
        or, for the last one, at the next child call (the final transform)."""
        sweeps = []
        for p in self.by_name["solver.picard_solve"]:
            kids = sorted(self.children[id(p)], key=lambda s: s[1])
            rhs = [s for s in kids if s[0] == "solver.nonlinear_rhs"]
            n = p[6]["n_nodes"]
            if len(rhs) % n:
                raise TraceCoverageError(f"{len(rhs)} Picard rhs calls is no multiple of {n}")
            starts = [rhs[i][1] for i in range(0, len(rhs), n)]
            tail = next((s[1] for s in kids if s[1] >= rhs[-1][2]), p[2])
            sweeps += [b - a for a, b in zip(starts, starts[1:] + [tail])]
        return sweeps


def _per(total: float, n: int, scale: float) -> float:
    return total / n * scale if n else 0.0


def layer_metrics(ix: SpanIndex) -> Dict[str, Tuple[float, str]]:
    steps = ix.count("solver.step")
    records = ix.count("solver.record")
    sweeps = ix.picard_sweeps()
    points = ix.note_sum("stein.stein_derivative", "points")
    stein_self = ix.self_total("stein.stein_derivative")
    ratio_names = [f"diagnostics.{f}" for f in RATIO_FUNCTIONS]
    io_names = [f"io.{f}" for f in IO_WRITERS]
    return {
        "grid.forward_calls": (ix.count("grid.forward"), "count"),
        "grid.inverse_calls": (ix.count("grid.inverse"), "count"),
        "grid.forward_self_s": (ix.self_total("grid.forward"), "s"),
        "grid.inverse_self_s": (ix.self_total("grid.inverse"), "s"),
        "grid.bytes_computed": (ix.note_sum("grid.forward", "bytes")
                                + ix.note_sum("grid.inverse", "bytes"), "bytes"),
        "solver.steps": (steps, "count"),
        "solver.step_ms": (_per(ix.total("solver.step"), steps, 1e3), "ms"),
        "solver.nonlinear_rhs_calls": (ix.count("solver.nonlinear_rhs"), "count"),
        "solver.nonlinear_rhs_self_s": (ix.self_total("solver.nonlinear_rhs"), "s"),
        "solver.run_self_s": (ix.self_total("solver.run"), "s"),
        "solver.records": (records, "count"),
        "solver.record_ms": (_per(ix.total("solver.record"), records, 1e3), "ms"),
        "operators.propagator_array_calls": (ix.count("operators.propagator_array"), "count"),
        "operators.propagator_array_s": (ix.total("operators.propagator_array"), "s"),
        "solver.picard_iterations": (len(sweeps), "count"),
        "solver.picard_sweep_ms": (_per(sum(sweeps), len(sweeps), 1e3), "ms"),
        "solver.picard_solve_s": (ix.total("solver.picard_solve"), "s"),
        "stein.calls": (ix.count("stein.stein_derivative"), "count"),
        "stein.points": (points, "count"),
        "stein.self_s": (stein_self, "s"),
        "stein.point_us": (_per(stein_self, points, 1e6), "us"),
        "uc.b1_indicator_self_s": (ix.self_total("uc.b1_indicator"), "s"),
        "uc.persistence_scan_s": (ix.total("uc.persistence_scan"), "s"),
        "uc.levels": (ix.note_sum("uc.b1_indicator", "levels"), "count"),
        "diagnostics.ratio_calls": (sum(ix.count(n) for n in ratio_names), "count"),
        "diagnostics.ratio_self_s": (sum(ix.self_total(n) for n in ratio_names), "s"),
        "diagnostics.norm_calls": (ix.count("diagnostics.norm"), "count"),
        "io.write_s": (sum(ix.total(n) for n in io_names), "s"),
        "io.bytes_written": (sum(ix.note_sum(n, "bytes") for n in io_names), "bytes"),
    }


def check_coverage(ix: SpanIndex, ctx: Context, main_thread: int) -> None:
    """The counts the trace took must agree with the manifests and with
    what the program returned."""
    problems = []
    want_steps = sum(inv.steps() for inv in ctx.invocations)
    if ix.count("solver.step") != want_steps:
        problems.append(f"counted {ix.count('solver.step')} steps, manifests give {want_steps}")
    want_records = sum(inv.records() for inv in ctx.invocations)
    returned = ix.note_sum("solver.run", "records")
    if not ix.count("solver.record") == returned == want_records:
        problems.append(f"counted {ix.count('solver.record')} records, run returned "
                        f"{returned}, manifests give {want_records}")
    iterations = ix.note_sum("solver.picard_solve", "iterations")
    sweeps = len(ix.picard_sweeps())
    if sweeps != iterations:
        problems.append(f"counted {sweeps} Picard sweeps, picard_solve returned {iterations}")
    if any(s[4] is None for s in ix.spans):
        problems.append("spans without an invocation id")
    verify = [i for i, inv in enumerate(ctx.invocations) if inv.subcommand == "verify"]
    if verify:
        workers = [s for s in ix.spans if s[5] != main_thread]
        if not workers or any(s[4] not in verify for s in workers):
            problems.append("verify worker-thread spans missing or not attributed to verify")
    if problems:
        raise TraceCoverageError("; ".join(problems))


# ---------------------------------------------------------------------------
# passes and the kernel sweep
# ---------------------------------------------------------------------------


def inprocess_pass(ctx: Context, bozk, tag: str, tracer: Optional[Tracer] = None) -> float:
    base = ctx.run_dir / "inproc" / tag
    done = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for i, inv in enumerate(ctx.invocations):
            out = base / inv.name
            argv = inv.argv(ctx.manifest_dir, out)
            code = (tracer.invoke(i, bozk.cli.execute, argv) if tracer is not None
                    else bozk.cli.execute(argv))
            done.append((inv, out, code))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if all([ctx.ledger.record(inv, out, code) for inv, out, code in done]):
        shutil.rmtree(base)
    return wall


def _median_ms(fn, calls: int) -> float:
    samples = []
    for _ in range(SWEEP_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e3


def kernel_sweep(bozk) -> Dict[str, Tuple[float, str]]:
    """Isolated kernels at the sizes of the roadmap, tracing off.  The step
    time is the difference of a (k+1)-step and a 1-step `run`, divided by k,
    so table set-up and the two endpoint records cancel."""
    grid, solver = bozk.grid, bozk.solver
    out = {}
    for n, calls, k in SWEEP_SIZES:
        g = grid.make_grid(n, n, 16 * math.pi, 16 * math.pi)
        phi = bozk.fields.gaussian(g)
        spec = grid.forward(phi)
        out[f"grid.forward_ms.{n}"] = (_median_ms(lambda: grid.forward(phi), calls), "ms")
        out[f"grid.inverse_ms.{n}"] = (_median_ms(lambda: grid.inverse(spec), calls), "ms")
        out[f"solver.nonlinear_rhs_ms.{n}"] = (
            _median_ms(lambda: solver.nonlinear_rhs(spec), calls), "ms")
        dt = 5e-4
        long_cfg = solver.SolverConfig(dt=dt, t_final=(k + 1) * dt, stride=k + 1)
        short_cfg = solver.SolverConfig(dt=dt, t_final=dt, stride=1)
        diffs = []
        for _ in range(SWEEP_SAMPLES):
            t0 = time.perf_counter()
            solver.run(phi, long_cfg)
            t1 = time.perf_counter()
            solver.run(phi, short_cfg)
            t2 = time.perf_counter()
            diffs.append(((t1 - t0) - (t2 - t1)) / k)
        out[f"solver.step_ms.{n}"] = (statistics.median(diffs) * 1e3, "ms")
    return out


def _write_spans(ctx: Context, spans: List[list]) -> str:
    index = {id(s): i for i, s in enumerate(spans)}
    t_base = min((s[1] for s in spans), default=0.0)
    rows = [[s[0], s[1] - t_base, s[2] - t_base,
             index.get(id(s[3])) if s[3] is not None else None, s[4], s[5], s[6]]
            for s in spans]
    path = ctx.root / harness.WORK_DIR / "results" / f"{ctx.workload}-seed{ctx.seed}-spans.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "columns": ["name", "start_s", "end_s", "parent", "invocation", "thread", "note"],
        "invocations": [inv.name for inv in ctx.invocations],
        "spans": rows,
    }) + "\n")
    return str(path.relative_to(ctx.root))


def _per_invocation(ix: SpanIndex, ctx: Context) -> Dict[str, Dict[str, float]]:
    """Self time by span name within each invocation (the layer split)."""
    split: Dict[str, Dict[str, float]] = {inv.name: defaultdict(float) for inv in ctx.invocations}
    for s in ix.spans:
        split[ctx.invocations[s[4]].name][s[0]] += ix.self_time(s)
    return {k: dict(v) for k, v in split.items()}


def measure_layers(ctx: Context) -> Tuple[Dict[str, Metric], dict]:
    harness.warm_up(ctx)
    setup = [harness.setup_probe(ctx, i) for i in range(SETUP_SAMPLES)]
    sub = harness.subprocess_pass(ctx, "subprocess")

    sys.path.insert(0, str(ctx.root / "src"))
    import bozk
    import bozk.cli

    tracer = Tracer(bozk)
    walls = {mode: inprocess_pass(ctx, bozk, mode, tracer if mode == "traced" else None)
             for mode in ("warm-up", "untraced", "traced")}
    ix = SpanIndex(tracer.spans)
    check_coverage(ix, ctx, threading.get_ident())

    metrics: Dict[str, Metric] = {
        "cli.import_s": (statistics.median(s["import_s"] for s in setup), "s", len(setup)),
        "manifest.load_s": (statistics.median(s["load_s"] for s in setup), "s", len(setup)),
        "cli.cpu_s": (sub["cpu_s"], "s", 1),
    }
    metrics.update({k: (v, u, 1) for k, (v, u) in layer_metrics(ix).items()})
    metrics["trace.overhead_s"] = (walls["traced"] - walls["untraced"], "s", 1)
    metrics.update({k: (v, u, SWEEP_SAMPLES) for k, (v, u) in kernel_sweep(bozk).items()})
    detail = {
        "subprocess_pass": sub,
        "setup": setup,
        "inprocess_walls": walls,
        "self_time_by_invocation": _per_invocation(ix, ctx),
        "spans_file": _write_spans(ctx, tracer.spans),
    }
    return metrics, detail
