"""Command-line entry point: experiment orchestration and result emission.

Each subcommand of the `_COMMANDS` table writes its data files into the
output directory (CSV files with 17-significant-digit floats, so byte
reproducibility follows from seed determinism, and snapshots) and returns its
summary body; `execute` writes that body to summary.json, last.

Exit codes: 0 success, 2 configuration error, 3 numerical abort (blow-up,
CFL audit, contraction failure, solution at the box edge in `uc`; details
in abort.json), 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path
from typing import List, Sequence

import numpy as np

from . import fields as data_families
from .diagnostics import (
    algebra_ratio,
    commutator_ratio,
    conservation_report,
    half_derivative_commutator_ratio,
    interpolation_ratio,
    norms,
    trilinear_ratio,
)
from .grid import RealField, make_grid
from .io import write_csv, write_json, write_snapshot
from .manifest import RunManifest, load_manifest
from .operators import NormSpec
from .solver import (
    PicardDivergence,
    SolverAbort,
    picard_solve,
    run,
)
from .stein import (DIVERGENCE_THRESHOLD, SteinConfig, increment_ratios, phase_bound,
                    refine_divergence, stein_derivative)
from .uc import CutoffSpec, b1_indicator, domain_growth_study, persistence_scan
from .weights import WeightSpec, a2_statistic, beta, beta_audit, short_repr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _diag_norms(m: RunManifest) -> List[NormSpec]:
    """The norms that the manifest's diag.hs and diag.weights ask for."""
    return [NormSpec.hs(s) for s in m.hs_orders] + [NormSpec.l2w(w) for w in m.weights]


def _series_rows(series) -> tuple[List[str], List[List]]:
    hs = [spec for spec in series.norms if spec.kind == "hs"]
    w = [spec for spec in series.norms if spec.kind == "l2w"]
    header = (["t", "l2"] + [spec.label() for spec in hs] + ["zmode_linf_drift", "moment_x"]
              + [f"w_{spec.weight.label()}" for spec in w])
    cols = ([series.t, series.l2] + [series.norms[spec] for spec in hs]
            + [series.zero_mode_drift, series.moment_x] + [series.norms[spec] for spec in w])
    return header, [list(row) for row in zip(*cols)]


def _cmd_simulate(m: RunManifest, out: Path, quiet: bool) -> dict:
    grid = m.grid()
    cfg = m.solver_config()
    # a temporary, so that run can free the samples once it has their transform
    result = run(m.initial_data(grid), cfg, norms=_diag_norms(m))
    header, rows = _series_rows(result.series)
    write_csv(out / "series.csv", header, rows)
    write_snapshot(out / "final.bozk", result.final)
    summary = {
        "grid": asdict(grid),
        "mu": cfg.mu,
        "dt": cfg.dt,
        "t_final": result.series.t[-1],
        "records": len(result.series.t),
    }
    if cfg.mu == 0.0:
        summary["conservation"] = asdict(conservation_report(result.series))
    _say(quiet, f"wrote {out}/series.csv ({len(rows)} records)")
    return summary


def _cmd_picard(m: RunManifest, out: Path, quiet: bool) -> dict:
    grid = m.grid()
    phi = m.initial_data(grid)
    res = picard_solve(
        phi,
        m.picard_t_final,
        mu=m.picard_mu,
        max_iter=m.picard_max_iter,
        tol=m.picard_tol,
        n_nodes=m.picard_nodes,
    )
    write_csv(
        out / "picard_residuals.csv",
        ["iteration", "residual"],
        [[i + 1, r] for i, r in enumerate(res.residuals)],
    )
    write_snapshot(out / "final.bozk", res.final)
    _say(quiet, f"picard converged in {res.iterations} iterations")
    return {
        "iterations": res.iterations,
        "t_final": m.picard_t_final,
        "mu": m.picard_mu,
        "final_residual": res.residuals[-1],
    }


def _cmd_uc(m: RunManifest, out: Path, quiet: bool) -> dict:
    # everything is computed before the first write, so a rejected manifest
    # (exit 2) leaves no partial output behind
    grid = m.grid()
    phi = m.initial_data(grid)
    cut = CutoffSpec(m.uc_epsilon)
    report = b1_indicator(phi, m.uc_t, cut, levels=m.uc_levels)
    table = persistence_scan(phi, m.solver_config(), m.uc_r_list, m.uc_s)

    summary = {
        "b1_verdict": report.verdict,
        "b1_ratios": report.ratios,
        "persistence": [asdict(row) for row in table.rows],
        "boundary_ratio": table.boundary_ratio,
    }
    if m.mu == 0.0:
        # simulate's block, read off the scan's series
        summary["conservation"] = asdict(conservation_report(table.raw))

    growth = None
    if m.uc_doublings > 0:
        growth = domain_growth_study(
            m.initial_data,
            grid,
            m.solver_config(),
            doublings=m.uc_doublings,
            cut=cut,
        )
        summary["domain_growth"] = {
            "factors": {f"{r:g}": growth.factors[r] for r in growth.factors},
            "obstructed": {f"{r:g}": growth.obstructed[r] for r in growth.obstructed},
            "stable": {f"{r:g}": growth.stable[r] for r in growth.stable},
            "threshold": growth.threshold,
        }

    rows = []
    for i, window_norm in enumerate(report.levels):
        ratio = report.ratios[i - 1] if i > 0 else ""
        rows.append([i, window_norm, ratio, report.verdict])
    write_csv(out / "uc_report.csv", ["level", "window_norm", "ratio", "verdict"], rows)

    header = ["t"] + [f"z_{short_repr(r)}" for r in m.uc_r_list]
    prows = [
        [table.t[i]] + [table.series[float(r)][i] for r in m.uc_r_list]
        for i in range(len(table.t))
    ]
    write_csv(out / "persistence.csv", header, prows)

    if growth is not None:
        gheader = ["length"] + [f"ind_{r:g}" for r in sorted(growth.factors)]
        grows = [
            [row.length] + [row.indicators[r] for r in sorted(growth.factors)]
            for row in growth.rows
        ]
        write_csv(out / "growth.csv", gheader, grows)

    _say(quiet, f"uc verdict: {report.verdict}")
    return summary


def _cmd_diagnose(m: RunManifest, out: Path, quiet: bool) -> dict:
    u = m.initial_data(m.grid())
    specs = _diag_norms(m)
    for r in m.uc_r_list:
        specs.append(NormSpec.l2r(r))
        if m.uc_s >= 2 * r:
            specs.append(NormSpec.zsr(m.uc_s, r))
    rows = [["l2", u.l2()]] + [[spec.label(), v] for spec, v in zip(specs, norms(u, specs))]
    write_csv(out / "diagnose.csv", ["norm", "value"], rows)
    _say(quiet, f"wrote {out}/diagnose.csv")
    return {"entries": len(rows)}


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _exact_phase_constant(b: float) -> float:
    """sqrt of int |1 - e^(iy)|^2 / |y|^(1+2b) dy via the Gamma closed form
    (independent of the sampled quadrature path)."""
    s = 2.0 * b
    if abs(s - 1.0) < 1e-12:
        return math.sqrt(2.0 * math.pi)
    return math.sqrt(4.0 * (-math.gamma(-s)) * math.cos(math.pi * s / 2.0))


def _verify_weights(rows: List[List], seed: int) -> None:
    rows.append(["weights", "beta(5,5)=sqrt26", beta(5, 5.0), math.sqrt(26.0),
                 abs(beta(5, 5.0) - math.sqrt(26.0)) < 1e-12])
    rows.append(["weights", "beta(7,0)=1", beta(7, 0.0), 1.0, beta(7, 0.0) == 1.0])
    rows.append(["weights", "beta(3,12)=6", beta(3, 12.0), 6.0, beta(3, 12.0) == 6.0])
    for n in (1, 2, 4, 8, 16, 32):
        audit = beta_audit(n)
        ok = audit.min_slope >= -1e-9 and audit.max_slope <= 1.0 + 1e-9
        rows.append(["weights", f"beta_slope_N{n}", audit.max_slope, 1.0, ok])
    g = make_grid(64, 64, 48.0, 48.0)
    wn = WeightSpec.truncated(4).evaluate(g.xmesh, g.ymesh)
    pl = WeightSpec.polynomial(1.0).evaluate(g.xmesh, g.ymesh)
    rows.append(["weights", "wN<=poly1", float(np.max(wn - pl)), 0.0,
                 bool(np.all(wn <= pl + 1e-12))])
    grads = []
    for lam in (0.5, 0.1, 0.01, 0.001):
        w = WeightSpec.damped(1.0, lam).evaluate(g.xmesh, g.ymesh)
        gx = np.gradient(w, g.dx, axis=1)
        gy = np.gradient(w, g.dy, axis=0)
        grads.append(float(np.max(np.hypot(gx, gy))))
    rows.append(["weights", "damped_grad_uniform", max(grads), 1.5, max(grads) < 1.5])
    for L in (1.0, 5.0, 40.0):
        v = a2_statistic(0.5, (-L, L))
        rows.append(["weights", f"a2_half_L{L:g}", v, 4.0 / 3.0,
                     abs(v - 4.0 / 3.0) < 1e-12])
    rows.append(["weights", "a2_3half_inf", a2_statistic(1.5, (-1.0, 2.0)), math.inf,
                 math.isinf(a2_statistic(1.5, (-1.0, 2.0)))])
    rows.append(["weights", "a2_zero_one", a2_statistic(0.0, (2.0, 7.0)), 1.0,
                 a2_statistic(0.0, (2.0, 7.0)) == 1.0])


def _verify_stein(rows: List[List], seed: int) -> None:
    # the two ladders run before the phase samples are built, so their
    # buffers never sit on top of the samples; their rows still come last
    heav = refine_divergence(lambda x: (x >= 0).astype(float), 0.5, 5)
    bump = refine_divergence(lambda x: np.exp(-8.0 * x**2), 0.5, 6)
    r_out = 400.0
    dx = 0.005
    n = math.ceil((r_out + 20.0) / dx)
    # the grid dx * (-n .. n), whose node of x = 0 is index n
    centre = [n]
    samples = np.zeros(2 * n + 1, dtype=np.complex128)
    # the checks in row order, eta None for a pure phase; each distinct c is
    # built once, and each distinct b on it is one call that its checks share
    checks = [(f"pure_phase_c{c:g}", c, 0.5, None, None) for c in (1.0, 2.0, 4.0)] + [
        (f"phase_b{b:g}_e{eta:g}_t{t:g}", t * eta * eta, b, eta, t)
        for b in (0.25, 0.5, 0.75) for eta, t in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.5))
    ]
    found = {}
    for c in dict.fromkeys(check[1] for check in checks):
        # exp(i c x) at x = dx * (k - n), built in place in the one samples
        # buffer, its x a block at a time so no x array is held
        samples.real = 0.0
        for a in range(0, samples.size, 1 << 14):
            x = samples.imag[a : a + (1 << 14)]
            np.multiply(np.arange(a - n, a - n + x.size), dx, out=x)
            x *= c
        fs = np.exp(samples, out=samples)
        for b in dict.fromkeys(check[2] for check in checks if check[1] == c):
            res = stein_derivative(fs, dx, SteinConfig(b=b, r_outer=r_out), centre)
            meas = res.values[0]
            for name, _, _, eta, t in (check for check in checks if check[1:3] == (c, b)):
                if eta is None:
                    exact = math.sqrt(2.0 * math.pi * c)
                    found[name] = [meas, exact, abs(meas - exact) / exact < 1e-3]
                    continue
                bound, exact = phase_bound(b, eta, t), _exact_phase_constant(b) * c**b
                up = res.upper()[0]
                ok = (meas <= bound * (1 + 1e-12)
                      and meas - 1e-3 * exact <= exact <= up + 1e-3 * exact)
                found[name] = [meas, bound, ok]
    rows.extend(["stein", check[0], *found[check[0]]] for check in checks)
    rows.append(["stein", "heaviside_divergent", increment_ratios(heav.ratios)[-1],
                 DIVERGENCE_THRESHOLD, heav.verdict == "divergent"])
    rows.append(["stein", "bump_convergent", increment_ratios(bump.ratios)[-1],
                 DIVERGENCE_THRESHOLD, bump.verdict == "convergent"])


def _verify_ratios(rows: List[List], seed: int) -> None:
    g = make_grid(48, 48, 20.0, 20.0)
    fam = [data_families.random_smooth(g, seed + k) for k in range(12)]
    ceilings = {"interpolation": 1.2, "commutator": 1.5, "algebra": 0.5,
                "trilinear": 0.1, "d_half": 0.2}
    worst = {k: 0.0 for k in ceilings}
    for i, f in enumerate(fam):
        a = fam[(i + 1) % len(fam)]
        worst["interpolation"] = max(worst["interpolation"],
                                     interpolation_ratio(f, 2.0, 1.0, 0.5))
        worst["commutator"] = max(worst["commutator"], commutator_ratio(a, f, 1, 1))
        worst["algebra"] = max(worst["algebra"], algebra_ratio(f, a, 3.0, 3.0))
        worst["trilinear"] = max(worst["trilinear"], trilinear_ratio(f, 3.0, 2.5))
        worst["d_half"] = max(worst["d_half"], half_derivative_commutator_ratio(a, f))
    for k, ceil in ceilings.items():
        rows.append(["ratios", f"{k}_ceiling", worst[k], ceil, worst[k] <= ceil])
    f = fam[0]
    base = interpolation_ratio(f, 2.0, 1.0, 0.5)
    scaled = interpolation_ratio(RealField(g, 3.0 * f.samples), 2.0, 1.0, 0.5)
    rows.append(["ratios", "interp_scale_exact", abs(base - scaled), 1e-12,
                 abs(base - scaled) <= 1e-12 * max(base, 1.0)])
    per_n = [interpolation_ratio(f, 2.0, 1.0, 0.5, weight=WeightSpec.truncated(nn))
             for nn in (4, 8, 16, 32)]
    ok = max(per_n) <= 1.1 * per_n[1]
    rows.append(["ratios", "interp_wN_uniform", max(per_n), 1.1 * per_n[1], ok])


def _cmd_verify(m: RunManifest, out: Path, quiet: bool) -> dict:
    # the suites run one after another on one plain worker thread, so only
    # one suite's buffers are live at a time; the thread stays only because
    # the benchmark's trace coverage expects verify spans off the main
    # thread, and a suite's exception is re-raised here, before any write
    rows: List[List] = []
    raised: List[BaseException] = []

    def suites() -> None:
        try:
            for suite in (_verify_weights, _verify_stein, _verify_ratios):
                suite(rows, m.seed)
        except BaseException as exc:
            raised.append(exc)

    worker = threading.Thread(target=suites, name="bozk-verify")
    worker.start()
    worker.join()
    if raised:
        raise raised[0]
    n_fail = sum(1 for r in rows if not r[-1])
    write_csv(out / "verify.csv", ["suite", "check", "measured", "reference", "passed"], rows)
    _say(quiet, f"verify: {len(rows) - n_fail}/{len(rows)} checks passed")
    return {"checks": len(rows), "failures": n_fail}


# subcommand name -> command(manifest, out, quiet), which writes its data
# files and returns its summary body
_COMMANDS = {
    "simulate": _cmd_simulate,
    "linear": lambda m, out, quiet: _cmd_simulate(replace(m, nonlinear=False), out, quiet),
    "picard": _cmd_picard,
    "uc": _cmd_uc,
    "verify": _cmd_verify,
    "diagnose": _cmd_diagnose,
}


def execute(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bozk",
        description="Pseudospectral lab for a nonlocal-dispersive 2-D wave equation",
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="manifest path")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override manifest seed")
    parser.add_argument("--quiet", action="store_true")
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.config is not None:
            m = load_manifest(args.config)
        else:
            m = RunManifest()
        if args.seed is not None:
            m.seed = args.seed
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"{out}: cannot create output directory ({exc.strerror})"
            ) from None

        body = _COMMANDS[args.subcommand](m, out, args.quiet)
        write_json(out / "summary.json", {"subcommand": args.subcommand, **body})
        return EXIT_VERIFY if body.get("failures") else EXIT_OK
    except SolverAbort as exc:
        abort = {"reason": exc.reason, "t": exc.t, "step": exc.step, "detail": exc.detail}
        if isinstance(exc, PicardDivergence):
            abort["residuals"] = exc.residuals
        write_json(Path(args.out) / "abort.json", abort)
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
