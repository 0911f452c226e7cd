import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import bozk
from bozk import cli, fields, manifest
from bozk.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, execute
from bozk.diagnostics import norm
from bozk.grid import RealField, make_grid
from bozk.io import read_snapshot, write_snapshot
from bozk.manifest import ManifestError, RunManifest, load_manifest, parse_manifest_text
from bozk.operators import NormSpec
from bozk.weights import WeightSpec

SIM_CFG = """
grid.nx = 48
grid.ny = 48
grid.lx = 16pi
grid.ly = 16pi
data.kind = gaussian
data.amplitude = 0.5
data.sigma_x = 1.5
data.sigma_y = 1.5
solver.dt = 5e-3
solver.t_final = 0.05
solver.stride = 5
diag.hs = 2
diag.weights = poly:1
seed = 3
"""


def read_strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestManifest:
    def test_pi_lengths_and_weights(self):
        m = parse_manifest_text(SIM_CFG)
        assert math.isclose(m.lx, 16 * math.pi)
        assert m.weights == (WeightSpec.polynomial(1.0),)
        assert m.hs_orders == (2.0,)

    def test_unknown_key_rejected(self):
        with pytest.raises(ManifestError, match="unknown key"):
            parse_manifest_text("grid.nphi = 12\n")
        with pytest.raises(ManifestError, match="unknown key"):
            parse_manifest_text("solver.dealias = true\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest_text("grid.nx = twelve\n")
        with pytest.raises(ManifestError):
            parse_manifest_text("solver.nonlinear = maybe\n")
        with pytest.raises(ManifestError):
            parse_manifest_text("diag.weights = poly\n")
        # a field past the kind's own count is an error, not ignored
        for token in ("poly:1:7", "trunc:8:x", "damp:0.5:0.1:9"):
            with pytest.raises(ManifestError, match="takes"):
                parse_manifest_text(f"diag.weights = {token}\n")

    def test_data_seed_is_an_integer(self):
        # parsed as int like the top-level seed: no float truncation or
        # rounding past 2^53
        m = parse_manifest_text("data.seed = 9007199254740993\n")
        assert type(m.data_params["seed"]) is int
        assert m.data_params["seed"] == 9007199254740993
        with pytest.raises(ManifestError):
            parse_manifest_text("data.seed = 3.7\n")

    def test_every_key_sets_its_field(self):
        text = """
grid.nx = 32
grid.ny = 16
grid.lx = 2pi
grid.ly = 3.5
data.kind = dx_gaussian
data.amplitude = 0.3
data.sigma_x = 0.7
data.sigma_y = 0.9
data.center_x = 1.5
data.center_y = -2
data.path = snap.bozk
data.seed = 5
data.spectral_width = 2.5
solver.dt = 2e-3
solver.t_final = 0.3
solver.mu = 0.05
solver.stride = 7
solver.nonlinear = off
diag.hs = 1,3
diag.weights = poly:2,trunc:4,gamma:0.5,damp:0.5:0.1
uc.t = 0.25
uc.levels = 5
uc.epsilon = 0.75
uc.r_list = 2.5
uc.s = 7
uc.doublings = 1
picard.t_final = 0.02
picard.mu = 0.3
picard.max_iter = 9
picard.tol = 1e-8
picard.nodes = 17
seed = 42
"""
        expected = {
            "nx": 32, "ny": 16, "lx": 2 * math.pi, "ly": 3.5,
            "data_kind": "dx_gaussian",
            "data_params": {
                "amplitude": 0.3, "sigma_x": 0.7, "sigma_y": 0.9, "center_x": 1.5,
                "center_y": -2.0, "seed": 5,
                "spectral_width": 2.5,
            },
            "data_path": "snap.bozk",
            "dt": 2e-3, "t_final": 0.3, "mu": 0.05, "stride": 7,
            "nonlinear": False,
            "hs_orders": (1.0, 3.0),
            "weights": (
                WeightSpec.polynomial(2.0), WeightSpec.truncated(4),
                WeightSpec.gamma_power(0.5), WeightSpec.damped(0.5, 0.1),
            ),
            "uc_t": 0.25, "uc_levels": 5, "uc_epsilon": 0.75, "uc_r_list": (2.5,),
            "uc_s": 7.0, "uc_doublings": 1,
            "picard_t_final": 0.02, "picard_mu": 0.3, "picard_max_iter": 9,
            "picard_tol": 1e-8, "picard_nodes": 17,
            "seed": 42,
        }
        m = parse_manifest_text(text)
        default = RunManifest()
        assert set(expected) == {f.name for f in dataclasses.fields(RunManifest)}
        keys = {line.split("=")[0].strip() for line in text.splitlines() if line}
        assert keys == set(manifest._KEYS)
        for name, value in expected.items():
            assert getattr(m, name) == value, name
            assert getattr(default, name) != value, name

    def test_empty_lists(self):
        m = parse_manifest_text("diag.hs =\ndiag.weights =\n")
        assert m.hs_orders == () and m.weights == ()
        with pytest.raises(ManifestError):
            parse_manifest_text("uc.r_list =\n")

    def test_comments_and_blanks(self):
        m = parse_manifest_text("# hi\n\ngrid.nx = 16 # inline\n")
        assert m.nx == 16

    def test_readme_block_names_every_key_with_its_default(self):
        # the fenced block under "Manifest format" in README.md; a key
        # with no default is shown commented out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Manifest format", 1)[1].split("```")[1]
        keys = {line.lstrip("# ").split("=")[0].strip()
                for line in block.splitlines() if "=" in line}
        assert keys == set(manifest._KEYS)
        m = parse_manifest_text(block)
        default = RunManifest()
        for f in dataclasses.fields(RunManifest):
            if f.name != "data_params":
                assert getattr(m, f.name) == getattr(default, f.name), f.name
        for name, value in m.data_params.items():
            if name == "seed":
                assert value == default.seed
                continue
            taken = [inspect.signature(family).parameters.get(name)
                     for family in fields.FAMILIES.values()]
            assert value in {p.default for p in taken if p is not None}, name

    def test_invalid_grid_caught_eagerly(self):
        with pytest.raises(ManifestError):
            parse_manifest_text("grid.nx = 33\n")

    @pytest.mark.parametrize("kind", sorted(fields.FAMILIES))
    def test_family_built_with_its_own_defaults(self, kind):
        family = fields.FAMILIES[kind]
        taken = inspect.signature(family).parameters
        m = parse_manifest_text(f"data.kind = {kind}\nseed = 3\n")
        grid = m.grid()
        expected = family(grid, **({"seed": 3} if "seed" in taken else {}))
        assert np.array_equal(m.initial_data(grid).samples, expected.samples)
        # keys of other families are ignored, as a random_smooth manifest
        # that also sets data.sigma_x does
        others = [key for key in manifest._KEYS if key.startswith("data.")
                  and key not in ("data.kind", "data.path")
                  and key.split(".", 1)[1] not in taken]
        assert others
        extra = "".join(f"{key} = 7\n" for key in others)
        m2 = parse_manifest_text(f"data.kind = {kind}\nseed = 3\n{extra}")
        assert len(m2.data_params) == len(others)
        assert np.array_equal(m2.initial_data(grid).samples, expected.samples)

    def test_unknown_family_rejected(self):
        m = parse_manifest_text("data.kind = sech\n")
        with pytest.raises(ManifestError, match="unknown data family"):
            m.initial_data(m.grid())


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        g = make_grid(16, 24, 3.0, 5.0)
        rng = np.random.default_rng(0)
        f = RealField(g, rng.standard_normal((24, 16)))
        p = tmp_path / "f.bozk"
        write_snapshot(p, f)
        raw = p.read_bytes()
        assert raw[:4] == b"BOZK"
        back = read_snapshot(p)
        assert back.grid == g
        assert np.array_equal(back.samples, f.samples)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bozk"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            read_snapshot(p)


class TestExecute:
    def test_simulate_writes_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        assert execute(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert header == ["t", "l2", "hs_2", "zmode_linf_drift", "moment_x", "w_poly1"]
        summary = json.loads((out / "summary.json").read_text())
        assert "conservation" in summary
        assert (out / "final.bozk").exists()

    @pytest.mark.parametrize(
        "subcommand", ["simulate", "linear", "picard", "uc", "verify", "diagnose"]
    )
    def test_summary_names_its_subcommand(self, tmp_path, subcommand):
        # uc's obstruction indicator needs the gaussian resolved: an 8pi box
        text = SIM_CFG.replace("16pi", "8pi")
        text += "picard.t_final = 0.02\npicard.mu = 0.1\nuc.r_list = 1\nuc.s = 2\n"
        out = tmp_path / "out"
        argv = [subcommand, "--config", write_cfg(tmp_path, text), "--out", str(out), "--quiet"]
        assert execute(argv) == EXIT_OK
        assert read_strict_json(out / "summary.json")["subcommand"] == subcommand

    def test_config_error_exit_and_no_files(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.nx = 47\n")
        out = tmp_path / "outbad"
        assert execute(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists() or not list(out.iterdir())

    def test_uc_config_error_writes_no_files(self, tmp_path, capsys):
        # uc.s below 2 max(r) is rejected by the persistence scan, which
        # runs after the obstruction indicator
        text = SIM_CFG.replace("grid.nx = 48", "grid.nx = 64").replace(
            "grid.ny = 48", "grid.ny = 64"
        ).replace("16pi", "8pi").replace("data.kind = gaussian", "data.kind = dx_gaussian")
        cfg = write_cfg(tmp_path, text + "uc.levels = 3\nuc.r_list = 1,2\nuc.s = 3\n")
        out = tmp_path / "outuc3"
        assert execute(["uc", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "regularity s must be at least 2*max(r)" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_cfl_violation_exit_three(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SIM_CFG.replace("data.amplitude = 0.5", "data.amplitude = 60")
            .replace("solver.dt = 5e-3", "solver.dt = 0.05")
            .replace("solver.t_final = 0.05", "solver.t_final = 0.2"),
        )
        out = tmp_path / "outcfl"
        assert execute(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        abort = read_strict_json(out / "abort.json")
        assert abort["reason"] == "cfl_audit"

    def test_cfl_audit_on_every_step(self, tmp_path):
        text = SIM_CFG.replace("grid.nx = 48", "grid.nx = 64").replace(
            "grid.ny = 48", "grid.ny = 64"
        )
        text = text.replace("data.amplitude = 0.5", "data.amplitude = 50").replace(
            "solver.dt = 5e-3", "solver.dt = 2e-3"
        ).replace("solver.stride = 5", "solver.stride = 500")
        cfg = write_cfg(tmp_path, text.replace("solver.t_final = 0.05", "solver.t_final = 1"))
        out = tmp_path / "outcfl"
        assert execute(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_NUMERIC
        abort = read_strict_json(out / "abort.json")
        assert abort["reason"] == "cfl_audit"
        step = abort["step"]
        assert 0 < step < 500
        assert set(abort) == {"reason", "t", "step", "detail"}
        # the same manifest ended one step before the breach runs clean
        t_end = f"solver.t_final = {(step - 1) * 2e-3!r}"
        cfg = write_cfg(tmp_path, text.replace("solver.t_final = 0.05", t_end), "short.cfg")
        out = tmp_path / "outshort"
        assert execute(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        assert not (out / "abort.json").exists()

    def test_uc_box_edge_exit_three_and_no_reports(self, tmp_path):
        text = (
            SIM_CFG.replace("16pi", "6pi")
            .replace("data.amplitude = 0.5", "data.amplitude = 0.75")
            .replace("data.sigma_x = 1.5", "data.sigma_x = 1.2")
            .replace("data.sigma_y = 1.5", "data.sigma_y = 1.2")
            .replace("solver.dt = 5e-3", "solver.dt = 2e-3")
            .replace("solver.t_final = 0.05", "solver.t_final = 1")
            .replace("solver.stride = 5", "solver.stride = 50")
        )
        cfg = write_cfg(tmp_path, text + "uc.levels = 3\nuc.r_list = 1\nuc.s = 2\n")
        out = tmp_path / "outedge"
        assert execute(["uc", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_NUMERIC
        abort = read_strict_json(out / "abort.json")
        assert abort["reason"] == "boundary"
        assert abort["step"] % 50 == 0 and abort["t"] > 0
        assert not (out / "uc_report.csv").exists()
        assert not (out / "persistence.csv").exists()

    def test_picard_overflow_exit_three(self, tmp_path):
        # in the first case the iterates overflow after a few sweeps; in the
        # second u^2 stays finite but its transform overflows, so sweep 1
        # leaves every node past the first NaN
        for amplitude, t_final in (("200", 5.0), ("1e154", 2.0)):
            text = SIM_CFG.replace("grid.nx = 48", "grid.nx = 32").replace(
                "grid.ny = 48", "grid.ny = 32"
            ).replace("data.amplitude = 0.5", f"data.amplitude = {amplitude}")
            cfg = write_cfg(tmp_path, text + f"picard.t_final = {t_final}\npicard.mu = 0.01\n")
            out = tmp_path / f"outpicov{amplitude}"
            assert execute(["picard", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_NUMERIC
            abort = read_strict_json(out / "abort.json")
            assert abort["reason"] == "picard_divergence"
            assert abort["t"] == t_final
            assert abort["step"] == len(abort["residuals"]) + 1
        # the second case aborts in sweep 1
        assert (abort["step"], abort["residuals"]) == (1, [])

    @pytest.mark.parametrize(
        "subcommand, line",
        [
            ("simulate", "solver.t_final = inf"),
            ("picard", "picard.max_iter = 0"),
            ("picard", "picard.tol = 0"),
            ("picard", "picard.tol = -1"),
            ("picard", "picard.tol = nan"),
            ("simulate", "grid.lx = infpi"),
            ("simulate", "grid.ly = 1e308pi"),
            ("uc", "uc.r_list = 1,nan"),
            ("simulate", "diag.weights = damp:0.5:inf"),
            ("simulate", "data.seed = 3.7"),
        ],
    )
    def test_bad_number_exit_two(self, tmp_path, subcommand, line):
        text = SIM_CFG.replace("grid.nx = 48", "grid.nx = 32").replace(
            "grid.ny = 48", "grid.ny = 32"
        )
        cfg = write_cfg(tmp_path, text + line + "\n")
        out = tmp_path / "outnum"
        assert execute([subcommand, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not (out / "abort.json").exists()

    def test_linear_and_diagnose(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "outlin"
        assert execute(["linear", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        outd = tmp_path / "outd"
        assert execute(["diagnose", "--config", cfg, "--out", str(outd), "--quiet"]) == EXIT_OK
        rows = (outd / "diagnose.csv").read_text().splitlines()
        assert rows[0] == "norm,value"
        assert any(r.startswith("l2,") for r in rows)

    def test_diagnose_reads_every_norm_from_one_transform(self, tmp_path, monkeypatch):
        calls = []
        rfft2 = np.fft.rfft2

        def counted(*args, **kwargs):
            calls.append(1)
            return rfft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft2", counted)
        cfg = Path(__file__).resolve().parents[1] / "configs" / "simulate.cfg"
        out = tmp_path / "outd"
        assert execute(["diagnose", "--config", str(cfg), "--out", str(out), "--quiet"]) == EXIT_OK
        assert len(calls) == 1
        monkeypatch.setattr(np.fft, "rfft2", rfft2)
        m = load_manifest(str(cfg))
        u = m.initial_data(m.grid())
        specs = [NormSpec.hs(s) for s in m.hs_orders] + [NormSpec.l2w(w) for w in m.weights]
        specs += [NormSpec.l2r(r) for r in m.uc_r_list]
        specs += [NormSpec.zsr(m.uc_s, r) for r in m.uc_r_list]
        by_label = {spec.label(): spec for spec in specs}
        rows = [line.split(",") for line in (out / "diagnose.csv").read_text().splitlines()[2:]]
        assert len(rows) == 9
        for label, value in rows:
            exact = norm(u, by_label[label])
            assert abs(float(value) - exact) <= 1e-14 * exact

    def test_orders_past_six_digits_keep_distinct_labels(self, tmp_path):
        text = SIM_CFG.replace("16pi", "8pi").replace("diag.hs = 2", "diag.hs = 1,1.0000001").replace(
            "diag.weights = poly:1", "diag.weights = poly:1,poly:1.0000001"
        )
        cfg = write_cfg(tmp_path, text + "uc.r_list = 1,1.0000001\nuc.s = 3\n")
        out = tmp_path / "out"
        for sub in ("linear", "uc", "diagnose"):
            assert execute([sub, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == ("t,l2,hs_1,hs_1.0000001,zmode_linf_drift,moment_x,"
                          "w_poly1,w_poly1.0000001")
        assert (out / "persistence.csv").read_text().splitlines()[0] == "t,z_1,z_1.0000001"
        labels = [line.split(",")[0] for line in (out / "diagnose.csv").read_text().splitlines()]
        assert len(set(labels)) == len(labels)
        assert "l2r_1.0000001" in labels and "zsr_3_1.0000001" in labels

    def test_moment_residual_null_unless_x_mean_vanishes(self, tmp_path):
        # gaussian data has a nonzero x-mean transform, so its x-tails reach
        # the box edge and the box moment follows no law: JSON null; the
        # dx_gaussian's vanishes and its residual is measured
        for kind in ("gaussian", "dx_gaussian"):
            text = SIM_CFG.replace("data.kind = gaussian", f"data.kind = {kind}")
            cfg = write_cfg(tmp_path, text, f"{kind}.cfg")
            out = tmp_path / kind
            assert execute(["linear", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            cons = read_strict_json(out / "summary.json")["conservation"]
            assert cons["l2_drift"] < 1e-12
            if kind == "gaussian":
                assert cons["moment_residual"] is None
            else:
                assert 0.0 <= cons["moment_residual"] < 1e-2

    def test_uc_moment_null_unless_x_mean_vanishes(self, tmp_path):
        # uc's conservation block is simulate's: its moment residual is JSON
        # null for gaussian data, whose box moment follows no law
        for kind in ("gaussian", "dx_gaussian"):
            text = SIM_CFG.replace("grid.nx = 48", "grid.nx = 64").replace(
                "grid.ny = 48", "grid.ny = 64"
            ).replace("16pi", "8pi").replace("solver.stride = 5", "solver.stride = 2")
            text = text.replace("data.kind = gaussian", f"data.kind = {kind}")
            cfg = write_cfg(tmp_path, text + "uc.levels = 3\nuc.r_list = 1\nuc.s = 2\n", f"{kind}.cfg")
            out = tmp_path / kind
            assert execute(["uc", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            cons = read_strict_json(out / "summary.json")["conservation"]
            assert set(cons) == {"l2_drift", "zero_mode_drift", "moment_residual"}
            if kind == "gaussian":
                assert cons["moment_residual"] is None
            else:
                assert cons["moment_residual"] >= 0.0

    def test_uc_conservation_is_simulates_on_three_records(self, tmp_path):
        # configs/moment.cfg recording only t = 0, 0.25 and 0.5: uc reports
        # the block that simulate reports on the same manifest
        text = (Path(__file__).resolve().parents[1] / "configs" / "moment.cfg").read_text()
        assert "solver.stride = 20\n" in text
        cfg = write_cfg(tmp_path, text.replace("solver.stride = 20\n", "solver.stride = 500\n"))
        blocks = {}
        for sub in ("simulate", "uc"):
            out = tmp_path / sub
            assert execute([sub, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            blocks[sub] = read_strict_json(out / "summary.json")["conservation"]
        assert blocks["uc"] == blocks["simulate"]
        assert blocks["uc"]["moment_residual"] is not None
        assert (tmp_path / "simulate" / "series.csv").read_text().count("\n") == 4

    def test_picard_subcommand(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SIM_CFG + "picard.t_final = 0.02\npicard.mu = 0.1\n",
        )
        out = tmp_path / "outpic"
        assert execute(["picard", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "picard_residuals.csv").read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) >= 3

    def test_uc_subcommand(self, tmp_path):
        text = SIM_CFG.replace("grid.nx = 48", "grid.nx = 96").replace(
            "grid.ny = 48", "grid.ny = 96"
        ).replace("data.kind = gaussian", "data.kind = dx_gaussian")
        text = text.replace("solver.stride = 5", "solver.stride = 2")
        cfg = write_cfg(tmp_path, text + "uc.r_list = 1\nuc.s = 2\nuc.t = 0.5\n")
        out = tmp_path / "outuc"
        assert execute(["uc", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        report = (out / "uc_report.csv").read_text().splitlines()
        assert report[0] == "level,window_norm,ratio,verdict"
        assert report[1].endswith("persists")
        assert (out / "persistence.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["b1_verdict"] == "persists"
        assert summary["conservation"]["moment_residual"] is not None

    def test_file_data_roundtrip(self, tmp_path):
        g = make_grid(48, 48, 16 * math.pi, 16 * math.pi)
        snap = tmp_path / "seed.bozk"
        from bozk import fields

        write_snapshot(snap, fields.gaussian(g, 0.4))
        text = SIM_CFG.replace("data.kind = gaussian", "data.kind = file")
        cfg = write_cfg(tmp_path, text + f"data.path = {snap}\n")
        out = tmp_path / "outfile"
        assert execute(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        # a NaN in the input data is a bad input, not a numerical abort
        raw = bytearray(snap.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        snap.write_bytes(bytes(raw))
        out = tmp_path / "outnan"
        assert execute(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not (out / "abort.json").exists()

    @pytest.mark.parametrize("damage", ["short_header", "missing", "trailing_bytes"])
    def test_bad_snapshot_exit_two(self, tmp_path, damage):
        # an unreadable data file is bad input: exit 2, no abort.json
        snap = tmp_path / "seed.bozk"
        write_snapshot(snap, RealField.zeros(make_grid(48, 48, 16 * math.pi, 16 * math.pi)))
        raw = snap.read_bytes()
        if damage == "short_header":
            snap.write_bytes(raw[:20])
        elif damage == "missing":
            snap.unlink()
        else:
            snap.write_bytes(raw + b"\0" * 8)
        with pytest.raises(ValueError):
            read_snapshot(snap)
        text = SIM_CFG.replace("data.kind = gaussian", "data.kind = file")
        cfg = write_cfg(tmp_path, text + f"data.path = {snap}\n")
        out = tmp_path / "out"
        assert execute(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not (out / "abort.json").exists()

    def test_reproducibility_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        execute(["simulate", "--config", cfg, "--out", str(o1), "--seed", "9", "--quiet"])
        execute(["simulate", "--config", cfg, "--out", str(o2), "--seed", "9", "--quiet"])
        assert (o1 / "series.csv").read_bytes() == (o2 / "series.csv").read_bytes()
        assert (o1 / "final.bozk").read_bytes() == (o2 / "final.bozk").read_bytes()

    def test_missing_config(self, tmp_path):
        assert execute(["simulate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = execute(["simulate", "--config", str(tmp_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err
        assert not out.exists()

    def test_out_not_a_directory_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        assert execute(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "cannot create output directory" in capsys.readouterr().err
        assert out.read_text() == "a file, not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]

    def test_verify_on_defaults(self, tmp_path):
        out = tmp_path / "outv"
        assert execute(["verify", "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "suite,check,measured,reference,passed"
        assert all(line.endswith("true") for line in lines[1:])
        suites = [line.split(",")[0] for line in lines[1:]]
        assert suites == sorted(suites, key=["weights", "stein", "ratios"].index)
        assert set(suites) == {"weights", "stein", "ratios"}

    def test_verify_failure_exit_four_with_its_files(self, tmp_path, monkeypatch):
        weights = cli._verify_weights

        def failing(rows, seed):
            weights(rows, seed)
            rows.append(["weights", "forced_failure", 1.0, 0.0, False])

        monkeypatch.setattr(cli, "_verify_weights", failing)
        out = tmp_path / "outv"
        assert execute(["verify", "--out", str(out), "--quiet"]) == EXIT_VERIFY
        lines = (out / "verify.csv").read_text().splitlines()
        assert [line for line in lines if line.endswith("false")] == [
            "weights,forced_failure,1,0,false"
        ]
        summary = read_strict_json(out / "summary.json")
        assert summary["subcommand"] == "verify"
        assert summary["failures"] == 1 and summary["checks"] == len(lines) - 1

    def test_verify_suites_run_in_order_on_one_worker(self, tmp_path, monkeypatch):
        calls = []
        active = []

        def fake(name):
            def suite(rows, seed):
                active.append(name)
                time.sleep(0.02)  # long enough for suites run at once to overlap
                calls.append((name, threading.get_ident(), len(active)))
                rows.append([name, "check", 1.0, 1.0, True])
                active.remove(name)
            return suite

        for name in ("weights", "stein", "ratios"):
            monkeypatch.setattr(cli, f"_verify_{name}", fake(name))
        out = tmp_path / "outv"
        assert execute(["verify", "--out", str(out), "--quiet"]) == EXIT_OK
        assert [c[0] for c in calls] == ["weights", "stein", "ratios"]
        assert {c[2] for c in calls} == {1}  # never two suites at once
        threads = {c[1] for c in calls}
        assert len(threads) == 1 and threads != {threading.get_ident()}
        lines = (out / "verify.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["weights", "stein", "ratios"]

    def test_verify_suite_error_on_the_worker_exit_two_without_files(
        self, tmp_path, monkeypatch, capsys
    ):
        where = []

        def broken(rows, seed):
            where.append(threading.get_ident())
            raise ValueError("suite cannot run")

        monkeypatch.setattr(cli, "_verify_stein", broken)
        out = tmp_path / "outv"
        assert execute(["verify", "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert where and where[0] != threading.get_ident()
        assert "suite cannot run" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_uc_domain_growth_output(self, tmp_path):
        text = """
grid.nx = 128
grid.ny = 128
grid.lx = 16pi
grid.ly = 16pi
data.kind = gaussian
data.amplitude = 0.75
data.sigma_x = 1.2
data.sigma_y = 1.2
solver.dt = 2e-3
solver.t_final = 0.1
solver.stride = 10
uc.r_list = 1
uc.s = 2
uc.doublings = 1
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "outg"
        assert execute(["uc", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        header = (out / "growth.csv").read_text().splitlines()[0]
        assert header == "length,ind_2,ind_2.5"
        summary = json.loads((out / "summary.json").read_text())
        assert "domain_growth" in summary


# Runs `linear` on random_smooth data and then `verify` in one interpreter,
# and reports whether numpy.random and concurrent.futures were imported
# after each.
NO_NUMPY_RANDOM = """
import sys
from bozk.cli import execute

cfg, out = sys.argv[1:]
for argv in (["linear", "--config", cfg], ["verify"]):
    code = execute(argv + ["--out", out + "/" + argv[0], "--quiet"])
    print(argv[0], code, "numpy.random" in sys.modules, "concurrent.futures" in sys.modules)
"""


def test_random_data_and_verify_never_import_numpy_random(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("data.kind = gaussian", "data.kind = random_smooth"))
    src = str(Path(bozk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, cfg, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["linear 0 False False", "verify 0 False False"]


# Runs every subcommand in one interpreter with numpy.linalg's solvers and
# eigen-decompositions refused, np.polyfit's own binding of lstsq among
# them; reports each exit code and whether numpy.polynomial was imported by
# then.
NO_LAPACK = """
import sys
import numpy as np
import numpy.lib._polynomial_impl as polynomial_impl


def refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg called")


for name in ("solve", "eigvalsh", "eigh", "eig", "inv", "lstsq", "svd"):
    setattr(np.linalg, name, refuse)
polynomial_impl.lstsq = refuse
from bozk.cli import execute

cfg, out = sys.argv[1:]
for sub in ("simulate", "linear", "diagnose", "uc", "verify", "picard"):
    code = execute([sub, "--config", cfg, "--out", out + "/" + sub, "--quiet"])
    print(sub, code, "numpy.polynomial" in sys.modules)
"""


def test_no_subcommand_imports_numpy_polynomial_or_calls_linalg(tmp_path):
    # trunc:1 runs the monotone blend, trunc:8 the quintic; an 8pi box
    # resolves the gaussian for uc's obstruction indicator
    text = SIM_CFG.replace("16pi", "8pi").replace(
        "diag.weights = poly:1", "diag.weights = trunc:1,trunc:8"
    )
    text += "picard.t_final = 0.02\npicard.mu = 0.1\nuc.r_list = 1\nuc.s = 2\n"
    src = str(Path(bozk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", NO_LAPACK, write_cfg(tmp_path, text), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        f"{sub} {EXIT_OK} False"
        for sub in ("simulate", "linear", "diagnose", "uc", "verify", "picard")
    ]
    header = (tmp_path / "out" / "linear" / "series.csv").read_text().splitlines()[0]
    assert header.endswith("w_trunc1,w_trunc8")
