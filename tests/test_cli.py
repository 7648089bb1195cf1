"""Config parsing, seed derivation, mode execution, determinism, and exit codes."""

import csv
import json
import os
import subprocess
import sys

import pytest

from sparsespike import cli
from sparsespike.errors import ConfigError


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


RR4 = {"kind": "regular", "c": 4}


class TestSeedDerivation:
    def test_deterministic(self):
        assert cli.seed_derivation(7, 3, "graph") == cli.seed_derivation(7, 3, "graph")

    def test_index_separation(self):
        assert cli.seed_derivation(7, 3, "graph") != cli.seed_derivation(7, 4, "graph")

    def test_role_separation(self):
        assert cli.seed_derivation(7, 3, "graph") != cli.seed_derivation(7, 3, "spike")

    def test_collision_scan(self):
        seen = {cli.seed_derivation(0, i, "graph") for i in range(1_000_000)}
        assert len(seen) == 1_000_000


class TestConfigParsing:
    def test_minimal(self):
        cfg = cli.parse_config({"mode": "analytic", "degree": RR4})
        assert cfg.mode == "analytic"
        assert cfg.theta == [0.0]

    def test_scalar_theta_promoted(self):
        cfg = cli.parse_config({"mode": "analytic", "degree": RR4, "theta": 4.0})
        assert cfg.theta == [4.0]

    @pytest.mark.parametrize("raw,fragment", [
        ({}, "mode"),
        ({"mode": "nope", "degree": RR4}, "mode"),
        ({"mode": "diag", "degree": RR4, "theta": []}, "theta"),
        ({"mode": "diag", "degree": RR4, "n": 1}, "n"),
        ({"mode": "diag", "degree": RR4, "instances": 0}, "instances"),
        ({"mode": "diag", "degree": RR4, "typo_field": 1}, "typo_field"),
        ({"mode": "diag", "degree": {"kind": "hexagonal"}}, "hexagonal"),
        ({"mode": "diag", "degree": RR4, "theta": [-1.0]}, "theta"),
        ({"mode": "diag", "degree": RR4, "n": 100.0}, "n must be an integer"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"n_pop": 2e4}}, "popdyn.n_pop"),
    ])
    def test_rejects_bad_fields(self, raw, fragment):
        with pytest.raises(ConfigError, match=fragment):
            cli.parse_config(raw)


class TestAnalyticMode:
    def test_rr_values_printed(self, tmp_path, capsys):
        cfg = cli.parse_config({
            "mode": "analytic", "degree": RR4, "theta": [4.0],
            "out_dir": str(tmp_path),
        })
        cli.run(cfg)
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.splitlines() if "=" in line)
        assert abs(float(values["theta_b"]) - 1.1547005383792517) < 1e-12
        assert abs(float(values["theta_crit"]) - 2.6666666666666665) < 1e-12
        assert abs(float(values["lambda_top"]) - 4.944271909999159) < 1e-12
        assert abs(float(values["overlap_sq"]) - 0.7888543819998317) < 1e-12
        header = (tmp_path / "analytic.csv").read_text().splitlines()
        assert header[0].startswith("# config: ")
        assert header[1] == "# seed: 0"


class TestDiagMode:
    def test_rr_theta_zero_perron(self, tmp_path):
        # every 4-regular graph has top eigenvalue exactly 4
        cfg = cli.parse_config({
            "mode": "diag", "degree": RR4, "theta": [0.0],
            "n": 200, "instances": 3, "out_dir": str(tmp_path), "seed": 5,
        })
        rows = cli.run_diag(cfg)
        assert len(rows) == 3
        for row in rows:
            assert abs(row["lambda_top"] - 4.0) < 1e-6
        text = (tmp_path / "diag.csv").read_text().splitlines()
        assert len(text) == 2 + 1 + 3  # two header comments, column row, rows

    def test_rerun_byte_identical(self, tmp_path):
        raw = {"mode": "diag", "degree": RR4, "theta": [2.0],
               "n": 150, "instances": 2, "seed": 9}
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.run(cli.parse_config({**raw, "out_dir": str(out_a)}))
        cli.run(cli.parse_config({**raw, "out_dir": str(out_b)}))
        csv_a = (out_a / "diag.csv").read_text().replace(str(out_a), "OUT")
        csv_b = (out_b / "diag.csv").read_text().replace(str(out_b), "OUT")
        assert csv_a == csv_b

    def test_parallel_serial_equivalence(self, tmp_path):
        raw = {"mode": "diag", "degree": RR4, "theta": [2.0],
               "n": 150, "instances": 4, "seed": 11}
        out_a = tmp_path / "serial"
        out_b = tmp_path / "par"
        cli.run(cli.parse_config({**raw, "out_dir": str(out_a), "workers": 1}))
        cli.run(cli.parse_config({**raw, "out_dir": str(out_b), "workers": 3}))
        csv_a = (out_a / "diag.csv").read_text().replace(str(out_a), "OUT").replace('"workers": 1', "W")
        csv_b = (out_b / "diag.csv").read_text().replace(str(out_b), "OUT").replace('"workers": 3', "W")
        assert csv_a == csv_b

    def test_edgeless_graph(self, tmp_path):
        # all degree mass at 0: theta = 0 is the zero operator, theta = 1 a lone rank-one spike
        out = tmp_path / "out"
        path = write_config(tmp_path, mode="diag", degree={"kind": "table", "probs": [1.0]},
                            theta=[0, 1], n=50, instances=2, out_dir=str(out))
        assert cli.main([path]) == 0
        with open(out / "diag.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 4
        for row in rows:
            lam, lam2 = float(row["lambda_top"]), float(row["lambda_second"])
            if float(row["theta"]) == 0.0:
                assert lam == 0.0 and lam2 == 0.0
            else:
                assert lam > 0.1 and abs(lam2) < 1e-12


class TestSweepMode:
    def test_grid_rows_and_analytic_columns(self, tmp_path):
        cfg = cli.parse_config({
            "mode": "sweep", "degree": RR4, "theta": [0.5, 4.0], "c_grid": [3, 4],
            "n": 150, "instances": 2, "out_dir": str(tmp_path), "seed": 1,
        })
        rows = cli.run_sweep(cfg)
        assert len(rows) == 4  # |theta grid| x |c grid|
        for row in rows:
            assert row["theta_crit"] is not None
            assert row["instances"] == 2
        at4 = [r for r in rows if r["theta"] == 4.0 and r["c"] == 4][0]
        assert abs(at4["analytic_lambda_theta"] - 4.944271909999159) < 1e-12

    def test_sweep_rerun_byte_identical(self, tmp_path):
        raw = {"mode": "sweep", "degree": RR4, "theta": [0.5, 4.0], "c_grid": [4],
               "n": 150, "instances": 2, "seed": 2}
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.run(cli.parse_config({**raw, "out_dir": str(out_a)}))
        cli.run(cli.parse_config({**raw, "out_dir": str(out_b)}))
        csv_a = (out_a / "sweep.csv").read_text().replace(str(out_a), "OUT")
        csv_b = (out_b / "sweep.csv").read_text().replace(str(out_b), "OUT")
        assert csv_a == csv_b


class TestPopdynMode:
    def test_rr_small(self, tmp_path):
        cfg = cli.parse_config({
            "mode": "popdyn", "degree": RR4, "theta": [4.0],
            "out_dir": str(tmp_path), "seed": 3, "save_checkpoint": True,
            "popdyn": {"n_pop": 5000, "alpha_samples": 50_000, "alpha_tol": 0.05,
                       "plateau_tol": 5e-3},
        })
        rows = cli.run_popdyn(cfg)
        assert len(rows) == 1
        assert abs(rows[0]["lambda"] - 4.944271909999159) / 4.944 < 0.01
        assert (tmp_path / "population_theta4.npz").exists()
        assert (tmp_path / "popdyn.csv").exists()


class TestDensitiesMode:
    def test_files_written(self, tmp_path):
        cfg = cli.parse_config({
            "mode": "densities", "degree": RR4, "theta": [4.0],
            "out_dir": str(tmp_path), "seed": 4, "density_samples": 20_000,
            "popdyn": {"n_pop": 5000, "alpha_samples": 50_000, "alpha_tol": 0.05,
                       "plateau_tol": 5e-3},
        })
        cli.run(cfg)
        for name in ("rho_top_hist.csv", "rho_ov_hist.csv", "rho_top_samples.csv",
                     "rho_ov_samples.csv", "omega_cdf.csv", "h_cdf.csv"):
            assert (tmp_path / name).exists(), name
        hist = (tmp_path / "rho_top_hist.csv").read_text().splitlines()
        mass = sum(float(line.split(",")[2]) for line in hist if not line.startswith(("#", "bin")))
        assert abs(mass - 1.0) < 1e-9


class TestMainExitCodes:
    def test_missing_file(self, capsys):
        assert cli.main(["/nonexistent/config.json"]) == 2

    def test_config_error(self, tmp_path):
        path = write_config(tmp_path, mode="warp", degree=RR4)
        assert cli.main([path]) == 2

    def test_generation_failure(self, tmp_path):
        # a degree table forcing degree 5 on n=5 nodes is infeasible
        path = write_config(
            tmp_path, mode="diag",
            degree={"kind": "table", "probs": [0, 0, 0, 0, 0, 1]},
            theta=[0.0], n=5, instances=1, out_dir=str(tmp_path / "out"),
        )
        assert cli.main([path]) == 4

    def test_solver_failure(self, tmp_path):
        # one rescale round with an unreachable tolerance from a cold start
        path = write_config(
            tmp_path, mode="popdyn", degree=RR4, theta=[4.0],
            out_dir=str(tmp_path / "out"), warm_start=False,
            popdyn={"n_pop": 2000, "alpha_samples": 10_000, "alpha_tol": 1e-4,
                    "max_rescales": 1, "plateau_tol": 5e-3},
        )
        assert cli.main([path]) == 3

    def test_eigensolver_budget_exhausted(self, tmp_path):
        # 3 matvecs cannot converge: NotConverged reaches main as a solver failure
        path = write_config(
            tmp_path, mode="diag", degree=RR4, theta=[2.0], n=200, instances=1,
            eig_max_iter=3, out_dir=str(tmp_path / "out"),
        )
        assert cli.main([path]) == 3

    def test_success_and_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="analytic", degree=RR4, theta=[4.0])
        out_dir = tmp_path / "cli_out"
        assert cli.main([path, "--out-dir", str(out_dir), "--seed", "123"]) == 0
        header = (out_dir / "analytic.csv").read_text().splitlines()
        assert header[1] == "# seed: 123"


def test_cli_import_skips_optimize_and_arpack():
    # importing scipy.optimize costs about 0.4 s and 27 MB, scipy.sparse.linalg
    # about 0.15 s and 10 MB; the modes without eigensolves must not pay for them
    code = ("import sys, sparsespike.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse.linalg') if m in sys.modules])")
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
