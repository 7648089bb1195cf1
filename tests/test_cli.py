"""Config parsing, seed derivation, mode execution, determinism, and exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sparsespike import cli, popdyn, spectral
from sparsespike.errors import ConfigError, GenerationError, SolverError, SparseSpikeError


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def _csv_rows(path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


RR4 = {"kind": "regular", "c": 4}
PO3 = {"kind": "truncated_poisson", "cbar": 3.0, "k_max": 8}
PO35_RADEMACHER = {"degree": {"kind": "truncated_poisson", "cbar": 3.5, "k_max": 12},
                   "weight": {"kind": "rademacher_scaled", "scale": 1.0}}


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
        ({"mode": "analytic", "degree": {"kind": "table", "probs": [0.2, 0.3, 0.5]}}, "'table' degree table"),
        ({"mode": "sweep", "degree": {"kind": "table", "probs": [0.2, 0.3, 0.5]}}, "'table' degree table"),
        ({"mode": "analytic", "degree": RR4, "theta": None}, "theta"),
        ({"mode": "analytic", "degree": RR4, "theta": ["x"]}, "theta"),
        ({"mode": "analytic", "degree": RR4, "theta": "12"}, "theta"),
        ({"mode": "analytic", "degree": RR4, "theta": [float("nan")]}, "theta"),
        ({"mode": "analytic", "degree": RR4, "theta": [float("inf")]}, "theta"),
        ({"mode": "analytic", "degree": RR4, "theta": [True]}, "theta"),
        ({"mode": "analytic", "degree": RR4, "theta": [10**400]}, "theta"),
        ({"mode": "analytic", "degree": RR4, "c_grid": [None]}, "c_grid"),
        ({"mode": "analytic", "degree": RR4, "c_grid": [float("nan")]}, "c_grid"),
        ({"mode": "analytic", "degree": RR4, "c_grid": "4"}, "c_grid"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"chunk": 4096}}, "chunk"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"plateau_window": 10}}, "plateau_window"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"plateau_tol": 1e-3}}, "plateau_tol"),
        # model parameters run as written: an int one must be an int, a real one a finite number
        ({"mode": "diag", "degree": {"kind": "regular", "c": 4.7}}, "degree.c must be an integer"),
        ({"mode": "diag", "degree": {"kind": "regular", "c": 4.0}}, "degree.c must be an integer"),
        ({"mode": "diag", "degree": {"kind": "regular", "c": "4"}}, "degree.c must be an integer"),
        ({"mode": "diag", "degree": {"kind": "regular"}}, "degree.c must be an integer, got None"),
        ({"mode": "sweep", "degree": RR4, "c_grid": [4.5]}, "c_grid entry must be an integer"),
        ({"mode": "analytic", "degree": RR4, "c_grid": [4, True]}, "c_grid entry must be"),
        ({"mode": "analytic", "degree": {**PO3, "k_max": 8.5}}, "degree.k_max must be an integer"),
        ({"mode": "analytic", "degree": {**PO3, "cbar": "3"}}, "degree.cbar must be a finite number"),
        ({"mode": "analytic", "degree": RR4, "weight": {"kind": "constant", "w": True}}, "weight.w"),
        ({"mode": "analytic", "degree": RR4, "weight": {"kind": "rademacher_scaled", "scale": float("nan")}},
         "weight.scale"),
        ({"mode": "analytic", "degree": RR4, "weight": {"kind": "rademacher_scaled"}}, "weight.scale"),
        ({"mode": "analytic", "degree": RR4, "spike": {"kind": "gaussian", "sigma_x2": [1.0]}}, "spike.sigma_x2"),
        ({"mode": "analytic", "degree": RR4, "spike": {"kind": "rademacher", "sigma_x2": "1"}}, "spike.sigma_x2"),
        # fields a mode would drop unread
        ({"mode": "diag", "degree": RR4, "c_grid": [4]}, "only analytic and sweep read c_grid"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "c_grid": [4]}, "only analytic and sweep read c_grid"),
        ({"mode": "densities", "degree": RR4, "theta": [4.0], "c_grid": [4]}, "only analytic and sweep read c_grid"),
        ({"mode": "densities", "degree": RR4, "theta": [4.0, 6.0]}, "densities mode samples one theta, got 2"),
        # a repeated grid point would enter the summary and the SE twice
        ({"mode": "diag", "degree": RR4, "theta": [4.0, 4.0], "instances": 2}, "theta has a repeated value"),
        ({"mode": "analytic", "degree": RR4, "theta": [0.0, -0.0]}, "theta has a repeated value"),
        ({"mode": "sweep", "degree": RR4, "c_grid": [3, 3], "instances": 2}, "c_grid has a repeated value"),
        ({"mode": "analytic", "degree": PO3, "c_grid": [4, 4.0]}, "c_grid has a repeated value"),
        # the eigensolver's tolerance and budget are module constants, not fields
        ({"mode": "diag", "degree": RR4, "eig_tol": 1e-10}, "unknown config field 'eig_tol'"),
        # a count below its floor, an empty grid
        ({"mode": "diag", "degree": RR4, "workers": 0}, "workers must be >= 1"),
        ({"mode": "densities", "degree": RR4, "theta": [4.0], "density_samples": 0}, "density_samples must be >= 1"),
        ({"mode": "analytic", "degree": RR4, "c_grid": []}, "c_grid is empty"),
        # scalar fields run as written too
        ({"mode": "analytic", "degree": PO3, "lambda_structural": "5.0"}, "lambda_structural must be a finite number"),
        ({"mode": "analytic", "degree": PO3, "lambda_structural": True}, "lambda_structural must be a finite number"),
        ({"mode": "analytic", "degree": PO3, "lambda_structural": float("inf")}, "lambda_structural must be"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "warm_start": True}, "unknown config field 'warm_start'"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"max_rescales": 1}}, "max_rescales"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "save_checkpoint": "false"},
         "unknown config field 'save_checkpoint'"),
        ({"mode": "diag", "degree": RR4, "out_dir": 5}, "out_dir must be a string"),
        ({"mode": "diag", "degree": RR4, "out_dir": None}, "out_dir must be a string"),
        ({"mode": "densities", "degree": RR4, "theta": [4.0], "checkpoint": 7}, "unknown config field 'checkpoint'"),
        ({"mode": "diag", "degree": RR4, "eig_max_iter": 20_000}, "unknown config field 'eig_max_iter'"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"max_sweeps": 0}}, "budgets must be positive"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"alpha_tol": float("nan")}},
         "alpha_tol must be a finite positive number"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"alpha_tol": True}},
         "alpha_tol must be a finite positive number"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": {"lambda_init": 10.0}}, "lambda_init"),
        # a law field its kind does not read would run unread, or show in a CSV column it does not set
        ({"mode": "diag", "degree": {"kind": "regular", "c": 4, "cbar": 9, "k_max": 3}},
         "a 'regular' degree law does not read 'cbar', 'k_max'"),
        ({"mode": "diag", "degree": {"kind": "table", "probs": [0.0, 0.5, 0.5], "c": 7}},
         "a 'table' degree law does not read 'c'"),
        ({"mode": "analytic", "degree": RR4, "weight": {"kind": "constant", "w": 1.0, "scale": 3}},
         "a 'constant' weight law does not read 'scale'"),
        ({"mode": "analytic", "degree": RR4, "spike": {"kind": "custom", "values": [-1, 1], "probs": [1, 1],
                                                        "sigma_x2": 2.0}}, "a 'custom' spike law does not read 'sigma_x2'"),
        ({"mode": "sweep", "degree": {"kind": "truncated_poisson", "cbar": 3, "c": 3}, "c_grid": [3, 4]},
         "a 'truncated_poisson' degree law does not read 'c'"),
        # a supplied structural eigenvalue below the spectral edge, caught before any graph is built
        ({"mode": "analytic", **PO35_RADEMACHER, "lambda_structural": 4.2},
         "lambda_structural=4.2 is below the spectral edge 4.25883741616"),
        ({"mode": "sweep", **PO35_RADEMACHER, "lambda_structural": 4.2, "n": 300, "instances": 2},
         "lambda_structural=4.2 is below the spectral edge 4.25883741616"),
        ({"mode": "sweep", "degree": PO3, "c_grid": [3, 5], "lambda_structural": 4.3},
         "lambda_structural=4.3 is below the spectral edge 4.42650712585"),
        # a law or popdyn block must be an object, as degree is, not a list of pairs
        ({"mode": "analytic", "degree": RR4, "weight": [["kind", "constant"], ["w", 1.0]]},
         "weight must be a JSON object"),
        ({"mode": "analytic", "degree": RR4, "spike": [["kind", "gaussian"]]}, "spike must be a JSON object"),
        ({"mode": "popdyn", "degree": RR4, "theta": [4.0], "popdyn": [["n_pop", 1000]]},
         "popdyn must be a JSON object"),
        # a structural eigenvalue that only analytic and sweep would read
        ({"mode": "diag", "degree": PO3, "lambda_structural": 5.0}, "only analytic and sweep read lambda_structural"),
        ({"mode": "popdyn", "degree": PO3, "theta": [6.0], "lambda_structural": 5.0},
         "only analytic and sweep read lambda_structural"),
        ({"mode": "densities", "degree": PO3, "theta": [6.0], "lambda_structural": 5.0},
         "only analytic and sweep read lambda_structural"),
    ])
    def test_rejects_bad_fields(self, raw, fragment):
        with pytest.raises(ConfigError, match=fragment):
            cli.parse_config(raw)

    def test_structural_at_the_edge_accepted(self):
        # equality is admissible; regular constant-weight noise reads c w, not the value
        degree_model, weight_model, _ = cli.build_models(cli.parse_config({"mode": "analytic", **PO35_RADEMACHER}))
        edge = cli.analytic.admissible_lambda_floor(degree_model, weight_model.second_moment_w)
        cli.parse_config({"mode": "analytic", **PO35_RADEMACHER, "lambda_structural": edge})
        with pytest.raises(ConfigError, match="below the spectral edge"):
            cli.parse_config({"mode": "analytic", **PO35_RADEMACHER, "lambda_structural": np.nextafter(edge, 0.0)})
        cli.parse_config({"mode": "sweep", "degree": RR4, "weight": {"kind": "constant", "w": 0.7},
                          "lambda_structural": 0.5})


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

    @pytest.mark.parametrize("mode", ["analytic", "sweep"])
    def test_regular_chain_closed_forms(self, tmp_path, mode):
        # c = 2 unit-weight noise (a union of cycles): theta_b = theta_crit = 0
        path = write_config(tmp_path, mode=mode, degree={"kind": "regular", "c": 2}, theta=[1.0],
                            n=60, instances=1)
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        rows = _csv_rows(tmp_path / f"{mode}.csv")
        assert float(rows[0]["theta_crit"]) == 0.0
        assert float(rows[0]["theta_b"]) == 0.0

    def test_signal_root_next_to_cap_edge(self, tmp_path):
        # lambda_structural at the spectral edge gives theta_crit = 0; the
        # signal root at theta = 2 then lies within 1e-8 relative of the edge
        path = write_config(
            tmp_path, mode="analytic", theta=[2.0], lambda_structural=4.958878571839817,
            degree={"kind": "truncated_poisson", "cbar": 3.5, "k_max": 20},
        )
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        rows = _csv_rows(tmp_path / "analytic.csv")
        assert float(rows[0]["theta_crit"]) == 0.0
        assert 0.0 < float(rows[0]["overlap_sq"]) < 1e-6

    def test_theta_zero_on_poisson_noise(self, tmp_path):
        # theta = 0 has no signal branch: the row reports the structural eigenvalue
        path = write_config(
            tmp_path, mode="analytic", theta=[0.0, 6.0], lambda_structural=5.0713,
            degree={"kind": "truncated_poisson", "cbar": 4, "k_max": 20},
        )
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        rows = _csv_rows(tmp_path / "analytic.csv")
        assert [float(r["theta"]) for r in rows] == [0.0, 6.0]
        assert rows[0]["lambda_theta"] == ""
        assert float(rows[0]["overlap_sq"]) == 0.0
        assert float(rows[0]["lambda_top"]) == 5.0713
        assert float(rows[1]["lambda_theta"]) > 6.0

    def test_regular_closed_form_beats_supplied_structural(self, tmp_path):
        # c w is exact for regular constant-weight noise: a supplied value is ignored
        path = write_config(tmp_path, mode="analytic", degree=RR4, weight={"kind": "constant", "w": 0.7},
                            lambda_structural=3.0, theta=[0.0, 2.0, 5.0])
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        rows = _csv_rows(tmp_path / "analytic.csv")
        assert [float(r["lambda_structural"]) for r in rows] == [2.8] * 3
        assert all(float(r["lambda_top"]) >= 2.8 for r in rows)

    def test_regular_weight_reads_every_closed_form(self, tmp_path):
        # w != 1 fills theta_b, c_crit and c_b too, the closed forms scaled by w
        path = write_config(tmp_path, mode="analytic", degree=RR4, weight={"kind": "constant", "w": 0.7},
                            theta=[0.5, 2.0, 5.0])
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        for row in _csv_rows(tmp_path / "analytic.csv"):
            rep = cli.analytic.rr_report(4, 1.0, float(row["theta"]), 0.7)
            for name, value in rep.as_flat_dict().items():
                assert float(row[name]) == value
            assert (row["lambda_theta"] == "") == (rep.lambda_theta is None)
        assert float(row["theta_b"]) == pytest.approx(0.8083, abs=1e-4)

    @pytest.mark.parametrize("mode", ["analytic", "sweep"])
    def test_regular_chain_theta_zero_has_no_signal(self, tmp_path, mode):
        # theta_b = 0 on the chain c = 2, yet theta = 0 has no signal branch
        path = write_config(tmp_path, mode=mode, degree={"kind": "regular", "c": 2}, theta=[0.0, 1.0],
                            n=60, instances=1)
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        column = "lambda_theta" if mode == "analytic" else "analytic_lambda_theta"
        rows = _csv_rows(tmp_path / f"{mode}.csv")
        assert rows[0][column] == ""
        assert float(rows[1][column]) > 2.0

    def test_structural_eigenvalue_solved(self, tmp_path, poisson_structural_diag):
        # no lambda_structural in the config: the population solver supplies it
        path = write_config(
            tmp_path, mode="analytic", theta=[6.0], popdyn={"n_pop": 30_000},
            degree={"kind": "truncated_poisson", "cbar": 4, "k_max": 20},
        )
        assert cli.main([path, "--out-dir", str(tmp_path)]) == 0
        rows = _csv_rows(tmp_path / "analytic.csv")
        ref = poisson_structural_diag
        assert abs(float(rows[0]["lambda_structural"]) - ref["mean"]) < ref["margin"]
        # about 4.26 for lambda_structural 5.25-5.26 (4.00 for 5.07)
        assert abs(float(rows[0]["theta_crit"]) - 4.26) < 0.1


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
        # a theta grid, so a worker may get an instance's theta values apart
        raw = {"mode": "diag", "degree": RR4, "theta": [2.0, 4.0],
               "n": 150, "instances": 4, "seed": 11}
        texts = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            cli.run(cli.parse_config({**raw, "out_dir": str(out), "workers": workers}))
            texts.append([(out / name).read_text().replace(str(out), "OUT").replace(f'"workers": {workers}', "W")
                          for name in ("diag.csv", "diag_summary.csv")])
        assert texts[0] == texts[1] == texts[2]

    def test_theta_grid_rows_equal_single_theta_runs(self, tmp_path):
        # an instance's noise and spike are built once for all its theta
        # values; each theta's rows must be those of a run with it alone
        raw = {"mode": "diag", "degree": RR4, "n": 150, "instances": 3, "seed": 13, "out_dir": str(tmp_path)}
        both = cli.run_diag(cli.parse_config({**raw, "theta": [1.5, 4.0]}))
        alone = [row for theta in (1.5, 4.0) for row in cli.run_diag(cli.parse_config({**raw, "theta": [theta]}))]
        assert both == alone

    def test_each_instance_built_once(self, tmp_path, monkeypatch):
        builds = []
        configuration_model = cli.graphgen.configuration_model

        def logged(*args):
            builds.append(1)
            return configuration_model(*args)

        monkeypatch.setattr(cli.graphgen, "configuration_model", logged)
        cfg = cli.parse_config({"mode": "diag", "degree": RR4, "theta": [0.0, 1.5, 4.0], "n": 100,
                                "instances": 3, "seed": 17, "out_dir": str(tmp_path), "workers": 1})
        assert len(cli.run_diag(cfg)) == 9
        assert len(builds) == 3

    def test_edgeless_graph(self, tmp_path):
        # all degree mass at 0: theta = 0 is the zero operator, theta = 1 a lone rank-one spike
        out = tmp_path / "out"
        path = write_config(tmp_path, mode="diag", degree={"kind": "table", "probs": [1.0]},
                            theta=[0, 1], n=50, instances=2, out_dir=str(out))
        assert cli.main([path]) == 0
        rows = _csv_rows(out / "diag.csv")
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

    def test_parallel_serial_equivalence(self, tmp_path):
        # each (c, theta) point draws its own instances, whichever worker builds them
        raw = {"mode": "sweep", "degree": {"kind": "truncated_poisson", "cbar": 4, "k_max": 20},
               "theta": [2.0, 6.0], "lambda_structural": 5.0713, "n": 300, "instances": 2, "seed": 5}
        texts = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            cli.run(cli.parse_config({**raw, "out_dir": str(out), "workers": workers}))
            texts.append((out / "sweep.csv").read_text().replace(str(out), "OUT").replace(f'"workers": {workers}', "W"))
        assert texts[0] == texts[1] == texts[2]

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


@pytest.mark.parametrize("mode", ["analytic", "sweep"])
def test_structural_eigenvalue_once_per_c(tmp_path, monkeypatch, mode):
    """The structural eigenvalue does not depend on theta: one call per c."""
    calls = []
    structural_for = cli.structural_for

    def counted(cfg, degree_model, weight_model):
        calls.append(degree_model.mean_c)
        return structural_for(cfg, degree_model, weight_model)

    monkeypatch.setattr(cli, "structural_for", counted)
    cfg = cli.parse_config({
        "mode": mode, "degree": {"kind": "truncated_poisson", "cbar": 3.0, "k_max": 8},
        "weight": {"kind": "rademacher_scaled", "scale": 0.5},
        "theta": [2.0, 4.0, 6.0], "c_grid": [3.0, 4.0],
        "n": 100, "instances": 1, "out_dir": str(tmp_path),
    })
    cli.run(cfg)
    assert len(calls) == 2 and len(set(calls)) == 2
    csv_name = "analytic.csv" if mode == "analytic" else "sweep.csv"
    rows = _csv_rows(tmp_path / csv_name)
    assert len(rows) == 6


@pytest.mark.parametrize("fields", [
    {"degree": RR4, "c_grid": [3, 4], "theta": [0.5, 2.0, 4.0]},
    {"degree": {"kind": "truncated_poisson", "cbar": 3.5, "k_max": 12}, "c_grid": [3.5, 4],
     "lambda_structural": 4.9, "theta": [0.0, 1.0, 4.0]},
])
def test_analytic_and_sweep_share_the_analytic_columns(tmp_path, fields):
    texts = {}
    for mode in ("analytic", "sweep"):
        out = tmp_path / mode
        assert cli.main([write_config(tmp_path, mode=mode, n=60, instances=1, **fields), "--out-dir", str(out)]) == 0
        prefix = "analytic_" if mode == "sweep" else ""
        texts[mode] = [(r["c"], r["theta"], r["theta_crit"], r["theta_b"], r[prefix + "lambda_theta"],
                        r[prefix + "overlap_sq"]) for r in _csv_rows(out / f"{mode}.csv")]
    assert len(texts["analytic"]) == 6
    assert texts["analytic"] == texts["sweep"]


@pytest.mark.parametrize("degree,c_text", [
    (RR4, "4"),
    ({"kind": "truncated_poisson", "cbar": 3, "k_max": 8}, "3"),
    ({"kind": "truncated_poisson", "cbar": 3.50, "k_max": 8}, "3.5"),
    ({"kind": "table", "probs": [0.0, 0.2, 0.3, 0.5]}, ""),
])
def test_c_column_is_the_degree_parameter(tmp_path, degree, c_text):
    # diag and popdyn run the degree law as given; its c or cbar fills the c column
    for mode, files in (("diag", ("diag.csv", "diag_summary.csv")), ("popdyn", ("popdyn.csv",))):
        out = tmp_path / mode
        path = write_config(tmp_path, mode=mode, degree=degree, theta=[4.0], n=60, instances=2,
                            popdyn={"n_pop": 2000, "alpha_samples": 20_000, "alpha_tol": 0.1})
        assert cli.main([path, "--out-dir", str(out)]) == 0
        for name in files:
            assert [r["c"] for r in _csv_rows(out / name)] == [c_text] * (2 if name == "diag.csv" else 1)


TOY_POPDYN = {"n_pop": 5000, "alpha_samples": 50_000, "alpha_tol": 0.05}


def _two_runs(tmp_path, capsys, raw):
    """The bytes of every CSV and of stdout, for two runs of one config,
    with each run's out_dir masked."""
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.run(cli.parse_config({**raw, "out_dir": str(out)}))
        mask = (str(out).encode(), b"OUT")
        files = {p.name: p.read_bytes().replace(*mask) for p in sorted(out.glob("*.csv"))}
        runs.append((files, capsys.readouterr().out.encode().replace(*mask)))
    return runs


class TestPopdynMode:
    def test_rerun_byte_identical(self, tmp_path, capsys):
        raw = {"mode": "popdyn", "degree": PO3, "theta": [6.0], "seed": 6, "popdyn": TOY_POPDYN}
        (files_a, out_a), (files_b, out_b) = _two_runs(tmp_path, capsys, raw)
        assert list(files_a) == ["popdyn.csv"]
        assert files_a == files_b and out_a == out_b

    def test_rr_small(self, tmp_path):
        cfg = cli.parse_config({
            "mode": "popdyn", "degree": RR4, "theta": [4.0],
            "out_dir": str(tmp_path), "seed": 3,
            "popdyn": {"n_pop": 5000, "alpha_samples": 50_000, "alpha_tol": 0.05},
        })
        rows = cli.run_popdyn(cfg)
        assert len(rows) == 1
        assert abs(rows[0]["lambda"] - 4.944271909999159) / 4.944 < 0.01
        assert (tmp_path / "popdyn.csv").exists()


class TestDensitiesMode:
    def test_files_written(self, tmp_path):
        cfg = cli.parse_config({
            "mode": "densities", "degree": RR4, "theta": [4.0],
            "out_dir": str(tmp_path), "seed": 4, "density_samples": 20_000,
            "popdyn": {"n_pop": 5000, "alpha_samples": 50_000, "alpha_tol": 0.05},
        })
        cli.run(cfg)
        for name in ("rho_top_hist.csv", "rho_ov_hist.csv", "rho_top_samples.csv",
                     "rho_ov_samples.csv", "omega_cdf.csv", "h_cdf.csv"):
            assert (tmp_path / name).exists(), name
        hist = (tmp_path / "rho_top_hist.csv").read_text().splitlines()
        mass = sum(float(line.split(",")[2]) for line in hist if not line.startswith(("#", "bin")))
        assert abs(mass - 1.0) < 1e-9


    def test_rerun_byte_identical(self, tmp_path, capsys):
        raw = {"mode": "densities", "degree": PO3, "theta": [6.0], "seed": 6,
               "density_samples": 20_000, "popdyn": TOY_POPDYN}
        (files_a, out_a), (files_b, out_b) = _two_runs(tmp_path, capsys, raw)
        assert len(files_a) == 6 and b"overlap_sq=" in out_a
        assert files_a == files_b and out_a == out_b


class TestMainExitCodes:
    @pytest.mark.parametrize("error,code,label", [
        (SparseSpikeError, 1, "error"),
        (ConfigError, 2, "config error"),
        (SolverError, 3, "solver failure"),
        (GenerationError, 4, "generation failure"),
    ])
    def test_each_error_family(self, tmp_path, capsys, monkeypatch, error, code, label):
        def failing(cfg):
            raise error("at run")

        monkeypatch.setattr(cli, "run", failing)
        assert cli.main([write_config(tmp_path, mode="analytic", degree=RR4)]) == code
        assert capsys.readouterr().err == f"{label}: at run\n"

    def test_missing_file(self, capsys):
        assert cli.main(["/nonexistent/config.json"]) == 2

    def test_file_that_is_not_text(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff{}")
        assert cli.main([str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

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
        # an unreachable tolerance at the route's (lambda, q)
        path = write_config(
            tmp_path, mode="popdyn", degree=RR4, theta=[4.0], out_dir=str(tmp_path / "out"),
            popdyn={"n_pop": 2000, "alpha_samples": 10_000, "alpha_tol": 1e-4},
        )
        assert cli.main([path]) == 3

    @pytest.mark.parametrize("mode, theta", [("popdyn", 1.0), ("densities", 1.0), ("popdyn", 2.0), ("densities", 2.0)],
                             ids=["popdyn", "densities", "popdyn-theta2", "densities-theta2"])
    def test_no_signal_root_exits_before_any_sweep(self, tmp_path, capsys, monkeypatch, mode, theta):
        # RR4 at theta = 1 is below detachment (theta_b = 2/sqrt(3)): the route
        # has no signal root. At theta = 2, between detachment and theta_crit
        # = 8/3, its root is not the top eigenvalue. Either run ends with that
        # message before any sweep
        def no_sweep(*args):
            raise AssertionError("a population sweep ran")

        monkeypatch.setattr(popdyn, "_sweep", no_sweep)
        path = write_config(tmp_path, mode=mode, degree=RR4, theta=[theta], out_dir=str(tmp_path / "out"))
        assert cli.main([path]) == 3
        assert "theta is at or below the recovery threshold" in capsys.readouterr().err

    def test_eigensolver_budget_exhausted(self, tmp_path, monkeypatch):
        # 3 matvecs cannot converge: NotConverged reaches main as a solver failure
        monkeypatch.setattr(spectral, "_MAX_ITER", 3)
        path = write_config(
            tmp_path, mode="diag", degree=RR4, theta=[2.0], n=200, instances=1, out_dir=str(tmp_path / "out"),
        )
        assert cli.main([path]) == 3

    @pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--out-dir", "elsewhere"), ("--workers", "2")])
    def test_override_on_non_object_config(self, tmp_path, capsys, flag, value):
        # a JSON list or number is a config error with an override flag too, not a TypeError
        for text in ("[1, 2]", "7"):
            path = tmp_path / "config.json"
            path.write_text(text)
            assert cli.main([str(path), flag, value]) == 2
            assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("below_file", [False, True], ids=["empty", "below_a_file"])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, below_file):
        (tmp_path / "file").write_text("")
        out_dir = str(tmp_path / "file" / "out") if below_file else ""
        path = write_config(tmp_path, mode="analytic", degree=RR4, theta=[4.0], out_dir=out_dir)
        assert cli.main([path]) == 2
        assert "cannot create out_dir" in capsys.readouterr().err

    def test_success_and_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="analytic", degree=RR4, theta=[4.0])
        out_dir = tmp_path / "cli_out"
        assert cli.main([path, "--out-dir", str(out_dir), "--seed", "123"]) == 0
        header = (out_dir / "analytic.csv").read_text().splitlines()
        assert header[1] == "# seed: 123"


def _python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_python_m_package_runs_main(tmp_path):
    # ``python -m sparsespike`` runs cli.main and exits with its code; the
    # package imports cli, so ``python -m sparsespike.cli`` warns at start
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    path = write_config(tmp_path, mode="analytic", degree=RR4, theta=[4.0])
    run = lambda *args: subprocess.run([sys.executable, "-m", "sparsespike", *args], env=env,
                                       capture_output=True, text=True)
    out = run(path, "--out-dir", str(tmp_path / "out"))
    assert (out.returncode, out.stderr) == (0, "")
    assert "theta_crit=2.6666666666666665" in out.stdout.splitlines()
    bad = write_config(tmp_path, mode="nope", degree=RR4)
    assert run(bad).returncode == 2


def test_cli_import_skips_optimize_and_arpack():
    # scipy.optimize costs about 0.4 s and 27 MB, scipy.sparse.linalg (with
    # scipy.sparse) 0.31-0.40 s and 32 MB: the modes without graphs or
    # eigensolves must not pay for any of them
    assert _python(f"import sys, sparsespike.cli; print({SCIPY_LOADED})") == "[]"


def test_cli_import_skips_process_pool():
    # multiprocessing and logging load with the first pool, in _farm
    loaded = "[m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent', 'logging')]"
    assert _python(f"import sys, sparsespike.cli; print({loaded})") == "[]"


def test_densities_run_loads_no_scipy(tmp_path):
    path = write_config(
        tmp_path, mode="densities", degree=RR4, theta=[4.0], out_dir=str(tmp_path / "out"),
        density_samples=5_000,
        popdyn={"n_pop": 2000, "alpha_samples": 20_000, "alpha_tol": 0.1},
    )
    code = ("import sys; from sparsespike import cli; "
            f"assert cli.main(sys.argv[1:]) == 0; print({SCIPY_LOADED})")
    assert _python(code, path).splitlines()[-1] == "[]"


@pytest.mark.parametrize("instances,pools", [(2, [2]), (1, [])])
def test_farm_starts_no_more_workers_than_tasks(tmp_path, monkeypatch, instances, pools):
    # a process pool forks all max_workers processes at its first submit; this
    # stand-in records the size it is asked for and runs the tasks here
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    raw = {"mode": "diag", "degree": RR4, "theta": [4.0], "n": 50, "instances": instances, "out_dir": str(tmp_path)}
    rows = cli.run_diag(cli.parse_config({**raw, "workers": 8}))
    assert sizes == pools
    assert rows == cli.run_diag(cli.parse_config(raw))


@pytest.mark.parametrize("mode", ["diag", "sweep"])
def test_farm_forks_after_eigensolver_import(tmp_path, mode):
    # farm workers must share the parent's scipy pages, not each load their own
    path = write_config(tmp_path, mode=mode, degree=RR4, theta=[4.0], n=100, instances=2, workers=2,
                        out_dir=str(tmp_path / "out"))
    code = ("import sys; from sparsespike import cli; farm = cli._farm\n"
            "def wrapped(cfg, tasks):\n"
            "    print('scipy.sparse.linalg' in sys.modules)\n"
            "    return farm(cfg, tasks)\n"
            "cli._farm = wrapped\n"
            "assert cli.main(sys.argv[1:]) == 0")
    assert _python(code, path) == "True"


def test_eigensolver_load_freezes_the_heap():
    # the objects of numpy and scipy move to the permanent generation before the farm forks
    code = ("import gc; from sparsespike import cli\n"
            "before = gc.get_freeze_count()\n"
            "cli._load_eigensolver()\n"
            "print(before == 0 and gc.get_freeze_count() > 0)")
    assert _python(code) == "True"


def test_eigensolver_load_freezes_the_heap_once():
    # a later run in the same process leaves the garbage alive at its start collectable
    code = ("import gc; from sparsespike import cli\n"
            "cli._load_eigensolver()\n"
            "frozen = gc.get_freeze_count()\n"
            "junk = [[] for _ in range(1000)]\n"
            "for item in junk:\n"
            "    item.append(item)\n"
            "cli._load_eigensolver()\n"
            "print(gc.get_freeze_count() == frozen)")
    assert _python(code) == "True"
