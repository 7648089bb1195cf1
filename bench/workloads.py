"""The benchmark's three CLI workloads and their statistical output checks.

Each workload is a sparsespike experiment config plus a check of the
artifacts it writes. The checks compare against closed forms or the
analytic route with tolerances wide enough for a change of random stream
(another eigensolver, another sampling kernel) to pass, and narrow enough
to catch a wrong answer. A check returns a list of problems; empty means
the run's output is correct.
"""

from __future__ import annotations

import csv
import math
import os

UNIT = {"weight": {"kind": "constant", "w": 1.0}, "spike": {"kind": "gaussian", "sigma_x2": 1.0}}

# analytic.overlap_sq(6, truncated_poisson(3, 8), constant_weight(1), gaussian_spike(1)),
# computed once by the analytic route; recomputing it costs about 5 s per run.
PO3_OVERLAP_SQ = 0.9108580367010651

# popdyn.solve accepts a population once alpha1, its estimate of E[u^2] of
# the top-eigenvector components, is within PopDynConfig.alpha_tol (default
# 0.01, which densities_po3 keeps) of 1, so E[u^2] is 1 only to that
# tolerance plus the sampling error of the written samples.
PO3_ALPHA_TOL = 0.01

# Structural (theta = 0) eigenvalue of sweep_po4's noise (truncated
# Poisson(4, k_max=20), W=1), supplied in its config as the CLI allows.
# popdyn.structural_lambda gives 5.0713009 at N_p = 5e4 (46 of 60 CLI seeds)
# and at the default N_p = 2e5, but on about one CLI seed in nine it returns
# a wrong value (see METRICS.md), so the workload does not call it.
PO4_LAMBDA_STRUCTURAL = 5.071300896258503

# theta_crit that analytic.theta_crit gives for sweep_po4 from that
# structural eigenvalue.
PO4_THETA_CRIT = 4.00449960936805


def _rows(path: str) -> list:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _off(value: float, ref: float, rel: float, what: str) -> list:
    if abs(value - ref) <= rel * abs(ref):
        return []
    return [f"{what} = {value:.6g}, expected {ref:.6g} within {rel:.0%}"]


def _by_theta(path: str) -> dict:
    return {float(r["theta"]): r for r in _rows(path)}


def _rr_signal(c: float, theta: float) -> float:
    """Signal eigenvalue branch of random-regular noise (unit weights, sigma_x^2 = 1)."""
    return 0.5 * (c * math.sqrt(theta * theta + 4.0) - (c - 2.0) * theta)


def check_diag_rr4(cfg: dict, out_dir: str, stdout: str) -> list:
    """Criterion-2 checks against the random-regular closed forms: below
    theta_crit = 8/3 the top eigenvalue is c = 4 and the second is the
    signal branch (3.5 at theta = 1.5); above it the top eigenvalue is the
    signal branch (4 sqrt(5) - 4 at theta = 4) and the overlap is large."""
    summary = _by_theta(os.path.join(out_dir, "diag_summary.csv"))
    below, above = summary[1.5], summary[4.0]
    problems = []
    problems += _off(float(below["mean_lambda_top"]), 4.0, 0.05, "theta=1.5 mean top eigenvalue")
    problems += _off(float(below["mean_lambda_second"]), _rr_signal(4, 1.5), 0.05, "theta=1.5 mean second eigenvalue")
    problems += _off(float(above["mean_lambda_top"]), _rr_signal(4, 4.0), 0.05, "theta=4 mean top eigenvalue")
    if not float(above["mean_overlap_sq"]) > 0.3:
        problems.append(f"theta=4 mean overlap^2 = {above['mean_overlap_sq']}, expected > 0.3")
    for row in summary.values():
        if int(row["instances"]) != cfg["instances"]:
            problems.append(f"theta={row['theta']}: {row['instances']} instances, expected {cfg['instances']}")
    return problems


def check_densities_po3(cfg: dict, out_dir: str, stdout: str) -> list:
    """The printed squared overlap matches the analytic route within 2%, and
    the top-eigenvector components are normalized: E[u^2] = 1 within the
    solver's alpha tolerance plus three standard errors of the written
    samples."""
    printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    problems = _off(float(printed["overlap_sq"]), PO3_OVERLAP_SQ, 0.02, "overlap_sq")
    u2 = [float(r["u"]) ** 2 for r in _rows(os.path.join(out_dir, "rho_top_samples.csv"))]
    n = len(u2)
    mean = sum(u2) / n
    se = math.sqrt(sum((v - mean) ** 2 for v in u2) / (n - 1) / n)
    if abs(mean - 1.0) > PO3_ALPHA_TOL + 3.0 * se:
        problems.append(f"E[u^2] of rho_top = {mean:.5f}, expected 1 within {PO3_ALPHA_TOL} + 3 SE ({se:.5f})")
    for name in ("rho_top_hist", "rho_ov_hist", "rho_ov_samples", "omega_cdf", "h_cdf"):
        if not _rows(os.path.join(out_dir, f"{name}.csv")):
            problems.append(f"{name}.csv is empty")
    return problems


def check_sweep_po4(cfg: dict, out_dir: str, stdout: str) -> list:
    """At theta = 6, above theta_crit, the mean simulated top eigenvalue is
    within 5% of the analytic signal eigenvalue in the same row, and every
    row's theta_crit, which the analytic route derives from the supplied
    structural eigenvalue, is within 1% of the reference."""
    sweep = _by_theta(os.path.join(out_dir, "sweep.csv"))
    row = sweep[6.0]
    problems = _off(float(row["mean_lambda_top"]), float(row["analytic_lambda_theta"]), 0.05,
                    "theta=6 mean top eigenvalue vs analytic_lambda_theta")
    for r in sweep.values():
        problems += _off(float(r["theta_crit"]), PO4_THETA_CRIT, 0.01, f"theta={r['theta']} theta_crit")
        if int(r["instances"]) != cfg["instances"]:
            problems.append(f"theta={r['theta']}: {r['instances']} instances, expected {cfg['instances']}")
    return problems


# Each workload: the experiment config, its check, the fewest full runs one
# benchmark run makes, and the overrides that shrink it to toy size for the
# smoke test. densities_po3 makes five because its popdyn.solve work
# varies with the seed (50 to 155 sweeps) and its run-to-run time with the
# host's speed. sweep_po4 makes eight because its 3 s runs vary by up to
# 40% with the seed: configuration_model's full-restart rejection makes a
# geometric number of attempts on these degree sequences.
WORKLOADS = {
    "diag_rr4": {
        "config": {
            "mode": "diag", "degree": {"kind": "regular", "c": 4}, **UNIT,
            "theta": [1.5, 4.0], "n": 4000, "instances": 6, "workers": 1,
        },
        "check": check_diag_rr4,
        "min_runs": 2,
        "toy": {"n": 400, "instances": 2},
    },
    "densities_po3": {
        "config": {
            "mode": "densities", "degree": {"kind": "truncated_poisson", "cbar": 3, "k_max": 8}, **UNIT,
            "theta": [6.0], "density_samples": 1_000_000,
        },
        "check": check_densities_po3,
        "min_runs": 5,
        "toy": {"popdyn": {"n_pop": 20_000}, "density_samples": 50_000},
    },
    "sweep_po4": {
        "config": {
            "mode": "sweep", "degree": {"kind": "truncated_poisson", "cbar": 4, "k_max": 20}, **UNIT,
            "theta": [2.0, 6.0], "n": 2000, "instances": 4, "workers": 2,
            "lambda_structural": PO4_LAMBDA_STRUCTURAL,
        },
        "check": check_sweep_po4,
        "min_runs": 8,
        "toy": {"n": 300, "instances": 2},
    },
}
