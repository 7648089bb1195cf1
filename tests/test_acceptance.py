"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them inline).

Shared expensive artifacts (instance batches, the full-size population) are
module-scoped fixtures, so the suite stays in the minutes range.
"""

import numpy as np
import pytest
from scipy import stats

from sparsespike import analytic, ensembles, popdyn, spectral
from sparsespike.cli import derive_rng
from conftest import make_instance

SEED = 20_260_810


def report(criterion: str, ok: bool, message: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {criterion}: {message}"


def rr4_models(sigma_x2=1.0):
    return (ensembles.regular(4), ensembles.constant_weight(1.0),
            ensembles.gaussian_spike(sigma_x2))


@pytest.fixture(scope="module")
def rr_theta_sweep():
    """10 analyzed instances at each theta of the criterion-2 grid, N=2000."""
    dm, wm, sm = rr4_models()
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    results = {}
    for t_idx, theta in enumerate(grid):
        reports = []
        for i in range(10):
            index = 100 * t_idx + i
            a = make_instance(dm, wm, sm, 2000, theta, SEED, index)
            reports.append(spectral.analyze_instance(a, rng=derive_rng(SEED, index, "eig")))
        results[theta] = reports
    return results


@pytest.fixture(scope="module")
def poisson_full_solve():
    """Criterion-3 settings: Poisson c=4, k_max=20, W=1, theta=6, N_p=2e5."""
    dm = ensembles.truncated_poisson(4.0, 20)
    wm = ensembles.constant_weight(1.0)
    sm = ensembles.gaussian_spike(1.0)
    theta = 6.0
    lam_an, ov_an = analytic.signal_and_overlap(theta, dm, wm, sm)
    config = popdyn.PopDynConfig(n_pop=200_000)
    pop, q, lam, diag = popdyn.solve(
        theta, dm, wm, sm, config, derive_rng(SEED, 0, "popdyn"), lam_an, float(np.sqrt(ov_an)),
    )
    return {"pop": pop, "lambda_analytic": lam_an, "overlap_analytic": ov_an,
            "diag": diag, "models": (dm, wm, sm), "theta": theta}


@pytest.fixture(scope="module")
def poisson_diag_batch():
    """25 solved theta=6 Poisson instances at N=2000 for density pooling."""
    dm = ensembles.truncated_poisson(4.0, 20)
    wm = ensembles.constant_weight(1.0)
    sm = ensembles.gaussian_spike(1.0)
    out = []
    for i in range(25):
        a = make_instance(dm, wm, sm, 2000, 6.0, SEED + 1, i)
        rep = spectral.analyze_instance(a, rng=derive_rng(SEED + 1, i, "eig"))
        out.append((a, rep))
    return out


def test_criterion_1_rr_closed_form_vs_simulation(rr_theta_sweep):
    """c=4, sigma^2=1, theta=4, N=2000, 10 instances: mean lambda_top and
    mean overlap^2 within 3 std-err of the closed forms."""
    reports = rr_theta_sweep[4.0]
    lam_target = 4 * np.sqrt(5) - 4
    ov_target = 4 / np.sqrt(5) - 1
    lams = np.array([r.lambda_top for r in reports])
    ovs = np.array([r.overlap_sq for r in reports])
    lam_se = lams.std(ddof=1) / np.sqrt(lams.size)
    ov_se = ovs.std(ddof=1) / np.sqrt(ovs.size)
    ok = (abs(lams.mean() - lam_target) <= 3 * lam_se
          and abs(ovs.mean() - ov_target) <= 3 * ov_se)
    report("1", ok,
           f"lambda {lams.mean():.4f} vs {lam_target:.4f} (3se={3*lam_se:.4f}), "
           f"overlap^2 {ovs.mean():.4f} vs {ov_target:.4f} (3se={3*ov_se:.4f})")


def test_criterion_2_rr_two_threshold_structure(rr_theta_sweep):
    """Second/top eigenvalue phenomenology across theta_b and theta_crit."""
    rr = analytic.rr_report(4, 1.0, 4.0)
    bulk = rr.bulk_edge
    checks = []
    for theta, reports in rr_theta_sweep.items():
        l2 = np.mean([r.lambda_second for r in reports])
        ltop = np.mean([r.lambda_top for r in reports])
        ov2 = np.mean([r.overlap_sq for r in reports])
        branch = analytic.rr_report(4, 1.0, theta).lambda_theta
        if theta < rr.theta_b:
            checks.append((theta, abs(l2 - bulk) / bulk <= 0.05,
                           f"l2 {l2:.3f} vs bulk {bulk:.3f}"))
        elif theta < rr.theta_crit:
            ok = abs(l2 - branch) / branch <= 0.05 and abs(ltop - 4.0) / 4.0 <= 0.05
            checks.append((theta, ok, f"l2 {l2:.3f} vs branch {branch:.3f}, ltop {ltop:.3f}"))
        else:
            ok = abs(ltop - branch) / branch <= 0.05 and ov2 > 0.3
            checks.append((theta, ok, f"ltop {ltop:.3f} vs branch {branch:.3f}, ov2 {ov2:.3f}"))
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"theta={c[0]}: {c[2]}" for c in checks)
    report("2", ok, detail)


def test_criterion_3_popdyn_analytic_cross_validation(poisson_full_solve):
    """Poisson c=4, k_max=20, theta=6, N_p=2e5: lambda within 0.5%, alphas
    within 1e-2 of 1."""
    lam_an = poisson_full_solve["lambda_analytic"]
    pop = poisson_full_solve["pop"]
    last = poisson_full_solve["diag"]["history"][-1]
    lam_ok = abs(pop.lam - lam_an) / lam_an <= 0.005
    a_ok = abs(last["alpha1"] - 1) <= 1e-2 and abs(last["alpha2"] - 1) <= 1e-2
    report("3", lam_ok and a_ok,
           f"lambda {pop.lam:.6f} vs analytic {lam_an:.6f} "
           f"({abs(pop.lam-lam_an)/lam_an:.2e} rel), "
           f"alpha1 {last['alpha1']:.4f}, alpha2 {last['alpha2']:.4f}")


def test_criterion_4_density_agreement(poisson_full_solve, poisson_diag_batch):
    """KS distance <= 0.05 between population densities and pooled empirical
    eigenvector data from 25 diagonalized N=2000 instances; E[u^2] = 1
    within 3 MC std-err."""
    from sparsespike import observables

    pop = poisson_full_solve["pop"]
    dm, wm, sm = poisson_full_solve["models"]
    top, ov = observables.component_densities(pop, dm, wm, sm, 200_000, derive_rng(SEED, 1, "rho_top"))
    emp_top = np.concatenate([rep.v_top for _, rep in poisson_diag_batch])
    emp_ov = np.concatenate([a.x * rep.v_top for a, rep in poisson_diag_batch])
    ks_top = stats.ks_2samp(top.samples, emp_top).statistic
    ks_ov = stats.ks_2samp(ov.samples, emp_ov).statistic
    u2 = top.samples**2
    u2_se = u2.std() / np.sqrt(u2.size)
    norm_ok = abs(u2.mean() - 1.0) <= 3 * u2_se
    ok = ks_top <= 0.05 and ks_ov <= 0.05 and norm_ok
    report("4", ok,
           f"KS(rho_top) {ks_top:.4f}, KS(rho_ov) {ks_ov:.4f} (cap 0.05), "
           f"E[u^2] {u2.mean():.4f} +- {u2_se:.4f}")


def test_criterion_5_dense_limit_bbp():
    """RR c=200, weights +-1/sqrt(200), theta=2, N=4000, 5 instances."""
    dm = ensembles.regular(200)
    wm = ensembles.rademacher_weight(1.0 / np.sqrt(200.0))
    sm = ensembles.gaussian_spike(1.0)
    lams, l2s, ovs = [], [], []
    for i in range(5):
        a = make_instance(dm, wm, sm, 4000, 2.0, SEED + 2, i)
        rep = spectral.analyze_instance(a, rng=derive_rng(SEED + 2, i, "eig"))
        lams.append(rep.lambda_top)
        l2s.append(rep.lambda_second)
        ovs.append(rep.overlap_sq)
    lam_mean, edge_mean, ov_mean = np.mean(lams), np.mean(l2s), np.mean(ovs)
    ok = (abs(lam_mean - 2.5) / 2.5 <= 0.05
          and abs(ov_mean - 0.75) / 0.75 <= 0.07
          and abs(edge_mean - 2.0) / 2.0 <= 0.03)
    report("5", ok,
           f"lambda {lam_mean:.4f} vs 2.5 (5%), overlap^2 {ov_mean:.4f} vs 0.75 (7%), "
           f"bulk edge {edge_mean:.4f} vs 2 (3%)")


def test_criterion_6_structural_zero_spike_reduction():
    """theta=0: popdyn collapsed fixed point gives lambda_top = 4 within
    1e-6; signed empirical overlap within 3 std-err of 0 over 25 instances."""
    dm, wm, sm = rr4_models()
    config = popdyn.PopDynConfig(n_pop=20_000)
    pop = popdyn.init_population(config, derive_rng(SEED + 3, 0, "init"), 4.0)
    popdyn.equilibrate(pop, config, dm, wm, None, derive_rng(SEED + 3, 0, "eq"))
    om_bar = pop.omega.mean()
    lam_top = om_bar + 3.0 / om_bar
    pd_ok = abs(lam_top - 4.0) <= 1e-6 and pop.omega.std() < 1e-9

    overlaps = []
    for i in range(25):
        a = make_instance(dm, wm, sm, 2000, 0.0, SEED + 4, i)
        v = spectral.analyze_instance(a, rng=derive_rng(SEED + 4, i, "eig")).v_top
        # x-independent gauge (analyze_instance's follows x) so the signed
        # overlap is symmetric under the null
        v = v * np.sign(v[np.argmax(np.abs(v))])
        overlaps.append(float(a.x @ v) / a.n)
    overlaps = np.array(overlaps)
    se = overlaps.std(ddof=1) / np.sqrt(overlaps.size)
    ov_ok = abs(overlaps.mean()) <= 3 * se
    report("6", pd_ok and ov_ok,
           f"collapsed lambda_top {lam_top:.9f} (1e-6), "
           f"mean signed overlap {overlaps.mean():.5f} (3se={3*se:.5f})")


def test_criterion_7_desk_scale_oracle_equivalence():
    """50 random instances with N <= 50 across all degree models: the ARPACK
    path matches dense eigensolves to 1e-9, matvec to 1e-12."""
    rng = np.random.default_rng(SEED + 5)
    degree_models = [
        ensembles.regular(3),
        ensembles.truncated_poisson(3.0, 8),
        ensembles.degree_table([0.1, 0.3, 0.3, 0.2, 0.1]),
    ]
    weight_models = [
        ensembles.constant_weight(1.0),
        ensembles.rademacher_weight(0.8),
        ensembles.weight_table([-1.0, 0.5, 1.5], [0.3, 0.4, 0.3]),
    ]
    spike_models = [ensembles.gaussian_spike(1.0), ensembles.rademacher_spike(1.0)]
    max_eig_err = 0.0
    max_mv_err = 0.0
    for trial in range(50):
        dm = degree_models[trial % 3]
        wm = weight_models[(trial // 3) % 3]
        sm = spike_models[trial % 2]
        n = int(rng.integers(20, 51))
        theta = float(rng.choice([0.0, 1.5, 3.0]))
        a = make_instance(dm, wm, sm, n, theta, SEED + 6, trial)
        dense = a.to_dense()
        evals = np.linalg.eigvalsh(dense)
        rep = spectral.analyze_instance(a, rng=derive_rng(SEED + 6, trial, "eig"))
        lam, lam2 = rep.lambda_top, rep.lambda_second
        max_eig_err = max(max_eig_err, abs(lam - evals[-1]), abs(lam2 - evals[-2]))
        for _ in range(3):
            u = rng.standard_normal(n)
            max_mv_err = max(max_mv_err, float(np.max(np.abs(a.matvec(u) - dense @ u))))
    ok = max_eig_err < 1e-9 and max_mv_err < 1e-12
    report("7", ok, f"max eigenvalue error {max_eig_err:.2e} (1e-9), "
                    f"max matvec error {max_mv_err:.2e} (1e-12)")


def test_criterion_8_derivative_identity():
    """overlap_sq(theta) equals centered finite differences of
    lambda_theta(theta) within 1e-4 relative at 10 supra-threshold thetas,
    for both the RR closed forms and the Poisson resolvent pipeline."""
    dm_rr, wm, sm = rr4_models()
    worst_rr = 0.0
    for theta in np.linspace(2.8, 8.0, 10):
        ov = analytic.rr_report(4, 1.0, theta).overlap_sq
        step = 1e-4 * theta
        fd = (analytic.rr_report(4, 1.0, theta + step).lambda_theta
              - analytic.rr_report(4, 1.0, theta - step).lambda_theta) / (2 * step)
        worst_rr = max(worst_rr, abs(ov - fd) / abs(fd))

    dm_po = ensembles.truncated_poisson(4.0, 20)
    worst_po = 0.0
    for theta in np.linspace(4.4, 10.0, 10):
        ov = analytic.signal_and_overlap(theta, dm_po, wm, sm)[1]
        step = 5e-3
        fd = (analytic.signal_and_overlap(theta + step, dm_po, wm, sm)[0]
              - analytic.signal_and_overlap(theta - step, dm_po, wm, sm)[0]) / (2 * step)
        worst_po = max(worst_po, abs(ov - fd) / abs(fd))
    ok = worst_rr <= 1e-4 and worst_po <= 1e-4
    report("8", ok, f"max relative gap: RR {worst_rr:.2e}, Poisson {worst_po:.2e} (1e-4)")
