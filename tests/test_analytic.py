"""Fixed-point, threshold, and closed-form predictions, cross-checked against
independent iteration oracles and against population dynamics."""

from dataclasses import asdict

import numpy as np
import pytest

from sparsespike import analytic, ensembles, popdyn
from sparsespike.errors import NegativeDenominator, RootNotBracketed

W1 = ensembles.constant_weight(1.0)
GAUSS = ensembles.gaussian_spike(1.0)


def stable_m(lam, degree_model, e_w2):
    """m on the stable branch, read off x = lambda/m."""
    return lam / analytic._Branch(degree_model, e_w2).x_of(lam)


def q_tilde(lam, degree_model, e_w2):
    """Q(lambda) on the stable branch, read at x = lambda/m."""
    branch = analytic._Branch(degree_model, e_w2)
    return branch.q(branch.x_of(lam))


def brute_m(lam, degree_model, e_w2, iters=2000):
    """Independent oracle: plain undamped contraction iteration."""
    r = degree_model.r
    km1 = np.arange(r.size) - 1.0
    m = 1.0 / lam
    for _ in range(iters):
        m = float((r / (lam - km1 * e_w2 * m)).sum())
    return m


class TestSolveM:
    def test_rr_quadratic_root(self):
        # (c-1) m^2 - lambda m + 1 = 0 at lambda = c = 4: stable root 1/3
        m = stable_m(4.0, ensembles.regular(4), 1.0)
        assert abs(m - 1.0 / 3.0) < 1e-10

    def test_large_lambda_asymptote(self):
        for c in (3, 6):
            lam = 1e6
            m = stable_m(lam, ensembles.regular(c), 1.0)
            assert abs(m - 1.0 / lam) < 10.0 / lam**3

    def test_poisson_matches_brute_oracle(self):
        dm = ensembles.truncated_poisson(4.0, 20)
        m = stable_m(6.0, dm, 1.0)
        assert abs(m - brute_m(6.0, dm, 1.0)) < 1e-10

    def test_below_edge_fails(self):
        with pytest.raises(NegativeDenominator):
            stable_m(3.0, ensembles.regular(4), 1.0)


class TestQTilde:
    def test_poisson_two_term_form(self):
        # the direct sum over p_k telescopes to the explicit
        # (c/cbar) m + p_kmax/(lambda - kmax E[W^2] m) expression
        dm = ensembles.truncated_poisson(4.0, 20)
        for lam in (5.5, 6.0, 8.0, 12.0):
            m = stable_m(lam, dm, 1.0)
            two_term = (dm.mean_c / 4.0) * m + dm.probs[-1] / (lam - dm.k_max * m)
            assert abs(q_tilde(lam, dm, 1.0) - two_term) < 5e-13

    def test_large_kmax_correction_negligible(self):
        # lambda must sit above the k_max-inflated spectral edge ~ sqrt(k_max)
        dm = ensembles.truncated_poisson(4.0, 60)
        lam = 10.0
        m = stable_m(lam, dm, 1.0)
        correction = dm.probs[-1] / (lam - dm.k_max * m)
        assert correction < 1e-10
        assert abs(q_tilde(lam, dm, 1.0) - m * dm.mean_c / 4.0) < 1e-10

    def test_monotone_decreasing_positive(self):
        dm = ensembles.truncated_poisson(4.0, 20)
        grid = np.linspace(5.3, 12.0, 25)
        vals = [q_tilde(lam, dm, 1.0) for lam in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_population_cross_oracle(self, poisson_solved, poisson_models):
        # Q_hat = alpha2 / (theta sigma^2) from the equilibrated population
        # against the fixed-point route
        dm, wm, sm = poisson_models
        pop = poisson_solved["pop"]
        qhat = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(0), 400_000)[0][2] / pop.theta
        qfix = q_tilde(pop.lam, dm, 1.0)
        assert abs(qhat - qfix) / qfix < 3e-3

    def test_prime_matches_finite_difference(self):
        # the grid reaches edge (1 + 1e-4), next to the cap-bound (4, 20) and
        # the tangency-bound (3, 8) edge; the step shrinks with the distance
        for dm in (ensembles.truncated_poisson(4.0, 20), ensembles.truncated_poisson(3.0, 8)):
            edge = analytic.admissible_lambda_floor(dm, 1.0)
            branch = analytic._Branch(dm, 1.0)
            for lam in (edge * (1.0 + 1e-4), edge * (1.0 + 1e-3), edge * 1.05, 6.0, 8.0, 12.0):
                qp = branch.q_prime(branch.x_of(lam))
                step = 1e-4 * (lam - edge)
                fd = (q_tilde(lam + step, dm, 1.0) - q_tilde(lam - step, dm, 1.0)) / (2 * step)
                assert abs(qp - fd) < 1e-7 * abs(qp)
                assert qp < 0

    def test_prime_unbounded_at_edge(self):
        for dm in (ensembles.truncated_poisson(4.0, 20), ensembles.truncated_poisson(3.0, 8)):
            branch = analytic._Branch(dm, 1.0)
            with pytest.raises(NegativeDenominator):
                branch.q_prime(branch.x_of(analytic.admissible_lambda_floor(dm, 1.0)))


class TestQGeneral:
    """Q_hat read as ``alpha_pair``'s alpha2 at theta sigma^2 = 1."""

    def test_collapsed_rr_population(self):
        # omega identically 3 at lambda = 4: every sample sees the same
        # denominator 4 - 4/3 = 8/3, so Q_hat = 3/8 with zero variance
        pop = popdyn.Population(omega=np.full(1000, 3.0), h=np.zeros(1000),
                                q=0.0, lam=4.0, theta=1.0)
        qhat = popdyn.alpha_pair(pop, ensembles.regular(4), W1, GAUSS, np.random.default_rng(0), 20_000)[0][2]
        assert abs(qhat - 0.375) < 1e-12

    def test_large_lambda(self):
        pop = popdyn.Population(omega=np.full(1000, 3.0), h=np.zeros(1000),
                                q=0.0, lam=1e6, theta=1.0)
        qhat = popdyn.alpha_pair(pop, ensembles.regular(4), W1, GAUSS, np.random.default_rng(2), 5_000)[0][2]
        assert abs(qhat - 1e-6) < 1e-8


class TestThetaCrit:
    """The threshold as ``report`` gives it: the closed form for regular
    constant-weight noise, else 1 / (sigma^2 Q(lambda_structural)) on the route."""

    def test_rr_closed_form(self):
        assert abs(analytic.report(0.0, ensembles.regular(4), W1, GAUSS, 4.0).theta_crit - 8.0 / 3.0) < 1e-12

    def test_marginal_chain(self):
        assert analytic.report(0.0, ensembles.regular(2), W1, GAUSS, 2.0).theta_crit == 0.0

    @pytest.mark.parametrize("w", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_regular_constant_weight(self, c, w):
        # w c (c - 2) / (sigma^2 (c - 1)), the chain c = 2 included; the
        # report is rr_report's, whatever structural eigenvalue it is given
        dm, wm = ensembles.regular(c), ensembles.constant_weight(w)
        for theta in (0.0, 1.0, 5.0):
            assert analytic.report(theta, dm, wm, GAUSS, -1.0) == analytic.rr_report(c, 1.0, theta, w)
        rep = analytic.report(0.0, dm, wm, GAUSS, c * w)
        assert rep.theta_crit == pytest.approx(w * c * (c - 2) / (c - 1), rel=1e-15)

    def test_chain_structural_below_the_route_edge(self):
        # on the chain c = 2 at w = 0.7, c w = 1.4 rounds below the route's
        # edge 1.4000000000000001: the route raises, the report does not
        dm, wm = ensembles.regular(2), ensembles.constant_weight(0.7)
        with pytest.raises(NegativeDenominator):
            analytic._Branch(dm, wm.second_moment_w).x_of(1.4)
        assert analytic.report(0.0, dm, wm, GAUSS, 1.4).theta_crit == 0.0

    def test_large_c_trend_to_dense(self):
        # weights 1/sqrt(c): thresholds rise monotonically to 1/sigma^2,
        # within 3% by c = 200
        vals = []
        for c in (10, 30, 80, 200):
            dm = ensembles.regular(c)
            wm = ensembles.rademacher_weight(1.0 / np.sqrt(c))
            edge = analytic.admissible_lambda_floor(dm, wm.second_moment_w)
            vals.append(analytic.report(0.0, dm, wm, GAUSS, edge).theta_crit)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 0.03


class TestReport:
    @pytest.mark.parametrize("theta, has_branch, above", [(0.0, False, False), (2.0, True, False), (6.0, True, True)])
    def test_poisson_composes_the_route(self, theta, has_branch, above):
        # Poisson(4, 20) at the benchmark's structural eigenvalue, theta_crit
        # about 4.0045: below it the top eigenvalue is the structural one and
        # the overlap 0; above it both come from the signal root
        dm, lam_s = ensembles.truncated_poisson(4.0, 20), 5.071300896258503
        rep = analytic.report(theta, dm, W1, GAUSS, lam_s)
        t_crit = 1.0 / q_tilde(lam_s, dm, 1.0)
        assert (rep.theta, rep.theta_crit, rep.lambda_structural) == (theta, t_crit, lam_s)
        assert rep.bulk_edge == analytic.admissible_lambda_floor(dm, 1.0)
        assert (rep.theta_b, rep.c_crit, rep.c_b) == (None, None, None)
        if above:
            lam, ov = analytic.signal_and_overlap(theta, dm, W1, GAUSS)
            assert (rep.lambda_theta, rep.lambda_top, rep.overlap_sq) == (lam, lam, ov)
        else:
            lam = analytic.signal_and_overlap(theta, dm, W1, GAUSS)[0] if has_branch else None
            assert (rep.lambda_theta, rep.lambda_top, rep.overlap_sq) == (lam, lam_s, 0.0)

    def test_one_branch_per_question(self, monkeypatch):
        # report reads theta_crit, the edge, the signal root and the overlap
        # off one branch; signal_and_overlap reads its answer off one too
        built = []
        init = analytic._Branch.__init__
        monkeypatch.setattr(analytic._Branch, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        dm = ensembles.truncated_poisson(4.0, 20)
        analytic.report(6.0, dm, W1, GAUSS, 5.2552)
        assert len(built) == 1
        analytic.signal_and_overlap(6.0, dm, W1, GAUSS)
        assert len(built) == 2

    @pytest.mark.parametrize("theta", [2.0, 6.0])
    def test_route_reads_only_the_degree_table(self, theta):
        # a "table" law with the Poisson(4, 20) probabilities gets the same
        # report: the route reads p_k and r_k, not the law's kind
        dm = ensembles.truncated_poisson(4.0, 20)
        rep = analytic.report(theta, ensembles.degree_table(dm.probs), W1, GAUSS, 5.2552)
        ref = analytic.report(theta, dm, W1, GAUSS, 5.2552)
        got, want = asdict(rep), asdict(ref)
        assert [k for k, v in got.items() if v is None] == [k for k, v in want.items() if v is None]
        assert ({k: v for k, v in got.items() if v is not None}
                == pytest.approx({k: v for k, v in want.items() if v is not None}, rel=1e-12))


    def test_perfect_matching_outlier(self):
        # p_1 = 1: the noise has eigenvalues +-1, half each, so the outlier
        # solves 1 = theta lambda / (lambda^2 - 1), 1 + sqrt(2) at theta = 2
        dm = ensembles.degree_table([0, 1])
        rep = analytic.report(2.0, dm, W1, GAUSS, analytic.admissible_lambda_floor(dm, 1.0))
        assert rep.lambda_theta == rep.lambda_top == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-14)


class TestLambdaSignal:
    def test_rr_closed_form(self):
        lam = analytic.signal_and_overlap(4.0, ensembles.regular(4), W1, GAUSS)[0]
        assert abs(lam - (4 * np.sqrt(5) - 4)) < 1e-8

    def test_threshold_continuity(self):
        lam = analytic.signal_and_overlap(8.0 / 3.0 + 1e-4, ensembles.regular(4), W1, GAUSS)[0]
        assert abs(lam - 4.0) < 1e-2

    def test_below_detachment_not_bracketed(self):
        # the branch exists down to theta_b ~ 1.1547; below it there is no root
        with pytest.raises(RootNotBracketed):
            analytic.signal_and_overlap(1.0, ensembles.regular(4), W1, GAUSS)

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_no_signal_branch_at_theta_zero(self, theta):
        # 1/(theta sigma^2) has no value at theta = 0 (see the CLI test of
        # theta = 0 on Poisson noise for the report)
        with pytest.raises(RootNotBracketed):
            analytic.signal_and_overlap(theta, ensembles.truncated_poisson(4.0, 20), W1, GAUSS)

    def test_between_detachment_and_threshold_returns_branch(self):
        # for theta_b < theta < theta_crit the root is the detached branch
        # (the second eigenvalue), matching the closed form
        lam = analytic.signal_and_overlap(2.0, ensembles.regular(4), W1, GAUSS)[0]
        assert abs(lam - analytic.rr_report(4, 1.0, 2.0).lambda_theta) < 1e-8

    @pytest.mark.parametrize("cbar", [3.5, 4.0])
    def test_root_next_to_cap_edge(self, cbar):
        # at theta = 2 the root of truncated Poisson(cbar, 20) lies within
        # 1e-8 relative of the cap-bound edge, where the overlap is tiny
        dm = ensembles.truncated_poisson(cbar, 20)
        lam, ov = analytic.signal_and_overlap(2.0, dm, W1, GAUSS)
        assert lam >= analytic.admissible_lambda_floor(dm, 1.0)
        assert 0.0 < ov < 1e-6

    @pytest.mark.parametrize("cbar, k_max, lam_s", [(3.0, 8, 4.2438), (4.0, 20, 5.2552), (3.5, 12, 4.9)])
    def test_root_at_theta_crit_is_structural(self, cbar, k_max, lam_s):
        # theta_crit and the signal root read one Q: at theta_crit the root is lambda_s
        dm = ensembles.truncated_poisson(cbar, k_max)
        theta = analytic.report(0.0, dm, W1, GAUSS, lam_s).theta_crit
        assert abs(analytic.signal_and_overlap(theta, dm, W1, GAUSS)[0] - lam_s) <= np.spacing(lam_s)

    @pytest.mark.parametrize("dm, wm", [
        (ensembles.truncated_poisson(4.0, 20), W1),
        (ensembles.truncated_poisson(3.0, 8), ensembles.rademacher_weight(0.8)),
    ], ids=["po4", "po3-rademacher"])
    def test_overlap_solve_has_the_same_root(self, dm, wm):
        # report reads the signal root off its own branch, on both sides of
        # theta_crit: the root of signal_and_overlap, and None where it raises
        lam_s = 1.05 * analytic.admissible_lambda_floor(dm, wm.second_moment_w)
        for theta in np.linspace(0.25, 12.0, 48):
            rep = analytic.report(theta, dm, wm, GAUSS, lam_s)
            try:
                lam = analytic.signal_and_overlap(theta, dm, wm, GAUSS)[0]
            except RootNotBracketed:
                assert rep.lambda_theta is None
                continue
            assert rep.lambda_theta == lam

    def test_poisson_vs_popdyn(self, poisson_solved):
        lam_an = poisson_solved["lambda_analytic"]
        assert abs(poisson_solved["pop"].lam - lam_an) / lam_an < 0.005


class TestOverlapSq:
    def test_rr_closed_form(self):
        ov = analytic.signal_and_overlap(4.0, ensembles.regular(4), W1, GAUSS)[1]
        assert abs(ov - (4 / np.sqrt(5) - 1)) < 1e-8

    def test_rr_large_theta_saturates_at_variance(self):
        rep = analytic.rr_report(4, 1.0, 1e5)
        assert abs(rep.overlap_sq - 1.0) < 1e-8

    @pytest.mark.parametrize("theta", [3.0, 4.5, 7.0])
    def test_derivative_identity_rr(self, theta):
        # squared overlap equals d lambda_theta / d theta
        dm = ensembles.regular(4)
        ov = analytic.signal_and_overlap(theta, dm, W1, GAUSS)[1]
        step = 1e-3 * theta
        fd = (analytic.signal_and_overlap(theta + step, dm, W1, GAUSS)[0]
              - analytic.signal_and_overlap(theta - step, dm, W1, GAUSS)[0]) / (2 * step)
        assert abs(ov - fd) < 1e-4 * abs(fd)

    @pytest.mark.parametrize("c", [3, 4, 5, 8])
    def test_rr_closed_form_to_ten_ulps(self, c):
        # Q' is read at the root's own x, so the route keeps the closed form's digits
        dm = ensembles.regular(c)
        for theta in np.linspace(1.05, 4.0, 12) * analytic.rr_report(c, 1.0, 0.0).theta_crit:
            closed = analytic.rr_report(c, 1.0, theta).overlap_sq
            ov = analytic.signal_and_overlap(theta, dm, W1, GAUSS)[1]
            assert abs(ov - closed) <= 10 * np.spacing(closed)

    def test_derivative_identity_poisson(self):
        dm = ensembles.truncated_poisson(4.0, 20)
        theta = 6.0
        ov = analytic.signal_and_overlap(theta, dm, W1, GAUSS)[1]
        step = 5e-3
        fd = (analytic.signal_and_overlap(theta + step, dm, W1, GAUSS)[0]
              - analytic.signal_and_overlap(theta - step, dm, W1, GAUSS)[0]) / (2 * step)
        assert abs(ov - fd) < 1e-4 * abs(fd)


class TestRRReport:
    def test_spec_values_c4(self):
        rep = analytic.rr_report(4, 1.0, 4.0)
        assert abs(rep.theta_b - 2.0 / np.sqrt(3)) < 1e-12
        assert abs(rep.theta_crit - 8.0 / 3.0) < 1e-12
        assert abs(rep.lambda_top - 4.944271909999159) < 1e-12
        assert abs(rep.overlap_sq - 0.7888543819998317) < 1e-12
        assert abs(rep.c_crit - 5.23606797749979) < 1e-12
        assert abs(rep.c_b - 18.94427190999916) < 1e-12
        assert rep.lambda_structural == 4.0
        assert abs(rep.bulk_edge - 2 * np.sqrt(3)) < 1e-12

    def test_below_threshold(self):
        rep = analytic.rr_report(4, 1.0, 2.0)
        assert rep.lambda_top == 4.0
        assert rep.overlap_sq == 0.0
        assert rep.lambda_theta is not None  # detached branch (theta > theta_b)
        rep_low = analytic.rr_report(4, 1.0, 0.5)
        assert rep_low.lambda_theta is None  # buried in the bulk

    @pytest.mark.parametrize("c", [4.7, 4.0, True])
    def test_rejects_non_integer_c(self, c):
        # truncated, 4.7 would report the c = 4 thresholds (theta_crit 8/3)
        with pytest.raises(ValueError, match="c must be an integer"):
            analytic.rr_report(c, 1.0, 4.0)

    def test_invariants(self):
        for theta in (3.0, 5.0, 8.0):
            rep = analytic.rr_report(4, 1.0, theta)
            assert rep.theta_crit > 0
            assert rep.lambda_theta > rep.lambda_structural
            assert 0 < rep.overlap_sq <= 1.0

    @pytest.mark.parametrize("c,w", [pytest.param(c, w, id=str(c) if w == 1.0 else f"{c}-w{w}")
                                     for w in (1.0, 0.7, 2.0) for c in (2, 3, 4, 10)])
    def test_generic_route_matches_closed_forms(self, c, w):
        # the resolvent route against the closed forms to near machine
        # precision: the branch above theta_b, the overlap above theta_crit;
        # theta_b is 0 for the chain c = 2, so its grid is positive thetas
        dm, wm = ensembles.regular(c), ensembles.constant_weight(w)
        rep = analytic.rr_report(c, 1.0, 0.0, w)
        scale = rep.theta_b if rep.theta_b > 0 else 0.1
        for theta in scale * np.array([1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0]):
            closed = analytic.rr_report(c, 1.0, theta, w)
            lam, ov = analytic.signal_and_overlap(theta, dm, wm, GAUSS)
            assert abs(lam - closed.lambda_theta) < 1e-12
            if theta > closed.theta_crit:
                assert abs(ov - closed.overlap_sq) < 1e-12

    @pytest.mark.parametrize("w", [1.0, 0.7])
    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_theta_zero_has_no_signal_branch(self, c, w):
        # theta_b = 0 on the chain c = 2, but theta = 0 has no signal at all
        assert analytic.rr_report(c, 1.0, 0.0, w).lambda_theta is None
        assert analytic.rr_report(c, 1.0, 50.0, w).lambda_theta is not None

    @pytest.mark.parametrize("sigma_x2", [1.0, 2.5])
    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_weight_scales_the_unit_closed_forms(self, c, sigma_x2):
        # w times unit-weight noise: eigenvalues and thresholds scale by w at
        # theta / w, the overlap is the unit-weight one there
        for w in (0.3, 0.7, 2.0):
            for theta in (0.5, 1.0, 3.0, 8.0):
                rep, unit = analytic.rr_report(c, sigma_x2, theta, w), analytic.rr_report(c, sigma_x2, theta / w)
                for name in ("theta_crit", "theta_b", "lambda_structural", "bulk_edge", "lambda_top"):
                    assert getattr(rep, name) == pytest.approx(w * getattr(unit, name), rel=1e-15, abs=1e-15)
                if unit.lambda_theta is None:  # below theta_b
                    assert rep.lambda_theta is None
                else:
                    assert rep.lambda_theta == pytest.approx(w * unit.lambda_theta, rel=1e-15)
                assert rep.overlap_sq == pytest.approx(unit.overlap_sq, rel=1e-14, abs=1e-15)
                assert (rep.c_crit, rep.c_b) == pytest.approx((unit.c_crit, unit.c_b), rel=1e-15)
                # c_crit is the c at which theta is the threshold
                cc = rep.c_crit
                assert w * cc * (cc - 2.0) / (sigma_x2 * (cc - 1.0)) == pytest.approx(theta, rel=1e-14)

    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_weight(self, w):
        with pytest.raises(ValueError, match="w positive"):
            analytic.rr_report(4, 1.0, 4.0, w)

    def test_rr_vs_generic_pipeline(self):
        # closed forms against the generic resolvent machinery, 1e-6
        rep = analytic.rr_report(4, 1.0, 4.0)
        lam, ov = analytic.signal_and_overlap(4.0, ensembles.regular(4), W1, GAUSS)
        assert abs(lam - rep.lambda_top) < 1e-6
        assert abs(ov - rep.overlap_sq) < 1e-6
        # and against the population route on a collapsed population
        om_bar = 0.5 * (rep.lambda_top + np.sqrt(rep.lambda_top**2 - 12.0))
        pop = popdyn.Population(omega=np.full(100, om_bar), h=np.zeros(100),
                                q=0.0, lam=rep.lambda_top, theta=4.0)
        alpha2 = popdyn.alpha_pair(pop, ensembles.regular(4), W1, GAUSS, np.random.default_rng(0), 1000)[0][2]
        assert abs(alpha2 - 1.0) < 1e-9  # theta sigma^2 Q(lambda_theta) = 1


def stability_margin(lam, degree_model, e_w2):
    """1 - E[W^2] sum_k r_k (k-1) / (lambda - (k-1) E[W^2] m)^2, the
    denominator of dm/dlambda by implicit differentiation (``_branch``'s
    h / S0, written in lambda): zero where the stable branch of the m
    equation turns back."""
    m = stable_m(lam, degree_model, e_w2)
    r = degree_model.r
    km1 = np.arange(r.size) - 1.0
    mask = r > 0
    g = 1.0 / (lam - km1[mask] * e_w2 * m)
    return 1.0 - e_w2 * float((r[mask] * km1[mask] * g * g).sum())


class TestFloor:
    def test_rr_floor_is_bulk_edge(self):
        floor = analytic.admissible_lambda_floor(ensembles.regular(4), 1.0)
        assert abs(floor - 2 * np.sqrt(3)) < 1e-12

    @pytest.mark.parametrize("c", [3, 4, 10, 200])
    def test_rr_edge_closed_form(self, c):
        dm = ensembles.regular(c)
        for wm in (W1, ensembles.rademacher_weight(1.0 / np.sqrt(c))):
            e_w2 = wm.second_moment_w
            edge = analytic.admissible_lambda_floor(dm, e_w2)
            assert abs(edge - 2.0 * np.sqrt((c - 1) * e_w2)) < 1e-12

    def test_tangency_edge_poisson(self):
        # truncated Poisson(3, 8): the edge is where the stable branch turns
        dm = ensembles.truncated_poisson(3.0, 8)
        edge = analytic.admissible_lambda_floor(dm, 1.0)
        assert abs(edge - 3.8374444562) < 1e-9
        assert abs(stability_margin(edge, dm, 1.0)) < 1e-9

    def test_cap_edge_poisson(self):
        # truncated Poisson(4, 20): Q's k_max term sets the edge first,
        # lambda = k_max E[W^2] m, where the branch is still stable
        dm = ensembles.truncated_poisson(4.0, 20)
        edge = analytic.admissible_lambda_floor(dm, 1.0)
        assert abs(edge - dm.k_max * stable_m(edge, dm, 1.0)) < 1e-12
        assert stability_margin(edge, dm, 1.0) > 1e-3
        assert q_tilde(edge, dm, 1.0) == np.inf

    # the plain iteration contracts slowly next to a tangency edge
    @pytest.mark.parametrize("factor,iters", [(1.0 + 1e-6, 100_000), (1.001, 5000), (1.1, 2000), (2.0, 2000)])
    def test_stable_m_above_edge_matches_brute(self, factor, iters):
        for dm in (ensembles.truncated_poisson(3.0, 8), ensembles.truncated_poisson(4.0, 20),
                   ensembles.regular(4)):
            lam = factor * analytic.admissible_lambda_floor(dm, 1.0)
            assert abs(stable_m(lam, dm, 1.0) - brute_m(lam, dm, 1.0, iters)) < 1e-10

    def test_edge_is_accepted_and_below_rejected(self):
        dm = ensembles.truncated_poisson(3.0, 8)
        edge = analytic.admissible_lambda_floor(dm, 1.0)
        assert np.isfinite(q_tilde(edge, dm, 1.0))
        with pytest.raises(NegativeDenominator):
            stable_m(edge * (1.0 - 1e-12), dm, 1.0)

    def test_degenerate_tables(self):
        # floors of the former convergence-probing search, to its 1e-9 resolution
        assert abs(analytic.admissible_lambda_floor(ensembles.degree_table([0, 1]), 1.0) - 1.0) < 1e-9
        t = ensembles.degree_table([0.2, 0.3, 0.5])
        assert abs(analytic.admissible_lambda_floor(t, 1.0) - 1.88107988) < 1e-8
        # both are cap-bound: lambda = 2 sqrt(S0(2)) with r = (0.3, 1) / 1.3
        assert abs(analytic.admissible_lambda_floor(t, 1.0) - 2.0 * np.sqrt(1.15 / 1.3)) < 1e-12

    def test_floor_below_signal_lambda(self):
        dm = ensembles.truncated_poisson(4.0, 20)
        floor = analytic.admissible_lambda_floor(dm, 1.0)
        assert floor < analytic.signal_and_overlap(6.0, dm, W1, GAUSS)[0]


@pytest.mark.parametrize("c", [0, 1])
def test_input_checks(c):
    with pytest.raises(ValueError, match="random-regular closed forms need c >= 2"):
        analytic.rr_report(c, 1.0, 2.0)
