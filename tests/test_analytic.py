"""Fixed-point, threshold, and closed-form predictions, cross-checked against
independent iteration oracles and against population dynamics."""

import numpy as np
import pytest

from sparsespike import analytic, ensembles, popdyn
from sparsespike.errors import NegativeDenominator, NoConvergence, RootNotBracketed

W1 = ensembles.constant_weight(1.0)
GAUSS = ensembles.gaussian_spike(1.0)


def stable_m(lam, degree_model, e_w2):
    """m on the stable branch, read off x = lambda/m."""
    return lam / analytic._solve_x(lam, degree_model, e_w2)


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
        with pytest.raises((NegativeDenominator, NoConvergence)):
            stable_m(3.0, ensembles.regular(4), 1.0)


class TestQTilde:
    def test_poisson_two_term_form(self):
        # the direct sum over p_k telescopes to the explicit
        # (c/cbar) m + p_kmax/(lambda - kmax E[W^2] m) expression
        dm = ensembles.truncated_poisson(4.0, 20)
        for lam in (5.5, 6.0, 8.0, 12.0):
            m = stable_m(lam, dm, 1.0)
            two_term = (dm.mean_c / dm.cbar) * m + dm.probs[-1] / (lam - dm.k_max * m)
            assert abs(analytic.q_tilde(lam, dm, 1.0) - two_term) < 5e-13

    def test_large_kmax_correction_negligible(self):
        # lambda must sit above the k_max-inflated spectral edge ~ sqrt(k_max)
        dm = ensembles.truncated_poisson(4.0, 60)
        lam = 10.0
        m = stable_m(lam, dm, 1.0)
        correction = dm.probs[-1] / (lam - dm.k_max * m)
        assert correction < 1e-10
        assert abs(analytic.q_tilde(lam, dm, 1.0) - m * dm.mean_c / dm.cbar) < 1e-10

    def test_monotone_decreasing_positive(self):
        dm = ensembles.truncated_poisson(4.0, 20)
        grid = np.linspace(5.3, 12.0, 25)
        vals = [analytic.q_tilde(lam, dm, 1.0) for lam in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_population_cross_oracle(self, poisson_solved, poisson_models):
        # Q_hat from the equilibrated population against the fixed-point route
        dm, wm, _ = poisson_models
        pop = poisson_solved["pop"]
        qhat = analytic.q_general(pop, dm, wm, np.random.default_rng(0), 400_000)
        qfix = analytic.q_tilde(pop.lam, dm, 1.0)
        assert abs(qhat - qfix) / qfix < 3e-3

    def test_prime_matches_finite_difference(self):
        # the grid reaches edge (1 + 1e-4), next to the cap-bound (4, 20) and
        # the tangency-bound (3, 8) edge; the step shrinks with the distance
        for dm in (ensembles.truncated_poisson(4.0, 20), ensembles.truncated_poisson(3.0, 8)):
            edge = analytic.admissible_lambda_floor(dm, 1.0)
            for lam in (edge * (1.0 + 1e-4), edge * (1.0 + 1e-3), edge * 1.05, 6.0, 8.0, 12.0):
                qp = analytic.q_tilde_prime(lam, dm, 1.0)
                step = 1e-4 * (lam - edge)
                fd = (analytic.q_tilde(lam + step, dm, 1.0) - analytic.q_tilde(lam - step, dm, 1.0)) / (2 * step)
                assert abs(qp - fd) < 1e-7 * abs(qp)
                assert qp < 0

    def test_prime_unbounded_at_edge(self):
        for dm in (ensembles.truncated_poisson(4.0, 20), ensembles.truncated_poisson(3.0, 8)):
            with pytest.raises(NegativeDenominator):
                analytic.q_tilde_prime(analytic.admissible_lambda_floor(dm, 1.0), dm, 1.0)


class TestQGeneral:
    def test_collapsed_rr_population(self):
        # omega identically 3 at lambda = 4: every sample sees the same
        # denominator 4 - 4/3 = 8/3, so Q_hat = 3/8 with zero variance
        pop = popdyn.Population(omega=np.full(1000, 3.0), h=np.zeros(1000),
                                q=0.0, lam=4.0, theta=0.0)
        qhat = analytic.q_general(pop, ensembles.regular(4), W1, np.random.default_rng(0), 20_000)
        assert abs(qhat - 0.375) < 1e-12

    def test_large_lambda(self):
        pop = popdyn.Population(omega=np.full(1000, 3.0), h=np.zeros(1000),
                                q=0.0, lam=1e6, theta=0.0)
        qhat = analytic.q_general(pop, ensembles.regular(4), W1, np.random.default_rng(2), 5_000)
        assert abs(qhat - 1e-6) < 1e-8


class TestThetaCrit:
    def test_rr_closed_form(self):
        assert abs(analytic.theta_crit(ensembles.regular(4), W1, GAUSS, 4.0) - 8.0 / 3.0) < 1e-12

    def test_marginal_chain(self):
        assert analytic.theta_crit(ensembles.regular(2), W1, GAUSS, 2.0) == 0.0

    def test_large_c_trend_to_dense(self):
        # weights 1/sqrt(c): thresholds rise monotonically to 1/sigma^2,
        # within 3% by c = 200
        vals = []
        for c in (10, 30, 80, 200):
            dm = ensembles.regular(c)
            wm = ensembles.rademacher_weight(1.0 / np.sqrt(c))
            edge = analytic.admissible_lambda_floor(dm, wm.second_moment_w)
            vals.append(analytic.theta_crit(dm, wm, GAUSS, edge))
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 0.03


class TestLambdaSignal:
    def test_rr_closed_form(self):
        lam = analytic.lambda_signal(4.0, ensembles.regular(4), W1, GAUSS)
        assert abs(lam - (4 * np.sqrt(5) - 4)) < 1e-8

    def test_threshold_continuity(self):
        lam = analytic.lambda_signal(8.0 / 3.0 + 1e-4, ensembles.regular(4), W1, GAUSS)
        assert abs(lam - 4.0) < 1e-2

    def test_below_detachment_not_bracketed(self):
        # the branch exists down to theta_b ~ 1.1547; below it there is no root
        with pytest.raises(RootNotBracketed):
            analytic.lambda_signal(1.0, ensembles.regular(4), W1, GAUSS)

    @pytest.mark.parametrize("theta", [0.0, -1.0])
    def test_no_signal_branch_at_theta_zero(self, theta):
        # 1/(theta sigma^2) has no value at theta = 0 (see the CLI test of
        # theta = 0 on Poisson noise for the report)
        with pytest.raises(RootNotBracketed):
            analytic.lambda_signal(theta, ensembles.truncated_poisson(4.0, 20), W1, GAUSS)

    def test_between_detachment_and_threshold_returns_branch(self):
        # for theta_b < theta < theta_crit the root is the detached branch
        # (the second eigenvalue), matching the closed form
        lam = analytic.lambda_signal(2.0, ensembles.regular(4), W1, GAUSS)
        assert abs(lam - analytic.rr_report(4, 1.0, 2.0).lambda_theta) < 1e-8

    @pytest.mark.parametrize("cbar", [3.5, 4.0])
    def test_root_next_to_cap_edge(self, cbar):
        # at theta = 2 the root of truncated Poisson(cbar, 20) lies within
        # 1e-8 relative of the cap-bound edge, where the overlap is tiny
        dm = ensembles.truncated_poisson(cbar, 20)
        lam, ov = analytic.signal_and_overlap(2.0, dm, W1, GAUSS)
        assert lam >= analytic.admissible_lambda_floor(dm, 1.0)
        assert 0.0 < ov < 1e-6

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
        fd = (analytic.lambda_signal(theta + step, dm, W1, GAUSS)
              - analytic.lambda_signal(theta - step, dm, W1, GAUSS)) / (2 * step)
        assert abs(ov - fd) < 1e-4 * abs(fd)

    def test_derivative_identity_poisson(self):
        dm = ensembles.truncated_poisson(4.0, 20)
        theta = 6.0
        ov = analytic.signal_and_overlap(theta, dm, W1, GAUSS)[1]
        step = 5e-3
        fd = (analytic.lambda_signal(theta + step, dm, W1, GAUSS)
              - analytic.lambda_signal(theta - step, dm, W1, GAUSS)) / (2 * step)
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

    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_generic_route_matches_closed_forms(self, c):
        # the resolvent route against the closed forms to near machine
        # precision: the branch above theta_b, the overlap above theta_crit;
        # theta_b is 0 for the chain c = 2, so its grid is positive thetas
        dm = ensembles.regular(c)
        rep = analytic.rr_report(c, 1.0, 0.0)
        scale = rep.theta_b if rep.theta_b > 0 else 0.1
        for theta in scale * np.array([1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0]):
            closed = analytic.rr_report(c, 1.0, theta)
            assert abs(analytic.lambda_signal(theta, dm, W1, GAUSS) - closed.lambda_theta) < 1e-12
            if theta > closed.theta_crit:
                assert abs(analytic.signal_and_overlap(theta, dm, W1, GAUSS)[1] - closed.overlap_sq) < 1e-12

    def test_rr_vs_generic_pipeline(self):
        # closed forms against the generic resolvent machinery, 1e-6
        rep = analytic.rr_report(4, 1.0, 4.0)
        lam = analytic.lambda_signal(4.0, ensembles.regular(4), W1, GAUSS)
        ov = analytic.signal_and_overlap(4.0, ensembles.regular(4), W1, GAUSS)[1]
        assert abs(lam - rep.lambda_top) < 1e-6
        assert abs(ov - rep.overlap_sq) < 1e-6
        # and against the population route on a collapsed population
        om_bar = 0.5 * (rep.lambda_top + np.sqrt(rep.lambda_top**2 - 12.0))
        pop = popdyn.Population(omega=np.full(100, om_bar), h=np.zeros(100),
                                q=0.0, lam=rep.lambda_top, theta=4.0)
        qhat = analytic.q_general(pop, ensembles.regular(4), W1, np.random.default_rng(0), 1000)
        assert abs(4.0 * qhat - 1.0) < 1e-9  # theta sigma^2 Q(lambda_theta) = 1


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
        assert analytic.q_tilde(edge, dm, 1.0) == np.inf

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
        assert np.isfinite(analytic.q_tilde(edge, dm, 1.0))
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
        assert floor < analytic.lambda_signal(6.0, dm, W1, GAUSS)
