"""Population dynamics: update semantics, equilibration, alpha estimators,
and the (q, lambda) rescaling loop."""

import copy

import numpy as np
import pytest

from sparsespike import analytic, ensembles, popdyn
from sparsespike.errors import (
    MaxSweepsExceeded,
    NonPositiveDenominator,
    NonPositiveOmega,
)

W1 = ensembles.constant_weight(1.0)
GAUSS = ensembles.gaussian_spike(1.0)


def small_config(**overrides):
    base = dict(n_pop=20_000, alpha_samples=200_000, plateau_tol=5e-3)
    base.update(overrides)
    return popdyn.PopDynConfig(**base)


class TestInit:
    def test_ranges_and_defaults(self):
        config = popdyn.PopDynConfig(n_pop=10)
        pop = popdyn.init_population(config, np.random.default_rng(0))
        assert pop.n_pop == 10
        assert np.all((pop.omega >= 5.0) & (pop.omega <= 20.0))
        assert np.all((pop.h >= 0.0) & (pop.h <= 10.0))
        assert pop.q == 0.5
        assert pop.lam == 10.0

    def test_equal_seeds_identical(self):
        config = popdyn.PopDynConfig(n_pop=100)
        a = popdyn.init_population(config, np.random.default_rng(4))
        b = popdyn.init_population(config, np.random.default_rng(4))
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.h, b.h)


class TestGather:
    def test_member_counts(self):
        # p_1 = p_2 = 1/2 (so r_1 = 1/3, r_2 = 2/3), omega = 1 and W = 1:
        # every term of {W^2/omega} is 1, so the sum counts its members
        dm = ensembles.degree_table([0.0, 0.5, 0.5])
        omega = np.ones(100)
        rng = np.random.default_rng(0)
        k, s_w2, s_hw = popdyn._gather(omega, None, dm, W1, 5000, rng, cavity=False)
        assert s_hw is None
        assert set(np.unique(k)) == {1, 2}
        assert np.array_equal(s_w2, k.astype(float))
        k, s_w2, s_hw = popdyn._gather(omega, omega, dm, W1, 5000, rng, cavity=True)
        assert set(np.unique(k)) == {1, 2}
        assert np.array_equal(s_w2, k - 1.0)
        assert np.array_equal(s_hw, s_w2)


class TestUpdateStep:
    """The replacement update of ``_sweep``."""

    def test_rr_fixed_point_preserved(self):
        # omega = 3 solves omega = lambda - (c-1)/omega at lambda = c = 4,
        # so any update reproduces omega 3 and a mean of the stored h values
        pop = popdyn.Population(omega=np.full(500, 3.0), h=np.full(500, 0.6),
                                q=0.5, lam=4.0, theta=0.0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            popdyn._sweep(pop, ensembles.regular(4), W1, GAUSS, rng, chunk=64)
        assert np.all(pop.omega == 3.0)
        assert np.allclose(pop.h, 0.6, atol=1e-12)

    def test_degree_one_sets_omega_to_lambda(self):
        leaf_only = ensembles.degree_table([0.0, 1.0])
        pop = popdyn.Population(omega=np.full(50, 7.7), h=np.zeros(50),
                                q=0.5, lam=9.25, theta=2.0)
        popdyn._sweep(pop, leaf_only, W1, GAUSS, np.random.default_rng(1), chunk=16)
        assert np.any(pop.omega == 9.25)  # empty sums give omega = lambda bit-exactly
        assert np.all((pop.omega == 9.25) | (pop.omega == 7.7))

    def test_non_positive_omega_raises(self):
        pop = popdyn.Population(omega=np.full(50, 0.1), h=np.zeros(50),
                                q=0.5, lam=1.0, theta=0.0)
        with pytest.raises(NonPositiveOmega):
            popdyn._sweep(pop, ensembles.regular(4), W1, GAUSS, np.random.default_rng(2), chunk=16)

    def test_theta_zero_stream_independent_of_spike_model(self):
        # with theta = 0 no spike draw happens, so omega AND h dynamics are
        # bit-identical whether or not a spike model is supplied
        config = popdyn.PopDynConfig(n_pop=2000)
        dm = ensembles.truncated_poisson(4.0, 20)
        pop_a = popdyn.init_population(config, np.random.default_rng(7))
        pop_b = popdyn.init_population(config, np.random.default_rng(7))
        pop_a.lam = pop_b.lam = 7.0
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        popdyn._sweep(pop_a, dm, W1, GAUSS, rng_a, config.chunk)
        popdyn._sweep(pop_b, dm, W1, None, rng_b, config.chunk)
        assert np.array_equal(pop_a.omega, pop_b.omega)
        assert np.array_equal(pop_a.h, pop_b.h)


class TestEquilibrate:
    def test_rr_collapse(self):
        # deterministic contraction: at lambda = c the omega population
        # collapses onto c - 1 to machine precision
        config = small_config(n_pop=5000, lambda_init=4.0)
        pop = popdyn.init_population(config, np.random.default_rng(0))
        diag = popdyn.equilibrate(pop, config, ensembles.regular(4), W1, None, np.random.default_rng(1))
        assert diag["converged"]
        assert abs(pop.omega.mean() - 3.0) < 1e-6
        assert pop.omega.var() < 1e-12

    def test_lambda_bump_on_non_positive_omega(self):
        # lambda = 2 is below the RR c=4 bulk edge 2 sqrt(3): equilibration
        # must inflate lambda rather than store omega <= 0
        config = small_config(n_pop=5000, lambda_init=2.0)
        pop = popdyn.init_population(config, np.random.default_rng(0))
        diag = popdyn.equilibrate(pop, config, ensembles.regular(4), W1, None, np.random.default_rng(1))
        assert diag["lambda_bumps"] >= 1
        assert pop.lam > 2 * np.sqrt(3)
        assert np.all(pop.omega > 0)

    def test_max_sweeps(self):
        config = small_config(n_pop=2000, max_sweeps=3)
        dm = ensembles.truncated_poisson(4.0, 20)
        pop = popdyn.init_population(config, np.random.default_rng(0), theta=6.0)
        pop.lam = 7.0
        with pytest.raises(MaxSweepsExceeded):
            popdyn.equilibrate(pop, config, dm, W1, GAUSS, np.random.default_rng(1))

    def test_degree_one_atom_mass(self, poisson_solved, poisson_models):
        dm, _, _ = poisson_models
        pop = poisson_solved["pop"]
        r1 = dm.r[1]
        freq = float(np.mean(pop.omega == pop.lam))
        se = np.sqrt(r1 * (1 - r1) / pop.n_pop)
        assert abs(freq - r1) < 3 * se


class TestAlphas:
    def test_solved_rr_alphas_near_one(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = rr_solved["pop"]
        a1, se1, a2, se2 = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(0), 400_000)
        # population self-correlation inflates errors beyond iid MC bars a bit
        assert abs(a1 - 1.0) < max(3 * se1, 0.01)
        assert abs(a2 - 1.0) < max(3 * se2, 0.005)

    def test_alpha1_drops_when_lambda_inflated(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        pop.lam *= 2.0
        a1, _, _, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(1), 100_000)
        assert a1 < 1.0

    def test_alpha2_linear_in_theta(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        _, _, base, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(2), 100_000)
        pop.theta *= 2.0
        _, _, doubled, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(2), 100_000)
        assert abs(doubled - 2.0 * base) < 1e-12

    def test_alpha2_vanishes_at_large_lambda(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        pop.lam = 1e6
        _, _, a2, _ = popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(3), 10_000)
        assert a2 < 1e-4

    def test_non_positive_denominator(self, rr_solved, rr_models):
        dm, wm, sm = rr_models
        pop = copy.deepcopy(rr_solved["pop"])
        pop.lam = 0.5
        with pytest.raises(NonPositiveDenominator):
            popdyn.alpha_pair(pop, dm, wm, sm, np.random.default_rng(4), 10_000)


class TestSolve:
    def test_rr_warm_start_matches_closed_form(self, rr_solved):
        rep = rr_solved["report"]
        pop = rr_solved["pop"]
        assert abs(pop.lam - rep.lambda_top) / rep.lambda_top < 0.005
        assert abs(pop.q - np.sqrt(rep.overlap_sq)) / np.sqrt(rep.overlap_sq) < 0.01
        # Kesten-McKay collapse of the omega marginal
        om_bar = 0.5 * (pop.lam + np.sqrt(pop.lam**2 - 12.0))
        assert abs(pop.omega.mean() - om_bar) < 1e-6
        assert pop.omega.std() < 1e-9

    def test_rr_cold_start_converges(self, rr_models):
        dm, wm, sm = rr_models
        config = small_config(n_pop=10_000, alpha_samples=150_000, alpha_tol=0.02)
        pop, q, lam, diag = popdyn.solve(4.0, dm, wm, sm, config, np.random.default_rng(15))
        rep = analytic.rr_report(4, 1.0, 4.0)
        assert abs(lam - rep.lambda_top) / rep.lambda_top < 0.01
        assert abs(q - np.sqrt(rep.overlap_sq)) < 0.03

    def test_deterministic_replay(self, poisson_models):
        dm, wm, sm = poisson_models
        config = small_config(n_pop=5000, alpha_samples=50_000, alpha_tol=0.05)
        warm = (6.685781102320185, 0.9376042707519016)
        out = []
        for _ in range(2):
            pop, q, lam, diag = popdyn.solve(
                6.0, dm, wm, sm, config, np.random.default_rng(99), warm_start=warm
            )
            out.append((pop.omega.copy(), pop.h.copy(), q, lam,
                        [(h["alpha1"], h["alpha2"]) for h in diag["history"]]))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        assert out[0][2:] == out[1][2:]

    def test_solve_rejects_theta_zero(self, rr_models):
        dm, wm, sm = rr_models
        with pytest.raises(ValueError):
            popdyn.solve(0.0, dm, wm, sm, small_config(), np.random.default_rng(0))


class TestStructural:
    def test_rr_structural_is_c(self, rr_models):
        dm, wm, _ = rr_models
        config = popdyn.PopDynConfig(n_pop=20_000)
        floor = analytic.admissible_lambda_floor(dm, 1.0)
        assert abs(floor - 2 * np.sqrt(3)) < 1e-6
        lam, diag = popdyn.structural_lambda(
            dm, wm, config, np.random.default_rng(5), lam_lo=floor, lam_hi=6.0
        )
        assert abs(lam - 4.0) < 0.05

    def test_sign_mixed_weights_rejected(self, rr_models):
        dm, _, _ = rr_models
        config = popdyn.PopDynConfig(n_pop=1000)
        with pytest.raises(ValueError):
            popdyn.structural_lambda(
                dm, ensembles.rademacher_weight(0.5), config,
                np.random.default_rng(0), lam_lo=2.0, lam_hi=4.0,
            )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rr_solved):
        pop = rr_solved["pop"]
        path = str(tmp_path / "pop.npz")
        popdyn.save_population(pop, path, seed=77)
        loaded = popdyn.load_population(path)
        assert np.array_equal(loaded.omega, pop.omega)
        assert np.array_equal(loaded.h, pop.h)
        assert (loaded.q, loaded.lam, loaded.theta) == (pop.q, pop.lam, pop.theta)
        assert loaded.sweep_count == pop.sweep_count
