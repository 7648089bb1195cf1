"""Degree, weight, and spike model construction, derived tables, and sampling."""

import numpy as np
import pytest
from scipy import stats

from sparsespike import ensembles


def brute_truncated_poisson_mean(cbar, k_max):
    """Independent oracle: direct summation of the truncated series."""
    terms = []
    t = 1.0
    for k in range(k_max + 1):
        if k > 0:
            t *= cbar / k
        terms.append(t)
    gamma = sum(terms)
    return sum(k * t for k, t in enumerate(terms)) / gamma


class TestDegreeModel:
    def test_truncated_poisson_mean_c4(self):
        model = ensembles.truncated_poisson(4.0, 20)
        assert abs(model.mean_c - 4.0) < 1e-4
        assert abs(model.mean_c - brute_truncated_poisson_mean(4.0, 20)) < 1e-12

    def test_truncated_poisson_two_terms(self):
        model = ensembles.truncated_poisson(1.0, 1)
        assert np.allclose(model.probs, [0.5, 0.5], atol=1e-15)
        assert abs(model.mean_c - 0.5) < 1e-15

    def test_truncated_poisson_large_kmax_mean_tends_to_cbar(self):
        model = ensembles.truncated_poisson(4.0, 60)
        assert abs(model.mean_c - 4.0) < 1e-12

    def test_truncated_poisson_large_rate_stable(self):
        # log-space construction must survive rates where c^k/k! overflows
        model = ensembles.truncated_poisson(200.0, 400)
        assert abs(model.probs.sum() - 1.0) < 1e-12
        assert abs(model.mean_c - 200.0) < 1e-6

    def test_regular_is_delta(self):
        model = ensembles.regular(4)
        assert model.probs[4] == 1.0
        assert model.mean_c == 4.0

    def test_regular_requires_c_above_one(self):
        with pytest.raises(ValueError):
            ensembles.regular(1)

    @pytest.mark.parametrize("make", [
        lambda: ensembles.truncated_poisson(4.0, 20),
        lambda: ensembles.regular(5),
        lambda: ensembles.degree_table([0.2, 0.3, 0.1, 0.4]),
    ])
    def test_table_invariants(self, make):
        model = make()
        k = np.arange(model.probs.size)
        assert abs(model.probs.sum() - 1.0) < 1e-12
        assert abs((k * model.probs).sum() - model.mean_c) < 1e-12
        assert abs(model.r.sum() - 1.0) < 1e-12
        assert model.r[0] == 0.0

    @pytest.mark.parametrize("make", [
        lambda: ensembles.truncated_poisson(4.0, 20),
        lambda: ensembles.regular(5),
        lambda: ensembles.degree_table([0.2, 0.3, 0.1, 0.4]),
    ])
    def test_size_bias_identity(self, make):
        # sum_k r_k f(k) = <k f(k)> / <k> for f = 1, k, k^2
        model = make()
        k = np.arange(model.probs.size, dtype=float)
        for f in (np.ones_like(k), k, k * k):
            lhs = (model.r * f).sum()
            rhs = (k * f * model.probs).sum() / model.mean_c
            assert abs(lhs - rhs) < 1e-12

    def test_degree_corrected_examples(self):
        assert ensembles.regular(4).r[4] == 1.0
        r = ensembles.degree_table([0.5, 0.5]).r
        assert r[1] == 1.0
        rp = ensembles.truncated_poisson(4.0, 20).r
        k = np.arange(21, dtype=float)
        expected = k * ensembles.truncated_poisson(4.0, 20).probs
        expected /= expected.sum()
        assert np.allclose(rp, expected, atol=1e-14)

    def test_sampling_chi_square(self):
        model = ensembles.truncated_poisson(4.0, 20)
        rng = np.random.default_rng(0)
        draws = model.sample(rng, size=100_000)
        counts = np.bincount(draws, minlength=21).astype(float)
        expected = 100_000 * model.probs
        # merge bins with expected count below 5 into the last healthy bin
        keep = expected >= 5
        obs = np.concatenate([counts[keep][:-1], [counts[keep][-1] + counts[~keep].sum()]])
        exp = np.concatenate([expected[keep][:-1], [expected[keep][-1] + expected[~keep].sum()]])
        _, pvalue = stats.chisquare(obs, exp)
        assert pvalue > 1e-3

    def test_corrected_sampling_chi_square(self):
        model = ensembles.truncated_poisson(4.0, 20)
        rng = np.random.default_rng(1)
        draws = model.sample_corrected(rng, size=100_000)
        assert draws.min() >= 1
        counts = np.bincount(draws, minlength=21).astype(float)
        expected = 100_000 * model.r
        keep = expected >= 5
        obs = np.concatenate([counts[keep][:-1], [counts[keep][-1] + counts[~keep].sum()]])
        exp = np.concatenate([expected[keep][:-1], [expected[keep][-1] + expected[~keep].sum()]])
        _, pvalue = stats.chisquare(obs, exp)
        assert pvalue > 1e-3


class TestDegreeSequence:
    def test_regular_sequence(self):
        model = ensembles.regular(4)
        seq = ensembles.sample_degree_sequence(model, 100, np.random.default_rng(0))
        assert np.all(seq == 4)
        assert seq.sum() == 400

    def test_parity_repair_forced(self):
        # support {1} only: three odd degrees sum odd, and no redraw can fix
        # parity, so the +-1 fallback must fire
        model = ensembles.degree_table([0.0, 1.0])
        seq = ensembles.sample_degree_sequence(model, 3, np.random.default_rng(0))
        assert seq.sum() % 2 == 0

    def test_parity_repair_by_redraw(self):
        model = ensembles.degree_table([0.3, 0.7])
        for seed in range(20):
            seq = ensembles.sample_degree_sequence(model, 11, np.random.default_rng(seed))
            assert seq.sum() % 2 == 0

    def test_empirical_mean(self):
        model = ensembles.truncated_poisson(4.0, 20)
        seq = ensembles.sample_degree_sequence(model, 10_000, np.random.default_rng(3))
        sd = np.sqrt(model.second_moment - model.mean_c**2)
        assert abs(seq.mean() - model.mean_c) < 3 * sd / np.sqrt(10_000)

    def test_determinism(self):
        model = ensembles.truncated_poisson(4.0, 20)
        a = ensembles.sample_degree_sequence(model, 500, np.random.default_rng(9))
        b = ensembles.sample_degree_sequence(model, 500, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestWeightModel:
    def test_constant(self):
        model = ensembles.constant_weight(1.0)
        rng = np.random.default_rng(0)
        assert model.sample(rng) == 1.0
        assert np.all(model.sample(rng, size=100) == 1.0)
        assert model.zeta == 1.0

    def test_rademacher_moments_exact(self):
        scale = 1.0 / np.sqrt(200.0)
        model = ensembles.rademacher_weight(scale)
        assert model.mean_w == 0.0
        assert model.second_moment_w == scale**2
        assert model.zeta == scale
        draws = model.sample(np.random.default_rng(0), size=1000)
        assert np.all(np.abs(draws) == scale)

    def test_monte_carlo_moments(self):
        model = ensembles.weight_table([-1.0, 0.5, 2.0], [0.25, 0.5, 0.25])
        draws = model.sample(np.random.default_rng(5), size=1_000_000)
        var = model.second_moment_w - model.mean_w**2
        se = np.sqrt(var / 1e6)
        assert abs(draws.mean() - model.mean_w) < 4 * se

    def test_zero_second_moment_rejected(self):
        with pytest.raises(ValueError):
            ensembles.constant_weight(0.0)


class TestSpikeModel:
    def test_gaussian_mean(self):
        model = ensembles.gaussian_spike(1.0)
        draws = model.sample(np.random.default_rng(0), size=1_000_000)
        assert abs(draws.mean()) < 4e-3
        assert abs((draws**2).mean() - 1.0) < 4 * np.sqrt(2.0 / 1e6)

    def test_rademacher_spike(self):
        model = ensembles.rademacher_spike(4.0)
        draws = model.sample(np.random.default_rng(0), size=1000)
        assert set(np.unique(draws)) == {-2.0, 2.0}
        assert model.sigma_x2 == 4.0

    def test_non_centered_rejected(self):
        with pytest.raises(ValueError):
            ensembles.SpikeModel(kind="custom", sigma_x2=1.0,
                                 values=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5]))

    def test_custom_centered(self):
        model = ensembles.custom_spike([-1.0, 1.0], [0.5, 0.5])
        assert model.sigma_x2 == 1.0
        draws = model.sample(np.random.default_rng(2), size=100)
        assert set(np.unique(draws)) <= {-1.0, 1.0}

    def test_bad_variance_rejected(self):
        with pytest.raises(ValueError):
            ensembles.gaussian_spike(0.0)

    def test_custom_variance_must_match_table(self):
        with pytest.raises(ValueError, match="variance"):
            ensembles.SpikeModel(kind="custom", sigma_x2=5.0,
                                 values=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))
        # a relative mismatch within 1e-12 is rounding, not a different law
        model = ensembles.SpikeModel(kind="custom", sigma_x2=1.0 + 5e-13,
                                     values=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))
        assert model.sigma_x2 == 1.0 + 5e-13
