"""Eigensolver contracts: dense-oracle equivalence, the small-N dense path,
the matvec budget, variational dominance, and the empirical recovery
observables."""

from dataclasses import fields, replace

import numpy as np
import pytest

from sparsespike import analytic, ensembles, graphgen, spectral
from sparsespike.cli import derive_rng
from sparsespike.errors import NotConverged
from conftest import make_instance


def small_instance(seed, n=50, theta=3.0):
    rng = np.random.default_rng(seed)
    model = ensembles.truncated_poisson(3.0, 8)
    degrees = ensembles.sample_degree_sequence(model, n, rng)
    g = graphgen.configuration_model(degrees, rng)
    g = graphgen.assign_weights(g, ensembles.weight_table([-1.0, 1.0], [0.5, 0.5]), rng)
    return graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), theta, rng)


class TestTopEigenpair:
    def test_two_by_two(self):
        # [[0, 1], [1, 0]]: top pair (1, (1, 1) / sqrt(2))
        noise = graphgen.SparseSymmetric(n=2, edge_u=np.array([0]), edge_v=np.array([1]),
                                         edge_w=np.array([1.0]))
        rep = spectral.analyze_instance(graphgen.SpikedMatrix(noise=noise, x=np.array([1.0, -2.0]), theta=0.0))
        lam, v = rep.lambda_top, rep.v_top
        assert abs(lam - 1.0) < 1e-12
        assert abs(abs(v[0]) - abs(v[1])) < 1e-8
        assert np.sign(v[0]) == np.sign(v[1])

    def test_regular_graph_perron(self):
        # every component of a 4-regular graph carries the Perron value 4
        g = graphgen.configuration_model(np.full(2000, 4), np.random.default_rng(0))
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 0.0, np.random.default_rng(1))
        rep = spectral.analyze_instance(a)
        assert abs(rep.lambda_top - 4.0) < 1e-8
        assert abs(rep.v_top @ rep.v_top - 2000.0) < 1e-9 * 2000

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_oracle(self, seed):
        a = small_instance(seed)
        dense = a.to_dense()
        evals = np.linalg.eigvalsh(dense)
        rep = spectral.analyze_instance(a)
        assert abs(rep.lambda_top - evals[-1]) < 1e-9
        assert abs(rep.lambda_second - evals[-2]) < 1e-9

    def test_not_converged(self, monkeypatch):
        a = small_instance(0, n=200)
        monkeypatch.setattr(spectral, "_MAX_ITER", 3)
        with pytest.raises(NotConverged):
            spectral.analyze_instance(a)

    def test_norm_contract(self):
        a = small_instance(1)
        rep = spectral.analyze_instance(a)
        lam, v = rep.lambda_top, rep.v_top
        assert abs(v @ v - a.n) < 1e-9 * a.n
        dense = a.to_dense()
        assert np.linalg.norm(dense @ v - lam * v) <= 1e-9 * abs(lam) * np.linalg.norm(v)


class TestSecondEigenvalue:
    def test_diagonal_two_by_two(self):
        # edge weight -1 cancels the off-diagonal spike term: A = diag(2, 0.5)
        noise = graphgen.SparseSymmetric(n=2, edge_u=np.array([0]), edge_v=np.array([1]),
                                         edge_w=np.array([-1.0]))
        a = graphgen.SpikedMatrix(noise=noise, x=np.array([2.0, 1.0]), theta=1.0)
        assert np.array_equal(a.to_dense(), np.diag([2.0, 0.5]))
        rep = spectral.analyze_instance(a)
        assert abs(rep.lambda_top - 2.0) < 1e-12
        assert abs(rep.lambda_second - 0.5) < 1e-10

    def test_rr_structural_second(self):
        # above threshold the structural value c=4 becomes the second eigenvalue
        a = make_instance(ensembles.regular(4), ensembles.constant_weight(1.0),
                          ensembles.gaussian_spike(1.0), 2000, 4.0, seed=21)
        rep = spectral.analyze_instance(a)
        assert rep.lambda_top > 4.5
        assert abs(rep.lambda_second - 4.0) < 0.15

    def test_deflation_consistency(self):
        a = small_instance(2)
        evals = np.linalg.eigvalsh(a.to_dense())
        rep = spectral.analyze_instance(a)
        assert rep.lambda_top >= rep.lambda_second
        assert abs(rep.lambda_top - evals[-1]) < 1e-9
        assert abs(rep.lambda_second - evals[-2]) < 1e-9

    def test_degenerate_top_reported_twice(self):
        # two disjoint unit edges: eigenvalues {1, 1, -1, -1}
        noise = graphgen.SparseSymmetric(
            n=4,
            edge_u=np.array([0, 2]),
            edge_v=np.array([1, 3]),
            edge_w=np.array([1.0, 1.0]),
        )
        a = graphgen.SpikedMatrix(noise=noise, x=np.array([1.0, -1.0, 0.5, 0.25]), theta=0.0)
        rep = spectral.analyze_instance(a)
        assert abs(rep.lambda_top - 1.0) < 1e-10
        assert abs(rep.lambda_second - 1.0) < 1e-10


class TestSmallN:
    """N <= 2k has no room for ARPACK's Krylov space: the dense path answers."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_path_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        u, v = np.triu_indices(n, 1)
        noise = graphgen.SparseSymmetric(n=n, edge_u=u, edge_v=v, edge_w=rng.standard_normal(u.size))
        a = graphgen.SpikedMatrix(noise=noise, x=rng.standard_normal(n), theta=1.5)
        evals = np.linalg.eigvalsh(a.to_dense())
        rep = spectral.analyze_instance(a)
        assert abs(rep.lambda_top - evals[-1]) < 1e-12
        assert abs(rep.lambda_second - evals[-2]) < 1e-12
        assert max(rep.residual_top, rep.residual_second) <= 1e-10
        assert rep.iterations == 2  # the two residual checks only

    def test_top_pair_at_two(self):
        # [[1, 2], [2, 1]]: top pair (3, (1, 1)), second -1; overlap with x = (1, 1) is 1
        noise = graphgen.SparseSymmetric(n=2, edge_u=np.array([0]), edge_v=np.array([1]),
                                         edge_w=np.array([1.0]))
        a = graphgen.SpikedMatrix(noise=noise, x=np.array([1.0, 1.0]), theta=2.0)
        rep = spectral.analyze_instance(a)
        assert abs(rep.lambda_top - 3.0) < 1e-12
        assert abs(rep.lambda_second + 1.0) < 1e-12
        assert abs(rep.overlap - 1.0) < 1e-12
        assert rep.iterations == 2


class TestMatvecBudget:
    @pytest.mark.parametrize("theta", [1.5, 4.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_rr4_single_solve(self, theta, seed, monkeypatch):
        # one k=2 solve stays below 602 products, the cost of two separate
        # 300-vector Lanczos blocks plus their residual checks
        a = make_instance(ensembles.regular(4), ensembles.constant_weight(1.0),
                          ensembles.gaussian_spike(1.0), 4000, theta, seed)
        calls = 0
        matvec = graphgen.SpikedMatrix.matvec

        def counted(self, v):
            nonlocal calls
            calls += 1
            return matvec(self, v)

        monkeypatch.setattr(graphgen.SpikedMatrix, "matvec", counted)
        rep = spectral.analyze_instance(a, rng=derive_rng(seed, 0, "eig"))
        assert rep.iterations == calls
        assert rep.iterations < 600
        assert rep.residual_top <= 1e-10
        assert rep.residual_second <= 1e-10

    @pytest.mark.parametrize("max_iter", [2**31, 10**20])
    def test_budget_beyond_a_c_int(self, monkeypatch, max_iter):
        # ARPACK reads maxiter as a C int: a larger budget must run as the default one does,
        # not wrap to a negative count (ARPACK error -4) or overflow (SystemError)
        a = make_instance(ensembles.regular(3), ensembles.constant_weight(1.0),
                          ensembles.gaussian_spike(1.0), 50, 4.0, 1)
        ref = spectral.analyze_instance(a, rng=derive_rng(1, 0, "eig"))
        monkeypatch.setattr(spectral, "_MAX_ITER", max_iter)
        big = spectral.analyze_instance(a, rng=derive_rng(1, 0, "eig"))
        for f in fields(ref):
            assert np.array_equal(getattr(big, f.name), getattr(ref, f.name)), f.name


class TestFullSpectrum:
    def test_zero_matrix(self):
        noise = graphgen.SparseSymmetric(n=5, edge_u=np.empty(0, np.int64),
                                         edge_v=np.empty(0, np.int64), edge_w=np.empty(0))
        a = graphgen.SpikedMatrix(noise=noise, x=np.zeros(5), theta=0.0)
        assert np.all(np.linalg.eigvalsh(a.to_dense()) == 0.0)

    def test_rr_bulk_edges_and_outlier(self):
        g = graphgen.configuration_model(np.full(2000, 4), np.random.default_rng(5))
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 0.0, np.random.default_rng(6))
        evals = np.linalg.eigvalsh(a.to_dense())
        assert abs(evals[-1] - 4.0) < 1e-10
        assert abs(evals[-2] - 2 * np.sqrt(3)) < 0.15   # bulk edge 2 sqrt(c-1)
        assert evals[0] > -2 * np.sqrt(3) - 0.15        # odd cycles: no -4 outlier

    def test_trace_identity(self):
        # zero diagonal noise: sum of eigenvalues = theta ||x||^2 / N
        a = small_instance(4, n=40, theta=2.0)
        evals = np.linalg.eigvalsh(a.to_dense())
        trace = a.theta * float(a.x @ a.x) / a.n
        assert abs(evals.sum() - trace) <= 1e-6 * max(abs(trace), 1.0)


class TestObservables:
    def test_variational_dominance(self):
        a = small_instance(5, n=120)
        lam = spectral.analyze_instance(a).lambda_top
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.standard_normal(120)
            assert (u @ a.matvec(u)) / (u @ u) <= lam + 1e-8

    def test_perfect_alignment(self):
        # pure rank-one with ||x||^2 = N: the top eigenvector is the spike
        # itself, so the overlap equals ||x||^2 / N = 1
        n = 100
        rng = np.random.default_rng(8)
        noise = graphgen.SparseSymmetric(n=n, edge_u=np.empty(0, np.int64),
                                         edge_v=np.empty(0, np.int64), edge_w=np.empty(0))
        x = rng.standard_normal(n)
        x *= np.sqrt(n) / np.linalg.norm(x)
        a = graphgen.SpikedMatrix(noise=noise, x=x, theta=5.0)
        rep = spectral.analyze_instance(a)
        assert abs(rep.overlap - float(x @ x) / n) < 1e-8
        assert abs(rep.overlap - 1.0) < 1e-8

    def test_gauge_non_negative(self):
        for seed in range(5):
            a = small_instance(seed, theta=0.0)
            rep = spectral.analyze_instance(a)
            assert rep.overlap >= 0.0

    def test_component_products(self):
        a = small_instance(9)
        rep = spectral.analyze_instance(a)
        products = a.x * rep.v_top
        assert abs(products.mean() - rep.overlap) < 1e-12
        assert abs(rep.v_top @ rep.v_top - a.n) < 1e-8 * a.n


@pytest.mark.parametrize("factor", [0.9, 1.15])
def test_poisson_transition_at_theta_crit(factor, poisson_models, poisson_structural_diag):
    # the transition itself on heterogeneous noise: theta_crit read by the
    # route at the diagonalized structural eigenvalue; the fixture's 8
    # Poisson(4, 20) instances at N = 4000 (seed 77) show no overlap 10%
    # below it and the route's overlap 15% above it (seeds 77-82 read
    # overlap^2 0.004-0.031 below, and within 0.026 of 0.81 above, SE 0.008-0.013)
    dm, wm, sm = poisson_models
    theta = factor * analytic.report(0.0, dm, wm, sm, poisson_structural_diag["mean"]).theta_crit
    ov2 = np.array([spectral.analyze_instance(replace(a, theta=theta), rng=derive_rng(77, i, "eig")).overlap_sq
                    for i, a in enumerate(poisson_structural_diag["instances"])])
    se = ov2.std(ddof=1) / np.sqrt(ov2.size)
    if factor < 1:
        assert ov2.mean() < 0.1
    else:
        assert abs(ov2.mean() - analytic.signal_and_overlap(theta, dm, wm, sm)[1]) < 0.05 + 3.0 * se
