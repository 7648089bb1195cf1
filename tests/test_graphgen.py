"""Configuration-model generation, weight assignment, and the spiked operator."""

import itertools

import numpy as np
import pytest
from scipy import stats

from sparsespike import ensembles, graphgen
from sparsespike.errors import InfeasibleSequence, RestartBudgetExhausted


def assert_simple(graph):
    assert np.all(graph.edge_u < graph.edge_v)
    codes = graph.edge_u.astype(np.int64) * graph.n + graph.edge_v
    assert np.unique(codes).size == codes.size


def degrees_of(graph):
    return np.bincount(graph.edge_u, minlength=graph.n) + np.bincount(graph.edge_v, minlength=graph.n)


class TestConfigurationModel:
    def test_single_edge(self):
        g = graphgen.configuration_model([1, 1], np.random.default_rng(0))
        assert g.n_edges == 1
        assert (g.edge_u[0], g.edge_v[0]) == (0, 1)

    def test_regular_2000(self):
        degrees = np.full(2000, 4)
        g = graphgen.configuration_model(degrees, np.random.default_rng(1))
        assert_simple(g)
        assert np.array_equal(degrees_of(g), degrees)

    def test_poisson_degrees_exact(self):
        model = ensembles.truncated_poisson(4.0, 20)
        rng = np.random.default_rng(2)
        degrees = ensembles.sample_degree_sequence(model, 2000, rng)
        g = graphgen.configuration_model(degrees, rng)
        assert_simple(g)
        assert np.array_equal(degrees_of(g), degrees)

    def test_infeasible_degree(self):
        with pytest.raises(InfeasibleSequence):
            graphgen.configuration_model([5, 1, 1, 1, 1], np.random.default_rng(0))

    def test_odd_sum(self):
        with pytest.raises(InfeasibleSequence):
            graphgen.configuration_model([2, 1], np.random.default_rng(0))

    def test_near_infeasible_exhausts_restarts(self):
        # [3,3,1,1] passes the cheap feasibility checks but is not graphical
        with pytest.raises(RestartBudgetExhausted):
            graphgen.configuration_model([3, 3, 1, 1], np.random.default_rng(0))

    def test_repair_path_dense_regular(self):
        # nu ~ 29 makes P(simple) ~ exp(-225): repair must engage and still
        # deliver the exact degree sequence with no self/multi edges
        degrees = np.full(80, 30)
        g = graphgen.configuration_model(degrees, np.random.default_rng(3))
        assert_simple(g)
        assert np.array_equal(degrees_of(g), degrees)

    def test_empty_graph(self):
        g = graphgen.configuration_model([0, 0, 0], np.random.default_rng(0))
        assert g.n_edges == 0
        assert g.matvec(np.ones(3)).tolist() == [0.0, 0.0, 0.0]

    def test_regular_six_takes_repair(self, monkeypatch):
        # nu = 5 is past the restart rule's bound: no pairing is tested the
        # restart way, and repair still gives the exact degrees, simple
        def restart_test(u, v, n):
            raise AssertionError("restart path taken")

        monkeypatch.setattr(graphgen, "_is_simple", restart_test)
        degrees = np.full(2000, 6)
        g = graphgen.configuration_model(degrees, np.random.default_rng(4))
        assert_simple(g)
        assert np.array_equal(degrees_of(g), degrees)


class TestSimplePairing:
    def test_matches_pairing_defects(self):
        """``_is_simple`` is the event "no defect" on pairings with loops only,
        multi-edges only, both, and neither."""
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            degrees = rng.integers(0, 4, size=n)
            if degrees.sum() % 2:
                degrees[0] += 1
            perm = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), degrees))
            u, v = perm[0::2], perm[1::2]
            loop = bool((u == v).any())
            codes = np.minimum(u, v) * n + np.maximum(u, v)
            multi = np.unique(codes[u != v]).size < int((u != v).sum())
            seen.add((loop, multi))
            assert graphgen._is_simple(u, v, n) == (graphgen._pairing_defects(u, v, n).size == 0)
        assert seen == {(False, False), (True, False), (False, True), (True, True)}

    @pytest.mark.parametrize("model,n", [
        (ensembles.truncated_poisson(4.0, 20), 2000),
        (ensembles.regular(4), 4000),
        (ensembles.regular(5), 2000),  # nu = 4, the densest regular law that restarts
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restart_matches_reference_loop(self, model, n, seed):
        """Same accepted pairing and same generator state afterwards as a
        restart loop that tests every pairing with ``_pairing_defects``."""
        degrees = ensembles.sample_degree_sequence(model, n, np.random.default_rng(100 + seed))
        stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
        ref_rng = np.random.default_rng(seed)
        while True:
            perm = ref_rng.permutation(stubs)
            u, v = perm[0::2], perm[1::2]
            if graphgen._pairing_defects(u, v, n).size == 0:
                break
        ref = graphgen._edges_to_graph(n, u, v)
        rng = np.random.default_rng(seed)
        g = graphgen.configuration_model(degrees, rng)
        assert np.array_equal(g.edge_u, ref.edge_u)
        assert np.array_equal(g.edge_v, ref.edge_v)
        assert rng.random() == ref_rng.random()

    def test_restart_is_uniform(self):
        """[3, 3, 2, 2, 1, 1] has 17 labelled simple graphs; full-restart
        rejection must draw each equally often."""
        degrees = [3, 3, 2, 2, 1, 1]
        pairs = list(itertools.combinations(range(6), 2))
        graphs = []
        for chosen in itertools.combinations(pairs, sum(degrees) // 2):
            if np.array_equal(np.bincount(np.ravel(chosen), minlength=6), degrees):
                graphs.append(chosen)
        assert len(graphs) == 17
        index = {g: i for i, g in enumerate(graphs)}
        rng = np.random.default_rng(8)
        counts = np.zeros(len(graphs))
        for _ in range(3400):
            g = graphgen.configuration_model(degrees, rng)
            counts[index[tuple(zip(g.edge_u.tolist(), g.edge_v.tolist()))]] += 1
        assert stats.chisquare(counts).pvalue > 1e-3


class TestWeights:
    def test_constant_weights(self):
        g = graphgen.configuration_model(np.full(100, 4), np.random.default_rng(0))
        g = graphgen.assign_weights(g, ensembles.constant_weight(1.0), np.random.default_rng(1))
        assert np.all(g.edge_w == 1.0)

    def test_symmetry(self):
        g = graphgen.configuration_model(np.full(100, 4), np.random.default_rng(0))
        g = graphgen.assign_weights(
            g, ensembles.weight_table([-1.0, 2.0], [0.5, 0.5]), np.random.default_rng(1)
        )
        dense = g.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)

    def test_rademacher_magnitudes(self):
        scale = 0.25
        g = graphgen.configuration_model(np.full(50, 3), np.random.default_rng(0))
        g = graphgen.assign_weights(g, ensembles.rademacher_weight(scale), np.random.default_rng(1))
        assert np.all(np.abs(g.edge_w) == scale)


class TestSpikedMatrix:
    def test_theta_zero_equals_noise(self):
        g = graphgen.configuration_model(np.full(50, 3), np.random.default_rng(0))
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 0.0, np.random.default_rng(1))
        v = np.random.default_rng(2).standard_normal(50)
        assert np.array_equal(a.matvec(v), g.matvec(v))

    def test_rank_one_two_by_two(self):
        noise = graphgen.SparseSymmetric(n=2, edge_u=np.empty(0, np.int64),
                                         edge_v=np.empty(0, np.int64), edge_w=np.empty(0))
        a = graphgen.SpikedMatrix(noise=noise, x=np.array([1.0, 1.0]), theta=2.0)
        assert np.allclose(a.to_dense(), [[1.0, 1.0], [1.0, 1.0]])
        assert abs(np.linalg.eigvalsh(a.to_dense())[-1] - 2.0) < 1e-14

    def test_spike_norm_concentration(self):
        g = graphgen.configuration_model(np.full(2000, 4), np.random.default_rng(0))
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 1.0, np.random.default_rng(5))
        # ||x||^2/N is a chi-square mean: sd = sqrt(2/N)
        assert abs((a.x**2).mean() - 1.0) < 3 * np.sqrt(2.0 / 2000)

    def test_matvec_zero(self):
        g = graphgen.configuration_model(np.full(10, 3), np.random.default_rng(0))
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 2.0, np.random.default_rng(1))
        assert np.all(a.matvec(np.zeros(10)) == 0.0)

    def test_matvec_projector(self):
        n = 8
        noise = graphgen.SparseSymmetric(n=n, edge_u=np.empty(0, np.int64),
                                         edge_v=np.empty(0, np.int64), edge_w=np.empty(0))
        e1 = np.zeros(n)
        e1[0] = 1.0
        a = graphgen.SpikedMatrix(noise=noise, x=e1, theta=float(n))
        assert np.allclose(a.matvec(e1), e1, atol=1e-15)

    def test_matvec_dense_oracle(self):
        rng = np.random.default_rng(7)
        model = ensembles.truncated_poisson(3.0, 10)
        degrees = ensembles.sample_degree_sequence(model, 50, rng)
        g = graphgen.configuration_model(degrees, rng)
        g = graphgen.assign_weights(g, ensembles.weight_table([-1.0, 1.0, 0.5], [0.3, 0.4, 0.3]), rng)
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(2.0), 3.0, rng)
        dense = a.to_dense()
        for _ in range(10):
            v = rng.standard_normal(50)
            assert np.max(np.abs(a.matvec(v) - dense @ v)) < 1e-12

    def test_matvec_dimension_mismatch(self):
        g = graphgen.configuration_model(np.full(10, 3), np.random.default_rng(0))
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 1.0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            a.matvec(np.zeros(11))

    def test_operator_symmetry(self):
        rng = np.random.default_rng(11)
        g = graphgen.configuration_model(np.full(200, 4), rng)
        g = graphgen.assign_weights(g, ensembles.rademacher_weight(0.5), rng)
        a = graphgen.assemble_spiked(g, ensembles.gaussian_spike(1.0), 2.0, rng)
        for _ in range(5):
            u = rng.standard_normal(200)
            v = rng.standard_normal(200)
            lhs = u @ a.matvec(v)
            rhs = a.matvec(u) @ v
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_gershgorin_bound(self):
        rng = np.random.default_rng(13)
        g = graphgen.configuration_model(np.full(40, 4), rng)
        g = graphgen.assign_weights(g, ensembles.weight_table([-2.0, 1.0], [0.5, 0.5]), rng)
        eigs = np.linalg.eigvalsh(g.to_dense())
        bound = np.abs(g.to_dense()).sum(axis=1).max()
        assert np.all(np.abs(eigs) <= bound + 1e-12)

