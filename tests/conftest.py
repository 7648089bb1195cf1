"""Shared fixtures: standard model triples and pre-solved populations.

Session-scoped populations are expensive to build; tests must treat them
as read-only (copy before mutating).
"""

from __future__ import annotations

import numpy as np
import pytest

from sparsespike import analytic, ensembles, graphgen, popdyn, spectral
from sparsespike.cli import derive_rng


@pytest.fixture(scope="session")
def poisson_models():
    return (
        ensembles.truncated_poisson(4.0, 20),
        ensembles.constant_weight(1.0),
        ensembles.gaussian_spike(1.0),
    )


@pytest.fixture(scope="session")
def rr_models():
    return (
        ensembles.regular(4),
        ensembles.constant_weight(1.0),
        ensembles.gaussian_spike(1.0),
    )


@pytest.fixture(scope="session")
def poisson_solved(poisson_models):
    """Poisson c=4, k_max=20, theta=6 population, solved at the resolvent
    route's (lambda, q); moderate size for unit-test speed."""
    dm, wm, sm = poisson_models
    theta = 6.0
    lam, ov = analytic.signal_and_overlap(theta, dm, wm, sm)
    q = float(np.sqrt(ov))
    config = popdyn.PopDynConfig(n_pop=50_000, alpha_samples=400_000)
    pop, q_out, lam_out, diag = popdyn.solve(theta, dm, wm, sm, config, np.random.default_rng(1234), lam, q)
    return {"pop": pop, "lambda_analytic": lam, "q_analytic": q, "diag": diag, "theta": theta}


@pytest.fixture(scope="session")
def theta_zero_poisson_pop(poisson_models):
    """theta = 0 population at an admissible lambda (structural reduction);
    its h moments decay to zero."""
    dm, wm, _ = poisson_models
    config = popdyn.PopDynConfig(n_pop=20_000)
    pop = popdyn.init_population(config, np.random.default_rng(0), 6.0, theta=0.0)
    popdyn.equilibrate(pop, config, dm, wm, None, np.random.default_rng(1))
    return pop


@pytest.fixture(scope="session")
def rr_solved(rr_models):
    """Random-regular c=4, theta=4 population at the closed-form parameters."""
    dm, wm, sm = rr_models
    rep = analytic.rr_report(4, 1.0, 4.0)
    config = popdyn.PopDynConfig(n_pop=20_000, alpha_samples=200_000)
    pop, q_out, lam_out, diag = popdyn.solve(
        4.0, dm, wm, sm, config, np.random.default_rng(77), rep.lambda_top, float(np.sqrt(rep.overlap_sq)),
    )
    return {"pop": pop, "report": rep, "diag": diag}


@pytest.fixture(scope="session")
def poisson_structural_diag(poisson_models):
    """Structural eigenvalue of the Poisson(4, 20), W = 1 noise by
    diagonalization: the mean theta = 0 top eigenvalue of 8 instances at
    N = 4000, its standard error, and the margin a population estimate is
    held to: 3 of those errors plus 0.02 for the upward finite-N shift
    (5.263 +- 0.007 at N = 4000, 5.250 +- 0.007 at N = 16000). The
    theta = 0 instances come with it; instance i's eigensolver stream is
    derive_rng(77, i, "eig")."""
    dm, wm, sm = poisson_models
    instances = [make_instance(dm, wm, sm, 4000, 0.0, 77, i) for i in range(8)]
    tops = [spectral.analyze_instance(a, rng=derive_rng(77, i, "eig")).lambda_top for i, a in enumerate(instances)]
    mean, se = float(np.mean(tops)), float(np.std(tops, ddof=1) / np.sqrt(len(tops)))
    return {"mean": mean, "se": se, "margin": 3.0 * se + 0.02, "instances": instances}


def make_instance(degree_model, weight_model, spike_model, n, theta, seed, index=0):
    """Full instance build with the production seed-derivation scheme."""
    degrees = ensembles.sample_degree_sequence(degree_model, n, derive_rng(seed, index, "degrees"))
    graph = graphgen.configuration_model(degrees, derive_rng(seed, index, "graph"))
    graph = graphgen.assign_weights(graph, weight_model, derive_rng(seed, index, "weights"))
    return graphgen.assemble_spiked(graph, spike_model, theta, derive_rng(seed, index, "spike"))


@pytest.fixture(scope="session")
def instance_factory():
    return make_instance
