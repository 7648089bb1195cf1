"""Distributional observables of an equilibrated population: component and
overlap-component densities with their degree decompositions, marginal CDFs
of omega and h, and overlap moments.

Sampling is read-only over a frozen population, so one checkpoint serves
every observable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .ensembles import DegreeModel, SpikeModel, WeightModel
from .errors import NonPositiveDenominator
from .popdyn import Population, _node_draws


@dataclass(frozen=True)
class DensityEstimate:
    """Monte Carlo density sample with histogram, CDF grid, and per-degree split."""

    samples: np.ndarray
    k_tags: np.ndarray
    bin_edges: np.ndarray
    masses: np.ndarray
    cdf_x: np.ndarray
    cdf_y: np.ndarray
    per_degree_counts: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _build_density(samples: np.ndarray, k_tags: np.ndarray, metadata: dict, bins="fd") -> DensityEstimate:
    counts, edges = np.histogram(samples, bins=bins)
    masses = counts / counts.sum()
    order = np.sort(samples)
    cdf_y = np.arange(1, order.size + 1) / order.size
    per_degree = {}
    for k in np.unique(k_tags):
        sub, _ = np.histogram(samples[k_tags == k], bins=edges)
        per_degree[int(k)] = sub
    return DensityEstimate(
        samples=samples,
        k_tags=k_tags,
        bin_edges=edges,
        masses=masses,
        cdf_x=order,
        cdf_y=cdf_y,
        per_degree_counts=per_degree,
        metadata=metadata,
    )


def _component_samples(pop, degree_model, weight_model, spike_model, n_samples, rng, overlap: bool):
    us, ks = [], []
    for k, s_w2, s_hw in _node_draws(pop.omega, pop.h, degree_model, weight_model, n_samples, rng):
        den = pop.lam - s_w2
        if den.min() <= 0:
            raise NonPositiveDenominator(f"min denominator {den.min():g}")
        x = np.asarray(spike_model.sample(rng, size=k.size), float)
        if overlap:
            u = (x * s_hw + pop.theta * pop.q * x * x) / den
        else:
            u = (s_hw + pop.theta * pop.q * x) / den
        us.append(u)
        ks.append(k)
    return np.concatenate(us), np.concatenate(ks)


def rho_top(
    pop: Population,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    n_samples: int,
    rng: np.random.Generator,
    bins="fd",
) -> DensityEstimate:
    """Top-eigenvector component density: u = ({hW/w}_k + theta q X) / (lambda - {W^2/w}_k),
    with k drawn from p_k and tagged for the degree decomposition."""
    u, k = _component_samples(pop, degree_model, weight_model, spike_model, n_samples, rng, overlap=False)
    meta = {"kind": "rho_top", "theta": pop.theta, "lambda": pop.lam, "q": pop.q, "n_samples": u.size}
    return _build_density(u, k, meta, bins)


def rho_ov(
    pop: Population,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    n_samples: int,
    rng: np.random.Generator,
    bins="fd",
) -> DensityEstimate:
    """Overlap-component density: u = (X {hW/w}_k + theta q X^2) / (lambda - {W^2/w}_k)."""
    u, k = _component_samples(pop, degree_model, weight_model, spike_model, n_samples, rng, overlap=True)
    meta = {"kind": "rho_ov", "theta": pop.theta, "lambda": pop.lam, "q": pop.q, "n_samples": u.size}
    return _build_density(u, k, meta, bins)


def marginals(pop: Population) -> dict:
    """Empirical CDFs of omega and h from the stored pairs.

    Degree-1 updates write omega = lambda bit-exactly, so the omega atom at
    lambda is counted by exact comparison rather than binning.
    """
    omega_sorted = np.sort(pop.omega)
    h_sorted = np.sort(pop.h)
    n = pop.n_pop
    grid = np.arange(1, n + 1) / n
    atom_mass = float(np.mean(pop.omega == pop.lam))
    return {
        "omega_x": omega_sorted,
        "omega_cdf": grid,
        "h_x": h_sorted,
        "h_cdf": grid.copy(),
        "atom_value": pop.lam,
        "atom_mass": atom_mass,
    }


@dataclass(frozen=True)
class OverlapMoments:
    """Moments of the overlap-component density.

    ``mean`` estimates the average overlap q. The squared overlap of the
    recovery problem is the square of the mean (the overlap self-averages),
    not the raw second moment of the component density; both are reported.
    """

    mean: float
    mean_se: float
    overlap_sq: float
    overlap_sq_se: float
    raw_second_moment: float
    raw_second_moment_se: float


def overlap_moments(density: DensityEstimate) -> OverlapMoments:
    u = density.samples
    n = u.size
    mean = float(u.mean())
    mean_se = float(u.std() / np.sqrt(n))
    u2 = u * u
    raw2 = float(u2.mean())
    raw2_se = float(u2.std() / np.sqrt(n))
    return OverlapMoments(
        mean=mean,
        mean_se=mean_se,
        overlap_sq=mean * mean,
        overlap_sq_se=2.0 * abs(mean) * mean_se,
        raw_second_moment=raw2,
        raw_second_moment_se=raw2_se,
    )


def write_histogram_csv(density: DensityEstimate, path: str, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "mass"])
        for left, right, mass in zip(density.bin_edges[:-1], density.bin_edges[1:], density.masses):
            writer.writerow([repr(float(left)), repr(float(right)), repr(float(mass))])


def write_samples_csv(density: DensityEstimate, path: str, cap: int = 100_000, header_lines=()) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["u", "k"])
        for u, k in zip(density.samples[:cap], density.k_tags[:cap]):
            writer.writerow([repr(float(u)), int(k)])


def write_cdf_csv(xs: np.ndarray, ys: np.ndarray, path: str, header_lines=(), stride: int = 1) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "cdf"])
        for x, y in zip(xs[::stride], ys[::stride]):
            writer.writerow([repr(float(x)), repr(float(y))])
