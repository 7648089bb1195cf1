"""Distributional observables of an equilibrated population: component and
overlap-component densities with the degree of each sample, marginal CDFs
of omega and h, and overlap moments.

Sampling is read-only over a frozen population, so one solved population
serves every observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import DegreeModel, SpikeModel, WeightModel
from .popdyn import Population, _full_nodes


@dataclass(frozen=True)
class DensityEstimate:
    """Monte Carlo density sample, each sample tagged with its degree k, and
    its histogram."""

    samples: np.ndarray
    k_tags: np.ndarray
    bin_edges: np.ndarray
    masses: np.ndarray


def _build_density(samples: np.ndarray, k_tags: np.ndarray) -> DensityEstimate:
    counts, edges = np.histogram(samples, bins="fd")
    return DensityEstimate(samples=samples, k_tags=k_tags, bin_edges=edges, masses=counts / counts.sum())


def component_densities(
    pop: Population,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[DensityEstimate, DensityEstimate]:
    """The top-eigenvector and overlap component densities, from one set of
    full-node draws: u_top = ({hW/w}_k + theta q X) / (lambda - {W^2/w}_k),
    with k drawn from p_k and kept as the sample's tag, and u_ov = X u_top
    on the same draws, as the overlap components x_i v_i of one instance
    pair with its components v_i. The formulas overwrite the gathered sums
    and spike draws, and the denominators are dropped unused."""
    k, x, u, den = _full_nodes(pop, degree_model, weight_model, spike_model, n_samples, rng)
    del den
    return _build_density(u, k), _build_density(np.multiply(x, u, out=x), k)


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
        "atom_mass": atom_mass,
    }


@dataclass(frozen=True)
class OverlapMoments:
    """Moments of the overlap-component density.

    ``mean`` estimates the average overlap q. The squared overlap of the
    recovery problem is the square of the mean (the overlap self-averages),
    not the raw second moment of the component density.
    """

    mean: float
    mean_se: float
    overlap_sq: float
    overlap_sq_se: float


def overlap_moments(density: DensityEstimate) -> OverlapMoments:
    u = density.samples
    n = u.size
    mean = float(u.mean())
    mean_se = float(u.std() / np.sqrt(n))
    return OverlapMoments(
        mean=mean,
        mean_se=mean_se,
        overlap_sq=mean * mean,
        overlap_sq_se=2.0 * abs(mean) * mean_se,
    )


# Rows per write of a CSV exporter: the row text exists this many rows at a time.
_ROWS = 8192


def _write_rows(path: str, header_lines, names: tuple, columns: tuple) -> None:
    """What ``csv.writer`` writes for these columns: a "# " line per header
    line, the column names, then a row per entry of the shortest column,
    each ended by its "\r\n", written ``_ROWS`` rows at a time. Float and
    int fields are written by ``repr``; none of them ever needs quoting. A
    column's fields are one ``repr`` of its list, split on its ", ", and are
    interleaved with the separators."""
    n = min(len(c) for c in columns)
    step = 2 * len(columns)
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines) + ",".join(names) + "\r\n")
        for lo in range(0, n, _ROWS):
            rows = min(_ROWS, n - lo)
            parts = [","] * (step * rows)
            parts[step - 1::step] = ["\r\n"] * rows
            for j, c in enumerate(columns):
                parts[2 * j::step] = repr(c[lo:lo + rows].tolist())[1:-1].split(", ")
            fh.write("".join(parts))


def write_histogram_csv(density: DensityEstimate, path: str, header_lines=()) -> None:
    edges = np.asarray(density.bin_edges, float)
    _write_rows(path, header_lines, ("bin_left", "bin_right", "mass"),
                (edges[:-1], edges[1:], np.asarray(density.masses, float)))


# Samples a samples CSV holds: the first this many of the density's draws.
_SAMPLES_CAP = 100_000


def write_samples_csv(density: DensityEstimate, path: str, header_lines=()) -> None:
    _write_rows(path, header_lines, ("u", "k"),
                (np.asarray(density.samples[:_SAMPLES_CAP], float),
                 np.asarray(density.k_tags[:_SAMPLES_CAP]).astype(np.int64)))


def write_cdf_csv(xs: np.ndarray, ys: np.ndarray, path: str, header_lines=(), stride: int = 1) -> None:
    _write_rows(path, header_lines, ("x", "cdf"),
                (np.asarray(xs, float)[::stride], np.asarray(ys, float)[::stride]))
