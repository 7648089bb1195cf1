"""Distributional observables of an equilibrated population: component and
overlap-component densities with the degree of each sample, overlap
moments, and the CSV writers of a densities run: histograms and samples
of the densities, empirical CDFs of omega and h.

The densities read a prefix of the full-node draws (k, x, u) that
``popdyn.solve`` checks its alphas on, so a run gathers its full nodes
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def component_densities(
    k: np.ndarray,
    x: np.ndarray,
    u: np.ndarray,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top-eigenvector and overlap component samples (u_top, u_ov, k)
    from the first ``n_samples`` of a full-node pass's draws
    (``popdyn.alpha_pair``): u_top = ({hW/w}_k + theta q X) / (lambda -
    {W^2/w}_k), with k drawn from p_k and returned as the samples' degrees,
    and u_ov = X u_top on the same draws, as the overlap components x_i v_i
    of one instance pair with its components v_i. u_ov is written over
    those spike draws."""
    k, x, u = k[:n_samples], x[:n_samples], u[:n_samples]
    return u, np.multiply(x, u, out=x), k


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


def overlap_moments(u: np.ndarray) -> OverlapMoments:
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


def write_histogram_csv(samples: np.ndarray, path: str, header_lines=()) -> None:
    """The histogram of ``samples`` on numpy's ``bins="fd"`` count (width 2
    IQR n^(-1/3) over [min, max], one bin at width 0; NaN samples take the
    cap and fail in np.histogram as under "fd"), at most ``_MAX_BINS``
    bins, as (bin_left, bin_right, mass) rows."""
    width = 2.0 * np.subtract(*np.percentile(samples, [75, 25])) * samples.size ** (-1.0 / 3.0)
    bins = np.fmin(np.ceil(np.ptp(samples) / width), _MAX_BINS) if width else 1
    counts, edges = np.histogram(samples, bins=int(bins))
    _write_rows(path, header_lines, ("bin_left", "bin_right", "mass"), (edges[:-1], edges[1:], counts / counts.sum()))


# Samples a samples CSV holds: the first this many of the density's draws.
_SAMPLES_CAP = 100_000

# Rows a CDF CSV holds: about this many, every stride-th of the sorted values.
_CDF_ROWS = 10_000

# Bins a histogram CSV holds at most.
_MAX_BINS = 10_000


def write_samples_csv(samples: np.ndarray, k: np.ndarray, path: str, header_lines=()) -> None:
    """The first ``_SAMPLES_CAP`` samples with their degrees, as (u, k) rows."""
    _write_rows(path, header_lines, ("u", "k"),
                (np.asarray(samples[:_SAMPLES_CAP], float), np.asarray(k[:_SAMPLES_CAP]).astype(np.int64)))


def write_cdf_csv(values: np.ndarray, path: str, header_lines=()) -> None:
    """The empirical CDF of ``values``: the i-th smallest of n against i/n,
    every stride-th row from the first, stride = max(1, n // ``_CDF_ROWS``)."""
    x = np.sort(np.asarray(values, float))
    n = x.size
    stride = max(1, n // _CDF_ROWS)
    _write_rows(path, header_lines, ("x", "cdf"), (x[::stride], np.arange(1, n + 1, stride) / n))
