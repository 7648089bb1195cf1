"""Instance construction: configuration-model graphs, i.i.d. symmetric bond
weights, and the rank-one spike, kept factored as (vector, strength).

The noise matrix is held in compressed sparse row form with both edge
orientations stored; the spike is never materialized densely outside the
small-N dense oracle paths.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .ensembles import SpikeModel, WeightModel
from .errors import InfeasibleSequence, RestartBudgetExhausted


@dataclass(frozen=True)
class SparseSymmetric:
    """Symmetric weighted sparse matrix with zero diagonal.

    Stored as undirected edges (edge_u[i] < edge_v[i]) with one weight per
    edge, mirrored into a CSR operator on demand.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    def __post_init__(self):
        for name in ("edge_u", "edge_v", "edge_w"):
            a = np.asarray(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not (self.edge_u.shape == self.edge_v.shape == self.edge_w.shape):
            raise ValueError("edge arrays must have equal length")
        if self.edge_u.size and (self.edge_u >= self.edge_v).any():
            raise ValueError("edges must be stored with u < v")

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.bincount(self.edge_u, minlength=self.n) + np.bincount(self.edge_v, minlength=self.n)
        d.flags.writeable = False
        return d

    @cached_property
    def csr(self) -> sp.csr_matrix:
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        data = np.concatenate([self.edge_w, self.edge_w])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector of length {self.n} expected, got shape {v.shape}")
        return self.csr.dot(v)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def _pairing_defects(u: np.ndarray, v: np.ndarray, n: int):
    """Indices of defective pairs in a stub pairing: self-loops plus every
    duplicate beyond the first occurrence of each undirected edge."""
    a = np.minimum(u, v)
    b = np.maximum(u, v)
    code = a.astype(np.int64) * n + b
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    dup = np.zeros(code.size, dtype=bool)
    dup[order[1:]] = sorted_code[1:] == sorted_code[:-1]
    return np.flatnonzero((u == v) | dup)


def configuration_model(
    degrees,
    rng: np.random.Generator,
    max_restarts: int = 10_000,
    method: str = "auto",
) -> SparseSymmetric:
    """Uniform simple graph with the exact degree sequence, all weights 1.

    Stub matching with full-restart rejection: any self-loop or multi-edge
    discards the whole pairing. Restarting preserves exact uniformity, but
    the acceptance probability decays like exp(-nu/2 - nu^2/4) with
    nu = <k(k-1)>/<k>, so for dense-ish sequences (nu^2 >> 1) no restart
    budget suffices. ``method="auto"`` switches to degree-preserving
    double-edge-swap repair of the defective pairs in that regime;
    ``"restart"`` and ``"repair"`` force one behavior.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if degrees.size < 2:
        raise InfeasibleSequence("need at least two nodes")
    if (degrees < 0).any():
        raise InfeasibleSequence("negative degree")
    if (degrees >= n).any():
        raise InfeasibleSequence("a degree >= N cannot be realized by a simple graph")
    total = int(degrees.sum())
    if total % 2 != 0:
        raise InfeasibleSequence("odd stub count")

    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if stubs.size == 0:
        return SparseSymmetric(n=n, edge_u=np.empty(0, np.int64), edge_v=np.empty(0, np.int64), edge_w=np.empty(0, float))

    if method not in ("auto", "restart", "repair"):
        raise ValueError(f"unknown method {method!r}")
    use_repair = method == "repair"
    if method == "auto":
        nu = float((degrees * (degrees - 1)).sum()) / total
        # -log P(simple); switch to repair while expected restarts are still
        # safely inside the budget rather than right at its edge
        if nu / 2 + nu * nu / 4 > np.log(max_restarts) - 2:
            use_repair = True

    if not use_repair:
        for _ in range(max_restarts):
            perm = rng.permutation(stubs)
            u, v = perm[0::2], perm[1::2]
            if _pairing_defects(u, v, n).size == 0:
                return _edges_to_graph(n, u, v)
        raise RestartBudgetExhausted(
            f"no simple pairing in {max_restarts} restarts; degree sequence near-infeasible"
        )

    perm = rng.permutation(stubs)
    u, v = perm[0::2].copy(), perm[1::2].copy()
    for _ in range(10_000):
        bad = _pairing_defects(u, v, n)
        if bad.size == 0:
            return _edges_to_graph(n, u, v)
        partners = rng.integers(0, u.size, size=bad.size)
        # cross-swap endpoints: (a,b),(c,d) -> (a,d),(c,b); degrees unchanged
        for e, f in zip(bad, partners):
            if e == f:
                continue
            v[e], v[f] = v[f], v[e]
    raise RestartBudgetExhausted("edge-swap repair failed to reach a simple graph")


def _edges_to_graph(n: int, u: np.ndarray, v: np.ndarray) -> SparseSymmetric:
    a = np.minimum(u, v)
    b = np.maximum(u, v)
    order = np.lexsort((b, a))
    return SparseSymmetric(
        n=n,
        edge_u=a[order],
        edge_v=b[order],
        edge_w=np.ones(a.size, dtype=float),
    )


def assign_weights(graph: SparseSymmetric, weight_model: WeightModel, rng: np.random.Generator) -> SparseSymmetric:
    """One i.i.d. weight per undirected edge, identical in both orientations."""
    w = weight_model.sample(rng, size=graph.n_edges)
    return SparseSymmetric(n=graph.n, edge_u=graph.edge_u, edge_v=graph.edge_v, edge_w=np.asarray(w, float))


@dataclass(frozen=True)
class SpikedMatrix:
    """Operator  noise + (theta/N) x x^T  with the rank-one part factored."""

    noise: SparseSymmetric
    x: np.ndarray
    theta: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (self.noise.n,):
            raise ValueError("spike length must equal matrix size")
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.noise.n

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector of length {self.n} expected, got shape {v.shape}")
        out = self.noise.matvec(v)
        if self.theta != 0.0:
            out = out + (self.theta / self.n) * self.x * float(self.x @ v)
        return out

    def to_dense(self) -> np.ndarray:
        a = self.noise.to_dense()
        if self.theta != 0.0:
            a = a + (self.theta / self.n) * np.outer(self.x, self.x)
        return a


def assemble_spiked(
    noise: SparseSymmetric,
    spike_model: SpikeModel,
    theta: float,
    rng: np.random.Generator,
) -> SpikedMatrix:
    """Sample the spike vector and attach it to a noise matrix."""
    x = spike_model.sample(rng, size=noise.n)
    return SpikedMatrix(noise=noise, x=np.asarray(x, float), theta=float(theta))


def dump_instance(a: SpikedMatrix, directory: str, seed: int | None = None) -> None:
    """Write an instance for cross-implementation replay.

    ``edges.txt``: one edge per line, "i j w" with i < j, 0-indexed.
    ``spike.json``: spike vector, theta, N, and the generating seed.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "edges.txt"), "w") as fh:
        for i, j, w in zip(a.noise.edge_u, a.noise.edge_v, a.noise.edge_w):
            fh.write(f"{int(i)} {int(j)} {float(w)!r}\n")
    side = {"n": a.n, "theta": a.theta, "seed": seed, "x": a.x.tolist()}
    with open(os.path.join(directory, "spike.json"), "w") as fh:
        json.dump(side, fh)


def load_instance(directory: str) -> SpikedMatrix:
    with open(os.path.join(directory, "spike.json")) as fh:
        side = json.load(fh)
    n = int(side["n"])
    edge_path = os.path.join(directory, "edges.txt")
    data = np.loadtxt(edge_path, ndmin=2) if os.path.getsize(edge_path) else np.empty((0, 3))
    if data.size:
        u = data[:, 0].astype(np.int64)
        v = data[:, 1].astype(np.int64)
        w = data[:, 2].astype(float)
    else:
        u = np.empty(0, np.int64)
        v = np.empty(0, np.int64)
        w = np.empty(0, float)
    noise = SparseSymmetric(n=n, edge_u=u, edge_v=v, edge_w=w)
    return SpikedMatrix(noise=noise, x=np.asarray(side["x"], float), theta=float(side["theta"]))
