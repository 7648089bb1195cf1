"""Instance construction: configuration-model graphs, i.i.d. symmetric bond
weights, and the rank-one spike, kept factored as (vector, strength).

The noise matrix is held in compressed sparse row form with both edge
orientations stored; the spike is never materialized densely outside the
small-N dense oracle paths. ``scipy.sparse`` is imported when the first
CSR operator is built, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .ensembles import SpikeModel, WeightModel
from .errors import InfeasibleSequence, RestartBudgetExhausted

if TYPE_CHECKING:
    import scipy.sparse


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
    def csr(self) -> scipy.sparse.csr_matrix:
        import scipy.sparse

        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        data = np.concatenate([self.edge_w, self.edge_w])
        return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

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


def _is_simple(u: np.ndarray, v: np.ndarray, n: int) -> bool:
    """The event ``_pairing_defects(u, v, n).size == 0``, cheapest test first.

    Most rejected pairings hold a self-loop, which one comparison finds;
    only loop-free pairings pay for sorting the edge codes in place."""
    if (u == v).any():
        return False
    code = np.minimum(u, v).astype(np.int64, copy=False) * n + np.maximum(u, v)
    code.sort()
    return not (code[1:] == code[:-1]).any()


# Stub pairings a restart may draw before the sequence counts as near-infeasible.
_RESTART_BUDGET = 10_000


def configuration_model(degrees, rng: np.random.Generator) -> SparseSymmetric:
    """Uniform simple graph with the exact degree sequence, all weights 1.

    Stub matching with full-restart rejection: any self-loop or multi-edge
    discards the whole pairing. Each pairing is tested cheapest first (a
    self-loop scan, then one in-place sort of the edge codes), which accepts
    exactly the pairings with no defect and draws nothing from ``rng``, so
    the graph and the generator's state do not depend on how the test is
    made. Restarting preserves exact uniformity, but the acceptance
    probability decays like exp(-nu/2 - nu^2/4) with nu = <k(k-1)>/<k>, so
    for dense-ish sequences (nu^2 >> 1) no restart budget suffices. Where
    nu/2 + nu^2/4 > log(10,000) - 2, that is nu > 4.46 (regular degree 6
    and up; degree 5 has nu = 4), the defective pairs get degree-preserving
    double-edge-swap repair instead. Repair does not
    sample uniformly: on the 17 simple graphs of the sequence
    [3, 3, 2, 2, 1, 1], 3,400 repaired draws reject uniformity at
    chi-square p ~ 7e-5 (restarts: p = 0.54).
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

    nu = float((degrees * (degrees - 1)).sum()) / total
    # -log P(simple); switch to repair while expected restarts are still
    # safely inside the budget rather than right at its edge
    if nu / 2 + nu * nu / 4 <= np.log(_RESTART_BUDGET) - 2:
        for _ in range(_RESTART_BUDGET):
            perm = rng.permutation(stubs)
            u, v = perm[0::2], perm[1::2]
            if _is_simple(u, v, n):
                return _edges_to_graph(n, u, v)
        raise RestartBudgetExhausted(
            f"no simple pairing in {_RESTART_BUDGET} restarts; degree sequence near-infeasible"
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

