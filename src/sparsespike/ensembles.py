"""Randomness sources of the model: degree distributions, bond-weight laws,
and spike-component laws, with their derived quantities.

All models are immutable after construction and carry no random state;
sampling takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lgamma, log

import numpy as np

_TOL = 1e-12


def _as_prob_table(p: np.ndarray, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{what}: need a non-empty 1-d probability table")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError(f"{what}: probabilities must be finite and non-negative")
    s = p.sum()
    if s <= 0:
        raise ValueError(f"{what}: probabilities sum to zero")
    p = p / s
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class DegreeModel:
    """Bounded-support degree distribution p_k, k = 0..k_max.

    ``probs[k]`` is p_k. Derived quantities: mean degree ``mean_c``,
    ``second_moment``, and the size-biased (degree-corrected) table
    ``r[k] = k p_k / mean_c`` with r[0] = 0.
    """

    kind: str
    probs: np.ndarray
    cbar: float | None = None  # truncated-Poisson rate, when applicable
    mean_c: float = field(init=False)
    second_moment: float = field(init=False)

    def __post_init__(self):
        p = _as_prob_table(self.probs, "DegreeModel")
        object.__setattr__(self, "probs", p)
        k = np.arange(p.size, dtype=float)
        object.__setattr__(self, "mean_c", float((k * p).sum()))
        object.__setattr__(self, "second_moment", float((k * k * p).sum()))
        assert abs(p.sum() - 1.0) < _TOL

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    @cached_property
    def r(self) -> np.ndarray:
        """Degree-corrected table r_k = k p_k / <k> over k = 0..k_max (r_0 = 0)."""
        if self.mean_c <= 0:
            raise ValueError("degree-corrected table undefined: mean degree is zero")
        k = np.arange(self.probs.size, dtype=float)
        r = k * self.probs / self.mean_c
        r.flags.writeable = False
        return r

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @cached_property
    def _rcdf(self) -> np.ndarray:
        return np.cumsum(self.r)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray | int:
        """Draw degrees i.i.d. from p_k."""
        u = rng.random(size)
        out = np.searchsorted(self._cdf, u, side="right")
        return out if size is not None else int(out)

    def sample_corrected(self, rng: np.random.Generator, size=None) -> np.ndarray | int:
        """Draw degrees i.i.d. from the size-biased table r_k."""
        u = rng.random(size)
        out = np.searchsorted(self._rcdf, u, side="right")
        return out if size is not None else int(out)


def truncated_poisson(cbar: float, k_max: int) -> DegreeModel:
    """Truncated Poisson table p_k = cbar^k / (Gamma k!), k = 0..k_max.

    Terms are formed in log space and normalized in ascending-k order, so
    the table stays accurate for large rates where cbar^k/k! over/underflows.
    """
    if not cbar > 0:
        raise ValueError("cbar must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k = np.arange(k_max + 1)
    logterm = k * log(cbar) - np.array([lgamma(i + 1.0) for i in k])
    t = np.exp(logterm - logterm.max())
    return DegreeModel(kind="truncated_poisson", probs=t / t.sum(), cbar=float(cbar))


def regular(c: int) -> DegreeModel:
    """Regular degree law p_k = delta_{k,c}."""
    c = int(c)
    if c <= 1:
        raise ValueError("regular degree must exceed 1")
    p = np.zeros(c + 1)
    p[c] = 1.0
    return DegreeModel(kind="regular", probs=p)


def degree_table(probs) -> DegreeModel:
    """Explicit degree table indexed 0..k_max."""
    return DegreeModel(kind="table", probs=np.asarray(probs, dtype=float))


def sample_degree_sequence(model: DegreeModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. degrees and repair parity so the stub count is even.

    Repair: while the sum is odd, redraw one uniformly chosen entry from p_k.
    When the support cannot change parity this way (all support odd), a
    uniformly chosen entry is nudged by +-1 instead; either way the marginal
    law is perturbed by O(1/n).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    degrees = model.sample(rng, size=n).astype(np.int64)
    if degrees.sum() % 2 == 0:
        return degrees

    support = np.flatnonzero(model.probs)
    can_flip_parity = np.any(support % 2 == 0) and np.any(support % 2 == 1)
    if can_flip_parity:
        # expected O(1) redraws: each redraw flips parity with fixed probability
        for _ in range(10_000):
            i = int(rng.integers(n))
            degrees[i] = model.sample(rng)
            if degrees.sum() % 2 == 0:
                return degrees
    i = int(rng.integers(n))
    degrees[i] += 1 if degrees[i] + 1 <= model.k_max else -1
    assert degrees.sum() % 2 == 0
    return degrees


@dataclass(frozen=True)
class WeightModel:
    """Compactly supported bond-weight law, stored as a finite table
    (value, probability). ``zeta`` is the largest |support point|.
    """

    kind: str
    values: np.ndarray
    probs: np.ndarray
    mean_w: float = field(init=False)
    second_moment_w: float = field(init=False)
    zeta: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("WeightModel: bad support values")
        p = _as_prob_table(self.probs, "WeightModel")
        if v.size != p.size:
            raise ValueError("WeightModel: values/probabilities size mismatch")
        m2 = float((v * v * p).sum())
        if m2 <= 0:
            raise ValueError("WeightModel: E[W^2] must be positive")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "mean_w", float((v * p).sum()))
        object.__setattr__(self, "second_moment_w", m2)
        object.__setattr__(self, "zeta", float(np.abs(v).max()))

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray | float:
        if self.values.size == 1:
            w = self.values[0]
            return np.full(size, w) if size is not None else float(w)
        idx = np.searchsorted(self._cdf, rng.random(size), side="right")
        out = self.values[idx]
        return out if size is not None else float(out)


def constant_weight(w: float) -> WeightModel:
    return WeightModel(kind="constant", values=np.array([float(w)]), probs=np.array([1.0]))


def regular_constant_weight(degree_model: DegreeModel, weight_model: WeightModel) -> float | None:
    """w when the noise is c-regular with one positive constant weight w
    (the closed-form ensemble: structural eigenvalue c w), else None."""
    if degree_model.kind == "regular" and weight_model.values.size == 1 and weight_model.values[0] > 0:
        return float(weight_model.values[0])
    return None


def rademacher_weight(scale: float) -> WeightModel:
    """Symmetric two-point law +-scale with equal mass."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return WeightModel(
        kind="rademacher_scaled",
        values=np.array([-float(scale), float(scale)]),
        probs=np.array([0.5, 0.5]),
    )


def weight_table(values, probs) -> WeightModel:
    return WeightModel(kind="custom_table", values=np.asarray(values, float), probs=np.asarray(probs, float))


@dataclass(frozen=True)
class SpikeModel:
    """Zero-mean spike-component law with variance sigma_x2.

    Construction rejects non-centered laws: every implemented threshold
    formula assumes E[X] = 0, and a silently shifted spike would produce
    wrong thresholds rather than an error. For the same reason a custom
    table's ``sigma_x2`` must be its variance (to 1e-12 relative).
    """

    kind: str
    sigma_x2: float
    values: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.sigma_x2) and self.sigma_x2 > 0):
            raise ValueError("SpikeModel: variance must be finite and positive")
        if self.kind == "custom":
            v = np.asarray(self.values, dtype=float)
            p = _as_prob_table(self.probs, "SpikeModel")
            if v.size != p.size:
                raise ValueError("SpikeModel: values/probabilities size mismatch")
            mean = float((v * p).sum())
            if abs(mean) > 1e-12:
                raise ValueError(f"SpikeModel: law must be centered, got E[X]={mean:g}")
            var = float((v * v * p).sum()) - mean**2
            if abs(self.sigma_x2 - var) > 1e-12 * var:
                raise ValueError(f"SpikeModel: sigma_x2={self.sigma_x2:g} but the table's variance is {var:g}")
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "probs", p)

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray | float:
        if self.kind == "gaussian":
            out = np.sqrt(self.sigma_x2) * rng.standard_normal(size)
        elif self.kind == "rademacher":
            out = np.sqrt(self.sigma_x2) * (2.0 * rng.integers(0, 2, size) - 1.0)
        else:
            idx = np.searchsorted(self._cdf, rng.random(size), side="right")
            out = self.values[idx]
        return out if size is not None else float(out)


def gaussian_spike(sigma_x2: float = 1.0) -> SpikeModel:
    return SpikeModel(kind="gaussian", sigma_x2=float(sigma_x2))


def rademacher_spike(sigma_x2: float = 1.0) -> SpikeModel:
    return SpikeModel(kind="rademacher", sigma_x2=float(sigma_x2))


def custom_spike(values, probs) -> SpikeModel:
    v = np.asarray(values, dtype=float)
    p = _as_prob_table(np.asarray(probs, float), "SpikeModel")
    var = float((v * v * p).sum()) - float((v * p).sum()) ** 2
    return SpikeModel(kind="custom", sigma_x2=var, values=v, probs=p)
