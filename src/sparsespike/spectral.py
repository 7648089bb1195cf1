"""Extreme eigenpairs of spiked sparse matrices and the recovery observables
read off them.

Each instance makes one call to ARPACK's implicitly restarted Lanczos
(Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17, 1996), through
``scipy.sparse.linalg.eigsh(k=2, which="LA")``, on a
``LinearOperator`` around ``matvec``: the rank-one spike is never formed
and every product goes through ``SpikedMatrix.matvec``. The start vector
and any restart vectors come from the caller's generator, so results
repeat exactly across reruns and worker counts. ``_MAX_ITER`` is a budget
of matrix-vector products, and ``iterations`` counts them: the solve's
own plus one explicit residual check ||Av - lambda v|| / max|lambda| per
returned pair (the largest |eigenvalue| returned, as an exact zero one has
no relative residual), which must not exceed ``_TOL``. ARPACK cannot start
on the zero operator (A v0 = 0); its spectrum is set exactly.

Below 5 rows ARPACK has no room for the Krylov space it needs (scipy
refuses k >= N outright), so those sizes use the dense eigendecomposition.

A single start vector sees one copy of an exactly repeated eigenvalue;
ARPACK usually recovers the other copies from rounding, but not always, so
an exact tie at the top (for example identical disconnected components)
can report the next distinct eigenvalue as the second one.

``scipy.sparse.linalg`` is imported inside the solve, not at module top:
after numpy it costs 0.31-0.40 s and 32 MB resident per process (2 cores),
which the modes that make no eigensolve (analytic, popdyn, densities)
would otherwise pay. About half of that time is scipy's bundled
``array_api_compat`` cloning numpy's namespace, which imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` (0.14-0.17 s together
under ``-X importtime``). The ``diag`` and ``sweep`` modes import it
before their instance farm forks, so the workers share the parent's copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .graphgen import SpikedMatrix

_TOL = 1e-10
_MAX_ITER = 20_000
_K = 2  # eigenpairs per solve: the top and the second


@dataclass(frozen=True)
class EigReport:
    """Converged top / second eigenpair data for one instance.

    ``v_top`` is scaled so that ||v||^2 = N and gauge-fixed so the overlap
    with the spike is non-negative. ``iterations`` counts matrix-vector
    products.
    """

    lambda_top: float
    lambda_second: float
    v_top: np.ndarray
    overlap: float
    overlap_sq: float
    residual_top: float
    residual_second: float
    iterations: int


def _top_pairs(a: SpikedMatrix, rng):
    """The two largest-algebraic eigenpairs, in descending order.

    Returns (eigenvalues, unit eigenvectors as columns, relative residuals,
    matvec count). Raises NotConverged when the matvec budget runs out,
    ARPACK fails, or an explicit residual exceeds ``_TOL``.
    """
    n = a.n
    if n < 2:
        raise ValueError("need N >= 2")
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    matvecs = 0

    def counted(v):
        nonlocal matvecs
        if matvecs >= _MAX_ITER:
            raise NotConverged(f"matvec budget {_MAX_ITER} spent before reaching tol {_TOL:.1e}")
        matvecs += 1
        return a.matvec(v)

    if n <= 2 * _K:
        evals, evecs = np.linalg.eigh(a.to_dense())
    elif a.theta == 0.0 and not a.noise.edge_w.any():
        # the zero operator: every eigenvalue is 0 and any orthonormal
        # vectors are eigenvectors
        evals, evecs = np.zeros(_K), np.eye(n, _K)
    else:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        op = LinearOperator((n, n), matvec=counted, dtype=float)
        try:
            # ARPACK reads maxiter as a C int; ``counted`` enforces the budget itself
            evals, evecs = eigsh(op, k=_K, which="LA", v0=rng.standard_normal(n),
                                 tol=_TOL, maxiter=min(_MAX_ITER, 2**31 - 1), rng=rng)
        except ArpackError as exc:
            raise NotConverged(f"ARPACK after {matvecs} matvecs: {exc}") from exc
    order = np.argsort(evals)[::-1][:_K]
    evals, evecs = evals[order], evecs[:, order]
    scale = max(float(np.abs(evals).max()), 1e-30)
    residuals = [
        float(np.linalg.norm(counted(v) - lam * v)) / scale
        for lam, v in zip(evals, evecs.T)
    ]
    worst = max(residuals)
    if worst > _TOL:
        raise NotConverged(f"residual {worst:.3e} after {matvecs} matvecs (tol {_TOL:.1e})")
    return evals, evecs, residuals, matvecs


def analyze_instance(a: SpikedMatrix, rng=None) -> EigReport:
    """Solve one instance end to end: top and second eigenpairs from one
    solve, gauge-fixed overlap statistics."""
    evals, evecs, residuals, matvecs = _top_pairs(a, rng)
    n = a.n
    lam, lam2 = float(evals[0]), float(evals[1])
    v = evecs[:, 0] * np.sqrt(n)
    ip = float(a.x @ v)
    if ip < 0:
        v = -v
        ip = -ip
    overlap = ip / n
    return EigReport(
        lambda_top=lam,
        lambda_second=lam2,
        v_top=v,
        overlap=overlap,
        overlap_sq=overlap**2,
        residual_top=residuals[0],
        residual_second=residuals[1],
        iterations=matvecs,
    )
