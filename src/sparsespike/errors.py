"""Exception hierarchy shared across the package.

Each family carries the CLI exit code and the stderr label of its errors:
ConfigError 2, SolverError 3, GenerationError 4, any other package error 1.
"""


class SparseSpikeError(Exception):
    """Base class for all package errors."""

    exit_code, label = 1, "error"


class ConfigError(SparseSpikeError):
    """Invalid experiment configuration (bad field, missing key, bad grid)."""

    exit_code, label = 2, "config error"


class GenerationError(SparseSpikeError):
    """Base for graph/instance generation failures."""

    exit_code, label = 4, "generation failure"


class InfeasibleSequence(GenerationError):
    """Degree sequence cannot correspond to any simple graph (e.g. a degree >= N)."""


class RestartBudgetExhausted(GenerationError):
    """Stub-matching restarts exhausted; sequence is near-infeasible for rejection sampling."""


class SolverError(SparseSpikeError):
    """Base for iterative-solver failures."""

    exit_code, label = 3, "solver failure"


class NotConverged(SolverError):
    """Krylov eigensolver failed to reach the residual tolerance within max_iter."""


class NegativeDenominator(SolverError):
    """A resolvent denominator lambda - k*E[W^2]*m crossed zero during iteration."""


class RootNotBracketed(SolverError):
    """Bisection target not bracketed (signal strength at or below threshold)."""


class NonPositiveOmega(SolverError):
    """A population update produced omega <= 0; lambda is below the admissible region."""


class NonPositiveDenominator(SolverError):
    """A Monte Carlo estimator denominator lambda - {W^2/omega}_k came out <= 0."""


class MaxSweepsExceeded(SolverError):
    """Population moments failed to plateau within the sweep budget."""


class AlphaMismatch(SolverError):
    """alpha1 or alpha2 of a solved population is further than alpha_tol from 1."""
