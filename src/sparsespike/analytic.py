"""Closed-form and semi-analytic predictions: the resolvent-moment fixed
point m(lambda), the threshold function Q(lambda) with its inverse and
derivative, recovery thresholds, signal-eigenvalue and squared-overlap
curves.

Everything here is a pure function of value inputs. The population-based
estimator ``q_general`` is the independent Monte Carlo counterpart of the
fixed-point route; the two are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ensembles import DegreeModel, SpikeModel, WeightModel, _integer, regular_constant_weight
from .errors import NegativeDenominator, NoConvergence, RootNotBracketed
from .popdyn import Population, _full_nodes

# Degree kinds whose threshold ``theta_crit`` reads off the resolvent route.
RESOLVENT_KINDS = ("truncated_poisson", "regular")


def _bisect(above, lo: float, hi: float) -> float:
    """Shrink [lo, hi], with the predicate ``above`` false at lo and true at
    hi (neither end is evaluated), to adjacent floats; return hi."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _lambda_of_x(x: float, r: np.ndarray, a: np.ndarray) -> float:
    return float(x * np.sqrt((r / (x - a)).sum()))


def _branch(degree_model: DegreeModel, e_w2: float):
    """(r_k, a_k, x_e, lambda(x_e)): the stable branch of the m equation.

    With x = lambda/m and a_k = (k-1) E[W^2], over the k with r_k > 0, the
    m equation reads m^2 = S0(x) = sum_k r_k / (x - a_k), so
    lambda(x) = x sqrt(S0(x)) and d(lambda^2)/dx = x h(x) with
    h(x) = sum_k r_k (x - 2 a_k) / (x - a_k)^2. h > 0 is the stability of
    the fixed point, and on (a_max, inf) h has a single root x*, in
    (a_max, 2 a_max]: h / S0 = 1 - sum_k r_k a_k / (x - a_k)^2 / S0 grows
    with x by Chebyshev's sum inequality. Q's sum runs to the largest k
    with p_k > 0, one term past the m equation, so the edge is
    x_e = max(x*, k_max E[W^2]).
    """
    mask = degree_model.r > 0
    r = degree_model.r[mask]
    a = (np.flatnonzero(mask) - 1.0) * e_w2
    x_star = a[-1]
    if x_star > 0:
        def stable(x):
            return float((r * (x - 2.0 * a) / (x - a) ** 2).sum()) > 0

        x_star = _bisect(stable, a[-1], 2.0 * a[-1])
    x_e = max(x_star, np.flatnonzero(degree_model.probs)[-1] * e_w2)
    return r, a, x_e, _lambda_of_x(x_e, r, a)


def _solve_x(lam: float, degree_model: DegreeModel, e_w2: float) -> float:
    """x = lambda/m on the stable branch, bisected on [x_e, lambda^2]
    (lambda(x) >= sqrt(x) because every a_k >= 0)."""
    r, a, x_e, lam_e = _branch(degree_model, e_w2)
    if not lam >= lam_e:
        raise NegativeDenominator(f"lambda={lam:g} is below the spectral edge {lam_e:.12g}")
    if lam == lam_e:
        return x_e
    return _bisect(lambda x: _lambda_of_x(x, r, a) >= lam, x_e, max(lam * lam, x_e))


def q_tilde(lam: float, degree_model: DegreeModel, e_w2: float) -> float:
    """Threshold function Q(lambda) = sum_k p_k / (lambda - k E[W^2] m(lambda)).

    For a truncated Poisson table this reduces exactly to
    (c/cbar) m + p_{k_max} / (lambda - k_max E[W^2] m); for a regular model
    it collapses to the single-branch closed form. Each denominator is
    m (x - k E[W^2]) with x = lambda/m; at an edge set by k_max E[W^2]
    (see ``_branch``) the last one vanishes and Q is +inf.
    """
    x = _solve_x(lam, degree_model, e_w2)
    p = degree_model.probs
    k = np.flatnonzero(p > 0)
    with np.errstate(divide="ignore"):
        return float((p[k] / (x - k * e_w2)).sum()) * x / lam


def _sums(x: float, w: np.ndarray, poles: np.ndarray) -> tuple[float, float]:
    """(sum w / (x - poles), sum w / (x - poles)^2); +inf at a pole."""
    with np.errstate(divide="ignore"):
        g = 1.0 / (x - poles)
    return float((w * g).sum()), float((w * g * g).sum())


def q_tilde_prime(lam: float, degree_model: DegreeModel, e_w2: float) -> float:
    """dQ/dlambda in closed form. With S0, S1 = sum_k r_k / (x - a_k)^{1,2}
    (``_branch``) and P0, P1 the same sums over p_k with poles at k E[W^2],
    Q = P0 / sqrt(S0) and d lambda/dx = (2 S0 - x S1) / (2 sqrt(S0)), where
    2 S0 - x S1 is ``_branch``'s h, so
    Q' = (P0 S1 - 2 P1 S0) / (S0 (2 S0 - x S1)). Unbounded at the edge."""
    x = _solve_x(lam, degree_model, e_w2)
    r, a, x_e, _ = _branch(degree_model, e_w2)
    if x == x_e:
        raise NegativeDenominator(f"Q'(lambda) is unbounded at the spectral edge {lam:.12g}")
    k = np.flatnonzero(degree_model.probs)
    s0, s1 = _sums(x, r, a)
    p0, p1 = _sums(x, degree_model.probs[k], k * e_w2)
    return (p0 * s1 - 2.0 * p1 * s0) / (s0 * (2.0 * s0 - x * s1))


def gershgorin_bound(degree_model: DegreeModel, weight_model: WeightModel) -> float:
    """Row-sum bound on the noise spectrum: k_max * zeta."""
    return degree_model.k_max * weight_model.zeta


def admissible_lambda_floor(degree_model: DegreeModel, e_w2: float) -> float:
    """Spectral edge of the resolvent route, lambda(x_e) (``_branch``): the
    smallest lambda with a stable m fixed point and non-negative Q
    denominators, and the lower end of every root bracket here. For
    c-regular noise it is the bulk edge 2 sqrt((c-1) E[W^2])."""
    return _branch(degree_model, e_w2)[3]


def lambda_signal(
    theta: float,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
) -> float:
    """Signal eigenvalue: the unique root of Q(lambda) = 1/(theta sigma_x^2),
    bisected once in x = lambda/m, where Q = P0 / sqrt(S0) (``q_tilde_prime``)
    decreases strictly, on [x_e, lambda_hi^2] with lambda_hi a Gershgorin-padded
    bound (lambda(x) >= sqrt(x), ``_solve_x``). The root exists down to the
    detachment point (theta_b in the regular case), where the branch meets
    the spectral edge; between there and theta_crit it describes the second
    eigenvalue rather than the top one. Below detachment, and at theta <= 0
    where there is no signal, RootNotBracketed is raised."""
    if theta <= 0:
        raise RootNotBracketed(f"no signal branch at theta={theta:g}")
    e_w2 = weight_model.second_moment_w
    target = 1.0 / (theta * spike_model.sigma_x2)
    r, a, x_e, lam_e = _branch(degree_model, e_w2)
    k = np.flatnonzero(degree_model.probs)
    p, b = degree_model.probs[k], k * e_w2

    def q_of_x(x):
        return _sums(x, p, b)[0] / np.sqrt(_sums(x, r, a)[0])

    q_lo = q_of_x(x_e)
    if q_lo <= target:
        raise RootNotBracketed(
            f"Q at the spectral edge ({q_lo:g}) does not exceed 1/(theta sigma^2)={target:g}; "
            "theta is at or below the recovery threshold"
        )
    lam_hi = max(gershgorin_bound(degree_model, weight_model) + 2.0 * theta * spike_model.sigma_x2, lam_e * 2)
    while q_of_x(lam_hi * lam_hi) >= target:
        lam_hi *= 2.0
        if lam_hi > 1e12:
            raise NoConvergence("failed to bracket the signal eigenvalue from above")
    x = _bisect(lambda x: q_of_x(x) <= target, x_e, lam_hi * lam_hi)
    return _lambda_of_x(x, r, a)


def signal_and_overlap(
    theta: float,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
) -> tuple[float, float]:
    """(lambda_theta, squared overlap) from one root solve: ``lambda_signal``
    and  -1 / (sigma_x^2 theta^2 Q'(lambda_theta))."""
    lam = lambda_signal(theta, degree_model, weight_model, spike_model)
    qp = q_tilde_prime(lam, degree_model, weight_model.second_moment_w)
    return lam, -1.0 / (spike_model.sigma_x2 * theta**2 * qp)


def q_general(
    population: Population,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    rng: np.random.Generator,
    samples: int = 1_000_000,
) -> float:
    """Monte Carlo Q_hat(lambda) = < integral {dpi}_k {drho_W}_k
    1/(lambda - {W^2/omega}_k) > over an equilibrated population; the
    gather's bias sums are not used."""
    total = 0.0
    count = 0
    for _, den, _ in _full_nodes(population, degree_model, weight_model, samples, rng):
        total += float(np.divide(1.0, den, out=den).sum())
        count += den.size
    return total / count


def theta_crit(
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    lambda_structural: float,
) -> float:
    """Recovery threshold 1 / (sigma_x^2 Q(lambda_{theta=0})), Q from the
    resolvent-moment route (``RESOLVENT_KINDS`` degree tables only).
    ``lambda_structural`` must be supplied by the caller (the structural
    eigenvalue from a theta=0 population run, the closed form c for
    regular noise, or the spectral edge when no outlier exists)."""
    w = regular_constant_weight(degree_model, weight_model)
    if w is not None:
        # closed form w c(c-2) / (sigma^2 (c-1)); also covers the marginal
        # chain c = 2, where the resolvent route degenerates (double root)
        c = degree_model.mean_c
        return w * c * (c - 2.0) / (spike_model.sigma_x2 * (c - 1.0))
    if degree_model.kind not in RESOLVENT_KINDS:
        raise ValueError(f"no theta_crit route for {degree_model.kind!r} degree tables")
    q0 = q_tilde(lambda_structural, degree_model, weight_model.second_moment_w)
    return 1.0 / (spike_model.sigma_x2 * q0)


@dataclass(frozen=True)
class AnalyticReport:
    """Threshold and curve predictions for one (ensemble, theta) point.

    ``lambda_theta`` is the eigenvalue branch associated with the signal;
    for theta_b < theta < theta_crit it is the second eigenvalue, above
    theta_crit it is the top one, and below theta_b it is buried in the
    bulk (None). ``overlap_sq`` is nonzero only above theta_crit.
    """

    theta: float
    theta_crit: float
    lambda_structural: float
    bulk_edge: float | None
    lambda_theta: float | None
    lambda_top: float
    overlap_sq: float
    theta_b: float | None = None
    c_crit: float | None = None
    c_b: float | None = None

    def as_flat_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def rr_report(c: int, sigma_x2: float, theta: float) -> AnalyticReport:
    """Closed forms for random-regular noise with unit weights.

    theta_b marks detachment of the signal eigenvalue from the bulk edge
    2 sqrt(c-1); theta_crit marks it overtaking the structural eigenvalue c.
    c_crit and c_b are the same thresholds read along the c axis at fixed
    theta.
    """
    c = _integer(c, "c")
    if c < 2:
        raise ValueError("random-regular closed forms need c >= 2")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    ts = theta * sigma_x2
    root = np.sqrt(ts * ts + 4.0)
    t_crit = c * (c - 2.0) / (sigma_x2 * (c - 1.0))
    t_b = (c - 2.0) / (sigma_x2 * np.sqrt(c - 1.0))
    bulk = 2.0 * np.sqrt(c - 1.0)
    lam_branch = 0.5 * (c * root - (c - 2.0) * ts)
    lam_theta = lam_branch if theta >= t_b else None
    if theta > t_crit:
        lam_top = lam_branch
        ov = c * theta * sigma_x2**2 / (2.0 * root) - (c - 2.0) * sigma_x2 / 2.0
    else:
        lam_top = float(c)
        ov = 0.0
    return AnalyticReport(
        theta=float(theta),
        theta_crit=t_crit,
        lambda_structural=float(c),
        bulk_edge=bulk,
        lambda_theta=lam_theta,
        lambda_top=lam_top,
        overlap_sq=ov,
        theta_b=t_b,
        c_crit=0.5 * (2.0 + ts + root),
        c_b=0.25 * (ts + root) ** 2 + 1.0,
    )


def poisson_report(
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    theta: float,
    lambda_structural: float,
) -> AnalyticReport:
    """Semi-analytic report for a truncated-Poisson (or any resolvent-route)
    ensemble; ``lambda_structural`` comes from a theta=0 population run."""
    e_w2 = weight_model.second_moment_w
    t_crit = theta_crit(degree_model, weight_model, spike_model, lambda_structural)
    edge = admissible_lambda_floor(degree_model, e_w2)
    if theta > t_crit:
        lam, ov = signal_and_overlap(theta, degree_model, weight_model, spike_model)
        lam_top = lam
    else:
        try:
            lam = lambda_signal(theta, degree_model, weight_model, spike_model)
        except RootNotBracketed:
            lam = None
        ov = 0.0
        lam_top = lambda_structural
    return AnalyticReport(
        theta=float(theta),
        theta_crit=t_crit,
        lambda_structural=lambda_structural,
        bulk_edge=edge,
        lambda_theta=lam,
        lambda_top=lam_top,
        overlap_sq=ov,
    )
