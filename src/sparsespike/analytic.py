"""Closed-form and semi-analytic predictions: the resolvent-moment fixed
point m(lambda), the threshold function Q(lambda) with its inverse and
derivative, recovery thresholds, signal-eigenvalue and squared-overlap
curves.

Everything here is a pure function of value inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import DegreeModel, SpikeModel, WeightModel, _integer, regular_constant_weight
from .errors import NegativeDenominator, RootNotBracketed

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


class _Branch:
    """The stable branch of the m equation, and the threshold function Q on it.

    With x = lambda/m and a_k = (k-1) E[W^2], over the k with r_k > 0, the
    m equation reads m^2 = S0(x) = sum_k r_k / (x - a_k), so
    lambda(x) = x sqrt(S0(x)) and d(lambda^2)/dx = x h(x) with
    h(x) = sum_k r_k (x - 2 a_k) / (x - a_k)^2. h > 0 is the stability of
    the fixed point, and on (a_max, inf) h has a single root x*, in
    (a_max, 2 a_max]: h / S0 = 1 - sum_k r_k a_k / (x - a_k)^2 / S0 grows
    with x by Chebyshev's sum inequality. Q(lambda) = sum_k p_k /
    (lambda - k E[W^2] m) = P0(x) / sqrt(S0(x)), with P0 the same sum over
    the p_k > 0 and poles b_k = k E[W^2]; it runs one term past the m
    equation, so the edge is x_e = max(x*, k_max E[W^2]).
    """

    def __init__(self, degree_model: DegreeModel, e_w2: float):
        mask = degree_model.r > 0
        r = self.r = degree_model.r[mask]
        a = self.a = (np.flatnonzero(mask) - 1.0) * e_w2
        k = np.flatnonzero(degree_model.probs)
        self.p, self.b = degree_model.probs[k], k * e_w2
        x_star = a[-1]
        if x_star > 0:
            def stable(x):
                return float((r * (x - 2.0 * a) / (x - a) ** 2).sum()) > 0

            x_star = _bisect(stable, a[-1], 2.0 * a[-1])
        self.x_e = max(x_star, self.b[-1])
        self.lam_e = self.lam(self.x_e)

    def lam(self, x: float) -> float:
        return float(x * np.sqrt((self.r / (x - self.a)).sum()))

    def x_of(self, lam: float) -> float:
        """x on the branch, bisected on [x_e, lambda^2] (lambda(x) >= sqrt(x)
        because every a_k >= 0)."""
        if not lam >= self.lam_e:
            raise NegativeDenominator(f"lambda={lam:g} is below the spectral edge {self.lam_e:.12g}")
        if lam == self.lam_e:
            return self.x_e
        return _bisect(lambda x: self.lam(x) >= lam, self.x_e, max(lam * lam, self.x_e))

    def q(self, x: float) -> float:
        """Q = P0 / sqrt(S0), strictly decreasing in x; +inf at an edge set
        by k_max E[W^2], where P0's last pole sits."""
        return float(_sums(x, self.p, self.b)[0] / np.sqrt(_sums(x, self.r, self.a)[0]))

    def q_prime(self, x: float) -> float:
        """dQ/dlambda in closed form: with S1, P1 the sums of the squared
        terms, d lambda/dx = (2 S0 - x S1) / (2 sqrt(S0)), where 2 S0 - x S1
        is h, so Q' = (P0 S1 - 2 P1 S0) / (S0 (2 S0 - x S1)). Unbounded at
        the edge."""
        if x == self.x_e:
            raise NegativeDenominator(f"Q'(lambda) is unbounded at the spectral edge {self.lam_e:.12g}")
        s0, s1 = _sums(x, self.r, self.a)
        p0, p1 = _sums(x, self.p, self.b)
        return (p0 * s1 - 2.0 * p1 * s0) / (s0 * (2.0 * s0 - x * s1))


def _sums(x: float, w: np.ndarray, poles: np.ndarray) -> tuple[float, float]:
    """(sum w / (x - poles), sum w / (x - poles)^2); +inf at a pole."""
    with np.errstate(divide="ignore"):
        g = 1.0 / (x - poles)
    return float((w * g).sum()), float((w * g * g).sum())


def gershgorin_bound(degree_model: DegreeModel, weight_model: WeightModel) -> float:
    """Row-sum bound on the noise spectrum: k_max * zeta."""
    return degree_model.k_max * weight_model.zeta


def admissible_lambda_floor(degree_model: DegreeModel, e_w2: float) -> float:
    """Spectral edge of the resolvent route, lambda(x_e) (``_Branch``): the
    smallest lambda with a stable m fixed point and non-negative Q
    denominators, and the lower end of every root bracket here. For
    c-regular noise it is the bulk edge 2 sqrt((c-1) E[W^2])."""
    return _Branch(degree_model, e_w2).lam_e


def _signal_root(branch: _Branch, theta: float, sigma_x2: float, bound: float) -> float:
    """x at the unique root of Q = 1/(theta sigma_x^2) on ``branch``,
    bisected once in x, where Q decreases strictly, on [x_e, lambda_hi^2];
    ``bound`` is the noise's ``gershgorin_bound``. The root exists down to
    the detachment point (theta_b in the regular case), where the branch
    meets the spectral edge. Below detachment, and at theta <= 0 where there
    is no signal, RootNotBracketed is raised. The root lies above x_e, so
    ``q_prime`` reads it."""
    if theta <= 0:
        raise RootNotBracketed(f"no signal branch at theta={theta:g}")
    target = 1.0 / (theta * sigma_x2)
    q_lo = branch.q(branch.x_e)
    if q_lo <= target:
        raise RootNotBracketed(
            f"Q at the spectral edge ({q_lo:g}) does not exceed 1/(theta sigma^2)={target:g}; "
            "theta is at or below the recovery threshold"
        )
    lam_hi = max(bound + 2.0 * theta * sigma_x2, branch.lam_e * 2)
    # Q <= 1/(lambda - k_max zeta) <= target/2 at lambda >= lam_hi, and lambda(x) >= sqrt(x)
    return _bisect(lambda x: branch.q(x) <= target, branch.x_e, lam_hi * lam_hi)


def signal_and_overlap(
    theta: float,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
) -> tuple[float, float]:
    """(lambda_theta, squared overlap) from one root solve: the signal
    eigenvalue, the root of Q(lambda) = 1/(theta sigma_x^2)
    (``_signal_root``), and -1 / (sigma_x^2 theta^2 Q'(lambda_theta)), Q'
    read at the root's x. Between detachment and theta_crit the root
    describes the second eigenvalue rather than the top one."""
    branch = _Branch(degree_model, weight_model.second_moment_w)
    x = _signal_root(branch, theta, spike_model.sigma_x2, gershgorin_bound(degree_model, weight_model))
    return branch.lam(x), -1.0 / (spike_model.sigma_x2 * theta**2 * branch.q_prime(x))


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


def rr_report(c: int, sigma_x2: float, theta: float, w: float = 1.0) -> AnalyticReport:
    """Closed forms for c-regular noise with one positive constant weight w,
    which is w times unit-weight noise: each eigenvalue and threshold is w
    times its unit-weight value at theta / w, the overlap that value itself.

    theta_b marks detachment of the signal eigenvalue from the bulk edge
    2 w sqrt(c-1); theta_crit marks it overtaking the structural eigenvalue
    c w. c_crit and c_b are the same thresholds read along the c axis at
    fixed theta. theta = 0 has no signal branch (``lambda_theta`` None).
    """
    c = _integer(c, "c")
    if c < 2:
        raise ValueError("random-regular closed forms need c >= 2")
    if theta < 0 or not w > 0:
        raise ValueError("theta must be non-negative and w positive")
    ts = theta * sigma_x2 / w
    root = np.sqrt(ts * ts + 4.0)
    t_crit = w * c * (c - 2.0) / (sigma_x2 * (c - 1.0))
    t_b = w * (c - 2.0) / (sigma_x2 * np.sqrt(c - 1.0))
    lam_branch = w * 0.5 * (c * root - (c - 2.0) * ts)
    if theta > t_crit:
        lam_top = lam_branch
        ov = c * (theta / w) * sigma_x2**2 / (2.0 * root) - (c - 2.0) * sigma_x2 / 2.0
    else:
        lam_top = c * w
        ov = 0.0
    return AnalyticReport(
        theta=float(theta),
        theta_crit=t_crit,
        lambda_structural=c * w,
        bulk_edge=w * 2.0 * np.sqrt(c - 1.0),
        lambda_theta=lam_branch if theta > 0 and theta >= t_b else None,
        lambda_top=lam_top,
        overlap_sq=ov,
        theta_b=t_b,
        c_crit=0.5 * (2.0 + ts + root),
        c_b=0.25 * (ts + root) ** 2 + 1.0,
    )


def report(
    theta: float,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    lambda_structural: float,
) -> AnalyticReport:
    """Predictions at theta: ``rr_report``'s closed forms for regular
    constant-weight noise, which do not read ``lambda_structural`` (on the
    chain c = 2 its c w can round below the route's edge, where the route
    raises), else the resolvent route at ``lambda_structural`` (from a
    theta=0 population run, or the spectral edge when no outlier exists).
    The route reads one ``_Branch``, built from p_k, r_k and E[W^2] alone:
    theta_crit = 1 / (sigma_x^2 Q(lambda_structural)), the edge, the signal
    root, and above theta_crit the overlap as ``signal_and_overlap`` gives it."""
    regular = regular_constant_weight(degree_model, weight_model)
    if regular is not None:
        c, w = regular
        return rr_report(c, spike_model.sigma_x2, theta, w)
    branch = _Branch(degree_model, weight_model.second_moment_w)
    sigma_x2, bound = spike_model.sigma_x2, gershgorin_bound(degree_model, weight_model)
    t_crit = 1.0 / (sigma_x2 * branch.q(branch.x_of(lambda_structural)))
    if theta > t_crit:
        x = _signal_root(branch, theta, sigma_x2, bound)
        lam = lam_top = branch.lam(x)
        ov = -1.0 / (sigma_x2 * theta**2 * branch.q_prime(x))
    else:
        try:
            lam = branch.lam(_signal_root(branch, theta, sigma_x2, bound))
        except RootNotBracketed:
            lam = None
        ov = 0.0
        lam_top = lambda_structural
    return AnalyticReport(
        theta=float(theta),
        theta_crit=t_crit,
        lambda_structural=lambda_structural,
        bulk_edge=branch.lam_e,
        lambda_theta=lam,
        lambda_top=lam_top,
        overlap_sq=ov,
    )
