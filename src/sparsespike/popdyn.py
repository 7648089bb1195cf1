"""Population-dynamics solver for the joint law of cavity precision/bias
pairs (omega, h), and its check of given order parameters (q, lambda), such
as the resolvent route's, at a signal strength theta.

A population is a Monte Carlo representation of the fixed-point density:
N_p pairs updated by replacement. One sweep replaces every slot once, in
order, in vectorized batches of consecutive slots whose member lookups see
the population as of the batch start (an O(batch/N_p) perturbation of
strict one-at-a-time semantics with the same fixed point). Sweeps stop
when each of the four moments (mean and variance of omega and h) has the
same mean over the last two windows of 10 sweeps to within 3 standard
errors of that moment in the population, a test that scales with N_p.
All randomness flows through the caller's Generator, so equal seeds
reproduce populations and alpha estimates bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import analytic
from .ensembles import _PIECE, DegreeModel, SpikeModel, WeightModel
from .errors import AlphaMismatch, MaxSweepsExceeded, NonPositiveDenominator, NonPositiveOmega

MOMENT_KEYS = ("mean_omega", "var_omega", "mean_h", "var_h")


@dataclass
class Population:
    """N_p pairs (omega, h) plus the current parameters (q, lambda, theta)."""

    omega: np.ndarray
    h: np.ndarray
    q: float
    lam: float
    theta: float

    @property
    def n_pop(self) -> int:
        return self.omega.size

    def moments(self) -> tuple[dict, dict]:
        """The four moments and their standard errors: sqrt(var / N_p) for a
        mean, sqrt((m4 - var^2) / N_p) for a variance (m4 the fourth central
        moment). Both arrays share one temporary of N_p for the squared
        deviations, as much memory as one ``np.var`` call takes."""
        mom, se, d2 = {}, {}, np.empty(self.n_pop)
        for name, a in (("omega", self.omega), ("h", self.h)):
            mean = float(a.mean())
            np.square(np.subtract(a, mean, out=d2), out=d2)
            var = float(d2.mean())
            m4 = float(np.square(d2, out=d2).mean())
            mom["mean_" + name], se["mean_" + name] = mean, np.sqrt(var / a.size)
            mom["var_" + name], se["var_" + name] = var, np.sqrt(max(m4 - var * var, 0.0) / a.size)
        return mom, se


# Fixed settings of the solver: the initial population, the plateau window
# in sweeps, its allowance in standard errors and its floor for zero and
# rounding, the replacements per batch of a sweep, and the structural
# solver's sweeps at lam_hi, its probes, a probe's sweeps and the last of
# them it reads.
_OMEGA_INIT = (5.0, 20.0)
_H_INIT = (0.0, 10.0)
_PLATEAU_WINDOW = 10
_PLATEAU_Z = 3.0
_ZERO = 1e-12
_CHUNK = 16_384
_RELAX_SWEEPS = 60
_PROBES = 12
_GROWTH_SWEEPS = 30
_GROWTH_READ = 20


@dataclass(frozen=True)
class PopDynConfig:
    n_pop: int = 200_000
    alpha_tol: float = 1e-2
    alpha_samples: int = 1_000_000
    max_sweeps: int = 600

    def __post_init__(self):
        if self.n_pop < 2:
            raise ValueError("n_pop must be at least 2")
        tol = self.alpha_tol
        # the bound rejects NaN, infinity and an int too large for a double
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol <= sys.float_info.max:
            raise ValueError(f"alpha_tol must be a finite positive number, got {tol!r}")
        if self.max_sweeps < 1 or self.alpha_samples < 1:
            raise ValueError("budgets must be positive")


def init_population(config: PopDynConfig, rng: np.random.Generator, lam: float, q: float = 0.0,
                    theta: float = 0.0) -> Population:
    """Uniformly initialized population at (lambda, q) = (``lam``, ``q``)."""
    return Population(
        omega=rng.uniform(*_OMEGA_INIT, config.n_pop),
        h=rng.uniform(*_H_INIT, config.n_pop),
        q=float(q),
        lam=float(lam),
        theta=float(theta),
    )


def _ratios(omega, h, out=None):
    """The per-slot ratios z = 1/omega + i h/omega that ``_gather`` reads,
    written into ``out`` when it is given."""
    z = np.empty(omega.size, complex) if out is None else out
    np.divide(1.0, omega, out=z.real)
    np.divide(h, omega, out=z.imag)
    return z


def _gather(z, degree_model, weight_model, b, rng, cavity):
    """The one gather kernel: b draws of (k, {W^2/omega}, {hW/omega}), read
    off the ratios z = ``_ratios(omega, h)``.

    With ``cavity`` k comes from r_k and the sums run over t = k-1 members
    (a cavity update), else k comes from p_k and they run over t = k (a full
    node). All b degrees are drawn first, in one call. The draws are then
    summed ``_PIECE`` (2^15) at a time, grouped by t: in each piece, for
    each t > 0 in increasing order, the draws with t members are taken in
    draw order, their members drawn uniformly with replacement as one
    (t, count) index array and then, unless the weight law is one point,
    their fresh weights as a (t, count) array, which scale each member's
    ratios to W^2 (1/omega) + i W (h/omega). Adding the t rows of complex
    terms in turn sums each draw's terms in member order; each sum is
    written back to its draw's position, so the output stays in i.i.d. draw
    order, and a draw without members sums to 0. A one-point weight law
    scales each sum once, by W^2 and W, so for W = 1 the sums are those of
    1/omega and h/omega. Temporaries are bounded by the members of one
    piece; a sweep's 16,384-draw chunk is one piece. The degrees k are
    returned in the smallest unsigned type that holds k_max (one byte per
    draw for k_max < 256), the type the argsort of each piece sorts in.
    """
    small = np.min_scalar_type(degree_model.k_max)  # stable argsort of <= 16-bit ints is a radix sort
    draw = degree_model.sample_corrected if cavity else degree_model.sample
    k = draw(rng, size=b).astype(small)
    terms = k - 1 if cavity else k
    scalar_w = weight_model.values.size == 1
    w = float(weight_model.values[0]) if scalar_w else 1.0  # a table's sums are scaled by 1.0, exactly
    s_w2, s_hw = np.empty(b), np.empty(b)
    for lo in range(0, b, _PIECE):
        piece = terms[lo:lo + _PIECE]
        order = np.argsort(piece, kind="stable")
        sums = np.zeros(piece.size, complex)
        end = 0
        for t, count in enumerate(np.bincount(piece).tolist()):
            start, end = end, end + count
            if t == 0 or count == 0:
                continue
            members = rng.integers(0, z.size, t * count).reshape(t, count)
            zt = z.take(members)
            if not scalar_w:
                wt = weight_model.sample(rng, size=t * count).reshape(t, count)
                zt.imag *= wt
                zt.real *= np.multiply(wt, wt, out=wt)
            sums[order[start:end]] = _column_sums(zt)
        np.multiply(sums.real, w * w, out=s_w2[lo:lo + piece.size])
        np.multiply(sums.imag, w, out=s_hw[lo:lo + piece.size])
    return k, s_w2, s_hw


def _column_sums(a):
    """Each column's sum, adding the rows in turn, written over row 0;
    ``a.sum(axis=0)`` may add the rows of a narrow block pairwise instead."""
    total = a[0]
    for row in a[1:]:
        total += row
    return total


def _sweep(pop, degree_model, weight_model, spike_model, rng):
    """One sweep: every slot replaced once, batch i of ``_CHUNK`` draws
    written to slots [i _CHUNK, (i+1) _CHUNK) (see module docstring). The
    slots' ratios are formed once and a batch's are rewritten with its
    slots, so each batch reads the population as of its start. The spike
    draw happens only when theta != 0, so the omega dynamics consumes an
    identical random stream with or without a spike."""
    n = pop.n_pop
    draw_x = pop.theta != 0.0 and spike_model is not None
    z = _ratios(pop.omega, pop.h)
    for lo in range(0, n, _CHUNK):
        b = min(_CHUNK, n - lo)
        _, s_w2, h_new = _gather(z, degree_model, weight_model, b, rng, cavity=True)
        omega_new = np.subtract(pop.lam, s_w2, out=s_w2)
        if omega_new.min() <= 0:
            raise NonPositiveOmega(
                f"omega_new<=0 encountered at lambda={pop.lam:g} (min {omega_new.min():g})"
            )
        if draw_x:
            h_new += pop.theta * pop.q * np.asarray(spike_model.sample(rng, size=b), float)
        pop.omega[lo:lo + b] = omega_new
        pop.h[lo:lo + b] = h_new
        _ratios(omega_new, h_new, out=z[lo:lo + b])


def _plateaued(traces: dict, se: dict) -> bool:
    """The plateau rule of ``equilibrate``; ``se`` holds the standard errors
    of the moments in the current population."""
    w = _PLATEAU_WINDOW
    if len(traces["mean_omega"]) < 2 * w:
        return False
    for key in MOMENT_KEYS:
        b1, b2 = np.mean(traces[key][-2 * w : -w]), np.mean(traces[key][-w:])
        if max(abs(b1), abs(b2)) < _ZERO:
            continue
        if abs(b2 - b1) > _PLATEAU_Z * se[key] + _ZERO * abs(b1):
            return False
    return True


def equilibrate(
    pop: Population,
    config: PopDynConfig,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel | None,
    rng: np.random.Generator,
) -> dict:
    """Sweep until the four population moments plateau.

    Equilibrium is declared when, for mean/var of omega and h, the means
    over the last two windows of 10 sweeps differ by at most 3 standard
    errors of that moment in the current population, so the test scales
    with N_p; a moment whose window means are both below 1e-12 in size has
    decayed to zero and passes, and 1e-12 of the moment is allowed for
    rounding. The result carries these errors as ``moment_se``. Lambda
    stays as given: a sweep that turns omega non-positive raises
    NonPositiveOmega, naming lambda.
    """
    traces = {key: [] for key in MOMENT_KEYS}
    for sweeps in range(1, config.max_sweeps + 1):
        _sweep(pop, degree_model, weight_model, spike_model, rng)
        mom, se = pop.moments()
        for key in MOMENT_KEYS:
            traces[key].append(mom[key])
        if _plateaued(traces, se):
            return {
                "sweeps": sweeps,
                "lambda_bumps": 0,  # lambda never moves; bench/tracing.py reads the key
                "traces": {key: np.asarray(val) for key, val in traces.items()},
                "moment_se": se,
            }
    raise MaxSweepsExceeded(f"no plateau within {config.max_sweeps} sweeps")


def _full_nodes(pop, degree_model, weight_model, spike_model, n_samples, rng):
    """The one pass of the full-node estimators: one ``_gather`` of n_samples
    full nodes (k from p_k, k members), then one spike draw x per node.
    Returns (k, x, u, den): the denominator den = lambda - {W^2/omega}_k,
    written over the gathered sum and checked positive here, and the
    top-eigenvector components u = ({hW/omega}_k + (theta q) x) / den,
    written over {hW/omega}_k. The term (theta q) x is formed and added
    ``_PIECE`` draws at a time, so no temporary is as long as x; each
    element sees the same two operations as the whole-array formula."""
    tq = pop.theta * pop.q
    k, den, u = _gather(_ratios(pop.omega, pop.h), degree_model, weight_model, n_samples, rng, cavity=False)
    np.subtract(pop.lam, den, out=den)
    if den.min() <= 0:
        raise NonPositiveDenominator(f"min denominator {den.min():g} at lambda={pop.lam:g}")
    x = np.asarray(spike_model.sample(rng, size=n_samples), float)
    for lo in range(0, n_samples, _PIECE):
        u[lo:lo + _PIECE] += np.multiply(tq, x[lo:lo + _PIECE])
    u /= den
    return k, x, u, den


def alpha_pair(
    pop: Population,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    rng: np.random.Generator,
    samples: int,
):
    """Estimate (alpha1, se1, alpha2, se2) from one set of fresh draws.

    alpha1 is the eigenvector-normalization check (target 1). alpha2 is
    theta * sigma_x^2 * Q_hat(lambda), whose target is also 1: the raw
    appendix-style estimator E[X^2 / (lambda - {W^2/omega}_k)] targets
    1/theta instead, so the theta factor is folded in here to give both
    alphas a common fixed point. alpha1's terms are the squares of the
    components u that ``observables.component_densities`` samples. The
    formulas overwrite u and den, in the same operation order as the
    written formula, and the degrees and spike draws are dropped unused.
    """
    k, x, u, den = _full_nodes(pop, degree_model, weight_model, spike_model, samples, rng)
    del k, x
    a1 = np.square(u, out=u)
    a2 = np.divide(1.0, den, out=den)
    a2 *= pop.theta * spike_model.sigma_x2
    n = a1.size
    return (
        float(a1.mean()),
        float(a1.std() / np.sqrt(n)),
        float(a2.mean()),
        float(a2.std() / np.sqrt(n)),
    )


def solve(
    theta: float,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    config: PopDynConfig,
    rng: np.random.Generator,
    lam: float,
    q: float,
):
    """Check (lambda, q), e.g. the resolvent route's, by one pass of
    population dynamics: build the population there, equilibrate it once
    and estimate one alpha pair. The population is accepted if alpha1 and
    alpha2 both sit within the configured tolerance of 1; otherwise
    AlphaMismatch is raised.

    Returns (population, q, lambda, diagnostics), ``diagnostics["history"]``
    holding the one pass's entry.
    """
    if theta <= 0:
        raise ValueError("solve targets the spiked phase; use theta > 0")
    pop = init_population(config, rng, lam, q, theta)
    eq = equilibrate(pop, config, degree_model, weight_model, spike_model, rng)
    a1, se1, a2, se2 = alpha_pair(pop, degree_model, weight_model, spike_model, rng, config.alpha_samples)
    if not (abs(a1 - 1.0) <= config.alpha_tol and abs(a2 - 1.0) <= config.alpha_tol):
        raise AlphaMismatch(
            f"alphas not within {config.alpha_tol:g} of 1 at lambda={pop.lam:g}, q={pop.q:g}: "
            f"alpha1={a1:.4f} +/- {se1:.4f}, alpha2={a2:.4f} +/- {se2:.4f}"
        )
    entry = {"lambda": pop.lam, "q": pop.q, "alpha1": a1, "alpha2": a2, "alpha1_se": se1, "alpha2_se": se2,
             "sweeps": eq["sweeps"], "moment_se": eq["moment_se"]}
    return pop, pop.q, pop.lam, {"history": [entry], "rounds": 1, "final_equilibration": eq}


def structural_lambda(
    degree_model: DegreeModel,
    weight_model: WeightModel,
    config: PopDynConfig,
    rng: np.random.Generator,
) -> tuple[float, float, dict]:
    """Structural top eigenvalue of the unspiked noise (theta = 0) and its
    standard error. Sign-mixed weights have no Perron outlier: the spectral
    edge ``analytic.admissible_lambda_floor`` is returned with error 0 and
    no probes.

    For non-negative weights a probe at lambda runs ``_sweep`` at theta = 0
    (omega and h from the same members), sets h back to mean 1 after each
    sweep and reads the mean log growth g of mean h over its last sweeps,
    with its standard error; log g falls through 0 at the eigenvalue.
    (Later batches of a sweep read updated slots, so a sweep's g is not a
    generation's, but both are 1 at the same lambda.) The bracket is
    [lam_lo, lam_hi] = [spectral edge, ``analytic.gershgorin_bound`` + 1].
    One population, relaxed at lam_hi, is carried warm through a fixed
    number of bisection probes of the bracket; a probe whose omega turns
    non-positive counts as below the root and is undone. The root is that
    of a line through the three stable probes nearest log g = 0, weighted by
    their standard errors; its standard error follows by the delta method.
    With no growing probe there is no outlier and (lam_lo, 0.0) is
    returned, or NonPositiveOmega raised if a probe was unstable.

    Returns (lambda, se, diagnostics), ``diagnostics["probes"]`` holding each
    probe's (lambda, mean log g, se), None for an unstable one.
    """
    lam_lo = analytic.admissible_lambda_floor(degree_model, weight_model.second_moment_w)
    if weight_model.values.min() < 0:
        return lam_lo, 0.0, {"probes": []}
    lam_hi = analytic.gershgorin_bound(degree_model, weight_model) + 1.0
    pop = Population(rng.uniform(*_OMEGA_INIT, config.n_pop), np.ones(config.n_pop), q=0.0, lam=lam_hi, theta=0.0)

    @np.errstate(divide="ignore", invalid="ignore")  # log g = -inf if no draw has members (k_max 1)
    def probe(lam: float, sweeps: int) -> tuple:
        saved, pop.lam, logs = (pop.omega.copy(), pop.h.copy()), lam, []
        try:
            for _ in range(sweeps):
                _sweep(pop, degree_model, weight_model, None, rng)
                logs.append(np.log(growth := pop.h.mean()))
                pop.h /= growth
        except NonPositiveOmega:
            pop.omega, pop.h = saved
            return lam, None, None
        tail = np.asarray(logs[-_GROWTH_READ:])
        return lam, float(tail.mean()), float(tail.std(ddof=1) / np.sqrt(tail.size))

    lo, hi = float(lam_lo), float(lam_hi)
    probes = [probe(hi, _RELAX_SWEEPS)]
    for _ in range(_PROBES):
        probes.append(probe(0.5 * (lo + hi), _GROWTH_SWEEPS))
        mid, log_g, _ = probes[-1]
        lo, hi = (mid, hi) if log_g is None or log_g > 0 else (lo, mid)
    stable = [p for p in probes if p[1] is not None]
    if all(log_g <= 0 for _, log_g, _ in stable):
        if len(stable) < len(probes):
            raise NonPositiveOmega(f"no probe grows, and omega turned non-positive above lambda={lam_lo:g}")
        return float(lam_lo), 0.0, {"probes": probes}  # no outlier above the spectral edge
    lam, log_g, se = (np.array(v) for v in zip(*sorted(stable, key=lambda p: abs(p[1]))[:3]))
    (slope, icpt), cov = np.polyfit(lam, log_g, 1, w=1.0 / np.maximum(se, _ZERO), cov="unscaled")
    root = -icpt / slope
    var = (cov[1, 1] + 2.0 * root * cov[0, 1] + root * root * cov[0, 0]) / (slope * slope)
    return float(root), float(np.sqrt(var)), {"probes": probes}
