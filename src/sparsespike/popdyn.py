"""Population-dynamics solver for the joint law of cavity precision/bias
pairs (omega, h), including the rescaling loop that pins down the order
parameters (q, lambda) for a given signal strength theta.

A population is a Monte Carlo representation of the fixed-point density:
N_p pairs updated by random replacement. One sweep performs N_p single
replacements; for speed the replacements are processed in vectorized
batches whose member lookups see the population as of the batch start
(an O(batch/N_p) perturbation of strict one-at-a-time semantics with the
same fixed point). All randomness flows through the caller's Generator,
so equal seeds reproduce populations, alpha estimates, and rescale
trajectories bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import DegreeModel, SpikeModel, WeightModel
from .errors import (
    MaxRescalesExceeded,
    MaxSweepsExceeded,
    NonPositiveDenominator,
    NonPositiveOmega,
)

MOMENT_KEYS = ("mean_omega", "var_omega", "mean_h", "var_h")


@dataclass
class Population:
    """N_p pairs (omega, h) plus the current parameters (q, lambda, theta)."""

    omega: np.ndarray
    h: np.ndarray
    q: float
    lam: float
    theta: float
    sweep_count: int = 0

    @property
    def n_pop(self) -> int:
        return self.omega.size

    def moments(self) -> dict:
        return {
            "mean_omega": float(self.omega.mean()),
            "var_omega": float(self.omega.var()),
            "mean_h": float(self.h.mean()),
            "var_h": float(self.h.var()),
        }


@dataclass(frozen=True)
class PopDynConfig:
    n_pop: int = 200_000
    omega_init: tuple = (5.0, 20.0)
    h_init: tuple = (0.0, 10.0)
    q_init: float = 0.5
    lambda_init: float = 10.0
    plateau_window: int = 20
    plateau_tol: float = 1e-3
    alpha_tol: float = 1e-2
    max_rescales: int = 50
    alpha_samples: int = 1_000_000
    max_sweeps: int = 600
    chunk: int = 16_384
    lambda_bump: float = 1.5

    def __post_init__(self):
        if self.n_pop < 2 or self.plateau_window < 1 or self.chunk < 1:
            raise ValueError("population sizes and windows must be positive")
        for name in ("plateau_tol", "alpha_tol", "lambda_init", "lambda_bump"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_rescales < 1 or self.max_sweeps < 1 or self.alpha_samples < 1:
            raise ValueError("budgets must be positive")


def init_population(config: PopDynConfig, rng: np.random.Generator, theta: float = 0.0) -> Population:
    """Uniformly initialized population with the configured (q, lambda)."""
    lo_o, hi_o = config.omega_init
    lo_h, hi_h = config.h_init
    return Population(
        omega=rng.uniform(lo_o, hi_o, config.n_pop),
        h=rng.uniform(lo_h, hi_h, config.n_pop),
        q=config.q_init,
        lam=config.lambda_init,
        theta=float(theta),
    )


def _gather(omega, h, degree_model, weight_model, b, rng, cavity):
    """The one gather kernel: b draws of (k, {W^2/omega}, {hW/omega}).

    With ``cavity`` k comes from r_k and the sums run over k-1 members (a
    cavity update), else k comes from p_k and they run over k (a full node).
    Members are drawn uniformly with replacement, each with a fresh weight,
    in the order k, members, weights. ``h=None`` skips the bias sum.
    """
    k = degree_model.sample_corrected(rng, size=b) if cavity else degree_model.sample(rng, size=b)
    terms = k - 1 if cavity else k
    idx = rng.integers(0, omega.size, int(terms.sum()))
    w = np.asarray(weight_model.sample(rng, size=idx.size), float)
    om = omega[idx]
    sid = np.repeat(np.arange(b), terms)
    s_w2 = np.bincount(sid, weights=w * w / om, minlength=b)
    s_hw = None if h is None else np.bincount(sid, weights=h[idx] * w / om, minlength=b)
    return k, s_w2, s_hw


def _sweep(pop, degree_model, weight_model, spike_model, rng, chunk):
    """N_p replacements, processed in batches (see module docstring). The
    spike draw happens only when theta != 0, so the omega dynamics consumes
    an identical random stream with or without a spike."""
    n = pop.n_pop
    draw_x = pop.theta != 0.0 and spike_model is not None
    done = 0
    while done < n:
        b = min(chunk, n - done)
        _, s_w2, h_new = _gather(pop.omega, pop.h, degree_model, weight_model, b, rng, cavity=True)
        omega_new = pop.lam - s_w2
        if omega_new.min() <= 0:
            raise NonPositiveOmega(
                f"omega_new<=0 encountered at lambda={pop.lam:g} (min {omega_new.min():g})"
            )
        if draw_x:
            h_new = h_new + pop.theta * pop.q * np.asarray(spike_model.sample(rng, size=b), float)
        targets = rng.integers(0, n, b)
        pop.omega[targets] = omega_new
        pop.h[targets] = h_new
        done += b
    pop.sweep_count += 1


def _block_means(trace: np.ndarray, window: int):
    return float(trace[-2 * window : -window].mean()), float(trace[-window:].mean())


def _plateaued(traces: dict, window: int, tol: float) -> bool:
    if len(traces["mean_omega"]) < 2 * window:
        return False
    arr = {key: np.asarray(traces[key]) for key in MOMENT_KEYS}
    b_varh, _ = _block_means(arr["var_h"], window)
    for key in MOMENT_KEYS:
        b1, b2 = _block_means(arr[key], window)
        if max(abs(b1), abs(b2)) < 1e-12:
            continue  # converged to zero in absolute terms
        scale = abs(b1)
        if key == "mean_h":
            scale = max(scale, np.sqrt(max(b_varh, 0.0)))
        if abs(b2 - b1) > tol * max(scale, 1e-12):
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

    Equilibrium is declared when, for mean/var of omega and h, consecutive
    window-averaged blocks agree to the relative plateau tolerance. On a
    NonPositiveOmega event lambda is inflated by the configured factor, the
    moment traces reset, and equilibration restarts (omega > 0 defines the
    admissible lambda region, so the only safe move is up).
    """
    traces = {key: [] for key in MOMENT_KEYS}
    bumps = 0
    sweeps = 0
    while sweeps < config.max_sweeps:
        try:
            _sweep(pop, degree_model, weight_model, spike_model, rng, config.chunk)
        except NonPositiveOmega:
            bumps += 1
            if bumps > 60:
                raise
            pop.lam *= config.lambda_bump
            for key in MOMENT_KEYS:
                traces[key].clear()
            continue
        sweeps += 1
        mom = pop.moments()
        for key in MOMENT_KEYS:
            traces[key].append(mom[key])
        if _plateaued(traces, config.plateau_window, config.plateau_tol):
            return {
                "sweeps": sweeps,
                "lambda_bumps": bumps,
                "converged": True,
                "traces": {key: np.asarray(val) for key, val in traces.items()},
            }
    raise MaxSweepsExceeded(f"no plateau within {config.max_sweeps} sweeps")


def _node_draws(omega, h, degree_model, weight_model, n_samples, rng):
    """``_gather`` over full nodes (k from p_k, k members), yielded in
    blocks of about 4e6 members until n_samples draws are made."""
    block = max(1, int(4_000_000 / max(degree_model.mean_c, 1.0)))
    done = 0
    while done < n_samples:
        b = min(block, n_samples - done)
        yield _gather(omega, h, degree_model, weight_model, b, rng, cavity=False)
        done += b


def alpha_pair(
    pop: Population,
    degree_model: DegreeModel,
    weight_model: WeightModel,
    spike_model: SpikeModel,
    rng: np.random.Generator,
    samples: int = 1_000_000,
):
    """Estimate (alpha1, se1, alpha2, se2) from one set of fresh draws.

    alpha1 is the eigenvector-normalization check (target 1). alpha2 is
    theta * sigma_x^2 * Q_hat(lambda), whose target is also 1: the raw
    appendix-style estimator E[X^2 / (lambda - {W^2/omega}_k)] targets
    1/theta instead, so the theta factor is folded in here to give both
    alphas a common fixed point.
    """
    a1_parts, a2_parts = [], []
    for k, s_w2, s_hw in _node_draws(pop.omega, pop.h, degree_model, weight_model, samples, rng):
        den = pop.lam - s_w2
        if den.min() <= 0:
            raise NonPositiveDenominator(f"min denominator {den.min():g} at lambda={pop.lam:g}")
        x = np.asarray(spike_model.sample(rng, size=k.size), float)
        num = s_hw + pop.theta * pop.q * x
        a1_parts.append((num / den) ** 2)
        a2_parts.append(1.0 / den)
    a1 = np.concatenate(a1_parts)
    a2 = pop.theta * spike_model.sigma_x2 * np.concatenate(a2_parts)
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
    warm_start: tuple[float, float] | None = None,
):
    """Alternate equilibration and (q, lambda) rescaling until alpha1 and
    alpha2 sit at 1 within the configured tolerance.

    ``warm_start=(lambda, q)`` seeds the parameters (e.g. from closed-form
    predictions); the population is still equilibrated and the alphas
    verified before the triple is accepted.

    Returns (population, q, lambda, diagnostics).
    """
    if theta <= 0:
        raise ValueError("solve targets the spiked phase; use theta > 0")
    pop = init_population(config, rng, theta=theta)
    if warm_start is not None:
        pop.lam, pop.q = float(warm_start[0]), float(warm_start[1])
    history = []
    for round_idx in range(config.max_rescales):
        eq = equilibrate(pop, config, degree_model, weight_model, spike_model, rng)
        a1, se1, a2, se2 = alpha_pair(
            pop, degree_model, weight_model, spike_model, rng, config.alpha_samples
        )
        history.append(
            {"round": round_idx, "lambda": pop.lam, "q": pop.q, "alpha1": a1, "alpha2": a2,
             "alpha1_se": se1, "alpha2_se": se2, "sweeps": eq["sweeps"]}
        )
        if abs(a1 - 1.0) <= config.alpha_tol and abs(a2 - 1.0) <= config.alpha_tol:
            diagnostics = {"history": history, "rounds": round_idx + 1, "final_equilibration": eq}
            return pop, pop.q, pop.lam, diagnostics
        pop.q = float(pop.q / np.sqrt(a1))
        pop.lam = float(pop.lam * a2)
    raise MaxRescalesExceeded(
        f"alphas not within {config.alpha_tol:g} of 1 after {config.max_rescales} rescalings "
        f"(last: alpha1={history[-1]['alpha1']:.4f}, alpha2={history[-1]['alpha2']:.4f})"
    )


def structural_lambda(
    degree_model: DegreeModel,
    weight_model: WeightModel,
    config: PopDynConfig,
    rng: np.random.Generator,
    lam_lo: float,
    lam_hi: float,
    probe_sweeps: int = 60,
    growth_gens: int = 30,
    lam_tol: float = 2e-3,
) -> tuple[float, dict]:
    """Structural top eigenvalue of the unspiked noise (theta = 0 reduction).

    At a trial lambda the omega population is relaxed, then the linearized
    bias-field recursion h <- {hW/omega}_{k-1} is iterated synchronously on
    the frozen omega population; its mean growth factor g(lambda) decreases
    through 1 exactly at the structural eigenvalue, which is located by
    bisection. Requires non-negative weight support (the Perron regime: for
    sign-mixed weights the mean-growth criterion loses meaning and the
    spectral edge itself should be used instead).
    """
    if weight_model.values.min() < 0:
        raise ValueError("growth probe requires non-negative weight support")
    n = config.n_pop

    def probe(lam: float) -> float | None:
        omega = rng.uniform(*config.omega_init, n)
        pop = Population(omega=omega, h=np.zeros(n), q=0.0, lam=lam, theta=0.0)
        try:
            for _ in range(probe_sweeps):
                _sweep(pop, degree_model, weight_model, None, rng, config.chunk)
        except NonPositiveOmega:
            return None
        h = np.ones(n)
        logs = []
        for gen in range(growth_gens):
            _, _, h_new = _gather(pop.omega, h, degree_model, weight_model, n, rng, cavity=True)
            growth = h_new.mean()
            if growth <= 0:
                return None
            h = h_new / growth
            if gen >= growth_gens // 3:
                logs.append(np.log(growth))
        return float(np.exp(np.mean(logs)))

    lo, hi = float(lam_lo), float(lam_hi)
    g_lo = probe(lo)
    tries = 0
    while g_lo is None and tries < 8:
        lo *= 1.02
        g_lo = probe(lo)
        tries += 1
    if g_lo is None:
        raise NonPositiveOmega("omega population unstable at the lower bracket")
    diag = {"probes": [(lo, g_lo)]}
    if g_lo <= 1.0:
        # no outlier above the spectral edge: the edge is the top eigenvalue
        diag["no_outlier"] = True
        return lo, diag
    while hi - lo > lam_tol * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        g = probe(mid)
        diag["probes"].append((mid, g))
        if g is None or g > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), diag


def save_population(pop: Population, path: str, seed: int | None = None) -> None:
    """Checkpoint (omega, h) plus parameters; reloadable without re-equilibration."""
    np.savez(
        path,
        omega=pop.omega,
        h=pop.h,
        q=pop.q,
        lam=pop.lam,
        theta=pop.theta,
        sweep_count=pop.sweep_count,
        seed=-1 if seed is None else seed,
    )


def load_population(path: str) -> Population:
    data = np.load(path)
    return Population(
        omega=data["omega"].copy(),
        h=data["h"].copy(),
        q=float(data["q"]),
        lam=float(data["lam"]),
        theta=float(data["theta"]),
        sweep_count=int(data["sweep_count"]),
    )
