"""Experiment orchestration: JSON config parsing, seeded instance farms,
parameter sweeps, and CSV emission.

Every artifact embeds the full canonical config and master seed in its
header, and all randomness is derived from (master seed, instance index,
role tag), so reruns with an identical config are byte-identical and
results do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import analytic, ensembles, graphgen, observables, popdyn, spectral
from .errors import ConfigError, RootNotBracketed, SparseSpikeError


def seed_derivation(master_seed: int, instance_index: int, role_tag: str) -> int:
    """Collision-free stream seed from (master, index, tag) via SHA-256."""
    digest = hashlib.sha256(f"{master_seed}|{instance_index}|{role_tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(master_seed: int, instance_index: int, role_tag: str) -> np.random.Generator:
    return np.random.default_rng(seed_derivation(master_seed, instance_index, role_tag))


@dataclass
class ExperimentConfig:
    mode: str
    degree: dict
    weight: dict = field(default_factory=lambda: {"kind": "constant", "w": 1.0})
    spike: dict = field(default_factory=lambda: {"kind": "gaussian", "sigma_x2": 1.0})
    theta: list = field(default_factory=lambda: [0.0])
    c_grid: list | None = None
    n: int = 2000
    instances: int = 10
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1
    popdyn: dict = field(default_factory=dict)
    lambda_structural: float | None = None
    density_samples: int = 200_000

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _require_ints(cls, raw: dict, prefix: str) -> None:
    """Reject a value that is not an int (1.0 included) in an int field of ``cls``."""
    for f in fields(cls):
        if f.type in (int, "int") and f.name in raw:
            ensembles._integer(raw[f.name], prefix + f.name)


def _number(value, name: str) -> float:
    """``value`` as a float if it is a finite real number and not a bool."""
    # the bound rejects NaN, the infinities and an int too large for a double
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, name: str) -> list:
    """A number or a list of numbers as a list, each checked by ``_number``."""
    items = value if isinstance(value, list) else [value]
    for item in items:
        _number(item, f"each {name} entry")
    return items


def parse_config(raw: dict) -> ExperimentConfig:
    """``raw`` as a checked config. A ValueError or TypeError that a check
    raises, a model constructor's included, becomes a ConfigError here."""
    try:
        return _checked_config(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# Degree kinds whose theta_crit the analytic and sweep modes report
# (``analytic.report`` itself reads any degree table).
RESOLVENT_KINDS = ("truncated_poisson", "regular")


def _checked_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    if "mode" not in raw:
        raise ConfigError("missing field 'mode'")
    if raw["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {raw['mode']!r}")
    if "degree" not in raw or not isinstance(raw["degree"], dict):
        raise ConfigError("missing or invalid field 'degree'")
    for key in ("weight", "spike", "popdyn"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object, got {raw[key]!r}")
    _require_ints(ExperimentConfig, raw, "")
    _require_ints(popdyn.PopDynConfig, raw.get("popdyn", {}), "popdyn.")
    cfg = ExperimentConfig(**raw)
    cfg.theta = [float(t) for t in _numbers(cfg.theta, "theta")]
    if not cfg.theta:
        raise ConfigError("theta grid is empty")
    if any(t < 0 for t in cfg.theta):
        raise ConfigError("theta values must be non-negative")
    if len(set(cfg.theta)) < len(cfg.theta):
        raise ConfigError(f"theta has a repeated value: {cfg.theta}")
    for name in ("c_grid", "lambda_structural"):
        if getattr(cfg, name) is not None and cfg.mode not in ("analytic", "sweep"):
            raise ConfigError(f"only analytic and sweep read {name}, not {cfg.mode} mode")
    if cfg.c_grid is not None:
        cfg.c_grid = _numbers(cfg.c_grid, "c_grid")
        if not cfg.c_grid:
            raise ConfigError("c_grid is empty")
        if len(set(cfg.c_grid)) < len(cfg.c_grid):
            raise ConfigError(f"c_grid has a repeated value: {cfg.c_grid}")
    if cfg.mode == "densities" and len(cfg.theta) > 1:
        raise ConfigError(f"densities mode samples one theta, got {len(cfg.theta)} values")
    if cfg.mode in ("popdyn", "densities") and any(t <= 0 for t in cfg.theta):
        raise ConfigError(f"{cfg.mode} mode solves the spiked phase; theta must be positive")
    if cfg.n < 2:
        raise ConfigError("n must be >= 2")
    if cfg.instances < 1:
        raise ConfigError("instances must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.lambda_structural is not None:
        _number(cfg.lambda_structural, "lambda_structural")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {cfg.out_dir!r}")
    if cfg.density_samples < 1:
        raise ConfigError("density_samples must be >= 1")
    for c_value in cfg.c_grid if cfg.c_grid is not None else [None]:
        degree_model, weight_model, _ = build_models(cfg, c_value)
        if cfg.mode not in ("analytic", "sweep"):
            continue
        if degree_model.kind not in RESOLVENT_KINDS:
            raise ConfigError(f"{cfg.mode} mode has no theta_crit route for a {degree_model.kind!r} degree table")
        if cfg.lambda_structural is not None and ensembles.regular_constant_weight(degree_model, weight_model) is None:
            edge = analytic.admissible_lambda_floor(degree_model, weight_model.second_moment_w)
            if cfg.lambda_structural < edge:
                raise ConfigError(f"lambda_structural={cfg.lambda_structural:g} is below the spectral edge {edge:.12g}")
    popdyn.PopDynConfig(**cfg.popdyn)
    return cfg


def build_models(cfg: ExperimentConfig, c_value=None):
    """Instantiate (degree, weight, spike) models; c_value overrides the
    degree parameter for sweep grid points. An int parameter must be an int
    and a real one a finite number, and a law may hold no field its kind
    does not read (ValueError or ConfigError otherwise), so the models run
    the values the config and its CSV columns show."""
    deg = dict(cfg.degree)
    kind = deg.pop("kind", None)

    def degree_param(key):
        value = deg.pop(key, None)
        return (value, f"degree.{key}") if c_value is None else (c_value, "c_grid entry")

    if kind == "regular":
        degree_model = ensembles.regular(ensembles._integer(*degree_param("c")))
    elif kind == "truncated_poisson":
        degree_model = ensembles.truncated_poisson(_number(*degree_param("cbar")),
                                                   ensembles._integer(deg.pop("k_max", 20), "degree.k_max"))
    elif kind == "table":
        degree_model = ensembles.degree_table(deg.pop("probs", None))
    else:
        raise ValueError(f"unknown degree kind {kind!r}")

    wgt = dict(cfg.weight)
    wkind = wgt.pop("kind", None)
    if wkind == "constant":
        weight_model = ensembles.constant_weight(_number(wgt.pop("w", 1.0), "weight.w"))
    elif wkind == "rademacher_scaled":
        weight_model = ensembles.rademacher_weight(_number(wgt.pop("scale", None), "weight.scale"))
    elif wkind == "custom_table":
        weight_model = ensembles.weight_table(wgt.pop("values", None), wgt.pop("probs", None))
    else:
        raise ValueError(f"unknown weight kind {wkind!r}")

    spk = dict(cfg.spike)
    skind = spk.pop("kind", None)
    if skind == "gaussian":
        spike_model = ensembles.gaussian_spike(_number(spk.pop("sigma_x2", 1.0), "spike.sigma_x2"))
    elif skind == "rademacher":
        spike_model = ensembles.rademacher_spike(_number(spk.pop("sigma_x2", 1.0), "spike.sigma_x2"))
    elif skind == "custom":
        spike_model = ensembles.custom_spike(spk.pop("values", None), spk.pop("probs", None))
    else:
        raise ValueError(f"unknown spike kind {skind!r}")
    for law, law_kind, unread in (("degree", kind, deg), ("weight", wkind, wgt), ("spike", skind, spk)):
        if unread:
            raise ConfigError(f"a {law_kind!r} {law} law does not read {', '.join(map(repr, sorted(unread)))}")
    return degree_model, weight_model, spike_model


def _c_values(cfg: ExperimentConfig) -> list:
    """The c grid points of a run, as its CSV ``c`` column shows them: the
    ``c_grid`` entries, else the degree's own ``c`` or ``cbar`` as written
    (None for a ``table`` law)."""
    return cfg.c_grid if cfg.c_grid is not None else [cfg.degree.get("c", cfg.degree.get("cbar"))]


@functools.lru_cache(maxsize=1)
def _unspiked_instance(canonical: str, c_value, index: int) -> graphgen.SpikedMatrix:
    """Instance ``index`` of the config ``canonical`` at theta = 0; the last
    one built is kept. Its noise and spike vector do not depend on theta, so
    consecutive tasks of one (config, c, index) build them once."""
    cfg = ExperimentConfig(**json.loads(canonical))
    degree_model, weight_model, spike_model = build_models(cfg, c_value)
    degrees = ensembles.sample_degree_sequence(
        degree_model, cfg.n, derive_rng(cfg.seed, index, "degrees")
    )
    graph = graphgen.configuration_model(degrees, derive_rng(cfg.seed, index, "graph"))
    graph = graphgen.assign_weights(graph, weight_model, derive_rng(cfg.seed, index, "weights"))
    return graphgen.assemble_spiked(graph, spike_model, 0.0, derive_rng(cfg.seed, index, "spike"))


def _instance_row(args: tuple) -> dict:
    raw_cfg, theta, c_value, index = args
    cfg = ExperimentConfig(**raw_cfg)
    a = replace(_unspiked_instance(cfg.canonical(), c_value, index), theta=float(theta))
    report = spectral.analyze_instance(a, rng=derive_rng(cfg.seed, index, "eig"))
    return {
        "index": index,
        "seed": seed_derivation(cfg.seed, index, "graph"),
        "n": cfg.n,
        "theta": theta,
        "c": c_value,
        "lambda_top": report.lambda_top,
        "lambda_second": report.lambda_second,
        "overlap": report.overlap,
        "overlap_sq": report.overlap_sq,
        "residual_top": report.residual_top,
        "residual_second": report.residual_second,
        "iterations": report.iterations,
    }


@functools.cache
def _load_eigensolver() -> None:
    """Import ``scipy.sparse.linalg`` (and with it ``scipy.sparse``) before
    ``_farm`` forks, so the workers share its pages instead of each loading
    it; the package itself never imports scipy. The heap is then frozen,
    as CPython advises before ``fork()``: no collection, a worker's (which
    would dirty the shared pages) or the one at exit, walks the ~40k objects
    of numpy and scipy again (a full walk of them takes 10-30 ms). This
    runs once per process, so later runs in one process leave the objects
    alive at their start collectable."""
    import scipy.sparse.linalg  # noqa: F401
    gc.freeze()


def _farm(cfg: ExperimentConfig, tasks: list) -> list:
    """Run instance tasks, deterministically ordered by task index, on at
    most one worker per task."""
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only for a pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_instance_row, tasks))
    else:
        rows = [_instance_row(t) for t in tasks]
    return sorted(rows, key=lambda r: (r["theta"], r["c"] if r["c"] is not None else 0, r["index"]))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _header(cfg: ExperimentConfig) -> tuple:
    """Every artifact's header lines, each written after "# ": the canonical
    config and the master seed."""
    return f"config: {cfg.canonical()}", f"seed: {cfg.seed}"


def _write_csv(path: str, fieldnames: list, rows: list, cfg: ExperimentConfig) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in _header(cfg)) + ",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(name)) for name in fieldnames) + "\n")


def structural_for(cfg: ExperimentConfig, degree_model, weight_model) -> float:
    """Structural (theta=0) top eigenvalue for the configured noise: the
    closed form c w for regular constant-weight noise, else the configured
    ``lambda_structural``, else ``popdyn.structural_lambda``."""
    w = ensembles.regular_constant_weight(degree_model, weight_model)
    if w is not None:
        return analytic.rr_report(degree_model.k_max, 1.0, 0.0, w).lambda_structural
    if cfg.lambda_structural is not None:
        return float(cfg.lambda_structural)
    return popdyn.structural_lambda(degree_model, weight_model, popdyn.PopDynConfig(**cfg.popdyn),
                                    derive_rng(cfg.seed, 0, "structural"))[0]


def _analytic_grid(cfg: ExperimentConfig):
    """Yield (c, theta, report) c-major over the grid; each c builds its
    models and structural eigenvalue once, shared by all its theta values."""
    for c_value in _c_values(cfg):
        models = build_models(cfg, c_value)
        lam_struct = structural_for(cfg, *models[:2])
        for theta in cfg.theta:
            yield c_value, theta, analytic.report(theta, *models, lam_struct)


ANALYTIC_FIELDS = [
    "theta", "c", "theta_crit", "theta_b", "lambda_structural", "bulk_edge",
    "lambda_theta", "lambda_top", "overlap_sq", "c_crit", "c_b",
]


def run_analytic(cfg: ExperimentConfig) -> list:
    rows = []
    for c_value, _, rep in _analytic_grid(cfg):
        row = {**rep.as_flat_dict(), "c": c_value}
        rows.append(row)
        for key in ANALYTIC_FIELDS:
            if row.get(key) is not None:
                print(f"{key}={_fmt(row[key])}")
        print()
    _write_csv(os.path.join(cfg.out_dir, "analytic.csv"), ANALYTIC_FIELDS, rows, cfg)
    return rows


DIAG_FIELDS = [
    "index", "seed", "n", "theta", "c", "lambda_top", "lambda_second",
    "overlap", "overlap_sq", "residual_top", "residual_second", "iterations",
]


def run_diag(cfg: ExperimentConfig) -> list:
    _load_eigensolver()
    raw = asdict(cfg)
    c_value, = _c_values(cfg)
    # index-major, so each instance's theta values run in turn on one build
    tasks = [(raw, theta, c_value, i) for i in range(cfg.instances) for theta in cfg.theta]
    rows = _farm(cfg, tasks)
    _write_csv(os.path.join(cfg.out_dir, "diag.csv"), DIAG_FIELDS, rows, cfg)
    _write_csv(os.path.join(cfg.out_dir, "diag_summary.csv"), SUMMARY_FIELDS, _aggregate(rows), cfg)
    return rows


SUMMARY_FIELDS = [
    "theta", "c", "instances",
    "mean_lambda_top", "se_lambda_top", "std_lambda_top",
    "mean_lambda_second", "se_lambda_second",
    "mean_overlap", "mean_overlap_sq", "se_overlap_sq",
]


def _aggregate(rows: list) -> list:
    out = []
    keys = sorted({(r["theta"], r["c"]) for r in rows})
    for theta, c in keys:
        sel = [r for r in rows if r["theta"] == theta and r["c"] == c]
        lt = np.array([r["lambda_top"] for r in sel])
        ls = np.array([r["lambda_second"] for r in sel], dtype=float)
        ov = np.array([r["overlap"] for r in sel])
        ov2 = np.array([r["overlap_sq"] for r in sel])
        m = len(sel)

        def se(a):
            return float(a.std(ddof=1) / np.sqrt(m)) if m > 1 else float("nan")

        out.append({
            "theta": theta, "c": c, "instances": m,
            "mean_lambda_top": float(lt.mean()), "se_lambda_top": se(lt),
            "std_lambda_top": float(lt.std(ddof=1)) if m > 1 else float("nan"),
            "mean_lambda_second": float(ls.mean()), "se_lambda_second": se(ls),
            "mean_overlap": float(ov.mean()),
            "mean_overlap_sq": float(ov2.mean()), "se_overlap_sq": se(ov2),
        })
    return out


def _solve(cfg: ExperimentConfig, index: int, theta: float, models: tuple):
    """``popdyn.solve`` at theta on stream ``index``, at the resolvent
    route's (lambda, q); a route without a signal root raises its SolverError.
    On regular constant-weight noise a theta at or below the closed-form
    theta_crit raises RootNotBracketed before any sweep: there the signal
    root is not the top eigenvalue, and the population never plateaus."""
    degree_model, weight_model, spike_model = models
    w = ensembles.regular_constant_weight(degree_model, weight_model)
    if w is not None:
        t_crit = analytic.rr_report(degree_model.k_max, spike_model.sigma_x2, theta, w).theta_crit
        if theta <= t_crit:
            raise RootNotBracketed(f"theta={theta:g} with theta_crit={t_crit:.12g}: "
                                   "theta is at or below the recovery threshold")
    lam, ov = analytic.signal_and_overlap(theta, *models)
    return popdyn.solve(theta, *models, popdyn.PopDynConfig(**cfg.popdyn), derive_rng(cfg.seed, index, "popdyn"),
                        lam, float(np.sqrt(ov)))


POPDYN_FIELDS = ["theta", "c", "lambda", "q", "overlap_sq", "alpha1", "alpha2", "alpha1_se", "alpha2_se", "sweeps"]


def run_popdyn(cfg: ExperimentConfig) -> list:
    models = build_models(cfg)
    c_value, = _c_values(cfg)
    rows = []
    for i, theta in enumerate(cfg.theta):
        _, q, lam, diag = _solve(cfg, i, theta, models)
        last = diag["history"][-1]
        rows.append({
            "theta": theta, "c": c_value, "lambda": lam, "q": q,
            "overlap_sq": q * q,
            "alpha1": last["alpha1"], "alpha2": last["alpha2"],
            "alpha1_se": last["alpha1_se"], "alpha2_se": last["alpha2_se"],
            "sweeps": last["sweeps"],
        })
    _write_csv(os.path.join(cfg.out_dir, "popdyn.csv"), POPDYN_FIELDS, rows, cfg)
    return rows


def run_densities(cfg: ExperimentConfig) -> dict:
    models = build_models(cfg)
    pop = _solve(cfg, 0, cfg.theta[0], models)[0]
    header = _header(cfg)
    top, ov = observables.component_densities(pop, *models, cfg.density_samples, derive_rng(cfg.seed, 1, "rho_top"))
    # before the writers: its temporary on top of what they leave in the heap would set the peak memory
    moments = observables.overlap_moments(ov)
    marg = observables.marginals(pop)
    observables.write_histogram_csv(top, os.path.join(cfg.out_dir, "rho_top_hist.csv"), header)
    observables.write_histogram_csv(ov, os.path.join(cfg.out_dir, "rho_ov_hist.csv"), header)
    observables.write_samples_csv(top, os.path.join(cfg.out_dir, "rho_top_samples.csv"), header)
    observables.write_samples_csv(ov, os.path.join(cfg.out_dir, "rho_ov_samples.csv"), header)
    stride = max(1, pop.n_pop // 10_000)
    observables.write_cdf_csv(marg["omega_x"], marg["omega_cdf"],
                              os.path.join(cfg.out_dir, "omega_cdf.csv"), header, stride)
    observables.write_cdf_csv(marg["h_x"], marg["h_cdf"],
                              os.path.join(cfg.out_dir, "h_cdf.csv"), header, stride)
    print(f"overlap_mean={moments.mean!r}")
    print(f"overlap_sq={moments.overlap_sq!r}")
    print(f"omega_atom_mass={marg['atom_mass']!r}")
    return {"rho_top": top, "rho_ov": ov, "marginals": marg, "moments": moments}


SWEEP_FIELDS = SUMMARY_FIELDS + ["analytic_lambda_theta", "analytic_overlap_sq", "theta_crit", "theta_b"]


def run_sweep(cfg: ExperimentConfig) -> list:
    _load_eigensolver()
    raw = asdict(cfg)
    points = [(c_value, theta) for c_value in _c_values(cfg) for theta in cfg.theta]
    tasks = [(raw, theta, c_value, p * cfg.instances + i)
             for p, (c_value, theta) in enumerate(points) for i in range(cfg.instances)]
    by_point = {(s["c"], s["theta"]): s for s in _aggregate(_farm(cfg, tasks))}
    out = [{**by_point[(c_value, theta)], "analytic_lambda_theta": rep.lambda_theta,
            "analytic_overlap_sq": rep.overlap_sq, "theta_crit": rep.theta_crit, "theta_b": rep.theta_b}
           for c_value, theta, rep in _analytic_grid(cfg)]
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), SWEEP_FIELDS, out, cfg)
    return out


RUNNERS = {"analytic": run_analytic, "popdyn": run_popdyn, "diag": run_diag, "densities": run_densities,
           "sweep": run_sweep}
MODES = tuple(RUNNERS)


def run(cfg: ExperimentConfig) -> int:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {cfg.out_dir!r}: {exc}") from exc
    RUNNERS[cfg.mode](cfg)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsespike",
        description="Recovery-threshold experiments for spiked sparse random matrices",
    )
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out-dir", default=None, help="override the output directory")
    parser.add_argument("--workers", type=int, default=None, help="override the worker count")
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed, "out_dir": args.out_dir, "workers": args.workers}
    try:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(str(exc)) from exc
        if isinstance(raw, dict):  # parse_config rejects any other JSON value
            raw.update((key, value) for key, value in overrides.items() if value is not None)
        return run(parse_config(raw))
    except SparseSpikeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
