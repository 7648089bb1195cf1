"""sparsespike benchmark: times one CLI workload end to end, or per layer.

    python3 bench/run.py --workload diag_rr4 [--seed 1] [--seconds 15] [--trace 0|1]

Run from the root of a checkout. Each CLI run is a fresh interpreter
(``bench/child.py`` with ``PYTHONPATH=src``) on the workload's config and
seed, one run at a time (closed loop), with BLAS and OpenMP pinned to one
thread. Artifacts go to ``.bench_out/`` in the checkout and are removed
at exit. Every run's output is checked (``workloads.py``); ``failed``
counts runs that exited non-zero or failed their check.

``--trace 0`` prints the end-to-end metrics, each a median over the full
runs that passed their check (over all completed runs if none did):
``setup_s`` (process start to the first layer call), ``wall_s`` (wall
time of a run) and ``peak_rss_mb`` (the CLI process's peak resident
memory plus, with a worker pool, workers times the largest worker peak
above the CLI's resident memory when it forked them). ``--trace 1``
alternates untraced and traced runs on the same CLI seed and prints the
per-layer metrics of the traced ones (medians), plus the tracing
overhead: the median of traced minus untraced wall time over the pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every benchmark run ends well inside 180 s


def machine_info() -> dict:
    """Host and library versions recorded with each result."""
    import platform

    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        info["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    info["caches"] = caches
    return info


class Runner:
    """Launches CLI runs in fresh interpreters under one scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path, toy: bool, start: float):
        spec = WORKLOADS[workload]
        self.config = copy.deepcopy(spec["config"])
        if toy:
            self.config.update(spec["toy"])
        self.check = spec["check"]
        self.min_runs = 1 if toy else spec["min_runs"]
        self.seed = seed
        self.scratch = scratch
        self.start = start
        self.config_path = scratch / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._ids = itertools.count()

    def launch(self, cli_seed: int, trace: bool = False) -> dict:
        run_dir = self.scratch / f"run{next(self._ids)}"
        run_dir.mkdir()
        out_dir = run_dir / "out"
        result_path = run_dir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
        cmd += ["--trace"] * trace
        cmd += ["--", str(self.config_path), "--seed", str(cli_seed), "--out-dir", str(out_dir)]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.start))
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
                                cwd=ROOT, start_new_session=True, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
            proc.communicate()
            return {"ok": False, "problems": [f"killed after {timeout:.0f} s"]}
        wall = time.monotonic() - t0
        run = {"ok": False, "wall": wall, "problems": []}
        if proc.returncode != 0 or not result_path.exists():
            run["problems"].append(f"exit code {proc.returncode}: {stderr.strip()[-2000:]}")
            return run
        run.update(json.loads(result_path.read_text()))
        run["setup"] = run["setup_end"] - t0
        worker_kb = max(0, run["child_maxrss_kb"] - run["fork_rss_kb"]) if run["workers"] > 1 else 0
        run["rss_mb"] = (run["maxrss_kb"] + run["workers"] * worker_kb) / 1024.0
        try:
            run["problems"] = self.check(self.config, str(out_dir), stdout)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            run["problems"] = [f"output check could not read the artifacts: {exc!r}"]
        run["ok"] = not run["problems"]
        shutil.rmtree(out_dir, ignore_errors=True)
        return run


def measure(runner: Runner, seconds: float, trace: bool) -> tuple:
    """Closed loop of full runs: at least the workload's ``min_runs``, then
    more until ``seconds`` have passed. Full run i uses CLI seed
    ``1000 * seed + i``; in a traced run each untraced run is followed by a
    traced one on the same CLI seed. Returns (full runs, traced runs)."""
    full, traced = [], []
    min_runs = 1 if trace else runner.min_runs
    t0 = time.monotonic()
    for i in itertools.count():
        cli_seed = 1000 * runner.seed + i
        full.append(runner.launch(cli_seed))
        if trace:
            traced.append(runner.launch(cli_seed, trace=True))
        if len(full) >= min_runs and time.monotonic() - t0 >= seconds:
            return full, traced


def median_of(runs: list, key: str) -> float:
    return statistics.median(r[key] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink the workload (smoke test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparsespike" / "cli.py").is_file():
        print(f"no sparsespike sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        runner = Runner(args.workload, args.seed, scratch, args.toy, start)
        full, traced = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = full + traced
    failed = [r for r in attempted if not r["ok"]]
    for r in failed:
        print(f"{args.workload} seed {args.seed}: " + "; ".join(r["problems"]), file=sys.stderr)
    completed = [r for r in full if "cpu_s" in r]
    completed_traced = [r for r in traced if "cpu_s" in r]
    if not completed or (args.trace and not completed_traced):
        print("no run completed; nothing to report", file=sys.stderr)
        return 1

    timed = [r for r in completed if r["ok"]] or completed  # a wrong answer's time is not the work's
    if args.trace:
        per_run = [tracing.layer_metrics(r["spans"], r["cpu_s"], r["wall"], r["workers"])
                   for r in completed_traced]
        values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        pairs = [t["wall"] - u["wall"] for u, t in zip(full, traced) if "cpu_s" in u and "cpu_s" in t]
        values["trace.overhead_s"] = (statistics.median(pairs) if pairs else
                                      median_of(completed_traced, "wall") - median_of(completed, "wall"))
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": median_of(timed, "setup"),
            "wall_s": median_of(timed, "wall"),
            "peak_rss_mb": median_of(timed, "rss_mb"),
        }
        names = spec["end_to_end"]

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "full_runs": len(full), "traced_runs": len(traced),
        "walls_s": [round(r["wall"], 4) for r in completed],
        "setups_s": [round(r["setup"], 4) for r in completed],
        "fail_frac": len(failed) / len(attempted),
    }
    if args.trace:
        summary["zero_metrics"] = [n for n, v in values.items() if v == 0]
    print("# machine: " + json.dumps(machine_info()))
    print("# summary: " + json.dumps(summary))
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
