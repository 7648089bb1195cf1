"""Span recorder installed around the sparsespike layers from outside.

``install`` replaces the public functions of each layer module (plus the
few private entry points named in ``EXTRA``) with wrappers that record one
span per call: name, start, end, span id, parent id and counters read off
the call's arguments or result. Spans stay in memory; the caller writes
them out when the run ends.

Worker processes of the instance farm record their spans in their own
copy of the tracer. The ``cli._instance_row`` wrapper ships them back
inside the returned row, and the ``cli._farm`` wrapper moves them into the
parent's span list under the farm span, so no worker time is lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import time

LAYERS = ("ensembles", "graphgen", "spectral", "popdyn", "analytic", "observables", "cli")

# Private entry points that carry layer work the public functions do not show.
EXTRA = {
    "popdyn": ("_sweep",),
    "cli": ("_farm", "_instance_row"),
}

SPANS_KEY = "_bench_spans"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, id, parent, counters]
        self.stack = []
        self._ids = itertools.count()

    def new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"


def _solve_counters(args, kwargs, result):
    diag = result[3]
    history = diag["history"]
    return {
        "rounds": diag["rounds"],
        "sweeps": sum(h["sweeps"] for h in history),
        "final_sweeps": history[-1]["sweeps"],
    }


def _matvec_bytes(matrix) -> int:
    """Bytes one product touches, computed from nnz and N (not measured):
    CSR values, column indices and row pointers, the gathered input entries
    and the output, plus the rank-one dot product and update when theta != 0."""
    csr = matrix.noise.csr
    n, nnz = matrix.n, csr.nnz
    isz = csr.indices.dtype.itemsize
    sparse = 8 * nnz + isz * nnz + isz * (n + 1) + 8 * nnz + 8 * n
    rank_one = 40 * n if matrix.theta != 0.0 else 0
    return sparse + rank_one


COUNTERS = {
    "popdyn.solve": _solve_counters,
    "popdyn.equilibrate": lambda a, k, r: {"sweeps": r["sweeps"], "lambda_bumps": r["lambda_bumps"]},
    "popdyn._sweep": lambda a, k, r: {"members": a[0].n_pop},
    "graphgen.SpikedMatrix.matvec": lambda a, k, r: {"bytes": _matvec_bytes(a[0])},
}


def _write_counter(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        path = sig.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)}

    return count


def _wrap(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.new_id()
        parent = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(sid)
        start = time.monotonic()
        counters = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counters = counter(args, kwargs, result)
            return result
        finally:
            end = time.monotonic()
            tracer.stack.pop()
            tracer.spans.append([name, start, end, sid, parent, counters])

    return wrapper


def _wrap_instance_row(tracer: Tracer, fn):
    """In a farm worker, detach the spans of this call and return them in the row."""

    @functools.wraps(fn)
    def wrapper(args):
        if os.getpid() == tracer.pid:
            return fn(args)
        mark = len(tracer.spans)
        saved_stack, tracer.stack = tracer.stack, []
        try:
            row = fn(args)
        finally:
            tracer.stack = saved_stack
        row[SPANS_KEY] = tracer.spans[mark:]
        del tracer.spans[mark:]
        return row

    return wrapper


def _wrap_farm(tracer: Tracer, fn):
    """Move worker spans out of the rows into the parent's list, under the farm span."""

    @functools.wraps(fn)
    def wrapper(cfg, tasks):
        rows = fn(cfg, tasks)
        farm_id = tracer.stack[-1]  # the enclosing cli._farm span, still open
        for row in rows:
            shipped = row.pop(SPANS_KEY, None)
            if shipped is None:
                continue
            for span in shipped:
                if span[4] is None:
                    span[4] = farm_id
            tracer.spans.extend(shipped)
        return rows

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions, the named private entry points
    and ``SpikedMatrix.matvec``."""
    for layer in LAYERS:
        module = importlib.import_module(f"sparsespike.{layer}")
        names = [
            n for n, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not n.startswith("_")
        ]
        for n in names + list(EXTRA.get(layer, ())):
            fn = getattr(module, n)
            span = f"{layer}.{n}"
            counter = COUNTERS.get(span)
            if layer == "observables" and n.startswith("write_"):
                counter = _write_counter(fn)
            if span == "cli._farm":
                fn = _wrap_farm(tracer, fn)  # merge inside the farm span
            wrapped = _wrap(tracer, span, fn, counter)
            if span == "cli._instance_row":
                wrapped = _wrap_instance_row(tracer, wrapped)  # ship the row span too
            setattr(module, n, wrapped)

    cls = importlib.import_module("sparsespike.graphgen").SpikedMatrix
    cls.matvec = _wrap(tracer, "graphgen.SpikedMatrix.matvec", cls.matvec, COUNTERS["graphgen.SpikedMatrix.matvec"])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time(spans: list, name: str) -> float:
    """Summed self time of the spans called ``name``: each span's duration
    minus the union of the intervals of its nearest descendants in another
    layer. Descendants in the same layer are looked through, so a layer's
    helper calls count as the layer's own time, and overlapping worker
    spans under the farm are not subtracted twice."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    def foreign_intervals(span, layer, out):
        for child in children.get(span[3], ()):
            if layer_of(child[0]) == layer:
                foreign_intervals(child, layer, out)
            else:
                out.append((child[1], child[2]))
        return out

    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(foreign_intervals(span, layer_of(name), [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total += (end - start) - covered
    return total


ANALYTIC_TIMED = ("admissible_lambda_floor", "lambda_signal", "overlap_sq", "q_tilde", "solve_m")
CALLS_AND_TIME = (
    "ensembles.sample_degree_sequence",
    "graphgen.configuration_model",
    "popdyn.alpha_pair",
) + tuple(f"analytic.{n}" for n in ANALYTIC_TIMED)
MATVEC = "graphgen.SpikedMatrix.matvec"


def layer_metrics(spans: list, cpu_s: float, wall_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced run, by benchmark metric name."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s[5][key] for s in by_name.get(name, ()) if s[5] is not None)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in CALLS_AND_TIME:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = seconds(name)
    m["graphgen.matvec.calls"] = calls(MATVEC)
    m["graphgen.matvec.s"] = seconds(MATVEC)
    m["graphgen.matvec.bytes_computed"] = count(MATVEC, "bytes")
    ai = "spectral.analyze_instance"
    m[f"{ai}.calls"] = calls(ai)
    m[f"{ai}.s"] = seconds(ai)
    m[f"{ai}.self_s"] = self_time(spans, ai)
    m["spectral.matvecs_per_instance"] = ratio(calls(MATVEC), calls(ai))
    m["popdyn.solve.s"] = seconds("popdyn.solve")
    m["popdyn.solve.rounds"] = count("popdyn.solve", "rounds")
    m["popdyn.equilibrate.s"] = seconds("popdyn.equilibrate")
    m["popdyn.equilibrate.sweeps"] = count("popdyn.equilibrate", "sweeps")
    m["popdyn.equilibrate.lambda_bumps"] = count("popdyn.equilibrate", "lambda_bumps")
    sweeps = sorted(s[2] - s[1] for s in by_name.get("popdyn._sweep", ()))
    m["popdyn.sweep_s"] = sweeps[len(sweeps) // 2] if sweeps else 0.0
    m["popdyn.member_updates_per_s"] = ratio(count("popdyn._sweep", "members"), seconds("popdyn._sweep"))
    m["popdyn.useful_sweep_frac"] = ratio(count("popdyn.solve", "final_sweeps"), count("popdyn.solve", "sweeps"))
    for name in ("rho_top", "rho_ov", "marginals"):
        m[f"observables.{name}.s"] = seconds(f"observables.{name}")
    writes = [n for n in by_name if n.startswith("observables.write_")]
    m["observables.write.s"] = sum(seconds(n) for n in writes)
    m["observables.write.bytes"] = sum(count(n, "bytes") for n in writes)
    m["cli.structural_for.calls"] = calls("cli.structural_for")
    m["cli.analytic_report_for.calls"] = calls("cli.analytic_report_for")
    m["cli.self_s"] = self_time(spans, "cli.main")
    m["cli.cpu_s"] = cpu_s
    m["cli.parallel_eff"] = ratio(cpu_s, wall_s * workers)
    return m
