"""One CLI run of sparsespike in a fresh interpreter, as the benchmark times it.

    python3 bench/child.py RESULT_JSON [--trace] -- CLI_ARGS...

Calls ``sparsespike.cli.main(CLI_ARGS)`` directly (``python -m
sparsespike.cli`` warns, because the package imports ``cli``). The moment
``cli.run`` is entered, after interpreter start, imports, config parsing
and model building, is stamped as the end of set-up. The resident set
size on entry to ``cli._farm`` is recorded too: farm workers are forked
there, so that much of each worker's peak is pages shared with this
process. ``--trace`` records layer spans (see ``tracing.py``). RESULT_JSON
receives the set-up stamp, the exit code, CPU time and memory, and the
spans. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def resident_kb() -> int:
    """Current resident set size of this process, in KiB (0 if unknown)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def main(argv: list) -> int:
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1:]
    result_path = own[0]
    trace = "--trace" in own

    from sparsespike import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    stamps = {}
    run, farm = cli.run, cli._farm

    def stamped_run(cfg):
        stamps["setup_end"] = time.monotonic()
        stamps["workers"] = cfg.workers
        return run(cfg)

    def stamped_farm(cfg, tasks):
        stamps["fork_rss_kb"] = resident_kb()
        return farm(cfg, tasks)

    cli.run = stamped_run
    cli._farm = stamped_farm
    rc = cli.main(cli_args)

    own_use = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "rc": rc,
        "setup_end": stamps.get("setup_end"),
        "workers": stamps.get("workers", 1),
        "cpu_s": own_use.ru_utime + own_use.ru_stime + kids.ru_utime + kids.ru_stime,
        "maxrss_kb": own_use.ru_maxrss,
        "child_maxrss_kb": kids.ru_maxrss,
        "fork_rss_kb": stamps.get("fork_rss_kb", 0),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
