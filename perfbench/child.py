"""One cold benchmark process: an import probe, a set-up, or one run.

``run.py`` starts a fresh interpreter for every timed run, so no
in-process memo (engine traces/results, ``PackedTrace._vprep``, the
vector kernel's run memo, the ``synthesize`` cache) survives from one
run into the next. Usage (with the checkout's ``src`` on PYTHONPATH)::

    python3 perfbench/child.py imports WORKLOAD
    python3 perfbench/child.py setup replay_warm --warm-cache DIR
    python3 perfbench/child.py reference scenario_sweep --seed N --out FILE
    python3 perfbench/child.py run WORKLOAD --seed N --scratch DIR \\
        --out FILE [--trace] [--warm-cache DIR]

``run`` writes one JSON object to ``--out``: the timed wall time, peak
RSS, counters, the output checks and, with ``--trace``, the per-layer
self times. ``reference`` writes the sweep document that later runs
with that seed must reproduce (``perfbench/reference/``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads
from repro.sim import vector

WORKLOADS = ("replay_warm", "scenario_sweep")


def import_workload(name: str):
    """Import everything *name*'s timed body uses; returns its class."""
    if name == "replay_warm":
        return workloads.ReplayWarm
    import repro.obs.schema  # noqa: F401
    import repro.scenario.sweep  # noqa: F401

    return workloads.ScenarioSweep


def dir_bytes(paths) -> int:
    return sum(
        f.stat().st_size
        for path in paths if path.is_dir()
        for f in path.rglob("*") if f.is_file()
    )


def run_once(workload, trace: bool) -> dict:
    """Prepare, time and check one run of *workload* in this process."""
    counters = tracer.Counters()
    counters.install()
    spans = tracer.Tracer() if trace else None
    if spans is not None:
        spans.install()
    workload.prepare()
    bytes_before = dir_bytes(workload.cache_dirs())
    runs0, fallbacks0 = vector.KERNEL_RUNS, vector.FALLBACKS
    if spans is not None:
        spans.active = True
    start = time.perf_counter()
    out = workload.body()
    wall = time.perf_counter() - start
    if spans is not None:
        spans.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "replays": counters.replays,
        "replayed_ops": counters.replayed_ops,
        "kernel_runs": vector.KERNEL_RUNS - runs0,
        "kernel_fallbacks": vector.FALLBACKS - fallbacks0,
        "cache_hits": sum(counters.cache_hits.values()),
        "cache_misses": counters.cache_misses,
        "cache_bytes_written": dir_bytes(workload.cache_dirs()) - bytes_before,
        "cells": workload.cells,
    }
    check = workloads.Check()
    workload.check(out, counters, check)
    record["checks"] = check.results
    if spans is not None:
        record["trace"] = {
            "self_s": dict(spans.self_s),
            "calls": dict(spans.calls),
            "captured_ops": spans.captured_ops,
            "root_s": spans.root_s,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("imports", "setup", "reference", "run"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--warm-cache", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    cls = import_workload(args.workload)
    if args.mode == "imports":
        return 0
    if args.mode == "setup":
        workloads.fill_warm_cache(args.warm_cache)
        return 0
    if args.mode == "reference":
        doc = cls(args.scratch, args.seed).body()
        args.out.write_text(
            json.dumps(workloads.roundtrip(doc), indent=1, sort_keys=True)
            + "\n"
        )
        return 0
    kwargs = {"warm_cache": args.warm_cache} if args.warm_cache else {}
    workload = cls(args.scratch, args.seed, **kwargs)
    record = run_once(workload, args.trace)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
