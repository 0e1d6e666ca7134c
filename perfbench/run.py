"""The repository benchmark: cold, checked workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay_warm --seed 1 --seconds 15 \\
        --trace 0
    python3 perfbench/run.py --workload all      # every workload, traced

Workloads (the reasons are in BENCHMARK.json; the layer map and measured
layer shares in ``perfbench/layers.json``):

* ``replay_warm``: ``ExperimentEngine.execute`` over a seeded draw of
  12 machine configs x 16 traces, from a fresh copy of a cache that
  set-up filled with every compile and trace.
* ``scenario_sweep``: ``run_sweep`` over a 3x2x2 axis grid x 3 icache
  sizes, with the seed as the synthesis seed.

Every timed run is a fresh child process (``child.py``) with ``jobs=1``
and no pool, so no in-process memo outlives a run; after set-up the
benchmark starts cold runs until ``--seconds`` have passed (at least
one) and reports medians. Set-up time is the median of several
set-ups: interpreter start-up plus imports, or, for ``replay_warm``,
filling the cache. Each run's outputs are checked (see
``workloads.py``); a failed check or a run served from a cache makes
the result incorrect and the exit code 1.

With ``--trace 1`` one more run is traced (``tracer.py``) and the
per-layer self times and counters are reported instead of the
end-to-end metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
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

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("replay_warm", "scenario_sweep")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_kops_per_s": "kops/s",
}

#: traced counters and derived metrics (the self times are tracer.LAYERS)
COUNTS = {
    "core.compiles": "count",
    "sim.captures": "count",
    "sim.captured_ops": "count",
    "sim.capture_ns_per_op": "ns/op",
    "sim.replays": "count",
    "sim.replayed_ops": "count",
    "sim.replay_ns_per_op": "ns/op",
    "sim.kernel_runs": "count",
    "sim.kernel_fallbacks": "count",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.cache_bytes_written": "bytes",
    "scenario.synth_attempts": "count",
    "scenario.compiles_per_cell": "ratio",
    "other_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_pct": "%",
}

#: import-only child starts per run (scenario_sweep set-up)
IMPORT_PROBES = 7
#: cache fills per run (replay_warm set-up)
WARM_SETUPS = 2
#: a run must end well inside the 180 s every invocation is allowed
DEADLINE_S = 165.0


class BenchError(Exception):
    """A child process failed or the run could not finish in time."""


class Session:
    """One benchmark invocation: its scratch directory and deadline."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.warm_cache: Path | None = None
        self.children = 0

    def child(self, mode: str, *args: str) -> float:
        """Run child.py to completion; returns its spawn-to-exit time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next child process")
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode,
               self.workload, *args]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child timed out") from exc
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} child exited {proc.returncode}:\n{proc.stderr}"
            )
        return elapsed

    def setup(self) -> list[float]:
        """Set up the workload several times; returns each duration."""
        if self.workload != "replay_warm":
            return [self.child("imports") for _ in range(IMPORT_PROBES)]
        times = []
        for _ in range(WARM_SETUPS):
            shutil.rmtree(self.scratch / "warm", ignore_errors=True)
            self.warm_cache = self.scratch / "warm"
            times.append(
                self.child("setup", "--warm-cache", str(self.warm_cache))
            )
        return times

    def run(self, trace: bool) -> dict:
        """One cold timed run in a fresh process; returns its record."""
        self.children += 1
        out = self.scratch / f"run{self.children}.json"
        args = ["--seed", str(self.seed), "--out", str(out),
                "--scratch", str(self.scratch / f"run{self.children}")]
        if self.warm_cache is not None:
            args += ["--warm-cache", str(self.warm_cache)]
        if trace:
            args.append("--trace")
        child_s = self.child("run", *args)
        record = json.loads(out.read_text())
        record["child_s"] = child_s
        shutil.rmtree(self.scratch / f"run{self.children}",
                      ignore_errors=True)
        return record


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in records),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "sim_kops_per_s": med(
            r["replayed_ops"] / r["wall_s"] / 1000 for r in records
        ),
    }


def per_layer(traced: dict, untraced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced record, and the tiling check."""
    trace = traced["trace"]
    self_s, calls = trace["self_s"], trace["calls"]
    metrics = {name: self_s.get(name, 0.0) for name in LAYERS}
    wall = traced["wall_s"]
    layer_total = sum(metrics.values())
    replay_s = sum(metrics[name] for name in (
        "sim.prepare_s", "sim.stack_distance_s", "sim.replay_s",
        "sim.vector_s", "sim.scalar_s",
    ))
    captured = trace["captured_ops"]
    compiles = calls.get("core.compile_s", 0)
    metrics.update({
        "core.compiles": compiles,
        "sim.captures": calls.get("sim.capture_s", 0),
        "sim.captured_ops": captured,
        "sim.capture_ns_per_op":
            metrics["sim.capture_s"] * 1e9 / captured if captured else 0.0,
        "sim.replays": traced["replays"],
        "sim.replayed_ops": traced["replayed_ops"],
        "sim.replay_ns_per_op":
            replay_s * 1e9 / traced["replayed_ops"]
            if traced["replayed_ops"] else 0.0,
        "sim.kernel_runs": traced["kernel_runs"],
        "sim.kernel_fallbacks": traced["kernel_fallbacks"],
        "engine.cache_hits": traced["cache_hits"],
        "engine.cache_misses": traced["cache_misses"],
        "engine.cache_bytes_written": traced["cache_bytes_written"],
        "scenario.synth_attempts": calls.get("scenario.measure_axes_s", 0),
        "scenario.compiles_per_cell":
            compiles / traced["cells"] if traced["cells"] else 0.0,
        "other_s": wall - layer_total,
        "traced_wall_s": wall,
        "trace_overhead_pct": 100.0 * (wall - untraced_wall) / untraced_wall,
    })
    # Tiling: self times telescope to the outermost spans' durations,
    # which lie inside the timed region.
    tol = 1e-6 * max(1.0, wall)
    ok = (
        abs(layer_total - trace["root_s"]) <= tol
        and trace["root_s"] <= wall + tol
        and min((metrics[name] for name in self_s), default=0.0) >= -tol
    )
    detail = (
        f"layer self times {layer_total:.6f} s vs outermost spans "
        f"{trace['root_s']:.6f} s within traced wall {wall:.6f} s"
    )
    return metrics, [["tiling", ok, "" if ok else detail]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run cold runs for *seconds*, and optionally one traced run."""
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                    dir=ROOT / ".bench_run"))
    try:
        session = Session(workload, seed, scratch)
        setups = session.setup()
        records = []
        start = time.monotonic()
        while True:
            records.append(session.run(trace=False))
            now = time.monotonic()
            longest = max(r["child_s"] for r in records)
            if (now - start >= seconds
                    or now + longest * (2 if trace else 1) > session.deadline):
                break
        checks = [c for r in records for c in r["checks"]]
        result = {"end_to_end": end_to_end(records, setups), "runs": len(records)}
        if trace:
            traced = session.run(trace=True)
            layers, tiling = per_layer(
                traced, result["end_to_end"]["wall_s"]
            )
            result["per_layer"] = layers
            checks += traced["checks"] + tiling
        result["checks"] = checks
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def units() -> dict:
    table = dict(END_TO_END)
    table.update({name: "s" for name in LAYERS})
    table.update(COUNTS)
    return table


def report(result: dict, names, prefix: str = "") -> dict:
    """Print *names*' metrics and failed checks; returns JSON metrics."""
    table = units()
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for name, value in result.get(section, {}).items():
            if name in names:
                print(f"{prefix}{name:32s} {value:14.6f} {table[name]}")
                metrics[prefix + name] = {"value": value, "unit": table[name]}
    checks = result["checks"]
    failed = [c for c in checks if not c[1]]
    print(f"{prefix}{'fail_rate':32s} {len(failed) / len(checks):14.6f} "
          f"({len(failed)} of {len(checks)} checks failed, "
          f"{result['runs']} cold runs)")
    for name, _, detail in failed:
        print(f"FAILED {prefix}{name}: {detail}", file=sys.stderr)
    return metrics


def verdict(checks) -> dict:
    """The result line's outcome fields for a list of checks."""
    failed = sum(1 for _, ok, _ in checks if not ok)
    return {"correct": failed == 0, "attempted": len(checks),
            "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the
    # running child, and measure() removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"{ROOT}: no src/repro package to benchmark", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace) or args.workload == "all"
    if args.workload == "all":
        names = set(units())
    elif trace:
        names = set(LAYERS) | set(COUNTS)
    else:
        names = set(END_TO_END)
    metrics: dict = {}
    checks: list = []
    for workload in selected:
        try:
            result = measure(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update(report(result, names, prefix))
        checks += result["checks"]
    line = verdict(checks)
    print(json.dumps(dict(line, metrics=metrics)))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
