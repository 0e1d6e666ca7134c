"""Replay memory is bounded by the sweep group, not by the session.

The vector kernel's precompute (:class:`repro.sim.vector.ReplayPrep`:
decoded columns, cache-outcome vectors, fetch/latency preps and the
spine memo) belongs to one trace group. The experiment engine drops it
when the group ends, so a sweep retains its traces and results, and its
peak does not grow with the number of groups. Measured with
``tracemalloc``, which also sees numpy's buffers.

The sweeps here replay one program's conventional trace under several
predictor configs: each config is its own trace group, and every group's
trace has the same size, so the bounds need no per-group allowance.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest

from repro.engine import ExperimentEngine, RunSpec, build_plan
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.run import (
    ReplayPrep,
    capture_run,
    prepare_sweep,
    replay_captured,
)

SCALE = 0.05
BENCH = "compress"
ICACHE_KB = (None, 16, 32, 64)
#: One group's prep is about 1.5 MB on these traces. The slack covers
#: what a group rightly keeps besides its trace bytes (four SimResults,
#: the trace's line-span cache: about 60 kB a group) and allocator
#: noise, and is well below one retained prep.
SLACK = 768 * 1024

_BASE = MachineConfig()
#: seven predictor configs, so seven trace groups: one warms the
#: program's decode caches outside the measured window
PREDICTORS = [
    dataclasses.replace(_BASE, bp_history_bits=bits)
    for bits in (2, 4, 6, 8, 10, 12)
] + [_BASE.with_perfect_bp()]


def _plan(predictors):
    specs = [
        RunSpec(BENCH, "conventional", p.with_icache_kb(kb))
        for p in predictors
        for kb in ICACHE_KB
    ]
    return build_plan([("memory", specs)], scale=SCALE)


def _measure(groups: int):
    """Execute *groups* trace groups under tracemalloc, after one warm
    group outside it. Returns ``(retained, peak, trace_bytes)``: bytes
    still allocated after ``execute``, the peak during it, and the
    ``nbytes`` of each trace it captured."""
    engine = ExperimentEngine(scale=SCALE, benchmarks=[BENCH])
    engine.execute(_plan(PREDICTORS[:1]))
    warm = set(engine._traces)
    gc.collect()
    tracemalloc.start()
    try:
        engine.execute(_plan(PREDICTORS[1:1 + groups]))
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    trace_bytes = [
        c.trace.nbytes for k, c in engine._traces.items() if k not in warm
    ]
    assert len(trace_bytes) == groups
    return retained, peak, trace_bytes


@pytest.fixture(scope="module")
def measured():
    return {groups: _measure(groups) for groups in (1, 6)}


def test_execute_retains_only_traces_and_results(measured):
    retained, _, trace_bytes = measured[6]
    assert retained <= sum(trace_bytes) + SLACK, (
        f"{retained:,d} bytes retained for {sum(trace_bytes):,d} "
        f"bytes of traces"
    )


def test_peak_does_not_grow_with_groups(measured):
    _, peak1, _ = measured[1]
    _, peak6, trace_bytes = measured[6]
    added = sum(trace_bytes[1:])
    assert peak6 <= peak1 + added + SLACK, (
        f"6-group peak {peak6:,d} > 1-group peak {peak1:,d} + "
        f"{added:,d} added trace bytes + {SLACK:,d} slack"
    )


@pytest.mark.skipif(not vector.HAVE_NUMPY, reason="numpy not installed")
def test_spine_memo_keeps_per_op_lists_only_for_events():
    """With telemetry off, no spine memo entry holds a per-op list,
    with or without insight; with telemetry on, the completion list
    stays, because event emission reads it."""
    from repro.core.toolchain import Toolchain
    from repro.insight import InsightCollector
    from repro.obs import Telemetry
    from repro.workloads import SUITE

    program = Toolchain().compile(SUITE[BENCH].source(SCALE), BENCH)
    captured = capture_run(program.conventional, "conventional", _BASE)
    configs = [_BASE.with_icache_kb(kb) for kb in ICACHE_KB]
    n = captured.trace.num_ops

    prep = ReplayPrep(captured.trace)
    prepare_sweep(captured, configs, kernel="numpy", prep=prep)
    for config in configs:
        for insight in (None, InsightCollector()):
            replay_captured(
                captured, config, insight=insight, kernel="numpy", prep=prep
            )
    assert prep.runs
    for run in prep.runs.values():
        assert run.completes is None and run.unit_retire_l is None
        assert not any(
            isinstance(field, list) and len(field) == n for field in run
        ), "a spine memo entry holds a per-op list"

    prep = ReplayPrep(captured.trace)
    replay_captured(
        captured, _BASE, telemetry=Telemetry(), kernel="numpy", prep=prep
    )
    (run,) = prep.runs.values()
    assert len(run.completes) == n
