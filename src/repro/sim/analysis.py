"""Bottleneck analysis for timed runs.

Re-runs the timing algorithm while attributing, for every dynamic op,
which constraint determined its issue time:

* ``fetch``    — the op issued as soon as its unit was fetched+dispatched
  (the front end was the limiter);
* ``window``   — dispatch waited on a full instruction window;
* ``dep``      — a dataflow producer was the limiter;
* ``fu``       — all function units were busy;
* ``redirect`` — the unit's fetch waited on a misprediction/fault
  resolution.

Also reports retire-bound cycles. This mirrors
:class:`~repro.sim.engine.TimingEngine` exactly (same timestamps) but is
slower; use it for diagnosis, not for the benchmark harness.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.exec.trace import FetchUnit
from repro.sim.cache import Cache, PerfectCache
from repro.sim.config import MachineConfig


@dataclass
class BottleneckReport:
    cycles: int = 0
    ops: int = 0
    #: op-issue limiter counts
    limiters: Counter = field(default_factory=Counter)
    #: total cycles fetch sat idle behind redirects
    redirect_stall: int = 0
    #: total cycles dispatch waited on the window
    window_stall: int = 0
    #: mean cycles between an op's completion and its retirement
    mean_retire_lag: float = 0.0

    def summary(self) -> str:
        total = sum(self.limiters.values()) or 1
        parts = [
            f"{name}: {count * 100.0 / total:.1f}%"
            for name, count in self.limiters.most_common()
        ]
        return (
            f"cycles={self.cycles} ops={self.ops} "
            f"issue-limiters[{', '.join(parts)}] "
            f"redirect_stall={self.redirect_stall} "
            f"window_stall={self.window_stall} "
            f"retire_lag={self.mean_retire_lag:.1f}"
        )


def analyze_bottlenecks(
    units: Iterable[FetchUnit],
    config: MachineConfig,
    atomic_window: bool,
) -> BottleneckReport:
    """Run the timing algorithm with limiter attribution."""
    report = BottleneckReport()
    icache = Cache(config.icache) if config.icache else PerfectCache()
    dcache = Cache(config.dcache) if config.dcache else PerfectCache()
    line_bytes = config.icache.line_bytes if config.icache else 64
    l2 = config.l2_latency
    depth = config.frontend_depth
    penalty = config.mispredict_penalty
    retire_width = config.retire_width
    fu_count = config.fu_count

    completion: dict[int, int] = {}
    fu_sched: dict[int, int] = {}
    window: list[int] = []
    unit_window: list[int] = []
    window_capacity = config.window_blocks if atomic_window else config.window_ops
    unit_capacity = config.window_blocks

    next_fetch = 0
    redirect_at = 0
    retire_cycle = 0
    retire_count = 0
    max_cycle = 0
    retire_lag_sum = 0

    for unit in units:
        nops = len(unit.ops)
        report.ops += nops
        fetch = max(next_fetch, redirect_at)
        if redirect_at > next_fetch:
            report.redirect_stall += redirect_at - next_fetch
        first_line = unit.addr // line_bytes
        last_line = (unit.addr + max(unit.size_bytes, 1) - 1) // line_bytes
        nlines = last_line - first_line + 1
        fetch_cycles = (nlines + config.fetch_lines - 1) // config.fetch_lines
        stall = 0
        for line in range(first_line, last_line + 1):
            if not icache.access_line(line):
                stall = l2
        fetch_end = fetch + fetch_cycles - 1 + stall
        next_fetch = fetch_end + 1

        dispatch = fetch_end + depth
        window_limited = False
        gate = window if atomic_window else unit_window
        cap = window_capacity if atomic_window else unit_capacity
        if len(gate) >= cap:
            released = heapq.heappop(gate)
            if released > dispatch:
                report.window_stall += released - dispatch
                dispatch = released
                window_limited = True

        unit_completes: list[int] = []
        resolve_complete = -1
        for i, op in enumerate(unit.ops):
            op_window_limited = window_limited
            if not atomic_window:
                if len(window) >= window_capacity:
                    released = heapq.heappop(window)
                    if released > dispatch:
                        dispatch = released
                        op_window_limited = True
            ready = dispatch + 1
            limiter = "window" if op_window_limited else "fetch"
            for dep in op.deps:
                t = completion.get(dep, 0)
                if t > ready:
                    ready = t
                    limiter = "dep"
            start = ready
            while fu_sched.get(start, 0) >= fu_count:
                start += 1
            if start > ready:
                limiter = "fu"
            fu_sched[start] = fu_sched.get(start, 0) + 1
            lat = op.lat
            if op.mem_addr >= 0:
                if not dcache.access(op.mem_addr) and op.is_load:
                    lat += l2
            complete = start + lat
            completion[op.uid] = complete
            unit_completes.append(complete)
            report.limiters[limiter] += 1
            if i == unit.resolve_index:
                resolve_complete = complete
            if not atomic_window and not unit.squashed:
                r = max(complete + 1, retire_cycle)
                if r == retire_cycle and retire_count >= retire_width:
                    r += 1
                if r > retire_cycle:
                    retire_cycle = r
                    retire_count = 0
                retire_count += 1
                retire_lag_sum += retire_cycle - complete
                heapq.heappush(window, retire_cycle)
        if not atomic_window and not unit.squashed:
            heapq.heappush(unit_window, retire_cycle)

        if unit.squashed:
            # No refill penalty after a fault (docs/timing-model.md rule 1).
            redirect_at = resolve_complete + 1
            release = resolve_complete + 1
            if atomic_window:
                heapq.heappush(window, release)
            else:
                for _ in range(nops):
                    heapq.heappush(window, release)
                heapq.heappush(unit_window, release)
            max_cycle = max(max_cycle, release)
            continue
        if unit.mispredict:
            redirect_at = resolve_complete + 1 + penalty

        if unit.atomic:
            block_done = max(unit_completes, default=dispatch) + 1
            for complete in unit_completes:
                r = max(block_done, retire_cycle)
                if r == retire_cycle and retire_count >= retire_width:
                    r += 1
                if r > retire_cycle:
                    retire_cycle = r
                    retire_count = 0
                retire_count += 1
                retire_lag_sum += retire_cycle - complete
            heapq.heappush(window, retire_cycle)
        max_cycle = max(max_cycle, retire_cycle, next_fetch - 1)

    report.cycles = max_cycle + 1
    if report.ops:
        report.mean_retire_lag = retire_lag_sum / report.ops
    return report
