"""Layer timers and counters installed from outside the program.

The benchmark never edits ``src/``: it replaces the public entry points
of each layer with thin wrappers *where their callers look them up*
(callers import by name, so ``repro.scenario.sweep.capture_run`` is a
different binding from ``repro.engine.core.capture_run``).

Two levels:

* :class:`Counters` (always on, also in untraced runs): counts replays,
  replayed ops, scenario measurements and artifact-cache hits/misses
  by kind. It adds no timers — an increment per call, on calls that
  each take milliseconds — and feeds the cold-path guard.
* :class:`Tracer` (the traced run only): a span stack over every layer
  boundary. A layer's self time is its spans' duration minus the time
  covered by nested spans, so self times plus the untraced remainder
  (``other_s``) tile the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

#: metric name -> lookup sites ("module:attr" or "module:Class.attr")
#: of the public entry point whose self time it reports.
LAYERS = {
    "lang.tokenize_s": ["repro.lang.lexer:tokenize"],
    "lang.parse_s": ["repro.lang.parser:parse_tokens"],
    "lang.analyze_s": ["repro.frontend.lower:analyze"],
    "frontend.lower_s": ["repro.frontend.lower:lower_program"],
    "opt.optimize_s": ["repro.core.toolchain:optimize_module"],
    "backend.conventional_s": ["repro.core.toolchain:generate_conventional"],
    "backend.block_s": ["repro.core.toolchain:generate_block_structured"],
    "core.compile_s": ["repro.core.toolchain:Toolchain.compile"],
    "sim.capture_s": [
        "repro.engine.core:capture_run",
        "repro.scenario.sweep:capture_run",
        "repro.scenario.synth:capture_run",
    ],
    "sim.prepare_s": [
        "repro.engine.core:prepare_sweep",
        "repro.sim.run:prepare_sweep",
        "repro.sim.vector:prepare_sweep",
    ],
    # _geom_distances is where the batched sweep walks its streams;
    # it does not go through the public stack_distances
    "sim.stack_distance_s": [
        "repro.sim.vector:stack_distances",
        "repro.sim.vector:_geom_distances",
    ],
    "sim.replay_s": [
        "repro.engine.core:replay_captured",
        "repro.sim.run:replay_captured",
        "repro.scenario.sweep:replay_sweep",
    ],
    "sim.vector_s": ["repro.sim.vector:replay_packed_vector"],
    "sim.scalar_s": ["repro.sim.engine:TimingEngine.run_packed"],
    "engine.execute_s": ["repro.engine.core:ExperimentEngine.execute"],
    "engine.cache_load_s": ["repro.engine.cache:ArtifactCache.load"],
    "engine.cache_store_s": ["repro.engine.cache:ArtifactCache.store"],
    "scenario.synthesize_s": [
        "repro.scenario.sweep:synthesize",
        "repro.scenario.synth:synthesize",
    ],
    "scenario.measure_axes_s": ["repro.scenario.synth:measure_axes"],
}

#: lookup sites the always-on counters hook (see Counters).
REPLAY_SITES = [
    "repro.engine.core:replay_captured",
    "repro.sim.run:replay_captured",
]
MEASURE_SITE = "repro.scenario.synth:measure_axes"
CACHE_LOAD_SITE = "repro.engine.cache:ArtifactCache.load"


def _resolve(site: str):
    """(owner object, attribute name) for a lookup site string."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _patch(sites, make_wrapper) -> None:
    """Replace every site's binding, wrapping each distinct original
    once so a function bound at several sites gets one wrapper."""
    wrapped: dict[int, object] = {}
    for site in sites:
        owner, attr = _resolve(site)
        original = getattr(owner, attr)
        if id(original) not in wrapped:
            wrapped[id(original)] = make_wrapper(original)
        setattr(owner, attr, wrapped[id(original)])


def cache_kind(obj) -> str:
    """Which artifact a cache hit returned, by its type name."""
    return {
        "CompiledPair": "compile",
        "CapturedRun": "trace",
        "SimResult": "run",
        "InsightReport": "insight",
    }.get(type(obj).__name__, "other")


class Counters:
    """Call counts at the replay and artifact-cache boundaries."""

    def __init__(self):
        self.replays = 0
        self.replayed_ops = 0
        #: synthesis attempts (0 when ``synthesize`` answered from memo)
        self.measures = 0
        self.cache_hits: Counter = Counter()
        self.cache_misses = 0

    def install(self) -> None:
        def replay_wrapper(original):
            @functools.wraps(original)
            def replay(captured, *args, **kwargs):
                result = original(captured, *args, **kwargs)
                self.replays += 1
                self.replayed_ops += captured.trace.num_ops
                return result
            return replay

        def measure_wrapper(original):
            @functools.wraps(original)
            def measure(*args, **kwargs):
                self.measures += 1
                return original(*args, **kwargs)
            return measure

        def load_wrapper(original):
            @functools.wraps(original)
            def load(cache, key):
                obj = original(cache, key)
                if obj is None:
                    self.cache_misses += 1
                else:
                    self.cache_hits[cache_kind(obj)] += 1
                return obj
            return load

        _patch(REPLAY_SITES, replay_wrapper)
        _patch([MEASURE_SITE], measure_wrapper)
        _patch([CACHE_LOAD_SITE], load_wrapper)


class Tracer:
    """Span stack over the LAYERS entry points; self time per layer."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.captured_ops = 0
        #: summed duration of outermost spans (the tiling cross-check)
        self.root_s = 0.0
        #: spans are recorded only while True (the timed region)
        self.active = False
        self._stack: list[float] = []  # child time accumulated per frame

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            _patch(sites, functools.partial(self._wrap, layer))

    def _wrap(self, layer: str, original):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def span(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                self.self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            self.calls[layer] += 1
            if layer == "sim.capture_s":
                self.captured_ops += result.trace.num_ops
            return result

        return span
