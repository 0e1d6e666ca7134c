"""Work counts and equivalence of the scenario sweep's compile reuse.

The synthesis search compiles and captures only each attempt's
conventional image, builds the block image once for the chosen
attempt, and hands that attempt to the sweep cell, which reuses it when
its source is the chosen one (the default scale). These tests count the
layer calls at the same lookup sites ``perfbench/tracer.py`` wraps, and
hold the cell to a from-scratch oracle at a reusing and a non-reusing
scale.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter

import pytest

from repro.core.toolchain import CompiledPair, Toolchain
from repro.ir.structure import Module
from repro.scenario import synth
from repro.scenario.spec import ScenarioSpec, SynthesisResult, SynthParams
from repro.scenario.sweep import _winner, run_sweep
from repro.sim.config import MachineConfig
from repro.sim.run import CapturedRun, capture_run, replay_sweep

GRID = {"bb_sizes": (8,), "biases": (0.8,), "hot_kb": (4,)}
ICACHE_KB = (4, 16)
SPEC = ScenarioSpec(bb_size=8, bias=0.8, hot_bytes=4 * 1024)

#: counter name -> (module, attribute) lookup sites
SITES = {
    "tokenize": [("repro.lang.lexer", "tokenize")],
    "conventional": [("repro.core.toolchain", "generate_conventional")],
    "block": [("repro.core.toolchain", "generate_block_structured")],
    "capture": [
        ("repro.scenario.synth", "capture_run"),
        ("repro.scenario.sweep", "capture_run"),
    ],
    "attempts": [("repro.scenario.synth", "measure_axes")],
}


def counted_sweep(monkeypatch, scale: float) -> tuple[dict, Counter]:
    calls: Counter = Counter()
    for counter, sites in SITES.items():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _counter=counter, _original=original,
                        **kwargs):
                calls[_counter] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)
    synth.synthesize.cache_clear()
    doc = run_sweep(icache_kb=ICACHE_KB, scale=scale, **GRID)
    monkeypatch.undo()
    return doc, calls


def oracle_points(params: SynthParams, scale: float) -> list[dict]:
    source = synth.generate_source(SPEC, params, scale)
    pair = Toolchain().compile(source, SPEC.family_name)
    configs = [MachineConfig().with_icache_kb(kb) for kb in ICACHE_KB]
    results = [
        replay_sweep(
            capture_run(getattr(pair, isa), isa, configs[0]), configs
        )
        for isa in ("conventional", "block")
    ]
    points = []
    for kb, conv, block in zip(ICACHE_KB, *results):
        speedup = round(conv.cycles / block.cycles, 4)
        points.append({
            "icache_kb": kb,
            "conventional_cycles": conv.cycles,
            "block_cycles": block.cycles,
            "speedup": speedup,
            "winner": _winner(speedup),
        })
    return points


def held_objects(value, seen=None) -> list:
    """Every object reachable from *value* through dataclass fields,
    tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    found = [value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list)):
        children = list(value)
    elif isinstance(value, dict):
        children = list(value.keys()) + list(value.values())
    else:
        children = []
    for child in children:
        found.extend(held_objects(child, seen))
    return found


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_sweep_work_counts_and_oracle(monkeypatch, scale):
    doc, calls = counted_sweep(monkeypatch, scale)
    cells = doc["summary"]["cells"]
    attempts = calls["attempts"]
    assert cells == 1 and attempts >= 1
    # the search compiles each attempt's conventional half only
    assert calls["conventional"] == attempts + (scale != 1.0) * cells
    # one block image per cell: the chosen attempt's
    assert calls["block"] == cells + (scale != 1.0) * cells
    if scale == 1.0:
        # the cell reuses the chosen attempt's pair and conventional
        # capture: it lexes nothing and captures only the block image
        assert calls["tokenize"] == attempts
        assert calls["capture"] == attempts + cells
    else:
        assert calls["tokenize"] == attempts + cells
        assert calls["capture"] == attempts + 2 * cells
    params = synth.synthesize(SPEC).params
    assert doc["cells"][0]["results"] == oracle_points(params, scale)
    # the memo retains no programs or traces
    for result in synth._MEMO.values():
        assert result.chosen is None
        assert not [
            obj for obj in held_objects(result)
            if isinstance(obj, (CompiledPair, Module, CapturedRun))
        ]


def test_memo_hit_returns_no_attempt():
    synth.synthesize.cache_clear()
    fresh = synth.synthesize(SPEC, 1)
    assert fresh.chosen is not None and fresh.chosen.pair is not None
    assert fresh.chosen.source == synth.generate_source(SPEC, fresh.params)
    hit = synth.synthesize(SPEC, 1)
    assert hit == fresh and hit.chosen is None
    assert synth.synthesize.__wrapped__(SPEC, 1) == fresh


def test_memo_is_bounded(monkeypatch):
    def cheap_search(spec, budget=synth.DEFAULT_BUDGET):
        return SynthesisResult(
            spec=spec, params=SynthParams(1, 1, 1), realized=None,
            attempts=1, chosen=object(),
        )

    monkeypatch.setattr(synth, "_search", cheap_search)
    synth.synthesize.cache_clear()
    specs = [
        ScenarioSpec(bb_size=8, bias=0.8, hot_bytes=1024 + i)
        for i in range(synth.MEMO_SIZE + 6)
    ]
    for spec in specs:
        assert synth.synthesize(spec).chosen is not None
    assert len(synth._MEMO) == synth.MEMO_SIZE
    assert (specs[0], synth.DEFAULT_BUDGET) not in synth._MEMO
    assert all(r.chosen is None for r in synth._MEMO.values())
    # a hit refreshes an entry's place in the eviction order
    synth.synthesize(specs[6])
    synth.synthesize(ScenarioSpec(bb_size=9, bias=0.8, hot_bytes=1024))
    assert (specs[6], synth.DEFAULT_BUDGET) in synth._MEMO
    assert (specs[7], synth.DEFAULT_BUDGET) not in synth._MEMO
    synth.synthesize.cache_clear()
