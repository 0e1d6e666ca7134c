"""Schema parity: every check the artifact validators make, pinned by a
mutation table.

One real valid document per artifact kind is validated clean, then
mutated one field at a time. Each mutation is ``(kind, path, value)``:
*path* is the JSON path of the value to replace (``()`` is the whole
document), and *value* is the bad value, :data:`DELETE` to remove the
key, or a function of the old value. Every mutated document must be
rejected. The list is written out by hand, field by field and invariant
by invariant, so it does not depend on how the validators are built.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.insight import build_document as insight_document
from repro.obs import EV_FETCH, EV_RETIRE, Telemetry
from repro.obs.schema import (
    bench_document_errors,
    document_errors,
    fidelity_document_errors,
    insight_document_errors,
    scenario_document_errors,
)
from tests.test_insight import _one_report
from tests.test_scenario_cli import sweep_doc  # noqa: F401  (fixture)

ROOT = Path(__file__).resolve().parent.parent

VALIDATORS = {
    "telemetry": document_errors,
    "bench": bench_document_errors,
    "fidelity": fidelity_document_errors,
    "insight": insight_document_errors,
    "scenario": scenario_document_errors,
}

DELETE = object()


def _plus_one(value):
    return value + 1


def _add_zero_bin(hist):
    """One more count in bin 0: the count mass moves, the op mass not."""
    return {**hist, "0": hist.get("0", 0) + 1}


def _shift_top_bin_up(hist):
    """Move one count from the top bin to the next: the count mass stays,
    the op mass grows by one."""
    top = max(hist, key=int)
    out = dict(hist)
    out[top] -= 1
    out[str(int(top) + 1)] = out.get(str(int(top) + 1), 0) + 1
    return out


def _telemetry_document() -> dict:
    tel = Telemetry()
    tel.count("sim.cycles", 100, benchmark="gcc", isa="block")
    tel.gauge("sim.ipc", 2.0, isa="block")
    tel.observe("sim.unit_size", 8.0, isa="block")
    with tel.span("compile.frontend", module="gcc"):
        pass
    tel.trace.emit(EV_FETCH, 0, addr=4096, ops=4)
    tel.trace.emit(EV_RETIRE, 7, addr=4096, ops=4)
    return tel.to_document(meta={"command": "test"})


@pytest.fixture(scope="module")
def documents(sweep_doc):  # noqa: F811
    return {
        "telemetry": json.loads(json.dumps(_telemetry_document())),
        "bench": json.loads((ROOT / "BENCH_sim.json").read_text()),
        "fidelity": json.loads((ROOT / "BENCH_paper.json").read_text()),
        "insight": json.loads(
            json.dumps(insight_document([_one_report()], meta={}))
        ),
        "scenario": sweep_doc,
    }


_SPAN = ("spans", 0)
_COUNTER, _GAUGE, _HIST = ("metrics", 0), ("metrics", 1), ("metrics", 2)
_EVENT = ("trace", "events", 0)
_ENTRY = ("benchmarks", 0)
_SHAPE, _NUMERIC, _HIGH_ONLY = ("claims", 0), ("claims", 3), ("claims", 6)
_REPORT = ("reports", 0)
_CELL = ("cells", 0)
_POINT = ("cells", 0, "results", 0)

MUTATIONS = [
    # --- telemetry: document and top-level fields -------------------------
    ("telemetry", (), []),
    ("telemetry", ("schema",), "bogus/v9"),
    ("telemetry", ("meta",), DELETE),
    ("telemetry", ("meta",), []),
    ("telemetry", ("spans",), DELETE),
    ("telemetry", ("spans",), {}),
    ("telemetry", ("metrics",), DELETE),
    ("telemetry", ("metrics",), "x"),
    ("telemetry", ("trace",), DELETE),
    ("telemetry", ("trace",), []),
    # spans
    ("telemetry", _SPAN, "x"),
    ("telemetry", _SPAN + ("name",), DELETE),
    ("telemetry", _SPAN + ("name",), ""),
    ("telemetry", _SPAN + ("start_s",), DELETE),
    ("telemetry", _SPAN + ("start_s",), "0"),
    ("telemetry", _SPAN + ("duration_s",), DELETE),
    ("telemetry", _SPAN + ("duration_s",), -1),
    ("telemetry", _SPAN + ("duration_s",), "1"),
    ("telemetry", _SPAN + ("depth",), DELETE),
    ("telemetry", _SPAN + ("depth",), -1),
    ("telemetry", _SPAN + ("depth",), 1.5),
    ("telemetry", _SPAN + ("labels",), []),
    ("telemetry", _SPAN + ("labels",), {"module": 1}),
    # metrics: common fields
    ("telemetry", _COUNTER, 3),
    ("telemetry", _COUNTER + ("name",), DELETE),
    ("telemetry", _COUNTER + ("name",), ""),
    ("telemetry", _COUNTER + ("kind",), DELETE),
    ("telemetry", _COUNTER + ("kind",), "sundial"),
    ("telemetry", _COUNTER + ("labels",), "x"),
    ("telemetry", _COUNTER + ("labels",), {"isa": 2}),
    # metrics: per-kind fields
    ("telemetry", _COUNTER + ("value",), DELETE),
    ("telemetry", _COUNTER + ("value",), "1"),
    ("telemetry", _GAUGE + ("value",), None),
    ("telemetry", _COUNTER + ("kind",), "histogram"),
    ("telemetry", _HIST + ("kind",), "counter"),
    ("telemetry", _HIST + ("count",), DELETE),
    ("telemetry", _HIST + ("count",), "1"),
    ("telemetry", _HIST + ("sum",), None),
    ("telemetry", _HIST + ("min",), None),
    ("telemetry", _HIST + ("max",), None),
    ("telemetry", _HIST + ("mean",), None),
    ("telemetry", _HIST + ("buckets",), DELETE),
    ("telemetry", _HIST + ("buckets",), []),
    ("telemetry", _HIST + ("buckets",), "x"),
    ("telemetry", _HIST + ("buckets", 0), "x"),
    ("telemetry", _HIST + ("buckets", 0, "le"), DELETE),
    ("telemetry", _HIST + ("buckets", 0, "count"), DELETE),
    ("telemetry", _HIST + ("buckets", 0, "count"), 1.5),
    # trace
    ("telemetry", ("trace", "capacity"), "x"),
    ("telemetry", ("trace", "emitted"), None),
    ("telemetry", ("trace", "dropped"), DELETE),
    ("telemetry", ("trace", "events"), DELETE),
    ("telemetry", ("trace", "events"), {}),
    ("telemetry", _EVENT, 7),
    ("telemetry", _EVENT + ("seq",), DELETE),
    ("telemetry", _EVENT + ("seq",), 0),
    ("telemetry", _EVENT + ("seq",), "1"),
    ("telemetry", _EVENT + ("event",), DELETE),
    ("telemetry", _EVENT + ("event",), "teleport"),
    ("telemetry", _EVENT + ("cycle",), DELETE),
    ("telemetry", _EVENT + ("cycle",), -1),
    ("telemetry", _EVENT + ("cycle",), 1.5),
    # invariant: seq numbers increase
    ("telemetry", _EVENT + ("seq",), 99),
    # --- bench: document and top-level fields -----------------------------
    ("bench", (), []),
    ("bench", ("schema",), "repro.telemetry/v1"),
    ("bench", ("meta",), DELETE),
    ("bench", ("meta",), 5),
    ("bench", ("benchmarks",), DELETE),
    ("bench", ("benchmarks",), []),
    ("bench", ("benchmarks",), {}),
    ("bench", ("totals",), DELETE),
    ("bench", ("totals",), []),
    # benchmark entries
    ("bench", _ENTRY, "x"),
    ("bench", _ENTRY + ("benchmark",), DELETE),
    ("bench", _ENTRY + ("benchmark",), ""),
    ("bench", _ENTRY + ("isa",), DELETE),
    ("bench", _ENTRY + ("isa",), 3),
    *[
        ("bench", _ENTRY + (field,), bad)
        for field in (
            "compile_s", "capture_s", "replay_s", "streaming_s",
            "units", "ops", "trace_bytes",
        )
        for bad in (DELETE, -1, "1")
    ],
    ("bench", _ENTRY + ("stats_match",), DELETE),
    ("bench", _ENTRY + ("stats_match",), 1),
    *[
        ("bench", _ENTRY + (field,), bad)
        for field in ("vector_s", "sweep_s", "sweep_per_config_s",
                      "sweep_points")
        for bad in (-1, "1")
    ],
    ("bench", _ENTRY + ("vector_match",), "yes"),
    ("bench", _ENTRY + ("sweep_match",), 0),
    *[
        ("bench", _ENTRY + ("kernel_fallbacks",), bad)
        for bad in (-1, 1.0, True, "0")
    ],
    # totals
    *[
        ("bench", ("totals", field), bad)
        for field in (
            "capture_s", "replay_s", "streaming_s",
            "speedup_warm", "speedup_cold",
        )
        for bad in (DELETE, "1")
    ],
    ("bench", ("totals", "stats_match"), DELETE),
    ("bench", ("totals", "stats_match"), "true"),
    *[
        ("bench", ("totals", field), "1")
        for field in (
            "vector_s", "speedup_vector", "replay_vs_vector",
            "sweep_s", "sweep_per_config_s", "speedup_sweep",
        )
    ],
    # --- fidelity: document and meta --------------------------------------
    ("fidelity", (), "x"),
    ("fidelity", ("schema",), "repro.bench/v1"),
    ("fidelity", ("meta",), DELETE),
    ("fidelity", ("meta",), []),
    ("fidelity", ("meta", "scale"), DELETE),
    ("fidelity", ("meta", "scale"), 0),
    ("fidelity", ("meta", "scale"), -1),
    ("fidelity", ("meta", "scale"), "0.35"),
    ("fidelity", ("meta", "benchmarks"), DELETE),
    ("fidelity", ("meta", "benchmarks"), "compress"),
    ("fidelity", ("meta", "benchmarks"), [1]),
    ("fidelity", ("claims",), DELETE),
    ("fidelity", ("claims",), []),
    ("fidelity", ("claims",), {}),
    ("fidelity", ("summary",), DELETE),
    ("fidelity", ("summary",), []),
    # claims: common fields
    ("fidelity", _SHAPE, 1),
    ("fidelity", _SHAPE + ("id",), DELETE),
    ("fidelity", _SHAPE + ("id",), ""),
    ("fidelity", _SHAPE + ("figure",), DELETE),
    ("fidelity", _SHAPE + ("figure",), "fig9"),
    ("fidelity", _SHAPE + ("figure",), 3),
    ("fidelity", _SHAPE + ("statement",), DELETE),
    ("fidelity", _SHAPE + ("statement",), ""),
    ("fidelity", _SHAPE + ("kind",), DELETE),
    ("fidelity", _SHAPE + ("kind",), "vibe"),
    ("fidelity", _SHAPE + ("status",), DELETE),
    ("fidelity", _SHAPE + ("status",), "maybe"),
    ("fidelity", _SHAPE + ("detail",), 5),
    # invariant: numeric claims carry a paper value, a band and a
    # measured value; shape claims carry no band
    ("fidelity", _NUMERIC + ("paper",), DELETE),
    ("fidelity", _NUMERIC + ("paper",), "12.3"),
    ("fidelity", _NUMERIC + ("band",), DELETE),
    ("fidelity", _NUMERIC + ("band",), None),
    ("fidelity", _NUMERIC + ("band",), [3.0, None]),
    ("fidelity", _NUMERIC + ("band", "low"), "3"),
    ("fidelity", _HIGH_ONLY + ("band", "high"), "5"),
    ("fidelity", _NUMERIC + ("measured",), DELETE),
    ("fidelity", _NUMERIC + ("measured",), None),
    ("fidelity", _NUMERIC + ("measured",), "x"),
    ("fidelity", _SHAPE + ("band",), {"low": 1}),
    # invariant: unique claim ids
    ("fidelity", ("claims", 1, "id"), "table1.latencies_exact"),
    # summary fields
    *[
        ("fidelity", ("summary", field), bad)
        for field in (
            "checked", "passed", "failed", "skipped",
            "shape_failed", "numeric_failed",
        )
        for bad in (DELETE, -1, "0")
    ],
    ("fidelity", ("summary", "ok"), DELETE),
    ("fidelity", ("summary", "ok"), "yes"),
    # invariant: summary counts agree with the claims
    ("fidelity", ("summary", "checked"), 25),
    ("fidelity", ("summary", "passed"), 23),
    ("fidelity", ("summary", "failed"), 1),
    ("fidelity", ("summary", "skipped"), 1),
    ("fidelity", ("summary", "ok"), False),
    ("fidelity", ("claims", 4, "status"), "fail"),
    # --- insight: document and report fields ------------------------------
    ("insight", (), 3),
    ("insight", ("schema",), "nope"),
    ("insight", ("meta",), DELETE),
    ("insight", ("meta",), "x"),
    ("insight", ("reports",), DELETE),
    ("insight", ("reports",), []),
    ("insight", ("reports",), {}),
    ("insight", _REPORT, "x"),
    ("insight", _REPORT + ("benchmark",), DELETE),
    ("insight", _REPORT + ("benchmark",), ""),
    ("insight", _REPORT + ("isa",), DELETE),
    ("insight", _REPORT + ("isa",), "vliw"),
    *[
        ("insight", _REPORT + (field,), bad)
        for field in (
            "cycles", "busy_fetch", "icache_stall", "redirect_stall",
            "window_stall", "squash_recovery", "drain",
            "fetched_units", "squashed_units", "fetched_ops",
            "retired_ops", "squashed_ops",
        )
        for bad in (DELETE, -1, "1", 1.5)
    ],
    *[
        ("insight", _REPORT + (hist,), bad)
        for hist in ("fetch_hist", "unit_fetched", "unit_retired")
        for bad in (DELETE, [], {"x": 1}, {"-1": 1}, {"1": -1}, {"1": "1"})
    ],
    ("insight", _REPORT + ("config",), "x"),
    # invariants: cycle accounting and the histogram identities
    ("insight", _REPORT + ("drain",), _plus_one),
    ("insight", _REPORT + ("squashed_ops",), _plus_one),
    ("insight", _REPORT + ("fetch_hist",), _add_zero_bin),
    ("insight", _REPORT + ("fetch_hist",), _shift_top_bin_up),
    ("insight", _REPORT + ("unit_fetched",), _add_zero_bin),
    ("insight", _REPORT + ("unit_retired",), _add_zero_bin),
    ("insight", _REPORT + ("squashed_units",), _plus_one),
    # --- scenario: document and meta --------------------------------------
    ("scenario", (), None),
    ("scenario", ("schema",), "nope"),
    ("scenario", ("meta",), DELETE),
    ("scenario", ("meta",), "x"),
    ("scenario", ("meta", "grid"), DELETE),
    ("scenario", ("meta", "grid"), []),
    *[
        ("scenario", ("meta", "grid", axis), bad)
        for axis in ("bb_size", "bias", "hot_kb", "icache_kb")
        for bad in (DELETE, [], ["3"], 3)
    ],
    ("scenario", ("cells",), DELETE),
    ("scenario", ("cells",), []),
    ("scenario", ("cells",), {}),
    ("scenario", ("summary",), DELETE),
    ("scenario", ("summary",), []),
    # cells
    ("scenario", _CELL, "x"),
    ("scenario", _CELL + ("family",), DELETE),
    ("scenario", _CELL + ("family",), "compress"),
    ("scenario", _CELL + ("family",), 5),
    ("scenario", _CELL + ("target",), DELETE),
    ("scenario", _CELL + ("target",), []),
    *[
        ("scenario", _CELL + ("target", field), bad)
        for field in ("bb_size", "bias", "hot_bytes", "seed")
        for bad in (DELETE, "x")
    ],
    ("scenario", _CELL + ("realized",), DELETE),
    ("scenario", _CELL + ("realized",), []),
    *[
        ("scenario", _CELL + ("realized", field), bad)
        for field in (
            "mean_bb_ops", "mispredict_rate", "branch_events",
            "hot_bytes", "static_code_bytes", "block_code_bytes",
        )
        for bad in (DELETE, -1, "1")
    ],
    *[
        ("scenario", _CELL + ("realized", "bb_hist"), bad)
        for bad in (DELETE, "x", [[1]], [[0, 2]], [[1, "2"]], [[1, 2.0]])
    ],
    ("scenario", _CELL + ("attempts",), DELETE),
    ("scenario", _CELL + ("attempts",), 0),
    ("scenario", _CELL + ("attempts",), "2"),
    ("scenario", _CELL + ("results",), DELETE),
    ("scenario", _CELL + ("results",), []),
    ("scenario", _CELL + ("results",), {}),
    # results
    ("scenario", _POINT, "x"),
    *[
        ("scenario", _POINT + (field,), bad)
        for field in (
            "icache_kb", "conventional_cycles", "block_cycles", "speedup",
        )
        for bad in (DELETE, 0, -1, "1")
    ],
    ("scenario", _POINT + ("winner",), DELETE),
    ("scenario", _POINT + ("winner",), "nobody"),
    # invariant: speedup is the cycle ratio
    ("scenario", _POINT + ("speedup",), 99.0),
    # invariant: unique families
    ("scenario", ("cells", 1, "family"), "synthetic/bb3_bias60_fit2k"),
    # summary fields
    *[
        ("scenario", ("summary", field), bad)
        for field in (
            "cells", "points", "block_wins", "conventional_wins", "ties",
            "crossover_points",
        )
        for bad in (DELETE, -1, "0")
    ],
    ("scenario", ("summary", "crossover_axes"), DELETE),
    ("scenario", ("summary", "crossover_axes"), "bias"),
    ("scenario", ("summary", "crossover_axes"), ["volume"]),
    # invariant: summary counts agree with the cells
    *[
        ("scenario", ("summary", field), _plus_one)
        for field in (
            "cells", "points", "block_wins", "conventional_wins", "ties",
        )
    ],
    ("scenario", _POINT + ("winner",), "tie"),
]


def _mutate(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    elif callable(value):
        parent[path[-1]] = value(parent[path[-1]])
    else:
        parent[path[-1]] = value
    return doc


def _mutation_id(mutation) -> str:
    kind, path, value = mutation
    where = ".".join(map(str, path)) or "<document>"
    if value is DELETE:
        what = "<deleted>"
    elif callable(value):
        what = value.__name__
    else:
        what = repr(value)
    return f"{kind}:{where}={what}"


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_real_document_is_valid(documents, kind):
    assert VALIDATORS[kind](documents[kind]) == []


@pytest.mark.parametrize("mutation", MUTATIONS, ids=_mutation_id)
def test_mutation_is_rejected(documents, mutation):
    kind, path, value = mutation
    broken = _mutate(documents[kind], path, value)
    assert VALIDATORS[kind](broken), _mutation_id(mutation)
