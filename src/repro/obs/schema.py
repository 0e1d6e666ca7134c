"""Validation of the five schema-versioned artifacts.

One field table per artifact kind, applied by one walker (:func:`_check`)
that names the JSON path of each bad value; one invariant function per
kind for the cross-field rules; :data:`SCHEMAS` maps each schema id to
its table, invariants and summary. ``python -m repro.obs.schema FILE``
exits 0 (valid), 1 (one line per violation) or 2 (usage, unreadable).
"""

from __future__ import annotations

import json
import sys
from reprlib import repr as _repr

from repro.errors import TelemetryError
from repro.obs.events import ALL_EVENT_KINDS
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM
from repro.obs.telemetry import SCHEMA_ID

#: Schema id of the ``bsisa perf`` artifact (docs/performance.md).
BENCH_SCHEMA_ID = "repro.bench/v1"

#: Schema id of the ``bsisa verify-paper`` artifact (docs/fidelity.md).
FIDELITY_SCHEMA_ID = "repro.fidelity/v1"

#: Schema id of the ``bsisa analyze`` / ``bsisa run --insight`` artifact
#: (docs/observability.md).
INSIGHT_SCHEMA_ID = "repro.insight/v1"

#: Schema id of the ``bsisa scenarios sweep`` artifact (docs/scenarios.md).
SCENARIO_SCHEMA_ID = "repro.scenario/v1"

#: The cycle-accounting buckets of one :class:`repro.insight.InsightReport`,
#: in display order. Every simulated cycle lands in exactly one bucket:
#: ``sum(buckets) == cycles`` is part of the schema contract.
INSIGHT_CYCLE_BUCKETS = ("busy_fetch", "icache_stall", "redirect_stall",
                         "window_stall", "squash_recovery", "drain")


def _int(v) -> bool:
    # bool is an int subclass, but a flag is never a count.
    return isinstance(v, int) and not isinstance(v, bool)


def _num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: Scalar field kinds: name -> (what a valid value is, predicate).
_KINDS = {
    "any": ("present", lambda v: True),
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "text": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "int>=0": ("a non-negative int", lambda v: _int(v) and v >= 0),
    "int>0": ("a positive int", lambda v: _int(v) and v > 0),
    "number": ("a number", _num),
    "number>=0": ("a non-negative number", lambda v: _num(v) and v >= 0),
    "number>0": ("a positive number", lambda v: _num(v) and v > 0),
    "number|null": ("a number or null", lambda v: v is None or _num(v)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "object|null": ("an object or null",
                    lambda v: v is None or isinstance(v, dict)),
    "labels": ("a str -> str object", lambda v: isinstance(v, dict) and all(
        isinstance(x, str) for kv in v.items() for x in kv)),
    "hist": ("an object of non-negative int bins -> non-negative ints",
             lambda v: isinstance(v, dict) and all(
                 isinstance(k, str) and k.isdecimal() and _int(n) and n >= 0
                 for k, n in v.items())),
    "synthetic": ("a 'synthetic/…' family name",
                  lambda v: isinstance(v, str) and v.startswith("synthetic/")),
    "size,count": ("a [size, count] pair of positive ints",
                   lambda v: isinstance(v, list) and len(v) == 2
                   and all(_int(x) and x > 0 for x in v)),
}


def _check(value, spec, path: str, errors: list[str]) -> None:
    """Append one error per violation of *spec* found in *value*. A spec
    is a :data:`_KINDS` name, an object table ``{field: spec}`` (``field?``
    is optional), ``("enum", *allowed)`` or ``("list"|"list+", item)``."""
    if isinstance(spec, str):
        what, ok = _KINDS[spec]
        if not ok(value):
            errors.append(f"{path} must be {what}, got {_repr(value)}")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            errors.append(f"{path} must be an object, got {_repr(value)}")
            return
        for key, sub in spec.items():
            name = key.rstrip("?")
            where = f"{path}.{name}" if path else name
            if name in value:
                _check(value[name], sub, where, errors)
            elif not key.endswith("?"):
                errors.append(f"{where} is missing")
    elif spec[0] == "enum":
        if value not in spec[1:]:
            errors.append(f"{path} must be one of {spec[1:]}, got "
                          f"{_repr(value)}")
    elif not isinstance(value, list) or (spec[0] == "list+" and not value):
        empty = "non-empty " if spec[0] == "list+" else ""
        errors.append(f"{path} must be a {empty}list, got {_repr(value)}")
    else:
        for i, item in enumerate(value):
            _check(item, spec[1], f"{path}[{i}]", errors)


def _ok(value, spec) -> bool:
    """Whether *value* is well-formed under *spec* (an invariant's guard)."""
    errors: list[str] = []
    _check(value, spec, "", errors)
    return not errors


def _list(value) -> list:
    return value if isinstance(value, list) else []


def _unique(what: str, items: list, key: str, errors: list[str]) -> None:
    values = [x[key] for x in items if _ok(x, {key: "str"})]
    dupes = sorted({v for v in values if values.count(v) > 1})
    if dupes:
        errors.append(f"duplicate {what}: {dupes}")


def _agree(summary, expected: dict, source: str, errors: list[str]) -> None:
    errors += [f"summary.{k} is {summary[k]}, {source} say {v}"
               for k, v in expected.items() if summary[k] != v]


_METRIC_KIND = ("enum", COUNTER, GAUGE, HISTOGRAM)

_TELEMETRY = {
    "meta": "object",
    "spans": ("list", {"name": "str", "start_s": "number",
                       "duration_s": "number>=0", "depth": "int>=0",
                       "labels?": "labels"}),
    "metrics": ("list", {"name": "str", "kind": _METRIC_KIND,
                         "labels?": "labels"}),
    "trace": {
        **dict.fromkeys(("capacity", "emitted", "dropped"), "int>=0"),
        "events": ("list", {"seq": "int>0", "cycle": "int>=0",
                            "event": ("enum", *ALL_EVENT_KINDS)}),
    },
}

#: The fields each kind of metric series adds.
_METRIC_FIELDS = {
    **dict.fromkeys((COUNTER, GAUGE), {"value": "number"}),
    HISTOGRAM: {
        **dict.fromkeys(("count", "sum", "min", "max", "mean"), "number"),
        "buckets": ("list+", {"le": "any", "count": "int>=0"}),
    },
}


def _telemetry_rules(doc: dict, errors: list[str]) -> None:
    for i, metric in enumerate(_list(doc.get("metrics"))):
        if _ok(metric, {"kind": _METRIC_KIND}):
            fields = _METRIC_FIELDS[metric["kind"]]
            _check(metric, fields, f"metrics[{i}]", errors)
    trace = doc.get("trace")
    events = _list(trace.get("events")) if isinstance(trace, dict) else []
    seqs = [e["seq"] for e in events if _ok(e, {"seq": "int>0"})]
    if seqs != sorted(seqs):
        errors.append("trace.events seq numbers must be increasing")


_BENCH = {
    "meta": "object",
    "benchmarks": ("list+", {
        "benchmark": "str", "isa": "str",
        **dict.fromkeys(("compile_s", "capture_s", "replay_s", "streaming_s",
                         "units", "ops", "trace_bytes"), "number>=0"),
        "stats_match": "bool",
        # The vector columns appear only when the vectorized replay kernel
        # ran; older documents predate the sweep columns.
        **dict.fromkeys(("vector_s?", "sweep_s?", "sweep_per_config_s?",
                         "sweep_points?"), "number>=0"),
        **dict.fromkeys(("vector_match?", "sweep_match?"), "bool"),
        "kernel_fallbacks?": "int>=0",
    }),
    "totals": {
        **dict.fromkeys(("capture_s", "replay_s", "streaming_s",
                         "speedup_warm", "speedup_cold"), "number"),
        "stats_match": "bool",
        **dict.fromkeys(("vector_s?", "speedup_vector?", "replay_vs_vector?",
                         "sweep_s?", "sweep_per_config_s?", "speedup_sweep?"),
                        "number"),
    },
}

_CLAIM_STATUS = ("enum", "pass", "fail", "skip")

_FIDELITY_SUMMARY = {
    **dict.fromkeys(("checked", "passed", "failed", "skipped",
                     "shape_failed", "numeric_failed"), "int>=0"),
    "ok": "bool",
}

_FIDELITY = {
    "meta": {"scale": "number>0", "benchmarks": ("list", "str")},
    "claims": ("list+", {
        "id": "str", "statement": "str", "detail?": "text",
        "figure": ("enum", "table1", "table2", "fig3", "fig4", "fig5",
                   "fig6", "fig7"),
        "kind": ("enum", "numeric", "shape"), "status": _CLAIM_STATUS,
    }),
    "summary": _FIDELITY_SUMMARY,
}

#: The fields a numeric claim adds (and ``measured`` unless skipped).
_NUMERIC_CLAIM = {
    "paper": "number",
    "band": {"low?": "number|null", "high?": "number|null"},
}


def _fidelity_rules(doc: dict, errors: list[str]) -> None:
    claims = _list(doc.get("claims"))
    for i, claim in enumerate(claims):
        if _ok(claim, {"kind": ("enum", "numeric")}):
            _check(claim, _NUMERIC_CLAIM, f"claims[{i}]", errors)
            if claim.get("status") != "skip":
                _check(claim, {"measured": "number"}, f"claims[{i}]", errors)
        elif _ok(claim, {"kind": ("enum", "shape")}) and (
            claim.get("band") is not None
        ):
            errors.append(f"claims[{i}].band: shape claims carry no band")
    _unique("claim ids", claims, "id", errors)
    summary = doc.get("summary")
    if _ok(claims, ("list+", {"status": _CLAIM_STATUS})) and _ok(
        summary, _FIDELITY_SUMMARY
    ):
        statuses = [c["status"] for c in claims]
        failed = statuses.count("fail")
        _agree(summary, {"checked": len(statuses), "failed": failed,
                         "passed": statuses.count("pass"),
                         "skipped": statuses.count("skip"),
                         "ok": failed == 0}, "claims", errors)


#: Every field the cycle-accounting identities read.
_INSIGHT_ACCOUNTS = {
    **dict.fromkeys(("cycles", *INSIGHT_CYCLE_BUCKETS, "fetched_units",
                     "squashed_units", "fetched_ops", "retired_ops",
                     "squashed_ops"), "int>=0"),
    **dict.fromkeys(("fetch_hist", "unit_fetched", "unit_retired"), "hist"),
}

_INSIGHT = {
    "meta": "object",
    "reports": ("list+", {
        "benchmark": "str", "isa": ("enum", "conventional", "block"),
        **_INSIGHT_ACCOUNTS, "config?": "object|null",
    }),
}


def _mass(hist: dict, weighted: bool = False) -> int:
    return sum(n * (int(k) if weighted else 1) for k, n in hist.items())


def _insight_rules(doc: dict, errors: list[str]) -> None:
    # The identities are part of the schema: CI validating the artifact
    # re-asserts them on the shipped numbers.
    for i, r in enumerate(_list(doc.get("reports"))):
        if not _ok(r, _INSIGHT_ACCOUNTS):
            continue
        hist = r["fetch_hist"]
        for lhs, got, rhs, want in (
            ("cycle accounting broken — sum(buckets)",
             sum(r[b] for b in INSIGHT_CYCLE_BUCKETS), "cycles", r["cycles"]),
            ("retired_ops + squashed_ops",
             r["retired_ops"] + r["squashed_ops"],
             "fetched_ops", r["fetched_ops"]),
            ("fetch_hist mass", _mass(hist), "busy_fetch", r["busy_fetch"]),
            ("fetch_hist op mass", _mass(hist, True),
             "fetched_ops", r["fetched_ops"]),
            ("unit_fetched mass", _mass(r["unit_fetched"]),
             "fetched_units", r["fetched_units"]),
            ("unit_retired mass", _mass(r["unit_retired"]),
             "fetched_units - squashed_units",
             r["fetched_units"] - r["squashed_units"]),
        ):
            if got != want:
                errors.append(f"reports[{i}]: {lhs}={got} != {rhs}={want}")


_WINNER = ("enum", "block", "conventional", "tie")

#: Every field the speedup-ratio check reads.
_SPEEDUP = dict.fromkeys(
    ("conventional_cycles", "block_cycles", "speedup"), "number>0"
)

_SCENARIO_COUNTS = dict.fromkeys(
    ("cells", "points", "block_wins", "conventional_wins", "ties",
     "crossover_points"), "int>=0",
)

_SCENARIO = {
    "meta": {"grid": dict.fromkeys(("bb_size", "bias", "hot_kb", "icache_kb"),
                                   ("list+", "number"))},
    "cells": ("list+", {
        "family": "synthetic",
        "target": dict.fromkeys(("bb_size", "bias", "hot_bytes", "seed"),
                                "number"),
        "realized": {
            **dict.fromkeys(("mean_bb_ops", "mispredict_rate",
                             "branch_events", "hot_bytes",
                             "static_code_bytes", "block_code_bytes"),
                            "number>=0"),
            "bb_hist": ("list", "size,count"),
        },
        "attempts": "int>0",
        "results": ("list+", {"icache_kb": "number>0", **_SPEEDUP,
                              "winner": _WINNER}),
    }),
    "summary": {
        **_SCENARIO_COUNTS,
        "crossover_axes": ("list", ("enum", "bb_size", "bias", "hot_bytes",
                                    "icache_kb")),
    },
}


def _scenario_rules(doc: dict, errors: list[str]) -> None:
    cells = _list(doc.get("cells"))
    for i, cell in enumerate(cells):
        results = _list(cell.get("results")) if isinstance(cell, dict) else []
        for j, p in enumerate(results):
            if not _ok(p, _SPEEDUP):
                continue
            ratio = p["conventional_cycles"] / p["block_cycles"]
            if abs(ratio - p["speedup"]) > 0.001:
                errors.append(f"cells[{i}].results[{j}].speedup={p['speedup']}"
                              f" disagrees with the cycle ratio {ratio:.4f}")
    _unique("cell families", cells, "family", errors)
    summary = doc.get("summary")
    if _ok(cells, ("list+", {"results": ("list+", {"winner": _WINNER})})) and (
        _ok(summary, _SCENARIO_COUNTS)
    ):
        winners = [p["winner"] for c in cells for p in c["results"]]
        _agree(summary, {"cells": len(cells), "points": len(winners),
                         "block_wins": winners.count("block"),
                         "conventional_wins": winners.count("conventional"),
                         "ties": winners.count("tie")}, "cells", errors)


#: schema id -> (field table, invariants, summary of a valid document).
SCHEMAS = {
    SCHEMA_ID: (_TELEMETRY, _telemetry_rules, lambda d: (
        f"{len(d['metrics'])} metric series, {len(d['spans'])} spans, "
        f"{len(d['trace']['events'])} trace events")),
    BENCH_SCHEMA_ID: (_BENCH, lambda doc, errors: None, lambda d: (
        f"{len(d['benchmarks'])} benchmark entries, "
        f"stats_match={d['totals']['stats_match']}")),
    FIDELITY_SCHEMA_ID: (_FIDELITY, _fidelity_rules, lambda d: (
        f"{d['summary']['checked']} claims, {d['summary']['failed']} "
        f"failed, ok={d['summary']['ok']}")),
    INSIGHT_SCHEMA_ID: (_INSIGHT, _insight_rules, lambda d: (
        f"{len(d['reports'])} insight reports, cycle accounting balanced")),
    SCENARIO_SCHEMA_ID: (_SCENARIO, _scenario_rules, lambda d: (
        f"{d['summary']['cells']} cells, {d['summary']['points']} points, "
        f"{d['summary']['crossover_points']} crossover pairs on axes "
        f"{d['summary']['crossover_axes']}")),
}


def _errors(doc, schema_id: str) -> list[str]:
    if not isinstance(doc, dict):
        return ["document must be a JSON object"]
    table, rules, _ = SCHEMAS[schema_id]
    errors: list[str] = []
    if doc.get("schema") != schema_id:
        errors.append(f"schema must be {schema_id!r}, "
                      f"got {doc.get('schema')!r}")
    _check(doc, table, "", errors)
    rules(doc, errors)
    return errors


def document_errors(doc) -> list[str]:
    """Every schema violation found in *doc* (empty list == valid)."""
    return _errors(doc, SCHEMA_ID)


def bench_document_errors(doc) -> list[str]:
    """Every schema violation in a ``BENCH_sim.json`` document."""
    return _errors(doc, BENCH_SCHEMA_ID)


def fidelity_document_errors(doc) -> list[str]:
    """Every schema violation in a ``BENCH_paper.json`` document."""
    return _errors(doc, FIDELITY_SCHEMA_ID)


def insight_document_errors(doc) -> list[str]:
    """Every schema violation in a ``repro.insight/v1`` document."""
    return _errors(doc, INSIGHT_SCHEMA_ID)


def scenario_document_errors(doc) -> list[str]:
    """Every schema violation in a ``repro.scenario/v1`` document."""
    return _errors(doc, SCENARIO_SCHEMA_ID)


def validate_document(doc) -> None:
    """Raise :class:`TelemetryError` listing every violation in *doc*."""
    errors = document_errors(doc)
    if errors:
        raise TelemetryError(
            "invalid telemetry document:\n  " + "\n  ".join(errors)
        )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.schema FILE`` — validate an artifact."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema FILE", file=sys.stderr)
        return 2
    try:
        with open(argv[0], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"{argv[0]}: cannot read: {exc}", file=sys.stderr)
        return 2
    # A non-object document fails _errors' first check under any id.
    schema_id = doc.get("schema") if isinstance(doc, dict) else SCHEMA_ID
    if isinstance(schema_id, str) and schema_id in SCHEMAS:
        errors = _errors(doc, schema_id)
    else:
        errors = [f"unknown schema {schema_id!r}; known schemas: "
                  f"{', '.join(SCHEMAS)}"]
    if errors:
        print(f"{argv[0]}: INVALID", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"{argv[0]}: ok ({SCHEMAS[schema_id][2](doc)})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
