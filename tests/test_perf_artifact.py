"""``bsisa perf``: the BENCH_sim.json artifact is schema-valid, its
replay timings come with a bit-identity guarantee, and the tracecache
metric series reach the registry."""

from __future__ import annotations

import json

from repro.core.toolchain import Toolchain
from repro.harness.cli import main
from repro.harness.perf import benchmark_suite, render, write_document
from repro.obs import Telemetry
from repro.obs.schema import (
    BENCH_SCHEMA_ID,
    bench_document_errors,
)
from repro.sim import vector
from repro.sim.tracecache import simulate_conventional_with_trace_cache
from repro.workloads import SUITE

SCALE = 0.05


def test_document_is_schema_valid_and_stats_match(tmp_path):
    doc = benchmark_suite(["compress"], SCALE)
    assert doc["schema"] == BENCH_SCHEMA_ID
    assert bench_document_errors(doc) == []
    assert doc["totals"]["stats_match"] is True
    assert {e["isa"] for e in doc["benchmarks"]} == {
        "conventional",
        "block",
    }
    path = tmp_path / "BENCH_sim.json"
    write_document(doc, str(path))
    assert bench_document_errors(json.loads(path.read_text())) == []
    table = render(doc)
    assert "compress" in table and "ok" in table


def test_bench_schema_rejects_malformed():
    doc = benchmark_suite(["compress"], SCALE)
    doc["benchmarks"][0]["capture_s"] = -1
    del doc["benchmarks"][1]["stats_match"]
    doc["totals"].pop("speedup_warm")
    errors = bench_document_errors(doc)
    assert len(errors) == 3
    assert bench_document_errors([]) == ["document must be a JSON object"]


def test_kernel_fallbacks_column_is_recorded_and_validated():
    """With numpy, every entry counts its kernel fallbacks (0 on suite
    workloads); the schema accepts only non-negative ints."""
    doc = benchmark_suite(["compress"], SCALE)
    if not vector.HAVE_NUMPY:
        assert all("kernel_fallbacks" not in e for e in doc["benchmarks"])
        return
    assert [e["kernel_fallbacks"] for e in doc["benchmarks"]] == [0, 0]
    for bad in (-1, 1.0, True, "0"):
        doc["benchmarks"][0]["kernel_fallbacks"] = bad
        assert bench_document_errors(doc) == [
            "benchmarks[0].kernel_fallbacks must be a non-negative int, "
            f"got {bad!r}"
        ], bad


def test_perf_spans_recorded_with_enabled_telemetry():
    tel = Telemetry()
    benchmark_suite(["compress"], SCALE, telemetry=tel)
    names = [s.name for s in tel.spans.records]
    for phase in ("perf.capture", "perf.replay", "perf.streaming"):
        assert names.count(phase) == 2  # one per ISA


def test_cli_perf_writes_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_sim.json"
    rc = main(
        [
            "perf",
            "--benchmarks",
            "compress",
            "--scale",
            str(SCALE),
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    assert bench_document_errors(json.loads(out.read_text())) == []
    assert "compress" in capsys.readouterr().out


def test_cli_perf_rejects_unknown_benchmark():
    assert main(["perf", "--benchmarks", "nosuch"]) == 2


def test_tracecache_publish_reaches_registry():
    pair = Toolchain().compile(SUITE["compress"].source(SCALE), "compress")
    tel = Telemetry()
    _, fetch = simulate_conventional_with_trace_cache(
        pair.conventional, telemetry=tel
    )
    assert tel.metrics.get(
        "tracecache.lookups", benchmark="compress"
    ) == fetch.lookups
    assert tel.metrics.get(
        "tracecache.hits", benchmark="compress"
    ) == fetch.hits
    assert tel.metrics.get(
        "tracecache.fills", benchmark="compress"
    ) == fetch.fills
    assert tel.metrics.get(
        "tracecache.merged_units", benchmark="compress"
    ) == fetch.merged_units
    assert tel.metrics.get(
        "tracecache.hit_rate", benchmark="compress"
    ) == fetch.hit_rate
