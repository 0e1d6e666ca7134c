"""``python -m repro.obs.schema``: its exit-code contract (0 valid,
1 invalid, 2 bad usage or unreadable file) and its strict number
kinds (a bool is not a number)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.schema import (
    SCHEMAS,
    bench_document_errors,
    fidelity_document_errors,
    main,
)

ROOT = Path(__file__).resolve().parent.parent


def _committed(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


@pytest.mark.parametrize(
    "artifact, validator, path, flag, where",
    [
        ("BENCH_paper.json", fidelity_document_errors,
         ("summary", "shape_failed"), True, "summary.shape_failed"),
        ("BENCH_paper.json", fidelity_document_errors,
         ("meta", "scale"), True, "meta.scale"),
        ("BENCH_sim.json", bench_document_errors,
         ("benchmarks", 0, "units"), True, "benchmarks[0].units"),
        ("BENCH_sim.json", bench_document_errors,
         ("totals", "speedup_warm"), False, "totals.speedup_warm"),
    ],
)
def test_bool_is_not_a_number(artifact, validator, path, flag, where):
    doc = _committed(artifact)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = flag
    errors = validator(doc)
    assert len(errors) == 1 and errors[0].startswith(f"{where} must be a")


@pytest.mark.parametrize(
    "artifact, summary",
    [
        ("BENCH_paper.json", lambda d: (
            f"{d['summary']['checked']} claims, {d['summary']['failed']} "
            f"failed, ok={d['summary']['ok']}")),
        ("BENCH_sim.json", lambda d: (
            f"{len(d['benchmarks'])} benchmark entries, "
            f"stats_match={d['totals']['stats_match']}")),
    ],
)
def test_main_exits_0_on_a_committed_artifact(artifact, summary, capsys):
    path = ROOT / artifact
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert out == f"{path}: ok ({summary(_committed(artifact))})\n"


def test_main_exits_1_on_a_corrupted_artifact(tmp_path, capsys):
    doc = _committed("BENCH_paper.json")
    doc["summary"]["passed"] -= 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: INVALID" in err
    assert "summary.passed is 23, claims say 24" in err


def test_main_names_the_known_ids_for_an_unknown_schema(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": "repro.nope/v9"}))
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown schema 'repro.nope/v9'" in err
    assert all(schema_id in err for schema_id in SCHEMAS)


@pytest.mark.parametrize("argv", [[], ["a.json", "b.json"]])
def test_main_exits_2_on_bad_usage(argv, capsys):
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err


def test_main_exits_2_on_a_missing_file(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main([str(path)]) == 2
    assert f"{path}: cannot read: " in capsys.readouterr().err


def test_main_exits_2_on_invalid_json(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"schema": "repro.bench/v1", ')
    assert main([str(path)]) == 2
    assert f"{path}: cannot read: " in capsys.readouterr().err
