"""Golden digests of every captured trace the suite depends on.

For each suite benchmark (plus one scenario family) × ISA × predictor
setting this pins what a capture produces, bit for bit:

* the sha256 of :meth:`PackedTrace.to_bytes` — every unit, op, latency,
  memory address and dependence edge of the dynamic stream;
* ``dataclasses.asdict`` of the executor's architectural stats,
  program outputs included;
* the :class:`PredictorSnapshot` frozen at capture time.

It is the reference the functional executors are held to: any change in
how they decode, execute or record operations that shifts a single
byte of a trace fails here with the workload named. After an
*intentional* change, regenerate with

    pytest tests/test_trace_digests.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.harness import SuiteRunner
from repro.sim.config import MachineConfig
from repro.sim.run import capture_run
from repro.workloads import SUITE
from tests.test_goldens import diff_paths

GOLDEN_PATH = Path(__file__).parent / "goldens" / "trace_digests.json"
GOLDEN_SCALE = 0.05
WORKLOADS = tuple(SUITE) + ("synthetic/bb3_bias60_fit2k",)
ISAS = ("conventional", "block")
CONFIGS = {
    "gshare": MachineConfig(),
    "perfect_bp": MachineConfig(perfect_bp=True),
}


def trace_key(name: str, isa: str, bp: str) -> str:
    return f"{name}/{isa}/{bp}"


def digest(captured) -> dict:
    doc = {
        "trace_sha256": hashlib.sha256(captured.trace.to_bytes()).hexdigest(),
        "stats": dataclasses.asdict(captured.stats),
        "predictor": (
            dataclasses.asdict(captured.predictor)
            if captured.predictor is not None
            else None
        ),
    }
    # JSON round trip: compare exactly what the golden file represents
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def measured() -> dict:
    runner = SuiteRunner(scale=GOLDEN_SCALE, benchmarks=list(WORKLOADS))
    out = {}
    for name in WORKLOADS:
        pair = runner.pair(name)
        for isa in ISAS:
            program = getattr(pair, isa)
            for bp, config in CONFIGS.items():
                out[trace_key(name, isa, bp)] = digest(
                    capture_run(program, isa, config)
                )
    return out


def test_trace_digests(measured, request):
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(measured, indent=1, sort_keys=True) + "\n"
        )
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    if not GOLDEN_PATH.is_file():
        pytest.fail(
            f"golden {GOLDEN_PATH} is missing — create it with "
            "`pytest tests/test_trace_digests.py --update-goldens` "
            "and commit it"
        )
    golden = json.loads(GOLDEN_PATH.read_text())
    mismatches = diff_paths(golden, measured)
    assert not mismatches, (
        f"{GOLDEN_PATH.name} is stale — captured traces changed:\n  "
        + "\n  ".join(mismatches[:40])
        + "\nIf intentional, regenerate with --update-goldens and review."
    )


def test_golden_covers_every_trace():
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = {
        trace_key(name, isa, bp)
        for name in WORKLOADS
        for isa in ISAS
        for bp in CONFIGS
    }
    assert set(golden) == expected
