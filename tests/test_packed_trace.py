"""Packed-trace capture/replay: lossless round-trip, deterministic
serialization, bit-identity of shared-capture replay against a fresh
capture and scalar replay across the full experiment matrix, and trace
reuse through the experiment engine."""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.check import generate_program
from repro.core.toolchain import Toolchain
from repro.engine import build_plan
from repro.errors import SimulationError
from repro.exec.block import BlockExecutor
from repro.exec.conventional import ConventionalExecutor
from repro.exec.trace import DynOp, FetchUnit
from repro.harness import EXPERIMENT_RUNS, SuiteRunner
from repro.obs import Telemetry
from repro.sim import vector
from repro.sim.config import MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.predictors import BlockPredictor, GsharePredictor
from repro.sim.run import (
    PredictorSnapshot,
    _block_executor,
    _conventional_executor,
    capture_run,
    predictor_key,
    replay_captured,
    simulate_streaming,
)
from repro.workloads import SUITE

SCALE = 0.05
BENCHES = ["compress", "m88ksim"]

_PAIRS: dict[str, object] = {}


def _pair(name: str):
    if name not in _PAIRS:
        _PAIRS[name] = Toolchain().compile(SUITE[name].source(SCALE), name)
    return _PAIRS[name]


def _units(prog, isa: str, config: MachineConfig) -> list[FetchUnit]:
    """The live executor stream for *prog*, materialized."""
    if isa == "conventional":
        predictor = (
            None
            if config.perfect_bp
            else GsharePredictor(config.bp_history_bits, config.bp_table_bits)
        )
        executor = ConventionalExecutor(prog, predictor=predictor, trace=True)
    else:
        predictor = (
            None
            if config.perfect_bp
            else BlockPredictor(
                prog, config.bp_history_bits, config.bp_table_bits
            )
        )
        executor = BlockExecutor(prog, predictor=predictor, trace=True)
    return list(executor.units())


# ---------------------------------------------------------------------------
# Lossless round-trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("isa", ["conventional", "block"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_programs_round_trip(self, seed, isa):
        """Property test: pack(units).units() == units for random MiniC
        programs, both ISAs, both predictor modes."""
        source = generate_program(random.Random(f"packed:{seed}"))
        pair = Toolchain().compile(source, f"packed{seed}")
        prog = pair.conventional if isa == "conventional" else pair.block
        config = MachineConfig(perfect_bp=bool(seed % 2))
        units = _units(prog, isa, config)
        trace = PackedTrace.capture(iter(units))
        assert list(trace.units()) == units

    @pytest.mark.parametrize("isa", ["conventional", "block"])
    @pytest.mark.parametrize("seed", range(4))
    def test_executor_columns_repack_identically(self, seed, isa):
        """The columns an executor writes directly equal packing their
        own object view: dense deps agree with the uids they name."""
        source = generate_program(random.Random(f"columns:{seed}"))
        pair = Toolchain().compile(source, f"columns{seed}")
        prog = pair.conventional if isa == "conventional" else pair.block
        config = MachineConfig(perfect_bp=bool(seed % 2))
        captured = capture_run(prog, isa, config)
        assert PackedTrace.capture(captured.trace.units()) == captured.trace

    def test_benchmark_round_trip_preserves_uids_and_deps(self):
        units = _units(_pair("compress").block, "block", MachineConfig())
        trace = PackedTrace.capture(iter(units))
        rebuilt = list(trace.units())
        assert [u.addr for u in rebuilt] == [u.addr for u in units]
        assert [
            op.uid for u in rebuilt for op in u.ops
        ] == [op.uid for u in units for op in u.ops]
        assert [
            op.deps for u in rebuilt for op in u.ops
        ] == [op.deps for u in units for op in u.ops]

    def test_foreign_dep_is_rejected(self):
        unit = FetchUnit(0, 8, [DynOp(1, deps=(999,), uid=0)])
        with pytest.raises(SimulationError):
            PackedTrace.capture([unit])

    def test_counts_and_line_spans(self):
        units = [
            FetchUnit(0, 100, [DynOp(1, (), uid=0)]),
            FetchUnit(128, 0, [DynOp(1, (0,), uid=1), DynOp(2, (), uid=2)]),
        ]
        trace = PackedTrace.capture(units)
        assert trace.num_units == len(trace) == 2
        assert trace.num_ops == 3
        assert trace.num_deps == 1
        first, last = trace.line_spans(64)
        assert list(first) == [0, 2]
        # 100-byte unit spans lines 0..1; zero-size unit still occupies
        # its first line (the engine fetches at least one line).
        assert list(last) == [1, 2]
        assert trace.line_spans(64) is not trace.line_spans(32)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_bytes_round_trip_and_determinism(self):
        units = _units(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        trace = PackedTrace.capture(iter(units))
        data = trace.to_bytes()
        assert data == PackedTrace.capture(iter(units)).to_bytes()
        thawed = PackedTrace.from_bytes(data)
        assert thawed == trace
        assert list(thawed.units()) == units
        assert thawed.to_bytes() == data

    def test_pickle_goes_through_compact_form(self):
        trace = PackedTrace.capture(
            iter(_units(_pair("compress").block, "block", MachineConfig()))
        )
        thawed = pickle.loads(pickle.dumps(trace))
        assert thawed == trace
        # pickle cost ~ serialized size, not per-object overhead
        assert len(pickle.dumps(trace)) < trace.nbytes + 4096

    def test_corrupt_bytes_rejected(self):
        trace = PackedTrace.capture(
            [FetchUnit(0, 8, [DynOp(1, (), uid=0)])]
        )
        data = trace.to_bytes()
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(b"XXXX" + data[4:])
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(data[:-3])
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(data + b"\x00")
        with pytest.raises(SimulationError):
            PackedTrace.from_bytes(data[: _header_size() - 1])


def _header_size() -> int:
    from repro.sim.packed import _HEADER

    return _HEADER.size


# ---------------------------------------------------------------------------
# Bit-identity over the full experiment matrix
# ---------------------------------------------------------------------------


def published_series(tel: Telemetry) -> tuple[list, dict]:
    """A session's sim./cache./bp. series, less the vector kernel's
    bookkeeping counters (``sim.kernel_*``, ``sim.spine_*``), and those
    counters' totals by name."""
    snapshot = tel.metrics.snapshot()
    kernel = {}
    for e in snapshot:
        if e["name"].startswith(("sim.kernel_", "sim.spine_")):
            kernel[e["name"]] = kernel.get(e["name"], 0) + e["value"]
    series = [
        e
        for e in snapshot
        if e["name"].startswith(("sim.", "cache.", "bp."))
        and e["name"] not in kernel
    ]
    return series, kernel


def _matrix_specs():
    """Every unique spec any experiment declares (deduplicated)."""
    plan = build_plan(
        [
            (name, EXPERIMENT_RUNS[name](BENCHES))
            for name in EXPERIMENT_RUNS
        ],
        scale=SCALE,
    )
    return plan.runs


class TestBitIdentity:
    def test_replay_matches_streaming_for_every_experiment_spec(self):
        """The acceptance criterion: replaying one capture shared per
        (benchmark, isa, predictor-config) on the default kernel is
        bit-identical (dataclasses.asdict over the whole SimResult,
        TimingStats included) to a fresh capture replayed by the scalar
        run_packed (simulate_streaming), for every EXPERIMENT_RUNS
        spec."""
        captures = {}
        for spec in _matrix_specs():
            prog = getattr(_pair(spec.benchmark), spec.isa)
            memo = (spec.benchmark, spec.isa, predictor_key(spec.config))
            if memo not in captures:
                captures[memo] = capture_run(prog, spec.isa, spec.config)
            replayed = replay_captured(captures[memo], spec.config)
            streamed = simulate_streaming(prog, spec.isa, spec.config)
            assert dataclasses.asdict(replayed) == dataclasses.asdict(
                streamed
            ), spec

    def test_replay_publishes_same_metrics_as_streaming(self):
        """A shared-capture replay on the default kernel publishes the
        same sim./cache./bp. series as a fresh capture replayed by the
        scalar run_packed. Both publish the predictor snapshot; that the
        snapshot mirrors the live predictor is checked by
        test_predictor_snapshot_publishes_live_predictor_metrics."""
        prog = _pair("compress").conventional
        config = MachineConfig()
        stream_tel = Telemetry()
        simulate_streaming(prog, "conventional", config, telemetry=stream_tel)
        replay_tel = Telemetry()
        cap = capture_run(prog, "conventional", config)
        replay_captured(cap, config, telemetry=replay_tel)

        replayed, replay_kernel = published_series(replay_tel)
        streamed, stream_kernel = published_series(stream_tel)
        assert replayed == streamed
        # Only the default kernel's own bookkeeping differs: it serves
        # the replay, or declines it when numpy is absent.
        assert replay_kernel == (
            {"sim.kernel_runs": 1, "sim.spine_runs": 1}
            if vector.HAVE_NUMPY
            else {"sim.kernel_fallbacks": 1}
        )
        assert stream_kernel == {}

    @pytest.mark.parametrize("isa, series", [("conventional", 3), ("block", 4)])
    def test_predictor_snapshot_publishes_live_predictor_metrics(
        self, isa, series
    ):
        """Replays publish a PredictorSnapshot frozen at capture time in
        place of the live predictor: its series must equal the live
        predictor's own publish after the same capture."""
        make = (
            _conventional_executor if isa == "conventional" else _block_executor
        )
        executor, predictor = make(
            getattr(_pair("compress"), isa), MachineConfig()
        )
        executor.capture()
        live, frozen = Telemetry(), Telemetry()
        predictor.publish(live.metrics, benchmark="compress")
        PredictorSnapshot.of(predictor).publish(
            frozen.metrics, benchmark="compress"
        )
        assert len(live.metrics.snapshot()) == series
        assert frozen.metrics.snapshot() == live.metrics.snapshot()


# ---------------------------------------------------------------------------
# Trace reuse through the engine
# ---------------------------------------------------------------------------


class TestTraceReuse:
    def test_icache_sweep_captures_once_per_isa(self):
        """fig6+fig7 sweep 4 icache configs x 2 ISAs; the functional
        executor must run once per ISA, everything else replays."""
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel
        )
        plan = runner.execute(["fig6", "fig7"])
        assert plan.runs_deduped == 8
        captures = [
            s for s in tel.spans.records if s.name == "sim.capture"
        ]
        assert len(captures) == 2  # one per ISA
        assert tel.metrics.get("plan.trace_captures") == 2
        assert tel.metrics.get("plan.trace_replays") == 8
        assert tel.metrics.get("plan.trace_reuse") == 6

    def test_perfect_bp_shares_no_trace_with_real_bp(self):
        tel = Telemetry()
        runner = SuiteRunner(
            scale=SCALE, benchmarks=["compress"], telemetry=tel
        )
        runner.execute(["fig3", "fig4"])  # real + perfect BP, 2 ISAs
        assert tel.metrics.get("plan.trace_captures") == 4

    def test_predictor_key_ignores_non_predictor_fields(self):
        base = MachineConfig()
        assert predictor_key(base) == predictor_key(
            base.with_icache_kb(16)
        )
        assert predictor_key(base) == predictor_key(
            dataclasses.replace(base, mispredict_penalty=40)
        )
        assert predictor_key(base) != predictor_key(
            base.with_perfect_bp()
        )
        assert predictor_key(base) != predictor_key(
            dataclasses.replace(base, bp_history_bits=8)
        )
