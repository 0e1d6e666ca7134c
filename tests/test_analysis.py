"""Bottleneck-analysis utility tests."""

from repro.exec.block import BlockExecutor
from repro.sim.analysis import analyze_bottlenecks
from repro.sim.config import MachineConfig
from repro.sim.engine import TimingEngine
from repro.sim.predictors import BlockPredictor
from repro.sim.run import capture_run


def test_analysis_matches_engine_exactly(feature_pair):
    """The attribution replay keeps run_packed's timestamps: equal
    cycles and stall totals on both ISAs, real and perfect prediction."""
    for isa in ("conventional", "block"):
        prog = getattr(feature_pair, isa)
        for config in (MachineConfig(), MachineConfig(perfect_bp=True)):
            atomic = isa == "block"
            trace = capture_run(prog, isa, config).trace
            stats = TimingEngine(config, atomic_window=atomic).run_packed(
                trace
            )
            report = analyze_bottlenecks(
                trace.units(), config, atomic_window=atomic
            )
            got = (report.cycles, report.window_stall, report.redirect_stall)
            want = (
                stats.cycles,
                stats.window_stall_cycles,
                stats.redirect_stall_cycles,
            )
            assert got == want, (isa, config.perfect_bp)
            assert report.ops == stats.fetched_ops


def test_analysis_limiter_distribution(feature_pair):
    config = MachineConfig()
    ex = BlockExecutor(
        feature_pair.block,
        predictor=BlockPredictor(feature_pair.block),
        trace=True,
    )
    report = analyze_bottlenecks(ex.units(), config, atomic_window=True)
    total = sum(report.limiters.values())
    assert total == report.ops
    assert set(report.limiters) <= {"dep", "fetch", "window", "fu"}
    summary = report.summary()
    assert "issue-limiters" in summary and "cycles=" in summary


def test_analysis_fetch_bound_stream_attributed_to_fetch():
    from repro.exec.trace import DynOp, FetchUnit

    units = [
        FetchUnit(0x1000 + i * 16, 16, [DynOp(1, (), uid=i)])
        for i in range(200)
    ]
    config = MachineConfig().with_icache_kb(None)
    report = analyze_bottlenecks(units, config, atomic_window=False)
    assert report.limiters["fetch"] > report.ops * 0.9
