"""Vectorized replay kernel (repro.sim.vector): differential
bit-identity against the scalar replayer, property tests for the kernel
primitives, numpy-absent and unsupported-shape fallbacks, and the
cosim/fuzz promotion (an injected off-by-one retirement bug must be
caught and shrink small).

The kernel's contract is *exact* equality — every SimResult field,
every InsightReport counter, every published metric series — against
the scalar ``run_packed``, both on a shared capture and on a fresh
capture (``simulate_streaming``). There is no float tolerance anywhere:
the timing model and the kernel are all-integer (docs/performance.md).
"""

from __future__ import annotations

import dataclasses
import importlib
import sys

import pytest

from repro.core.toolchain import Toolchain
from repro.engine import build_plan
from repro.errors import SimulationError
from repro.exec.trace import DynOp, FetchUnit
from repro.harness import EXPERIMENT_RUNS
from repro.insight import InsightCollector
from repro.obs import Telemetry
from repro.sim import vector
from repro.sim.cache import Cache
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.packed import PackedTrace
from repro.sim.run import (
    VALID_KERNELS,
    ReplayPrep,
    capture_run,
    predictor_key,
    prepare_sweep,
    replay_captured,
    replay_sweep,
    simulate_streaming,
)
from repro.workloads import SUITE

from tests.test_packed_trace import published_series

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

np = pytest.importorskip("numpy") if vector.HAVE_NUMPY else None

SCALE = 0.05
BENCHES = ["compress", "m88ksim"]

_PAIRS: dict[str, object] = {}


def _pair(name: str):
    if name not in _PAIRS:
        _PAIRS[name] = Toolchain().compile(SUITE[name].source(SCALE), name)
    return _PAIRS[name]


def _matrix_specs():
    plan = build_plan(
        [(name, EXPERIMENT_RUNS[name](BENCHES)) for name in EXPERIMENT_RUNS],
        scale=SCALE,
    )
    return plan.runs


needs_numpy = pytest.mark.skipif(
    not vector.HAVE_NUMPY, reason="numpy not installed"
)


# ---------------------------------------------------------------------------
# Differential: fresh capture + run_packed vs shared-capture run_packed
# vs vector kernel
# ---------------------------------------------------------------------------


@needs_numpy
class TestThreeWayDifferential:
    def test_every_experiment_spec_pins_all_three_paths(self):
        """For every EXPERIMENT_RUNS spec: a fresh capture replayed by
        run_packed (simulate_streaming), scalar replay of the shared
        capture and vectorized replay produce asdict-equal SimResults,
        and the InsightReport is identical on all three. The two scalar
        legs run the same loop; they differ in capture sharing."""
        captures = {}
        for spec in _matrix_specs():
            prog = getattr(_pair(spec.benchmark), spec.isa)
            memo = (spec.benchmark, spec.isa, predictor_key(spec.config))
            if memo not in captures:
                captures[memo] = capture_run(prog, spec.isa, spec.config)
            captured = captures[memo]

            s_ins = InsightCollector()
            streamed = simulate_streaming(
                prog, spec.isa, spec.config, insight=s_ins
            )
            p_ins = InsightCollector()
            scalar = replay_captured(
                captured, spec.config, insight=p_ins, kernel="python"
            )
            v_ins = InsightCollector()
            vectored = replay_captured(
                captured, spec.config, insight=v_ins, kernel="numpy"
            )

            want = dataclasses.asdict(streamed)
            assert dataclasses.asdict(scalar) == want, spec
            assert dataclasses.asdict(vectored) == want, spec
            report = s_ins.report(spec.benchmark, spec.isa, spec.config)
            assert p_ins.report(
                spec.benchmark, spec.isa, spec.config
            ) == report, spec
            assert v_ins.report(
                spec.benchmark, spec.isa, spec.config
            ) == report, spec

    def test_warm_replay_stays_exact(self):
        """Second and third replays of one trace are answered by the
        spine memo — they must stay bit-identical."""
        config = MachineConfig()
        for isa in ("conventional", "block"):
            prog = getattr(_pair("compress"), isa)
            captured = capture_run(prog, isa, config)
            want = dataclasses.asdict(
                replay_captured(captured, config, kernel="python")
            )
            for _ in range(3):
                got = replay_captured(captured, config, kernel="numpy")
                assert dataclasses.asdict(got) == want, isa

    def test_vector_replay_publishes_identical_metrics(self):
        """sim./cache./bp. series must not depend on the kernel; only
        the kernel's own bookkeeping counters (sim.kernel_*) differ."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )

        def series(kernel):
            tel = Telemetry()
            replay_captured(captured, config, telemetry=tel, kernel=kernel)
            return published_series(tel)

        numpy_series, numpy_kernel = series("numpy")
        python_series, python_kernel = series("python")
        assert numpy_series == python_series
        assert numpy_kernel == {"sim.kernel_runs": 1, "sim.spine_runs": 1}
        assert python_kernel == {}

    def test_kernel_actually_ran(self):
        """The differential above must exercise the kernel, not the
        fallback: a default-config replay runs vectorized."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        runs = vector.KERNEL_RUNS
        replay_captured(captured, config, kernel="numpy")
        assert vector.KERNEL_RUNS == runs + 1


# ---------------------------------------------------------------------------
# Kernel selection and the numpy-absent fallback
# ---------------------------------------------------------------------------


class TestKernelSelection:
    def test_unknown_kernel_is_rejected(self):
        captured = capture_run(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        with pytest.raises(SimulationError, match="unknown replay kernel"):
            replay_captured(captured, MachineConfig(), kernel="fortran")
        assert set(VALID_KERNELS) == {"auto", "python", "numpy"}

    def test_numpy_kernel_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        captured = capture_run(
            _pair("compress").conventional, "conventional", MachineConfig()
        )
        with pytest.raises(SimulationError, match="numpy is not"):
            replay_captured(captured, MachineConfig(), kernel="numpy")

    def test_auto_mode_without_numpy_silently_uses_python(self):
        """Reload repro.sim.vector with the numpy import failing: the
        import guard must leave a working module whose replay entry
        point declines, and auto replay must fall back silently."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        want = dataclasses.asdict(
            replay_captured(captured, config, kernel="python")
        )
        saved = sys.modules.get("numpy")
        sys.modules["numpy"] = None  # import numpy now raises ImportError
        try:
            importlib.reload(vector)
            assert not vector.HAVE_NUMPY
            fallbacks = vector.FALLBACKS
            got = replay_captured(captured, config)  # kernel="auto"
            assert dataclasses.asdict(got) == want
            assert vector.FALLBACKS == fallbacks + 1
            assert vector.KERNEL_RUNS == 0  # fresh module, no vector runs
        finally:
            if saved is None:
                del sys.modules["numpy"]
            else:
                sys.modules["numpy"] = saved
            importlib.reload(vector)
        assert vector.HAVE_NUMPY == (saved is not None)

    def test_sweep_without_numpy_falls_back_to_grouped_scalar(self):
        """Reload repro.sim.vector with numpy absent: prepare_sweep
        declines (no shared precompute to run) and replay_sweep still
        replays the whole batch via the scalar path, bit-identical to
        per-config scalar replay."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        configs = [config.with_icache_kb(None), config.with_icache_kb(16)]
        want = [
            dataclasses.asdict(replay_captured(captured, c, kernel="python"))
            for c in configs
        ]
        saved = sys.modules.get("numpy")
        sys.modules["numpy"] = None  # import numpy now raises ImportError
        try:
            importlib.reload(vector)
            assert not vector.HAVE_NUMPY
            assert prepare_sweep(captured, configs) == 0
            got = replay_sweep(captured, configs)  # kernel="auto"
            assert [dataclasses.asdict(r) for r in got] == want
        finally:
            if saved is None:
                del sys.modules["numpy"]
            else:
                sys.modules["numpy"] = saved
            importlib.reload(vector)
        assert vector.HAVE_NUMPY == (saved is not None)

    def test_cli_kernel_numpy_without_numpy_exits_2(self, monkeypatch, capsys):
        from repro.harness.cli import main

        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        assert main(
            ["perf", "--benchmarks", "compress", "--kernel", "numpy"]
        ) == 2
        assert main(["run", "fig3", "--kernel", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "numpy is not importable" in err

    def test_perf_vector_column_presence(self):
        """kernel='python' skips the vector_s column; auto (with numpy)
        emits vector_s + vector_match and the vector totals."""
        from repro.harness.perf import benchmark_suite
        from repro.obs.schema import bench_document_errors

        doc = benchmark_suite(["compress"], SCALE, kernel="python")
        assert bench_document_errors(doc) == []
        assert all("vector_s" not in e for e in doc["benchmarks"])
        assert "vector_s" not in doc["totals"]
        # The sweep columns ride every kernel: forced-python runs both
        # legs through the grouped scalar fallback.
        for e in doc["benchmarks"]:
            assert e["sweep_points"] == 4
            assert e["sweep_match"] is True
        for key in ("sweep_s", "sweep_per_config_s", "speedup_sweep"):
            assert key in doc["totals"]
        if vector.HAVE_NUMPY:
            doc = benchmark_suite(["compress"], SCALE, kernel="auto")
            assert bench_document_errors(doc) == []
            for e in doc["benchmarks"]:
                assert e["vector_s"] >= 0
                assert e["vector_match"] is True
                assert e["sweep_match"] is True
            for key in ("vector_s", "speedup_vector", "replay_vs_vector",
                        "speedup_sweep"):
                assert key in doc["totals"]
            assert doc["totals"]["stats_match"] is True


class TestReplayPrep:
    """The kernel's precompute is owned by the caller's sweep and bound
    to the trace it was built for."""

    @pytest.mark.parametrize("kernel", VALID_KERNELS)
    def test_prep_of_another_trace_is_rejected(self, kernel):
        if kernel == "numpy" and not vector.HAVE_NUMPY:
            pytest.skip("numpy not installed")
        config = MachineConfig()
        a = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        b = capture_run(_pair("compress").block, "block", config)
        prep = ReplayPrep(a.trace)
        replay_captured(a, config, kernel=kernel, prep=prep)
        with pytest.raises(SimulationError, match="another trace"):
            replay_captured(b, config, kernel=kernel, prep=prep)
        with pytest.raises(SimulationError, match="another trace"):
            prepare_sweep(b, [config], kernel=kernel, prep=prep)
        # an equal but distinct trace object is another trace too
        copy = dataclasses.replace(
            a, trace=PackedTrace.from_bytes(a.trace.to_bytes())
        )
        with pytest.raises(SimulationError, match="another trace"):
            replay_captured(copy, config, kernel=kernel, prep=prep)

    @needs_numpy
    def test_spine_counters_pin_an_icache_sweep(self):
        """sim.spine_runs / sim.spine_memo_hits count every kernel
        replay once, per ISA: on compress, the perfect icache runs its
        own spine, and the 32 and 64 KB icaches miss exactly like the
        16 KB one per unit, so they reuse its run."""
        config = MachineConfig()
        configs = [config.with_icache_kb(None)] + [
            config.with_icache_kb(kb) for kb in (16, 32, 64)
        ]
        tel = Telemetry()
        for isa in ("conventional", "block"):
            program = getattr(_pair("compress"), isa)
            captured = capture_run(program, isa, config)
            replay_sweep(captured, configs, telemetry=tel, kernel="numpy")
        for isa in ("conventional", "block"):
            assert tel.metrics.get("sim.spine_runs", isa=isa) == 2
            assert tel.metrics.get("sim.spine_memo_hits", isa=isa) == 2

    @needs_numpy
    def test_spine_counters_skip_disabled_telemetry(self, monkeypatch):
        """With telemetry off the spine counters are not even handed to
        Telemetry.count: the disabled fast path pays one flag test."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        counted = []
        monkeypatch.setattr(
            Telemetry, "count",
            lambda self, name, *args, **labels: counted.append(name),
        )
        prep = ReplayPrep(captured.trace)
        for _ in range(2):
            replay_captured(
                captured, config, Telemetry(enabled=False),
                kernel="numpy", prep=prep,
            )
        assert len(prep.runs) == 1  # the second replay was a memo hit
        assert counted == ["sim.kernel_runs"] * 2


# ---------------------------------------------------------------------------
# Property tests: kernel primitives vs small scalar references
# ---------------------------------------------------------------------------


@needs_numpy
class TestPrimitiveProperties:
    @given(
        lines=st.lists(st.integers(0, 20), min_size=0, max_size=80),
        num_sets=st.sampled_from([1, 2, 4]),
        assoc=st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_lru_hits_matches_the_real_cache(self, lines, num_sets, assoc):
        """The hit/miss vector must agree access-by-access with the
        scalar Cache model the engine uses."""
        line_bytes = 64
        cache = Cache(
            CacheConfig(num_sets * assoc * line_bytes, assoc, line_bytes)
        )
        want = [cache.access_line(line) for line in lines]
        got = vector.stack_distances(lines, num_sets, assoc) < assoc
        assert got.tolist() == want
        assert cache.accesses == len(lines)
        assert cache.misses == len(lines) - int(got.sum())

    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_span_lines_match_nested_loops(self, spans):
        first = [f for f, _ in spans]
        last = [f + extra for f, extra in spans]
        flat, starts = vector.span_lines(first, last)
        want = [
            line for f, l in zip(first, last) for line in range(f, l + 1)
        ]
        assert flat.tolist() == want
        offsets = [0]
        for f, l in zip(first, last):
            offsets.append(offsets[-1] + (l - f + 1))
        assert starts.tolist() == offsets[:-1]


# ---------------------------------------------------------------------------
# Sweep batching: stack distances + batched replay equality
# ---------------------------------------------------------------------------


@needs_numpy
class TestStackDistances:
    """The all-associativity primitive the sweep precompute rests on,
    cross-checked against the listwise move-to-front oracle and the
    real Cache across a (num_sets, assoc) matrix — including assoc=1
    (direct-mapped sets) and num_sets=1 (fully associative)."""

    @given(
        lines=st.lists(st.integers(0, 20), min_size=0, max_size=80),
        num_sets=st.sampled_from([1, 2, 4, 8]),
        max_assoc=st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_one_saturated_vector_decides_every_smaller_assoc(
        self, lines, num_sets, max_assoc
    ):
        """dist saturated at cap C classifies hits exactly for every
        assoc <= C: dist < assoc iff the per-assoc oracle hits."""
        dist = vector.stack_distances(lines, num_sets, max_assoc)
        for assoc in range(1, max_assoc + 1):
            want = vector.lru_hits_listwise(lines, num_sets, assoc)
            assert (dist < assoc).tolist() == want.tolist(), assoc

    @given(
        lines=st.lists(st.integers(0, 20), min_size=0, max_size=80),
        num_sets=st.sampled_from([1, 2, 4]),
        assoc=st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_distances_agree_with_the_real_cache(
        self, lines, num_sets, assoc
    ):
        line_bytes = 64
        cache = Cache(
            CacheConfig(num_sets * assoc * line_bytes, assoc, line_bytes)
        )
        want = [cache.access_line(line) for line in lines]
        dist = vector.stack_distances(lines, num_sets, assoc)
        assert (dist < assoc).tolist() == want
        assert vector.lru_hits_listwise(
            lines, num_sets, assoc
        ).tolist() == want

    @given(
        lines=st.lists(st.integers(0, 12), min_size=0, max_size=60),
        num_sets=st.sampled_from([1, 2, 4]),
        assocs=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_cached_geometry_vector_is_query_order_independent(
        self, lines, num_sets, assocs
    ):
        """_geom_distances' per-prep cache (cap widening plus the
        floor-guarded synthesized never-evict vectors) must classify
        exactly like the oracle for every queried associativity, in any
        query order."""
        prep = vector.ReplayPrep(PackedTrace.empty())
        arr = np.array(lines, dtype=np.int64)
        for assoc in assocs:
            dist = vector._geom_distances(
                prep, "icdist", arr, 64, num_sets, assoc
            )
            want = vector.lru_hits_listwise(lines, num_sets, assoc)
            assert (dist < assoc).tolist() == want.tolist(), assoc


@needs_numpy
class TestSweepBatchedReplay:
    def test_every_sweep_group_matches_per_config_and_streaming(self):
        """Over every EXPERIMENT_RUNS trace group (the fig6/fig7 icache
        sweeps included): batched replay_sweep and cold one-at-a-time
        vector replay vs a fresh capture replayed by run_packed
        (simulate_streaming) — asdict-equal SimResults and identical
        InsightReports, no tolerance."""
        groups: dict = {}
        for spec in _matrix_specs():
            memo = (spec.benchmark, spec.isa, predictor_key(spec.config))
            groups.setdefault(memo, []).append(spec)
        for (bench, isa, _), specs in groups.items():
            prog = getattr(_pair(bench), isa)
            captured = capture_run(prog, isa, specs[0].config)
            configs = [spec.config for spec in specs]
            sweep_ins = [InsightCollector() for _ in specs]
            swept = replay_sweep(
                captured, configs, insights=sweep_ins, kernel="numpy"
            )
            for spec, batched, b_ins in zip(specs, swept, sweep_ins):
                cold = dataclasses.replace(
                    captured,
                    trace=PackedTrace.from_bytes(captured.trace.to_bytes()),
                )
                p_ins = InsightCollector()
                single = replay_captured(
                    cold, spec.config, insight=p_ins, kernel="numpy"
                )
                s_ins = InsightCollector()
                streamed = simulate_streaming(
                    prog, isa, spec.config, insight=s_ins
                )
                want = dataclasses.asdict(streamed)
                assert dataclasses.asdict(single) == want, spec
                assert dataclasses.asdict(batched) == want, spec
                report = s_ins.report(bench, isa, spec.config)
                assert p_ins.report(bench, isa, spec.config) == report, spec
                assert b_ins.report(bench, isa, spec.config) == report, spec

    def test_prepare_sweep_counts_batched_configs(self):
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        configs = [config.with_icache_kb(None)] + [
            config.with_icache_kb(kb) for kb in (16, 32, 64)
        ]
        tel = Telemetry()
        assert prepare_sweep(captured, configs, telemetry=tel) > 0
        assert tel.metrics.get("sweep.configs_batched") == 4

    def test_sweep_counts_each_replay_as_kernel_run_or_fallback(self):
        """A telemetry-enabled sweep counts every replay exactly once:
        sim.kernel_runs when the kernel serves it (suite traces, and the
        empty-trace shortcut), sim.kernel_fallbacks when it declines."""
        config = MachineConfig()
        configs = [config.with_icache_kb(None)] + [
            config.with_icache_kb(kb) for kb in (16, 32, 64)
        ]
        cases = [
            (capture_run(getattr(_pair("compress"), isa), isa, config),
             len(configs))
            for isa in ("conventional", "block")
        ]
        cases.append((_hand_captured("conventional", []), len(configs)))
        mixed = [
            FetchUnit(0, 16, _ops(0, [1, 2]), atomic=True),
            FetchUnit(64, 8, _ops(2, [3])),
        ]
        cases.append((_hand_captured("block", mixed), 0))
        for captured, served in cases:
            tel = Telemetry()
            replay_sweep(captured, configs, telemetry=tel)
            runs = tel.metrics.total("sim.kernel_runs")
            fallbacks = tel.metrics.total("sim.kernel_fallbacks")
            assert runs + fallbacks == len(configs), captured.name
            assert runs == served, captured.name

    def test_identical_miss_vectors_share_one_spine_run(self, monkeypatch):
        """The spine memo is keyed by content: two icache geometries
        whose per-unit miss vectors coincide run the spine once, a
        geometry with a different vector (perfect icache) runs its own,
        and every result stays asdict-equal to the scalar replayer."""
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        configs = [
            config.with_icache_kb(16),
            config.with_icache_kb(64),
            config.with_icache_kb(None),
        ]
        prep = vector.ReplayPrep(captured.trace)
        keys = [
            vector._icache_prep(prep, Cache(c.icache), 64, False)["miss_key"]
            for c in configs[:2]
        ]
        assert keys[0] == keys[1]  # the premise: same per-unit misses
        calls = []
        spine = vector._conv_window_pass

        def counted(*args):
            calls.append(args)
            return spine(*args)

        monkeypatch.setattr(vector, "_conv_window_pass", counted)
        got = replay_sweep(captured, configs, kernel="numpy")
        assert len(calls) == 2
        want = [
            dataclasses.asdict(replay_captured(captured, c, kernel="python"))
            for c in configs
        ]
        assert [dataclasses.asdict(r) for r in got] == want

    def test_equal_miss_vectors_of_different_line_sizes_stay_apart(self):
        """Per-unit miss counts alone do not fix the fetch schedule: a
        32-byte-line and a 64-byte-line icache that miss identically
        per unit still fetch different line counts, so they must not
        share a fetch prep or a spine run."""
        captured = _hand_captured(
            "conventional",
            [
                FetchUnit(addr, size, [DynOp(1, (), uid=uid)])
                for uid, (addr, size) in enumerate(
                    [(176, 48), (144, 96), (192, 48)]
                )
            ],
        )
        configs = [
            dataclasses.replace(MachineConfig(), icache=CacheConfig(*geom))
            for geom in ((128, 1, 32), (64, 1, 64))
        ]
        prep = vector.ReplayPrep(captured.trace)
        keys = [
            vector._icache_prep(
                prep, Cache(c.icache), c.icache.line_bytes, False
            )["miss_key"]
            for c in configs
        ]
        assert keys[0] == keys[1]  # the premise: same per-unit misses
        got = replay_sweep(captured, configs, kernel="numpy")
        want = [
            dataclasses.asdict(replay_captured(captured, c, kernel="python"))
            for c in configs
        ]
        assert [dataclasses.asdict(r) for r in got] == want

    def test_sweep_insight_length_mismatch_is_rejected(self):
        config = MachineConfig()
        captured = capture_run(
            _pair("compress").conventional, "conventional", config
        )
        with pytest.raises(SimulationError, match="insight collectors"):
            replay_sweep(captured, [config], insights=[None, None])


# ---------------------------------------------------------------------------
# Named fallbacks: every stream shape the kernel declines
# ---------------------------------------------------------------------------


def _hand_captured(isa, units):
    """A real capture of *isa* with its trace swapped for *units*."""
    captured = capture_run(
        getattr(_pair("compress"), isa), isa, MachineConfig()
    )
    return dataclasses.replace(captured, trace=PackedTrace.capture(units))


def _ops(first_uid, lats):
    """A dependence chain of ops with consecutive uids."""
    return [
        DynOp(lat, (uid - 1,) if uid > first_uid else (), uid=uid)
        for uid, lat in enumerate(lats, first_uid)
    ]


@needs_numpy
class TestKernelFallbacks:
    """Each decline is counted under its reason label, and the scalar
    replayer that takes over gives the kernel="python" result."""

    def _replay_both(self, captured):
        """(python result, auto result, fallback metric series)."""
        want = dataclasses.asdict(
            replay_captured(captured, MachineConfig(), kernel="python")
        )
        tel = Telemetry()
        fallbacks = vector.FALLBACKS
        got = replay_captured(captured, MachineConfig(), telemetry=tel)
        assert vector.FALLBACKS == fallbacks + 1
        series = {
            s.labels["reason"]: s.value
            for s in tel.metrics.series("sim.kernel_fallbacks")
        }
        return want, dataclasses.asdict(got), series

    def test_no_numpy(self, monkeypatch):
        captured = _hand_captured(
            "conventional", [FetchUnit(0, 8, _ops(0, [1, 2]))]
        )
        monkeypatch.setattr(vector, "_np", None)
        want, got, series = self._replay_both(captured)
        assert got == want
        assert series == {"no_numpy": 1}

    def test_bad_resolve(self):
        """A mispredicted unit whose resolve index is past its ops: the
        scalar replayer rejects the stream, so both kernels raise the
        same error after the kernel declines."""
        captured = _hand_captured(
            "conventional",
            [FetchUnit(0, 8, _ops(0, [1, 1]), mispredict=True,
                       resolve_index=5)],
        )
        with pytest.raises(SimulationError) as python_err:
            replay_captured(captured, MachineConfig(), kernel="python")
        tel = Telemetry()
        with pytest.raises(SimulationError) as auto_err:
            replay_captured(captured, MachineConfig(), telemetry=tel)
        assert str(auto_err.value) == str(python_err.value)
        assert tel.metrics.get(
            "sim.kernel_fallbacks", reason="bad_resolve"
        ) == 1

    def test_mixed_atomic(self):
        captured = _hand_captured(
            "block",
            [
                FetchUnit(0, 16, _ops(0, [1, 2]), atomic=True),
                FetchUnit(64, 8, _ops(2, [3])),
            ],
        )
        want, got, series = self._replay_both(captured)
        assert got == want
        assert series == {"mixed_atomic": 1}

    def test_conventional_shape(self):
        """An empty fetch unit in a conventional stream."""
        captured = _hand_captured(
            "conventional",
            [FetchUnit(0, 8, _ops(0, [1, 2])), FetchUnit(64, 0, [])],
        )
        want, got, series = self._replay_both(captured)
        assert got == want
        assert series == {"conventional_shape": 1}


# ---------------------------------------------------------------------------
# Promotion into repro.check: cosim oracle + fuzz shrinking
# ---------------------------------------------------------------------------


def _inject_late_retire(monkeypatch):
    """Patch an off-by-one into both timing spines: every unit retires
    one cycle late, so the run ends one cycle late too."""
    for name in ("_conv_window_pass", "_block_pass"):
        spine = getattr(vector, name)

        def late(*args, spine=spine):
            (completes, unit_retire, wstall, rstall, next_fetch, max_cycle,
             gap, wd) = spine(*args)
            if unit_retire is not None:
                unit_retire = [r + 1 for r in unit_retire]
            return (completes, unit_retire, wstall, rstall, next_fetch,
                    max_cycle + 1, gap, wd)

        monkeypatch.setattr(vector, name, late)


@needs_numpy
class TestCosimPromotion:
    CLEAN = (
        "int main() { int i; int acc; acc = 0; "
        "for (i = 0; i < 24; i = i + 1) { acc = acc + i; "
        "if (acc > 40) { acc = acc - 7; } } print_int(acc); return 0; }"
    )

    def test_kernel_runs_as_third_implementation(self):
        """A clean program passes the oracle with the vector kernel
        replaying every timed configuration."""
        from repro.check import CosimChecker

        runs = vector.KERNEL_RUNS
        report = CosimChecker().check_source(self.CLEAN, "vk-clean")
        assert report.ok, report.summary()
        assert report.configurations == 6
        # one vector replay per (enlarge, machine, isa) combination
        assert vector.KERNEL_RUNS >= runs + 12

    def test_injected_off_by_one_wavefront_bug_is_caught_and_shrinks(
        self, monkeypatch, tmp_path
    ):
        """Retire every unit one cycle late in both timing spines and
        the fuzzer must (a) flag it as cosim.kernel_divergence and (b)
        delta-debug the reproducer to <= 15 lines."""
        from repro.check import CosimChecker, Fuzzer

        _inject_late_retire(monkeypatch)
        fuzzer = Fuzzer(
            checker=CosimChecker(),
            corpus_dir=str(tmp_path),
            shrink=True,
        )
        result = fuzzer.run(3, seed=3)
        assert not result.ok, "injected kernel bug escaped the oracle"
        for failure in result.failures:
            invariants = {v.invariant for v in failure.violations}
            assert "cosim.kernel_divergence" in invariants, invariants
            assert failure.reproducer_lines <= 15, failure.reproducer

    def test_insight_divergence_is_its_own_finding(self, monkeypatch):
        """A bug that skews per-unit analytics is reported as
        cosim.insight_divergence even where SimResult fields agree —
        here both fire, which pins the invariant names."""
        from repro.check import CosimChecker

        _inject_late_retire(monkeypatch)
        report = CosimChecker().check_source(self.CLEAN, "vk-buggy")
        invariants = {v.invariant for v in report.violations}
        assert "cosim.kernel_divergence" in invariants
        assert "cosim.insight_divergence" in invariants
