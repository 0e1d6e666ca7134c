"""The benchmark workloads, as run inside one cold child process.

Each workload has an untimed ``prepare`` (a fresh artifact-cache copy),
a timed ``body`` that drives the program through its public functions,
and a ``check`` run after the timed region. A check compares outputs
against references that never come from the run under test, and the
cold-path guard turns a run that was served from a cache or memo into
a failed run instead of a fast one.

The sizes are constructor arguments so that ``selftest.py`` can drive
the same code at a tiny scale; ``child.py`` uses the defaults.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
from pathlib import Path

from repro.engine.cache import ArtifactCache
from repro.engine.core import ExperimentEngine
from repro.engine.plan import build_plan
from repro.engine.spec import ISAS, RunSpec
from repro.sim.config import CacheConfig, MachineConfig
from repro.workloads import SUITE

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: scale of the warm design-space sweep (verify-paper's default)
WARM_SCALE = 0.35

#: scenario_sweep grid: ``bsisa scenarios sweep``'s default grid with the
#: middle bias dropped (12 cells, each replayed at 3 icache sizes), so
#: one cold run fits the benchmark's time budget on a 2-core host
SWEEP_GRID = {
    "bb_sizes": (3, 8, 16),
    "biases": (0.6, 0.95),
    "hot_kb": (4, 16),
    "icache_kb": (4, 16, 64),
}


def roundtrip(doc):
    """*doc* as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(doc, sort_keys=True))


class Check:
    """Outcomes of a run's output checks (feeds attempted/failed)."""

    def __init__(self):
        self.results: list[list] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append([name, bool(ok), "" if ok else detail])


# ---------------------------------------------------------------------------
# replay_warm: a design-space sweep over a pre-filled artifact cache
# ---------------------------------------------------------------------------


def warm_engine(cache_dir: Path, scale: float, benchmarks) -> ExperimentEngine:
    return ExperimentEngine(
        scale=scale,
        benchmarks=list(benchmarks),
        cache=ArtifactCache(cache_dir),
        jobs=1,
    )


def fill_warm_cache(cache_dir: Path, scale: float = WARM_SCALE,
                    benchmarks=tuple(SUITE)) -> None:
    """Set-up of replay_warm: compile and capture every (benchmark, ISA)
    under the default predictor, storing both in *cache_dir*."""
    engine = warm_engine(cache_dir, scale, benchmarks)
    for name in benchmarks:
        for isa in ISAS:
            engine.captured_run(RunSpec(name, isa, MachineConfig()))


def draw_configs(seed: int) -> list[MachineConfig]:
    """Twelve distinct machine configs sharing the default predictor:
    six icache geometries (batched through stack distances) and six
    window/dcache/L2 variants (which are not)."""
    rng = random.Random(seed)
    icache = rng.sample(
        [(kb, assoc) for kb in (4, 8, 16, 32, 128) for assoc in (1, 2, 4, 8)],
        6,
    )
    other = rng.sample(
        [
            (window, dcache_kb, l2)
            for window in (256, 384, 768)
            for dcache_kb in (8, 32)
            for l2 in (4, 10)
        ],
        6,
    )
    default = MachineConfig()
    return [
        dataclasses.replace(default, icache=CacheConfig(kb * 1024, assoc))
        for kb, assoc in icache
    ] + [
        dataclasses.replace(
            default,
            window_ops=window,
            dcache=CacheConfig(dcache_kb * 1024, 4),
            l2_latency=l2,
        )
        for window, dcache_kb, l2 in other
    ]


class ReplayWarm:
    """``ExperimentEngine.execute`` over a seeded config draw, from a
    fresh copy of a cache that already holds every compile and trace."""

    name = "replay_warm"
    cells = 0

    def __init__(self, scratch: Path, seed: int, warm_cache: Path,
                 scale: float = WARM_SCALE, benchmarks=tuple(SUITE)):
        self.warm_cache = warm_cache
        self.cache_dir = scratch / "cache"
        self.scale = scale
        self.benchmarks = list(benchmarks)
        configs = draw_configs(seed)
        specs = [
            RunSpec(name, isa, config)
            for config in configs
            for name in self.benchmarks
            for isa in ISAS
        ]
        self.plan = build_plan([(self.name, specs)], scale=scale)
        #: the config whose results are re-checked on the python kernel
        self.checked = random.Random(seed + 1).choice(configs)

    def prepare(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.copytree(self.warm_cache, self.cache_dir)

    def body(self):
        engine = warm_engine(self.cache_dir, self.scale, self.benchmarks)
        return engine.execute(self.plan)

    def check(self, results, counters, check: Check) -> None:
        from repro.sim.run import replay_captured

        runs = len(self.plan.runs)
        traces = len(self.benchmarks) * len(ISAS)
        hits = dict(counters.cache_hits)
        check(
            "cold_path",
            hits == {"trace": traces}
            and counters.cache_misses == runs
            and counters.replays == runs,
            f"cache hits {hits} (want {{'trace': {traces}}}), "
            f"{counters.cache_misses} misses and {counters.replays} "
            f"replays (want {runs} each)",
        )
        # reference: the scalar kernel on traces read back from the
        # set-up cache, not the objects the timed run replayed
        engine = warm_engine(self.warm_cache, self.scale, self.benchmarks)
        for name in self.benchmarks:
            for isa in ISAS:
                spec = RunSpec(name, isa, self.checked)
                want = replay_captured(
                    engine.captured_run(spec), self.checked, kernel="python"
                )
                check(
                    f"python_kernel[{name}/{isa}]",
                    dataclasses.asdict(want)
                    == dataclasses.asdict(results[spec]),
                    f"{name}/{isa}: SimResult differs from the "
                    f"python-kernel replay",
                )

    def cache_dirs(self) -> list[Path]:
        return [self.cache_dir]


# ---------------------------------------------------------------------------
# scenario_sweep: synthesis + compile + capture over an axis grid
# ---------------------------------------------------------------------------


class ScenarioSweep:
    """``run_sweep`` over an axis grid with the seed as the synthesis
    seed, as ``bsisa scenarios sweep --seed N --bias 0.6 0.95`` runs it;
    it never touches the artifact cache."""

    name = "scenario_sweep"

    def __init__(self, scratch: Path, seed: int, reference: Path | None = None,
                 grid=None, scale: float = 1.0):
        self.seed = seed
        self.grid = dict(grid or SWEEP_GRID)
        self.scale = scale
        self.cells = (
            len(self.grid["bb_sizes"]) * len(self.grid["biases"])
            * len(self.grid["hot_kb"])
        )
        reference = reference or (
            REFERENCE_DIR / f"scenario_sweep_seed{seed}.json"
        )
        self.reference = (
            json.loads(reference.read_text()) if reference.is_file() else None
        )

    def prepare(self) -> None:
        pass

    def body(self):
        from repro.scenario.sweep import run_sweep

        return run_sweep(seed=self.seed, scale=self.scale, **self.grid)

    def check(self, doc, counters, check: Check) -> None:
        from repro.core.toolchain import Toolchain
        from repro.obs.schema import scenario_document_errors
        from repro.scenario.spec import ScenarioSpec
        from repro.scenario.synth import generate_source, synthesize
        from repro.sim.run import simulate_streaming

        replays = self.cells * len(ISAS) * len(self.grid["icache_kb"])
        hits = sum(counters.cache_hits.values())
        check(
            "cold_path",
            hits == 0
            and counters.cache_misses == 0
            and counters.replays == replays
            and counters.measures >= self.cells,
            f"{hits} cache hits, {counters.cache_misses} misses (want 0), "
            f"{counters.replays} replays (want {replays}), "
            f"{counters.measures} synthesis attempts (want >= {self.cells})",
        )
        doc = roundtrip(doc)
        errors = scenario_document_errors(doc)
        check("schema", not errors, "; ".join(errors[:3]))
        if self.reference is not None:
            check(
                "reference",
                doc == self.reference,
                "sweep document differs from the stored reference",
            )
        # independent timing path: re-simulate one seeded point with the
        # streaming engine (no packed trace, no replay kernel)
        rng = random.Random(self.seed)
        cell = rng.choice(doc["cells"])
        point = rng.choice(cell["results"])
        t = cell["target"]
        spec = ScenarioSpec(
            bb_size=t["bb_size"], bias=t["bias"],
            hot_bytes=t["hot_bytes"], seed=t["seed"],
        )
        source = generate_source(spec, synthesize(spec).params, self.scale)
        pair = Toolchain().compile(source, spec.family_name)
        config = MachineConfig().with_icache_kb(point["icache_kb"])
        for isa in ISAS:
            got = simulate_streaming(getattr(pair, isa), isa, config).cycles
            check(
                f"streaming[{cell['family']}/{point['icache_kb']}KB/{isa}]",
                got == point[f"{isa}_cycles"],
                f"streaming {isa} cycles {got} != swept "
                f"{point[f'{isa}_cycles']}",
            )

    def cache_dirs(self) -> list[Path]:
        return []
