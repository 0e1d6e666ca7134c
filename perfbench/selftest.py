"""Self-test of the benchmark's checks, at a tiny scale, in-process.

Drives the same code a timed child runs (``child.run_once``: prepare,
body, checks, counters, tracer) and the same verdict ``run.py`` prints,
on workloads shrunk through their constructor arguments, and asserts
that the checks can fail:

* a correct reference passes, a corrupted one raises the fail rate
  above 0 and gives a non-zero exit;
* a sweep whose synthesis is answered from the in-process memo trips
  the cold-path guard;
* replaying replay_warm twice in one process on the same cache trips
  the cold-path guard;
* a traced run's layer self times plus ``other_s`` tile its wall time.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Exit code 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.scenario import synth  # noqa: E402

#: the synthesis memo, before any wrapper hides its cache_clear
SYNTH_MEMO = synth.synthesize

TINY_SCALE = 0.05
TINY_BENCHMARKS = ("compress",)
TINY_GRID = {
    "bb_sizes": (8,), "biases": (0.8,), "hot_kb": (4,), "icache_kb": (4, 16),
}


class SelfTest:
    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)

    def expect_verdict(self, record: dict, correct: bool, what: str) -> None:
        line = run.verdict(record["checks"])
        rate = line["failed"] / line["attempted"]
        exit_code = 0 if line["correct"] else 1
        if correct:
            self.expect(rate == 0 and exit_code == 0,
                        f"{what}: fail_rate 0, exit 0")
        else:
            self.expect(rate > 0 and exit_code != 0,
                        f"{what}: fail_rate {rate:.2f} > 0, exit {exit_code}")

    def reference_pair(self, name: str, good_doc: dict, corrupt) -> tuple:
        """(good, corrupted) reference files made from *good_doc*."""
        good = self.scratch / f"{name}_good.json"
        good.write_text(json.dumps(good_doc))
        bad_doc = json.loads(json.dumps(good_doc))
        corrupt(bad_doc)
        bad = self.scratch / f"{name}_bad.json"
        bad.write_text(json.dumps(bad_doc))
        return good, bad

    def scenario_sweep(self) -> None:
        def sweep(reference=None):
            SYNTH_MEMO.cache_clear()  # each run synthesizes cold
            return workloads.ScenarioSweep(
                self.scratch, 0, reference, grid=TINY_GRID, scale=TINY_SCALE
            )

        def corrupt(doc):
            doc["cells"][0]["results"][0]["block_cycles"] += 1

        good, bad = self.reference_pair(
            "sweep", workloads.roundtrip(sweep().body()), corrupt
        )
        record = child.run_once(sweep(good), trace=True)
        self.expect_verdict(record, True, "scenario_sweep, good reference")
        layers, tiling = run.per_layer(record, record["wall_s"])
        self.expect(tiling[0][1], "traced scenario_sweep: self times tile")
        self.expect(
            layers["core.compiles"] > 0 and layers["sim.captures"] > 0,
            "traced scenario_sweep counts compiles and captures",
        )
        record = child.run_once(sweep(bad), trace=False)
        self.expect_verdict(record, False, "scenario_sweep, bad reference")
        # a second run without clearing the memo synthesizes from memo
        workload = sweep(good)
        workload.body()
        record = child.run_once(workload, trace=False)
        self.expect_verdict(record, False, "scenario_sweep, memoized synthesis")

    def replay_warm(self) -> None:
        warm = self.scratch / "warm"
        workloads.fill_warm_cache(warm, TINY_SCALE, TINY_BENCHMARKS)
        workload = workloads.ReplayWarm(
            self.scratch, 1, warm, TINY_SCALE, TINY_BENCHMARKS
        )
        record = child.run_once(workload, trace=False)
        self.expect_verdict(record, True, "replay_warm, first replay")
        # the second replay reuses the cache the first one wrote to
        workload.prepare = lambda: None
        record = child.run_once(workload, trace=False)
        self.expect_verdict(record, False, "replay_warm, second in-process")
        guard = [c for c in record["checks"] if c[0] == "cold_path"]
        self.expect(not guard[0][1], "the cold-path guard is what failed")


def main() -> int:
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-",
                                    dir=ROOT / ".bench_run"))
    try:
        test = SelfTest(scratch)
        test.scenario_sweep()
        test.replay_warm()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if test.failures:
        print(f"{len(test.failures)} self-test expectation(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
