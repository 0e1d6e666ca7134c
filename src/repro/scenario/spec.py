"""Scenario axis targets and realized-axis reports.

A :class:`ScenarioSpec` names a point in the paper's three-axis
workload space (docs/scenarios.md):

* ``bb_size`` — target mean *static* basic-block size of the
  conventional image, in machine ops (paper Figs. 3-4: the BS-ISA's
  fetch-rate advantage grows with block size);
* ``bias`` — target taken-probability of the hot, data-dependent
  branches (Fig. 5: predictability bounds how often enlarged blocks
  squash);
* ``hot_bytes`` — target hot-region code footprint in bytes (Figs.
  6-7: where the expanded block-structured image spills the icache).

Specs are frozen, hashable, and carry their own ``seed``, so a spec is
the complete reproducibility token: synthesis is a pure function of the
spec (plus the synthesis-budget constants in :mod:`repro.scenario.synth`).

Because synthesis can only steer the generator, every family ships with
a :class:`RealizedAxes` report of what the compiled program actually
measured — targets are intents, realized values are facts. Consumers
(benchmarks, docs, CI) must read the measured values from the artifact,
never hardcode them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.scenario.synth import Attempt

#: inclusive bounds for each axis knob (also quoted in errors).
BB_SIZE_RANGE = (2, 24)
BIAS_RANGE = (0.5, 0.99)
HOT_BYTES_RANGE = (512, 65536)

FAMILY_PREFIX = "synthetic/"


@dataclass(frozen=True)
class ScenarioSpec:
    """A frozen, hashable point in the three-axis workload space."""

    bb_size: int
    bias: float
    hot_bytes: int
    seed: int = 0

    def __post_init__(self):
        lo, hi = BB_SIZE_RANGE
        if not (isinstance(self.bb_size, int) and lo <= self.bb_size <= hi):
            raise ConfigError(
                f"ScenarioSpec.bb_size={self.bb_size!r} outside allowed "
                f"range {lo}..{hi}"
            )
        lo, hi = BIAS_RANGE
        if not (
            isinstance(self.bias, (int, float))
            and not isinstance(self.bias, bool)
            and lo <= self.bias <= hi
        ):
            raise ConfigError(
                f"ScenarioSpec.bias={self.bias!r} outside allowed range "
                f"{lo}..{hi}"
            )
        lo, hi = HOT_BYTES_RANGE
        if not (
            isinstance(self.hot_bytes, int) and lo <= self.hot_bytes <= hi
        ):
            raise ConfigError(
                f"ScenarioSpec.hot_bytes={self.hot_bytes!r} outside "
                f"allowed range {lo}..{hi}"
            )
        if not (isinstance(self.seed, int) and 0 <= self.seed <= 2**31):
            raise ConfigError(
                f"ScenarioSpec.seed={self.seed!r} must be an int in "
                f"0..2**31"
            )

    @property
    def family_name(self) -> str:
        """The canonical registry name, e.g. ``synthetic/bb8_bias90_fit16k``.

        Encodes the three axis targets (bias as a percentage, footprint
        in KiB — sub-KiB footprints print the byte count with a ``b``
        suffix). The seed is not encoded; registered families all use
        the default seed.
        """
        if self.hot_bytes % 1024 == 0:
            fit = f"{self.hot_bytes // 1024}k"
        else:
            fit = f"{self.hot_bytes}b"
        return (
            f"{FAMILY_PREFIX}bb{self.bb_size}"
            f"_bias{round(self.bias * 100)}_fit{fit}"
        )

    def key(self) -> str:
        """A stable string identity used to derive generator seeds."""
        return (
            f"bb={self.bb_size};bias={self.bias!r};"
            f"hot={self.hot_bytes};seed={self.seed}"
        )


@dataclass(frozen=True)
class RealizedAxes:
    """Measured axis values for one synthesized program.

    All values come from compiling and running the program — the static
    block-size histogram from the conventional machine image, the
    mispredict rate from a gshare-predicted functional run, and the hot
    footprint from the fetch-unit trace (smallest set of icache lines
    covering :data:`~repro.scenario.synth.HOT_COVERAGE` of fetch mass).
    """

    mean_bb_ops: float
    bb_hist: tuple[tuple[int, int], ...]  # (block size in ops, count)
    mispredict_rate: float
    branch_events: int
    hot_bytes: int
    static_code_bytes: int
    block_code_bytes: int

    def as_dict(self) -> dict:
        return {
            "mean_bb_ops": self.mean_bb_ops,
            "bb_hist": [[size, count] for size, count in self.bb_hist],
            "mispredict_rate": self.mispredict_rate,
            "branch_events": self.branch_events,
            "hot_bytes": self.hot_bytes,
            "static_code_bytes": self.static_code_bytes,
            "block_code_bytes": self.block_code_bytes,
        }


@dataclass(frozen=True)
class SynthParams:
    """Generator tuning values the synthesis loop searches over.

    Kept separate from the spec: the spec states *targets*, params are
    the knob settings that (after calibration) realize them. The final
    params ride along in :class:`SynthesisResult` so regeneration skips
    straight to the converged point.
    """

    run_len: int  # straight-line statements per block arm
    n_branches: int  # biased conditionals per hot segment
    copies: int  # replicated hot segment functions

    def key(self) -> str:
        return f"run={self.run_len};br={self.n_branches};cp={self.copies}"


@dataclass(frozen=True)
class SynthesisResult:
    """One converged synthesis: spec + params + measured axes."""

    spec: ScenarioSpec
    params: SynthParams
    realized: RealizedAxes
    attempts: int
    history: tuple[str, ...] = field(default=(), compare=False)
    #: the chosen attempt's compiled pair and conventional capture. Only
    #: the call that ran the search returns it (its caller may reuse
    #: them instead of recompiling the same source); the synthesis memo
    #: stores results without it, so it retains no programs or traces.
    chosen: Attempt | None = field(default=None, compare=False, repr=False)
