"""Functional execution.

Three executors, all sharing :mod:`repro.semantics`:

* :mod:`repro.exec.interp_ir` — direct IR interpreter (golden reference);
* :mod:`repro.exec.conventional` — conventional-ISA functional executor,
  optionally driven by a branch predictor to record the dynamic fetch
  stream consumed by the timing model;
* :mod:`repro.exec.block` — BS-ISA functional executor with atomic
  commit/suppress semantics, block-predictor interplay, and fault
  re-execution, likewise recording a fetch stream.

The two machine-code executors decode each static op once
(:mod:`repro.exec.opsem`) and write the stream straight into
:class:`~repro.sim.packed.PackedTrace` columns; :class:`FetchUnit` /
:class:`DynOp` (:mod:`repro.exec.trace`) are that trace's object view.

Program outputs are lists of ``(kind, value)`` tuples; equivalence tests
require the three executors to produce identical outputs for the same
source program.
"""

from repro.exec.memory import Memory, STACK_BASE
from repro.exec.interp_ir import interpret_module
from repro.exec.conventional import (
    ConventionalExecutor,
    ConventionalStats,
    run_conventional,
)
from repro.exec.block import BlockExecutor, BlockStats, run_block_structured
from repro.exec.trace import DynOp, FetchUnit

__all__ = [
    "Memory",
    "STACK_BASE",
    "interpret_module",
    "ConventionalExecutor",
    "ConventionalStats",
    "run_conventional",
    "BlockExecutor",
    "BlockStats",
    "run_block_structured",
    "DynOp",
    "FetchUnit",
]
