"""Failure paths of the functional executors, traced and untraced.

Each executor must stop a runaway program at its op limit, refuse a
transfer of control to an address outside the code, and reject a control
op the ISA does not define — with the same exception types whichever
mode it runs in. Also pins the ``branch_hook`` contract that
``repro.profile``'s training runs depend on.
"""

from __future__ import annotations

import pytest

from repro.errors import CompileError, ExecutionError
from repro.exec.block import BlockExecutor
from repro.exec.conventional import ConventionalExecutor
from repro.isa.asm import assemble_block_structured, assemble_conventional
from repro.isa.opcodes import Opcode
from repro.isa.operation import OP_BYTES
from repro.sim.predictors import BlockPredictor, GsharePredictor

#: far past the code segment of any of these programs
_BAD_ADDR = 0x3E8000

CONV_LOOP = """
_start:
loop:
  add r3, r3, 1
  jmp loop
"""

BLOCK_LOOP = """
_start:
  add r3, r3, 1
  jmp _start
"""

CONV_BAD_RET = f"""
_start:
  movi r31, {_BAD_ADDR}
  ret r31
"""

BLOCK_BAD_RET = f"""
_start:
  movi r31, {_BAD_ADDR}
  ret r31
"""

CONV_BAD_JMP = """
_start:
  movi r3, 1
  jmp nowhere
nowhere:
"""

# A jump into the middle of a block is as invalid as one past the code.
BLOCK_MID_BLOCK_RET = """
_start:
  movi r31, 4104
  add r3, r3, 1
  ret r31
"""

CONV_ILLEGAL = """
_start:
  movi r3, 1
  trap r3, _start, _start, nbits=1
"""

BLOCK_ILLEGAL = """
_start:
  movi r3, 1
  br r3, 1, _start
"""


def _run(executor, traced: bool) -> None:
    if traced:
        list(executor.units())
    else:
        executor.run()


def _conventional(text: str, traced: bool, **kwargs) -> ConventionalExecutor:
    return ConventionalExecutor(
        assemble_conventional(text), trace=traced, **kwargs
    )


def _block(text: str, traced: bool, **kwargs) -> BlockExecutor:
    return BlockExecutor(
        assemble_block_structured(text), trace=traced, **kwargs
    )


MODES = pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])


@MODES
def test_conventional_op_limit(traced):
    executor = _conventional(CONV_LOOP, traced, op_limit=1000)
    with pytest.raises(ExecutionError, match="op limit"):
        _run(executor, traced)


@MODES
def test_block_op_limit(traced):
    executor = _block(BLOCK_LOOP, traced, op_limit=1000)
    with pytest.raises(ExecutionError, match="op limit"):
        _run(executor, traced)


@MODES
def test_op_limit_counts_every_op(traced):
    """A program of exactly *op_limit* ops runs; one op fewer fails."""
    text = "_start:\n  movi r3, 1\n  add r3, r3, 1\n  halt\n"
    _run(_conventional(text, traced, op_limit=3), traced)
    with pytest.raises(ExecutionError):
        _run(_conventional(text, traced, op_limit=2), traced)
    _run(_block(text, traced, op_limit=3), traced)
    with pytest.raises(ExecutionError):
        _run(_block(text, traced, op_limit=2), traced)


@MODES
def test_conventional_return_outside_code(traced):
    with pytest.raises(CompileError, match="out of range"):
        _run(_conventional(CONV_BAD_RET, traced), traced)


@MODES
def test_conventional_fall_off_end_of_code(traced):
    with pytest.raises(CompileError, match="out of range"):
        _run(_conventional(CONV_BAD_JMP, traced), traced)


@MODES
def test_block_return_outside_code(traced):
    with pytest.raises(CompileError, match="not an atomic block address"):
        _run(_block(BLOCK_BAD_RET, traced), traced)


@MODES
def test_block_return_into_middle_of_block(traced):
    with pytest.raises(CompileError, match="not an atomic block address"):
        _run(_block(BLOCK_MID_BLOCK_RET, traced), traced)


@MODES
def test_conventional_illegal_control_op(traced):
    with pytest.raises(ExecutionError, match="illegal control op"):
        _run(_conventional(CONV_ILLEGAL, traced), traced)


@MODES
def test_block_illegal_control_op(traced):
    with pytest.raises(ExecutionError, match="illegal control op"):
        _run(_block(BLOCK_ILLEGAL, traced), traced)


@MODES
def test_failures_with_real_predictors(traced):
    """The predictor-driven paths fail the same way."""
    conv = assemble_conventional(CONV_LOOP)
    with pytest.raises(ExecutionError):
        _run(ConventionalExecutor(
            conv, predictor=GsharePredictor(), trace=traced, op_limit=500
        ), traced)
    block = assemble_block_structured(BLOCK_BAD_RET)
    with pytest.raises(CompileError):
        _run(BlockExecutor(
            block, predictor=BlockPredictor(block), trace=traced
        ), traced)


# ---------------------------------------------------------------------------
# branch_hook
# ---------------------------------------------------------------------------


def _hooked(prog, traced: bool):
    calls = []
    executor = ConventionalExecutor(
        prog, predictor=GsharePredictor(), trace=traced
    )
    executor.branch_hook = lambda addr, taken: calls.append((addr, taken))
    units = []
    if traced:
        units = list(executor.units())
    else:
        executor.run()
    return executor, calls, units


@MODES
def test_branch_hook_fires_once_per_executed_br(feature_pair, traced):
    prog = feature_pair.conventional
    executor, calls, _ = _hooked(prog, traced)
    assert calls
    assert len(calls) == executor.stats.branches
    assert all(prog.op_at(addr).opcode is Opcode.BR for addr, _ in calls)
    assert all(isinstance(taken, bool) for _, taken in calls)


def test_branch_hook_reports_actual_directions(feature_pair):
    """Each hook call is the BR ending a fetch unit, in order, and the
    next unit starts where its reported direction leads."""
    prog = feature_pair.conventional
    _, calls, units = _hooked(prog, traced=True)
    branch_ends = []  # (BR op, address of the next unit)
    for unit, following in zip(units, units[1:]):
        last = prog.op_at(unit.addr + (len(unit.ops) - 1) * OP_BYTES)
        if last.opcode is Opcode.BR:
            branch_ends.append((last, following.addr))
    assert [addr for addr, _ in calls] == [op.addr for op, _ in branch_ends]
    for (_, taken), (op, next_addr) in zip(calls, branch_ends):
        assert next_addr == (op.taddr if taken else op.addr + OP_BYTES)


def test_branch_hook_same_in_both_modes(feature_pair):
    prog = feature_pair.conventional
    _, traced_calls, _ = _hooked(prog, traced=True)
    _, untraced_calls, _ = _hooked(prog, traced=False)
    assert traced_calls == untraced_calls


def test_capture_needs_a_tracing_executor(feature_pair):
    for executor in (
        ConventionalExecutor(feature_pair.conventional, trace=False),
        BlockExecutor(feature_pair.block, trace=False),
    ):
        with pytest.raises(ExecutionError, match="trace=True"):
            executor.capture()
