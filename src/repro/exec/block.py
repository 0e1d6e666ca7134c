"""Block-structured ISA functional executor and trace generator.

Implements the BS-ISA's architectural semantics (paper §2/§4.1):

* an atomic block's effects (registers, stores, output) are buffered and
  commit only if no fault fires — otherwise *everything* is discarded and
  fetch redirects to the fault's target (a sibling enlarged variant that
  re-executes the shared prefix);
* the trap at the end of a committed block picks the successor *family*;
  the dynamic block predictor picks which enlarged *variant* of that
  family to fetch (paper §4.3) — a wrong family is a trap misprediction
  (redirect at trap resolution), a right family but wrong variant shows
  up later as a firing fault (squash + redirect at fault resolution);
* ``CALL`` writes the continuation block's address to RA at commit;
  call/return/jump successors are modelled as always predicted correctly
  (same idealization as the conventional executor).

With ``predictor=None`` prediction is perfect: the executor silently
resolves the fault chain and fetches the correct variant directly, so no
faults fire and no squashed units are emitted (Figure 4's configuration).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator

from repro.errors import ExecutionError
from repro.exec.memory import Memory, STACK_BASE
from repro.exec.opsem import MEM_LOAD, MEM_STORE, decode
from repro.exec.trace import FetchUnit
from repro.isa.opcodes import Opcode
from repro.isa.operation import OP_BYTES
from repro.isa.program import AtomicBlock, BlockProgram
from repro.isa.registers import RA, SP

_DEFAULT_OP_LIMIT = 500_000_000
#: marks "no word at this address" in a store undo record
_MISSING = object()


@dataclass
class BlockStats:
    """Architectural counters from one BS-ISA run."""

    fetched_ops: int = 0
    committed_ops: int = 0
    blocks_fetched: int = 0
    blocks_committed: int = 0
    blocks_squashed: int = 0
    trap_predictions: int = 0
    trap_mispredicts: int = 0
    fault_mispredicts: int = 0
    calls: int = 0
    returns: int = 0
    loads: int = 0
    stores: int = 0
    outputs: list = field(default_factory=list)

    @property
    def avg_block_size(self) -> float:
        """Average *retired* block size (Figure 5's metric)."""
        if not self.blocks_committed:
            return 0.0
        return self.committed_ops / self.blocks_committed

    @property
    def total_mispredicts(self) -> int:
        return self.trap_mispredicts + self.fault_mispredicts


#: block-body op kinds beyond opsem's MEM_* (0-2)
_FAULT, _TRAP, _NEXT, _HALT = 3, 4, 5, 6

#: how a block picks its successor: the first two through the block
#: predictor, the rest from its own CALL/RET/JMP/HALT
_TERM_TRAP, _TERM_FAMILY_JMP, _TERM_CALL, _TERM_RET, _TERM_DIRECT = range(5)

_NO_SRCS: tuple[int, ...] = ()


def _fault(index: int, cond: int, want: bool, target: int):
    """FAULT: returns ``(index, target)`` when it fires (the condition
    disagrees with the direction this variant encodes), else None."""
    def ex(regs, cond=cond, want=want, fired=(index, target)):
        return fired if (regs[cond] != 0) != want else None
    return ex


def _trap(cond: int):
    def ex(regs, cond=cond):
        return regs[cond] != 0
    return ex


def _call(ret_addr: int, target: int):
    def ex(regs, ret_addr=ret_addr, target=target):
        regs[RA] = ret_addr
        return target
    return ex


def _ret(src: int):
    def ex(regs, src=src):
        return int(regs[src])
    return ex


def _const(value):
    def ex(regs, value=value):
        return value
    return ex


def _snapshot(wregs: tuple[int, ...]):
    """A function reading *wregs* out of a list, as a tuple."""
    if len(wregs) > 1:
        return itemgetter(*wregs)
    if wregs:
        (r,) = wregs

        def snap(seq):
            return (seq[r],)
        return snap
    return lambda seq: ()


def _illegal(op):
    def ex(regs):
        raise ExecutionError(f"illegal control op {op.asm()!r}")
    return ex


class BlockExecutor:
    """Stateful, single-use BS-ISA executor.

    :meth:`run` executes the program for its stats and outputs;
    :meth:`capture` (``trace=True``) also returns the packed fetch-unit
    stream, and :meth:`units` is that stream's object view.

    Blocks execute directly on the architectural state. A block that
    can fault snapshots the registers it writes and logs what its
    stores overwrite, so a firing fault rolls everything back — the
    same result as buffering the block's effects until commit.
    """

    def __init__(
        self,
        prog: BlockProgram,
        predictor=None,
        trace: bool = True,
        op_limit: int = _DEFAULT_OP_LIMIT,
    ):
        self.prog = prog
        self.predictor = predictor
        self.trace = trace
        self.op_limit = op_limit
        self.stats = BlockStats()
        self.regs: list[int | float] = [0] * 32 + [0.0] * 32
        self.regs[SP] = STACK_BASE
        self.memory = Memory(prog.data)
        #: (addr, overwritten word or _MISSING, overwritten store writer)
        #: for each store of the executing block, if it can fault
        self._undo: list[tuple] = []
        #: address -> dense op index of its last store
        self._store_writer: dict[int, int] = {}

    @property
    def outputs(self) -> list:
        return self.stats.outputs

    def run(self) -> BlockStats:
        """Run to completion (recording the stream iff ``trace``)."""
        self._execute()
        return self.stats

    def capture(self):
        """Run to completion; the dynamic stream as a
        :class:`~repro.sim.packed.PackedTrace`."""
        if not self.trace:
            raise ExecutionError("capture() needs an executor with trace=True")
        return self._execute()

    def units(self) -> Iterator[FetchUnit]:
        """Run to completion; the stream as :class:`FetchUnit` objects."""
        return self.capture().units()

    # ------------------------------------------------------------------

    def _decode_block(self, block: AtomicBlock) -> tuple:
        """*block* decoded: ``(block, n, body, lats, flags, mems, wregs,
        snap, n_loads, n_stores, term, taddr, taddr2)``.

        *body* holds ``(fn, srcs, dest, kind)`` per op (dest -1: none;
        srcs are the registers the op depends on), the three arrays are
        the unit's static ``op_lat`` / ``op_flags`` / ``op_mem`` column
        templates, *wregs* the registers the block writes and *snap*,
        for a block that can fault, reads them out of a register list.
        """
        words = self.memory.words
        outputs = self.stats.outputs
        faultable = bool(block.fault_indices)
        before_store = None
        if faultable:
            log = self._undo.append
            get = words.get
            sw_get = self._store_writer.get

            def before_store(addr):
                log((addr, get(addr, _MISSING), sw_get(addr)))

        body = []
        lats = array("q")
        flags = array("B")
        wregs = set()
        for index, op in enumerate(block.ops):
            fn, kind, lat = decode(op, words, outputs, before_store)
            lats.append(lat)
            flags.append(kind)
            srcs = op.srcs
            dest = -1 if op.dest is None else op.dest
            if fn is None:
                srcs, dest, kind, fn = self._decode_control(op, index)
            body.append((fn, srcs, dest, kind))
            if dest >= 0:
                wregs.add(dest)
        term = block.terminator
        if term.opcode is Opcode.TRAP:
            term_kind = _TERM_TRAP
        elif term.opcode is Opcode.JMP and term.nbits > 0:
            term_kind = _TERM_FAMILY_JMP
        elif term.opcode is Opcode.CALL:
            term_kind = _TERM_CALL
        elif term.opcode is Opcode.RET:
            term_kind = _TERM_RET
        else:
            term_kind = _TERM_DIRECT
        n = len(body)
        return (
            block, n, tuple(body), lats, flags, array("q", [-1]) * n,
            tuple(wregs), _snapshot(tuple(wregs)) if faultable else None,
            flags.count(MEM_LOAD), flags.count(MEM_STORE),
            term_kind, term.taddr, term.taddr2,
        )

    @staticmethod
    def _decode_control(op, index: int) -> tuple:
        """``(srcs, dest, kind, fn)`` for the control op at *index*."""
        oc = op.opcode
        if oc is Opcode.FAULT:
            cond = op.srcs[0]
            return (cond,), -1, _FAULT, _fault(
                index, cond, bool(op.imm), op.taddr
            )
        if oc is Opcode.TRAP:
            return (op.srcs[0],), -1, _TRAP, _trap(op.srcs[0])
        if oc is Opcode.CALL:
            return _NO_SRCS, RA, _NEXT, _call(op.taddr2, op.taddr)
        if oc is Opcode.RET:
            return (op.srcs[0],), -1, _NEXT, _ret(op.srcs[0])
        if oc is Opcode.JMP:
            return _NO_SRCS, -1, _NEXT, _const(op.taddr)
        if oc is Opcode.HALT:
            return _NO_SRCS, -1, _HALT, _const(None)
        return _NO_SRCS, -1, _NEXT, _illegal(op)

    def _execute(self):
        from repro.sim.packed import (
            F_ATOMIC, F_MISPREDICT, F_SQUASHED, PackedTrace,
        )

        prog = self.prog
        stats = self.stats
        predictor = self.predictor
        perfect = predictor is None
        op_limit = self.op_limit
        record = self.trace
        regs = self.regs
        words = self.memory.words
        outputs = stats.outputs
        undo = self._undo
        decoded: dict[int, tuple] = {}
        pending: tuple[AtomicBlock, bool] | None = None

        trace = PackedTrace.empty()
        unit_addr = trace.unit_addr.append
        unit_size = trace.unit_size.append
        unit_resolve = trace.unit_resolve.append
        unit_flags = trace.unit_flags.append
        unit_op_start = trace.unit_op_start.append
        op_uid = trace.op_uid.extend
        op_lat = trace.op_lat.extend
        op_flags = trace.op_flags.extend
        op_mem_col = trace.op_mem
        op_mem = op_mem_col.extend
        dep_start_col = trace.op_dep_start
        dep_start = dep_start_col.append
        deps_col = trace.deps
        deps = deps_col.append
        #: register -> dense op index of its last writer (-1: none)
        writer = [-1] * len(regs)
        store_writer = self._store_writer
        store_get = store_writer.get
        i = 0  # dense index of the next recorded op
        uid = 0  # executor-assigned dynamic id of the next executed op
        executed = 0

        addr = prog.entry_addr
        while True:
            blk = decoded.get(addr)
            if blk is None:
                blk = decoded[addr] = self._decode_block(prog.block_at(addr))
            (current, n, body, lats, flags, mems, wregs, snap,
             n_loads, n_stores, term_kind, taddr, taddr2) = blk
            executed += n
            if executed > op_limit:
                raise ExecutionError("block executor op limit hit")
            if snap is not None:
                saved = snap(regs)
                saved_writers = snap(writer)
                n_outputs = len(outputs)
                undo.clear()
            base = i
            uid0 = uid
            if record:
                uid += n
                op_mem(mems)

            fault = None
            trap_outcome = False
            next_addr = None
            halted = False
            for fn, srcs, dest, kind in body:
                a = fn(regs)
                if record:
                    for r in srcs:
                        w = writer[r]
                        if w >= 0:
                            deps(w)
                    if kind == MEM_LOAD:
                        w = store_get(a)
                        if w is not None:
                            deps(w)
                        op_mem_col[i] = a
                    elif kind == MEM_STORE:
                        store_writer[a] = i
                        op_mem_col[i] = a
                    dep_start(len(deps_col))
                    if dest >= 0:
                        writer[dest] = i
                    i += 1
                if kind > MEM_STORE:
                    if kind == _NEXT:
                        next_addr = a
                    elif kind == _FAULT:
                        if a is not None and fault is None:
                            fault = a
                    elif kind == _TRAP:
                        trap_outcome = a
                    else:
                        halted = True

            if fault is not None:
                # Squash: nothing the block did survives, a HALT included.
                for r, v, w in zip(wregs, saved, saved_writers):
                    regs[r] = v
                    writer[r] = w
                for a, word, w in reversed(undo):
                    if word is _MISSING:
                        del words[a]
                    else:
                        words[a] = word
                    if w is None:
                        store_writer.pop(a, None)
                    else:
                        store_writer[a] = w
                del outputs[n_outputs:]
                halted = False
                resolve, addr = fault
                if perfect:
                    # Perfect prediction never fetches a faulting
                    # variant: silently resolve the chain to the
                    # correct sibling.
                    if record:
                        i = base
                        del op_mem_col[base:]
                        del dep_start_col[base + 1:]
                        del deps_col[dep_start_col[base]:]
                    continue
                stats.blocks_fetched += 1
                stats.blocks_squashed += 1
                stats.fetched_ops += n
                stats.fault_mispredicts += 1
                unit_kind = F_SQUASHED | F_ATOMIC
            else:
                stats.blocks_fetched += 1
                stats.fetched_ops += n
                stats.blocks_committed += 1
                stats.committed_ops += n
                stats.loads += n_loads
                stats.stores += n_stores
                if pending is not None:
                    prev_block, prev_outcome = pending
                    predictor.notify_actual(prev_block, prev_outcome, current)
                    pending = None
                mispredict = False
                if halted:
                    pass
                elif term_kind <= _TERM_FAMILY_JMP:
                    if term_kind == _TERM_TRAP:
                        explicit = taddr if trap_outcome else taddr2
                        outcome = bool(trap_outcome)
                    else:
                        # Jump into a multi-variant family: the predictor
                        # selects the variant (direction is fixed/true).
                        explicit = taddr
                        outcome = True
                    if perfect:
                        addr = explicit
                    else:
                        addr, mispredict = self._predict_successor(
                            current, explicit, outcome
                        )
                        pending = (current, outcome)
                else:
                    if term_kind == _TERM_CALL:
                        stats.calls += 1
                    elif term_kind == _TERM_RET:
                        stats.returns += 1
                    if next_addr is None:
                        raise ExecutionError(
                            f"block {current.label} has no successor"
                        )
                    addr = next_addr
                resolve = n - 1 if mispredict else -1
                unit_kind = F_MISPREDICT | F_ATOMIC if mispredict else F_ATOMIC

            if record:
                op_uid(range(uid0, uid))
                op_lat(lats)
                op_flags(flags)
                unit_addr(current.addr)
                unit_size(n * OP_BYTES)
                unit_resolve(resolve)
                unit_flags(unit_kind)
                unit_op_start(i)
            if halted:
                return trace

    def _predict_successor(
        self, current: AtomicBlock, explicit: int, outcome: bool
    ) -> tuple[int, bool]:
        """``(address, mispredicted)`` of the variant fetched after
        *current*, whose trap resolved to the family at *explicit*."""
        prog = self.prog
        predictor = self.predictor
        stats = self.stats
        stats.trap_predictions += 1
        predicted_addr = predictor.predict(current)
        actual_root = prog.block_at(explicit).path[0]
        predicted = (
            prog.by_addr.get(predicted_addr)
            if predicted_addr is not None
            else None
        )
        if predicted is not None and predicted.path[0] == actual_root:
            return predicted.addr, False
        # Redirect: re-access the predictor with the corrected trap
        # direction to pick the variant.
        stats.trap_mispredicts += 1
        repredicted = predictor.predict_with_outcome(current, outcome)
        candidate = prog.by_addr.get(repredicted)
        if candidate is not None and candidate.path[0] == actual_root:
            return candidate.addr, True
        return explicit, True


def run_block_structured(
    prog: BlockProgram, predictor=None, op_limit: int = _DEFAULT_OP_LIMIT
) -> BlockStats:
    """Functionally execute *prog* (no trace); returns stats with outputs."""
    executor = BlockExecutor(
        prog, predictor=predictor, trace=False, op_limit=op_limit
    )
    return executor.run()
