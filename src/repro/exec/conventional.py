"""Conventional-ISA functional executor and trace generator.

Executes a :class:`~repro.isa.program.ConventionalProgram` architecturally
and (optionally) records the dynamic fetch-unit stream for the timing
model straight into :class:`~repro.sim.packed.PackedTrace` columns. A
fetch unit is the run of operations up to and including the first
control operation (the machine makes one branch prediction per cycle —
the paper's single-basic-block fetch limit), or 16 operations, whichever
comes first. A unit is therefore fixed by its start address: each run is
decoded once (:func:`repro.exec.opsem.decode` per op, plus static
latency/flag templates) and replayed from then on.

Branch direction prediction comes from the supplied predictor; direct
targets, calls and returns are modelled as always predicted correctly
(BTB/RAS hits — both machines get the same idealization, see DESIGN.md).
With ``predictor=None`` prediction is perfect (Figure 4's configuration).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ExecutionError
from repro.exec.memory import Memory, STACK_BASE
from repro.exec.opsem import MEM_LOAD, MEM_STORE, decode
from repro.exec.trace import FetchUnit
from repro.isa.opcodes import Opcode
from repro.isa.operation import OP_BYTES
from repro.isa.program import ConventionalProgram
from repro.isa.registers import RA, SP

_FETCH_LIMIT = 16
_DEFAULT_OP_LIMIT = 500_000_000

#: the control op ending a decoded run (any other is illegal here)
_BR, _JMP, _CALL, _RET, _HALT = range(5)
_CONTROL = {
    Opcode.BR: _BR,
    Opcode.JMP: _JMP,
    Opcode.CALL: _CALL,
    Opcode.RET: _RET,
    Opcode.HALT: _HALT,
}


@dataclass
class ConventionalStats:
    """Architectural counters from one conventional-ISA run."""

    dyn_ops: int = 0
    units: int = 0
    branches: int = 0
    mispredicts: int = 0
    calls: int = 0
    returns: int = 0
    loads: int = 0
    stores: int = 0
    outputs: list = field(default_factory=list)

    @property
    def avg_unit_size(self) -> float:
        return self.dyn_ops / self.units if self.units else 0.0


class ConventionalExecutor:
    """Stateful, single-use executor.

    :meth:`run` executes the program for its stats and outputs;
    :meth:`capture` (``trace=True``) also returns the packed fetch-unit
    stream, and :meth:`units` is that stream's object view.
    """

    def __init__(
        self,
        prog: ConventionalProgram,
        predictor=None,
        trace: bool = True,
        op_limit: int = _DEFAULT_OP_LIMIT,
    ):
        self.prog = prog
        self.predictor = predictor
        self.trace = trace
        self.op_limit = op_limit
        self.stats = ConventionalStats()
        self.regs: list[int | float] = [0] * 32 + [0.0] * 32
        self.regs[SP] = STACK_BASE
        self.memory = Memory(prog.data)
        #: optional callable(addr, taken) invoked at every executed BR
        #: (used by repro.profile's training runs)
        self.branch_hook = None

    @property
    def outputs(self) -> list:
        return self.stats.outputs

    def run(self) -> ConventionalStats:
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

    def _decode_run(self, pc: int) -> tuple:
        """The fetch unit starting at *pc*, decoded.

        ``(n, body, lats, flags, mems, n_loads, n_stores, end, ctl)``:
        *body* holds ``(fn, srcs, dest, mem)`` per non-control op (dest
        -1: none), the three arrays are the unit's static ``op_lat`` /
        ``op_flags`` / ``op_mem`` column templates, *end* is the address
        after the unit and *ctl* its control op (``None`` if the unit
        ends at the 16-op limit or the end of the code).
        """
        prog = self.prog
        words = self.memory.words
        outputs = self.stats.outputs
        body = []
        lats = array("q")
        flags = array("B")
        n_loads = n_stores = 0
        ctl = None
        n_code = len(prog.ops)
        index = prog.index_of(pc)
        prog.op_at(pc)  # out-of-range start: CompileError
        while index < n_code and len(lats) < _FETCH_LIMIT:
            op = prog.ops[index]
            fn, mem, lat = decode(op, words, outputs)
            lats.append(lat)
            flags.append(mem)
            if fn is None:
                ctl = op
                break
            n_loads += mem == MEM_LOAD
            n_stores += mem == MEM_STORE
            body.append(
                (fn, op.srcs, -1 if op.dest is None else op.dest, mem)
            )
            index += 1
        n = len(lats)
        end = pc + n * OP_BYTES
        if ctl is not None:
            kind = _CONTROL.get(ctl.opcode)
            ctl = (kind, ctl.srcs[0] if ctl.srcs else -1, ctl.imm == 1,
                   ctl.taddr, ctl.addr, ctl)
        return (n, tuple(body), lats, flags, array("q", [-1]) * n,
                n_loads, n_stores, end, ctl)

    def _execute(self):
        from repro.sim.packed import F_MISPREDICT, PackedTrace

        regs = self.regs
        stats = self.stats
        predictor = self.predictor
        hook = self.branch_hook
        op_limit = self.op_limit
        record = self.trace
        runs: dict[int, tuple] = {}

        trace = PackedTrace.empty()
        unit_addr = trace.unit_addr.append
        unit_size = trace.unit_size.append
        unit_resolve = trace.unit_resolve.append
        unit_flags = trace.unit_flags.append
        unit_op_start = trace.unit_op_start.append
        op_lat = trace.op_lat.extend
        op_flags = trace.op_flags.extend
        op_mem_col = trace.op_mem
        op_mem = op_mem_col.extend
        dep_start = trace.op_dep_start.append
        deps_col = trace.deps
        deps = deps_col.append
        #: register -> dense op index of its last writer (-1: none)
        writer = [-1] * len(regs)
        #: address -> dense op index of its last store
        store_writer: dict[int, int] = {}
        store_get = store_writer.get
        i = 0  # dense index of the next op

        pc = self.prog.entry_addr
        while True:
            run = runs.get(pc)
            if run is None:
                run = runs[pc] = self._decode_run(pc)
            n, body, lats, flags, mems, n_loads, n_stores, end, ctl = run
            stats.dyn_ops += n
            if stats.dyn_ops > op_limit:
                raise ExecutionError("conventional executor op limit hit")
            stats.loads += n_loads
            stats.stores += n_stores
            if record:
                op_lat(lats)
                op_flags(flags)
                op_mem(mems)
                for fn, srcs, dest, mem in body:
                    addr = fn(regs)
                    for r in srcs:
                        w = writer[r]
                        if w >= 0:
                            deps(w)
                    if mem:
                        if mem == MEM_LOAD:
                            w = store_get(addr)
                            if w is not None:
                                deps(w)
                        else:
                            store_writer[addr] = i
                        op_mem_col[i] = addr
                    dep_start(len(deps_col))
                    if dest >= 0:
                        writer[dest] = i
                    i += 1
            else:
                for entry in body:
                    entry[0](regs)

            mispredict = False
            halted = False
            if ctl is None:
                next_pc = end
            else:
                kind, src, want, taddr, addr, op = ctl
                if record and (kind == _BR or kind == _RET):
                    w = writer[src]
                    if w >= 0:
                        deps(w)
                if kind == _BR:
                    taken = (regs[src] != 0) == want
                    stats.branches += 1
                    if hook is not None:
                        hook(addr, taken)
                    if predictor is not None:
                        predicted = predictor.predict_branch(addr)
                        predictor.update_branch(addr, taken)
                        if predicted != taken:
                            stats.mispredicts += 1
                            mispredict = True
                    next_pc = taddr if taken else end
                elif kind == _JMP:
                    next_pc = taddr
                elif kind == _CALL:
                    stats.calls += 1
                    regs[RA] = end
                    writer[RA] = i
                    next_pc = taddr
                elif kind == _RET:
                    stats.returns += 1
                    next_pc = int(regs[src])
                elif kind == _HALT:
                    halted = True
                else:
                    raise ExecutionError(f"illegal control op {op.asm()!r}")
                if record:
                    dep_start(len(deps_col))
                    i += 1

            stats.units += 1
            if record:
                unit_addr(pc)
                unit_size(n * OP_BYTES)
                unit_resolve(n - 1 if mispredict else -1)
                unit_flags(F_MISPREDICT if mispredict else 0)
                unit_op_start(i)
            if halted:
                break
            pc = next_pc

        if record:
            trace.op_uid.extend(range(i))
        return trace


def run_conventional(
    prog: ConventionalProgram, predictor=None, op_limit: int = _DEFAULT_OP_LIMIT
) -> ConventionalStats:
    """Functionally execute *prog* (no trace); returns stats with outputs."""
    executor = ConventionalExecutor(
        prog, predictor=predictor, trace=False, op_limit=op_limit
    )
    return executor.run()
