"""Pre-decoded semantics of machine operations.

Shared by the conventional and block-structured functional executors:
:func:`decode` turns a static operation into a closure over the register
file, plus its Table 1 latency and memory kind, the first time an
executor reaches it, so the dynamic loop never looks at an opcode again.
The arithmetic comes from :mod:`repro.semantics`, the same functions the
constant folder and the IR interpreter use. Control ops are left to each
executor: their semantics are the ISAs' difference.

Operand convention: binary ops may carry an immediate as their final
operand (``srcs`` one short); loads/stores use ``imm`` as a byte offset.
Effective addresses are aligned down to 8 bytes — the machine never
traps, which keeps speculative wrong-path execution harmless.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ExecutionError
from repro.ir.instructions import IrOp
from repro.isa.latencies import LATENCY
from repro.isa.opcodes import OPCODE_INFO, Opcode
from repro.isa.operation import MachineOp
from repro.semantics import binop, unop

#: ``mem`` kinds returned by :func:`decode`; each equals the op's
#: ``op_flags`` value in a packed trace (repro.sim.packed.OPF_*)
MEM_NONE = 0
MEM_LOAD = 1
MEM_STORE = 2

_BIN_IR = {
    Opcode.ADD: IrOp.ADD,
    Opcode.SUB: IrOp.SUB,
    Opcode.AND: IrOp.AND,
    Opcode.OR: IrOp.OR,
    Opcode.XOR: IrOp.XOR,
    Opcode.SLT: IrOp.SLT,
    Opcode.SLE: IrOp.SLE,
    Opcode.SEQ: IrOp.SEQ,
    Opcode.SNE: IrOp.SNE,
    Opcode.SHL: IrOp.SHL,
    Opcode.SHR: IrOp.SHR,
    Opcode.SRA: IrOp.SRA,
    Opcode.MUL: IrOp.MUL,
    Opcode.DIV: IrOp.DIV,
    Opcode.REM: IrOp.REM,
    Opcode.FADD: IrOp.FADD,
    Opcode.FSUB: IrOp.FSUB,
    Opcode.FMUL: IrOp.FMUL,
    Opcode.FDIV: IrOp.FDIV,
    Opcode.FSLT: IrOp.FSLT,
    Opcode.FSLE: IrOp.FSLE,
    Opcode.FSEQ: IrOp.FSEQ,
    Opcode.FSNE: IrOp.FSNE,
}

def decode(
    op: MachineOp,
    words: dict,
    outputs: list,
    before_store: Callable[[int], None] | None = None,
) -> tuple[Callable[[list], int | None] | None, int, int]:
    """Compile *op* into ``(fn, mem, lat)``.

    ``fn(regs)`` executes the op against the register list, the memory
    words and the output list it closes over; for loads and stores it
    returns the effective address, which ``mem`` (``MEM_LOAD`` or
    ``MEM_STORE``; ``MEM_NONE`` otherwise) says to expect. A store
    calls *before_store* (if given) with its address before writing,
    so an atomic block can log what it overwrites. ``lat`` is the op's
    execution latency. Control ops get ``fn`` None: each executor
    decodes its own control semantics.
    """
    lat, mem, make = _DECODERS[op.opcode]
    if make is None:
        return None, mem, lat
    return make(op, words, outputs, before_store), mem, lat


# The closures below bind their operands as default arguments rather
# than as free variables: a default is a plain local to the running
# function, and creating the function allocates no cells — decoding a
# program builds thousands of them.


def _binary(fn, conv):
    def make(op, words, outputs, before_store):
        if len(op.srcs) > 1:
            def ex(regs, d=op.dest, a=op.srcs[0], b=op.srcs[1], fn=fn,
                   conv=conv):
                regs[d] = fn(conv(regs[a]), conv(regs[b]))
        else:
            def ex(regs, d=op.dest, a=op.srcs[0], b=conv(op.imm), fn=fn,
                   conv=conv):
                regs[d] = fn(conv(regs[a]), b)
        return ex
    return make


def _unary(fn):
    def make(op, words, outputs, before_store):
        def ex(regs, d=op.dest, a=op.srcs[0], fn=fn):
            regs[d] = fn(regs[a])
        return ex
    return make


def _movi(op, words, outputs, before_store):
    def ex(regs, d=op.dest, imm=op.imm):
        regs[d] = imm
    return ex


def _mov(op, words, outputs, before_store):
    def ex(regs, d=op.dest, a=op.srcs[0]):
        regs[d] = regs[a]
    return ex


def _select(op, words, outputs, before_store):
    c, a, b = op.srcs

    def ex(regs, d=op.dest, c=c, a=a, b=b):
        regs[d] = regs[a] if regs[c] != 0 else regs[b]
    return ex


def _output(kind: str, conv, mask: int):
    """PUT*: emit ``(kind, conv(value))``, masked unless *mask* is 0."""
    def make(op, words, outputs, before_store):
        def ex(regs, a=op.srcs[0], emit=outputs.append, kind=kind,
               conv=conv, mask=mask):
            value = conv(regs[a])
            emit((kind, value & mask if mask else value))
        return ex
    return make


def _load(indexed: bool, conv):
    """``base + imm`` (base srcs[0]) or, indexed, ``+ (index << 3)``;
    *conv* (float for FP loads, else None) converts the loaded word."""
    def make(op, words, outputs, before_store):
        d = op.dest
        imm = op.imm or 0
        get = words.get
        base = op.srcs[0]
        index = op.srcs[1] if indexed else 0
        if indexed and conv is None:
            def ex(regs, d=d, imm=imm, get=get, base=base, index=index):
                addr = (int(regs[base]) + (int(regs[index]) << 3) + imm) & ~7
                regs[d] = get(addr, 0)
                return addr
        elif indexed:
            def ex(regs, d=d, imm=imm, get=get, base=base, index=index,
                   conv=conv):
                addr = (int(regs[base]) + (int(regs[index]) << 3) + imm) & ~7
                regs[d] = conv(get(addr, 0))
                return addr
        elif conv is None:
            def ex(regs, d=d, imm=imm, get=get, base=base):
                addr = (int(regs[base]) + imm) & ~7
                regs[d] = get(addr, 0)
                return addr
        else:
            def ex(regs, d=d, imm=imm, get=get, base=base, conv=conv):
                addr = (int(regs[base]) + imm) & ~7
                regs[d] = conv(get(addr, 0))
                return addr
        return ex
    return make


def _store(indexed: bool):
    """Stores read ``(value, base[, index])``; *before_store*, if given,
    sees the address before the word is overwritten."""
    def make(op, words, outputs, before_store):
        imm = op.imm or 0
        value, base = op.srcs[0], op.srcs[1]
        index = op.srcs[2] if indexed else 0
        if indexed and before_store is None:
            def ex(regs, imm=imm, value=value, base=base, index=index,
                   words=words):
                addr = (int(regs[base]) + (int(regs[index]) << 3) + imm) & ~7
                words[addr] = regs[value]
                return addr
        elif indexed:
            def ex(regs, imm=imm, value=value, base=base, index=index,
                   words=words, before=before_store):
                addr = (int(regs[base]) + (int(regs[index]) << 3) + imm) & ~7
                before(addr)
                words[addr] = regs[value]
                return addr
        elif before_store is None:
            def ex(regs, imm=imm, value=value, base=base, words=words):
                addr = (int(regs[base]) + imm) & ~7
                words[addr] = regs[value]
                return addr
        else:
            def ex(regs, imm=imm, value=value, base=base, words=words,
                   before=before_store):
                addr = (int(regs[base]) + imm) & ~7
                before(addr)
                words[addr] = regs[value]
                return addr
        return ex
    return make


def _unknown(op, words, outputs, before_store):
    raise ExecutionError(f"cannot evaluate {op.asm()!r}")


_FACTORIES = {
    **{oc: _binary(*binop(ir)) for oc, ir in _BIN_IR.items()},
    Opcode.MOVI: _movi,
    Opcode.FMOVI: _movi,
    Opcode.MOV: _mov,
    Opcode.FMOV: _mov,
    Opcode.SELECT: _select,
    Opcode.FSELECT: _select,
    Opcode.CVTIF: _unary(unop(IrOp.ITOF)),
    Opcode.CVTFI: _unary(unop(IrOp.FTOI)),
    Opcode.PUTINT: _output("i", int, 0),
    Opcode.PUTFLT: _output("f", float, 0),
    Opcode.PUTCH: _output("i", int, 0xFF),
    Opcode.LD: _load(False, None),
    Opcode.FLD: _load(False, float),
    Opcode.LDX: _load(True, None),
    Opcode.FLDX: _load(True, float),
    Opcode.ST: _store(False),
    Opcode.FST: _store(False),
    Opcode.STX: _store(True),
    Opcode.FSTX: _store(True),
}

#: opcode -> (latency, mem kind, closure factory; None for control ops)
_DECODERS = {
    oc: (
        LATENCY[info.klass],
        MEM_LOAD if info.is_load else MEM_STORE if info.is_store
        else MEM_NONE,
        None if info.is_control else _FACTORIES.get(oc, _unknown),
    )
    for oc, info in OPCODE_INFO.items()
}
