"""Public API (repro.core) tests."""

import pytest

from repro.core import (
    Toolchain,
    compare_isas,
    compile_block_structured,
    compile_conventional,
    compile_pair,
)
from repro.backend.enlarge import EnlargeConfig
from repro.errors import ReproError, TypeCheckError
from repro.sim.config import MachineConfig
from tests.conftest import FEATURE_PROGRAM

SMALL = """
int g;
void main() {
    int i;
    for (i = 0; i < 40; i = i + 1) {
        if (i % 3 == 0) { g = g + i; } else { g = g + 1; }
    }
    print_int(g);
}
"""


def test_compile_pair_produces_both_isas():
    pair = compile_pair(SMALL, "small")
    assert pair.conventional.code_bytes > 0
    assert pair.block.code_bytes > 0
    assert pair.name == "small"


def test_one_shot_helpers():
    conv = compile_conventional(SMALL)
    block = compile_block_structured(SMALL)
    assert conv.entry_label == "_start"
    assert block.entry_label == "_start"


def _ops(ops) -> list[tuple]:
    return [tuple(getattr(op, slot) for slot in type(op).__slots__) for op in ops]


def _blocks(prog) -> list[tuple]:
    return [
        (b.label, b.addr, b.path, b.path_dirs, b.fault_indices, _ops(b.ops))
        for b in prog.blocks
    ]


@pytest.mark.parametrize("source", [SMALL, FEATURE_PROGRAM])
def test_one_shot_helpers_build_only_their_image(source, monkeypatch):
    from repro.core import toolchain

    pair = Toolchain().compile(source, "program")
    calls = {"conventional": 0, "block": 0}
    for isa, attr in (
        ("conventional", "generate_conventional"),
        ("block", "generate_block_structured"),
    ):
        def counted(*args, _isa=isa, _original=getattr(toolchain, attr),
                    **kwargs):
            calls[_isa] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(toolchain, attr, counted)
    conv = compile_conventional(source)
    assert calls == {"conventional": 1, "block": 0}
    block = compile_block_structured(source)
    assert calls == {"conventional": 1, "block": 1}
    assert _ops(conv.ops) == _ops(pair.conventional.ops)
    assert conv.code_bytes == pair.conventional.code_bytes
    assert conv.disassemble() == pair.conventional.disassemble()
    assert _blocks(block) == _blocks(pair.block)
    assert block.code_bytes == pair.block.code_bytes
    assert block.disassemble() == pair.block.disassemble()


def test_compare_runs_and_matches():
    cmp = compare_isas(SMALL, "small", config=MachineConfig())
    assert cmp.outputs_match
    assert cmp.conventional.cycles > 0
    assert cmp.block.cycles > 0
    assert cmp.speedup == pytest.approx(
        cmp.conventional.cycles / cmp.block.cycles
    )
    assert cmp.reduction_pct == pytest.approx(
        100 * (1 - cmp.block.cycles / cmp.conventional.cycles)
    )


def test_compare_perfect_vs_real_prediction():
    real = compare_isas(SMALL, config=MachineConfig())
    perfect = compare_isas(SMALL, config=MachineConfig(perfect_bp=True))
    assert perfect.conventional.cycles <= real.conventional.cycles
    assert perfect.block.mispredicts == 0
    assert real.conventional.bp_accuracy <= 1.0


def test_toolchain_opt_levels_same_outputs():
    results = {}
    for level in (0, 1, 2):
        toolchain = Toolchain(opt_level=level)
        pair = toolchain.compile(SMALL, f"lv{level}")
        cmp = toolchain.compare(pair)
        results[level] = (
            cmp.conventional.outputs,
            cmp.conventional.committed_ops,
        )
    outs = {tuple(v[0]) for v in results.values()}
    assert len(outs) == 1
    # optimization removes work: fewer dynamic architectural ops
    assert results[2][1] <= results[0][1]


def test_enlarge_config_threads_through():
    toolchain = Toolchain(enlarge=EnlargeConfig(enabled=False))
    pair = toolchain.compile(SMALL, "plain")
    assert all(len(b.path) == 1 for b in pair.block.blocks)


def test_compile_errors_are_repro_errors():
    with pytest.raises(TypeCheckError):
        compile_pair("void main() { undefined_var = 1; }")
    with pytest.raises(ReproError):
        compile_pair("not a program at all")


def test_code_expansion_reported(feature_pair):
    assert 1.0 < feature_pair.code_expansion < 4.0


def test_sim_result_fields(feature_pair):
    toolchain = Toolchain()
    cmp = toolchain.compare(feature_pair)
    r = cmp.block
    assert r.isa == "block"
    assert r.committed_units > 0
    assert r.avg_block_size > 0
    assert 0.0 <= r.bp_accuracy <= 1.0
    assert r.ipc == pytest.approx(r.committed_ops / r.cycles)
    assert r.static_code_bytes == feature_pair.block.code_bytes
