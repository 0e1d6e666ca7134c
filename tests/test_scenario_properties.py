"""Property tests for the scenario synthesis layer (hypothesis).

The three contracts of docs/scenarios.md, checked over random specs:

1. every generated scenario program compiles on both ISAs (and the two
   images execute to identical outputs — the compile contract would be
   hollow without it);
2. the realized axis report is a deterministic function of
   ``(spec, seed)``;
3. regenerating a registered family from its name alone is
   byte-identical source.

Example counts are deliberately small: each example compiles a program
(hundreds of machine ops), so the suite stays inside the tier-1 time
budget while hypothesis still explores the axis space. The ``ci``
profile derandomizes (tests/conftest.py).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.exec import run_block_structured, run_conventional  # noqa: E402
from repro.scenario.families import FAMILIES  # noqa: E402
from repro.scenario.spec import ScenarioSpec, SynthParams  # noqa: E402
from repro.scenario.synth import (  # noqa: E402
    generate_source,
    measure_axes,
    synthesize,
)
from repro.workloads import get_workload  # noqa: E402
from tests.conftest import compile_cached  # noqa: E402

# Bias values are drawn from a fixed palette (not st.floats): specs key
# caches and seeds by repr, and a finite palette keeps examples readable
# and shrinkable without float-edge noise.
SPECS = st.builds(
    ScenarioSpec,
    bb_size=st.integers(2, 16),
    bias=st.sampled_from([0.5, 0.6, 0.75, 0.9, 0.97]),
    hot_bytes=st.sampled_from([512, 1024, 2048, 4096]),
    seed=st.integers(0, 99),
)

PARAMS = st.builds(
    SynthParams,
    run_len=st.integers(1, 6),
    n_branches=st.integers(1, 4),
    copies=st.integers(1, 4),
)


@settings(max_examples=12)
@given(spec=SPECS, params=PARAMS)
def test_generated_program_compiles_and_agrees_on_both_isas(spec, params):
    source = generate_source(spec, params, scale=0.05)
    pair = compile_cached(source, "scenprop")
    assert pair.conventional.ops
    assert pair.block.blocks
    conv = run_conventional(pair.conventional)
    block = run_block_structured(pair.block)
    assert conv.outputs == block.outputs


@settings(max_examples=6)
@given(spec=SPECS)
def test_realized_axis_report_is_deterministic_per_spec(spec):
    # bypass the memo so this genuinely re-runs the search
    first = synthesize.__wrapped__(spec, 2)
    second = synthesize.__wrapped__(spec, 2)
    assert first.params == second.params
    assert first.realized == second.realized
    assert first.attempts == second.attempts


@settings(max_examples=8)
@given(spec=SPECS, params=PARAMS, scale=st.sampled_from([0.05, 0.5, 1.0]))
def test_source_is_byte_identical_per_spec_params_scale(spec, params, scale):
    assert generate_source(spec, params, scale) == generate_source(
        spec, params, scale
    )


@settings(max_examples=6)
@given(
    spec=st.builds(
        ScenarioSpec,
        bb_size=st.integers(3, 8),
        bias=st.sampled_from([0.6, 0.9]),
        hot_bytes=st.sampled_from([1024, 2048]),
        seed=st.integers(0, 9),
    )
)
def test_seed_changes_source_but_not_shape(spec):
    """Different seeds give different programs (fresh draws) whose
    static structure still targets the same axes."""
    import dataclasses

    other = dataclasses.replace(spec, seed=spec.seed + 100)
    params = SynthParams(run_len=2, n_branches=2, copies=2)
    src_a = generate_source(spec, params)
    src_b = generate_source(other, params)
    assert src_a != src_b
    axes_a = measure_axes(src_a).axes
    axes_b = measure_axes(src_b).axes
    # same generator params: code size within a loose band
    assert 0.5 <= axes_a.static_code_bytes / axes_b.static_code_bytes <= 2.0


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_registered_family_regeneration_is_byte_identical(name):
    workload = get_workload(name)
    assert workload.source(0.2) == workload.source(0.2)
    assert workload.source() == workload.source()
    # and the family name round-trips through its spec
    assert FAMILIES[name].family_name == name
