"""Golden token streams: what the lexer produces, pinned byte for byte.

For every suite and extra workload at two scales, every registered
scenario family and 60 fuzz-generator programs, this pins the sha256 of
the source's ``(kind name, text, line, column, value)`` stream. Any
change in how the lexer splits, locates or evaluates a token fails
here with the source named. The number edge cases below spell their
streams (or errors) out in full, since those are where a pattern-based
lexer and a cursor-based one most easily disagree.

After an *intentional* change to the token stream, regenerate with

    pytest tests/test_token_golden.py --update-goldens

and review the golden diff like any other code change.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.check.genprog import generate_program
from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.scenario.families import FAMILIES
from repro.workloads import EXTRA, SUITE, get_workload
from tests.test_goldens import diff_paths

GOLDEN_PATH = Path(__file__).parent / "goldens" / "token_streams.json"
SCALES = (0.25, 1.0)
FUZZ_PROGRAMS = 60


def stream(source: str) -> list[tuple]:
    return [
        (tok.kind.name, tok.text, tok.line, tok.column, tok.value)
        for tok in tokenize(source)
    ]


def stream_digest(source: str) -> str:
    return hashlib.sha256(repr(stream(source)).encode()).hexdigest()


def golden_sources() -> dict[str, str]:
    sources = {}
    for name in list(SUITE) + list(EXTRA):
        for scale in SCALES:
            sources[f"{name}@{scale}"] = get_workload(name).source(scale)
    for name in FAMILIES:
        sources[name] = get_workload(name).source(1.0)
    for seed in range(FUZZ_PROGRAMS):
        sources[f"genprog/{seed}"] = generate_program(random.Random(seed))
    return sources


@pytest.fixture(scope="module")
def measured() -> dict:
    return {name: stream_digest(src) for name, src in golden_sources().items()}


def test_token_stream_digests(measured, request):
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(measured, indent=1, sort_keys=True) + "\n"
        )
        pytest.skip(f"updated {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(measured)
    mismatches = diff_paths(golden, measured)
    assert not mismatches, (
        f"{GOLDEN_PATH.name} is stale — token streams changed:\n  "
        + "\n  ".join(mismatches[:40])
        + "\nIf intentional, regenerate with --update-goldens and review."
    )


EOF = ("EOF", "")

NUMBER_EDGES = {
    "1.": [("INT_LIT", "1", 1, 1, 1), ("DOT", ".", 1, 2, None)],
    "1.e5": [
        ("INT_LIT", "1", 1, 1, 1),
        ("DOT", ".", 1, 2, None),
        ("IDENT", "e5", 1, 3, None),
    ],
    "1e": [("INT_LIT", "1", 1, 1, 1), ("IDENT", "e", 1, 2, None)],
    "1e+": [
        ("INT_LIT", "1", 1, 1, 1),
        ("IDENT", "e", 1, 2, None),
        ("PLUS", "+", 1, 3, None),
    ],
    "1e+5": [("FLOAT_LIT", "1e+5", 1, 1, 100000.0)],
    "0X1f": [("INT_LIT", "0X1f", 1, 1, 31)],
    "08": [("INT_LIT", "08", 1, 1, 8)],
    "a.b": [
        ("IDENT", "a", 1, 1, None),
        ("DOT", ".", 1, 2, None),
        ("IDENT", "b", 1, 3, None),
    ],
    "1.5e-2x": [
        ("FLOAT_LIT", "1.5e-2", 1, 1, 0.015),
        ("IDENT", "x", 1, 7, None),
    ],
    "0x1_": [("INT_LIT", "0x1", 1, 1, 1), ("IDENT", "_", 1, 4, None)],
}


@pytest.mark.parametrize("source", sorted(NUMBER_EDGES))
def test_number_edge_streams(source):
    got = stream(source)
    assert got[:-1] == NUMBER_EDGES[source]
    assert got[-1] == EOF + (1, len(source) + 1, None)
    assert [type(t[4]) for t in got[:-1]] == [
        type(t[4]) for t in NUMBER_EDGES[source]
    ]


@pytest.mark.parametrize(
    "source, literal", [("0x", "0x"), ("0xZZ", "0xZZ"), ("x = 0xg1;", "0xg1")]
)
def test_invalid_hex_edges(source, literal):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    diag = exc.value.diagnostic
    col = source.index(literal) + 1
    assert diag.message == f"invalid hex literal {literal!r}"
    assert (diag.span.line, diag.span.column, diag.span.end_column) == (
        1, col, col + len(literal),
    )
