"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_source_yields_eof():
    assert kinds("") == [TokKind.EOF]


def test_keywords_and_identifiers():
    toks = tokenize("int foo float bar void while iffy")
    assert [t.kind for t in toks[:-1]] == [
        TokKind.KW_INT,
        TokKind.IDENT,
        TokKind.KW_FLOAT,
        TokKind.IDENT,
        TokKind.KW_VOID,
        TokKind.KW_WHILE,
        TokKind.IDENT,  # 'iffy' is not 'if'
    ]
    assert toks[1].text == "foo"
    assert toks[6].text == "iffy"


def test_int_literals_decimal_and_hex():
    toks = tokenize("0 42 123456789 0x10 0xFF")
    values = [t.value for t in toks[:-1]]
    assert values == [0, 42, 123456789, 16, 255]
    assert all(t.kind is TokKind.INT_LIT for t in toks[:-1])


def test_float_literals():
    toks = tokenize("1.5 0.25 2e3 1.5e-2")
    assert [t.kind for t in toks[:-1]] == [TokKind.FLOAT_LIT] * 4
    assert [t.value for t in toks[:-1]] == [1.5, 0.25, 2000.0, 0.015]


def test_integer_followed_by_dot_without_digits_is_int():
    # "3." with no following digit: the dot is a member-access token, not
    # part of a float literal
    toks = tokenize("3.x")
    assert [t.kind for t in toks[:-1]] == [
        TokKind.INT_LIT, TokKind.DOT, TokKind.IDENT,
    ]


def test_two_char_operators_win_over_one_char():
    src = "<< >> <= >= == != && ||"
    expected = [
        TokKind.SHL, TokKind.SHR, TokKind.LE, TokKind.GE,
        TokKind.EQEQ, TokKind.BANGEQ, TokKind.ANDAND, TokKind.OROR,
    ]
    assert kinds(src)[:-1] == expected


def test_adjacent_operators():
    assert kinds("a<=b")[:-1] == [TokKind.IDENT, TokKind.LE, TokKind.IDENT]
    assert kinds("a<b")[:-1] == [TokKind.IDENT, TokKind.LT, TokKind.IDENT]


def test_line_comments_are_skipped():
    toks = tokenize("a // comment with * and / chars\n b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_block_comments_are_skipped():
    toks = tokenize("a /* multi\nline\ncomment */ b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]
    assert toks[1].line == 3


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_unexpected_character_raises_with_location():
    with pytest.raises(LexError) as exc:
        tokenize("a\n  $")
    assert exc.value.line == 2


def test_line_and_column_tracking():
    toks = tokenize("a\n  b\n    c")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)
    assert (toks[2].line, toks[2].column) == (3, 5)


def test_punctuation():
    src = "( ) { } [ ] ; ,"
    expected = [
        TokKind.LPAREN, TokKind.RPAREN, TokKind.LBRACE, TokKind.RBRACE,
        TokKind.LBRACKET, TokKind.RBRACKET, TokKind.SEMI, TokKind.COMMA,
    ]
    assert kinds(src)[:-1] == expected


def test_invalid_hex_literal_raises():
    with pytest.raises(LexError):
        tokenize("0xZZ")


def test_all_keywords_recognized():
    from repro.lang.tokens import KEYWORDS

    for word, kind in KEYWORDS.items():
        toks = tokenize(word)
        assert toks[0].kind is kind, word


@pytest.mark.parametrize(
    "source, char, col",
    [
        ("int x = ²;", "²", 9),  # superscript two: str.isdigit() is True
        ("1²", "²", 2),
        ("²x", "²", 1),
        ("x = ٣;", "٣", 5),  # Arabic-Indic three: int() would accept it
        ("é", "é", 1),
        ("int café;", "é", 8),
    ],
)
def test_non_ascii_characters_are_located_errors(source, char, col):
    # identifiers and numbers are ASCII; anything else is a LexError
    # with a span, never a ValueError or a Unicode identifier
    with pytest.raises(LexError) as exc:
        tokenize(source)
    diag = exc.value.diagnostic
    assert diag.message == f"unexpected character {char!r}"
    assert (diag.span.line, diag.span.column, diag.span.end_column) == (
        1, col, col + 1,
    )
