import sys

import pytest

from smbalg import (App, Const, Identity, Var, format_algebra, format_term,
                    parse_algebra, parse_identity, parse_quasiidentity,
                    parse_term, ParseError)
from smbalg.core import fits_int

E3_TEXT = """\
# the three-element example
algebra e3
size 3
op d 3
0 1 2 1 0 2 2 2 2
1 0 2 0 1 2 2 2 2
2 2 2 2 2 2 2 2 2
derive wedge 2 = d(x,x,y)
"""


def test_parse_e3_matches_builder(e3):
    parsed = parse_algebra(E3_TEXT)
    assert parsed == e3
    assert parsed.name == "e3"
    assert parsed.op("wedge").entries == (0, 1, 2, 0, 1, 2, 2, 2, 2)


def test_parse_minimal():
    alg = parse_algebra("algebra one\nsize 1\nop f 1\n0\n")
    assert alg.size == 1 and alg.op("f").entries == (0,)


def test_parse_entry_count_error():
    text = "algebra bad\nsize 3\nop f 3\n" + " ".join(["0"] * 26) + "\n"
    with pytest.raises(ParseError, match=r"expected 27 entries, got 26"):
        parse_algebra(text)
    text2 = "algebra bad\nsize 2\nop f 1\n0 1 0\n"
    with pytest.raises(ParseError, match=r"expected 2 entries, got 3"):
        parse_algebra(text2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra a\nsize 2\nop f 1\n0 2\n")
    assert err.value.line == 4
    assert "out of range" in err.value.reason
    # the first entry out of range, on a continuation line of the table
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra a\nsize 2\nop f 2\n0 1\n1 3 4\n")
    assert (err.value.line, err.value.col) == (5, 2)
    assert err.value.reason == "entry 3 out of range 0..1"
    with pytest.raises(ParseError, match="duplicate operation"):
        parse_algebra("algebra a\nsize 1\nop f 1\n0\nop f 1\n0\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_algebra("algebra a\nsize 1\nweird\n")
    with pytest.raises(ParseError, match="arity 1, applied to 2"):
        parse_algebra("algebra a\nsize 2\nop f 1\n0 1\nderive g 1 = f(x,y)\n")
    with pytest.raises(ParseError, match="bad derive term"):
        parse_algebra("algebra a\nsize 2\nop d 3\n0 0 0 0 1 1 1 1\n"
                      "derive g 1 = d(x,y,z)\n")


def test_parse_term_binding():
    t = parse_term("wedge(wedge(x,y),y)")
    assert t == App("wedge", (App("wedge", (Var(0), Var(1))), Var(1)))
    assert parse_term("x") == Var(0)
    assert parse_term("@2") == Const(2)


def test_parse_term_signature_checks():
    sig = {"wedge": 2, "d": 3}
    parse_term("d(x, y, wedge(x, @0))", sig)
    with pytest.raises(ParseError, match="arity"):
        parse_term("wedge(x, y, z)", sig)
    with pytest.raises(ParseError, match="unknown operation"):
        parse_term("f(x)", sig)


def test_parse_identity_and_quasi():
    ident = parse_identity("wedge(wedge(x,y),y) = wedge(x,y)")
    assert isinstance(ident, Identity)
    quasi = parse_quasiidentity(
        "wedge(x,y)=y & wedge(y,x)=x -> wedge(x,z) = wedge(y,z)")
    assert len(quasi.premises) == 2
    vs = quasi.variables()
    assert vs == frozenset({0, 1, 2})
    plain = parse_quasiidentity("x = x")
    assert plain.premises == ()


def test_format_term_round_structure():
    t = App("d", (Var(0), Const(1), App("wedge", (Var(1), Var(0)))))
    assert format_term(t) == "d(x, @1, wedge(y, x))"


def test_round_trip_corpus(corpus):
    for entry in corpus:
        text = format_algebra(entry.algebra)
        again = parse_algebra(text)
        assert again == entry.algebra
        assert again.name == entry.algebra.name


def test_format_algebra_keeps_no_entries_tuple(corpus):
    # the text is read off each table's array: no tuple of Python ints is
    # made and kept on the table
    for entry in corpus[:10]:
        alg = parse_algebra(format_algebra(entry.algebra))
        assert format_algebra(alg) == format_algebra(entry.algebra)
        assert all(t._entries is None for t in alg.operations.values())


def test_round_trip_random_algebras():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from smbalg import FiniteAlgebra, OperationTable

    @st.composite
    def algebras(draw):
        n = draw(st.integers(1, 4))
        ops = {}
        for sym in draw(st.sets(st.sampled_from(["f", "g", "h"]), min_size=1)):
            arity = draw(st.integers(1, 3))
            entries = draw(st.lists(st.integers(0, n - 1),
                                    min_size=n ** arity, max_size=n ** arity))
            ops[sym] = OperationTable(arity, n, entries)
        return FiniteAlgebra(draw(st.sampled_from(["a", "alg_1", "x9"])), n, ops)

    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def run(alg):
        again = parse_algebra(format_algebra(alg))
        assert again == alg and again.name == alg.name

    run()


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_algebra("size 2\nalgebra a\n")
    with pytest.raises(ParseError):
        parse_algebra("algebra a\n")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_term("wedge(x, !)")


def test_parse_full_width_digits():
    # decimal digits other than ASCII read as `int` reads them
    alg = parse_algebra("algebra a\nsize 2\nop f 2\n０ １\n１ ０１\n")
    assert alg.op("f").entries == (0, 1, 1, 1)
    assert alg == parse_algebra("algebra a\nsize 2\nop f 2\n0 1\n1 01\n")


def test_parse_entry_past_int64():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra a\nsize 2\nop f 2\n0 1\n1 99999999999999999999999\n")
    assert (err.value.line, err.value.col) == (5, 2)
    assert err.value.reason == "entry 99999999999999999999999 out of range 0..1"
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra a\nsize 2\nop f 1\n0 0018446744073709551617\n")
    assert (err.value.line, err.value.col) == (4, 2)
    assert err.value.reason == "entry 18446744073709551617 out of range 0..1"


def test_parse_entry_past_int_digit_limit():
    # an entry longer than `int` converts (4300 digits) is a parse error too,
    # in ASCII and in full-width digits
    for one in ("1", "１"):
        with pytest.raises(ParseError) as err:
            parse_algebra(f"algebra a\nsize 2\nop f 1\n0 {one * 5000}\n")
        assert (err.value.line, err.value.col) == (4, 2)
        assert err.value.reason == f"entry {'1' * 5000} out of range 0..1"


def test_parse_without_int_digit_limit(monkeypatch, e3):
    # Pythons before 3.10.7 have no `sys.get_int_max_str_digits`, and no limit
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert parse_algebra(E3_TEXT) == e3
    assert fits_int("9" * 5000)


LONG = "1" * 5000      # more digits than `int` converts (4300)


@pytest.mark.parametrize("text, where, digits", [
    (f"algebra a\nsize {LONG}\n", (2, 6), 5000),
    (f"algebra a\nsize  0{LONG}\nop f 1\n0\n", (2, 7), 5001),   # zeros count
    (f"algebra a\nsize 2\nop f {LONG}\n0 1\n", (3, 6), 5000),
    (f"algebra a\nsize 2\nop f 1\n1 0\nderive  g {LONG} = f(x)\n", (5, 11), 5000),
    # term literals, at their columns in the term text
    (f"algebra a\nsize 2\nop f 1\n1 0\nderive g 1 = f(@{LONG})\n", (5, 4), 5000),
    (f"algebra a\nsize 2\nop f 1\n1 0\nderive g 1 = f({LONG})\n", (5, 3), 5000),
])
def test_parse_number_past_int_digit_limit(text, where, digits):
    # a size, an arity or a term literal longer than `int` converts is a
    # parse error at the number, not a ValueError from `int`
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert (err.value.line, err.value.col) == where
    assert err.value.reason == f"a number of {digits} digits is out of range"


@pytest.mark.parametrize("text, where, entry", [
    # before a line that makes the table too long
    ("op f 1\n5\n0 1\n", (4, 1), 5),
    ("op f 2\n0 1\n1 0 3 9\n", (5, 3), 3),
    # before a directive or a line that is not entries
    ("op f 2\n0 1\n7\nop g 1\n0 1\n", (5, 1), 7),
    ("op f 2\n1 0 1 1\nop g 1\n0\n1 1 0 2\n", (7, 4), 2),
    ("op f 2\n0 2\nx y\n", (4, 2), 2),
    # before the end of the file
    ("op f 3\n0 1\n1 # a comment\n1 00000000000000000000000000003\n", (6, 2), 3),
    ("op f 3\n0 1\n\n0 1 0 4\n", (6, 4), 4),
])
def test_parse_first_out_of_range_wins(text, where, entry):
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra a\nsize 2\n" + text)
    assert (err.value.line, err.value.col) == where
    assert err.value.reason == f"entry {entry} out of range 0..1"


def test_parse_table_split_by_comments():
    whole = parse_algebra("algebra a\nsize 3\nop f 2\n0 1 2 1 1 2 2 2 2\n"
                          "op g 1\n2 0 1\n")
    split = parse_algebra("algebra a\nsize 3\nop f 2   # comment\n"
                          "# a comment line\n0 1\n\n   \n2 1 1 # row\n"
                          "2\t2\n# again\n\n2 2\nop g 1\n2\n\n0 1 # last\n")
    assert split == whole
    assert [t.entries for t in split.operations.values()] == \
        [t.entries for t in whole.operations.values()]
