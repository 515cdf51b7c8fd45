"""Interaction specifications: threshold functions and the membership test."""

from fractions import Fraction

import pytest

from ipj.ispec import (
    DuplicateEntry,
    ISpecError,
    ThresholdFn,
    error,
    error_exponent,
    load_spec,
)
from ipj.syntax import parse_eformula, print_eformula


def _fn(text: str) -> ThresholdFn:
    return load_spec(f"p : {text}\n").threshold(parse_eformula("p"))


def _values(fn: ThresholdFn) -> list:
    return [fn.value_at(k) for k in range(1, 7)]


def test_constant_function():
    fn = _fn("const 3")
    assert fn == ThresholdFn(tail=(3,))
    assert _values(fn) == [3] * 6
    assert fn.is_total


def test_polynomial_function():
    fn = _fn("poly 1 0 2")  # 1 + 2k^2
    assert fn == ThresholdFn(tail=(1, 0, 2))
    assert _values(fn) == [3, 9, 19, 33, 51, 73]
    assert fn.is_total


def test_table_function():
    fn = _fn("table 1 -> 2 2 -> 5")
    assert fn == ThresholdFn(table=((1, 2), (2, 5)))
    assert _values(fn) == [2, 5, None, None, None, None]
    assert not fn.is_total
    fn = _fn("table 1 -> 2 2 -> 5 default 7")
    assert fn == ThresholdFn(((1, 2), (2, 5)), (7,))
    assert _values(fn) == [2, 5, 7, 7, 7, 7]
    assert fn.is_total


def test_error_and_its_exponent():
    assert error(3, 2) == Fraction(1, 9) and error(5, 0) == 1
    for n in (2, 3, 10):
        for k in range(6):
            assert error_exponent(n, error(n, k)) == k
        assert error_exponent(n, Fraction(3, n**3 * 7)) is None
        assert error_exponent(n, Fraction(1, n**3 + 1)) is None
    assert error_exponent(1, Fraction(1)) == 0
    assert error_exponent(1, Fraction(1, 2)) is None
    assert error_exponent(0, Fraction(1, 2)) is None
    assert error_exponent(10, Fraction(1, 10**1000)) == 1000


def test_membership_and_in_i():
    spec = load_spec(
        """
        # protocol-provable formulas
        p : const 1
        box[P] q : table 1 -> 2 2 -> 4
        q : poly 1 2
        """
    )
    p = parse_eformula("p")
    bq = parse_eformula("box[P] q")
    assert spec.member(p, 1, 1) and spec.member(p, 5, 3)
    assert not spec.member(p, 0, 1)
    assert spec.member(bq, 2, 1) and not spec.member(bq, 1, 1)
    assert not spec.member(bq, 100, 3)  # undefined at k=3
    assert spec.in_I(p)
    assert not spec.in_I(bq)
    assert spec.in_I(parse_eformula("q"))
    assert spec.threshold(parse_eformula("r")) is None
    assert not spec.member(parse_eformula("r"), 10, 1)


def test_duplicate_entries_rejected():
    with pytest.raises(DuplicateEntry):
        load_spec("p : const 1\np : const 2\n")


def test_parse_errors():
    for bad in ("p const 1", "p : const", "p : const -1", "p : table", "p : foo 1",
                "p : const 1_0", "p : poly +1"):
        with pytest.raises(ISpecError):
            load_spec(bad)
    for fn in ("const", "poly 1", "table 1 ->", "table 1 -> 2 default"):
        with pytest.raises(ISpecError) as exc:
            load_spec(f"p : {fn} {'1' * 5000}")
        assert str(exc.value) == "line 1: bad natural number: number of 5000 digits is too long"


def test_formula_with_colon_in_entry():
    spec = load_spec("t :[P] p : const 2\n")
    assert spec.member(parse_eformula("t :[P] p"), 2, 1)


# -- line shapes ---------------------------------------------------------------------

# (an entry line, what it reads as: (formula, table, tail), or the error text);
# the line is the third of its file, after a comment and a blank line
_SPEC_LINES = [
    ("p : const 3", ("p", (), (3,))),
    ("p:const 3", ("p", (), (3,))),
    ("t :[P] p : const 2", ("t :[P] p", (), (2,))),
    ("const : const 1", ("const", (), (1,))),
    ("p : poly 1 0 2", ("p", (), (1, 0, 2))),
    ("p : table 1 -> 2 default 3", ("p", ((1, 2),), (3,))),
    ("p : table 1->2 3 ->4", ("p", ((1, 2), (3, 4)), ())),
    ("p : table default 3", "line 3: a table needs at least one 'k -> m' pair"),
    ("p : table", "line 3: expected 'eform : const|poly|table ...'"),
    ("p const 1", "line 3: expected 'eform : const|poly|table ...'"),
    ("p : constant 1", "line 3: expected 'eform : const|poly|table ...'"),
    ("p : foo 1", "line 3: expected 'eform : const|poly|table ...'"),
    ("p & : const 1", "line 3: bad formula: 1:4: expected a formula, got ''"),
    ("c:table :[P] p : const 1", "line 3: bad table entry near ':[P] p : const 1'"),
    ("p : table 1 -> 2 x", "line 3: bad table entry near 'x'"),
    ("p : table x 1 -> 2 y 3 -> 4 z", "line 3: bad table entry near 'x 1 -> 2 y 3 -> 4 z'"),
    ("p : table 1 -> 2 -> 3", "line 3: bad table entry near '-> 3'"),
    ("p : table 1 -> 2default 3", "line 3: bad table entry near '1 -> 2default 3'"),
    ("p : table 1 -> 2 default x", "line 3: bad table entry near 'default x'"),
    ("p : table 1 -> 2 1 -> 3", "line 3: table has duplicate k entries"),
    ("p : table 1_0 -> 2", "line 3: bad table entry near '1_0 -> 2'"),
    ("p : table 1 -> 2 default 1_0", "line 3: bad table entry near 'default 1_0'"),
    ("p : const -1", "line 3: expected a natural number, got -1"),
    ("p : poly 1 -2", "line 3: expected a natural number, got -2"),
    ("p : const x", "line 3: expected a natural number, got x"),
    ("p : const 1 2", "line 3: expected a natural number, got 1 2"),
    ("p : poly 1 x", "line 3: expected a natural number, got x"),
    ("p : const 1_0", "line 3: expected a natural number, got 1_0"),
    ("p : poly +1", "line 3: expected a natural number, got +1"),
    ("p : table 1 -> 2 @", "line 3: 1:8: unexpected character '@'"),
]


@pytest.mark.parametrize("line, want", _SPEC_LINES)
def test_spec_line_shapes(line, want):
    try:
        spec = load_spec(f"# a comment\n\n  {line}\n")
    except ISpecError as exc:
        got = str(exc)
    else:
        (formula, fn), = spec.entries.items()
        got = (print_eformula(formula), fn.table, fn.tail)
    assert got == want
