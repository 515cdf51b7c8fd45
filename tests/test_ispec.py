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
from ipj.syntax import parse_eformula


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
    for bad in ("p const 1", "p : const", "p : const -1", "p : table", "p : foo 1"):
        with pytest.raises(ISpecError):
            load_spec(bad)


def test_formula_with_colon_in_entry():
    spec = load_spec("t :[P] p : const 2\n")
    assert spec.member(parse_eformula("t :[P] p"), 2, 1)
