"""Finite, queryable interaction specifications.

An interaction specification assigns to each registered epistemic formula a
threshold function ``k -> m``; the formula belongs to the (m, k) family iff
the function is defined at k and m is at least its value.  A formula is
interactively provable iff its threshold function is total.

Spec file format, one entry per line (``#`` starts a comment):

    eform ":" ("const" nat | "poly" nat+ | "table" (nat "->" nat)+ ["default" nat])
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import syntax
from .syntax import EFormula


class ISpecError(ValueError):
    pass


class ThresholdFn:
    """m(k): the table's value at a listed k, else the polynomial ``tail``
    (coefficients of k^0, k^1, ...) at k, else undefined."""

    def __init__(self, table: tuple[tuple[int, int], ...] = (), tail: tuple[int, ...] = ()):
        self.table, self.tail = table, tail

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.table, self.tail) == (other.table, other.tail)
        return NotImplemented

    def value_at(self, k: int) -> Optional[int]:
        for kk, m in self.table:
            if kk == k:
                return m
        if self.tail:
            return sum(c * k**i for i, c in enumerate(self.tail))
        return None

    @property
    def is_total(self) -> bool:
        return bool(self.tail)


def error(n: int, k: int) -> Fraction:
    """The error bound 1/n^k of a protocol run at complexity n above m(k)."""
    return Fraction(1, n**k)


def error_exponent(n: int, x: Fraction) -> Optional[int]:
    """The least k with ``error(n, k) == x``, or None if there is none.

    The denominator of x is divided by n, so no power of n is built: the
    work is bounded by the size of x, whatever k a caller expects.
    """
    if x.numerator != 1 or n < 1 or (n == 1 and x != 1):
        return None
    d, k = x.denominator, 0
    while d > 1:
        d, r = divmod(d, n)
        if r:
            return None
        k += 1
    return k


class InteractionSpec:
    """Map from formula to its threshold function.  Printing is canonical
    (two formulas print alike iff they are equal), so a formula is as good a
    key as its text."""

    def __init__(self):
        self.entries: dict[EFormula, ThresholdFn] = {}

    def add(self, formula: EFormula, fn: ThresholdFn):
        if formula in self.entries:
            raise ISpecError(f"duplicate entry for {syntax.print_eformula(formula)!r}")
        self.entries[formula] = fn

    def threshold(self, formula: EFormula) -> Optional[ThresholdFn]:
        return self.entries.get(formula)

    def member(self, formula: EFormula, m: int, k: int) -> bool:
        """Membership of the formula in the (m, k) family."""
        fn = self.threshold(formula)
        if fn is None:
            return False
        thr = fn.value_at(k)
        return thr is not None and m >= thr

    def in_I(self, formula: EFormula) -> bool:
        """Interactively provable: some m works for every k."""
        fn = self.threshold(formula)
        return fn is not None and fn.is_total

    def formulas(self) -> list[EFormula]:
        return list(self.entries)


def load_spec(text: str) -> InteractionSpec:
    spec = InteractionSpec()
    for lineno, line in syntax.lines(text):
        # the formula ends at the first ":" that a kind and a space follow
        at = line.find(":")
        while at >= 0:
            words = line[at + 1 :].split(None, 1)
            if len(words) == 2 and words[0] in ("const", "poly", "table"):
                break
            at = line.find(":", at + 1)
        else:
            raise ISpecError(f"line {lineno}: expected 'eform : const|poly|table ...'")
        try:
            formula = syntax.parse_eformula(line[:at].rstrip())
        except syntax.ParseError as exc:
            raise ISpecError(f"line {lineno}: bad formula: {exc}") from exc
        try:
            spec.add(formula, _parse_fn(*words))
        except ValueError as exc:
            raise ISpecError(f"line {lineno}: {exc}") from exc
    return spec


def _parse_fn(kind: str, rest: str) -> ThresholdFn:
    if kind != "table":
        words = [rest] if kind == "const" else rest.split()
        tail = tuple(syntax.parse_nat(word, "natural number") for word in words)
        if None in tail:
            raise ValueError(f"expected a natural number, got {words[tail.index(None)]}")
        return ThresholdFn(tail=tail)
    # pairs "k -> m", then maybe "default d"; the text from the first entry that
    # does not fit to the end of the line is a bad entry
    p = syntax.Parser(rest)
    kinds, texts = p.kinds, p.texts
    offsets = list(syntax.token_offsets(rest, kinds, texts))
    # the natural numbers; one glued to a name, as in "1_0" or "2default", is none
    nats = [syntax.parse_nat(text, "natural number") if kind == "num" and not
            rest[at + len(text) :][:1].isidentifier() else None
            for kind, text, at in zip(kinds, texts, offsets)]
    pairs, tail, i = [], (), 0
    while nats[i] is not None and kinds[i + 1] == "->" and nats[i + 2] is not None:
        pairs.append((nats[i], nats[i + 2]))
        i += 3
    if p.is_word(i, "default") and nats[i + 1] is not None:
        tail, i = (nats[i + 1],), i + 2
    if kinds[i] != "eof":
        raise ValueError(f"bad table entry near {rest[offsets[i] :]!r}")
    if not pairs:
        raise ValueError("a table needs at least one 'k -> m' pair")
    if len({k for k, _ in pairs}) != len(pairs):
        raise ValueError("table has duplicate k entries")
    return ThresholdFn(tuple(pairs), tail)


def load_spec_file(path: str) -> InteractionSpec:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return load_spec(fh.read())
