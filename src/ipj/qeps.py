"""Exact arithmetic on the unit interval of the field of rational functions
of a positive infinitesimal ``e``.

Values are reduced fractions of dense coefficient polynomials over exact
rationals, normalised once, when they are built; a coefficient is an int or
a ``Fraction``, never a float.  The order, the standard part and
``approx_eq`` are read from the coefficients of the operands, with no
difference built and no normalisation.  Literals such as
``(1 + 2 e)/(2 + 1 e)`` are read by :func:`parse_qeps` through the one
literal grammar, which lives in :class:`ipj.syntax.Parser` and serves
formula thresholds as well.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]

# ---------------------------------------------------------------------------
# dense polynomial helpers (tuple of Fraction, index = power of e, trimmed)
# ---------------------------------------------------------------------------


def _trim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(a, b):
    return _trim(tuple(x + y for x, y in zip_longest(a, b, fillvalue=0)))


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a, b):
    # b must be nonzero and trimmed; each step clears the lead of a exactly
    a = list(_trim(a))
    q = [_FRACTION_ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = len(a) - len(b)
        q[k] = c = a[-1] / b[-1]
        for i, cb in enumerate(b):
            a[k + i] -= c * cb
        a = list(_trim(a))
    return _trim(q), tuple(a)


# the denominator of every polynomial value, shared so that the fast paths
# recognise it by identity
_DEN1 = (Fraction(1),)
_FRACTION_ZERO = Fraction(0)


def _pgcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        if len(b) == 1:  # a nonzero constant: coprime
            return _DEN1
        _, r = _pdivmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)  # monic


def _fraction(c) -> Fraction:
    """A coefficient as a ``Fraction``, one of class ``Fraction`` kept as it is; never a float."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def _add_monomial(coeffs: list, c: Fraction, power: int) -> None:
    """Add ``c e^power`` to the dense coefficient list ``coeffs``."""
    coeffs += [_FRACTION_ZERO] * (power + 1 - len(coeffs))
    coeffs[power] = coeffs[power] + c if coeffs[power] else c


def _order(p) -> int:
    for i, c in enumerate(p):
        if c != 0:
            return i
    raise ValueError("zero polynomial has no order")


class QEps:
    """An element of the rational-function field in one infinitesimal.

    Canonical form: numerator/denominator polynomials with trivial gcd and
    the denominator's lowest-order nonzero coefficient scaled to 1, so equal
    rational functions have identical representations.  Zero is uniquely
    ``0/1``.
    """

    __slots__ = ("num", "den")

    def __init__(
        self,
        num: Iterable[RationalLike] = (),
        den: Iterable[RationalLike] = (1,),
    ):
        n = _trim(tuple(map(_fraction, num)))
        d = _trim(tuple(map(_fraction, den)))
        if not d:
            raise ZeroDivisionError("zero denominator polynomial")
        if not n:
            n, d = (), _DEN1
        else:
            if len(d) > 1:  # a constant denominator shares no factor with n
                g = _pgcd(n, d)
                if len(g) > 1 or g[0] != 1:
                    n, _ = _pdivmod(n, g)
                    d, _ = _pdivmod(d, g)
            c = d[_order(d)]
            if c != 1:
                n, d = tuple(x / c for x in n), tuple(x / c for x in d)
            if len(d) == 1:
                d = _DEN1
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("QEps values are immutable")

    def __reduce__(self):  # pickle and copy without __setattr__; a polynomial gets _DEN1 back
        return _canonical, (self.num,) if self.den is _DEN1 else (self.num, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, r: RationalLike) -> "QEps":
        r = _fraction(r)
        return _canonical((r,) if r else (), _DEN1)

    @classmethod
    def epsilon(cls, power: int = 1) -> "QEps":
        return cls((0,) * power + (1,))

    @classmethod
    def from_monomials(cls, num, den=None) -> "QEps":
        """Build from ``(coefficient, power)`` pairs for numerator/denominator."""

        def poly(monos):
            coeffs: list[Fraction] = []  # index = power of e
            for c, p in monos:
                if p < 0:
                    raise ValueError("negative powers of e are not accepted")
                _add_monomial(coeffs, _fraction(c), p)
            return coeffs

        if den is None:  # a polynomial: already canonical once trimmed
            return _canonical(_trim(poly(num)), _DEN1)
        return cls(poly(num), poly(den))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_rational(self) -> bool:
        return len(self.num) <= 1 and self.den == _DEN1

    @property
    def shift(self) -> int:
        """Net power of e factored out (negative for infinite elements)."""
        if self.is_zero:
            return 0
        return _order(self.num) - _order(self.den)

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.num[0] if self.num else Fraction(0)

    # -- field operations ----------------------------------------------------

    def __add__(self, other: "QEps") -> "QEps":
        other = _coerce(other)
        if self.den is _DEN1 and other.den is _DEN1:
            return _canonical(_padd(self.num, other.num), _DEN1)
        return QEps(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "QEps":
        return _canonical(_pneg(self.num), self.den)

    def complement(self) -> "QEps":  # 1 - self = (den - num)/den, still in lowest terms
        diff = [d - n for d, n in zip_longest(self.den, self.num, fillvalue=0)]
        return _canonical(_trim(diff), self.den)

    def __sub__(self, other) -> "QEps":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "QEps":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "QEps":
        other = _coerce(other)
        if self.den is _DEN1 and other.den is _DEN1:
            return _canonical(_pmul(self.num, other.num), _DEN1)
        return QEps(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "QEps":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return QEps(self.den, self.num)

    def __truediv__(self, other) -> "QEps":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "QEps":
        return _coerce(other) * self.inverse()

    # -- order ----------------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0 or 1: the sign of ``self - other`` for small positive e."""
        other = _coerce(other)
        a, c = self.num, other.num
        if self.den is not _DEN1 or other.den is not _DEN1:
            # both denominators start with 1, so they are positive for small
            # e: a/b - c/d has the sign of a d - c b
            a, c = _pmul(a, other.den), _pmul(c, self.den)
        # the sign of the lowest-order coefficient of the difference
        for x, y in zip_longest(a, c, fillvalue=0):
            if x > y:
                return 1
            if x < y:
                return -1
        return 0

    def sign(self) -> int:
        """-1, 0 or 1: the sign for small positive e.

        The denominator's lowest-order coefficient is 1 by normalisation, so
        the numerator's lowest-order nonzero coefficient decides.
        """
        for c in self.num:
            if c:
                return 1 if c > 0 else -1
        return 0

    def __eq__(self, other):
        if not isinstance(other, (QEps, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):  # a rational value hashes like the Fraction it equals
        return hash(self.as_rational() if self.is_rational else (self.num, self.den))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- standard part & approximation ----------------------------------------

    # A canonical value is finite iff its denominator's constant term is
    # nonzero, and that term is then 1, so the numerator's is the standard part.
    def std_part(self) -> Fraction:
        """The rational limit as e goes to 0 from above."""
        if not self.den[0]:
            raise ValueError(f"{self} is infinite and has no standard part")
        return self.num[0] if self.num else Fraction(0)

    @property
    def is_infinitesimal(self) -> bool:
        return not self.is_zero and self.shift > 0

    def approx_eq(self, r: RationalLike) -> bool:
        """True iff the value is within 1/n of the rational r for every n."""
        r = _fraction(r)
        return bool(self.den[0]) and self.std_part() == r

    def in_unit_interval(self) -> bool:
        return self.sign() >= 0 and self <= ONE

    # -- text ------------------------------------------------------------------

    def __str__(self) -> str:
        if self.den == _DEN1:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"QEps({self})"


def _canonical(num: tuple, den: tuple = _DEN1) -> QEps:
    """A QEps from a ``(num, den)`` pair that is already in canonical form."""
    q = object.__new__(QEps)
    object.__setattr__(q, "num", num)
    object.__setattr__(q, "den", den)
    return q


def _coerce(x) -> QEps:
    if isinstance(x, QEps):
        return x
    if isinstance(x, (int, Fraction)):
        return QEps.from_rational(x)
    raise TypeError(f"cannot coerce {x!r} to QEps")


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c} e")
        else:
            parts.append(f"{c} e^{i}")
    return " + ".join(parts)


ZERO = QEps()
ONE = QEps.from_rational(1)


class QEpsParseError(ValueError):
    pass


def parse_qeps(text: str) -> QEps:
    """Parse a value in the literal grammar, e.g. ``(1 + 2 e)/(2 + 1 e)``.

    The grammar lives in :class:`ipj.syntax.Parser`, which reads formula
    thresholds with it too.
    """
    from .syntax import ParseError, Parser  # syntax imports QEps at module level

    try:
        p = Parser(text, allow_symbolic=False)
        value = p.literal()
        if not p.at_end():
            p.error(f"trailing input in literal: {p.texts[p.i]!r}")
    except ParseError as exc:
        raise QEpsParseError(str(exc)) from None
    return value
