"""Field, order, and standard-part laws of the exact infinitesimal field."""

import copy
import hashlib
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ipj.qeps import _DEN1, QEps, _padd, _pmul, _pneg, parse_qeps
from ipj.semantics import ModelError, Quasimodel, parse_model_file
from ipj.syntax import ParseError, SymThresh, parse_formula

ZERO = QEps.from_rational(0)
ONE = QEps.from_rational(1)
EPS = QEps.epsilon()

small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


@st.composite
def qeps_values(draw):
    num = draw(
        st.lists(
            st.tuples(small_fraction, st.integers(min_value=0, max_value=3)),
            min_size=0,
            max_size=3,
        )
    )
    den = draw(
        st.lists(
            st.tuples(small_fraction, st.integers(min_value=0, max_value=2)),
            min_size=0,
            max_size=2,
        )
    )
    try:
        return QEps.from_monomials(num, den or [(Fraction(1), 0)])
    except ZeroDivisionError:
        return QEps.from_monomials(num)


values = qeps_values()


def is_finite(x):
    """True iff ``x`` is not infinite: zero, or no net negative power of e."""
    return x.is_zero or x.shift >= 0


@given(values, values)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(values, values, values)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(values, values)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(values, values, values)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(values, values, values)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(values)
def test_additive_identity_and_inverse(a):
    assert a + ZERO == a
    assert a - a == ZERO


@given(values)
def test_multiplicative_identity_and_inverse(a):
    assert a * ONE == a
    if a != ZERO:
        assert a * (ONE / a) == ONE


@given(values, values)
def test_subtraction_roundtrip(a, b):
    assert (a - b) + b == a


@given(values, values)
def test_order_total(a, b):
    signs = [a.compare(b), b.compare(a)]
    assert sorted(signs) in ([-1, 1], [0, 0])
    assert (a == b) == (a.compare(b) == 0)


@given(values, values, values)
def test_order_transitive(a, b, c):
    if a.compare(b) <= 0 and b.compare(c) <= 0:
        assert a.compare(c) <= 0


@given(values, values, values)
def test_order_respects_addition(a, b, c):
    if a.compare(b) < 0:
        assert (a + c).compare(b + c) < 0


@given(values, values, values)
def test_order_respects_positive_multiplication(a, b, c):
    if a.compare(b) < 0 and c.compare(ZERO) > 0:
        assert (a * c).compare(b * c) < 0


polynomials = st.lists(
    st.tuples(small_fraction, st.integers(min_value=0, max_value=4)), max_size=4
).map(QEps.from_monomials)


@given(polynomials, polynomials)
@settings(max_examples=300)
@example(parse_qeps("1/2 + 1 e"), parse_qeps("1/2"))  # lengths 2 and 1
@example(parse_qeps("1/2"), parse_qeps("1/2 + -1 e^3"))  # lengths 1 and 4
@example(parse_qeps("1 e^2"), parse_qeps("1 e^2 + 1 e^4"))  # equal up to the shorter
@example(parse_qeps("1 + 1 e"), parse_qeps("1 + 1 e"))  # equal
@example(ZERO, parse_qeps("-1 e^3"))
@example(ZERO, ZERO)
def test_compare_of_polynomials_is_the_sign_of_the_difference(a, b):
    want = (a - b).sign()
    with pytest.MonkeyPatch.context() as mp:
        # compare reads the coefficients from the lowest power of e: it builds no difference
        mp.setattr(QEps, "__sub__", None)
        mp.setattr(QEps, "__add__", None)
        assert a.compare(b) == want
        assert b.compare(a) == -want
        assert a.compare(a) == 0
        assert a.compare(0) == a.sign()


@given(values, values)
@settings(max_examples=300)
@example(parse_qeps("(2 + 3 e)/(24 + 6 e)"), parse_qeps("(5 + -1 e)/(24 + 6 e)"))  # one denominator
@example(parse_qeps("(1)/(1 e)"), parse_qeps("(1 + 1 e)/(1 + 1 e^2)"))  # an infinite value
@example(parse_qeps("(1 + 1 e)/(1 + 2 e + 1 e^2)"), parse_qeps("(2)/(2 + 2 e)"))  # equal once reduced
def test_compare_of_rational_functions_is_the_sign_of_the_difference(a, b):
    want = (a - b).sign()
    with pytest.MonkeyPatch.context() as mp:
        # compare reads the coefficients of a d - c b for a/b and c/d: it builds no difference
        mp.setattr(QEps, "__sub__", None)
        mp.setattr(QEps, "__add__", None)
        assert a.compare(b) == want
        assert b.compare(a) == -want
        assert a.compare(0) == a.sign()


def test_compare_is_the_sign_of_the_leading_term_of_the_difference():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e", positive=True)
    rng = random.Random(27)
    for _ in range(120):
        (a, left), (b, right) = sympy_pair(sympy, e, rng), sympy_pair(sympy, e, rng)
        leading = sympy.cancel(left - right).as_leading_term(e)
        assert a.compare(b) == int(sympy.sign(leading.subs(e, 1))), (a, b)


def test_epsilon_below_every_positive_rational():
    for i in range(1, 101):
        q = QEps.from_rational(Fraction(1, i))
        assert EPS.compare(q) < 0
        assert EPS.compare(ZERO) > 0


@given(values, values)
def test_std_part_is_a_homomorphism(a, b):
    if is_finite(a) and is_finite(b):
        assert (a + b).std_part() == a.std_part() + b.std_part()
        assert (a * b).std_part() == a.std_part() * b.std_part()


def test_std_part_of_infinite_element_raises():
    inv = ONE / EPS
    assert not is_finite(inv)
    with pytest.raises(ValueError):
        inv.std_part()


def test_known_values():
    # (1 + 2e)/(2 + 4e) reduces to exactly one half
    a = QEps.from_monomials(
        [(Fraction(1), 0), (Fraction(2), 1)], [(Fraction(2), 0), (Fraction(4), 1)]
    )
    assert a == QEps.from_rational(Fraction(1, 2))
    # (1 + 2e)/(2 + e) exceeds one half by a positive infinitesimal
    b = parse_qeps("(1 + 2 e)/(2 + 1 e)")
    assert b.compare(QEps.from_rational(Fraction(1, 2))) > 0
    assert b.std_part() == Fraction(1, 2)
    assert (b - QEps.from_rational(Fraction(1, 2))).is_infinitesimal


def test_approx_eq():
    assert (ONE - EPS).approx_eq(Fraction(1))
    half = QEps.from_rational(Fraction(1, 2))
    assert (half + EPS * EPS).approx_eq(Fraction(1, 2))
    assert not (half + QEps.from_rational(Fraction(1, 1000))).approx_eq(Fraction(1, 2))
    assert ONE.approx_eq(Fraction(1))


@given(values)
@settings(max_examples=300)
@example(ONE / EPS)  # infinite
@example(parse_qeps("(1 + 1 e)/(3 + 1 e)"))  # 1/3 and an infinitesimal
@example(parse_qeps("(1 e)/(1 + 1 e)"))  # infinitesimal
@example(ZERO)
def test_approx_eq_reads_the_constant_terms(a):
    rs = [Fraction(0)]
    if is_finite(a):
        rs += [a.std_part() + d for d in (0, Fraction(1, 7), Fraction(-1, 7))]
    else:  # the numerator's constant term is no standard part
        rs.append(a.num[0])
    for r in rs:
        d = a - QEps.from_rational(r)
        assert a.approx_eq(r) == (d.is_zero or d.is_infinitesimal), r


# -- the sign decides the order --------------------------------------------------------


@given(values, values)
@settings(max_examples=300)
def test_sign_is_multiplicative_and_odd(x, y):
    assert (x * y).sign() == x.sign() * y.sign()
    assert (-x).sign() == -x.sign()
    assert x.compare(y) == (x - y).sign()


def sympy_pair(sympy, e, rng):
    """A seeded rational function as a value and as a sympy expression of
    the coefficients as given, before normalisation."""

    def poly():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))]

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * e**i for i, c in enumerate(p))

    num, den = poly(), poly()
    if not any(den):
        den = [Fraction(1)]
    return QEps(num, den), expr(num) / expr(den)


def test_sign_is_the_sign_of_the_leading_term():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e", positive=True)
    rng = random.Random(14)
    for _ in range(300):
        x, expr = sympy_pair(sympy, e, rng)
        leading = sympy.cancel(expr).as_leading_term(e)
        assert x.sign() == int(sympy.sign(leading.subs(e, 1))), x


def test_unit_interval_membership():
    assert EPS.in_unit_interval()
    assert (ONE - EPS).in_unit_interval()
    assert not (ZERO - EPS).in_unit_interval()
    assert not (ONE + EPS).in_unit_interval()
    assert not (ONE / EPS).in_unit_interval()


@given(values)
@settings(max_examples=300)
def test_literal_roundtrip(a):
    assert parse_qeps(str(a)) == a


@given(values)
@example(parse_qeps("1/2 + 1 e"))
@example(parse_qeps("(1 + 2 e)/(3 + 1 e)"))
@settings(max_examples=100)
def test_pickle_and_copy_roundtrip(a):
    # a polynomial's twin keeps the shared denominator, which the fast paths of
    # +, * and compare recognise by identity
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert (twin.num, twin.den) == (a.num, a.den) and hash(twin) == hash(a)
        assert (twin.den is _DEN1) == (len(a.den) == 1)


def test_parse_errors():
    for bad in ("", "1 +", "e^", "(1)/(0)", "1//2"):
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_qeps(bad)


# -- one literal grammar for values and formula thresholds ----------------------------


@given(values.filter(QEps.in_unit_interval))
@settings(max_examples=200)
def test_thresholds_and_values_share_the_grammar(v):
    assert parse_formula(f"Pr>= {v} (p)").threshold == parse_qeps(str(v))


def test_parametric_monomials_are_not_values():
    # the parameter v belongs to proof templates, never to a value of Q[e]
    for bad in ("1/v", "v", "1/2 + -1/v", "1 e^0", "(1 + v)/(2)", "1 e^x", "1/2 v^2"):
        with pytest.raises(ParseError, match="^1:[0-9]+: "):
            parse_qeps(bad)


def test_literal_limits():
    # a power past syntax.MAX_POWER, or a number int() cannot read
    for bad, msg in (("1 e^1000000000", "1:5: e power 1000000000 is over the limit of 100"),
                     ("1" * 5000, "1:1: number of 5000 digits is too long")):
        with pytest.raises(ParseError) as exc:
            parse_qeps(bad)
        assert str(exc.value) == msg


def test_bad_mass_line_is_a_model_error():
    text = "worlds: a\nR[P]:\na -> a\nR[V]:\na -> a\nU: a\nmu:\na = 1/v\nw0: a\n"
    want = "^line 8: bad mass line: 1:1: the parameter v occurs only in proof templates$"
    with pytest.raises(ModelError, match=want):
        parse_model_file(text)


# -- fast paths keep the canonical form ----------------------------------------------

# values with denominator 1 (rationals, polynomials) take the gcd-free paths
rationals = small_fraction.map(QEps.from_rational)
polynomials = st.lists(small_fraction, max_size=3).map(QEps)
operands = st.one_of(rationals, polynomials, values)

GCD_FACTOR = (Fraction(1), Fraction(2))  # 1 + 2e: a common factor the gcd must remove


def fields(x):
    assert all(isinstance(c, Fraction) for c in x.num + x.den)
    return x.num, x.den


def general(num, den):
    """``QEps(num, den)`` field by field, also through the constructor's gcd."""
    direct = QEps(num, den)
    reduced = QEps(_pmul(num, GCD_FACTOR), _pmul(den, GCD_FACTOR))
    assert fields(direct) == fields(reduced)
    return fields(direct)


@given(operands, operands)
@settings(max_examples=300)
def test_fast_paths_match_the_general_constructor(a, b):
    den = _pmul(a.den, b.den)
    left, right = _pmul(a.num, b.den), _pmul(b.num, a.den)
    assert fields(a + b) == general(_padd(left, right), den)
    difference = general(_padd(left, _pneg(right)), den)
    assert fields(a - b) == difference
    assert fields(a * b) == general(_pmul(a.num, b.num), den)
    assert fields(-a) == general(_pneg(a.num), a.den)
    num = difference[0]
    low = next((c for c in num if c != 0), 0)  # the denominator starts with 1
    assert a.compare(b) == (low > 0) - (low < 0)


@given(small_fraction, small_fraction.filter(bool))
def test_constant_denominators_are_canonical(r, c):
    assert fields(QEps.from_rational(r)) == general((r,), (1,))
    assert fields(QEps((r, c), (c,))) == general((r, c), (c,))
    assert fields(QEps((r,), (c,))) == fields(QEps.from_rational(r / c))


# -- a rational value is its Fraction in a set or a dict ------------------------------


def test_a_rational_value_hashes_like_its_fraction():
    rng = random.Random(32)
    rationals = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(1000)]
    ints = [rng.randint(-10**12, 10**12) for _ in range(200)] + list(range(-3, 4))
    for r in rationals + ints + [True, False]:
        q = QEps.from_rational(r)
        assert q == r and hash(q) == hash(r)
        assert {r: "r"}.get(q) == "r" and {q: "q"}.get(r) == "q"
        assert len({q, r}) == 1 and q in {r} and r in {q}
    assert {ONE, 1, Fraction(1), True} == {ONE} and len({ZERO, 0, Fraction(0)}) == 1
    # a value that is not rational hashes by its canonical fields, however it was built
    for text in ("1 e", "1/2 + 1 e^3", "(2 + 4 e)/(2 + 1 e)", "(1)/(1 + 1 e)"):
        q = parse_qeps(text)
        assert hash(q) == hash(QEps(q.num, q.den)) == hash((q.num, q.den))


# -- no value is read from a float ----------------------------------------------------


NOT_RATIONAL = {
    "QEps numerator": lambda: QEps((0.5,)),
    "QEps denominator": lambda: QEps((1,), (1, 0.5)),
    "QEps string": lambda: QEps(("1/3",)),
    "from_rational float": lambda: QEps.from_rational(0.1),
    "from_rational string": lambda: QEps.from_rational("1/3"),
    "from_monomials numerator": lambda: QEps.from_monomials([(0.25, 1)]),
    "from_monomials denominator": lambda: QEps.from_monomials([(1, 0)], [(1, 0), (0.5, 1)]),
    "approx_eq": lambda: ONE.approx_eq(1.0),
}


@pytest.mark.parametrize("name", NOT_RATIONAL)
def test_constructors_refuse_a_coefficient_that_is_not_rational(name):
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        NOT_RATIONAL[name]()


# -- the literal reader, pinned ---------------------------------------------------------
#
# Seeded literal texts, each read five ways: parse_qeps, a Pr>= threshold with and
# without allow_symbolic, a Pr~ rational, and a mass line of a model file (read through
# the model file's shared syntax.parse_each pass); and in groups of six as the masses of
# one file, so that one parser reads several texts.  An outcome is a value's exact
# coefficients, each with its type, or the error's type and text.  The digest was
# computed with the reader that built each value through a per-power dict, and
# again, with the same texts, once every error of these reads was a ParseError or
# a ModelError (out-of-range thresholds and values of Q[e] had their own).

LITERAL_DIGEST = "4c6c25630ba05146060a38c5639e1b6020b4507578eb9f85d0275805e4336df8"

BAD_LITERALS = ("1/0", "(1)/(0)", "1 e^0", "((1))/(1)", "1 2", "1 e + 2 3", "1 e + v",
                "0 e + v", "v + v", "1/v + 2 v", "1/2 v + 1/v^2", "", "1 +", "e", "1 x",
                "(1 + 1 e)/(1", "1/2/3", "1 e^-1", "1/-2", "(1 + v)/(2)", "1 e^", "+ 1")


def _rational_text(rng):
    n = rng.choice((0, 0, 1, -1, 2, 3, -5, 8, 12, 100, rng.randint(-999, 999)))
    if rng.random() < 0.5:
        return str(n)
    return f"{n}/{rng.choice((1, 2, 3, 4, 6, 9, 12, 97, rng.randint(1, 999)))}"


def _monomial_text(rng):
    c = _rational_text(rng)
    power = rng.choice((0, 0, 1, 1, 1, 2, 2, 3, 5) if rng.random() < 0.95 else (100, 101))
    if power == 0:
        return c
    space = rng.choice((" ", " ", ""))
    return f"{c}{space}e" if power == 1 and rng.random() < 0.7 else f"{c}{space}e^{power}"


def _poly_text(rng, coeffs=None):
    if coeffs is None:  # random monomials: repeated powers and zero coefficients included
        monos = [_monomial_text(rng) for _ in range(rng.randint(1, 4))]
    else:
        monos = [str(c) if p == 0 else f"{c} e" if p == 1 else f"{c} e^{p}"
                 for p, c in enumerate(coeffs) if c or rng.random() < 0.2]
        monos = monos or ["0"]
        rng.shuffle(monos)
    return rng.choice((" + ", "+", " +")).join(monos)


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _coefficients(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(n)]


def _fraction_text(rng):
    num, den = _coefficients(rng, rng.randint(1, 3)), _coefficients(rng, rng.randint(1, 3))
    if rng.random() < 0.6:  # a common factor
        factor = _coefficients(rng, rng.randint(1, 3))
        num, den = _times(num, factor), _times(den, factor)
    if rng.random() < 0.3:  # a factor of e
        num, den = [Fraction(0), *num], [Fraction(0), *den]
    if rng.random() < 0.2:
        return f"({_poly_text(rng)})/({_poly_text(rng)})"
    return f"({_poly_text(rng, num)})/({_poly_text(rng, den)})"


def _parametric_text(rng):
    c = rng.randint(-3, 9)
    mono = rng.choice(("v", f"{_rational_text(rng)} v", f"{c}/v", f"{c}/v^{rng.randint(1, 4)}",
                       "0 v", "0/v"))
    parts = [mono, _rational_text(rng)] if rng.random() < 0.7 else [mono]
    if rng.random() < 0.15:
        parts.append(_monomial_text(rng))  # e and v in one threshold, or a second rational
    rng.shuffle(parts)
    return " + ".join(parts)


def _literal_texts():
    rng = random.Random(20261020)
    makers = (_poly_text, _poly_text, _poly_text, _fraction_text, _fraction_text,
              _rational_text, _parametric_text)
    texts = [*BAD_LITERALS, "1 e + 2 e + 0 e^3", "1 e^100", "1 e^101", "(1 e^100)/(1 e^100)"]
    while len(texts) < 5040:
        texts.append(rng.choice(makers)(rng))
    return texts


def _described(value):
    coefficient = lambda c: (type(c).__name__, str(c))  # noqa: E731
    if isinstance(value, QEps):
        return ([*map(coefficient, value.num)], [*map(coefficient, value.den)])
    if isinstance(value, SymThresh):
        return (coefficient(value.base), coefficient(value.coeff), value.power)
    if isinstance(value, list):
        return [*map(_described, value)]
    return coefficient(value)


def _outcome(read):
    try:
        return _described(read())
    except Exception as exc:  # the error's type and text are pinned too
        return (type(exc).__name__, str(exc))


def _model_text(masses):
    worlds = " ".join(f"a{i}" for i in range(len(masses)))
    edges = "\n".join(f"a{i} -> a{i}" for i in range(len(masses)))
    mu = "\n".join(f"a{i} = {m}" for i, m in enumerate(masses))
    return f"worlds: {worlds}\nR[P]:\n{edges}\nR[V]:\n{edges}\nU: {worlds}\nmu:\n{mu}\nw0: a0\n"


def test_the_literal_reader_reads_every_text_as_pinned(monkeypatch):
    # the masses of a file need not sum to 1 here: the value read is what is pinned
    monkeypatch.setattr(Quasimodel, "validate", lambda self, *args: None)
    texts = _literal_texts()
    outcomes = []
    for text in texts:
        outcomes += [
            _outcome(lambda: parse_qeps(text)),
            _outcome(lambda: parse_formula(f"Pr>= {text} (p)").threshold),
            _outcome(lambda: parse_formula(f"Pr>= {text} (p)", allow_symbolic=False).threshold),
            _outcome(lambda: parse_formula(f"Pr~ {text} (p)").r),
            _outcome(lambda: parse_model_file(_model_text([text])).measure["a0"]),
        ]
    for at in range(0, len(texts), 6):
        group = texts[at : at + 6]
        outcomes.append(_outcome(lambda: [*parse_model_file(_model_text(group)).measure.values()]))
    assert len(texts) >= 5000
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == LITERAL_DIGEST


class _Third(Fraction):  # a subclass of Fraction comes out as a plain Fraction
    pass


@pytest.mark.parametrize("c", [True, 3, Fraction(2, 3), _Third(1, 3)],
                         ids=["bool", "int", "Fraction", "subclass"])
def test_every_coefficient_stored_is_a_plain_fraction(c):
    a, b = QEps((1, c), (c, 1)), parse_qeps("1/2 + 3 e")
    built = [QEps((c,)), QEps((0, c), (c, c)), a, b, QEps.from_rational(c), QEps.epsilon(2),
             QEps.from_monomials([(c, 2), (c, 0), (c, 2)]),
             QEps.from_monomials([(c, 1)], [(1, 0), (c, 1)])]
    built += [a + b, a - b, a * b, a / b, -a, a.complement(), a.inverse(),
              b + c, c + b, b - c, c - b, b * c, c * b, b / c, c / b]
    for x in built:
        assert all(type(coefficient) is Fraction for coefficient in x.num + x.den), x


def test_a_fraction_coefficient_is_kept_as_given():
    r, s = Fraction(8, 9), Fraction(-1, 2)
    assert QEps.from_rational(r).num[0] is r
    assert QEps((r, 0, s)).num == (r, 0, s) and QEps((r, 0, s)).num[2] is s
    assert QEps.from_monomials([(s, 3), (r, 0)]).num[3] is s


@pytest.mark.parametrize("c", [0.5, Decimal("0.5"), "1/2"], ids=["float", "Decimal", "str"])
def test_a_coefficient_that_is_not_rational_is_still_refused(c):
    for build in (lambda: QEps((c,)), lambda: QEps((1,), (1, c)), lambda: QEps.from_rational(c),
                  lambda: QEps.from_monomials([(c, 1)]),
                  lambda: QEps.from_monomials([(1, 0)], [(c, 0)])):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            build()
