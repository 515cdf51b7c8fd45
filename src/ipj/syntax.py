"""ASTs, parser and printer for justification terms, epistemic formulas and
probability formulas.

Concrete syntax (ASCII, line oriented):

    term  := ident | "c:" ident | term "*" term | term "+" term | "!" term
           | "f[" (nat|"w") "](" term ")"
    agent := "P" | "V"
    eform := ident | "~" eform | eform "&" eform | eform "|" eform
           | eform "->" eform | "box[" agent "]" eform
           | term ":[" agent "]" eform
    form  := eform | "Pr>=" q "(" eform ")" | "Pr~" rational "(" eform ")"
           | "Pr<" q "(" eform ")" | "Pr<=" q "(" eform ")"
           | "Pr>" q "(" eform ")" | "Pr=" q "(" eform ")"
           | "~" form | form "&" form

Precedence: ``!`` > ``*`` > ``+`` for terms and ``~`` > ``&`` > ``|`` >
``->`` for formulas; parentheses are always allowed.  Derived operators
(``|``, ``->``, ``Pr<``, ``Pr<=``, ``Pr>``, ``Pr=``) are desugared
at parse time, so printed output is always in the core connectives and
reparses to an identical tree.

Probability thresholds are exact field literals in the one literal grammar
of ``Q[e]`` (see :meth:`Parser.literal`), which :func:`ipj.qeps.parse_qeps`
reads through too; inside proof templates they may instead be parametric
expressions ``q + 1/v^j`` (see :class:`SymThresh`).
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from typing import Iterator, Optional, Union

from .qeps import _DEN1, _FRACTION_ZERO, QEps, _add_monomial, _canonical

# ---------------------------------------------------------------------------
# complexities and agents
# ---------------------------------------------------------------------------


class _Omega:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "w"

    def __hash__(self):  # a constant, not the default by id: the same in every process
        return 0x6F6D6567


OMEGA = _Omega()
Complexity = Union[int, _Omega]

PROVER = "P"
VERIFIER = "V"
AGENTS = (PROVER, VERIFIER)


def comp_lt(m: Complexity, n: Complexity) -> bool:
    if n is OMEGA:
        return m is not OMEGA
    if m is OMEGA:
        return False
    return m < n


def comp_le(m: Complexity, n: Complexity) -> bool:
    return m == n or comp_lt(m, n)


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


class _Node:
    """A node of a term or formula tree, or a parametric threshold.

    A subclass lists its fields in ``__slots__ = _fields = (...)``;
    ``__init_subclass__`` gives it the ``__init__``, ``==`` and field tuple
    ``_key`` of its arity.  Fields are frozen.  ``__init__`` sets ``_hash``
    to None, and the first ``hash()`` keeps the hash of the field tuple
    there; ``==``, pickling and copying do not see it (a twin hashes afresh).
    So a tree is hashed once, not again at every lookup of a tree that holds it."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        fields = cls._fields
        init, eq, key = _ARITY[len(fields)]
        cls.__init__ = init(_set_hash, *(vars(cls)[f].__set__ for f in fields))
        cls.__eq__, cls._key = _renamed(eq, fields), _renamed(key, fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        h = self._hash
        if h is None:  # the first hash() of this node
            h = hash(self._key())
            _set_hash(self, h)
        return h

    def __reduce__(self):  # pickle and copy the fields alone
        return type(self), self._key()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


_set_hash = _Node._hash.__set__

# Per arity: an __init__ that writes None to _hash and each field through
# its slot's setter, and an == and a field tuple that _renamed points at a
# class's fields.


def _init1(sh, s0):
    def __init__(self, a):
        sh(self, None)
        s0(self, a)
    return __init__


def _init2(sh, s0, s1):
    def __init__(self, a, b):
        sh(self, None)
        s0(self, a)
        s1(self, b)
    return __init__


def _init3(sh, s0, s1, s2):
    def __init__(self, a, b, c):
        sh(self, None)
        s0(self, a)
        s1(self, b)
        s2(self, c)
    return __init__


def _eq1(self, other):
    if other.__class__ is self.__class__:
        return (self._0,) == (other._0,)
    return NotImplemented


def _eq2(self, other):
    if other.__class__ is self.__class__:
        return (self._0, self._1) == (other._0, other._1)
    return NotImplemented


def _eq3(self, other):
    if other.__class__ is self.__class__:
        return (self._0, self._1, self._2) == (other._0, other._1, other._2)
    return NotImplemented


_ARITY = {
    1: (_init1, _eq1, lambda self: (self._0,)),
    2: (_init2, _eq2, lambda self: (self._0, self._1)),
    3: (_init3, _eq3, lambda self: (self._0, self._1, self._2)),
}


def _renamed(fn, fields: tuple):
    """``fn`` reading the attributes ``fields`` where its code reads ``_0``, ``_1``, ``_2``."""
    names = dict(zip(("_0", "_1", "_2"), fields))
    code = fn.__code__
    return type(fn)(code.replace(co_names=tuple(names.get(n, n) for n in code.co_names)),
                    fn.__globals__)


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


class Const(_Node):
    __slots__ = _fields = ("name",)  # str


class Var(_Node):
    __slots__ = _fields = ("name",)  # str


class App(_Node):
    __slots__ = _fields = ("left", "right")  # Term, Term


class Sum(_Node):
    __slots__ = _fields = ("left", "right")  # Term, Term


class Bang(_Node):
    __slots__ = _fields = ("inner",)  # Term


class Proto(_Node):
    __slots__ = _fields = ("complexity", "inner")  # Complexity, Term


Term = Union[Const, Var, App, Sum, Bang, Proto]


# ---------------------------------------------------------------------------
# epistemic formulas
# ---------------------------------------------------------------------------


class Atom(_Node):
    __slots__ = _fields = ("name",)  # str


class ENot(_Node):
    __slots__ = _fields = ("inner",)  # EFormula


class EAnd(_Node):
    __slots__ = _fields = ("left", "right")  # EFormula, EFormula


class Box(_Node):
    __slots__ = _fields = ("agent", "inner")  # str, EFormula


class Just(_Node):
    __slots__ = _fields = ("term", "agent", "inner")  # Term, str, EFormula


EFormula = Union[Atom, ENot, EAnd, Box, Just]


def eimp(a: EFormula, b: EFormula) -> EFormula:
    return ENot(EAnd(a, ENot(b)))


def eor(a: EFormula, b: EFormula) -> EFormula:
    return ENot(EAnd(ENot(a), ENot(b)))


def eiff(a: EFormula, b: EFormula) -> EFormula:
    return EAnd(eimp(a, b), eimp(b, a))


def dest_eimp(f: EFormula) -> Optional[tuple[EFormula, EFormula]]:
    if isinstance(f, ENot) and isinstance(f.inner, EAnd) and isinstance(f.inner.right, ENot):
        return f.inner.left, f.inner.right.inner
    return None


# ---------------------------------------------------------------------------
# probability thresholds
# ---------------------------------------------------------------------------


class SymThresh(_Node):
    """Parametric threshold ``base + coeff / v^power`` used in proof templates.

    ``power >= 1`` with an integer parameter v >= N (approximation rule);
    ``power == 0`` means ``base + coeff * v`` with v ranging over the whole
    unit interval (non-equality rule).  ``coeff`` is nonzero, except in
    ``proofcheck._sym_view``'s views of rationals, which are never printed.
    """

    __slots__ = _fields = ("base", "coeff", "power")  # Fraction, Fraction, int

    def __str__(self):
        if self.power == 0:
            mono = f"{self.coeff} v"
        else:
            suffix = "v" if self.power == 1 else f"v^{self.power}"
            mono = f"{self.coeff}/{suffix}"
        if self.base == 0:
            return mono
        return f"{self.base} + {mono}"


Threshold = Union[QEps, SymThresh]


def thresh_complement(s: Threshold) -> Threshold:
    """1 - s, for concrete and parametric thresholds alike."""
    if isinstance(s, SymThresh):
        return SymThresh(1 - s.base, -s.coeff, s.power)
    return s.complement()


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


class Epistemic(_Node):
    __slots__ = _fields = ("inner",)  # EFormula


class ProbGeq(_Node):
    __slots__ = _fields = ("threshold", "inner")  # Threshold, EFormula


class ProbApprox(_Node):
    __slots__ = _fields = ("r", "inner")  # Fraction, EFormula


class FNot(_Node):
    __slots__ = _fields = ("inner",)  # Formula


class FAnd(_Node):
    __slots__ = _fields = ("left", "right")  # Formula, Formula


Formula = Union[Epistemic, ProbGeq, ProbApprox, FNot, FAnd]


def fnot(f: Formula) -> Formula:
    """Negation, keeping purely epistemic trees inside a single Epistemic node."""
    if isinstance(f, Epistemic):
        return Epistemic(ENot(f.inner))
    return FNot(f)


def fand(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Epistemic) and isinstance(b, Epistemic):
        return Epistemic(EAnd(a.inner, b.inner))
    return FAnd(a, b)


def fimp(a: Formula, b: Formula) -> Formula:
    return fnot(fand(a, fnot(b)))


def for_(a: Formula, b: Formula) -> Formula:
    return fnot(fand(fnot(a), fnot(b)))


def dest_fimp(f: Formula) -> Optional[tuple[Formula, Formula]]:
    """View a formula as an implication, seeing through the epistemic merge."""
    if isinstance(f, FNot) and isinstance(f.inner, FAnd) and isinstance(f.inner.right, FNot):
        return f.inner.left, f.inner.right.inner
    if isinstance(f, Epistemic):
        d = dest_eimp(f.inner)
        if d is not None:
            return Epistemic(d[0]), Epistemic(d[1])
    return None


def as_efml(f: Formula) -> Optional[EFormula]:
    return f.inner if isinstance(f, Epistemic) else None


# sugar constructors used throughout the kernel -----------------------------


def prob_leq(s: Threshold, a: EFormula) -> Formula:
    return ProbGeq(thresh_complement(s), ENot(a))


def prob_lt(s: Threshold, a: EFormula) -> Formula:
    return FNot(ProbGeq(s, a))


def prob_gt(s: Threshold, a: EFormula) -> Formula:
    return FNot(prob_leq(s, a))


def prob_eq(s: Threshold, a: EFormula) -> Formula:
    return FAnd(prob_leq(s, a), ProbGeq(s, a))


# ---------------------------------------------------------------------------
# syntactic closure
# ---------------------------------------------------------------------------


# the child nodes of each inner node of a term or formula tree
_CHILDREN = {
    App: ("left", "right"), Sum: ("left", "right"), Bang: ("inner",), Proto: ("inner",),
    ENot: ("inner",), EAnd: ("left", "right"), Box: ("inner",), Just: ("term", "inner"),
    Epistemic: ("inner",), ProbGeq: ("inner",), ProbApprox: ("inner",),
    FNot: ("inner",), FAnd: ("left", "right"),
}
# the child eformulas of each inner node of an eformula; a justification's
# term is none
_EFORMULA_CHILDREN = {ENot: ("inner",), EAnd: ("left", "right"), Box: ("inner",), Just: ("inner",)}


def nodes(x, children: dict = _CHILDREN) -> Iterator:
    """Every node of a term or formula tree, descending through the fields
    ``children`` names; an explicit stack, so that a deep tree does not
    reach the recursion limit."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(getattr(node, name) for name in children.get(type(node), ()))


def esubformulas(f: EFormula) -> set[EFormula]:
    return set(nodes(f, _EFORMULA_CHILDREN))


def atoms_of_e(f: EFormula) -> set[str]:
    return {n.name for n in nodes(f) if type(n) is Atom}


def is_f_free(t: Term) -> bool:
    return not any(type(n) is Proto for n in nodes(t))


def names_in_formula(f: Formula) -> set[str]:
    """The names of the atoms, variables and constants in a formula."""
    return {n.name for n in nodes(f) if type(n) in (Atom, Var, Const)}


def formula_has_param(f: Formula) -> bool:
    """Whether a threshold of ``f`` is symbolic.  Thresholds sit only under
    ``FNot`` and ``FAnd``, which one explicit stack walks."""
    stack = [f]
    while stack:
        g = stack.pop()
        cls = g.__class__
        if cls is FAnd:
            stack += (g.left, g.right)
        elif cls is FNot:
            stack.append(g.inner)
        elif cls is ProbGeq and g.threshold.__class__ is SymThresh:
            return True
    return False


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# one match per token, after the whitespace in front of it; a character that
# starts no token is matched alone, so that every character is read, and an
# empty match at the end takes the trailing whitespace.  The alternatives are
# tried in this order, so "Pr>=" is no ident, "c:x" no ident "c" and ":[" no ":".
_TOKEN_RE = re.compile(
    r"""
    \s*
    ( [()\[\]/^~&|*+!=.;,] | :\[? | ->       # a symbol
    | Pr(?:>= | <= | ~ | = | < | >)           # prop
    | c:(?=[A-Za-z_])                         # the prefix of a constant
    | [A-Za-z_][A-Za-z0-9_']*                 # ident
    | -?\d+                                   # num
    | .                                       # a character that starts no token
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# A token's kind by its text: a symbol's kind is its text, the Pr operators
# are "prop", "c:" is the prefix of a constant and a lone "-" starts no token.
# Otherwise the first character tells an ident from a num, and a token that
# starts with "(" and is not one is a group the parser's memo holds (see
# _tokenize).  A num may also start with a digit outside ASCII; it ends in a
# digit, and a character that starts no token is no digit.
_KINDS = {sym: sym for sym in ("->", ":[", "c:", *"()[]/^~&|*+!:=.;,")}
_KINDS.update(dict.fromkeys(("Pr>=", "Pr<=", "Pr~", "Pr=", "Pr<", "Pr>"), "prop"))
_KINDS["-"] = None
_FIRST_CHAR_KINDS = dict.fromkeys("-0123456789", "num")
_FIRST_CHAR_KINDS.update(dict.fromkeys(
    "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "ident"))
_FIRST_CHAR_KINDS["("] = "group"
_first_char = operator.itemgetter(0)

# "v" is the parameter of proof templates, read only inside thresholds
RESERVED_NAMES = {"box", "f", "P", "V", "v"}

# the largest power of e or v a literal may write; a value of Q[e] holds one
# coefficient per power, so without a cap `1 e^1000000000` would ask for gigabytes
MAX_POWER = 100


_SPACE_RE = re.compile(r"\s*")
_PAREN_RE = re.compile(r"[()]")
# what only a formula holds: a formula other than an atom holds one of these,
# a term, a threshold and a bare atom ``(x)`` none; a box is followed by its
# agent, so "box" alone, as in c:box or x'box, is no mark
_FORMULA_MARK_RE = re.compile(r"[~&|>]|:\[|\bbox\s*\[|\bPr[<>=~]")


def _tokenize(text: str, skip: bool) -> tuple[list, list, list]:
    """The kinds and the texts of the tokens of ``text`` and of an end token.

    A constant is one token: its text is that of the ident after ``"c:"``.
    Any other token there, as in ``"c:c:x"`` or ``"c:Pr~"``, is an error.

    With ``skip``, a group whose text comes earlier in ``text`` is one
    ``group`` token, whose text is the group's, and is not lexed: the parser
    reads that first copy and keeps it in its memo before it comes to the
    later one.  A group whose text holds nothing that only a formula holds
    stays tokens, as it may be a term: ``(t)``, ``(x)``, ``(s + t)``.  A group
    that holds such a mark is no term, so where it is followed by ``:[``,
    ``+`` or ``*`` the text is no formula: it fails, as without a memo.

    Also the text of each closed group whose ``"("`` is lexed, in text order."""
    texts, keys, pos = [], [], 0
    if skip:
        opens = []  # the offset of each "(", in text order
        close = {}  # the offset of each "(" -> that of its matching ")"
        opened = []
        for m in _PAREN_RE.finditer(text):
            at = m.start()
            if text[at] == "(":
                opens.append(at)
                opened.append(at)
            elif opened:
                close[opened.pop()] = at
        first = set()  # the texts of the groups met so far
        for at in opens:
            end = close.get(at)
            if at < pos or end is None:  # inside a group taken whole, or unclosed
                continue
            end += 1
            key = text[at:end]
            if key not in first:
                first.add(key)
            elif _FORMULA_MARK_RE.search(text, at, end):
                texts += _TOKEN_RE.findall(text, pos, at)
                texts.append(key)
                pos = end
                continue
            keys.append(key)
    texts += _TOKEN_RE.findall(text, pos)
    texts = list(filter(None, texts))  # without the empty matches that end each part
    kinds = list(map(_KINDS.get, texts, map(_FIRST_CHAR_KINDS.get, map(_first_char, texts))))
    if "c:" in kinds:
        kinds, texts = _constants(text, kinds, texts)
    if None in kinds:
        _characters(text, kinds, texts)
    kinds.append("eof")
    texts.append("")
    return kinds, texts, keys


def _characters(text: str, kinds: list, texts: list):
    """Make each token of no kind a num if it ends in a digit, else raise at the first."""
    for j in [j for j, kind in enumerate(kinds) if kind is None]:
        if not texts[j][-1].isdecimal():
            msg = f"unexpected character {texts[j]!r}"
            raise ParseError(msg, *_position(text, kinds, texts, j))
        kinds[j] = "num"


def _constants(text: str, kinds: list, texts: list) -> tuple[list, list]:
    """The tokens of ``text`` with each ``"c:"`` and the ident after it one
    constant token.  Any other token after a ``"c:"`` is an error, raised
    after that of an unexpected character before it."""
    fixed_kinds, fixed_texts, start = [], [], 0
    j = kinds.index("c:")
    while True:
        if kinds[j + 1] != "ident":
            _characters(text, kinds[:j], texts[:j])
            msg = f"expected a constant's name after 'c:', got {texts[j + 1]!r}"
            raise ParseError(msg, *_position(text, kinds, texts, j + 1))
        fixed_kinds += kinds[start:j]
        fixed_texts += texts[start:j]
        fixed_kinds.append("const")
        fixed_texts.append(texts[j + 1])
        start = j + 2
        try:
            j = kinds.index("c:", start)
        except ValueError:
            return fixed_kinds + kinds[start:], fixed_texts + texts[start:]


def token_offsets(text: str, kinds: list, texts: list) -> Iterator[int]:
    """The offset in ``text`` of each token that :func:`_tokenize` read from
    it as ``kinds`` and ``texts``, the end token's included: skip the
    whitespace in front of a token, then step over its text, and over the
    ``"c:"`` in front of a constant's."""
    pos = 0
    for kind, tok in zip(kinds, texts):
        pos = _SPACE_RE.match(text, pos).end()
        yield pos
        pos += len(tok) + 2 if kind == "const" else len(tok)


def _position(text: str, kinds: list, texts: list, n: int) -> tuple[int, int]:
    """The line and column (both from 1) of token ``n`` (from 0); only
    ``"\\n"`` starts a line."""
    at = next(itertools.islice(token_offsets(text, kinds, texts), n, None))
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# the kinds of token a threshold literal is written with
_LITERAL_KINDS = frozenset(("num", "ident", "/", "+", "^", "(", ")"))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class Parser:
    """A recursive-descent reader over the tokens of one text.

    A token is a kind and a text, held in the parallel lists ``kinds`` and
    ``texts``; ``i`` is the index of the next one.  No token carries a
    position: :meth:`error` computes the line and column of the token it
    names from the text and the tokens before it (see :func:`token_offsets`),
    when it raises.

    ``memo``, when given, must be empty.  The parser fills it with what it
    read without an error, and what it holds is not read again, so equal
    groups and equal thresholds of the text share one object:

    - the text of a group ``"(" formula ")"`` maps to the formula read
      there.  A later copy of the text is not even lexed: it is one token
      that names its node (see :func:`_tokenize`).
    - (whether the operator is ``Pr~``, which reads a rational and not a
      literal, the token texts of a threshold) maps to the threshold read
      from them.

    A text reads otherwise with a memo than without one only where the read
    with the memo fails (see :func:`_tokenize` for one that reads without);
    :func:`parse_each` reads such a text alone.
    """

    def __init__(self, text: str, allow_symbolic: bool = True, memo: Optional[dict] = None):
        self.kinds, self.texts, self.group_texts = _tokenize(text, memo is not None)
        self.i = 0
        self.allow_symbolic = allow_symbolic
        self.text = text
        self.memo = memo
        self.close = None  # the paren map, built only for a formula read (pair_parens)
        self.vars: dict[str, Var] = {}  # one node per variable name, hashed at most once
        if memo is not None:
            self.pair_parens()

    def pair_parens(self):
        """Set ``close``, the index of each "(" token's matching ")", and with a memo ``keys``."""
        self.close = close = {}
        opened = []
        for j, kind in enumerate(self.kinds):
            if kind == "(":
                opened.append(j)
            elif kind == ")" and opened:
                close[opened.pop()] = j
        if self.memo is not None:  # each group's text, in the order of its "(" token
            self.keys = dict(zip(sorted(close), self.group_texts))

    # -- token plumbing ------------------------------------------------------

    def expect(self, kind: str) -> int:
        """The index of the next token, which is read if it is of ``kind``, else an error."""
        i = self.i
        if self.kinds[i] != kind:
            self.error(f"expected {kind!r}, got {self.texts[i]!r}", i)
        self.i = i + 1
        return i

    def position(self, j: int) -> tuple[int, int]:
        """The line and column of token ``j``, computed from the text."""
        return _position(self.text, self.kinds, self.texts, j)

    def error(self, msg: str, at: Optional[int] = None):
        """Raise ``msg`` at token ``at``, by default the next one."""
        raise ParseError(msg, *self.position(self.i if at is None else at))

    def at_end(self) -> bool:
        return self.kinds[self.i] == "eof"

    def is_word(self, j: int, word: str) -> bool:
        return self.texts[j] == word and self.kinds[j] == "ident"

    # -- terms ----------------------------------------------------------------

    def term(self) -> Term:
        """A sum of applications of prefix terms, in one frame: ``*`` binds
        tighter than ``+``, and both group to the left."""
        kinds = self.kinds
        t = None
        while True:
            u = self.term_prefix()
            while kinds[self.i] == "*":
                self.i += 1
                u = App(u, self.term_prefix())
            t = u if t is None else Sum(t, u)
            if kinds[self.i] != "+":
                return t
            self.i += 1

    def term_prefix(self) -> Term:
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "!":
            self.i = i + 1
            return Bang(self.term_prefix())
        if kind == "const":
            self.i = i + 1
            return Const(text)
        if kind == "(":
            self.i = i + 1
            t = self.term()
            self.expect(")")
            return t
        if kind == "ident":
            if text == "f":
                self.i = i + 1
                self.expect("[")
                c = self.complexity()
                self.expect("]")
                self.expect("(")
                inner = self.term()
                self.expect(")")
                return Proto(c, inner)
            if text in RESERVED_NAMES:
                self.error(f"{text!r} is reserved and cannot name a variable")
            self.i = i + 1
            v = self.vars.get(text)
            if v is None:
                v = self.vars[text] = Var(text)
            return v
        self.error(f"expected a term, got {text!r}")

    def integer(self, j: int) -> int:
        """The value of the num token ``j``."""
        text = self.texts[j]
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            msg = f"number of {len(text)} digits is too long"
            raise ParseError(msg, *self.position(j)) from None

    def complexity(self) -> Complexity:
        j = self.i
        self.i = j + 1  # past an error the index no longer matters
        kind, text = self.kinds[j], self.texts[j]
        if kind == "num":
            n = self.integer(j)
            if n < 0:
                self.error("complexity must be a natural number", j)
            return n
        if kind == "ident" and text == "w":
            return OMEGA
        self.error(f"expected a complexity (nat or 'w'), got {text!r}", j)

    def agent(self) -> str:
        j = self.i
        self.i = j + 1
        text = self.texts[j]
        if self.kinds[j] == "ident" and text in AGENTS:
            return text
        self.error(f"expected agent 'P' or 'V', got {text!r}", j)

    # -- formulas ---------------------------------------------------------------

    def formula(self) -> Formula:
        """``&``, ``|`` and ``->`` in one frame: ``&`` binds tighter than
        ``|``, both group to the left, and ``->`` groups to the right."""
        kinds = self.kinds
        sides = []  # the disjunctions before each "->"
        f = None
        while True:
            g = self.form_unary()
            while kinds[self.i] == "&":
                self.i += 1
                g = fand(g, self.form_unary())
            f = g if f is None else for_(f, g)
            kind = kinds[self.i]
            if kind == "->":
                sides.append(f)
                f = None
            elif kind != "|":
                break
            self.i += 1
        for left in reversed(sides):
            f = fimp(left, f)
        return f

    def group(self) -> Formula:
        """``"(" formula ")"``, or the node of a group the memo holds."""
        i = self.i
        if self.kinds[i] == "group":  # its first copy holds a mark, so it was read as a formula
            self.i = i + 1
            return self.memo[self.texts[i]]
        self.expect("(")
        return self.close_group(i, self.formula())

    def close_group(self, i: int, f: Formula) -> Formula:
        """``f``, read after the "(" token ``i``: expect its ")" and keep ``f`` in the memo."""
        self.expect(")")
        if self.memo is not None:
            self.memo[self.keys[i]] = f
        return f

    def form_unary(self) -> Formula:
        i = self.i
        kind = self.kinds[i]
        if kind == "~":
            self.i = i + 1
            return fnot(self.form_unary())
        if kind == "prop":
            return self.prob_formula()
        if kind == "ident" and self.texts[i] == "box":
            self.i = i + 1
            self.expect("[")
            a = self.agent()
            self.expect("]")
            inner = self.form_unary()
            return Epistemic(Box(a, self.require_efml(inner, i)))
        if kind == "(" or kind == "group":
            # a parenthesized formula, or a parenthesized term in front of a
            # justification separator; a term reading can end at ":[" only if
            # the token after the matching ")" goes on with a term or is ":[".
            # The formula is read in this frame, not through group().
            if kind == "group":
                f = self.group()
            else:
                if self.close is None:
                    self.pair_parens()
                close = self.close.get(i)
                if close is not None and self.kinds[close + 1] in (":[", "+", "*"):
                    try:
                        t = self.term()
                        if self.kinds[self.i] == ":[":
                            return self.justification(t)
                    except ParseError:
                        pass
                self.i = i + 1
                f = self.close_group(i, self.formula())
            if self.kinds[self.i] == ":[":
                self.error("a justified formula needs a term on the left of ':['")
            return f
        if kind in ("ident", "const", "!"):
            t = self.term()
            if self.kinds[self.i] == ":[":
                return self.justification(t)
            if isinstance(t, Var):
                return Epistemic(Atom(t.name))
            self.error("expected ':[' after term", i)
        self.error(f"expected a formula, got {self.texts[i]!r}")

    def justification(self, t: Term) -> Formula:
        j = self.expect(":[")
        a = self.agent()
        self.expect("]")
        inner = self.form_unary()
        return Epistemic(Just(t, a, self.require_efml(inner, j)))

    def require_efml(self, f: Formula, j: int) -> EFormula:
        """``f`` as an epistemic formula, else an error at token ``j``."""
        e = as_efml(f)
        if e is None:
            self.error("probability operators cannot occur inside an epistemic formula", j)
        return e

    def prob_formula(self) -> Formula:
        j = self.i  # a prop token
        self.i = j + 1
        op = self.texts[j]
        s = self.threshold(op)
        body = self.group()
        e = self.require_efml(body, j)
        if op == "Pr~":
            assert isinstance(s, Fraction)
            return ProbApprox(s, e)
        builder = {
            "Pr>=": ProbGeq,
            "Pr<=": prob_leq,
            "Pr<": prob_lt,
            "Pr>": prob_gt,
            "Pr=": prob_eq,
        }[op]
        return builder(s, e)

    # -- literals --------------------------------------------------------------------
    #
    # The one grammar of values of Q[e]; ``ipj.qeps.parse_qeps`` reads through it.
    #   rational := int | int "/" posint
    #   monomial := rational | rational "e" | rational "e^" posint
    #   poly     := monomial ("+" monomial)*
    #   literal  := poly | "(" poly ")" "/" "(" poly ")"
    # Proof templates may add one parametric monomial to a poly:
    #   "v" | rational "v" | int "/v" | int "/v^" posint

    def threshold(self, op: str):
        """The threshold after ``op``; with a memo, each text is read once."""
        if self.memo is None:
            return self.read_threshold(op)
        start, end = self.i, self.literal_end()
        key = (op == "Pr~", tuple(self.texts[start:end]))
        s = self.memo.get(key)
        if s is None:
            s = self.read_threshold(op)
            if self.i == end:
                self.memo[key] = s
        else:
            self.i = end
        return s

    def literal_end(self) -> int:
        """The index of the first token after the literal at token i, found
        without reading it: the first of a kind no literal is written with,
        or the ``(`` of the body.  Within these kinds a token's text tells
        its kind, and the reader takes each token it can end on alike."""
        kinds = self.kinds
        i = j = self.i
        while kinds[j] in _LITERAL_KINDS:
            # only the polys of the fraction form start with "("
            if kinds[j] == "(" and j > i and kinds[j - 1] != "/":
                break
            j += 1
        return j

    def read_threshold(self, op: str):
        j = self.i
        if op == "Pr~":
            r = self.rational()
            if not 0 <= r <= 1:
                msg = f"approximate-probability threshold {r} outside [0,1]"
                raise ParseError(msg, *self.position(j))
            return r
        s = self.literal()
        if isinstance(s, QEps) and not s.in_unit_interval():
            raise ParseError(f"probability threshold {s} outside [0,1]", *self.position(j))
        return s

    def rational(self) -> Fraction:
        j = self.expect("num")
        n = self.integer(j)
        if self.kinds[j + 1] != "/":
            return Fraction(n)
        self.i = j + 2
        d = self.integer(self.expect("num"))
        if d <= 0:
            self.error("denominator must be positive", j)
        return Fraction(n, d)

    def literal(self):
        """A value of Q[e], or a parametric threshold where the parser allows one."""
        j = self.i
        if self.kinds[j] == "(":
            self.i += 1
            num, sym = self.poly()
            self.expect(")")
            self.expect("/")
            self.expect("(")
            den, den_sym = self.poly()
            self.expect(")")
            if sym or den_sym:
                self.error("parametric threshold cannot use the fraction form", j)
            try:
                return QEps(num, den)
            except ZeroDivisionError as exc:
                raise ParseError(str(exc), *self.position(j)) from None
        coeffs, sym = self.poly()
        if sym is not None:
            if not self.allow_symbolic:
                self.error("the parameter v occurs only in proof templates", j)
            if len(coeffs) > 1:  # "0 e" writes e too
                self.error("cannot mix e and the parameter v in one threshold", j)
            if sym[0]:  # with a zero coefficient the value is the rational base: one spelling
                return SymThresh(coeffs[0] if coeffs else _FRACTION_ZERO, *sym)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return _canonical(tuple(coeffs), _DEN1)

    def poly(self):
        """The e-coefficients of a poly by power, up to the highest written, and its v-monomial."""
        kinds, texts = self.kinds, self.texts
        coeffs: list[Fraction] = []
        sym = None
        while True:
            i = self.i
            param = None
            # the words v and e are ident tokens: their texts are tested only there
            if kinds[i] == "ident" and texts[i] == "v":
                self.i = i + 1
                param = (Fraction(1), 0)
            elif kinds[i] == "num" and kinds[i + 1] == "/" and kinds[i + 2] == "ident" and texts[i + 2] == "v":
                self.i = i + 3  # c/v with c a bare integer
                param = (Fraction(self.integer(i)), self.power("v"))
            else:
                c = self.rational()
                j = self.i
                word = texts[j] if kinds[j] == "ident" else None
                if word == "v":
                    self.i = j + 1
                    param = (c, 0)
                elif word == "e":
                    self.i = j + 1
                    _add_monomial(coeffs, c, self.power("e"))
                elif coeffs:
                    _add_monomial(coeffs, c, 0)
                else:
                    coeffs.append(c)
            if param is not None:
                if sym is not None:
                    self.error("only one parametric monomial is allowed", i)
                sym = param
            if kinds[self.i] != "+":
                return coeffs, sym
            self.i += 1

    def power(self, name: str) -> int:
        if self.kinds[self.i] != "^":
            return 1
        self.i += 1
        j = self.expect("num")
        p = self.integer(j)
        if p <= 0:
            self.error(f"{name} power must be positive", j)
        if p > MAX_POWER:
            self.error(f"{name} power {p} is over the limit of {MAX_POWER}", j)
        return p


def parse_term(text: str) -> Term:
    p = Parser(text)
    t = p.term()
    if not p.at_end():
        p.error(f"trailing input: {p.texts[p.i]!r}")
    return t


def parse_rational(text: str) -> Fraction:
    """A rational ``n`` or ``n/d`` of the literal grammar."""
    try:
        p = Parser(text)
        r = p.rational()
        if p.at_end():
            return r
    except ParseError:
        pass
    raise ParseError(f"bad rational {text!r}")


def parse_formula(text: str, allow_symbolic: bool = True) -> Formula:
    p = Parser(text, allow_symbolic=allow_symbolic)
    f = p.formula()
    if not p.at_end():
        p.error(f"trailing input: {p.texts[p.i]!r}")
    return f


def parse_eformula(text: str) -> EFormula:
    f = parse_formula(text, allow_symbolic=False)
    e = as_efml(f)
    if e is None:
        raise ParseError("expected a purely epistemic formula")
    return e


def lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line that is not blank or a ``#`` comment."""
    stripped = list(map(str.strip, text.splitlines()))
    return itertools.compress(enumerate(stripped, 1), [s and s[0] != "#" for s in stripped])


def parse_each(texts, read, allow_symbolic: bool = False, memo: Optional[dict] = None) -> dict:
    """Each distinct text -> ``read(parser)``, through one :class:`Parser`
    (with ``allow_symbolic`` and ``memo``) over the texts, each followed by a
    ``;``, up to the first text that holds a ``;`` or whose read fails, gives
    None or does not end at its ``;``.  No reader takes a ``;``, so a read
    stops at one as at the end of a text read alone (with a memo, a group
    whose text came before is one token for the node read there), and a
    value is that of a plain read.  The caller reads every other text alone.

    Texts of several kinds are read with ``read`` None: each text is then a
    pair (reader, text), read by its own reader and keyed by the pair."""
    keys, values = list(dict.fromkeys(texts)), {}
    pairs = keys if read is None else [(read, text) for text in keys]
    try:
        p = Parser(";".join([text for _, text in pairs] + [""]), allow_symbolic, memo)
        kinds = p.kinds
        for key, (reader, text) in zip(keys, pairs):
            if ";" in text:
                break
            value = reader(p)
            if value is None or kinds[p.i] != ";":
                break
            values[key] = value
            p.i += 1
    except (ParseError, RecursionError):
        pass
    return values


def parse_nat(text: str, what: str) -> Optional[int]:
    """``text`` read as a natural number in decimal digits (no sign, no underscore),
    else None. A numeral too long for int() is the error
    ``bad <what>: number of N digits is too long``."""
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() reads
        raise ParseError(f"bad {what}: number of {len(text)} digits is too long") from None


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_TERM_SUM, _TERM_MUL, _TERM_PREFIX = 0, 1, 2


def _term_str(t: Term, prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return f"c:{t.name}"
    if isinstance(t, Proto):
        c = "w" if t.complexity is OMEGA else str(t.complexity)
        return f"f[{c}]({_term_str(t.inner, _TERM_SUM)})"
    if isinstance(t, Bang):
        return f"!{_term_str(t.inner, _TERM_PREFIX)}"
    if isinstance(t, App):
        s = f"{_term_str(t.left, _TERM_MUL)} * {_term_str(t.right, _TERM_PREFIX)}"
        return f"({s})" if prec > _TERM_MUL else s
    if isinstance(t, Sum):
        s = f"{_term_str(t.left, _TERM_SUM)} + {_term_str(t.right, _TERM_MUL)}"
        return f"({s})" if prec > _TERM_SUM else s
    raise TypeError(f"not a term: {t!r}")


def print_term(t: Term) -> str:
    return _term_str(t, _TERM_SUM)


_E_AND, _E_UNARY = 0, 1


def _eform_str(f: EFormula, prec: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, ENot):
        return f"~{_eform_str(f.inner, _E_UNARY)}"
    if isinstance(f, Box):
        return f"box[{f.agent}] {_eform_str(f.inner, _E_UNARY)}"
    if isinstance(f, Just):
        s = f"{_term_str(f.term, _TERM_PREFIX)} :[{f.agent}] {_eform_str(f.inner, _E_UNARY)}"
        return f"({s})" if prec > _E_AND else s
    if isinstance(f, EAnd):
        s = f"{_eform_str(f.left, _E_AND)} & {_eform_str(f.right, _E_UNARY)}"
        return f"({s})" if prec > _E_AND else s
    raise TypeError(f"not an epistemic formula: {f!r}")


def print_eformula(f: EFormula) -> str:
    return _eform_str(f, _E_AND)


def _form_str(f: Formula, prec: int) -> str:
    if isinstance(f, Epistemic):
        return _eform_str(f.inner, prec)
    if isinstance(f, FNot):
        return f"~{_form_str(f.inner, _E_UNARY)}"
    if isinstance(f, FAnd):
        s = f"{_form_str(f.left, _E_AND)} & {_form_str(f.right, _E_UNARY)}"
        return f"({s})" if prec > _E_AND else s
    if isinstance(f, ProbGeq):
        return f"Pr>= {f.threshold} ({_eform_str(f.inner, _E_AND)})"
    if isinstance(f, ProbApprox):
        return f"Pr~ {f.r} ({_eform_str(f.inner, _E_AND)})"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    return _form_str(f, _E_AND)


# -- justified-term precedence note -----------------------------------------
# Just bodies print the left term at prefix precedence, so sums and
# applications are parenthesized there: `(s + t) :[P] p` reparses correctly.
