"""Hilbert-style derivation checking for the two-agent probabilistic
justification logic.

Two tables define the logic.  ``_SCHEMAS`` writes each axiom schema once:
one builder drives matching, instantiation and random generation.
``_RULES`` writes each inference rule once: a reader of the words after the
rule's keyword in a proof file, and a check of a line against them.  Axiom
schemas are matched structurally against desugared formula trees; side
conditions (threshold comparisons, complexity orders, interaction-spec
membership) are verified exactly.  The two infinitary probabilistic rules
are supported through a restricted parametric fragment: a template
derivation carries one distinguished parameter, written ``v``, that may
occur only inside probability thresholds.  Side conditions involving the
parameter are discharged by exact symbolic comparison; anything the
symbolic procedure cannot decide is rejected, never silently accepted.
"""

from __future__ import annotations

import math
import os
from functools import partial
from fractions import Fraction
from typing import Optional

from .ispec import InteractionSpec, error, error_exponent
from .qeps import ONE, ZERO, QEps
from . import syntax
from .syntax import (
    OMEGA,
    App,
    Atom,
    Bang,
    Box,
    Const,
    EAnd,
    ENot,
    EFormula,
    Epistemic,
    FAnd,
    FNot,
    Formula,
    Just,
    ProbApprox,
    ProbGeq,
    Proto,
    Sum,
    SymThresh,
    Threshold,
    as_efml,
    comp_lt,
    dest_fimp,
    eimp,
    eiff,
    eor,
    fand,
    fimp,
    fnot,
    formula_has_param,
    prob_eq,
    prob_leq,
    thresh_complement,
)


# ---------------------------------------------------------------------------
# symbolic threshold comparison
# ---------------------------------------------------------------------------

# symctx is None (no parameter in scope), ("nu", N) for an integer parameter
# v >= N, or ("sigma",) for a parameter ranging over the whole unit interval.
SymCtx = Optional[tuple]


def _sym_view(x: Threshold) -> Optional[SymThresh]:
    if isinstance(x, SymThresh):
        return x
    if isinstance(x, QEps) and x.is_rational:
        return SymThresh(x.as_rational(), Fraction(0), 0)
    return None


def _fsign(x: Fraction) -> int:
    return 0 if x == 0 else (1 if x > 0 else -1)


def thresh_signs(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[frozenset]:
    """The set of signs a - b takes over the parameter range; None if undecidable."""
    if isinstance(a, QEps) and isinstance(b, QEps):
        return frozenset((a.compare(b),))
    sa, sb = _sym_view(a), _sym_view(b)
    if sa is None or sb is None:
        return None  # a genuine infinitesimal against a parametric value
    if sa == sb:
        return frozenset((0,))
    if sa.coeff == 0 and sb.coeff == 0:
        return frozenset((_fsign(sa.base - sb.base),))
    if symctx is None:
        return None
    if symctx[0] == "sigma":
        if (sa.coeff and sa.power) or (sb.coeff and sb.power):
            return None
        # the difference is linear in the parameter; look at the endpoints
        v0 = sa.base - sb.base
        v1 = v0 + sa.coeff - sb.coeff
        signs = {_fsign(v0), _fsign(v1)}
        if _fsign(v0) * _fsign(v1) < 0:
            signs.add(0)
        return frozenset(signs)
    if symctx[0] == "nu":
        if (sa.coeff and sa.power == 0) or (sb.coeff and sb.power == 0):
            return None
        return _signs_nu(sa, sb, symctx[1])
    return None


def cmp_thresh(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[int]:
    """Sign of a - b, uniform over the parameter range; None if undecidable."""
    ss = thresh_signs(a, b, symctx)
    if ss is None or len(ss) != 1:
        return None
    return next(iter(ss))


def _signs_nu(sa: SymThresh, sb: SymThresh, n_min: int) -> Optional[frozenset]:
    # sign of  dq + ca/v^ja - cb/v^jb  over integers v >= n_min,
    # via the polynomial  dq*v^(ja+jb) + ca*v^jb - cb*v^ja.
    dq = sa.base - sb.base
    ja, jb = sa.power, sb.power
    coeffs: dict[int, Fraction] = {}
    for deg, c in ((ja + jb, dq), (jb, sa.coeff), (ja, -sb.coeff)):
        if c:
            coeffs[deg] = coeffs.get(deg, Fraction(0)) + c
    coeffs = {d: c for d, c in coeffs.items() if c}
    if not coeffs:
        return frozenset((0,))
    top = max(coeffs)
    lead = coeffs[top]
    bound = 1 + max((abs(c) / abs(lead) for d, c in coeffs.items() if d != top), default=Fraction(0))
    end = max(n_min, math.ceil(bound)) + 1
    if end - n_min > 10000:
        return None
    signs = {1 if lead > 0 else -1}  # the sign past every root
    for v in range(max(n_min, 1), end + 1):
        signs.add(_fsign(sum(c * v**d for d, c in coeffs.items())))
    return frozenset(signs)


def thresh_ge(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[bool]:
    ss = thresh_signs(a, b, symctx)
    return None if ss is None else ss <= {0, 1}


def thresh_lt(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[bool]:
    ss = thresh_signs(a, b, symctx)
    return None if ss is None else ss == {-1}


def thresh_is_rational_valued(s: Threshold, symctx: SymCtx) -> bool:
    """True if every instance of the threshold is a rational number."""
    if isinstance(s, QEps):
        return s.is_rational
    if s.coeff == 0:
        return True
    if s.power >= 1 and symctx is not None and symctx[0] == "nu":
        return True
    return False


# ---------------------------------------------------------------------------
# propositional tautology check (non-boolean subformulas are opaque)
# ---------------------------------------------------------------------------

_MAX_TAUT_LEAVES = 16


def is_tautology(f: Formula) -> Optional[bool]:
    """True/False, or None when there are too many opaque leaves to decide."""
    # the skeleton in pre-order, walked with one explicit stack; its
    # non-boolean subformulas are the leaves, in first-seen order
    skeleton, todo, leaves = [], [f], {}
    while todo:
        g = todo.pop()
        skeleton.append(g)
        cls = g.__class__
        if cls is FAnd or cls is EAnd:
            todo += (g.right, g.left)
        elif cls is FNot or cls is ENot or cls is Epistemic:
            todo.append(g.inner)
        else:
            leaves[g] = None
    if len(leaves) > _MAX_TAUT_LEAVES:
        return None
    full = (1 << (1 << len(leaves))) - 1
    # leaf j is true under assignment i iff bit j of i is set
    masks = {leaf: full // ((1 << (1 << j)) + 1) << (1 << j) for j, leaf in enumerate(leaves)}
    # folded in reverse, each connective finds its operands' masks on top of
    # the stack, its left operand's last; bit i is a value under assignment i
    values = []
    for g in reversed(skeleton):
        cls = g.__class__
        if cls is FNot or cls is ENot:
            values.append(full ^ values.pop())
        elif cls is FAnd or cls is EAnd:
            values.append(values.pop() & values.pop())
        elif cls is not Epistemic:
            values.append(masks[g])
    return values[0] == full


# ---------------------------------------------------------------------------
# axiom schemas
# ---------------------------------------------------------------------------
#
# Each schema is written once, as a builder from bindings to the instance.
# Calling the builder with metavariables gives the schema's pattern, which
# one unifier matches; a side condition then checks what the shape cannot
# say, and a derive step recomputes bindings that the others determine.


class NoMatch(Exception):
    """Why a formula or a proof line is not a valid step: a schema that does
    not match, a rule that does not apply, a bad citation or template.  It
    is a verdict, not an input error: ``_Check.run`` reports it as INVALID
    (exit 1), and ``_first_match`` tries the next schema."""

    def __init__(self, reason: str = "structural mismatch"):
        super().__init__(reason)
        self.reason = reason


class MatchContext:
    __slots__ = ("spec", "zk", "symctx", "hints")

    def __init__(self, spec: InteractionSpec, zk: bool = False, symctx: SymCtx = None,
                 hints: Optional[dict] = None):
        self.spec, self.zk, self.symctx = spec, zk, symctx
        self.hints = {} if hints is None else hints


class Match:
    def __init__(self, schema: str, bindings: dict):
        self.schema, self.bindings = schema, bindings


def _need(cond: bool, reason: str = "structural mismatch"):
    if not cond:
        raise NoMatch(reason)


class _Meta:
    """A metavariable of a schema pattern; with ``co`` it stands for 1 - s."""

    __slots__ = ("name", "co")

    def __init__(self, name: str, co: bool = False):
        self.name, self.co = name, co

    def complement(self) -> "_Meta":
        """1 - s as a pattern, so that thresh_complement builds it."""
        return _Meta(self.name, not self.co)


_FIELDS = {
    cls: cls._fields
    for cls in (Epistemic, ProbGeq, ProbApprox, FNot, FAnd, ENot, EAnd, Box, Just,
                App, Sum, Bang, Proto)
}


def _unify(p, x, b: dict) -> bool:
    """Match pattern p against x, binding each metavariable at its first
    occurrence; repeats and literals compare with ==."""
    cls = type(p)
    if cls is _Meta:
        if p.co:  # complement is an involution: 1 - s == x iff s == 1 - x
            x = thresh_complement(x)
        if p.name in b:
            return b[p.name] == x
        b[p.name] = x
        return True
    names = _FIELDS.get(cls)
    if names is None:
        return p == x
    if type(x) is not cls:
        return False
    for n in names:
        if not _unify(getattr(p, n), getattr(x, n), b):
            return False
    return True


class _Schema:
    __slots__ = ("build", "side", "derive", "names", "pattern")

    def __init__(self, build, side=None, derive=None):
        self.build = build  # keyword bindings -> instance; extra keys are ignored
        self.side = side  # (bindings, ctx) -> None; raises NoMatch, may add bindings
        self.derive = derive  # bindings -> the bindings they determine
        code = build.__code__  # the named parameters, before **_
        self.names = code.co_varnames[:code.co_argcount]
        self.pattern = build(**{name: _Meta(name) for name in self.names})


# -- side conditions and derived bindings ----------------------------------------


def _side_taut(b: dict, ctx: MatchContext):
    taut = is_tautology(b["formula"])
    if taut is None:
        raise NoMatch("too many opaque subformulas for the tautology check")
    _need(taut, "not a propositional tautology")


def _side_m(b: dict, ctx: MatchContext):
    _need(comp_lt(b["m"], b["n"]), "complexity side condition m < n fails")


def _side_p1(b: dict, ctx: MatchContext):
    _need(cmp_thresh(b["s"], ZERO, ctx.symctx) == 0, "threshold is not 0")


def _side_p2(b: dict, ctx: MatchContext):
    c = thresh_lt(b["s"], b["t"], ctx.symctx)
    if c is None:
        raise NoMatch("undecidable symbolic comparison s < t")
    _need(c, "side condition s < t fails")


def _side_p6(b: dict, ctx: MatchContext):
    _need(isinstance(b["s"], QEps) and isinstance(b["t"], QEps), "p6 needs concrete thresholds")


def _derive_p6(b: dict) -> dict:
    total = b["s"] + b["t"]
    return {"u": total if total.compare(ONE) <= 0 else ONE}


def _pa_range(s: Threshold, symctx: SymCtx, lo: Optional[bool], hi: Optional[bool], interval: str):
    _need(thresh_is_rational_valued(s, symctx), "the weaker threshold must be rational")
    if lo is None or hi is None:
        raise NoMatch("undecidable symbolic range condition")
    _need(lo and hi, f"side condition s in {interval} fails")


def _side_pa1(b: dict, ctx: MatchContext):
    s, c = b["s"], ctx.symctx
    _pa_range(s, c, thresh_ge(s, ZERO, c), thresh_lt(s, QEps.from_rational(b["r"]), c), "[0, r)")


def _side_pa2(b: dict, ctx: MatchContext):
    s, c = b["s"], ctx.symctx  # thresh_signs is antisymmetric: s > r is r < s
    _pa_range(s, c, thresh_lt(QEps.from_rational(b["r"]), s, c), thresh_ge(ONE, s, c), "(r, 1]")


def _infer_nk(x: Fraction, n: int, ctx: MatchContext) -> int:
    """Find k with x == 1/n^k, honoring an explicit k hint."""
    _need(0 < x <= 1, "bound must be in (0, 1]")
    _need(n >= 1, "bound denominator is not a power of n")
    k = error_exponent(n, x)  # any k fits when n == 1 and x == 1
    k_hint = ctx.hints.get("k")
    if k_hint is not None:
        _need(k is not None and (k == k_hint or n == 1),
              "threshold does not equal 1 - 1/n^k for the stated k")
        return k_hint
    _need(x.numerator == 1, "bound is not of the form 1/n^k")
    if n == 1:
        _need(x == 1, "bound must be 1 when n = 1")
        return 1
    _need(k is not None and k >= 1, "bound denominator is not a power of n")
    return k


def _interaction_side(alpha: EFormula, n: int, k: int, ctx: MatchContext) -> int:
    m_hint = ctx.hints.get("m")
    if m_hint is not None:
        _need(n > m_hint, "side condition n > m fails")
        _need(
            ctx.spec.member(alpha, m_hint, k),
            "formula is not in the stated interaction family",
        )
        return m_hint
    fn = ctx.spec.threshold(alpha)
    _need(fn is not None, "formula has no interaction-spec entry")
    thr = fn.value_at(k)
    _need(thr is not None, "interaction threshold undefined at this k")
    _need(thr < n, "no m with n > m puts the formula in the family")
    return thr


def _side_bound(b: dict, ctx: MatchContext):
    """c, s and zk1: the error bound q is 1/n^k, and n > m(k) in the spec."""
    n, q = b["n"], b["q"]
    _need(isinstance(n, int), "the axiom needs a finite complexity")
    _need(ctx.hints.get("n", n) == n, "complexity does not equal the stated n")
    _need(isinstance(q, QEps) and q.is_rational, "threshold must be rational")
    b["k"] = _infer_nk(q.as_rational(), n, ctx)
    b["m"] = _interaction_side(b["alpha"], n, b["k"], ctx)


def _derive_q(b: dict) -> dict:
    return {"q": QEps.from_rational(error(b["n"], b["k"]))}


def _side_limit(b: dict, ctx: MatchContext):
    _need(ctx.spec.in_I(b["alpha"]), "formula is not interactively provable")


def _zk(side):
    def zk_side(b: dict, ctx: MatchContext):
        _need(ctx.zk, "zero-knowledge axioms are disabled")
        side(b, ctx)

    return zk_side


# -- the table -----------------------------------------------------------------------


def _p5(A, s, **_):
    lhs = prob_leq(s, A)
    return fand(fimp(lhs, lhs), fimp(lhs, lhs))


def _p6(A, B, s, t, u, **_):
    disjoint = ProbGeq(ONE, ENot(EAnd(A, B)))
    return fimp(fand(fand(prob_eq(s, A), prob_eq(t, B)), disjoint), prob_eq(u, eor(A, B)))


def _claim(t, alpha):  # t :[P] alpha
    return Just(t, "P", alpha)


def _run(n, t, body):  # f[n](t) :[V] body
    return Just(Proto(n, t), "V", body)


_SCHEMAS: dict[str, _Schema] = {
    "p": _Schema(lambda formula, **_: formula, _side_taut),
    "k": _Schema(lambda agent, A, B, **_: Epistemic(
        eimp(Box(agent, eimp(A, B)), eimp(Box(agent, A), Box(agent, B))))),
    "t": _Schema(lambda agent, A, **_: Epistemic(eimp(Box(agent, A), A))),
    "4": _Schema(lambda agent, A, **_: Epistemic(eimp(Box(agent, A), Box(agent, Box(agent, A))))),
    "j": _Schema(lambda agent, t, u, A, B, **_: Epistemic(eimp(
        Just(t, agent, eimp(A, B)), eimp(Just(u, agent, A), Just(App(t, u), agent, B))))),
    "j+": _Schema(lambda agent, t, u, A, **_: Epistemic(
        eimp(eor(Just(t, agent, A), Just(u, agent, A)), Just(Sum(t, u), agent, A)))),
    "jt": _Schema(lambda agent, t, A, **_: Epistemic(eimp(Just(t, agent, A), A))),
    "j4": _Schema(lambda agent, t, A, **_: Epistemic(
        eimp(Just(t, agent, A), Just(Bang(t), agent, Just(t, agent, A))))),
    "jyb": _Schema(lambda agent, t, A, **_: Epistemic(eimp(Just(t, agent, A), Box(agent, A)))),
    "p1": _Schema(lambda A, s=ZERO, **_: ProbGeq(s, A), _side_p1),
    "p2": _Schema(lambda A, s, t, **_: fimp(prob_leq(s, A), FNot(ProbGeq(t, A))), _side_p2),
    "p3": _Schema(lambda A, s, **_: fimp(FNot(ProbGeq(s, A)), prob_leq(s, A))),
    "p4": _Schema(lambda A, B, s, **_: fimp(
        ProbGeq(ONE, eiff(A, B)), fimp(prob_eq(s, A), prob_eq(s, B)))),
    "p5": _Schema(_p5),
    "p6": _Schema(_p6, _side_p6, _derive_p6),
    "p7": _Schema(lambda A, B, s, **_: fimp(
        ProbGeq(ONE, eimp(A, B)), fimp(ProbGeq(s, A), ProbGeq(s, B)))),
    "pa1": _Schema(lambda A, r, s, **_: fimp(ProbApprox(r, A), ProbGeq(s, A)), _side_pa1),
    "pa2": _Schema(lambda A, r, s, **_: fimp(ProbApprox(r, A), prob_leq(s, A)), _side_pa2),
    "m": _Schema(lambda agent, t, m, n, A, **_: Epistemic(
        eimp(Just(Proto(m, t), agent, A), Just(Proto(n, t), agent, A))), _side_m),
    # q is the error bound 1/n^k, derived from n and k
    "c": _Schema(lambda t, alpha, n, q, **_: fimp(
        Epistemic(_claim(t, alpha)), ProbGeq(thresh_complement(q), _run(n, t, Box("P", alpha)))),
        _side_bound, _derive_q),
    "s": _Schema(lambda t, alpha, n, q, **_: fimp(
        Epistemic(ENot(_claim(t, alpha))), prob_leq(q, _run(n, t, Box("P", alpha)))),
        _side_bound, _derive_q),
    "cw": _Schema(lambda t, alpha, **_: fimp(
        Epistemic(_claim(t, alpha)), ProbApprox(Fraction(1), _run(OMEGA, t, Box("P", alpha)))),
        _side_limit),
    "sw": _Schema(lambda t, alpha, **_: fimp(
        Epistemic(ENot(_claim(t, alpha))),
        ProbApprox(Fraction(0), _run(OMEGA, t, Box("P", alpha)))), _side_limit),
    "zk1": _Schema(lambda t, alpha, n, q, **_: fimp(
        Epistemic(_claim(t, alpha)), prob_leq(q, _run(n, t, _claim(t, alpha)))),
        _zk(_side_bound), _derive_q),
    "zk2": _Schema(lambda t, alpha, **_: fimp(
        Epistemic(_claim(t, alpha)), ProbApprox(Fraction(0), _run(OMEGA, t, _claim(t, alpha)))),
        _zk(_side_limit)),
}

SCHEMA_IDS = tuple(_SCHEMAS)
# the schemas whose instances may be epistemic formulas, hence sit under constants
EPISTEMIC_SCHEMAS = tuple(
    sid for sid, sch in _SCHEMAS.items() if type(sch.pattern) in (Epistemic, _Meta))


def instantiate_schema(schema: str, b: dict) -> Formula:
    """The axiom instance the bindings describe (the inverse of matching)."""
    sch = _SCHEMAS.get(schema)
    if sch is None:
        raise ValueError(f"unknown schema {schema!r}")
    if sch.derive is not None:
        b = {**b, **sch.derive(b)}
    return sch.build(**b)


def _match(sid: str, f: Formula, ctx: MatchContext) -> dict:
    sch = _SCHEMAS.get(sid)
    if sch is None:
        raise ValueError(f"unknown schema {sid!r}")
    b: dict = {}
    _need(_unify(sch.pattern, f, b))
    if sch.side is not None:
        sch.side(b, ctx)
    if sch.derive is not None:
        for key, value in sch.derive(b).items():
            _need(b.pop(key) == value, f"{key} is not the value the other bindings give")
    return b


def _first_match(f: Formula, ctx: MatchContext, candidates) -> Optional[Match]:
    for sid in candidates:
        try:
            return Match(sid, _match(sid, f, ctx))
        except NoMatch:
            continue
    return None


def match_axiom(
    f: Formula,
    spec: InteractionSpec,
    zk: bool = False,
    schema: Optional[str] = None,
    hints: Optional[dict] = None,
    symctx: SymCtx = None,
) -> Optional[Match]:
    """Match a formula against one schema (if given) or all of them in order."""
    ctx = MatchContext(spec=spec, zk=zk, symctx=symctx, hints=hints or {})
    return _first_match(f, ctx, (schema,) if schema else SCHEMA_IDS)


_EMPTY_SPEC = InteractionSpec()


def match_epistemic_axiom(alpha: EFormula, symctx: SymCtx = None) -> Optional[Match]:
    """Match a purely epistemic formula against the epistemic schemas.

    These are the axioms that may sit under justification constants: the
    grammar only lets constants justify epistemic formulas.
    """
    ctx = MatchContext(spec=_EMPTY_SPEC, symctx=symctx)
    return _first_match(Epistemic(alpha), ctx, EPISTEMIC_SCHEMAS)


def is_axiom_chain(alpha: EFormula) -> bool:
    """True for c2:...:cn:A with constant justifications and an axiom core.
    An atom, a box or a justification skips the schema table: each schema but
    ``p`` has a negation at its top, and a lone opaque leaf is no tautology."""
    cls = alpha.__class__
    if cls is Just:
        return alpha.term.__class__ is Const and is_axiom_chain(alpha.inner)
    return cls is not Atom and cls is not Box and match_epistemic_axiom(alpha) is not None


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


class ProofLine:
    """A line of a derivation: ``rule`` is a key of _RULES, ``args`` what the
    rule's reader made of the words after the keyword."""

    __slots__ = ("index", "formula", "rule", "args")

    def __init__(self, index: int, formula: Formula, rule: str, args: tuple):
        self.index, self.formula, self.rule, self.args = index, formula, rule, args

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.index, self.formula, self.rule, self.args) == (
                other.index, other.formula, other.rule, other.args)
        return NotImplemented


class Derivation:
    def __init__(self, spec: InteractionSpec, lines: list[ProofLine], zk: bool, base_dir: str):
        self.spec, self.lines, self.zk, self.base_dir = spec, lines, zk, base_dir


class Report:
    """A verdict and why: ``lines`` are the text the CLI prints, ``fields``
    the values its ``--json`` adds beside them, ``counterexample`` the data of
    the first failure."""

    def __init__(self, ok: bool = True, lines: Optional[list[str]] = None,
                 fields: Optional[dict] = None):
        self.ok, self.counterexample = ok, None
        self.lines = [] if lines is None else lines
        self.fields = {} if fields is None else fields

    def note(self, text: str):
        self.lines.append(text)

    def fail(self, text: str, counterexample: Optional[tuple] = None):
        self.lines.append(text)
        if self.ok:
            self.ok = False
            self.counterexample = counterexample

    def verdict(self) -> "Report":
        """Close a report of several checks with its PASS or FAIL line."""
        self.note("PASS" if self.ok else "FAIL")
        return self

    def render(self) -> str:
        return "\n".join(self.lines)


_MAX_TEMPLATE_DEPTH = 4


def check_derivation(d: Derivation) -> Report:
    """Validate every line; report VALID or the first offending line."""
    return _Check(d, None, 0, {}).run()


class _Check:
    """One check of a derivation: the lines so far, the parameter range, the
    template nesting depth, and what the top-level check has learnt of
    templates.  ``templates`` maps a template's absolute path to its parsed
    derivation and the reports of its checks by (parameter range, depth), so
    that a template cited N times is read and parsed once, and checked once
    per parameter range."""

    def __init__(self, d: Derivation, symctx: SymCtx, depth: int, templates: dict):
        self.d, self.symctx, self.depth, self.templates = d, symctx, depth, templates
        self.by_index: dict[int, Formula] = {}

    def run(self) -> Report:
        if not self.d.lines:
            return Report(False, ["INVALID: empty derivation"])
        for line in self.d.lines:
            try:
                self.check(line)
            except NoMatch as exc:
                return Report(False, [f"INVALID: line {line.index}: {exc}"], {"line": line.index})
            self.by_index[line.index] = line.formula
        return Report(True, ["VALID"])

    def check(self, line: ProofLine):
        if line.index in self.by_index:
            raise NoMatch(f"duplicate line index {line.index}")
        if self.symctx is None:
            if formula_has_param(line.formula):
                raise NoMatch("parametric threshold outside a template")
        elif "v" in syntax.names_in_formula(line.formula):
            raise NoMatch("the parameter 'v' may only occur inside thresholds")
        _RULES[line.rule][2](self, line, *line.args)

    def cited(self, line: ProofLine, i: int) -> Formula:
        if i not in self.by_index or i >= line.index:
            raise NoMatch(f"citation of line {i} is not an earlier line")
        return self.by_index[i]

    def template(self, path: str, symctx: SymCtx) -> Derivation:
        """The template at ``path``, which must hold under ``symctx``: read
        once per check, and checked once per check and parameter range."""
        if self.depth >= _MAX_TEMPLATE_DEPTH:
            raise NoMatch("template nesting too deep")
        key = os.path.abspath(os.path.join(self.d.base_dir, path))
        entry = self.templates.get(key)
        if entry is None:
            entry = self.templates[key] = (_load_template(self.d, path, self.depth), {})
        t, reports = entry
        rep = reports.get((symctx, self.depth))
        if rep is None:
            rep = _Check(t, symctx, self.depth + 1, self.templates).run()
            reports[symctx, self.depth] = rep
        if not rep.ok:
            raise NoMatch(f"template {path!r} fails: {rep.render()}")
        return t


def _load_template(d: Derivation, path: str, depth: int) -> Derivation:
    """Read and parse the template ``path`` that ``d``, checked at nesting
    ``depth``, cites; the caller keeps the depth limit."""
    try:
        return load_derivation_file(os.path.join(d.base_dir, path), d.spec, d.zk)
    except OSError as exc:
        raise NoMatch(f"cannot read template {path!r}: {exc}") from exc


# -- the inference rules ----------------------------------------------------------------
#
# Each rule is a reader, which turns the words after its keyword into the
# rule's arguments, and a check of a line against them; both are written
# once, in the table below.


def _ax(c: _Check, line: ProofLine, schema: str, hints: tuple):
    if schema not in SCHEMA_IDS:
        raise NoMatch(f"unknown schema {schema!r}")
    d = c.d
    if match_axiom(line.formula, d.spec, d.zk, schema, dict(hints), c.symctx) is None:
        raise NoMatch(f"formula is not an instance of axiom ({schema})")


def _mp(c: _Check, line: ProofLine, i: int, j: int):
    fi, fj = c.cited(line, i), c.cited(line, j)
    for ante, implication in ((fi, fj), (fj, fi)):
        dimp = dest_fimp(implication)
        if dimp is not None and dimp[0] == ante and dimp[1] == line.formula:
            return
    raise NoMatch("modus ponens does not apply to the cited lines")


def _nec(agent: str, c: _Check, line: ProofLine, i: int):
    e = as_efml(c.cited(line, i))
    if e is None:
        raise NoMatch("necessitation needs an epistemic premise")
    if line.formula != Epistemic(Box(agent, e)):
        raise NoMatch("conclusion is not the boxed premise")


def _pnec(c: _Check, line: ProofLine, i: int):
    e = as_efml(c.cited(line, i))
    if e is None:
        raise NoMatch("probabilistic necessitation needs an epistemic premise")
    if line.formula != ProbGeq(ONE, e):
        raise NoMatch("conclusion must assert the premise with probability >= 1")


def _axnec(c: _Check, line: ProofLine, *chain: tuple):
    core = as_efml(line.formula)
    if core is None:
        raise NoMatch("axiom necessitation produces an epistemic formula")
    for name, agent in chain:
        if not (isinstance(core, Just) and core.term == Const(name) and core.agent == agent):
            raise NoMatch("constant chain does not match the formula")
        core = core.inner
    if match_epistemic_axiom(core, c.symctx) is None:
        raise NoMatch("chained formula is not an axiom instance")


def _approx(c: _Check, line: ProofLine, r: Fraction, path: str):
    if not 0 <= r <= 1:
        raise NoMatch("approximation rule needs r in [0,1]")
    dimp = dest_fimp(line.formula)
    if dimp is None or not isinstance(dimp[1], ProbApprox):
        raise NoMatch("conclusion must have the shape B -> Pr~ r (A)")
    b, head = dimp
    if head.r != r:
        raise NoMatch("conclusion r differs from the rule's r")
    a = head.inner
    n_min = 1 if r == 1 else math.ceil(Fraction(1) / (1 - r))
    template = c.template(path, ("nu", max(n_min, 1)))
    # premise family: B -> Pr>= r - 1/v (A)  and  B -> Pr<= r + 1/v (A),
    # with thresholds clipped into the unit interval at the ends.
    if r == 0:
        lower = fimp(b, ProbGeq(ZERO, a))
    else:
        lower = fimp(b, ProbGeq(SymThresh(r, Fraction(-1), 1), a))
    if r == 1:
        upper = fimp(b, ProbGeq(ZERO, ENot(a)))
    else:
        upper = fimp(b, ProbGeq(SymThresh(1 - r, Fraction(-1), 1), ENot(a)))
    derived = {l.formula for l in template.lines}
    if lower not in derived:
        raise NoMatch("template does not derive the lower premise family")
    if upper not in derived:
        raise NoMatch("template does not derive the upper premise family")


def _arch(c: _Check, line: ProofLine, path: str):
    template = c.template(path, ("sigma",))
    dimp = dest_fimp(template.lines[-1].formula)
    if dimp is None:
        raise NoMatch("template conclusion must have the shape B -> ~(Pr= v (A))")
    b, rhs = dimp
    sigma = SymThresh(Fraction(0), Fraction(1), 0)
    ok = (
        isinstance(rhs, FNot)
        and isinstance(rhs.inner, FAnd)
        and isinstance(rhs.inner.right, ProbGeq)
        and rhs.inner == prob_eq(sigma, rhs.inner.right.inner)
    )
    if not ok:
        raise NoMatch("template conclusion must deny Pr= v uniformly")
    if line.formula != fnot(b):
        raise NoMatch("conclusion must be the negation of the template hypothesis")


class ProofParseError(ValueError):
    pass


def _read_ax(words: list, usage: str) -> tuple:
    if not words:
        raise ProofParseError(usage)
    hints = []
    for w in words[1:]:
        n = syntax.parse_nat(w[2:], "axiom hint") if w[:2] in ("n=", "k=", "m=") else None
        if n is None:
            raise ProofParseError(f"bad axiom hint {w!r}")
        hints.append((w[0], n))
    sch = _SCHEMAS.get(words[0])  # only the schemas that derive q from n and k read hints
    if hints and sch is not None and sch.derive is not _derive_q:
        raise ProofParseError(f"axiom ({words[0]}) takes no n=, k= or m= hints")
    return words[0], tuple(hints)


def _read_refs(count: int):
    def read(words: list, usage: str) -> tuple:
        if len(words) != count:
            raise ProofParseError(usage)
        refs = []
        for w in words:
            refs.append(syntax.parse_nat(w, "line number"))
            if refs[-1] is None:
                raise ProofParseError(f"bad line number {w!r}")
        return tuple(refs)

    return read


def _read_chain(words: list, usage: str) -> tuple:
    chain = []
    for w in words:
        try:
            p = syntax.Parser(w)
            ok = p.kinds == ["ident", "[", "ident", "]", "eof"] and p.texts[2] in syntax.AGENTS
        except syntax.ParseError:
            ok = False
        if not ok:
            raise ProofParseError(f"bad constant {w!r} (want name[P] or name[V])")
        chain.append((p.texts[0], p.texts[2]))
    if not chain:
        raise ProofParseError(usage)
    return tuple(chain)


def _read_template(words: list, usage: str) -> tuple:
    if len(words) != 1 or not words[0].startswith("template="):
        raise ProofParseError(usage)
    return (words[0][len("template="):],)


def _read_approx(words: list, usage: str) -> tuple:
    if len(words) != 2:
        raise ProofParseError(usage)
    path = _read_template(words[1:], usage)
    return (syntax.parse_rational(words[0]), *path)


# keyword -> (reader, its text for words of the wrong shape, check)
_RULES = {
    "ax": (_read_ax, "ax needs a schema name", _ax),
    "mp": (_read_refs(2), "mp needs two line numbers", _mp),
    "nec[P]": (_read_refs(1), "nec needs one line number", partial(_nec, "P")),
    "nec[V]": (_read_refs(1), "nec needs one line number", partial(_nec, "V")),
    "pnec": (_read_refs(1), "pnec needs one line number", _pnec),
    "axnec": (_read_chain, "axnec needs at least one constant", _axnec),
    "param-approx": (_read_approx, "usage: param-approx <rational> template=<file>", _approx),
    "param-arch": (_read_template, "usage: param-arch template=<file>", _arch),
}


# ---------------------------------------------------------------------------
# proof file format
# ---------------------------------------------------------------------------
#
#   n. <formula> ; <keyword of _RULES> <words its reader takes>


def _split_line(text: str) -> tuple[int, str, list]:
    """The index, the formula text and the justification words of a line."""
    index_text, dot, body = text.partition(".")
    index = syntax.parse_nat(index_text, "line number") if dot else None
    if index is None:
        raise ProofParseError("expected 'n. formula ; justification'")
    formula_text, semicolon, just_text = body.lstrip().rpartition(";")
    if not semicolon:
        raise ProofParseError("missing ';' before the justification")
    return index, formula_text, just_text.split()


def _read_justification(words: list) -> tuple[str, tuple]:
    if not words:
        raise ProofParseError("missing justification")
    rule = _RULES.get(words[0])
    if rule is None:
        raise ProofParseError(f"unknown justification {words[0]!r}")
    read, usage, _ = rule
    return words[0], read(words[1:], usage)


def parse_derivation(
    text: str, spec: InteractionSpec, zk: bool = False, base_dir: str = "."
) -> Derivation:
    # Each line is split up to the first whose shape is bad.  The formula texts
    # are read through one parser (syntax.parse_each), and a text that parser did
    # not read alone, so every error, and which comes first, is that of a plain read.
    rows, bad = [], None  # (line number, index, formula text, words); the bad line's error
    for lineno, line in syntax.lines(text):
        try:
            rows.append((lineno, *_split_line(line)))
        except (ProofParseError, syntax.ParseError) as exc:
            bad = lineno, exc
            break
    formulas = syntax.parse_each([row[2] for row in rows], syntax.Parser.formula,
                                 allow_symbolic=True, memo={})
    lines = []
    for lineno, index, formula_text, words in rows:
        try:
            formula = formulas.get(formula_text) or syntax.parse_formula(formula_text)
            lines.append(ProofLine(index, formula, *_read_justification(words)))
        except (ProofParseError, syntax.ParseError) as exc:
            raise ProofParseError(f"line {lineno}: {exc}") from exc
    if bad is not None:
        raise ProofParseError("line {}: {}".format(*bad)) from bad[1]
    return Derivation(spec, lines, zk=zk, base_dir=base_dir)


def load_derivation_file(path: str, spec: InteractionSpec, zk: bool = False) -> Derivation:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_derivation(fh.read(), spec, zk=zk, base_dir=os.path.dirname(path) or ".")
