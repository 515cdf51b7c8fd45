"""Hilbert-style derivation checking for the two-agent probabilistic
justification logic.

Axiom schemas are matched structurally against desugared formula trees;
side conditions (threshold comparisons, complexity orders, interaction-spec
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
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .ispec import InteractionSpec
from .qeps import QEps
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
    Term,
    Threshold,
    Var,
    as_efml,
    comp_lt,
    dest_eimp,
    dest_eor,
    dest_fimp,
    eimp,
    eiff,
    eor,
    fand,
    fimp,
    fnot,
    formula_has_param,
    instantiate_param,
    is_symbolic,
    prob_eq,
    prob_geq,
    prob_leq,
    prob_lt,
    print_formula,
    thresh_complement,
)


class StructureError(ValueError):
    """Malformed derivation object (bad indices, bad citations)."""


class TemplateError(ValueError):
    """Malformed parametric template."""


# ---------------------------------------------------------------------------
# symbolic threshold comparison
# ---------------------------------------------------------------------------

# symctx is None (no parameter in scope), ("nu", N) for an integer parameter
# v >= N, or ("sigma",) for a parameter ranging over the whole unit interval.
SymCtx = Optional[tuple]

_ZERO_Q = QEps.from_rational(0)
_ONE_Q = QEps.from_rational(1)


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


def thresh_eq(a: Threshold, b: Threshold, symctx: SymCtx = None) -> bool:
    return cmp_thresh(a, b, symctx) == 0


def thresh_ge(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[bool]:
    ss = thresh_signs(a, b, symctx)
    return None if ss is None else ss <= {0, 1}


def thresh_le(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[bool]:
    ss = thresh_signs(a, b, symctx)
    return None if ss is None else ss <= {0, -1}


def thresh_gt(a: Threshold, b: Threshold, symctx: SymCtx = None) -> Optional[bool]:
    ss = thresh_signs(a, b, symctx)
    return None if ss is None else ss == {1}


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


def _skeleton(f: Formula, leaves: dict[str, int]):
    if isinstance(f, FNot):
        return ("not", _skeleton(f.inner, leaves))
    if isinstance(f, FAnd):
        return ("and", _skeleton(f.left, leaves), _skeleton(f.right, leaves))
    if isinstance(f, Epistemic):
        return _eskeleton(f.inner, leaves)
    key = print_formula(f)
    return ("leaf", leaves.setdefault(key, len(leaves)))


def _eskeleton(f: EFormula, leaves: dict[str, int]):
    if isinstance(f, ENot):
        return ("not", _eskeleton(f.inner, leaves))
    if isinstance(f, EAnd):
        return ("and", _eskeleton(f.left, leaves), _eskeleton(f.right, leaves))
    key = syntax.print_eformula(f)
    return ("leaf", leaves.setdefault(key, len(leaves)))


def _eval_skel(sk, bits: int) -> bool:
    tag = sk[0]
    if tag == "leaf":
        return bool(bits >> sk[1] & 1)
    if tag == "not":
        return not _eval_skel(sk[1], bits)
    return _eval_skel(sk[1], bits) and _eval_skel(sk[2], bits)


def is_tautology(f: Formula) -> Optional[bool]:
    """True/False, or None when there are too many opaque leaves to decide."""
    leaves: dict[str, int] = {}
    sk = _skeleton(f, leaves)
    if len(leaves) > _MAX_TAUT_LEAVES:
        return None
    return all(_eval_skel(sk, bits) for bits in range(1 << len(leaves)))


# ---------------------------------------------------------------------------
# schema matching
# ---------------------------------------------------------------------------

SCHEMA_IDS = (
    "p", "k", "t", "4", "j", "j+", "jt", "j4", "jyb",
    "p1", "p2", "p3", "p4", "p5", "p6", "p7", "pa1", "pa2",
    "m", "c", "s", "cw", "sw", "zk1", "zk2",
)

EPISTEMIC_SCHEMAS = ("p", "k", "t", "4", "j", "j+", "jt", "j4", "jyb", "m")
ZK_SCHEMAS = ("zk1", "zk2")


class NoMatch(Exception):
    def __init__(self, reason: str = "structural mismatch"):
        super().__init__(reason)
        self.reason = reason


@dataclass
class MatchContext:
    spec: InteractionSpec
    zk: bool = False
    symctx: SymCtx = None
    hints: dict = field(default_factory=dict)


@dataclass
class Match:
    schema: str
    bindings: dict


def _need(cond: bool, reason: str = "structural mismatch"):
    if not cond:
        raise NoMatch(reason)


def _as_e(f: Formula) -> EFormula:
    e = as_efml(f)
    _need(e is not None)
    return e


def _dest_imp_f(f: Formula) -> tuple[Formula, Formula]:
    d = dest_fimp(f)
    _need(d is not None)
    return d


def _dest_imp_e(f: EFormula) -> tuple[EFormula, EFormula]:
    d = dest_eimp(f)
    _need(d is not None)
    return d


# -- epistemic schemas -------------------------------------------------------


def _m_p(f: Formula, ctx: MatchContext) -> dict:
    taut = is_tautology(f)
    if taut is None:
        raise NoMatch("too many opaque subformulas for the tautology check")
    _need(taut, "not a propositional tautology")
    return {"formula": f}


def _m_k(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Box))
    a, b = _dest_imp_e(l.inner)
    return _check_build("k", {"agent": l.agent, "A": a, "B": b}, f)


def _m_t(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Box))
    return _check_build("t", {"agent": l.agent, "A": l.inner}, f)


def _m_4(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Box))
    return _check_build("4", {"agent": l.agent, "A": l.inner}, f)


def _m_j(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Just))
    a, b = _dest_imp_e(l.inner)
    x, y = _dest_imp_e(r)
    _need(isinstance(x, Just))
    return _check_build(
        "j", {"agent": l.agent, "s": l.term, "t": x.term, "A": a, "B": b}, f
    )


def _m_jplus(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    d = dest_eor(l)
    _need(d is not None)
    x, y = d
    _need(isinstance(x, Just) and isinstance(y, Just))
    return _check_build(
        "j+", {"agent": x.agent, "s": x.term, "t": y.term, "A": x.inner}, f
    )


def _m_jt(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Just))
    return _check_build("jt", {"agent": l.agent, "t": l.term, "A": l.inner}, f)


def _m_j4(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Just))
    return _check_build("j4", {"agent": l.agent, "t": l.term, "A": l.inner}, f)


def _m_jyb(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Just))
    return _check_build("jyb", {"agent": l.agent, "t": l.term, "A": l.inner}, f)


def _m_m(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_e(_as_e(f))
    _need(isinstance(l, Just) and isinstance(l.term, Proto))
    _need(isinstance(r, Just) and isinstance(r.term, Proto))
    mm, nn = l.term.complexity, r.term.complexity
    _need(comp_lt(mm, nn), "complexity side condition m < n fails")
    return _check_build(
        "m",
        {"agent": l.agent, "t": l.term.inner, "m": mm, "n": nn, "A": l.inner},
        f,
    )


# -- probabilistic schemas ---------------------------------------------------


def _m_p1(f: Formula, ctx: MatchContext) -> dict:
    _need(isinstance(f, ProbGeq))
    _need(thresh_eq(f.threshold, _ZERO_Q, ctx.symctx), "threshold is not 0")
    return {"A": f.inner, "s": f.threshold}


def _m_p2(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, ProbGeq) and isinstance(l.inner, ENot))
    _need(isinstance(r, FNot) and isinstance(r.inner, ProbGeq))
    a = l.inner.inner
    _need(r.inner.inner == a)
    s = thresh_complement(l.threshold)
    t = r.inner.threshold
    c = thresh_lt(s, t, ctx.symctx)
    if c is None:
        raise NoMatch("undecidable symbolic comparison s < t")
    _need(c, "side condition s < t fails")
    return {"A": a, "s": s, "t": t}


def _m_p3(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, FNot) and isinstance(l.inner, ProbGeq))
    _need(isinstance(r, ProbGeq) and isinstance(r.inner, ENot))
    a = l.inner.inner
    _need(r.inner.inner == a)
    s = l.inner.threshold
    _need(
        thresh_eq(r.threshold, thresh_complement(s), ctx.symctx),
        "thresholds are not complementary",
    )
    return {"A": a, "s": s}


def _dest_prob_eq(f: Formula, symctx: SymCtx) -> tuple[Threshold, EFormula]:
    # FAnd(ProbGeq(1-s, ~A), ProbGeq(s, A))
    _need(isinstance(f, FAnd))
    l, r = f.left, f.right
    _need(isinstance(l, ProbGeq) and isinstance(l.inner, ENot))
    _need(isinstance(r, ProbGeq))
    _need(l.inner.inner == r.inner)
    _need(
        thresh_eq(l.threshold, thresh_complement(r.threshold), symctx),
        "thresholds are not complementary",
    )
    return r.threshold, r.inner


def _m_p4(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, ProbGeq))
    _need(thresh_eq(l.threshold, _ONE_Q, ctx.symctx), "antecedent threshold is not 1")
    body = l.inner
    _need(isinstance(body, EAnd))
    d1, d2 = dest_eimp(body.left), dest_eimp(body.right)
    _need(d1 is not None and d2 is not None)
    a, b = d1
    _need(d2 == (b, a))
    x, y = _dest_imp_f(r)
    s1, a1 = _dest_prob_eq(x, ctx.symctx)
    s2, b1 = _dest_prob_eq(y, ctx.symctx)
    _need(a1 == a and b1 == b)
    _need(thresh_eq(s1, s2, ctx.symctx), "the two exact thresholds differ")
    return _check_build("p4", {"A": a, "B": b, "s": s1}, f)


def _m_p5(f: Formula, ctx: MatchContext) -> dict:
    _need(isinstance(f, FAnd))
    d1 = dest_fimp(f.left)
    d2 = dest_fimp(f.right)
    _need(d1 is not None and d2 is not None)
    _need(d1 == (d2[1], d2[0]) or d1 == d2)
    x, y = d1
    _need(x == y, "the two sides of the abbreviation must coincide")
    _need(isinstance(x, ProbGeq) and isinstance(x.inner, ENot))
    return {"A": x.inner.inner, "s": thresh_complement(x.threshold)}


def _m_p6(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, FAnd) and isinstance(l.left, FAnd))
    s, a = _dest_prob_eq(l.left.left, ctx.symctx)
    t, b = _dest_prob_eq(l.left.right, ctx.symctx)
    disj = l.right
    _need(isinstance(disj, ProbGeq))
    _need(thresh_eq(disj.threshold, _ONE_Q, ctx.symctx), "disjointness threshold is not 1")
    _need(disj.inner == ENot(EAnd(a, b)))
    _need(isinstance(s, QEps) and isinstance(t, QEps), "p6 needs concrete thresholds")
    total = s + t
    u = total if total.compare(_ONE_Q) <= 0 else _ONE_Q
    u2, body = _dest_prob_eq(r, ctx.symctx)
    _need(thresh_eq(u2, u, ctx.symctx), "conclusion threshold is not min(1, s+t)")
    _need(body == eor(a, b))
    return _check_build("p6", {"A": a, "B": b, "s": s, "t": t}, f)


def _m_p7(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, ProbGeq))
    _need(thresh_eq(l.threshold, _ONE_Q, ctx.symctx), "antecedent threshold is not 1")
    a, b = _dest_imp_e(l.inner)
    x, y = _dest_imp_f(r)
    _need(isinstance(x, ProbGeq) and isinstance(y, ProbGeq))
    _need(x.inner == a and y.inner == b)
    _need(thresh_eq(x.threshold, y.threshold, ctx.symctx), "thresholds differ")
    return _check_build("p7", {"A": a, "B": b, "s": x.threshold}, f)


def _m_pa1(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, ProbApprox) and isinstance(r, ProbGeq))
    _need(r.inner == l.inner)
    s = r.threshold
    _need(
        thresh_is_rational_valued(s, ctx.symctx),
        "the weaker threshold must be rational",
    )
    lo = thresh_ge(s, _ZERO_Q, ctx.symctx)
    hi = thresh_lt(s, QEps.from_rational(l.r), ctx.symctx)
    if lo is None or hi is None:
        raise NoMatch("undecidable symbolic range condition")
    _need(lo and hi, "side condition s in [0, r) fails")
    return {"A": l.inner, "r": l.r, "s": s}


def _m_pa2(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    _need(isinstance(l, ProbApprox))
    _need(isinstance(r, ProbGeq) and isinstance(r.inner, ENot))
    _need(r.inner.inner == l.inner)
    s = thresh_complement(r.threshold)
    _need(
        thresh_is_rational_valued(s, ctx.symctx),
        "the weaker threshold must be rational",
    )
    lo = thresh_gt(s, QEps.from_rational(l.r), ctx.symctx)
    hi = thresh_le(s, _ONE_Q, ctx.symctx)
    if lo is None or hi is None:
        raise NoMatch("undecidable symbolic range condition")
    _need(lo and hi, "side condition s in (r, 1] fails")
    return {"A": l.inner, "r": l.r, "s": s}


# -- interaction schemas ------------------------------------------------------


def _infer_nk(x: Fraction, n: int, ctx: MatchContext) -> int:
    """Find k with x == 1/n^k, honoring an explicit k hint."""
    _need(0 < x <= 1, "bound must be in (0, 1]")
    k_hint = ctx.hints.get("k")
    if k_hint is not None:
        _need(x == Fraction(1, n**k_hint), "threshold does not equal 1 - 1/n^k for the stated k")
        return k_hint
    _need(x.numerator == 1, "bound is not of the form 1/n^k")
    if n == 1:
        _need(x == 1, "bound must be 1 when n = 1")
        return 1
    _need(n > 1, "bound denominator is not a power of n")
    nk, k, power = x.denominator, 0, 1
    while power < nk:
        power *= n
        k += 1
    _need(k >= 1 and power == nk, "bound denominator is not a power of n")
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


def _m_c(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    le = as_efml(l)
    _need(le is not None and isinstance(le, Just) and le.agent == "P")
    _need(isinstance(r, ProbGeq))
    body = r.inner
    _need(isinstance(body, Just) and body.agent == "V" and isinstance(body.term, Proto))
    n = body.term.complexity
    _need(isinstance(n, int), "axiom c needs a finite complexity")
    _need(body.term.inner == le.term)
    _need(body.inner == Box("P", le.inner))
    _need(isinstance(r.threshold, QEps) and r.threshold.is_rational, "threshold must be rational")
    x = 1 - r.threshold.as_rational()
    k = _infer_nk(x, n, ctx)
    m = _interaction_side(le.inner, n, k, ctx)
    return {"t": le.term, "alpha": le.inner, "n": n, "k": k, "m": m}


def _m_s(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    le = as_efml(l)
    _need(le is not None and isinstance(le, ENot))
    j = le.inner
    _need(isinstance(j, Just) and j.agent == "P")
    _need(isinstance(r, ProbGeq) and isinstance(r.inner, ENot))
    body = r.inner.inner
    _need(isinstance(body, Just) and body.agent == "V" and isinstance(body.term, Proto))
    n = body.term.complexity
    _need(isinstance(n, int), "axiom s needs a finite complexity")
    _need(body.term.inner == j.term)
    _need(body.inner == Box("P", j.inner))
    _need(isinstance(r.threshold, QEps) and r.threshold.is_rational, "threshold must be rational")
    x = 1 - r.threshold.as_rational()  # the <= bound
    k = _infer_nk(x, n, ctx)
    m = _interaction_side(j.inner, n, k, ctx)
    return {"t": j.term, "alpha": j.inner, "n": n, "k": k, "m": m}


def _m_cw(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    le = as_efml(l)
    _need(le is not None and isinstance(le, Just) and le.agent == "P")
    _need(isinstance(r, ProbApprox) and r.r == 1)
    body = r.inner
    _need(isinstance(body, Just) and body.agent == "V")
    _need(isinstance(body.term, Proto) and body.term.complexity is OMEGA)
    _need(body.term.inner == le.term)
    _need(body.inner == Box("P", le.inner))
    _need(ctx.spec.in_I(le.inner), "formula is not interactively provable")
    return {"t": le.term, "alpha": le.inner}


def _m_sw(f: Formula, ctx: MatchContext) -> dict:
    l, r = _dest_imp_f(f)
    le = as_efml(l)
    _need(le is not None and isinstance(le, ENot))
    j = le.inner
    _need(isinstance(j, Just) and j.agent == "P")
    _need(isinstance(r, ProbApprox) and r.r == 0)
    body = r.inner
    _need(isinstance(body, Just) and body.agent == "V")
    _need(isinstance(body.term, Proto) and body.term.complexity is OMEGA)
    _need(body.term.inner == j.term)
    _need(body.inner == Box("P", j.inner))
    _need(ctx.spec.in_I(j.inner), "formula is not interactively provable")
    return {"t": j.term, "alpha": j.inner}


def _m_zk1(f: Formula, ctx: MatchContext) -> dict:
    _need(ctx.zk, "zero-knowledge axioms are disabled")
    l, r = _dest_imp_f(f)
    le = as_efml(l)
    _need(le is not None and isinstance(le, Just) and le.agent == "P")
    _need(isinstance(r, ProbGeq) and isinstance(r.inner, ENot))
    body = r.inner.inner
    _need(isinstance(body, Just) and body.agent == "V" and isinstance(body.term, Proto))
    n = body.term.complexity
    _need(isinstance(n, int), "axiom zk1 needs a finite complexity")
    _need(body.term.inner == le.term)
    _need(body.inner == le)
    _need(isinstance(r.threshold, QEps) and r.threshold.is_rational, "threshold must be rational")
    x = 1 - r.threshold.as_rational()
    k = _infer_nk(x, n, ctx)
    m = _interaction_side(le.inner, n, k, ctx)
    return {"t": le.term, "alpha": le.inner, "n": n, "k": k, "m": m}


def _m_zk2(f: Formula, ctx: MatchContext) -> dict:
    _need(ctx.zk, "zero-knowledge axioms are disabled")
    l, r = _dest_imp_f(f)
    le = as_efml(l)
    _need(le is not None and isinstance(le, Just) and le.agent == "P")
    _need(isinstance(r, ProbApprox) and r.r == 0)
    body = r.inner
    _need(isinstance(body, Just) and body.agent == "V")
    _need(isinstance(body.term, Proto) and body.term.complexity is OMEGA)
    _need(body.term.inner == le.term)
    _need(body.inner == le)
    _need(ctx.spec.in_I(le.inner), "formula is not interactively provable")
    return {"t": le.term, "alpha": le.inner}


_MATCHERS: dict[str, Callable[[Formula, MatchContext], dict]] = {
    "p": _m_p,
    "k": _m_k,
    "t": _m_t,
    "4": _m_4,
    "j": _m_j,
    "j+": _m_jplus,
    "jt": _m_jt,
    "j4": _m_j4,
    "jyb": _m_jyb,
    "p1": _m_p1,
    "p2": _m_p2,
    "p3": _m_p3,
    "p4": _m_p4,
    "p5": _m_p5,
    "p6": _m_p6,
    "p7": _m_p7,
    "pa1": _m_pa1,
    "pa2": _m_pa2,
    "m": _m_m,
    "c": _m_c,
    "s": _m_s,
    "cw": _m_cw,
    "sw": _m_sw,
    "zk1": _m_zk1,
    "zk2": _m_zk2,
}


# -- schema instantiation (bindings -> formula) --------------------------------


def instantiate_schema(schema: str, b: dict) -> Formula:
    """Rebuild the axiom instance a matcher's bindings describe."""
    E = Epistemic
    if schema == "p":
        return b["formula"]
    if schema == "k":
        a = b["agent"]
        return E(eimp(Box(a, eimp(b["A"], b["B"])), eimp(Box(a, b["A"]), Box(a, b["B"]))))
    if schema == "t":
        return E(eimp(Box(b["agent"], b["A"]), b["A"]))
    if schema == "4":
        a = b["agent"]
        return E(eimp(Box(a, b["A"]), Box(a, Box(a, b["A"]))))
    if schema == "j":
        a = b["agent"]
        return E(
            eimp(
                Just(b["s"], a, eimp(b["A"], b["B"])),
                eimp(Just(b["t"], a, b["A"]), Just(App(b["s"], b["t"]), a, b["B"])),
            )
        )
    if schema == "j+":
        a = b["agent"]
        return E(
            eimp(
                eor(Just(b["s"], a, b["A"]), Just(b["t"], a, b["A"])),
                Just(Sum(b["s"], b["t"]), a, b["A"]),
            )
        )
    if schema == "jt":
        return E(eimp(Just(b["t"], b["agent"], b["A"]), b["A"]))
    if schema == "j4":
        a = b["agent"]
        return E(
            eimp(Just(b["t"], a, b["A"]), Just(Bang(b["t"]), a, Just(b["t"], a, b["A"])))
        )
    if schema == "jyb":
        a = b["agent"]
        return E(eimp(Just(b["t"], a, b["A"]), Box(a, b["A"])))
    if schema == "m":
        a = b["agent"]
        return E(
            eimp(
                Just(Proto(b["m"], b["t"]), a, b["A"]),
                Just(Proto(b["n"], b["t"]), a, b["A"]),
            )
        )
    if schema == "p1":
        return ProbGeq(b.get("s", _ZERO_Q), b["A"])
    if schema == "p2":
        return fimp(prob_leq(b["s"], b["A"]), prob_lt(b["t"], b["A"]))
    if schema == "p3":
        return fimp(prob_lt(b["s"], b["A"]), prob_leq(b["s"], b["A"]))
    if schema == "p4":
        return fimp(
            ProbGeq(_ONE_Q, eiff(b["A"], b["B"])),
            fimp(prob_eq(b["s"], b["A"]), prob_eq(b["s"], b["B"])),
        )
    if schema == "p5":
        lhs = prob_leq(b["s"], b["A"])
        return fand(fimp(lhs, lhs), fimp(lhs, lhs))
    if schema == "p6":
        s, t = b["s"], b["t"]
        total = s + t
        u = total if total.compare(_ONE_Q) <= 0 else _ONE_Q
        return fimp(
            fand(
                fand(prob_eq(s, b["A"]), prob_eq(t, b["B"])),
                ProbGeq(_ONE_Q, ENot(EAnd(b["A"], b["B"]))),
            ),
            prob_eq(u, eor(b["A"], b["B"])),
        )
    if schema == "p7":
        return fimp(
            ProbGeq(_ONE_Q, eimp(b["A"], b["B"])),
            fimp(ProbGeq(b["s"], b["A"]), ProbGeq(b["s"], b["B"])),
        )
    if schema == "pa1":
        return fimp(ProbApprox(b["r"], b["A"]), ProbGeq(b["s"], b["A"]))
    if schema == "pa2":
        return fimp(ProbApprox(b["r"], b["A"]), prob_leq(b["s"], b["A"]))
    if schema == "c":
        q = QEps.from_rational(1 - Fraction(1, b["n"] ** b["k"]))
        return fimp(
            Epistemic(Just(b["t"], "P", b["alpha"])),
            ProbGeq(q, Just(Proto(b["n"], b["t"]), "V", Box("P", b["alpha"]))),
        )
    if schema == "s":
        q = QEps.from_rational(Fraction(1, b["n"] ** b["k"]))
        return fimp(
            Epistemic(ENot(Just(b["t"], "P", b["alpha"]))),
            prob_leq(q, Just(Proto(b["n"], b["t"]), "V", Box("P", b["alpha"]))),
        )
    if schema == "cw":
        return fimp(
            Epistemic(Just(b["t"], "P", b["alpha"])),
            ProbApprox(Fraction(1), Just(Proto(OMEGA, b["t"]), "V", Box("P", b["alpha"]))),
        )
    if schema == "sw":
        return fimp(
            Epistemic(ENot(Just(b["t"], "P", b["alpha"]))),
            ProbApprox(Fraction(0), Just(Proto(OMEGA, b["t"]), "V", Box("P", b["alpha"]))),
        )
    if schema == "zk1":
        q = QEps.from_rational(Fraction(1, b["n"] ** b["k"]))
        inner = Just(b["t"], "P", b["alpha"])
        return fimp(
            Epistemic(inner),
            prob_leq(q, Just(Proto(b["n"], b["t"]), "V", inner)),
        )
    if schema == "zk2":
        inner = Just(b["t"], "P", b["alpha"])
        return fimp(
            Epistemic(inner),
            ProbApprox(Fraction(0), Just(Proto(OMEGA, b["t"]), "V", inner)),
        )
    raise ValueError(f"unknown schema {schema!r}")


def _check_build(schema: str, bindings: dict, f: Formula) -> dict:
    _need(instantiate_schema(schema, bindings) == f)
    return bindings


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
    candidates = (schema,) if schema else SCHEMA_IDS
    for sid in candidates:
        matcher = _MATCHERS.get(sid)
        if matcher is None:
            raise ValueError(f"unknown schema {sid!r}")
        try:
            return Match(sid, matcher(f, ctx))
        except NoMatch:
            continue
    return None


def match_failure_notes(
    f: Formula,
    spec: InteractionSpec,
    zk: bool = False,
    hints: Optional[dict] = None,
    symctx: SymCtx = None,
) -> list[str]:
    ctx = MatchContext(spec=spec, zk=zk, symctx=symctx, hints=hints or {})
    notes = []
    for sid in SCHEMA_IDS:
        try:
            _MATCHERS[sid](f, ctx)
            notes.append(f"{sid}: matches")
        except NoMatch as exc:
            notes.append(f"{sid}: {exc.reason}")
    return notes


_EMPTY_SPEC = InteractionSpec()


def match_epistemic_axiom(alpha: EFormula, symctx: SymCtx = None) -> Optional[Match]:
    """Match a purely epistemic formula against the epistemic schemas.

    These are the axioms that may sit under justification constants: the
    grammar only lets constants justify epistemic formulas.
    """
    f = Epistemic(alpha)
    ctx = MatchContext(spec=_EMPTY_SPEC, zk=False, symctx=symctx)
    for sid in EPISTEMIC_SCHEMAS:
        try:
            return Match(sid, _MATCHERS[sid](f, ctx))
        except NoMatch:
            continue
    return None


def is_axiom_chain(alpha: EFormula) -> bool:
    """True for c2:...:cn:A with constant justifications and an axiom core."""
    if match_epistemic_axiom(alpha) is not None:
        return True
    return (
        isinstance(alpha, Just)
        and isinstance(alpha.term, Const)
        and is_axiom_chain(alpha.inner)
    )


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomJ:
    schema: str
    hints: tuple = ()  # ((key, value), ...)


@dataclass(frozen=True)
class MPJ:
    i: int
    j: int


@dataclass(frozen=True)
class BoxNecJ:
    agent: str
    i: int


@dataclass(frozen=True)
class AxiomNecJ:
    chain: tuple  # ((constant name, agent), ...)


@dataclass(frozen=True)
class ProbNecJ:
    i: int


@dataclass(frozen=True)
class ApproxIntroJ:
    r: Fraction
    template: str


@dataclass(frozen=True)
class ArchJ:
    template: str


Justification = Union[AxiomJ, MPJ, BoxNecJ, AxiomNecJ, ProbNecJ, ApproxIntroJ, ArchJ]


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    just: Justification


@dataclass
class Derivation:
    spec: InteractionSpec
    lines: list[ProofLine]
    zk: bool = False
    base_dir: str = "."


@dataclass
class CheckReport:
    valid: bool
    message: str = ""
    line: Optional[int] = None

    def render(self) -> str:
        if self.valid:
            return "VALID"
        where = f"line {self.line}: " if self.line is not None else ""
        return f"INVALID: {where}{self.message}"


_MAX_TEMPLATE_DEPTH = 4


def check_derivation(
    d: Derivation, symctx: SymCtx = None, _depth: int = 0, _templates: Optional[dict] = None
) -> CheckReport:
    """Validate every line; report VALID or the first offending line.

    ``_templates`` maps a resolved template path to its parsed derivation for
    the length of one top-level check, so a template cited N times is read
    and parsed once.
    """
    if not d.lines:
        return CheckReport(False, "empty derivation")
    if _templates is None:
        _templates = {}
    by_index: dict[int, Formula] = {}
    for line in d.lines:
        try:
            _check_line(d, line, by_index, symctx, _depth, _templates)
        except NoMatch as exc:
            return CheckReport(False, exc.reason, line.index)
        except (StructureError, TemplateError) as exc:
            return CheckReport(False, str(exc), line.index)
        by_index[line.index] = line.formula
    return CheckReport(True)


def _cited(by_index: dict, line: ProofLine, i: int) -> Formula:
    if i not in by_index or i >= line.index:
        raise StructureError(f"citation of line {i} is not an earlier line")
    return by_index[i]


def _check_line(
    d: Derivation,
    line: ProofLine,
    by_index: dict[int, Formula],
    symctx: SymCtx,
    depth: int,
    templates: dict,
):
    if line.index in by_index:
        raise StructureError(f"duplicate line index {line.index}")
    f = line.formula
    if symctx is None and formula_has_param(f):
        raise TemplateError("parametric threshold outside a template")
    if symctx is not None:
        _check_param_positions(f)
    just = line.just

    if isinstance(just, AxiomJ):
        if just.schema not in SCHEMA_IDS:
            raise StructureError(f"unknown schema {just.schema!r}")
        m = match_axiom(
            f, d.spec, zk=d.zk, schema=just.schema, hints=dict(just.hints), symctx=symctx
        )
        if m is None:
            raise NoMatch(f"formula is not an instance of axiom ({just.schema})")
        return

    if isinstance(just, MPJ):
        fi = _cited(by_index, line, just.i)
        fj = _cited(by_index, line, just.j)
        for ante, implication in ((fi, fj), (fj, fi)):
            dimp = dest_fimp(implication)
            if dimp is not None and dimp[0] == ante and dimp[1] == f:
                return
        raise NoMatch("modus ponens does not apply to the cited lines")

    if isinstance(just, BoxNecJ):
        fi = _cited(by_index, line, just.i)
        e = as_efml(fi)
        if e is None:
            raise NoMatch("necessitation needs an epistemic premise")
        if f != Epistemic(Box(just.agent, e)):
            raise NoMatch("conclusion is not the boxed premise")
        return

    if isinstance(just, ProbNecJ):
        fi = _cited(by_index, line, just.i)
        e = as_efml(fi)
        if e is None:
            raise NoMatch("probabilistic necessitation needs an epistemic premise")
        if f != ProbGeq(_ONE_Q, e):
            raise NoMatch("conclusion must assert the premise with probability >= 1")
        return

    if isinstance(just, AxiomNecJ):
        if not just.chain:
            raise StructureError("axiom necessitation needs at least one constant")
        core = as_efml(f)
        if core is None:
            raise NoMatch("axiom necessitation produces an epistemic formula")
        for name, agent in just.chain:
            if not (
                isinstance(core, Just)
                and core.term == Const(name)
                and core.agent == agent
            ):
                raise NoMatch("constant chain does not match the formula")
            core = core.inner
        if match_epistemic_axiom(core, symctx) is None:
            raise NoMatch("chained formula is not an axiom instance")
        return

    if isinstance(just, ApproxIntroJ):
        _check_approx_intro(d, line, just, depth, templates)
        return

    if isinstance(just, ArchJ):
        _check_arch(d, line, just, depth, templates)
        return

    raise StructureError(f"unknown justification {just!r}")


def _check_param_positions(f: Formula):
    for name in syntax.names_in_formula(f):
        if name == "v":
            raise TemplateError("the parameter 'v' may only occur inside thresholds")


def _load_template(d: Derivation, path: str, depth: int) -> Derivation:
    if depth >= _MAX_TEMPLATE_DEPTH:
        raise TemplateError("template nesting too deep")
    full = path if os.path.isabs(path) else os.path.join(d.base_dir, path)
    try:
        with open(full, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureError(f"cannot read template {path!r}: {exc}") from exc
    t = parse_derivation(text, d.spec, zk=d.zk, base_dir=os.path.dirname(full) or ".")
    return t


def _template(d: Derivation, path: str, depth: int, templates: dict) -> Derivation:
    """The template at ``path``, loaded once per resolved path in ``templates``."""
    key = os.path.abspath(os.path.join(d.base_dir, path))
    t = templates.get(key)
    if t is None or depth >= _MAX_TEMPLATE_DEPTH:  # the loader raises past the limit
        t = templates[key] = _load_template(d, path, depth)
    return t


def _check_approx_intro(
    d: Derivation, line: ProofLine, just: ApproxIntroJ, depth: int, templates: dict
):
    r = just.r
    if not 0 <= r <= 1:
        raise StructureError("approximation rule needs r in [0,1]")
    dimp = dest_fimp(line.formula)
    if dimp is None or not isinstance(dimp[1], ProbApprox):
        raise NoMatch("conclusion must have the shape B -> Pr~ r (A)")
    b, head = dimp
    if head.r != r:
        raise NoMatch("conclusion r differs from the rule's r")
    a = head.inner
    n_min = 1 if r == 1 else math.ceil(Fraction(1) / (1 - r))
    template = _template(d, just.template, depth, templates)
    rep = check_derivation(
        template, symctx=("nu", max(n_min, 1)), _depth=depth + 1, _templates=templates
    )
    if not rep.valid:
        raise NoMatch(f"template {just.template!r} fails: {rep.render()}")
    # premise family: B -> Pr>= r - 1/v (A)  and  B -> Pr<= r + 1/v (A),
    # with thresholds clipped into the unit interval at the ends.
    if r == 0:
        lower = fimp(b, ProbGeq(_ZERO_Q, a))
    else:
        lower = fimp(b, ProbGeq(SymThresh(r, Fraction(-1), 1), a))
    if r == 1:
        upper = fimp(b, ProbGeq(_ZERO_Q, ENot(a)))
    else:
        upper = fimp(b, ProbGeq(SymThresh(1 - r, Fraction(-1), 1), ENot(a)))
    derived = {l.formula for l in template.lines}
    if lower not in derived:
        raise NoMatch("template does not derive the lower premise family")
    if upper not in derived:
        raise NoMatch("template does not derive the upper premise family")


def _check_arch(d: Derivation, line: ProofLine, just: ArchJ, depth: int, templates: dict):
    template = _template(d, just.template, depth, templates)
    rep = check_derivation(template, symctx=("sigma",), _depth=depth + 1, _templates=templates)
    if not rep.valid:
        raise NoMatch(f"template {just.template!r} fails: {rep.render()}")
    last = template.lines[-1].formula
    dimp = dest_fimp(last)
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


def instantiate_derivation(d: Derivation, v: int) -> Derivation:
    """Replace the parameter with a concrete value in every line."""
    lines = [
        ProofLine(l.index, instantiate_param(l.formula, v), l.just) for l in d.lines
    ]
    return Derivation(d.spec, lines, zk=d.zk, base_dir=d.base_dir)


# ---------------------------------------------------------------------------
# proof file format
# ---------------------------------------------------------------------------
#
#   n. <formula> ; <justification>
#
# justifications:
#   ax <schema> [n=.. k=.. m=..]
#   mp i j | nec[P|V] i | pnec i
#   axnec c1[P] c2[V] ...
#   param-approx <rational> template=<file>
#   param-arch template=<file>

_LINE_RE = re.compile(r"^(\d+)\.\s*(.*)$")
_CHAIN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)\[(P|V)\]$")
_HINT_RE = re.compile(r"^([nkm])=(\d+)$")


class ProofParseError(ValueError):
    pass


def parse_justification(text: str) -> Justification:
    words = text.split()
    if not words:
        raise ProofParseError("missing justification")
    head = words[0]
    if head == "ax":
        if len(words) < 2:
            raise ProofParseError("ax needs a schema name")
        hints = []
        for w in words[2:]:
            hm = _HINT_RE.match(w)
            if not hm:
                raise ProofParseError(f"bad axiom hint {w!r}")
            hints.append((hm.group(1), int(hm.group(2))))
        return AxiomJ(words[1], tuple(hints))
    if head == "mp":
        if len(words) != 3:
            raise ProofParseError("mp needs two line numbers")
        return MPJ(int(words[1]), int(words[2]))
    if head in ("nec[P]", "nec[V]"):
        if len(words) != 2:
            raise ProofParseError("nec needs one line number")
        return BoxNecJ(head[4], int(words[1]))
    if head == "pnec":
        if len(words) != 2:
            raise ProofParseError("pnec needs one line number")
        return ProbNecJ(int(words[1]))
    if head == "axnec":
        chain = []
        for w in words[1:]:
            cm = _CHAIN_RE.match(w)
            if not cm:
                raise ProofParseError(f"bad constant {w!r} (want name[P] or name[V])")
            chain.append((cm.group(1), cm.group(2)))
        if not chain:
            raise ProofParseError("axnec needs at least one constant")
        return AxiomNecJ(tuple(chain))
    if head == "param-approx":
        if len(words) != 3 or not words[2].startswith("template="):
            raise ProofParseError("usage: param-approx <rational> template=<file>")
        return ApproxIntroJ(Fraction(words[1]), words[2][len("template=") :])
    if head == "param-arch":
        if len(words) != 2 or not words[1].startswith("template="):
            raise ProofParseError("usage: param-arch template=<file>")
        return ArchJ(words[1][len("template=") :])
    raise ProofParseError(f"unknown justification {head!r}")


def parse_derivation(
    text: str, spec: InteractionSpec, zk: bool = False, base_dir: str = "."
) -> Derivation:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ProofParseError(f"line {lineno}: expected 'n. formula ; justification'")
        index = int(m.group(1))
        body = m.group(2)
        if ";" not in body:
            raise ProofParseError(f"line {lineno}: missing ';' before the justification")
        formula_text, just_text = body.rsplit(";", 1)
        try:
            formula = syntax.parse_formula(formula_text)
        except syntax.ParseError as exc:
            raise ProofParseError(f"line {lineno}: {exc}") from exc
        try:
            just = parse_justification(just_text.strip())
        except ProofParseError as exc:
            raise ProofParseError(f"line {lineno}: {exc}") from exc
        lines.append(ProofLine(index, formula, just))
    return Derivation(spec, lines, zk=zk, base_dir=base_dir)


def load_derivation_file(path: str, spec: InteractionSpec, zk: bool = False) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_derivation(text, spec, zk=zk, base_dir=os.path.dirname(path) or ".")
