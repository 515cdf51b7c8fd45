"""Seeded random generators for terms, formulas, models, and axiom instances.

Everything is driven by a caller-supplied ``random.Random`` so test runs are
reproducible.  Model generation produces quasimodels valid by construction:
accessibility relations are closed reflexively and transitively, and masses
are exact integer-weight fractions (optionally perturbed by an infinitesimal
that cancels across two worlds).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from . import proofcheck
from .ispec import InteractionSpec
from .qeps import ZERO, QEps
from .semantics import EpistemicModel, Quasimodel
from .syntax import (
    AGENTS,
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
    Formula,
    Just,
    ProbApprox,
    ProbGeq,
    Proto,
    Sum,
    Term,
    Var,
    fand,
    fimp,
    fnot,
    print_eformula,
)

ATOM_NAMES = ("p", "q", "r", "p1", "q1")
VAR_NAMES = ("x", "y", "z", "t", "s", "u")
CONST_NAMES = ("a", "b", "k1", "k2")
MAX_DEN = 12  # of a random rational
MAX_WORLDS, MAX_SAMPLE = 6, 4  # of a random model


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, by the ``getrandbits`` calls of the stdlib's
    ``_randbelow``; ``rng.choice(seq)`` is ``seq[_below(rng, len(seq))]`` and
    ``rng.randint(a, b)`` is ``a + _below(rng, b - a + 1)``."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def rand_fraction(rng: random.Random) -> Fraction:
    den = 1 + _below(rng, MAX_DEN)
    return Fraction(_below(rng, den + 1), den)


def rand_qeps(rng: random.Random) -> QEps:
    """A random element of the unit interval, sometimes off by infinitesimals."""
    q = rand_fraction(rng)
    value = QEps.from_rational(q)
    if rng.random() < 0.4:
        bump = QEps.from_monomials([(Fraction(1 + _below(rng, 3)), 1 + _below(rng, 2))])
        if q == 0:
            value = value + bump
        elif q == 1:
            value = value - bump
        else:
            value = value + bump if rng.random() < 0.5 else value - bump
    return value


# ---------------------------------------------------------------------------
# syntax trees
# ---------------------------------------------------------------------------


def rand_term(rng: random.Random, depth: int = 4) -> Term:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.3:
            return Const(CONST_NAMES[_below(rng, len(CONST_NAMES))])
        return Var(VAR_NAMES[_below(rng, len(VAR_NAMES))])
    kind = _below(rng, 4)
    if kind == 0:
        return App(rand_term(rng, depth - 1), rand_term(rng, depth - 1))
    if kind == 1:
        return Sum(rand_term(rng, depth - 1), rand_term(rng, depth - 1))
    if kind == 2:
        return Bang(rand_term(rng, depth - 1))
    comp = OMEGA if rng.random() < 0.25 else 1 + _below(rng, 9)
    return Proto(comp, rand_term(rng, depth - 1))


def rand_eformula(rng: random.Random, depth: int = 4) -> EFormula:
    if depth <= 0 or rng.random() < 0.3:
        return Atom(ATOM_NAMES[_below(rng, len(ATOM_NAMES))])
    kind = _below(rng, 4)
    if kind == 0:
        return ENot(rand_eformula(rng, depth - 1))
    if kind == 1:
        return EAnd(rand_eformula(rng, depth - 1), rand_eformula(rng, depth - 1))
    if kind == 2:
        return Box(AGENTS[_below(rng, 2)], rand_eformula(rng, depth - 1))
    return Just(rand_term(rng, depth - 1), AGENTS[_below(rng, 2)], rand_eformula(rng, depth - 1))


def rand_formula(rng: random.Random, depth: int = 6) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return Epistemic(rand_eformula(rng, min(depth, 3)))
    kind = _below(rng, 4)
    if kind == 0:
        return fnot(rand_formula(rng, depth - 1))
    if kind == 1:
        return fand(rand_formula(rng, depth - 1), rand_formula(rng, depth - 1))
    if kind == 2:
        return ProbGeq(rand_qeps(rng), rand_eformula(rng, depth - 1))
    return ProbApprox(rand_fraction(rng), rand_eformula(rng, depth - 1))


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _transitive_closure(edges):
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for (w, u), (x, v) in itertools.product(tuple(closed), tuple(closed)):
            if u == x and (w, v) not in closed:
                closed.add((w, v))
                changed = True
    return closed


def rand_model(rng: random.Random) -> Quasimodel:
    n = 1 + _below(rng, MAX_WORLDS)
    worlds = [f"w{i}" for i in range(n)]
    rel = {}
    for a in AGENTS:
        edges = {(w, w) for w in worlds}
        for _ in range(_below(rng, n + 1)):
            edges.add((worlds[_below(rng, n)], worlds[_below(rng, n)]))
        rel[a] = _transitive_closure(edges)
    valuation = {
        w: [at for at in ATOM_NAMES if rng.random() < 0.5] for w in worlds
    }
    evidence: dict[tuple, list[str]] = {}
    for _ in range(_below(rng, 2 * n + 1)):
        w, a = worlds[_below(rng, n)], AGENTS[_below(rng, 2)]
        t, alpha = rand_term(rng, 2), rand_eformula(rng, 2)
        evidence.setdefault((a, t, alpha), []).append(w)
    base = EpistemicModel(worlds, rel, valuation, evidence, atoms=ATOM_NAMES)

    k = 1 + _below(rng, min(MAX_SAMPLE, n))
    sample = rng.sample(worlds, k)
    weights = [1 + _below(rng, 5) for _ in sample]
    total = sum(weights)
    measure = {
        u: QEps.from_rational(Fraction(wt, total)) for u, wt in zip(sample, weights)
    }
    if len(sample) >= 2 and rng.random() < 0.5:
        # shift an infinitesimal between two worlds; the total stays 1
        bump = QEps.from_monomials([(Fraction(1), 1 + _below(rng, 2))])
        a, b = rng.sample(sample, 2)
        measure[a] = measure[a] - bump
        measure[b] = measure[b] + bump
    w0 = sample[_below(rng, k)]
    return Quasimodel(base, sample, measure, w0)


# ---------------------------------------------------------------------------
# axiom instances with valid side conditions
# ---------------------------------------------------------------------------


def _taut_instance(rng: random.Random) -> Formula:
    x = rand_formula(rng, 2) if rng.random() < 0.5 else Epistemic(rand_eformula(rng, 2))
    y = Epistemic(rand_eformula(rng, 2))
    z = Epistemic(rand_eformula(rng, 1))
    shapes = (
        lambda: fimp(x, x),
        lambda: fimp(x, fimp(y, x)),
        lambda: fimp(fimp(x, fimp(y, z)), fimp(fimp(x, y), fimp(x, z))),
        lambda: fimp(fand(x, y), x),
        lambda: fimp(x, fimp(y, fand(x, y))),
        lambda: fimp(fnot(fnot(x)), x),
        lambda: fimp(fimp(x, y), fimp(fnot(y), fnot(x))),
    )
    return shapes[_below(rng, len(shapes))]()


def _sample_p2(rng: random.Random, b: dict, spec, k) -> dict:  # s < t
    t = rand_qeps(rng)
    while t.compare(ZERO) <= 0:
        t = rand_qeps(rng)
    s = t - QEps.from_monomials([(Fraction(1), 1 + _below(rng, 2))])
    return {"s": s if s.in_unit_interval() else ZERO, "t": t}


def _sample_pa1(rng: random.Random, b: dict, spec, k) -> dict:  # s in [0, r)
    r = rand_fraction(rng)
    while r == 0:
        r = rand_fraction(rng)
    s = Fraction(_below(rng, r.numerator * 2), r.denominator * 2)
    return {"r": r, "s": QEps.from_rational(s)}


def _sample_pa2(rng: random.Random, b: dict, spec, k) -> dict:  # s in (r, 1]
    r = rand_fraction(rng)
    while r == 1:
        r = rand_fraction(rng)
    return {"r": r, "s": QEps.from_rational(r + Fraction(1 - r, 1 + _below(rng, 4)))}


def _sample_m(rng: random.Random, b: dict, spec, k) -> dict:  # m < n
    m = 1 + _below(rng, 6)
    return {"m": m, "n": OMEGA if rng.random() < 0.3 else m + 1 + _below(rng, 4)}


def _sample_bound(rng: random.Random, b: dict, spec, k) -> dict:  # n > m(k)
    k = 1 + _below(rng, 2) if k is None else k
    fn = spec.threshold(b["alpha"])
    m = None if fn is None else fn.value_at(k)
    if m is None:
        text = print_eformula(b["alpha"])
        raise ValueError(f"{text!r} has no spec entry" if fn is None
                         else f"m(k) of {text!r} is undefined at k={k}")
    return {"n": m + 1 + _below(rng, 4), "k": k}


def _sample_limit(rng: random.Random, b: dict, spec, k) -> dict:  # alpha in I
    if not spec.in_I(b["alpha"]):
        raise ValueError(f"{print_eformula(b['alpha'])!r} is not interactively provable")
    return {}


# A sampler per schema whose side condition constrains its bindings:
# (rng, bindings drawn so far, spec, k) -> the bindings it draws.
_SAMPLERS = {
    "p": lambda rng, *_: {"formula": _taut_instance(rng)},
    "p1": lambda rng, *_: {"s": ZERO},
    "p2": _sample_p2,
    "p6": lambda rng, *_: {"s": QEps.from_rational(rand_fraction(rng)),
                           "t": QEps.from_rational(rand_fraction(rng))},
    "pa1": _sample_pa1,
    "pa2": _sample_pa2,
    "m": _sample_m,
    "c": _sample_bound,
    "s": _sample_bound,
    "zk1": _sample_bound,
    "cw": _sample_limit, "sw": _sample_limit, "zk2": _sample_limit,
}


def rand_axiom_instance(
    rng: random.Random,
    schema: str,
    spec: Optional[InteractionSpec] = None,
    spec_formula: Optional[EFormula] = None,
    k: Optional[int] = None,
) -> Formula:
    """A random instance of one schema of ``proofcheck``'s table whose side
    conditions hold.

    Each binding is drawn by the sort its metavariable's name stands for.
    Every call first draws an agent, the epistemic formulas A and B and the
    terms t and u, in this order, whether the schema binds them or not; an
    interaction schema's alpha is ``spec_formula``.  The schema's sampler,
    if it has one, draws next; a threshold s that no sampler draws comes last.
    """
    sch = proofcheck._SCHEMAS.get(schema)
    if sch is None:
        raise ValueError(f"unknown schema {schema!r}")
    b = {"agent": AGENTS[_below(rng, 2)], "A": rand_eformula(rng, 2), "B": rand_eformula(rng, 2),
         "t": rand_term(rng, 2), "u": rand_term(rng, 2)}
    if "alpha" in sch.names:
        if spec is None or spec_formula is None:
            raise ValueError("interaction schemas need a spec entry")
        b["alpha"] = spec_formula
    sampler = _SAMPLERS.get(schema)
    if sampler is not None:
        b.update(sampler(rng, b, spec, k))
    elif "s" in sch.names:
        b["s"] = rand_qeps(rng)
    return proofcheck.instantiate_schema(schema, b)


# the schemas whose instances need no interaction spec
HARNESS_SCHEMAS = tuple(
    sid for sid, sch in proofcheck._SCHEMAS.items() if "alpha" not in sch.names)
