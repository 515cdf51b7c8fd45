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

from . import proofcheck, syntax
from .ispec import InteractionSpec
from .qeps import QEps
from .semantics import EpistemicModel, Quasimodel
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
    Term,
    Var,
    eimp,
    fand,
    fimp,
    fnot,
)

ATOM_NAMES = ("p", "q", "r", "p1", "q1")
VAR_NAMES = ("x", "y", "z", "t", "s", "u")
CONST_NAMES = ("a", "b", "k1", "k2")
AGENTS = (syntax.PROVER, syntax.VERIFIER)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def rand_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_qeps(rng: random.Random, max_den: int = 12) -> QEps:
    """A random element of the unit interval, sometimes off by infinitesimals."""
    q = rand_fraction(rng, max_den)
    value = QEps.from_rational(q)
    if rng.random() < 0.4:
        bump = QEps.from_monomials([(Fraction(rng.randint(1, 3)), rng.randint(1, 2))])
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
            return Const(rng.choice(CONST_NAMES))
        return Var(rng.choice(VAR_NAMES))
    kind = rng.randrange(4)
    if kind == 0:
        return App(rand_term(rng, depth - 1), rand_term(rng, depth - 1))
    if kind == 1:
        return Sum(rand_term(rng, depth - 1), rand_term(rng, depth - 1))
    if kind == 2:
        return Bang(rand_term(rng, depth - 1))
    comp = OMEGA if rng.random() < 0.25 else rng.randint(1, 9)
    return Proto(comp, rand_term(rng, depth - 1))


def rand_eformula(rng: random.Random, depth: int = 4, atoms=ATOM_NAMES) -> EFormula:
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(4)
    if kind == 0:
        return ENot(rand_eformula(rng, depth - 1, atoms))
    if kind == 1:
        return EAnd(rand_eformula(rng, depth - 1, atoms), rand_eformula(rng, depth - 1, atoms))
    if kind == 2:
        return Box(rng.choice(AGENTS), rand_eformula(rng, depth - 1, atoms))
    return Just(rand_term(rng, depth - 1), rng.choice(AGENTS), rand_eformula(rng, depth - 1, atoms))


def rand_formula(rng: random.Random, depth: int = 6) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return Epistemic(rand_eformula(rng, min(depth, 3)))
    kind = rng.randrange(4)
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


def _transitive_closure(worlds, edges):
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for (w, u), (x, v) in itertools.product(tuple(closed), tuple(closed)):
            if u == x and (w, v) not in closed:
                closed.add((w, v))
                changed = True
    return closed


def rand_model(
    rng: random.Random,
    max_worlds: int = 6,
    max_sample: int = 4,
    atoms=ATOM_NAMES,
) -> Quasimodel:
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    rel = {}
    for a in AGENTS:
        edges = {(w, w) for w in worlds}
        for _ in range(rng.randint(0, n)):
            edges.add((rng.choice(worlds), rng.choice(worlds)))
        rel[a] = _transitive_closure(worlds, edges)
    valuation = {
        w: [at for at in atoms if rng.random() < 0.5] for w in worlds
    }
    evidence: dict[tuple, list[str]] = {}
    for _ in range(rng.randint(0, 2 * n)):
        w, a = rng.choice(worlds), rng.choice(AGENTS)
        t, alpha = rand_term(rng, 2), rand_eformula(rng, 2, atoms)
        evidence.setdefault((a, t, alpha), []).append(w)
    base = EpistemicModel(worlds, rel, valuation, evidence, atoms=atoms)

    k = rng.randint(1, min(max_sample, n))
    sample = rng.sample(worlds, k)
    weights = [rng.randint(1, 5) for _ in sample]
    total = sum(weights)
    measure = {
        u: QEps.from_rational(Fraction(wt, total)) for u, wt in zip(sample, weights)
    }
    if len(sample) >= 2 and rng.random() < 0.5:
        # shift an infinitesimal between two worlds; the total stays 1
        bump = QEps.from_monomials([(Fraction(1), rng.randint(1, 2))])
        a, b = rng.sample(sample, 2)
        measure[a] = measure[a] - bump
        measure[b] = measure[b] + bump
    w0 = rng.choice(sample)
    return Quasimodel(base, sample, measure, w0)


# ---------------------------------------------------------------------------
# axiom instances with valid side conditions
# ---------------------------------------------------------------------------


def _taut_instance(rng: random.Random, atoms) -> Formula:
    x = rand_formula(rng, 2) if rng.random() < 0.5 else Epistemic(rand_eformula(rng, 2, atoms))
    y = Epistemic(rand_eformula(rng, 2, atoms))
    z = Epistemic(rand_eformula(rng, 1, atoms))
    shapes = (
        lambda: fimp(x, x),
        lambda: fimp(x, fimp(y, x)),
        lambda: fimp(fimp(x, fimp(y, z)), fimp(fimp(x, y), fimp(x, z))),
        lambda: fimp(fand(x, y), x),
        lambda: fimp(x, fimp(y, fand(x, y))),
        lambda: fimp(fnot(fnot(x)), x),
        lambda: fimp(fimp(x, y), fimp(fnot(y), fnot(x))),
    )
    return rng.choice(shapes)()


def rand_axiom_instance(
    rng: random.Random,
    schema: str,
    atoms=ATOM_NAMES,
    spec: Optional[InteractionSpec] = None,
    spec_formula: Optional[EFormula] = None,
    k: Optional[int] = None,
) -> Formula:
    """A random instance of one schema whose side conditions hold."""
    a = rng.choice(AGENTS)
    A = rand_eformula(rng, 2, atoms)
    B = rand_eformula(rng, 2, atoms)
    t1 = rand_term(rng, 2)
    t2 = rand_term(rng, 2)
    if schema == "p":
        return _taut_instance(rng, atoms)
    if schema in ("k", "t", "4"):
        return proofcheck.instantiate_schema(schema, {"agent": a, "A": A, "B": B})
    if schema in ("j", "j+"):
        return proofcheck.instantiate_schema(
            schema, {"agent": a, "s": t1, "t": t2, "A": A, "B": B}
        )
    if schema in ("jt", "j4", "jyb"):
        return proofcheck.instantiate_schema(schema, {"agent": a, "t": t1, "A": A})
    if schema == "m":
        m = rng.randint(1, 6)
        n = OMEGA if rng.random() < 0.3 else m + rng.randint(1, 4)
        return proofcheck.instantiate_schema(
            "m", {"agent": a, "t": t1, "m": m, "n": n, "A": A}
        )
    if schema == "p1":
        return proofcheck.instantiate_schema("p1", {"A": A, "s": QEps.from_rational(0)})
    if schema == "p2":
        t = rand_qeps(rng)
        while t.compare(QEps.from_rational(0)) <= 0:
            t = rand_qeps(rng)
        s = t - QEps.from_monomials([(Fraction(1), rng.randint(1, 2))])
        if not s.in_unit_interval():
            s = QEps.from_rational(0)
        return proofcheck.instantiate_schema("p2", {"A": A, "s": s, "t": t})
    if schema == "p3":
        return proofcheck.instantiate_schema("p3", {"A": A, "s": rand_qeps(rng)})
    if schema == "p4":
        return proofcheck.instantiate_schema("p4", {"A": A, "B": B, "s": rand_qeps(rng)})
    if schema == "p5":
        return proofcheck.instantiate_schema("p5", {"A": A, "s": rand_qeps(rng)})
    if schema == "p6":
        return proofcheck.instantiate_schema(
            "p6",
            {"A": A, "B": B, "s": QEps.from_rational(rand_fraction(rng)),
             "t": QEps.from_rational(rand_fraction(rng))},
        )
    if schema == "p7":
        return proofcheck.instantiate_schema("p7", {"A": A, "B": B, "s": rand_qeps(rng)})
    if schema in ("pa1", "pa2"):
        r = rand_fraction(rng)
        if schema == "pa1":
            while r == 0:
                r = rand_fraction(rng)
            num = rng.randint(0, r.numerator * 2 - 1)
            s = Fraction(num, r.denominator * 2)  # in [0, r)
        else:
            while r == 1:
                r = rand_fraction(rng)
            s = r + Fraction(1 - r, rng.randint(1, 4))  # in (r, 1]
        return proofcheck.instantiate_schema(
            schema, {"A": A, "r": r, "s": QEps.from_rational(s)}
        )
    if schema in ("c", "s", "cw", "sw", "zk1", "zk2"):
        if spec is None or spec_formula is None:
            raise ValueError("interaction schemas need a spec entry")
        alpha = spec_formula
        if schema in ("cw", "sw", "zk2"):
            return proofcheck.instantiate_schema(schema, {"t": t1, "alpha": alpha})
        kk = k if k is not None else rng.randint(1, 2)
        fn = spec.threshold(alpha)
        thr = fn.value_at(kk)
        n = thr + rng.randint(1, 4)
        return proofcheck.instantiate_schema(
            schema, {"t": t1, "alpha": alpha, "n": n, "k": kk}
        )
    raise ValueError(f"unknown schema {schema!r}")


HARNESS_SCHEMAS = (
    "p", "k", "t", "4", "j", "j+", "jt", "j4", "jyb",
    "p1", "p2", "p3", "p4", "p5", "p6", "p7", "pa1", "pa2", "m",
)
