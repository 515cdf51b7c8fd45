"""Finite epistemic models and probabilistic quasimodels.

Worlds carry a reflexive-transitive accessibility relation per agent, a
valuation, and a base of evidence tuples.  Evidence membership is the least
relation containing the base and closed under sum, application, proof
checking, axiom constants, and protocol monotonicity; it is computed by
memoized recursion, never materialized.  A quasimodel adds a finitely
additive measure over a sample of worlds: the event algebra is the full
power set, masses live in the exact field Q[e], and the infinitary model
conditions are decided by a stabilization argument plus standard parts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import proofcheck, syntax
from .ispec import InteractionSpec
from .qeps import QEps, QEpsParseError, parse_qeps
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
    comp_le,
    eimp,
    esubformulas,
    is_f_free,
)

AGENTS = (syntax.PROVER, syntax.VERIFIER)


class ModelError(ValueError):
    pass


class UnknownAtom(ModelError):
    pass


class UniverseError(ModelError):
    pass


# ---------------------------------------------------------------------------
# epistemic models
# ---------------------------------------------------------------------------


class EpistemicModel:
    """Finite Kripke model with evidence; immutable after construction."""

    def __init__(
        self,
        worlds: Iterable[str],
        rel: dict[str, Iterable[tuple[str, str]]],
        valuation: dict[str, Iterable[str]],
        evidence: Iterable[tuple[str, str, Term, EFormula]] = (),
        atoms: Optional[Iterable[str]] = None,
        witness_pool: Iterable[EFormula] = (),
    ):
        self.worlds: tuple[str, ...] = tuple(dict.fromkeys(worlds))
        self.rel: dict[str, frozenset] = {
            a: frozenset(rel.get(a, ())) for a in AGENTS
        }
        self.valuation: dict[str, frozenset] = {
            w: frozenset(valuation.get(w, ())) for w in self.worlds
        }
        self.evidence: frozenset = frozenset(evidence)
        declared = set(atoms) if atoms is not None else set()
        for v in self.valuation.values():
            declared |= v
        self.atoms: frozenset = frozenset(declared)
        pool = set(witness_pool)
        for _, _, _, alpha in self.evidence:
            pool.add(alpha)
            for sub in esubformulas(alpha):
                d = syntax.dest_eimp(sub)
                if d is not None:
                    pool.add(d[0])
                    pool.add(d[1])
        self.witness_pool: frozenset = frozenset(pool)
        # per agent, each world's sorted successors; validate walks the edges
        # in this order, so the failure it reports does not depend on hashing
        self._adj: dict[str, dict[str, tuple[str, ...]]] = {}
        for a in AGENTS:
            adj: dict[str, list[str]] = {}
            for w, u in self.rel[a]:
                adj.setdefault(w, []).append(u)
            self._adj[a] = {w: tuple(sorted(us)) for w, us in sorted(adj.items())}
        self._ev_memo: dict = {}
        self._tr_memo: dict = {}
        self.validate()

    # -- structural checks ----------------------------------------------------

    def validate(self):
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        wset = set(self.worlds)
        for w in self.valuation:
            if w not in wset:
                raise ModelError(f"valuation mentions unknown world {w!r}")
        for w, a, _, _ in self.evidence:
            if w not in wset:
                raise ModelError(f"evidence mentions unknown world {w!r}")
            if a not in AGENTS:
                raise ModelError(f"evidence mentions unknown agent {a!r}")
        for a in AGENTS:
            r, adj = self.rel[a], self._adj[a]
            edges = [(w, u) for w, us in adj.items() for u in us]
            for w, u in edges:
                if w not in wset or u not in wset:
                    raise ModelError(f"R[{a}] edge {w!r} -> {u!r} leaves the model")
            for w in self.worlds:
                if (w, w) not in r:
                    raise ModelError(f"R[{a}] is not reflexive at {w!r}")
            for w, u in edges:
                for v in adj[u]:
                    if (w, v) not in r:
                        raise ModelError(
                            f"R[{a}] is not transitive: {w!r} -> {u!r} -> {v!r}"
                        )

    def successors(self, agent: str, w: str) -> tuple[str, ...]:
        return self._adj[agent].get(w, ())

    # -- evidence ---------------------------------------------------------------

    def evidence_member(self, w: str, agent: str, t: Term, alpha: EFormula) -> bool:
        key = (w, agent, t, alpha)
        hit = self._ev_memo.get(key)
        if hit is not None:
            return hit
        res = self._evidence_member(w, agent, t, alpha)
        self._ev_memo[key] = res
        return res

    def _evidence_member(self, w: str, agent: str, t: Term, alpha: EFormula) -> bool:
        if (w, agent, t, alpha) in self.evidence:
            return True
        if isinstance(t, Sum):
            return self.evidence_member(w, agent, t.left, alpha) or self.evidence_member(
                w, agent, t.right, alpha
            )
        if isinstance(t, App):
            pool = self.witness_pool | esubformulas(alpha)
            for beta in pool:
                if self.evidence_member(
                    w, agent, t.left, eimp(beta, alpha)
                ) and self.evidence_member(w, agent, t.right, beta):
                    return True
            return False
        if isinstance(t, Bang):
            return (
                isinstance(alpha, Just)
                and alpha.term == t.inner
                and alpha.agent == agent
                and self.evidence_member(w, agent, t.inner, alpha.inner)
            )
        if isinstance(t, Proto):
            for x, a, s, beta in self.evidence:
                if (
                    x == w
                    and a == agent
                    and beta == alpha
                    and isinstance(s, Proto)
                    and s.inner == t.inner
                    and comp_le(s.complexity, t.complexity)
                ):
                    return True
            return False
        if isinstance(t, Const):
            return proofcheck.is_axiom_chain(alpha)
        return False  # a bare variable holds only its base tuples

    # -- truth ------------------------------------------------------------------

    def eval(self, w: str, alpha: EFormula) -> bool:
        key = (w, alpha)
        hit = self._tr_memo.get(key)
        if hit is not None:
            return hit
        res = self._eval(w, alpha)
        self._tr_memo[key] = res
        return res

    def _eval(self, w: str, alpha: EFormula) -> bool:
        if isinstance(alpha, Atom):
            if alpha.name not in self.atoms:
                raise UnknownAtom(f"atom {alpha.name!r} is not in the model")
            return alpha.name in self.valuation.get(w, frozenset())
        if isinstance(alpha, ENot):
            return not self.eval(w, alpha.inner)
        if isinstance(alpha, EAnd):
            return self.eval(w, alpha.left) and self.eval(w, alpha.right)
        if isinstance(alpha, Box):
            return all(self.eval(u, alpha.inner) for u in self.successors(alpha.agent, w))
        if isinstance(alpha, Just):
            return self.evidence_member(w, alpha.agent, alpha.term, alpha.inner) and all(
                self.eval(u, alpha.inner) for u in self.successors(alpha.agent, w)
            )
        raise TypeError(f"not an epistemic formula: {alpha!r}")


# ---------------------------------------------------------------------------
# quasimodels
# ---------------------------------------------------------------------------

_ZERO = QEps.from_rational(0)
_ONE = QEps.from_rational(1)


class Quasimodel:
    """Epistemic model plus an exact probability space over a world sample."""

    def __init__(
        self,
        base: EpistemicModel,
        sample: Iterable[str],
        measure: dict[str, QEps],
        w0: str,
    ):
        self.base = base
        self.sample: tuple[str, ...] = tuple(dict.fromkeys(sample))
        self.measure: dict[str, QEps] = dict(measure)
        self.w0 = w0
        self.validate()

    def validate(self):
        wset = set(self.base.worlds)
        if not set(self.sample) <= wset:
            raise ModelError("sample worlds must be model worlds")
        if self.w0 not in self.sample:
            raise ModelError("the distinguished world must belong to the sample")
        if set(self.measure) != set(self.sample):
            raise ModelError("the measure must assign a mass to each sample world")
        for u in self.sample:
            if not self.measure[u].in_unit_interval():
                raise ModelError(f"mass of {u!r} is outside the unit interval")
        total = self.measure_event(self.sample)
        if total != _ONE:
            raise ModelError(f"masses sum to {total}, not 1")

    def event(self, alpha: EFormula) -> frozenset:
        return frozenset(u for u in self.sample if self.base.eval(u, alpha))

    def measure_event(self, worlds: Iterable[str]) -> QEps:
        masses = [self.measure[u] for u in worlds]
        # rational masses: add the numerators over each denominator, then the sums
        numerators: dict[int, int] = {}
        for m in masses:
            if not m.is_rational:
                return sum(masses, _ZERO)
            r = m.as_rational()
            numerators[r.denominator] = numerators.get(r.denominator, 0) + r.numerator
        return QEps.from_rational(sum(Fraction(n, d) for d, n in numerators.items()))

    def measure_of(self, alpha: EFormula) -> QEps:
        return self.measure_event(self.event(alpha))

    def eval(self, f: Formula) -> bool:
        if isinstance(f, Epistemic):
            return self.base.eval(self.w0, f.inner)
        if isinstance(f, ProbGeq):
            if isinstance(f.threshold, SymThresh):
                raise ModelError("cannot evaluate a parametric threshold")
            return self.measure_of(f.inner).compare(f.threshold) >= 0
        if isinstance(f, ProbApprox):
            return self.measure_of(f.inner).approx_eq(f.r)
        if isinstance(f, FNot):
            return not self.eval(f.inner)
        if isinstance(f, FAnd):
            return self.eval(f.left) and self.eval(f.right)
        raise TypeError(f"not a formula: {f!r}")


def check_independence(q: Quasimodel, alpha: EFormula, beta: EFormula) -> bool:
    ea, eb = q.event(alpha), q.event(beta)
    return q.measure_event(ea & eb) == q.measure_of(alpha) * q.measure_of(beta)


# ---------------------------------------------------------------------------
# model conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Universe:
    terms: tuple[Term, ...]
    formulas: tuple[EFormula, ...] = ()


@dataclass
class Report:
    ok: bool = True
    lines: list[str] = field(default_factory=list)
    counterexample: Optional[tuple] = None

    def note(self, text: str):
        self.lines.append(text)

    def fail(self, text: str, counterexample: Optional[tuple] = None):
        self.lines.append(text)
        if self.ok:
            self.ok = False
            self.counterexample = counterexample

    def render(self) -> str:
        return "\n".join(self.lines + ["PASS" if self.ok else "FAIL"])


def stabilization_index(m: EpistemicModel) -> int:
    """Smallest n beyond which every protocol event family is constant.

    Protocol evidence only enters through base tuples; membership at
    complexity n collects the base tuples of complexity <= n, so every event
    family is monotone nondecreasing in n and constant past the largest
    finite complexity in the base.
    """
    top = 0
    for _, _, t, _ in m.evidence:
        if isinstance(t, Proto) and isinstance(t.complexity, int):
            top = max(top, t.complexity)
    return top + 1


def check_model_conditions(
    q: Quasimodel,
    spec: InteractionSpec,
    universe: Universe,
    zk: bool = False,
    kmax: int = 2,
) -> Report:
    """Decide the protocol bound conditions for every term/formula/k.

    The conditions quantify over all complexities n; in a finite model the
    event family stabilizes at the index n* computed from the evidence base,
    so the checks split into direct bound checks for n <= n* and a
    standard-part check of the stabilized measure covering every n > n*.
    """
    rep = Report()
    m = q.base
    for alpha in spec.formulas():
        for name in syntax.atoms_of_e(alpha):
            if name not in m.atoms:
                raise UniverseError(f"spec formula mentions unknown atom {name!r}")
    n_star = stabilization_index(m)
    rep.note(
        f"stabilization index n* = {n_star}: protocol events are monotone in the "
        f"complexity and constant for n > n*; conditions beyond n* reduce to the "
        f"standard part of the stabilized measure"
    )
    for t in universe.terms:
        if not is_f_free(t):
            raise UniverseError(f"universe term {syntax.print_term(t)} is not a protocol-free base")
        for alpha in spec.formulas():
            fn = spec.threshold(alpha)
            goal = Just(Proto(OMEGA, t), syntax.VERIFIER, Box(syntax.PROVER, alpha))
            stab_event = q.event(
                Just(Proto(n_star, t), syntax.VERIFIER, Box(syntax.PROVER, alpha))
            )
            if q.event(goal) != stab_event:
                rep.fail(
                    f"omega event differs from the stabilized event for "
                    f"t={syntax.print_term(t)}, alpha={syntax.print_eformula(alpha)}",
                    (t, alpha, OMEGA, None, None),
                )
            holds = m.eval(q.w0, Just(t, syntax.PROVER, alpha))
            for k in range(1, kmax + 1):
                thr = fn.value_at(k) if fn is not None else None
                if thr is None:
                    continue  # not in the family at this k; conditions are vacuous
                _check_bounds(
                    rep, q, t, alpha, k, thr, n_star, holds,
                    body=Box(syntax.PROVER, alpha),
                    upper=not holds,
                    label="condition 1" if holds else "condition 2",
                )
            if zk and holds:
                inner = Just(t, syntax.PROVER, alpha)
                zk_goal = Just(Proto(OMEGA, t), syntax.VERIFIER, inner)
                zk_stab = q.event(Just(Proto(n_star, t), syntax.VERIFIER, inner))
                if q.event(zk_goal) != zk_stab:
                    rep.fail(
                        f"omega event differs from the stabilized event (zk) for "
                        f"t={syntax.print_term(t)}",
                        (t, alpha, OMEGA, None, None),
                    )
                for k in range(1, kmax + 1):
                    thr = fn.value_at(k) if fn is not None else None
                    if thr is None:
                        continue
                    _check_bounds(
                        rep, q, t, alpha, k, thr, n_star, holds,
                        body=inner, upper=True, label="zk condition",
                    )
    rep.note("model conditions checked" if rep.ok else "model conditions violated")
    return rep


def _check_bounds(
    rep: Report,
    q: Quasimodel,
    t: Term,
    alpha: EFormula,
    k: int,
    thr: int,
    n_star: int,
    holds: bool,
    body: EFormula,
    upper: bool,
    label: str,
):
    def describe(n, value):
        return (
            f"{label} fails at t={syntax.print_term(t)}, "
            f"alpha={syntax.print_eformula(alpha)}, n={n}, k={k}: measure {value}"
        )

    for n in range(thr + 1, n_star + 1):
        ev = Just(Proto(n, t), syntax.VERIFIER, body)
        value = q.measure_of(ev)
        bound = QEps.from_rational(Fraction(1, n**k))
        if upper:
            ok = value.compare(bound) <= 0
        else:
            ok = value.compare(_ONE - bound) >= 0
        if not ok:
            rep.fail(describe(n, value), (t, alpha, n, k, value))
    stab = q.measure_of(Just(Proto(max(n_star, thr + 1), t), syntax.VERIFIER, body))
    try:
        sp = stab.std_part()
    except ValueError:
        rep.fail(describe("limit", stab), (t, alpha, None, k, stab))
        return
    want = Fraction(0) if upper else Fraction(1)
    if sp != want:
        rep.fail(
            f"{label} limit form fails at t={syntax.print_term(t)}, "
            f"alpha={syntax.print_eformula(alpha)}, k={k}: stabilized measure {stab} "
            f"has standard part {sp}, expected {want}",
            (t, alpha, None, k, stab),
        )


# ---------------------------------------------------------------------------
# evidence-closure audit
# ---------------------------------------------------------------------------


def check_evidence_closure(
    m: EpistemicModel,
    universe: Universe,
    membership: Optional[Callable[[str, str, Term, EFormula], bool]] = None,
) -> Report:
    """Audit the closure conditions over a finite universe.

    With the default (intensional) membership the conditions hold by
    construction; the hook exists to audit extensional membership tables.
    """
    member = membership or m.evidence_member
    rep = Report()
    terms = tuple(universe.terms)
    formulas = tuple(universe.formulas)
    for w in m.worlds:
        for a in AGENTS:
            for alpha in formulas:
                for s in terms:
                    for t in terms:
                        if member(w, a, s, alpha) or member(w, a, t, alpha):
                            if not member(w, a, Sum(s, t), alpha):
                                rep.fail(
                                    f"sum closure fails at {w}/{a}: "
                                    f"{syntax.print_term(Sum(s, t))} lacks "
                                    f"{syntax.print_eformula(alpha)}",
                                    (w, a, Sum(s, t), alpha),
                                )
                        for beta in formulas:
                            if member(w, a, s, eimp(beta, alpha)) and member(w, a, t, beta):
                                if not member(w, a, App(s, t), alpha):
                                    rep.fail(
                                        f"application closure fails at {w}/{a}: "
                                        f"{syntax.print_term(App(s, t))} lacks "
                                        f"{syntax.print_eformula(alpha)}",
                                        (w, a, App(s, t), alpha),
                                    )
                for t in terms:
                    for alpha in formulas:
                        if member(w, a, t, alpha):
                            lifted = Just(t, a, alpha)
                            if not member(w, a, Bang(t), lifted):
                                rep.fail(
                                    f"proof-checker closure fails at {w}/{a}: "
                                    f"{syntax.print_term(Bang(t))} lacks "
                                    f"{syntax.print_eformula(lifted)}",
                                    (w, a, Bang(t), lifted),
                                )
                    if isinstance(t, Const):
                        for alpha in formulas:
                            if proofcheck.is_axiom_chain(alpha) and not member(w, a, t, alpha):
                                rep.fail(
                                    f"axiom-constant closure fails at {w}/{a}: "
                                    f"{syntax.print_term(t)} lacks an axiom chain",
                                    (w, a, t, alpha),
                                )
                # protocol monotonicity over the complexities present in the base
                comps = sorted(
                    s.complexity
                    for (x, b, s, _) in m.evidence
                    if isinstance(s, Proto) and isinstance(s.complexity, int)
                )
                tops = comps[-1:] if comps else []
                for t in terms:
                    for alpha in formulas:
                        for n in comps + [c + 1 for c in tops]:
                            if member(w, a, Proto(n, t), alpha):
                                for n2 in [c for c in comps if c > n] + [
                                    c + 1 for c in tops
                                ] + [OMEGA]:
                                    if not member(w, a, Proto(n2, t), alpha):
                                        rep.fail(
                                            f"protocol monotonicity fails at {w}/{a}: "
                                            f"complexity {n} holds but {n2} does not",
                                            (w, a, Proto(n2, t), alpha),
                                        )
    rep.note("evidence closure audited over the given universe")
    return rep


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------
#
#   worlds: w u
#   R[P]:
#   w -> u
#   R[V]:
#   ...
#   val:
#   w : p q
#   evidence:
#   w [P] t : eform
#   U: w u
#   mu:
#   w = qeps
#   w0: w

_SECTION_RE = re.compile(r"^(worlds|R\[P\]|R\[V\]|val|evidence|U|mu|w0)\s*:\s*(.*)$")
_EDGE_RE = re.compile(r"^(\S+)\s*->\s*(\S+)$")
_EVIDENCE_RE = re.compile(r"^(\S+)\s+\[(P|V)\]\s+(.*)$")


def parse_model_file(text: str) -> Quasimodel:
    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    declared: set[str] = set()  # the worlds named so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        msec = _SECTION_RE.match(line)
        # inside val, "w0 : p" for a world named w0 is a valuation line
        if msec and not (current == "val" and line.split()[0] in declared):
            current = msec.group(1)
            sections.setdefault(current, [])
            line = msec.group(2).strip()
            if not line:
                continue
        elif current is None:
            raise ModelError(f"line {lineno}: content before any section header")
        sections[current].append(line)
        if current == "worlds":
            declared.update(line.split())

    for needed in ("worlds", "U", "mu", "w0"):
        if needed not in sections:
            raise ModelError(f"missing section {needed!r}")

    worlds = " ".join(sections["worlds"]).split()
    rel = {}
    for a, sec in ((syntax.PROVER, "R[P]"), (syntax.VERIFIER, "R[V]")):
        edges = []
        for line in sections.get(sec, []):
            em = _EDGE_RE.match(line)
            if not em:
                raise ModelError(f"bad edge line in {sec}: {line!r}")
            edges.append((em.group(1), em.group(2)))
        rel[a] = edges

    valuation: dict[str, list[str]] = {w: [] for w in worlds}
    for line in sections.get("val", []):
        parts = re.split(r"\s+:\s*", line, maxsplit=1)
        if len(parts) != 2:
            raise ModelError(f"bad valuation line: {line!r}")
        w, atoms = parts[0].strip(), parts[1].split()
        if w not in valuation:
            raise ModelError(f"valuation mentions unknown world {w!r}")
        valuation[w].extend(atoms)

    evidence = []
    for line in sections.get("evidence", []):
        em = _EVIDENCE_RE.match(line)
        if not em:
            raise ModelError(f"bad evidence line: {line!r}")
        w, a, rest = em.groups()
        parts = re.split(r"\s+:\s+", rest, maxsplit=1)
        if len(parts) != 2:
            raise ModelError(f"bad evidence line (need 'term : eform'): {line!r}")
        try:
            t = syntax.parse_term(parts[0])
            alpha = syntax.parse_eformula(parts[1])
        except syntax.ParseError as exc:
            raise ModelError(f"bad evidence line: {exc}") from exc
        evidence.append((w, a, t, alpha))

    sample = " ".join(sections["U"]).split()
    measure = {}
    for line in sections["mu"]:
        if "=" not in line:
            raise ModelError(f"bad mass line: {line!r}")
        w, _, val = line.partition("=")
        try:
            measure[w.strip()] = parse_qeps(val.strip())
        except QEpsParseError as exc:
            raise ModelError(f"bad mass line: {exc}") from exc

    w0 = " ".join(sections["w0"]).strip()
    base = EpistemicModel(worlds, rel, valuation, evidence)
    return Quasimodel(base, sample, measure, w0)


def load_model_file(path: str) -> Quasimodel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_file(fh.read())


def write_model_file(q: Quasimodel) -> str:
    m = q.base
    out = [f"worlds: {' '.join(m.worlds)}"]
    for a, sec in ((syntax.PROVER, "R[P]"), (syntax.VERIFIER, "R[V]")):
        out.append(f"{sec}:")
        for w, u in sorted(m.rel[a]):
            out.append(f"{w} -> {u}")
    out.append("val:")
    for w in m.worlds:
        atoms = sorted(m.valuation.get(w, frozenset()))
        if atoms:
            out.append(f"{w} : {' '.join(atoms)}")
    out.append("evidence:")
    for w, a, t, alpha in sorted(
        m.evidence, key=lambda e: (e[0], e[1], syntax.print_term(e[2]))
    ):
        out.append(f"{w} [{a}] {syntax.print_term(t)} : {syntax.print_eformula(alpha)}")
    out.append(f"U: {' '.join(q.sample)}")
    out.append("mu:")
    for u in q.sample:
        out.append(f"{u} = {q.measure[u]}")
    out.append(f"w0: {q.w0}")
    return "\n".join(out) + "\n"
