"""Finite epistemic models and probabilistic quasimodels.

Worlds carry a reflexive-transitive accessibility relation per agent, a
valuation, and an evidence base: a mapping from (agent, term, eformula) to
the mask of the worlds where the term is base evidence for the formula.  A
model reads world names once, in its constructor, and holds each world set
once, as a mask or as successor indices.  Evidence membership is the least
relation containing the base and closed under sum, application, proof
checking, axiom constants, and protocol monotonicity.  Evaluation works a
set of worlds at a time, on int bitmasks over the worlds.  A formula's
truth set is one walk of its tree.  Memoised per model are each (agent,
term, formula) evidence set, each box of a world set, and the facts of the
closure that depend on a formula alone: whether it is an axiom chain (then
every constant is evidence for it) and the candidates beta that an
application t . u may use for it.  A quasimodel adds a finitely additive
measure over a sample of worlds: the event algebra is the full power set,
an event is a mask, masses live in the exact field Q[e] and each event's
measure is computed once.  The infinitary model conditions are decided by
a stabilization argument plus standard parts.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from . import proofcheck, syntax
from .ispec import InteractionSpec, error
from .qeps import _DEN1, ONE, ZERO, QEps, _canonical, parse_qeps
from .qeps import _padd, _pmul, _trim
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


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# world masks: bit i of a mask is world i.  A byte view has one 0/1 byte per
# world; masks are built and read through it in O(|W|), where setting or
# testing |W| bits of a big int one at a time takes O(|W|^2).
# ---------------------------------------------------------------------------

_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(mask: int, n: int) -> bytes:
    """The byte view of a mask over ``n`` worlds: ``_bits(mask, n)[i]`` is bit i."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_TO_BYTES)


def _mask(bits) -> int:
    """The mask of a byte view."""
    return int(bits[::-1].translate(_TO_DIGITS), 2)


def _indices_mask(indices: Sequence[int], n: int) -> int:
    """The mask of the worlds ``indices``: by shifts for at most 16 of them,
    whose cost grows with their number, else through a byte view."""
    if len(indices) <= 16:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return mask
    bits = bytearray(n)
    for i in indices:
        bits[i] = 1
    return _mask(bits)


# ---------------------------------------------------------------------------
# epistemic models
# ---------------------------------------------------------------------------


class EpistemicModel:
    """Finite Kripke model with evidence; immutable after construction.

    World ``self.worlds[i]`` is bit ``i`` of every mask, and each world set
    is held once, as a mask or by index: the valuation as one mask per atom,
    each agent's relation as every world's successor indices, and the
    evidence base as one mask per (agent, term, eformula), the worlds where
    the term is base evidence for the formula.  ``truth_mask`` and
    ``evidence_mask`` give the set of worlds where a formula holds or where
    a term is evidence for a formula, for all worlds at a time: truth in one
    walk of the formula's tree, evidence once per agent, term and formula.
    """

    def __init__(
        self,
        worlds: Iterable[str],
        rel: dict[str, Iterable[tuple[str, str]]],
        valuation: dict[str, Iterable[str]],
        evidence: Optional[Mapping[tuple[str, Term, EFormula], Iterable[str]]] = None,
        atoms: Optional[Iterable[str]] = None,
    ):
        """Read the names once, raising ``ModelError`` for the first
        structural fault: no worlds, the valuation's unknown worlds, the
        evidence entries in the base's order (empty ones are dropped), then
        per agent the edges that leave the model, reflexivity in the model's
        order and transitivity.  Of an entry's unknown worlds, and of the
        faulty edges and paths, the least by name is reported, so the fault
        does not depend on hashing."""
        self.worlds: tuple[str, ...] = tuple(dict.fromkeys(worlds))
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        names, n = self.worlds, len(self.worlds)
        self._index: dict[str, int] = {w: i for i, w in enumerate(names)}
        index = self._index.get
        views: dict[str, bytearray] = {}  # per atom, the worlds where it holds
        for w, held in valuation.items():
            i = index(w)
            if i is None:
                raise ModelError(f"valuation mentions unknown world {w!r}")
            for name in held:
                view = views.get(name)
                if view is None:
                    view = views[name] = bytearray(n)
                view[i] = 1
        self._atom_masks: dict[str, int] = dict.fromkeys(atoms or (), 0)
        self._atom_masks.update((name, _mask(view)) for name, view in views.items())
        self.atoms: frozenset = frozenset(self._atom_masks)
        # the evidence base: one world mask per (agent, term, eformula), and the
        # protocol entries by (agent, inner term, formula) -> [(complexity, mask)]
        self._base: dict[tuple[str, Term, EFormula], int] = {}
        self._proto: dict[tuple, list] = {}
        for key, ws in (evidence or {}).items():
            found = tuple(map(index, ws := tuple(ws)))
            if not found:
                continue
            if None in found:
                unknown = min(w for w, i in zip(ws, found) if i is None)
                raise ModelError(f"evidence mentions unknown world {unknown!r}")
            a, t, alpha = key
            if a not in AGENTS:
                raise ModelError(f"evidence mentions unknown agent {a!r}")
            mask = self._base[key] = _indices_mask(found, n)
            if t.__class__ is Proto:
                self._proto.setdefault((a, t.inner, alpha), []).append((t.complexity, mask))
        # per agent, each world's successors by index, shared with the agent before if equal
        self._succ: dict[str, list[list[int]]] = {}
        last_edges = last_succ = None
        for a in AGENTS:
            if (pairs := list(rel.get(a, ()))) == last_edges:
                self._succ[a] = last_succ
                continue
            edges = set()  # i * n + j for the edge from world i to world j
            succ = self._succ[a] = [[] for _ in range(n)]
            outside = []
            for w, u in pairs:
                i, j = index(w), index(u)
                if i is None or j is None:
                    outside.append((w, u))
                elif i * n + j not in edges:
                    edges.add(i * n + j)
                    succ[i].append(j)
            if outside:
                raise ModelError("R[{}] edge {!r} -> {!r} leaves the model".format(
                    a, *min(outside)))
            if not edges.issuperset(range(0, n * n, n + 1)):  # each i * n + i
                w = next(w for i, w in enumerate(names) if i * n + i not in edges)
                raise ModelError(f"R[{a}] is not reflexive at {w!r}")
            broken = [
                (names[i], names[j], names[k])
                for i, out in enumerate(succ) for j in out for k in succ[j]
                if i * n + k not in edges
            ]
            if broken:
                raise ModelError("R[{}] is not transitive: {!r} -> {!r} -> {!r}".format(
                    a, *min(broken)))
            last_edges, last_succ = pairs, succ

        self._witness_pool: Optional[frozenset] = None  # see witness_pool
        self.full_mask: int = (1 << n) - 1
        # see _is_live: a protocol term with a base entry is live by its inner term
        self._based_terms = frozenset(t for _, t, _ in self._base if t.__class__ is not Proto)
        self._run_inners = frozenset(inner for _, inner, _ in self._proto)
        self._evidence: dict[tuple, int] = {}
        self._boxes: dict[tuple, int] = {}  # (agent, mask) -> _box(agent, mask)
        # per formula alpha: the candidates beta of t . u, and the mask where
        # a constant is evidence for alpha
        self._pools: dict[EFormula, frozenset] = {}
        self._axiom_chains: dict[EFormula, int] = {}

    @property
    def witness_pool(self) -> frozenset:
        """The base's formulas and both sides of each implication among their
        subformulas, built on first use: only an application term reads it."""
        if self._witness_pool is None:
            pool = set()
            for alpha in {alpha for _, _, alpha in self._base}:
                pool.add(alpha)
                for sub in esubformulas(alpha):
                    d = syntax.dest_eimp(sub)
                    if d is not None:
                        pool.update(d)
            self._witness_pool = frozenset(pool)
        return self._witness_pool

    def index(self, w: str) -> int:
        """The bit of world ``w`` in every mask."""
        try:
            return self._index[w]
        except KeyError:
            raise ModelError(f"{w!r} is not a world of the model") from None

    def _box(self, agent: str, mask: int) -> int:
        """The worlds all of whose ``agent`` successors lie in ``mask``."""
        if mask == self.full_mask:
            return mask
        out = self._boxes.get((agent, mask))
        if out is None:
            inside = _bits(mask, len(self.worlds)).__getitem__
            out = _mask(bytes(all(map(inside, succ)) for succ in self._succ[agent]))
            self._boxes[(agent, mask)] = out
        return out

    # -- evidence ---------------------------------------------------------------

    def evidence_member(self, w: str, agent: str, t: Term, alpha: EFormula) -> bool:
        return bool(self.evidence_mask(agent, t, alpha) >> self.index(w) & 1)

    def evidence_mask(self, agent: str, t: Term, alpha: EFormula) -> int:
        """The worlds where ``t`` is ``agent``'s evidence for ``alpha``.

        The least relation that contains the base and is closed under sum,
        application, proof checking, axiom constants and protocol
        monotonicity; each case recurses on subterms only.  A term that is
        not live gives 0 before ``alpha`` is hashed.
        """
        if not self._is_live(t):
            return 0
        key = (agent, t, alpha)
        mask = self._evidence.get(key)
        if mask is None:
            mask = self._base.get(key, 0) | self._closure_mask(agent, t, alpha)
            self._evidence[key] = mask
        return mask

    def _is_live(self, t: Term) -> bool:
        """A constant or a term with a base entry is live; else a sum is if a
        side is, an application if both sides are, a bang if its inner term
        is, and a protocol term if the base has one with its inner term.  By
        induction on a dead term, each case of ``_closure_mask`` meets only
        dead terms or no base entry, so the term has no evidence anywhere."""
        cls = t.__class__
        return cls is Const or t in self._based_terms or (
            self._is_live(t.left) or self._is_live(t.right) if cls is Sum else
            self._is_live(t.left) and self._is_live(t.right) if cls is App else
            self._is_live(t.inner) if cls is Bang else
            cls is Proto and t.inner in self._run_inners)

    def _closure_mask(self, agent: str, t: Term, alpha: EFormula) -> int:
        if isinstance(t, Sum):
            return self.evidence_mask(agent, t.left, alpha) | self.evidence_mask(
                agent, t.right, alpha
            )
        if isinstance(t, App):
            pool = self._pools.get(alpha)
            if pool is None:
                pool = self._pools[alpha] = self.witness_pool | esubformulas(alpha)
            mask = 0
            for beta in pool:
                right = self.evidence_mask(agent, t.right, beta)
                if right & ~mask:
                    mask |= right & self.evidence_mask(agent, t.left, eimp(beta, alpha))
            return mask
        if isinstance(t, Bang):
            if isinstance(alpha, Just) and alpha.term == t.inner and alpha.agent == agent:
                return self.evidence_mask(agent, t.inner, alpha.inner)
            return 0
        if isinstance(t, Proto):
            mask = 0
            for c, m in self._proto.get((agent, t.inner, alpha), ()):
                if comp_le(c, t.complexity):
                    mask |= m
            return mask
        if isinstance(t, Const):
            mask = self._axiom_chains.get(alpha)
            if mask is None:
                mask = self._axiom_chains[alpha] = (
                    self.full_mask if proofcheck.is_axiom_chain(alpha) else 0)
            return mask
        return 0  # a bare variable holds only its base tuples

    # -- truth ------------------------------------------------------------------

    def eval(self, w: str, alpha: EFormula) -> bool:
        return bool(self.truth_mask(alpha) >> self.index(w) & 1)

    def truth_mask(self, alpha: EFormula) -> int:
        """The worlds where ``alpha`` holds, in one walk of its tree: only
        evidence and box masks are memoised.  The walk is linear in the
        printed size, as ``print_eformula`` is: ``parse_formula`` shares no
        groups, so every formula the CLI reads is a tree."""
        cls = alpha.__class__
        if cls is ENot:
            return self.full_mask & ~self.truth_mask(alpha.inner)
        if cls is EAnd:
            return self.truth_mask(alpha.left) & self.truth_mask(alpha.right)
        if cls is Atom:
            mask = self._atom_masks.get(alpha.name)
            if mask is None:
                raise ModelError(f"atom {alpha.name!r} is not in the model")
            return mask
        if cls is Box:
            return self._box(alpha.agent, self.truth_mask(alpha.inner))
        if cls is Just:  # the inner mask even without evidence: an unknown atom raises
            box = self._box(alpha.agent, self.truth_mask(alpha.inner))
            return self.evidence_mask(alpha.agent, alpha.term, alpha.inner) & box
        raise TypeError(f"not an epistemic formula: {alpha!r}")


# ---------------------------------------------------------------------------
# quasimodels
# ---------------------------------------------------------------------------


class Quasimodel:
    """Epistemic model plus an exact probability space over a world sample.

    An event is a mask of sample worlds, and each event's measure is computed
    once: the masses that are polynomials in e are summed as integer
    numerators over one denominator per power of e, and the other masses are
    summed per shared denominator, so that the measure is normalised once
    for each distinct denominator among the event's masses.
    """

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
        masses = list(map(self.measure.get, base.worlds, itertools.repeat(ZERO)))
        # each mass object is read once: a model file's equal masses share one object
        ids = list(map(id, masses))
        distinct = dict(zip(ids, masses))
        # per power of e, the polynomial masses' coefficients as integer numerators
        # over one denominator, by world
        polys = {key: m.num for key, m in distinct.items() if len(m.den) == 1}
        self._coefficients: list[tuple[int, list[int]]] = []
        for power in range(max(map(len, polys.values()), default=0)):
            ratios = {key: p[power].as_integer_ratio() for key, p in polys.items() if power < len(p)}
            den = math.lcm(*(d for _, d in ratios.values()))
            nums = {key: n * (den // d) for key, (n, d) in ratios.items()}
            self._coefficients.append((den, list(map(nums.get, ids, itertools.repeat(0)))))
        # the numerators of the rational-function masses by world index, in
        # one group per shared denominator
        groups: dict[tuple, list] = {}
        if len(polys) < len(distinct):  # some mass is a rational function
            for i, m in enumerate(masses):
                if len(m.den) > 1:
                    groups.setdefault(m.den, []).append((i, m.num))
        self._fraction_groups = list(groups.items())
        self._measures: dict[int, QEps] = {}
        found = list(map(base._index.get, self.sample))
        if None in found:
            raise ModelError(f"sample world {self.sample[found.index(None)]!r} is not a model world")
        self.sample_mask: int = _indices_mask(found, len(base.worlds))
        self.validate(distinct.values())

    def validate(self, distinct: Iterable[QEps]):  # each mass object of the model once
        if self.w0 not in self.sample:
            raise ModelError("the distinguished world must belong to the sample")
        if self.measure.keys() != (sample := set(self.sample)):  # the first by U, else by mu
            missing = [u for u in self.sample if u not in self.measure]
            extra = [w for w in self.measure if w not in sample]
            raise ModelError(f"sample world {missing[0]!r} has no mass" if missing
                             else f"world {extra[0]!r} has a mass but is not in the sample")
        # Masses >= 0 that sum to exactly 1 are each <= 1, since Q[e] is an
        # ordered field; only a failure scans for the first bad sample world.
        total = self.measure_mask(self.sample_mask)
        if all(m.sign() >= 0 for m in distinct) and total == ONE:
            return
        for u in self.sample:
            if not self.measure[u].in_unit_interval():
                raise ModelError(f"mass of {u!r} is outside the unit interval")
        raise ModelError(f"masses sum to {total}, not 1")

    def event_mask(self, alpha: EFormula) -> int:
        """The sample worlds where ``alpha`` holds."""
        return self.base.truth_mask(alpha) & self.sample_mask

    def measure_mask(self, mask: int) -> QEps:
        """The measure of the sample worlds in ``mask``."""
        value = self._measures.get(mask)
        if value is None:
            bits = _bits(mask, len(self.base.worlds))
            value = _canonical(_trim(tuple(
                Fraction(sum(itertools.compress(nums, bits)), den)
                for den, nums in self._coefficients
            )), _DEN1)
            for den, group in self._fraction_groups:
                num = ()
                for i, m in group:
                    if bits[i]:
                        num = _padd(num, m)
                if num:  # value + num/den, normalised once
                    value = QEps(_padd(_pmul(value.num, den), _pmul(num, value.den)),
                                 _pmul(value.den, den))
            self._measures[mask] = value
        return value

    def measure_of(self, alpha: EFormula) -> QEps:
        return self.measure_mask(self.event_mask(alpha))

    def eval(self, f: Formula) -> bool:
        """Truth at w0.  Both sides of a conjunction are evaluated, so an
        input error anywhere in ``f`` is raised whatever the truth values."""
        cls = f.__class__
        if cls is FNot:
            return not self.eval(f.inner)
        if cls is FAnd:
            left, right = self.eval(f.left), self.eval(f.right)
            return left and right
        if cls is Epistemic:
            return self.base.eval(self.w0, f.inner)
        if cls is ProbGeq:
            if isinstance(f.threshold, SymThresh):
                raise ModelError("cannot evaluate a parametric threshold")
            return self.measure_of(f.inner).compare(f.threshold) >= 0
        if cls is ProbApprox:
            return self.measure_of(f.inner).approx_eq(f.r)
        raise TypeError(f"not a formula: {f!r}")


def check_independence(q: Quasimodel, alpha: EFormula, beta: EFormula) -> bool:
    ea, eb = q.event_mask(alpha), q.event_mask(beta)
    return q.measure_mask(ea & eb) == q.measure_mask(ea) * q.measure_mask(eb)


# ---------------------------------------------------------------------------
# model conditions
# ---------------------------------------------------------------------------


def check_model_conditions(
    q: Quasimodel,
    spec: InteractionSpec,
    zk: bool = False,
    kmax: int = 2,
) -> proofcheck.Report:
    """Check the protocol bound conditions for each formula of the spec at
    the protocol-free inner terms t of the model's base tuples f[n](t), in
    the order of the printed f[n](t), and for k = 1..kmax.  Other terms and
    larger k are not checked.

    The conditions quantify over all complexities n.  Protocol evidence only
    enters through base tuples, and membership at complexity n collects the
    base tuples of complexity <= n, so every event family is monotone
    nondecreasing in n and constant from the largest finite complexity in
    the base on.  The stabilization index n* is one more than that
    complexity (1 when there is none), so the event at n* is the event at
    every n > n*: the bounds are checked directly for n <= n*, and the
    standard part of the measure at n* stands for every n > n*.
    """
    rep = proofcheck.Report()
    m = q.base
    for alpha in spec.formulas():
        for name in syntax.atoms_of_e(alpha):
            if name not in m.atoms:
                raise ModelError(f"spec formula mentions unknown atom {name!r}")
    n_star = 1 + max((c for entries in m._proto.values() for c, _ in entries if c is not OMEGA),
                     default=0)
    rep.note(
        f"stabilization index n* = {n_star}: protocol events are monotone in the "
        f"complexity and constant for n > n*; conditions beyond n* reduce to the "
        f"standard part of the stabilized measure"
    )

    def run(n: syntax.Complexity, t: Term, body: EFormula) -> EFormula:  # f[n](t) :[V] body
        return Just(Proto(n, t), syntax.VERIFIER, body)

    runs = sorted({t for _, t, _ in m._base if isinstance(t, Proto)}, key=syntax.print_term)
    for t in dict.fromkeys(r.inner for r in runs if is_f_free(r.inner)):
        for alpha in spec.formulas():
            fn = spec.threshold(alpha)
            claim = Just(t, syntax.PROVER, alpha)
            holds = m.eval(q.w0, claim)
            at = f"t={syntax.print_term(t)}, alpha={syntax.print_eformula(alpha)}"
            # (body, upper bound?, label, where the omega check reports)
            cases = [(Box(syntax.PROVER, alpha), not holds,
                      "condition 1" if holds else "condition 2", f"for {at}")]
            if zk and holds:
                cases.append((claim, True, "zk condition", f"(zk) for t={syntax.print_term(t)}"))
            for body, upper, label, where in cases:
                stable = q.event_mask(run(n_star, t, body))
                if q.event_mask(run(OMEGA, t, body)) != stable:
                    rep.fail(f"omega event differs from the stabilized event {where}")
                # every measure is finite: it is a sum of masses, each in [0, 1]
                # (Quasimodel.validate), so its standard part is defined
                stab = q.measure_mask(stable)
                sp, want = stab.std_part(), 0 if upper else 1
                for k in range(1, kmax + 1):
                    thr = fn.value_at(k)
                    if thr is None:  # not in the family at this k: vacuous
                        continue
                    for n in range(thr + 1, n_star + 1):
                        value = q.measure_of(run(n, t, body))
                        bound = QEps.from_rational(error(n, k))
                        if value.compare(bound) > 0 if upper else value.compare(ONE - bound) < 0:
                            rep.fail(f"{label} fails at {at}, n={n}, k={k}: measure {value}")
                    if sp != want:
                        rep.fail(f"{label} limit form fails at {at}, k={k}: stabilized "
                                 f"measure {stab} has standard part {sp}, expected {want}")
    rep.note("model conditions checked" if rep.ok else "model conditions violated")
    return rep


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------
#
#   worlds: w u
#   atoms: p q           (only when some atom holds at no world)
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

_SECTIONS = frozenset(("worlds", "atoms", "R[P]", "R[V]", "val", "evidence", "U", "mu", "w0"))
_HEADS = re.compile("[%s]" % "".join({name[0] for name in _SECTIONS}))  # a header's first character


# the readers of a model file's texts, one parser for all of them (see parse_model_file)
_read_term, _read_mass = syntax.Parser.term, syntax.Parser.literal


def _read_eformula(p: syntax.Parser) -> Optional[EFormula]:
    return syntax.as_efml(p.formula())


def parse_model_file(text: str) -> Quasimodel:
    # A first pass finds the header lines and keeps each section's parts as ranges of
    # line indices; a second reads R[P], R[V], val, evidence and mu in that order, each
    # over all its parts, so the first error does not depend on where the sections stand.
    # A line is known by its index j in syntax.lines(text), its number found for an error.
    lines = list(filter(None, map(str.strip, text.splitlines())))
    lines = [line for line in lines if line[0] != "#"] if "#" in text else lines
    number = lambda j: next(itertools.islice(syntax.lines(text), j, None))[0]  # noqa: E731
    parts: dict[str, list[tuple[int, int]]] = {}  # per section met, its parts' index ranges
    declared: dict[str, None] = {}  # the worlds named so far, in order
    current, start = None, 0  # the section read, and the index of its first line
    firsts = "".join([line[0] for line in lines])
    for k in [*(m.start() for m in _HEADS.finditer(firsts)), len(lines)]:
        # a header is a section name, maybe spaces, a colon and maybe the first content;
        # inside val, "w0 : p" for a world named w0 is a valuation line
        if k < len(lines):
            name, colon, first = lines[k].partition(":")
            if not colon or (name := name.rstrip()) not in _SECTIONS or (
                    current == "val" and lines[k].split()[0] in declared):
                continue
        if current:
            parts[current].append((start, k))
            if current == "worlds":
                declared.update(dict.fromkeys(" ".join(lines[start:k]).split()))
        elif start < k:
            raise ModelError(f"line {number(start)}: content before any section header")
        if k < len(lines):
            parts.setdefault(name, [])
            lines[k] = first.strip()  # the header's own content is its section's first line
            current, start = name, k if lines[k] else k + 1
    for needed in ("worlds", "U", "mu", "w0"):
        if needed not in parts:
            raise ModelError(f"missing section {needed!r}")

    def each(name):  # (j, line) for the lines of all the parts of a section, in file order
        return itertools.chain.from_iterable(
            enumerate(lines[a:b], a) for a, b in parts.get(name, ()))

    rel: dict[str, list[tuple[str, str]]] = {}
    for agent in AGENTS:
        edges = rel[agent] = []
        for j, line in each(section := f"R[{agent}]"):
            # w -> u: its words, else one word on each side of the last "->" that has that
            ends, at = line.split(), None
            while len(ends) != 3 or ends[1] != "->":
                if (at := line.rfind("->", 0, at)) <= 0:
                    raise ModelError(f"line {number(j)}: bad edge line in {section}: {line!r}")
                w, u = line[:at].split(), line[at + 2 :].split()
                ends = [*w, "->", *u] if len(w) == 1 == len(u) else ()
            edges.append((ends[0], ends[2]))
    valuation: dict[str, list[str]] = {}
    for j, line in each("val"):
        # w : atoms, split at the first colon with a space in front
        w, colon, atoms = line.partition(":")
        while colon and not w[-1:].isspace():  # no space in front: the next colon
            more, colon, atoms = atoms.partition(":")
            w = f"{w}:{more}"
        if not colon:
            raise ModelError(f"line {number(j)}: bad valuation line: {line!r}")
        if (w := w.rstrip()) not in declared:
            raise ModelError(f"line {number(j)}: valuation mentions unknown world {w!r}")
        valuation.setdefault(w, []).extend(atoms.split())
    # an evidence line is a world and a text that many lines repeat; each text is split once
    tails: dict[str, list[str]] = {}  # text -> the worlds of its lines
    entries = []  # per text, in order: (line, agent, term, eform, worlds)
    for j, line in each("evidence"):
        # w [A] term : eform; the tail of a one-word line has no space, so is no key
        cut = line.split(None, 1)
        if (held := tails.get(tail := cut[-1])) is not None:
            held.append(cut[0])
            continue
        tails[tail] = held = [cut[0]]
        # the term ends at the first colon with a space on each side: the one of
        # the first " : ", unless another colon comes before it
        term, colon, eform = (rest := tail[3:].lstrip()).partition(" : ")
        if not colon or ":" in term:
            at = rest.find(":", 1)
            while at > 0 and not (rest[at - 1].isspace() and rest[at + 1 : at + 2].isspace()):
                at = rest.find(":", at + 1)
            term, eform = (rest[:at], rest[at + 1 :]) if at > 0 else (None, None)
        if tail[:3] not in ("[P]", "[V]") or not tail[3:4].isspace():
            entries.append((j, None, f"bad evidence line: {line!r}", None, held))
        elif term is None:
            entries.append((j, None, f"bad evidence line (need 'term : eform'): {line!r}",
                            None, held))
        else:
            entries.append((j, tail[1], term.rstrip(), eform.lstrip(), held))
    masses = []  # (line, world, "=", mass), or (line, text, "", "") for a bad line
    for j, line in each("mu"):
        w, equals, mass = line.partition("=")
        masses.append((j, w.strip(), equals, mass.strip()))

    # Each distinct term, formula and mass text is read once: all of them through one
    # parser (syntax.parse_each), and a text that parser did not read alone, so that
    # every error is that of a plain read.
    good = [entry for entry in entries if entry[1]]
    read = syntax.parse_each([*[(_read_term, e[2]) for e in good],
                              *[(_read_eformula, e[3]) for e in good],
                              *[(_read_mass, m[3]) for m in masses if m[2]]], None).get
    evidence: dict[tuple, list[str]] = {}  # the base's world lists
    for lineno, a, term, eform, held in entries:
        if a is None:
            raise ModelError(f"line {number(lineno)}: {term}")
        try:
            t = read((_read_term, term)) or syntax.parse_term(term)
            alpha = read((_read_eformula, eform)) or syntax.parse_eformula(eform)
        except syntax.ParseError as exc:
            raise ModelError(f"line {number(lineno)}: bad evidence line: {exc}") from exc
        evidence.setdefault((a, t, alpha), []).extend(held)
    measure = {}
    for lineno, w, equals, mass in masses:
        if not equals:
            raise ModelError(f"line {number(lineno)}: bad mass line: {w!r}")
        if w in measure:
            raise ModelError(f"line {number(lineno)}: second mass line for world {w!r}")
        try:
            measure[w] = read((_read_mass, mass)) or parse_qeps(mass)
        except syntax.ParseError as exc:
            raise ModelError(f"line {number(lineno)}: bad mass line: {exc}") from exc

    def words(name):  # the words of all the parts of a section
        return " ".join(line for _, line in each(name)).split()

    base = EpistemicModel(declared, rel, valuation, evidence, words("atoms"))
    return Quasimodel(base, words("U"), measure, " ".join(words("w0")))


def load_model_file(path: str) -> Quasimodel:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_model_file(fh.read())


def write_model_file(q: Quasimodel) -> str:
    """The model file of ``q``, each section joined whole; edges are sorted by
    world, and evidence lines by world, agent, printed term and printed formula."""
    m = q.base
    names, n = m.worlds, len(m.worlds)
    order = sorted(range(n), key=names.__getitem__)  # the worlds by name
    sections = [f"worlds: {' '.join(names)}"]
    if 0 in m._atom_masks.values():  # an atom that holds nowhere is named only here
        sections.append(f"atoms: {' '.join(sorted(m._atom_masks))}")
    shared = {id(succ): succ for succ in m._succ.values()}  # agents may share successor lists
    edges = {key: "".join([
        f"\n{names[i]} -> {names[j]}" for i in order
        for j in (sorted(succ[i], key=names.__getitem__) if len(succ[i]) > 1 else succ[i])])
        for key, succ in shared.items()}
    sections += [f"R[{a}]:{edges[id(m._succ[a])]}" for a in AGENTS]
    held: list[list[str]] = [[] for _ in range(n)]  # each world's atoms, sorted
    for name in sorted(m._atom_masks):
        for i in itertools.compress(range(n), _bits(m._atom_masks[name], n)):
            held[i].append(name)
    sections.append("val:" + "".join(
        [f"\n{w} : {' '.join(atoms)}" for w, atoms in zip(names, held) if atoms]))
    # each entry printed once; a world's lines are those of the entries that hold
    # there, in sorted order: a column of the entries' byte views
    entries = sorted(
        ((a, syntax.print_term(t), syntax.print_eformula(alpha), mask)
         for (a, t, alpha), mask in m._base.items()),
        key=lambda entry: entry[:3],
    )
    tails = [f"[{a}] {term_text} : {eform_text}" for a, term_text, eform_text, _ in entries]
    columns = list(zip(*(_bits(mask, n) for *_, mask in entries))) or [()] * n
    sections.append("evidence:" + "".join([
        f"\n{names[i]} " + f"\n{names[i]} ".join(lines) for i in order
        if (lines := list(itertools.compress(tails, columns[i])))]))
    sections.append(f"U: {' '.join(q.sample)}")
    # equal masses often share one object: print it once
    texts = {key: str(mass) for key, mass in {id(m): m for m in q.measure.values()}.items()}
    sections.append("mu:" + "".join([f"\n{u} = {texts[id(q.measure[u])]}" for u in q.sample]))
    sections.append(f"w0: {q.w0}")
    return "\n".join(sections) + "\n"
