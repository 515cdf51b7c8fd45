"""Models, evidence closure, measures, and the model conditions."""

import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ipj
from ipj import generators, syntax
from ipj.ispec import load_spec
from ipj.qeps import ZERO, QEps, parse_qeps
from ipj.semantics import (
    EpistemicModel,
    ModelError,
    Quasimodel,
    UniverseError,
    UnknownAtom,
    check_independence,
    check_model_conditions,
    parse_model_file,
    write_model_file,
)
from ipj.proofcheck import is_axiom_chain
from ipj.protosim import RoundConfig, build_interaction_witness, build_round_model, verify_ipp_bound
from ipj.syntax import (
    OMEGA,
    App,
    Atom,
    Bang,
    Box,
    Const,
    EAnd,
    ENot,
    Just,
    Proto,
    Sum,
    Var,
    comp_le,
    eimp,
    esubformulas,
    parse_eformula,
    parse_formula,
    parse_term,
    print_eformula,
)


def ident(worlds):
    return [(w, w) for w in worlds]


def simple_model(**kw):
    args = dict(
        worlds=["w"],
        rel={"P": ident(["w"]), "V": ident(["w"])},
        valuation={"w": ["p", "q"]},
    )
    args.update(kw)
    return EpistemicModel(**args)


def q(x):
    return QEps.from_rational(Fraction(x))


class NamedModel(EpistemicModel):
    """A model that also keeps the world sets it was built from, by world
    name, for the definitions below to read."""

    def __init__(self, worlds, rel, valuation, evidence=None, atoms=None):
        super().__init__(worlds, rel, valuation, evidence, atoms)
        self.rel = {a: frozenset(rel.get(a, ())) for a in ("P", "V")}
        self.valuation = {w: frozenset(valuation.get(w, ())) for w in self.worlds}
        self.evidence_base = {key: frozenset(ws) for key, ws in (evidence or {}).items() if ws}


@pytest.fixture
def named_models(monkeypatch):
    """``generators.rand_model`` builds ``NamedModel``s."""
    monkeypatch.setattr(generators, "EpistemicModel", NamedModel)


def world_sets(m):
    """The relations, valuation and evidence base of ``m`` by world name,
    read back from its masks."""
    names = m.worlds
    rel = {a: {(names[i], names[j]) for i, out in enumerate(m._succ[a]) for j in out}
           for a in ("P", "V")}
    valuation = {w: {p for p, mask in m._atom_masks.items() if mask >> i & 1}
                 for i, w in enumerate(names)}
    evidence = {key: {w for i, w in enumerate(names) if mask >> i & 1}
                for key, mask in m._base.items()}
    return rel, valuation, evidence


def event(qm, alpha):
    """The sample worlds of ``qm`` where ``alpha`` holds."""
    mask = qm.event_mask(alpha)
    return frozenset(u for u in qm.sample if mask >> qm.base.index(u) & 1)


def measure_event(qm, worlds):
    """The measure of the set of ``worlds`` of ``qm``."""
    return qm.measure_mask(sum(1 << qm.base.index(w) for w in set(worlds)))


# -- structural validation ---------------------------------------------------------


def test_relations_must_be_reflexive():
    with pytest.raises(ModelError):
        EpistemicModel(["w", "u"], {"P": ident(["w"]), "V": ident(["w", "u"])}, {})


def test_valuation_of_an_unknown_world_is_an_error():
    rel = {"P": ident(["w"]), "V": ident(["w"])}
    with pytest.raises(ModelError, match=r"^valuation mentions unknown world 'zz'$"):
        EpistemicModel(["w"], rel, {"zz": ["p"]})


def test_relations_must_be_transitive():
    rel = ident(["a", "b", "c"]) + [("a", "b"), ("b", "c")]
    with pytest.raises(ModelError, match=r"^R\[P\] is not transitive: 'a' -> 'b' -> 'c'$"):
        EpistemicModel(["a", "b", "c"], {"P": rel, "V": ident(["a", "b", "c"])}, {})
    # with several failures, the one reported does not depend on string hashing
    code = (
        "from ipj.semantics import EpistemicModel, ModelError\n"
        "ws = 'abcde'\n"
        "rel = [(w, w) for w in ws] + [('a', 'b'), ('b', 'c'), ('b', 'd'), ('b', 'e'), ('c', 'd')]\n"
        "try:\n"
        "    EpistemicModel(ws, {'P': rel, 'V': [(w, w) for w in ws]}, {})\n"
        "except ModelError as exc:\n"
        "    print(exc)\n"
    )
    assert outputs_under_hash_seeds(code, range(6)) == {
        "R[P] is not transitive: 'a' -> 'b' -> 'c'\n"}


def outputs_under_hash_seeds(code, seeds):
    """The set of stdout texts of ``python -c code``, one run per hash seed."""
    src = str(Path(ipj.__file__).resolve().parent.parent)
    return {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in seeds
    }


def test_unknown_evidence_world_or_agent_is_the_first_bad_entry():
    # entries in the base's order; an entry's unknown worlds in sorted order
    code = (
        "from ipj.semantics import EpistemicModel, ModelError\n"
        "from ipj.syntax import parse_eformula, parse_term\n"
        "ws = ['a', 'b']\n"
        "rel = {'P': [(w, w) for w in ws], 'V': [(w, w) for w in ws]}\n"
        "p, t = parse_eformula('p'), parse_term('t')\n"
        "for base in (\n"
        "    {('P', t, p): ['a'], ('V', t, p): ['zz', 'yy', 'a'], ('Q', t, p): ['a'], ('P', t, parse_eformula('q')): ['xx']},\n"
        "    {('P', t, p): ['b'], ('Q', t, p): ['a', 'b'], ('V', t, p): ['zz']},\n"
        "):\n"
        "    try:\n"
        "        EpistemicModel(ws, rel, {}, base)\n"
        "    except ModelError as exc:\n"
        "        print(exc)\n"
    )
    assert outputs_under_hash_seeds(code, (0, 1)) == {
        "evidence mentions unknown world 'yy'\nevidence mentions unknown agent 'Q'\n"}


def test_names_are_read_once_into_masks():
    t, p = Var("t"), Atom("p")
    m = EpistemicModel(
        ["b", "a", "b"],  # a repeated world keeps its first place
        {"P": ident("ab") * 2 + [("b", "a")] * 2, "V": ident("ab")},  # each edge counts once
        {"a": ["p", "p"], "b": []},
        {("Q", t, p): [], ("P", t, p): [], ("V", t, p): ["a", "a"]},  # empty entries are dropped
        atoms=["q"],  # declared only: an atom of the model, false everywhere
    )
    assert m.worlds == ("b", "a")
    assert list(m._base) == [("V", t, p)] and m._base[("V", t, p)] == 0b10
    assert [sorted(out) for out in m._succ["P"]] == [[0, 1], [1]]
    assert m.atoms == {"p", "q"}
    assert m.truth_mask(p) == 0b10 and m.truth_mask(Atom("q")) == 0
    text = write_model_file(Quasimodel(m, ["a"], {"a": q(1)}, "a"))
    assert text.split("U:")[0] == (
        "worlds: b a\nR[P]:\na -> a\nb -> a\nb -> b\nR[V]:\na -> a\nb -> b\n"
        "val:\na : p\nevidence:\na [V] t : p\n")


def test_the_first_fault_is_reported():
    t, p = Var("t"), Atom("p")
    bad_rel = {"P": [("a", "zz"), ("a", "b")], "V": [("zz", "a")]}
    bad_evidence = {("Q", t, p): ["a"], ("V", t, p): ["zz"]}
    for args, text in (
        (([], bad_rel, {"zz": ["p"]}, bad_evidence), "a model needs at least one world"),
        ((["a", "b"], bad_rel, {"a": ["p"], "zz": []}, bad_evidence),
         "valuation mentions unknown world 'zz'"),
        ((["a", "b"], bad_rel, {},
          {("Q", t, p): [], ("V", t, p): ["zz"], ("Q", t, Atom("q")): ["a"]}),
         "evidence mentions unknown world 'zz'"),
        ((["a", "b"], bad_rel, {}, bad_evidence), "evidence mentions unknown agent 'Q'"),
        ((["a", "b"], bad_rel, {}, {}), "R[P] edge 'a' -> 'zz' leaves the model"),
        ((["a", "b"], {"P": ident("ba") + [("b", "a")], "V": bad_rel["V"]}, {}, {}),
         "R[V] edge 'zz' -> 'a' leaves the model"),
        ((["b", "a"], {"P": [("a", "a"), ("a", "b")], "V": []}, {}, {}),
         "R[P] is not reflexive at 'b'"),
        ((["a", "b", "c"], {"P": ident("abc") + [("a", "b"), ("b", "c")], "V": []}, {}, {}),
         "R[P] is not transitive: 'a' -> 'b' -> 'c'"),
        ((["a", "b", "c"], {"P": ident("abc"), "V": ident("ab")}, {}, {}),
         "R[V] is not reflexive at 'c'"),
    ):
        with pytest.raises(ModelError) as exc:
            EpistemicModel(*args)
        assert str(exc.value) == text


def successors(m, agent, w):
    """The ``agent`` successors of ``w`` in ``m``, sorted by name."""
    return tuple(sorted(m.worlds[j] for j in m._succ[agent][m.index(w)]))


def test_successors_are_sorted(named_models):
    rel = [("c", "a"), ("c", "c"), ("a", "a"), ("c", "b"), ("b", "b"), ("b", "a")]
    m = EpistemicModel(["c", "b", "a"], {"P": rel, "V": ident(["a", "b", "c"])}, {})
    assert successors(m, "P", "c") == ("a", "b", "c")
    assert successors(m, "P", "b") == ("a", "b")
    assert successors(m, "V", "c") == ("c",)
    rng = random.Random(3)
    for _ in range(200):
        m = generators.rand_model(rng).base
        for a in ("P", "V"):
            for w in m.worlds:
                assert successors(m, a, w) == tuple(u for (x, u) in sorted(m.rel[a]) if x == w)


def test_masses_must_sum_to_one():
    m = simple_model(worlds=["w", "u"], rel={"P": ident(["w", "u"]), "V": ident(["w", "u"])})
    with pytest.raises(ModelError):
        Quasimodel(m, ["w", "u"], {"w": q("1/2"), "u": q("1/3")}, "w")
    with pytest.raises(ModelError):
        Quasimodel(m, ["w"], {"w": q(1) + QEps.epsilon()}, "w")


# -- evidence closure ----------------------------------------------------------------


def test_protocol_monotonicity():
    m = simple_model(evidence={("V", parse_term("f[1](t)"), parse_eformula("p")): ["w"]})
    assert m.evidence_member("w", "V", parse_term("f[5](t)"), parse_eformula("p"))
    assert m.evidence_member("w", "V", parse_term("f[w](t)"), parse_eformula("p"))
    assert not m.evidence_member("w", "V", parse_term("f[1](s)"), parse_eformula("p"))


def test_application_closure():
    m = simple_model(
        evidence={
            ("P", Var("s"), parse_eformula("p -> q")): ["w"],
            ("P", Var("t"), parse_eformula("p")): ["w"],
        }
    )
    assert m.evidence_member("w", "P", parse_term("s * t"), parse_eformula("q"))
    assert not m.evidence_member("w", "P", parse_term("t * s"), parse_eformula("q"))


def test_sum_and_bang_closure():
    m = simple_model(evidence={("P", Var("t"), parse_eformula("p")): ["w"]})
    assert m.evidence_member("w", "P", parse_term("t + s"), parse_eformula("p"))
    assert m.evidence_member("w", "P", parse_term("s + t"), parse_eformula("p"))
    assert m.evidence_member("w", "P", parse_term("!t"), parse_eformula("t :[P] p"))
    assert not m.evidence_member("w", "V", parse_term("!t"), parse_eformula("t :[P] p"))


def test_axiom_constant_closure():
    m = simple_model()
    assert m.evidence_member("w", "P", parse_term("c:a"), parse_eformula("box[P] p -> p"))
    assert m.evidence_member(
        "w", "P", parse_term("c:a"), parse_eformula("c:b :[V] (box[P] p -> p)")
    )
    assert not m.evidence_member("w", "P", parse_term("c:a"), parse_eformula("p -> q"))


# -- truth ----------------------------------------------------------------------------


def test_truth_clauses():
    m = simple_model()
    assert m.eval("w", parse_eformula("box[P] p"))
    assert not m.eval("w", parse_eformula("t :[P] p"))  # no evidence
    m2 = simple_model(
        worlds=["w", "u"],
        rel={"P": ident(["w", "u"]), "V": ident(["w", "u"]) + [("w", "u")]},
        valuation={"w": ["p"], "u": []},
    )
    assert not m2.eval("w", parse_eformula("box[V] p"))
    assert m2.eval("w", parse_eformula("box[P] p"))


def test_justification_needs_both_conjuncts():
    m = simple_model(
        worlds=["w", "u"],
        rel={"P": ident(["w", "u"]) + [("w", "u")], "V": ident(["w", "u"])},
        valuation={"w": ["p"], "u": []},
        evidence={("P", Var("t"), parse_eformula("p")): ["w"]},
    )
    # evidence present but some successor falsifies the formula
    assert not m.eval("w", parse_eformula("t :[P] p"))


def test_unknown_atom():
    m = simple_model()
    # raised wherever the atom is, even where the truth value does not need it
    for text in ("zz", "~p & zz", "t :[P] zz", "box[V] (q | zz)"):
        with pytest.raises(UnknownAtom):
            m.eval("w", parse_eformula(text))


# -- the set-at-a-time evaluator against the definitions ---------------------------------


def naive_evidence(m, w, a, t, alpha):
    """Evidence membership at one world, straight from the closure conditions."""
    if w in m.evidence_base.get((a, t, alpha), ()):
        return True
    if isinstance(t, Sum):
        return naive_evidence(m, w, a, t.left, alpha) or naive_evidence(m, w, a, t.right, alpha)
    if isinstance(t, App):
        return any(
            naive_evidence(m, w, a, t.left, eimp(beta, alpha))
            and naive_evidence(m, w, a, t.right, beta)
            for beta in m.witness_pool | esubformulas(alpha)
        )
    if isinstance(t, Bang):
        return (
            isinstance(alpha, Just) and alpha.term == t.inner and alpha.agent == a
            and naive_evidence(m, w, a, t.inner, alpha.inner)
        )
    if isinstance(t, Proto):
        return any(
            w in ws and b == a and beta == alpha and isinstance(s, Proto)
            and s.inner == t.inner and comp_le(s.complexity, t.complexity)
            for (b, s, beta), ws in m.evidence_base.items()
        )
    if isinstance(t, Const):
        return is_axiom_chain(alpha)
    return False


def naive_truth(m, w, alpha):
    """Truth at one world, straight from the Kripke clauses."""
    if isinstance(alpha, Atom):
        return alpha.name in m.valuation[w]
    if isinstance(alpha, ENot):
        return not naive_truth(m, w, alpha.inner)
    if isinstance(alpha, EAnd):
        return naive_truth(m, w, alpha.left) and naive_truth(m, w, alpha.right)
    boxed = all(naive_truth(m, u, alpha.inner) for x, u in m.rel[alpha.agent] if x == w)
    if isinstance(alpha, Box):
        return boxed
    return boxed and naive_evidence(m, w, alpha.agent, alpha.term, alpha.inner)


def mask_of(m, holds):
    return sum(1 << i for i, w in enumerate(m.worlds) if holds(w))


def test_masks_agree_with_the_definitions(named_models):
    rng = random.Random(6)
    # an infinitesimal rational function, moved between two sample worlds
    shift = QEps((0, 1), (1, 1))
    mixed = checked = 0
    for _ in range(300):
        qm = generators.rand_model(rng)
        m = qm.base
        if len(qm.sample) >= 2 and rng.random() < 0.5:
            u, v = rng.sample(qm.sample, 2)
            measure = {**qm.measure, u: qm.measure[u] - shift, v: qm.measure[v] + shift}
            qm = Quasimodel(m, qm.sample, measure, qm.w0)
            mixed += 1
        based = [(t, alpha) for _, t, alpha in m.evidence_base]
        for _ in range(6):
            t, alpha = rng.choice(based) if based and rng.random() < 0.6 else (
                generators.rand_term(rng, 2), generators.rand_eformula(rng, 2))
            kind = rng.randrange(5)
            if kind == 1:
                t = Sum(generators.rand_term(rng, 1), t)
            elif kind == 2:
                t = App(generators.rand_term(rng, 1), t)
            elif kind == 3:
                t, alpha = Bang(t), Just(t, rng.choice("PV"), alpha)
            elif kind == 4 and isinstance(t, Proto):  # the same run at another complexity
                t = Proto(rng.choice([*range(1, 10), OMEGA]), t.inner)
            for a in ("P", "V"):
                assert m.evidence_mask(a, t, alpha) == mask_of(
                    m, lambda w: naive_evidence(m, w, a, t, alpha))
            phi = generators.rand_eformula(rng, 3)
            if rng.random() < 0.5:
                phi = Just(t, rng.choice("PV"), phi)
            assert m.truth_mask(phi) == mask_of(m, lambda w: naive_truth(m, w, phi))
            expected = sum((qm.measure[u] for u in qm.sample if naive_truth(m, u, phi)),
                           QEps.from_rational(0))
            assert qm.measure_of(phi) == expected
            checked += 1
    assert checked == 1800 and mixed > 50


def test_dead_terms_have_no_evidence(named_models):
    # evidence_mask answers 0 for a term that is not live before it hashes
    # the formula: sums, applications, bangs and protocol terms built from
    # base terms, base-free variables and constants must each agree with the
    # closure conditions, and have no evidence at all when not live
    rng = random.Random(34)
    dead = {cls: 0 for cls in (Var, Sum, App, Bang, Proto)}
    for _ in range(300):
        m = generators.rand_model(rng).base
        based = [t for _, t, _ in m.evidence_base]
        leaves = based + [Var(x) for x in generators.VAR_NAMES if Var(x) not in based]
        leaves += [Const("a"), *(t.inner for t in based if isinstance(t, Proto))]

        def draw(depth):
            kind = rng.randrange(5) if depth else 0
            if kind == 0:
                return rng.choice(leaves)
            if kind == 3:
                return Bang(draw(depth - 1))
            if kind == 4:
                return Proto(rng.choice([*range(1, 10), OMEGA]), draw(depth - 1))
            return (Sum, App)[kind - 1](draw(depth - 1), draw(depth - 1))

        formulas = [alpha for _, _, alpha in m.evidence_base] + [generators.rand_eformula(rng, 2)]
        assert all(m._is_live(t) for t in based)
        for _ in range(12):
            t, alpha, a = draw(2), rng.choice(formulas), rng.choice("PV")
            if isinstance(t, Bang) and rng.random() < 0.5:
                alpha = Just(t.inner, a, alpha)
            mask = m.evidence_mask(a, t, alpha)
            assert mask == mask_of(m, lambda w: naive_evidence(m, w, a, t, alpha))
            if not m._is_live(t):
                assert mask == 0 and all(m.evidence_mask(b, t, beta) == 0
                                         for b in "PV" for beta in formulas)
                dead[type(t)] += 1
    assert min(dead.values()) >= 100, dead


def test_a_term_is_live_through_its_own_base_entry():
    # each term's parts are base-free, so only its own entry makes it live
    x, y, p = Var("x"), Var("y"), parse_eformula("p")
    terms = [Sum(x, y), App(x, y), Bang(x), Proto(3, x)]
    m = simple_model(worlds=["w", "u"], rel={"P": ident(["w", "u"]), "V": ident(["w", "u"])},
                     evidence={("P", t, p): ["u"] for t in terms})
    assert not any(m._is_live(s) for s in (x, y, Proto(3, y)))
    for t in terms:
        assert m._is_live(t) and m.evidence_mask("P", t, p) == 0b10
        assert m.evidence_mask("V", t, p) == 0
    assert m.evidence_mask("P", Proto(OMEGA, x), p) == 0b10  # monotone in the complexity


def test_model_memos_do_not_depend_on_the_order_of_evaluation():
    # A model memoises evidence and box masks, the candidate formulas of an
    # application term, the axiom-constant masks and event measures.  Harness
    # instances evaluated in drawn order, in reverse order, and each on a
    # fresh copy of the model give the same verdicts and the same memos.
    memos = ("_evidence", "_boxes", "_pools", "_axiom_chains")
    rng = random.Random(23)
    for _ in range(200):
        seed = rng.getrandbits(32)
        forward, backward = (generators.rand_model(random.Random(seed)) for _ in range(2))
        insts = [generators.rand_axiom_instance(rng, rng.choice(generators.HARNESS_SCHEMAS))
                 for _ in range(25)]
        verdicts = [forward.eval(f) for f in insts]
        assert [backward.eval(f) for f in reversed(insts)] == verdicts[::-1]
        for name in memos:
            assert getattr(backward.base, name) == getattr(forward.base, name), name
        assert backward._measures == forward._measures
        for f, verdict in zip(insts, verdicts):
            fresh = generators.rand_model(random.Random(seed))
            assert fresh.eval(f) == verdict
            for name in memos:
                assert getattr(fresh.base, name).items() <= getattr(forward.base, name).items()
            assert fresh._measures.items() <= forward._measures.items()


def test_round_model_asks_each_round_for_evidence_once():
    m = build_round_model(RoundConfig(10, Fraction(1, 3)))
    assert verify_ipp_bound(m).ok
    qm = m.quasimodel
    # one evidence mask per round term for the claim, and no other
    assert list(qm.base._evidence) == [("V", t, m.claim) for t in m.round_terms]
    # the sample, the claim, each round and each pair of rounds: one measure each
    assert len(qm._measures) == 1 + 1 + 10 + 45


# -- measures -------------------------------------------------------------------------


def two_world_q():
    m = simple_model(
        worlds=["u1", "u2"],
        rel={"P": ident(["u1", "u2"]), "V": ident(["u1", "u2"])},
        valuation={"u1": ["p"], "u2": ["q"]},
    )
    return Quasimodel(m, ["u1", "u2"], {"u1": q("1/2"), "u2": q("1/2")}, "u1")


def test_measure_examples():
    qm = two_world_q()
    assert qm.measure_of(parse_eformula("p")) == q("1/2")
    assert qm.eval(parse_formula("Pr>= 1/2 (p)"))
    assert not qm.eval(parse_formula("Pr> 1/2 (p)"))
    assert qm.eval(parse_formula("Pr<= 1/2 (p)"))


def test_measure_event_over_rational_and_mixed_masses():
    worlds = ["w", "u", "v"]
    m = simple_model(worlds=worlds, rel={a: ident(worlds) for a in "PV"},
                     valuation={"w": ["p"], "u": ["p"]})
    masses = {"w": q("1/3"), "u": q("1/6"), "v": q("1/2")}
    qm = Quasimodel(m, worlds, masses, "w")
    assert qm.measure_of(parse_eformula("p")) == q("1/2")
    assert measure_event(qm, []) == q(0)
    eps = QEps.epsilon()
    qm = Quasimodel(m, worlds, {**masses, "w": masses["w"] - eps, "v": masses["v"] + eps}, "w")
    assert qm.measure_of(parse_eformula("p")) == q("1/2") - eps
    assert measure_event(qm, ["u", "v"]) == q("2/3") + eps


def mixed_masses(rng, worlds):
    """Masses summing to 1 that mix rationals, polynomials and rational
    functions over one to three distinct denominators: rational weights with
    infinitesimals moved between pairs of worlds."""
    weights = [1 + rng.randrange(5) for _ in worlds]
    masses = [q(Fraction(wt, sum(weights))) for wt in weights]
    dens = [QEps((1, 1 + rng.randrange(4 * j + 1, 4 * j + 5))) for j in range(1 + rng.randrange(3))]
    moves = [QEps.epsilon(1 + rng.randrange(2)) for _ in range(1 + rng.randrange(2))]
    moves += [QEps((0, 1 + rng.randrange(3))) / den for den in dens for _ in range(1 + rng.randrange(2))]
    for move in moves:
        i, j = rng.sample(range(len(worlds)), 2)
        masses[i], masses[j] = masses[i] + move, masses[j] - move
    return dict(zip(worlds, masses))


def test_measure_sums_each_denominator_like_a_world_by_world_sum():
    rng = random.Random(27)
    for _ in range(40):
        worlds = [f"w{i}" for i in range(2 + rng.randrange(5))]
        m = simple_model(worlds=worlds, rel={a: ident(worlds) for a in "PV"}, valuation={})
        qm = Quasimodel(m, worlds, mixed_masses(rng, worlds), worlds[0])
        assert any(len(u.den) > 1 for u in qm.measure.values())
        for mask in range(1 << len(worlds)):
            event = [u for i, u in enumerate(worlds) if mask >> i & 1]
            assert qm.measure_mask(mask) == sum((qm.measure[u] for u in event), ZERO)


def test_masses_that_miss_one_name_their_sum():
    text = ("worlds: a b c\nR[P]:\na -> a\nb -> b\nc -> c\nR[V]:\na -> a\nb -> b\nc -> c\n"
            "U: a b c\nmu:\na = (1 + 1 e)/(2 + 1 e)\nb = (12/25 + -13/50 e)/(2 + 1 e)\n"
            "c = 1/4\nw0: a\n")
    with pytest.raises(ModelError) as exc:
        parse_model_file(text)
    assert str(exc.value) == "masses sum to 99/100, not 1"


def test_complement_additivity_random():
    rng = random.Random(3)
    for _ in range(50):
        qm = generators.rand_model(rng)
        alpha = generators.rand_eformula(rng, 2)
        total = qm.measure_of(alpha) + measure_event(qm, set(qm.sample) - event(qm, alpha))
        assert total == q(1)


def test_disjoint_additivity_random():
    rng = random.Random(4)
    for _ in range(50):
        qm = generators.rand_model(rng)
        a, b = generators.rand_eformula(rng, 2), generators.rand_eformula(rng, 2)
        ea, eb = event(qm, a), event(qm, b)
        assert measure_event(qm, ea | eb) + measure_event(qm, ea & eb) == measure_event(
            qm, ea
        ) + measure_event(qm, eb)


def test_independence():
    qm = two_world_q()
    assert check_independence(qm, parse_eformula("p | ~p"), parse_eformula("q"))
    assert not check_independence(qm, parse_eformula("p"), parse_eformula("p"))


def test_approx_eval():
    m = simple_model(
        worlds=["u1", "u2"],
        rel={"P": ident(["u1", "u2"]), "V": ident(["u1", "u2"])},
        valuation={"u1": ["p"], "u2": []},
    )
    eps = QEps.epsilon()
    qm = Quasimodel(m, ["u1", "u2"], {"u1": q(1) - eps, "u2": eps}, "u1")
    assert qm.eval(parse_formula("Pr~ 1 (p)"))
    assert not qm.eval(parse_formula("Pr>= 1 (p)"))


def test_desugared_operator_coherence():
    rng = random.Random(9)
    for _ in range(30):
        qm = generators.rand_model(rng)
        alpha = generators.rand_eformula(rng, 2)
        s = Fraction(rng.randint(0, 4), 4)
        mu = qm.measure_of(alpha)
        left = qm.eval(parse_formula(f"Pr<= {s} ({print_eformula(alpha)})"))
        assert left == (mu.compare(q(s)) <= 0)


# -- model conditions -------------------------------------------------------------------


def witness_quasimodel(mass_u2, mass_ustar, holds=True, extra=None):
    """Three-world model with protocol evidence stabilizing at u2 + ustar,
    and the evidence entries ``extra``."""
    worlds = ["u2", "ustar", "uout"]
    evidence = {
        ("V", Proto(2, Var("t")), Box("P", parse_eformula("p"))): ["u2"],
        ("V", Proto(3, Var("t")), Box("P", parse_eformula("p"))): ["ustar"],
    }
    if holds:
        evidence[("P", Var("t"), parse_eformula("p"))] = ["ustar"]
    evidence.update(extra or {})
    m = EpistemicModel(
        worlds,
        {"P": ident(worlds), "V": ident(worlds)},
        {w: ["p"] for w in worlds},
        evidence,
    )
    measure = {"u2": mass_u2, "ustar": mass_ustar, "uout": q(1) - mass_u2 - mass_ustar}
    return Quasimodel(m, worlds, measure, "ustar" if holds else "uout")


def test_model_conditions_pass_and_fail():
    spec = load_spec("p : const 1\n")
    eps = QEps.epsilon()
    good = witness_quasimodel(q("1/2"), q("1/2") - eps)
    rep = check_model_conditions(good, spec, kmax=1)
    assert rep.ok, rep.render()
    bad = witness_quasimodel(q("1/2"), q("2/5"))
    rep = check_model_conditions(bad, spec, kmax=1)
    assert not rep.ok
    assert rep.counterexample is not None
    assert "standard part" in "\n".join(rep.lines)


def test_model_conditions_check_the_first_level_past_the_threshold():
    # m(k) = 1: the bound 1 - 1/2 fails at n = 2 alone, since f[3](t) adds ustar
    spec = load_spec("p : const 1\n")
    qm = witness_quasimodel(q("1/4"), q("3/4") - QEps.epsilon())
    rep = check_model_conditions(qm, spec, kmax=1)
    assert not rep.ok
    failures = [line for line in rep.lines if "fails" in line]
    assert failures == ["condition 1 fails at t=t, alpha=p, n=2, k=1: measure 1/4"]


def test_model_conditions_check_the_omega_event():
    # f[w](t) holds at uout, which no f[n](t) entry reaches
    spec = load_spec("p : const 1\n")
    omega = {("V", Proto(OMEGA, Var("t")), Box("P", parse_eformula("p"))): ["uout"]}
    qm = witness_quasimodel(q("1/2"), q("1/2") - QEps.epsilon(), extra=omega)
    rep = check_model_conditions(qm, spec, kmax=1)
    assert not rep.ok
    assert "omega event differs from the stabilized event for t=t, alpha=p" in rep.lines


def test_model_conditions_dishonest():
    spec = load_spec("p : const 1\n")
    eps = QEps.epsilon()
    faint = witness_quasimodel(eps * q("1/2"), eps * q("1/2"), holds=False)
    rep = check_model_conditions(faint, spec, kmax=1)
    assert rep.ok, rep.render()


def test_model_conditions_range_over_the_base_terms():
    # the protocol-free t of every base tuple f[n](t), in the order of the
    # printed f[n](t); f[1](f[1](u)) has no protocol-free inner term
    worlds = ["a", "b"]
    body = Box("P", parse_eformula("p"))
    runs = ("f[2](t)", "f[1](s)", "f[1](f[1](u))")
    evidence = {("V", parse_term(run), body): ["a"] for run in runs}
    m = EpistemicModel(worlds, {"P": ident(worlds), "V": ident(worlds)}, {w: ["p"] for w in worlds},
                       evidence)
    qm = Quasimodel(m, worlds, {"a": q("1/2"), "b": q("1/2")}, "b")
    rep = check_model_conditions(qm, load_spec("p : const 1\n"), kmax=1)
    named = [line.split("t=")[1].split(",")[0] for line in rep.lines if "t=" in line]
    assert named == ["s", "s", "t", "t"]


def test_mass_outside_the_unit_interval_names_the_first_sample_world():
    worlds = ["u1", "u2", "u3"]
    m = simple_model(worlds=worlds, rel={"P": ident(worlds), "V": ident(worlds)}, valuation={})
    big = q(2)  # one object for two worlds, as a model file's equal masses are
    for sample, first in ((["u1", "u2", "u3"], "u2"), (["u3", "u2", "u1"], "u3")):
        with pytest.raises(ModelError, match=f"^mass of '{first}' is outside the unit interval$"):
            Quasimodel(m, sample, {"u1": q("1/2"), "u2": big, "u3": big}, "u1")


def reference_mass_error(sample, measure):
    """The first mass error, found the plain way: scan in sample order, then sum."""
    for u in sample:
        if not q(0) <= measure[u] <= q(1):
            return f"mass of {u!r} is outside the unit interval"
    total = sum((measure[u] for u in sample), q(0))
    return None if total == q(1) else f"masses sum to {total}, not 1"


def rand_mass(rng):
    """A rational, a polynomial in e or a rational function, sometimes outside [0, 1]."""
    def coefficients(size):
        return [Fraction(rng.randint(-1, 3), rng.randint(1, 8)) for _ in range(size)]

    kind = rng.randrange(3)
    if kind == 0:
        return QEps.from_rational(coefficients(1)[0])
    if kind == 1:
        return QEps(coefficients(rng.randint(1, 3)))
    return QEps(coefficients(rng.randint(1, 3)), (rng.randint(1, 3), rng.randint(-2, 2)))


def test_masses_are_checked_like_the_plain_scan():
    rng = random.Random(14)
    worlds = [f"u{i}" for i in range(5)]
    m = simple_model(worlds=worlds, rel={"P": ident(worlds), "V": ident(worlds)}, valuation={})
    outcomes = {"ok": 0, "outside": 0, "sum": 0}
    for _ in range(2_000):
        sample = rng.sample(worlds, rng.randint(1, 5))
        masses = []
        for _ in sample[:-1]:
            # an equal mass is often one shared object, as in a model file
            masses.append(rng.choice(masses) if masses and rng.random() < 0.2 else rand_mass(rng))
        rest = q(1) - sum(masses, q(0))
        masses.append(rest if rng.random() < 0.7 else rand_mass(rng))
        measure = dict(zip(sample, masses))
        want = reference_mass_error(sample, measure)
        if want is None:
            Quasimodel(m, sample, measure, sample[0])
            outcomes["ok"] += 1
        else:
            with pytest.raises(ModelError) as exc:
                Quasimodel(m, sample, measure, sample[0])
            assert str(exc.value) == want
            outcomes["outside" if "outside" in want else "sum"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_universe_errors():
    spec = load_spec("zz : const 1\n")
    qm = two_world_q()
    with pytest.raises(UniverseError):
        check_model_conditions(qm, spec)


# -- files --------------------------------------------------------------------------


MODEL_TEXT = """\
# two-world example
worlds: u1 u2
R[P]:
u1 -> u1
u2 -> u2
R[V]:
u1 -> u1
u2 -> u2
u1 -> u2
val:
u1 : p
evidence:
u1 [P] t : p
u1 [V] c:a : box[P] p -> p
U: u1 u2
mu:
u1 = 1/2
u2 = 1/2
w0: u1
"""


def test_model_file_parse_and_roundtrip():
    qm = parse_model_file(MODEL_TEXT)
    assert qm.w0 == "u1"
    assert qm.measure_of(parse_eformula("p")) == q("1/2")
    text = write_model_file(qm)
    again = parse_model_file(text)
    assert write_model_file(again) == text


def assert_roundtrip(qm):
    again = parse_model_file(write_model_file(qm))
    assert again.base.worlds == qm.base.worlds
    assert world_sets(again.base) == world_sets(qm.base)
    assert again.base._base == qm.base._base  # every base mask
    assert again.sample == qm.sample
    assert again.measure == qm.measure
    assert again.w0 == qm.w0


def test_model_file_roundtrip_random():
    # worlds named w0, U, mu, ... must not be read as section headers
    rng = random.Random(0)
    for _ in range(300):
        assert_roundtrip(generators.rand_model(rng))


def test_model_file_roundtrip_rounds_and_witnesses():
    for rounds in (2, 10):
        for honest in (True, False):
            assert_roundtrip(build_round_model(RoundConfig(rounds, Fraction(2, 7), honest=honest))
                             .quasimodel)
    spec = load_spec("p & q : poly 1 1\n")
    for honest in (True, False):
        for zk in (False, True):
            qm = build_interaction_witness(spec, parse_eformula("p & q"), parse_term("t + c:a"),
                                           k=2, n_max=12, honest=honest, zk=zk)
            assert_roundtrip(qm)


def test_round_model_base_has_one_entry_per_round():
    m = build_round_model(RoundConfig(10, Fraction(1, 3)))
    _, _, base = world_sets(m.quasimodel.base)
    assert list(base) == [("V", t, m.claim) for t in m.round_terms]
    for i, t in enumerate(m.round_terms, start=1):
        assert base[("V", t, m.claim)] == {w for w in m.quasimodel.base.worlds if w[i] == "1"}


def test_written_model_files_are_pinned():
    # the bytes that `simulate --emit` writes for 10-round models (errors 1/7 to 6/7,
    # honest and dishonest) and for the eight witness models of the benchmark's shape
    h = hashlib.sha256()
    for a in range(1, 7):
        for honest in (True, False):
            qm = build_round_model(RoundConfig(10, Fraction(a, 7), honest=honest)).quasimodel
            h.update(write_model_file(qm).encode())
    spec = load_spec("p : const 2\n")
    for k in (1, 2):
        for honest in (True, False):
            for zk in (False, True):
                qm = build_interaction_witness(spec, Atom("p"), Var("t"), k=k, n_max=16,
                                               honest=honest, zk=zk)
                h.update(write_model_file(qm).encode())
    assert h.hexdigest() == "8d3038caaf558195e99eb34c63a7a94691194779c68976d2729deba12d752eaf"


def test_model_file_lines_do_not_depend_on_hashing():
    # one world holds t for five formulas: the lines are sorted by formula too
    code = (
        "from ipj.semantics import EpistemicModel, Quasimodel, write_model_file\n"
        "from ipj.qeps import QEps\n"
        "from ipj.syntax import parse_eformula, parse_term\n"
        "t = parse_term('t')\n"
        "texts = {'p', 'q', 'r', 'p & q', 'box[P] r'}\n"  # a set: its order varies with the seed
        "base = {('P', t, parse_eformula(x)): ['w'] for x in texts}\n"
        "base[('V', t, parse_eformula('p'))] = ['u', 'w']\n"
        "rel = [('w', 'w'), ('u', 'u')]\n"
        "m = EpistemicModel(['w', 'u'], {'P': rel, 'V': rel}, {'w': ['p', 'q', 'r']}, base)\n"
        "half = QEps.from_rational(1) / 2\n"
        "print(write_model_file(Quasimodel(m, ['w', 'u'], {'w': half, 'u': half}, 'w')))\n"
    )
    outputs = outputs_under_hash_seeds(code, (0, 1))
    assert len(outputs) == 1
    evidence = outputs.pop().split("evidence:\n")[1].split("U:")[0]
    assert evidence == (
        "u [V] t : p\n"
        "w [P] t : box[P] r\n"
        "w [P] t : p\n"
        "w [P] t : p & q\n"
        "w [P] t : q\n"
        "w [P] t : r\n"
        "w [V] t : p\n"
    )


def test_worlds_named_like_sections():
    names = ["w0", "U", "mu", "val", "worlds"]
    text = "\n".join(
        [f"worlds: {' '.join(names)}", "R[P]:", *(f"{w} -> {w}" for w in names), "R[V]:",
         *(f"{w} -> {w}" for w in names), "val:", *(f"{w} : p" for w in names),
         "U: w0 U", "mu:", "w0 = 1/2", "U = 1/2", "w0: U"]
    ) + "\n"
    qm = parse_model_file(text)
    assert qm.w0 == "U" and qm.sample == ("w0", "U")
    _, valuation, _ = world_sets(qm.base)
    assert all(valuation[w] == {"p"} for w in names)


def test_section_header_spellings():
    # a header is a section name, then spaces or tabs, a colon and maybe the
    # section's first content; inside val, "w0 : p" and "U : q" are the
    # valuation lines of the worlds w0 and U
    text = (
        "worlds :\tw0 U\n"
        "# a comment\n"
        "R[P] :  w0 -> w0\n"
        "U -> U\n"
        "R[V]\t:\n"
        "\tw0 -> w0\n"
        "  # an indented comment\n"
        "U -> U\n"
        "val:\n"
        "w0 : p\n"
        "U\t:\tq r\n"
        "evidence :  w0 [P] t : p\n"
        "U:w0 U\n"
        "mu\t:\n"
        "w0 = 1/2\n"
        "U = 1/2\n"
        "w0 :U\n"
    )
    qm = parse_model_file(text)
    assert qm.w0 == "U" and qm.sample == ("w0", "U") and qm.base.worlds == ("w0", "U")
    rel, valuation, evidence = world_sets(qm.base)
    assert valuation == {"w0": {"p"}, "U": {"q", "r"}}
    assert evidence == {("P", Var("t"), Atom("p")): {"w0"}}
    for a in ("P", "V"):
        assert rel[a] == {("w0", "w0"), ("U", "U")}
    assert qm.measure == {"w0": q("1/2"), "U": q("1/2")}


def test_model_file_errors():
    with pytest.raises(ModelError):
        parse_model_file("worlds: w\nw0: w\n")  # missing sections
    with pytest.raises(ModelError):
        parse_model_file(MODEL_TEXT.replace("u1 -> u2", "u1 -> zz"))
    with pytest.raises(ModelError):
        parse_model_file(MODEL_TEXT.replace("u2 = 1/2", "u2 = 1/3"))


@pytest.mark.parametrize("masses, error", [
    (("1/2", "-1/2"), "mass of 'u2' is outside the unit interval"),
    (("3/2", "-1/2"), "mass of 'u1' is outside the unit interval"),  # sums to 1
    (("1/2", "1/3"), "masses sum to 5/6, not 1"),
    (("-1 e", "1 + 1 e"), "mass of 'u1' is outside the unit interval"),  # sums to 1
])
def test_model_file_mass_errors(masses, error):
    text = MODEL_TEXT.replace("u1 = 1/2\nu2 = 1/2", "u1 = {}\nu2 = {}".format(*masses))
    assert text != MODEL_TEXT
    with pytest.raises(ModelError) as exc:
        parse_model_file(text)
    assert str(exc.value) == error


@pytest.mark.parametrize("sample, masses, error", [
    ("u1", "u1 = 1\nu2 = 0", "world 'u2' has a mass but is not in the sample"),
    ("u1", "u2 = 0\nu1 = 1", "world 'u2' has a mass but is not in the sample"),
    ("u1 u2", "u1 = 1", "sample world 'u2' has no mass"),
    ("u2 u1", "u1 = 1", "sample world 'u2' has no mass"),
    ("u1 u2", "u1 = 1\nzz = 0", "sample world 'u2' has no mass"),  # a missing mass comes first
    ("u1 zz u2", "u1 = 1/2\nu2 = 1/2", "sample world 'zz' is not a model world"),
    ("u1 u2 zz yy", "u1 = 1/2\nu2 = 1/2", "sample world 'zz' is not a model world"),
])
def test_sample_errors_name_a_world(sample, masses, error):
    # the first such world in the order of U (a missing or foreign sample world)
    # or of mu (a mass outside the sample), so the error does not depend on hashing
    text = replaced(MODEL_TEXT, ("U: u1 u2", f"U: {sample}"), ("u1 = 1/2\nu2 = 1/2", masses))
    assert read_error(text) == error


# -- line shapes ---------------------------------------------------------------------

SHAPES_MODEL = """# a model for the line shapes
worlds: w0 b
R[P]:
w0 -> w0
b -> b
w0 -> b

R[V]:
w0 -> w0
b -> b
val:
w0 : p
evidence:
w0 [P] t : p
U: w0 b
mu:
w0 = 1/2
b = 1/2
w0: w0
"""

# (a line of SHAPES_MODEL, the line put in its place, and what the file then
# reads as: ("as", a plainer line in that place), or the error text)
_MODEL_LINES = [
    # R[P], line 6
    ("w0 -> b", "w0->b", ("as", "w0 -> b")),
    ("w0 -> b", "w0  ->\tb", ("as", "w0 -> b")),
    ("w0 -> b", "w0 -> w0 -> w0", "line 6: bad edge line in R[P]: 'w0 -> w0 -> w0'"),
    ("w0 -> b", "w0 - b", "line 6: bad edge line in R[P]: 'w0 - b'"),
    ("w0 -> b", "w0 ->", "line 6: bad edge line in R[P]: 'w0 ->'"),
    ("w0 -> b", "-> b", "line 6: bad edge line in R[P]: '-> b'"),
    ("w0 -> b", "w0->b->b", "R[P] edge 'w0->b' -> 'b' leaves the model"),
    ("w0 -> b", "w0->-> b", "R[P] edge 'w0->' -> 'b' leaves the model"),
    ("w0 -> b", "w0 ->b->b", "R[P] edge 'w0' -> 'b->b' leaves the model"),
    # val, line 12
    ("w0 : p", "w0 : p q", ("as", "w0 : q p")),
    ("w0 : p", "w0\t:\tp", ("as", "w0 : p")),
    ("w0 : p", "w0 :p", ("as", "w0 : p")),
    ("w0 : p", "w0 : ", ("as", "b :")),
    ("w0 : p", "w0 p", "line 12: bad valuation line: 'w0 p'"),
    ("w0 : p", "zz : p", "line 12: valuation mentions unknown world 'zz'"),
    ("w0 : p", "w0 b : p", "line 12: valuation mentions unknown world 'w0 b'"),
    ("w0 : p", "w0: p", "the distinguished world must belong to the sample"),  # a w0 header
    # evidence, line 14
    ("w0 [P] t : p", "w0\t[P]  t  :  p", ("as", "w0 [P] t : p")),
    ("w0 [P] t : p", "w0 [P] (s + t) : p -> q", ("as", "w0 [P] s + t : ~(p & ~q)")),
    ("w0 [P] t : p", "w0 [X] t : p", "line 14: bad evidence line: 'w0 [X] t : p'"),
    ("w0 [P] t : p", "w0 [P]t : p", "line 14: bad evidence line: 'w0 [P]t : p'"),
    ("w0 [P] t : p", "w0 [P]", "line 14: bad evidence line: 'w0 [P]'"),
    ("w0 [P] t : p", "w0 [P] t", "line 14: bad evidence line (need 'term : eform'): 'w0 [P] t'"),
    ("w0 [P] t : p", "w0 [P] t:p",
     "line 14: bad evidence line (need 'term : eform'): 'w0 [P] t:p'"),
    ("w0 [P] t : p", "w0 [P] : p",
     "line 14: bad evidence line (need 'term : eform'): 'w0 [P] : p'"),
    ("w0 [P] t : p", "w0 [P]  : p",
     "line 14: bad evidence line (need 'term : eform'): 'w0 [P]  : p'"),
    ("w0 [P] t : p", "w0 [P]  : p : q",
     "line 14: bad evidence line: 1:1: expected a term, got ':'"),
    ("w0 [P] t : p", "w0 [P] t :x : p", "line 14: bad evidence line: 1:3: trailing input: ':'"),
    ("w0 [P] t : p", "w0 [P] t :[P] p : q",
     "line 14: bad evidence line: 1:3: trailing input: ':['"),
    ("w0 [P] t : p", "w0 [P] t : p &",
     "line 14: bad evidence line: 1:4: expected a formula, got ''"),
    # mu, line 18
    ("b = 1/2", "b=1/2", ("as", "b = 1/2")),
    ("b = 1/2", "b 1/2", "line 18: bad mass line: 'b 1/2'"),
    ("b = 1/2", "b = x", "line 18: bad mass line: 1:1: expected 'num', got 'x'"),
    ("b = 1/2", "b = 1/2 = 1", "line 18: bad mass line: 1:5: trailing input in literal: '='"),
    # section headers
    ("R[V]:", "R[V]\t:", ("as", "R[V]:")),
    ("R[P]:", "R[P] :  w0 -> w0", ("as", "R[P]:")),
    ("mu:", "mu :", ("as", "mu:")),
    ("worlds: w0 b", "w0 b", "line 2: content before any section header"),
    # a world with two mass lines (the last one read would make the masses sum to 1)
    ("w0 = 1/2", "w0 = 1/3\nw0 = 1/2", "line 18: second mass line for world 'w0'"),
]


@pytest.mark.parametrize("old, new, want", _MODEL_LINES)
def test_model_line_shapes(old, new, want):
    text = SHAPES_MODEL.replace(old, new, 1)
    assert text != SHAPES_MODEL
    if isinstance(want, tuple):
        plain = SHAPES_MODEL.replace(old, want[1], 1)
        assert write_model_file(parse_model_file(text)) == write_model_file(parse_model_file(plain))
    else:
        with pytest.raises(ModelError) as exc:
            parse_model_file(text)
        assert str(exc.value) == want


# -- the one parser per kind of text ---------------------------------------------------
#
# The reader reads each kind of text (terms, formulas, masses) through one parser
# over the texts joined one per line, and reads alone a text that parser did not
# read; these tests hold it to the errors and models of a reader that reads every
# text alone.

MANY_TEXTS = """worlds: a b c d
R[P]:
a -> a
b -> b
c -> c
d -> d
R[V]:
a -> a
b -> b
c -> c
d -> d
val:
a : p q
evidence:
a [P] t : p
b [P] f[2](t) : box[P] p
c [V] f[3](s) : p & q
d [V] t * s : p -> q
a [V] f[3](s) : p & q
U: a b c d
mu:
a = 1/3
b = 1/6
c = 1/4
d = 1/4
w0: a
"""


def read_error(text):
    with pytest.raises(ModelError) as exc:
        parse_model_file(text)
    return str(exc.value)


def replaced(text, *pairs):
    """``text`` with each (old, new) pair replaced once."""
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new, 1)
    return text


@pytest.mark.parametrize("pairs, error", [
    # a lex error in one text among many
    ((("c = 1/4", "c = 8/#9"),), "line 24: bad mass line: 1:3: unexpected character '#'"),
    ((("c [V] f[3](s)", "c [V] f[3](s#)"),),
     "line 17: bad evidence line: 1:7: unexpected character '#'"),
    ((("p -> q", "p -> q#"),), "line 18: bad evidence line: 1:7: unexpected character '#'"),
    # a text that read on into the next line's text, joined
    ((("a = 1/3\nb = 1/6", "a = 1 +\nb = 2 e 3"),),
     "line 22: bad mass line: 1:4: expected 'num', got ''"),
    ((("[P] t : p\n", "[P] t : p &\n"),),
     "line 15: bad evidence line: 1:4: expected a formula, got ''"),
    # two bad sections, or two bad lines in one: the first bad line
    ((("c [V] f[3](s)", "c [V] f[3](s"), ("b = 1/6", "b 1/6")),
     "line 17: bad evidence line: 1:7: expected ')', got ''"),
    ((("b [P] f[2](t)", "b [P] f[2](t"), ("d [V] t", "d [X] t")),
     "line 16: bad evidence line: 1:7: expected ')', got ''"),
    ((("a [P] t : p", "a [P] t"), ("c [V] f[3](s)", "c [V] f[3](s")),
     "line 15: bad evidence line (need 'term : eform'): 'a [P] t'"),
    ((("d [V] t * s : p -> q", "d [V] t * s : p -> q -> "), ("a = 1/3", "a = 1/0")),
     "line 18: bad evidence line: 1:10: expected a formula, got ''"),
    ((("b = 1/6", "b 1/6"), ("c = 1/4", "c = x")), "line 23: bad mass line: 'b 1/6'"),
    ((("a = 1/3", "a = 1/"), ("b = 1/6", "b 1/6")),
     "line 22: bad mass line: 1:3: expected 'num', got ''"),
])
def test_each_error_is_that_of_a_plain_read(pairs, error):
    assert read_error(replaced(MANY_TEXTS, *pairs)) == error


# MANY_TEXTS's R[P] and mu sections, to move about
R_P_SECTION = "R[P]:\na -> a\nb -> b\nc -> c\nd -> d\n"
MU_SECTION = "mu:\na = 1/3\nb = 1/6\nc = 1/4\nd = 1/4\n"


@pytest.mark.parametrize("pairs, error", [
    # val and evidence before R[P], each with a bad line: the R[P] line's error
    (((R_P_SECTION, ""), ("U: a", R_P_SECTION.replace("c -> c", "c - c") + "U: a"),
      ("a : p q", "a p q"), ("c [V] f[3](s)", "c [X] f[3](s)")),
     "line 18: bad edge line in R[P]: 'c - c'"),
    (((R_P_SECTION, ""), ("U: a", R_P_SECTION.replace("c -> c", "c - c") + "U: a"),
      ("c [V] f[3](s)", "c [X] f[3](s)")),
     "line 18: bad edge line in R[P]: 'c - c'"),
    # a repeated R[V] header: its bad line after a bad val line, or before a bad R[P] line
    ((("a : p q", "a p q\nR[V]:\nb -> b x"),), "line 15: bad edge line in R[V]: 'b -> b x'"),
    ((("worlds: a b c d\n", "worlds: a b c d\nR[V]:\nx y\n"), ("c -> c", "c - c")),
     "line 7: bad edge line in R[P]: 'c - c'"),
    # mu before worlds, with a bad mass line and a bad val line
    (((MU_SECTION, ""), ("worlds:", MU_SECTION.replace("b = 1/6", "b 1/6") + "worlds:"),
      ("a : p q", "zz : p q")),
     "line 18: valuation mentions unknown world 'zz'"),
    # a val line that names a world declared only after it is no error
    ((("val:\na : p q\n", ""), ("worlds:", "val:\nb : p\nworlds:"), ("c = 1/4", "c = x")),
     "line 24: bad mass line: 1:1: expected 'num', got 'x'"),
    ((("val:\na : p q\n", ""), ("worlds:", "val:\nb : p\nzz : q\nworlds:"), ("c = 1/4", "c = x")),
     "line 3: valuation mentions unknown world 'zz'"),
])
def test_first_error_follows_the_section_order(pairs, error):
    # sections out of their usual order, or met twice: the first error is still that
    # of reading R[P], R[V], val, evidence and mu one after another, not the first
    # bad line of the file
    assert read_error(replaced(MANY_TEXTS, *pairs)) == error


def test_texts_that_join_across_lines_do_not_depend_on_hashing():
    # joined, "1 +" and "2 e 3" read as "1 + 2 e" and "3"
    text = replaced(MANY_TEXTS, ("a = 1/3\nb = 1/6", "a = 1 +\nb = 2 e 3"))
    code = (
        "from ipj.semantics import ModelError, parse_model_file\n"
        "try:\n"
        f"    parse_model_file({text!r})\n"
        "except ModelError as exc:\n"
        "    print(exc)\n"
    )
    assert outputs_under_hash_seeds(code, range(4)) == {
        "line 22: bad mass line: 1:4: expected 'num', got ''\n"}


def test_equal_texts_are_read_into_one_object():
    qm = parse_model_file(MANY_TEXTS)
    assert qm.measure["c"] is qm.measure["d"]  # "1/4" twice
    # the two lines of "[V] f[3](s) : p & q" are one entry
    assert len(qm.base._base) == 4
    text = replaced(MANY_TEXTS, ("a [P] t : p", "a [P] t : p & q"))
    formulas = [alpha for _, _, alpha in parse_model_file(text).base._base]
    assert formulas[0] is formulas[2]  # "p & q" on two lines


def fraction_form_model():
    """Four sample worlds whose masses share the denominator 19 - e."""
    den = [(19, 0), (-1, 1)]
    nums = [[(5, 0), (-3, 1)], [(1, 0), (1, 1)], [(4, 0), (-2, 1)], [(9, 0), (3, 1)]]
    masses = {w: QEps.from_monomials(num, den) for w, num in zip("abcd", nums)}
    t, s = parse_term("t"), parse_term("s")
    m = EpistemicModel(
        "abcde", {"P": ident("abcde") + [("a", "b")], "V": ident("abcde")},
        {"a": ["p"], "b": ["p", "q"], "e": ["q"]},
        {("P", t, parse_eformula("p")): ["a", "b"], ("V", App(t, s), parse_eformula("p -> q")): ["c"]},
    )
    return Quasimodel(m, "abcd", masses, "c")


def test_fraction_form_masses_round_trip():
    qm = fraction_form_model()
    text = write_model_file(qm)
    assert "b = (1/19 + 1/19 e)/(1 + -1/19 e)\n" in text
    again = parse_model_file(text)
    assert_roundtrip(qm)
    assert {str(m.den) for m in again.measure.values()} == {str(qm.measure["a"].den)}
    assert again.measure_of(parse_eformula("p")) == qm.measure["a"] + qm.measure["b"]


def mutated(rng, text):
    """``text`` with one to three random edits, mostly on evidence and mass lines."""
    pieces = list("()+*/e^-:[]~&!#= 0123456789pqst") + [
        " + ", " e", "^2", " -> ", " : ", ":[V] ", "f[3](", "1/0", "8/#9", "\n", "\n+ ",
        "\n* ", "\n& ", "\n:[P] ", "\n/3", "\n(", ")\n", "c:"]
    lines = text.split("\n")
    texts = [i for i, line in enumerate(lines) if "[" in line or " = " in line]
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(texts) if rng.random() < 0.8 else rng.randrange(len(lines))
        i = min(i, len(lines) - 1)
        line, at, op = lines[i], rng.randint(0, len(lines[i])), rng.randrange(6)
        if op < 2:
            lines[i] = line[:at] + rng.choice(pieces) + line[at:]
        elif op == 2:
            lines[i] = line[:at] + line[at + 1 :]
        elif op == 3:
            lines[i] = line[:at] + rng.choice(pieces) + line[at + 1 :]
        elif op == 4:
            lines.insert(i, line)
        elif i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines)


def read_outcome(text):
    """The model read from ``text``, in full, or the type and text of its error."""
    try:
        qm = parse_model_file(text)
    except Exception as exc:  # any error: the same one with and without the one parser
        return type(exc).__name__, str(exc)
    return (write_model_file(qm), qm.base.worlds, list(qm.base._base.items()),
            qm.base._atom_masks, qm.base._succ, qm.sample, list(qm.measure.items()), qm.w0)


def test_shared_read_changes_nothing(monkeypatch):
    spec = load_spec("p & q : poly 1 1\n")
    bases = [
        write_model_file(build_interaction_witness(
            spec, parse_eformula("p & q"), parse_term("t + c:a"), k=2, n_max=8, zk=True)),
        write_model_file(fraction_form_model()),
        write_model_file(build_round_model(RoundConfig(3, Fraction(2, 7))).quasimodel),
    ]
    rng = random.Random(22)
    texts = [mutated(rng, bases[k % 3]) for k in range(2000)]
    shared = [read_outcome(text) for text in texts]
    # forced off, every text is read alone
    monkeypatch.setattr(syntax, "parse_each", lambda texts, read: {})
    alone = [read_outcome(text) for text in texts]
    assert shared == alone
    assert sum(out[0].startswith("worlds:") for out in alone) > 200


_HEADER_RE = re.compile(r"\s*(worlds|R\[P\]|R\[V\]|val|evidence|U|mu|w0)\s*:")
_LAYOUT = {
    "header": [" :", "\t:", " : ", ":\t", "", "::", ": x", ":\r"],
    "name": ["World", "R[p]", "R [P]", "r[V]", "Val", "evidences", "u", "MU", "w 0", "#mu", "\tmu"],
    "comment": ["# c", "  # indented", "#", "\t#x : y", "# worlds: z", "#mu:"],
    "blank": ["", " ", "\t", "  \t ", "\r", "\x0c", "\xa0"],
    "break": ["\r", "\x0b", "\x1c", "\u2028", "\x85", "\r\n", "\n"],
    "space": ["\t", "  ", "\xa0", "\u3000", " \t"],
    "world": ["w0", "U", "mu", "val", "worlds", "R[P]", "evidence"],
}


def reshaped(rng, text):
    """``text`` with its layout edited: maybe a whole section swapped, repeated,
    moved, dropped or split from its header, then one to three edits of header
    lines, comments, blank lines, spaces, tabs and line breaks, and now and then
    an edit of ``mutated`` on top."""
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if _HEADER_RE.match(line)]
    sections = [lines[a:b] for a, b in zip(starts, starts[1:] + [len(lines)])]
    op, i, j = rng.randrange(8), rng.randrange(len(sections)), rng.randrange(len(sections))
    if op == 0:
        sections[i], sections[j] = sections[j], sections[i]
    elif op == 1:
        sections.insert(j, list(sections[i]))
    elif op == 2:
        sections.insert(j, sections.pop(i))
    elif op == 3:
        del sections[i]
    elif op == 4:  # "worlds: a b" -> "worlds:" and "a b", or "R[P]:" and "a -> a" -> "R[P]: a -> a"
        head, _, rest = sections[i][0].partition(":")
        sections[i][:1] = [f"{head}:", rest] if rest.strip() else [" ".join(sections[i][:2])]
    elif op == 5:
        sections.insert(j, [sections[i][0].partition(":")[0] + ":"])
    lines = [line for section in sections for line in section]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        line, at, op = lines[k], rng.randint(0, len(lines[k])), rng.randrange(7)
        if op == 0:
            heads = [n for n, line in enumerate(lines) if _HEADER_RE.match(line)] or [k]
            k = rng.choice(heads)
            head, _, rest = lines[k].partition(":")
            if rng.random() < 0.5:
                lines[k] = head + rng.choice(_LAYOUT["header"]) + rest
            else:
                lines[k] = rng.choice(_LAYOUT["name"]) + ":" + rest
        elif op == 1:
            if rng.random() < 0.7:
                lines.insert(k, rng.choice(_LAYOUT["comment"]))
            else:
                lines[k] = line + " " + rng.choice(_LAYOUT["comment"])
        elif op == 2:
            lines.insert(k, rng.choice(_LAYOUT["blank"]))
        elif op == 3:
            at = line.find(" ", at) if " " in line[at:] else line.find(" ")
            if at >= 0:
                lines[k] = line[:at] + rng.choice(_LAYOUT["space"]) + line[at + 1 :]
            else:
                lines[k] = rng.choice(_LAYOUT["space"]) + line
        elif op == 4:
            lines[k] = line[:at] + rng.choice(_LAYOUT["break"]) + line[at:]
        elif op == 5:
            lines = [line + "\r" for line in lines] if rng.random() < 0.3 else lines
            lines[k] = line.rstrip() + rng.choice(("\r", " \t", "\t\r"))
        else:
            words = line.split(" ", 1)
            lines[k] = " ".join([rng.choice(_LAYOUT["world"]), *words[1:]])
    text = "\n".join(lines)
    return mutated(rng, text) if rng.random() < 0.3 else text


def test_read_outcomes_are_pinned():
    # What the reader gives for 3,200 edited model files: the model in full, or the
    # type and text of its error.  The digest was computed with the reader that read
    # a file a line at a time, once the sample errors named their world.
    spec = load_spec("p & q : poly 1 1\n")
    bases = [
        write_model_file(build_interaction_witness(
            spec, parse_eformula("p & q"), parse_term("t + c:a"), k=2, n_max=8, zk=zk))
        for zk in (False, True)
    ] + [
        write_model_file(fraction_form_model()),
        write_model_file(build_round_model(RoundConfig(4, Fraction(2, 7))).quasimodel),
        write_model_file(build_round_model(RoundConfig(4, Fraction(3, 7), honest=False))
                         .quasimodel),
        SHAPES_MODEL,
        MANY_TEXTS,
    ]
    rng = random.Random(30)
    bases += [write_model_file(generators.rand_model(rng)) for _ in range(5)]
    h, read = hashlib.sha256(), 0
    for k in range(3200):
        outcome = read_outcome(reshaped(rng, bases[k % len(bases)]))
        read += outcome[0].startswith("worlds:")
        h.update(repr(outcome).encode() + b"\n")
    assert read > 500
    assert h.hexdigest() == "fa5efdd6e6b63b5f5d0dada279a12ee21e24a45a208aa59b54c2da212b410c33"
