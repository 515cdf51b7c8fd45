"""Axiom schema matching, symbolic thresholds, and derivation checking."""

import hashlib
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from ipj import generators, proofcheck, qeps, semantics, syntax
from ipj.ispec import InteractionSpec, load_spec, load_spec_file
from ipj.proofcheck import (
    Report,
    Derivation,
    ProofParseError,
    check_derivation,
    cmp_thresh,
    instantiate_schema,
    is_tautology,
    load_derivation_file,
    match_axiom,
    match_epistemic_axiom,
    parse_derivation,
    thresh_ge,
    thresh_lt,
)
from ipj.qeps import QEps
from ipj.syntax import (
    Const,
    Epistemic,
    FAnd,
    FNot,
    Just,
    ParseError,
    Parser,
    ProbApprox,
    ProbGeq,
    SymThresh,
    Var,
    dest_fimp,
    parse_eformula,
    parse_formula,
    print_formula,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
EMPTY = InteractionSpec()


def fml(text):
    return parse_formula(text)


def q(x):
    return QEps.from_rational(Fraction(x))


def match_failure_notes(f, spec, zk=False, hints=None, symctx=None):
    """Why each schema does or does not match ``f``, one note per schema."""
    ctx = proofcheck.MatchContext(spec, zk, symctx=symctx, hints=hints)
    notes = []
    for sid in proofcheck.SCHEMA_IDS:
        try:
            proofcheck._match(sid, f, ctx)
            notes.append(f"{sid}: matches")
        except proofcheck.NoMatch as exc:
            notes.append(f"{sid}: {exc.reason}")
    return notes


# -- threshold comparison --------------------------------------------------------


def test_cmp_concrete():
    eps = QEps.epsilon()
    assert cmp_thresh(q("1/2"), q("1/3")) == 1
    assert cmp_thresh(q("1/2"), q("1/2") + eps) == -1
    assert cmp_thresh(q(1) - eps, q(1)) == -1


def test_cmp_symbolic_nu():
    s = SymThresh(Fraction(1), Fraction(-1), 1)  # 1 - 1/v
    ctx = ("nu", 1)
    assert cmp_thresh(s, q(1), ctx) == -1
    assert thresh_ge(s, q(0), ctx) is True  # touches 0 at v = 1
    assert cmp_thresh(s, q(0), ctx) is None  # not a uniform strict sign
    assert cmp_thresh(s, q(0), ("nu", 2)) == 1
    t = SymThresh(Fraction(1), Fraction(-1), 2)  # 1 - 1/v^2
    assert cmp_thresh(s, t, ("nu", 2)) == -1


def test_cmp_symbolic_sigma():
    sigma = SymThresh(Fraction(0), Fraction(1), 0)
    ctx = ("sigma",)
    assert thresh_ge(sigma, q(0), ctx) is True
    assert thresh_lt(sigma, q(2), ctx) is True
    assert cmp_thresh(sigma, q("1/2"), ctx) is None


def test_cmp_undecidable_mix():
    s = SymThresh(Fraction(1), Fraction(-1), 1)
    assert cmp_thresh(s, q(1) - QEps.epsilon(), ("nu", 1)) is None


# -- tautology checking ------------------------------------------------------------


def test_tautologies():
    assert is_tautology(fml("p -> p"))
    assert is_tautology(fml("Pr>= 1/2 (p) -> (q -> Pr>= 1/2 (p))"))
    assert is_tautology(fml("~(p & ~p)"))
    assert not is_tautology(fml("p -> q"))
    assert not is_tautology(fml("Pr>= 1/2 (p) -> Pr>= 1/3 (p)"))  # leaves are opaque
    # up to 16 opaque leaves are decided
    ps = [f"p{i}" for i in range(16)]
    for i in range(16):
        assert is_tautology(fml(f"({' & '.join(ps)}) -> p{i}"))
        assert not is_tautology(fml(f"({' & '.join(ps[:i] + ps[i + 1:])}) -> p{i}"))
    assert is_tautology(fml(f"({' & '.join(ps)}) -> p16")) is None


# -- schema matching ----------------------------------------------------------------


POSITIVE = [
    ("p", "p -> (q -> p)"),
    ("k", "box[V](p -> q) -> (box[V] p -> box[V] q)"),
    ("t", "box[P] p -> p"),
    ("4", "box[V] p -> box[V] box[V] p"),
    ("j", "x :[P] (p -> q) -> (y :[P] p -> x * y :[P] q)"),
    ("j+", "(x :[V] p | y :[V] p) -> x + y :[V] p"),
    ("jt", "t :[P] p -> p"),
    ("j4", "t :[V] p -> !t :[V] (t :[V] p)"),
    ("jyb", "t :[P] p -> box[P] p"),
    ("m", "f[2](t) :[V] p -> f[7](t) :[V] p"),
    ("p1", "Pr>= 0 (p & q)"),
    ("p2", "Pr<= 1/3 (p) -> Pr< 1/2 (p)"),
    ("p3", "Pr< 2/3 (p) -> Pr<= 2/3 (p)"),
    ("p4", "Pr>= 1 ((p -> q) & (q -> p)) -> (Pr= 1/2 (p) -> Pr= 1/2 (q))"),
    ("p5", "(Pr<= 1/4 (p) -> Pr>= 3/4 (~p)) & (Pr>= 3/4 (~p) -> Pr<= 1/4 (p))"),
    ("p6", "Pr= 1/3 (p) & Pr= 1/2 (q) & Pr>= 1 (~(p & q)) -> Pr= 5/6 (~(~p & ~q))"),
    ("p7", "Pr>= 1 (p -> q) -> (Pr>= 2/3 (p) -> Pr>= 2/3 (q))"),
    ("pa1", "Pr~ 1/2 (p) -> Pr>= 1/3 (p)"),
    ("pa2", "Pr~ 1/2 (p) -> Pr<= 2/3 (p)"),
    ("p3", "Pr< 1/2 + 0/v (p) -> Pr<= 1/2 (p)"),
]


@pytest.mark.parametrize("schema,text", POSITIVE)
def test_schema_matches(schema, text):
    f = fml(text)
    m = match_axiom(f, EMPTY, schema=schema)
    assert m is not None and m.schema == schema
    # bindings reproduce the formula exactly
    assert instantiate_schema(m.schema, m.bindings) == f
    assert match_axiom(f, EMPTY) is not None  # generic matching also succeeds


NEGATIVE = [
    "p -> q",
    "box[V](p -> q) -> (box[P] p -> box[V] q)",  # agent mismatch
    "box[P] p -> q",  # t: another formula
    "box[V] p -> box[V] box[P] p",  # 4: agent mismatch
    "x :[P] (p -> q) -> (y :[P] p -> y * x :[P] q)",  # j: application reversed
    "(x :[V] p | y :[P] p) -> x + y :[V] p",  # j+: agent mismatch
    "t :[P] p -> q",  # jt: another formula
    "t :[V] p -> !t :[P] (t :[V] p)",  # j4: agent mismatch
    "t :[P] p -> box[V] p",  # jyb: agent mismatch
    "f[7](t) :[V] p -> f[2](t) :[V] p",  # complexity order reversed
    "Pr>= 1/2 (p)",  # p1: threshold is not 0
    "Pr<= 1/2 (p) -> Pr< 1/3 (p)",  # p2 side condition fails
    "Pr< 2/3 (p) -> Pr<= 1/3 (p)",  # p3: thresholds are not complementary
    "Pr>= 1 ((p -> q) & (q -> p)) -> (Pr= 1/2 (p) -> Pr= 1/3 (q))",  # p4: thresholds differ
    "(Pr<= 1/4 (p) -> Pr>= 3/4 (~p)) & (Pr>= 3/4 (~p) -> Pr<= 1/3 (p))",  # p5: sides differ
    "Pr= 1/3 (p) & Pr= 1/2 (q) & Pr>= 1 (~(p & q)) -> Pr= 2/3 (~(~p & ~q))",  # p6: wrong u
    "Pr>= 1 (p -> q) -> (Pr>= 2/3 (p) -> Pr>= 1/2 (q))",  # p7: thresholds differ
    "Pr~ 1/2 (p) -> Pr>= 1/2 (p)",  # pa1 needs s strictly below r
    "Pr~ 1/2 (p) -> Pr>= 2/3 (p)",  # pa1 upper range violated
    "Pr~ 1/2 (p) -> Pr<= 1/2 (p)",  # pa2 needs s strictly above r
    "t :[P] box[P] p -> Pr>= 7/9 (f[3](t) :[V] box[P] box[P] p)",  # c: not 1 - 1/n^k
    "~(t :[P] box[P] p) -> Pr<= 1/9 (f[3](s) :[V] box[P] box[P] p)",  # s: term mismatch
    "t :[P] q -> Pr~ 1 (f[w](t) :[V] box[P] q)",  # cw under a partial table
    "~(t :[P] box[P] p) -> Pr~ 1 (f[w](t) :[V] box[P] box[P] p)",  # sw: r is not 0
    "t :[P] box[P] p -> Pr<= 1/4 (f[2](t) :[V] t :[V] box[P] p)",  # zk1: agent mismatch
    "t :[P] box[P] p -> Pr~ 0 (f[3](t) :[V] t :[P] box[P] p)",  # zk2: finite complexity
]

# interaction entries for the near misses above; q's table is partial
NEGATIVE_SPEC = load_spec("box[P] p : const 1\nq : table 1 -> 1\n")


@pytest.mark.parametrize("text", NEGATIVE)
def test_schema_rejections(text):
    assert match_axiom(fml(text), NEGATIVE_SPEC, zk=True) is None


def test_interaction_schemas():
    spec = load_spec("box[P] p : const 1\n")
    m = match_axiom(
        fml("t :[P] box[P] p -> Pr>= 8/9 (f[3](t) :[V] box[P] box[P] p)"), spec
    )
    assert m is not None and m.schema == "c"
    assert m.bindings["n"] == 3 and m.bindings["k"] == 2
    m = match_axiom(
        fml("~(t :[P] box[P] p) -> Pr<= 1/9 (f[3](t) :[V] box[P] box[P] p)"), spec
    )
    assert m is not None and m.schema == "s"
    m = match_axiom(
        fml("t :[P] box[P] p -> Pr~ 1 (f[w](t) :[V] box[P] box[P] p)"), spec
    )
    assert m is not None and m.schema == "cw"
    m = match_axiom(
        fml("~(t :[P] box[P] p) -> Pr~ 0 (f[w](t) :[V] box[P] box[P] p)"), spec
    )
    assert m is not None and m.schema == "sw"
    # n must exceed the interaction threshold
    spec5 = load_spec("box[P] p : const 5\n")
    assert (
        match_axiom(
            fml("t :[P] box[P] p -> Pr>= 8/9 (f[3](t) :[V] box[P] box[P] p)"), spec5
        )
        is None
    )
    # partial tables block the limit axioms
    part = load_spec("box[P] p : table 1 -> 1\n")
    assert (
        match_axiom(
            fml("t :[P] box[P] p -> Pr~ 1 (f[w](t) :[V] box[P] box[P] p)"), part
        )
        is None
    )


def test_interaction_axioms_need_n_past_the_threshold():
    # m(k) = 2: the c axiom holds from n = 3 on, with or without an m hint
    spec = load_spec("p : const 2\n")
    run = "(f[{}](t) :[V] box[P] p)"
    for line, valid in (
        (f"1. t :[P] p -> Pr>= 1/2 {run.format(2)} ; ax c k=1", False),
        (f"1. t :[P] p -> Pr>= 1/2 {run.format(2)} ; ax c k=1 m=2", False),
        (f"1. t :[P] p -> Pr>= 2/3 {run.format(3)} ; ax c k=1", True),
    ):
        assert check_derivation(parse_derivation(line, spec)).ok == valid, line


def test_an_m_hint_must_be_in_the_family():
    # m(1) = 3, so the hint m=1 passes n > m at n = 2 and fails only the
    # membership check: the c axiom needs n > m(k), and 2 > 3 is false
    spec = load_spec("p : const 3\n")
    formula = "t :[P] p -> Pr>= 1/2 (f[2](t) :[V] box[P] p)"
    rep = check_derivation(parse_derivation(f"1. {formula} ; ax c k=1 m=1", spec))
    assert rep.render() == "INVALID: line 1: formula is not an instance of axiom (c)"
    notes = match_failure_notes(fml(formula), spec, hints={"k": 1, "m": 1})
    assert "c: formula is not in the stated interaction family" in notes


def test_an_m_hint_in_the_family_is_the_bound_m():
    # m(1) = 1: a hint m with n > m >= 1 is the m of the match, not m(k)
    spec = load_spec("p : const 1\n")
    for n, bound, m in ((2, "1/2", 1), (3, "2/3", 1), (3, "2/3", 2)):
        formula = f"t :[P] p -> Pr>= {bound} (f[{n}](t) :[V] box[P] p)"
        line = f"1. {formula} ; ax c k=1 m={m}"
        assert check_derivation(parse_derivation(line, spec)).render() == "VALID", line
        match = match_axiom(fml(formula), spec, schema="c", hints={"k": 1, "m": m})
        assert (match.schema, match.bindings["m"]) == ("c", m), line


def test_interaction_bound_exponent_is_found_exactly():
    spec = load_spec("box[P] p : const 1\n")

    def c_axiom(bound, n):
        return fml(f"t :[P] box[P] p -> Pr>= {bound} (f[{n}](t) :[V] box[P] box[P] p)")

    m = match_axiom(c_axiom(1 - Fraction(1, 10**30), 10), spec)
    assert m is not None and m.schema == "c" and m.bindings["k"] == 30
    for bound in (1 - Fraction(1, 2 * 10**30), 1 - Fraction(1, 10**30 + 1)):
        assert match_axiom(c_axiom(bound, 10), spec) is None
    assert match_axiom(c_axiom(Fraction(1, 2), 0), spec) is None  # no power of 0
    assert match_axiom(c_axiom(Fraction(1, 2), 0), spec, hints={"k": 1}) is None
    assert match_axiom(c_axiom(Fraction(8, 9), 3), spec, hints={"n": 3, "k": 2}) is not None
    notes = match_failure_notes(c_axiom(Fraction(8, 9), 3), spec, hints={"n": 4})
    assert "c: complexity does not equal the stated n" in notes


# template name -> (schema, a line that fails it inside a template over integers v >= 1, reason)
_PARAMETRIC_SIDES = {
    "equal": ("p2", "Pr<= 1/v (p) -> ~Pr>= 1/v (p)", "side condition s < t fails"),
    # v over the unit interval, which a template over integers cannot compare
    "linear": ("p2", "Pr<= 1/2 v (p) -> ~Pr>= 1/2 + 1/2 v (p)",
               "undecidable symbolic comparison s < t"),
    # 1/10001 - 1/v changes sign at v = 10001, past the 10,000 values _signs_nu scans
    "far_root": ("p1", "Pr>= 1/10001 + -1/v (p)", "threshold is not 0"),
    "far_root_pa1": ("pa1", "Pr~ 1 (p) -> Pr>= 1/10001 + -1/v (p)",
                     "undecidable symbolic range condition"),
}


def test_side_conditions_of_parametric_thresholds():
    for sid, text, reason in _PARAMETRIC_SIDES.values():
        assert f"{sid}: {reason}" in match_failure_notes(fml(text), EMPTY, symctx=("nu", 1)), text


def test_signs_nu_of_equal_thresholds():
    s = SymThresh(Fraction(1, 2), Fraction(-1), 2)
    assert proofcheck._signs_nu(s, s, 1) == frozenset({0})


def test_zk_schemas_need_the_flag():
    spec = load_spec("box[P] p : const 1\n")
    f = fml("t :[P] box[P] p -> Pr<= 1/4 (f[2](t) :[V] t :[P] box[P] p)")
    assert match_axiom(f, spec) is None
    m = match_axiom(f, spec, zk=True)
    assert m is not None and m.schema == "zk1"
    g = fml("t :[P] box[P] p -> Pr~ 0 (f[w](t) :[V] t :[P] box[P] p)")
    assert match_axiom(g, spec, zk=True).schema == "zk2"


def test_match_failure_notes():
    notes = match_failure_notes(fml("p -> q"), EMPTY)
    assert len(notes) == 25
    assert any("tautology" in n for n in notes)


def test_epistemic_axiom_matching():
    assert match_epistemic_axiom(parse_eformula("t :[P] p -> p")).schema == "jt"
    assert match_epistemic_axiom(parse_eformula("p -> q")) is None


def _chain_by_the_table(alpha):
    """``is_axiom_chain`` without its shape guard: every formula meets the table."""
    return match_epistemic_axiom(alpha) is not None or (
        isinstance(alpha, Just) and isinstance(alpha.term, Const)
        and _chain_by_the_table(alpha.inner))


def test_axiom_chain_shape_guard_agrees_with_the_schema_table():
    # is_axiom_chain sends an atom, a box or a justification past the schema
    # table; the evidence tests' naive closure calls is_axiom_chain itself, so
    # only this comparison checks that skip
    rng = random.Random(33)
    cores = [parse_eformula(text) for text in (
        "p | ~p", "(p & q) -> p", "box[P] p -> box[P] p", "(p | ~p) & (q | ~q)",
        "(box[P] p -> box[P] p) & (box[P] p -> box[P] p)", "t :[P] p -> p", "p", "box[V] p",
        "x :[V] (p | ~p)")]
    for _ in range(400):  # the inner formulas of harness instances
        inst = generators.rand_axiom_instance(rng, rng.choice(generators.HARNESS_SCHEMAS))
        cores += [f.inner for f in syntax.nodes(inst)
                  if type(f) in (Epistemic, ProbGeq, ProbApprox)]
    chains = 0
    for _ in range(20_000):
        alpha = (rng.choice(cores) if rng.random() < 0.5
                 else generators.rand_eformula(rng, rng.randrange(5)))
        for _ in range(rng.randrange(3)):  # c:a :[P] and x :[P] wrappers
            alpha = Just(Const("a") if rng.random() < 0.7 else Var("x"), rng.choice("PV"), alpha)
        want = _chain_by_the_table(alpha)
        assert proofcheck.is_axiom_chain(alpha) == want, syntax.print_eformula(alpha)
        chains += want
    assert 1_000 < chains < 19_000  # both answers, many times


def test_bindings_roundtrip_random():
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    rng = random.Random(5)
    for _ in range(500):
        schema = rng.choice(proofcheck.SCHEMA_IDS)
        f = generators.rand_axiom_instance(
            rng, schema, spec=spec, spec_formula=rng.choice(spec.formulas())
        )
        m = match_axiom(f, spec, zk=schema in ("zk1", "zk2"), schema=schema)
        assert m is not None, (schema, print_formula(f))
        assert instantiate_schema(m.schema, m.bindings) == f


def test_schema_lists_are_pinned():
    # read from the schema table; perfbench shuffles SCHEMA_IDS and tests draw
    # from these lists with rng.choice, so their order is part of those streams
    assert proofcheck.SCHEMA_IDS == (
        "p", "k", "t", "4", "j", "j+", "jt", "j4", "jyb",
        "p1", "p2", "p3", "p4", "p5", "p6", "p7", "pa1", "pa2",
        "m", "c", "s", "cw", "sw", "zk1", "zk2",
    )
    assert proofcheck.EPISTEMIC_SCHEMAS == ("p", "k", "t", "4", "j", "j+", "jt", "j4", "jyb", "m")
    assert generators.HARNESS_SCHEMAS == proofcheck.SCHEMA_IDS[:19]


def test_generator_streams_are_pinned():
    # The soundness harness and the benchmark's derivations take their inputs
    # from these draws: every schema with and without k, random models, and
    # harness instances.  The digest was computed before the generator was
    # rewritten over the schema table, and again when model files began to list
    # the atoms that hold at no world (dropping those lines gives the old digest);
    # a new digest means new random streams.
    spec = load_spec("a : const 0\nbox[P] p : const 1\nq & r : poly 1 1\n")
    rng = random.Random(19)
    h = hashlib.sha256()
    for _ in range(40):
        for sid in proofcheck.SCHEMA_IDS:
            for k in (None, 1, 3):
                f = generators.rand_axiom_instance(
                    rng, sid, spec=spec, spec_formula=rng.choice(spec.formulas()), k=k
                )
                h.update(print_formula(f).encode() + b"\n")
    for _ in range(20):
        h.update(semantics.write_model_file(generators.rand_model(rng)).encode())
        for _ in range(50):
            f = generators.rand_axiom_instance(rng, rng.choice(generators.HARNESS_SCHEMAS))
            h.update(print_formula(f).encode())
    assert h.hexdigest() == "f6664a89dfc767713f5da1ee826dab7a83f7fcc813d7e9af029468001dfe0799"


def test_below_draws_what_the_stdlib_draws():
    # The generators draw every choice, randrange and randint through
    # _below, which repeats the getrandbits calls of random.Random._randbelow.
    # A Python whose _randbelow draws otherwise fails here by name, not only
    # through the digest above.
    for seed in (0, 1, 19, 2**40 + 3):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            seq = [f"x{i}" for i in range(n)]
            for _ in range(3):
                assert generators._below(ours, n) == stdlib.randrange(n)
                assert seq[generators._below(ours, len(seq))] == stdlib.choice(seq)
                assert -2 + generators._below(ours, n) == stdlib.randint(-2, n - 3)
                assert ours.getstate() == stdlib.getstate()


def test_harness_stream_is_pinned_at_scale():
    # The exact loop of cli._soundness_harness (one random model, then 1,000
    # instances) for 24 seeds: 24 times the harness instances pinned above.
    h = hashlib.sha256()
    for seed in range(500, 524):
        rng = random.Random(seed)
        generators.rand_model(rng)
        for _ in range(1000):
            schema = rng.choice(generators.HARNESS_SCHEMAS)
            inst = generators.rand_axiom_instance(rng, schema)
            h.update(f"{schema} {print_formula(inst)}\n".encode())
    assert h.hexdigest() == "6aed82bd0fcbb3751dcd4fdebbec3833b62ad0d7b3a4c8fe2ae479d64aaffbe2"


def test_a_tree_drawn_but_not_built_draws_the_same():
    # rand_axiom_instance draws the bindings a schema does not use with
    # build=False; the stream stays pinned only if those draws are the same.
    for seed in range(200):
        for depth in range(7):
            for draw in (generators.rand_term, generators.rand_eformula):
                skipped, built = random.Random(seed), random.Random(seed)
                assert draw(skipped, depth, build=False) is None
                assert draw(built, depth) is not None
                assert skipped.getstate() == built.getstate(), (seed, depth, draw.__name__)


def _old_rand_qeps(rng):
    # reference: the same draws, with the value built by QEps field arithmetic
    q = generators.rand_fraction(rng)
    value = QEps.from_rational(q)
    if rng.random() < 0.4:
        bump = QEps.from_monomials([(Fraction(1 + generators._below(rng, 3)),
                                     1 + generators._below(rng, 2))])
        if q == 0:
            value = value + bump
        elif q == 1:
            value = value - bump
        else:
            value = value + bump if rng.random() < 0.5 else value - bump
    return value


def _old_sample_p2(rng):
    t = _old_rand_qeps(rng)
    while t.compare(QEps()) <= 0:
        t = _old_rand_qeps(rng)
    s = t - QEps.from_monomials([(Fraction(1), 1 + generators._below(rng, 2))])
    return {"s": s if s.in_unit_interval() else QEps(), "t": t}


def test_thresholds_are_the_values_the_field_arithmetic_gives():
    for seed in range(2000):
        new, old = random.Random(seed), random.Random(seed)
        pairs = [(generators.rand_qeps(new), _old_rand_qeps(old))]
        drawn = generators._sample_p2(new, {}, None, None)
        pairs += [(drawn[key], value) for key, value in _old_sample_p2(old).items()]
        for got, want in pairs:
            # the same coefficients, trimmed, and the shared denominator the
            # fast paths of QEps recognise by identity
            assert got == want and got.num == want.num, (seed, str(got), str(want))
            assert got.den is want.den is qeps._DEN1, seed
            assert str(got) == str(want), seed
        assert new.getstate() == old.getstate(), seed


@pytest.mark.parametrize("schema", ["nope", "c", "s", "cw", "sw", "zk1", "zk2"])
def test_generator_input_errors(schema):
    with pytest.raises(ValueError, match="unknown schema" if schema == "nope" else "spec entry"):
        generators.rand_axiom_instance(random.Random(0), schema)


@pytest.mark.parametrize("schema", ["c", "s", "zk1"])
def test_generator_needs_the_threshold_at_k(schema):
    rng = random.Random(0)
    with pytest.raises(ValueError, match=r"^'r' has no spec entry$"):
        generators.rand_axiom_instance(
            rng, schema, spec=load_spec("p : const 1\n"), spec_formula=parse_eformula("r"))
    with pytest.raises(ValueError, match=r"^m\(k\) of 'q' is undefined at k=2$"):
        generators.rand_axiom_instance(
            rng, schema, spec=load_spec("q : table 1 -> 2\n"), spec_formula=parse_eformula("q"),
            k=2)


@pytest.mark.parametrize("schema", ["cw", "sw", "zk2"])
def test_generator_needs_an_interactively_provable_alpha(schema):
    rng = random.Random(0)
    for alpha in ("q", "r"):  # q is not total, and r has no entry
        with pytest.raises(ValueError, match=f"^'{alpha}' is not interactively provable$"):
            generators.rand_axiom_instance(rng, schema, spec=load_spec("q : table 1 -> 2\n"),
                                           spec_formula=parse_eformula(alpha))
    spec = load_spec("q : table 1 -> 2 default 3\n")
    f = generators.rand_axiom_instance(rng, schema, spec=spec, spec_formula=parse_eformula("q"))
    assert match_axiom(f, spec, True, schema) is not None


# -- derivations ----------------------------------------------------------------


def check_text(text, spec=EMPTY, zk=False, base_dir=GOLDEN) -> Report:
    return check_derivation(parse_derivation(text, spec, zk=zk, base_dir=base_dir))


def test_probnec_rule():
    rep = check_text("1. p -> p ; ax p\n2. Pr>= 1 (p -> p) ; pnec 1\n")
    assert rep.ok


def test_non_tautology_rejected():
    rep = check_text("1. p ; ax p\n")
    assert not rep.ok and rep.fields["line"] == 1


def test_modus_ponens_both_orders():
    base = "1. p -> (q -> p) ; ax p\n2. (p -> (q -> p)) -> (p -> (q -> p)) ; ax p\n"
    rep = check_text(base + "3. p -> (q -> p) ; mp 1 2\n")
    assert rep.ok
    rep = check_text(base + "3. p -> (q -> p) ; mp 2 1\n")
    assert rep.ok


def test_citations_must_precede():
    rep = check_text("1. p -> p ; mp 2 3\n")
    assert not rep.ok


def test_box_necessitation():
    rep = check_text("1. p -> p ; ax p\n2. box[V] (p -> p) ; nec[V] 1\n")
    assert rep.ok
    rep = check_text("1. p -> p ; ax p\n2. box[V] (p -> q) ; nec[V] 1\n")
    assert not rep.ok


def test_axiom_necessitation():
    rep = check_text("1. c:a :[P] (box[P] p -> p) ; axnec a[P]\n")
    assert rep.ok
    rep = check_text("1. c:a :[P] c:b :[V] (box[P] p -> p) ; axnec a[P] b[V]\n")
    assert rep.ok
    rep = check_text("1. c:a :[P] (p -> q) ; axnec a[P]\n")
    assert not rep.ok


def test_parametric_threshold_outside_template_rejected():
    rep = check_text("1. Pr~ 1 (p) -> Pr>= 1 + -1/v (p) ; ax pa1\n")
    assert not rep.ok and "template" in rep.render()


def test_golden_proofs_valid():
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    for name in ("probnec", "c_axiom", "almost_certain", "arch"):
        d = load_derivation_file(os.path.join(GOLDEN, f"{name}.ipjp"), spec)
        rep = check_derivation(d)
        assert rep.ok, (name, rep.render())


def readme_example(marker):
    """The text of the first ``text`` block after ``marker`` in README.md."""
    readme = Path(__file__).parent.parent.joinpath("README.md").read_text(encoding="utf-8")
    after = readme[readme.index(marker):]
    return after.split("```text\n", 1)[1].split("```", 1)[0]


def test_readme_examples_are_read_and_valid():
    spec = load_spec(readme_example("**Interaction specification** (`.ispec`)"))
    assert len(spec.entries) == 3
    d = parse_derivation(readme_example("**Proof file** (`.ipjp`)"), spec)
    assert len(d.lines) == 2
    assert check_derivation(d).render() == "VALID"


def instantiate_param(f, v):
    """f with every parametric threshold replaced by its value at v."""
    if isinstance(f, ProbGeq) and isinstance(f.threshold, SymThresh):
        s = f.threshold  # base + coeff * v, or base + coeff / v^power
        value = s.base + (s.coeff * v if s.power == 0 else s.coeff / Fraction(v) ** s.power)
        return ProbGeq(QEps.from_rational(value), f.inner)
    if isinstance(f, FNot):
        return FNot(instantiate_param(f.inner, v))
    if isinstance(f, FAnd):
        return FAnd(instantiate_param(f.left, v), instantiate_param(f.right, v))
    return f


def instantiate_derivation(d, v):
    """d with the parameter replaced by the value v in every line."""
    lines = [
        proofcheck.ProofLine(l.index, instantiate_param(l.formula, v), l.rule, l.args)
        for l in d.lines
    ]
    return Derivation(d.spec, lines, zk=d.zk, base_dir=d.base_dir)


def test_template_instantiation_consistency():
    # symbolic acceptance implies concrete acceptance at several values
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    t = load_derivation_file(os.path.join(GOLDEN, "almost_certain_template.ipjp"), spec)
    n = 1  # rule value r = 1 caps the premise index at 1
    for v in (n, n + 1, n + 7):
        rep = check_derivation(instantiate_derivation(t, v))
        assert rep.ok, (v, rep.render())


def test_prefix_monotonicity():
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    d = load_derivation_file(os.path.join(GOLDEN, "probnec.ipjp"), spec)
    for cut in range(1, len(d.lines) + 1):
        prefix = Derivation(spec, d.lines[:cut], zk=d.zk, base_dir=d.base_dir)
        assert check_derivation(prefix).ok


def test_missing_premise_family_rejected():
    # a template that only derives the lower premise is not enough
    rep = check_text(
        "1. p -> Pr~ 0 (q) ; param-approx 0 template=arch_template.ipjp\n"
    )
    assert not rep.ok


def test_template_parsed_once_per_check(monkeypatch):
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    line = (
        "t :[P] a -> Pr~ 1 (c:k1 * f[w](t) :[V] a) ; "
        "param-approx 1 template=almost_certain_template.ipjp"
    )
    d = parse_derivation(f"1. {line}\n2. {line}\n3. {line}\n", spec, base_dir=GOLDEN)
    parsed = []
    real = proofcheck.parse_derivation

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    checked = []
    real_run = proofcheck._Check.run

    def counting_run(self):
        if self.depth:  # a template's check
            checked.append(self.symctx)
        return real_run(self)

    monkeypatch.setattr(proofcheck, "parse_derivation", counting)
    monkeypatch.setattr(proofcheck._Check, "run", counting_run)
    assert check_derivation(d).ok
    assert (len(parsed), checked) == (1, [("nu", 1)])
    # another r checks the template once more, under its own range
    other = line.replace("Pr~ 1 ", "Pr~ 1/2 ").replace("param-approx 1 ", "param-approx 1/2 ")
    d.lines += parse_derivation(f"4. {other}\n", spec, base_dir=GOLDEN).lines
    for _ in range(2):  # no cache outlives a check
        parsed.clear()
        checked.clear()
        rep = check_derivation(d)
        assert rep.render() == "INVALID: line 4: template does not derive the lower premise family"
        assert (len(parsed), checked) == (1, [("nu", 1), ("nu", 2)])


def test_justification_parse_errors():
    for bad in ("1. p -> p ;", "1. p -> p ; ax", "p -> p ; ax p", "1. p -> p ; mp 1"):
        with pytest.raises(ProofParseError):
            parse_derivation(bad, EMPTY)


# -- every text the proof checker gives ---------------------------------------------

_CONCLUSION = "t :[P] a -> Pr~ 1 (c:k1 * f[w](t) :[V] a)"
_HYPOTHESIS_DENIED = "~(Pr>= 1 (p) & ~(Pr>= 1 (p)))"
# templates written next to copies of the golden ones
_TEMPLATES = {
    "self.ipjp": f"1. {_HYPOTHESIS_DENIED} ; param-arch template=self.ipjp\n",
    "atom_v.ipjp": "1. v -> v ; ax p\n",
    "const_v.ipjp": "1. c:v :[P] (p -> p) ; ax p\n",
    "bad.ipjp": "1. p ; ax p\n",
    "plain.ipjp": "1. p -> p ; ax p\n",
    "notimp.ipjp": "1. Pr>= 0 (p) ; ax p1\n",
    "unparsable.ipjp": "1. p -> p ; mp x 1\n",
    # lines that fail a side condition on parametric thresholds: see
    # test_side_conditions_of_parametric_thresholds for the reasons
    **{f"{name}.ipjp": f"1. {text} ; ax {sid}\n"
       for name, (sid, text, _) in _PARAMETRIC_SIDES.items()},
}
# (proof text, ("parse", error) or (line, the reason the report gives after "INVALID: line N: "))
_TEXTS = [
    # reading a line
    ("p -> p ; ax p", ("parse", "line 1: expected 'n. formula ; justification'")),
    ("1. p -> p", ("parse", "line 1: missing ';' before the justification")),
    ("1. p -> ; ax p", ("parse", "line 1: 1:6: expected a formula, got ''")),
    ("1. p -> p ;", ("parse", "line 1: missing justification")),
    ("1. p -> p ; foo", ("parse", "line 1: unknown justification 'foo'")),
    ("1. p -> p ; nec[X] 1", ("parse", "line 1: unknown justification 'nec[X]'")),
    ("1. p -> p ; ax", ("parse", "line 1: ax needs a schema name")),
    ("1. p -> p ; ax c n=x", ("parse", "line 1: bad axiom hint 'n=x'")),
    ("1. p -> p ; ax c q=1", ("parse", "line 1: bad axiom hint 'q=1'")),
    ("1. p -> p ; ax p k=5 n=9", ("parse", "line 1: axiom (p) takes no n=, k= or m= hints")),
    ("1. t :[P] box[P] p -> Pr~ 1 (f[w](t) :[V] box[P] box[P] p) ; ax cw m=7 k=3",
     ("parse", "line 1: axiom (cw) takes no n=, k= or m= hints")),
    ("1. p -> p ; mp 1", ("parse", "line 1: mp needs two line numbers")),
    ("1. p -> p ; mp 1 2 3", ("parse", "line 1: mp needs two line numbers")),
    ("1. p -> p ; nec[P]", ("parse", "line 1: nec needs one line number")),
    ("1. p -> p ; nec[V] 1 2", ("parse", "line 1: nec needs one line number")),
    ("1. p -> p ; pnec", ("parse", "line 1: pnec needs one line number")),
    ("1. p -> p ; mp a 1", ("parse", "line 1: bad line number 'a'")),
    ("1. p -> p ; nec[P] one", ("parse", "line 1: bad line number 'one'")),
    ("1. p -> p ; pnec 1.5", ("parse", "line 1: bad line number '1.5'")),
    ("1. p -> p ; axnec a", ("parse", "line 1: bad constant 'a' (want name[P] or name[V])")),
    ("1. p -> p ; axnec a[X]", ("parse", "line 1: bad constant 'a[X]' (want name[P] or name[V])")),
    ("1. p -> p ; axnec", ("parse", "line 1: axnec needs at least one constant")),
    ("1. p -> p ; param-approx 1",
     ("parse", "line 1: usage: param-approx <rational> template=<file>")),
    ("1. p -> p ; param-approx 1 file=x",
     ("parse", "line 1: usage: param-approx <rational> template=<file>")),
    ("1. p -> p ; param-approx x template=f", ("parse", "line 1: bad rational 'x'")),
    ("1. p -> p ; param-approx 1/0 template=f", ("parse", "line 1: bad rational '1/0'")),
    ("1. p -> p ; param-approx 0.5 template=f", ("parse", "line 1: bad rational '0.5'")),
    ("1. p -> p ; param-approx 1e10000000 template=f",
     ("parse", "line 1: bad rational '1e10000000'")),
    ("1. p -> p ; param-arch", ("parse", "line 1: usage: param-arch template=<file>")),
    ("1. p -> p ; param-arch x.ipjp", ("parse", "line 1: usage: param-arch template=<file>")),
    # the derivation and its citations
    ("", (None, "INVALID: empty derivation")),
    ("1. p -> p ; ax p\n1. p -> p ; ax p", (1, "duplicate line index 1")),
    ("1. p -> p ; mp 2 3", (1, "citation of line 2 is not an earlier line")),
    ("1. p -> p ; ax p\n2. p -> p ; mp 1 2", (2, "citation of line 2 is not an earlier line")),
    ("1. p -> p ; ax p\n2. p -> p ; pnec 2", (2, "citation of line 2 is not an earlier line")),
    ("1. Pr~ 1 (p) -> Pr>= 1 + -1/v (p) ; ax pa1", (1, "parametric threshold outside a template")),
    # axioms and modus ponens
    ("1. p -> p ; ax zz", (1, "unknown schema 'zz'")),
    ("1. p ; ax p", (1, "formula is not an instance of axiom (p)")),
    ("1. t :[P] p -> Pr>= 1/2 (f[3](t) :[V] box[P] p) ; ax zk1",
     (1, "formula is not an instance of axiom (zk1)")),
    ("1. p -> p ; ax p\n2. q -> q ; ax p\n3. q ; mp 1 2",
     (3, "modus ponens does not apply to the cited lines")),
    # necessitation
    ("1. Pr>= 0 (p) ; ax p1\n2. box[P] p ; nec[P] 1",
     (2, "necessitation needs an epistemic premise")),
    ("1. p -> p ; ax p\n2. box[V] (p -> q) ; nec[V] 1", (2, "conclusion is not the boxed premise")),
    ("1. p -> p ; ax p\n2. box[P] (p -> p) ; nec[V] 1", (2, "conclusion is not the boxed premise")),
    ("1. Pr>= 0 (p) ; ax p1\n2. Pr>= 1 (p) ; pnec 1",
     (2, "probabilistic necessitation needs an epistemic premise")),
    ("1. p -> p ; ax p\n2. Pr>= 1/2 (p -> p) ; pnec 1",
     (2, "conclusion must assert the premise with probability >= 1")),
    ("1. Pr>= 0 (p) ; axnec a[P]", (1, "axiom necessitation produces an epistemic formula")),
    ("1. c:a :[V] (box[P] p -> p) ; axnec a[P]", (1, "constant chain does not match the formula")),
    ("1. c:a :[P] (box[P] p -> p) ; axnec a[P] b[V]",
     (1, "constant chain does not match the formula")),
    ("1. c:a :[P] (p -> q) ; axnec a[P]", (1, "chained formula is not an axiom instance")),
    # the approximation rule
    (f"1. {_CONCLUSION} ; param-approx 2 template=almost_certain_template.ipjp",
     (1, "approximation rule needs r in [0,1]")),
    ("1. p -> p ; param-approx 1 template=almost_certain_template.ipjp",
     (1, "conclusion must have the shape B -> Pr~ r (A)")),
    (f"1. {_CONCLUSION} ; param-approx 1/2 template=almost_certain_template.ipjp",
     (1, "conclusion r differs from the rule's r")),
    (f"1. {_CONCLUSION} ; param-approx 1 template=bad.ipjp",
     (1, "template 'bad.ipjp' fails: INVALID: line 1: formula is not an instance of axiom (p)")),
    ("1. p -> Pr~ 0 (q) ; param-approx 0 template=arch_template.ipjp",
     (1, "template does not derive the lower premise family")),
    *((f"1. {_CONCLUSION} ; param-approx 1 template={name}.ipjp",
       (1, f"template '{name}.ipjp' fails: INVALID: line 1: "
           f"formula is not an instance of axiom ({sid})"))
      for name, (sid, _, _) in _PARAMETRIC_SIDES.items()),
    ("1. t :[P] a -> Pr~ 1 (f[w](t) :[V] box[P] a) ; "
     "param-approx 1 template=almost_certain_template.ipjp",
     (1, "template does not derive the upper premise family")),
    (f"1. {_CONCLUSION} ; param-approx 1 template=nope.ipjp",
     (1, "cannot read template 'nope.ipjp': [Errno 2] No such file or directory: "
         "'{dir}/nope.ipjp'")),
    (f"1. {_CONCLUSION} ; param-approx 1 template=atom_v.ipjp",
     ("parse", "line 1: 1:1: 'v' is reserved and cannot name a variable")),
    (f"1. {_CONCLUSION} ; param-approx 1 template=const_v.ipjp",
     (1, "template 'const_v.ipjp' fails: INVALID: line 1: "
         "the parameter 'v' may only occur inside thresholds")),
    (f"1. {_CONCLUSION} ; param-approx 1 template=unparsable.ipjp",
     ("parse", "line 1: bad line number 'x'")),
    # the non-equality rule
    (f"1. {_HYPOTHESIS_DENIED} ; param-arch template=self.ipjp",
     (1, "template 'self.ipjp' fails: INVALID: line 1: " * 4 + "template nesting too deep")),
    ("1. p ; param-arch template=almost_certain_template.ipjp",
     (1, "template 'almost_certain_template.ipjp' fails: INVALID: line 2: "
         "formula is not an instance of axiom (pa1)")),
    ("1. p ; param-arch template=notimp.ipjp",
     (1, "template conclusion must have the shape B -> ~(Pr= v (A))")),
    ("1. p ; param-arch template=plain.ipjp", (1, "template conclusion must deny Pr= v uniformly")),
    ("1. p ; param-arch template=arch_template.ipjp",
     (1, "conclusion must be the negation of the template hypothesis")),
    # the template parameter v names no atom
    ("1. v -> v ; ax p", ("parse", "line 1: 1:1: 'v' is reserved and cannot name a variable")),
    # accepted
    (f"1. {_HYPOTHESIS_DENIED} ; param-arch template=arch_template.ipjp", (None, "VALID")),
    (f"1. {_CONCLUSION} ; param-approx 1 template=almost_certain_template.ipjp", (None, "VALID")),
    ("1. t :[P] box[P] p -> Pr~ 1 (f[w](t) :[V] box[P] box[P] p) ; ax cw", (None, "VALID")),
]


def test_every_checker_text(tmp_path):
    for name in os.listdir(GOLDEN):
        if name.endswith("_template.ipjp"):
            shutil.copy(os.path.join(GOLDEN, name), tmp_path)
    for name, text in _TEMPLATES.items():
        (tmp_path / name).write_text(text)
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    wrong = []
    for zk in (False, True):
        for text, (where, want) in _TEXTS:
            want = want.replace("{dir}", str(tmp_path))
            try:
                rep = check_text(text, spec, zk=zk, base_dir=str(tmp_path))
                got = (rep.fields.get("line"), rep.render())
            except ProofParseError as exc:
                got = ("parse", str(exc))
            if where not in ("parse", None):
                want = f"INVALID: line {where}: {want}"
            if got != (where, want):
                wrong.append((zk, text, got))
    assert not wrong


# -- one parse per repeated group --------------------------------------------------


def _formula_texts(text):
    """The formula text of each proof line, as the proof-file reader cuts it."""
    return [
        line.strip().split(".", 1)[1].rsplit(";", 1)[0]
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]


def test_shared_groups_parse_like_fresh_formulas():
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    texts = []
    for name in sorted(os.listdir(GOLDEN)):
        if name.endswith(".ipjp"):
            texts.append(Path(GOLDEN, name).read_text())
    # derivations in the shapes the benchmark generates: axiom instances and the
    # ax p, mp, nec and pnec lines that repeat them inside parentheses
    rng = random.Random(8)
    for _ in range(6):
        lines = []
        for _ in range(40):
            schema = rng.choice(proofcheck.SCHEMA_IDS)
            f = generators.rand_axiom_instance(
                rng, schema, spec=spec, spec_formula=rng.choice(spec.formulas()), k=2
            )
            a = print_formula(f)
            lines += [a, f"({a}) -> (q -> ({a}))", f"q -> ({a})"]
            if isinstance(f, Epistemic):
                lines += [f"box[V] ({a})", f"Pr>= 1 ({a})", f"c:k1 :[V] ({a})"]
        texts.append("".join(f"{i}. {a} ; ax p\n" for i, a in enumerate(lines, 1)))
    for text in texts:
        d = parse_derivation(text, spec)
        assert [line.formula for line in d.lines] == [parse_formula(a) for a in _formula_texts(text)]


def _core(f):
    return f.inner if isinstance(f, Epistemic) else f


def test_equal_groups_are_one_node():
    text = (
        "1. (p & q) -> (r -> (p & q)) ; ax p\n"
        "2. Pr>= 1 (p & q) & ~Pr>= 1/2 (p & q) ; ax p\n"
        "3. (Pr>= 1 (p)) -> (Pr>= 1 (p)) ; ax p\n"
    )
    d = parse_derivation(text, EMPTY)
    first, rest = dest_fimp(d.lines[0].formula)
    group = _core(first)
    assert _core(dest_fimp(rest)[1]) is group
    both = d.lines[1].formula
    assert both.left.inner is group and both.right.inner.inner is group
    left, right = dest_fimp(d.lines[2].formula)
    assert left is right
    # the groups are shared within one file only
    again = parse_derivation(text, EMPTY)
    assert again.lines == d.lines
    assert _core(dest_fimp(again.lines[0].formula)[0]) is not group


# formulas where a group the memo holds, or its text, is no formula group,
# after lines that put those groups in the memo
_SKIP_CASES = (
    "(x) -> ((x))",
    "(p & q) -> ((p & q) -> Pr>= 1/2 + 1 e (p))",
    "f[1]((x)) :[P] p",
    "((x)) :[P] p",
    "(x) + y :[P] p",
    "Pr>= (1)/(2 + 1 e) (p)",
    "Pr>= (1)/(2 + 1 e) (p & q)",
    "(c:box) :[P] p & (c:box) :[P] q",
    "(x'box) :[P] p & (x'box) :[P] q",
)
_SKIP_ERRORS = (
    "(p & q) :[P] r",
    "(p & q) + t :[P] r",
    "f[1]((p & q)) :[P] p",
    "Pr>= (p & q)/(1) (p)",
    "Pr>= 1/2 + 1 c:e (p)",
    "p (p & q)",
)


def test_a_constant_named_by_a_mark_is_an_error_with_a_memo_or_without():
    # "c:Pr~" is no constant, as a constant's name is an ident: so no term
    # group holds a formula mark, and a repeated group that a memo lexes as
    # one token had its first copy read as a formula. Here the text fails at
    # the same token with a memo and without one, and so does a proof line.
    text = "(c:Pr~) :[P] p & (c:Pr~) :[P] q"
    error = "1:4: expected a constant's name after 'c:', got 'Pr~'"
    for memo in (None, {}):
        with pytest.raises(ParseError, match=f"^{error}$"):
            Parser(text, memo=memo).formula()
    assert syntax.parse_each([text], Parser.formula, memo={}) == {}
    with pytest.raises(ProofParseError, match=f"^line 1: {error}$"):
        parse_derivation(f"1. {text} -> {text} ; ax p", EMPTY)


def _mutants(rng, text):
    """text with a character put in, with one taken out and with a parenthesis doubled."""
    i = rng.randrange(len(text) + 1)
    out = [text[:i] + rng.choice("()~&|->:[]Pp1/e+*!c ") + text[i:]]
    i = rng.randrange(len(text))
    out.append(text[:i] + text[i + 1:])
    parens = [i for i, c in enumerate(text) if c in "()"]
    if parens:
        i = rng.choice(parens)
        out.append(text[:i] + text[i] + text[i:])
    return out


def _outcome(read, text):
    try:
        return read(text)
    except (ParseError, ProofParseError) as exc:
        return str(exc)


def _check_memo(memo):
    """Every entry of a parser memo is what a read without one gives."""
    for key, value in memo.items():
        if isinstance(key, str):  # the text of a group
            assert parse_formula(key) == value, key
        else:  # (Pr~, the token texts of a threshold)
            f = parse_formula(f"{'Pr~' if key[0] else 'Pr>='} {' '.join(key[1])} (p)")
            assert _thresholds(f) == [value], key


def _memo_read(text):
    """``text`` read by one Parser with a memo: its formula, or None where it fails."""
    memo = {}
    try:
        p = Parser(text, memo=memo)
        f = p.formula()
        return f if p.at_end() else None
    except ParseError:
        return None
    finally:
        _check_memo(memo)


def test_skipped_groups_read_like_no_memo(monkeypatch):
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    rng = random.Random(9)
    good = list(_SKIP_CASES)
    for _ in range(25):
        schema = rng.choice(proofcheck.SCHEMA_IDS)
        f = generators.rand_axiom_instance(
            rng, schema, spec=spec, spec_formula=rng.choice(spec.formulas()), k=2
        )
        a = print_formula(f)
        good += [a, f"({a}) -> (q -> ({a}))", f"q -> ({a})"]
        if isinstance(f, Epistemic):
            good += [f"box[V] ({a})", f"Pr>= 1 ({a})", f"c:k1 :[V] ({a})"]
    # a text that reads without a memo reads alike with one, where its groups
    # span lines too; a text that fails without a memo fails with one
    for k, a in enumerate(good + list(_SKIP_ERRORS)):
        spread = a.replace(" ", "\n ")
        for text in (a, spread, *_mutants(rng, a), *_mutants(rng, spread)):
            want = _outcome(parse_formula, text)
            want = None if isinstance(want, str) else want
            assert _memo_read(text) == want, text
            if "\n" in text:
                continue
            # a line of parse_each after lines that put groups in the memo: read
            # alike, or, where a plain read fails, left to a read alone
            memo = {}
            texts = [*_SKIP_CASES, good[k % len(good) - 1], text]
            got = syntax.parse_each(texts, Parser.formula, allow_symbolic=True, memo=memo)
            assert got.get(text) == want, text
            _check_memo(memo)
    # a proof file whose line k is faulty or a case of its own
    fresh = [parse_formula(a) for a in good]
    lines = [f"{i}. {a} ; ax p" for i, a in enumerate(good, 1)]
    for k in rng.sample(range(len(good)), 30):
        for bad in (*_mutants(rng, good[k]), rng.choice(_SKIP_ERRORS)):
            proof = "\n".join(lines[:k] + [f"{k + 1}. {bad} ; ax p"] + lines[k + 1:])
            got = _outcome(lambda t: parse_derivation(t, spec), proof)
            want = _outcome(parse_formula, f"{bad} ")
            if isinstance(want, str):
                assert got == f"line {k + 1}: {want}", proof
            else:
                assert [line.formula for line in got.lines] == fresh[:k] + [want] + fresh[k + 1:]
    # a file without a fault is read once: by one parser, with no line left
    # to a read alone
    read, init = [], Parser.__init__
    monkeypatch.setattr(Parser, "__init__",
                        lambda p, text, *a, **k: read.append(text) or init(p, text, *a, **k))
    assert [line.formula for line in parse_derivation("\n".join(lines), spec).lines] == fresh
    assert len(read) == 1


def _thresholds(f):
    """The thresholds of the probability formulas of f, left to right."""
    if isinstance(f, FNot):
        return _thresholds(f.inner)
    if isinstance(f, FAnd):
        return _thresholds(f.left) + _thresholds(f.right)
    if isinstance(f, ProbApprox):
        return [f.r]
    return [f.threshold] if isinstance(f, ProbGeq) else []


def test_thresholds_read_once_per_file():
    text = (
        "1. Pr>= 1/3 (p) ; ax p\n"
        "2. Pr< 1/3 (q) & Pr= 1/3 (r) ; ax p\n"
        "3. Pr~ 1/3 (p) -> Pr~ 1/3 (q) ; ax p\n"
        "4. Pr>= 1 + -1/v (p) & Pr>= 1 + -1/v (q) & Pr>= 1 e (p) ; ax p\n"
    )
    d = parse_derivation(text, EMPTY)
    found = [_thresholds(line.formula) for line in d.lines]
    third, sym = q("1/3"), SymThresh(Fraction(1), Fraction(-1), 1)
    assert found[:2] == [[third], [third, q("2/3"), third]]
    assert found[2] == [Fraction(1, 3)] * 2 and found[3][:2] == [sym, sym]
    # equal thresholds within a file are one object; Pr= adds its complement
    assert len({id(s) for s in found[0] + found[1] if s == third}) == 1
    assert found[2][0] is found[2][1] and found[3][0] is found[3][1]
    again = [_thresholds(line.formula) for line in parse_derivation(text, EMPTY).lines]
    assert again == found
    assert again[0][0] is not found[0][0] and again[3][0] is not found[3][0]


def test_threshold_memo_keeps_errors():
    # read with and without the parameter allowed, each by a parser of its own
    texts = ["Pr>= 1 + -1/v (p)", "Pr>= 1 + -1/v (q) & Pr>= 1 + -1/v (p)"]
    for symbolic, want in ((True, {t: parse_formula(t) for t in texts}), (False, {})):
        assert syntax.parse_each(texts, Parser.formula, allow_symbolic=symbolic, memo={}) == want
    assert _outcome(lambda t: parse_formula(t, allow_symbolic=False), "Pr>= 1 + -1/v (p)") == (
        "1:6: the parameter v occurs only in proof templates"
    )
    # an out-of-range threshold, or one that does not reach the body, is not
    # kept: the text is left to a read alone, which gives its error
    for text, want in (
        ("Pr>= 3/2 (p) & q", "1:6: probability threshold 3/2 outside [0,1]"),
        ("Pr>= 3/2 (q)", "1:6: probability threshold 3/2 outside [0,1]"),
        ("p & Pr~ 2 (p)", "1:9: approximate-probability threshold 2 outside [0,1]"),
        ("Pr~ 2 (q)", "1:5: approximate-probability threshold 2 outside [0,1]"),
        ("Pr>= 1/2 p (q)", "1:10: expected '(', got 'p'"),
        ("Pr>= 1 e e (q)", "1:10: expected '(', got 'e'"),
        ("Pr~ 1/2 + 1 e (q)", "1:9: expected '(', got '+'"),
    ):
        memo = {}
        assert syntax.parse_each([text], Parser.formula, allow_symbolic=True, memo=memo) == {}
        assert not memo
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == want


def _mutated_proof(rng, text):
    """``text`` with one to three edits: a character put in, taken out or
    replaced, a line doubled or taken out, or a line split in two."""
    pieces = list("()~&|->:[]Pp1/ev+*!c.;# 0123456789") + [
        " ; ", ". ", " -> ", " :[V] ", "Pr>= ", "(p & q)", " ; ax p", " ; mp 1 2", "\n"]
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line, at, op = lines[i], rng.randint(0, len(lines[i])), rng.randrange(6)
        if op == 0:
            lines[i] = line[:at] + rng.choice(pieces) + line[at:]
        elif op == 1:
            lines[i] = line[:at] + line[at + 1 :]
        elif op == 2:
            lines[i] = line[:at] + rng.choice(pieces) + line[at + 1 :]
        elif op == 3:
            lines.insert(i, line)
        elif op == 4 and len(lines) > 1:
            del lines[i]
        else:
            lines[i : i + 1] = [line[:at], line[at:]]
    return "\n".join(lines)


def _proof_outcome(text, spec):
    """Each line's index, printed formula, rule and arguments, or the error text."""
    try:
        d = parse_derivation(text, spec)
    except (ParseError, ProofParseError) as exc:
        return type(exc).__name__, str(exc)
    return [(line.index, print_formula(line.formula), line.rule, line.args) for line in d.lines]


def test_shared_proof_read_changes_nothing(monkeypatch):
    spec = load_spec_file(os.path.join(GOLDEN, "golden.ispec"))
    bases = [Path(GOLDEN, name).read_text()
             for name in sorted(os.listdir(GOLDEN)) if name.endswith(".ipjp")]
    rng = random.Random(25)
    lines = []
    for _ in range(8):
        schema = rng.choice(proofcheck.SCHEMA_IDS)
        f = generators.rand_axiom_instance(
            rng, schema, spec=spec, spec_formula=rng.choice(spec.formulas()), k=2
        )
        a, n = print_formula(f), len(lines)
        lines += [f"{n + 1}. {a} ; ax {schema}", f"{n + 2}. ({a}) -> (q -> ({a})) ; ax p",
                  f"{n + 3}. q -> ({a}) ; mp {n + 1} {n + 2}"]
    bases.append("\n".join(lines))
    texts = [_mutated_proof(rng, bases[k % len(bases)]) for k in range(2100)]
    shared = [_proof_outcome(text, spec) for text in texts]
    # forced off, every formula text is read alone
    monkeypatch.setattr(syntax, "parse_each", lambda texts, read, **options: {})
    alone = [_proof_outcome(text, spec) for text in texts]
    assert shared == alone
    assert sum(isinstance(out, list) for out in alone) > 200


_LINES = (
    "(t :[P] a -> Pr~ 1 (f[w](t) :[V] box[P] a)) -> ((Pr~ 1 (f[w](t) :[V] box[P] a)"
    " -> Pr>= 1 + -1/v (f[w](t) :[V] box[P] a)) -> (t :[P] a -> Pr>= 1 + -1/v (f[w](t) :[V] box[P] a)))",
    "c:k1 :[V] (box[P] a -> a) -> (f[w](t) :[V] box[P] a -> c:k1 * f[w](t) :[V] a)",
    "t :[P] box[P] p -> Pr>= 8/9 (f[3](t) :[V] box[P] box[P] p)",
    "~(Pr>= 1 (p) & ~(Pr>= 1 (p)))",
)


def _malformed(text):
    """Each kind of fault at a few places: (kind, the malformed text)."""

    def nth(ch, k):
        return [i for i, c in enumerate(text) if c == ch][k]

    out = []
    for k in (0, -1):
        i = nth(")", k)
        out.append(("drop )", text[:i] + text[i + 1:]))
    for i in (0, len(text) // 3, len(text) - 1):
        out.append(("insert @", text[:i] + "@" + text[i:]))
    for i in (len(text) // 2, len(text) - 1):
        out.append(("truncate", text[:i]))
    i = nth(" ", 1)
    out.append(("newline", text[:i] + "\n" + text[i:]))
    for k, ch in ((0, "#"), (-1, "%")):
        i = nth(" ", k) + 1
        out.append(("bad char after space", text[:i] + ch + text[i:]))
    return out


# (line, kind of fault, parse_formula's error, parse_derivation's error when
# the malformed line follows a good copy of itself); None: no error
_ERRORS = [
    (0, "drop )", "1:28: expected ')', got ':['", "line 2: 1:28: expected ')', got ':['"),
    (0, "drop )", "1:176: expected ')', got ''", "line 2: 1:177: expected ')', got ''"),
    (0, "insert @", "1:1: unexpected character '@'", "line 2: 1:1: unexpected character '@'"),
    (0, "insert @", "1:59: unexpected character '@'", "line 2: 1:59: unexpected character '@'"),
    (0, "insert @", "1:176: unexpected character '@'", "line 2: 1:176: unexpected character '@'"),
    (0, "truncate", "1:89: expected '(', got ''", "line 2: 1:90: expected '(', got ''"),
    (0, "truncate", "1:176: expected ')', got ''", "line 2: 1:177: expected ')', got ''"),
    (0, "newline", None, "line 2: missing ';' before the justification"),
    (0, "bad char after space", "1:4: unexpected character '#'",
     "line 2: 1:4: unexpected character '#'"),
    (0, "bad char after space", "1:173: unexpected character '%'",
     "line 2: 1:173: unexpected character '%'"),
    (1, "drop )", "1:77: expected ')', got ''", "line 2: 1:78: expected ')', got ''"),
    (1, "drop )", "1:77: expected ')', got ''", "line 2: 1:78: expected ')', got ''"),
    (1, "insert @", "1:1: unexpected character '@'", "line 2: 1:1: unexpected character '@'"),
    (1, "insert @", "1:26: unexpected character '@'", "line 2: 1:26: unexpected character '@'"),
    (1, "insert @", "1:77: unexpected character '@'", "line 2: 1:77: unexpected character '@'"),
    (1, "truncate", "1:31: expected ':[' after term", "line 2: 1:31: expected ':[' after term"),
    (1, "truncate", "1:77: expected ')', got ''", "line 2: 1:78: expected ')', got ''"),
    (1, "newline", None, "line 2: missing ';' before the justification"),
    (1, "bad char after space", "1:6: unexpected character '#'",
     "line 2: 1:6: unexpected character '#'"),
    (1, "bad char after space", "1:76: unexpected character '%'",
     "line 2: 1:76: unexpected character '%'"),
    (2, "drop )", "1:37: expected ')', got ':['", "line 2: 1:37: expected ')', got ':['"),
    (2, "drop )", "1:58: expected ')', got ''", "line 2: 1:59: expected ')', got ''"),
    (2, "insert @", "1:1: unexpected character '@'", "line 2: 1:1: unexpected character '@'"),
    (2, "insert @", "1:20: unexpected character '@'", "line 2: 1:20: unexpected character '@'"),
    (2, "insert @", "1:58: unexpected character '@'", "line 2: 1:58: unexpected character '@'"),
    (2, "truncate", "1:30: expected a formula, got ''", "line 2: 1:31: expected a formula, got ''"),
    (2, "truncate", "1:58: expected ')', got ''", "line 2: 1:59: expected ')', got ''"),
    (2, "newline", None, "line 2: missing ';' before the justification"),
    (2, "bad char after space", "1:3: unexpected character '#'",
     "line 2: 1:3: unexpected character '#'"),
    (2, "bad char after space", "1:57: unexpected character '%'",
     "line 2: 1:57: unexpected character '%'"),
    (3, "drop )", "1:3: probability operators cannot occur inside an epistemic formula",
     "line 2: 1:3: probability operators cannot occur inside an epistemic formula"),
    (3, "drop )", "1:29: expected ')', got ''", "line 2: 1:30: expected ')', got ''"),
    (3, "insert @", "1:1: unexpected character '@'", "line 2: 1:1: unexpected character '@'"),
    (3, "insert @", "1:10: unexpected character '@'", "line 2: 1:10: unexpected character '@'"),
    (3, "insert @", "1:29: unexpected character '@'", "line 2: 1:29: unexpected character '@'"),
    (3, "truncate", "1:15: expected a formula, got ''", "line 2: 1:16: expected a formula, got ''"),
    (3, "truncate", "1:29: expected ')', got ''", "line 2: 1:30: expected ')', got ''"),
    (3, "newline", None, "line 2: missing ';' before the justification"),
    (3, "bad char after space", "1:8: unexpected character '#'",
     "line 2: 1:8: unexpected character '#'"),
    (3, "bad char after space", "1:25: unexpected character '%'",
     "line 2: 1:25: unexpected character '%'"),
]


def test_malformed_lines_keep_their_error_texts():
    def error(read, text):
        try:
            read(text)
        except (ParseError, ProofParseError) as exc:
            return str(exc)
        return None

    got = []
    for n, line in enumerate(_LINES):
        for kind, bad in _malformed(line):
            proof = f"1. {line} ; ax p\n2. {bad} ; ax p\n"
            got.append((n, kind, error(parse_formula, bad),
                        error(lambda t: parse_derivation(t, EMPTY), proof)))
    assert got == _ERRORS


# -- line shapes ---------------------------------------------------------------------

# (a proof line, what it reads as: (index, printed formula, rule, args), or the
# error text); the line is the third of its file, after a comment and a blank line
_PROOF_LINES = [
    ("1.p ; ax p", (1, "p", "ax", ("p", ()))),
    ("1. p;ax p", (1, "p", "ax", ("p", ()))),
    ("0012. p ; ax p", (12, "p", "ax", ("p", ()))),
    ("3. p ; mp 1 2", (3, "p", "mp", (1, 2))),
    ("1. p ; nec[P] 1", (1, "p", "nec[P]", (1,))),
    ("1. p ; nec[V] ١", (1, "p", "nec[V]", (1,))),  # an Arabic-Indic digit one
    ("1. p ; pnec 2", (1, "p", "pnec", (2,))),
    ("1. p ; axnec c[P]", (1, "p", "axnec", (("c", "P"),))),
    ("1. p ; axnec c'[P] d_1[V]", (1, "p", "axnec", (("c'", "P"), ("d_1", "V")))),
    ("1. p ; ax c n=4 k=1", (1, "p", "ax", ("c", (("n", 4), ("k", 1))))),
    ("1. p ; ax c m=0", (1, "p", "ax", ("c", (("m", 0),)))),
    ("1. p ; param-approx 1/2 template=t.ipjp",
     (1, "p", "param-approx", (Fraction(1, 2), "t.ipjp"))),
    ("1. p ; param-arch template=t.ipjp", (1, "p", "param-arch", ("t.ipjp",))),
    ("p ; ax p", "line 3: expected 'n. formula ; justification'"),
    ("x. p ; ax p", "line 3: expected 'n. formula ; justification'"),
    ("1 . p ; ax p", "line 3: expected 'n. formula ; justification'"),
    ("1_0. p ; ax p", "line 3: expected 'n. formula ; justification'"),
    ("-1. p ; ax p", "line 3: expected 'n. formula ; justification'"),
    ("+1. p ; ax p", "line 3: expected 'n. formula ; justification'"),
    ("1.5. p ; ax p", "line 3: 1:1: expected a formula, got '5'"),
    ("1. a ; b ; ax p", "line 3: 1:3: trailing input: ';'"),
    ("1. p ; ax c n=1_0", "line 3: bad axiom hint 'n=1_0'"),
    ("1. p ; ax c n=+1", "line 3: bad axiom hint 'n=+1'"),
    ("1. p ; ax c n=-1", "line 3: bad axiom hint 'n=-1'"),
    ("1. p ; ax c n=", "line 3: bad axiom hint 'n='"),
    ("1. p ; ax c N=1", "line 3: bad axiom hint 'N=1'"),
    ("1. p ; axnec é[P]", "line 3: bad constant 'é[P]' (want name[P] or name[V])"),
    ("1. p ; axnec c:a[P]", "line 3: bad constant 'c:a[P]' (want name[P] or name[V])"),
    ("1. p ; axnec a[P]x", "line 3: bad constant 'a[P]x' (want name[P] or name[V])"),
    ("1. p ; axnec 1a[P]", "line 3: bad constant '1a[P]' (want name[P] or name[V])"),
    ("1. p ; axnec a [P]", "line 3: bad constant 'a' (want name[P] or name[V])"),
    ("1. p ; mp 1_0 1", "line 3: bad line number '1_0'"),
    ("1. p ; mp +1 2", "line 3: bad line number '+1'"),
    ("1. p ; mp -1 2", "line 3: bad line number '-1'"),
    ("1. p ; pnec 1_0", "line 3: bad line number '1_0'"),
]


@pytest.mark.parametrize("line, want", _PROOF_LINES)
def test_proof_line_shapes(line, want):
    try:
        (got,) = parse_derivation(f"# a comment\n\n  {line}\n", EMPTY).lines
    except ProofParseError as exc:
        assert str(exc) == want
    else:
        assert (got.index, print_formula(got.formula), got.rule, got.args) == want
