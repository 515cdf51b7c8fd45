"""Acceptance gate: the eight release criteria, each as one test.

Every test here is self-contained and exact: randomized cases use seeded
generators, counts meet the stated minimums, and all arithmetic comparisons
are exact (no floating point anywhere in the package).
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ipj import generators
from ipj.cli import main as cli_main
from ipj.ispec import load_spec
from ipj.proofcheck import check_derivation, load_derivation_file
from ipj.protosim import (
    RoundConfig,
    build_interaction_witness,
    build_round_model,
    verify_ipp_bound,
)
from ipj.qeps import QEps
from ipj.semantics import check_model_conditions
from ipj.syntax import (
    OMEGA,
    Box,
    Just,
    Proto,
    Var,
    parse_eformula,
    parse_formula,
    parse_term,
    print_eformula,
    print_formula,
    print_term,
)

GOLDEN = Path(__file__).parent / "golden"

ONE = QEps.from_rational(1)
ZERO = QEps.from_rational(0)


def is_finite(x):
    """True iff ``x`` is not infinite: zero, or no net negative power of e."""
    return x.is_zero or x.shift >= 0


def event(qm, alpha):
    """The sample worlds of ``qm`` where ``alpha`` holds."""
    mask = qm.event_mask(alpha)
    return frozenset(u for u in qm.sample if mask >> qm.base.index(u) & 1)


# -- criterion 1: exact field arithmetic ---------------------------------------------


def test_field_and_order_laws_bulk():
    """Field axioms, total-order laws, infinitesimality, and the standard-part
    homomorphism hold on >= 10,000 randomized cases in under 30 seconds."""
    rng = random.Random(20260826)
    start = time.monotonic()
    cases = 0

    def sample():
        return generators.rand_qeps(rng)

    # epsilon below every sampled positive rational
    eps = QEps.epsilon()
    for _ in range(100):
        r = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert eps.compare(QEps.from_rational(r)) < 0
        cases += 1

    while cases < 10_000:
        a, b, c = sample(), sample(), sample()
        # field axioms
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a + (-a) == ZERO
        if a != ZERO:
            assert a * (ONE / a) == ONE
        # total order
        sab, sba = a.compare(b), b.compare(a)
        assert sab == -sba
        if sab <= 0 and b.compare(c) <= 0:
            assert a.compare(c) <= 0
        if sab <= 0:
            assert (a + c).compare(b + c) <= 0
        # standard part is a partial homomorphism on finite elements
        if is_finite(a) and is_finite(b):
            assert (a + b).std_part() == a.std_part() + b.std_part()
            assert (a * b).std_part() == a.std_part() * b.std_part()
        cases += 13
    elapsed = time.monotonic() - start
    assert cases >= 10_000
    assert elapsed < 30, f"field-law suite took {elapsed:.1f}s"


# -- criterion 2: parser round-trips ---------------------------------------------------


def test_parse_print_roundtrip_bulk():
    """parse(print(ast)) == ast on >= 5,000 random ASTs of depth <= 8."""
    rng = random.Random(17)
    checked = 0
    for _ in range(2_000):
        t = generators.rand_term(rng, rng.randint(0, 8))
        assert parse_term(print_term(t)) == t
        checked += 1
    for _ in range(2_000):
        a = generators.rand_eformula(rng, rng.randint(0, 8))
        assert parse_eformula(print_eformula(a)) == a
        checked += 1
    for _ in range(1_500):
        f = generators.rand_formula(rng, rng.randint(0, 8))
        assert parse_formula(print_formula(f)) == f
        checked += 1
    assert checked >= 5_000


# -- criterion 3: axiom soundness over random models -----------------------------------


def test_axiom_soundness_harness():
    """Every axiom-schema instance with valid side conditions evaluates true
    at the distinguished world of >= 100 random models, >= 1,000 instances
    each; zero violations, under 5 minutes."""
    rng = random.Random(42)
    start = time.monotonic()
    violations = []
    for i in range(100):
        qm = generators.rand_model(rng)
        for _ in range(1_000):
            schema = rng.choice(generators.HARNESS_SCHEMAS)
            inst = generators.rand_axiom_instance(rng, schema)
            if not qm.eval(inst):
                violations.append((i, schema, print_formula(inst)))
    elapsed = time.monotonic() - start
    assert not violations, violations[:5]
    assert elapsed < 300, f"soundness harness took {elapsed:.1f}s"


# -- criterion 4: amplification bound, exactly ------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, Fraction(2, 3)),
        (2, Fraction(8, 9)),
        (5, Fraction(242, 243)),
        (10, Fraction(59048, 59049)),
    ],
)
def test_round_amplification_exact(n, expected):
    """mu([claim]) equals 1 - (1/3)^n exactly in the tight construction."""
    m = build_round_model(RoundConfig(n, Fraction(1, 3)))
    rep = verify_ipp_bound(m)
    assert rep.ok, rep.render()
    assert m.quasimodel.measure_of(m.claim) == QEps.from_rational(expected)
    assert expected == 1 - Fraction(1, 3) ** n
    assert "bound met with equality" in "\n".join(rep.lines)


# -- criterion 5: witness models pass the model conditions ------------------------------


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("zk", [False, True])
def test_witness_models_all_modes(k, honest, zk):
    """Witness models with n_max = 10 satisfy the protocol-bound conditions,
    including the standard-part limit forms, in every honest/zk combination."""
    spec = load_spec("p : const 1\n")
    alpha, t = parse_eformula("p"), Var("t")
    qm = build_interaction_witness(spec, alpha, t, k=k, n_max=10, honest=honest, zk=zk)
    rep = check_model_conditions(qm, spec, zk=zk, kmax=k)
    assert rep.ok, rep.render()
    stab = qm.measure_of(Just(Proto(11, t), "V", Box("P", alpha)))
    assert stab.std_part() == (1 if honest else 0)


# -- criterion 6: golden proofs and their mutations --------------------------------------


GOLDEN_PROOFS = ["probnec.ipjp", "c_axiom.ipjp", "almost_certain.ipjp", "arch.ipjp"]


def _check(path_text: str, name: str) -> bool:
    spec = load_spec((GOLDEN / "golden.ispec").read_text())
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        # templates referenced by name must sit next to the proof file
        for aux in GOLDEN.glob("*_template.ipjp"):
            (Path(d) / aux.name).write_text(aux.read_text())
        p = Path(d) / name
        p.write_text(path_text)
        from ipj.proofcheck import load_derivation_file

        try:
            derivation = load_derivation_file(str(p), spec)
        except Exception:
            return False
        return check_derivation(derivation).ok


def test_golden_proofs_valid():
    for name in GOLDEN_PROOFS:
        assert _check((GOLDEN / name).read_text(), name), name


def test_golden_proof_mutations_all_rejected():
    """Replacing any single line's formula with an unrelated contradiction,
    or perturbing its justification, must invalidate the proof."""
    rejected = total = 0
    for name in GOLDEN_PROOFS:
        text = (GOLDEN / name).read_text()
        lines = [l for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
        for idx, line in enumerate(lines):
            num, rest = line.split(".", 1)
            _, just = rest.rsplit(";", 1)
            mutated = list(lines)
            mutated[idx] = f"{num}. Pr>= 1 (p & ~p) ;{just}"
            total += 1
            if not _check("\n".join(mutated) + "\n", name):
                rejected += 1
    # targeted justification mutations
    targeted = [
        ("probnec.ipjp", "pnec 1", "pnec 2"),
        ("c_axiom.ipjp", "ax c k=2", "ax c k=1"),
        ("almost_certain.ipjp", "param-approx 1", "param-approx 1/2"),
        ("arch.ipjp", "param-arch", "param-approx 1"),
    ]
    for name, old, new in targeted:
        text = (GOLDEN / name).read_text()
        assert old in text, (name, old)
        total += 1
        if not _check(text.replace(old, new, 1), name):
            rejected += 1
    assert rejected == total, f"only {rejected}/{total} mutations rejected"


# -- criterion 7: semantic normality of almost-certainty ---------------------------------


def test_approx_one_normality():
    """Over >= 1,000 random models: if mu([a -> b]) ~ 1 and mu([a]) ~ 1 then
    mu([b]) ~ 1; and mu([a]) ~ 1 whenever a holds at every sample world."""
    rng = random.Random(1009)
    models = 0
    violations = 0
    while models < 1_000:
        qm = generators.rand_model(rng)
        models += 1
        a = generators.rand_eformula(rng, 2)
        b = generators.rand_eformula(rng, 2)
        imp = parse_eformula(f"({print_eformula(a)}) -> ({print_eformula(b)})")
        if qm.measure_of(imp).approx_eq(Fraction(1)) and qm.measure_of(a).approx_eq(
            Fraction(1)
        ):
            if not qm.measure_of(b).approx_eq(Fraction(1)):
                violations += 1
        taut = parse_eformula(f"({print_eformula(a)}) | ~({print_eformula(a)})")
        if not qm.measure_of(taut).approx_eq(Fraction(1)):
            violations += 1
    assert violations == 0


# -- criterion 8: protocol events are monotone and stabilize ------------------------------


def test_protocol_events_monotone_and_stabilize():
    """On generated models: the event of f[n](t) evidence grows with n, and
    the omega event equals the stabilized finite-stage event."""
    rng = random.Random(88)
    spec = load_spec("p : const 1\n")
    alpha, t = parse_eformula("p"), Var("t")
    body = Box("P", alpha)

    def events(qm, n_hi):
        return [event(qm, Just(Proto(n, t), "V", body)) for n in range(1, n_hi + 1)]

    checked = 0
    for k, n_max, honest in itertools.product((1, 2), (4, 7, 10), (True, False)):
        qm = build_interaction_witness(spec, alpha, t, k=k, n_max=n_max, honest=honest)
        evs = events(qm, n_max + 2)
        for lo, hi in zip(evs, evs[1:]):
            assert lo <= hi
            checked += 1
        assert event(qm, Just(Proto(OMEGA, t), "V", body)) == evs[-1]
    # the same facts on random models, against arbitrary evidence bases
    for _ in range(200):
        qm = generators.rand_model(rng)
        n_star = 1 + max(
            (s.complexity for _, s, _ in qm.base._base
             if isinstance(s, Proto) and isinstance(s.complexity, int)),
            default=0,
        )
        for term in (Var("t"), Var("x")):
            for a in (parse_eformula("p"), parse_eformula("p -> q")):
                evs = [
                    event(qm, Just(Proto(n, term), "V", a))
                    for n in range(1, n_star + 2)
                ]
                for lo, hi in zip(evs, evs[1:]):
                    assert lo <= hi
                    checked += 1
                assert event(qm, Just(Proto(OMEGA, term), "V", a)) == evs[-1]
    assert checked > 1_000
