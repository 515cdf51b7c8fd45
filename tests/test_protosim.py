"""Round-based protocol models and witness constructions."""

import itertools
from fractions import Fraction

import pytest

from ipj.ispec import load_spec
from ipj.protosim import (
    ConfigError,
    RoundConfig,
    build_interaction_witness,
    build_round_model,
    verify_ipp_bound,
)
from ipj.qeps import QEps
from ipj.semantics import check_independence, check_model_conditions
from ipj.syntax import OMEGA, Atom, Box, Just, Proto, Var, parse_eformula


def q(x):
    return QEps.from_rational(Fraction(x))


# -- configuration -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        RoundConfig(0, Fraction(1, 3))
    with pytest.raises(ConfigError, match="^21 rounds would need 2\\^21 worlds; the limit is 20$"):
        RoundConfig(21, Fraction(1, 3))
    with pytest.raises(ConfigError):
        RoundConfig(2, Fraction(0))
    with pytest.raises(ConfigError):
        RoundConfig(2, Fraction(1))


# -- amplification -------------------------------------------------------------------


def test_marginals_and_independence():
    m = build_round_model(RoundConfig(3, Fraction(1, 3)))
    qm = m.quasimodel
    for t in m.round_terms:
        assert qm.measure_of(Just(t, "V", m.claim)) == q("2/3")
    for a, b in itertools.combinations(m.round_terms, 2):
        assert check_independence(
            qm, Just(a, "V", m.claim), Just(b, "V", m.claim)
        )


@pytest.mark.parametrize(
    "n,expected",
    [(1, "2/3"), (2, "8/9"), (5, "242/243"), (10, "59048/59049")],
)
def test_amplification_bound_exact(n, expected):
    m = build_round_model(RoundConfig(n, Fraction(1, 3)))
    rep = verify_ipp_bound(m)
    assert rep.ok, rep.render()
    assert m.quasimodel.measure_of(m.claim) == q(expected)
    assert "bound met with equality" in "\n".join(rep.lines)


def test_bound_strict_when_extra_mass():
    m = build_round_model(RoundConfig(2, Fraction(1, 3)))
    # force the claim true everywhere: measure 1 > 8/9, bound still met
    qm = m.quasimodel
    base = qm.base
    from ipj.semantics import EpistemicModel, Quasimodel

    names = base.worlds
    richer = EpistemicModel(
        names,
        {a: [(names[i], names[j]) for i, out in enumerate(base._succ[a]) for j in out]
         for a in ("P", "V")},
        {w: [m.claim.name] for w in names},
        {key: [w for i, w in enumerate(names) if mask >> i & 1]
         for key, mask in base._base.items()},
        atoms=[m.claim.name],
    )
    from ipj.protosim import RoundModel

    m2 = RoundModel(m.cfg, Quasimodel(richer, qm.sample, qm.measure, qm.w0), m.round_terms)
    rep = verify_ipp_bound(m2)
    assert rep.ok
    assert "bound met strictly" in "\n".join(rep.lines)


def test_each_failed_bound_condition_is_reported():
    from ipj.protosim import RoundModel

    m = build_round_model(RoundConfig(2, Fraction(1, 3)))
    s1, s2 = m.round_terms
    # a model built for r = 1/3 read as one for r = 1/4: every round has the
    # wrong mass, and the claim's 8/9 is below 1 - (1/4)^2 = 15/16
    rep = verify_ipp_bound(RoundModel(RoundConfig(2, Fraction(1, 4)), m.quasimodel, m.round_terms))
    assert rep.lines == [
        "round 1 has mass 2/3, expected 3/4",
        "round 2 has mass 2/3, expected 3/4",
        "bound 1 - r^n = 15/16",
        "measure of the claim = 8/9",
        "the claim's measure is below the bound",
    ] and not rep.ok
    # one round counted twice: its evidence is not independent of itself
    rep = verify_ipp_bound(RoundModel(m.cfg, m.quasimodel, (s1, s1)))
    assert rep.lines == [
        "rounds s1 and s1 are not independent",
        "bound 1 - r^n = 8/9",
        "measure of the claim = 8/9",
        "bound met with equality",
    ] and not rep.ok


def test_dishonest_start_world():
    m = build_round_model(RoundConfig(2, Fraction(1, 3), honest=False))
    assert m.quasimodel.w0 == "o00"
    assert not m.quasimodel.base.eval("o00", m.claim)


# -- witnesses -----------------------------------------------------------------------


SPEC = load_spec("p : const 1\n")
P = parse_eformula("p")
T = Var("t")


def stage_measure(qm, n):
    return qm.measure_of(Just(Proto(n, T), "V", Box("P", P)))


def test_witness_stage_measures_k1():
    qm = build_interaction_witness(SPEC, P, T, k=1, n_max=5)
    assert stage_measure(qm, 2) == q("1/2")
    assert stage_measure(qm, 3) == q("2/3")
    assert stage_measure(qm, 5) == q("4/5")
    stab = stage_measure(qm, 6)
    assert stab == q(1) - QEps.epsilon()
    assert stab.std_part() == 1
    assert stage_measure(qm, OMEGA) == stab


def test_witness_stage_measures_k2():
    qm = build_interaction_witness(SPEC, P, T, k=2, n_max=4)
    assert stage_measure(qm, 2) == q("3/4")
    assert stage_measure(qm, 3) == q("8/9")
    assert stage_measure(qm, 4) == q("15/16")


def test_witness_passes_model_conditions():
    # a non-constant spec has a threshold for each k, and every k' <= k is checked
    for spec in (SPEC, load_spec("p : poly 1 1\n"), load_spec("p : table 1 -> 0 2 -> 4 default 5\n")):
        for k in (1, 2, 3):
            for honest, zk in ((True, False), (False, False), (True, True)):
                qm = build_interaction_witness(spec, P, T, k=k, n_max=6, honest=honest, zk=zk)
                rep = check_model_conditions(qm, spec, zk=zk, kmax=k)
                assert rep.ok, (k, honest, zk, rep.render())


def test_dishonest_witness_is_infinitesimal():
    qm = build_interaction_witness(SPEC, P, T, k=1, n_max=4, honest=False)
    stab = stage_measure(qm, 5)
    assert stab.is_infinitesimal
    assert not qm.base.eval(qm.w0, Just(T, "P", P))


def test_zero_knowledge_leak_bound():
    qm = build_interaction_witness(SPEC, P, T, k=2, n_max=6, zk=True)
    rep = check_model_conditions(qm, SPEC, zk=True, kmax=2)
    assert rep.ok, rep.render()
    leak = qm.measure_of(Just(Proto(7, T), "V", Just(T, "P", P)))
    assert leak.std_part() == 0


def test_witness_config_errors():
    with pytest.raises(ConfigError):
        build_interaction_witness(SPEC, parse_eformula("q"), T, k=1, n_max=4)
    with pytest.raises(ConfigError):
        build_interaction_witness(SPEC, P, T, k=1, n_max=1)
    partial = load_spec("p : table 1 -> 2\n")
    with pytest.raises(ConfigError):
        build_interaction_witness(partial, P, T, k=2, n_max=5)
