"""Quasimodels realizing round-based protocols and protocol-bound witnesses.

Rounds are modeled as outcome-vector worlds under an exact product measure:
each of the n rounds independently passes with probability 1 - r.  The
amplification bound mu([claim]) >= 1 - r^n is then verified exactly.  A
second construction builds witness models whose protocol-event measures hit
the 1 - 1/n^k bounds exactly up to a chosen complexity and stabilize at a
value that is infinitesimally close to 1 (honest run) or to 0 (dishonest
run), exercising the limit forms of the model conditions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import syntax
from .ispec import InteractionSpec, error
from .qeps import QEps
from .proofcheck import Report
from .semantics import EpistemicModel, Quasimodel, check_independence
from .syntax import Atom, Box, EFormula, Just, Proto, Term, Var


class ConfigError(ValueError):
    pass


_MAX_ROUNDS = 20
_MAX_NMAX = 1000  # a witness model has about n_max worlds


# the claim of every round model: it holds where some round passes
CLAIM = Atom("accept")


class RoundConfig:
    def __init__(self, rounds: int, per_round_error: Fraction, honest: bool = True):
        if rounds < 1:
            raise ConfigError("at least one round is required")
        if rounds > _MAX_ROUNDS:
            raise ConfigError(
                f"{rounds} rounds would need 2^{rounds} worlds; the limit is {_MAX_ROUNDS}"
            )
        if not 0 < per_round_error < 1:
            raise ConfigError("the per-round error must be strictly between 0 and 1")
        self.rounds, self.per_round_error, self.honest = rounds, per_round_error, honest


class RoundModel:
    claim = CLAIM

    def __init__(self, cfg: RoundConfig, quasimodel: Quasimodel, round_terms: tuple[Term, ...]):
        self.cfg, self.quasimodel, self.round_terms = cfg, quasimodel, round_terms


def build_round_model(cfg: RoundConfig) -> RoundModel:
    """Product-measure quasimodel with one world per outcome vector."""
    n = cfg.rounds
    r = cfg.per_round_error
    terms = tuple(Var(f"s{i}") for i in range(1, n + 1))

    worlds = ["o" + "".join(bits) for bits in itertools.product("10", repeat=n)]
    identity = [(w, w) for w in worlds]
    # the mass of a world depends only on how many rounds pass in it
    masses = [QEps.from_rational((1 - r) ** k * r ** (n - k)) for k in range(n + 1)]
    # round i passes in the worlds whose bit i is 1, the round term's evidence: in product
    # order, runs of 2^(n-i) worlds that alternate with runs where it fails
    runs = [[1] * 2 ** (n - i) + [0] * 2 ** (n - i) for i in range(1, n + 1)]
    evidence = {(syntax.VERIFIER, t, CLAIM): list(itertools.compress(worlds, itertools.cycle(run)))
                for t, run in zip(terms, runs)}
    # the claim holds where any round passes: in every world but the last, o0...0
    valuation = dict.fromkeys(worlds[:-1], [CLAIM.name])
    measure = {w: masses[w.count("1")] for w in worlds}
    base = EpistemicModel(
        worlds,
        {syntax.PROVER: identity, syntax.VERIFIER: identity},
        valuation,
        evidence,
        atoms=[CLAIM.name],
    )
    w0 = "o" + ("1" if cfg.honest else "0") * n
    return RoundModel(cfg, Quasimodel(base, worlds, measure, w0), terms)


def verify_ipp_bound(m: RoundModel) -> Report:
    """Exact check of the amplification bound mu([claim]) >= 1 - r^n, which
    the report keeps as the text of ``fields["bound"]``."""
    rep = Report()
    q = m.quasimodel
    n, r = m.cfg.rounds, m.cfg.per_round_error
    per_round = QEps.from_rational(1 - r)
    for i, t in enumerate(m.round_terms, start=1):
        got = q.measure_of(Just(t, syntax.VERIFIER, m.claim))
        if got != per_round:
            rep.fail(f"round {i} has mass {got}, expected {1 - r}")
    for a, b in itertools.combinations(m.round_terms, 2):
        if not check_independence(
            q, Just(a, syntax.VERIFIER, m.claim), Just(b, syntax.VERIFIER, m.claim)
        ):
            rep.fail(f"rounds {a} and {b} are not independent")
    bound = 1 - r**n
    rep.fields["bound"] = str(bound)
    measured = q.measure_of(m.claim)
    rep.note(f"bound 1 - r^n = {bound}")
    rep.note(f"measure of the claim = {measured}")
    cmpv = measured.compare(QEps.from_rational(bound))
    if cmpv < 0:
        rep.fail("the claim's measure is below the bound")
    else:
        rep.note("bound met " + ("with equality" if cmpv == 0 else "strictly"))
    return rep


# ---------------------------------------------------------------------------
# witness models for the protocol bound conditions
# ---------------------------------------------------------------------------


def build_interaction_witness(
    spec: InteractionSpec,
    alpha: EFormula,
    t: Term,
    k: int,
    n_max: int,
    honest: bool = True,
    zk: bool = False,
) -> Quasimodel:
    """Quasimodel hitting the 1 - 1/n^k protocol bounds exactly.

    One world u_j per complexity in (threshold, n_max] carries the evidence
    that first appears at complexity j, so the event family grows one world
    at a time and its measure telescopes to exactly 1 - 1/n^k.  A final
    stabilization world leaves an infinitesimal residue, so the limit forms
    see a standard part of 1 (honest) or 0 (dishonest) without ever reaching
    it at a finite stage.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    if n_max > _MAX_NMAX:
        raise ConfigError(f"n_max {n_max} is over the limit of {_MAX_NMAX}")
    if not syntax.is_f_free(t):
        raise ConfigError("the base term must not mention protocol runs")
    fn = spec.threshold(alpha)
    if fn is None:
        raise ConfigError("the formula has no interaction-spec entry")
    thr = fn.value_at(k)
    if thr is None:
        raise ConfigError(f"the interaction threshold is undefined at k={k}")
    if n_max <= thr:
        raise ConfigError(f"n_max must exceed the threshold {thr}")

    # the conditions are checked for every j <= k, so the levels start past the
    # least threshold; with exponent k each level's 1 - 1/n^k >= 1 - 1/n^j
    low = min(m for m in map(fn.value_at, range(1, k + 1)) if m is not None)
    eps = QEps.epsilon()
    levels = list(range(low + 1, n_max + 1))
    worlds = [f"u{j}" for j in levels] + ["ustar", "uout"]
    identity = [(w, w) for w in worlds]

    # fractions of the event mass added at each level; they sum to 1
    errors = [Fraction(1)] + [error(j, k) for j in levels]
    shares = {f"u{j}": QEps.from_rational(a - b) for j, a, b in zip(levels, errors, errors[1:])}
    shares["ustar"] = QEps.from_rational(errors[-1])

    if honest:
        measure = {**shares, "ustar": shares["ustar"] - eps, "uout": eps}
    else:
        measure = {w: share * eps for w, share in shares.items()}
        measure["uout"] = QEps.from_rational(1) - eps

    atoms = sorted(syntax.atoms_of_e(alpha)) or ["p"]
    valuation = {w: list(syntax.atoms_of_e(alpha)) for w in worlds}
    body = Box(syntax.PROVER, alpha)

    evidence = {(syntax.VERIFIER, Proto(j, t), body): [f"u{j}"] for j in levels}
    evidence[(syntax.VERIFIER, Proto(n_max + 1, t), body)] = ["ustar"]

    w0 = "ustar" if honest else "uout"
    if honest:
        evidence[(syntax.PROVER, t, alpha)] = ["ustar"]
    if zk and honest:
        inner = Just(t, syntax.PROVER, alpha)
        evidence[(syntax.PROVER, t, alpha)].append("uout")
        evidence[(syntax.VERIFIER, Proto(thr + 1, t), inner)] = ["uout"]

    base = EpistemicModel(
        worlds,
        {syntax.PROVER: identity, syntax.VERIFIER: identity},
        valuation,
        evidence,
        atoms=atoms,
    )
    if not all(base.eval(w, alpha) for w in worlds):
        raise ConfigError("the witness construction needs a formula true at every world")
    return Quasimodel(base, worlds, measure, w0)
