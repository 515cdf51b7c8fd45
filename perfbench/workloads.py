"""Seeded inputs, call lists and oracles of the four workloads.

``build(name, seed, workdir)`` writes the workload's input files into
``workdir`` and returns its round: the list of ``ipj`` calls that every run
repeats whole.  Each call carries a check that compares the call's exit code
and JSON payload with an answer computed apart from the program (see
``oracles``).  The same seed gives byte-identical input files.
"""

from __future__ import annotations

import random
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles
from oracles import poly

Check = Callable[[int, dict], Optional[str]]

WORKLOADS = ("soundness", "rounds", "witness", "proofs")

# soundness: harness calls per round, each one random model x 1000 instances
HARNESS_CALLS = 48
HARNESS_INSTANCES = 1000
# rounds: protocol rounds per model (1,024 worlds)
ROUNDS = 10
# witness: largest exact complexity level of the witness models
WITNESS_NMAX, WITNESS_THRESHOLD = 16, 2
RF_MODELS, RF_WORLDS, RF_SAMPLE, RF_QUERIES = 2, 10, 7, 8
# proofs: generated derivations per round and their length in lines
DERIVATIONS, DERIVATION_LINES = 8, 300
CONTRADICTION = "Pr>= 1 (p & ~p)"


@dataclass
class Call:
    argv: list
    check: Check


def build(name: str, seed: int, workdir: Path) -> list:
    """Write the inputs of one workload and return its round of calls."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return {"soundness": _soundness, "rounds": _rounds, "witness": _witness,
            "proofs": _proofs}[name](rng, workdir)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def expect(ok: bool, **fields) -> Check:
    """The verdict is ``ok`` (exit 0, else exit 1) and the payload has ``fields``."""

    def check(code: int, payload: dict) -> Optional[str]:
        if payload.get("ok") is not ok or code != (0 if ok else 1):
            return f"expected ok={ok}, got exit {code} ok={payload.get('ok')}"
        for key, want in fields.items():
            if payload.get(key) != want:
                return f"expected {key}={want!r}, got {payload.get(key)!r}"
        return None

    return check


def _both(*checks: Check) -> Check:
    def check(code: int, payload: dict) -> Optional[str]:
        for c in checks:
            err = c(code, payload)
            if err:
                return err
        return None

    return check


def _report_line(pattern: str, test: Callable[[re.Match], bool], what: str) -> Check:
    rx = re.compile(pattern)

    def check(code: int, payload: dict) -> Optional[str]:
        for line in payload.get("report", []):
            m = rx.fullmatch(line)
            if m:
                return None if test(m) else f"{what}: {line!r}"
        return f"no report line matches {pattern!r}"

    return check


# ---------------------------------------------------------------------------
# soundness: random models against axiom instances
# ---------------------------------------------------------------------------


def _soundness(rng: random.Random, workdir: Path) -> list:
    # every axiom instance holds in every model: soundness of the axioms
    check = _both(
        expect(True, violations=0),
        _report_line(
            r"(\d+) axiom instances over (\d+) random models",
            lambda m: (int(m[1]), int(m[2])) == (HARNESS_INSTANCES, 1),
            "wrong instance count",
        ),
    )
    return [
        Call(["check-model", "--random", "1", "--instances", str(HARNESS_INSTANCES),
              "--seed", str(s), "--json"], check)
        for s in rng.sample(range(10**6), HARNESS_CALLS)
    ]


# ---------------------------------------------------------------------------
# rounds: amplification models with 2^10 worlds
# ---------------------------------------------------------------------------

# One denominator: the size of the exact masses, hence the cost, depends on
# it.  The masses of a model with error a/7 are those with error (7 - a)/7,
# so each round takes one error of each pair and costs about the same.
ROUND_ERROR_PAIRS = [(Fraction(a, 7), Fraction(7 - a, 7)) for a in (1, 2, 3)]


def _rounds(rng: random.Random, workdir: Path) -> list:
    calls = []
    # three models: a round of about 20 s, with three calls of each kind, so
    # that the median is the middle one of the first queries
    errors = [rng.choice(pair) for pair in ROUND_ERROR_PAIRS]
    rng.shuffle(errors)
    for i, (r, honest) in enumerate(zip(errors, (True, False, True))):
        path = str(workdir / f"round{i}.ipjm")
        bound = oracles.round_bound(r, ROUNDS)
        argv = ["simulate", "--rounds", str(ROUNDS), "--error", str(r), "--emit", path, "--json"]
        if not honest:
            argv.insert(-3, "--dishonest")
        calls.append(Call(argv, _both(
            expect(True, bound=str(bound)),
            _report_line(r"measure of the claim = (\S+)", lambda m, b=bound: Fraction(m[1]) == b,
                         "claim measure differs from 1 - r^n"),
        )))
        # one query that holds and one just past the bound; the first also
        # checks each round's mass 1 - r and whether accept holds at w0
        holds = " & ".join(
            [f"Pr>= {bound} (accept)", "accept" if honest else "~accept"]
            + [f"Pr= {1 - r} (s{j} :[V] accept)" for j in range(1, ROUNDS + 1)]
        )
        for formula, want in ((holds, True), (f"Pr>= {bound} + 1 e (accept)", False)):
            calls.append(Call(["eval", formula, "--model", path, "--json"], expect(want, value=want)))
    return calls


# ---------------------------------------------------------------------------
# witness: protocol-bound witness models and rational-function models
# ---------------------------------------------------------------------------


def _witness(rng: random.Random, workdir: Path) -> list:
    # the threshold is fixed: it sets the number of worlds, hence the cost
    m = WITNESS_THRESHOLD
    atom, term = rng.choice(("p", "q", "r")), rng.choice(("t", "s", "u"))
    spec = workdir / "witness.ispec"
    spec.write_text(f"{atom} : const {m}\n", encoding="utf-8")
    calls = []
    for k in (1, 2):
        for honest in (True, False):
            for zk in (False, True):
                path = str(workdir / f"witness-k{k}-{'h' if honest else 'd'}{'-zk' if zk else ''}.ipjm")
                flags = (["--dishonest"] if not honest else []) + (["--zk"] if zk else [])
                calls.append(Call(
                    ["simulate", "--witness", atom, "--term", term, "--spec", str(spec), "--k", str(k),
                     "--nmax", str(WITNESS_NMAX), *flags, "--emit", path, "--json"],
                    expect(True),
                ))
                calls.append(Call(
                    ["check-model", path, "--spec", str(spec), "--kmax", str(k),
                     *(["--zk"] if zk else []), "--json"],
                    expect(True),
                ))
                for n in [*range(1, WITNESS_NMAX + 3), "w"]:
                    v = oracles.witness_level_measure(n, m, k, WITNESS_NMAX, honest)
                    event = f"f[{n}]({term}) :[V] box[P] {atom}"
                    for value, want in ((v, True), (oracles.just_above(v), False)):
                        calls.append(Call(
                            ["eval", f"Pr>= {oracles.literal(value)} ({event})", "--model", path,
                             "--json"],
                            expect(want, value=want),
                        ))
    for i in range(RF_MODELS):
        model = rand_rf_model(rng)
        path = workdir / f"rf{i}.ipjm"
        path.write_text(oracles.write_model(model), encoding="utf-8")
        for f in rand_queries(rng, model, RF_QUERIES):
            want = oracles.eval_f(model, f)
            calls.append(Call(["eval", oracles.print_f(f), "--model", str(path), "--json"],
                              expect(want, value=want)))
    return calls


def _closure(edges: set) -> set:
    closed = set(edges)
    while True:
        extra = {(w, v) for (w, u) in closed for (x, v) in closed if u == x} - closed
        if not extra:
            return closed
        closed |= extra


def rand_rf_model(rng: random.Random) -> dict:
    """A model whose masses share a denominator polynomial that is not 1.

    Worlds are named x0, x1, ...: a world named like a section of the file
    format (w0, U, mu, val, worlds) is misread by the model-file reader.
    """
    worlds = [f"x{i}" for i in range(RF_WORLDS)]
    rel = {}
    for agent in ("P", "V"):
        edges = {(w, w) for w in worlds}
        edges |= {(rng.choice(worlds), rng.choice(worlds)) for _ in range(RF_WORLDS // 2)}
        rel[agent] = _closure(edges)
    atoms = ("p", "q", "r")
    val = {w: {a for a in atoms if rng.random() < 0.5} for w in worlds}
    for a in atoms:  # an atom true nowhere is unknown to the model
        val[rng.choice(worlds)].add(a)
    sample = rng.sample(worlds, RF_SAMPLE)
    nums = [poly(rng.randint(1, 6), rng.randint(-3, 3)) for _ in sample]
    den = poly(sum(p[0] for p in nums), sum(p[1] if len(p) > 1 else 0 for p in nums))
    if len(den) < 2:  # keep the common denominator non-constant
        nums[0] = oracles.padd(nums[0], poly(0, 1))
        den = oracles.padd(den, poly(0, 1))
    return {
        "worlds": worlds, "rel": rel, "val": val, "sample": sample,
        "mass": {u: (p, den) for u, p in zip(sample, nums)},
        "w0": rng.choice(sample),
    }


def _rand_e(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        return ("atom", rng.choice(("p", "q", "r")))
    kind = rng.randrange(3)
    if kind == 0:
        return ("not", _rand_e(rng, depth - 1))
    if kind == 1:
        return ("and", _rand_e(rng, depth - 1), _rand_e(rng, depth - 1))
    return ("box", rng.choice("PV"), _rand_e(rng, depth - 1))


def _rand_prob(rng: random.Random, model: dict) -> tuple:
    a = _rand_e(rng, 3)
    mu = oracles.measure(model, a)
    e2 = (poly(0, 0, 1), (Fraction(1),))
    kind = rng.randrange(5)
    if kind == 0:
        return ("geq", mu, a)
    if kind == 1 and oracles.vcmp(mu, oracles.ONE) < 0:
        return ("geq", oracles.vadd(mu, e2), a)
    if kind == 2 and oracles.psign(mu[0]) > 0:
        return ("geq", oracles.vadd(mu, (oracles.pneg(e2[0]), e2[1])), a)
    if kind == 3:
        return ("approx", oracles.std_part(mu), a)
    den = rng.randint(1, 8)
    r = Fraction(rng.randint(0, den), den)
    return ("approx", r, a) if rng.random() < 0.5 else ("geq", (poly(r), (Fraction(1),)), a)


def rand_queries(rng: random.Random, model: dict, count: int) -> list:
    out = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(("ep", _rand_e(rng, 3)))
        elif kind == 1:
            out.append(("fnot", _rand_prob(rng, model)))
        elif kind == 2:
            out.append(("fand", _rand_prob(rng, model), _rand_prob(rng, model)))
        else:
            out.append(_rand_prob(rng, model))
    return out


# ---------------------------------------------------------------------------
# proofs: generated derivations, golden proofs and their mutants
# ---------------------------------------------------------------------------

GOLDEN = ("probnec.ipjp", "c_axiom.ipjp", "almost_certain.ipjp", "arch.ipjp")
TEMPLATES = ("almost_certain_template.ipjp", "arch_template.ipjp")
PARAM_LINES = (
    ("t :[P] a -> Pr~ 1 (c:k1 * f[w](t) :[V] a)",
     "param-approx 1 template=almost_certain_template.ipjp"),
    ("~(Pr>= 1 (p) & ~(Pr>= 1 (p)))", "param-arch template=arch_template.ipjp"),
)


def _proofs(rng: random.Random, workdir: Path) -> list:
    # ipj is imported here, not at the top: run.py imports this module
    # without the program on its path
    from ipj.ispec import load_spec

    golden_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
    for name in GOLDEN + TEMPLATES + ("golden.ispec",):
        shutil.copyfile(golden_dir / name, workdir / name)
    # one entry of each kind; "a" is the formula the golden templates use
    spec_text = (
        f"a : const 0\n"
        f"q : const {rng.randint(0, 3)}\n"
        f"box[P] q : poly {rng.randint(0, 2)} {rng.randint(1, 2)}\n"
        f"r & q : table 1 -> {rng.randint(0, 3)} 2 -> {rng.randint(1, 4)} "
        f"default {rng.randint(1, 4)}\n"
    )
    spec_path = workdir / "proofs.ispec"
    spec_path.write_text(spec_text, encoding="utf-8")
    spec = load_spec(spec_text)
    alphas = spec.formulas()[1:]  # the const, poly and table entries

    calls = []
    golden_spec = str(workdir / "golden.ispec")
    for name in GOLDEN:
        calls += _with_mutant(rng, workdir / name, golden_spec, zk=False)
    for i in range(DERIVATIONS):
        zk = i % 2 == 0
        lines = _derivation(rng, alphas, spec, zk)
        path = workdir / f"derivation{i}.ipjp"
        path.write_text("".join(f"{j}. {f} ; {js}\n" for j, (f, js) in enumerate(lines, 1)),
                        encoding="utf-8")
        calls += _with_mutant(rng, path, str(spec_path), zk)
    return calls


def _with_mutant(rng: random.Random, path: Path, spec: str, zk: bool) -> list:
    """The proof (VALID) and a copy with one line asserting a contradiction.

    A sound checker rejects the copy exactly at that line, whatever the
    line's justification.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    numbered = [i for i, line in enumerate(lines) if re.match(r"\d+\.", line)]
    pos = rng.choice(numbered)
    index, rest = lines[pos].split(".", 1)
    lines[pos] = f"{index}. {CONTRADICTION} ;{rest.rsplit(';', 1)[1]}"
    mutant = path.with_name(path.stem + "-mutant.ipjp")
    mutant.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flags = ["--zk"] if zk else []
    return [
        Call(["check-proof", str(path), "--spec", spec, *flags, "--json"], expect(True)),
        Call(["check-proof", str(mutant), "--spec", spec, *flags, "--json"],
             expect(False, line=int(index))),
    ]


def _leaves(f, out: set) -> set:
    """Opaque leaves of the propositional skeleton (tautology-check inputs)."""
    from ipj.syntax import EAnd, Epistemic, FAnd, FNot, ENot

    if isinstance(f, (FNot, ENot, Epistemic)):
        return _leaves(f.inner, out)
    if isinstance(f, (FAnd, EAnd)):
        _leaves(f.left, out)
        return _leaves(f.right, out)
    out.add(f)
    return out


def _derivation(rng: random.Random, alphas: list, spec, zk: bool) -> list:
    """About DERIVATION_LINES lines: every schema, plus p/mp/nec/pnec/axnec
    steps built on the axiom lines and param-approx/param-arch lines that
    reuse the golden templates."""
    from ipj import generators, proofcheck, syntax

    schemas = [s for s in proofcheck.SCHEMA_IDS if zk or s not in ("zk1", "zk2")]
    lines: list = []

    def add(formula: str, just: str) -> int:
        lines.append((formula, just))
        return len(lines)

    while len(lines) < DERIVATION_LINES:
        rng.shuffle(schemas)
        for sid in schemas:
            k = rng.randint(1, 2)
            f = generators.rand_axiom_instance(
                rng, sid, spec=spec, spec_formula=rng.choice(alphas), k=k
            )
            text = syntax.print_formula(f)
            hint = f" k={k}" if sid in ("c", "s", "zk1") else ""
            i = add(text, f"ax {sid}{hint}")
            epistemic = isinstance(f, syntax.Epistemic)
            roll = rng.random()
            if roll < 0.4 and len(_leaves(f, set())) < 16:
                j = add(f"({text}) -> (q -> ({text}))", "ax p")
                add(f"q -> ({text})", f"mp {i} {j}")
            elif epistemic and roll < 0.55:
                agent = rng.choice("PV")
                add(f"box[{agent}] ({text})", f"nec[{agent}] {i}")
            elif epistemic and roll < 0.7:
                add(f"Pr>= 1 ({text})", f"pnec {i}")
            elif epistemic and roll < 0.85 and sid in proofcheck.EPISTEMIC_SCHEMAS:
                add(f"c:k1 :[V] ({text})", "axnec k1[V]")
        add(*rng.choice(PARAM_LINES))
    return lines
