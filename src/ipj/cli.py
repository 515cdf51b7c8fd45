"""Command-line frontend.

Every subcommand returns a ``proofcheck.Report``, which one renderer prints.
Exit codes: 0 when the requested check passes (VALID / PASS / true), 1 when
it fails logically, 2 on usage or parse errors.  A reader that closes stdout
early gets the verdict's code all the same.  ``--json`` prints one
object: ``ok``, ``report`` (the text lines) and the subcommand's fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import generators, proofcheck, protosim, semantics, syntax
from .ispec import InteractionSpec, load_spec_file
from .proofcheck import Report
from .qeps import parse_qeps


def _emit(args, report: Report) -> int:
    if args.json:
        payload = {"ok": report.ok, "report": report.lines, **report.fields}
        text = json.dumps(payload, sort_keys=True)
    else:
        text = report.render()
    try:
        print(text)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader is gone: stdout goes to os.devnull, so that the flush at
        # exit does not raise again, and the verdict stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.ok else 1


def _load_spec(path: str | None) -> InteractionSpec:
    if path is None:
        return InteractionSpec()
    return load_spec_file(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> Report:
    parsers = {
        "formula": lambda t: syntax.print_formula(syntax.parse_formula(t)),
        "eformula": lambda t: syntax.print_eformula(syntax.parse_eformula(t)),
        "term": lambda t: syntax.print_term(syntax.parse_term(t)),
    }
    printed = parsers[args.kind](args.text)
    return Report(True, [printed], {"canonical": printed})


def cmd_check_proof(args) -> Report:
    spec = _load_spec(args.spec)
    derivation = proofcheck.load_derivation_file(args.proof, spec, zk=args.zk)
    return proofcheck.check_derivation(derivation)


def cmd_check_model(args) -> Report:
    if args.random:
        return _soundness_harness(args)
    kmax = 2 if args.kmax is None else syntax.parse_nat(args.kmax, "--kmax")
    if kmax is None or kmax < 1:  # k ranges over the positive integers
        raise ValueError("--kmax must be at least 1")
    spec = _load_spec(args.spec)
    q = semantics.load_model_file(args.model)
    return semantics.check_model_conditions(q, spec, zk=args.zk, kmax=kmax).verdict()


def _soundness_harness(args) -> Report:
    rng = random.Random(args.seed)
    rep = Report()
    for i in range(args.random):
        q = generators.rand_model(rng)
        for _ in range(args.instances):
            schema = rng.choice(generators.HARNESS_SCHEMAS)
            inst = generators.rand_axiom_instance(rng, schema)
            if not q.eval(inst):
                rep.fail(f"violation in model {i}: ({schema}) {syntax.print_formula(inst)}")
    violations = rep.fields["violations"] = len(rep.lines)  # a line per violation so far
    rep.note(f"{args.random * args.instances} axiom instances over {args.random} random models")
    rep.note(f"{violations} violations")
    return rep.verdict()


def cmd_eval(args) -> Report:
    q = semantics.load_model_file(args.model)
    f = syntax.parse_formula(args.formula, allow_symbolic=False)
    value = q.eval(f)
    return Report(value, ["true" if value else "false"], {"value": value})


def cmd_simulate(args) -> Report:
    spec = _load_spec(args.spec)
    if args.witness:
        alpha = syntax.parse_eformula(args.witness)
        t = syntax.parse_term(args.term)
        q = protosim.build_interaction_witness(
            spec, alpha, t, k=args.k, n_max=args.nmax, honest=not args.dishonest,
            zk=args.zk,
        )
        report = semantics.check_model_conditions(q, spec, zk=args.zk, kmax=args.k)
    else:
        cfg = protosim.RoundConfig(
            rounds=args.rounds, per_round_error=syntax.parse_rational(args.error),
            honest=not args.dishonest,
        )
        model = protosim.build_round_model(cfg)
        q = model.quasimodel
        report = protosim.verify_ipp_bound(model)
        report.note(report.fields["bound"])
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(semantics.write_model_file(q))
        report.note(f"model written to {args.emit}")
    return report.verdict()


def cmd_arith(args) -> Report:
    a = parse_qeps(args.value)
    rep = Report(True, [str(a)], {"canonical": str(a)})
    if args.cmp is not None:
        sign = a.compare(parse_qeps(args.cmp))
        rel = {1: ">", 0: "=", -1: "<"}[sign]
        rep.note(f"cmp: {rel}")
        rep.fields["cmp"] = sign
    if args.std:
        try:
            sp = a.std_part()
        except ValueError:
            rep.fail("std: undefined (infinite element)")
        else:
            rep.note(f"std: {sp}")
            rep.fields["std"] = str(sp)
    if args.approx is not None:
        r = syntax.parse_rational(args.approx)
        if a.approx_eq(r):
            rep.note(f"approx {r}: true")
        else:
            rep.fail(f"approx {r}: false")
    return rep


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    ``main`` call in the process: parsing leaves no state in it."""
    ap = argparse.ArgumentParser(
        prog="ipj",
        description="verification kernel for a probabilistic two-agent justification logic",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("parse", help="parse input and print its canonical form")
    p.add_argument("text")
    p.add_argument(
        "--kind", choices=("formula", "eformula", "term"), default="formula"
    )
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check-proof", help="check a derivation file")
    p.add_argument("proof")
    p.add_argument("--spec", help="interaction specification file")
    p.add_argument("--zk", action="store_true", help="enable the zero-knowledge axioms")
    common(p)
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("check-model", help="check model conditions, or run the random harness")
    p.add_argument("model", nargs="?")
    p.add_argument("--spec", help="interaction specification file")
    p.add_argument("--zk", action="store_true", help="also check the zero-knowledge condition")
    p.add_argument("--kmax", help="largest exponent k to check (default 2)")
    p.add_argument("--random", default="0", metavar="N",
                   help="instead of a file, check axiom soundness on N random models")
    p.add_argument("--instances", default="1000",
                   help="axiom instances per random model (default 1000)")
    p.add_argument("--seed", default="0", help="random seed for the harness")
    common(p)
    p.set_defaults(fn=cmd_check_model)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("formula")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", help="build round/witness models and verify the bounds")
    p.add_argument("--rounds", default="2", help="number of protocol rounds")
    p.add_argument("--error", default="1/3", help="per-round error as a rational (default 1/3)")
    p.add_argument("--dishonest", action="store_true", help="distinguish a failing run")
    p.add_argument("--witness", metavar="EFORMULA",
                   help="build a protocol-bound witness model for this formula instead")
    p.add_argument("--term", default="t", help="base evidence term for the witness model")
    p.add_argument("--k", default="1", help="bound exponent for the witness model")
    p.add_argument("--nmax", default="10",
                   help=f"largest exact complexity level (default 10, at most "
                        f"{protosim._MAX_NMAX}, which takes about 1 s)")
    p.add_argument("--spec", help="interaction specification file")
    p.add_argument("--zk", action="store_true", help="include zero-knowledge evidence/checks")
    p.add_argument("--emit", metavar="FILE", help="write the model file here")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("arith", help="exact arithmetic on field literals")
    p.add_argument("value")
    p.add_argument("--cmp", metavar="VALUE", help="compare against another literal")
    p.add_argument("--std", action="store_true", help="print the standard part")
    p.add_argument("--approx", metavar="R", help="test closeness to a rational")
    common(p)
    p.set_defaults(fn=cmd_arith)

    return ap


# the integer options but --kmax, read as natural numbers (decimal digits, no sign or underscore)
_NATURALS = ("k", "nmax", "rounds", "random", "instances", "seed")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for name in _NATURALS:
            if hasattr(args, name):
                value = syntax.parse_nat(getattr(args, name), f"--{name}")
                if value is None:
                    raise ValueError(f"--{name} must be a natural number")
                setattr(args, name, value)
        if args.command == "check-model":
            if not args.random and not args.model:
                ap.error("check-model needs a model file or --random N")
            if args.random:  # the harness draws its own models and checks no protocol condition
                for option, given in (("a model file", args.model is not None),
                                      ("--spec", args.spec is not None), ("--zk", args.zk),
                                      ("--kmax", args.kmax is not None)):
                    if given:
                        ap.error(f"--random does not take {option}")
        return _emit(args, args.fn(args))
    except (ValueError, OSError) as exc:  # every kernel input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # deep nesting reaches Python's recursion limit in the recursive parser,
        # printer and evaluator
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
