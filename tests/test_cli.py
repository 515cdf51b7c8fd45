"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ipj
from ipj import cli, generators, ispec, proofcheck, protosim, qeps, semantics, syntax
from ipj.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse ---------------------------------------------------------------------------


def test_parse_formula(capsys):
    code, out, _ = run(capsys, "parse", "Pr>= 1/2 (p & q)")
    assert code == 0
    assert out.strip() == "Pr>= 1/2 (p & q)"


def test_parse_desugars(capsys):
    code, out, _ = run(capsys, "parse", "Pr< 1/2 (p)")
    assert code == 0
    assert "~" in out and "Pr>=" in out


def test_parse_term(capsys):
    code, out, _ = run(capsys, "parse", "--kind", "term", "(s*t)+!u")
    assert code == 0
    assert out.strip() == "s * t + !u"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "Pr>= (p)")
    assert code == 2
    assert "error:" in err


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--json", "--kind", "eformula", "p&q")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["canonical"] == "p & q"


# -- proofs --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "proof", ["probnec.ipjp", "c_axiom.ipjp", "almost_certain.ipjp", "arch.ipjp"]
)
def test_golden_proofs_valid(capsys, proof):
    code, out, _ = run(
        capsys, "check-proof", str(GOLDEN / proof), "--spec", str(GOLDEN / "golden.ispec")
    )
    assert code == 0, out
    assert "VALID" in out


def test_corrupted_proof_invalid(capsys, tmp_path):
    text = (GOLDEN / "probnec.ipjp").read_text()
    bad = tmp_path / "bad.ipjp"
    bad.write_text(text.replace("pnec 1", "pnec 2"))
    code, out, _ = run(capsys, "check-proof", str(bad))
    assert code == 1
    assert "INVALID" in out


@pytest.mark.parametrize(
    "hints,valid",
    [("k=1", True), ("n=4", True), ("n=4 k=1", True),
     ("k=2", False), (f"k={10**12}", False), ("n=5", False), ("n=5 k=1", False)],
)
def test_axiom_hints_are_checked(capsys, tmp_path, hints, valid):
    # q = 1/4 at n = 4: k = 1; a k hint of any size is compared, not raised to
    spec = tmp_path / "p.ispec"
    spec.write_text("p : const 1\n")
    proof = tmp_path / "c.ipjp"
    proof.write_text(
        f"1. (t + s) :[P] p -> Pr>= 3/4 (f[4](t + s) :[V] box[P] p) ; ax c {hints}\n"
    )
    code, out, _ = run(capsys, "check-proof", str(proof), "--spec", str(spec))
    if valid:
        assert (code, out) == (0, "VALID\n")
    else:
        assert (code, out) == (1, "INVALID: line 1: formula is not an instance of axiom (c)\n")


@pytest.mark.parametrize("fn", ["const 1_0", "poly +1", "const -1", "table 1 -> 2 default 1_0"])
def test_spec_numbers_are_natural_numbers(capsys, tmp_path, fn):
    spec = tmp_path / "p.ispec"
    spec.write_text(f"# m(k)\np : {fn}\n")
    code, out, err = run(capsys, "check-proof", str(GOLDEN / "probnec.ipjp"), "--spec", str(spec))
    assert (code, out) == (2, "") and err.startswith("error: line 2: ")


def test_missing_proof_file(capsys):
    code, _, err = run(capsys, "check-proof", "/nonexistent/file.ipjp")
    assert code == 2
    assert "error:" in err


def test_malformed_proof_file(capsys, tmp_path):
    bad = tmp_path / "bad.ipjp"
    bad.write_text("1. p ;;; nonsense\n")
    code, _, err = run(capsys, "check-proof", str(bad))
    assert code == 2


@pytest.mark.parametrize("just", ["mp a 1", "mp 1 x", "nec[P] one", "pnec 1.5", "mp 1_0 1",
                                  "mp +1 1", "pnec -1"])
def test_bad_line_numbers_are_parse_errors(capsys, tmp_path, just):
    bad = tmp_path / "bad.ipjp"
    bad.write_text(f"1. Pr>= 1 (p -> p) ; ax p\n2. p -> p ; {just}\n")
    code, _, err = run(capsys, "check-proof", str(bad))
    assert code == 2
    assert err.startswith("error: line 2: bad line number") and "Traceback" not in err


def test_literal_limits_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "arith", "1 e^1000000", "--cmp", "1/2")
    assert (code, out, err) == (2, "", "error: 1:5: e power 1000000 is over the limit of 100\n")
    huge = "1" * 5000
    # an over-long numeral is reported by its digit count, not echoed
    for text, want in (
        (f"{huge}. p -> p ; ax p", "error: line 1: bad line number: number of 5000 digits is too long"),
        (f"1. p -> p ; ax p n={huge}", "error: line 1: bad axiom hint: number of 5000 digits is too long"),
        (f"1. p -> p ; ax p\n2. p -> p ; mp 1 {huge}",
         "error: line 2: bad line number: number of 5000 digits is too long"),
        (f"1. Pr>= 1 (p) ; pnec {huge}", "error: line 1: bad line number: number of 5000 digits is too long"),
        (f"1. Pr>= 1/{huge} (p) ; ax p1", "error: line 1: 1:8: number of 5000 digits is too long"),
    ):
        proof = tmp_path / "huge.ipjp"
        proof.write_text(text + "\n")
        assert run(capsys, "check-proof", str(proof)) == (2, "", want + "\n")


# -- models --------------------------------------------------------------------------


def witness_file(capsys, tmp_path, *extra):
    path = tmp_path / "witness.ipjm"
    spec = tmp_path / "w.ispec"
    spec.write_text("p : const 1\n")
    code, out, _ = run(
        capsys,
        "simulate",
        "--witness",
        "p",
        "--spec",
        str(spec),
        "--nmax",
        "5",
        "--emit",
        str(path),
        *extra,
    )
    return code, out, path, spec


def test_simulate_witness_and_check_model(capsys, tmp_path):
    code, out, path, spec = witness_file(capsys, tmp_path)
    assert code == 0
    assert "PASS" in out
    assert path.exists()
    code, out, _ = run(
        capsys, "check-model", str(path), "--spec", str(spec), "--kmax", "1"
    )
    assert code == 0
    assert out.strip().endswith("PASS")


def test_check_model_failure(capsys, tmp_path):
    code, out, path, spec = witness_file(capsys, tmp_path)
    text = path.read_text()
    # break a finite-stage bound by moving mass off the first evidence world
    text = text.replace("u2 = 1/2", "u2 = 1/4").replace("uout = 1 e", "uout = 1/4 + 1 e")
    broken = tmp_path / "broken.ipjm"
    broken.write_text(text)
    code, out, _ = run(
        capsys, "check-model", str(broken), "--spec", str(spec), "--kmax", "1"
    )
    assert code == 1
    assert "FAIL" in out


def with_bom(tmp_path, path):
    """A copy of the file ``path`` that starts with a UTF-8 byte-order mark."""
    copy = tmp_path / f"bom-{path.name}"
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


def test_a_proof_file_with_a_byte_order_mark(capsys, tmp_path):
    spec = str(GOLDEN / "golden.ispec")
    plain = run(capsys, "check-proof", str(GOLDEN / "c_axiom.ipjp"), "--spec", spec)
    assert plain[:2] == (0, "VALID\n")
    bom = with_bom(tmp_path, GOLDEN / "c_axiom.ipjp")
    assert run(capsys, "check-proof", str(bom), "--spec", spec) == plain


def test_a_model_file_with_a_byte_order_mark(capsys, tmp_path):
    _, _, path, spec = witness_file(capsys, tmp_path)
    plain = run(capsys, "check-model", str(path), "--spec", str(spec), "--kmax", "1")
    assert plain[0] == 0 and plain[1].endswith("PASS\n")
    bom = with_bom(tmp_path, path)
    assert run(capsys, "check-model", str(bom), "--spec", str(spec), "--kmax", "1") == plain


def test_a_spec_file_with_a_byte_order_mark(capsys, tmp_path):
    proof = str(GOLDEN / "c_axiom.ipjp")
    plain = run(capsys, "check-proof", proof, "--spec", str(GOLDEN / "golden.ispec"))
    assert plain[:2] == (0, "VALID\n")
    bom = with_bom(tmp_path, GOLDEN / "golden.ispec")
    assert run(capsys, "check-proof", proof, "--spec", str(bom)) == plain


def test_eval_in_model(capsys, tmp_path):
    _, _, path, _ = witness_file(capsys, tmp_path)
    code, out, _ = run(capsys, "eval", "Pr~ 1/5 (t :[P] p)", "--model", str(path))
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "Pr>= 1/5 (t :[P] p)", "--model", str(path))
    assert code == 1 and out.strip() == "false"


def test_a_world_with_two_mass_lines_exit_2(capsys, tmp_path):
    _, _, path, spec = witness_file(capsys, tmp_path)
    # with the last mass line read, the masses would sum to 1
    text = path.read_text().replace("u2 = 1/2", "u2 = 1/3\nu2 = 1/2")
    path.write_text(text)
    want = (2, "", f"error: line {text.splitlines().index('u2 = 1/2') + 1}: "
                   "second mass line for world 'u2'\n")
    assert run(capsys, "eval", "Pr>= 1/5 (t :[P] p)", "--model", str(path)) == want
    assert run(capsys, "check-model", str(path), "--spec", str(spec), "--kmax", "1") == want


def test_deep_nesting_exit_2(capsys, tmp_path):
    # the parser and the evaluator take about a frame per level: twice the
    # recursion limit is too deep to read, half of it is read and evaluated
    _, _, model, _ = witness_file(capsys, tmp_path)
    limit = sys.getrecursionlimit()
    deep = "~" * (2 * limit) + "p"
    proof = tmp_path / "deep.ipjp"
    proof.write_text(f"1. {deep} -> {deep} ; ax p\n")
    for argv in (["parse", deep], ["check-proof", str(proof)]):
        assert run(capsys, *argv) == (2, "", "error: formula nested too deeply\n"), argv[0]
    assert run(capsys, "eval", "p", "--model", str(model)) == (0, "true\n", "")
    for depth in (limit // 2, limit // 2 + 1):
        want = (1, "false\n", "") if depth % 2 else (0, "true\n", "")
        assert run(capsys, "eval", "~" * depth + "p", "--model", str(model)) == want, depth


def test_wide_tautology_is_valid(capsys, tmp_path):
    # 10,000 conjuncts nest 10,000 deep on the left: the tautology check walks
    # them without recursion
    proof = tmp_path / "wide.ipjp"
    proof.write_text(f"1. {' & '.join(['p'] * 10_000)} -> p ; ax p\n")
    assert run(capsys, "check-proof", str(proof)) == (0, "VALID\n", "")


def test_random_harness(capsys):
    code, out, _ = run(
        capsys, "check-model", "--random", "3", "--instances", "50", "--seed", "7"
    )
    assert code == 0
    assert "0 violations" in out
    assert "PASS" in out


@pytest.mark.parametrize("counts", [("-3", "10"), ("2", "-5")])
def test_random_harness_rejects_negative_counts(capsys, counts):
    code, out, err = run(capsys, "check-model", "--random", counts[0], "--instances", counts[1])
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_random_harness_takes_no_model_file(capsys, tmp_path):
    # the harness draws its own models, so a file next to --random would be ignored
    for model in (str(tmp_path / "missing.ipjm"), str(GOLDEN / "golden.ispec")):
        code, out, err = run_or_exit(capsys, "check-model", model, "--random", "1",
                                     "--instances", "5")
        assert (code, out) == (2, "") and err.endswith("error: --random does not take a model file\n")


@pytest.mark.parametrize("kmax", ["-1", "0"])
def test_kmax_below_one_is_an_input_error(capsys, tmp_path, kmax):
    # k ranges over the positive integers: no k to check would print PASS
    _, _, path, spec = witness_file(capsys, tmp_path)
    code, out, err = run(capsys, "check-model", str(path), "--spec", str(spec), "--kmax", kmax)
    assert (code, out, err) == (2, "", "error: --kmax must be at least 1\n")


@pytest.mark.parametrize("argv, option", [
    # the first bad option is named; each of these printed PASS when int() read them
    (["simulate", "--witness", "p", "--k", "1_0", "--nmax", "+3"], "--k"),
    (["simulate", "--witness", "p", "--nmax", "+3"], "--nmax"),
    (["simulate", "--rounds", "-1"], "--rounds"),
    (["simulate", "--rounds", "٣"], None),  # a decimal digit, as in the file formats
    (["check-model", "--random", "1_0", "--instances", "+2", "--seed", "-1"], "--random"),
    (["check-model", "--random", "1", "--instances", "+2", "--seed", "-1"], "--instances"),
    (["check-model", "--random", "1", "--instances", "2", "--seed", "-1"], "--seed"),
    (["check-model", "--random", "1", "--instances", "2", "--seed", " 1"], "--seed"),
    (["check-model", "--random", "1", "--instances", "2", "--seed", "1" * 5000], "long"),
])
def test_integer_options_are_natural_numbers(capsys, tmp_path, argv, option):
    spec = tmp_path / "s.ispec"
    spec.write_text("p : const 2\n")
    if argv[0] == "simulate":
        argv = [*argv, "--spec", str(spec)]
    code, out, err = run(capsys, *argv)
    if option is None:
        assert code == 0 and "PASS" in out
    elif option == "long":
        assert (code, out) == (2, "")
        assert err == "error: bad --seed: number of 5000 digits is too long\n"
    else:
        assert (code, out, err) == (2, "", f"error: {option} must be a natural number\n")


@pytest.mark.parametrize("kmax", ["1_0", "+1", " 1"])
def test_kmax_is_a_natural_number(capsys, tmp_path, kmax):
    _, _, path, spec = witness_file(capsys, tmp_path)
    code, out, err = run(capsys, "check-model", str(path), "--spec", str(spec), "--kmax", kmax)
    assert (code, out, err) == (2, "", "error: --kmax must be at least 1\n")


def test_unknown_atom_anywhere_is_an_input_error(capsys, tmp_path):
    _, _, path, _ = witness_file(capsys, tmp_path)
    # the left conjunct is false, so a short-circuit evaluation would never see zz
    for formula in ("~p & zz", "Pr>= 1 (~p) & Pr>= 1 (zz)", "~(t :[V] zz)"):
        code, _, err = run(capsys, "eval", formula, "--model", str(path))
        assert code == 2, formula
        assert err.startswith("error:") and "'zz'" in err


# -- simulate ------------------------------------------------------------------------


def test_simulate_round_bound(capsys):
    code, out, _ = run(capsys, "simulate", "--rounds", "10", "--error", "1/3")
    assert code == 0
    assert "59048/59049" in out
    assert "bound met with equality" in out


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--rounds", "2", "--error", "1/3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["bound"] == "8/9"


def test_simulate_rejects_bad_error(capsys):
    code, _, err = run(capsys, "simulate", "--rounds", "2", "--error", "3/2")
    assert code == 2


def test_witness_size_limit(capsys, tmp_path):
    spec = tmp_path / "w.ispec"
    spec.write_text("p : const 1\n")
    argv = ["simulate", "--witness", "p", "--spec", str(spec), "--nmax"]
    code, _, err = run(capsys, *argv, str(protosim._MAX_NMAX + 1))
    assert code == 2
    assert err.startswith("error:") and "limit" in err
    code, out, _ = run(capsys, *argv, str(protosim._MAX_NMAX))
    assert code == 0 and "PASS" in out
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert f"at most {protosim._MAX_NMAX}" in " ".join(capsys.readouterr().out.split())


# -- arithmetic ----------------------------------------------------------------------


def test_arith_cmp_std_approx(capsys):
    code, out, _ = run(
        capsys, "arith", "(1 + 2 e)/(2 + 1 e)", "--cmp", "1/2", "--std", "--approx", "1/2"
    )
    assert code == 0
    assert "cmp: >" in out
    assert "std: 1/2" in out
    assert "approx 1/2: true" in out


def test_arith_approx_of_rational_functions(capsys):
    # the standard part is the numerator's constant term; an infinite value has none
    assert run(capsys, "arith", "(3 + 1 e^2)/(6 + 2 e)", "--approx", "1/2") == (
        0, "(1/2 + 1/6 e^2)/(1 + 1/3 e)\napprox 1/2: true\n", "")
    assert run(capsys, "arith", "(1)/(2 e + 1 e^2)", "--approx", "0") == (
        1, "(1/2)/(1 e + 1/2 e^2)\napprox 0: false\n", "")


def test_arith_bad_literal(capsys):
    code, _, err = run(capsys, "arith", "1//2")
    assert code == 2


ZERO_MODEL = "worlds: a\nR[P]:\na -> a\nR[V]:\na -> a\nU: a\nmu:\na = (1)/(0)\nw0: a\n"
ZERO_PROOF = "1. p -> Pr~ 0 (q) ; param-approx 1/0 template=t.ipjp\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["arith", "(1)/(0)"],
        ["arith", "1", "--approx", "1/0"],
        ["simulate", "--error", "1/0"],
        ["check-model", "{model}"],
        ["eval", "p", "--model", "{model}"],
        ["check-proof", "{proof}"],
    ],
)
def test_zero_denominators_are_input_errors(capsys, tmp_path, argv):
    model, proof = tmp_path / "zero.ipjm", tmp_path / "zero.ipjp"
    model.write_text(ZERO_MODEL)
    proof.write_text(ZERO_PROOF)
    argv = [a.format(model=model, proof=proof) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    if argv[0] == "check-proof":
        assert "line 1" in err


ERROR_MODEL = "worlds: a\nR[P]:\na -> a\nR[V]:\na -> a\nval:\na : p\nU: a\nmu:\na = 1\nw0: a\n"
ERROR_FILES = {
    "model": ERROR_MODEL,
    "mass": ERROR_MODEL.replace("a = 1", "a = 1 +"),
    "spec": "zz : const 1\n",
    "dup": "p : const 1\np : const 2\n",
}


@pytest.mark.parametrize("argv, err", [
    (["eval", "zz", "--model", "{model}"], "atom 'zz' is not in the model"),
    (["check-model", "{model}", "--spec", "{spec}"], "spec formula mentions unknown atom 'zz'"),
    (["parse", "Pr>= 3/2 (p)"], "1:6: probability threshold 3/2 outside [0,1]"),
    (["parse", "Pr~ 2 (p)"], "1:5: approximate-probability threshold 2 outside [0,1]"),
    (["simulate", "--spec", "{dup}"], "line 2: duplicate entry for 'p'"),
    (["simulate", "--rounds", "21"], "21 rounds would need 2^21 worlds; the limit is 20"),
    (["simulate", "--witness", "p", "--nmax", "1001"], "n_max 1001 is over the limit of 1000"),
    (["arith", "x"], "1:1: expected 'num', got 'x'"),
    (["arith", "1 2"], "1:3: trailing input in literal: '2'"),
    (["arith", "1", "--cmp", "1 +"], "1:4: expected 'num', got ''"),
    (["eval", "p", "--model", "{mass}"], "line 10: bad mass line: 1:4: expected 'num', got ''"),
])
def test_input_error_texts(capsys, tmp_path, argv, err):
    # a call per input-error raise site of the model, spec, config and literal readers
    for name, text in ERROR_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(**{name: tmp_path / name for name in ERROR_FILES}) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


# -- one parser per process ------------------------------------------------------------


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1_0", "+1/2", "1/-2", "1e10000000"])
def test_rationals_are_read_in_the_literal_grammar(capsys, text):
    # a decimal spelling is a usage error, and is refused before any arithmetic
    for argv in (["arith", "1/2", "--approx", text], ["simulate", "--error", text]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: bad rational {text!r}\n")
    code, out, _ = run(capsys, "arith", "1/2", "--approx", " 1 / 2")
    assert code == 0 and "approx 1/2: true" in out


def run_in_fresh_process(*argv):
    src = str(Path(ipj.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ipj.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_or_exit(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_answers_like_a_fresh_one(capsys, tmp_path):
    assert build_parser() is build_parser()
    model = tmp_path / "m.ipjm"
    model.write_text(
        "worlds: a b\nR[P]:\na -> a\nb -> b\nR[V]:\na -> a\nb -> b\nval:\na : p\n"
        "U: a b\nmu:\na = 1/2\nb = 1/2\nw0: a\n"
    )
    calls = [
        ("eval", "p"),  # usage error: --model is required
        ("check-model",),  # ap.error: neither a file nor --random
        ("check-model", "--random", "1", "--instances", "5", "--zk", "--json"),  # ap.error
        ("check-model", "--random", "1", "--instances", "5"),  # neither --zk nor --json carries over
        ("eval", "Pr>= 1/2 (p)", "--model", str(model), "--json"),
        ("eval", "Pr>= 1/2 (p)", "--model", str(model)),
    ]
    codes = []
    for argv in calls:
        got = run_or_exit(capsys, *argv)
        assert got == run_in_fresh_process(*argv), argv
        codes.append(got[0])
    assert codes == [2, 2, 2, 0, 0, 0]


# -- one renderer --------------------------------------------------------------------


def test_text_and_json_reports_agree(capsys, tmp_path):
    # every subcommand prints the same lines as text and as the JSON "report",
    # with the same exit code, and adds only these keys beside "ok" and "report"
    _, _, model, spec = witness_file(capsys, tmp_path)
    bad = tmp_path / "bad.ipjp"
    bad.write_text((GOLDEN / "probnec.ipjp").read_text().replace("pnec 1", "pnec 2"))
    golden = [str(GOLDEN / "c_axiom.ipjp"), "--spec", str(GOLDEN / "golden.ispec")]
    cases = [
        (["parse", "p&q"], 0, {"canonical": "p & q"}),
        (["check-proof", *golden], 0, {}),
        (["check-proof", str(bad)], 1, {"line": 2}),
        (["check-model", str(model), "--spec", str(spec), "--kmax", "1"], 0, {}),
        (["check-model", "--random", "1", "--instances", "20"], 0, {"violations": 0}),
        (["eval", "Pr>= 1/5 (t :[P] p)", "--model", str(model)], 1, {"value": False}),
        (["simulate", "--rounds", "2", "--emit", str(tmp_path / "r.ipjm")], 0, {"bound": "8/9"}),
        (["simulate", "--witness", "p", "--spec", str(spec), "--nmax", "4",
          "--emit", str(tmp_path / "w.ipjm")], 0, {}),
        (["arith", "(1 + 2 e)/(2 + 1 e)", "--cmp", "1/2", "--std", "--approx", "1/2"], 0,
         {"canonical": "(1/2 + 1 e)/(1 + 1/2 e)", "cmp": 1, "std": "1/2"}),
        (["arith", "(1)/(1 e)", "--std"], 1, {"canonical": "(1)/(1 e)"}),
        (["arith", "1/3", "--approx", "1/2"], 1, {"canonical": "1/3"}),
    ]
    for argv, want_code, want_fields in cases:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (want_code, ""), argv
        code_json, out_json, _ = run(capsys, *argv, "--json")
        payload = json.loads(out_json)
        assert code_json == code and payload.pop("ok") is (code == 0), argv
        assert payload.pop("report") == out.splitlines(), argv
        assert payload == want_fields, argv
    # the spec is read before the model; --random takes no spec, so the
    # usage error comes before any file is read
    missing = str(tmp_path / "missing.ispec")
    code, out, err = run(capsys, "check-model", str(tmp_path / "missing.ipjm"), "--spec", missing)
    assert (code, out) == (2, "") and "missing.ispec" in err
    code, out, err = run_or_exit(capsys, "check-model", "--random", "1", "--spec", missing)
    assert (code, out) == (2, "") and err.endswith("error: --random does not take --spec\n")


def test_every_kernel_input_error_is_a_value_error():
    # main turns ValueError and OSError into exit 2, so a new error class of the
    # kernel must be a ValueError; NoMatch never leaves the checker
    errors = [
        c for m in (cli, generators, ispec, proofcheck, protosim, qeps, semantics, syntax)
        for c in vars(m).values()
        if isinstance(c, type) and issubclass(c, BaseException) and c.__module__ == m.__name__
    ]
    assert sorted(errors, key=lambda c: c.__qualname__) == [
        protosim.ConfigError, ispec.ISpecError, semantics.ModelError, proofcheck.NoMatch,
        syntax.ParseError, proofcheck.ProofParseError,
    ]
    assert [c for c in errors if not issubclass(c, ValueError)] == [proofcheck.NoMatch]


def test_python_m_ipj():
    src = str(Path(ipj.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "ipj", "parse", "p"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p\n", "")


def test_import_leaves_out_dataclasses_and_inspect():
    # the kernel builds its classes without these modules, which cost start-up
    src = str(Path(ipj.__file__).resolve().parent.parent)
    code = ("import sys; before = set(sys.modules); import ipj.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
