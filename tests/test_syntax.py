"""Parsing, printing, and desugaring of terms and formulas."""

import copy
import hashlib
import os
import pickle
import random
import re
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ipj
from ipj import generators, ispec, proofcheck, semantics
from ipj.qeps import QEps, QEpsParseError, parse_qeps
from ipj.syntax import (
    OMEGA,
    App,
    Atom,
    Bang,
    Box,
    Const,
    EAnd,
    ENot,
    Epistemic,
    FAnd,
    FNot,
    Just,
    MAX_POWER,
    ParseError,
    Parser,
    ProbApprox,
    ProbGeq,
    Proto,
    RangeError,
    Sum,
    SymThresh,
    Var,
    dest_fimp,
    esubformulas,
    fimp,
    fnot,
    formula_has_param,
    parse_eformula,
    parse_formula,
    parse_term,
    print_eformula,
    print_formula,
    print_term,
    thresh_complement,
)


def q(x) -> QEps:
    return QEps.from_rational(Fraction(x))


# -- terms ---------------------------------------------------------------------


def test_term_parsing_and_precedence():
    assert parse_term("x") == Var("x")
    assert parse_term("c:a") == Const("a")
    assert parse_term("!x * y + z") == Sum(App(Bang(Var("x")), Var("y")), Var("z"))
    assert parse_term("!(x + y)") == Bang(Sum(Var("x"), Var("y")))
    assert parse_term("f[3](t)") == Proto(3, Var("t"))
    assert parse_term("f[w](s + t)") == Proto(OMEGA, Sum(Var("s"), Var("t")))


def test_term_roundtrip_examples():
    for text in ("x * y * z", "x + y + z", "!!x", "f[w](!t * c:a)"):
        assert print_term(parse_term(text)) == text


def test_reserved_names_rejected():
    for bad in ("box", "f", "P", "V", "v"):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_template_parameter_is_no_name():
    # v is read only inside thresholds, as the parameter of proof templates
    for bad in ("v", "v -> p", "v :[P] p", "t :[P] v", "v * t :[V] p", "Pr>= 1/2 (v)"):
        with pytest.raises(ParseError, match="'v' is reserved and cannot name a variable"):
            parse_formula(bad, allow_symbolic=True)
    assert formula_has_param(parse_formula("Pr>= 1 + -1/v (p)", allow_symbolic=True))


# -- formulas ------------------------------------------------------------------


def test_probability_operator_desugaring():
    assert parse_formula("Pr<= 1/2 (p)") == ProbGeq(q("1/2"), ENot(Atom("p")))
    assert parse_formula("Pr< 1/2 (p)") == FNot(ProbGeq(q("1/2"), Atom("p")))
    assert parse_formula("Pr> 1/2 (p)") == FNot(ProbGeq(q("1/2"), ENot(Atom("p"))))
    assert parse_formula("Pr= 1/3 (p)") == FAnd(
        ProbGeq(q("2/3"), ENot(Atom("p"))), ProbGeq(q("1/3"), Atom("p"))
    )
    assert parse_formula("Pr~ 1 (p)") == ProbApprox(Fraction(1), Atom("p"))


def test_epistemic_connectives_merge():
    # boolean structure over purely epistemic parts stays epistemic
    assert parse_formula("~p") == Epistemic(ENot(Atom("p")))
    assert parse_formula("p & q") == Epistemic(EAnd(Atom("p"), Atom("q")))
    f = parse_formula("p -> q")
    assert isinstance(f, Epistemic)
    # but probability formulas force the outer layer
    g = parse_formula("p -> Pr>= 1/2 (q)")
    assert isinstance(g, FNot)
    assert dest_fimp(g) == (Epistemic(Atom("p")), ProbGeq(q("1/2"), Atom("q")))


def test_justification_and_box():
    f = parse_formula("f[w](t) :[V] box[P] p")
    assert f == Epistemic(Just(Proto(OMEGA, Var("t")), "V", Box("P", Atom("p"))))
    g = parse_formula("(x + y) :[P] (p -> q)")
    assert g == Epistemic(
        Just(Sum(Var("x"), Var("y")), "P", ENot(EAnd(Atom("p"), ENot(Atom("q")))))
    )


def test_probability_inside_epistemic_rejected():
    with pytest.raises(ParseError):
        parse_formula("t :[P] Pr>= 1/2 (p)")
    with pytest.raises(ParseError):
        parse_formula("box[V] (Pr~ 1 (p))")


def test_threshold_range_errors():
    for bad in ("Pr>= 3/2 (p)", "Pr<= -1/2 (p)", "Pr~ 2 (p)"):
        with pytest.raises(RangeError):
            parse_formula(bad)


def test_infinitesimal_thresholds():
    f = parse_formula("Pr>= 1 + -1 e (p)")
    assert isinstance(f, ProbGeq)
    assert f.threshold == QEps.from_monomials([(Fraction(1), 0), (Fraction(-1), 1)])
    assert print_formula(f) == "Pr>= 1 + -1 e (p)"


def test_thresh_complement_is_one_minus_s():
    # the complement read off num and den is the general 1 - s, representation
    # and all, on polynomial and rational-function values, 0 and 1 included
    rng = random.Random(24)

    def poly():
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))]

    values = [q(0), q(1), QEps.epsilon()]
    while len(values) < 5000:
        if len(values) % 2:
            values.append(generators.rand_qeps(rng))
        else:
            den = poly()
            values.append(QEps(poly(), den if any(den) else [1, rng.randint(1, 3)]))
    assert sum(len(s.den) > 1 for s in values) > 1000
    for s in values:
        old, new = QEps.from_rational(1) - s, thresh_complement(s)
        assert (new.num, new.den) == (old.num, old.den)
        assert new.den is s.den


def test_symbolic_thresholds():
    f = parse_formula("Pr>= 1 + -1/v (p)")
    assert f == ProbGeq(SymThresh(Fraction(1), Fraction(-1), 1), Atom("p"))
    assert formula_has_param(f)
    s = f.threshold
    assert s.base + s.coeff / Fraction(2) ** s.power == Fraction(1, 2)  # at v = 2
    g = parse_formula("Pr= v (p)")
    assert formula_has_param(g)
    with pytest.raises(ParseError):
        parse_formula("Pr>= 1 + -1/v (p)", allow_symbolic=False)
    # a zero parametric coefficient leaves the rational itself
    assert parse_formula("Pr>= 1/2 + 0/v (p)") == parse_formula("Pr>= 1/2 (p)")


def test_parametric_monomial_edges():
    # c/v is a monomial only for a bare integer c
    for bad in ("Pr>= 1/21/v (p)", "Pr>= 20/ 1/v (p)", "Pr>= 1/v + 1/v (p)", "Pr>= (1)/(v) (p)"):
        for symbolic in (True, False):
            with pytest.raises(ParseError):
                parse_formula(bad, allow_symbolic=symbolic)
    f = parse_formula("Pr>= 1/2 + -1/v (p)", allow_symbolic=True)
    assert f.threshold == SymThresh(Fraction(1, 2), Fraction(-1), 1)
    with pytest.raises(ParseError):
        parse_formula("Pr>= 1/2 + -1/v (p)", allow_symbolic=False)


def test_symbolic_roundtrip():
    for text in ("Pr>= 1 + -1/v (p)", "Pr>= 1/v^2 (p)", "Pr= v (p)", "Pr>= 1/2 + 0/v (p)"):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


def test_implication_utilities():
    a, b = Epistemic(Atom("p")), ProbGeq(q("1/2"), Atom("q"))
    assert dest_fimp(fimp(a, b)) == (a, b)
    assert dest_fimp(fimp(a, Epistemic(Atom("q")))) == (a, Epistemic(Atom("q")))
    assert fnot(fnot(a)) != a  # double negation is not collapsed


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_formula("p &")
    assert exc.value.line == 1


def tokenize(text):
    """The tokens of ``text`` and an end token, each a kind, a text, a line and a column."""
    p = Parser(text)
    return [(kind, tok, *p.position(j)) for j, (kind, tok) in enumerate(zip(p.kinds, p.texts))]


def test_tokenize_lines_and_columns():
    cases = {
        "p &\n  q ->\n\t~ c:k1 :[P]  r": [
            ("ident", "p", 1, 1), ("&", "&", 1, 3), ("ident", "q", 2, 3), ("->", "->", 2, 5),
            ("~", "~", 3, 2), ("const", "k1", 3, 4), (":[", ":[", 3, 9), ("ident", "P", 3, 11),
            ("]", "]", 3, 12), ("ident", "r", 3, 15), ("eof", "", 3, 16),
        ],
        "Pr>= 1/2\n(\n p\n) ;\n": [
            ("prop", "Pr>=", 1, 1), ("num", "1", 1, 6), ("/", "/", 1, 7), ("num", "2", 1, 8),
            ("(", "(", 2, 1), ("ident", "p", 3, 2), (")", ")", 4, 1), (";", ";", 4, 3),
            ("eof", "", 5, 1),
        ],
        # only "\n" starts a line
        "x\r\ny z": [("ident", "x", 1, 1), ("ident", "y", 2, 1), ("ident", "z", 2, 3),
                     ("eof", "", 2, 4)],
        # a constant's name is the token after "c:", whatever it is
        "c:c:x c:Pr>= 1": [
            ("const", "c:", 1, 1), ("ident", "x", 1, 5), ("const", "Pr>=", 1, 7),
            ("num", "1", 1, 14), ("eof", "", 1, 15),
        ],
    }
    for text, want in cases.items():
        assert [tuple(t) for t in tokenize(text)] == want, text
    for text, where in (("p &\n  q\n @", "3:2"), ("  \t#", "1:4"), ("p - q", "1:3")):
        with pytest.raises(ParseError, match=f"^{where}: unexpected character"):
            tokenize(text)


# -- the lexer against a reference ----------------------------------------------------

# the lexer as it was written with one capture group per kind of token: the
# reference that the table-driven lexer of ipj.syntax must agree with
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (\s*)
    (?: (Pr>=|Pr<=|Pr~|Pr=|Pr<|Pr>)       # prop
      | (c:(?=[A-Za-z_]))                 # the prefix of a constant
      | (-?\d+)                           # num
      | ([A-Za-z_][A-Za-z0-9_']*)         # ident
      | (->|:\[|[()\[\]/^~&|*+!:=.;,])     # a symbol: its text is its kind
      | (.)                               # a character that starts no token
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokenize(text):
    toks, line, col = [], 1, 1
    const = None  # the position of a "c:" whose name is the next token
    for ws, prop, const_prefix, num, ident, sym, bad in _REFERENCE_TOKEN_RE.findall(text):
        if ws:
            newlines = ws.count("\n")
            if newlines:
                line += newlines
                col = len(ws) - ws.rfind("\n")
            else:
                col += len(ws)
        if sym:
            tok = (sym, sym, line, col)
        elif ident:
            tok = ("ident", ident, line, col)
        elif num:
            tok = ("num", num, line, col)
        elif prop:
            tok = ("prop", prop, line, col)
        elif const_prefix:
            if const is None:
                const = (line, col)
                col += 2
                continue
            tok = (const_prefix, const_prefix, line, col)
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", line, col)
        else:  # the end of the text
            continue
        col += len(tok[1])
        if const is not None:
            tok = ("const", tok[1], *const)
            const = None
        toks.append(tok)
    toks.append(("eof", "", line, col))
    return toks


def lex_outcome(lex, text):
    try:
        return [tuple(tok) for tok in lex(text)]
    except ParseError as exc:
        return str(exc)


# "\u0663" is a digit outside ASCII, "\u00a0" a space outside ASCII
_EDIT_CHARS = "()[]:~&|*+!-=./^;,_ \t\n@\u00a0\u0663" + string.ascii_letters + string.digits


def _lexer_corpus():
    """5,000 texts: the lines of the golden files and of random model files,
    random formulas and axiom instances, and random edits of them."""
    rng = random.Random(26)
    texts = []
    for path in sorted((Path(__file__).parent / "golden").iterdir()):
        texts += path.read_text(encoding="utf-8").splitlines()
    for _ in range(5):
        texts += semantics.write_model_file(generators.rand_model(rng)).splitlines()
    for _ in range(300):
        texts.append(print_formula(generators.rand_formula(rng, 4)))
        spec_formula = generators.rand_eformula(rng, 2)
        spec = ispec.InteractionSpec()
        spec.add(spec_formula, ispec.ThresholdFn(tail=(1,)))
        schema = rng.choice(proofcheck.SCHEMA_IDS)
        texts.append(print_formula(generators.rand_axiom_instance(rng, schema, spec, spec_formula)))
    cases = list(texts)
    while len(cases) < 5000:  # random one-character edits of the texts
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(chars))
            edit = rng.randrange(3)
            if edit == 0:
                chars.insert(at, rng.choice(_EDIT_CHARS))
            elif at < len(chars):
                chars[at:at + 1] = [rng.choice(_EDIT_CHARS)] if edit == 1 else []
        cases.append("".join(chars))
    return cases


def test_lexer_agrees_with_the_reference():
    cases = _lexer_corpus()
    errors = 0
    for text in cases:
        want = lex_outcome(reference_tokenize, text)
        assert lex_outcome(tokenize, text) == want, text
        errors += isinstance(want, str)
    assert 250 <= errors <= len(cases) - 250, errors  # both outcomes are common


def test_plain_read_outcomes_are_pinned():
    # What a plain read of each text of the corpus gives as a formula, a term
    # and a value of Q[e]: the printed value, or the error with its line:col.
    # The digest was computed before the lexer stopped giving tokens positions.
    def outcome(read, show, text):
        try:
            return show(read(text))
        except (ParseError, QEpsParseError) as exc:
            return f"{type(exc).__name__}: {exc}"

    h = hashlib.sha256()
    for text in _lexer_corpus():
        for read, show in ((parse_formula, print_formula), (parse_term, print_term),
                           (parse_qeps, str)):
            h.update(outcome(read, show, text).encode() + b"\n")
    assert h.hexdigest() == "fe553d26f351e86085c57132514fed42e2173a175f2dcfb3e76fdc045d9b1ab5"


def test_token_positions_with_skipped_groups():
    # a parser with a memo lexes a repeated group as one token; the line and
    # column of each token, that one's and those after it included, are where
    # its text starts (a constant's at its "c:")
    for text in _lexer_corpus()[::10]:
        text = f"({text}) &\n ({text}) & ({text})"
        try:
            p = Parser(text, memo={})
        except ParseError:
            continue
        lines = text.split("\n")
        for j, (kind, tok) in enumerate(zip(p.kinds, p.texts)):
            line, col = p.position(j)
            want = f"c:{tok}" if kind == "const" else tok.split("\n")[0]
            assert lines[line - 1][col - 1:].startswith(want), (text, j)


def test_memo_and_plain_reads_name_the_same_error_position():
    # the "unexpected character" error of a text that a memo lexes with a
    # group token, a constant or a digit outside ASCII before the bad character
    for text, where in (
        ("(p & q) &\n ((p & q)) & (p & q) @ x", "2:22"),
        ("c:k :[P] (p & q) &\n c:c:x & (p & q) @", "2:18"),
        ("(p & q) & Pr>= \u0663 ((p & q)) &\n\t(p & q) @", "2:10"),
    ):
        for memo in (None, {}):
            with pytest.raises(ParseError, match=f"^{where}: unexpected character '@'"):
                Parser(text, memo=memo)


def test_literal_limits_are_parse_errors():
    huge = "1" * 5000  # more digits than int() reads
    too_long = "number of 5000 digits is too long"
    for text, col, msg in (
        (f"Pr>= {huge} (p)", 6, too_long),
        (f"Pr>= 1/{huge} (p)", 8, too_long),
        (f"Pr>= 1 e^{huge} (p)", 10, too_long),
        (f"Pr>= 1/2 + {huge}/v (p)", 12, too_long),
        (f"f[{huge}](t) :[P] p", 3, too_long),
        (f"Pr>= 1 e^{MAX_POWER + 1} (p)", 10, f"e power {MAX_POWER + 1} is over the limit of 100"),
        ("Pr>= 1 e^1000000000 (p)", 10, "e power 1000000000 is over the limit of 100"),
        (f"Pr>= 1/v^{MAX_POWER + 1} (p)", 10, f"v power {MAX_POWER + 1} is over the limit of 100"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert (exc.value.line, exc.value.col, str(exc.value)) == (1, col, f"1:{col}: {msg}")
    top = QEps.from_monomials([(Fraction(1), MAX_POWER)])
    assert parse_formula(f"Pr>= 1 e^{MAX_POWER} (p)").threshold == top
    assert parse_formula(f"Pr>= 1/v^{MAX_POWER} (p)").threshold.power == MAX_POWER


def test_random_roundtrip_sample():
    rng = random.Random(11)
    for _ in range(300):
        f = generators.rand_formula(rng)
        text = print_formula(f)
        assert parse_formula(text) == f, text


def test_eformula_roundtrip_sample():
    rng = random.Random(12)
    for _ in range(300):
        e = generators.rand_eformula(rng)
        assert parse_eformula(print_eformula(e)) == e


def recursive_esubformulas(f):
    """The epistemic subformulas of ``f``, by their recursive definition."""
    out = {f}
    if isinstance(f, ENot):
        out |= recursive_esubformulas(f.inner)
    elif isinstance(f, EAnd):
        out |= recursive_esubformulas(f.left) | recursive_esubformulas(f.right)
    elif isinstance(f, (Box, Just)):
        out |= recursive_esubformulas(f.inner)
    return out


def test_esubformulas_agree_with_the_definition():
    rng = random.Random(13)
    for _ in range(300):
        e = generators.rand_eformula(rng, 4)
        assert esubformulas(e) == recursive_esubformulas(e)
    # the term of a justification is no subformula
    f = parse_eformula("(t + !s) :[V] q")
    assert esubformulas(f) == {f, Atom("q")}


def test_esubformulas_of_a_deep_formula():
    f = Atom("p")
    for _ in range(5000):
        f = ENot(f)
        hash(f)  # each node's hash is kept, so no hash recurses
    subs = esubformulas(f)
    assert len(subs) == 5001 and Atom("p") in subs


# -- nodes -----------------------------------------------------------------------

_T = Var("t")
_A = Atom("p")
# one node of each class, with its declared fields
_NODES = [
    (Const("k1"), ("name",)),
    (_T, ("name",)),
    (App(Const("k1"), _T), ("left", "right")),
    (Sum(_T, Var("s")), ("left", "right")),
    (Bang(_T), ("inner",)),
    (Proto(OMEGA, _T), ("complexity", "inner")),
    (Proto(3, _T), ("complexity", "inner")),
    (_A, ("name",)),
    (ENot(_A), ("inner",)),
    (EAnd(_A, Atom("q")), ("left", "right")),
    (Box("P", _A), ("agent", "inner")),
    (Just(Sum(_T, Var("s")), "V", Box("P", _A)), ("term", "agent", "inner")),
    (Epistemic(_A), ("inner",)),
    (ProbGeq(QEps.from_rational(Fraction(1, 2)) - QEps.epsilon(), _A), ("threshold", "inner")),
    (ProbGeq(SymThresh(Fraction(1), Fraction(-1), 1), _A), ("threshold", "inner")),
    (ProbApprox(Fraction(1, 2), _A), ("r", "inner")),
    (FNot(Epistemic(_A)), ("inner",)),
    (FAnd(Epistemic(_A), ProbApprox(Fraction(1), _A)), ("left", "right")),
]


def test_every_node_class_is_covered():
    classes = {type(n) for n, _ in _NODES}
    assert classes == {Const, Var, App, Sum, Bang, Proto, Atom, ENot, EAnd, Box, Just,
                       Epistemic, ProbGeq, ProbApprox, FNot, FAnd}


def test_node_hash_is_the_hash_of_its_fields():
    for node, names in _NODES:
        want = hash(tuple(getattr(node, name) for name in type(node)._fields))
        assert hash(node) == want, node
        assert hash(node) == want, node  # the kept hash
        assert type(node)._fields == names
    # hashed before its parts, a tree hashes alike
    fresh = parse_formula("(x + y) :[P] (p -> q) & Pr~ 1/2 (f[w](t) :[V] box[P] p)")
    again = parse_formula("(x + y) :[P] (p -> q) & Pr~ 1/2 (f[w](t) :[V] box[P] p)")
    hash(again.left.inner.term)
    assert hash(fresh) == hash(again) and fresh == again


def test_nodes_are_frozen():
    for node, names in _NODES:
        for name in (*names, "_hash", "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(node, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(node, name)


def test_node_reprs():
    # the text a dataclass gave, which error messages quote
    want = [
        "Const(name='k1')",
        "Var(name='t')",
        "App(left=Const(name='k1'), right=Var(name='t'))",
        "Sum(left=Var(name='t'), right=Var(name='s'))",
        "Bang(inner=Var(name='t'))",
        "Proto(complexity=w, inner=Var(name='t'))",
        "Proto(complexity=3, inner=Var(name='t'))",
        "Atom(name='p')",
        "ENot(inner=Atom(name='p'))",
        "EAnd(left=Atom(name='p'), right=Atom(name='q'))",
        "Box(agent='P', inner=Atom(name='p'))",
        "Just(term=Sum(left=Var(name='t'), right=Var(name='s')), agent='V', "
        "inner=Box(agent='P', inner=Atom(name='p')))",
        "Epistemic(inner=Atom(name='p'))",
        "ProbGeq(threshold=QEps(1/2 + -1 e), inner=Atom(name='p'))",
        "ProbGeq(threshold=SymThresh(base=Fraction(1, 1), coeff=Fraction(-1, 1), power=1), "
        "inner=Atom(name='p'))",
        "ProbApprox(r=Fraction(1, 2), inner=Atom(name='p'))",
        "FNot(inner=Epistemic(inner=Atom(name='p')))",
        "FAnd(left=Epistemic(inner=Atom(name='p')), "
        "right=ProbApprox(r=Fraction(1, 1), inner=Atom(name='p')))",
    ]
    assert [repr(node) for node, _ in _NODES] == want
    assert [str(node) for node, _ in _NODES] == want


def test_node_copies_equal_the_node_and_hash_afresh():
    for node, _ in _NODES:
        h = hash(node)
        for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert twin._hash is None, node  # no kept hash until its first hash()
            assert twin == node and twin is not node
            assert hash(twin) == h


def test_omega_hashes_alike_in_every_process():
    # a node holding OMEGA hashes by its fields, so OMEGA's hash must not be
    # its id: with string hashing fixed, two processes agree
    src = str(Path(ipj.__file__).resolve().parent.parent)
    code = "from ipj.syntax import OMEGA, Proto, Var; print(hash(Proto(OMEGA, Var('t'))))"
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    outs = [
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=120, check=True).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1] and outs[0].strip().lstrip("-").isdigit()
    # still the one OMEGA, equal to itself alone
    for twin in (pickle.loads(pickle.dumps(OMEGA)), copy.copy(OMEGA), copy.deepcopy(OMEGA)):
        assert twin is OMEGA
    assert OMEGA == OMEGA and OMEGA != hash(OMEGA)
