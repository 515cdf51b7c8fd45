"""Guards of library calls that no command of the CLI makes: each returns
its value or raises its error, with its text."""

from fractions import Fraction

import pytest

from ipj import proofcheck, qeps, semantics, syntax
from ipj.ispec import InteractionSpec, ThresholdFn
from ipj.qeps import QEps
from ipj.syntax import Atom, Epistemic, SymThresh, Var, parse_formula

_MODEL = semantics.parse_model_file(
    "worlds: a\nR[P]:\na -> a\nR[V]:\na -> a\nval:\na : p\nU: a\nmu:\na = 1\nw0: a\n")
_ONE_MINUS_1_OVER_V = SymThresh(Fraction(1), Fraction(-1), 1)


class _EqualsAnything:
    """A foreign object that says it equals everything: ``x == it`` is True
    where ``x.__eq__`` returns NotImplemented, and False where it says False."""

    __hash__ = None

    def __eq__(self, other):
        return True


# (call, the value it returns or the error it raises)
_GUARDS = [
    # a parametric threshold compared outside a parameter range, or in an unknown one
    (lambda: proofcheck.thresh_signs(_ONE_MINUS_1_OVER_V, qeps.ONE), None),
    (lambda: proofcheck.thresh_signs(_ONE_MINUS_1_OVER_V, qeps.ONE, ("rho",)), None),
    (lambda: proofcheck.instantiate_schema("zz", {}), ValueError("unknown schema 'zz'")),
    (lambda: proofcheck.match_axiom(parse_formula("p -> p"), InteractionSpec(), schema="zz"),
     ValueError("unknown schema 'zz'")),
    # == against a foreign object defers to it
    (lambda: ThresholdFn() == _EqualsAnything(), True),
    (lambda: proofcheck.ProofLine(1, parse_formula("p"), "ax", ()) == _EqualsAnything(), True),
    (lambda: qeps.ONE == _EqualsAnything(), True),
    (lambda: qeps.ONE == "1", False),
    # values of Q[e]
    (lambda: setattr(qeps.ONE, "num", ()), AttributeError("QEps values are immutable")),
    (lambda: QEps.from_monomials([(1, -1)]), ValueError("negative powers of e are not accepted")),
    (lambda: qeps.ZERO.shift, 0),
    (lambda: QEps.epsilon().as_rational(), ValueError("1 e is not rational")),
    (lambda: qeps.ZERO.inverse(), ZeroDivisionError("inverse of zero")),
    (lambda: (qeps.ONE < QEps.epsilon(), qeps.ONE < qeps.ONE), (False, False)),
    (lambda: (qeps.ONE > QEps.epsilon(), qeps.ONE > qeps.ONE), (True, False)),
    (lambda: (QEps.epsilon() >= qeps.ONE, qeps.ONE >= qeps.ONE), (False, True)),
    (lambda: qeps.ONE + 0.5, TypeError("cannot coerce 0.5 to QEps")),
    # models
    (lambda: _MODEL.base.eval("b", Atom("p")),
     semantics.ModelError("'b' is not a world of the model")),
    (lambda: _MODEL.base.truth_mask(Epistemic(Atom("p"))),
     TypeError("not an epistemic formula: Epistemic(inner=Atom(name='p'))")),
    (lambda: _MODEL.eval(syntax.ProbGeq(_ONE_MINUS_1_OVER_V, Atom("p"))),
     semantics.ModelError("cannot evaluate a parametric threshold")),
    (lambda: _MODEL.eval(Atom("p")), TypeError("not a formula: Atom(name='p')")),
    # the printer
    (lambda: syntax.print_term(Atom("p")), TypeError("not a term: Atom(name='p')")),
    (lambda: syntax.print_eformula(Var("t")),
     TypeError("not an epistemic formula: Var(name='t')")),
    (lambda: syntax.print_formula(Var("t")), TypeError("not a formula: Var(name='t')")),
]


@pytest.mark.parametrize("call, want", _GUARDS)
def test_library_call_guards(call, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (type(want), str(want))
    else:
        got = call()
        assert (type(got), got) == (type(want), want)
