"""Expected verdicts computed apart from the program under test.

Nothing here imports ``ipj``.  Values of the field Q[e] are kept as pairs of
coefficient tuples (numerator, denominator), index = power of e, and are
compared by the sign of the lowest-order coefficient, which is the sign for
every small enough positive e.  Models are plain dicts that the benchmark
builds itself; formulas are tuples:

    eformula: ("atom", name) | ("not", A) | ("and", A, B) | ("box", agent, A)
    formula:  ("ep", A) | ("geq", value, A) | ("approx", Fraction, A)
              | ("fnot", F) | ("fand", F, G)
"""

from __future__ import annotations

from fractions import Fraction

Poly = tuple  # of Fraction, index = power of e
Value = tuple  # (numerator Poly, denominator Poly)

ONE: Value = ((Fraction(1),), (Fraction(1),))


def poly(*coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly(*((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(*out)


def psign(a: Poly) -> int:
    """Sign of the polynomial for every small enough positive e."""
    for c in a:
        if c:
            return 1 if c > 0 else -1
    return 0


def vadd(x: Value, y: Value) -> Value:
    return (padd(pmul(x[0], y[1]), pmul(y[0], x[1])), pmul(x[1], y[1]))


def vcmp(x: Value, y: Value) -> int:
    """Sign of x - y as e goes to 0 from above."""
    diff = padd(pmul(x[0], y[1]), pneg(pmul(y[0], x[1])))
    return psign(diff) * psign(x[1]) * psign(y[1])


def std_part(x: Value) -> Fraction:
    """Limit as e goes to 0 from above; the value must be finite."""
    num, den = x
    lo = next(i for i, c in enumerate(den) if c)
    for i in range(lo):
        if i < len(num) and num[i]:
            raise ValueError("infinite value has no standard part")
    return (num[lo] if lo < len(num) else Fraction(0)) / den[lo]


def literal(x: Value) -> str:
    """The value in the field-literal syntax of model files and thresholds."""
    num, den = x
    if den == (Fraction(1),):
        return _poly_literal(num)
    return f"({_poly_literal(num)})/({_poly_literal(den)})"


def _poly_literal(p: Poly) -> str:
    terms = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        terms.append(str(c) if i == 0 else f"{c} e" if i == 1 else f"{c} e^{i}")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# brute-force evaluation over models built by the benchmark
# ---------------------------------------------------------------------------


def eval_e(model: dict, w: str, a: tuple) -> bool:
    tag = a[0]
    if tag == "atom":
        return a[1] in model["val"][w]
    if tag == "not":
        return not eval_e(model, w, a[1])
    if tag == "and":
        return eval_e(model, w, a[1]) and eval_e(model, w, a[2])
    if tag == "box":
        return all(eval_e(model, u, a[2]) for (x, u) in model["rel"][a[1]] if x == w)
    raise ValueError(f"unsupported eformula {a!r}")


def measure(model: dict, a: tuple) -> Value:
    total: Value = ((), (Fraction(1),))
    for u in model["sample"]:
        if eval_e(model, u, a):
            total = vadd(total, model["mass"][u])
    return total


def eval_f(model: dict, f: tuple) -> bool:
    tag = f[0]
    if tag == "ep":
        return eval_e(model, model["w0"], f[1])
    if tag == "geq":
        return vcmp(measure(model, f[2]), f[1]) >= 0
    if tag == "approx":
        return std_part(measure(model, f[2])) == f[1]
    if tag == "fnot":
        return not eval_f(model, f[1])
    if tag == "fand":
        return eval_f(model, f[1]) and eval_f(model, f[2])
    raise ValueError(f"unsupported formula {f!r}")


def print_e(a: tuple) -> str:
    tag = a[0]
    if tag == "atom":
        return a[1]
    if tag == "not":
        return f"~({print_e(a[1])})"
    if tag == "and":
        return f"({print_e(a[1])} & {print_e(a[2])})"
    return f"box[{a[1]}] ({print_e(a[2])})"


def print_f(f: tuple) -> str:
    tag = f[0]
    if tag == "ep":
        return print_e(f[1])
    if tag == "geq":
        return f"Pr>= {literal(f[1])} ({print_e(f[2])})"
    if tag == "approx":
        return f"Pr~ {f[1]} ({print_e(f[2])})"
    if tag == "fnot":
        return f"~({print_f(f[1])})"
    return f"({print_f(f[1])} & {print_f(f[2])})"


def write_model(model: dict) -> str:
    """The model in the ``.ipjm`` format documented in the README."""
    out = [f"worlds: {' '.join(model['worlds'])}"]
    for agent in ("P", "V"):
        out.append(f"R[{agent}]:")
        out.extend(f"{w} -> {u}" for w, u in sorted(model["rel"][agent]))
    out.append("val:")
    for w in model["worlds"]:
        if model["val"][w]:
            out.append(f"{w} : {' '.join(sorted(model['val'][w]))}")
    out.append(f"U: {' '.join(model['sample'])}")
    out.append("mu:")
    out.extend(f"{u} = {literal(model['mass'][u])}" for u in model["sample"])
    out.append(f"w0: {model['w0']}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# closed forms for the protocol models
# ---------------------------------------------------------------------------


def round_bound(r: Fraction, rounds: int) -> Fraction:
    """Amplification bound 1 - r^n of n independent rounds."""
    return 1 - r**rounds


def witness_level_measure(n, m: int, k: int, n_max: int, honest: bool) -> Value:
    """Measure of the level-n protocol event of a witness model.

    ``n`` is a natural number or ``"w"``.  The event is empty at or below the
    threshold m; up to n_max it has mass 1 - 1/n^k (scaled by e when
    dishonest); past n_max it is 1 - e (honest) or e (dishonest).
    """
    eps: Value = (poly(0, 1), (Fraction(1),))
    if n != "w" and n <= m:
        return ((), (Fraction(1),))
    if n == "w" or n > n_max:
        return (poly(1, -1), (Fraction(1),)) if honest else eps
    stage = 1 - Fraction(1, n**k)
    return (poly(stage), (Fraction(1),)) if honest else (poly(0, stage), (Fraction(1),))


def just_above(x: Value) -> Value:
    """x plus e (rational x) or plus e^2 (x involving e): the next query up."""
    bump = poly(0, 1) if len(x[0]) <= 1 and x[1] == (Fraction(1),) else poly(0, 0, 1)
    return vadd(x, (bump, (Fraction(1),)))
