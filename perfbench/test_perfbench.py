"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ipj import syntax  # noqa: E402
from ipj.qeps import parse_qeps  # noqa: E402
from reference import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402


def _payload(call) -> tuple:
    code, out, _ = worker.run_call(call.argv)
    return code, json.loads(out)


def _wrong_answers(code: int, payload: dict):
    """Answers that differ from a true one in the verdict or a checked field."""
    flipped = dict(payload, ok=not payload["ok"])
    if "value" in payload:
        flipped["value"] = not payload["value"]
    yield 1 - code, flipped
    yield code, dict(payload, ok=not payload["ok"])
    if "violations" in payload:
        yield code, dict(payload, violations=1)
        yield code, dict(payload, report=[line.replace("1000", "999") for line in payload["report"]])
    if "bound" in payload:
        yield code, dict(payload, bound="1/2")
        yield code, dict(payload, report=[
            "measure of the claim = 1/2" if line.startswith("measure of") else line
            for line in payload["report"]
        ])
    if "line" in payload:
        yield code, dict(payload, line=payload["line"] + 1)


@pytest.mark.parametrize("name", ["soundness", "rounds", "witness", "proofs"])
def test_oracles_accept_the_answer_and_reject_wrong_ones(name, tmp_path):
    calls = workloads.build(name, 7, tmp_path)
    # in order: a model file is written by the call before the queries on it
    sample = {"soundness": calls[:4], "rounds": calls[:2], "witness": calls[:8] + calls[-4:],
              "proofs": calls}[name]
    for call in sample:
        code, payload = _payload(call)
        assert call.check(code, payload) is None, call.argv
        for wrong_code, wrong in _wrong_answers(code, payload):
            assert call.check(wrong_code, wrong) is not None, (call.argv, wrong)


def test_witness_levels_closed_form():
    # honest k=1, threshold 2, n_max 5: 0 up to the threshold, 1 - 1/n, then 1 - e
    got = [oracles.witness_level_measure(n, 2, 1, 5, True) for n in (2, 3, 5, 6, "w")]
    assert [oracles.literal(v) for v in got] == ["0", "2/3", "4/5", "1 + -1 e", "1 + -1 e"]
    dishonest = oracles.witness_level_measure(4, 2, 2, 5, False)
    assert oracles.literal(dishonest) == "15/16 e"
    assert oracles.literal(oracles.just_above(dishonest)) == "15/16 e + 1 e^2"


def test_field_oracle_agrees_with_sympy_and_the_kernel():
    sympy = pytest.importorskip("sympy")
    e = sympy.Symbol("e")
    tiny = sympy.Rational(1, 10**9)  # far below every root for coefficients this small

    def as_expr(v):
        num, den = (sum(sympy.Rational(c) * e**i for i, c in enumerate(p)) for p in v)
        return num / den

    rng = random.Random(1)
    for _ in range(200):
        x = (oracles.poly(*(rng.randint(-3, 3) for _ in range(3))),
             oracles.poly(rng.randint(1, 4), rng.randint(-3, 3)))
        y = (oracles.poly(*(rng.randint(-3, 3) for _ in range(3))), (Fraction(1),))
        expected = int(sympy.sign((as_expr(x) - as_expr(y)).subs(e, tiny)))
        assert oracles.vcmp(x, y) == expected
        assert parse_qeps(oracles.literal(x)).compare(parse_qeps(oracles.literal(y))) == expected


def test_same_seed_same_inputs(tmp_path):
    def inputs(name, seed, d):
        calls = workloads.build(name, seed, d)
        argv = [[a.replace(str(d), "") for a in c.argv] for c in calls]
        return argv, {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    for name in workloads.WORKLOADS:
        first = inputs(name, 3, tmp_path / f"{name}-a")
        assert first == inputs(name, 3, tmp_path / f"{name}-b")
        assert first != inputs(name, 4, tmp_path / f"{name}-c")


def test_traced_run_gives_the_same_verdicts(tmp_path):
    calls = workloads.build("proofs", 5, tmp_path)[:6] + workloads.build(
        "witness", 5, tmp_path / "w")[:40]
    speed = Speed()
    plain = worker.run_rounds(calls, 1, 0, speed)
    original = syntax.parse_formula
    tracer = Tracer()
    tracer.install()
    try:
        assert syntax.parse_formula is not original
        traced = worker.run_rounds(calls, 1, 0, speed)
    finally:
        tracer.uninstall()
    assert syntax.parse_formula is original
    assert plain["failed"] == traced["failed"] == 0
    assert traced["outputs"] == plain["outputs"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = tracer.metrics(names, 0.0)
    assert list(metrics) == names
    assert metrics["cli.calls"] == len(calls)
    assert metrics["proofcheck.parse_derivation_calls"] > 0
    assert metrics["semantics.world_evals"] > 0
    spans = tmp_path / "spans.tsv"
    tracer.write_spans(str(spans))
    assert len(spans.read_text().splitlines()) == len(tracer.span_start) + 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
