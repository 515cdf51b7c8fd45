"""Spans and counters around the public functions of the ``ipj`` modules.

The tracer works from outside the program: ``install`` rebinds each target
function on every ``ipj`` module and class that binds it, and ``uninstall``
puts the originals back.  There are three kinds of target:

- a *span* records (name, start, end, parent) in memory;
- a *count* only counts calls, for calls that cost less than timing them
  would (QEps operators, per-world evaluation); their time stays in the
  enclosing span;
- a *timer* accumulates its time without opening a span, so that time also
  stays in the enclosing span's self time (QEps normalisation).

Spans are kept in flat arrays and written out by ``write_spans`` after the
run.  ``metrics`` turns spans and counters into the per-layer metrics; every
count and time is divided by the number of CLI calls traced.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

# span name -> metric group.  A group's calls and inclusive time count only
# spans with no enclosing span of the same group, so recursion and wrappers
# (parse_eformula -> parse_formula) are not counted twice.
SPANS = {
    "cli.main": "cli.main",
    "syntax.parse_formula": "syntax.parse",
    "syntax.parse_eformula": "syntax.parse",
    "syntax.parse_term": "syntax.parse",
    "syntax.print_formula": "syntax.print",
    "syntax.print_eformula": "syntax.print",
    "syntax.print_term": "syntax.print",
    "ispec.InteractionSpec.threshold": "ispec.threshold",
    "proofcheck.parse_derivation": "proofcheck.parse_derivation",
    "proofcheck.check_derivation": "proofcheck.check_derivation",
    "proofcheck.match_axiom": "proofcheck.match_axiom",
    "proofcheck.is_tautology": "proofcheck.is_tautology",
    "proofcheck.instantiate_schema": "proofcheck.instantiate_schema",
    "proofcheck.is_axiom_chain": "proofcheck.is_axiom_chain",
    "semantics.EpistemicModel.__init__": "semantics.model_build",
    "semantics.parse_model_file": "semantics.model_parse",
    "semantics.write_model_file": "semantics.model_write",
    "semantics.Quasimodel.measure_of": "semantics.measure_of",
    "semantics.Quasimodel.eval": "semantics.eval",
    "semantics.check_model_conditions": "semantics.check_model_conditions",
    "protosim.build_round_model": "protosim.build_round_model",
    "protosim.verify_ipp_bound": "protosim.verify_ipp_bound",
    "protosim.build_interaction_witness": "protosim.build_witness",
    "generators.rand_model": "generators.rand_model",
    "generators.rand_axiom_instance": "generators.rand_axiom_instance",
}

QEPS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "compare")
COUNTS = {
    "semantics.EpistemicModel.eval": "semantics.world_evals",
    "semantics.EpistemicModel.evidence_member": "semantics.evidence_member_calls",
    "qeps._pgcd": "qeps.gcd",
    "proofcheck._load_template": "proofcheck.template_loads",
    **{f"qeps.QEps.{op}": "qeps.op" for op in QEPS_OPS},
}
TIMERS = {"qeps.QEps.__init__": "qeps.normalise"}


def _is_rational(x) -> bool:
    return not hasattr(x, "is_rational") or x.is_rational


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name by id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.timer_s: dict[str, float] = defaultdict(float)
        self.templates: set = set()
        self._qeps_depth = 0
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, on_enter=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, stack, clock = self.span_parent, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts
        if key == "qeps.op":
            tracer = self

            def qeps_op(a, b):
                if tracer._qeps_depth:
                    return fn(a, b)
                counts["qeps.op"] += 1
                if _is_rational(a) and _is_rational(b):
                    counts["qeps.rational_op"] += 1
                tracer._qeps_depth += 1
                try:
                    return fn(a, b)
                finally:
                    tracer._qeps_depth -= 1

            return qeps_op
        if key == "qeps.gcd":

            def gcd(a, b):
                g = fn(a, b)
                if len(g) > 1:
                    counts["qeps.gcd_useful"] += 1
                return g

            return gcd
        if key == "proofcheck.template_loads":
            templates = self.templates

            def load_template(d, path, depth):
                counts[key] += 1
                templates.add((d.base_dir, path))
                return fn(d, path, depth)

            return load_template

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timer(self, key: str, fn):
        counts, timer_s, clock = self.counts, self.timer_s, time.perf_counter

        def timed(*args, **kwargs):
            counts[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timer_s[key] += clock() - t0

        return timed

    def _parse_chars(self, args):
        # only the outermost parse call counts its text
        if not self.stack or SPANS[self.names[self.span_name[self.stack[-1]]]] != "syntax.parse":
            self.counts["syntax.parse_chars"] += len(args[0])

    def _models_built(self, fn):
        counts = self.counts

        def init(model, *args, **kwargs):
            fn(model, *args, **kwargs)
            counts["semantics.worlds_built"] += len(model.worlds)

        return init

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every target on every loaded ``ipj`` module and class."""
        modules = {name[4:] or "ipj": mod for name, mod in sys.modules.items()
                   if name == "ipj" or name.startswith("ipj.")}
        targets = {}
        for name, kind in [(n, "span") for n in SPANS] + [(n, "count") for n in COUNTS] + [
            (n, "timer") for n in TIMERS
        ]:
            mod, *path = name.split(".")
            obj = modules[mod]
            for part in path[:-1]:
                obj = getattr(obj, part)
            original = vars(obj)[path[-1]]
            if original in targets:
                continue
            if kind == "span":
                on_enter = self._parse_chars if SPANS[name] == "syntax.parse" else None
                fn = original
                if name == "semantics.EpistemicModel.__init__":
                    fn = self._models_built(original)
                wrapper = self._span(name, fn, on_enter)
            elif kind == "count":
                wrapper = self._count(COUNTS[name], original)
            else:
                wrapper = self._timer(TIMERS[name], original)
            targets[original] = wrapper
        # every binding of a target: module globals (names imported with
        # "from ... import") and class attributes (aliases such as __radd__)
        holders = {id(m): m for m in modules.values()}
        for mod in modules.values():
            holders.update((id(v), v) for v in vars(mod).values()
                           if isinstance(v, type) and v.__module__.startswith("ipj"))
        for holder in holders.values():
            for attr, value in list(vars(holder).items()):
                try:
                    wrapper = targets.get(value)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str):
        """One line per span: name, start, end, parent index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )

    def group_totals(self) -> tuple[Counter, dict, dict]:
        """Per group: outermost calls, their inclusive time, and self time."""
        calls: Counter = Counter()
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        child_s = [0.0] * len(self.span_start)
        groups = [SPANS[n] for n in self.names]
        span_group = [groups[i] for i in self.span_name]
        for i in range(len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            p = self.span_parent[i]
            if p >= 0:
                child_s[p] += dur
        for i in range(len(self.span_start)):
            dur = self.span_end[i] - self.span_start[i]
            g = span_group[i]
            self_s[g] += dur - child_s[i]
            p = self.span_parent[i]
            while p >= 0 and span_group[p] != g:
                p = self.span_parent[p]
            if p < 0:
                calls[g] += 1
                incl[g] += dur
        return calls, incl, self_s

    def metrics(self, names: list, overhead_s: float, scale: float = 1.0) -> dict:
        """The per-layer metrics ``names``; times are multiplied by ``scale``.

        A name not computed below is ``<group>_calls`` (outermost spans of the
        group) or ``<group>_s`` (their inclusive time).
        """
        calls, incl, self_s = self.group_totals()
        incl = {g: t * scale for g, t in incl.items()}
        self_s = {g: t * scale for g, t in self_s.items()}
        c = self.counts
        n = calls["cli.main"]
        per = (lambda x: x / n) if n else (lambda x: 0.0)
        out = {
            "qeps.op_calls": per(c["qeps.op"]),
            "qeps.normalise_calls": per(c["qeps.normalise"]),
            "qeps.normalise_s": per(self.timer_s["qeps.normalise"] * scale),
            "qeps.rational_op_ratio": c["qeps.rational_op"] / c["qeps.op"] if c["qeps.op"] else 0.0,
            "qeps.gcd_useful_ratio": (
                c["qeps.gcd_useful"] / c["qeps.normalise"] if c["qeps.normalise"] else 0.0
            ),
            "syntax.parse_chars_per_s": (
                c["syntax.parse_chars"] / incl["syntax.parse"] if incl.get("syntax.parse") else 0.0
            ),
            "proofcheck.template_reuse_ratio": (
                len(self.templates) / c["proofcheck.template_loads"]
                if c["proofcheck.template_loads"] else 0.0
            ),
            "proofcheck.check_derivation_s": per(self_s.get("proofcheck.check_derivation", 0.0)),
            "semantics.worlds_built": per(c["semantics.worlds_built"]),
            "semantics.world_evals": per(c["semantics.world_evals"]),
            "semantics.evidence_member_calls": per(c["semantics.evidence_member_calls"]),
            "cli.calls": n,
            "cli.self_s": per(self_s.get("cli.main", 0.0)),
            "trace.overhead_s": per(overhead_s),
        }
        for name in names:
            if name in out:
                continue
            group, _, kind = name.rpartition("_")
            if kind == "calls":
                out[name] = per(calls[group])
            elif kind == "s":
                out[name] = per(incl.get(group, 0.0))
            else:
                raise KeyError(name)
        return {name: out[name] for name in names}
