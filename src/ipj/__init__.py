"""Verification kernel for a probabilistic two-agent justification logic.

Submodules:

- ``qeps``       exact arithmetic in the ordered field Q[e] of rational
                 functions of a positive infinitesimal
- ``syntax``     terms, formulas, parsing and printing
- ``ispec``      interaction specifications (which formulas are provable
                 interactively, at which complexity thresholds)
- ``proofcheck`` Hilbert-style derivation checking, including parametric
                 templates for the two infinitary rules
- ``semantics``  finite epistemic models, quasimodels, model conditions
- ``protosim``   round-based protocol models and bound witnesses
- ``generators`` seeded random generators for property testing
- ``cli``        the ``ipj`` command-line frontend
"""

from .qeps import QEps, parse_qeps
from .syntax import (
    parse_eformula,
    parse_formula,
    parse_term,
    print_eformula,
    print_formula,
    print_term,
)
from .ispec import InteractionSpec, load_spec, load_spec_file
from .proofcheck import check_derivation, load_derivation_file, match_axiom
from .semantics import (
    EpistemicModel,
    Quasimodel,
    check_model_conditions,
    load_model_file,
    write_model_file,
)
from .protosim import RoundConfig, build_interaction_witness, build_round_model, verify_ipp_bound

__all__ = [
    "QEps",
    "parse_qeps",
    "parse_term",
    "parse_eformula",
    "parse_formula",
    "print_term",
    "print_eformula",
    "print_formula",
    "InteractionSpec",
    "load_spec",
    "load_spec_file",
    "match_axiom",
    "check_derivation",
    "load_derivation_file",
    "EpistemicModel",
    "Quasimodel",
    "check_model_conditions",
    "load_model_file",
    "write_model_file",
    "RoundConfig",
    "build_round_model",
    "verify_ipp_bound",
    "build_interaction_witness",
]
