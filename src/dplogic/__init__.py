"""Drastic-product logic: formulas, finite algebras, and the chain-multiset
dual category, with decision procedures and free-algebra computations."""

from .algebra import (
    CapExceeded, DPChain, EvaluationError, FiniteMTLChain, ProductAlgebra,
    Verdict, delta_axioms, delta_of, discriminator, enumerate_homomorphisms,
    enumerate_mtl_chains, evaluate, find_embedding, holds, is_dp_chain,
    is_simple, is_theorem, is_theorem_in_variety, satisfies_axiom,
    separating_formula, subvariety_index,
)
from .duality import (
    MCMorphism, MultisetObj, coproduct, enumerate_morphisms, free_cardinality,
    free_coefficient, free_dual, height, kx3_identity_check, mc_inverse,
    morphism_count, power, product, surjection_count, top_lift,
)
from .formula import (
    Bot, Delta, Formula, Iff, Imp, Min, Neg, Or, ParseError, Power, Strong,
    Top, Var, parse, variables,
)

__version__ = "0.1.0"

__all__ = [
    "Bot", "CapExceeded", "DPChain", "Delta", "EvaluationError",
    "FiniteMTLChain", "Formula", "Iff", "Imp", "MCMorphism", "Min",
    "MultisetObj", "Neg", "Or", "ParseError", "Power", "ProductAlgebra",
    "Strong", "Top", "Var", "Verdict", "coproduct", "delta_axioms",
    "delta_of", "discriminator", "enumerate_homomorphisms",
    "enumerate_morphisms", "enumerate_mtl_chains", "evaluate",
    "find_embedding", "free_cardinality", "free_coefficient", "free_dual",
    "height", "holds", "is_dp_chain", "is_simple", "is_theorem",
    "is_theorem_in_variety", "kx3_identity_check", "mc_inverse",
    "morphism_count", "parse", "power", "product", "satisfies_axiom",
    "separating_formula", "subvariety_index", "surjection_count",
    "top_lift", "variables",
]
