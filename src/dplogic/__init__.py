"""Drastic-product logic: formulas, finite algebras, and the chain-multiset
dual category, with decision procedures and free-algebra computations.

Each public name, and each submodule, loads on its first use through the
module's __getattr__ (PEP 562), so `import dplogic` loads no submodule
and a command loads only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# each public name by the module that defines it
_HOMES = {
    "decide": ("CapExceeded", "DPChain", "Verdict", "find_embedding",
               "free_coefficient", "is_theorem", "is_theorem_in_variety"),
    "algebra": ("EvaluationError", "FiniteMTLChain", "ProductAlgebra",
                "delta_axioms", "delta_of", "discriminator",
                "enumerate_homomorphisms", "enumerate_mtl_chains", "evaluate",
                "holds", "is_dp_chain", "is_simple", "satisfies_axiom",
                "separating_formula", "subvariety_index"),
    "duality": ("MCMorphism", "MultisetObj", "coproduct", "enumerate_morphisms",
                "free_cardinality", "free_dual", "height", "kx3_identity_check",
                "mc_inverse", "morphism_count", "power", "product",
                "surjection_count", "top_lift"),
    "formula": ("Bot", "Delta", "Formula", "Iff", "Imp", "Min", "Neg", "Or",
                "ParseError", "Power", "Strong", "Top", "Var", "parse",
                "variables"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("algebra", "cli", "decide", "duality", "formula", "suites")

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


def __getattr__(name: str):
    # called only for a name not yet bound here: a submodule not yet
    # imported, or a public name not yet read, which is then bound
    home = _HOME.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{home or name}"
    __import__(module)  # importing a submodule binds it here
    if home is None:
        return sys.modules[module]
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
