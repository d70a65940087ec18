"""Self-check suites behind the `dp check` subcommand.

Each suite is a list of (name, ok, detail) rows; a suite passes when
every row does.  The checks restate the library's load-bearing algebraic
facts at desk scale, so a green run means the decision procedure, the
axiom classifications and the duality computations are consistent with
one another on exhaustively checkable instances.
"""

from __future__ import annotations

import itertools
import math

from . import algebra as alg
from . import decide
from . import duality as du
from .formula import (
    Bot, Delta, Formula, Iff, Imp, Min, Neg, Or, Power, Strong, Top, Var, variables,
)

CheckRow = tuple[str, bool, str]


def _row(name: str, ok: bool, detail: str = "") -> CheckRow:
    return (name, bool(ok), detail)


def _lukasiewicz3() -> alg.FiniteMTLChain:
    table = [[max(0, x + y - 2) for y in range(3)] for x in range(3)]
    return alg.FiniteMTLChain(table)


def rdp_class(chain) -> bool:
    # the RDP chains are the weak nilpotent minimum chains with the
    # revised drastic product identity; checking rdp alone is weaker
    return alg.satisfies_axiom(chain, "wnm") and alg.satisfies_axiom(chain, "rdp")


def random_formula(rng, depth: int, allow_delta: bool = True,
                   names=("x", "y", "zz")) -> Formula:
    """A random formula at most depth connectives deep over names, the
    constants and every connective (D only if allow_delta), with powers
    up to 5."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var(rng.choice(names)), Bot(), Top()])
    kind = rng.randrange(8 if allow_delta else 7)
    if kind == 7:
        return Delta(random_formula(rng, depth - 1, allow_delta, names))
    if kind == 0:
        return Neg(random_formula(rng, depth - 1, allow_delta, names))
    if kind == 1:
        return Power(random_formula(rng, depth - 1, allow_delta, names),
                     rng.randrange(6))
    a = random_formula(rng, depth - 1, allow_delta, names)
    b = random_formula(rng, depth - 1, allow_delta, names)
    return (Strong, Min, Imp, Or, Iff)[kind - 2](a, b)


def axioms_suite() -> list[CheckRow]:
    import random  # its only user; the other suites start without it

    rows: list[CheckRow] = []
    dp_chains = [alg.DPChain(n) for n in range(2, 8)]
    enumerated = [c for n in range(2, 5) for c in alg.enumerate_mtl_chains(n)]
    chains = dp_chains + enumerated

    ok = all(
        (c.prod(x, z) <= y) == (z <= c.imp(x, y))
        for c in chains
        for x in c.elements() for y in c.elements() for z in c.elements())
    rows.append(_row("residuation law", ok, f"{len(chains)} chains, sizes 2..7"))

    ok = all(alg.is_dp_chain(c) == alg.satisfies_axiom(c, "dp") for c in enumerated)
    rows.append(_row("dp characterization", ok, f"{len(enumerated)} chains of size <= 4"))

    # each chain's classes decided once; rdp as rdp_class decides it
    dp = [c for c in enumerated if alg.is_dp_chain(c)]
    wnm = [c for c in enumerated if alg.satisfies_axiom(c, "wnm")]
    rdp = [c for c in wnm if alg.satisfies_axiom(c, "rdp")]

    ok = all(
        c.product_table == tuple(tuple(d.prod(x, y) for y in d.elements())
                                 for x in d.elements())
        and c.residuum_table == tuple(tuple(d.imp(x, y) for y in d.elements())
                                      for x in d.elements())
        for c in dp for d in [alg.DPChain(c.size)])
    rows.append(_row("dp tables are forced", ok, "product and residuum entry-wise"))

    rdp_not_dp = [c for c in rdp if c not in dp]
    wnm_not_rdp = [c for c in wnm if c not in rdp]
    # rdp is a filter of wnm, so rdp < wnm needs only its strictness witness
    rows.append(_row("class inclusions dp < rdp < wnm",
                     all(c in rdp for c in dp) and rdp_not_dp and wnm_not_rdp,
                     f"strictness witnesses: {len(rdp_not_dp)} and {len(wnm_not_rdp)}"))

    ok = all(alg.is_simple(c) == (c in dp) for c in wnm)
    rows.append(_row("simple wnm chains are dp", ok, f"{len(wnm)} wnm chains"))

    ok = all(c.prod(c.prod(x, x), x) == c.prod(x, x)
             for c in wnm for x in c.elements())
    rows.append(_row("wnm chains satisfy x^3 = x^2", ok))

    ok = all(alg.delta_of(c, x) == (c.top if x == c.top else 0)
             for c in dp_chains for x in c.elements())
    for axiom in alg.delta_axioms():
        ok = ok and all(alg.holds(axiom, c).ok for c in dp_chains)
    rows.append(_row("projection axioms", ok, "five axioms, chains of sizes 2..7"))

    ok = all(
        alg.discriminator(c, x, y, z) == (z if x == y else x)
        for c in dp_chains
        for x in c.elements() for y in c.elements() for z in c.elements())
    rows.append(_row("discriminator two-case law", ok, "chains of sizes 2..7"))

    luk = _lukasiewicz3()
    dp3 = alg.DPChain(3)
    ok = (luk.product_table == tuple(tuple(dp3.prod(x, y) for y in range(3))
                                     for x in range(3))
          and luk.residuum_table == tuple(tuple(dp3.imp(x, y) for y in range(3))
                                          for x in range(3)))
    rows.append(_row("3-element chain is the 3-valued Lukasiewicz chain", ok))

    rng = random.Random(20240317)
    names = ["x", "y", "z"]
    ok = True
    for _ in range(60):
        f = random_formula(rng, rng.randrange(1, 5), names=names)
        k = len(variables(f))
        fast = alg.is_theorem(f).ok
        slow = all(alg.holds(f, alg.DPChain(n)).ok for n in range(2, k + 4))
        if fast != slow:
            ok = False
            break
    rows.append(_row("decision procedure agrees with full sweep", ok,
                     "60 random formulas"))

    ok = all(alg.find_embedding(alg.DPChain(m), alg.DPChain(n)) is not None
             for m in range(2, 7) for n in range(m, 7))
    ok = ok and all(alg.find_embedding(alg.DPChain(n), alg.DPChain(m)) is None
                    for m in range(2, 7) for n in range(m + 1, 7))
    rows.append(_row("embeddings go from smaller to larger only", ok))

    return rows


def _small_objects(max_instances: int, max_length: int,
                   include_empty: bool = False) -> list[du.MultisetObj]:
    out = []
    lengths = range(1, max_length + 1)
    for count in range(0 if include_empty else 1, max_instances + 1):
        for combo in itertools.combinations_with_replacement(lengths, count):
            out.append(du.MultisetObj.from_lengths(combo))
    return out


def duality_suite() -> list[CheckRow]:
    rows: list[CheckRow] = []

    objs = _small_objects(3, 4, include_empty=True)
    ok = all(du.product(c, d) == du.product(d, c)
             for c in objs for d in objs)
    rows.append(_row("product is commutative", ok, f"{len(objs)} objects"))

    small = _small_objects(2, 3, include_empty=True)
    ok = all(du.product(du.product(c, d), e) == du.product(c, du.product(d, e))
             for c in small for d in small for e in small)
    rows.append(_row("product is associative", ok, f"{len(small)} objects"))

    ok = all(du.product(c, du.coproduct(d, e))
             == du.coproduct(du.product(c, d), du.product(c, e))
             for c in small for d in small for e in small)
    rows.append(_row("product distributes over coproduct", ok))

    nonempty = _small_objects(2, 3)
    ok = all(du.morphism_count(c, du.TERMINAL) == 1
             and len(du.enumerate_morphisms(c, du.TERMINAL)) == 1
             for c in nonempty)
    ok = ok and all(du.product(c, du.TERMINAL) == c for c in objs)
    rows.append(_row("the one-element chain is terminal", ok))

    ok = all(du.morphism_count(x, du.product(a, b))
             == du.morphism_count(x, a) * du.morphism_count(x, b)
             for x in nonempty for a in nonempty for b in nonempty)
    rows.append(_row("hom counts into a product multiply", ok,
                     f"{len(nonempty)}^3 triples"))

    ok = all(du.morphism_count(c, d) == len(du.enumerate_morphisms(c, d))
             for c in nonempty for d in nonempty)
    rows.append(_row("closed-form morphism count matches enumeration", ok))

    ok = True
    # homomorphisms into a product are the tuples of homomorphisms into
    # its factors, the chains of sizes l + 1, so each source is searched
    # once per chain length
    lengths = sorted({l for c in nonempty for l in c.lengths()})
    for d in nonempty:
        src = du.mc_inverse(d)
        into = {l: len(alg.enumerate_homomorphisms(src, alg.DPChain(l + 1)))
                for l in lengths}
        for c in nonempty:
            if du.morphism_count(c, d) != math.prod(into[l] for l in c.lengths()):
                ok = False
    rows.append(_row("dual hom counts match algebra homomorphisms", ok,
                     f"{len(nonempty)}^2 object pairs"))

    ok = all(du.height(du.coproduct(c, d)) == max(du.height(c), du.height(d))
             for c in nonempty for d in nonempty)
    rows.append(_row("height of a coproduct is the max", ok))

    ok = True
    for c in nonempty:
        for d in nonempty:
            for f in du.enumerate_morphisms(c, d):
                src = c.lengths()
                tgt = d.lengths()
                if any(tgt[j] > src[i] for i, (j, _) in enumerate(f.components)):
                    ok = False
                if set(j for j, _ in f.components) == set(range(len(tgt))):
                    if du.height(d) > du.height(c):
                        ok = False
    rows.append(_row("surjections never raise height", ok,
                     "componentwise, and object-level when every target is hit"))

    ok = all(du.height(du.power(du.MultisetObj.from_lengths([n - 1]), k)) <= n - 1
             for n in (2, 3) for k in range(1, 4))
    ok = ok and all(
        alg.subvariety_index(du.mc_inverse(c)) == du.height(c) + 1
        for c in nonempty)
    rows.append(_row("height bounds the generated subvariety", ok,
                     "powers of {1} and {2}; factor sizes elsewhere"))

    ok = all(du.kx3_identity_check(k) for k in range(2, 13))
    rows.append(_row("product of {k} with {3} matches the closed form", ok))

    # the recursion that product's closed form solves, past the lengths above
    def times(a: int, b: int) -> du.MultisetObj:
        return du.product(du.MultisetObj.from_lengths([a]), du.MultisetObj.from_lengths([b]))

    ok = all(times(a, b) == du.top_lift(du.coproduct(
                 du.coproduct(times(a, b - 1), times(a - 1, b - 1)), times(a - 1, b)))
             for a in range(3, 9) for b in range(3, 9))
    rows.append(_row("single-chain products lift their predecessors", ok,
                     "3 <= a, b <= 8"))

    ok = all(
        du.mc_inverse(du.coproduct(c, d)).factors
        == du.mc_inverse(du.coproduct(d, c)).factors
        and sorted(f.size for f in du.mc_inverse(du.coproduct(c, d)).factors)
        == sorted([f.size for f in du.mc_inverse(c).factors]
                  + [f.size for f in du.mc_inverse(d).factors])
        for c in nonempty for d in nonempty)
    rows.append(_row("coproduct dualizes to a product of algebras", ok))

    return rows


def free_suite() -> list[CheckRow]:
    rows: list[CheckRow] = []

    # the power route's duals to k = 6 and the closed form's above
    duals = {k: du.free_dual(k) if k < 7 else du.free_dual_closed_form(k)
             for k in range(13)}
    ok = all(duals[k] == du.free_dual_closed_form(k) == du.free_dual_recurrence(k)
             for k in range(7))
    rows.append(_row("power, closed form and recurrence agree", ok, "k = 0..6"))

    # Hom(F(k), A) is A^k, so dually c has |mc_inverse(c)|^k morphisms into the dual
    objs = _small_objects(3, 4)
    ok = all(du.morphism_count(c, dual) == math.prod(l + 1 for l in c.lengths()) ** k
             for c in objs for k, dual in duals.items())
    rows.append(_row("universal property: |Hom(c, dual of F(k))| = |c*|^k", ok,
                     f"{len(objs)} objects, k = 0..12"))

    ok = (duals[1] == du.MultisetObj.from_lengths([1, 1, 2, 3])
          and du.free_cardinality(1) == 48
          and duals[0] == du.TERMINAL
          and du.free_cardinality(0) == 2)
    rows.append(_row("one generator gives 48 elements with dual {1,1,2,3}", ok))

    # with c = {s-1} the morphisms are the s^k valuations on C_s; those onto
    # C_s, the exact ones the decision sweep visits, number the (s-1)-chains
    ok = all(sum(n for n, _ in decide._exact_blocks(decide._Prefixes(k, s),
                                                     decide._BLOCK_BYTES))
             == du.free_coefficient(k, s - 1)
             for k in range(1, 6) for s in range(2, k + 4))
    rows.append(_row("exact valuations on C_s number the dual's (s-1)-chains", ok,
                     "k = 1..5, s = 2..k+3"))

    # one more generator multiplies the dual by the dual of F(1)
    ok = all(du.free_dual_closed_form(k + 1)
             == du.product(du.free_dual_closed_form(k), du.FREE_ONE_DUAL)
             for k in range(12))
    rows.append(_row("the closed form takes the power step", ok, "k = 0..11"))

    return rows


SUITES = {
    "axioms": axioms_suite,
    "duality": duality_suite,
    "free": free_suite,
}


def run_suite(name: str) -> list[CheckRow]:
    if name == "all":
        rows: list[CheckRow] = []
        for key in ("axioms", "duality", "free"):
            rows.extend(SUITES[key]())
        return rows
    try:
        return SUITES[name]()
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
