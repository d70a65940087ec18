"""Chain operations, axiom classification, homomorphisms, theoremhood."""

import itertools
import os
import random
import subprocess
import sys
import time
from functools import reduce

import pytest

from dplogic import (
    Bot, CapExceeded, Delta, DPChain, EvaluationError, FiniteMTLChain, Iff, Imp,
    Min, Neg, Or, Power, ProductAlgebra, Strong, Top, Var, Verdict, delta_axioms,
    delta_of, discriminator,
    enumerate_homomorphisms, enumerate_mtl_chains, evaluate, find_embedding,
    holds, is_dp_chain, is_simple, is_theorem, is_theorem_in_variety, parse,
    satisfies_axiom, separating_formula, subvariety_index, variables,
)
from dplogic import algebra, decide
from dplogic.algebra import (
    algebra_to_json, axiom_instance,
    element_name, generating_set, principal_filter, witness_to_json,
)
from dplogic.decide import _Lanes
from dplogic.suites import random_formula
from free_oracle import free_algebra_bruteforce

ALL_OPS = ("prod", "imp", "meet", "join")


def godel_chain(n):
    return FiniteMTLChain([[min(x, y) for y in range(n)] for x in range(n)])


def lukasiewicz_chain(n):
    return FiniteMTLChain(
        [[max(0, x + y - (n - 1)) for y in range(n)] for x in range(n)])


# 0 < a < b < 1 with a*b = 0 and b*b = a; fails both (rdp) and (wnm)
SUBIDEMPOTENT4 = FiniteMTLChain(
    [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 2], [0, 1, 2, 3]])


def _closure(algebra, seed):
    """The subalgebra generated by seed, by naive fixpoint iteration over
    element tuples: the oracle for generating sets and exact valuations."""
    elems = {algebra.bot, algebra.top} | set(seed)
    while True:
        new = set()
        for x in elems:
            for y in elems:
                for op in (algebra.prod, algebra.imp, algebra.meet, algebra.join):
                    z = op(x, y)
                    if z not in elems:
                        new.add(z)
        if not new:
            return elems
        elems |= new

# the nilpotent-minimum table on four elements: b*b = b instead
NM4 = FiniteMTLChain(
    [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]])


def test_dp_chain_product_and_residuum_formulas():
    for n in range(2, 8):
        chain = DPChain(n)
        top = n - 1
        for x in range(n):
            for y in range(n):
                want = min(x, y) if x == top or y == top else 0
                assert chain.prod(x, y) == want
                if x <= y:
                    want = top
                elif x < top:
                    want = chain.coatom
                else:
                    want = y
                assert chain.imp(x, y) == want


def test_dp_chain_size_validation():
    with pytest.raises(ValueError):
        DPChain(1)


def test_coatom_is_the_unique_negation_fixpoint():
    for n in range(3, 8):
        chain = DPChain(n)
        fixed = [x for x in chain.elements() if chain.neg(x) == x]
        assert fixed == [chain.coatom]


def test_eval_examples_on_three_chain():
    chain = DPChain(3)
    c = chain.coatom
    assert evaluate(parse("x & y"), chain, {"x": c, "y": c}) == 0
    assert evaluate(parse("x -> y"), chain, {"x": c, "y": 0}) == c
    for a in chain.elements():
        assert evaluate(parse("1 -> x"), chain, {"x": a}) == a


def test_eval_errors():
    chain = DPChain(3)
    with pytest.raises(EvaluationError):
        evaluate(parse("x"), chain, {})
    with pytest.raises(EvaluationError):
        evaluate(parse("D x"), godel_chain(3), {"x": 1})
    # (D x)^0 is 1 wherever D is defined, but D is not defined here
    f = parse("(D x)^0 -> x")
    with pytest.raises(EvaluationError, match="D is only defined"):
        evaluate(f, godel_chain(3), {"x": 1})
    with pytest.raises(EvaluationError, match="D is only defined"):
        holds(f, godel_chain(3))
    assert evaluate(f, chain, {"x": 1}) == 1


def test_holds_dp_axiom_and_excluded_middle():
    dp_axiom = parse("x \\/ ~(x^2)")
    for n in range(2, 8):
        assert holds(dp_axiom, DPChain(n)).ok
    verdict = holds(parse("x \\/ ~x"), DPChain(3))
    assert not verdict.ok
    assert verdict.valuation == {"x": 1}
    assert verdict.value == 1


def test_holds_rdp_identity_on_dp_chains():
    rdp = parse("(x -> ~x) \\/ ~~x")
    for n in range(2, 8):
        assert holds(rdp, DPChain(n)).ok


def evaluate_by_ladder(f, algebra, valuation):
    """f's value by recursion over the AST, the evaluator that the compiled
    one replaced: the oracle for evaluate and holds."""
    def ev(g):
        return evaluate_by_ladder(g, algebra, valuation)

    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {f.name!r}") from None
    if isinstance(f, Bot):
        return algebra.bot
    if isinstance(f, Top):
        return algebra.top
    if isinstance(f, Neg):
        return algebra.imp(ev(f.arg), algebra.bot)
    if isinstance(f, Delta):
        return delta_of(algebra, ev(f.arg))
    if isinstance(f, Power):
        x, out = ev(f.arg), algebra.top
        for _ in range(f.n):
            out = algebra.prod(out, x)
        return out
    a, b = ev(f.lhs), ev(f.rhs)
    if isinstance(f, Iff):
        return algebra.prod(algebra.imp(a, b), algebra.imp(b, a))
    ops = {Strong: algebra.prod, Min: algebra.meet, Imp: algebra.imp, Or: algebra.join}
    return ops[type(f)](a, b)


def test_evaluate_matches_the_recursive_evaluator():
    rng = random.Random(41017)
    algebras = [DPChain(n) for n in range(2, 7)] + [
        godel_chain(4), lukasiewicz_chain(5), SUBIDEMPOTENT4, NM4,
        ProductAlgebra([2, 4]), ProductAlgebra([3, 3, 2])]
    values = errors = 0
    for _ in range(400):
        f = random_formula(rng, rng.randrange(1, 8))
        names = variables(f)
        for algebra in algebras:
            elems = list(algebra.elements())
            v = {name: rng.choice(elems) for name in names}
            if names and rng.random() < 0.1:
                del v[rng.choice(names)]
            try:
                want = evaluate_by_ladder(f, algebra, v)
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    evaluate(f, algebra, v)
                errors += 1
                continue
            assert evaluate(f, algebra, v) == want, (str(f), algebra, v)
            values += 1
    # D on the MTL-chains and unbound variables are both well represented
    assert values > 2500 and errors > 600


def holds_by_evaluate(f, algebra):
    """holds as a sweep of the recursive evaluator: the oracle."""
    names = variables(f)
    for combo in itertools.product(list(algebra.elements()), repeat=len(names)):
        v = dict(zip(names, combo))
        value = evaluate_by_ladder(f, algebra, v)
        if value != algebra.top:
            return (False, algebra, v, value)
    return (True, None, None, None)


def test_holds_matches_a_sweep_of_evaluate():
    rng = random.Random(52711)
    algebras = [DPChain(n) for n in range(2, 6)] + [
        godel_chain(3), lukasiewicz_chain(4), SUBIDEMPOTENT4, NM4,
        ProductAlgebra([2, 3]), ProductAlgebra([3, 2, 2])]
    refuted = 0
    for _ in range(300):
        f = random_formula(rng, rng.randrange(1, 7))
        for algebra in algebras:
            try:
                want = holds_by_evaluate(f, algebra)
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    holds(f, algebra)
                continue
            got = holds(f, algebra)
            assert (got.ok, got.algebra, got.valuation, got.value) == want, str(f)
            refuted += not got.ok
    assert 500 < refuted < 2400


def test_holds_cap(monkeypatch):
    monkeypatch.setattr(decide, "DEFAULT_CAP", 100)
    with pytest.raises(CapExceeded):
        holds(parse("x & y & z"), DPChain(7))


def test_caps_are_checked_before_any_element_is_listed(monkeypatch):
    def listed(self):
        raise AssertionError("the elements were listed")
    monkeypatch.setattr(DPChain, "elements", listed)
    huge = DPChain(10**12)
    with pytest.raises(CapExceeded):
        holds(parse("x"), huge)
    with pytest.raises(CapExceeded):
        is_simple(huge)
    # a formula without variables is one point, whatever the algebra
    monkeypatch.setattr(decide, "DEFAULT_CAP", 1)
    verdict = holds(parse("1 -> 0"), huge)
    assert (verdict.ok, verdict.valuation, verdict.value) == (False, {}, 0)


def test_residuation_law_everywhere():
    chains = [DPChain(n) for n in range(2, 8)]
    chains += [godel_chain(n) for n in range(2, 8)]
    chains += [lukasiewicz_chain(n) for n in range(2, 8)]
    for n in range(2, 5):
        chains += enumerate_mtl_chains(n)
    for chain in chains:
        for x in chain.elements():
            for y in chain.elements():
                for z in chain.elements():
                    assert (chain.prod(x, z) <= y) == (z <= chain.imp(x, y))


def test_mtl_chain_validation():
    with pytest.raises(ValueError):
        FiniteMTLChain([[0, 0], [1, 1]])  # top not the unit
    with pytest.raises(ValueError):
        FiniteMTLChain([[0, 0, 0], [0, 1, 1], [0, 2, 2]])  # top row broken
    with pytest.raises(ValueError):
        FiniteMTLChain([[0, 0, 0], [0, 0, 2], [0, 1, 2]])  # 1 * 2 is 2: top not the unit
    with pytest.raises(ValueError):
        FiniteMTLChain([[0]])  # too small
    # a legal table passes and derives the residuum
    chain = godel_chain(3)
    assert chain.imp(2, 1) == 1
    assert chain.imp(1, 2) == 2


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: FiniteMTLChain([[0, 0], [0]]), "product table must be square",
                 id="not-square"),
    pytest.param(lambda: FiniteMTLChain([[0, 0], [0, 2]]), "table entry 2 outside 0..1",
                 id="above-top"),
    pytest.param(lambda: FiniteMTLChain([[0, 0], [0, -1]]), "table entry -1 outside 0..1",
                 id="below-bottom"),
    pytest.param(lambda: FiniteMTLChain([[1, 0, 0], [0, 1, 1], [0, 1, 2]]),
                 "bottom element must be absorbing", id="bottom-not-absorbing"),
    pytest.param(lambda: FiniteMTLChain([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2], [0, 1, 2, 3]]),
                 "table not commutative at (1,2)", id="not-commutative"),
    pytest.param(lambda: FiniteMTLChain([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]),
                 "table not monotone at (1,1)", id="not-monotone"),
    pytest.param(lambda: axiom_instance("ncontract(0)"), "ncontract(n) needs n >= 1",
                 id="ncontract-0"),
])
def test_algebra_input_checks_name_what_they_refuse(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("size", [2.5, 3.0, True, "3", None], ids=repr)
def test_chain_sizes_must_be_ints(size):
    # a float size built a chain with a float top, on which holds later
    # failed with a bare TypeError
    message = f"chain size must be an int, got {size!r}"
    with pytest.raises(ValueError) as err:
        DPChain(size)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        ProductAlgebra([3, size])
    assert str(err.value) == message


def test_is_dp_chain_examples():
    assert is_dp_chain(DPChain(2))
    assert is_dp_chain(DPChain(3))
    mv3 = lukasiewicz_chain(3)
    assert is_dp_chain(mv3)
    assert not is_dp_chain(godel_chain(3))


def test_three_element_dp_chain_is_lukasiewicz():
    dp3 = DPChain(3)
    mv3 = lukasiewicz_chain(3)
    for x in range(3):
        for y in range(3):
            assert dp3.prod(x, y) == mv3.prod(x, y)
            assert dp3.imp(x, y) == mv3.imp(x, y)


def _naive_mtl_tables(n):
    """Independent oracle: filter every symmetric monotone table."""
    top = n - 1
    cells = [(x, y) for x in range(1, top) for y in range(x, top)]
    tables = []
    for values in itertools.product(*[range(min(x, y) + 1) for x, y in cells]):
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            table[x][top] = table[top][x] = x
        for (x, y), v in zip(cells, values):
            table[x][y] = table[y][x] = v
        ok = all(table[x][y] <= table[x][y + 1]
                 for x in range(n) for y in range(n - 1))
        ok = ok and all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(n) for y in range(n) for z in range(n))
        if ok:
            tables.append(tuple(tuple(row) for row in table))
    return tables


def test_enumeration_matches_naive_oracle():
    # the same tables in the same order: lexicographic in the free entries
    for n in range(2, 6):
        fast = [c.product_table for c in enumerate_mtl_chains(n)]
        assert fast == _naive_mtl_tables(n)


def test_enumeration_golden_counts():
    assert len(enumerate_mtl_chains(2)) == 1
    assert len(enumerate_mtl_chains(3)) == 2
    assert len(enumerate_mtl_chains(4)) == 6
    assert len(enumerate_mtl_chains(5)) == 22
    for n in range(2, 6):
        assert sum(is_dp_chain(c) for c in enumerate_mtl_chains(n)) == 1


def test_enumeration_size_three_is_dp_plus_godel():
    chains = enumerate_mtl_chains(3)
    tables = {c.product_table for c in chains}
    assert godel_chain(3).product_table in tables
    assert lukasiewicz_chain(3).product_table in tables


def test_enumeration_cap():
    # above size 5 is a cap (exit 3 from dp chains), below 2 a bad size
    with pytest.raises(CapExceeded):
        enumerate_mtl_chains(6)
    with pytest.raises(ValueError):
        enumerate_mtl_chains(1)


def test_satisfies_axiom_examples():
    for n in range(2, 8):
        assert satisfies_axiom(DPChain(n), "wnm")
        assert satisfies_axiom(DPChain(n), "dp")
        assert satisfies_axiom(DPChain(n), "rdp")
    assert not satisfies_axiom(SUBIDEMPOTENT4, "rdp")
    assert satisfies_axiom(NM4, "wnm")
    assert not satisfies_axiom(NM4, "rdp")
    assert satisfies_axiom(godel_chain(4), "wnm")
    assert satisfies_axiom(godel_chain(4), "rdp")


def test_skmtl_two_holds_only_on_the_boolean_chain():
    for n in range(2, 5):
        for chain in enumerate_mtl_chains(n):
            assert satisfies_axiom(chain, "skmtl(2)") == (n == 2)


def test_skmtl_matches_dp_axiom_at_three():
    for n in range(2, 5):
        for chain in enumerate_mtl_chains(n):
            assert (satisfies_axiom(chain, "skmtl(3)")
                    == satisfies_axiom(chain, "dp"))


def test_ncontract():
    for n in range(2, 8):
        assert satisfies_axiom(DPChain(n), "ncontract(3)")
    assert not satisfies_axiom(DPChain(3), "ncontract(2)")
    assert satisfies_axiom(godel_chain(5), "ncontract(2)")


def test_ncontract_equation_respects_the_cap(monkeypatch):
    # x^3 = x^2 is checked through holds: 5 points on the 5-chain
    monkeypatch.setattr(decide, "DEFAULT_CAP", 5)
    assert satisfies_axiom(DPChain(5), "ncontract(3)")
    monkeypatch.setattr(decide, "DEFAULT_CAP", 4)
    with pytest.raises(CapExceeded):
        satisfies_axiom(DPChain(5), "ncontract(3)")
    monkeypatch.setattr(decide, "DEFAULT_CAP", 11)
    with pytest.raises(CapExceeded):
        satisfies_axiom(ProductAlgebra([3, 4]), "ncontract(2)")


def test_axiom_name_validation():
    with pytest.raises(ValueError):
        axiom_instance("nope")
    with pytest.raises(ValueError):
        axiom_instance("skmtl(1)")


def test_prop1_inclusions_with_strict_witnesses():
    enumerated = [c for n in range(2, 5) for c in enumerate_mtl_chains(n)]
    wnm = {c for c in enumerated if satisfies_axiom(c, "wnm")}
    rdp = {c for c in wnm if satisfies_axiom(c, "rdp")}
    dp = {c for c in enumerated if is_dp_chain(c)}
    assert dp <= rdp <= wnm
    assert rdp - dp  # e.g. Goedel chains
    assert wnm - rdp  # e.g. the nilpotent-minimum four-chain
    assert godel_chain(3) in rdp - dp
    assert NM4 in wnm - rdp


def test_rdp_identity_alone_does_not_give_wnm():
    """Some size-4 chain satisfies (rdp) but fails (wnm), so the RDP class
    is cut out by both identities together."""
    enumerated = enumerate_mtl_chains(4)
    odd = [c for c in enumerated
           if satisfies_axiom(c, "rdp") and not satisfies_axiom(c, "wnm")]
    assert odd


def test_is_simple_examples():
    for n in range(2, 8):
        assert is_simple(DPChain(n))
    assert not is_simple(godel_chain(3))
    assert principal_filter(godel_chain(3), 1) == {1, 2}
    assert not is_simple(ProductAlgebra([2, 2]))
    assert not is_simple(ProductAlgebra([4, 3]))
    with pytest.raises(CapExceeded):
        is_simple(ProductAlgebra([5, 5, 5]))


def test_simplicity_matches_congruence_count_on_small_chains():
    """Oracle: count congruences directly as kernels of the filter quotients;
    a chain is simple iff every proper filter is {top}."""
    for n in range(2, 5):
        for chain in enumerate_mtl_chains(n):
            filters = set()
            for a in chain.elements():
                filters.add(principal_filter(chain, a))
            proper = [f for f in filters if f != set(chain.elements())]
            assert is_simple(chain) == all(f == {chain.top} for f in proper)


def test_delta_examples():
    assert delta_of(DPChain(3), 1) == 0
    for n in range(2, 8):
        chain = DPChain(n)
        for x in chain.elements():
            assert delta_of(chain, x) == (chain.top if x == chain.top else 0)
    prod = ProductAlgebra([3, 4])
    assert delta_of(prod, (2, 3)) == (2, 3)
    assert delta_of(prod, (2, 1)) == (2, 0)
    with pytest.raises(EvaluationError):
        delta_of(godel_chain(3), 1)


def test_delta_axioms_hold_on_dp_chains():
    for axiom in delta_axioms():
        for n in range(2, 8):
            assert holds(axiom, DPChain(n)).ok


def test_discriminator_two_case_law():
    for n in range(2, 8):
        chain = DPChain(n)
        for x in chain.elements():
            for y in chain.elements():
                for z in chain.elements():
                    want = z if x == y else x
                    assert discriminator(chain, x, y, z) == want


def test_find_embedding():
    for m in range(2, 8):
        for n in range(2, 8):
            emb = find_embedding(DPChain(m), DPChain(n))
            if m > n:
                assert emb is None
                continue
            src, dst = DPChain(m), DPChain(n)
            assert len(set(emb)) == m
            assert emb[0] == 0 and emb[-1] == dst.top
            if m >= 3:
                assert emb[src.coatom] == dst.coatom
            for x in src.elements():
                for y in src.elements():
                    for op in ALL_OPS:
                        assert (emb[getattr(src, op)(x, y)]
                                == getattr(dst, op)(emb[x], emb[y]))


def _naive_homs(src, dst):
    elems = list(src.elements())
    out = []
    for images in itertools.product(list(dst.elements()), repeat=len(elems)):
        h = dict(zip(elems, images))
        if h[src.bot] != dst.bot or h[src.top] != dst.top:
            continue
        if all(h[getattr(src, op)(x, y)] == getattr(dst, op)(h[x], h[y])
               for x in elems for y in elems for op in ALL_OPS):
            out.append(h)
    return out


def test_homomorphism_enumeration_matches_naive_search():
    small = [DPChain(2), DPChain(3), DPChain(4), ProductAlgebra([2, 2]),
             ProductAlgebra([2, 3]), godel_chain(3), lukasiewicz_chain(3)]
    for src in small:
        for dst in small:
            fast = enumerate_homomorphisms(src, dst)
            slow = _naive_homs(src, dst)
            assert len(fast) == len(slow)
            assert {tuple(sorted(h.items())) for h in fast} \
                == {tuple(sorted(h.items())) for h in slow}


def test_homomorphism_counts_between_chains():
    # no hom can shrink a chain: the coatom has nowhere consistent to go
    assert len(enumerate_homomorphisms(DPChain(4), DPChain(3))) == 0
    assert len(enumerate_homomorphisms(DPChain(4), DPChain(4))) == 1
    assert len(enumerate_homomorphisms(DPChain(4), DPChain(5))) == 2
    assert len(enumerate_homomorphisms(DPChain(2), DPChain(5))) == 1


class _CountingOps:
    """Forwards to an algebra and counts calls of its binary operations."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.algebra, name)
        if name not in ALL_OPS:
            return attr

        def counted(x, y):
            self.calls += 1
            return attr(x, y)
        return counted


def test_homomorphism_cap(monkeypatch):
    monkeypatch.setattr(decide, "DEFAULT_CAP", 10)
    with pytest.raises(CapExceeded):
        enumerate_homomorphisms(ProductAlgebra([4, 4]), ProductAlgebra([4, 4]))
    # the cap is checked before any operation of the target runs
    dst = _CountingOps(ProductAlgebra([5] * 6))
    with pytest.raises(CapExceeded):
        enumerate_homomorphisms(ProductAlgebra([4, 4]), dst)
    assert dst.calls == 0
    # 36 table entries pass, 15 625 generator assignments do not
    monkeypatch.setattr(decide, "DEFAULT_CAP", 1000)
    with pytest.raises(CapExceeded, match="generator assignments"):
        enumerate_homomorphisms(DPChain(3), dst)
    assert dst.calls == 0


class _UntabulatedProduct(ProductAlgebra):
    def elements(self):
        raise AssertionError("the elements were listed")


def test_tabulating_a_large_source_raises_before_any_table(monkeypatch):
    # 3 125 elements would take 4 * 3125^2 = 39 062 500 entries (over a GB)
    src = _UntabulatedProduct([5] * 5)
    with pytest.raises(CapExceeded, match="39062500 table entries"):
        generating_set(src)
    with pytest.raises(CapExceeded, match="table entries"):
        enumerate_homomorphisms(src, DPChain(2))
    monkeypatch.setattr(decide, "DEFAULT_CAP", 63)
    with pytest.raises(CapExceeded, match="table entries"):
        enumerate_homomorphisms(ProductAlgebra([2, 2]), DPChain(2))
    monkeypatch.setattr(decide, "DEFAULT_CAP", 64)
    assert len(enumerate_homomorphisms(ProductAlgebra([2, 2]), DPChain(2))) == 2


def _closure_generating_set(algebra):
    # the greedy search recomputing the tuple-level closure after each pick
    gens = []
    closed = _closure(algebra, gens)
    for x in algebra.elements():
        if x not in closed:
            gens.append(x)
            closed = _closure(algebra, gens)
    return gens


def _closure_homs(src, dst):
    # extend each generator assignment by operation closure until nothing
    # grows, rejecting on the first conflict
    gens = _closure_generating_set(src)
    found = []
    for images in itertools.product(list(dst.elements()), repeat=len(gens)):
        h = {src.bot: dst.bot, src.top: dst.top}
        h.update(zip(gens, images))
        ok, grew = True, True
        while ok and grew:
            grew = False
            pairs = list(h.items())
            for (x, hx), (y, hy), op in itertools.product(pairs, pairs, ALL_OPS):
                z, w = getattr(src, op)(x, y), getattr(dst, op)(hx, hy)
                if z not in h:
                    h[z] = w
                    grew = True
                elif h[z] != w:
                    ok = False
                    break
        if ok and len(h) == src.size:
            found.append(h)
    return found


def _duality_suite_pairs():
    from dplogic.duality import mc_inverse
    from dplogic.suites import _small_objects

    objs = _small_objects(2, 3)
    return [(mc_inverse(d), mc_inverse(c)) for c in objs for d in objs]


@pytest.mark.parametrize("family", ["duality suite", "mtl chains", "product"])
def test_homomorphism_search_matches_closure_search(family):
    if family == "duality suite":
        pairs = _duality_suite_pairs()
        assert len(pairs) == 81
    elif family == "mtl chains":
        chains = enumerate_mtl_chains(3) + enumerate_mtl_chains(4)
        pairs = list(itertools.product(chains, chains))
    else:
        pairs = [(ProductAlgebra([2, 3, 4]), ProductAlgebra([2, 3, 4]))]
    for src, dst in pairs:
        assert generating_set(src) == _closure_generating_set(src)
        assert enumerate_homomorphisms(src, dst) == _closure_homs(src, dst), (src, dst)


def test_homomorphism_search_into_a_huge_algebra_stays_cheap():
    dst = _CountingOps(ProductAlgebra([5] * 8))
    homs = enumerate_homomorphisms(DPChain(2), dst)
    assert homs == [{0: (0,) * 8, 1: (4,) * 8}]
    assert dst.size == 390625
    assert dst.calls <= 16


def test_homomorphism_search_holds_little_beyond_its_sources_tables():
    # the five projections of a 243-element product onto the 3-chain: the
    # search verifies each candidate against the source's own tables, so
    # the process peaks under 25 MB (a bare interpreter takes about 8 MB);
    # the peak is read as VmHWM, as in the sweep's memory test below
    from dplogic import algebra
    code = ("from dplogic import DPChain, ProductAlgebra, enumerate_homomorphisms\n"
            "src = ProductAlgebra([3] * 5)\n"
            "homs = enumerate_homomorphisms(src, DPChain(3))\n"
            "assert homs == [{e: e[i] for e in src.elements()} for i in range(5)]\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(algebra.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 25 * 1024  # in kB


def test_homomorphism_search_tabulates_and_derives_its_source_once(monkeypatch):
    from dplogic import algebra
    calls = {"_tabulate": 0, "_derivation": 0}
    depth = [0]

    def counted(name):
        fn = getattr(algebra, name)

        def wrapper(*args):
            # a product's tables are composed from its factors' by nested
            # _tabulate calls; count only the outermost
            calls[name] += not depth[0]
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for name in calls:
        monkeypatch.setattr(algebra, name, counted(name))
    for src, dst in [(DPChain(4), DPChain(5)), (ProductAlgebra([2, 3]), DPChain(3)),
                     (godel_chain(3), ProductAlgebra([3, 3]))]:
        for name in calls:
            calls[name] = 0
        enumerate_homomorphisms(src, dst)
        assert calls == {"_tabulate": 1, "_derivation": 1}, (src, dst)


def test_homomorphism_search_leaves_the_module_globals_as_they_were():
    from dplogic import algebra

    def snapshot():
        # each global, and a shallow copy of any container's contents
        return {name: (value, list(value.items()) if isinstance(value, dict)
                       else list(value) if isinstance(value, (list, set)) else None)
                for name, value in vars(algebra).items()}

    before = snapshot()
    for src, dst in [(DPChain(4), DPChain(5)), (ProductAlgebra([2, 3]), ProductAlgebra([3, 4, 3])),
                     (godel_chain(3), ProductAlgebra([3, 3]))]:
        enumerate_homomorphisms(src, dst)
    after = snapshot()
    assert after.keys() == before.keys()
    for name, (value, contents) in before.items():
        assert after[name][0] is value, name
        assert after[name][1] == contents, name


def _equal_copy(algebra):
    # an equal but distinct algebra of the same type
    if isinstance(algebra, ProductAlgebra):
        return ProductAlgebra([f.size for f in algebra.factors])
    if isinstance(algebra, DPChain):
        return DPChain(algebra.size)
    return FiniteMTLChain(algebra.product_table)


@pytest.mark.parametrize("src, dst", [
    (ProductAlgebra([3, 3]), ProductAlgebra([4, 3, 4])),
    (ProductAlgebra([2, 3]), ProductAlgebra([5, 5, 5])),
    (godel_chain(3), ProductAlgebra([3, 4])),
    (lukasiewicz_chain(3), ProductAlgebra([3, 4])),
    (ProductAlgebra([2, 3, 4]), ProductAlgebra([3, 4])),
    (ProductAlgebra([2, 2, 3]), ProductAlgebra([4, 3])),
], ids=["[3,3]->[4,3,4]", "[2,3]->[5,5,5]", "godel3->[3,4]", "luk3->[3,4]",
        "[2,3,4]->[3,4]", "[2,2,3]->[4,3]"])
def test_homomorphisms_into_a_product_come_factor_by_factor_in_search_order(src, dst):
    # repeated and unequal factors; the whole list, order included (in the
    # last two the factors' combinations come in another order unsorted)
    want = _closure_homs(src, dst)
    assert len(want) > 0
    assert enumerate_homomorphisms(src, dst) == want


_INTERLEAVED_SOURCES = [ProductAlgebra([2, 3]), godel_chain(3), DPChain(4),
                        lukasiewicz_chain(3), ProductAlgebra([3, 2])]
_INTERLEAVED_TARGETS = [DPChain(4), ProductAlgebra([3, 4]), ProductAlgebra([2, 3, 2]),
                        godel_chain(3), ProductAlgebra([4, 4])]


def _interleaved_pairs(seed):
    # every pair three times over, shuffled, each source an equal but
    # distinct copy, so a source rarely follows itself
    pairs = [(i, j) for i in range(len(_INTERLEAVED_SOURCES))
             for j in range(len(_INTERLEAVED_TARGETS))] * 3
    random.Random(seed).shuffle(pairs)
    return [(i, j, _equal_copy(_INTERLEAVED_SOURCES[i])) for i, j in pairs]


def test_homomorphism_search_does_not_depend_on_the_sources_before():
    want = {(i, j): _closure_homs(src, dst)
            for i, src in enumerate(_INTERLEAVED_SOURCES)
            for j, dst in enumerate(_INTERLEAVED_TARGETS)}
    for i, j, src in _interleaved_pairs(8):
        assert enumerate_homomorphisms(src, _INTERLEAVED_TARGETS[j]) == want[i, j], (i, j)


def test_mutating_returned_homomorphisms_changes_no_later_result():
    src = ProductAlgebra([2, 3])
    for dst in (DPChain(4), ProductAlgebra([3, 4])):
        first = enumerate_homomorphisms(src, dst)
        want = [dict(h) for h in first]
        for h in first:
            h[src.top] = "spoilt"
            del h[src.bot]
        first.append({})
        assert enumerate_homomorphisms(src, dst) == want
        assert enumerate_homomorphisms(ProductAlgebra([2, 3]), dst) == want


def test_threads_searching_interleaved_sources_agree_with_a_sequential_run():
    from concurrent.futures import ThreadPoolExecutor

    pairs = _interleaved_pairs(9)
    want = [enumerate_homomorphisms(src, _INTERLEAVED_TARGETS[j]) for _, j, src in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda p: enumerate_homomorphisms(p[2], _INTERLEAVED_TARGETS[p[1]]),
                                pairs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


class _CountingChain(DPChain):
    __slots__ = ()
    calls = [0]

    def prod(self, x, y):
        self.calls[0] += 1
        return super().prod(x, y)


def test_homomorphism_cap_on_a_product_target_runs_no_factor_operation(monkeypatch):
    _CountingChain.calls[0] = 0
    dst = ProductAlgebra([_CountingChain(5)] * 6)
    monkeypatch.setattr(decide, "DEFAULT_CAP", 1000)
    with pytest.raises(CapExceeded, match="15625 generator assignments exceed the cap of 1000"):
        enumerate_homomorphisms(DPChain(3), dst)
    assert _CountingChain.calls[0] == 0
    # the table cap holds for a source analysed just before, too
    monkeypatch.setattr(decide, "DEFAULT_CAP", 64)
    assert len(enumerate_homomorphisms(ProductAlgebra([2, 2]), DPChain(2))) == 2
    monkeypatch.setattr(decide, "DEFAULT_CAP", 63)
    with pytest.raises(CapExceeded, match="^64 table entries exceed the cap of 63$"):
        enumerate_homomorphisms(ProductAlgebra([2, 2]), dst)
    assert _CountingChain.calls[0] == 0
    monkeypatch.undo()
    assert len(enumerate_homomorphisms(DPChain(3), dst)) == 1
    assert _CountingChain.calls[0] > 0


def test_generating_sets_are_small_and_generate():
    for algebra in [DPChain(2), DPChain(3), DPChain(4), DPChain(5), DPChain(7),
                    ProductAlgebra([3, 4]), ProductAlgebra([2, 2])]:
        gens = generating_set(algebra)
        universe = set(algebra.elements())
        assert _closure(algebra, gens) == universe
        if isinstance(algebra, DPChain):
            # ranks strictly between 0 and the coatom, except that the
            # 3-chain's coatom is not definable from the constants alone
            want = 0 if algebra.size == 2 else max(1, algebra.size - 3)
            assert len(gens) == want


def test_is_theorem_examples():
    assert is_theorem(parse("x \\/ ~(x^2)")).ok
    assert is_theorem(parse("(x -> ~x) \\/ ~~x")).ok
    assert is_theorem(parse("x -> x")).ok
    assert is_theorem(parse("1")).ok
    verdict = is_theorem(parse("x \\/ ~x"))
    assert not verdict.ok
    assert verdict.algebra.size == 3
    assert verdict.valuation == {"x": 1}


def minimal_countermodel_by_holds(f):
    """The decision procedure as one full sweep of C_{k+3} followed by a
    search of C_2, C_3, ... for the smallest refuting chain."""
    k = len(variables(f))
    size = k + 3 if k else 2
    verdict = holds(f, DPChain(size))
    if verdict.ok:
        return verdict
    for n in range(2, size):
        smaller = holds(f, DPChain(n))
        if not smaller.ok:
            return smaller
    return verdict


def test_is_theorem_matches_minimal_countermodel_by_holds():
    rng = random.Random(60311)
    formulas = [random_formula(rng, rng.randrange(1, 8)) for _ in range(1200)]
    formulas += [separating_formula(n) for n in range(2, 6)]
    formulas += [parse(t) for t in ("x \\/ ~x", "1", "0")]
    refuted = 0
    for f in formulas:
        fast = is_theorem(f)
        slow = minimal_countermodel_by_holds(f)
        assert (fast.ok, fast.algebra, fast.valuation, fast.value) == (
            slow.ok, slow.algebra, slow.valuation, slow.value), str(f)
        refuted += not fast.ok
    # both outcomes are well represented
    assert 200 < refuted < len(formulas) - 200


def _exact_points(k, size, limit=1 << 16):
    # the points of the column generator, one tuple per point
    from dplogic.decide import _exact_blocks, _Prefixes
    for n, cols in _exact_blocks(_Prefixes(k, size), limit):
        assert len(cols) == k and all(len(col) == n for col in cols)
        for p in range(n):
            yield tuple(col[p] for col in cols)


def test_exact_valuations_generate_their_chain_in_lexicographic_order():
    for k in range(0, 5):
        for size in range(2, k + 4):
            chain = DPChain(size)
            want = [p for p in itertools.product(range(size), repeat=k)
                    if len(_closure(chain, p)) == size]
            got = list(_exact_points(k, size))
            assert got == want, (k, size)


def test_exact_valuations_count_the_free_dual_instances():
    from dplogic import free_dual
    counts = []
    for k in range(1, 7):
        total = 0
        for size in range(2, k + 4):
            total += sum(1 for _ in _exact_points(k, size))
        assert total == free_dual(k).instance_count()
        counts.append(total)
    assert counts == [4, 18, 94, 582, 4294, 37398]


def test_exact_valuations_on_each_chain_number_its_dual_chains():
    # chain by chain, not only in sum: the exact valuations on C_s are the
    # homomorphisms of the free algebra onto C_s, one per (s-1)-chain of
    # its dual
    from dplogic import free_coefficient
    from dplogic.decide import _exact_blocks, _Prefixes
    counts = [sum(n for n, _ in _exact_blocks(_Prefixes(6, size), 1 << 16))
              for size in range(2, 10)]
    assert counts == [free_coefficient(6, size - 1) for size in range(2, 10)]
    assert counts == [64, 665, 3367, 8162, 11340, 9120, 3960, 720]
    assert sum(counts) == 37398


def test_exact_valuation_blocks_do_not_depend_on_the_block_limit():
    from dplogic.decide import _exact_blocks, _Prefixes
    for k, size in [(0, 2), (3, 2), (4, 5), (5, 4), (5, 8), (6, 6)]:
        want = list(_exact_points(k, size))
        for limit in (1, 2, 5, 64, 1000):
            assert list(_exact_points(k, size, limit)) == want, (k, size, limit)
            sizes = [n for n, _ in _exact_blocks(_Prefixes(k, size), limit)]
            assert all(n <= min(4 ** j, limit) for j, n in enumerate(sizes))


def _point_by_point_exact_valuations(v, k, size):
    # write each exact valuation into v[2:2+k] in lexicographic order and
    # yield after each one; uses[x] counts the prefix's occurrences of x
    need = size - 3 if size > 3 else size - 2
    uses = [0] * size

    def fill(i, missing):
        room = k - 1 - i
        for x in range(size):
            left = missing - (0 < x <= need and not uses[x])
            if left > room:
                continue
            v[2 + i] = x
            if room:
                uses[x] += 1
                yield from fill(i + 1, left)
                uses[x] -= 1
            else:
                yield

    if k:
        yield from fill(0, need)
    elif not need:
        yield


def point_by_point_is_theorem(f):
    """The decision procedure as one loop over the compiled slot code per
    exact valuation, the sweep the column-wise one replaced."""
    from dplogic.algebra import Verdict
    from dplogic.formula import compile
    program = compile(f)
    k = len(program.names)
    code = [(op, a, b, out) for out, (op, a, b) in enumerate(program.code, 2 + k)]
    root = program.root
    for size in range(2, k + 4):
        chain = DPChain(size)
        tables = {op: [[fn(x, y) for y in chain.elements()]
                       for x in chain.elements()]
                  for op, fn in (("&", chain.prod), ("->", chain.imp),
                                 ("/\\", chain.meet), ("\\/", chain.join))}
        ops = [(tables[op], a, b, out) for op, a, b, out in code]
        v = [0, chain.top] + [0] * (k + len(code))
        for _ in _point_by_point_exact_valuations(v, k, size):
            for table, a, b, out in ops:
                v[out] = table[v[a]][v[b]]
            if v[root] != chain.top:
                return Verdict(False, chain, dict(zip(program.names, v[2:2 + k])),
                               v[root])
    return Verdict(True)


def test_column_sweep_matches_the_point_by_point_sweep():
    rng = random.Random(50517)
    formulas = []
    # a 7-variable theorem costs the oracle about a second
    for k, many in ((5, 40), (6, 25), (7, 8)):
        names = [f"v{i}" for i in range(k)]
        found = []
        while len(found) < many:
            f = random_formula(rng, rng.randrange(4, 8), names=names)
            if len(variables(f)) == k:
                found.append(f)
        formulas += found
    # theorems where the bounds prune most: instances of prelinearity
    # (A -> B) \/ (B -> A), A \/ ~(A^2) and D(A) -> A over 5 and 6
    # variables, A and B sharing one
    theorems = []
    for k in (5, 6):
        names = [f"w{i}" for i in range(k)]
        for schema in (lambda a, b: Or(Imp(a, b), Imp(b, a)),
                       lambda a, b: Or(Or(a, b), Neg(Power(Or(a, b), 2))),
                       lambda a, b: Imp(Delta(Or(a, b)), Or(a, b))):
            found = []
            while len(found) < 3:
                split = rng.randrange(1, k)
                f = schema(random_formula(rng, 5, names=names[:split + 1]),
                           random_formula(rng, 5, names=names[split:]))
                if len(variables(f)) == k:
                    found.append(f)
            theorems += found
    assert all(is_theorem(f).ok for f in theorems)
    formulas += theorems
    formulas += [separating_formula(n) for n in range(2, 7)]
    formulas += [parse(t) for t in ("1", "0", "D 1", "~0 & 1^3", "D(0 -> 0)")]
    formulas += [Power(Iff(Var("x"), Var("x")), 7), Power(Var("y"), 0)]
    refuted = 0
    for f in formulas:
        fast = is_theorem(f)
        slow = point_by_point_is_theorem(f)
        assert (fast.ok, fast.algebra, fast.valuation, fast.value) == (
            slow.ok, slow.algebra, slow.valuation, slow.value), str(f)
        refuted += not fast.ok
        # in V_n the oracle stops at C_n: the same countermodel if it lies
        # on C_n or below, else a theorem
        for n in range(2, len(variables(f)) + 4):
            cut = slow if not slow.ok and slow.algebra.size <= n else Verdict(True)
            fast = is_theorem_in_variety(f, n)
            assert (fast.ok, fast.algebra, fast.valuation, fast.value) == (
                cut.ok, cut.algebra, cut.valuation, cut.value), (str(f), n)
    # both outcomes are well represented
    assert 20 < refuted < len(formulas) - 20


def test_an_early_refutation_ends_the_sweep(monkeypatch):
    swept = {}
    blocks = decide._exact_blocks

    def counted(tree, limit, *found):
        for n, cols in blocks(tree, limit, *found):
            swept[tree.size] = swept.get(tree.size, 0) + n
            yield n, cols
    monkeypatch.setattr(decide, "_exact_blocks", counted)
    # valid on the 2-chain; on the 3-chain the first exact valuation puts
    # the coatom on x8, the second on x7, which refutes x7 \/ ~x7
    f = parse("(x1 & x2 & x3 & x4 & x5 & x6 & 0) \\/ x7 \\/ ~x7 \\/ (x8 & 0)")
    verdict = is_theorem(f)
    assert verdict.algebra == DPChain(3)
    assert verdict.valuation == {f"x{i}": int(i == 7) for i in range(1, 9)}
    # of the 3-chain's 3^8 - 2^8 = 6305 exact valuations, a block of one
    # and a block of at most four were built
    assert swept == {2: 2 ** 8, 3: 5}


def test_the_sweep_builds_one_prefix_tree_per_chain(monkeypatch):
    # the tree that _surviving walks is the one the blocks are built from,
    # so each chain's counts and fans are computed once
    built = []

    class Counted(decide._Prefixes):
        def __init__(self, k, size, *image):
            built.append(size)
            super().__init__(k, size, *image)
    monkeypatch.setattr(decide, "_Prefixes", Counted)
    prelinear = " & ".join(f"((x{i} -> x{i + 1}) \\/ (x{i + 1} -> x{i}))" for i in range(1, 5))
    # a theorem, swept on every chain, and a formula refuted on C_5
    for f, ok in ((parse(prelinear), True), (separating_formula(4), False)):
        built.clear()
        assert is_theorem(f).ok == ok, str(f)
        assert built == list(range(2, 9)), (str(f), built)


def test_eight_variables_sweep_in_bounded_memory():
    from dplogic import algebra
    # an 8-variable theorem sweeps 4 366 422 points; in blocks, the whole
    # process stays under 40 MB.  Its peak is read as VmHWM: ru_maxrss
    # would also count the test process's own memory at the fork.
    code = ("from dplogic import is_theorem, parse\n"
            "f = parse(' & '.join(f'((x{i} -> x{i + 1}) \\\\/ (x{i + 1} -> x{i}))'"
            " for i in (1, 3, 5, 7)))\n"
            "assert is_theorem(f).ok\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(algebra.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 40 * 1024  # in kB


def test_chains_above_128_elements_raise_before_any_evaluation(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(decide, "_exact_blocks", no_sweep)
    wide = reduce(Or, [Var(f"x{i}") for i in range(126)])
    for cap in (10**20, 10**1000):
        with pytest.raises(CapExceeded, match="^129 elements of the chain for 126 variables "
                                              "exceed the cap of 128$"):
            is_theorem(wide, cap=cap)
    # 125 variables need the 128-element chain, which still fits a lane
    narrow = reduce(Or, [Var(f"x{i}") for i in range(125)])
    with pytest.raises(AssertionError, match="the sweep started"):
        is_theorem(narrow, cap=10**1000)


def test_formulas_of_fourteen_and_more_variables_are_swept():
    # their first points settle them, within a second, once the cap
    # admits their point count
    ys = " & ".join(f"y{i}" for i in range(1, 15))
    xs = [f"x{i}" for i in range(1, 15)]
    wide = reduce(Or, map(Var, xs))
    # at the lane limit, the first chain's points are the only ones counted
    xs125 = [f"x{i}" for i in range(1, 126)]
    for f, cap, seconds, want in (
            (parse(f"(x \\/ ~(x^2)) \\/ ({ys})"), 10**20, 1, Verdict(True)),
            (wide, 10**20, 1, Verdict(False, DPChain(2), dict.fromkeys(xs, 0), 0)),
            (reduce(Or, map(Var, xs125)), 10**300, 0.15,
             Verdict(False, DPChain(2), dict.fromkeys(xs125, 0), 0))):
        start = time.perf_counter()
        got = is_theorem(f, cap=cap)
        assert time.perf_counter() - start < seconds, str(f)
        assert fields(got) == fields(want), str(f)
    # under the default cap, the point count still refuses them
    with pytest.raises(CapExceeded,
                       match="^85130743747158 valuations exceed the cap of 10000000$"):
        is_theorem(wide)


def _balanced_or(names):
    # a disjunction of the names as a balanced tree, shallow however many
    if len(names) == 1:
        return Var(names[0])
    half = len(names) // 2
    return Or(_balanced_or(names[:half]), _balanced_or(names[half:]))


def test_lane_operations_are_the_chain_operations():
    # all size^2 rank pairs of a chain in one block of lanes, through the
    # slot code of x op y, against the chain's scalar operation; the
    # refutation mask marks the lanes below the top with bit 7
    from dplogic.formula import compile
    for size in range(2, 129):
        chain = DPChain(size)
        pairs = list(itertools.product(range(size), repeat=2))
        n = len(pairs)
        cols = [bytes(x for x, _ in pairs), bytes(y for _, y in pairs)]
        for text, op in (("x & y", chain.prod), ("x -> y", chain.imp),
                         ("x /\\ y", chain.meet), ("x \\/ y", chain.join)):
            values, refuted = _Lanes(compile(parse(text)), size).lower(2, n, cols)
            want = bytes(op(x, y) for x, y in pairs)
            assert values.to_bytes(n, "little") == want, (size, text)
            assert refuted.to_bytes(n, "little") == bytes(
                0x80 * (v < chain.top) for v in want), (size, text)


def test_wide_formulas_meet_the_lane_limit_before_their_point_count(monkeypatch):
    def no_count(*args):
        raise AssertionError("the points were counted")
    monkeypatch.setattr(decide, "free_coefficient", no_count)
    wide = _balanced_or([f"x{i}" for i in range(2000)])
    with pytest.raises(CapExceeded, match="^2003 elements of the chain for 2000 variables"):
        is_theorem(wide)
    with pytest.raises(CapExceeded, match="^2003 elements of the chain for 2000 variables"):
        is_theorem_in_variety(wide, 10**9)


def test_is_theorem_cap_counts_exact_valuations():
    f = parse("x & y -> y & x")
    with pytest.raises(CapExceeded):
        is_theorem(f, cap=17)
    assert is_theorem(f, cap=18).ok
    # a refutation is found early but the cap is still checked up front
    with pytest.raises(CapExceeded):
        is_theorem(parse("x \\/ ~x \\/ y"), cap=17)


def test_is_theorem_in_variety():
    em = parse("x \\/ ~x")
    assert is_theorem_in_variety(em, 2).ok
    assert not is_theorem_in_variety(em, 3).ok
    with pytest.raises(ValueError):
        is_theorem_in_variety(em, 1)


def fields(verdict):
    return (verdict.ok, verdict.algebra, verdict.valuation, verdict.value)


def test_variety_verdicts_match_sweeps_of_holds():
    rng = random.Random(70913)
    formulas = [random_formula(rng, rng.randrange(1, 7), names=["x", "y", "z", "w"])
                for _ in range(150)]
    formulas += [separating_formula(n) for n in (2, 3, 4)]
    formulas += [parse(t) for t in ("x \\/ ~x", "1", "0", "D 1")]
    refuted = {n: 0 for n in range(2, 8)}
    for f in formulas:
        k = len(variables(f))
        # C_2, ..., C_7 swept whole, point by point
        full = {size: holds(f, DPChain(size)) for size in range(2, 8)}
        for n in range(2, 8):
            got = is_theorem_in_variety(f, n)
            assert got.ok == full[n].ok, (str(f), n)
            # the lexicographically first countermodel on the smallest
            # refuting chain of size <= n
            want = next((full[s] for s in range(2, n + 1) if not full[s].ok),
                        Verdict(True))
            assert fields(got) == fields(want), (str(f), n)
            if n >= k + 3:
                assert fields(got) == fields(is_theorem(f)), (str(f), n)
            refuted[n] += not got.ok
    # both outcomes are well represented in every variety
    assert all(30 < r < len(formulas) - 30 for r in refuted.values()), refuted


def test_variety_cap_counts_exact_points(monkeypatch):
    # V_6 on 7 variables sweeps the exact valuations of C_2, ..., C_6:
    # 156 454 points, where all of C_6 has 6^7 = 279 936
    f = separating_formula(6)
    assert is_theorem_in_variety(f, 6, cap=156_454).ok
    with pytest.raises(CapExceeded, match="156454 valuations"):
        is_theorem_in_variety(f, 6, cap=156_453)
    monkeypatch.setattr(decide, "DEFAULT_CAP", 160_000)
    with pytest.raises(CapExceeded):
        holds(f, DPChain(6))


def test_a_formula_at_the_depth_limit_is_evaluated_expanded_and_decided():
    f = parse("~" * 999 + "x")
    g = reduce(Imp, [Bot()] * 999, Var("x"))  # ~ expanded: x -> 0, 999 deep
    chain = DPChain(3)
    for h in (f, g):
        assert [evaluate(h, chain, {"x": a}) for a in chain.elements()] == [2, 1, 0]
    assert fields(is_theorem_in_variety(f, 3)) == (False, DPChain(2), {"x": 1}, 0)


def test_decision_procedure_matches_full_sweep():
    rng = random.Random(91)
    for _ in range(80):
        f = random_formula(rng, rng.randrange(1, 6))
        k = len(variables(f))
        fast = is_theorem(f).ok
        slow = all(holds(f, DPChain(n)).ok for n in range(2, k + 4))
        assert fast == slow


def test_separating_formula_rendering_and_validity():
    f = separating_formula(2)
    assert str(f) == "(x1 <-> x2) \\/ (x1 <-> x3) \\/ (x2 <-> x3)"
    assert variables(f) == ["x1", "x2", "x3"]
    with pytest.raises(ValueError):
        separating_formula(1)
    for n in (2, 3, 4):
        g = separating_formula(n)
        assert is_theorem_in_variety(g, n).ok
        assert not is_theorem_in_variety(g, n + 1).ok


def test_subvariety_index():
    assert subvariety_index(ProductAlgebra([2])) == 2
    assert subvariety_index(ProductAlgebra([2, 4, 3])) == 4
    assert subvariety_index(DPChain(5)) == 5


def test_free_algebra_bruteforce_counts():
    assert free_algebra_bruteforce(0).count == 2
    table = free_algebra_bruteforce(1)
    assert table.count == 48
    assert table.chain_size == 4
    with pytest.raises(ValueError):
        free_algebra_bruteforce(2)


def test_free_algebra_closure_is_closed():
    table = free_algebra_bruteforce(1)
    chain = DPChain(table.chain_size)
    elems = set(table.functions)
    for f in table.functions:
        for g in table.functions:
            for op in ALL_OPS:
                h = tuple(getattr(chain, op)(a, b) for a, b in zip(f, g))
                assert h in elems


def test_element_names():
    assert element_name(3, 0) == "0"
    assert element_name(3, 1) == "c"
    assert element_name(3, 2) == "1"
    assert element_name(6, 2) == "r2"
    assert element_name(2, 0) == "0"
    assert element_name(2, 1) == "1"


def test_algebra_json_roundtrip():
    # the three shapes algebra_to_json writes, each enough to rebuild its
    # algebra through the constructor
    chain, mtl, product = DPChain(4), godel_chain(3), ProductAlgebra([2, 3, 4])
    data = algebra_to_json(chain)
    assert data == {"type": "dp_chain", "size": 4}
    assert DPChain(data["size"]) == chain
    data = algebra_to_json(mtl)
    assert data == {"type": "mtl_chain", "size": 3,
                    "product": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]}
    assert FiniteMTLChain(data["product"]) == mtl
    data = algebra_to_json(product)
    assert data == {"type": "product", "factors": [2, 3, 4]}
    assert ProductAlgebra(data["factors"]) == product


def test_witness_json_structure():
    verdict = holds(parse("x \\/ ~x"), DPChain(3))
    data = witness_to_json(verdict)
    assert data["algebra"] == {"type": "dp_chain", "size": 3}
    assert data["valuation"] == {"x": {"rank": 1, "name": "c"}}
    assert data["value"] == {"rank": 1, "name": "c"}
    assert witness_to_json(holds(parse("x -> x"), DPChain(3))) is None


def test_product_algebra_witnesses_use_rank_tuples():
    prod = ProductAlgebra([2, 3])
    verdict = holds(parse("x \\/ ~x"), prod)
    assert not verdict.ok
    data = witness_to_json(verdict)
    assert isinstance(data["valuation"]["x"]["rank"], list)


def test_cap_messages_bound_long_point_counts(monkeypatch):
    # counts of up to 20 digits print in full; longer ones as "at least"
    # their first four digits in e-notation, not hundreds of digits
    with pytest.raises(CapExceeded) as short:
        is_theorem(parse("x & y -> y & x"), cap=10)
    assert str(short.value) == "18 valuations exceed the cap of 10"
    monkeypatch.setattr(decide, "DEFAULT_CAP", 10)
    with pytest.raises(CapExceeded) as short:
        holds(_balanced_or([f"x{i}" for i in range(19)]), DPChain(10))
    assert str(short.value) == f"{10**19} valuations exceed the cap of 10"
    with pytest.raises(CapExceeded) as long:
        holds(_balanced_or([f"x{i}" for i in range(20)]), DPChain(10))
    assert str(long.value) == "at least 1.000e20 valuations exceed the cap of 10"
    monkeypatch.undo()
    # V_5 on 300 variables sweeps C_2..C_5: a 210-digit count
    from dplogic.duality import free_coefficient
    wide = _balanced_or([f"x{i}" for i in range(300)])
    digits = str(sum(free_coefficient(300, h) for h in range(1, 5)))
    with pytest.raises(CapExceeded) as long:
        is_theorem_in_variety(wide, 5)
    assert str(long.value) == (f"at least {digits[0]}.{digits[1:4]}e{len(digits) - 1} "
                               "valuations exceed the cap of 10000000")
    # 4^300 points: 181 digits
    digits = str(4**300)
    with pytest.raises(CapExceeded) as long:
        holds(wide, DPChain(4))
    assert str(long.value) == (f"at least {digits[0]}.{digits[1:4]}e{len(digits) - 1} "
                               "valuations exceed the cap of 10000000")
