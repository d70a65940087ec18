"""Chain operations, axiom classification, homomorphisms, theoremhood."""

import itertools
import os
import random
import subprocess
import sys
from functools import reduce

import pytest

from dplogic import (
    CapExceeded, DPChain, EvaluationError, FiniteMTLChain, Iff, Or, Power,
    ProductAlgebra, Var, delta_axioms, delta_of, discriminator,
    enumerate_homomorphisms, enumerate_mtl_chains, evaluate, find_embedding,
    free_algebra_bruteforce, holds, is_dp_chain, is_simple, is_theorem,
    is_theorem_in_variety, parse, satisfies_axiom, separating_formula,
    subvariety_index, variables,
)
from dplogic.algebra import (
    algebra_from_json, algebra_to_json, axiom_instance, element_name,
    generating_set, principal_filter, witness_to_json,
)

ALL_OPS = ("prod", "imp", "meet", "join")


def godel_chain(n):
    return FiniteMTLChain([[min(x, y) for y in range(n)] for x in range(n)])


def lukasiewicz_chain(n):
    return FiniteMTLChain(
        [[max(0, x + y - (n - 1)) for y in range(n)] for x in range(n)])


# 0 < a < b < 1 with a*b = 0 and b*b = a; fails both (rdp) and (wnm)
SUBIDEMPOTENT4 = FiniteMTLChain(
    [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 2], [0, 1, 2, 3]])

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


def holds_by_evaluate(f, algebra):
    """holds as a sweep of the recursive evaluator: the oracle."""
    names = variables(f)
    for combo in itertools.product(list(algebra.elements()), repeat=len(names)):
        v = dict(zip(names, combo))
        value = evaluate(f, algebra, v)
        if value != algebra.top:
            return (False, algebra, v, value)
    return (True, None, None, None)


def test_holds_matches_a_sweep_of_evaluate():
    from test_formula import random_formula
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


def test_holds_cap():
    with pytest.raises(CapExceeded):
        holds(parse("x & y & z"), DPChain(7), cap=100)


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
        FiniteMTLChain([[0, 0, 0], [0, 0, 2], [0, 1, 2]])  # not commutative
    with pytest.raises(ValueError):
        FiniteMTLChain([[0]])  # too small
    # a legal table passes and derives the residuum
    chain = godel_chain(3)
    assert chain.imp(2, 1) == 1
    assert chain.imp(1, 2) == 2


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
    for n in range(2, 5):
        fast = {c.product_table for c in enumerate_mtl_chains(n)}
        assert fast == set(_naive_mtl_tables(n))


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
    with pytest.raises(ValueError):
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


def test_ncontract_equation_respects_the_cap():
    # x^3 = x^2 is checked through holds: 5 points on the 5-chain
    assert satisfies_axiom(DPChain(5), "ncontract(3)", cap=5)
    with pytest.raises(CapExceeded):
        satisfies_axiom(DPChain(5), "ncontract(3)", cap=4)
    with pytest.raises(CapExceeded):
        satisfies_axiom(ProductAlgebra([3, 4]), "ncontract(2)", cap=11)


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


def test_homomorphism_cap():
    with pytest.raises(CapExceeded):
        enumerate_homomorphisms(ProductAlgebra([4, 4]), ProductAlgebra([4, 4]),
                                cap=10)
    # the cap is checked before any operation of the target runs
    dst = _CountingOps(ProductAlgebra([5] * 6))
    with pytest.raises(CapExceeded):
        enumerate_homomorphisms(ProductAlgebra([4, 4]), dst, cap=10)
    assert dst.calls == 0


def _closure_generating_set(algebra):
    # the greedy search recomputing the tuple-level closure after each pick
    from dplogic.algebra import _closure

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


def test_generating_sets_are_small_and_generate():
    from dplogic.algebra import _closure

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
    from test_formula import random_formula
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
    from dplogic.algebra import _exact_blocks
    for n, cols in _exact_blocks(k, size, limit):
        assert len(cols) == k and all(len(col) == n for col in cols)
        for p in range(n):
            yield tuple(col[p] for col in cols)


def test_exact_valuations_generate_their_chain_in_lexicographic_order():
    from dplogic.algebra import _closure
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


def test_exact_valuation_blocks_do_not_depend_on_the_block_limit():
    from dplogic.algebra import _exact_blocks
    for k, size in [(0, 2), (3, 2), (4, 5), (5, 4), (5, 8), (6, 6)]:
        want = list(_exact_points(k, size))
        for limit in (1, 2, 5, 64, 1000):
            assert list(_exact_points(k, size, limit)) == want, (k, size, limit)
            sizes = [n for n, _ in _exact_blocks(k, size, limit)]
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
    """The decision procedure as one loop over the compiled node array per
    exact valuation, the sweep the column-wise one replaced."""
    from dplogic.algebra import Verdict, _lower
    from dplogic.formula import compile
    program = compile(f)
    k = len(program.names)
    code, root = _lower(program)
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
    from test_formula import random_formula
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
    # both outcomes are well represented
    assert 20 < refuted < len(formulas) - 20


def test_an_early_refutation_ends_the_sweep(monkeypatch):
    from dplogic import algebra
    swept = {}
    blocks = algebra._exact_blocks

    def counted(k, size, limit):
        for n, cols in blocks(k, size, limit):
            swept[size] = swept.get(size, 0) + n
            yield n, cols
    monkeypatch.setattr(algebra, "_exact_blocks", counted)
    # valid on the 2-chain; on the 3-chain the first exact valuation puts
    # the coatom on x8, the second on x7, which refutes x7 \/ ~x7
    f = parse("(x1 & x2 & x3 & x4 & x5 & x6 & 0) \\/ x7 \\/ ~x7 \\/ (x8 & 0)")
    verdict = is_theorem(f)
    assert verdict.algebra == DPChain(3)
    assert verdict.valuation == {f"x{i}": int(i == 7) for i in range(1, 9)}
    # of the 3-chain's 3^8 - 2^8 = 6305 exact valuations, a block of one
    # and a block of at most four were built
    assert swept == {2: 2 ** 8, 3: 5}


def test_eight_variables_sweep_in_bounded_memory():
    from dplogic import algebra
    # an 8-variable theorem sweeps 4 366 422 points; in blocks, the whole
    # process stays under 40 MB
    code = ("import resource\n"
            "from dplogic import is_theorem, parse\n"
            "f = parse(' & '.join(f'((x{i} -> x{i + 1}) \\\\/ (x{i + 1} -> x{i}))'"
            " for i in (1, 3, 5, 7)))\n"
            "assert is_theorem(f).ok\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(algebra.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 40 * 1024  # ru_maxrss is in kB on Linux


def test_chains_above_sixteen_elements_raise_before_any_evaluation(monkeypatch):
    from dplogic import algebra

    def no_sweep(*args):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(algebra, "_exact_blocks", no_sweep)
    wide = reduce(Or, [Var(f"x{i}") for i in range(14)])
    for cap in (10**20, 10**100):
        with pytest.raises(CapExceeded, match="17-element chain"):
            is_theorem(wide, cap=cap)
    # 13 variables need the 16-element chain, which still fits a byte lane
    narrow = reduce(Or, [Var(f"x{i}") for i in range(13)])
    with pytest.raises(AssertionError, match="the sweep started"):
        is_theorem(narrow, cap=10**20)


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


def test_decision_procedure_matches_full_sweep():
    rng = random.Random(91)
    from test_formula import random_formula
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
    for algebra in [DPChain(4), godel_chain(3), ProductAlgebra([2, 3, 4])]:
        data = algebra_to_json(algebra)
        back = algebra_from_json(data)
        assert type(back) is type(algebra)
        if isinstance(algebra, FiniteMTLChain):
            assert back.product_table == algebra.product_table
        elif isinstance(algebra, ProductAlgebra):
            assert [f.size for f in back.factors] \
                == [f.size for f in algebra.factors]
        else:
            assert back.size == algebra.size


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
