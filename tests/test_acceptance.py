"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all); stated runtime bounds are asserted, everything else is exact.
"""

import itertools
import random
import time

from dplogic import (
    DPChain, MultisetObj, delta_axioms, discriminator, enumerate_homomorphisms,
    enumerate_morphisms, enumerate_mtl_chains, evaluate, find_embedding,
    free_cardinality, free_dual, holds, is_dp_chain, is_simple, is_theorem,
    is_theorem_in_variety, mc_inverse, morphism_count, parse, product,
    satisfies_axiom, separating_formula, variables,
)
from dplogic.duality import TERMINAL, free_dual_closed_form, free_dual_recurrence
from dplogic.suites import random_formula
from free_oracle import free_algebra_bruteforce


def _report(number, label, body, limit=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"criterion {number:2d} FAIL  {label} (took {elapsed:.2f}s, "
              f"limit {limit}s)")
        assert elapsed < limit
    timing = f" [{elapsed:.2f}s" + (f" < {limit}s]" if limit else "]")
    print(f"criterion {number:2d} PASS  {label}{timing}")


def test_criterion_1_free_algebra_on_one_generator():
    def body():
        table = free_algebra_bruteforce(1)
        assert table.count == 48
        assert free_dual(1) == MultisetObj.from_lengths([1, 1, 2, 3])

    _report(1, "one-generator free algebra has 48 elements, dual {1,1,2,3}",
            body, limit=1.0)


def test_criterion_2_free_algebra_triple_agreement():
    def body():
        for k in range(7):
            by_power = free_dual(k)
            assert by_power == free_dual_closed_form(k)
            assert by_power == free_dual_recurrence(k)
            value = 1
            for length, mult in by_power.chains:
                value *= (length + 1) ** mult
            assert free_cardinality(k) == value

    _report(2, "closed form, recurrence and power agree for k = 0..6",
            body, limit=10.0)


def test_criterion_3_axiom_suite_on_dp_chains():
    def body():
        cube = parse("x^3")
        square = parse("x^2")
        for n in range(2, 8):
            chain = DPChain(n)
            assert satisfies_axiom(chain, "dp")
            assert satisfies_axiom(chain, "wnm")
            assert satisfies_axiom(chain, "rdp")
            for x in chain.elements():
                v = {"x": x}
                assert evaluate(cube, chain, v) == evaluate(square, chain, v)
            for axiom in delta_axioms():
                assert holds(axiom, chain).ok
            for x in chain.elements():
                for y in chain.elements():
                    for z in chain.elements():
                        want = z if x == y else x
                        assert discriminator(chain, x, y, z) == want

    _report(3, "dp, wnm, rdp, x^3=x^2, projection axioms, discriminator "
               "on chains of sizes 2..7", body, limit=30.0)


def test_criterion_4_dp_chain_characterization():
    def body():
        for n in range(2, 5):
            for chain in enumerate_mtl_chains(n):
                square_nilpotent = all(chain.prod(x, x) == 0
                                       for x in range(chain.top))
                assert is_dp_chain(chain) == square_nilpotent
                assert satisfies_axiom(chain, "dp") == square_nilpotent
                if square_nilpotent:
                    model = DPChain(n)
                    for x in range(n):
                        for y in range(n):
                            assert chain.prod(x, y) == model.prod(x, y)
                            assert chain.imp(x, y) == model.imp(x, y)

    _report(4, "dp axiom, square-nilpotency and the fixed tables coincide "
               "on all enumerated chains of size <= 4", body)


def test_criterion_5_strict_inclusion_witnesses():
    def body():
        enumerated = [c for n in range(2, 5) for c in enumerate_mtl_chains(n)]
        rdp_class = [c for c in enumerated
                     if satisfies_axiom(c, "wnm") and satisfies_axiom(c, "rdp")]
        wnm_class = [c for c in enumerated if satisfies_axiom(c, "wnm")]
        assert any(not is_dp_chain(c) for c in rdp_class)
        assert any(not (satisfies_axiom(c, "rdp")) for c in wnm_class)

    _report(5, "some RDP-chain of size <= 4 is not DP and some WNM-chain "
               "is not RDP", body)


def test_criterion_6_simple_wnm_chains_are_dp():
    def body():
        for n in range(2, 5):
            for chain in enumerate_mtl_chains(n):
                if satisfies_axiom(chain, "wnm"):
                    assert is_simple(chain) == is_dp_chain(chain)

    _report(6, "a WNM-chain of size <= 4 is simple exactly when it is DP",
            body)


def test_criterion_7_decision_procedure_agreement():
    def body():
        rng = random.Random(173)
        for _ in range(200):
            f = random_formula(rng, rng.randrange(1, 7))
            k = len(variables(f))
            assert k <= 3
            fast = is_theorem(f).ok
            slow = all(holds(f, DPChain(n)).ok for n in range(2, k + 4))
            assert fast == slow

    _report(7, "single-chain decision matches sweeps over sizes 2..k+3 "
               "for 200 random formulas", body, limit=60.0)


def test_criterion_8_duality_hom_counts():
    def body():
        lengths = (1, 2, 3)
        objs = [MultisetObj.from_lengths([a]) for a in lengths]
        objs += [MultisetObj.from_lengths([a, b])
                 for a in lengths for b in lengths if a <= b]
        for c in objs:
            for d in objs:
                count = morphism_count(c, d)
                assert count == len(enumerate_morphisms(c, d))
                homs = enumerate_homomorphisms(mc_inverse(d), mc_inverse(c))
                assert count == len(homs)

    _report(8, "multiset hom-counts equal DP-algebra hom-counts on all "
               "objects with <= 2 instances of length <= 3", body)


def test_criterion_9_product_law_and_terminal():
    def body():
        lengths = (1, 2, 3)
        objs = [MultisetObj.from_lengths([a]) for a in lengths]
        objs += [MultisetObj.from_lengths([a, b])
                 for a in lengths for b in lengths if a <= b]
        for x in objs:
            for a in objs:
                for b in objs:
                    assert (morphism_count(x, product(a, b))
                            == morphism_count(x, a) * morphism_count(x, b))
        for c in objs:
            assert morphism_count(c, TERMINAL) == 1
            assert len(enumerate_morphisms(c, TERMINAL)) == 1
            assert product(c, TERMINAL) == c

    _report(9, "hom counts into products multiply and {1} is terminal", body)


def test_criterion_10_subvariety_separation():
    def body():
        for n in (2, 3, 4):
            f = separating_formula(n)
            assert is_theorem_in_variety(f, n).ok
            assert not is_theorem_in_variety(f, n + 1).ok
        for m in range(2, 8):
            for n in range(2, 8):
                emb = find_embedding(DPChain(m), DPChain(n))
                if m <= n:
                    assert emb is not None
                    src, dst = DPChain(m), DPChain(n)
                    assert sorted(set(emb)) == sorted(emb)
                    for x in src.elements():
                        for y in src.elements():
                            assert emb[src.prod(x, y)] == dst.prod(emb[x], emb[y])
                            assert emb[src.imp(x, y)] == dst.imp(emb[x], emb[y])
                else:
                    assert emb is None

    _report(10, "separating formulas split consecutive subvarieties and "
                "embeddings only go upward", body)
