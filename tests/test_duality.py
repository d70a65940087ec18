"""Multiset category: products, morphisms, free duals, hom-count duality."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplogic import (
    CapExceeded, MCMorphism, MultisetObj, coproduct, enumerate_homomorphisms,
    enumerate_morphisms, free_cardinality, free_coefficient, free_dual,
    height, kx3_identity_check, mc_inverse, morphism_count, power, product,
    surjection_count, top_lift,
)
from dplogic.duality import (
    EMPTY, FREE_ONE_DUAL, TERMINAL, _singleton_product, free_dual_closed_form,
    free_dual_recurrence, monotone_surjections, multiset_from_json,
    multiset_from_text, multiset_to_json,
)


def ms(*lengths):
    return MultisetObj.from_lengths(lengths)


def test_canonical_form():
    assert ms(1, 3, 2, 1).chains == ((1, 2), (2, 1), (3, 1))
    assert ms(1, 3, 2, 1) == MultisetObj.from_counts({3: 1, 1: 2, 2: 1})
    assert MultisetObj.from_counts({2: 0, 1: 1}) == ms(1)
    with pytest.raises(ValueError):
        MultisetObj(((0, 1),))
    with pytest.raises(ValueError):
        MultisetObj(((2, -1),))


def test_multiset_str_forms():
    assert str(EMPTY) == "{}"
    assert str(ms(1, 3, 2, 1)) == "{1,1,2,3}"
    assert str(MultisetObj.from_counts({1: 40, 2: 5})) == "{1:40,2:5}"


def test_coproduct():
    assert coproduct(ms(1, 3), ms(2, 3)) == ms(1, 2, 3, 3)
    assert coproduct(ms(2, 4), EMPTY) == ms(2, 4)
    assert coproduct(EMPTY, EMPTY) == EMPTY


def test_top_lift():
    assert top_lift(ms(1, 2)) == ms(2, 3)
    assert top_lift(EMPTY) == EMPTY
    assert top_lift(ms(3, 3)) == ms(4, 4)


def test_product_base_cases():
    assert product(ms(1), ms(5)) == ms(5)
    assert product(ms(5), ms(1)) == ms(5)
    assert product(ms(2), ms(4)) == ms(4)
    assert product(ms(2), ms(2)) == ms(2)
    assert product(ms(1), ms(1)) == ms(1)
    assert product(ms(3), EMPTY) == EMPTY


def test_product_recursion():
    assert product(ms(3), ms(3)) == ms(3, 4, 4)
    # unfold {3}x{4} by hand: ({3}x{3} + {2}x{3} + {2}x{4}) lifted
    lifted = top_lift(coproduct(coproduct(ms(3, 4, 4), ms(3)), ms(4)))
    assert product(ms(3), ms(4)) == lifted


def test_product_distributes_and_commutes():
    objs = [EMPTY, ms(1), ms(2), ms(3), ms(1, 2), ms(2, 2), ms(3, 4), ms(2, 3, 3)]
    for c in objs:
        for d in objs:
            assert product(c, d) == product(d, c)
            for e in objs:
                assert (product(c, coproduct(d, e))
                        == coproduct(product(c, d), product(c, e)))


@cache
def singleton_product_by_recursion(a, b):
    # {a} x {b} as the category's lifting recursion builds it:
    # top_lift({a} x {b-1} + {a-1} x {b-1} + {a-1} x {b}) for a, b >= 3
    if a > b:
        a, b = b, a
    if a <= 2:
        return ((b, 1),)
    merged = {}
    for part in (singleton_product_by_recursion(a, b - 1),
                 singleton_product_by_recursion(a - 1, b - 1),
                 singleton_product_by_recursion(a - 1, b)):
        for l, m in part:
            merged[l + 1] = merged.get(l + 1, 0) + m
    return tuple(sorted(merged.items()))


def test_singleton_product_closed_form_matches_the_recursion():
    for a in range(1, 61):
        for b in range(1, 61):
            assert _singleton_product(a, b) == singleton_product_by_recursion(a, b), (a, b)


def _product_through_from_counts(c, d):
    # the recursion's counts merged through the validating public constructor
    merged = {}
    for la, ma in c.chains:
        for lb, mb in d.chains:
            for l, m in singleton_product_by_recursion(la, lb):
                merged[l] = merged.get(l, 0) + ma * mb * m
    return MultisetObj.from_counts(merged)


_MULTISETS = (st.sampled_from([EMPTY, TERMINAL])
              | st.dictionaries(st.integers(1, 9), st.integers(0, 10**6), max_size=5)
              .map(MultisetObj.from_counts))


@settings(max_examples=300, deadline=None)
@given(_MULTISETS, _MULTISETS)
def test_product_is_the_canonical_object_from_counts_builds(c, d):
    out = product(c, d)
    want = _product_through_from_counts(c, d)
    assert type(out) is MultisetObj
    assert out.chains == want.chains
    assert out == want and hash(out) == hash(want) and repr(out) == repr(want)
    # canonical: validating it again changes nothing
    assert MultisetObj(out.chains).chains == out.chains


def test_product_is_associative():
    objs = [ms(1), ms(2), ms(3), ms(1, 2), ms(2, 3)]
    for c in objs:
        for d in objs:
            for e in objs:
                assert (product(product(c, d), e)
                        == product(c, product(d, e)))


def test_power():
    assert power(ms(1, 3, 2, 1), 1) == ms(1, 1, 2, 3)
    assert power(ms(3, 3), 0) == TERMINAL
    assert power(EMPTY, 0) == TERMINAL
    assert power(ms(1, 3, 2, 1), 2) == MultisetObj.from_counts(
        {1: 4, 2: 5, 3: 7, 4: 2})
    with pytest.raises(ValueError):
        power(ms(2), -1)


def test_power_cap(monkeypatch):
    from dplogic import duality
    monkeypatch.setattr(duality, "POWER_INSTANCE_CAP", 10**4)
    with pytest.raises(CapExceeded):
        power(ms(3, 3, 3), 40)


def test_power_stops_at_a_fixed_point(monkeypatch):
    # {1}, {2} and the empty multiset are fixed by one more product, so a
    # huge exponent takes two products; every other base meets the cap
    from dplogic import duality
    calls = [0]

    def counted(c, d):
        calls[0] += 1
        assert calls[0] <= 2, "power went on past a fixed point"
        return product(c, d)
    monkeypatch.setattr(duality, "product", counted)
    for base in (ms(1), ms(2), EMPTY):
        calls[0] = 0
        assert power(base, 10**12) == product(base, base)
    monkeypatch.undo()
    assert power(ms(2), 1) == ms(2)
    assert power(EMPTY, 1) == EMPTY
    for base in (ms(3), ms(1, 1), ms(1, 2)):
        with pytest.raises(CapExceeded, match="chain instances of a power exceed the cap of 1000000$"):
            power(base, 10**12)


def test_mc_inverse():
    boolean = mc_inverse(ms(1))
    assert [f.size for f in boolean.factors] == [2]
    assert [f.size for f in mc_inverse(ms(3)).factors] == [4]
    free1 = mc_inverse(ms(1, 3, 2, 1))
    assert [f.size for f in free1.factors] == [2, 2, 3, 4]
    assert free1.size == 48
    with pytest.raises(ValueError):
        mc_inverse(EMPTY)


def test_mc_inverse_turns_coproducts_into_products():
    for c in [ms(1), ms(2, 3), ms(1, 1, 4)]:
        for d in [ms(2), ms(3, 3)]:
            both = mc_inverse(coproduct(c, d))
            assert sorted(f.size for f in both.factors) == sorted(
                [f.size for f in mc_inverse(c).factors]
                + [f.size for f in mc_inverse(d).factors])


def test_height():
    assert height(ms(1, 3, 2, 1)) == 3
    assert height(ms(1)) == 1
    with pytest.raises(ValueError):
        height(EMPTY)
    rng = random.Random(7)
    for _ in range(40):
        c = ms(*[rng.randrange(1, 7) for _ in range(rng.randrange(1, 4))])
        d = ms(*[rng.randrange(1, 7) for _ in range(rng.randrange(1, 4))])
        assert height(coproduct(c, d)) == max(height(c), height(d))


def test_surjection_counts():
    assert surjection_count(2, 2) == 1
    assert surjection_count(2, 1) == 1
    assert surjection_count(3, 2) == 1
    assert surjection_count(4, 3) == 2
    assert surjection_count(1, 2) == 0
    assert surjection_count(5, 3) == 3
    for a in range(1, 8):
        for b in range(1, 8):
            maps = monotone_surjections(a, b)
            assert len(maps) == surjection_count(a, b)
            for m in maps:
                assert len(m) == a
                assert sorted(set(m)) == list(range(b))
                assert all(x <= y for x, y in zip(m, m[1:]))
                if b > 1:
                    assert m.count(b - 1) == 1 and m[-1] == b - 1


def test_morphism_validation():
    c, d = ms(3), ms(2)
    MCMorphism(c, d, ((0, (0, 0, 1)),))
    with pytest.raises(ValueError):
        MCMorphism(c, d, ((0, (0, 1, 1)),))  # top fiber too big
    with pytest.raises(ValueError):
        MCMorphism(c, d, ((0, (0, 0, 0)),))  # not surjective
    with pytest.raises(ValueError):
        MCMorphism(c, d, ((0, (1, 0, 1)),))  # not monotone
    with pytest.raises(ValueError):
        MCMorphism(c, d, ((1, (0, 0, 1)),))  # no such target instance
    with pytest.raises(ValueError):
        MCMorphism(c, d, ())  # missing component


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: MCMorphism(ms(3), ms(2), ((0, (0, 1)),)),
                 "component map must cover every source rank", id="short-map"),
    pytest.param(lambda: MCMorphism(ms(3), ms(2), ((0, (0, 0, 2)),)),
                 "component map value out of target range", id="above-target"),
    pytest.param(lambda: MCMorphism(ms(3), ms(2), ((0, (0, 0, -1)),)),
                 "component map value out of target range", id="below-target"),
    pytest.param(lambda: free_dual_recurrence(-1), "need k >= 0, got -1", id="recurrence-k"),
])
def test_duality_input_checks_name_what_they_refuse(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_enumerate_morphisms_examples():
    assert len(enumerate_morphisms(ms(2), ms(2))) == 1
    assert len(enumerate_morphisms(ms(2), ms(1))) == 1
    assert len(enumerate_morphisms(ms(3), ms(2))) == 1
    assert len(enumerate_morphisms(ms(2), ms(3))) == 0
    assert enumerate_morphisms(EMPTY, ms(2)) != []  # the empty family
    assert len(enumerate_morphisms(ms(2), EMPTY)) == 0


def test_enumerate_morphisms_cap():
    with pytest.raises(CapExceeded):
        enumerate_morphisms(ms(*[1] * 9), ms(1))
    with pytest.raises(CapExceeded):
        enumerate_morphisms(ms(9), ms(9))


def test_morphism_count_closed_form_matches_enumeration():
    objs = [EMPTY, ms(1), ms(2), ms(3), ms(1, 1), ms(1, 2), ms(2, 2),
            ms(2, 3), ms(3, 3), ms(1, 2, 3), ms(4)]
    for c in objs:
        for d in objs:
            assert morphism_count(c, d) == len(enumerate_morphisms(c, d))


def test_answers_past_their_bit_caps_are_refused_unbuilt():
    counts = MultisetObj.from_counts
    # at each cap the answer is built; one bit past it, it is refused
    assert morphism_count(counts({3: 2**20}), ms(2, 3)) == 2 ** 2**20
    with pytest.raises(CapExceeded, match="^1048577 bits of hom count exceed the cap of 1048576$"):
        morphism_count(counts({3: 2**20 + 1}), ms(2, 3))
    # a multiplicity or a binomial far past the cap, before anything is raised to it
    with pytest.raises(CapExceeded, match="^18446744073709551616 bits of hom count"):
        morphism_count(counts({3: 10**400}), ms(2, 3))
    with pytest.raises(CapExceeded, match="^1221499996 bits of hom count"):
        morphism_count(ms(10**9), ms(5 * 10**8))
    # binomials each far below the cap, past it together
    with pytest.raises(CapExceeded, match="^1053361 bits of hom count"):
        morphism_count(ms(10**6), ms(*range(2, 3002)))
    # four (and five) factors of 2^65536 elements
    assert len(mc_inverse(counts({2**65536 - 1: 4})).factors) == 4
    with pytest.raises(CapExceeded, match="^327680 bits of element count exceed the cap of 262144$"):
        mc_inverse(counts({2**65536 - 1: 5}))
    # {a} x {a}: (a-1)(a-2) 4 bits by the bound, past 2^25 from a = 2898 on
    with pytest.raises(CapExceeded, match="^33558848 bits of product multiplicities"):
        product(ms(2898), ms(2898))
    with pytest.raises(CapExceeded, match="product multiplicities"):
        power(ms(10**5), 2)
    # single-chain products each below the cap, past it together
    with pytest.raises(CapExceeded, match="^33561860 bits of product multiplicities"):
        product(ms(*range(40, 60)), ms(*range(2**60, 2**60 + 20)))
    # a source chain with no target makes the count 0, whatever the rest
    assert morphism_count(counts({2: 1, 3: 10**400}), ms(3)) == 0
    # 3.2e14 morphisms within both ENUM_* caps, counted before one is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="^318644812890625 morphisms exceed the cap of 65536$"):
        enumerate_morphisms(ms(*[8] * 8), ms(*range(1, 9)))
    assert time.perf_counter() - start < 0.1


def test_terminal_object():
    for c in [ms(1), ms(2), ms(3, 3), ms(1, 2, 4)]:
        assert morphism_count(c, TERMINAL) == 1
        assert product(c, TERMINAL) == c


def test_hom_counts_into_products_multiply():
    objs = [ms(1), ms(2), ms(3), ms(1, 1), ms(2, 3), ms(3, 3)]
    for x in objs:
        for a in objs:
            for b in objs:
                assert (morphism_count(x, product(a, b))
                        == morphism_count(x, a) * morphism_count(x, b))


def test_duality_hom_counts_match_algebra_homomorphisms():
    objs = [ms(l) for l in (1, 2, 3)]
    objs += [ms(a, b) for a in (1, 2, 3) for b in (a, 3) if a <= b]
    for c in objs:
        for d in objs:
            dual_count = morphism_count(c, d)
            algebraic = enumerate_homomorphisms(mc_inverse(d), mc_inverse(c))
            assert dual_count == len(algebraic)


def test_free_dual_small_values():
    assert free_dual(0) == TERMINAL
    assert free_dual(1) == ms(1, 1, 2, 3)
    assert FREE_ONE_DUAL == ms(1, 1, 2, 3)


def test_free_coefficient_closed_form():
    assert [free_coefficient(1, h) for h in (1, 2, 3)] == [2, 1, 1]
    assert free_coefficient(2, 4) == 5**2 - 2 * 4**2 + 3**2 == 2
    assert [free_coefficient(2, h) for h in (1, 2, 3, 4)] == [4, 5, 7, 2]
    for k in range(7):
        assert free_coefficient(k, k + 3) == 0
        assert free_coefficient(k, 1) == 2**k
        assert free_coefficient(k, 2) == 3**k - 2**k
    with pytest.raises(ValueError):
        free_coefficient(-1, 1)
    with pytest.raises(ValueError):
        free_coefficient(2, 0)


def test_free_coefficient_recurrence():
    for k in range(7):
        a = {h: free_coefficient(k, h) for h in range(1, k + 4)}
        b = {h: free_coefficient(k + 1, h) for h in range(1, k + 5)}
        assert b[1] == 2 * a[1]
        assert b[2] == a[1] + 3 * a[2]
        assert b[3] == a[1] + a[2] + 4 * a.get(3, 0)
        for h in range(4, k + 5):
            assert b[h] == (h - 2) * a.get(h - 1, 0) + (h + 1) * a.get(h, 0)


def test_free_routes_agree():
    for k in range(7):
        by_power = free_dual(k)
        assert by_power == free_dual_closed_form(k)
        assert by_power == free_dual_recurrence(k)


def test_free_cardinality():
    assert free_cardinality(0) == 2
    assert free_cardinality(1) == 48
    assert free_cardinality(2) == 2**4 * 3**5 * 4**7 * 5**2 == 1592524800
    for k in range(7):
        value = 1
        for l, m in free_dual(k).chains:
            value *= (l + 1) ** m
        assert free_cardinality(k) == value
    # stays exact well past the range where the duals get large
    assert free_cardinality(8) % 10 in (0, 2, 4, 6, 8)
    with pytest.raises(ValueError):
        free_cardinality(-1)
    with pytest.raises(CapExceeded):
        free_cardinality(13)


def test_free_cardinality_refuses_nine_to_twelve_at_once():
    # the products for k = 9..12 run from 171 Mbit to about 754 Gbit; in a
    # child, so that a cap admitting them ends at the timeout, not in a stall
    from dplogic import duality
    code = ("from dplogic import CapExceeded, free_cardinality\n"
            "for k in range(9, 13):\n"
            "    try:\n"
            "        free_cardinality(k)\n"
            "    except CapExceeded as exc:\n"
            "        print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(duality.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "".join(f"{k} generators exceed the cap of 8\n" for k in range(9, 13))


def _failing_check_rows() -> list[str]:
    from dplogic import suites
    return [name for name, ok, _ in suites.run_suite("all") if not ok]


def test_check_rows_catch_a_wrong_product_and_a_wrong_coefficient(monkeypatch):
    # each fault lies outside every other row's reach: the other product
    # rows pair lengths of at most 4 or multiply by {3} or by {1,1,2,3},
    # and no other row reads the coefficients of F(9)'s dual above length 4
    from dplogic import duality
    real_product, real_coefficient = duality._singleton_product, duality.free_coefficient

    def wrong_product(a, b):
        out = real_product(a, b)
        if min(a, b) < 5:
            return out
        (length, mult), *rest = out
        return ((length, mult + 1), *rest)

    with monkeypatch.context() as patch:
        patch.setattr(duality, "_singleton_product", wrong_product)
        assert _failing_check_rows() == ["single-chain products lift their predecessors"]
    monkeypatch.setattr(duality, "free_coefficient",
                        lambda k, h: real_coefficient(k, h) + ((k, h) == (9, 5)))
    assert _failing_check_rows() == ["the closed form takes the power step"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 8), max_size=5), st.integers(0, 12))
def test_free_dual_has_the_universal_property(lengths, k):
    # Hom(F(k), A) is A^k, so a multiset c has |mc_inverse(c)|^k morphisms
    # into the free dual, here the closed form's, the route up to the cap
    c = MultisetObj.from_lengths(lengths)
    assert (morphism_count(c, free_dual_closed_form(k))
            == math.prod(l + 1 for l in lengths) ** k)


def test_kx3_identity():
    assert kx3_identity_check(2)
    assert kx3_identity_check(3)
    assert product(ms(3), ms(3)) == MultisetObj.from_counts({4: 2, 3: 1})
    assert product(ms(10), ms(3)) == MultisetObj.from_counts({11: 9, 10: 8})
    for k in range(2, 21):
        assert kx3_identity_check(k)
    with pytest.raises(ValueError):
        kx3_identity_check(1)
    with pytest.raises(ValueError):
        kx3_identity_check(21)


def test_multiset_json_roundtrip():
    for c in [EMPTY, ms(1), ms(1, 3, 2, 1), MultisetObj.from_counts({2: 9})]:
        data = multiset_to_json(c)
        assert multiset_from_json(data) == c
    assert multiset_to_json(ms(1, 3, 2, 1)) == {
        "chains": [{"len": 1, "mult": 2}, {"len": 2, "mult": 1},
                   {"len": 3, "mult": 1}]}


def test_multiset_text_forms():
    assert multiset_from_text("{1,3,2,1}") == ms(1, 3, 2, 1)
    assert multiset_from_text("{1:4, 2:5}") == MultisetObj.from_counts(
        {1: 4, 2: 5})
    assert multiset_from_text("{}") == EMPTY
    assert multiset_from_text(" { 3 } ") == ms(3)
    with pytest.raises(ValueError):
        multiset_from_text("{a}")


def test_height_behaviour_under_morphisms():
    """Component maps are surjections, so they never map onto a longer
    chain; when every target instance is hit, the whole object's height
    cannot grow either."""
    objs = [ms(1), ms(2), ms(3), ms(1, 1), ms(2, 3), ms(3, 3), ms(1, 3)]
    for c in objs:
        for d in objs:
            for f in enumerate_morphisms(c, d):
                src, tgt = c.lengths(), d.lengths()
                for i, (j, _) in enumerate(f.components):
                    assert tgt[j] <= src[i]
                if {j for j, _ in f.components} == set(range(len(tgt))):
                    assert height(d) <= height(c)


def test_morphisms_can_reach_taller_unhit_targets():
    # a target instance nothing maps onto may well be taller than the
    # source, so height comparison needs the covering hypothesis above
    fs = enumerate_morphisms(ms(1), ms(1, 5))
    assert len(fs) == 1
    assert height(ms(1, 5)) > height(ms(1))
