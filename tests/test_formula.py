"""Parser, renderer and expansion checks for the formula layer."""

import itertools
import random
from functools import reduce

import pytest

from dplogic import (
    Bot, Delta, Iff, Imp, Min, Neg, Or, ParseError, Power, Strong, Top, Var,
    expand_derived, parse, variables,
)
from dplogic.algebra import DPChain, enumerate_mtl_chains, evaluate
from dplogic.formula import compile


def test_parse_atoms():
    assert parse("x") == Var("x")
    assert parse("0") == Bot()
    assert parse("1") == Top()
    assert parse("(x)") == Var("x")
    assert parse("long_name2") == Var("long_name2")


def test_parse_dp_axiom():
    assert parse("x \\/ ~(x^2)") == Or(Var("x"), Neg(Power(Var("x"), 2)))


def test_parse_minimal_implication():
    assert parse("0 -> x") == Imp(Bot(), Var("x"))


def test_implication_is_right_associative():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse("a -> b -> c") == Imp(a, Imp(b, c))


def test_chains_are_left_associative():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse("a \\/ b \\/ c") == Or(Or(a, b), c)
    assert parse("a /\\ b /\\ c") == Min(Min(a, b), c)
    assert parse("a & b & c") == Strong(Strong(a, b), c)
    assert parse("a <-> b <-> c") == Iff(Iff(a, b), c)


def test_precedence_ladder():
    f = parse("a <-> b -> c \\/ d /\\ e & ~g^2")
    want = Iff(
        Var("a"),
        Imp(Var("b"),
            Or(Var("c"),
               Min(Var("d"),
                   Strong(Var("e"), Neg(Power(Var("g"), 2)))))))
    assert f == want


def test_unicode_aliases_accepted_on_input():
    assert parse("¬x") == Neg(Var("x"))
    assert parse("x ∧ y") == Min(Var("x"), Var("y"))
    assert parse("x ∨ y") == Or(Var("x"), Var("y"))
    assert parse("x → y") == Imp(Var("x"), Var("y"))
    assert parse("x ↔ y") == Iff(Var("x"), Var("y"))
    assert parse("Δx") == Delta(Var("x"))
    assert parse("⊥ → ⊤") == Imp(Bot(), Top())


def test_delta_token_is_reserved_but_prefixes_are_not():
    assert parse("D x") == Delta(Var("x"))
    assert parse("D(x & y)") == Delta(Strong(Var("x"), Var("y")))
    # glued together this is a single identifier
    assert parse("Dx") == Var("Dx")


def test_power_zero_parses():
    assert parse("x^0") == Power(Var("x"), 0)


def test_power_exponent_must_be_nonnegative():
    with pytest.raises(ValueError):
        Power(Var("x"), -1)


def test_render_golden_strings():
    assert str(Neg(Var("x"))) == "~x"
    assert str(Power(Var("x"), 2)) == "x^2"
    assert str(Or(Var("x"), Neg(Power(Var("x"), 2)))) == "x \\/ ~(x^2)"


def test_render_parenthesizes_only_when_needed():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert str(Imp(Imp(a, b), c)) == "(a -> b) -> c"
    assert str(Imp(a, Imp(b, c))) == "a -> b -> c"
    assert str(Imp(Or(a, b), c)) == "a \\/ b -> c"
    assert str(Power(Neg(a), 2)) == "(~a)^2"
    assert str(Delta(Var("x"))) == "D x"
    assert str(Delta(Strong(a, b))) == "D(a & b)"
    assert str(Neg(Neg(a))) == "~~a"


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("x \\/ ")
    assert err.value.pos == 5
    assert err.value.expected

    for bad in ["", "x y", "2", "x ^ y", "x <->", "(x", "~", "x &"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_variables_first_occurrence_order():
    assert variables(parse("x & y -> x")) == ["x", "y"]
    assert variables(parse("1")) == []
    assert variables(parse("b \\/ a \\/ b")) == ["b", "a"]


NAMES = ["x", "y", "zz"]


def random_formula(rng, depth, allow_delta=True):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var(rng.choice(NAMES)), Bot(), Top()])
    kind = rng.randrange(8 if allow_delta else 7)
    if kind == 7:
        return Delta(random_formula(rng, depth - 1, allow_delta))
    if kind == 0:
        return Neg(random_formula(rng, depth - 1, allow_delta))
    if kind == 1:
        return Power(random_formula(rng, depth - 1, allow_delta), rng.randrange(6))
    a = random_formula(rng, depth - 1, allow_delta)
    b = random_formula(rng, depth - 1, allow_delta)
    return (Strong, Min, Imp, Or, Iff)[kind - 2](a, b)


def test_roundtrip_on_random_asts():
    rng = random.Random(4411)
    for _ in range(500):
        f = random_formula(rng, rng.randrange(1, 9))
        assert parse(str(f)) == f


def test_expansion_of_derived_connectives():
    x, y = Var("x"), Var("y")
    assert expand_derived(Neg(x)) == Imp(x, Bot())
    assert expand_derived(Top()) == Imp(Bot(), Bot())
    assert expand_derived(Or(x, y)) == Min(Imp(Imp(x, y), y), Imp(Imp(y, x), x))
    assert expand_derived(Power(x, 0)) == Imp(Bot(), Bot())


def test_expansion_rejects_delta():
    with pytest.raises(ValueError):
        expand_derived(Delta(Var("x")))


def _primitive_only(f):
    if isinstance(f, (Var, Bot)):
        return True
    if isinstance(f, (Strong, Min, Imp)):
        return _primitive_only(f.lhs) and _primitive_only(f.rhs)
    return False


def test_expansion_is_sound_on_small_chains():
    rng = random.Random(20108)
    chains = [DPChain(n) for n in range(2, 6)]
    for n in range(2, 5):
        chains.extend(enumerate_mtl_chains(n))
    for _ in range(80):
        f = random_formula(rng, rng.randrange(1, 6), allow_delta=False)
        g = expand_derived(f)
        assert _primitive_only(g)
        names = variables(f)
        for chain in chains:
            for combo in itertools.product(chain.elements(), repeat=len(names)):
                v = dict(zip(names, combo))
                assert evaluate(f, chain, v) == evaluate(g, chain, v)


def test_power_matches_iterated_strong():
    x = Var("x")
    for n in range(6):
        f = Power(x, n)
        unfolded = Top() if n == 0 else reduce(Strong, [x] * n)
        for size in range(2, 6):
            chain = DPChain(size)
            for a in chain.elements():
                assert (evaluate(f, chain, {"x": a})
                        == evaluate(unfolded, chain, {"x": a}))


def test_compile_shares_equal_subformulas():
    prog = compile(parse("(x & y) \\/ ~(x & y)"))
    assert prog.names == ("x", "y")
    assert prog.nodes == (("var", 0, 0), ("var", 1, 0), ("&", 0, 1),
                          ("~", 2, 0), ("\\/", 2, 3))


def test_compile_lowers_derived_connectives():
    assert compile(parse("x <-> y")).nodes == (
        ("var", 0, 0), ("var", 1, 0), ("->", 0, 1), ("->", 1, 0), ("&", 2, 3))
    # x^3 = x & x^2 and x^4 = x^2 & x^2 share the square
    assert compile(parse("x^3 \\/ x^4")).nodes == (
        ("var", 0, 0), ("&", 0, 0), ("&", 0, 1), ("&", 1, 1), ("\\/", 2, 3))
    assert len(compile(parse("x^123456789")).nodes) < 60
    assert compile(parse("D x -> 0")).nodes == (
        ("var", 0, 0), ("D", 0, 0), ("0", 0, 0), ("->", 1, 2))


def test_compile_zeroth_power_is_one_but_keeps_its_variables():
    prog = compile(parse("y^0 & (x -> y)^0 & z"))
    assert prog.names == ("y", "x", "z")
    assert prog.nodes == (("1", 0, 0), ("&", 0, 0), ("var", 2, 0), ("&", 1, 2))


def test_compile_names_match_variables_and_nodes_come_in_post_order():
    rng = random.Random(7301)
    for _ in range(300):
        f = random_formula(rng, rng.randrange(1, 9))
        prog = compile(f)
        assert list(prog.names) == variables(f)
        assert len(set(prog.nodes)) == len(prog.nodes)
        for i, (op, a, b) in enumerate(prog.nodes):
            if op not in ("var", "0", "1"):
                assert a < i and b < i


def test_compile_needs_no_recursion():
    f = Var("x")
    for _ in range(20000):
        f = Neg(f)
    prog = compile(f)
    assert len(prog.nodes) == 20001
    assert prog.nodes[-1] == ("~", 19999, 0)
