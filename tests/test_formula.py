"""Parser, renderer and expansion checks for the formula layer."""

import random
import re
import sys
from functools import reduce

import pytest

from dplogic import (
    Bot, Delta, Iff, Imp, Min, Neg, Or, ParseError, Power, Strong, Top, Var,
    parse, variables,
)
from dplogic.algebra import DPChain, enumerate_mtl_chains, evaluate, holds
from dplogic.formula import _ALIASES, MAX_DEPTH, _tokenize, compile
from dplogic.suites import random_formula


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


def test_parse_errors_after_unicode_aliases_give_the_text_position():
    # an alias is one character of the text, so what follows it keeps its
    # own position
    with pytest.raises(ParseError, match="^unexpected character '\\$' at position 4$") as err:
        parse("x ∧ $")
    assert err.value.pos == 4
    with pytest.raises(ParseError, match="^unexpected '\\)' .* at position 5$") as err:
        parse("¬¬¬¬ )")
    assert err.value.pos == 5


def test_parse_reads_no_further_than_the_token_it_stops_at():
    # the second & is refused before the character after it is scanned
    with pytest.raises(ParseError, match="^unexpected '&' .* at position 4$") as err:
        parse("x & & $")
    assert err.value.pos == 4 and err.value.expected == {"<ident>", "0", "1", "(", "~", "D"}
    with pytest.raises(ParseError, match="^numeral '2' is not a formula"):
        parse("2@")
    tokens = _tokenize("x $")
    assert next(tokens) == ("ident", "x", 0)
    with pytest.raises(ParseError, match="^unexpected character '\\$' at position 2$"):
        next(tokens)
    assert list(_tokenize("x -> 1")) == [("ident", "x", 0), ("imp", "->", 2), ("num", "1", 5),
                                        (None, "", 6)]


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


def test_power_exponent_is_at_most_two_to_the_64():
    x = Var("x")
    assert Power(x, 2**64).n == 2**64
    with pytest.raises(ValueError):
        Power(x, 2**64 + 1)
    assert parse("x^18446744073709551616") == Power(x, 2**64)
    # leading zeros, ASCII or not, do not count against the bound
    assert parse("x^" + "0" * 40 + "7") == parse("x^" + "٠" * 40 + "٧") == Power(x, 7)
    for digits in ("18446744073709551617", "9" * 5000):
        with pytest.raises(ParseError, match="at most 2\\^64 at position 6$"):
            parse("y & x^" + digits)


@pytest.mark.parametrize("name", ["1", "D", "x y", "", "x-1", "é", "x\u0301", 1, None], ids=repr)
def test_var_refuses_a_name_that_is_not_one_identifier_token(name):
    # none is one identifier to the lexer, so none would render as text that parses back to it
    with pytest.raises(ValueError, match="^variable name must be an ASCII identifier "
                                         "other than D: "):
        Var(name)


@pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "2"], ids=repr)
def test_power_refuses_an_exponent_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="^power exponent must be an int, got "):
        Power(Var("x"), n)


_BAD_CHILDREN = [
    (Neg, (5,), 5), (Or, (Var("x"), "y"), "y"), (Strong, (None, Top()), None),
    (Min, (Top(), 1), 1), (Imp, ("x", Var("x")), "x"), (Iff, (Bot(), 0.5), 0.5),
    (Delta, (b"x",), b"x"), (Power, (2, 3), 2),
]


@pytest.mark.parametrize("cls, args, child", _BAD_CHILDREN,
                         ids=[cls.__name__ for cls, _, _ in _BAD_CHILDREN])
def test_connectives_refuse_a_child_that_is_not_a_formula(cls, args, child):
    # such a tree would fail in render with a bare KeyError, so it is not built
    with pytest.raises(ValueError) as refused:
        cls(*args)
    assert str(refused.value) == f"{cls.__name__} takes formulas, got {child!r}"


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


def test_roundtrip_on_random_asts():
    rng = random.Random(4411)
    for _ in range(500):
        f = random_formula(rng, rng.randrange(1, 9))
        assert parse(str(f)) == f


def expand_by_ladder(f):
    """f without D, rewritten to {Var, Bot, Strong, Min, Imp} by the MTL
    definitions of ~, 1, \\/, <-> and powers."""
    if isinstance(f, (Var, Bot)):
        return f
    if isinstance(f, Top) or isinstance(f, Power) and f.n == 0:
        return Imp(Bot(), Bot())
    if isinstance(f, Neg):
        return Imp(expand_by_ladder(f.arg), Bot())
    if isinstance(f, Power):
        a = expand_by_ladder(f.arg)
        return reduce(Strong, [a] * f.n)
    a, b = expand_by_ladder(f.lhs), expand_by_ladder(f.rhs)
    if isinstance(f, Or):
        return Min(Imp(Imp(a, b), b), Imp(Imp(b, a), a))
    if isinstance(f, Iff):
        return Strong(Imp(a, b), Imp(b, a))
    return type(f)(a, b)


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
        g = expand_by_ladder(f)
        assert _primitive_only(g)
        # on a chain, f <-> g is the top exactly where f and g are equal
        for chain in chains:
            assert holds(Iff(f, g), chain).ok, (str(f), chain)


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
    # slots 0 and 1 are the constants, 2 and 3 the variables
    assert prog.code == (("&", 2, 3), ("->", 4, 0), ("\\/", 4, 5))
    assert prog.root == 6


def test_compile_lowers_derived_connectives():
    prog = compile(parse("x <-> y"))
    assert (prog.code, prog.root) == (
        (("->", 2, 3), ("->", 3, 2), ("&", 4, 5)), 6)
    # x^3 = x & x^2 and x^4 = x^2 & x^2 share the square
    prog = compile(parse("x^3 \\/ x^4"))
    assert (prog.code, prog.root) == (
        (("&", 2, 2), ("&", 2, 3), ("&", 3, 3), ("\\/", 4, 5)), 6)
    assert len(compile(parse("x^123456789")).code) < 60
    prog = compile(parse("D x -> 0"))
    assert (prog.code, prog.root, prog.delta) == (
        (("&", 2, 2), ("->", 3, 0)), 4, True)


def test_compile_shares_a_slot_between_a_connective_and_its_definition():
    # ~x is x -> 0, and D x, x & x and x^2 are one slot: one operation each
    for left, right in (("~x", "x -> 0"), ("D x", "x & x"), ("D x", "x^2")):
        a, b = compile(parse(left)), compile(parse(right))
        assert (a.code, a.root) == (b.code, b.root)
        assert len(compile(parse(f"({left}) /\\ ({right})")).code) == 2


def test_compile_zeroth_power_is_one_but_keeps_its_variables():
    prog = compile(parse("y^0 & (x -> y)^0 & z"))
    assert prog.names == ("y", "x", "z")
    assert (prog.code, prog.root) == ((("&", 1, 1), ("&", 5, 4)), 6)
    # D leaves no operation under a zeroth power, but is recorded
    prog = compile(parse("(D x)^0 -> x"))
    assert (prog.code, prog.root, prog.delta) == ((("->", 1, 2),), 3, True)
    assert not compile(parse("x^0 -> x")).delta


def test_compile_names_match_variables_and_nodes_come_in_post_order():
    rng = random.Random(7301)
    for _ in range(300):
        f = random_formula(rng, rng.randrange(1, 9))
        prog = compile(f)
        assert list(prog.names) == variables(f)
        assert len(set(prog.code)) == len(prog.code)
        first = 2 + len(prog.names)
        for slot, (op, a, b) in enumerate(prog.code, first):
            assert op in ("&", "->", "/\\", "\\/")
            assert 0 <= a < slot and 0 <= b < slot
        assert 0 <= prog.root < first + len(prog.code)
        assert prog.delta == ("D" in str(f))


def test_compile_needs_no_recursion():
    f = Var("x")
    for _ in range(20000):
        f = Neg(f)
    prog = compile(f)
    assert len(prog.code) == 20000
    assert prog.code[-1] == ("->", 20001, 0)
    assert prog.root == 20002


class ReferenceParser:
    """The module grammar transcribed rule by rule as recursive descent:
    the oracle for parse() on input shallow enough to recurse on.  It
    holds one token of lookahead, so it scans the text no further than
    the token it stops at."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.next = next(self.tokens)

    def peek(self):
        return self.next[0]

    def take(self):
        token, self.next = self.next, next(self.tokens)
        return token

    def fail(self, expected):
        kind, val, pos = self.next
        if kind is not None:
            raise ParseError(f"unexpected {val!r}", pos, expected)
        raise ParseError("unexpected end of input", len(self.text), expected)

    def left(self, kind, cls, operand):
        f = operand()
        while self.peek() == kind:
            self.take()
            f = cls(f, operand())
        return f

    def formula(self):
        return self.left("iff", Iff, self.imp)

    def imp(self):
        f = self.left("or", Or, self.conj)
        if self.peek() == "imp":
            self.take()
            return Imp(f, self.imp())
        return f

    def conj(self):
        return self.left("and", Min, self.strong)

    def strong(self):
        return self.left("&", Strong, self.unary)

    def unary(self):
        if self.peek() in ("~", "delta"):
            cls = Neg if self.take()[0] == "~" else Delta
            return cls(self.unary())
        f = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "num":
                self.fail({"<nat>"})
            f = Power(f, int(self.take()[1]))
        return f

    def atom(self):
        kind = self.peek()
        if kind == "ident":
            return Var(self.take()[1])
        if kind == "num":
            # checked before it is taken: taking it reads the token after it
            _, val, pos = self.next
            if val not in ("0", "1"):
                raise ParseError(f"numeral {val!r} is not a formula", pos, {"0", "1"})
            self.take()
            return Bot() if val == "0" else Top()
        if kind == "(":
            self.take()
            f = self.formula()
            if self.peek() != ")":
                self.fail({")"})
            self.take()
            return f
        self.fail({"<ident>", "0", "1", "(", "~", "D"})

    def parse(self):
        f = self.formula()
        if self.peek() is not None:
            self.fail({"<end of input>"})
        return f


def outcome(parser, text):
    try:
        return repr(parser(text))
    except ParseError as exc:
        return (str(exc), exc.pos, exc.expected)


def test_parse_matches_recursive_descent_on_random_token_strings():
    pieces = ["x", "y1", "0", "1", "2", "(", ")", "~", "D", "D ", "&", "/\\",
              "\\/", "->", "<->", "^", "^2", "^0", "¬", "→", " ", "@"]
    rng = random.Random(91017)
    parsed = 0
    for _ in range(20000):
        text = "".join(rng.choice(pieces) + rng.choice(("", " "))
                       for _ in range(rng.randrange(1, 16)))
        want = outcome(lambda t: ReferenceParser(t).parse(), text)
        assert outcome(parse, text) == want, text
        parsed += isinstance(want, str)
    # accepted input is well represented among the rejected
    assert parsed > 300


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<or>\\/)
      | (?P<and>/\\)
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[&~^()])
      | (?P<alias>[¬∧∨→↔Δ⊥⊤])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def regex_tokenize(text):
    """The tokenizer as one regular expression: the oracle for _tokenize.
    An alias is the token it stands for, at its own position."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        val = m.group()
        if kind == "punct":
            kind = val
        elif kind == "alias":
            kind, val = _ALIASES[val]
        elif kind == "ident" and val == "D":
            kind = "delta"
        elif kind == "bad":
            raise ParseError(f"unexpected character {val!r}", m.start())
        tokens.append((kind, val, m.start()))
    return tokens


def test_tokenizer_matches_the_regex_tokenizer():
    pieces = ["x", "y1", "_a", "D", "Dx", "0", "17", "٣", "१२", "x٣", "\u00b2",
              "\u2460", "<->", "<-", "<", "->", "-", "-->", "\\/", "\\", "/\\",
              "/", "/\\/", "&", "~", "^", "(", ")", " ", "\t", "\n", "\x0b", "\x1c",
              "\x85", "\xa0", "\u2003", "\u3000", "\u200b", "¬", "∧", "∨", "→",
              "↔", "Δ", "⊥", "⊤", "@", "$", "é", "ß", "x\u0301", "\U0001d4cd",
              "\U0001d7d9", "\ud800", "\x00"]
    rng = random.Random(60601)
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
        assert (outcome(lambda t: list(_tokenize(t))[:-1], text)
                == outcome(regex_tokenize, text)), text
    # the scanner's character classes are the expression's \s and \d
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert re.findall(r"\d", chars) == [c for c in chars if c.isdecimal()]


def test_parse_depth_is_bounded_not_recursive():
    deepest = "~" * (MAX_DEPTH - 1) + "x"
    assert str(parse(deepest)) == deepest
    assert variables(parse(deepest)) == ["x"]
    prog = compile(parse(deepest))
    assert prog.code[-1] == ("->", MAX_DEPTH, 0) and prog.root == MAX_DEPTH + 1
    for text in ("~" * MAX_DEPTH + "x", "D " * MAX_DEPTH + "x",
                 " & ".join(["x"] * (MAX_DEPTH + 1)),
                 " -> ".join(["x"] * (MAX_DEPTH + 1)),
                 "(" * 5000 + "~" * 5000 + "x" + ")" * 5000):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse(text)
    # parentheses alone add no depth
    assert parse("(" * 100000 + "x" + ")" * 100000) == Var("x")
    text = "(" * 400 + "~x" + ")^2" * 400 + " & y"
    assert str(parse(text)) == text


def test_the_deepest_formulas_compare_hash_and_print():
    # as deep as parse goes: a chain of negations and one of implications
    for prefix, suffix, node in (("~" * (MAX_DEPTH - 1), "", "Neg(arg="),
                                 ("x -> " * (MAX_DEPTH - 1), "", "Imp(lhs=Var(name='x'), rhs=")):
        f, g = parse(prefix + "x" + suffix), parse(prefix + "x" + suffix)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        assert f != parse(prefix + "y" + suffix)
        # the hash of the tuple of the fields, as for shallow records
        assert hash(f) == hash(tuple(getattr(f, name) for name in f._fields))
        assert repr(f) == node * (MAX_DEPTH - 1) + "Var(name='x')" + ")" * (MAX_DEPTH - 1)
