"""Value semantics of the immutable records (formula nodes, chains,
products, verdicts, multisets, morphisms): construction, equality,
hashing, printing and immutability."""

import copy
import pickle

import pytest

from dplogic import (
    Bot, DPChain, FiniteMTLChain, Imp, MCMorphism, Min, MultisetObj, Neg,
    Power, ProductAlgebra, Strong, Top, Var, Verdict,
)
from dplogic.formula import compile, parse
from free_oracle import FreeAlgebraTable


def test_equality_is_by_class_and_fields():
    a, b = Var("a"), Var("b")
    assert Strong(a, b) == Strong(Var("a"), Var("b"))
    assert Strong(a, b) != Strong(b, a)
    # same fields, different node type
    assert Strong(a, b) != Min(a, b)
    assert Bot() != Top()
    assert Bot() == Bot()
    assert Var("x") != "x"
    assert Strong(a, b).__eq__(Min(a, b)) is NotImplemented
    assert DPChain(3) == DPChain(3) != DPChain(4)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Var("x")) == hash(("x",))
    assert hash(Bot()) == hash(())
    assert hash(Strong(Var("x"), Bot())) == hash((Var("x"), Bot()))
    assert hash(DPChain(5)) == hash((5,))
    assert hash(MultisetObj(((2, 1),))) == hash((((2, 1),),))
    assert len({parse("x & y"), parse("(x & y)"), parse("x /\\ y")}) == 2


def test_repr_names_every_field():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Bot()) == "Bot()"
    assert repr(Neg(Power(Var("x"), 2))) == "Neg(arg=Power(arg=Var(name='x'), n=2))"
    assert repr(Verdict(True)) == (
        "Verdict(ok=True, algebra=None, valuation=None, value=None)")
    assert repr(Verdict(False, DPChain(3), {"x": 1}, 1)) == (
        "Verdict(ok=False, algebra=DPChain(size=3), valuation={'x': 1}, value=1)")
    assert repr(MultisetObj()) == "MultisetObj(chains=())"
    assert repr(MultisetObj.from_lengths([3, 1, 3])) == (
        "MultisetObj(chains=((1, 1), (3, 2)))")


def test_construction_by_position_keyword_and_default():
    x = Var("x")
    assert Var(name="x") == x
    assert Strong(x, rhs=Bot()) == Strong(lhs=x, rhs=Bot()) == Strong(x, Bot())
    assert Power(arg=x, n=3) == Power(x, 3)
    assert Verdict(True) == Verdict(ok=True) == Verdict(True, None, None, None)
    assert Verdict(False, value=2).value == 2
    assert Verdict(False, value=2).algebra is None
    assert MultisetObj() == MultisetObj(()) == MultisetObj(chains=())
    assert MCMorphism(source=MultisetObj.from_lengths([2]),
                      target=MultisetObj.from_lengths([1]),
                      components=((0, (0, 0)),)).components == ((0, (0, 0)),)
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("x", "y")
    with pytest.raises(TypeError):
        Var("x", name="y")
    with pytest.raises(TypeError):
        Strong(x, other=x)
    # factors as chains or their sizes, from any iterable
    product = ProductAlgebra([2, 3])
    assert (ProductAlgebra(n for n in (2, 3)) == ProductAlgebra((2, 3))
            == ProductAlgebra([DPChain(2), DPChain(3)])
            == ProductAlgebra(factors=[2, DPChain(3)]) == product)
    assert product.factors == (DPChain(2), DPChain(3))
    assert ProductAlgebra([3, 2]) != product


def test_fields_cannot_be_assigned_or_deleted():
    x = Var("x")
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        del x.name
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        DPChain(3).size = 4
    with pytest.raises(AttributeError):
        Verdict(True).ok = False
    with pytest.raises(AttributeError):
        MultisetObj().chains = ((1, 1),)
    assert x.name == "x"


def test_post_init_validates_and_normalises():
    with pytest.raises(ValueError):
        Power(Var("x"), -1)
    with pytest.raises(ValueError):
        DPChain(1)
    with pytest.raises(ValueError, match="at least one factor"):
        ProductAlgebra([])
    with pytest.raises(ValueError):
        ProductAlgebra([2, 1])
    with pytest.raises(ValueError):
        MultisetObj(((0, 1),))
    with pytest.raises(ValueError):
        MultisetObj(((2, -1),))
    # repeated lengths merge, zero multiplicities vanish, lengths sort
    c = MultisetObj(((3, 1), (1, 2), (3, 4), (2, 0)))
    assert c.chains == ((1, 2), (3, 5))
    assert c == MultisetObj(((1, 2), (3, 5)))
    assert hash(c) == hash(MultisetObj(((3, 5), (1, 2))))
    with pytest.raises(ValueError):
        MCMorphism(MultisetObj.from_lengths([2]), MultisetObj.from_lengths([2]),
                   ((0, (1, 1)),))


def test_match_args_follow_the_fields():
    assert Strong.__match_args__ == ("lhs", "rhs")
    assert Bot.__match_args__ == ()
    assert Verdict.__match_args__ == ("ok", "algebra", "valuation", "value")
    match parse("x -> 0"):
        case Imp(Var(name), Bot()):
            negated = name
    assert negated == "x"


def test_records_pickle_and_copy():
    values = [parse("D(x -> y)^3 <-> ~1"), DPChain(4), Verdict(True),
              MultisetObj.from_lengths([1, 3, 3]), compile(parse("x & ~x")),
              FreeAlgebraTable(0, 3, ((0,), (2,))), ProductAlgebra([2, 3]),
              FiniteMTLChain([[0, 0, 0], [0, 0, 1], [0, 1, 2]])]
    for value in values:
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert clone == value
            assert type(clone) is type(value)
            assert repr(clone) == repr(value)


def test_instances_keep_their_fields_in_slots():
    from dplogic.formula import Record
    for value in (Var("x"), Bot(), DPChain(3), Verdict(True), MultisetObj(),
                  compile(parse("x")), ProductAlgebra([2]),
                  FiniteMTLChain([[0, 0], [0, 1]])):
        assert isinstance(value, Record)
        assert not hasattr(value, "__dict__")


def test_deep_records_compare_hash_and_print():
    # these recurse once per level; 300 levels is within reach, as it was
    # for the dataclass versions
    deep = parse("~" * 300 + "x")
    assert deep == parse("~" * 300 + "x") != parse("~" * 299 + "x")
    assert hash(deep) == hash(parse("~" * 300 + "x"))
    assert repr(deep).startswith("Neg(arg=Neg(arg=")


def test_algebra_values_are_immutable_records():
    # a field that could be assigned would change the hash under a set
    chain = FiniteMTLChain([[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    for value, field, other in ((ProductAlgebra([2, 3]), "factors", ()),
                                (chain, "size", 7),
                                (chain, "product_table", ()),
                                (chain, "residuum_table", ())):
        h, pool = hash(value), {value}
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert hash(value) == h and value in pool
    assert chain.top == 2
