"""Set-language AST: sugar elaboration, bounded-fragment and flavor checks."""
import pytest
from hypothesis import given, strategies as st

from mfbridge import sexp
from mfbridge.core import FreshNames, alpha_eq, free_vars
from mfbridge.parser import parse_set_term
from mfbridge.set_syntax import (And, BExists, BForall, Bot, Cup, Empty, Eq,
                                 Exists, ExistsUnique, Forall, Iff, Imp, Len,
                                 Mem, Neg, Omega, One, OrderedPair, P1of, P2of,
                                 Pair, Pow, Sep, SetFormula, Singleton, Subset, TheoryFlavor,
                                 Top, Union, Var, Zero, elaborate, flavor_check,
                                 is_core, is_delta0, normalize, subst_set)

CZF, IZF, ZF = TheoryFlavor.CZF, TheoryFlavor.IZF, TheoryFlavor.ZF


def test_sep_guard_rejected_at_construction():
    # the sweep kernel's separation gather relies on this on every input path
    with pytest.raises(ValueError):
        Sep("x", Var("x"), Bot())
    with pytest.raises(sexp.SexpError):
        sexp.loads("(Sep x (Var x) (Mem (Empty) (Var x)))", sexp.SET_REGISTRY)
    with pytest.raises(ValueError):
        parse_set_term("{x in {y in x | y in y} | x in x}")
    with pytest.raises(ValueError):
        BForall("x", Pair(Var("x"), Empty()), Bot())


def test_top_elaborates_to_imp_bot_bot():
    assert elaborate(Top()) == Imp(Bot(), Bot())


def test_singleton_is_degenerate_pair():
    assert elaborate(Singleton(Var("x"))) == Pair(Var("x"), Var("x"))


def test_zero_one():
    assert elaborate(Zero()) == Empty()
    assert elaborate(One()) == Pair(Empty(), Empty())


def test_ordered_pair_template():
    a, b = Var("a"), Var("b")
    assert elaborate(OrderedPair(a, b)) == Pair(Pair(a, a), Pair(a, b))


def test_cup_template():
    assert elaborate(Cup(Var("a"), Var("b"))) == Union(Pair(Var("a"), Var("b")))


def test_subset_template_uses_fresh_binder():
    got = elaborate(Subset(Var("a"), Var("b")))
    assert got == Forall("v#1", Imp(Mem(Var("v#1"), Var("a")), Mem(Var("v#1"), Var("b"))))


def test_first_projection_template():
    # frozen from the abbreviation: Un({x in Un(a) | all y. y in a -> x in y})
    a = OrderedPair(Var("a"), Var("b"))
    got = elaborate(P1of(a))
    ap = Pair(Pair(Var("a"), Var("a")), Pair(Var("a"), Var("b")))
    want = Union(Sep("v#1", Union(ap),
                     Forall("v#2", Imp(Mem(Var("v#2"), ap), Mem(Var("v#1"), Var("v#2"))))))
    assert got == want


def test_projection_templates_evaluate_to_components():
    # independent check: brute-force evaluation returns the pair's components
    from mfbridge.hf import enumerate_universe, eval_term
    U = enumerate_universe(3)
    for ai in range(2):
        for bi in range(2):
            env = {"a": U.elements[ai], "b": U.elements[bi]}
            p1 = eval_term(elaborate(P1of(OrderedPair(Var("a"), Var("b")))), env, U)
            p2 = eval_term(elaborate(P2of(OrderedPair(Var("a"), Var("b")))), env, U)
            assert p1 == env["a"]
            assert p2 == env["b"]


def test_length_template_counts_list_entries():
    from mfbridge.hf import enumerate_universe, eval_term, nat
    U = enumerate_universe(3)
    # the one-entry list {(0, {})} has length 1
    lst = elaborate(Singleton(OrderedPair(Zero(), Empty())))
    got = eval_term(elaborate(Len(Var("l"))), {"l": eval_term(lst, {}, U)}, U)
    assert got == nat(1)
    assert eval_term(elaborate(Len(Empty())), {}, U) == nat(0)


def test_exists_unique_shape():
    got = elaborate(ExistsUnique("x", Eq(Var("x"), Var("a"))))
    assert isinstance(got, And)
    assert got.left == Exists("x", Eq(Var("x"), Var("a")))
    uniq = got.right
    assert uniq == Forall("x", Forall("v#1", Imp(
        And(Eq(Var("x"), Var("a")), Eq(Var("v#1"), Var("a"))),
        Eq(Var("x"), Var("v#1")))))


def test_bounded_quantifier_templates():
    assert elaborate(BForall("x", Var("t"), Bot())) == Forall("x", Imp(Mem(Var("x"), Var("t")), Bot()))
    assert elaborate(BExists("x", Var("t"), Bot())) == Exists("x", And(Mem(Var("x"), Var("t")), Bot()))


def test_iff_and_neg():
    p, q = Mem(Var("x"), Var("y")), Bot()
    assert elaborate(Iff(p, q)) == And(Imp(p, q), Imp(q, p))
    assert elaborate(Neg(p)) == Imp(p, Bot())


@given(st.integers(0, 4000))
def test_elaborate_idempotent_and_core(seed):
    from mfbridge.properties import GenConfig, gen
    f = gen(SetFormula, GenConfig(seed=seed))
    e = elaborate(f)
    assert is_core(e)
    assert elaborate(e) == e


def test_elaborate_preserves_free_vars_of_sugar():
    samples = [
        Subset(Var("a"), Var("b")),
        ExistsUnique("x", Mem(Var("x"), Var("a"))),
        BForall("x", Var("t"), Mem(Var("x"), Var("s"))),
        P1of(Var("a")), P2of(Var("a")), Len(Var("a")),
        Iff(Mem(Var("x"), Var("y")), Top()),
        Cup(Var("a"), Var("b")), OrderedPair(Var("a"), Var("b")),
    ]
    for s in samples:
        assert free_vars(elaborate(s)) == free_vars(s)


# bounded-fragment recognition

def test_delta0_bounded_forall_pattern():
    f = Forall("x", Imp(Mem(Var("x"), Var("y")), Bot()))
    assert is_delta0(f, IZF)


def test_delta0_unbounded_forall_rejected():
    assert not is_delta0(Forall("x", Eq(Var("x"), Var("x"))), IZF)


def test_delta0_sep_body_recursion():
    t = Sep("x", Omega(), Exists("y", Mem(Var("y"), Var("x"))))
    assert not is_delta0(t, IZF)
    t2 = Sep("x", Omega(), BExists("y", Var("x"), Mem(Var("y"), Var("x"))))
    assert is_delta0(elaborate(t2), IZF)


def test_delta0_bound_must_not_mention_binder():
    # all x. x in Un(x) -> bot is not in the bounded fragment
    f = Forall("x", Imp(Mem(Var("x"), Union(Var("x"))), Bot()))
    assert not is_delta0(f, IZF)


def test_delta0_pow_depends_on_flavor():
    f = Mem(Var("x"), Pow(Var("y")))
    assert is_delta0(f, IZF)
    assert is_delta0(f, ZF)
    assert not is_delta0(f, CZF)


@given(st.integers(0, 2000), st.integers(0, 2000))
def test_delta0_closed_under_connectives(s1, s2):
    from mfbridge.properties import GenConfig, gen
    a = elaborate(gen(SetFormula, GenConfig(seed=s1, max_depth=2)))
    b = elaborate(gen(SetFormula, GenConfig(seed=s2, max_depth=2)))
    if is_delta0(a, IZF) and is_delta0(b, IZF):
        assert is_delta0(And(a, b), IZF)
        assert is_delta0(Imp(a, b), IZF)
        x = "fresh_b"
        assert is_delta0(Forall(x, Imp(Mem(Var(x), Var("w")), a)), IZF)
        assert is_delta0(Exists(x, And(Mem(Var(x), Var("w")), a)), IZF)


# flavor legality

def test_flavor_check_pow():
    vs = flavor_check(Pow(Omega()), CZF)
    assert [v.kind for v in vs] == ["pow"]
    assert flavor_check(Pow(Omega()), IZF) == []


def test_flavor_check_sep_body():
    t = Sep("x", Omega(), Forall("y", Eq(Var("y"), Var("y"))))
    vs = flavor_check(t, CZF)
    assert [v.kind for v in vs] == ["sep-body"]
    assert flavor_check(t, ZF) == []


def test_flavor_check_reports_every_occurrence():
    t = Pair(Pow(Empty()), Pow(Omega()))
    assert len(flavor_check(t, CZF)) == 2


def test_normalize_keeps_user_names_without_conflict():
    f = Forall("x", Mem(Var("x"), Var("y")))
    assert normalize(f) == f
