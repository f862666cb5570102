"""Pre-syntax-to-set translation: frozen clause goldens, structural checks,
and semantic spot checks against the finite-universe oracle."""
import pytest
from hypothesis import given, settings, strategies as st

from mfbridge import emtt_syntax as pre
from mfbridge import set_syntax as fol
from mfbridge.core import FreshNames, alpha_eq, free_vars
from mfbridge.hat import PLACEHOLDER, HatTranslator, delta, eta, hat, hat_context
from mfbridge.hf import check_equivalence, check_valid, enumerate_universe
from mfbridge.parser import parse_set_formula
from mfbridge.printer import print_set
from mfbridge.properties import GenConfig, gen_precollection, gen_preprop, gen_preterm
from mfbridge.set_syntax import (And, Bot, Empty, Eq, Exists, Forall, Imp, Mem,
                                 Omega, Union, Var)
from mfbridge.tilde import TranslationError

U3 = enumerate_universe(3)
u = Var("u")


def test_collection_goldens():
    assert eta(pre.N0()) == Bot()
    assert eta(pre.N1()) == Eq(u, Empty())
    assert eta(pre.UnivV()) == Eq(u, u)
    got = eta(pre.PropAsCol(pre.BotP()))
    assert got == And(Eq(u, Empty()), Bot())


def test_term_goldens():
    assert delta(pre.Var("x")) == Eq(u, Var("x"))
    assert delta(pre.TrueT()) == Eq(u, Empty())
    assert delta(pre.Star()) == Eq(u, Empty())
    assert delta(pre.Eps()) == Eq(u, Empty())
    assert delta(pre.Emp0(pre.Star())) == Eq(u, Empty())
    assert delta(pre.EmptyV()) == Eq(u, Empty())
    assert delta(pre.OmegaV()) == Eq(u, Omega())
    assert delta(pre.ElN1(pre.Star(), pre.Var("b"))) == Eq(u, Var("b"))


def test_atomic_membership_golden():
    got = hat(pre.EpsTerm(pre.Var("x"), pre.Var("y")))
    want = Exists("u", Exists("v#1", And(And(Eq(u, Var("x")), Eq(Var("v#1"), Var("y"))),
                                         Mem(u, Var("v#1")))))
    assert got == want


def test_comprehension_golden():
    # substituting the placeholder for the binder renames the inner bound copy
    got = eta(pre.Compr("x", pre.EpsTerm(pre.Var("x"), pre.Var("y"))))
    want = Exists("u#2", Exists("v#1", And(And(Eq(Var("u#2"), u), Eq(Var("v#1"), Var("y"))),
                                           Mem(Var("u#2"), Var("v#1")))))
    assert got == want
    rep = check_equivalence(got, parse_set_formula("u in y"), ["u", "y"], U3)
    assert rep.ok


def test_bounded_forall_golden():
    phi = pre.ForallP("x", pre.UnivV(), pre.EqP(pre.UnivV(), pre.Var("x"), pre.Var("x")))
    got = hat(phi)
    want = Forall("x", Imp(Eq(Var("x"), Var("x")),
                           Exists("u", And(And(Eq(u, Var("x")), Eq(u, Var("x"))), Eq(u, u)))))
    assert got == want
    rep = check_equivalence(got, fol.elaborate(fol.Top()), [], U3)
    assert rep.ok


def test_pair_value_golden():
    got = delta(pre.PairV(pre.EmptyV(), pre.EmptyV()))
    want = Exists("v#1", Exists("w#2", And(And(Eq(Var("v#1"), Empty()), Eq(Var("w#2"), Empty())),
                                           Eq(u, fol.Pair(Var("v#1"), Var("w#2"))))))
    assert got == want


def test_name_golden():
    got = delta(pre.Name(pre.N1()))
    want = Forall("v#1", And(Imp(Mem(Var("v#1"), u), Eq(Var("v#1"), Empty())),
                             Imp(Eq(Var("v#1"), Empty()), Mem(Var("v#1"), u))))
    assert got == want
    # semantically: u = {empty} = the name of the one-element collection
    rep = check_equivalence(got, parse_set_formula("u = sing(empty)") and
                            fol.elaborate(parse_set_formula("u = sing(empty)")), ["u"], U3)
    assert rep.ok


def test_context_goldens():
    assert hat_context(pre.PreContext(())) == Imp(Bot(), Bot())
    got = hat_context(pre.PreContext((("x", pre.UnivV()),)))
    assert got == And(Imp(Bot(), Bot()), Eq(Var("x"), Var("x")))
    got2 = hat_context(pre.PreContext((("x", pre.UnivV()), ("y", pre.N1()))))
    assert got2 == And(And(Imp(Bot(), Bot()), Eq(Var("x"), Var("x"))),
                       Eq(Var("y"), Empty()))
    assert free_vars(got2) == {"x", "y"}


def test_placeholder_rejected():
    with pytest.raises(TranslationError):
        hat(pre.EpsTerm(pre.Var("u"), pre.Var("y")))
    with pytest.raises(TranslationError):
        eta(pre.Compr("u", pre.BotP()))
    with pytest.raises(TranslationError):
        hat_context(pre.PreContext((("u", pre.UnivV()),)))


def test_output_always_core():
    for seed in range(40):
        tr = gen_preterm(GenConfig(seed=seed, max_depth=3, deep_el_list=True))
        assert fol.is_core(delta(tr))


def test_determinism():
    t = gen_preterm(GenConfig(seed=5, max_depth=3))
    assert delta(t) == delta(t)


# semantic spot checks of the large clauses

def _equiv(f, g, variables):
    rep = check_equivalence(f, g, variables, U3)
    assert rep.ok, (print_set(f), print_set(g), rep.counterexample)


def test_semantics_powone():
    # the subsingleton classifier contains exactly {} and {{}}
    _equiv(eta(pre.PowOne()),
           fol.elaborate(parse_set_formula("u = empty \\/ u = sing(empty)")), ["u"])


def test_semantics_sum():
    # values of N1 + N1 are tagged pairs (0,{}) and (1,{})
    f = eta(pre.Sum(pre.N1(), pre.N1()))
    g = fol.elaborate(parse_set_formula("u = op(0, empty) \\/ u = op(1, empty)"))
    _equiv(f, g, ["u"])


def test_semantics_sigma():
    f = eta(pre.Sigma("x", pre.N1(), pre.N1()))
    g = fol.elaborate(parse_set_formula("u = op(empty, empty)"))
    _equiv(f, g, ["u"])


def test_semantics_pi_is_singleton_graph():
    # functions from N1 to N1: exactly the graph {({},{})}
    f = eta(pre.Pi("x", pre.N1(), pre.N1()))
    g = fol.elaborate(parse_set_formula("u = sing(op(empty, empty))"))
    _equiv(f, g, ["u"])


def test_semantics_lambda_value():
    # lam x:N1. star denotes that same singleton graph
    f = delta(pre.Lam("x", pre.N1(), pre.Star()))
    g = fol.elaborate(parse_set_formula("u = sing(op(empty, empty))"))
    _equiv(f, g, ["u"])


def test_semantics_application():
    # applying the identity on N1 to star yields the empty set
    lam = pre.Lam("x", pre.N1(), pre.Var("x"))
    f = delta(pre.Ap(lam, pre.Star()))
    _equiv(f, parse_set_formula("u = empty"), ["u"])


def test_semantics_quotient_class():
    # the class of star under the total relation on N1 is {empty}
    cls = pre.EqCls(pre.Star(), pre.N1(), "a", "b",
                    pre.EqP(pre.UnivV(), pre.Var("a"), pre.Var("a")))
    _equiv(delta(cls), fol.elaborate(parse_set_formula("u = sing(empty)")), ["u"])


def test_semantics_quotient_eliminator():
    # eliminating over a class picks the value at any member
    cls = pre.EqCls(pre.Star(), pre.N1(), "a", "b",
                    pre.EqP(pre.UnivV(), pre.Var("a"), pre.Var("a")))
    el = pre.ElQuot(pre.N1(), "a", "b",
                    pre.EqP(pre.UnivV(), pre.Var("a"), pre.Var("a")),
                    cls, "w", pre.PairV(pre.Var("w"), pre.Var("w")))
    _equiv(delta(el), fol.elaborate(parse_set_formula("u = sing(empty)")), ["u"])


def test_semantics_injections_and_case_split():
    inl = pre.Inl(pre.Star())
    f = delta(inl)
    _equiv(f, fol.elaborate(parse_set_formula("u = op(0, empty)")), ["u"])
    case = pre.ElPlus(inl, "x", pre.PairV(pre.Var("x"), pre.Var("x")), "y", pre.OmegaV())
    _equiv(delta(case), fol.elaborate(parse_set_formula("u = sing(empty)")), ["u"])
    inr = pre.Inr(pre.Star())
    case2 = pre.ElPlus(inr, "x", pre.PairV(pre.Var("x"), pre.Var("x")), "y", pre.EmptyV())
    _equiv(delta(case2), parse_set_formula("u = empty"), ["u"])


def test_semantics_cons():
    # cons(eps, star) is the one-entry list {(0,{})}
    f = delta(pre.Cons(pre.Eps(), pre.Star()))
    _equiv(f, fol.elaborate(parse_set_formula("u = sing(op(0, empty))")), ["u"])


def test_semantics_el_sigma():
    # splitting the pair <star, omegaV> and returning the second component
    t = pre.ElSigma(pre.PairT(pre.Star(), pre.EmptyV()), "x", "y",
                    pre.PairV(pre.Var("y"), pre.Var("y")))
    _equiv(delta(t), fol.elaborate(parse_set_formula("u = sing(empty)")), ["u"])


def test_semantics_prop_into_p1():
    t = pre.PropIntoP1(pre.BotP())
    _equiv(delta(t), parse_set_formula("u = empty"), ["u"])
    t2 = pre.PropIntoP1(pre.EqP(pre.UnivV(), pre.EmptyV(), pre.EmptyV()))
    _equiv(delta(t2), fol.elaborate(parse_set_formula("u = sing(empty)")), ["u"])


def test_semantics_sep_value():
    t = pre.SepV("x", pre.OmegaV(), pre.BotP())
    _equiv(delta(t), parse_set_formula("u = empty"), ["u"])


def test_semantics_list_membership():
    # {} and {(0,{})} are lists over N1; {{}} is not (not a pair set)
    f = eta(pre.ListC(pre.N1()))
    from mfbridge.hf import evaluate, nat, make_hf, EMPTY
    assert evaluate(f, {"u": EMPTY}, U3)
    one_list = make_hf([make_hf([make_hf([EMPTY])])])  # {{{{}}}} = {(0,{})}
    # (0,{}) = {{0},{0,{}}} = {{{}}} since 0 = {}
    pair00 = make_hf([make_hf([EMPTY])])
    assert evaluate(f, {"u": make_hf([pair00])}, U3)
    assert not evaluate(f, {"u": nat(1)}, U3)


def test_el_list_structure():
    # the recursion-graph clause: an existential whose matrix is a
    # six-conjunct description of a course-of-values function
    t = pre.ElList(pre.N1(), pre.Eps(), pre.Star(), "x", "y", "z", pre.Var("z"))
    d = delta(t)
    assert isinstance(d, Exists)
    conj = d.body
    parts = []
    while isinstance(conj, And):
        parts.append(conj.right)
        conj = conj.left
    parts.append(conj)
    assert len(parts) == 6
    assert free_vars(d) <= {PLACEHOLDER}


def test_fun_pow_one_matches_pi():
    f = eta(pre.FunPowOne(pre.N1()))
    tr = HatTranslator(FreshNames())
    g = tr.eta(pre.Pi("q", pre.N1(), pre.PowOne()))
    _equiv(f, g, ["u"])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_images_stay_within_contract(seed):
    cfg = GenConfig(seed=seed, max_depth=3)
    A = gen_precollection(cfg, 0)
    assert free_vars(eta(A)) <= free_vars(A) | {PLACEHOLDER}
    t = gen_preterm(cfg, 1)
    assert free_vars(delta(t)) <= free_vars(t) | {PLACEHOLDER}
    p = gen_preprop(cfg, 2)
    assert free_vars(hat(p)) == free_vars(p)
