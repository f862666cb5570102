"""Pre-syntax AST: binding structure, substitution, contexts."""
import pytest
from hypothesis import given, strategies as st

from mfbridge.core import alpha_eq, free_vars
from mfbridge.emtt_syntax import (BotP, Compr, ElList, EpsTerm, EqP, Lam,
                                  PreContext, PreProposition, PreTerm, Quot,
                                  SepV, Sigma, Pi, UnivV,
                                  Var, N1, EmptyV, OmegaV, precontext_wf,
                                  subst_emtt, alpha_eq_emtt, normalize)


def test_free_vars_examples():
    assert free_vars(Lam("x", UnivV(), Var("x"))) == set()
    assert free_vars(Sigma("x", UnivV(), EpsTerm(Var("x"), Var("y")))) == {"y"}
    t = ElList(UnivV(), Var("a"), Var("b"), "x", "y", "z", Var("z"))
    assert free_vars(t) == {"a", "b"}


def test_annotation_variables_are_free():
    t = Lam("x", Compr("w", EpsTerm(Var("w"), Var("q"))), Var("x"))
    assert free_vars(t) == {"q"}


def test_subst_examples():
    assert subst_emtt(EpsTerm(Var("x"), Var("y")), "x", OmegaV()) == EpsTerm(OmegaV(), Var("y"))
    lam = Lam("x", UnivV(), Var("x"))
    assert subst_emtt(lam, "x", EmptyV()) is lam


def test_subst_capture_in_comprehension():
    c = Compr("y", EqP(UnivV(), Var("y"), Var("x")))
    got = subst_emtt(c, "x", Var("y"))
    assert got == Compr("y#1", EqP(UnivV(), Var("y#1"), Var("y")))
    assert free_vars(got) == {"y"}


def test_subst_enters_annotations():
    t = Lam("q", Compr("w", EpsTerm(Var("w"), Var("x"))), Var("q"))
    got = subst_emtt(t, "x", EmptyV())
    assert got.annot == Compr("w", EpsTerm(Var("w"), EmptyV()))


def test_sepv_guard():
    with pytest.raises(ValueError):
        SepV("x", Var("x"), BotP())


def test_subst_renames_sep_binder_when_bound_would_capture():
    # substituting b1 into the bound must not break the binder guard
    t = SepV("b1", Var("y"), EpsTerm(Var("b1"), Var("q")))
    got = subst_emtt(t, "y", Var("b1"))
    assert isinstance(got, SepV)
    assert got.bound == Var("b1")
    assert got.binder != "b1"


def test_alpha_examples():
    assert alpha_eq_emtt(Pi("x", UnivV(), UnivV()), Pi("y", UnivV(), UnivV()))
    assert alpha_eq_emtt(Quot(N1(), "x", "y", BotP()), Quot(N1(), "a", "b", BotP()))
    assert not alpha_eq_emtt(Compr("x", EpsTerm(Var("x"), Var("y"))),
                             Compr("x", EpsTerm(Var("x"), Var("z"))))


def test_multi_binder_alpha():
    a = ElList(UnivV(), Var("a"), Var("b"), "x", "y", "z", EmptyV())
    b = ElList(UnivV(), Var("a"), Var("b"), "p", "q", "r", EmptyV())
    assert alpha_eq_emtt(a, b)
    c = ElList(UnivV(), Var("a"), Var("b"), "p", "q", "r", Var("p"))
    d = ElList(UnivV(), Var("a"), Var("b"), "x", "y", "z", Var("x"))
    assert alpha_eq_emtt(c, d)
    e = ElList(UnivV(), Var("a"), Var("b"), "x", "y", "z", Var("y"))
    assert not alpha_eq_emtt(c, e)


def test_precontext_wf():
    assert precontext_wf(PreContext(())) is None
    ok = PreContext((("x", UnivV()), ("y", Compr("z", EpsTerm(Var("z"), Var("x"))))))
    assert precontext_wf(ok) is None
    dup = PreContext((("x", UnivV()), ("x", UnivV())))
    v = precontext_wf(dup)
    assert v is not None and v.index == 1
    loose = PreContext((("x", Compr("z", EpsTerm(Var("z"), Var("y")))),))
    v = precontext_wf(loose)
    assert v is not None and "y" in v.reason


@given(st.integers(0, 4000))
def test_normalize_preserves_alpha_class(seed):
    from mfbridge.properties import GenConfig, gen
    t = gen(PreTerm, GenConfig(seed=seed))
    n = normalize(t)
    assert alpha_eq_emtt(t, n)
    assert free_vars(t) == free_vars(n)


@given(st.integers(0, 4000))
def test_subst_free_var_algebra(seed):
    from mfbridge.properties import GenConfig, gen
    p = gen(PreProposition, GenConfig(seed=seed))
    fv = free_vars(p)
    for x in sorted(fv)[:2]:
        got = free_vars(subst_emtt(p, x, Var("q")))
        assert got == (fv - {x}) | {"q"}
