"""Set-to-pre-syntax translation: clause goldens and structural properties."""
import pytest
from hypothesis import given, settings, strategies as st

from mfbridge import emtt_syntax as pre
from mfbridge import set_syntax as fol
from mfbridge.core import alpha_eq, free_vars
from mfbridge.emtt_syntax import subst_emtt
from mfbridge.properties import GenConfig, gen
from mfbridge.set_syntax import elaborate, normalize, subst_set
from mfbridge.tilde import TranslationError, tilde, tilde_formula, tilde_term


def test_clause_goldens():
    assert tilde_term(fol.Var("x")) == pre.Var("x")
    assert tilde_term(fol.Empty()) == pre.EmptyV()
    assert tilde_term(fol.Omega()) == pre.OmegaV()
    assert tilde_term(fol.Pair(fol.Empty(), fol.Omega())) == pre.PairV(pre.EmptyV(), pre.OmegaV())
    assert tilde_term(fol.Union(fol.Var("a"))) == pre.UnionV(pre.Var("a"))
    assert tilde_term(fol.Pow(fol.Var("a"))) == pre.PowV(pre.Var("a"))


def test_separation_clause():
    t = fol.Sep("x", fol.Var("a"), fol.Mem(fol.Var("x"), fol.Var("a")))
    got = tilde_term(t)
    assert got == pre.SepV("x", pre.Var("a"), pre.EpsTerm(pre.Var("x"), pre.Var("a")))


def test_formula_clauses():
    assert tilde_formula(fol.Bot()) == pre.BotP()
    assert tilde_formula(fol.Mem(fol.Var("x"), fol.Var("y"))) == pre.EpsTerm(pre.Var("x"), pre.Var("y"))
    assert tilde_formula(fol.Eq(fol.Var("x"), fol.Var("y"))) == \
        pre.EqP(pre.UnivV(), pre.Var("x"), pre.Var("y"))
    got = tilde_formula(fol.Forall("x", fol.Eq(fol.Var("x"), fol.Var("x"))))
    assert got == pre.ForallP("x", pre.UnivV(),
                              pre.EqP(pre.UnivV(), pre.Var("x"), pre.Var("x")))


def test_rejects_sugar():
    with pytest.raises(TranslationError):
        tilde(fol.Top())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_free_vars_preserved(seed):
    f = gen(fol.SetFormula, GenConfig(seed=seed, max_depth=4))
    assert free_vars(tilde_formula(f)) == free_vars(f)
    t = gen(fol.SetTerm, GenConfig(seed=seed, max_depth=4))
    assert free_vars(tilde_term(t)) == free_vars(t)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_quantifier_bounds_are_all_v(seed):
    from mfbridge.core import walk
    f = tilde_formula(gen(fol.SetFormula, GenConfig(seed=seed, max_depth=4)))
    for node in walk(f):
        if isinstance(node, (pre.ForallP, pre.ExistsP)):
            assert node.dom == pre.UnivV()
        if isinstance(node, pre.EqP):
            assert node.annot == pre.UnivV()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_commutes_with_substitution(s1, s2):
    f = gen(fol.SetFormula, GenConfig(seed=s1, max_depth=3))
    t = gen(fol.SetTerm, GenConfig(seed=s2, max_depth=2))
    for x in sorted(free_vars(f))[:2]:
        lhs = tilde_formula(subst_set(f, x, t))
        rhs = subst_emtt(tilde_formula(f), x, tilde_term(t))
        assert alpha_eq(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_injective_up_to_alpha(s1, s2):
    a = normalize(gen(fol.SetFormula, GenConfig(seed=s1, max_depth=3)))
    b = normalize(gen(fol.SetFormula, GenConfig(seed=s2, max_depth=3)))
    assert alpha_eq(tilde_formula(a), tilde_formula(b)) == alpha_eq(a, b)
