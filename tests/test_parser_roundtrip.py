"""Concrete-syntax round trips and s-expression serialization."""
import re
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from mfbridge import sexp
from mfbridge.core import alpha_eq
from mfbridge.parser import (ParseError, parse_collection, parse_context,
                             parse_emtt, parse_prop, parse_set_formula,
                             parse_set_term, parse_term)
from mfbridge.printer import NOTATION, print_emtt, print_set
from mfbridge.properties import GenConfig, gen
from mfbridge import emtt_syntax as pre
from mfbridge import set_syntax as fol


def test_set_formula_goldens():
    f = parse_set_formula("all x. x in y")
    assert f == fol.Forall("x", fol.Mem(fol.Var("x"), fol.Var("y")))
    assert print_set(f) == "all x. x in y"


def test_precedence():
    f = parse_set_formula("a in b /\\ c in d \\/ e in g -> false")
    assert isinstance(f, fol.Imp)
    assert isinstance(f.left, fol.Or)
    assert isinstance(f.left.left, fol.And)
    g = parse_set_formula("a = b -> b = c -> c = d")
    assert isinstance(g.right, fol.Imp)  # right-associated
    h = parse_set_formula("not a = b /\\ false")
    assert isinstance(h, fol.And) and isinstance(h.left, fol.Neg)


def test_quantifier_extends_right():
    f = parse_set_formula("all x. x in y /\\ false")
    assert isinstance(f, fol.Forall)
    assert isinstance(f.body, fol.And)
    g = parse_set_formula("(all x. x in y) /\\ false")
    assert isinstance(g, fol.And)


def test_sugar_parses():
    assert parse_set_formula("true") == fol.Top()
    assert parse_set_formula("a sub b") == fol.Subset(fol.Var("a"), fol.Var("b"))
    assert parse_set_formula("ex! x. x in y") == fol.ExistsUnique("x", fol.Mem(fol.Var("x"), fol.Var("y")))
    assert parse_set_formula("all x in t. false") == fol.BForall("x", fol.Var("t"), fol.Bot())
    assert parse_set_term("op(0,1)") == fol.OrderedPair(fol.Zero(), fol.One())
    assert parse_set_term("cup(p1(a), len(b))") == fol.Cup(fol.P1of(fol.Var("a")), fol.Len(fol.Var("b")))


def test_separation_vs_pair_disambiguation():
    assert isinstance(parse_set_term("{x in y | false}"), fol.Sep)
    assert isinstance(parse_set_term("{x, y}"), fol.Pair)


def test_set_parse_errors():
    for bad, says in (("all x y", "at offset 6"),
                      ("{x in x | false}", "separation binder 'x' occurs in its bound"),
                      ("x in", "at offset 4"), ("2", "at offset 0"), ("x =", "at offset 3")):
        with pytest.raises(ParseError) as e:
            parse_set_formula(bad)
        assert says in str(e.value), (bad, str(e.value))


def test_emtt_goldens():
    p = parse_prop("all x:V. x eps y")
    assert p == pre.ForallP("x", pre.UnivV(), pre.EpsTerm(pre.Var("x"), pre.Var("y")))
    assert print_emtt(p) == "all x:V. x eps y"
    c = parse_collection("Sig x:V. { y | y eps x }")
    assert c == pre.Sigma("x", pre.UnivV(), pre.Compr("y", pre.EpsTerm(pre.Var("y"), pre.Var("x"))))
    t = parse_term("elQ[N1,(a,b)a =[V] b](star,(w)tt)")
    assert t == pre.ElQuot(pre.N1(), "a", "b",
                           pre.EqP(pre.UnivV(), pre.Var("a"), pre.Var("b")),
                           pre.Star(), "w", pre.TrueT())


def test_emtt_eps_collection_vs_term():
    p = parse_prop("a eps b")
    assert isinstance(p, pre.EpsTerm)
    q = parse_prop("a eps N1")
    assert isinstance(q, pre.EpsCol)
    r = parse_prop("a eps { x | bot }")
    assert isinstance(r, pre.EpsCol)
    s = parse_prop("a eps {x eps b | bot}")
    assert isinstance(s, pre.EpsTerm) and isinstance(s.container, pre.SepV)
    u = parse_prop("a eps {b,c}V")
    assert isinstance(u, pre.EpsTerm) and isinstance(u.container, pre.PairV)


def test_emtt_quotient_and_sum():
    c = parse_collection("N1 + V / (x,y). bot")
    assert isinstance(c, pre.Quot) and isinstance(c.base, pre.Sum)
    d = parse_collection("(V / (x,y). bot) + N1")
    assert isinstance(d, pre.Sum) and isinstance(d.left, pre.Quot)


def test_context_round_trip():
    for src in ["[]", "[x:V]", "[x:V, y:N1]", "[x:V, y:{ z | z eps x }]"]:
        ctx = parse_context(src)
        assert parse_context(print_emtt(ctx)) == ctx


def test_emtt_bracket_is_read_by_its_next_token():
    # `[` then the keyword `prop` opens a collection; any other `[` a context
    assert parse_emtt("[ prop bot ]") == pre.PropAsCol(pre.BotP())
    assert parse_emtt("[propx:V]") == pre.PreContext((("propx", pre.UnivV()),))


def test_emtt_parse_errors():
    for bad in ["lam x V. x", "{x eps x | bot}", "a eps", "Sig x:. V", "cons(a)"]:
        with pytest.raises(ParseError) as e:
            parse_emtt(bad)
        assert str(e.value) == ("cannot parse as pre-proposition, pre-term or "
                                f"pre-collection: {bad!r}")


def test_notation_covers_every_node_class():
    for module, root in ((fol, fol.SetNode), (pre, pre.EmttNode)):
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, root) and is_dataclass(cls)):
                continue
            if cls is module.Var:
                assert cls not in NOTATION
                continue
            assert cls in NOTATION, cls
            slots = [item if isinstance(item, int) else item[0]
                     for item in NOTATION[cls][1] if not isinstance(item, str)]
            assert sorted(slots) == list(range(len(fields(cls)))), cls
    # every word of a language's notation is refused as a variable name
    for cls, (_, items) in NOTATION.items():
        binder = "all {}. false" if issubclass(cls, fol.SetNode) else "lam {}:V. tt"
        parse = parse_set_formula if issubclass(cls, fol.SetNode) else parse_term
        for item in items:
            for word in re.findall(r"[A-Za-z_]\w*", item) if isinstance(item, str) else ():
                with pytest.raises(ParseError, match="expected a variable name"):
                    parse(binder.format(word))
    assert parse_set_formula("all lam. false") == fol.Forall("lam", fol.Bot())
    assert parse_term("lam in:V. tt") == pre.Lam("in", pre.UnivV(), pre.TrueT())


# seeded round trips over every constructor

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_set_round_trip(seed):
    cfg = GenConfig(seed=seed, max_depth=4, omega_allowed=True)
    f = gen(fol.SetFormula, cfg)
    assert parse_set_formula(print_set(f)) == f
    t = gen(fol.SetTerm, cfg)
    assert parse_set_term(print_set(t)) == t


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_emtt_round_trip(seed):
    cfg = GenConfig(seed=seed, max_depth=4, omega_allowed=True, deep_el_list=True)
    p = gen(pre.PreProposition, cfg)
    assert parse_prop(print_emtt(p)) == p
    t = gen(pre.PreTerm, cfg)
    assert parse_term(print_emtt(t)) == t
    c = gen(pre.PreCollection, cfg)
    assert parse_collection(print_emtt(c)) == c


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_printing_idempotent(seed):
    cfg = GenConfig(seed=seed, max_depth=3)
    f = gen(fol.SetFormula, cfg)
    s = print_set(f)
    assert print_set(parse_set_formula(s)) == s


def test_machine_names_reparse():
    f = fol.Exists("v#1", fol.Eq(fol.Var("v#1"), fol.Var("u")))
    assert parse_set_formula(print_set(f)) == f


# s-expressions

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sexp_round_trip(seed):
    cfg = GenConfig(seed=seed, max_depth=3, deep_el_list=True)
    f = gen(fol.SetFormula, cfg)
    assert sexp.loads(sexp.dumps(f), sexp.SET_REGISTRY) == f
    t = gen(pre.PreTerm, cfg)
    assert sexp.loads(sexp.dumps(t), sexp.EMTT_REGISTRY) == t


def test_sexp_context():
    ctx = pre.PreContext((("x", pre.UnivV()), ("y", pre.N1())))
    assert sexp.loads(sexp.dumps(ctx), sexp.EMTT_REGISTRY) == ctx


def test_sexp_rejects_malformed():
    with pytest.raises(sexp.SexpError):
        sexp.loads("(Var)", sexp.SET_REGISTRY)
    with pytest.raises(sexp.SexpError):
        sexp.loads("(Nope x)", sexp.SET_REGISTRY)


@pytest.mark.parametrize("text, registry", [
    ("(Mem (Bot) (Var x))", sexp.SET_REGISTRY),          # a formula where a term goes
    ("(And (Var x) (Bot))", sexp.SET_REGISTRY),          # a term where a formula goes
    ("(Pair (PreContext) (Var x))", sexp.SET_REGISTRY),  # a context is no term
    ("(Lam x (Var y) (Var x))", sexp.EMTT_REGISTRY),     # a pre-term as a collection
    ("(PreContext (x (Star)))", sexp.EMTT_REGISTRY),     # a pre-term as a context entry
])
def test_sexp_reads_each_field_at_its_sort(text, registry):
    with pytest.raises(sexp.SexpError, match="expected a"):
        sexp.loads(text, registry)
