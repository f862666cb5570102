"""Generic binder machinery: fresh names, substitution, alpha-equivalence,
node interning, and the metadata each frozen node caches."""
import dataclasses
import functools
import gc
import hashlib
import itertools
import pathlib

import pytest
from hypothesis import given, strategies as st

from mfbridge import core, sexp
from mfbridge import emtt_syntax as pre
from mfbridge.core import (FreshNames, Node, VarNode, all_names, alpha_eq, free_vars, fresh_floor,
                           normalize_binders, subst1, walk)
from mfbridge.parser import (parse_collection, parse_prop, parse_set_formula, parse_set_term,
                             parse_term)
from mfbridge.printer import print_emtt, print_set
from mfbridge.set_syntax import (And, Bot, Eq, Exists, Forall, Imp, Mem, Omega,
                                 Empty, Sep, SetFormula, SetTerm, Var)


def test_fresh_names_deterministic():
    f = FreshNames()
    assert f() == "v#1"
    assert f("x") == "x#2"
    assert f("x#9") == "x#3"


def test_fresh_names_seeded_past_existing_suffixes():
    node = Exists("w#5", Eq(Var("w#5"), Var("a#2")))
    f = FreshNames.for_nodes(node)
    assert f("w") == "w#6"


def test_subst_simple():
    assert subst1(Mem(Var("x"), Var("y")), "x", Empty()) == Mem(Empty(), Var("y"))


def test_subst_shadowed_is_identity():
    f = Forall("x", Mem(Var("x"), Var("y")))
    assert subst1(f, "x", Omega()) is f


def test_subst_avoids_capture():
    f = Exists("z", Eq(Var("z"), Var("x")))
    got = subst1(f, "x", Var("z"))
    assert got == Exists("z#1", Eq(Var("z#1"), Var("z")))
    assert free_vars(got) == {"z"}


def test_subst_simultaneous_swap():
    from mfbridge.core import subst
    f = Mem(Var("x"), Var("y"))
    sim = subst(f, {"x": Var("y"), "y": Var("x")})
    assert sim == Mem(Var("y"), Var("x"))
    naive = subst1(subst1(f, "x", Var("y")), "y", Var("x"))
    assert naive == Mem(Var("x"), Var("x"))  # sequential would capture


def test_alpha_examples():
    assert alpha_eq(Forall("x", Mem(Var("x"), Var("y"))), Forall("z", Mem(Var("z"), Var("y"))))
    assert not alpha_eq(Forall("x", Mem(Var("x"), Var("y"))), Forall("z", Mem(Var("z"), Var("w"))))
    assert alpha_eq(Sep("x", Var("y"), Bot()), Sep("z", Var("y"), Bot()))


def test_normalize_binders_separates_free_and_bound():
    f = And(Mem(Var("x"), Var("y")), Forall("x", Eq(Var("x"), Var("x"))))
    n = normalize_binders(f)
    assert alpha_eq(f, n)
    from mfbridge.core import bound_vars
    assert not (free_vars(n) & bound_vars(n))


def test_normalize_binders_renames_duplicates():
    f = And(Forall("x", Bot()), Forall("x", Bot()))
    n = normalize_binders(f)
    assert n.left.binder != n.right.binder


# seed-driven random structural properties

def _rand_formula(seed: int, depth: int = 3):
    from mfbridge.properties import GenConfig, gen
    return gen(SetFormula, GenConfig(seed=seed, max_depth=depth))


@given(st.integers(0, 5000))
def test_alpha_reflexive(seed):
    f = _rand_formula(seed)
    assert alpha_eq(f, f)


@given(st.integers(0, 5000))
def test_alpha_invariant_under_normalize(seed):
    f = _rand_formula(seed)
    assert alpha_eq(f, normalize_binders(f))


@given(st.integers(0, 5000), st.integers(0, 5000))
def test_alpha_symmetric(s1, s2):
    a, b = _rand_formula(s1), _rand_formula(s2)
    assert alpha_eq(a, b) == alpha_eq(b, a)


@given(st.integers(0, 5000))
def test_subst_free_var_algebra(seed):
    f = _rand_formula(seed)
    fv = free_vars(f)
    term = Var("q")
    for x in sorted(fv):
        got = free_vars(subst1(f, x, term))
        assert got == (fv - {x}) | {"q"}


@given(st.integers(0, 5000))
def test_subst_noop_for_absent_variable(seed):
    f = _rand_formula(seed)
    assert subst1(f, "zz", Empty()) is f


@given(st.integers(0, 3000))
def test_subst_respects_alpha(seed):
    f = _rand_formula(seed)
    n = normalize_binders(f)
    for x in sorted(free_vars(f))[:1]:
        assert alpha_eq(subst1(f, x, Empty()), subst1(n, x, Empty()))


# interned nodes and their cached free variables

def _walk_free_vars(node):
    # the uncached definition, walked afresh on every call
    if isinstance(node, VarNode):
        return {node.name}
    vals = node._values()
    acc = set()
    for spec, v in zip(node.binding, vals):
        if isinstance(spec, tuple):
            acc |= _walk_free_vars(v) - {vals[i] for i in spec}
    return acc


def _all_sorts(seed):
    from mfbridge import properties as p
    cfg = p.GenConfig(seed=seed, max_depth=3)
    return [p.gen(sort, cfg, i) for i, sort in enumerate((SetTerm, SetFormula, pre.PreTerm,
                                                          pre.PreCollection, pre.PreProposition))]


def _clashing(node, scope=None, turn=None):
    """`node` with its binders renamed x, y, z, x, ... in preorder and each bound
    occurrence following its binder, so binders shadow one another and capture
    free variables; ValueError where a separation's new binder is free in its bound."""
    scope, turn = scope or {}, turn or itertools.count()
    if isinstance(node, VarNode):
        return type(node)(scope.get(node.name, node.name))
    vals = node._values()
    new = [("x", "y", "z")[next(turn) % 3] if spec == "B" else v for spec, v in zip(node.binding, vals)]
    for j, spec in enumerate(node.binding):
        if isinstance(spec, tuple):
            new[j] = _clashing(vals[j], {**scope, **{vals[i]: new[i] for i in spec}}, turn)
    return type(node)(*new)


def test_normalize_binders_separates_forced_clashes():
    # a '#9' name to avoid: the fresh names must count past it
    avoid = frozenset({"x", "z#9"})
    atoms = functools.reduce(And, [Eq(Var(x), Var(x)) for x in sorted(avoid)], Bot())
    outs = []
    for seed in range(400):
        for root in _all_sorts(seed):
            try:
                node = _clashing(root)
            except ValueError:
                continue
            plain, avoiding = normalize_binders(node), normalize_binders(node, avoid=avoid)
            for out, avoided in ((plain, frozenset()), (avoiding, avoid)):
                binders = [v for n in walk(out) for s, v in zip(n.binding, n._values()) if s == "B"]
                assert alpha_eq(out, node)
                assert len(set(binders)) == len(binders)
                assert not set(binders) & (free_vars(out) | avoided)
            if isinstance(node, SetFormula):
                # avoiding names renames as if they were free in a conjunct
                assert avoiding is normalize_binders(And(node, atoms)).left
            outs.append(plain)
    # pins every output, fresh names and all, to what the earlier renaming gave,
    # which substituted into each renamed scope and then walked the result again
    digest = hashlib.sha256("\n".join(map(repr, outs)).encode()).hexdigest()
    assert (len(outs), digest) == (1945, "16d676c7a34ae158b345fe270b03972ce61cfd647af8dc948f789e4301dc4ed9")


@pytest.mark.parametrize("seed", range(8))
def test_cached_free_vars_match_an_uncached_walk(seed):
    for root in _all_sorts(seed):
        for node in walk(root):
            assert free_vars(node) == _walk_free_vars(node)
            assert free_vars(node) is free_vars(node)  # the second call reads the cache


def _floor_of_all_names(node):
    # the uncached definition of the fresh-name floor: the largest '#k' among all_names
    tails = (name.partition("#")[2] for name in all_names(node))
    return max((int(t) for t in tails if t.isdigit()), default=0)


@pytest.mark.parametrize("seed", range(8))
def test_cached_fresh_floor_matches_all_names(seed):
    from mfbridge.hat import HatTranslator
    roots = _all_sorts(seed)
    tr = HatTranslator(FreshNames(seed))
    # the translations' images and renamed copies bind machine-made '#k' names
    images = [tr.delta(roots[2]), tr.eta(roots[3]), tr.hat(roots[4])]
    renamed = [normalize_binders(Forall("x", Forall("x", Eq(Var("x"), Var("y#4")))))]
    for root in roots + images + renamed:
        for node in walk(root):
            assert fresh_floor(node) == _floor_of_all_names(node), node
    assert fresh_floor(renamed[0]) == 5
    k = max(map(_floor_of_all_names, roots + images))
    assert FreshNames.for_nodes(*roots, None, *images)() == f"v#{k + 1}"


def test_cached_fresh_floor_on_the_k0_corpus():
    from mfbridge.delta0_k0 import K0Atom, K0Bounded, read_case
    data = pathlib.Path(__file__).parent / "data" / "k0"
    corpus = [read_case(path.read_text(), path.with_suffix(".gamma.fm").read_text())[0]
              for path in sorted(data.glob("*.k0"))]
    # a bounded step's z and bound_var are payloads ("X"), which all_names leaves out
    step = K0Bounded("existsIn", "z#9", Eq(Var("w"), Var("a#3")), "y#8",
                     K0Atom(Mem(Var("u"), Var("x"))))
    for root in corpus + [step]:
        for node in walk(root):
            assert fresh_floor(node) == _floor_of_all_names(node), node
    assert len(corpus) == 10 and fresh_floor(step) == 3


# per sort, in `_all_sorts` order: its printer, its parser and its s-expression registry
_READ_BACK = ((print_set, parse_set_term, sexp.SET_REGISTRY),
              (print_set, parse_set_formula, sexp.SET_REGISTRY),
              (print_emtt, parse_term, sexp.EMTT_REGISTRY),
              (print_emtt, parse_collection, sexp.EMTT_REGISTRY),
              (print_emtt, parse_prop, sexp.EMTT_REGISTRY))


@pytest.mark.parametrize("seed", range(8))
def test_structurally_equal_nodes_are_equal_with_equal_hashes(seed):
    # every construction path interns, so structurally equal nodes are one object
    for a, b, (show, parse, registry) in zip(_all_sorts(seed), _all_sorts(seed), _READ_BACK):
        assert a is b
        assert parse(show(a)) is a
        assert sexp.loads(sexp.dumps(a), registry) is a
    f = Forall("x", Mem(Var("x"), Var("y")))
    assert f is Forall("x", Mem(Var("x"), Var("y")))
    assert f != Forall("x", Mem(Var("y"), Var("x"))) and f != Exists("x", f.body)


def test_equality_respects_the_language():
    assert pre.Var("x") != Var("x") and Var("x") != pre.Var("x")
    assert Var("x") != "x" and Var("x") == Var("x")
    assert len({Var("x"), pre.Var("x"), Var("x")}) == 2


def test_replace_gives_the_new_nodes_free_vars():
    f = Forall("x", Eq(Var("x"), Var("y")))
    assert free_vars(f) == {"y"}
    g = dataclasses.replace(f, binder="y")
    assert free_vars(g) == {"x"} and free_vars(f) == {"y"}
    assert g != f and dataclasses.replace(g, binder="x") is f


def test_the_intern_table_is_weak():
    # a long sweep leaves no node behind once nothing refers to it
    from mfbridge.properties import GenConfig, check_substitution
    gc.collect()
    before = len(core._INTERNED)
    assert check_substitution(GenConfig(seed=5, sample_count=30)).ok
    gc.collect()
    assert len(core._INTERNED) <= before


def test_the_table_forgets_every_node_once_it_is_dropped():
    gc.collect()
    before = len(core._INTERNED)
    names = [Var(f"dropped{i}") for i in range(50)]
    nodes = [Exists(n.name, Mem(n, Var("kept"))) for n in names]
    assert len(core._INTERNED) >= before + 150
    del names, nodes
    gc.collect()
    assert len(core._INTERNED) == before


def test_a_stale_reference_leaves_a_rebuilt_node_in_place():
    # a node that dies leaves a dead reference whose callback may run only after
    # a node rebuilt under the same key has taken the entry; the callback must
    # then leave that entry alone
    key = (Mem, Var("stale"), Var("key"))
    node = Mem(Var("stale"), Var("key"))
    old = core._INTERNED[key]
    forget = old.__callback__
    del node
    gc.collect()
    assert key not in core._INTERNED and old() is None
    rebuilt = Mem(Var("stale"), Var("key"))
    forget(old)
    assert core._INTERNED[key]() is rebuilt and Mem(Var("stale"), Var("key")) is rebuilt


def test_values_are_the_fields_given_at_the_first_build():
    # one node per class of the s-expression registries, built by keyword in
    # reverse order: `_values()` is still the field tuple in declaration order
    registry = {**sexp.SET_REGISTRY, **sexp.EMTT_REGISTRY}
    sample = {str: None}
    for sort in {s for c in registry.values() for s in core.field_sorts(c)} - {str}:
        sample[sort] = next(c for c in registry.values()
                            if issubclass(c, sort) and not dataclasses.fields(c))()
    for c in registry.values():
        fields = [f.name for f in dataclasses.fields(c)]
        args = [sample[s] or f"v{i}" for i, s in enumerate(core.field_sorts(c))]
        node = c(**dict(reversed(list(zip(fields, args)))))
        assert type(node._values()) is tuple, c
        assert node._values() == tuple(args) == tuple(getattr(node, f) for f in fields), c
        assert c(*args) is node, c


def test_a_refused_node_is_refused_again_and_not_kept():
    gc.collect()
    before = len(core._INTERNED)
    with pytest.raises(ValueError, match="occurs in its bound") as first:
        Sep("x", Var("x"), Bot())
    # the refused node never entered the table, so this attempt is a miss and is validated again
    with pytest.raises(ValueError, match="occurs in its bound"):
        Sep("x", Var("x"), Bot())
    del first
    gc.collect()
    assert len(core._INTERNED) == before


def _node_classes():
    from mfbridge import delta0_k0, emtt_syntax, rules, set_syntax
    modules = (set_syntax, emtt_syntax, rules, delta0_k0)
    return [c for m in modules for c in vars(m).values()
            if isinstance(c, type) and issubclass(c, Node) and c is not Node
            and "binding" in vars(c)]


def test_wrong_arguments_raise_type_error_and_leave_no_entry():
    x, y = Var("x"), Var("y")
    gc.collect()
    before = len(core._INTERNED)
    for args, kwargs in (((x,), {}), ((x, y, x), {}), ((), {"left": x}),
                         ((), {"left": x, "bogus": y}), ((x,), {"left": y}),
                         ((x, y), {"right": y})):
        with pytest.raises(TypeError):
            Mem(*args, **kwargs)
    gc.collect()
    assert len(core._INTERNED) == before
    assert Mem(right=y, left=x) is Mem(x, y) is Mem(x, right=y)


def test_no_node_class_carries_a_generated_method():
    # Node builds, validates and freezes every node; dataclass only records the fields
    classes = _node_classes()
    assert len(classes) > 80
    for c in classes:
        assert not {"__init__", "__setattr__", "__delattr__", "__repr__", "__eq__"} & set(vars(c)), c
    node = Mem(Var("x"), Var("y"))
    for change in (lambda: setattr(node, "left", Var("z")), lambda: delattr(node, "left"),
                   lambda: setattr(node, "extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    assert node.left is Var("x") and dataclasses.replace(node, left=Var("z")) is Mem(Var("z"), Var("y"))


def test_a_hit_does_not_validate_again():
    calls = []

    class Counted(SetFormula):
        name: str
        binding = ("X",)

        def __post_init__(self):
            calls.append(self.name)

    a = Counted("a")
    assert Counted("a") is a and Counted(name="a") is a and calls == ["a"]
    assert Counted("b") is not a and calls == ["a", "b"]


def test_every_node_class_uses_the_one_eq_and_hash():
    # Node makes each class that declares `binding` a dataclass with Node's
    # constructor, freezing and repr; nodes are interned, so eq and hash are
    # object's identity ones, and a structural eq/hash pair would cost
    # O(size) on every call
    from mfbridge import delta0_k0, emtt_syntax, rules, set_syntax, sexp
    classes = _node_classes()
    assert len(classes) > 80
    for c in classes:
        assert dataclasses.is_dataclass(c), c
        assert c.__eq__ is object.__eq__ and c.__hash__ is object.__hash__, c
        assert c.__repr__ is Node.__repr__, c
        fields = [f.name for f in dataclasses.fields(c)]
        assert tuple(fields) == c.__match_args__ and len(fields) == len(c.binding), c
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(object.__new__(c), fields[0] if fields else "binding", None)
    sorts = (set_syntax.SetNode, set_syntax.SetTerm, set_syntax.SetFormula, emtt_syntax.EmttNode,
             emtt_syntax.PreCollection, emtt_syntax.PreTerm, emtt_syntax.PreProposition,
             delta0_k0.K0Node, VarNode)
    assert not any(dataclasses.is_dataclass(c) for c in sorts)
    with pytest.raises(sexp.SexpError, match="unknown node kind 'SetTerm'"):
        sexp.loads("(SetTerm)", sexp.SET_REGISTRY)
    step = delta0_k0.K0Bounded("existsIn", "z", Eq(Var("z"), Empty()), "y",
                               delta0_k0.K0Atom(Mem(Var("y"), Var("x"))))
    assert repr(step) == ("K0Bounded(kind='existsIn', z='z', delta=Eq(left=Var(name='z'), "
                          "right=Empty()), bound_var='y', body=K0Atom(formula=Mem("
                          "left=Var(name='y'), right=Var(name='x'))))")
    pattern = rules.SubstProp(rules.MProp("P"), ((pre.Var("a"), "x"),))
    assert repr(pattern) == "SubstProp(target=MProp(name='P'), pairs=((Var(name='a'), 'x'),))"
