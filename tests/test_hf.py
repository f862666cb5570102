"""Finite-universe oracle: enumeration, evaluation, sweeps, engine agreement,
and the sweep's memo."""
import collections
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mfbridge import hf
from mfbridge.core import free_vars, subst1, walk
from mfbridge.hf import (EMPTY, EvalError, Overflow, check_equivalence, check_valid,
                         enumerate_universe, eval_formula, eval_term, make_hf, nat,
                         parse_env, parse_hf, print_hf, standard_axioms)
from mfbridge.parser import parse_set_formula, parse_set_term
from mfbridge.set_syntax import (And, Bot, Empty, Eq, Forall, Imp, Mem, Omega, Pair,
                                 Pow, Sep, Union, Var, elaborate)


def test_universe_sizes():
    assert [len(enumerate_universe(k)) for k in range(4)] == [1, 2, 4, 16]


def test_universe_size_rank_4():
    assert len(enumerate_universe(4)) == 65536


def test_rank_guard():
    for k in (-1, 5):
        with pytest.raises(ValueError):
            enumerate_universe(k)
    # the sweep engine's tables are n x n: rank 4 is for single evaluations only
    with pytest.raises(ValueError):
        check_valid(Bot(), [], enumerate_universe(4))
    with pytest.raises(ValueError):
        enumerate_universe(4).tables()
    assert eval_formula(Bot(), {}, enumerate_universe(4)) is False


def test_tables_match_hf_operations():
    # every table entry against the canonical construction; -1 = escapes V_k
    for k in range(4):
        U = enumerate_universe(k)
        mem, pair, union, pw = U.tables()
        code = lambda s: s.code if s.code < len(U) else -1
        for a in U.elements:
            assert union[a.code] == make_hf(c for m in a.children for c in m.children).code
            subsets = [make_hf(comb) for r in range(len(a.children) + 1)
                       for comb in itertools.combinations(a.children, r)]
            assert pw[a.code] == code(make_hf(subsets))
            for b in U.elements:
                assert mem[a.code, b.code] == b.has_member(a)
                assert pair[a.code, b.code] == code(make_hf((a, b)))


def test_cell_cap_is_a_usage_error():
    # a grid over 7 variables at rank 3 has 16**7 cells, above the cap
    v = [Var(f"x{i}") for i in range(7)]
    f = Eq(Pair(Pair(v[0], v[1]), Pair(v[2], v[3])), Pair(Pair(v[4], v[5]), v[6]))
    with pytest.raises(ValueError, match="cell cap"):
        check_valid(f, [x.name for x in v], enumerate_universe(3))


def test_canonical_construction_order_independent():
    a = make_hf([nat(2), nat(0), nat(1)])
    b = make_hf([nat(1), nat(2), nat(0), nat(0)])
    assert a == b and a.code == b.code and hash(a) == hash(b)


def test_rank_values():
    assert EMPTY.rank == 0
    assert nat(3).rank == 3
    assert enumerate_universe(3).omega == make_hf([nat(0), nat(1), nat(2)])


def test_hf_literal_round_trip():
    for s in [EMPTY, nat(3), make_hf([nat(1), make_hf([nat(1)])])]:
        assert parse_hf(print_hf(s)) == s


def test_parse_env():
    env = parse_env("x={},y={{}}")
    assert env == {"x": EMPTY, "y": nat(1)}


def test_eval_examples():
    U = enumerate_universe(3)
    # Un({empty, sing(empty)}) = {empty}
    t = elaborate(parse_set_term("Un({empty, sing(empty)})"))
    assert eval_term(t, {}, U) == nat(1)
    assert eval_formula(Bot(), {}, U) is False
    # empty in {empty, empty} — the degenerate pair
    assert eval_formula(Mem(Empty(), Pair(Empty(), Empty())), {}, U) is True
    f = Forall("x", Imp(Mem(Var("x"), Empty()), Bot()))
    assert eval_formula(f, {}, enumerate_universe(2)) is True


def test_eval_overflow():
    U = enumerate_universe(1)
    with pytest.raises(Overflow):
        eval_term(Pow(Pow(Empty())), {}, U)


def test_eval_unbound_variable():
    with pytest.raises(EvalError):
        eval_term(Var("x"), {}, enumerate_universe(2))


def test_omega_truncation():
    # the value is the set of von Neumann naturals of rank below the bound
    for k in range(4):
        U = enumerate_universe(k)
        assert eval_term(Omega(), {}, U) == make_hf([nat(i) for i in range(k)])


def test_big_value_decides_atoms():
    U = enumerate_universe(3)
    big = Pair(Var("x"), Var("y"))  # rank 4 when either argument has rank 3
    env = {"x": U.elements[8], "y": EMPTY}  # element 8 has rank 3
    assert U.elements[8].rank == 3
    assert eval_formula(Eq(big, Empty()), env, U) is False
    assert eval_formula(Mem(big, Var("x")), env, U) is False
    with pytest.raises(Overflow):
        eval_formula(Mem(Empty(), big), env, U)
    with pytest.raises(Overflow):
        eval_formula(Eq(big, Pair(Var("y"), Var("x"))), env, U)


def test_undetermined_sep_does_not_decide_equality():
    # the separation body is undecidable (its pair escapes), so the value is
    # unknown even though its rank is bounded; equality must overflow
    U = enumerate_universe(3)
    body = Mem(Empty(), Pair(Var("z"), Var("z")))
    t = Sep("q", Pair(Empty(), Empty()), body)
    env = {"z": U.elements[8]}
    with pytest.raises(Overflow):
        eval_formula(Eq(t, Empty()), env, U)


def test_check_equivalence_first_counterexample():
    U = enumerate_universe(2)
    f = parse_set_formula("x in y")
    g = parse_set_formula("y in x")
    rep = check_equivalence(f, g, ["x", "y"], U)
    assert not rep.ok
    assert rep.counterexample == {"x": EMPTY, "y": nat(1)}


def test_check_equivalence_trivia():
    U = enumerate_universe(2)
    f = parse_set_formula("x in y")
    assert check_equivalence(f, f, ["x", "y"], U).ok
    assert check_equivalence(parse_set_formula("x = x"),
                             elaborate(parse_set_formula("true")), ["x"], U).ok


def test_axioms_hold_in_bounded_universe():
    U = enumerate_universe(3)
    for name, ax in standard_axioms():
        rep = check_valid(ax, free_vars(ax), U)
        assert rep.ok, (name, rep.counterexample)


def test_extensionality_by_construction():
    U = enumerate_universe(2)
    f = parse_set_formula("(all z. (z in x -> z in y) /\\ (z in y -> z in x)) -> x = y")
    assert check_valid(elaborate(f), ["x", "y"], U).ok


# dual-engine agreement: the vectorized sweep must agree with plain recursion

def _assert_engines_agree(f, U, strict):
    variables = tuple(sorted(free_vars(f)))
    _, tr, ov = hf._sweep_arrays(f, variables, U, strict)
    for combo in itertools.product(U.elements, repeat=len(variables)):
        try:
            want = eval_formula(f, dict(zip(variables, combo)), U, strict)
        except Overflow:
            want = None
        idx = tuple(U.index_of(v) for v in combo)
        got = None if ov[idx] else bool(tr[idx])
        assert got == want, (combo, got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100000), st.booleans())
def test_engines_agree(seed, strict):
    from mfbridge.properties import GenConfig, gen_set_formula
    f = elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=3)))
    _assert_engines_agree(f, enumerate_universe(2), strict)


# the generator names every binder apart; these reuse a binder as a free
# variable of the enclosing formula, and as the binder of an inner separation
SHADOWING = [
    "{x in y | empty in x} = x",
    "{x in {x in y | empty in x} | x in z} = x",
    "all x. {y in x | x in y} = y",
    "ex x. x in {x in z | x in y} /\\ x in y",
]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("text", SHADOWING)
def test_engines_agree_on_shadowing_binders(text, strict):
    _assert_engines_agree(elaborate(parse_set_formula(text)), enumerate_universe(2), strict)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100000), st.booleans())
def test_engines_agree_rank3(seed, strict):
    from mfbridge.properties import GenConfig, gen_set_formula
    f = elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=2)))
    _assert_engines_agree(f, enumerate_universe(3), strict)


# the per-sweep memo: each structurally distinct subtree is evaluated once

def _subst_shaped_claims():
    """Claims shaped like check_substitution's, dt -> ((s -> i) /\\ (i -> s)),
    whose sides share subtrees; in the first, one separation body sits under
    two binders, so its arrays serve two different reductions."""
    body, shared = Mem(Var("u"), Var("w")), Union(Var("x"))
    s = Eq(Sep("u", shared, body), Var("y"))
    i = Eq(Sep("w", shared, body), Var("y"))
    dt = Mem(Var("v"), Pow(Var("y")))
    claims = [Imp(dt, And(Imp(s, i), Imp(i, s)))]
    from mfbridge.properties import GenConfig, gen_set_formula, gen_set_term
    seed = 0
    while len(claims) < 7:
        cfg = GenConfig(seed=seed, max_depth=3)
        f, t = elaborate(gen_set_formula(cfg)), elaborate(gen_set_term(cfg, 1))
        seed += 1
        if free_vars(f) and len(free_vars(f) | free_vars(t)) <= 4:
            x = sorted(free_vars(f))[0]
            s, i = subst1(f, x, t), subst1(f, x, Var("v#1"))
            claims.append(Imp(Eq(Var("v#1"), t), And(Imp(s, i), Imp(i, s))))
    return claims


@pytest.mark.parametrize("strict", [False, True])
def test_memoized_sweep_agrees_with_recursion(strict):
    for claim in _subst_shaped_claims():
        _assert_engines_agree(claim, enumerate_universe(2), strict)


@pytest.mark.parametrize("strict", [False, True])
def test_memo_is_empty_after_the_sweep(strict):
    for claim in _subst_shaped_claims():
        engine = hf._SweepEngine(enumerate_universe(2), strict)
        engine.sweep(claim)
        assert engine.memo == {} and engine.uses == {}


def test_each_distinct_subtree_is_evaluated_once():
    for claim in _subst_shaped_claims():
        engine = hf._SweepEngine(enumerate_universe(2))
        calls = collections.Counter()
        for name in ("_term", "_formula"):
            def counted(node, uncached=getattr(engine, name)):
                calls[node] += 1
                return uncached(node)
            setattr(engine, name, counted)
        engine.sweep(claim)
        nodes = list(walk(claim))
        assert len(nodes) > len(calls) == len(set(nodes)) and max(calls.values()) == 1
    hand = _subst_shaped_claims()[0]
    sep_body = hand.right.left.left.left.body
    assert list(walk(hand)).count(sep_body) == 4  # twice in s, twice in i


@pytest.mark.parametrize("seed", range(12))
def test_check_equivalence_matches_two_separate_sweeps(seed):
    from mfbridge.properties import GenConfig, gen_set_formula
    U = enumerate_universe(2)
    f = elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=2)))
    g = elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=2), 1))
    for a, b in ((f, g), (f, f), (f, elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=2))))):
        variables = sorted(free_vars(a) | free_vars(b))
        full, t1, o1 = hf._sweep_arrays(a, variables, U)
        _, t2, o2 = hf._sweep_arrays(b, variables, U)
        skip = o1 | o2
        assert check_equivalence(a, b, variables, U) == hf._report((t1 != t2) & ~skip, skip, full, U)
