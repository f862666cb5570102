"""Finite-universe oracle: enumeration, evaluation, sweeps, engine agreement,
and the sweep's memo."""
import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mfbridge import hf
from mfbridge.core import FreshNames, all_names, free_vars, subst1, walk
from mfbridge.hat import PLACEHOLDER, HatTranslator
from mfbridge.hf import (EMPTY, EvalError, Overflow, check_equivalence, check_valid,
                         enumerate_universe, eval_formula, eval_term, evaluate, make_hf,
                         members, nat, parse_env, parse_hf, print_hf, rank, standard_axioms)
from mfbridge.parser import parse_set, parse_set_formula, parse_set_term
from mfbridge.set_syntax import (And, Bot, Empty, Eq, Forall, Imp, Mem, Omega, Pair,
                                 Pow, Sep, SetTerm, Union, Var, elaborate)
from mfbridge.tilde import tilde_formula, tilde_term


def test_universe_sizes():
    assert [len(enumerate_universe(k)) for k in range(4)] == [1, 2, 4, 16]


def test_rank_guard():
    # the sweep engine's tables are n x n, and |V_4| = 65,536
    for k in (-1, 4):
        with pytest.raises(ValueError):
            enumerate_universe(k)


def test_tables_match_hf_operations():
    # every table entry against the canonical construction; -1 = escapes V_k
    for k in range(4):
        U = enumerate_universe(k)
        mem, pair, union, pw = U.tables()
        code = lambda s: s if s < len(U) else -1
        for a in U.elements:
            assert union[a] == make_hf(c for m in members(a) for c in members(m))
            subsets = [make_hf(comb) for r in range(len(members(a)) + 1)
                       for comb in itertools.combinations(members(a), r)]
            assert pw[a] == code(make_hf(subsets))
            for b in U.elements:
                assert mem[a, b] == (a in members(b))
                assert pair[a, b] == code(make_hf((a, b)))


def test_cell_cap_is_a_usage_error():
    # a grid over 7 variables at rank 3 has 16**7 cells, above the cap
    v = [Var(f"x{i}") for i in range(7)]
    f = Eq(Pair(Pair(v[0], v[1]), Pair(v[2], v[3])), Pair(Pair(v[4], v[5]), v[6]))
    with pytest.raises(ValueError, match="cell cap"):
        check_valid(f, [x.name for x in v], enumerate_universe(3))


def test_canonical_construction_order_independent():
    a = make_hf([nat(2), nat(0), nat(1)])
    b = make_hf([nat(1), nat(2), nat(0), nat(0)])
    assert a == b and hash(a) == hash(b) and members(a) == [nat(0), nat(1), nat(2)]


def test_rank_values():
    assert rank(EMPTY) == 0
    assert rank(nat(3)) == 3
    assert enumerate_universe(3).omega == make_hf([nat(0), nat(1), nat(2)])


def test_codes_are_the_sets():
    # V_k is exactly the codes below |V_k|, so the universe's bound check on
    # a code agrees with the structural rank; and a code is its member list
    sizes = [len(enumerate_universe(k)) for k in range(4)]
    for s in range(2 ** 16):
        assert [rank(s) <= k for k in range(4)] == [s < n for n in sizes], s
        assert make_hf(members(s)) == s
    for k, n in enumerate(sizes):
        assert enumerate_universe(k).index_of(n - 1) == n - 1
        with pytest.raises(Overflow, match=f"^value of rank {k + 1} not in V_{k}$"):
            enumerate_universe(k).index_of(n)
    for s in enumerate_universe(3).elements:
        assert parse_hf(print_hf(s)) == s


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
    assert rank(U.elements[8]) == 3
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


# the inputs the round-trip sweep really sweeps: each image, and its
# equivalence claim built as check_oneside builds it

def _round_trip_claims(seed):
    from mfbridge.properties import GenConfig, gen_set_formula, gen_set_term
    cfg = GenConfig(seed=seed, max_depth=1)
    psi, a = gen_set_formula(cfg), gen_set_term(cfg)
    psi_img = HatTranslator(FreshNames.for_nodes(psi)).hat(tilde_formula(psi))
    a_img = HatTranslator(FreshNames.for_nodes(a)).delta(tilde_term(a))
    iff = lambda f, g: And(Imp(f, g), Imp(g, f))
    return psi_img, a_img, iff(psi, psi_img), iff(Eq(Var(PLACEHOLDER), a), a_img)


@pytest.mark.parametrize("strict", [False, True])
def test_engines_agree_on_round_trip_images(strict):
    for seed in range(20):
        for f in _round_trip_claims(seed):
            _assert_engines_agree(f, enumerate_universe(2), strict)


# `evaluate` (one sweep, every free variable pinned) against the reference:
# the same value or truth value, and where it overflows, for a term the same
# message (a formula's overflow message is fixed; the reference's names the atom)

def _outcome(evaluator, node, env, U):
    try:
        return evaluator(node, env, U)
    except Overflow as e:
        return str(e) if isinstance(node, SetTerm) else "overflow"


def _assert_evaluate_agrees(node, env, U):
    want = _outcome(eval_term if isinstance(node, SetTerm) else eval_formula, node, env, U)
    got = _outcome(evaluate, node, env, U)
    assert got == want, (node, env, got, want)
    return got


def test_evaluate_agrees_with_the_reference():
    from mfbridge.properties import GenConfig, gen_set_formula, gen_set_term
    seen = set()
    for seed in range(600):
        U = enumerate_universe(seed % 4)
        cfg = GenConfig(seed=seed, max_depth=3, omega_allowed=seed % 3 == 0)
        rng = random.Random(seed)
        for gen in (gen_set_term, gen_set_formula):
            node = elaborate(gen(cfg))
            # bound names get env values too, which their binders must shadow
            env = {x: rng.choice(U.elements) for x in sorted(all_names(node))}
            got = _assert_evaluate_agrees(node, env, U)
            seen.add(got if isinstance(got, (bool, str)) else "value")
    assert seen == {True, False, "overflow", "value", "value exceeds the rank bound",
                    "value could not be determined within the rank bound"}


@pytest.mark.parametrize("text", SHADOWING + [
    "x = x /\\ all x. x in x",
    "{x in y | empty in x}",
    "{x in y | x in z} = {z in y | x in z}",
])
def test_evaluate_agrees_on_shadowing_binders(text):
    node = elaborate(parse_set(text))
    U = enumerate_universe(2)
    names = sorted(all_names(node))
    for combo in itertools.product(U.elements, repeat=len(names)):
        _assert_evaluate_agrees(node, dict(zip(names, combo)), U)


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


@pytest.mark.parametrize("strict", [False, True])
def test_an_overflow_mask_spans_only_its_overflowing_atoms(strict):
    U = enumerate_universe(2)
    # atoms that compare only variables never overflow: the mask has no dims
    claim = elaborate(parse_set_formula("all z. (z in x <-> z in y) -> x = y"))
    dims, _, odims, ov = hf._SweepEngine(U, strict).sweep(claim)
    assert (dims, odims, ov.shape, bool(ov)) == (("x", "y"), (), (), False)
    # {x, y} escapes V_2 where x or y has rank 2, so that atom keeps its dims
    claim = And(Mem(Var("z"), Pair(Var("x"), Var("y"))), Mem(Var("w"), Var("x")))
    dims, _, odims, ov = hf._SweepEngine(U, strict).sweep(claim)
    assert (dims, odims, ov.shape) == (("w", "x", "y", "z"), ("x", "y", "z"), (4, 4, 4))
    assert ov.any() and not ov.all()
    # _sweep_arrays widens both to the sweep grid
    full, tr, wide = hf._sweep_arrays(claim, ("v",) + dims, U, strict)
    assert full == ("v",) + dims and tr.shape == wide.shape == (4,) * 5
    assert (wide == ov[None, None]).all()


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
        assert check_equivalence(a, b, variables, U) == hf._report((t1 != t2) & ~skip, skip, full)
