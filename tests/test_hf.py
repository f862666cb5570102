"""Finite-universe oracle: enumeration, evaluation, sweeps, engine agreement."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mfbridge import hf
from mfbridge.core import free_vars
from mfbridge.hf import (EMPTY, EvalError, Overflow, check_equivalence, check_valid,
                         enumerate_universe, eval_formula, eval_term, make_hf, nat,
                         parse_env, parse_hf, print_hf, standard_axioms)
from mfbridge.parser import parse_set_formula, parse_set_term
from mfbridge.set_syntax import (Bot, Empty, Eq, Forall, Imp, Mem, Omega, Pair,
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
    assert eval_formula(Bot(), {}, enumerate_universe(4)) is False


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

def _sweep_recursive(f, variables, U):
    out = {}
    for combo in itertools.product(U.elements, repeat=len(variables)):
        env = dict(zip(variables, combo))
        try:
            out[combo] = eval_formula(f, env, U)
        except Overflow:
            out[combo] = None
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100000))
def test_engines_agree(seed):
    from mfbridge.properties import GenConfig, gen_set_formula
    f = elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=3)))
    variables = tuple(sorted(free_vars(f)))
    U = enumerate_universe(2)
    want = _sweep_recursive(f, variables, U)
    full, tr, ov = hf._sweep_arrays(f, variables, U)
    for combo, val in want.items():
        idx = tuple(U.index_of(v) for v in combo)
        got = None if ov[idx] else bool(tr[idx])
        assert got == val, (combo, got, val)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100000))
def test_engines_agree_rank3(seed):
    from mfbridge.properties import GenConfig, gen_set_formula
    f = elaborate(gen_set_formula(GenConfig(seed=seed, max_depth=2)))
    variables = tuple(sorted(free_vars(f)))
    U = enumerate_universe(3)
    want = _sweep_recursive(f, variables, U)
    full, tr, ov = hf._sweep_arrays(f, variables, U)
    for combo, val in want.items():
        idx = tuple(U.index_of(v) for v in combo)
        got = None if ov[idx] else bool(tr[idx])
        assert got == val, (combo, got, val)
