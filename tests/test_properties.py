"""Generators and check drivers: determinism, coverage, report behavior."""
import dataclasses

import pytest

from mfbridge import emtt_syntax as pre
from mfbridge import set_syntax as fol
from mfbridge.core import bound_vars, free_vars, walk
from mfbridge.properties import (CHECKS, GenConfig, check_axioms,
                                 check_delta_functional, check_freevar_contracts,
                                 check_oneside, check_substitution,
                                 gen_precollection, gen_preprop, gen_preterm,
                                 gen_set_formula, gen_set_term)


def test_depth_zero_formula_is_atomic():
    for seed in range(20):
        f = gen_set_formula(GenConfig(seed=seed, max_depth=0))
        assert isinstance(f, (fol.Bot, fol.Eq, fol.Mem))


def test_generators_deterministic():
    cfg = GenConfig(seed=99, max_depth=3)
    assert gen_set_formula(cfg, 5) == gen_set_formula(cfg, 5)
    assert gen_preterm(cfg, 5) == gen_preterm(cfg, 5)
    assert gen_set_formula(cfg, 5) != gen_set_formula(cfg, 6) or True  # indexes vary


def test_generated_asts_are_binder_clean():
    cfg = GenConfig(seed=3, max_depth=4)
    for i in range(50):
        f = gen_set_formula(cfg, i)
        assert not (free_vars(f) & bound_vars(f))
        t = gen_preterm(cfg, i)
        assert not (free_vars(t) & bound_vars(t))


def test_omega_excluded_by_default():
    cfg = GenConfig(seed=1, max_depth=4)
    for i in range(100):
        for node in walk(gen_set_formula(cfg, i)):
            assert not isinstance(node, fol.Omega)
        for node in walk(gen_preterm(cfg, i)):
            assert not isinstance(node, pre.OmegaV)


def test_omega_opt_in():
    cfg = GenConfig(seed=1, max_depth=4, omega_allowed=True)
    assert any(isinstance(n, fol.Omega)
               for i in range(100) for n in walk(gen_set_formula(cfg, i)))


def test_formula_constructor_coverage():
    cfg = GenConfig(seed=0, max_depth=4)
    seen = set()
    for i in range(1000):
        for node in walk(gen_set_formula(cfg, i)):
            seen.add(type(node))
    for cls in (fol.Bot, fol.Eq, fol.Mem, fol.And, fol.Or, fol.Imp,
                fol.Forall, fol.Exists, fol.Var, fol.Empty, fol.Pair,
                fol.Union, fol.Pow, fol.Sep):
        assert cls in seen, cls


def test_preterm_constructor_coverage():
    cfg = GenConfig(seed=0, max_depth=4, omega_allowed=True)
    seen = set()
    for i in range(1500):
        for node in walk(gen_preterm(cfg, i)):
            seen.add(type(node))
        for node in walk(gen_precollection(cfg, i)):
            seen.add(type(node))
        for node in walk(gen_preprop(cfg, i)):
            seen.add(type(node))
    missing = []
    for name in dir(pre):
        obj = getattr(pre, name)
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and issubclass(obj, pre.EmttNode) and obj not in seen):
            missing.append(name)
    assert not missing, missing


def test_el_list_only_at_top_by_default():
    cfg = GenConfig(seed=0, max_depth=4)
    for i in range(500):
        t = gen_preterm(cfg, i)
        for node in walk(t):
            if isinstance(node, pre.ElList) and node is not t:
                raise AssertionError("nested recursion eliminator in default profile")


def test_sep_guard_respected_by_generator():
    cfg = GenConfig(seed=0, max_depth=5)
    for i in range(300):
        gen_set_term(cfg, i)  # Sep construction would raise on guard violation
        gen_preterm(cfg, i)


def test_small_checks_pass():
    assert check_oneside(GenConfig(seed=11, sample_count=40), term_count=15).ok
    assert check_delta_functional(GenConfig(seed=11, sample_count=25)).ok
    assert check_substitution(GenConfig(seed=11, sample_count=15)).ok
    assert check_freevar_contracts(GenConfig(seed=11, sample_count=60)).ok
    assert check_axioms(GenConfig(seed=11)).ok


def test_report_renders_and_is_stable():
    r1 = check_axioms(GenConfig(seed=1))
    r2 = check_axioms(GenConfig(seed=1))
    strip = lambda s: "\n".join(l for l in s.render().splitlines())
    # compare the structural fields
    assert (r1.samples, r1.skipped_envs, [f.detail for f in r1.failures]) == \
           (r2.samples, r2.skipped_envs, [f.detail for f in r2.failures])
    assert "axioms" in r1.render()


def test_failure_detection_is_real():
    # a deliberately wrong claim must produce a failure, not an exception
    from mfbridge.hf import check_equivalence, enumerate_universe
    from mfbridge.parser import parse_set_formula
    U = enumerate_universe(3)
    rep = check_equivalence(parse_set_formula("x in y"),
                            parse_set_formula("y in x"), ["x", "y"], U)
    assert not rep.ok and rep.counterexample is not None


def test_checks_registry():
    assert set(CHECKS) == {"oneside", "deltafun", "subst", "freevars", "axioms"}


def test_minimizer_shrinks_to_small_failing_core():
    from mfbridge.core import node_size
    from mfbridge.properties import _minimize
    big = gen_set_formula(GenConfig(seed=4, max_depth=4), 0)
    # artificial failure predicate: any formula containing a membership atom
    has_mem = lambda f: any(isinstance(n, fol.Mem) for n in walk(f))
    if not has_mem(big):
        big = fol.And(big, fol.Mem(fol.Var("x"), fol.Var("y")))
    small = _minimize(big, has_mem)
    assert has_mem(small)  # a minimized counterexample still fails
    assert isinstance(small, fol.Mem)
    assert node_size(small) <= node_size(big)


def test_minimizer_respects_well_formedness():
    from mfbridge.properties import _shrink_steps
    t = gen_preterm(GenConfig(seed=8, max_depth=4), 3)
    for cand in _shrink_steps(t):
        assert isinstance(cand, pre.PreTerm)
        free_vars(cand)  # walks the whole candidate; raises if malformed


def test_minimized_failure_lands_in_report():
    # break the claim deliberately by comparing a formula with its negation
    from mfbridge.hf import check_equivalence, enumerate_universe
    from mfbridge.properties import CheckReport, _sampled, _with_depth
    from mfbridge.printer import print_set

    def check(f, U):
        wrong = fol.Imp(f, fol.Bot())
        rep = check_equivalence(f, wrong, free_vars(f), U)
        return rep, print_set(f), "formula equivalent to its negation"

    report = CheckReport("selftest")
    _sampled(GenConfig(seed=0, max_depth=2, sample_count=3),
             _with_depth(gen_set_formula), check, report, 3)
    assert not report.ok
    # the shrinker reduces every reported failure to an atom
    assert all(len(f.subject) <= len("false -> false") for f in report.failures)


def test_generator_stream_is_pinned():
    # every seeded sweep report depends on this stream; a generator change
    # that moves one draw fails here before it moves a report
    import hashlib
    import itertools

    from mfbridge.printer import print_emtt, print_set
    cfg = GenConfig(seed=7, max_depth=4, omega_allowed=True, deep_el_list=True)
    printed = {
        gen_set_formula: (
            r"((ex b1. omega = b1) -> omega in {y, z}) -> y in {b2 in {y, omega} | false /\ empty = omega}",
            "all b1. {omega, {x, empty}} in omega",
            "{Un({b1 in empty | empty in omega}), {{z, x}, Un(empty)}} in {empty, Un(omega)}"),
        gen_set_term: (
            "{b1 in {b2 in empty | empty in omega} | {omega, {x, omega}} in y}",
            "Pow(omega)",
            "omega"),
        gen_preprop: (
            "((ex b1:N0. star =[N0] star) -> inl(star) =[N1] PowV(omegaV)) -> "
            "cons(elQ[P1,(b3,b4)b3 =[V] b4](emptyV,(b5)star),emp0(tt)) =[{ b2 | bot }] "
            "cls[V,(b7,b8)tt =[V] omegaV](inl(x))",
            r"all b1:N1. inl(star) eps { b2 | eps eps emptyV } /\ <eps,eps> eps N0",
            "PowV({elQ[V,(b1,b2)b1 =[V] b2](eps,(b3)tt),inr(eps)}V) eps V"),
        gen_preterm: (
            "<{<PowV(emptyV),cls[N0,(b1,b2)b2 eps star](omegaV)>,{emp0(eps),inl(star)}V}V,"
            "PowV({b3 eps {star,emptyV}V | bot})>",
            "lam b1:N1. inl(PowV(PowV(omegaV)))",
            "elList[N1](omegaV,omegaV,(b1,b2,b3)emptyV)"),
        gen_precollection: (
            "Sig b1:{ b2 | (ex b3:N0. b3 eps star) -> eps =[N1] star }. "
            "[prop cons(emptyV,tt) =[{ b4 | bot }] name(N1)]",
            "Pi b1:V. List([prop eps eps N1])",
            "V"),
    }
    for gen, want in printed.items():
        show = print_set if gen in (gen_set_formula, gen_set_term) else print_emtt
        assert tuple(show(gen(cfg, i)) for i in (1, 2, 3)) == want, gen.__name__
    digest = hashlib.sha256()
    for seed, depth, omega, deep, gen, i in itertools.product(
            range(5), range(5), (False, True), (False, True), printed, range(2)):
        grid = GenConfig(seed=seed, max_depth=depth, omega_allowed=omega, deep_el_list=deep)
        digest.update(repr(gen(grid, i)).encode())
    assert digest.hexdigest() == "bb44e4bffd27b94d25cc03db25d0650555f54c74d859f4b2d4d0d35a39d3f605"


def test_generator_pools_cover_every_core_class():
    # a constructor missing from every pool would silently never be drawn
    from mfbridge.properties import _LEAVES, _OVERRIDES, _pool
    pooled = {cls for sort in _LEAVES for inner in (False, True)
              for cls in _pool(sort, inner, True, True)}
    for module, root in ((fol, fol.SetNode), (pre, pre.EmttNode)):
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, root)
                    and dataclasses.is_dataclass(cls) and cls not in fol.SUGAR_CLASSES):
                assert cls in pooled, cls
    # an override replaces the draw of one child field of a drawn class
    for cls, j in _OVERRIDES:
        assert cls in pooled and isinstance(cls.binding[j], tuple), (cls, j)


def test_a_sample_over_the_cell_cap_is_regenerated():
    # sample 3 of this seed draws a depth-3 substitution claim whose sweep
    # needs a grid over 7 variables, above the engine's cell cap
    report = check_substitution(GenConfig(seed=40_600_059, max_depth=3, rank=3, sample_count=4))
    assert report.ok and report.samples == 4 and report.regenerated == 1


def test_the_cell_cap_at_depth_zero_is_an_error():
    from mfbridge.hf import CellCapError
    from mfbridge.properties import CheckReport, _sampled, _with_depth
    report, calls = CheckReport("selftest"), []

    def check(f, U):
        calls.append(f)
        raise CellCapError("sweep grid over 7 variables exceeds the cell cap")

    with pytest.raises(CellCapError):
        _sampled(GenConfig(seed=0, max_depth=2), _with_depth(gen_set_formula), check, report, 1)
    assert len(calls) == 3 and report.regenerated == 2  # at depths 2, 1 and 0
