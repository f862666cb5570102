"""Generators and check drivers: determinism, coverage, report behavior."""
import dataclasses

import pytest

from mfbridge import emtt_syntax as pre
from mfbridge import set_syntax as fol
from mfbridge.core import bound_vars, free_vars, walk
from mfbridge.properties import (PROPERTIES, VARIABLES, GenConfig, _g, _g_subst, _Gen,
                                 _rng, check_axioms, check_delta_functional,
                                 check_freevar_contracts, check_oneside,
                                 check_substitution, gen)

# sort -> draw(g, depth) at the top level, as `gen(sort, ...)` draws it
DRAWS = {
    fol.SetFormula: lambda g, depth: _g(g, fol.SetFormula, depth, ()),
    fol.SetTerm: lambda g, depth: _g(g, fol.SetTerm, depth, ()),
    pre.PreTerm: lambda g, depth: _g(g, pre.PreTerm, depth, (), top=True),
    pre.PreProposition: lambda g, depth: _g(g, pre.PreProposition, depth, ()),
    pre.PreCollection: lambda g, depth: _g(g, pre.PreCollection, depth, ()),
}


def test_depth_zero_formula_is_atomic():
    for seed in range(20):
        f = gen(fol.SetFormula, GenConfig(seed=seed, max_depth=0))
        assert isinstance(f, (fol.Bot, fol.Eq, fol.Mem))


def test_generators_deterministic():
    cfg = GenConfig(seed=99, max_depth=3)
    assert gen(fol.SetFormula, cfg, 5) == gen(fol.SetFormula, cfg, 5)
    assert gen(pre.PreTerm, cfg, 5) == gen(pre.PreTerm, cfg, 5)
    assert len({gen(fol.SetFormula, cfg, i) for i in range(10)}) > 1  # indexes vary


def test_generated_asts_are_binder_clean():
    cfg = GenConfig(seed=3, max_depth=4)
    for i in range(50):
        f = gen(fol.SetFormula, cfg, i)
        assert not (free_vars(f) & bound_vars(f))
        t = gen(pre.PreTerm, cfg, i)
        assert not (free_vars(t) & bound_vars(t))


def test_omega_excluded_by_default():
    cfg = GenConfig(seed=1, max_depth=4)
    for i in range(100):
        for node in walk(gen(fol.SetFormula, cfg, i)):
            assert not isinstance(node, fol.Omega)
        for node in walk(gen(pre.PreTerm, cfg, i)):
            assert not isinstance(node, pre.OmegaV)


def test_omega_opt_in():
    cfg = GenConfig(seed=1, max_depth=4, omega_allowed=True)
    assert any(isinstance(n, fol.Omega)
               for i in range(100) for n in walk(gen(fol.SetFormula, cfg, i)))


def test_formula_constructor_coverage():
    cfg = GenConfig(seed=0, max_depth=4)
    seen = set()
    for i in range(1000):
        for node in walk(gen(fol.SetFormula, cfg, i)):
            seen.add(type(node))
    for cls in (fol.Bot, fol.Eq, fol.Mem, fol.And, fol.Or, fol.Imp,
                fol.Forall, fol.Exists, fol.Var, fol.Empty, fol.Pair,
                fol.Union, fol.Pow, fol.Sep):
        assert cls in seen, cls


def test_preterm_constructor_coverage():
    cfg = GenConfig(seed=0, max_depth=4, omega_allowed=True)
    seen = set()
    for i in range(1500):
        for node in walk(gen(pre.PreTerm, cfg, i)):
            seen.add(type(node))
        for node in walk(gen(pre.PreCollection, cfg, i)):
            seen.add(type(node))
        for node in walk(gen(pre.PreProposition, cfg, i)):
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
        t = gen(pre.PreTerm, cfg, i)
        for node in walk(t):
            if isinstance(node, pre.ElList) and node is not t:
                raise AssertionError("nested recursion eliminator in default profile")


def test_sep_guard_respected_by_generator():
    cfg = GenConfig(seed=0, max_depth=5)
    for i in range(300):
        gen(fol.SetTerm, cfg, i)  # Sep construction would raise on guard violation
        gen(pre.PreTerm, cfg, i)


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
    assert set(PROPERTIES) == {"oneside", "deltafun", "subst", "freevars", "axioms"}


def _assert_well_formed(node, sort):
    assert isinstance(node, sort)
    assert not (free_vars(node) & bound_vars(node))  # walks the whole node
    binders = [v for n in walk(node) for spec, v in zip(n.binding, n._values()) if spec == "B"]
    assert len(binders) == len(set(binders))


def test_recorded_choices_replay_to_the_same_sample():
    for seed, i in ((7, 1), (7, 2), (20240801, 5), (3, 0)):
        cfg = GenConfig(seed=seed, max_depth=4, omega_allowed=True, deep_el_list=True)
        for sort, draw in DRAWS.items():
            g = _Gen(cfg, _rng(cfg, i))
            node = draw(g, cfg.max_depth)
            assert node is gen(sort, cfg, i)
            assert draw(_Gen(cfg, g.choices), cfg.max_depth) is node
        g = _Gen(cfg, _rng(cfg, i))
        sample = _g_subst(g, 3)
        again = _g_subst(_Gen(cfg, g.choices), 3)
        assert all(x is y for x, y in zip(sample, again)) and len(again) == 5


def test_any_choice_list_replays_to_a_well_formed_sample():
    import random
    rng = random.Random(18)
    cfg = GenConfig(seed=5, max_depth=3, omega_allowed=True, deep_el_list=True)
    recorded = []
    for i in range(5):
        g = _Gen(cfg, _rng(cfg, i))
        _g_subst(g, 3)
        recorded.append(g.choices)
    lists = [[], [0], [99] * 60]
    lists += [[rng.randrange(40) for _ in range(rng.randrange(60))] for _ in range(40)]
    lists += [c[:n] for c in recorded for n in (0, len(c) // 3, len(c) // 2, len(c) - 1)]
    for choices in lists:
        for depth in range(4):
            for sort, draw in DRAWS.items():
                _assert_well_formed(draw(_Gen(cfg, choices), depth), sort)
            t, a, A, phi, x = _g_subst(_Gen(cfg, choices), depth)
            for node, sort in ((t, pre.PreTerm), (a, pre.PreTerm), (A, pre.PreCollection),
                               (phi, pre.PreProposition)):
                _assert_well_formed(node, sort)
            assert x in VARIABLES


def test_minimizer_shrinks_to_small_failing_core():
    from mfbridge.core import node_size
    from mfbridge.properties import _minimize
    cfg = GenConfig(seed=4, max_depth=4)
    draw = DRAWS[fol.SetFormula]
    replay = lambda choices: draw(_Gen(cfg, choices), cfg.max_depth)
    g = _Gen(cfg, _rng(cfg, 0))
    big = draw(g, cfg.max_depth)
    # artificial failure predicate: any formula containing a membership atom
    has_mem = lambda f: any(isinstance(n, fol.Mem) for n in walk(f))
    assert has_mem(big) and not isinstance(big, fol.Mem)
    small = replay(_minimize(g.choices, lambda choices: has_mem(replay(choices))))
    assert has_mem(small)  # a minimized counterexample still fails
    assert isinstance(small, fol.Mem)
    assert node_size(small) <= node_size(big)


def test_minimizer_stops_at_its_budget():
    from mfbridge.properties import _minimize
    tried = []

    def still_fails(choices):
        tried.append(choices)
        return sum(choices) > 0

    # unbounded, the shrink would go on to [1]
    assert _minimize([3, 3, 3], still_fails, budget=4) == [2]
    assert tried == [[], [3], [0], [2]]


def test_freevars_checks_the_generator_subjects(monkeypatch):
    # a sample's three subjects are the ones `gen` draws at its index
    from mfbridge.hat import HatTranslator
    seen = []

    def recorded(translate):
        return lambda self, node: seen.append(node) or translate(self, node)

    for name in ("hat", "eta", "delta"):
        monkeypatch.setattr(HatTranslator, name, recorded(getattr(HatTranslator, name)))
    cfg = GenConfig(seed=20240801, sample_count=40)
    assert check_freevar_contracts(cfg).ok
    assert seen == [gen(sort, cfg, i) for i in range(40)
                    for sort in (pre.PreProposition, pre.PreCollection, pre.PreTerm)]


def test_minimizer_respects_well_formedness():
    from mfbridge.core import node_size
    from mfbridge.properties import _minimize
    cfg = GenConfig(seed=8, max_depth=4)
    draw = DRAWS[pre.PreTerm]
    g = _Gen(cfg, _rng(cfg, 0))
    assert node_size(draw(g, cfg.max_depth)) > 10
    tried = []

    def still_fails(choices):
        cand = draw(_Gen(cfg, choices), cfg.max_depth)
        _assert_well_formed(cand, pre.PreTerm)
        tried.append(cand)
        return node_size(cand) > 3

    _minimize(g.choices, still_fails)
    assert len(tried) > 10


def test_a_shrink_candidate_over_the_cell_cap_does_not_reproduce():
    # a candidate can have more free variables than the sample, so its grid
    # can go over the cell cap; the sample's own failure is still reported
    from mfbridge.hf import CellCapError, SweepReport
    from mfbridge.printer import print_set
    from mfbridge.properties import CheckReport, _sampled
    cfg = GenConfig(seed=0, max_depth=2)
    sample = gen(fol.SetFormula, cfg, 0)

    def check(f, U):
        if f is not sample:
            raise CellCapError("sweep grid over 7 variables exceeds the cell cap")
        return SweepReport(False, None, 0, 1), print_set(f), "planted failure"

    report = CheckReport("selftest")
    _sampled(cfg, [(DRAWS[fol.SetFormula], check)], report, 1)
    assert [(f.index, f.subject, f.detail) for f in report.failures] == \
        [(0, print_set(sample), "planted failure")]


def test_minimized_failure_lands_in_report():
    # break the claim deliberately by comparing a formula with its negation
    from mfbridge.hf import check_equivalence, enumerate_universe
    from mfbridge.properties import CheckReport, _sampled
    from mfbridge.printer import print_set

    def check(f, U):
        wrong = fol.Imp(f, fol.Bot())
        rep = check_equivalence(f, wrong, free_vars(f), U)
        return rep, print_set(f), "formula equivalent to its negation"

    report = CheckReport("selftest")
    _sampled(GenConfig(seed=0, max_depth=2, sample_count=3), [(DRAWS[fol.SetFormula], check)],
             report, 3)
    assert not report.ok
    # the shrinker reduces every reported failure to an atom
    assert all(len(f.subject) <= len("false -> false") for f in report.failures)


def _epsterm_swap(monkeypatch):
    # membership in the wrong direction at the end of the EpsTerm clause
    from mfbridge.hat import PLACEHOLDER, U, HatTranslator, _conj
    hat = HatTranslator._hat

    def swapped(self, phi):
        if not isinstance(phi, pre.EpsTerm):
            return hat(self, phi)
        v = self.fresh("v")
        body = _conj(self._delta(phi.elem), self._d(phi.container, v), fol.Mem(fol.Var(v), U))
        return fol.Exists(PLACEHOLDER, fol.Exists(v, body))

    monkeypatch.setattr(HatTranslator, "_hat", swapped)


def _pairv_drop(monkeypatch):
    from mfbridge import hat
    monkeypatch.setitem(hat._VALUES, pre.PairV, lambda a, b: fol.Pair(a, a))


def _fails_again(failure, U) -> bool:
    """Re-check a reported round-trip failure from its printed subject."""
    from mfbridge.core import FreshNames
    from mfbridge.hat import PLACEHOLDER, HatTranslator
    from mfbridge.hf import check_equivalence
    from mfbridge.parser import parse_set_formula, parse_set_term
    from mfbridge.tilde import tilde_formula, tilde_term
    if failure.detail.startswith("formula"):
        psi = parse_set_formula(failure.subject)
        img = HatTranslator(FreshNames.for_nodes(psi)).hat(tilde_formula(psi))
        return not check_equivalence(psi, img, free_vars(psi), U).ok
    a = parse_set_term(failure.subject)
    img = HatTranslator(FreshNames.for_nodes(a)).delta(tilde_term(a))
    lhs = fol.Eq(fol.Var(PLACEHOLDER), a)
    return not check_equivalence(lhs, img, free_vars(a) | {PLACEHOLDER}, U).ok


@pytest.mark.parametrize("plant, longest_median", [(_epsterm_swap, 10.0), (_pairv_drop, 15.5)],
                         ids=["epsterm-swap", "pairv-drop"])
def test_planted_translation_bugs_are_caught_and_shrunk(monkeypatch, plant, longest_median):
    # `longest_median` is the median printed length that the per-sort
    # subterm shrinker reached on the same sweep; shrinking must not do worse
    import statistics

    from mfbridge.hf import enumerate_universe
    plant(monkeypatch)
    report = check_oneside(GenConfig(seed=20240801, max_depth=3, rank=3, sample_count=60))
    assert report.failures
    U = enumerate_universe(3)
    assert all(_fails_again(f, U) for f in report.failures)
    assert statistics.median(len(f.subject) for f in report.failures) <= longest_median


def test_generator_stream_is_pinned():
    # every seeded sweep report depends on this stream; a generator change
    # that moves one draw fails here before it moves a report
    import hashlib
    import itertools

    from mfbridge.printer import print_emtt, print_set
    cfg = GenConfig(seed=7, max_depth=4, omega_allowed=True, deep_el_list=True)
    printed = {
        fol.SetFormula: (
            r"((ex b1. omega = b1) -> omega in {y, z}) -> y in {b2 in {y, omega} | false /\ empty = omega}",
            "all b1. {omega, {x, empty}} in omega",
            "{Un({b1 in empty | empty in omega}), {{z, x}, Un(empty)}} in {empty, Un(omega)}"),
        fol.SetTerm: (
            "{b1 in {b2 in empty | empty in omega} | {omega, {x, omega}} in y}",
            "Pow(omega)",
            "omega"),
        pre.PreProposition: (
            "((ex b1:N0. star =[N0] star) -> inl(star) =[N1] PowV(omegaV)) -> "
            "cons(elQ[P1,(b3,b4)b3 =[V] b4](emptyV,(b5)star),emp0(tt)) =[{ b2 | bot }] "
            "cls[V,(b7,b8)tt =[V] omegaV](inl(x))",
            r"all b1:N1. inl(star) eps { b2 | eps eps emptyV } /\ <eps,eps> eps N0",
            "PowV({elQ[V,(b1,b2)b1 =[V] b2](eps,(b3)tt),inr(eps)}V) eps V"),
        pre.PreTerm: (
            "<{<PowV(emptyV),cls[N0,(b1,b2)b2 eps star](omegaV)>,{emp0(eps),inl(star)}V}V,"
            "PowV({b3 eps {star,emptyV}V | bot})>",
            "lam b1:N1. inl(PowV(PowV(omegaV)))",
            "elList[N1](omegaV,omegaV,(b1,b2,b3)emptyV)"),
        pre.PreCollection: (
            "Sig b1:{ b2 | (ex b3:N0. b3 eps star) -> eps =[N1] star }. "
            "[prop cons(emptyV,tt) =[{ b4 | bot }] name(N1)]",
            "Pi b1:V. List([prop eps eps N1])",
            "V"),
    }
    for sort, want in printed.items():
        show = print_set if sort in (fol.SetFormula, fol.SetTerm) else print_emtt
        assert tuple(show(gen(sort, cfg, i)) for i in (1, 2, 3)) == want, sort.__name__
    digest = hashlib.sha256()
    for seed, depth, omega, deep, sort, i in itertools.product(
            range(5), range(5), (False, True), (False, True), printed, range(2)):
        grid = GenConfig(seed=seed, max_depth=depth, omega_allowed=omega, deep_el_list=deep)
        digest.update(repr(gen(sort, grid, i)).encode())
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
    from mfbridge.properties import CheckReport, _sampled
    report, calls = CheckReport("selftest"), []

    def check(f, U):
        calls.append(f)
        raise CellCapError("sweep grid over 7 variables exceeds the cell cap")

    with pytest.raises(CellCapError):
        _sampled(GenConfig(seed=0, max_depth=2), [(DRAWS[fol.SetFormula], check)], report, 1)
    assert len(calls) == 3 and report.regenerated == 2  # at depths 2, 1 and 0
