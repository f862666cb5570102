"""Rule catalog: audit against the manifest, instance matching, translation
consistency of the comprehension characterizations."""
import dataclasses
import pathlib
import re
from importlib import resources

import pytest

from mfbridge import emtt_syntax as pre
from mfbridge.core import FreshNames, free_vars
from mfbridge.hat import HatTranslator
from mfbridge.hf import check_equivalence, enumerate_universe
from mfbridge.rules import (Judgment, MatchReport, RuleInstance, RulesError, get_rule,
                            instantiate, instantiate_judgment, list_rules,
                            load_catalog, match_instance, parse_instance)
from mfbridge.set_syntax import TheoryFlavor, Var, subst_set

MANIFEST = pathlib.Path(__file__).parent.parent / "docs" / "rules_manifest.md"
_LINE = re.compile(r"^([a-z0-9]+\.[a-z0-9-]+) \| ([a-z ]+)$")


def _manifest_entries():
    counted, derived = {}, {}
    bucket = counted
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("## Derived"):
            bucket = derived
            continue
        m = _LINE.match(line.strip())
        if m:
            bucket[m.group(1)] = frozenset(m.group(2).split())
    return counted, derived


def test_catalog_matches_manifest_exactly():
    counted, derived = _manifest_entries()
    cat_counted = {s.id: s.flavors for s in load_catalog() if not s.derived}
    cat_derived = {s.id: s.flavors for s in load_catalog() if s.derived}
    assert cat_counted == counted
    assert cat_derived == derived


def test_per_flavor_counts():
    counted, _ = _manifest_entries()
    for flavor, expected in ((TheoryFlavor.CZF, 61), (TheoryFlavor.IZF, 62),
                             (TheoryFlavor.ZF, 63)):
        got = list_rules(flavor)
        assert len(got) == expected
        assert len(got) == sum(1 for fl in counted.values() if flavor.value in fl)


def test_flavor_specific_membership():
    zf = {s.id for s in list_rules(TheoryFlavor.ZF)}
    czf = {s.id for s in list_rules(TheoryFlavor.CZF)}
    izf = {s.id for s in list_rules(TheoryFlavor.IZF)}
    assert "step3.lem" in zf and "step3.lem" not in izf
    assert "step3.pow-formation" not in czf
    assert "step3.pow-formation" in izf
    assert "step3.sep-s-formation" in czf and "step3.sep-s-formation" not in zf
    assert "step3.strong-collection" in czf and "step3.subset-collection" in czf
    # a separation former exists in every flavor, differing in smallness
    assert "step3.sep-formation" in izf and "step3.sep-s-formation" in czf


def test_derived_rules_excluded_by_default():
    assert all(not s.derived for s in list_rules(TheoryFlavor.ZF))
    with_derived = list_rules(TheoryFlavor.ZF, include_derived=True)
    assert sum(1 for s in with_derived if s.derived) == 4


def test_instance_star_equation():
    inst = parse_instance("""
(instance step4.star-eq (flavor czf) (sub) (premises)
  (conclusion (eqelem star emptyv N1)))
""")
    assert match_instance(inst).ok


def test_instance_star_equation_wrong_value():
    inst = parse_instance("""
(instance step4.star-eq (flavor czf) (sub) (premises)
  (conclusion (eqelem star omegav N1)))
""")
    rep = match_instance(inst)
    assert not rep.ok and "conclusion" in rep.detail


def test_instance_pairing():
    inst = parse_instance("""
(instance step3.pair-formation (flavor izf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))
""")
    assert match_instance(inst).ok


def test_instance_alpha_tolerance():
    # the instance may name bound variables differently than the substitution
    inst = parse_instance("""
(instance step1.compr-formation (flavor czf)
  (sub (phi (epst w omegav)) (x w))
  (premises (is (epst q omegav) prop (ctx (q V))))
  (conclusion (is (compr q (epst q omegav)) col)))
""")
    assert match_instance(inst).ok


def test_instance_wrong_premise_count():
    inst = parse_instance("""
(instance step3.pair-formation (flavor izf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V))
  (conclusion (elem (pairv emptyv omegav) V)))
""")
    rep = match_instance(inst)
    assert not rep.ok and "premises" in rep.detail


def test_instance_kind_checking():
    inst = parse_instance("""
(instance step3.pair-formation (flavor izf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))
""")
    bad = RuleInstance(inst.schema_id, inst.flavor,
                       {"a": pre.N1(), "b": pre.OmegaV()},
                       inst.premises, inst.conclusion)
    rep = match_instance(bad)
    assert not rep.ok and "must be a term" in rep.detail


def test_instance_freshness_violation():
    # n1-char requires a fresh z; here z collides with a free variable of phi
    schema = get_rule("step4.sigma-char")
    inst = parse_instance("""
(instance step4.sigma-char (flavor czf)
  (sub (A V) (B (compr q (epst q w))) (x a) (y b) (z w))
  (premises (is V col) (is (compr q (epst q w)) col (ctx (a V))))
  (conclusion (eqtype (sigma a V (compr q (epst q w)))
                      (compr w (exp a V (exp b (compr q (epst q w))
                        (eqp V w (pairv (pairv a a) (pairv a b))))))
                      col)))
""")
    rep = match_instance(inst)
    assert not rep.ok and "fresh" in rep.detail


def test_refusals_no_instance_file_can_reach():
    # parse_instance refuses an unknown schema and an undeclared metavariable
    # itself, and reads each judgment form with its own arity
    inst = parse_instance("""
(instance step3.pair-formation (flavor izf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))
""")
    a, b = inst.substitution["a"], inst.substitution["b"]
    cases = [
        (dataclasses.replace(inst, schema_id="step9.nothing"), "no rule with id 'step9.nothing'"),
        (dataclasses.replace(inst, substitution={"a": a, "b": b, "c": a, "b2": b}),
         "substitution has undeclared metavariables ['b2', 'c']"),
        (dataclasses.replace(inst, conclusion=Judgment("elem", inst.conclusion.parts[:1])),
         "conclusion: judgment arity differs"),
    ]
    for bad, detail in cases:
        assert match_instance(bad) == MatchReport(False, detail)


def test_substitution_pattern_instantiation():
    # the separation characterization computes phi[b/x] during instantiation
    inst = parse_instance("""
(instance step3.sep-char (flavor izf)
  (sub (a omegav) (phi (epst x emptyv)) (x x) (b star))
  (premises (elem omegav V)
            (is (epst x emptyv) prop (ctx (x V)))
            (elem star V))
  (conclusion (holds (and (imp (epst star (sepv x omegav (epst x emptyv)))
                               (and (epst star omegav) (epst star emptyv)))
                          (imp (and (epst star omegav) (epst star emptyv))
                               (epst star (sepv x omegav (epst x emptyv))))))))
""")
    assert match_instance(inst).ok


def test_unknown_rule():
    with pytest.raises(RulesError):
        get_rule("step9.nothing")


def test_schema_instantiation_golden():
    schema = get_rule("step4.n1-char")
    sub = {"z": "q"}
    concl = instantiate_judgment(schema.conclusion, sub, schema)
    lhs, rhs, kind = concl.parts
    assert lhs == pre.N1()
    assert rhs == pre.Compr("q", pre.EqP(pre.UnivV(), pre.Var("q"), pre.EmptyV()))


def test_schema_render_parse_round_trip():
    from mfbridge.rules import _parse_rule, render_rule
    from mfbridge.sexp import read, read_all
    asset = read_all(resources.files("mfbridge").joinpath("rules/emtt_T.rules").read_text())
    catalog = load_catalog()
    assert len(asset) == len(catalog) == 71
    for s, tree in zip(catalog, asset):
        text = render_rule(s)
        assert _parse_rule(read(text)) == s
        # also the asset's own tree: a fault made alike in reader and renderer shows here
        assert read(text) == tree, s.id


# consistency with the pre-syntax-to-set translation

def _char_rhs(rule_id: str, sub: dict):
    schema = get_rule(rule_id)
    concl = instantiate_judgment(schema.conclusion, sub, schema)
    return concl.parts[1]


def _check_char(rule_id: str, sub: dict, lhs_col: pre.PreCollection):
    rhs = _char_rhs(rule_id, sub)
    U = enumerate_universe(3)
    tr = HatTranslator(FreshNames())
    image = tr.hat(pre.EpsCol(pre.Var("zz"), rhs))
    direct = subst_set(HatTranslator(FreshNames()).eta(lhs_col), "u", Var("zz"))
    rep = check_equivalence(image, direct, {"zz"}, U)
    assert rep.ok, (rule_id, rep.counterexample)


def test_characterization_n0():
    _check_char("step4.n0-char", {"z": "q"}, pre.N0())


def test_characterization_n1():
    _check_char("step4.n1-char", {"z": "q"}, pre.N1())


def test_characterization_p1():
    _check_char("step4.p1-char", {"z": "q", "y": "r"}, pre.PowOne())


def test_characterization_sigma_on_small_instance():
    sub = {"A": pre.N1(), "B": pre.N1(), "x": "a", "y": "b", "z": "q"}
    _check_char("step4.sigma-char", sub, pre.Sigma("a", pre.N1(), pre.N1()))


def test_characterization_sum_on_small_instance():
    sub = {"A": pre.N1(), "B": pre.N1(), "y": "b", "z": "q"}
    _check_char("step4.sum-char", sub, pre.Sum(pre.N1(), pre.N1()))
