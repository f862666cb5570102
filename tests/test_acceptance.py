"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s (or read captured output) to see the lines.  Seeds, sample
counts, ranks and time bounds are pinned here and nowhere else.
"""
import pathlib
import time

import pytest

from mfbridge import emtt_syntax as pre
from mfbridge import set_syntax as fol
from mfbridge.core import FreshNames, alpha_eq
from mfbridge.delta0_k0 import (check_sigma_agreement, derived_formula,
                                discharge_obligations, k0_reconstruct, read_case, sigma)
from mfbridge.hat import HatTranslator
from mfbridge.hf import check_equivalence, enumerate_universe
from mfbridge.parser import (parse_collection, parse_prop, parse_set_formula,
                             parse_set_term, parse_term)
from mfbridge.printer import print_emtt, print_set
from mfbridge.properties import (GenConfig, check_axioms, check_delta_functional,
                                 check_freevar_contracts, check_oneside,
                                 check_substitution, gen)
from mfbridge.rules import get_rule, instantiate_judgment, list_rules
from mfbridge.set_syntax import TheoryFlavor, elaborate, flavor_check, is_delta0

SEED = 20240801
RANK = 3
DATA = pathlib.Path(__file__).parent / "data" / "k0"


def _line(n, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{label}]: {status}{(' ' + extra) if extra else ''}")
    assert ok, f"criterion {n} ({label}) failed: {extra}"


def test_criterion_1_round_trip_soundness():
    t0 = time.monotonic()
    report = check_oneside(GenConfig(seed=SEED, max_depth=3, rank=RANK,
                                     sample_count=500), term_count=200)
    dt = time.monotonic() - t0
    ok = report.ok and report.samples == 700 and dt < 60
    ok = ok and report.render() == ("property oneside: ok (700 samples, "
                                    "1024 overflow-skipped envs, 139 regenerated)")
    _line(1, "round-trip soundness", ok,
          f"({report.samples} samples, {dt:.1f}s)" if ok else report.render())


def test_criterion_2_value_description_functionality():
    t0 = time.monotonic()
    report = check_delta_functional(GenConfig(seed=SEED, max_depth=3, rank=RANK,
                                              sample_count=300))
    dt = time.monotonic() - t0
    ok = report.ok and report.samples == 300 and dt < 60
    ok = ok and report.render() == ("property deltafun: ok (300 samples, "
                                    "0 overflow-skipped envs, 67 regenerated)")
    _line(2, "value-description functionality", ok,
          f"({report.samples} samples, {dt:.1f}s)" if ok else report.render())


def test_criterion_3_substitution_lemma():
    t0 = time.monotonic()
    report = check_substitution(GenConfig(seed=SEED, max_depth=3, rank=RANK,
                                          sample_count=300))
    dt = time.monotonic() - t0
    ok = report.ok and report.samples == 300 and dt < 120
    ok = ok and report.render() == ("property subst: ok (300 samples, "
                                    "10640 overflow-skipped envs, 70 regenerated)")
    _line(3, "substitution lemma", ok,
          f"({report.samples} samples, {dt:.1f}s)" if ok else report.render())


def test_criterion_4_free_variable_contract():
    report = check_freevar_contracts(GenConfig(seed=SEED, max_depth=3,
                                               sample_count=1000))
    ok = report.ok and report.samples == 1000
    ok = ok and report.render() == ("property freevars: ok (1000 samples, "
                                    "0 overflow-skipped envs, 0 regenerated)")
    _line(4, "free-variable contract", ok,
          f"({report.samples} samples)" if ok else report.render())


def test_criterion_5_axiom_sanity():
    report = check_axioms(GenConfig(seed=SEED, rank=RANK))
    ok = report.render() == "property axioms: ok (8 samples, 4032 overflow-skipped envs, 0 regenerated)"
    _line(5, "axiom sanity", ok, f"({report.samples} axiom forms)" if ok else report.render())


# 30-case golden corpus for the bounded-fragment and flavor classifier,
# covering terms and formulas of the inductive clauses and both restrictions.
CZF, IZF, ZF = TheoryFlavor.CZF, TheoryFlavor.IZF, TheoryFlavor.ZF
CLASSIFIER_CORPUS = [
    #  source, flavor, bounded?, flavor-violation count
    ("false", IZF, True, 0),
    ("true", CZF, True, 0),
    ("x = y", IZF, True, 0),
    ("x in y", CZF, True, 0),
    ("x in y /\\ y in x", IZF, True, 0),
    ("x = y \\/ false", IZF, True, 0),
    ("x in y -> y in x", IZF, True, 0),
    ("not x in y", IZF, True, 0),
    ("all x. x in a -> x = x", IZF, True, 0),
    ("ex x. x in a /\\ x = x", IZF, True, 0),
    ("all x. x = x", IZF, False, 0),
    ("ex x. x = x", CZF, False, 0),
    ("ex x. x in a -> false", IZF, False, 0),
    ("all x. x in a /\\ false", IZF, False, 0),
    ("all x in a. ex y in x. y in a", IZF, True, 0),
    ("all x. x in Un(x) -> false", IZF, False, 0),
    ("x in omega", CZF, True, 0),
    ("0 in 1", IZF, True, 0),
    ("x in {y, z}", IZF, True, 0),
    ("x in Un(y)", CZF, True, 0),
    ("x in Pow(y)", IZF, True, 0),
    ("x in Pow(y)", ZF, True, 0),
    ("x in Pow(y)", CZF, False, 1),
    ("all x in Pow(y). x = x", ZF, True, 0),
    ("all x in Pow(y). x = x", CZF, False, 1),
    ("x in {y in z | y in w}", IZF, True, 0),
    ("x in {y in z | all q. q = q}", IZF, False, 0),
    ("x in {y in z | all q. q = q}", CZF, False, 1),
    ("x = {y in {z, w} | y in z}", CZF, True, 0),
    ("x sub y", IZF, True, 0),
]


def test_criterion_6_classifier_golden_corpus():
    assert len(CLASSIFIER_CORPUS) == 30
    disagreements = []
    for src, flavor, want_delta0, want_violations in CLASSIFIER_CORPUS:
        node = elaborate(parse_set_formula(src))
        got = is_delta0(node, flavor)
        viol = len(flavor_check(node, flavor))
        if got != want_delta0 or viol != want_violations:
            disagreements.append((src, flavor.value, got, viol))
    _line(6, "bounded-fragment classifier", not disagreements,
          "(30 cases)" if not disagreements else repr(disagreements))


def test_criterion_7_bound_erasure_corpus():
    cases = sorted(DATA.glob("*.k0"))
    assert len(cases) == 10
    failures = []
    for path in cases:
        d, gamma = read_case(path.read_text(), path.with_suffix(".gamma.fm").read_text())
        phi = derived_formula(d)
        res = k0_reconstruct(phi, gamma, d)
        if not res.ok:
            failures.append((path.name, "reconstruct", res.mismatch))
            continue
        obs = discharge_obligations(res.obligations, RANK)
        if any(o.status != "hf_verified" for o in obs):
            failures.append((path.name, "obligation", obs))
            continue
        sg = sigma(d, obs)
        if not is_delta0(sg.formula):
            failures.append((path.name, "not bounded", sg.formula))
            continue
        rep = check_sigma_agreement(d, gamma, RANK)
        if not rep.ok or rep.vacuous:
            failures.append((path.name, "agreement", rep))
    _line(7, "bound-erasing map", not failures,
          "(10 certified cases)" if not failures else repr(failures))


def test_criterion_8_rules_catalog_audit():
    from test_rules import _manifest_entries
    counted, _ = _manifest_entries()
    problems = []
    for flavor, expected in ((CZF, 61), (IZF, 62), (ZF, 63)):
        got = list_rules(flavor)
        manifest_n = sum(1 for fl in counted.values() if flavor.value in fl)
        if len(got) != expected or manifest_n != expected:
            problems.append((flavor.value, len(got), manifest_n, expected))
    # the closed characterization rules describe the same classes as the
    # direct collection translation
    U = enumerate_universe(RANK)
    for rule_id, sub, col in (("step4.n0-char", {"z": "q"}, pre.N0()),
                              ("step4.n1-char", {"z": "q"}, pre.N1()),
                              ("step4.p1-char", {"z": "q", "y": "r"}, pre.PowOne())):
        schema = get_rule(rule_id)
        rhs = instantiate_judgment(schema.conclusion, sub, schema).parts[1]
        image = HatTranslator(FreshNames()).hat(pre.EpsCol(pre.Var("zz"), rhs))
        direct = fol.subst_set(HatTranslator(FreshNames()).eta(col), "u", fol.Var("zz"))
        rep = check_equivalence(image, direct, {"zz"}, U)
        if not rep.ok:
            problems.append((rule_id, rep.counterexample))
    _line(8, "rules catalog audit", not problems,
          "(3 flavors, 3 cross-checks)" if not problems else repr(problems))


def test_criterion_9_parser_round_trip():
    failures = 0
    cfg = GenConfig(seed=SEED, max_depth=4, omega_allowed=True, deep_el_list=True)
    for i in range(500):
        f = gen(fol.SetFormula, cfg, i)
        if not alpha_eq(parse_set_formula(print_set(f)), f):
            failures += 1
        t = gen(fol.SetTerm, cfg, i)
        if not alpha_eq(parse_set_term(print_set(t)), t):
            failures += 1
    for i in range(334):
        p = gen(pre.PreProposition, cfg, i)
        if not alpha_eq(parse_prop(print_emtt(p)), p):
            failures += 1
    for i in range(333):
        t = gen(pre.PreTerm, cfg, i)
        if not alpha_eq(parse_term(print_emtt(t)), t):
            failures += 1
        c = gen(pre.PreCollection, cfg, i)
        if not alpha_eq(parse_collection(print_emtt(c)), c):
            failures += 1
    _line(9, "parser round trip", failures == 0,
          "(1000 ASTs per language)" if failures == 0 else f"{failures} failures")
