"""Quick test of the benchmark's correctness checks, at tiny sizes.

    python3 -m pytest -q perfbench/test_checks.py

Each check must pass the program's real output and reject a planted wrong one.
"""
from dataclasses import replace

from source import K0_DIR, require_source

require_source()

import checks  # noqa: E402
import cli_cases  # noqa: E402
from mfbridge import hf, properties  # noqa: E402
from mfbridge import set_syntax as fol  # noqa: E402
from mfbridge.parser import parse_set_formula  # noqa: E402


def test_report_check_rejects_failure_and_missing_samples():
    report = properties.check_substitution(properties.GenConfig(seed=1, sample_count=2))
    assert checks.check_report(report, 2) == []
    assert checks.check_report(report, 3)  # too few samples
    report.failures.append(properties.Failure(0, "t=star", "planted"))
    assert checks.check_report(report, 2)


def test_oracle_call_check_rejects_wrong_grid():
    assert checks.check_oracle_call(("x", "y"), hf.SweepReport(True, None, 3, 256)) == []
    assert checks.check_oracle_call(("x", "y"), hf.SweepReport(True, None, 3, 255))
    assert checks.check_oracle_call(("x",), hf.SweepReport(True, None, 17, 16))


def test_brute_force_rejects_wrong_verdict_or_skips():
    U = hf.enumerate_universe(3)
    f = parse_set_formula("x in y -> {x, x} in Pow(y)")
    rep = hf.check_valid(f, {"x", "y"}, U)
    assert checks.check_oracle_verdict((f,), ("x", "y"), U, False, rep) == []
    assert checks.check_oracle_verdict((f,), ("x", "y"), U, False, replace(rep, ok=not rep.ok))
    assert checks.check_oracle_verdict((f,), ("x", "y"), U, False,
                                       replace(rep, skipped=rep.skipped + 1))
    g = parse_set_formula("x = y")
    rep2 = hf.check_equivalence(g, parse_set_formula("y = x"), {"x", "y"}, U)
    assert checks.check_oracle_verdict((g, parse_set_formula("y = x")), ("x", "y"), U, False,
                                       rep2) == []
    assert checks.check_oracle_verdict((g, parse_set_formula("x in y")), ("x", "y"), U, False,
                                       rep2)
    h = parse_set_formula("x in y")
    rep3 = hf.check_valid(h, {"x", "y"}, U)
    assert not rep3.ok and checks.check_oracle_verdict((h,), ("x", "y"), U, False, rep3) == []
    wrong_env = {"x": U.elements[1], "y": U.elements[1]}
    assert checks.check_oracle_verdict((h,), ("x", "y"), U, False,
                                       replace(rep3, counterexample=wrong_env))


def test_sigma_shape_rejects_unbounded_quantifier():
    assert checks.check_bounded_shape(parse_set_formula("ex w. w in z /\\ w in x")) == []
    nested = parse_set_formula("all w. w in z1 -> (ex v. v in z2 /\\ v in w)")
    assert checks.check_bounded_shape(nested) == []
    assert checks.check_bounded_shape(parse_set_formula("ex w. w in x"))
    assert checks.check_bounded_shape(parse_set_formula("all w. w = w"))
    assert checks.check_bounded_shape(fol.Exists("w", fol.And(fol.Mem(fol.Var("w"), fol.Var("w")),
                                                               fol.Bot())))


def test_witness_variables_read_from_derivation_text():
    text = (K0_DIR / "06_nested.k0").read_text()
    assert checks.witness_variables(text) == ("z1", "z2")
    assert checks.witness_variables((K0_DIR / "05_plain_empty.k0").read_text()) == ()


def _case(sub, pred=lambda c: True):
    return next(c for c in cli_cases.build_round(0) if c.sub == sub and pred(c))


def test_cli_check_rejects_wrong_value_and_traceback():
    ev = _case("eval", lambda c: not c.fault)
    want = dict(cli_cases.EVAL_POOL)[ev.text]
    assert checks.check_cli(ev, 0, want + "\n", "") == []
    assert checks.check_cli(ev, 0, "{{{{}}}}\n", "")
    assert checks.check_cli(ev, 1, want + "\n", "")
    crash = "Traceback (most recent call last):\n  ...\nRecursionError: too deep\n"
    assert checks.check_cli(ev, 0, want + "\n", crash)
    rules = _case("rules", lambda c: "czf" in c.argv)
    assert checks.check_cli(rules, 0, "r\n" * 61, "") == []
    assert checks.check_cli(rules, 0, "r\n" * 60, "")
    parse = _case("parse", lambda c: not c.fault and "sexp" not in c.argv)
    assert checks.check_cli(parse, 0, parse.text + "\n", "") == []
    assert checks.check_cli(parse, 0, "x in x\n" if parse.text != "x in x" else "false\n", "")


def test_cli_fault_cases_pass_only_on_a_one_line_error():
    faults = [c for c in cli_cases.build_round(0) if c.fault]
    assert len(faults) == 3 and faults == [c for c in cli_cases.build_round(7) if c.fault]
    for case in faults:
        assert checks.check_cli(case, 2, "", "error: out of contract\n") == []
        assert checks.check_cli(case, 0, "true\n", "")
        assert checks.check_cli(case, 1, "", "Traceback (most recent call last):\nRecursionError\n")


def test_printed_metrics_are_the_declared_ones():
    import json
    from source import ROOT

    import run
    from tracing import Tracer
    from workloads import Round
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = [Round(2, 1.0, timings=[("parse", 0.3)])]
    traced = [Round(2, 1.2)]
    got = run.layer_metrics(Tracer(), plain, traced, {"hf.universe": 0.1})
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: u for k, (_, u) in got.items()} == want
    assert {m["name"] for m in declared["end_to_end"]} == {"setup_s", "ops_per_s", "peak_rss_mb"}
