"""One round of `mfbridge` command-line invocations, with answers worked out by hand.

The seed picks the parse, classify, eval and sigma inputs from the pools
below; everything else is fixed.  Three invocations are pinned faults: each
should end in exit 2 with a one-line message, and each is counted as failed
while the program does otherwise.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

from source import K0_DIR, ROOT


@dataclass
class Case:
    sub: str                    # subcommand, for the per-subcommand timings
    argv: list[str]             # "{file}" stands for the input file
    code: int                   # expected exit code
    check: object               # (stdout, stderr) -> list of problems
    text: str | None = None     # input file content
    suffix: str = ".fm"
    fault: bool = False         # a known fault: failing here is counted, not an error


def _equals(want: str):
    def check(out, err):
        return [] if out.strip() == want else [f"stdout {out.strip()[:120]!r}, expected {want!r}"]
    return check


def _reparses(src: str, sexp_format: bool):
    """Output re-reads to an AST alpha-equal to the parsed input."""
    def check(out, err):
        from mfbridge import sexp
        from mfbridge.core import alpha_eq
        from mfbridge.parser import parse_set
        got = sexp.loads(out, sexp.SET_REGISTRY) if sexp_format else parse_set(out)
        if alpha_eq(got, parse_set(src)):
            return []
        return [f"{out.strip()!r} does not re-read as {src!r}"]
    return check


def _classified(flavor: str, delta0: bool, violations: int):
    def check(out, err):
        lines = out.strip().splitlines()
        problems = []
        if not lines or lines[0] != f"delta0: {'yes' if delta0 else 'no'}":
            problems.append(f"first line {lines[:1]}, expected delta0: {'yes' if delta0 else 'no'}")
        got = sum(1 for line in lines if line.startswith("violation: "))
        if got != violations:
            problems.append(f"{got} violations, expected {violations}")
        if not violations and lines[-1:] != [f"{flavor}: ok"]:
            problems.append(f"last line {lines[-1:]}, expected {flavor}: ok")
        return problems
    return check


def _rule_count(n: int):
    def check(out, err):
        lines = [line for line in out.splitlines() if line.strip()]
        return [] if len(lines) == n else [f"{len(lines)} rules listed, expected {n}"]
    return check


def _starts(prefix: str):
    def check(out, err):
        return [] if out.startswith(prefix) else [f"stdout {out[:80]!r} does not start {prefix!r}"]
    return check


_AXIOMS = re.compile(r"property axioms: ok \(8 samples, \d+ overflow-skipped envs, 0 regenerated\)")


def _axioms_ok(out, err):
    return [] if _AXIOMS.fullmatch(out.strip()) else [f"stdout {out.strip()!r}"]


def _sigma_ok(k0_text: str):
    def check(out, err):
        from checks import bounded_steps, check_bounded_shape, witness_variables
        from mfbridge.parser import parse_set_formula
        lines = out.strip().splitlines()
        problems = []
        obligations = [line for line in lines if line.startswith("obligation for ")]
        if len(obligations) != len(bounded_steps(k0_text)) or \
                any(not line.endswith(": hf_verified at rank 3") for line in obligations):
            problems.append(f"obligations {obligations}")
        want = ", ".join(witness_variables(k0_text)) or "none"
        if f"leftover bound variables (free in output): {want}" not in lines:
            problems.append(f"leftovers line missing or not {want!r}")
        sig = [line[len("sigma: "):] for line in lines if line.startswith("sigma: ")]
        if len(sig) != 1:
            problems.append("no sigma line")
        else:
            problems += check_bounded_shape(parse_set_formula(sig[0]))
        if lines[-1:] != ["delta0 (leftovers free): yes"]:
            problems.append(f"last line {lines[-1:]}")
        return problems
    return check


def _one_line_error(out, err):
    problems = []
    if out.strip():
        problems.append(f"printed {out.strip()[:60]!r} for out-of-contract input")
    if len(err.strip().splitlines()) != 1:
        problems.append(f"{len(err.strip().splitlines())} lines on stderr, expected one message")
    return problems


# Formulas and the golden verdicts of the hand-written classifier corpus
# (source, flavor, bounded, flavor violations), shared with the acceptance suite.
CLASSIFY_POOL = [
    ("false", "izf", True, 0),
    ("x in y /\\ y in x", "izf", True, 0),
    ("x in y -> y in x", "izf", True, 0),
    ("not x in y", "izf", True, 0),
    ("all x. x in a -> x = x", "izf", True, 0),
    ("ex x. x in a /\\ x = x", "izf", True, 0),
    ("all x. x = x", "izf", False, 0),
    ("ex x. x = x", "czf", False, 0),
    ("ex x. x in a -> false", "izf", False, 0),
    ("all x in a. ex y in x. y in a", "izf", True, 0),
    ("x in omega", "czf", True, 0),
    ("x in {y, z}", "izf", True, 0),
    ("x in Pow(y)", "zf", True, 0),
    ("x in Pow(y)", "czf", False, 1),
    ("all x in Pow(y). x = x", "czf", False, 1),
    ("x in {y in z | all q. q = q}", "czf", False, 1),
    ("x = {y in {z, w} | y in z}", "czf", True, 0),
    ("x sub y", "izf", True, 0),
]

# Closed terms and sentences with their values over V_3, worked out by hand
# (print order: members sorted by Ackermann code, {} = 0, {{}} = 1, ...).
EVAL_POOL = [
    ("empty", "{}"),
    ("{empty, empty}", "{{}}"),
    ("Pow(Pow(empty))", "{{},{{}}}"),
    ("Un({sing(empty), empty})", "{{}}"),
    ("{x in Pow(1) | x = empty}", "{{}}"),
    ("op(empty, empty)", "{{{}}}"),
    ("p1(op(sing(empty), empty))", "{{}}"),
    ("Un(Pow(1))", "{{}}"),
    ("{empty, 1}", "{{},{{}}}"),
    ("omega", "{{},{{}},{{},{{}}}}"),
    ("empty in 1", "true"),
    ("1 in empty", "false"),
    ("all x. x in empty -> false", "true"),
    ("ex x. x in 1", "true"),
]

RULE_OK = """(instance step3.pair-formation (flavor czf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))
"""
RULE_BAD = """(instance step4.star-eq (flavor czf) (sub) (premises)
  (conclusion (eqelem star omegav N1)))
"""


def build_round(seed: int) -> list[Case]:
    """The invocations of one round; the same seed gives the same round."""
    rng = random.Random(f"cli:{seed}")
    parse_src = [src for src, *_ in rng.sample(CLASSIFY_POOL, 2)]
    classify = rng.sample(CLASSIFY_POOL, 2)
    evals = rng.sample(EVAL_POOL, 2)
    k0 = rng.choice(sorted(K0_DIR.glob("*.k0")))
    k0_rel = str(k0.relative_to(ROOT))
    gamma_rel = k0_rel[:-3] + ".gamma.fm"
    cases = [
        Case("parse", ["parse", "{file}"], 0, _reparses(parse_src[0], False), parse_src[0]),
        Case("parse", ["parse", "--format", "sexp", "{file}"], 0,
             _reparses(parse_src[1], True), parse_src[1]),
        Case("translate", ["translate", "--dir", "set2emtt", "{file}"], 0,
             _equals("all x:V. x eps y"), "all x. x in y"),
        Case("translate", ["translate", "--dir", "emtt2set", "--mode", "eta", "{file}"], 0,
             _equals("u = empty"), "N1", ".mt"),
        Case("translate", ["translate", "--dir", "emtt2set", "--mode", "delta", "{file}"], 0,
             _equals("u = empty"), "star", ".mt"),
        # hat(a eps b) = ex u. ex v. delta_a(u) /\ delta_b(v) /\ u in v, delta_x(u) = (u = x)
        Case("translate", ["translate", "--dir", "emtt2set", "--mode", "hat", "{file}"], 0,
             _equals("ex u. ex v#1. u = x /\\ v#1 = y /\\ u in v#1"), "x eps y", ".mt"),
        Case("translate", ["translate", "--dir", "emtt2set", "--mode", "context", "{file}"], 0,
             _equals("(false -> false) /\\ x = x /\\ y = empty"), "[x:V, y:N1]", ".mt"),
    ]
    for src, flavor, delta0, violations in classify:
        cases.append(Case("classify", ["classify", "--flavor", flavor, "{file}"],
                          1 if violations else 0, _classified(flavor, delta0, violations), src))
    for src, value in evals:
        cases.append(Case("eval", ["eval", "--rank", "3", "{file}"], 0, _equals(value), src))
    cases += [
        Case("check", ["check", "--property", "axioms", "--rank", "3", "--seed", str(seed)], 0,
             _axioms_ok),
        Case("sigma", ["sigma", "--derivation", k0_rel, "--gamma", gamma_rel, "--rank", "3"], 0,
             _sigma_ok(k0.read_text())),
        # counts from docs/rules_manifest.md
        Case("rules", ["rules", "--flavor", "czf", "--list"], 0, _rule_count(61)),
        Case("rules", ["rules", "--flavor", "izf", "--list"], 0, _rule_count(62)),
        Case("rules", ["rules", "--flavor", "zf", "--list"], 0, _rule_count(63)),
        Case("rules", ["rules", "--check", "{file}"], 0, _starts("ok: "), RULE_OK, ".ri"),
        Case("rules", ["rules", "--check", "{file}"], 1, _starts("mismatch: "), RULE_BAD, ".ri"),
        # the pinned faults: inputs fixed, independent of the seed
        Case("parse", ["parse", "{file}"], 2, _one_line_error, "not " * 3000 + "x in y",
             fault=True),
        Case("eval", ["eval", "--rank", "-1", "--env", "x={}", "{file}"], 2, _one_line_error,
             "x = x", fault=True),
        Case("eval", ["eval", "--rank", "1", "--env", "x={{{}}}", "{file}"], 2, _one_line_error,
             "x = x", fault=True),
    ]
    return cases
