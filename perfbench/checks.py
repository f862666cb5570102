"""Correctness checks on the program's outputs.

Every check returns a list of problems (empty when the output is right).  The
expected values are independent of the code under test: sample counts the
benchmark asked for, grid sizes from the universe size, a brute-force
evaluation, shapes read off the derivation files, and answers worked out by
hand for the command line.
"""
from __future__ import annotations

import itertools

UNIVERSE_SIZE = 16  # |V_3|


def check_report(report, samples: int) -> list[str]:
    """A property sweep found no counterexample and ran every sample."""
    problems = []
    if report.failures:
        problems.append(f"{report.property_id}: {len(report.failures)} counterexample(s): "
                        + report.render().splitlines()[1].strip())
    if report.samples != samples:
        problems.append(f"{report.property_id}: {report.samples} samples, asked for {samples}")
    return problems


def check_oracle_call(variables, report) -> list[str]:
    """Checked plus skipped environments cover the whole grid."""
    n = len(set(variables))
    problems = []
    if report.total != UNIVERSE_SIZE ** n:
        problems.append(f"oracle call over {n} variables reports {report.total} environments, "
                        f"not {UNIVERSE_SIZE ** n}")
    if not 0 <= report.skipped <= report.total:
        problems.append(f"oracle call skipped {report.skipped} of {report.total} environments")
    return problems


def brute_force(formula, names, U, strict: bool = False) -> list[bool | None]:
    """The formula's value by the recursive evaluator in every environment
    over `names`, in the sweep's grid order; None where evaluation overflows."""
    from mfbridge import hf
    values = []
    for combo in itertools.product(U.elements, repeat=len(names)):
        try:
            values.append(hf.eval_formula(formula, dict(zip(names, combo)), U, strict))
        except hf.Overflow:
            values.append(None)
    return values


def _expected(skip, bad, names, U):
    """(ok, skipped, counterexample) of a sweep that skips and fails where told."""
    first = next((i for i, b in enumerate(bad) if b), None)
    env = None
    if first is not None:
        grid = itertools.product(U.elements, repeat=len(names))
        env = dict(zip(names, next(itertools.islice(grid, first, None))))
    return first is None, sum(skip), env


def eval_cost(f) -> int:
    """Upper bound on recursive-evaluator steps for one environment at rank 3."""
    from mfbridge import set_syntax as fol
    match f:
        case fol.Forall(_, body) | fol.Exists(_, body):
            return 1 + UNIVERSE_SIZE * eval_cost(body)
        case fol.Sep(_, bound, body):
            return 1 + eval_cost(bound) + UNIVERSE_SIZE * eval_cost(body)
    kids = [getattr(f, name) for name in f.__dataclass_fields__]
    return 1 + sum(eval_cost(k) for k in kids if hasattr(k, "__dataclass_fields__"))


def check_oracle_verdict(formulas, variables, U, strict, report) -> list[str]:
    """A recorded oracle call, and fresh validity sweeps of each side and of
    its negation, give the verdict, skip count and first counterexample that
    a brute-force evaluation of every environment gives."""
    from mfbridge import hf
    from mfbridge import set_syntax as fol
    names = tuple(sorted(set(variables)))
    values = [brute_force(f, names, U, strict) for f in formulas]
    if len(values) == 1:
        skip, bad = [v is None for v in values[0]], [v is False for v in values[0]]
    else:
        skip = [a is None or b is None for a, b in zip(*values)]
        bad = [not s and a != b for s, a, b in zip(skip, *values)]
    cases = [("recorded call", report, _expected(skip, bad, names, U))]
    for f, vals in zip(formulas, values):
        skip = [v is None for v in vals]
        cases.append(("one side", hf.check_valid(f, names, U, strict),
                      _expected(skip, [v is False for v in vals], names, U)))
        cases.append(("its negation", hf.check_valid(fol.Imp(f, fol.Bot()), names, U, strict),
                      _expected(skip, [v is True for v in vals], names, U)))
    problems = []
    for label, rep, (ok, skipped, env) in cases:
        if (rep.ok, rep.skipped, rep.counterexample) != (ok, skipped, env):
            problems.append(f"{label} over {list(names)}: sweep says ok={rep.ok} "
                            f"skipped={rep.skipped}, brute force says ok={ok} skipped={skipped}, "
                            f"or the first counterexamples differ")
    return problems


# -- k0 derivations ------------------------------------------------------------

def bounded_steps(k0_text: str) -> list[tuple[str, str]]:
    """(kind, witness variable) of every bounded step, in preorder, read
    straight from the derivation's s-expression text."""
    tokens = k0_text.replace("(", " ( ").replace(")", " ) ").split()
    return [(tokens[i + 1], tokens[i + 2]) for i, tok in enumerate(tokens[:-2])
            if tok == "K0Bounded"]


def witness_variables(k0_text: str) -> tuple[str, ...]:
    """Witness variables of the existsIn/forallIn steps, in preorder."""
    return tuple(z for kind, z in bounded_steps(k0_text) if kind in ("existsIn", "forallIn"))


def check_bounded_shape(formula) -> list[str]:
    """Every quantifier is `ex y. y in z /\\ _` or `all y. y in z -> _` with z
    another variable, and atoms relate variables only."""
    from mfbridge import set_syntax as fol
    problems = []

    def go(f):
        match f:
            case fol.Bot() | fol.Eq(fol.Var(), fol.Var()) | fol.Mem(fol.Var(), fol.Var()):
                return
            case fol.And(l, r) | fol.Or(l, r) | fol.Imp(l, r):
                go(l)
                go(r)
            case fol.Exists(y, fol.And(fol.Mem(fol.Var(y2), fol.Var(z)), body)) \
                    if y2 == y and z != y:
                go(body)
            case fol.Forall(y, fol.Imp(fol.Mem(fol.Var(y2), fol.Var(z)), body)) \
                    if y2 == y and z != y:
                go(body)
            case _:
                problems.append(f"not a bounded form: {type(f).__name__} node {f!r}"[:200])

    go(formula)
    return problems


def check_k0_case(name: str, k0_text: str, reconstructed, obligations, sigma_result,
                  agreement, rank: int) -> list[str]:
    """One corpus case: reconstructs, every obligation verified at `rank`,
    leftovers equal the witnesses, output bounded, agreement checked."""
    if not reconstructed.ok:
        return [f"{name}: does not reconstruct: {reconstructed.mismatch}"]
    problems = []
    if len(obligations) != len(bounded_steps(k0_text)):
        problems.append(f"{name}: {len(obligations)} obligations for "
                        f"{len(bounded_steps(k0_text))} bounded steps")
    for ob in obligations:
        if ob.status != "hf_verified" or ob.rank != rank:
            problems.append(f"{name}: obligation for {ob.z} is {ob.status} at rank {ob.rank}")
    want = witness_variables(k0_text)
    if tuple(sigma_result.leftover_bounds) != want:
        problems.append(f"{name}: leftovers {sigma_result.leftover_bounds} != witnesses {want}")
    problems += [f"{name}: {p}" for p in check_bounded_shape(sigma_result.formula)]
    if not agreement.ok or agreement.envs_checked <= 0:
        problems.append(f"{name}: agreement ok={agreement.ok} "
                        f"envs_checked={agreement.envs_checked}")
    return problems


# -- command line --------------------------------------------------------------

def check_cli(case, code: int, stdout: str, stderr: str) -> list[str]:
    """Compare one invocation with its expected exit code and stdout."""
    problems = []
    if "Traceback" in stderr:
        problems.append(f"traceback: {stderr.strip().splitlines()[-1]}")
    if code != case.code:
        problems.append(f"exit {code}, expected {case.code}")
    problems += case.check(stdout, stderr)
    return problems
