"""The four workloads: seeded property sweeps, the k0 corpus, and the CLI.

Each workload has a set-up (everything before its first timed operation),
rounds of operations that time themselves, and a verification that runs
after the timed phase.  Program code is always reached through module
attributes at call time, so a traced round sees the tracer's wrappers.
"""
from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from source import K0_DIR, OUT, ROOT, child_env

RANK = 3
BRUTE_FORCE_STEPS = 600_000  # evaluator steps allowed per claim, about 1 us each
BRUTE_FORCE_BUDGET = 2_000_000  # steps for all brute-forced claims of a run
TRACED_CLI = str(Path(__file__).resolve().parent / "traced_cli.py")


@dataclass
class Round:
    ops: int
    seconds: float
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)  # (subcommand, seconds)
    render: str = ""  # the rendered report of a sweep round


def _timed_imports() -> dict[str, float]:
    """Import the package and build the rank-3 tables and the rule catalog;
    return the time of each piece."""
    t0 = time.perf_counter()
    import mfbridge.cli  # noqa: F401  (pulls in every module)
    from mfbridge import hf, rules
    t1 = time.perf_counter()
    hf.enumerate_universe(RANK).tables()
    t2 = time.perf_counter()
    rules.load_catalog()
    t3 = time.perf_counter()
    return {"cli.import": t1 - t0, "hf.universe": t2 - t1, "rules.catalog": t3 - t2}


@contextmanager
def recorded_oracle_calls():
    """Record every oracle call the property sweeps make, with its report."""
    from mfbridge import properties
    calls = []
    valid, equivalence = properties.check_valid, properties.check_equivalence

    def check_valid(f, variables, U, strict=False):
        rep = valid(f, variables, U, strict)
        calls.append(((f,), variables, U, strict, rep))
        return rep

    def check_equivalence(f, g, variables, U):
        rep = equivalence(f, g, variables, U)
        calls.append(((f, g), variables, U, False, rep))
        return rep

    properties.check_valid, properties.check_equivalence = check_valid, check_equivalence
    try:
        yield calls
    finally:
        properties.check_valid, properties.check_equivalence = valid, equivalence


class SweepWorkload:
    """Rounds of one seeded property sweep; every round has its own seed."""

    in_process = True

    def __init__(self, seed: int, check: str, samples: int, terms: int | None = None,
                 peak_of_run: bool = False):
        self.seed, self.check, self._samples = seed, check, samples
        self.peak_of_run = peak_of_run
        self._kwargs = {} if terms is None else {"term_count": terms}
        self.expected = samples + (terms or 0)  # samples in one round's report

    def setup(self) -> dict[str, float]:
        return _timed_imports()

    def _run(self, r: int):
        from mfbridge import properties
        cfg = properties.GenConfig(seed=self.seed * 100_000 + r, max_depth=3, rank=RANK,
                                   sample_count=self._samples)
        t0 = time.perf_counter()
        report = getattr(properties, self.check)(cfg, **self._kwargs)
        return report, time.perf_counter() - t0

    def run_round(self, r: int, tracer=None) -> Round:
        import checks
        report, dt = self._run(r)
        return Round(report.samples, dt, problems=checks.check_report(report, self.expected),
                     render=report.render())

    def verify(self, rounds: list[Round]) -> list[str]:
        """Round 0 again: the report is byte-identical to the timed round 0,
        every oracle call covers its grid, and a seeded few small claims
        match brute force."""
        import checks
        with recorded_oracle_calls() as calls:
            report, _ = self._run(0)
        problems = []
        if report.render() != rounds[0].render:
            problems.append(f"{self.check}: round 0 renders differently on a second run")
        if not calls:
            problems.append(f"{self.check}: no oracle calls recorded")
        for _, variables, _, _, rep in calls:
            problems += checks.check_oracle_call(variables, rep)
        steps = [checks.UNIVERSE_SIZE ** len(set(c[1])) * sum(map(checks.eval_cost, c[0]))
                 for c in calls]
        small = [(n, c) for n, c in zip(steps, calls) if n <= BRUTE_FORCE_STEPS]
        random.Random(f"brute:{self.seed}").shuffle(small)
        budget = BRUTE_FORCE_BUDGET
        for n, (formulas, variables, U, strict, rep) in small:
            if n <= budget:
                budget -= n
                problems += checks.check_oracle_verdict(formulas, variables, U, strict, rep)
        if budget == BRUTE_FORCE_BUDGET:
            problems.append(f"{self.check}: no claim small enough to brute-force")
        return problems

    def close(self) -> None:
        pass


class K0Workload:
    """Passes over the bound-erasure corpus, in a seeded order."""

    in_process = True
    peak_of_run = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> dict[str, float]:
        parts = _timed_imports()
        self.cases = [(p.name, p.read_text(), (K0_DIR / (p.name[:-3] + ".gamma.fm")).read_text())
                      for p in sorted(K0_DIR.glob("*.k0"))]
        random.Random(f"k0:{self.seed}").shuffle(self.cases)
        return parts

    @staticmethod
    def _one(k0_text: str, gamma_text: str):
        from mfbridge import delta0_k0, parser, sexp
        from mfbridge import set_syntax as fol
        from mfbridge.cli import K0_REGISTRY
        d = sexp.loads(k0_text, K0_REGISTRY)
        gamma = fol.normalize(fol.elaborate(parser.parse_set_formula(gamma_text)))
        res = delta0_k0.k0_reconstruct(delta0_k0.derived_formula(d), gamma, d)
        if not res.ok:
            return res, (), None, None
        obligations = delta0_k0.discharge_obligations(res.obligations, RANK)
        sg = delta0_k0.sigma(d, obligations)
        return res, obligations, sg, delta0_k0.check_sigma_agreement(d, gamma, RANK)

    def run_round(self, r: int, tracer=None) -> Round:
        import checks
        t0 = time.perf_counter()
        results = [self._one(k0, gamma) for _, k0, gamma in self.cases]
        dt = time.perf_counter() - t0
        problems = []
        for (name, k0, _), out in zip(self.cases, results):
            problems += checks.check_k0_case(name, k0, *out, RANK)
        return Round(len(self.cases), dt, problems=problems)

    def verify(self, rounds: list[Round]) -> list[str]:
        return []

    def close(self) -> None:
        pass


class CliWorkload:
    """Rounds of `mfbridge` invocations in child processes, one at a time."""

    in_process = False

    def __init__(self, seed: int):
        self.seed = seed
        self.workdir = OUT / f"work-{os.getpid()}"

    def setup(self) -> dict[str, float]:
        from cli_cases import build_round
        self.cases = build_round(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for i, case in enumerate(self.cases):
            path = ""
            if case.text is not None:
                path = self.workdir / f"{i:02d}{case.suffix}"
                path.write_text(case.text + "\n")
                path = str(path.relative_to(ROOT))
            self.argvs.append([a.replace("{file}", path) for a in case.argv])
        return {}

    def run_round(self, r: int, tracer=None) -> Round:
        import checks
        env = child_env()
        out = Round(0, 0.0)
        stats = self.workdir / "trace.json"
        for case, argv in zip(self.cases, self.argvs):
            head = [TRACED_CLI, str(stats)] if tracer is not None else ["-m", "mfbridge.cli"]
            t0 = time.perf_counter()
            p = subprocess.run([sys.executable, *head, *argv], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=60)
            dt = time.perf_counter() - t0
            out.ops += 1
            out.seconds += dt
            out.timings.append((case.sub, dt))
            if tracer is not None:
                tracer.merge_file(stats)
            problems = checks.check_cli(case, p.returncode, p.stdout, p.stderr)
            if problems:
                out.failed += 1
                if not case.fault:
                    out.problems += [f"cli {' '.join(argv)}: {x}" for x in problems]
        return out

    def verify(self, rounds: list[Round]) -> list[str]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "subst": lambda seed: SweepWorkload(seed, "check_substitution", 10),
    # A round's peak memory is set by its widest claim.  On roundtrip those
    # come about once in 800 samples, so one round's peak is 32, 60 or 125 MB
    # by chance and their median is not steady; the run's peak is.
    "roundtrip": lambda seed: SweepWorkload(seed, "check_oneside", 50, terms=20,
                                            peak_of_run=True),
    "k0": K0Workload,
    "cli": CliWorkload,
}
