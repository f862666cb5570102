#!/usr/bin/env python3
"""Run every property sweep at acceptance scale, then the bound-erasure
corpus, and print the reports.

Usage: python scripts/run_property_sweeps.py [seed]
Exit status is nonzero if any sweep found a counterexample or any corpus
case failed to reconstruct, discharge or agree.
"""
import pathlib
import sys
import time

from mfbridge import sexp
from mfbridge.cli import K0_REGISTRY
from mfbridge.delta0_k0 import SigmaError, check_sigma_agreement
from mfbridge.parser import parse_set_formula
from mfbridge.properties import (GenConfig, check_axioms, check_delta_functional,
                                 check_freevar_contracts, check_oneside,
                                 check_substitution)
from mfbridge.set_syntax import elaborate, normalize

K0_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "k0"


def run_corpus(rank: int = 3) -> bool:
    """Agreement check of every k0 corpus case, with its environment counts."""
    ok = True
    for path in sorted(K0_DIR.glob("*.k0")):
        d = sexp.loads(path.read_text(), K0_REGISTRY)
        gamma = normalize(elaborate(parse_set_formula(
            (K0_DIR / (path.name[:-3] + ".gamma.fm")).read_text())))
        try:
            rep = check_sigma_agreement(d, gamma, rank)
        except SigmaError as e:
            print(f"  {path.name[:-3]}: {e}")
            ok = False
            continue
        good = rep.ok and rep.envs_checked > 0
        print(f"  {path.name[:-3]}: {'agrees' if good else 'FAILS'}, "
              f"checked {rep.envs_checked}, skipped {rep.envs_skipped}")
        ok = ok and good
    return ok


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20240801
    runs = [
        ("oneside", lambda: check_oneside(GenConfig(seed=seed, sample_count=500),
                                          term_count=200)),
        ("deltafun", lambda: check_delta_functional(GenConfig(seed=seed, sample_count=300))),
        ("subst", lambda: check_substitution(GenConfig(seed=seed, sample_count=300))),
        ("freevars", lambda: check_freevar_contracts(GenConfig(seed=seed, sample_count=1000))),
        ("axioms", lambda: check_axioms(GenConfig(seed=seed))),
    ]
    failed = False
    for name, run in runs:
        t0 = time.monotonic()
        report = run()
        dt = time.monotonic() - t0
        print(report.render())
        print(f"  [{name} took {dt:.2f}s]")
        failed = failed or not report.ok
    print("k0 bound-erasure corpus at rank 3:")
    t0 = time.monotonic()
    failed = not run_corpus() or failed
    print(f"  [k0 took {time.monotonic() - t0:.2f}s]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
