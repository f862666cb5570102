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

from mfbridge.delta0_k0 import SigmaError, check_sigma_agreement, read_case
from mfbridge.properties import PROPERTIES, GenConfig

K0_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "k0"
# acceptance scale: samples per property; oneside also checks 200 terms
SAMPLES = {"oneside": 500, "deltafun": 300, "subst": 300, "freevars": 1000}


def run_corpus(rank: int = 3) -> bool:
    """Agreement check of every k0 corpus case, with its environment counts."""
    ok = True
    for path in sorted(K0_DIR.glob("*.k0")):
        d, gamma = read_case(path.read_text(), path.with_suffix(".gamma.fm").read_text())
        try:
            rep = check_sigma_agreement(d, gamma, rank)
        except SigmaError as e:
            print(f"  {path.name[:-3]}: {e}")
            ok = False
            continue
        good = rep.ok and not rep.vacuous
        print(f"  {path.name[:-3]}: {'agrees' if good else 'FAILS'}, "
              f"checked {rep.envs_checked}, skipped {rep.envs_skipped}")
        ok = ok and good
    return ok


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20240801
    failed = False
    for name, (check, _) in PROPERTIES.items():
        cfg = GenConfig(seed=seed, sample_count=SAMPLES.get(name, GenConfig.sample_count))
        t0 = time.monotonic()
        report = check(cfg, term_count=200) if name == "oneside" else check(cfg)
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
