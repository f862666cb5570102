#!/usr/bin/env python3
"""Walk one formula through both translations and confirm the round trip
against the finite-universe oracle.

Usage: python scripts/round_trip_demo.py ["formula"] [rank]
"""
import sys

from mfbridge.core import FreshNames, free_vars, normalize_binders
from mfbridge.hat import HatTranslator
from mfbridge.hf import check_equivalence, enumerate_universe, print_env
from mfbridge.parser import parse_set_formula
from mfbridge.printer import print_emtt, print_set
from mfbridge.set_syntax import elaborate
from mfbridge.tilde import tilde_formula


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else "all x in y. ex z. z in x"
    rank = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    psi = parse_set_formula(src)
    fresh = FreshNames.for_nodes(psi)
    core = normalize_binders(elaborate(psi, fresh), fresh)
    print(f"input      : {print_set(psi)}")
    print(f"core       : {print_set(core)}")
    image = tilde_formula(core)
    print(f"pre-syntax : {print_emtt(image)}")
    back = HatTranslator(fresh).hat(image)
    print(f"back       : {print_set(back)}")
    U = enumerate_universe(rank)
    rep = check_equivalence(core, back, free_vars(core), U)
    print(f"equivalent over V_{rank}: {rep.ok} "
          f"({rep.checked} of {rep.total} environments checked, {rep.skipped} skipped)")
    if rep.counterexample:
        print(f"counterexample: {print_env(rep.counterexample)}")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
