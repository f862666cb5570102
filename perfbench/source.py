"""Locate the mfbridge sources of the checkout this benchmark sits in.

The benchmark always measures the code next to it: `src/` of the same
checkout goes first on `sys.path`, and child processes get it as
`PYTHONPATH`.  Without the sources the benchmark stops before measuring.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
K0_DIR = ROOT / "tests" / "data" / "k0"
OUT = Path(__file__).resolve().parent / "out"


def require_source() -> None:
    """Put the checkout's `src/` first on sys.path, or exit with code 2."""
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "mfbridge" / "__init__.py", K0_DIR)
               if not p.exists()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)} under {ROOT}; "
              "run the benchmark from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False  # later processes start from cached bytecode


def child_env() -> dict[str, str]:
    """Environment for mfbridge child processes: the checkout's sources only,
    bytecode caches on as in an installed package, and no seed taken from the
    caller's environment."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "MF_BRIDGE_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env
