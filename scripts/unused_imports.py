#!/usr/bin/env python3
"""List every module-level import under src/ that its module never reads, and
exit 1 if there is one.

Usage: python scripts/unused_imports.py
"""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def unused(tree: ast.Module):
    """(line, name) for each name a top-level import binds and no expression loads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import | ast.ImportFrom) and getattr(stmt, "module", None) != "__future__":
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield stmt.lineno, name


def main() -> int:
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name!r} is imported but never read"
             for path in sorted(SRC.rglob("*.py")) for line, name in unused(ast.parse(path.read_text()))]
    print("\n".join(found) or "no unused module-level imports under src/")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
