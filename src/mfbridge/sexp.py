"""Canonical s-expression form for every AST, used by golden tests and the
rule/derivation file formats.

A node prints as (ClassName field ...); string fields print as bare atoms.
Loading is driven by a registry mapping head symbols to node classes, with
each field read at its annotated sort (`core.field_sorts`).
"""
from __future__ import annotations

import dataclasses

from .core import Node, field_sorts
from . import emtt_syntax as pre
from . import set_syntax as fol


# Deepest list nesting read; every consumer of a tree recurses once per level.
MAX_DEPTH = 200


class SexpError(ValueError):
    pass


def dumps(node) -> str:
    if isinstance(node, pre.PreContext):
        inner = " ".join(f"({x} {dumps(c)})" for x, c in node)
        return f"(PreContext {inner})" if inner else "(PreContext)"
    if isinstance(node, str):
        return node
    if not isinstance(node, Node):
        raise SexpError(f"cannot serialize {node!r}")
    parts = [type(node).__name__]
    for v in node._values():
        parts.append(dumps(v))
    return "(" + " ".join(parts) + ")"


def _registry_for(*modules) -> dict[str, type]:
    reg: dict[str, type] = {}
    for mod in modules:
        for name in dir(mod):
            obj = getattr(mod, name)
            if isinstance(obj, type) and issubclass(obj, Node) and dataclasses.is_dataclass(obj):
                reg[obj.__name__] = obj
    return reg


SET_REGISTRY = _registry_for(fol)
EMTT_REGISTRY = _registry_for(pre)


def _tokenize(text: str) -> list[str]:
    out, cur = [], []
    comment = False
    for ch in text:
        if comment:
            if ch == "\n":
                comment = False
            continue
        if ch == ";":
            comment = True
            ch = " "
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _parse(tokens: list[str], i: int, depth: int = 0):
    if i >= len(tokens):
        raise SexpError("unexpected end of input")
    t = tokens[i]
    if t == "(":
        if depth == MAX_DEPTH:
            raise SexpError(f"lists nested deeper than {MAX_DEPTH} levels")
        items = []
        i += 1
        while i < len(tokens) and tokens[i] != ")":
            item, i = _parse(tokens, i, depth + 1)
            items.append(item)
        if i >= len(tokens):
            raise SexpError("missing ')'")
        return items, i + 1
    if t == ")":
        raise SexpError("unexpected ')'")
    return t, i + 1


def read(text: str):
    tokens = _tokenize(text)
    tree, i = _parse(tokens, 0)
    if i != len(tokens):
        raise SexpError("trailing input after s-expression")
    return tree


def read_all(text: str) -> list:
    tokens = _tokenize(text)
    out, i = [], 0
    while i < len(tokens):
        tree, i = _parse(tokens, i)
        out.append(tree)
    return out


def build(tree, registry: dict[str, type], sort: type = object):
    """Construct an AST node of `sort` from a parsed s-expression tree."""
    if isinstance(tree, str):
        raise SexpError(f"expected a node, found atom {tree!r}")
    if not tree:
        raise SexpError("empty s-expression")
    head, *args = tree
    if not isinstance(head, str):
        raise SexpError("expected a node kind, found a list")
    cls = pre.PreContext if head == "PreContext" else registry.get(head)
    if cls is None:
        raise SexpError(f"unknown node kind {head!r}")
    if not issubclass(cls, sort):
        raise SexpError(f"expected a {sort.__name__}, found {head}")
    if cls is pre.PreContext:
        entries = []
        for entry in args:
            if isinstance(entry, str) or len(entry) != 2 or not isinstance(entry[0], str):
                raise SexpError("PreContext entries must be (name collection)")
            entries.append((entry[0], build(entry[1], registry, pre.PreCollection)))
        return pre.PreContext(tuple(entries))
    sorts = field_sorts(cls)
    if len(args) != len(sorts):
        raise SexpError(f"{head} expects {len(sorts)} fields, got {len(args)}")
    vals = []
    for field_sort, arg in zip(sorts, args):
        if field_sort is not str:
            vals.append(build(arg, registry, field_sort))
        elif isinstance(arg, str):
            vals.append(arg)
        else:
            raise SexpError(f"{head}: expected an atom, found {arg!r}")
    try:
        return cls(*vals)
    except ValueError as e:
        raise SexpError(str(e)) from None


def loads(text: str, registry: dict[str, type], sort: type = object):
    return build(read(text), registry, sort)
