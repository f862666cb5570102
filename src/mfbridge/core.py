"""Shared AST machinery: binder-aware traversal, substitution, alpha-equivalence.

A node class derives from Node and declares its fields, each annotated with
its sort (`str` for a name), and a `binding` spec, and nothing else: no
decorator, no dataclass option.  Every class whose own body declares
`binding` is a dataclass without generated methods: `dataclasses` records its
fields (so `dataclasses.fields`, `replace` and `__match_args__` work), and
Node builds, validates and freezes its nodes.  A sort class (SetTerm,
PreTerm, ...) declares no `binding` and stays a plain base class.  The spec
is a tuple with one entry per field:

  "X"          atomic payload (a variable name on a Var node, a kind marker, ...)
  "B"          a binder: the field holds a variable name bound in some siblings
  (i, j, ...)  a child node; the integers are field indexes of the binders
               whose scope includes this child (empty tuple = no binders)

All generic operations (free_vars, subst, alpha_eq, normalize_binders) are
driven by these specs, and `field_sorts` reads each field's annotated sort
for the parsers, the rule reader and the generator, so each language only
declares its node shapes.

A node is interned at construction (hash-consing): building a node from the
same class and field values returns the same object, so identity is equality.
Only the first build checks the arity, fills the fields and runs the class's
`__post_init__` validator; a refused node never enters the table, so a later
build of the same fields finds nothing to check.  The table holds each node
weakly, so a node lives only while something else refers to it.  A frozen
node keeps the field tuple of its first build (`_values()`) and caches its
`free_vars` and its `fresh_floor`; Node has the one `__repr__`.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import weakref
from _weakref import _remove_dead_weakref

# (class, *field values) -> a weak reference to the one live node built from them.
# A plain dict: a node's reference removes its entry when the node dies, unless a
# node rebuilt under the same key holds the entry by then.
_INTERNED: dict = {}


class Node:
    binding: tuple = ()
    var_cls: type | None = None  # Var class used when renaming this node's binders

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "binding" in cls.__dict__:
            # fields, __match_args__ and replace() only: Node builds and freezes the node;
            # a doc given here spares dataclass an inspect.signature call per class
            cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__annotations__)})"
            dataclasses.dataclass(init=False, eq=False, repr=False)(cls)

    # No __init__: object's ignores the arguments of a class that overrides __new__,
    # so a hit costs the lookup alone.
    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs:
            rest = names[len(args):]
            if kwargs.keys() != set(rest):
                raise TypeError(f"{cls.__qualname__} takes the fields {names}, "
                                f"got {len(args)} positional and {sorted(kwargs)}")
            args += tuple(kwargs[name] for name in rest)
        key = (cls, *args)
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            # a miss: only a node that passes its class's validator enters the table
            if len(args) != len(names):
                raise TypeError(f"{cls.__qualname__} takes {len(names)} fields, got {len(args)}")
            node = object.__new__(cls)
            node.__dict__.update(zip(names, args), _args=args)
            cls.__post_init__(node)
            _INTERNED[key] = weakref.ref(node, lambda _, key=key: _remove_dead_weakref(_INTERNED, key))
        return node

    def __post_init__(self):
        """Refuse a new node whose fields break a condition of its class."""

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def _values(self):
        """The field values in declaration order: the tuple the node was built from."""
        return self._args


@functools.cache
def field_sorts(cls: type) -> tuple:
    """The sort of each dataclass field of `cls`: its (string) annotation,
    resolved in the class's own module, and `str` for a name."""
    names = vars(sys.modules[cls.__module__])
    return tuple(str if f.type == "str" else names[f.type] for f in dataclasses.fields(cls))


class VarNode(Node):
    """Marker base for variable-occurrence nodes; must have a `name` field."""


class FreshNames:
    """Deterministic fresh-name supply: hint + '#' + counter.

    User-facing input never contains '#'; machine-generated names do.  When a
    context is seeded from existing nodes the counter starts past any '#k'
    suffix already present, so renaming never collides.
    """

    def __init__(self, start: int = 0):
        self._k = start

    def __call__(self, hint: str = "v") -> str:
        self._k += 1
        return f"{hint.split('#')[0]}#{self._k}"

    @classmethod
    def for_nodes(cls, *nodes: Node) -> "FreshNames":
        return cls(max((fresh_floor(n) for n in nodes if n is not None), default=0))


def _suffix(name: str) -> int:
    tail = name.partition("#")[2]
    return int(tail) if tail.isdigit() else 0


def fresh_floor(node: Node) -> int:
    """The largest k of a '#k' suffix among the names of `all_names(node)`
    (0 if none), cached on each node as `free_vars` is: a variable's name,
    the binder fields and the children's floors, so one call visits each
    distinct subterm once."""
    if "_fresh_floor" not in node.__dict__:
        if isinstance(node, VarNode):
            k = _suffix(node.name)
        else:
            k = 0
            for spec, v in zip(node.binding, node._values()):
                if spec == "B":
                    k = max(k, _suffix(v))
                elif isinstance(spec, tuple):
                    k = max(k, fresh_floor(v))
        object.__setattr__(node, "_fresh_floor", k)
    return node._fresh_floor


def free_vars(node: Node) -> frozenset[str]:
    if "_free_vars" not in node.__dict__:
        vals = node._values()
        fv = frozenset((node.name,)) if isinstance(node, VarNode) else frozenset().union(
            *(free_vars(v) - {vals[i] for i in spec}
              for spec, v in zip(node.binding, vals) if isinstance(spec, tuple)))
        object.__setattr__(node, "_free_vars", fv)
    return node._free_vars


def bound_vars(node: Node) -> frozenset[str]:
    acc: set[str] = set()
    for n in walk(node):
        for spec, v in zip(n.binding, n._values()):
            if spec == "B":
                acc.add(v)
    return frozenset(acc)


def all_names(node: Node) -> frozenset[str]:
    return free_vars(node) | bound_vars(node)


def walk(node: Node):
    """Yield node and every descendant node, preorder, field order."""
    yield node
    for spec, v in zip(node.binding, node._values()):
        if isinstance(spec, tuple):
            yield from walk(v)


def subst(node: Node, mapping: dict[str, Node], fresh: FreshNames | None = None) -> Node:
    """Simultaneous capture-avoiding substitution of nodes for free variables.

    Binders are renamed (via `fresh`) exactly when a replacement is actually
    placed under them and mentions the binder's name.
    """
    if not mapping:
        return node
    if fresh is None:
        fresh = FreshNames.for_nodes(node, *mapping.values())
    return _subst(node, mapping, fresh)


def subst1(node: Node, name: str, replacement: Node, fresh: FreshNames | None = None) -> Node:
    return subst(node, {name: replacement}, fresh)


def _subst(node: Node, mapping: dict[str, Node], fresh: FreshNames) -> Node:
    if isinstance(node, VarNode):
        return mapping.get(node.name, node)
    spec = node.binding
    vals = node._values()
    eff: dict[int, dict[str, Node]] = {}
    used: set[str] = set()
    for j, sp in enumerate(spec):
        if not isinstance(sp, tuple):
            continue
        shadow = {vals[i] for i in sp}
        m = {k: v for k, v in mapping.items() if k not in shadow and k in free_vars(vals[j])}
        eff[j] = m
        for v in m.values():
            used |= free_vars(v)
    renames: dict[int, str] = {}
    for i, sp in enumerate(spec):
        if sp == "B" and vals[i] in used:
            renames[i] = fresh(vals[i])
    new_vals = list(vals)
    for i, nn in renames.items():
        new_vals[i] = nn
    for j, m in eff.items():
        m = dict(m)
        for i in spec[j]:
            if i in renames:
                m[vals[i]] = node.var_cls(renames[i])
        if m:
            new_vals[j] = _subst(vals[j], m, fresh)
    return type(node)(*new_vals)


def alpha_eq(a: Node, b: Node) -> bool:
    return a is b or _alpha(a, b, {}, {}, 0)


def alpha_eq_under(a: Node, b: Node, pairs) -> bool:
    """Alpha-equivalence where pairs = [(name_a, name_b), ...] are treated as
    corresponding outer binders."""
    env1 = {n: i for i, (n, _) in enumerate(pairs)}
    env2 = {m: i for i, (_, m) in enumerate(pairs)}
    return _alpha(a, b, env1, env2, len(pairs))


def _alpha(a: Node, b: Node, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, VarNode):
        d1, d2 = env1.get(a.name), env2.get(b.name)
        if d1 is None and d2 is None:
            return a.name == b.name
        return d1 == d2
    va, vb = a._values(), b._values()
    for i, spec in enumerate(a.binding):
        if spec == "X" and va[i] != vb[i]:
            return False
    for j, spec in enumerate(a.binding):
        if not isinstance(spec, tuple):
            continue
        e1, e2 = env1, env2
        if spec:
            e1, e2 = dict(env1), dict(env2)
            for rank, i in enumerate(spec):
                e1[va[i]] = depth + rank
                e2[vb[i]] = depth + rank
        if not _alpha(va[j], vb[j], e1, e2, depth + len(spec)):
            return False
    return True


def normalize_binders(node: Node, fresh: FreshNames | None = None,
                      avoid: frozenset[str] = frozenset()) -> Node:
    """Rename binders so no name is bound twice, both free and bound, or in `avoid`.
    In one walk, a taken binder gets the next fresh name, and its scope follows it."""
    if fresh is None:
        fresh = FreshNames(max([fresh_floor(node), *map(_suffix, avoid)]))
    return _normalize(node, fresh, set(free_vars(node) | avoid), {})


def _normalize(node: Node, fresh: FreshNames, used: set[str], renamed: dict[str, Node]) -> Node:
    if isinstance(node, VarNode):
        return renamed.get(node.name, node)
    spec = node.binding
    vals = node._values()
    new_vals = list(vals)
    for i, sp in enumerate(spec):
        if sp == "B":
            if vals[i] in used:
                new_vals[i] = fresh(vals[i])
            used.add(new_vals[i])
    for j, sp in enumerate(spec):
        if isinstance(sp, tuple):
            scope = renamed | {vals[i]: node.var_cls(new_vals[i]) for i in sp if new_vals[i] != vals[i]}
            new_vals[j] = _normalize(vals[j], fresh, used, scope)
    return type(node)(*new_vals)


def node_size(node: Node) -> int:
    return sum(1 for _ in walk(node))
