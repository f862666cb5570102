"""AST, well-formedness and sugar elaboration for the first-order set language.

Core terms:    Var, Empty, Omega, Pair, Union, Pow, Sep
Core formulas: Bot, Eq, Mem, And, Or, Imp, Forall, Exists

Sugar nodes (Top, Neg, Iff, Subset, ExistsUnique, bounded quantifiers, 0, 1,
singleton, ordered pair, binary union, projections, length) elaborate away
into the core constructors; `elaborate` is idempotent on core ASTs.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import FreshNames, Node, VarNode, free_vars, normalize_binders, subst1, walk


class TheoryFlavor(Enum):
    CZF = "czf"
    IZF = "izf"
    ZF = "zf"


class SetNode(Node):
    pass


class SetTerm(SetNode):
    pass


class SetFormula(SetNode):
    pass


# -- core terms ---------------------------------------------------------------

class Var(SetTerm, VarNode):
    name: str
    binding = ("X",)


SetNode.var_cls = Var


class Empty(SetTerm):
    binding = ()


class Omega(SetTerm):
    binding = ()


class Pair(SetTerm):
    left: SetTerm
    right: SetTerm
    binding = ((), ())


class Union(SetTerm):
    arg: SetTerm
    binding = ((),)


class Pow(SetTerm):
    arg: SetTerm
    binding = ((),)


class Sep(SetTerm):
    """{binder in bound | body}; the binder may not occur free in the bound."""
    binder: str
    bound: SetTerm
    body: SetFormula
    binding = ("B", (), (0,))

    def __post_init__(self):
        if self.binder in free_vars(self.bound):
            raise ValueError(f"separation binder {self.binder!r} occurs in its bound")


# -- core formulas ------------------------------------------------------------

class Bot(SetFormula):
    binding = ()


class Eq(SetFormula):
    left: SetTerm
    right: SetTerm
    binding = ((), ())


class Mem(SetFormula):
    left: SetTerm
    right: SetTerm
    binding = ((), ())


class And(SetFormula):
    left: SetFormula
    right: SetFormula
    binding = ((), ())


class Or(SetFormula):
    left: SetFormula
    right: SetFormula
    binding = ((), ())


class Imp(SetFormula):
    left: SetFormula
    right: SetFormula
    binding = ((), ())


class Forall(SetFormula):
    binder: str
    body: SetFormula
    binding = ("B", (0,))


class Exists(SetFormula):
    binder: str
    body: SetFormula
    binding = ("B", (0,))


# -- sugar --------------------------------------------------------------------

class Zero(SetTerm):
    binding = ()


class One(SetTerm):
    binding = ()


class Singleton(SetTerm):
    arg: SetTerm
    binding = ((),)


class OrderedPair(SetTerm):
    left: SetTerm
    right: SetTerm
    binding = ((), ())


class Cup(SetTerm):
    left: SetTerm
    right: SetTerm
    binding = ((), ())


class P1of(SetTerm):
    arg: SetTerm
    binding = ((),)


class P2of(SetTerm):
    arg: SetTerm
    binding = ((),)


class Len(SetTerm):
    arg: SetTerm
    binding = ((),)


class Top(SetFormula):
    binding = ()


class Neg(SetFormula):
    body: SetFormula
    binding = ((),)


class Iff(SetFormula):
    left: SetFormula
    right: SetFormula
    binding = ((), ())


class Subset(SetFormula):
    left: SetTerm
    right: SetTerm
    binding = ((), ())


class ExistsUnique(SetFormula):
    binder: str
    body: SetFormula
    binding = ("B", (0,))


class BForall(SetFormula):
    """Bounded universal; the binder may not occur free in the bound."""
    binder: str
    bound: SetTerm
    body: SetFormula
    binding = ("B", (), (0,))

    def __post_init__(self):
        if self.binder in free_vars(self.bound):
            raise ValueError(f"bounded-quantifier binder {self.binder!r} occurs in its bound")


class BExists(SetFormula):
    binder: str
    bound: SetTerm
    body: SetFormula
    binding = ("B", (), (0,))

    def __post_init__(self):
        if self.binder in free_vars(self.bound):
            raise ValueError(f"bounded-quantifier binder {self.binder!r} occurs in its bound")


SUGAR_CLASSES = (Zero, One, Singleton, OrderedPair, Cup, P1of, P2of, Len,
                 Top, Neg, Iff, Subset, ExistsUnique, BForall, BExists)


def is_core(node: SetNode) -> bool:
    return not any(isinstance(n, SUGAR_CLASSES) for n in walk(node))


def elaborate(node: SetNode, fresh: FreshNames | None = None) -> SetNode:
    """Expand every sugar node into core constructors.

    New bound variables are drawn from `fresh`; free variables are unchanged.
    """
    if fresh is None:
        fresh = FreshNames.for_nodes(node)
    return _elab(node, fresh)


def _elab(node: SetNode, fresh: FreshNames) -> SetNode:
    node = type(node)(*(_elab(v, fresh) if isinstance(sp, tuple) else v
                        for sp, v in zip(node.binding, node._values())))

    match node:
        case Zero():
            return Empty()
        case One():
            return Pair(Empty(), Empty())
        case Singleton(a):
            return Pair(a, a)
        case OrderedPair(a, b):
            return Pair(Pair(a, a), Pair(a, b))
        case Cup(a, b):
            return Union(Pair(a, b))
        case P1of(a):
            x, y = fresh(), fresh()
            body = Forall(y, Imp(Mem(Var(y), a), Mem(Var(x), Var(y))))
            return Union(Sep(x, Union(a), body))
        case P2of(a):
            x = fresh()
            p1 = _elab(P1of(a), fresh)
            rhs = _elab(Singleton(Singleton(P1of(a))), fresh)
            body = Imp(Eq(Var(x), p1), Eq(a, rhs))
            return Union(Sep(x, Union(a), body))
        case Len(a):
            x, y = fresh(), fresh()
            pair = _elab(OrderedPair(Var(x), Var(y)), fresh)
            return Sep(x, Omega(), Exists(y, Mem(pair, a)))
        case Top():
            return Imp(Bot(), Bot())
        case Neg(phi):
            return Imp(phi, Bot())
        case Iff(l, r):
            return And(Imp(l, r), Imp(r, l))
        case Subset(a, b):
            x = fresh()
            return Forall(x, Imp(Mem(Var(x), a), Mem(Var(x), b)))
        case ExistsUnique(x, phi):
            y = fresh()
            uniq = Forall(x, Forall(y, Imp(And(phi, subst1(phi, x, Var(y), fresh)),
                                           Eq(Var(x), Var(y)))))
            return And(Exists(x, phi), uniq)
        case BForall(x, t, phi):
            return Forall(x, Imp(Mem(Var(x), t), phi))
        case BExists(x, t, phi):
            return Exists(x, And(Mem(Var(x), t), phi))
        case _:
            return node


# -- spec'd operation names ----------------------------------------------------

def subst_set(node: SetNode, name: str, term: SetTerm,
              fresh: FreshNames | None = None) -> SetNode:
    return subst1(node, name, term, fresh)


def normalize(node: SetNode, fresh: FreshNames | None = None) -> SetNode:
    return normalize_binders(node, fresh)


# -- bounded-formula recognition and flavor legality ---------------------------

def is_delta0(node: SetNode, flavor: TheoryFlavor = TheoryFlavor.IZF) -> bool:
    """Purely syntactic bounded-fragment check on a core AST.

    Quantifiers are admitted only in the shapes  all x. x in a -> phi  and
    ex x. x in a /\\ phi  with `a` a bounded term not containing x free.
    Under CZF the power-set constructor is not part of the term language, so
    any Pow occurrence disqualifies.
    """
    if isinstance(node, SUGAR_CLASSES) or not isinstance(node, SetNode):
        raise TypeError(f"not a core set-language node: {node!r}")
    match node:
        case Pow() if flavor is TheoryFlavor.CZF:
            return False
        case Forall(x, Imp(Mem(Var(y), a), _)) | Exists(x, And(Mem(Var(y), a), _)) \
                if y == x and x not in free_vars(a):
            pass  # bounded: its bound and body are checked below
        case Forall() | Exists():
            return False
    return all(is_delta0(v, flavor) for sp, v in zip(node.binding, node._values())
               if isinstance(sp, tuple))


@dataclass(frozen=True)
class Violation:
    kind: str  # "pow" | "sep-body"
    node: SetNode

    def describe(self) -> str:
        from .printer import print_set
        if self.kind == "pow":
            return f"power-set term not available in CZF: {print_set(self.node)}"
        return f"separation body is not bounded (CZF): {print_set(self.node)}"


def flavor_check(node: SetNode, flavor: TheoryFlavor) -> list[Violation]:
    """For CZF, report every Pow occurrence and every Sep with unbounded body."""
    if flavor is not TheoryFlavor.CZF:
        return []
    out: list[Violation] = []
    for n in walk(node):
        if isinstance(n, Pow):
            out.append(Violation("pow", n))
        elif isinstance(n, Sep) and not is_delta0(n.body, TheoryFlavor.CZF):
            out.append(Violation("sep-body", n))
    return out
