"""Pre-syntax of the dependent type theory side: raw grammar, no typing.

Three sorts (pre-collections, pre-terms, pre-propositions) plus pre-contexts.
Eliminators carry the annotations needed for an effective translation; a
pre-proposition used in collection position is wrapped in the explicit
PropAsCol injection so the grammar stays unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FreshNames, Node, VarNode, alpha_eq, free_vars,
                   normalize_binders, subst, subst1)


class EmttNode(Node):
    pass


class PreCollection(EmttNode):
    pass


class PreTerm(EmttNode):
    pass


class PreProposition(EmttNode):
    pass


# -- pre-collections -----------------------------------------------------------

class N0(PreCollection):
    binding = ()


class N1(PreCollection):
    binding = ()


class ListC(PreCollection):
    elem: PreCollection
    binding = ((),)


class Sum(PreCollection):
    left: PreCollection
    right: PreCollection
    binding = ((), ())


class Sigma(PreCollection):
    binder: str
    dom: PreCollection
    body: PreCollection
    binding = ("B", (), (0,))


class Pi(PreCollection):
    binder: str
    dom: PreCollection
    body: PreCollection
    binding = ("B", (), (0,))


class Quot(PreCollection):
    """base / (b1,b2). rel — quotient by a binary relation."""
    base: PreCollection
    b1: str
    b2: str
    rel: PreProposition
    binding = ((), "B", "B", (1, 2))


class PowOne(PreCollection):
    binding = ()


class FunPowOne(PreCollection):
    dom: PreCollection
    binding = ((),)


class Compr(PreCollection):
    binder: str
    body: PreProposition
    binding = ("B", (0,))


class PropAsCol(PreCollection):
    prop: PreProposition
    binding = ((),)


class UnivV(PreCollection):
    binding = ()


# -- pre-terms ------------------------------------------------------------------

class Var(PreTerm, VarNode):
    name: str
    binding = ("X",)


EmttNode.var_cls = Var


class Emp0(PreTerm):
    scrut: PreTerm
    binding = ((),)


class Star(PreTerm):
    binding = ()


class ElN1(PreTerm):
    scrut: PreTerm
    val: PreTerm
    binding = ((), ())


class Eps(PreTerm):
    binding = ()


class Cons(PreTerm):
    lst: PreTerm
    item: PreTerm
    binding = ((), ())


class ElList(PreTerm):
    annot: PreCollection
    scrut: PreTerm
    base: PreTerm
    b1: str
    b2: str
    b3: str
    step: PreTerm
    binding = ((), (), (), "B", "B", "B", (3, 4, 5))


class Inl(PreTerm):
    arg: PreTerm
    binding = ((),)


class Inr(PreTerm):
    arg: PreTerm
    binding = ((),)


class ElPlus(PreTerm):
    scrut: PreTerm
    b1: str
    left: PreTerm
    b2: str
    right: PreTerm
    binding = ((), "B", (1,), "B", (3,))


class PairT(PreTerm):
    left: PreTerm
    right: PreTerm
    binding = ((), ())


class ElSigma(PreTerm):
    scrut: PreTerm
    b1: str
    b2: str
    body: PreTerm
    binding = ((), "B", "B", (1, 2))


class Lam(PreTerm):
    binder: str
    annot: PreCollection
    body: PreTerm
    binding = ("B", (), (0,))


class Ap(PreTerm):
    fn: PreTerm
    arg: PreTerm
    binding = ((), ())


class EqCls(PreTerm):
    """Equivalence class of `arg` in the quotient of `annot` by (b1,b2).rel."""
    arg: PreTerm
    annot: PreCollection
    b1: str
    b2: str
    rel: PreProposition
    binding = ((), (), "B", "B", (2, 3))


class ElQuot(PreTerm):
    """Quotient eliminator; carries the full quotient annotation."""
    annot: PreCollection
    b1: str
    b2: str
    rel: PreProposition
    scrut: PreTerm
    binder: str
    body: PreTerm
    binding = ((), "B", "B", (1, 2), (), "B", (5,))


class TrueT(PreTerm):
    binding = ()


class PropIntoP1(PreTerm):
    prop: PreProposition
    binding = ((),)


class Name(PreTerm):
    col: PreCollection
    binding = ((),)


class EmptyV(PreTerm):
    binding = ()


class PairV(PreTerm):
    left: PreTerm
    right: PreTerm
    binding = ((), ())


class UnionV(PreTerm):
    arg: PreTerm
    binding = ((),)


class PowV(PreTerm):
    arg: PreTerm
    binding = ((),)


class SepV(PreTerm):
    """{binder eps bound | body}; the binder may not occur free in the bound."""
    binder: str
    bound: PreTerm
    body: PreProposition
    binding = ("B", (), (0,))

    def __post_init__(self):
        if self.binder in free_vars(self.bound):
            raise ValueError(f"separation binder {self.binder!r} occurs in its bound")


class OmegaV(PreTerm):
    binding = ()


# -- pre-propositions -------------------------------------------------------------

class BotP(PreProposition):
    binding = ()


class EpsTerm(PreProposition):
    elem: PreTerm
    container: PreTerm
    binding = ((), ())


class EpsCol(PreProposition):
    elem: PreTerm
    col: PreCollection
    binding = ((), ())


class EqP(PreProposition):
    annot: PreCollection
    left: PreTerm
    right: PreTerm
    binding = ((), (), ())


class ImpP(PreProposition):
    left: PreProposition
    right: PreProposition
    binding = ((), ())


class AndP(PreProposition):
    left: PreProposition
    right: PreProposition
    binding = ((), ())


class OrP(PreProposition):
    left: PreProposition
    right: PreProposition
    binding = ((), ())


class ExistsP(PreProposition):
    binder: str
    dom: PreCollection
    body: PreProposition
    binding = ("B", (), (0,))


class ForallP(PreProposition):
    binder: str
    dom: PreCollection
    body: PreProposition
    binding = ("B", (), (0,))


# -- pre-contexts -------------------------------------------------------------------

@dataclass(frozen=True)
class PreContext:
    entries: tuple[tuple[str, PreCollection], ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class ContextViolation:
    index: int
    reason: str


def precontext_wf(ctx: PreContext) -> ContextViolation | None:
    """Variables pairwise distinct; each collection's free variables declared
    earlier.  Returns the first offending entry, or None when well-formed."""
    seen: list[str] = []
    for i, (x, col) in enumerate(ctx):
        if x in seen:
            return ContextViolation(i, f"duplicate variable {x!r}")
        loose = free_vars(col) - set(seen)
        if loose:
            return ContextViolation(i, f"undeclared variables {sorted(loose)} in collection of {x!r}")
        seen.append(x)
    return None


# -- spec'd operation names -----------------------------------------------------

def subst_emtt(node: EmttNode, name: str, term: PreTerm,
               fresh: FreshNames | None = None) -> EmttNode:
    return subst1(node, name, term, fresh)


def subst_emtt_many(node: EmttNode, mapping: dict[str, PreTerm],
                    fresh: FreshNames | None = None) -> EmttNode:
    return subst(node, mapping, fresh)


def alpha_eq_emtt(a: EmttNode, b: EmttNode) -> bool:
    return alpha_eq(a, b)


def normalize(node: EmttNode, fresh: FreshNames | None = None) -> EmttNode:
    return normalize_binders(node, fresh)
