"""ASCII notation of both languages, declared once, and its printer.

`NOTATION` gives each node class (other than the two `Var` classes, which
print as their name) a precedence level and a sequence of items: literal
text, or a slot for one of the node's fields.  A slot is a field index, or
`(index, level)` with level 0 when not given; a child in a slot is
parenthesized when its own level is below the slot's.  `parser` reads the
same table, so parse(print(x)) == x structurally.  The first item of a
notation decides its kind of form:

* literal text first: a prefix form (a quantifier, `not`, `Un(`, `{`, ...);
* a slot of the node's own sort first: an operator (`/\\`, `->`, `+`, ...);
* a slot of another sort first: an atom (`t1 in t2`, `a eps A`, ...).

Forms that share their first token are listed in the order the parser
tries them.  Connective precedence (loose to tight): <->  ->  \\/  /\\  not.
Binders have level 0: they extend maximally to the right and parenthesize
as operands.
"""
from __future__ import annotations

from . import emtt_syntax as pre
from . import set_syntax as fol
from .core import VarNode

_IFF, _IMP, _OR, _AND, _NOT, _ATOM = 1, 2, 3, 4, 5, 6
_SUM = 1  # A + B: a collection slot at _ATOM takes no sum and no binder

NOTATION = {
    # set terms
    fol.Empty: (_ATOM, ("empty",)),
    fol.Omega: (_ATOM, ("omega",)),
    fol.Zero: (_ATOM, ("0",)),
    fol.One: (_ATOM, ("1",)),
    fol.Sep: (_ATOM, ("{", 0, " in ", 1, " | ", 2, "}")),
    fol.Pair: (_ATOM, ("{", 0, ", ", 1, "}")),
    fol.Union: (_ATOM, ("Un(", 0, ")")),
    fol.Pow: (_ATOM, ("Pow(", 0, ")")),
    fol.Singleton: (_ATOM, ("sing(", 0, ")")),
    fol.OrderedPair: (_ATOM, ("op(", 0, ",", 1, ")")),
    fol.Cup: (_ATOM, ("cup(", 0, ",", 1, ")")),
    fol.P1of: (_ATOM, ("p1(", 0, ")")),
    fol.P2of: (_ATOM, ("p2(", 0, ")")),
    fol.Len: (_ATOM, ("len(", 0, ")")),
    # set formulas
    fol.Bot: (_ATOM, ("false",)),
    fol.Top: (_ATOM, ("true",)),
    fol.Eq: (_ATOM, (0, " = ", 1)),
    fol.Mem: (_ATOM, (0, " in ", 1)),
    fol.Subset: (_ATOM, (0, " sub ", 1)),
    fol.Neg: (_NOT, ("not ", (0, _NOT))),
    fol.And: (_AND, ((0, _AND), " /\\ ", (1, _AND + 1))),
    fol.Or: (_OR, ((0, _OR), " \\/ ", (1, _OR + 1))),
    fol.Imp: (_IMP, ((0, _IMP + 1), " -> ", (1, _IMP))),
    fol.Iff: (_IFF, ((0, _IFF), " <-> ", (1, _IFF + 1))),
    fol.BForall: (0, ("all ", 0, " in ", 1, ". ", 2)),
    fol.Forall: (0, ("all ", 0, ". ", 1)),
    fol.BExists: (0, ("ex ", 0, " in ", 1, ". ", 2)),
    fol.Exists: (0, ("ex ", 0, ". ", 1)),
    fol.ExistsUnique: (0, ("ex! ", 0, ". ", 1)),
    # pre-collections
    pre.N0: (_ATOM, ("N0",)),
    pre.N1: (_ATOM, ("N1",)),
    pre.PowOne: (_ATOM, ("P1",)),
    pre.UnivV: (_ATOM, ("V",)),
    pre.ListC: (_ATOM, ("List(", 0, ")")),
    pre.FunPowOne: (_ATOM, ("Fun(", 0, ", P1)")),
    pre.Sum: (_SUM, ((0, _SUM), " + ", (1, _SUM + 1))),
    pre.Sigma: (0, ("Sig ", 0, ":", (1, _ATOM), ". ", 2)),
    pre.Pi: (0, ("Pi ", 0, ":", (1, _ATOM), ". ", 2)),
    pre.Quot: (0, ((0, _SUM), " / (", 1, ",", 2, "). ", 3)),
    pre.Compr: (_ATOM, ("{ ", 0, " | ", 1, " }")),
    pre.PropAsCol: (_ATOM, ("[prop ", 0, "]")),
    # pre-terms
    pre.Star: (_ATOM, ("star",)),
    pre.Eps: (_ATOM, ("eps",)),
    pre.TrueT: (_ATOM, ("tt",)),
    pre.EmptyV: (_ATOM, ("emptyV",)),
    pre.OmegaV: (_ATOM, ("omegaV",)),
    pre.Emp0: (_ATOM, ("emp0(", 0, ")")),
    pre.ElN1: (_ATOM, ("elN1(", 0, ",", 1, ")")),
    pre.Cons: (_ATOM, ("cons(", 0, ",", 1, ")")),
    pre.ElList: (_ATOM, ("elList[", 0, "](", 1, ",", 2, ",(", 3, ",", 4, ",", 5, ")", 6, ")")),
    pre.Inl: (_ATOM, ("inl(", 0, ")")),
    pre.Inr: (_ATOM, ("inr(", 0, ")")),
    pre.ElPlus: (_ATOM, ("elPlus(", 0, ",(", 1, ")", 2, ",(", 3, ")", 4, ")")),
    pre.PairT: (_ATOM, ("<", 0, ",", 1, ">")),
    pre.ElSigma: (_ATOM, ("elSig(", 0, ",(", 1, ",", 2, ")", 3, ")")),
    pre.Lam: (0, ("lam ", 0, ":", (1, _ATOM), ". ", 2)),
    pre.Ap: (_ATOM, ("ap(", 0, ",", 1, ")")),
    pre.EqCls: (_ATOM, ("cls[", 1, ",(", 2, ",", 3, ")", 4, "](", 0, ")")),
    pre.ElQuot: (_ATOM, ("elQ[", 0, ",(", 1, ",", 2, ")", 3, "](", 4, ",(", 5, ")", 6, ")")),
    pre.PropIntoP1: (_ATOM, ("pr(", 0, ")")),
    pre.Name: (_ATOM, ("name(", 0, ")")),
    pre.SepV: (_ATOM, ("{", 0, " eps ", 1, " | ", 2, "}")),
    pre.PairV: (_ATOM, ("{", 0, ",", 1, "}V")),
    pre.UnionV: (_ATOM, ("UnV(", 0, ")")),
    pre.PowV: (_ATOM, ("PowV(", 0, ")")),
    # pre-propositions
    pre.BotP: (_ATOM, ("bot",)),
    pre.EpsCol: (_ATOM, (0, " eps ", (1, _SUM))),
    pre.EpsTerm: (_ATOM, (0, " eps ", 1)),
    pre.EqP: (_ATOM, (1, " =[", 0, "] ", 2)),
    pre.AndP: (_AND, ((0, _AND), " /\\ ", (1, _AND + 1))),
    pre.OrP: (_OR, ((0, _OR), " \\/ ", (1, _OR + 1))),
    pre.ImpP: (_IMP, ((0, _IMP + 1), " -> ", (1, _IMP))),
    pre.ForallP: (0, ("all ", 0, ":", (1, _ATOM), ". ", 2)),
    pre.ExistsP: (0, ("ex ", 0, ":", (1, _ATOM), ". ", 2)),
}

# each notation with its slots as (field name, level)
_ITEMS = {cls: (level, tuple(
    item if isinstance(item, str)
    else (cls.__match_args__[item[0]], item[1]) if isinstance(item, tuple)
    else (cls.__match_args__[item], 0)
    for item in items)) for cls, (level, items) in NOTATION.items()}


def _print(node, level: int = 0) -> str:
    if isinstance(node, VarNode):
        return node.name
    try:
        own, items = _ITEMS[type(node)]
    except KeyError:
        raise TypeError(f"no notation for {node!r}") from None
    out = []
    for item in items:
        if isinstance(item, str):
            out.append(item)
        else:
            value = getattr(node, item[0])
            out.append(value if isinstance(value, str) else _print(value, item[1]))
    text = "".join(out)
    return f"({text})" if own < level else text


def print_set(node: fol.SetNode) -> str:
    return _print(node)


def print_emtt(node) -> str:
    if isinstance(node, pre.PreContext):
        return "[" + ", ".join(f"{x}:{_print(A, _SUM)}" for x, A in node) + "]"
    return _print(node)
