"""Structure-preserving translation from the set language into pre-syntax.

Each core constructor has one image constructor (`_IMAGE`): terms map to the
V-constructors, membership/equality to the atomic pre-propositions, and the
connectives and quantifiers to their pre-syntax namesakes.  The image takes
the source's fields in order, each at the image's field sort
(`core.field_sorts`); where the image has a collection field (the annotation
of equality, the domain of a quantifier), that field is V, so quantifiers
become bounded quantifiers over V.  Input must be core (sugar elaborated)
and normalized; variable names are preserved verbatim.
"""
from __future__ import annotations

from . import emtt_syntax as pre
from . import set_syntax as fol
from .core import field_sorts
from .set_syntax import is_core


class TranslationError(ValueError):
    pass


_IMAGE = {fol.Var: pre.Var, fol.Empty: pre.EmptyV, fol.Omega: pre.OmegaV,
          fol.Pair: pre.PairV, fol.Union: pre.UnionV, fol.Pow: pre.PowV, fol.Sep: pre.SepV,
          fol.Bot: pre.BotP, fol.Eq: pre.EqP, fol.Mem: pre.EpsTerm, fol.And: pre.AndP,
          fol.Or: pre.OrP, fol.Imp: pre.ImpP, fol.Forall: pre.ForallP, fol.Exists: pre.ExistsP}

_NOUN = {pre.PreTerm: "term", pre.PreProposition: "formula"}


def _tilde(node: fol.SetNode, sort: type) -> pre.EmttNode:
    image = _IMAGE.get(type(node))
    if image is None or not issubclass(image, sort):
        raise TranslationError(f"not a core set {_NOUN[sort]}: {node!r}")
    vals = iter(node._values())
    return image(*[pre.UnivV() if s is pre.PreCollection else
                   next(vals) if s is str else _tilde(next(vals), s)
                   for s in field_sorts(image)])


def tilde_term(t: fol.SetTerm) -> pre.PreTerm:
    return _tilde(t, pre.PreTerm)


def tilde_formula(f: fol.SetFormula) -> pre.PreProposition:
    return _tilde(f, pre.PreProposition)


def tilde(node: fol.SetNode) -> pre.EmttNode:
    if not is_core(node):
        raise TranslationError("input contains sugar; elaborate first")
    if isinstance(node, fol.SetTerm):
        return tilde_term(node)
    return tilde_formula(node)
