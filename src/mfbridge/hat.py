"""Translation from pre-syntax back into the set language.

Three mutually recursive maps over one AST, all producing core set formulas
over the reserved placeholder variable `u`:

  eta(A)    describes the elements of a pre-collection as a class over u;
  delta(a)  pins down the value of a pre-term as the unique u satisfying it;
  hat(phi)  renders a pre-proposition as a closed-over-its-variables formula.

Pre-contexts translate to the conjunction of their entries' eta images.

The clauses share a few shapes, each written once: `_d(a, v)` and `_e(A, v)`
are an image with u read as v; `_set_of(v, members)` says u is the set of
the v with `members`; `_function` says a set of pairs is single-valued and
total on a domain; `_class` is the equivalence class of Quot and EqCls.  The
six pre-terms whose value is a set term built from their arguments' values
(pairs, cons, the injections, union) are one table, `_VALUES`.

The placeholder u is banned from input.  Auxiliary variables are drawn from
one fresh-name counter threaded through the whole run, so a translation is
reproducible and nested clause instances never collide.  All sugar used by
the clauses (ordered pairs, subset, binary union, singletons, projections,
list length, 0) is elaborated immediately: outputs are always core.
"""
from __future__ import annotations

from .core import FreshNames, all_names, subst
from . import emtt_syntax as pre
from . import set_syntax as fol
from .set_syntax import (And, Bot, Empty, Eq, Exists, Forall, Imp, Mem, Omega,
                         Sep, SetFormula, Union, Var)
from .tilde import TranslationError

PLACEHOLDER = "u"
U = Var(PLACEHOLDER)

_CONNECTIVES = {pre.AndP: And, pre.OrP: fol.Or, pre.ImpP: Imp}

# pre-term -> the set term its value is, given its arguments' values
_VALUES = {
    pre.PairT: fol.OrderedPair,
    pre.PairV: fol.Pair,
    pre.Cons: lambda l, b: fol.Cup(l, fol.Singleton(fol.OrderedPair(fol.Len(l), b))),
    pre.Inl: lambda b: fol.OrderedPair(fol.Zero(), b),
    pre.Inr: lambda b: fol.OrderedPair(fol.One(), b),
    pre.UnionV: Union,
}


def _conj(*fs: SetFormula) -> SetFormula:
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


class HatTranslator:
    """One translation run: a fresh-name context shared by every clause."""

    def __init__(self, fresh: FreshNames | None = None, *seed_nodes):
        self.fresh = fresh if fresh is not None else FreshNames.for_nodes(*seed_nodes)

    def _check_input(self, node) -> None:
        if PLACEHOLDER in all_names(node):
            raise TranslationError(f"input contains the reserved placeholder {PLACEHOLDER!r}")

    def _elab(self, node: fol.SetNode) -> SetFormula:
        return fol.elaborate(node, self.fresh)

    def _sub(self, f: SetFormula, mapping: dict[str, fol.SetTerm]) -> SetFormula:
        return subst(f, mapping, self.fresh)

    # -- the shared clause shapes ------------------------------------------------

    def _at(self, f: SetFormula, v: str, binds: dict | None = None) -> SetFormula:
        """f with u read as v, and each name in `binds` as its term."""
        return self._sub(f, {**(binds or {}), PLACEHOLDER: Var(v)})

    def _d(self, a: pre.PreTerm, v: str, binds: dict | None = None) -> SetFormula:
        return self._at(self._delta(a), v, binds)

    def _e(self, A: pre.PreCollection, v: str, binds: dict | None = None) -> SetFormula:
        return self._at(self._eta(A), v, binds)

    def _pair(self, a: fol.SetTerm, b: fol.SetTerm) -> fol.SetTerm:
        return self._elab(fol.OrderedPair(a, b))

    def _set_of(self, v: str, members: SetFormula) -> SetFormula:
        """u is the set of the v with `members`."""
        return Forall(v, self._elab(fol.Iff(Mem(Var(v), U), members)))

    def _function(self, f: fol.SetTerm, dom: SetFormula, w: str, wp: str, wpp: str):
        """The pairs in f are single-valued, and total on the w with `dom`."""
        has = lambda b: Mem(self._pair(Var(w), Var(b)), f)
        return (Forall(w, Forall(wp, Forall(wpp, Imp(And(has(wp), has(wpp)),
                                                     Eq(Var(wp), Var(wpp)))))),
                Forall(w, Imp(dom, Exists(wp, has(wp)))))

    def _class(self, rep, annot: pre.PreCollection, x: str, y: str,
               rel: pre.PreProposition) -> SetFormula:
        """Some w with `rep(w)`, and u is its class: the v in annot with rel(w, v)."""
        w, v = self.fresh("w"), self.fresh("v")
        return Exists(w, And(rep(w), self._set_of(v, And(
            self._e(annot, v), self._sub(self._hat(rel), {x: Var(w), y: Var(v)})))))

    # -- entry points ----------------------------------------------------------

    def eta(self, A: pre.PreCollection) -> SetFormula:
        self._check_input(A)
        return self._eta(A)

    def delta(self, a: pre.PreTerm) -> SetFormula:
        self._check_input(a)
        return self._delta(a)

    def hat(self, phi: pre.PreProposition) -> SetFormula:
        self._check_input(phi)
        return self._hat(phi)

    def hat_context(self, ctx: pre.PreContext) -> SetFormula:
        out: SetFormula = Imp(Bot(), Bot())
        for x, A in ctx:
            self._check_input(A)
            if x == PLACEHOLDER:
                raise TranslationError(f"context declares the reserved placeholder {PLACEHOLDER!r}")
            out = And(out, self._e(A, x))
        return out

    # -- pre-propositions --------------------------------------------------------

    def _hat(self, phi: pre.PreProposition) -> SetFormula:
        match phi:
            case pre.BotP():
                return Bot()
            case pre.EpsTerm(a, b):
                v = self.fresh("v")
                body = _conj(self._delta(a), self._d(b, v), Mem(U, Var(v)))
                return Exists(PLACEHOLDER, Exists(v, body))
            case pre.EpsCol(a, A):
                return Exists(PLACEHOLDER, And(self._delta(a), self._eta(A)))
            case pre.EqP(A, a, b):
                return Exists(PLACEHOLDER, _conj(self._delta(a), self._delta(b), self._eta(A)))
            case pre.AndP(l, r) | pre.OrP(l, r) | pre.ImpP(l, r):
                return _CONNECTIVES[type(phi)](self._hat(l), self._hat(r))
            case pre.ForallP(x, A, body):
                return Forall(x, Imp(self._e(A, x), self._hat(body)))
            case pre.ExistsP(x, A, body):
                return Exists(x, And(self._e(A, x), self._hat(body)))
            case _:
                raise TranslationError(f"not a pre-proposition: {phi!r}")

    # -- pre-collections ----------------------------------------------------------

    def _eta(self, A: pre.PreCollection) -> SetFormula:
        match A:
            case pre.N0():
                return Bot()
            case pre.N1():
                return Eq(U, Empty())
            case pre.Sigma(x, dom, body):
                v, w = self.fresh("v"), self.fresh("w")
                return Exists(v, Exists(w, _conj(self._e(dom, v), self._e(body, w, {x: Var(v)}),
                                                 Eq(U, self._pair(Var(v), Var(w))))))
            case pre.Pi(x, dom, body):
                return self._eta_pi(x, dom, body)
            case pre.Sum(l, r):
                v, w = self.fresh("v"), self.fresh("w")
                el, er = self._e(l, v), self._e(r, w)
                return fol.Or(Exists(v, And(el, Eq(U, self._pair(fol.Zero(), Var(v))))),
                              Exists(w, And(er, Eq(U, self._pair(fol.One(), Var(w))))))
            case pre.ListC(elem):
                return self._eta_list(elem)
            case pre.Quot(base, x, y, rel):
                return self._class(lambda w: self._e(base, w), base, x, y, rel)
            case pre.PowOne():
                return self._elab(fol.Subset(U, fol.Singleton(fol.Zero())))
            case pre.FunPowOne(dom):
                x = self.fresh("x")
                return self._eta_pi(x, dom, pre.PowOne())
            case pre.UnivV():
                return Eq(U, U)
            case pre.PropAsCol(phi):
                return And(Eq(U, Empty()), self._hat(phi))
            case pre.Compr(x, phi):
                return self._sub(self._hat(phi), {x: U})
            case _:
                raise TranslationError(f"not a pre-collection: {A!r}")

    def _eta_pi(self, x: str, dom: pre.PreCollection, body: pre.PreCollection) -> SetFormula:
        v, w, wp, wpp = (self.fresh("v"), self.fresh("w"),
                         self.fresh("w"), self.fresh("w"))
        ea = self._eta(dom)
        eb = self._eta(body)
        rel = Forall(v, Imp(
            Mem(Var(v), U),
            Exists(w, Exists(wp, _conj(
                Eq(Var(v), self._pair(Var(w), Var(wp))),
                self._at(ea, w),
                self._at(eb, wp, {x: Var(w)}))))))
        return _conj(rel, *self._function(U, self._at(ea, w), w, wp, wpp))

    def _eta_list(self, elem: pre.PreCollection) -> SetFormula:
        n, v, w, wp, wpp = (self.fresh("n"), self.fresh("v"), self.fresh("w"),
                            self.fresh("w"), self.fresh("w"))
        shape = self._set_of(v, Exists(w, Exists(wp, _conj(
            Mem(Var(w), Var(n)),
            self._e(elem, wp),
            Eq(Var(v), self._pair(Var(w), Var(wp)))))))
        return Exists(n, _conj(Mem(Var(n), Omega()), shape,
                               *self._function(U, Mem(Var(w), Var(n)), w, wp, wpp)))

    # -- pre-terms -------------------------------------------------------------------

    def _delta(self, a: pre.PreTerm) -> SetFormula:
        value = _VALUES.get(type(a))
        if value is not None:
            args = a._values()
            names = [self.fresh(hint) for hint in "vw"[:len(args)]]
            out = _conj(*[self._d(b, v) for b, v in zip(args, names)],
                        Eq(U, self._elab(value(*map(Var, names)))))
            for v in reversed(names):
                out = Exists(v, out)
            return out
        match a:
            case pre.Var(x):
                return Eq(U, Var(x))
            case pre.TrueT() | pre.Star() | pre.Eps() | pre.Emp0(_) | pre.EmptyV():
                return Eq(U, Empty())
            case pre.ElN1(_, b):
                return self._delta(b)
            case pre.ElSigma(s, x, y, body):
                v = self.fresh("v")
                ds = self._d(s, v)
                db = self._sub(self._delta(body), {x: fol.P1of(Var(v)), y: fol.P2of(Var(v))})
                return Exists(v, And(ds, self._elab(db)))
            case pre.Lam(x, annot, body):
                v, w, wp = self.fresh("v"), self.fresh("w"), self.fresh("w")
                return self._set_of(v, Exists(w, Exists(wp, _conj(
                    self._e(annot, w), self._d(body, wp, {x: Var(w)}),
                    Eq(Var(v), self._pair(Var(w), Var(wp)))))))
            case pre.Ap(f, b):
                v, w, z = self.fresh("v"), self.fresh("w"), self.fresh("z")
                df, db = self._d(f, v), self._d(b, w)
                sel = Sep(z, Var(v), self._elab(Eq(fol.P1of(Var(z)), Var(w))))
                val = self._elab(Eq(U, fol.P2of(Union(sel))))
                return Exists(v, Exists(w, _conj(df, db, val)))
            case pre.ElPlus(s, x, bl, y, br):
                v = self.fresh("v")
                ds = self._d(s, v)
                dl = self._elab(self._sub(self._delta(bl), {x: fol.P2of(Var(v))}))
                dr = self._elab(self._sub(self._delta(br), {y: fol.P2of(Var(v))}))
                tagl = self._elab(Eq(fol.P1of(Var(v)), fol.Zero()))
                tagr = self._elab(Eq(fol.P1of(Var(v)), fol.One()))
                return Exists(v, And(ds, fol.Or(And(tagl, dl), And(tagr, dr))))
            case pre.ElList():
                return self._delta_el_list(a)
            case pre.EqCls(b, annot, x, y, rel):
                return self._class(lambda w: self._d(b, w), annot, x, y, rel)
            case pre.ElQuot(_, _, _, _, s, x, body):
                v, w = self.fresh("v"), self.fresh("w")
                return Exists(v, _conj(self._d(s, v),
                                       Exists(w, Mem(Var(w), Var(v))),
                                       Forall(w, Imp(Mem(Var(w), Var(v)),
                                                     self._sub(self._delta(body), {x: Var(w)})))))
            case pre.PropIntoP1(phi):
                v = self.fresh("v")
                return self._set_of(v, And(Eq(Var(v), Empty()), self._hat(phi)))
            case pre.Name(A):
                v = self.fresh("v")
                return self._set_of(v, self._e(A, v))
            case pre.OmegaV():
                return Eq(U, Omega())
            case pre.PowV(b):
                v, w = self.fresh("v"), self.fresh("w")
                return Exists(v, And(self._d(b, v), self._set_of(w, fol.Subset(Var(w), Var(v)))))
            case pre.SepV(x, bound, phi):
                v = self.fresh("v")
                return Exists(v, And(self._d(bound, v),
                                     self._set_of(x, And(Mem(Var(x), Var(v)), self._hat(phi)))))
            case _:
                raise TranslationError(f"not a pre-term: {a!r}")

    def _delta_el_list(self, node: pre.ElList) -> SetFormula:
        f = self.fresh("f")
        w, w1, w2, w3 = self.fresh("w"), self.fresh("w"), self.fresh("w"), self.fresh("w")
        v, wp = self.fresh("v"), self.fresh("w")
        eta_list = self._eta(pre.ListC(node.annot))
        eta_elem = self._eta(node.annot)
        fvar = Var(f)

        shape = Forall(w, Imp(Mem(Var(w), fvar), Exists(w1, Exists(w2, And(
            self._at(eta_list, w1), Eq(Var(w), self._pair(Var(w1), Var(w2))))))))
        svl, tot = self._function(fvar, self._at(eta_list, w1), w1, w2, w3)
        base = Exists(v, And(self._d(node.base, v), Mem(self._pair(Empty(), Var(v)), fvar)))
        dc = self._d(node.step, v, {node.b1: Var(w1), node.b2: Var(w2), node.b3: Var(w3)})
        snoc = self._elab(_VALUES[pre.Cons](Var(w1), Var(w2)))
        closure = Forall(w1, Forall(w2, Forall(w3, Forall(v, Imp(
            _conj(Mem(self._pair(Var(w1), Var(w3)), fvar), self._at(eta_elem, w2), dc),
            Mem(self._pair(snoc, Var(v)), fvar))))))
        result = Exists(wp, And(self._d(node.scrut, wp), Mem(self._pair(Var(wp), U), fvar)))
        return Exists(f, _conj(shape, svl, tot, base, closure, result))


# -- convenience single-shot entry points -----------------------------------------

def eta(A: pre.PreCollection, fresh: FreshNames | None = None) -> SetFormula:
    return HatTranslator(fresh, A).eta(A)


def delta(a: pre.PreTerm, fresh: FreshNames | None = None) -> SetFormula:
    return HatTranslator(fresh, a).delta(a)


def hat(phi: pre.PreProposition, fresh: FreshNames | None = None) -> SetFormula:
    return HatTranslator(fresh, phi).hat(phi)


def hat_context(ctx: pre.PreContext, fresh: FreshNames | None = None) -> SetFormula:
    tr = HatTranslator(fresh, *(col for _, col in ctx))
    return tr.hat_context(ctx)
