"""Recursive-descent parsers for the two ASCII grammars.

One tokenizer serves both languages; keywords are contextual.  Quantifiers
and binder-style collections extend maximally to the right.  Machine-written
fresh names ('v#3') are valid identifiers so that printed output re-parses.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import emtt_syntax as pre
from . import set_syntax as fol


# Deepest nesting accepted.  Each parenthesis, negation, quantifier or other
# prefix form, term constructor and binary connective opens one level; every
# later stage (elaboration, the translations, printing, evaluation) recurses
# once or more per level, so input at the cap must still fit the interpreter's
# recursion limit through all of them.
MAX_DEPTH = 100


class ParseError(ValueError):
    pass


class NestingError(ParseError):
    """Input nested deeper than MAX_DEPTH; no other reading of it is tried."""


def _level(method):
    """A grammar method whose every call opens one nesting level; the levels
    that operator chains open inside it close when it returns."""
    def wrapper(self):
        saved = self.depth
        self.deeper()
        try:
            return method(self)
        finally:
            self.depth = saved
    return wrapper


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<arrow>->)
  | (?P<and>/\\)
  | (?P<or>\\/)
  | (?P<exbang>ex!)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*(\#[0-9]+)?)
  | (?P<num>[0-9]+)
  | (?P<punct>[(){}\[\]<>,.|:=/+])
""", re.VERBOSE)

SET_KEYWORDS = frozenset("""
    empty omega Un Pow sing op cup p1 p2 len
    false true not sub all ex in
""".split())

EMTT_KEYWORDS = frozenset("""
    N0 N1 List Sig Pi P1 Fun V prop
    star eps cons emp0 elN1 elList inl inr elPlus elSig lam ap cls elQ tt pr
    name emptyV UnV PowV omegaV bot all ex
""".split())

_COLLECTION_HEADS = frozenset({"N0", "N1", "List", "Sig", "Pi", "P1", "Fun", "V", "[", "("})


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r} at offset {i}")
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        out.append(Token(kind, m.group(), m.start()))
    out.append(Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r} but found {t.text or 'end of input'!r} at offset {t.pos}")
        return t

    def done(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r} at offset {t.pos}")

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingError(f"input nested deeper than {MAX_DEPTH} levels "
                               f"at offset {self.peek().pos}")

    def fail(self, what: str):
        t = self.peek()
        raise ParseError(f"expected {what} but found {t.text or 'end of input'!r} at offset {t.pos}")


class SetParser(_Parser):
    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in SET_KEYWORDS:
            self.fail("a variable name")
        return self.next().text

    # formulas, loosest first
    def formula(self) -> fol.SetFormula:
        f = self.imp()
        while self.accept("<->"):
            self.deeper()
            f = fol.Iff(f, self.imp())
        return f

    def imp(self) -> fol.SetFormula:
        f = self.disj()
        if self.accept("->"):
            self.deeper()
            return fol.Imp(f, self.imp())
        return f

    def disj(self) -> fol.SetFormula:
        f = self.conj()
        while self.accept("\\/"):
            self.deeper()
            f = fol.Or(f, self.conj())
        return f

    def conj(self) -> fol.SetFormula:
        f = self.unary()
        while self.accept("/\\"):
            self.deeper()
            f = fol.And(f, self.unary())
        return f

    @_level
    def unary(self) -> fol.SetFormula:
        if self.accept("not"):
            return fol.Neg(self.unary())
        return self.atom()

    def atom(self) -> fol.SetFormula:
        t = self.peek()
        if t.text in ("all", "ex", "ex!"):
            return self.quantifier()
        if self.accept("false"):
            return fol.Bot()
        if self.accept("true"):
            return fol.Top()
        if self.accept("("):
            f = self.formula()
            self.expect(")")
            return f
        lhs = self.term()
        if self.accept("="):
            return fol.Eq(lhs, self.term())
        if self.accept("in"):
            return fol.Mem(lhs, self.term())
        if self.accept("sub"):
            return fol.Subset(lhs, self.term())
        self.fail("'=', 'in' or 'sub'")

    def quantifier(self) -> fol.SetFormula:
        kw = self.next().text
        x = self.ident()
        bound = None
        if kw != "ex!" and self.accept("in"):
            bound = self.term()
        self.expect(".")
        body = self.formula()
        if kw == "ex!":
            return fol.ExistsUnique(x, body)
        if kw == "all":
            return fol.BForall(x, bound, body) if bound is not None else fol.Forall(x, body)
        return fol.BExists(x, bound, body) if bound is not None else fol.Exists(x, body)

    @_level
    def term(self) -> fol.SetTerm:
        t = self.peek()
        if t.kind == "num":
            self.next()
            if t.text == "0":
                return fol.Zero()
            if t.text == "1":
                return fol.One()
            raise ParseError(f"only the numerals 0 and 1 exist, found {t.text} at offset {t.pos}")
        if self.accept("empty"):
            return fol.Empty()
        if self.accept("omega"):
            return fol.Omega()
        if self.accept("{"):
            return self.braced()
        for kw, cls in (("Un", fol.Union), ("Pow", fol.Pow), ("sing", fol.Singleton),
                        ("p1", fol.P1of), ("p2", fol.P2of), ("len", fol.Len)):
            if self.accept(kw):
                self.expect("(")
                a = self.term()
                self.expect(")")
                return cls(a)
        for kw, cls in (("op", fol.OrderedPair), ("cup", fol.Cup)):
            if self.accept(kw):
                self.expect("(")
                a = self.term()
                self.expect(",")
                b = self.term()
                self.expect(")")
                return cls(a, b)
        if t.kind == "ident" and t.text not in SET_KEYWORDS:
            return fol.Var(self.next().text)
        self.fail("a term")

    def braced(self) -> fol.SetTerm:
        if (self.peek().kind == "ident" and self.peek().text not in SET_KEYWORDS
                and self.peek(1).text == "in"):
            x = self.ident()
            self.expect("in")
            bound = self.term()
            self.expect("|")
            body = self.formula()
            self.expect("}")
            try:
                return fol.Sep(x, bound, body)
            except ValueError as e:
                raise ParseError(str(e)) from None
        a = self.term()
        self.expect(",")
        b = self.term()
        self.expect("}")
        return fol.Pair(a, b)


class EmttParser(_Parser):
    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in EMTT_KEYWORDS:
            self.fail("a variable name")
        return self.next().text

    def _at_collection(self) -> bool:
        t = self.peek()
        if t.text in _COLLECTION_HEADS:
            return True
        return (t.text == "{" and self.peek(1).kind == "ident"
                and self.peek(1).text not in EMTT_KEYWORDS and self.peek(2).text == "|")

    # collections
    @_level
    def collection(self) -> pre.PreCollection:
        c = self.sum()
        if self.accept("/"):
            self.expect("(")
            x = self.ident()
            self.expect(",")
            y = self.ident()
            self.expect(")")
            self.expect(".")
            return pre.Quot(c, x, y, self.prop())
        return c

    def sum(self) -> pre.PreCollection:
        c = self.colatom()
        while self.accept("+"):
            self.deeper()
            c = pre.Sum(c, self.colatom())
        return c

    def colatom(self) -> pre.PreCollection:
        if self.accept("N0"):
            return pre.N0()
        if self.accept("N1"):
            return pre.N1()
        if self.accept("P1"):
            return pre.PowOne()
        if self.accept("V"):
            return pre.UnivV()
        if self.accept("List"):
            self.expect("(")
            a = self.collection()
            self.expect(")")
            return pre.ListC(a)
        if self.accept("Fun"):
            self.expect("(")
            a = self.collection()
            self.expect(",")
            self.expect("P1")
            self.expect(")")
            return pre.FunPowOne(a)
        if self.peek().text in ("Sig", "Pi"):
            kw = self.next().text
            x = self.ident()
            self.expect(":")
            dom = self.collection()
            self.expect(".")
            body = self.collection()
            return (pre.Sigma if kw == "Sig" else pre.Pi)(x, dom, body)
        if self.accept("{"):
            x = self.ident()
            self.expect("|")
            phi = self.prop()
            self.expect("}")
            return pre.Compr(x, phi)
        if self.accept("["):
            self.expect("prop")
            phi = self.prop()
            self.expect("]")
            return pre.PropAsCol(phi)
        if self.accept("("):
            c = self.collection()
            self.expect(")")
            return c
        self.fail("a collection")

    # terms
    @_level
    def term(self) -> pre.PreTerm:
        t = self.peek()
        simple = {"star": pre.Star, "eps": pre.Eps, "tt": pre.TrueT,
                  "emptyV": pre.EmptyV, "omegaV": pre.OmegaV}
        if t.text in simple:
            self.next()
            return simple[t.text]()
        unary = {"emp0": pre.Emp0, "inl": pre.Inl, "inr": pre.Inr,
                 "UnV": pre.UnionV, "PowV": pre.PowV}
        if t.text in unary:
            self.next()
            self.expect("(")
            a = self.term()
            self.expect(")")
            return unary[t.text](a)
        binary = {"elN1": pre.ElN1, "cons": pre.Cons, "ap": pre.Ap}
        if t.text in binary:
            self.next()
            self.expect("(")
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(")")
            return binary[t.text](a, b)
        if self.accept("pr"):
            self.expect("(")
            phi = self.prop()
            self.expect(")")
            return pre.PropIntoP1(phi)
        if self.accept("name"):
            self.expect("(")
            A = self.collection()
            self.expect(")")
            return pre.Name(A)
        if self.accept("lam"):
            x = self.ident()
            self.expect(":")
            A = self.collection()
            self.expect(".")
            return pre.Lam(x, A, self.term())
        if self.accept("<"):
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(">")
            return pre.PairT(a, b)
        if self.accept("elSig"):
            self.expect("(")
            a = self.term()
            self.expect(",")
            self.expect("(")
            x = self.ident()
            self.expect(",")
            y = self.ident()
            self.expect(")")
            b = self.term()
            self.expect(")")
            return pre.ElSigma(a, x, y, b)
        if self.accept("elPlus"):
            self.expect("(")
            a = self.term()
            self.expect(",")
            self.expect("(")
            x = self.ident()
            self.expect(")")
            b = self.term()
            self.expect(",")
            self.expect("(")
            y = self.ident()
            self.expect(")")
            c = self.term()
            self.expect(")")
            return pre.ElPlus(a, x, b, y, c)
        if self.accept("elList"):
            self.expect("[")
            A = self.collection()
            self.expect("]")
            self.expect("(")
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(",")
            self.expect("(")
            x = self.ident()
            self.expect(",")
            y = self.ident()
            self.expect(",")
            z = self.ident()
            self.expect(")")
            c = self.term()
            self.expect(")")
            return pre.ElList(A, a, b, x, y, z, c)
        if self.accept("cls"):
            A, x, y, phi = self._quot_annotation()
            self.expect("(")
            a = self.term()
            self.expect(")")
            return pre.EqCls(a, A, x, y, phi)
        if self.accept("elQ"):
            A, x, y, phi = self._quot_annotation()
            self.expect("(")
            a = self.term()
            self.expect(",")
            self.expect("(")
            z = self.ident()
            self.expect(")")
            b = self.term()
            self.expect(")")
            return pre.ElQuot(A, x, y, phi, a, z, b)
        if self.accept("{"):
            return self.braced_term()
        if t.kind == "ident" and t.text not in EMTT_KEYWORDS:
            return pre.Var(self.next().text)
        self.fail("a term")

    def _quot_annotation(self):
        self.expect("[")
        A = self.collection()
        self.expect(",")
        self.expect("(")
        x = self.ident()
        self.expect(",")
        y = self.ident()
        self.expect(")")
        phi = self.prop()
        self.expect("]")
        return A, x, y, phi

    def braced_term(self) -> pre.PreTerm:
        if (self.peek().kind == "ident" and self.peek().text not in EMTT_KEYWORDS
                and self.peek(1).text == "eps"):
            x = self.ident()
            self.expect("eps")
            bound = self.term()
            self.expect("|")
            phi = self.prop()
            self.expect("}")
            try:
                return pre.SepV(x, bound, phi)
            except ValueError as e:
                raise ParseError(str(e)) from None
        a = self.term()
        self.expect(",")
        b = self.term()
        self.expect("}")
        self.expect("V")
        return pre.PairV(a, b)

    # propositions
    @_level
    def prop(self) -> pre.PreProposition:
        f = self.disj()
        if self.accept("->"):
            return pre.ImpP(f, self.prop())
        return f

    def disj(self) -> pre.PreProposition:
        f = self.conj()
        while self.accept("\\/"):
            self.deeper()
            f = pre.OrP(f, self.conj())
        return f

    def conj(self) -> pre.PreProposition:
        f = self.patom()
        while self.accept("/\\"):
            self.deeper()
            f = pre.AndP(f, self.patom())
        return f

    def patom(self) -> pre.PreProposition:
        t = self.peek()
        if t.text in ("all", "ex"):
            kw = self.next().text
            x = self.ident()
            self.expect(":")
            A = self.collection()
            self.expect(".")
            body = self.prop()
            return (pre.ForallP if kw == "all" else pre.ExistsP)(x, A, body)
        if self.accept("bot"):
            return pre.BotP()
        if self.accept("("):
            # terms never start with '('; this is always a parenthesized proposition
            f = self.prop()
            self.expect(")")
            return f
        lhs = self.term()
        if self.accept("eps"):
            if self._at_collection():
                return pre.EpsCol(lhs, self.collection())
            return pre.EpsTerm(lhs, self.term())
        if self.accept("="):
            self.expect("[")
            A = self.collection()
            self.expect("]")
            return pre.EqP(A, lhs, self.term())
        self.fail("'eps' or '='")

    def context(self) -> pre.PreContext:
        self.expect("[")
        entries = []
        if not self.accept("]"):
            while True:
                x = self.ident()
                self.expect(":")
                entries.append((x, self.collection()))
                if self.accept("]"):
                    break
                self.expect(",")
        return pre.PreContext(tuple(entries))


def parse_set_formula(text: str) -> fol.SetFormula:
    p = SetParser(text)
    f = p.formula()
    p.done()
    return f


def parse_set_term(text: str) -> fol.SetTerm:
    p = SetParser(text)
    t = p.term()
    p.done()
    return t


def parse_set(text: str) -> fol.SetNode:
    try:
        return parse_set_formula(text)
    except NestingError:
        raise
    except ParseError:
        return parse_set_term(text)


def parse_collection(text: str) -> pre.PreCollection:
    p = EmttParser(text)
    c = p.collection()
    p.done()
    return c


def parse_term(text: str) -> pre.PreTerm:
    p = EmttParser(text)
    t = p.term()
    p.done()
    return t


def parse_prop(text: str) -> pre.PreProposition:
    p = EmttParser(text)
    f = p.prop()
    p.done()
    return f


def parse_context(text: str) -> pre.PreContext:
    p = EmttParser(text)
    c = p.context()
    p.done()
    return c


def parse_emtt(text: str) -> pre.EmttNode | pre.PreContext:
    stripped = text.strip()
    if stripped.startswith("[") and not stripped.startswith("[prop"):
        return parse_context(text)
    for fn in (parse_prop, parse_term, parse_collection):
        try:
            return fn(text)
        except NestingError:
            raise
        except ParseError:
            continue
    raise ParseError(f"cannot parse as pre-proposition, pre-term or pre-collection: {text[:60]!r}")
