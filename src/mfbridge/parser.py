"""One precedence-climbing parser for both ASCII grammars.

The grammar is `printer.NOTATION`, read as tokens and slots; a slot's sort
is its dataclass field's annotation, and a `str` field is a variable name.
By its first item a form is

* a prefix form (literal first), accepted in any operand position;
* an operator (a slot of its own sort first), applied while its level is at
  least the context's and the left operand's level is at least its left
  slot's (an operand read whole counts as atomic);
* an atom (a slot of another sort first), read after that first operand.

A slot followed by literal text is read at level 0; a last slot is read at
its declared level, except in atoms, where it is read at 0.  Forms sharing a
first token are tried in table order; when all fail, the error that got
furthest is raised (the last form's, on a tie).  A language's keywords are
the alphabetic tokens of its notation, and are refused as variable names.
Machine-written fresh names ('v#3') are valid identifiers so that printed
output re-parses.  Only pre-contexts `[x:A, ...]` are read by hand.
"""
from __future__ import annotations

import math
import re
from typing import NamedTuple

from . import emtt_syntax as pre
from . import set_syntax as fol
from .core import field_sorts
from .printer import NOTATION


# Deepest nesting accepted.  Each operand (a parenthesis, negation,
# quantifier or other prefix form, term constructor, atom) and each operator
# opens one level; every later stage (elaboration, the translations,
# printing, evaluation) recurses once or more per level, so input at the cap
# must still fit the interpreter's recursion limit through all of them.
MAX_DEPTH = 100


class ParseError(ValueError):
    index = 0  # token at which the error was found; the furthest one is reported


class NestingError(ParseError):
    """Input nested deeper than MAX_DEPTH; no other reading of it is tried."""


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


class Token(NamedTuple):
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


# -- the grammar, read from the notation table ------------------------------------

_SORTS = (fol.SetTerm, fol.SetFormula, pre.PreCollection, pre.PreTerm, pre.PreProposition)


class _Form(NamedTuple):
    cls: type
    level: int
    seq: tuple  # token texts and (field index, sort, level) slots


_PREFIX = {sort: {} for sort in _SORTS}  # sort -> first token -> forms
_OPERATORS = {sort: [] for sort in _SORTS}
_ATOMS = {sort: [] for sort in _SORTS}
_PARENS = set()  # sorts the printer may parenthesize
_KEYWORDS = {fol.SetNode: set(), pre.EmttNode: set()}


def _grammar() -> None:
    for cls, (level, items) in NOTATION.items():
        sort = next(s for s in _SORTS if issubclass(cls, s))
        sorts = field_sorts(cls)
        seq = []
        for item in items:
            if isinstance(item, str):
                toks = tokenize(item)[:-1]
                _KEYWORDS[sort.__base__].update(t.text for t in toks if t.kind == "ident")
                seq += [t.text for t in toks]
            else:
                index, at = item if isinstance(item, tuple) else (item, 0)
                seq.append((index, sorts[index], at))
                if at:
                    _PARENS.add(seq[-1][1])
        atom = not isinstance(seq[0], str) and seq[0][1] is not sort
        last = len(seq) - 1
        seq = [s if isinstance(s, str) or j == 0 or (j == last and not atom) else (*s[:2], 0)
               for j, s in enumerate(seq)]
        form = _Form(cls, level, tuple(seq))
        if isinstance(seq[0], str):
            _PREFIX[sort].setdefault(seq[0], []).append(form)
        else:
            (_ATOMS if atom else _OPERATORS)[sort].append(form)


_grammar()


def _one_of(words) -> str:
    quoted = [repr(w) for w in dict.fromkeys(words)]
    return " or ".join([", ".join(quoted[:-1]), quoted[-1]] if len(quoted) > 1 else quoted)


class _Parser:
    def __init__(self, text: str, keywords: set[str]):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0
        self.keywords = keywords

    def peek(self) -> Token:
        return self.toks[self.i]

    def error(self, message: str) -> ParseError:
        e = ParseError(message)
        e.index = self.i
        return e

    def fail(self, what: str):
        t = self.peek()
        raise self.error(f"expected {what} but found {t.text or 'end of input'!r} at offset {t.pos}")

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail(repr(text))

    def done(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise self.error(f"trailing input {t.text!r} at offset {t.pos}")

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise NestingError(f"input nested deeper than {MAX_DEPTH} levels "
                               f"at offset {self.peek().pos}")

    def name(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in self.keywords:
            self.fail("a variable name")
        self.i += 1
        return t.text

    def expr(self, sort: type, level: int = 0):
        """An expression of `sort` whose operators have at least `level`."""
        saved = self.depth
        try:
            node, left = self.operand(sort), math.inf
            while True:
                text = self.peek().text
                op = next((f for f in _OPERATORS[sort] if f.seq[1] == text
                           and f.level >= level and f.seq[0][2] <= left), None)
                if op is None:
                    return node
                self.i += 1
                self.deeper()
                node, left = self.read(op, 2, node), op.level
        finally:
            self.depth = saved

    def operand(self, sort: type):
        saved = self.depth
        self.deeper()
        try:
            t = self.peek()
            forms = _PREFIX[sort].get(t.text)
            if forms:
                return self.first_of(forms, 0, None)
            if t.text == "(" and sort in _PARENS:
                self.i += 1
                node = self.expr(sort)
                self.expect(")")
                return node
            if (t.kind == "ident" and t.text not in self.keywords
                    and issubclass(sort.var_cls, sort)):
                self.i += 1
                return sort.var_cls(t.text)
            atoms = _ATOMS[sort]
            if not atoms:
                self.fail("a " + sort.__name__.removeprefix("Set").removeprefix("Pre").lower())
            lhs = self.expr(atoms[0].seq[0][1])
            forms = [f for f in atoms if f.seq[1] == self.peek().text]
            if not forms:
                self.fail(_one_of(f.seq[1] for f in atoms))
            return self.first_of(forms, 1, lhs)
        finally:
            self.depth = saved

    def first_of(self, forms: list[_Form], start: int, first):
        """The first of `forms` that reads from here; otherwise the error of
        the one that got furthest."""
        i, best = self.i, None
        for form in forms:
            self.i = i
            try:
                return self.read(form, start, first)
            except NestingError:
                raise
            except ParseError as e:
                if best is None or e.index >= best.index:
                    best = e
        raise best

    def read(self, form: _Form, start: int, first):
        """The rest of `form` from item `start`; `first` fills its first slot."""
        vals = {} if first is None else {form.seq[0][0]: first}
        for item in form.seq[start:]:
            if isinstance(item, str):
                self.expect(item)
            else:
                index, sort, level = item
                vals[index] = self.name() if sort is str else self.expr(sort, level)
        try:
            return form.cls(*(vals[k] for k in range(len(vals))))
        except ValueError as e:
            raise self.error(str(e)) from None

    def context(self) -> pre.PreContext:
        self.expect("[")
        entries = []
        if not self.accept("]"):
            while True:
                x = self.name()
                self.expect(":")
                entries.append((x, self.expr(pre.PreCollection)))
                if self.accept("]"):
                    break
                self.expect(",")
        return pre.PreContext(tuple(entries))


def _parse(text: str, sort: type):
    p = _Parser(text, _KEYWORDS[sort.__base__])
    node = p.expr(sort)
    p.done()
    return node


def parse_set_formula(text: str) -> fol.SetFormula:
    return _parse(text, fol.SetFormula)


def parse_set_term(text: str) -> fol.SetTerm:
    return _parse(text, fol.SetTerm)


def parse_set(text: str) -> fol.SetNode:
    try:
        return parse_set_formula(text)
    except NestingError:
        raise
    except ParseError:
        return parse_set_term(text)


def parse_collection(text: str) -> pre.PreCollection:
    return _parse(text, pre.PreCollection)


def parse_term(text: str) -> pre.PreTerm:
    return _parse(text, pre.PreTerm)


def parse_prop(text: str) -> pre.PreProposition:
    return _parse(text, pre.PreProposition)


def parse_context(text: str) -> pre.PreContext:
    p = _Parser(text, _KEYWORDS[pre.EmttNode])
    c = p.context()
    p.done()
    return c


def parse_emtt(text: str) -> pre.EmttNode | pre.PreContext:
    # a `[` opens a context, unless the keyword `prop` follows it
    if text.lstrip().startswith("[") and tokenize(text)[1].text != "prop":
        return parse_context(text)
    for fn in (parse_prop, parse_term, parse_collection):
        try:
            return fn(text)
        except NestingError:
            raise
        except ParseError:
            continue
    raise ParseError(f"cannot parse as pre-proposition, pre-term or pre-collection: {text[:60]!r}")
