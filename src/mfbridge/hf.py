"""Brute-force semantic oracle over rank-bounded hereditarily finite sets.

Classical Tarskian semantics; quantifiers range over the whole universe.
Values that would exceed the rank bound raise Overflow, which the sweep
drivers treat as "skip this environment" (the logic itself stays two-valued).

Term evaluation is three-valued at the harness level: a value, BIG (the true
value definitely has rank above the bound, e.g. a pair of two in-universe
sets that is one rank too high), or UNKNOWN (the value could not be
determined, e.g. a separation whose body was undecidable).  Atoms decide
wherever soundness allows: equality against a BIG value is false unless both
sides are BIG; a BIG value is never a member of an in-universe one.  Without
this the pair-building existential inside the list-length abbreviation would
overflow in every environment.  Everything else propagates Overflow, and
evaluation never short-circuits, so overflow behaves identically in both
evaluation engines.

Two independent engines are provided and cross-checked in the test suite:

  * a vectorized sweep engine, which exploits the fact that a full universe
    V_k enumerated in Ackermann order has element index == Ackermann code, so
    membership and the term constructors become table lookups.  The tables
    are array expressions over the codes (i is a member of j iff bit i of j
    is set), and a separation is a gather of its bound's membership row
    along the binder axis followed by a bit-weighted sum of the kept
    members, so no step loops over cells in Python.  It is the one engine
    every command runs on: check_valid / check_equivalence (the property
    sweeps and obligation discharge), the k0 agreement check, which pins
    each witness variable to an index array over gamma's grid, and
    `evaluate` (`mfbridge eval`), one sweep with every free variable
    pinned to its value.  Its tables are n x n, so ranks stop at MAX_RANK;
  * eval_term / eval_formula — plain recursion on canonical HFSet values,
    reference-only: the differential tests and the benchmark's checks.

A sweep evaluates each structurally distinct subtree once: a pre-pass counts
each node's requests, and its arrays stay in a memo until the last one.  That
is sound, as the arrays depend only on the subtree, `strict` and `pinned`.

numpy is imported by the first table build (`Universe.tables()`, which every
sweep calls first), not at import, so commands that never sweep start without
it; this is the only module that imports numpy.

The sweep over omega is truncated: omega denotes {0, ..., k-1}, so the
infinity axiom is NOT modeled and absence of a counterexample is never a
proof.  Counterexamples are always genuine.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import FreshNames, free_vars, normalize_binders, subst1
from .set_syntax import (And, Bot, Empty, Eq, Exists, Forall, Imp, Mem, Omega,
                         Or, Pair, Pow, Sep, SetFormula, SetTerm, Union, Var)

np = None  # numpy, bound by the first Universe.tables()
MAX_RANK = 3  # |V_4| = 65,536 would make each n x n table 2^32 cells
_MAX_CELLS = 20_000_000


class Overflow(Exception):
    """A value escaped the rank-bounded universe."""


class EvalError(Exception):
    pass


class CellCapError(ValueError):
    """A sweep grid over the engine's cell cap."""


@dataclass(frozen=True, eq=False)
class HFSet:
    """Canonical hereditarily finite set: children sorted by Ackermann code."""
    children: tuple["HFSet", ...]
    code: int
    rank: int

    def __eq__(self, other):
        return isinstance(other, HFSet) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __lt__(self, other):
        return self.code < other.code

    def __repr__(self):
        return f"HFSet({print_hf(self)})"

    def has_member(self, x: "HFSet") -> bool:
        return any(c.code == x.code for c in self.children)


def make_hf(children) -> HFSet:
    uniq: dict[int, HFSet] = {}
    for c in children:
        uniq[c.code] = c
    kids = tuple(sorted(uniq.values()))
    code = sum(1 << c.code for c in kids)
    rank = 1 + max((c.rank for c in kids), default=-1)
    return HFSet(kids, code, rank)


EMPTY = make_hf(())


def nat(n: int) -> HFSet:
    s = EMPTY
    for _ in range(n):
        s = make_hf(s.children + (s,))
    return s


def print_hf(s: HFSet) -> str:
    return "{" + ",".join(print_hf(c) for c in s.children) + "}"


def parse_hf(text: str) -> HFSet:
    """Read a set literal such as {{},{{}}}.  A literal of rank above MAX_RANK
    lies outside every universe a command sweeps, and its Ackermann code grows
    as a tower of exponentials in the rank, so it is refused while being read."""
    s, rest = _parse_hf(text.strip(), MAX_RANK + 1)
    if rest.strip():
        raise ValueError(f"trailing input in set literal: {rest!r}")
    return s


def _parse_hf(text: str, levels: int) -> tuple[HFSet, str]:
    text = text.lstrip()
    if not text.startswith("{"):
        raise ValueError(f"expected '{{' in set literal at {text[:20]!r}")
    if not levels:
        raise ValueError(f"set literal nested deeper than {MAX_RANK + 1} levels "
                         f"(rank above {MAX_RANK})")
    text = text[1:].lstrip()
    kids = []
    while not text.startswith("}"):
        c, text = _parse_hf(text, levels - 1)
        kids.append(c)
        text = text.lstrip()
        if text.startswith(","):
            text = text[1:].lstrip()
        elif not text.startswith("}"):
            raise ValueError("expected ',' or '}' in set literal")
    return make_hf(kids), text[1:]


def parse_env(text: str) -> dict[str, HFSet]:
    """Parse an environment literal like "x={},y={{}}"."""
    env: dict[str, HFSet] = {}
    if not text.strip():
        return env
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    for part in parts:
        name, _, lit = part.partition("=")
        if not _ == "=":
            raise ValueError(f"expected name=value in env entry {part!r}")
        name = name.strip()
        if name in env:
            raise ValueError(f"variable {name!r} given twice in the environment")
        env[name] = parse_hf(lit)
    return env


class Universe:
    """All HF sets of rank <= k, in Ackermann order (index == code)."""

    def __init__(self, k: int):
        if not 0 <= k <= MAX_RANK:
            raise ValueError(f"rank {k} outside 0..{MAX_RANK}")
        self.k = k
        level = [EMPTY]
        for _ in range(k):
            # code c's members are the sets whose codes are c's bits; codes
            # grow with rank, so the last member has the largest rank
            level = [HFSet(kids := tuple(s for s in level if c >> s.code & 1), c,
                           kids[-1].rank + 1 if kids else 0) for c in range(1 << len(level))]
        self.elements: list[HFSet] = level
        self.omega = make_hf(nat(i) for i in range(k))
        self._tables = None

    def __len__(self):
        return len(self.elements)

    def index_of(self, s: HFSet) -> int:
        if s.code >= len(self.elements):
            raise Overflow(f"value of rank {s.rank} not in V_{self.k}")
        return s.code

    def tables(self):
        """(mem, pair, union, pow) as index tables over codes; -1 = escapes V_k."""
        global np
        if self._tables is None:
            import numpy as np
            n = len(self.elements)
            code = np.arange(n, dtype=np.int64)
            mem = ((code[None, :] >> code[:, None]) & 1).astype(bool)  # bit i of j
            bit = 1 << code
            pair = bit[:, None] | bit[None, :]
            union = np.bitwise_or.reduce(np.where(mem, code[:, None], 0), axis=0)
            subset = (code[:, None] & code[None, :]) == code[:, None]  # s within i
            pw = np.where(subset, bit[:, None], 0).sum(axis=0)
            self._tables = (mem, np.where(pair < n, pair, -1), union, np.where(pw < n, pw, -1))
        return self._tables


@lru_cache(maxsize=None)
def enumerate_universe(k: int) -> Universe:
    return Universe(k)


Env = dict[str, HFSet]


# -- reference recursive evaluator ---------------------------------------------

class _Marker:
    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return self.tag


BIG = _Marker("BIG")          # true value definitely of rank above the bound
UNKNOWN = _Marker("UNKNOWN")  # value undetermined


def _eval(t: SetTerm, env: Env, U: Universe, strict: bool = False):
    match t:
        case Var(x):
            try:
                return env[x]
            except KeyError:
                raise EvalError(f"unbound variable {x!r}") from None
        case Empty():
            return EMPTY
        case Omega():
            return U.omega
        case Pair(a, b):
            va, vb = _eval(a, env, U, strict), _eval(b, env, U, strict)
            if va is BIG or vb is BIG:
                return BIG  # a pair with a too-big member is itself too big
            if va is UNKNOWN or vb is UNKNOWN:
                return UNKNOWN
            if max(va.rank, vb.rank) + 1 > U.k:
                return BIG
            return make_hf((va, vb))
        case Union(a):
            va = _eval(a, env, U, strict)
            if va is BIG or va is UNKNOWN:
                return UNKNOWN  # a union can drop back below the bound
            return make_hf(c for m in va.children for c in m.children)
        case Pow(a):
            va = _eval(a, env, U, strict)
            if va is BIG:
                return BIG
            if va is UNKNOWN:
                return UNKNOWN
            if (va.rank + 1 if va.children else 1) > U.k:
                return BIG
            subs = []
            for r in range(len(va.children) + 1):
                for comb in itertools.combinations(va.children, r):
                    subs.append(make_hf(comb))
            return make_hf(subs)
        case Sep(x, bound, body):
            vb = _eval(bound, env, U, strict)
            if vb is BIG or vb is UNKNOWN:
                return UNKNOWN
            kept = []
            for m in vb.children:
                try:
                    keep = eval_formula(body, {**env, x: m}, U, strict)
                except Overflow:
                    return UNKNOWN  # subset of an in-universe set, but unidentified
                if keep:
                    kept.append(m)
            return make_hf(kept)
        case _:
            raise TypeError(f"not a core set term: {t!r}")


def eval_term(t: SetTerm, env: Env, U: Universe) -> HFSet:
    v = _eval(t, env, U)
    if v is BIG:
        raise Overflow("value exceeds the rank bound")
    if v is UNKNOWN:
        raise Overflow("value could not be determined within the rank bound")
    return v


def eval_formula(f: SetFormula, env: Env, U: Universe, strict: bool = False) -> bool:
    """Classical evaluation; `strict` makes every atom touching an escaping
    value overflow instead of deciding the decidable cases."""
    match f:
        case Bot():
            return False
        case Eq(a, b):
            va, vb = _eval(a, env, U, strict), _eval(b, env, U, strict)
            if strict and (va is BIG or vb is BIG or va is UNKNOWN or vb is UNKNOWN):
                raise Overflow("value escapes the rank bound")
            if va is UNKNOWN or vb is UNKNOWN or (va is BIG and vb is BIG):
                raise Overflow("equality undetermined at this rank")
            if va is BIG or vb is BIG:
                return False
            return va == vb
        case Mem(a, b):
            va, vb = _eval(a, env, U, strict), _eval(b, env, U, strict)
            if strict and (va is BIG or vb is BIG or va is UNKNOWN or vb is UNKNOWN):
                raise Overflow("value escapes the rank bound")
            if vb is BIG or vb is UNKNOWN or va is UNKNOWN:
                raise Overflow("membership undetermined at this rank")
            if va is BIG:
                return False
            return vb.has_member(va)
        case And(l, r):
            vl, vr = eval_formula(l, env, U, strict), eval_formula(r, env, U, strict)
            return vl and vr
        case Or(l, r):
            vl, vr = eval_formula(l, env, U, strict), eval_formula(r, env, U, strict)
            return vl or vr
        case Imp(l, r):
            vl, vr = eval_formula(l, env, U, strict), eval_formula(r, env, U, strict)
            return (not vl) or vr
        case Forall(x, body):
            vals = [eval_formula(body, {**env, x: el}, U, strict) for el in U.elements]
            return all(vals)
        case Exists(x, body):
            vals = [eval_formula(body, {**env, x: el}, U, strict) for el in U.elements]
            return any(vals)
        case _:
            raise TypeError(f"not a core set formula: {f!r}")


# -- vectorized sweep engine ----------------------------------------------------
#
# A term denotes an integer array over the grid of its free variables (entry =
# element index, -1 = overflow); a formula denotes a (truth, overflow) pair of
# boolean arrays.  Dimension name tuples are kept sorted, so an array's axes
# always appear in the same order as any enclosing grid's.

def _expand(dims: tuple[str, ...], arr: np.ndarray, target: tuple[str, ...]) -> np.ndarray:
    if dims == target:
        return arr
    shape = []
    di = 0
    for t in target:
        if di < len(dims) and dims[di] == t:
            shape.append(arr.shape[di])
            di += 1
        else:
            shape.append(1)
    return arr.reshape(shape)


def _join(n: int, *dimsets) -> tuple[str, ...]:
    target = tuple(sorted(set().union(*dimsets)))
    if n ** len(target) > _MAX_CELLS:
        raise CellCapError(f"sweep grid over {len(target)} variables exceeds the {_MAX_CELLS:,}-cell cap")
    return target


class _SweepEngine:
    # `pinned` maps a name to a fixed (dims, index array) value; no binder in
    # the swept formula may reuse a pinned name or one of its dims
    def __init__(self, U: Universe, strict: bool = False, pinned=None):
        self.U = U
        self.strict = strict
        self.pinned = pinned or {}
        self.n = len(U.elements)
        self.mem, self.pair, self.union, self.pow = U.tables()
        self.memo, self.uses = {}, {}  # node -> arrays; node -> requests still to come

    def sweep(self, f: SetFormula):
        """`f`'s (dims, truth, overflow), each distinct subtree evaluated once."""
        stack = [f]
        while stack:
            node = stack.pop()
            self.uses[node] = self.uses.get(node, 0) + 1
            if self.uses[node] == 1:  # a memo hit does not descend
                stack.extend(v for s, v in zip(node.binding, node._values()) if isinstance(s, tuple))
        return self.formula(f)

    def _cached(self, node, evaluate):
        out = self.memo.pop(node, None)
        out = evaluate(node) if out is None else out
        if left := self.uses.pop(node) - 1:
            self.uses[node], self.memo[node] = left, out
        return out

    def term(self, t: SetTerm):
        return self._cached(t, self._term)

    def formula(self, f: SetFormula):
        return self._cached(f, self._formula)

    def _terms(self, a: SetTerm, b: SetTerm):
        da, va = self.term(a)
        db, vb = self.term(b)
        dims = _join(self.n, da, db)
        return dims, _expand(da, va, dims), _expand(db, vb, dims)

    def _term(self, t: SetTerm):
        match t:
            case Var(x):
                if x in self.pinned:
                    return self.pinned[x]
                return (x,), np.arange(self.n, dtype=np.int64)
            case Empty():
                return (), np.full((), 0, dtype=np.int64)
            case Omega():
                return (), np.full((), self.U.index_of(self.U.omega), dtype=np.int64)
            case Pair(a, b):
                dims, va, vb = self._terms(a, b)
                out = self.pair[np.maximum(va, 0), np.maximum(vb, 0)]
                out = np.where((va == -2) | (vb == -2), -2, out)
                return dims, np.where((va == -1) | (vb == -1), -1, out)
            case Union(a):
                da, va = self.term(a)
                return da, np.where(va < 0, -2, self.union[np.maximum(va, 0)])
            case Pow(a):
                da, va = self.term(a)
                out = np.where(va == -2, -2, self.pow[np.maximum(va, 0)])
                return da, np.where(va == -1, -1, out)
            case Sep(x, bound, body):
                return self._sep(x, bound, body)
            case _:
                raise TypeError(f"not a core set term: {t!r}")

    def _sep(self, x: str, bound: SetTerm, body: SetFormula):
        # gather the bound's membership row along the binder axis, then sum
        # the bits of the members the body keeps; any overflowing member
        # (or an escaping bound) leaves the value undetermined.  The gather
        # adds the binder axis next to the bound's, so the binder must not
        # be one of them: Sep keeps it out of the bound's free variables,
        # and `pinned`'s contract keeps it off the pinned dims
        db, vb = self.term(bound)
        assert x not in db, f"separation binder {x!r} is an axis of its bound"
        df, tr, ov = self.formula(body)
        out_dims = _join(self.n, db, set(df) - {x})
        full = _join(self.n, out_dims, {x})
        xpos = full.index(x)
        B = _expand(db, vb, out_dims)
        inb = np.moveaxis(self.mem[:, np.maximum(B, 0)], 0, xpos)
        bad = (B < 0) | (inb & _expand(df, ov, full)).any(axis=xpos)
        code = np.moveaxis(inb & _expand(df, tr, full), xpos, -1) @ (1 << np.arange(self.n))
        return out_dims, np.where(bad, -2, code)

    def _formula(self, f: SetFormula):
        match f:
            case Bot():
                return (), np.full((), False), np.full((), False)
            case Eq(a, b):
                dims, va, vb = self._terms(a, b)
                if self.strict:
                    ov = (va < 0) | (vb < 0)
                else:
                    ov = (va == -2) | (vb == -2) | ((va == -1) & (vb == -1))
                return dims, (va == vb) & (va >= 0), ov
            case Mem(a, b):
                dims, va, vb = self._terms(a, b)
                tr = self.mem[np.maximum(va, 0), np.maximum(vb, 0)]
                if self.strict:
                    ov = (va < 0) | (vb < 0)
                else:
                    ov = (vb < 0) | (va == -2)
                return dims, tr & (va >= 0) & (vb >= 0), ov
            case And(l, r) | Or(l, r) | Imp(l, r):
                dl, tl, ol = self.formula(l)
                dr, tr, orr = self.formula(r)
                dims = _join(self.n, dl, dr)
                tl, ol = _expand(dl, tl, dims), _expand(dl, ol, dims)
                tr, orr = _expand(dr, tr, dims), _expand(dr, orr, dims)
                if isinstance(f, And):
                    t = tl & tr
                elif isinstance(f, Or):
                    t = tl | tr
                else:
                    t = ~tl | tr
                return dims, t, ol | orr
            case Forall(x, body) | Exists(x, body):
                db, tb, ob = self.formula(body)
                if x not in db:
                    return db, tb, ob
                ax = db.index(x)
                dims = tuple(d for d in db if d != x)
                red = np.all if isinstance(f, Forall) else np.any
                return dims, red(tb, axis=ax), np.any(ob, axis=ax)
            case _:
                raise TypeError(f"not a core set formula: {f!r}")


@dataclass(frozen=True)
class SweepReport:
    ok: bool
    counterexample: Env | None
    skipped: int
    total: int

    @property
    def checked(self) -> int:
        return self.total - self.skipped


def _sweep_arrays(f: SetFormula, variables: tuple[str, ...], U: Universe,
                  strict: bool = False, pinned=None):
    dims, tr, ov = _SweepEngine(U, strict, pinned).sweep(f)
    full = tuple(sorted(set(variables)))
    missing = set(dims) - set(full)
    if missing:
        raise EvalError(f"free variables {sorted(missing)} not among sweep variables")
    shape = (len(U.elements),) * len(full)
    tr = np.broadcast_to(_expand(dims, tr, full), shape)
    ov = np.broadcast_to(_expand(dims, ov, full), shape)
    return full, tr, ov


def _report(bad: np.ndarray, skip: np.ndarray, full: tuple[str, ...], U: Universe) -> SweepReport:
    """The first bad cell (in grid order) is the counterexample."""
    cex = None
    if bad.any():
        cex = {v: U.elements[i] for v, i in zip(full, np.argwhere(bad)[0])}
    return SweepReport(cex is None, cex, int(skip.sum()), bad.size)


def check_valid(f: SetFormula, variables, U: Universe,
                strict: bool = False) -> SweepReport:
    """True in every environment over `variables` that does not overflow."""
    full, tr, ov = _sweep_arrays(f, variables, U, strict)
    return _report(~tr & ~ov, ov, full, U)


def evaluate(node, env: Env, U: Universe):
    """A core formula's truth value or a core term's HFSet in `env`, as one
    sweep with each free variable pinned; Overflow when it escapes V_k or
    cannot be determined.  A term t is swept as u = t over a fresh u."""
    fresh = FreshNames.for_nodes(node)
    node = normalize_binders(node, fresh)  # no binder reuses a pinned name
    U.tables()  # binds np for the pinned arrays
    pinned = {x: ((), np.array(U.index_of(env[x]))) for x in free_vars(node) & env.keys()}
    if isinstance(node, SetFormula):
        _, tr, ov = _sweep_arrays(node, (), U, pinned=pinned)
        if ov:
            raise Overflow("truth value could not be determined within the rank bound")
        return bool(tr)
    u = fresh("u")
    _, tr, ov = _sweep_arrays(Eq(Var(u), node), (u,), U, pinned=pinned)
    if ov.any():
        raise Overflow("value could not be determined within the rank bound")
    if not tr.any():
        raise Overflow("value exceeds the rank bound")
    return U.elements[int(tr.argmax())]


def check_equivalence(f: SetFormula, g: SetFormula, variables, U: Universe) -> SweepReport:
    """Compare truth values in one sweep of f <-> g; overflow is skipped."""
    return check_valid(And(Imp(f, g), Imp(g, f)), variables, U)


def standard_axioms() -> list[tuple[str, SetFormula]]:
    """Open forms of the extensionality/empty/pairing/union/powerset/separation
    axioms, used as a standing sanity suite for the oracle."""
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    iff = lambda a, b: And(Imp(a, b), Imp(b, a))
    axioms = [
        ("extensionality",
         Imp(Forall("z", iff(Mem(Var("z"), x), Mem(Var("z"), y))), Eq(x, y))),
        ("empty-set", Imp(Mem(x, Empty()), Bot())),
        ("pairing", iff(Mem(x, Pair(y, z)), Or(Eq(x, y), Eq(x, z)))),
        ("union", iff(Mem(x, Union(y)), Exists("z", And(Mem(x, Var("z")), Mem(Var("z"), y))))),
        ("powerset", iff(Mem(x, Pow(y)), Forall("z", Imp(Mem(Var("z"), x), Mem(Var("z"), y))))),
    ]
    for tag, body in [("bot", Bot()), ("refl", Eq(x, x)), ("mem", Mem(x, w))]:
        sep = Sep("x", y, body)
        inst = iff(Mem(z, sep), And(Mem(z, y), subst1(body, "x", z)))
        axioms.append((f"separation-{tag}", inst))
    return axioms
