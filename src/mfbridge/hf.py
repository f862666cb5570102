"""Brute-force semantic oracle over rank-bounded hereditarily finite sets.

An HF set is its Ackermann code, a plain int: x is a member of s iff bit x
of s is set, so {} = 0, {{}} = 1, {{{}}} = 2, {{},{{}}} = 3.  Listing V_k by
code lists it in order of rank, so V_k is exactly the codes 0 .. |V_k| - 1;
`members`, `make_hf` and `rank` decode, build and measure a set.

Classical Tarskian semantics; quantifiers range over the whole universe.
Values that would exceed the rank bound raise Overflow, which the sweep
drivers treat as "skip this environment" (the logic itself stays two-valued).

Term evaluation is three-valued at the harness level: a code, BIG (the true
value definitely has rank above the bound, e.g. a pair of two in-universe
sets that is one rank too high), or UNKNOWN (the value could not be
determined, e.g. a separation whose body was undecidable).  BIG and UNKNOWN
are the negative ints -1 and -2 in both engines, and rows of the sweep
engine's tables, so there a lookup propagates them (`Universe.tables`).
Atoms decide wherever soundness allows: equality against a BIG value is
false unless both sides are BIG; a BIG value is never a member of an
in-universe one.  Without this the pair-building existential inside the
list-length abbreviation would overflow in every environment.  Everything
else propagates Overflow, and evaluation never short-circuits, so overflow
behaves identically in both evaluation engines.

Two independent engines are provided and cross-checked in the test suite:

  * a vectorized sweep engine: as an element's index is its code,
    membership and the term constructors become table lookups.  The tables
    are array expressions over the codes (i is a member of j iff bit i of j
    is set), and a separation is a gather of its bound's membership row
    along the binder axis followed by a bit-weighted sum of the kept
    members, so no step loops over cells in Python.  It is the one engine
    every command runs on: check_valid / check_equivalence (the property
    sweeps), k0 obligation discharge and the k0 agreement check, which pins
    each witness variable to a code array over gamma's grid, and
    `evaluate` (`mfbridge eval`), one sweep with every free variable
    pinned to its value.  Its tables are n x n, so ranks stop at MAX_RANK;
  * eval_term / eval_formula — plain recursion on the members of each value,
    deciding overflow by `rank`, reference-only: the differential tests and
    the benchmark's checks.  It reads none of the engine's tables or bounds.

A sweep evaluates each structurally distinct subtree once: a pre-pass counts
each node's requests, and its arrays stay in a memo until the last one.  That
is sound, as the arrays depend only on the subtree, `strict` and `pinned`.
A formula's overflow mask spans only its overflowing atoms' variables, usually
none, so the memo rarely holds, and a connective rarely builds, a full-size mask;
a separation whose body's mask is empty skips its mask pass altogether.

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
# the two values that are not codes, in both engines
BIG = -1      # the true value definitely has rank above the bound
UNKNOWN = -2  # the value could not be determined


class Overflow(Exception):
    """A value escaped the rank-bounded universe."""


class EvalError(Exception):
    pass


class CellCapError(ValueError):
    """A sweep grid over the engine's cell cap."""


def make_hf(xs) -> int:
    """The set whose members are the codes `xs`."""
    return sum(1 << c for c in set(xs))


def members(s: int) -> list[int]:
    """The codes of s's members, ascending: the positions of its set bits."""
    return [i for i in range(s.bit_length()) if s >> i & 1]


@lru_cache(maxsize=None)
def rank(s: int) -> int:
    """1 + the largest rank of a member; 0 for the empty set."""
    return 1 + max(map(rank, members(s)), default=-1)


EMPTY = 0


def nat(n: int) -> int:
    """The von Neumann natural n: n+1 = n | {n}."""
    s = EMPTY
    for _ in range(n):
        s |= 1 << s
    return s


def print_hf(s: int) -> str:
    return "{" + ",".join(print_hf(c) for c in members(s)) + "}"


def print_env(env: Env) -> str:
    """`k={...}` for each variable, sorted by name, joined by ', '."""
    return ", ".join(f"{k}={print_hf(v)}" for k, v in sorted(env.items()))


def parse_hf(text: str) -> int:
    """Read a set literal such as {{},{{}}}.  A literal of rank above MAX_RANK
    lies outside every universe a command sweeps, and its Ackermann code grows
    as a tower of exponentials in the rank, so it is refused while being read."""
    s, rest = _parse_hf(text.strip(), MAX_RANK + 1)
    if rest.strip():
        raise ValueError(f"trailing input in set literal: {rest!r}")
    return s


def _parse_hf(text: str, levels: int) -> tuple[int, str]:
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


def parse_env(text: str) -> dict[str, int]:
    """Parse an environment literal like "x={},y={{}}"."""
    env: dict[str, int] = {}
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
    """All HF sets of rank <= k, by code: V_{k+1} is every subset of V_k,
    so V_k's codes are 0 .. n-1 with n = 1, 2, 4, 16 for k = 0 .. 3."""

    def __init__(self, k: int):
        if not 0 <= k <= MAX_RANK:
            raise ValueError(f"rank {k} outside 0..{MAX_RANK}")
        self.k = k
        n = 1
        for _ in range(k):
            n = 1 << n
        self.elements = range(n)
        self.omega = make_hf(nat(i) for i in range(k))
        self._tables = None

    def __len__(self):
        return len(self.elements)

    def index_of(self, s: int) -> int:
        if s >= len(self.elements):
            raise Overflow(f"value of rank {rank(s)} not in V_{self.k}")
        return s

    def tables(self):
        """(mem, pair, union, pow) over the codes, BIG where a value escapes V_k, each
        axis ending in an UNKNOWN and a BIG row (numpy's -2 and -1): pair is BIG where
        either side is, else UNKNOWN; union is UNKNOWN; pow keeps each; mem is False."""
        global np
        if self._tables is None:
            import numpy as np
            n = len(self.elements)
            code = np.arange(n, dtype=np.int64)
            mem = ((code[None, :] >> code[:, None]) & 1).astype(bool)  # bit i of j
            bit = 1 << code
            pair = np.pad(bit[:, None] | bit[None, :], (0, 2), constant_values=UNKNOWN)
            pair[pair >= n] = pair[BIG] = pair[:, BIG] = BIG
            union = np.bitwise_or.reduce(np.where(mem, code[:, None], 0), axis=0)
            subset = (code[:, None] & code[None, :]) == code[:, None]  # s within i
            pw = np.where(subset, bit[:, None], 0).sum(axis=0)
            self._tables = (np.pad(mem, (0, 2)), pair, np.append(union, [UNKNOWN, UNKNOWN]),
                            np.append(np.where(pw < n, pw, BIG), [UNKNOWN, BIG]))
        return self._tables


@lru_cache(maxsize=None)
def enumerate_universe(k: int) -> Universe:
    return Universe(k)


Env = dict[str, int]


# -- reference recursive evaluator ---------------------------------------------

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
            if BIG in (va, vb):
                return BIG  # a pair with a too-big member is itself too big
            if UNKNOWN in (va, vb):
                return UNKNOWN
            if max(rank(va), rank(vb)) + 1 > U.k:
                return BIG
            return make_hf((va, vb))
        case Union(a):
            va = _eval(a, env, U, strict)
            if va < 0:
                return UNKNOWN  # a union can drop back below the bound
            return make_hf(c for m in members(va) for c in members(m))
        case Pow(a):
            va = _eval(a, env, U, strict)
            if va < 0:
                return va
            if rank(va) + 1 > U.k:
                return BIG
            kids = members(va)
            return make_hf(make_hf(comb) for r in range(len(kids) + 1)
                           for comb in itertools.combinations(kids, r))
        case Sep(x, bound, body):
            vb = _eval(bound, env, U, strict)
            if vb < 0:
                return UNKNOWN
            kept = []
            for m in members(vb):
                try:
                    keep = eval_formula(body, {**env, x: m}, U, strict)
                except Overflow:
                    return UNKNOWN  # subset of an in-universe set, but unidentified
                if keep:
                    kept.append(m)
            return make_hf(kept)
        case _:
            raise TypeError(f"not a core set term: {t!r}")


def eval_term(t: SetTerm, env: Env, U: Universe) -> int:
    v = _eval(t, env, U)
    if v == BIG:
        raise Overflow("value exceeds the rank bound")
    if v == UNKNOWN:
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
            if strict and (va < 0 or vb < 0):
                raise Overflow("value escapes the rank bound")
            if UNKNOWN in (va, vb) or va == vb == BIG:
                raise Overflow("equality undetermined at this rank")
            return va == vb
        case Mem(a, b):
            va, vb = _eval(a, env, U, strict), _eval(b, env, U, strict)
            if strict and (va < 0 or vb < 0):
                raise Overflow("value escapes the rank bound")
            if vb < 0 or va == UNKNOWN:
                raise Overflow("membership undetermined at this rank")
            return va != BIG and va in members(vb)
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
# code, or BIG or UNKNOWN); a formula denotes (dims, truth, overflow dims,
# overflow), two boolean arrays over their own dims: the overflow dims are a
# subset of the truth's, () wherever no atom below overflows, and only
# `_sweep_arrays` widens both to the sweep grid.  Dimension name tuples are
# kept sorted, so an array's axes always appear in the same order as any
# enclosing grid's.

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


def _narrow(dims: tuple[str, ...], ov: np.ndarray):
    """An atom's overflow mask, over no dims at all where it is empty."""
    return (dims, ov) if ov.any() else ((), np.False_)


class _SweepEngine:
    # `pinned` maps a name to a fixed (dims, code array) value; `_sweep_arrays`
    # renames the formula's binders off every pinned name and dim
    def __init__(self, U: Universe, strict: bool = False, pinned=None):
        self.U = U
        self.strict = strict
        self.pinned = pinned or {}
        self.n = len(U.elements)
        self.mem, self.pair, self.union, self.pow = U.tables()
        self.memo, self.uses = {}, {}  # node -> arrays; node -> requests still to come

    def sweep(self, f: SetFormula):
        """`f`'s (dims, truth, overflow dims, overflow); each distinct subtree once."""
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
                return (), np.full((), self.U.omega, dtype=np.int64)
            case Pair(a, b):
                dims, va, vb = self._terms(a, b)
                return dims, self.pair[va, vb]
            case Union(a):
                da, va = self.term(a)
                return da, self.union[va]
            case Pow(a):
                da, va = self.term(a)
                return da, self.pow[va]
            case Sep(x, bound, body):
                return self._sep(x, bound, body)
            case _:
                raise TypeError(f"not a core set term: {t!r}")

    def _sep(self, x: str, bound: SetTerm, body: SetFormula):
        # gather the bound's membership row along the binder axis, then sum
        # the bits of the members the body keeps; any overflowing member
        # (or an escaping bound) leaves the value undetermined; a body whose
        # mask is empty, as nearly every one is, costs no pass.  The gather
        # adds the binder axis next to the bound's, so the binder must not
        # be one of them: Sep keeps it out of the bound's free variables,
        # and `_sweep_arrays` keeps it off the pinned dims
        db, vb = self.term(bound)
        assert x not in db, f"separation binder {x!r} is an axis of its bound"
        df, tr, odf, ov = self.formula(body)
        out_dims = _join(self.n, db, set(df) - {x})
        full = _join(self.n, out_dims, {x})
        xpos = full.index(x)
        B = _expand(db, vb, out_dims)
        inb = np.moveaxis(self.mem[:self.n, B], 0, xpos)
        bad = B < 0
        if odf or ov:
            bad = bad | (inb & _expand(odf, ov, full)).any(axis=xpos)
        code = np.moveaxis(inb & _expand(df, tr, full), xpos, -1) @ (1 << np.arange(self.n))
        return out_dims, np.where(bad, UNKNOWN, code)

    def _formula(self, f: SetFormula):
        match f:
            case Bot():
                return (), np.full((), False), (), np.full((), False)
            case Eq(a, b):
                dims, va, vb = self._terms(a, b)
                if self.strict:
                    ov = (va < 0) | (vb < 0)
                else:
                    ov = (va == UNKNOWN) | (vb == UNKNOWN) | ((va == BIG) & (vb == BIG))
                return dims, (va == vb) & (va >= 0), *_narrow(dims, ov)
            case Mem(a, b):
                dims, va, vb = self._terms(a, b)
                if self.strict:
                    ov = (va < 0) | (vb < 0)
                else:
                    ov = (vb < 0) | (va == UNKNOWN)
                return dims, self.mem[va, vb], *_narrow(dims, ov)
            case And(l, r) | Or(l, r) | Imp(l, r):
                dl, tl, odl, ol = self.formula(l)
                dr, tr, odr, orr = self.formula(r)
                dims, od = _join(self.n, dl, dr), _join(self.n, odl, odr)
                tl, tr = _expand(dl, tl, dims), _expand(dr, tr, dims)
                if isinstance(f, And):
                    t = tl & tr
                elif isinstance(f, Or):
                    t = tl | tr
                else:
                    t = tl <= tr
                return dims, t, od, _expand(odl, ol, od) | _expand(odr, orr, od)
            case Forall(x, body) | Exists(x, body):
                db, tb, odb, ob = self.formula(body)
                if x in db:
                    red = np.all if isinstance(f, Forall) else np.any
                    db, tb = tuple(d for d in db if d != x), red(tb, axis=db.index(x))
                if x in odb:
                    odb, ob = tuple(d for d in odb if d != x), np.any(ob, axis=odb.index(x))
                return db, tb, odb, ob
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

    @property
    def vacuous(self) -> bool:  # every environment was skipped: a pass is no evidence
        return self.checked == 0 < self.total


def _sweep_arrays(f: SetFormula, variables: tuple[str, ...], U: Universe,
                  strict: bool = False, pinned=None):
    if pinned:
        f = normalize_binders(f, avoid=frozenset(pinned).union(*(d for d, _ in pinned.values())))
    dims, tr, odims, ov = _SweepEngine(U, strict, pinned).sweep(f)
    full = tuple(sorted(set(variables)))
    missing = set(dims) - set(full)
    if missing:
        raise EvalError(f"free variables {sorted(missing)} not among sweep variables")
    shape = (len(U.elements),) * len(full)
    tr = np.broadcast_to(_expand(dims, tr, full), shape)
    ov = np.broadcast_to(_expand(odims, ov, full), shape)
    return full, tr, ov


def _report(bad: np.ndarray, skip: np.ndarray, full: tuple[str, ...]) -> SweepReport:
    """The first bad cell (in grid order) is the counterexample."""
    cex = None
    if bad.any():
        cex = {v: int(i) for v, i in zip(full, np.argwhere(bad)[0])}
    return SweepReport(cex is None, cex, int(skip.sum()), bad.size)


def check_valid(f: SetFormula, variables, U: Universe,
                strict: bool = False) -> SweepReport:
    """True in every environment over `variables` that does not overflow."""
    full, tr, ov = _sweep_arrays(f, variables, U, strict)
    return _report(~tr & ~ov, ov, full)


def evaluate(node, env: Env, U: Universe):
    """A core formula's truth value or a core term's code in `env`, as one
    sweep with each free variable pinned; Overflow when it escapes V_k or
    cannot be determined.  A term t is swept as u = t over a fresh u."""
    U.tables()  # binds np for the pinned arrays
    pinned = {x: ((), np.array(U.index_of(env[x]))) for x in free_vars(node) & env.keys()}
    if isinstance(node, SetFormula):
        _, tr, ov = _sweep_arrays(node, (), U, pinned=pinned)
        if ov:
            raise Overflow("truth value could not be determined within the rank bound")
        return bool(tr)
    u = FreshNames.for_nodes(node)("u")
    _, tr, ov = _sweep_arrays(Eq(Var(u), node), (u,), U, pinned=pinned)
    if ov.any():
        raise Overflow("value could not be determined within the rank bound")
    if not tr.any():
        raise Overflow("value exceeds the rank bound")
    return int(tr.argmax())


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
