"""Certificate-checked bounded-formula classes with definable bounds.

A K0 derivation witnesses that a formula is built like a bounded formula
except that quantifier bounds may be definable elements: each bounded step
carries a witness formula `delta` that must pick out exactly one value of a
fresh variable z under the ambient hypothesis gamma.  That uniqueness
condition is a provability side condition, so the checker returns it as a
proof obligation; obligations are discharged *semantically* at a finite rank
(a necessary condition, recorded as such, never claimed as a proof).  The
checker walks the derivation alone, step by step, and compares the claimed
formula once with the one the derivation derives, up to bound names.

The bound-erasing map sends a checked derivation to a bounded formula whose
quantifier bounds are the variables z, which remain free in the output and
are reported as leftovers.

A derivation file and its gamma are read, and their formulas elaborated, in
one place (`read_case`); the checker takes core derivations only.

Each witness step is checked by one sweep of delta over gamma's grid plus z
that counts delta's true cells along z's axis (`_witness_step`): the report
that the elaborated `gamma -> exactly one z with delta` gives, over a grid
with two binder axes fewer.  Its callers sweep gamma, so an agreement check
sweeps it once.  Nodes are interned and the checks are pure, so
`k0_reconstruct` keeps its result per derivation and `discharge_obligations`
its report per obligation statement and rank, in tables with weak keys: an
entry lives as long as its derivation, and checking a derivation again, as
`check_sigma_agreement` does after its callers, is a lookup.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

from . import hf, sexp
from .core import FreshNames, Node, alpha_eq, free_vars, normalize_binders
from .hf import Env, SweepReport, _report, _sweep_arrays, check_valid, enumerate_universe
from .parser import parse_set_formula
from .set_syntax import (And, Bot, Eq, Exists, ExistsUnique, Forall, Imp, Mem,
                         Or, SetFormula, Var, elaborate, is_core)


class K0Node(Node):
    pass


class K0Atom(K0Node):
    formula: SetFormula
    binding = ((),)


class K0Conn(K0Node):
    kind: str  # "and" | "or" | "imp"
    left: K0Node
    right: K0Node
    binding = ("X", (), ())

    def __post_init__(self):
        if self.kind not in _CONN:
            raise ValueError(f"unknown connective kind {self.kind!r}")


class K0Bounded(K0Node):
    kind: str  # "existsIn" | "forallIn" | "plain"
    z: str
    delta: SetFormula
    bound_var: str  # "_" for plain steps
    body: K0Node
    binding = ("X", "X", (), "X", ())

    def __post_init__(self):
        if self.kind != "plain" and self.kind not in _BOUNDED:
            raise ValueError(f"unknown bounded-step kind {self.kind!r}")


# the derivation file's vocabulary: the set language plus the three k0 classes
K0_REGISTRY = {**sexp.SET_REGISTRY, **{c.__name__: c for c in (K0Atom, K0Conn, K0Bounded)}}

_CONN = {"and": And, "or": Or, "imp": Imp}

# bounded-step kind -> (quantifier, connective)
_BOUNDED = {"existsIn": (Exists, And), "forallIn": (Forall, Imp)}


def _bounded(kind: str, y: str, z: str, body: SetFormula) -> SetFormula:
    quant, conn = _BOUNDED[kind]
    return quant(y, conn(Mem(Var(y), Var(z)), body))


@dataclass(frozen=True)
class Obligation:
    z: str
    delta: SetFormula
    formula: SetFormula  # Imp(gamma, ExistsUnique(z, delta))
    status: str = "unchecked"  # "unchecked" | "hf_verified" | "vacuous" | "refuted"
    rank: int | None = None
    counterexample: Env | None = None


@dataclass(frozen=True)
class Mismatch:
    path: str
    reason: str


@dataclass(frozen=True)
class ReconstructResult:
    ok: bool
    obligations: tuple[Obligation, ...] = ()
    mismatch: Mismatch | None = None


def read_case(derivation_text: str, gamma_text: str) -> tuple[K0Node, SetFormula]:
    """A derivation file and its gamma file, read: the derivation with its
    formulas elaborated, and gamma elaborated with its binders normalized."""
    d, gamma = sexp.loads(derivation_text, K0_REGISTRY, K0Node), parse_set_formula(gamma_text)
    fresh = FreshNames.for_nodes(d, gamma)
    return elaborate(d, fresh), normalize_binders(elaborate(gamma, fresh), fresh)


def derived_formula(d: K0Node) -> SetFormula:
    """The formula a derivation claims to derive."""
    return _formula(d, None)


def _formula(d: K0Node, leftovers: list[str] | None) -> SetFormula:
    """The derived formula; with a `leftovers` list, the bound-erased one,
    which drops each witness conjunct and appends the witness variables of
    the bounded steps to `leftovers` in preorder."""
    match d:
        case K0Atom(a):
            return a
        case K0Conn(kind, l, r):
            return _CONN[kind](_formula(l, leftovers), _formula(r, leftovers))
        case K0Bounded(kind, z, delta, y, body):
            if leftovers is not None and kind != "plain":
                leftovers.append(z)
            f = _formula(body, leftovers)
            if kind != "plain":
                f = _bounded(kind, y, z, f)
            return f if leftovers is not None else Exists(z, And(delta, f))
        case _:
            raise TypeError(f"not a K0 derivation node: {d!r}")


# derivation -> {(phi, gamma): ReconstructResult}
_RECONSTRUCTED = weakref.WeakKeyDictionary()
# obligation statement -> {rank: SweepReport}
_DISCHARGED = weakref.WeakKeyDictionary()


def k0_reconstruct(phi: SetFormula, gamma: SetFormula, d: K0Node) -> ReconstructResult:
    """Walk d in preorder, checking the side conditions of each step under
    gamma, then compare phi once with the formula d derives, up to the names
    of bound variables; return the uniqueness obligations of its bounded
    steps (in outermost-first order).  Kept per derivation while it lives."""
    results = _RECONSTRUCTED.setdefault(d, {})
    if (phi, gamma) not in results:
        results[phi, gamma] = _reconstruct(phi, gamma, d)
    return results[phi, gamma]


def _reconstruct(phi: SetFormula, gamma: SetFormula, d: K0Node) -> ReconstructResult:
    loose = free_vars(phi) - free_vars(gamma)
    if loose:
        return ReconstructResult(False, mismatch=Mismatch(
            "root", f"free variables {sorted(loose)} of the formula are not free in gamma"))
    obligations: list[Obligation] = []
    seen_z: set[str] = set()

    def go(d: K0Node, path: str, bound: frozenset = frozenset()) -> Mismatch | None:
        match d:
            case K0Atom(Bot() | Eq(Var(), Var()) | Mem(Var(), Var())):
                return None
            case K0Atom(_):
                return Mismatch(path, "atoms must be falsum or equality/membership of variables")
            case K0Conn(_, l, r):
                return go(l, path + ".left", bound) or go(r, path + ".right", bound)
            case K0Bounded(kind, z, delta, y, body):
                if z in seen_z:
                    return Mismatch(path, f"bound witness variable {z!r} reused")
                if z in free_vars(gamma):
                    return Mismatch(path, f"witness variable {z!r} is not fresh for gamma")
                stray = free_vars(delta) - free_vars(gamma) - {z}
                if stray:
                    return Mismatch(path, f"witness formula mentions {sorted(stray)} beyond gamma and {z!r}")
                captured = sorted((free_vars(delta) | {z}) & bound)
                if captured:
                    return Mismatch(path, f"witness step mentions {captured}, bound by an enclosing step")
                if kind != "plain" and y == z:
                    return Mismatch(path, f"bounded variable {y!r} captures the step's own witness variable")
                if not is_core(delta):
                    return Mismatch(path, "witness formula contains sugar; elaborate it first")
                seen_z.add(z)
                obligations.append(Obligation(z, delta, Imp(gamma, ExistsUnique(z, delta))))
                return go(body, path + ".body", bound if kind == "plain" else bound | {y})

    mism = go(d, "root")
    if not mism and not alpha_eq(phi, derived_formula(d)):
        mism = Mismatch("root", "formula differs from the one the derivation derives")
    if mism:
        return ReconstructResult(False, mismatch=mism)
    return ReconstructResult(True, obligations=tuple(obligations))


def _witness_step(gvars: tuple[str, ...], z: str, delta: SetFormula, U, strict: bool):
    """Sweep delta over the grid of `gvars` plus z and count its true cells
    along z's axis.  Returns, over the grid, the mask where delta overflows at
    some z, the mask of exactly one z, and the first z where delta holds."""
    full, tr, ov = _sweep_arrays(delta, gvars + (z,), U, strict)
    ax = full.index(z)
    return ov.any(axis=ax), tr.sum(axis=ax) == 1, tr.argmax(axis=ax)


def _discharge(statement: SetFormula, rank: int) -> SweepReport:
    """The strict sweep of the core `gamma -> exactly one z with delta`, kept
    per statement and rank: the report `check_valid` gives on its elaboration."""
    reports = _DISCHARGED.setdefault(statement, {})
    if rank not in reports:
        U, gvars = enumerate_universe(rank), tuple(sorted(free_vars(statement)))
        _, g_tr, g_ov = _sweep_arrays(statement.left, gvars, U, strict=True)
        d_ov, one, _ = _witness_step(gvars, statement.right.binder, statement.right.body, U, strict=True)
        skip = g_ov | d_ov
        reports[rank] = _report(g_tr & ~one & ~skip, skip, gvars)
    return reports[rank]


def discharge_obligations(obligations, rank: int) -> tuple[Obligation, ...]:
    """Model-check each uniqueness obligation over V_rank.  A pass is recorded
    as hf_verified at that rank, which is necessary, not sufficient, or as
    vacuous if it skipped every environment.  Checked in strict mode: an
    environment where the witness escapes the universe is skipped, not
    counted against the obligation."""
    out = []
    for ob in obligations:
        rep = _discharge(ob.formula, rank)
        if rep.ok:
            out.append(replace(ob, status="vacuous" if rep.vacuous else "hf_verified", rank=rank))
        else:
            out.append(replace(ob, status="refuted", rank=rank,
                               counterexample=rep.counterexample))
    return tuple(out)


class SigmaError(ValueError):
    pass


@dataclass(frozen=True)
class SigmaResult:
    formula: SetFormula
    leftover_bounds: tuple[str, ...]  # witness variables left free in the output


def sigma(d: K0Node, obligations) -> SigmaResult:
    """Erase definable bounds: each bounded step becomes a plain bounded
    quantifier over its witness variable, which stays free in the output."""
    bad = [ob for ob in obligations if ob.status != "hf_verified"]
    if bad:
        raise SigmaError(f"obligation for {bad[0].z!r} is {bad[0].status}; "
                         "all obligations must be hf_verified")
    leftovers: list[str] = []
    formula = _formula(d, leftovers)
    return SigmaResult(formula, tuple(leftovers))


def check_separation_lemma(d: K0Node, gamma: SetFormula, rank: int,
                           var: str = "x") -> SweepReport:
    """Model-check that the derived formula admits separation: under gamma,
    every set has a subset of exactly the members satisfying the formula."""
    phi = derived_formula(d)
    fresh = FreshNames.for_nodes(phi, gamma)
    v, vp = fresh("v"), fresh("v")
    member = And(Imp(Mem(Var(var), Var(vp)), And(Mem(Var(var), Var(v)), phi)),
                 Imp(And(Mem(Var(var), Var(v)), phi), Mem(Var(var), Var(vp))))
    claim = Imp(gamma, Forall(v, Exists(vp, Forall(var, member))))
    U = enumerate_universe(rank)
    return check_valid(claim, free_vars(claim), U)


@dataclass(frozen=True)
class AgreementReport:
    ok: bool
    envs_checked: int
    envs_skipped: int
    counterexample: Env | None = None

    @property
    def vacuous(self) -> bool:  # no environment was checked: a pass is no evidence
        return self.envs_checked == 0


def check_sigma_agreement(d: K0Node, gamma: SetFormula, rank: int) -> AgreementReport:
    """In every environment satisfying gamma, extending by the unique
    witnesses, the derived formula and its bound-erased image agree.

    Environments are gamma's free variables, sorted, in itertools.product
    order.  Gamma overflowing skips one; gamma false leaves it uncounted.
    Each step's z needs a witness (no overflow along z's axis of delta,
    exactly one true cell); without one, or if the derived formula or the
    image overflows, the environment is skipped, else it is checked.  On a
    disagreement the counts stop there, and that environment plus its
    witnesses is the counterexample.  Each formula is one sweep, and each
    witness one `_witness_step`; the image is swept over gamma's grid with
    the witnesses pinned.  Reconstruction and discharge that the caller has
    already run are looked up, not run again."""
    U = enumerate_universe(rank)
    phi = derived_formula(d)
    res = k0_reconstruct(phi, gamma, d)
    if not res.ok:
        raise SigmaError(f"derivation does not reconstruct: {res.mismatch}")
    sg = sigma(d, discharge_obligations(res.obligations, rank))
    gvars = tuple(sorted(free_vars(gamma)))
    _, g_tr, skip = _sweep_arrays(gamma, gvars, U)
    counted, skip = g_tr & ~skip, skip.copy()
    pinned = {}
    for ob in res.obligations:
        ob_skip, one, witness = _witness_step(gvars, ob.z, ob.delta, U, strict=False)
        lost = counted & (ob_skip | ~one)
        skip, counted = skip | lost, counted & ~lost
        pinned[ob.z] = (gvars, witness)
    _, p_tr, p_ov = _sweep_arrays(phi, gvars, U)
    _, s_tr, s_ov = _sweep_arrays(sg.formula, gvars, U, pinned=pinned)
    lost = counted & (p_ov | s_ov)
    skip, counted = (skip | lost).ravel(), (counted & ~lost).ravel()
    differ = counted & (p_tr != s_tr).ravel()
    if not differ.any():
        return AgreementReport(True, int(counted.sum()), int(skip.sum()))
    i = int(differ.argmax())
    cell = hf.np.unravel_index(i, g_tr.shape)
    env = {x: int(c) for x, c in zip(gvars, cell)}
    env.update((z, int(w[cell])) for z, (_, w) in pinned.items())
    return AgreementReport(False, int(counted[:i + 1].sum()), int(skip[:i + 1].sum()), env)
