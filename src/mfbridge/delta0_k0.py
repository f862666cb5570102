"""Certificate-checked bounded-formula classes with definable bounds.

A K0 derivation witnesses that a formula is built like a bounded formula
except that quantifier bounds may be definable elements: each bounded step
carries a witness formula `delta` that must pick out exactly one value of a
fresh variable z under the ambient hypothesis gamma.  That uniqueness
condition is a provability side condition, so the checker returns it as a
proof obligation; obligations are discharged *semantically* at a finite rank
(a necessary condition, recorded as such, never claimed as a proof).

The bound-erasing map sends a checked derivation to a bounded formula whose
quantifier bounds are the variables z, which remain free in the output and
are reported as leftovers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from . import hf
from .core import FreshNames, Node, alpha_eq_under, free_vars, normalize_binders
from .hf import Env, SweepReport, _sweep_arrays, check_valid, enumerate_universe
from .set_syntax import (And, Bot, Eq, Exists, ExistsUnique, Forall, Imp, Mem,
                         Or, SetFormula, Var, elaborate, is_delta0)
from .set_syntax import TheoryFlavor


class K0Node(Node):
    pass


K0Node.var_cls = Var


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


K0_CLASSES = (K0Atom, K0Conn, K0Bounded)

_CONN = {"and": And, "or": Or, "imp": Imp}

# bounded-step kind -> (quantifier, connective, noun, the shape it must have)
_BOUNDED = {"existsIn": (Exists, And, "existential", "ex y. y in z /\\ ..."),
            "forallIn": (Forall, Imp, "universal", "all y. y in z -> ...")}


def _bounded(kind: str, y: str, z: str, body: SetFormula) -> SetFormula:
    quant, conn, _, _ = _BOUNDED[kind]
    return quant(y, conn(Mem(Var(y), Var(z)), body))


@dataclass(frozen=True)
class Obligation:
    z: str
    delta: SetFormula
    formula: SetFormula  # gamma -> exactly one z with delta
    status: str = "unchecked"  # "unchecked" | "hf_verified" | "refuted"
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


def _atom_ok(f: SetFormula) -> bool:
    match f:
        case Bot() | Eq(Var(_), Var(_)) | Mem(Var(_), Var(_)):
            return True
        case _:
            return False


def k0_reconstruct(phi: SetFormula, gamma: SetFormula, d: K0Node) -> ReconstructResult:
    """Check that d derives exactly phi under gamma; return the uniqueness
    obligations of its bounded steps (in outermost-first order)."""
    loose = free_vars(phi) - free_vars(gamma)
    if loose:
        return ReconstructResult(False, mismatch=Mismatch(
            "root", f"free variables {sorted(loose)} of the formula are not free in gamma"))
    obligations: list[Obligation] = []
    seen_z: set[str] = set()

    # `pairs` lists (phi's binder, d's binder) of the enclosing steps, so
    # phi is compared with d up to the names of those binders
    def go(phi: SetFormula, d: K0Node, path: str, bound: frozenset = frozenset(),
           pairs: tuple = ()) -> Mismatch | None:
        match d:
            case K0Atom(a):
                if not _atom_ok(a):
                    return Mismatch(path, "atoms must be falsum or equality/membership of variables")
                if not alpha_eq_under(phi, a, pairs):
                    return Mismatch(path, "formula does not match the atom certificate")
                return None
            case K0Conn(kind, l, r):
                if not isinstance(phi, _CONN[kind]):
                    return Mismatch(path, f"expected a {kind} connective")
                return (go(phi.left, l, path + ".left", bound, pairs)
                        or go(phi.right, r, path + ".right", bound, pairs))
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
                seen_z.add(z)
                if not isinstance(phi, Exists):
                    return Mismatch(path, "expected an existential over the witness variable")
                pairs += ((phi.binder, z),)
                if not isinstance(phi.body, And):
                    return Mismatch(path, "expected (witness /\\ rest) under the existential")
                dl, rest = phi.body.left, phi.body.right
                if not alpha_eq_under(dl, delta, pairs):
                    return Mismatch(path, "witness formula differs from the certificate")
                obligations.append(_make_obligation(gamma, z, delta))
                if kind == "plain":
                    return go(rest, body, path + ".body", bound, pairs)
                quant, conn, noun, shape = _BOUNDED[kind]
                if not isinstance(rest, quant):
                    return Mismatch(path, f"expected a bounded {noun}")
                pairs += ((rest.binder, y),)
                guard = Mem(Var(y), Var(z))
                if isinstance(rest.body, conn) and alpha_eq_under(rest.body.left, guard, pairs):
                    return go(rest.body.right, body, path + ".body", bound | {y}, pairs)
                return Mismatch(path, f"bounded {noun} must have shape {shape}")
            case _:
                return Mismatch(path, f"not a derivation node: {d!r}")

    mism = go(phi, d, "root")
    if mism:
        return ReconstructResult(False, mismatch=mism)
    return ReconstructResult(True, obligations=tuple(obligations))


def _make_obligation(gamma: SetFormula, z: str, delta: SetFormula) -> Obligation:
    fresh = FreshNames.for_nodes(gamma, delta)
    formula = elaborate(Imp(gamma, ExistsUnique(z, delta)), fresh)
    return Obligation(z, delta, formula)


def discharge_obligations(obligations, rank: int) -> tuple[Obligation, ...]:
    """Model-check each uniqueness obligation over V_rank.  A pass is recorded
    as hf_verified at that rank, which is necessary, not sufficient.  Checked
    in strict mode: an environment where the witness escapes the universe is
    skipped, not counted against the obligation."""
    U = enumerate_universe(rank)
    out = []
    for ob in obligations:
        rep = check_valid(ob.formula, free_vars(ob.formula), U, strict=True)
        if rep.ok:
            out.append(replace(ob, status="hf_verified", rank=rank))
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

    def is_delta0_with_leftovers_free(self, flavor: TheoryFlavor = TheoryFlavor.IZF) -> bool:
        return is_delta0(self.formula, flavor)


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


def check_sigma_agreement(d: K0Node, gamma: SetFormula, rank: int) -> AgreementReport:
    """In every environment satisfying gamma, extending by the unique
    witnesses, the derived formula and its bound-erased image agree.

    Environments are gamma's free variables, sorted, in itertools.product
    order.  Gamma overflowing skips one; gamma false leaves it uncounted.
    Each step's z needs a witness (no overflow along z's axis of delta,
    exactly one true cell); without one, or if the derived formula or the
    image overflows, the environment is skipped, else it is checked.  On a
    disagreement the counts stop there, and that environment plus its
    witnesses is the counterexample.  Each formula is one sweep; the image
    is swept over gamma's grid with the witnesses pinned."""
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
        full, tr, ov = _sweep_arrays(ob.delta, gvars + (ob.z,), U)
        ax = full.index(ob.z)
        lost = counted & ((tr.sum(axis=ax) != 1) | ov.any(axis=ax))
        skip, counted = skip | lost, counted & ~lost
        pinned[ob.z] = (gvars, tr.argmax(axis=ax))
    # keep the image's binders off gamma's variables and the witness names,
    # so no binder captures an axis of a pinned array
    names = [Eq(Var(x), Var(x)) for x in gvars + tuple(pinned)]
    image = normalize_binders(And(sg.formula, functools.reduce(And, names, Bot()))).left
    _, p_tr, p_ov = _sweep_arrays(phi, gvars, U)
    _, s_tr, s_ov = _sweep_arrays(image, gvars, U, pinned=pinned)
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
