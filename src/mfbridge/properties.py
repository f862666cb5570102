"""Seeded random generators and check drivers for the translation properties.

Every check is reproducible from (seed, config).  `PROPERTIES` declares each
property once: its runner and the `check` options it reads.  A drawn
property runs through `_sampled`, where a sample holds one subject per
component (`freevars` draws three); a subject whose rank-bounded sweep skips
too much to overflow (so a pass would be vacuous) or whose grid is over the
cell cap is regenerated shallower, and a failing one is shrunk, each on its
own.  `check_axioms` sweeps eight fixed forms instead.

One generator, `_g`, draws all five sorts from the node declarations.  It
draws a class from the sort's pool: `_LEAVES` at depth <= 0, above it the
leaf pool followed by `_INNER` (for pre-propositions `_INNER` alone).  Omega
joins the leaves under `omega_allowed`; the list eliminator joins the
pre-term pool at the top call or under `deep_el_list`.  A drawn class gets a
fresh binder for each "B" field, in field order; then each child field is
drawn at its annotated sort one level down (the list eliminator's at depth
0), in scope of the binders its `binding` spec lists.  `_OVERRIDES` names
the child fields drawn otherwise: annotations come from a small pool, the
quotient eliminator's relation is fixed and its annotation closed, and the
scrutinees of the two eliminators whose value clauses discard their
argument are drawn closed: with open scrutinees there the
same-free-variables contract of the proposition translation provably fails,
which is a property of the translation clauses, not of this implementation.
The ASTs are well-formed and binder-distinct.

Every draw goes through `_Gen.choose`, which records the index it takes, so a
sample is its list of choice indexes.  A replayed list is read in order, each
entry clamped to the last index of its pool, then padded with 0 (a leaf, or
the first name in scope), so every list replays to a well-formed sample.
`_minimize` shrinks a failing subject's list: shorter prefixes, then single
entries set to 0 or lowered by one, each taken only if the failure reproduces.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from . import emtt_syntax as pre
from . import set_syntax as fol
from .core import FreshNames, VarNode, field_sorts, free_vars
from .hat import PLACEHOLDER, HatTranslator
from .hf import (CellCapError, SweepReport, check_equivalence, check_valid, enumerate_universe, print_env,
                 standard_axioms)
from .printer import print_emtt, print_set
from .tilde import tilde_formula, tilde_term

MAX_SKIP_FRACTION = 0.3
VARIABLES = ("x", "y", "z")  # the free-variable pool of every generator


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_depth: int = 3
    rank: int = 3
    omega_allowed: bool = False
    sample_count: int = 500
    deep_el_list: bool = False  # allow recursion-eliminator nodes below the top level


@dataclass(frozen=True)
class Failure:
    index: int
    subject: str
    detail: str
    counterexample: dict | None = None


@dataclass
class CheckReport:
    property_id: str
    samples: int = 0
    skipped_envs: int = 0
    regenerated: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"property {self.property_id}: "
                 f"{'ok' if self.ok else 'FAIL'} "
                 f"({self.samples} samples, {self.skipped_envs} overflow-skipped envs, "
                 f"{self.regenerated} regenerated)"]
        for f in self.failures:
            lines.append(f"  sample {f.index}: {f.detail}")
            lines.append(f"    input: {f.subject}")
            if f.counterexample is not None:
                lines.append(f"    env: {print_env(f.counterexample)}")
        return "\n".join(lines)


def _rng(cfg: GenConfig, index: int, attempt: int = 0) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:{attempt}")


class _Gen:
    """One sample's generator state: the choice indexes it draws from an rng or
    replays from a list, and a binder-name supply kept apart from `VARIABLES`."""

    def __init__(self, cfg: GenConfig, source: random.Random | list[int]):
        self.cfg = cfg
        self.source = source
        self.choices: list[int] = []
        self._binders = 0

    def choose(self, seq):
        """One entry of `seq`; its index is recorded in `choices`."""
        if isinstance(self.source, random.Random):
            k = self.source.randrange(len(seq))
        else:
            n = len(self.choices)
            k = min(self.source[n], len(seq) - 1) if n < len(self.source) else 0
        self.choices.append(k)
        return seq[k]

    def binder(self) -> str:
        self._binders += 1
        return f"b{self._binders}"


# -- the generator -------------------------------------------------------------------

def gen(sort: type, cfg: GenConfig, index: int = 0, attempt: int = 0):
    """The seeded top-level subject of `sort` that sample `index` draws."""
    return _subject(sort)(_Gen(cfg, _rng(cfg, index, attempt)), cfg.max_depth)


# Each sort's pools; a repeated class is a weight.  `choose` draws by
# position, so the order of a pool is part of the seeded stream.
_LEAVES = {
    fol.SetFormula: (fol.Bot, fol.Eq, fol.Mem, fol.Mem),
    fol.SetTerm: (fol.Var, fol.Empty),
    pre.PreProposition: (pre.BotP, pre.EpsTerm, pre.EpsTerm, pre.EqP),
    pre.PreTerm: (pre.Var, pre.Star, pre.Eps, pre.TrueT, pre.EmptyV),
    pre.PreCollection: (pre.N0, pre.N1, pre.UnivV, pre.PowOne),
}
_OMEGA = {fol.SetTerm: fol.Omega, pre.PreTerm: pre.OmegaV}
_INNER = {
    fol.SetFormula: (fol.And, fol.Or, fol.Imp, fol.Forall, fol.Exists),
    fol.SetTerm: (fol.Pair, fol.Pair, fol.Union, fol.Sep, fol.Pow),
    # drawn in place of the leaf pool, not after it
    pre.PreProposition: (pre.BotP, pre.EpsTerm, pre.EpsCol, pre.EqP, pre.AndP, pre.OrP,
                         pre.ImpP, pre.ForallP, pre.ExistsP),
    pre.PreTerm: (pre.Emp0, pre.ElN1, pre.Cons, pre.Inl, pre.Inr, pre.ElPlus, pre.PairT,
                  pre.ElSigma, pre.Lam, pre.Ap, pre.EqCls, pre.ElQuot, pre.PropIntoP1,
                  pre.Name, pre.PairV, pre.PairV, pre.UnionV, pre.PowV, pre.SepV),
    pre.PreCollection: (pre.ListC, pre.Sum, pre.Sigma, pre.Pi, pre.Quot, pre.FunPowOne,
                        pre.Compr, pre.PropAsCol),
}


@functools.cache
def _pool(sort: type, inner: bool, omega: bool, el_list: bool) -> tuple:
    pool = _LEAVES[sort] + ((_OMEGA[sort],) if omega and sort in _OMEGA else ())
    if inner:
        pool = _INNER[sort] if sort is pre.PreProposition else pool + _INNER[sort]
        if el_list and sort is pre.PreTerm:
            pool += (pre.ElList,)
    return pool


def _g(g: _Gen, sort: type, depth: int, scope: tuple[str, ...], top: bool = False):
    """A random node of `sort`, drawn as the module docstring describes; no
    randomness is spent on binders, so they are all named before any child."""
    cfg = g.cfg
    cls = g.choose(_pool(sort, depth > 0, cfg.omega_allowed, top or cfg.deep_el_list))
    if issubclass(cls, VarNode):
        return cls(g.choose(scope + VARIABLES))
    vals = [g.binder() if spec == "B" else None for spec in cls.binding]
    below = 0 if cls is pre.ElList else depth - 1
    for j, (spec, child_sort) in enumerate(zip(cls.binding, field_sorts(cls))):
        if isinstance(spec, tuple):
            inner = scope + tuple(vals[i] for i in spec)
            make = _OVERRIDES.get((cls, j), _g)
            vals[j] = make(g, child_sort, below, inner)
    return cls(*vals)


def _subject(sort: type):
    """The draw `(g, depth) -> node` of a top-level subject of `sort`."""
    return lambda g, depth: _g(g, sort, depth, (), top=True)


def _g_closed_preterm(g: _Gen, *_) -> pre.PreTerm:
    return g.choose([pre.Star(), pre.Eps(), pre.TrueT(), pre.EmptyV()])


def _g_closed_annot(g: _Gen, *_) -> pre.PreCollection:
    # the quotient eliminator's value clause never reads its annotation, so
    # open annotations would leak variables out of the free-variable contract
    b = g.binder()
    return g.choose([pre.N0(), pre.N1(), pre.UnivV(), pre.PowOne(),
                     pre.Compr(b, pre.EqP(pre.UnivV(), pre.Var(b), pre.EmptyV())),
                     pre.Compr(b, pre.EpsTerm(pre.Var(b), pre.EmptyV()))])


def _g_annot(g: _Gen, sort: type, depth: int, scope: tuple[str, ...]) -> pre.PreCollection:
    """Annotation pool: small collections, including comprehensions."""
    kind = g.choose(["n0", "n1", "v", "v", "compr"])
    if kind == "n0":
        return pre.N0()
    if kind == "n1":
        return pre.N1()
    if kind == "compr" and depth > 0:
        x = g.binder()
        return pre.Compr(x, _g(g, pre.PreProposition, 0, scope + (x,)))
    return pre.UnivV()


# (class, field index) -> the generator of a child field that does not draw
# from its sort's pool
_OVERRIDES = {
    # closed scrutinee: the value clause discards it
    (pre.Emp0, 0): _g_closed_preterm,
    (pre.ElN1, 0): _g_closed_preterm,
    (pre.ElQuot, 0): _g_closed_annot,
    # the relation over the two binders last added to its scope
    (pre.ElQuot, 3): lambda g, sort, depth, scope: pre.EqP(pre.UnivV(), *map(pre.Var, scope[-2:])),
    **{(cls, j): _g_annot for cls, j in (
        (pre.Lam, 1), (pre.EqCls, 1), (pre.Name, 0), (pre.ElList, 0),
        (pre.EpsCol, 1), (pre.EqP, 0), (pre.ForallP, 1), (pre.ExistsP, 1))},
}


def _g_subst(g: _Gen, depth: int):
    """A substitution sample: the term t, the subjects a, A and phi, and x."""
    t = _g(g, pre.PreTerm, max(depth - 1, 0), ())
    a = _g(g, pre.PreTerm, depth, ())
    A = _g(g, pre.PreCollection, depth, ())
    phi = _g(g, pre.PreProposition, depth, ())
    return t, a, A, phi, g.choose(VARIABLES)


# -- check drivers -------------------------------------------------------------------

def _too_vacuous(rep: SweepReport) -> bool:
    return rep.total > 0 and rep.skipped / rep.total >= MAX_SKIP_FRACTION


def _minimize(choices: list[int], still_fails, budget: int = 150) -> list[int]:
    """Greedy shrink of a failing sample's choice list: move to the first
    smaller list that still fails, until none does or `budget` lists have
    been checked.  Candidates are the shorter prefixes (the rest replays as
    0), then each entry set to 0 or decremented by 1.  Every list replays to
    a well-formed sample, so the result is itself a counterexample."""
    def smaller(c):
        for n in range(len(c)):
            yield c[:n]
        for i, k in enumerate(c):
            if k:
                yield c[:i] + [0] + c[i + 1:]
                yield c[:i] + [k - 1] + c[i + 1:]

    tried = set()
    while True:
        for cand in smaller(choices):
            if tuple(cand) in tried:
                continue
            if len(tried) == budget:
                return choices
            tried.add(tuple(cand))
            if still_fails(cand):
                choices = cand
                break
        else:
            return choices


def _sampled(cfg: GenConfig, components, report: CheckReport, count: int) -> None:
    """Run `count` seeded samples; sample i holds one subject per component
    `(draw, check)`, drawn by `draw(g, depth)` from `_rng(cfg, i, attempt)`,
    checked by `check(subject, U) -> (SweepReport, subject text, detail)`,
    regenerated shallower while its sweep skips too much or goes over the
    cell cap, and minimized before it is reported if it fails."""
    U = enumerate_universe(cfg.rank)
    for i in range(count):
        for draw, check in components:
            attempt = 0
            depth = cfg.max_depth
            while True:
                g = _Gen(cfg, _rng(cfg, i, attempt))
                try:
                    rep, _, detail = check(draw(g, depth), U)
                except CellCapError:
                    if depth == 0:
                        raise
                else:
                    if not _too_vacuous(rep) or depth == 0:
                        break
                attempt += 1
                depth -= 1
                report.regenerated += 1
            report.skipped_envs += rep.skipped
            if not rep.ok:
                def still_fails(choices):
                    try:  # a candidate may have more variables than the sample
                        r, _, _ = check(draw(_Gen(cfg, choices), depth), U)
                    except CellCapError:
                        return False
                    return not r.ok and not _too_vacuous(r)
                small = draw(_Gen(cfg, _minimize(g.choices, still_fails)), depth)
                rep2, small_str, detail2 = check(small, U)
                report.failures.append(Failure(i, small_str, detail2 or detail, rep2.counterexample))
        report.samples += 1


def check_oneside(cfg: GenConfig, term_count: int | None = None) -> CheckReport:
    """Round trip: a set formula is HF-equivalent to the hat of its tilde; a
    set term's value description is HF-equivalent to equality with it."""
    report = CheckReport("oneside")

    def check_formula(psi, U):
        img = HatTranslator(FreshNames.for_nodes(psi)).hat(tilde_formula(psi))
        rep = check_equivalence(psi, img, free_vars(psi), U)
        return rep, print_set(psi), "formula not equivalent to its round-trip image"

    def check_term(a, U):
        img = HatTranslator(FreshNames.for_nodes(a)).delta(tilde_term(a))
        lhs = fol.Eq(fol.Var(PLACEHOLDER), a)
        rep = check_equivalence(lhs, img, free_vars(a) | {PLACEHOLDER}, U)
        return rep, print_set(a), "term value description differs from round-trip image"

    _sampled(cfg, [(_subject(fol.SetFormula), check_formula)], report, cfg.sample_count)
    if term_count is None:
        term_count = max(1, cfg.sample_count // 2)
    _sampled(cfg, [(_subject(fol.SetTerm), check_term)], report, term_count)
    return report


def check_delta_functional(cfg: GenConfig) -> CheckReport:
    """A pre-term's value description holds for at most one value."""
    report = CheckReport("deltafun")

    def check(tm, U):
        tr = HatTranslator(FreshNames.for_nodes(tm))
        d = tr.delta(tm)
        v = tr.fresh("v")
        d2 = fol.subst_set(d, PLACEHOLDER, fol.Var(v), tr.fresh)
        claim = fol.Imp(fol.And(d, d2), fol.Eq(fol.Var(PLACEHOLDER), fol.Var(v)))
        rep = check_valid(claim, free_vars(claim), U)
        return rep, print_emtt(tm), "two distinct values satisfy the description"

    _sampled(cfg, [(_subject(pre.PreTerm), check)], report, cfg.sample_count)
    return report


def check_substitution(cfg: GenConfig) -> CheckReport:
    """Substitution commutes with the translation, relative to the value of
    the substituted term: delta_t[v/u] -> (X[t/x]-image <-> X-image[v/x])."""
    report = CheckReport("subst")

    def check(sample, U):
        t, a, A, phi, x = sample
        subject = (f"t={print_emtt(t)}  a={print_emtt(a)}  A={print_emtt(A)}  "
                   f"phi={print_emtt(phi)}  x={x}")
        tr = HatTranslator(FreshNames.for_nodes(t, a, A, phi))
        v = tr.fresh("v")
        dt_v = fol.subst_set(tr.delta(t), PLACEHOLDER, fol.Var(v), tr.fresh)
        reps = []
        for node, trans in ((a, "delta"), (A, "eta"), (phi, "hat")):
            f = getattr(tr, trans)
            subbed = f(pre.subst_emtt(node, x, t, tr.fresh))
            image = fol.subst_set(f(node), x, fol.Var(v), tr.fresh)
            iff = fol.And(fol.Imp(subbed, image), fol.Imp(image, subbed))
            claim = fol.Imp(dt_v, iff)
            reps.append(check_valid(claim, free_vars(claim), U))
            if not reps[-1].ok:
                break
        total = SweepReport(reps[-1].ok, reps[-1].counterexample,
                            sum(r.skipped for r in reps), sum(r.total for r in reps))
        return total, subject, "" if total.ok else f"{trans}-form of the substitution property fails"

    _sampled(cfg, [(_g_subst, check)], report, cfg.sample_count)
    return report


def check_freevar_contracts(cfg: GenConfig) -> CheckReport:
    """free(hat(phi)) == free(phi); the collection and term translations stay
    within free(input) + the placeholder.  A sample draws all three inputs."""
    report = CheckReport("freevars")

    def contract(trans: str, image: str | None):
        def check(node, U):
            got = free_vars(getattr(HatTranslator(FreshNames.for_nodes(node)), trans)(node))
            want = free_vars(node)
            if image is None:
                ok, detail = got == want, f"free vars {sorted(got)} != {sorted(want)}"
            else:
                leak = got - want - {PLACEHOLDER}
                ok, detail = not leak, f"{image} image leaks variables {sorted(leak)}"
            return SweepReport(ok, None, 0, 1), print_emtt(node), "" if ok else detail
        return check

    _sampled(cfg, [(_subject(pre.PreProposition), contract("hat", None)),
                   (_subject(pre.PreCollection), contract("eta", "collection")),
                   (_subject(pre.PreTerm), contract("delta", "term"))], report, cfg.sample_count)
    return report


def check_axioms(cfg: GenConfig) -> CheckReport:
    """Standing sanity suite: the basic set axioms hold in the bounded
    universe wherever nothing overflows, and each is checked somewhere."""
    report = CheckReport("axioms")
    U = enumerate_universe(cfg.rank)
    for name, axiom in standard_axioms():
        report.samples += 1
        rep = check_valid(axiom, free_vars(axiom), U)
        report.skipped_envs += rep.skipped
        if not rep.ok:
            report.failures.append(Failure(report.samples - 1, name,
                                           "axiom fails in the bounded universe",
                                           rep.counterexample))
        elif rep.vacuous:
            report.failures.append(Failure(report.samples - 1, name,
                                           "axiom checked no environment at this rank"))
    return report


# property id -> (runner, the `check` options it reads besides --seed), in
# the order scripts/run_property_sweeps.py runs them
PROPERTIES = {
    "oneside": (check_oneside, ("samples", "rank", "depth", "omega")),
    "deltafun": (check_delta_functional, ("samples", "rank", "depth", "omega")),
    "subst": (check_substitution, ("samples", "rank", "depth", "omega")),
    "freevars": (check_freevar_contracts, ("samples", "depth", "omega")),
    "axioms": (check_axioms, ("rank",)),
}
