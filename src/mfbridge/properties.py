"""Seeded random generators and check drivers for the translation properties.

Every check is reproducible from (seed, config).  Checks sweep rank-bounded
HF environments; a sample whose sweep skips too many environments to
overflow is regenerated at a smaller depth so passes cannot go vacuous.

The generators produce well-formed, binder-distinct ASTs.  Scrutinees of the
two eliminators whose value clauses discard their argument are drawn closed
(see gen notes in the module tests): with open scrutinees there the
same-free-variables contract of the proposition translation provably fails,
which is a property of the translation clauses, not of this implementation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import emtt_syntax as pre
from . import set_syntax as fol
from .core import FreshNames, free_vars
from .hat import PLACEHOLDER, HatTranslator
from .hf import SweepReport, Universe, check_equivalence, check_valid, enumerate_universe, standard_axioms
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
                from .hf import print_hf
                env = ", ".join(f"{k}={print_hf(v)}" for k, v in sorted(f.counterexample.items()))
                lines.append(f"    env: {env}")
        return "\n".join(lines)


def _rng(cfg: GenConfig, index: int, attempt: int = 0) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:{attempt}")


class _Gen:
    """One sample's generator state: an rng plus a binder-name supply that
    keeps every binder distinct from the free-variable pool."""

    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self._binders = 0

    def binder(self) -> str:
        self._binders += 1
        return f"b{self._binders}"

    def var(self) -> str:
        return self.rng.choice(VARIABLES)


# -- set-language generators -------------------------------------------------------

def gen_set_term(cfg: GenConfig, index: int = 0, attempt: int = 0) -> fol.SetTerm:
    g = _Gen(cfg, _rng(cfg, index, attempt))
    return _g_term(g, cfg.max_depth, ())


def gen_set_formula(cfg: GenConfig, index: int = 0, attempt: int = 0) -> fol.SetFormula:
    g = _Gen(cfg, _rng(cfg, index, attempt))
    return _g_formula(g, cfg.max_depth, ())


def _g_term(g: _Gen, depth: int, scope: tuple[str, ...]) -> fol.SetTerm:
    leaves = ["var", "empty"]
    if g.cfg.omega_allowed:
        leaves.append("omega")
    if depth <= 0:
        kind = g.rng.choice(leaves)
    else:
        kind = g.rng.choice(leaves + ["pair", "pair", "union", "sep", "pow"])
    match kind:
        case "var":
            return fol.Var(g.rng.choice(scope + VARIABLES))
        case "empty":
            return fol.Empty()
        case "omega":
            return fol.Omega()
        case "pair":
            return fol.Pair(_g_term(g, depth - 1, scope), _g_term(g, depth - 1, scope))
        case "union":
            return fol.Union(_g_term(g, depth - 1, scope))
        case "pow":
            return fol.Pow(_g_term(g, depth - 1, scope))
        case "sep":
            x = g.binder()
            bound = _g_term(g, depth - 1, scope)
            body = _g_formula(g, depth - 1, scope + (x,))
            return fol.Sep(x, bound, body)


def _g_formula(g: _Gen, depth: int, scope: tuple[str, ...]) -> fol.SetFormula:
    if depth <= 0:
        kind = g.rng.choice(["bot", "eq", "mem", "mem"])
    else:
        kind = g.rng.choice(["bot", "eq", "mem", "mem", "and", "or", "imp",
                             "forall", "exists"])
    match kind:
        case "bot":
            return fol.Bot()
        case "eq":
            return fol.Eq(_g_term(g, depth - 1, scope), _g_term(g, depth - 1, scope))
        case "mem":
            return fol.Mem(_g_term(g, depth - 1, scope), _g_term(g, depth - 1, scope))
        case "and":
            return fol.And(_g_formula(g, depth - 1, scope), _g_formula(g, depth - 1, scope))
        case "or":
            return fol.Or(_g_formula(g, depth - 1, scope), _g_formula(g, depth - 1, scope))
        case "imp":
            return fol.Imp(_g_formula(g, depth - 1, scope), _g_formula(g, depth - 1, scope))
        case "forall":
            x = g.binder()
            return fol.Forall(x, _g_formula(g, depth - 1, scope + (x,)))
        case "exists":
            x = g.binder()
            return fol.Exists(x, _g_formula(g, depth - 1, scope + (x,)))


# -- pre-syntax generators -----------------------------------------------------------

def gen_preterm(cfg: GenConfig, index: int = 0, attempt: int = 0) -> pre.PreTerm:
    g = _Gen(cfg, _rng(cfg, index, attempt))
    return _g_preterm(g, cfg.max_depth, (), top=True)


def gen_preprop(cfg: GenConfig, index: int = 0, attempt: int = 0) -> pre.PreProposition:
    g = _Gen(cfg, _rng(cfg, index, attempt))
    return _g_preprop(g, cfg.max_depth, ())


def gen_precollection(cfg: GenConfig, index: int = 0, attempt: int = 0) -> pre.PreCollection:
    g = _Gen(cfg, _rng(cfg, index, attempt))
    return _g_precol(g, cfg.max_depth, ())


def _g_closed_preterm(g: _Gen) -> pre.PreTerm:
    return g.rng.choice([pre.Star(), pre.Eps(), pre.TrueT(), pre.EmptyV()])


def _g_closed_annot(g: _Gen) -> pre.PreCollection:
    # the quotient eliminator's value clause never reads its annotation, so
    # open annotations would leak variables out of the free-variable contract
    b = g.binder()
    return g.rng.choice([pre.N0(), pre.N1(), pre.UnivV(), pre.PowOne(),
                         pre.Compr(b, pre.EqP(pre.UnivV(), pre.Var(b), pre.EmptyV())),
                         pre.Compr(b, pre.EpsTerm(pre.Var(b), pre.EmptyV()))])


def _g_precol(g: _Gen, depth: int, scope: tuple[str, ...]) -> pre.PreCollection:
    if depth <= 0:
        return g.rng.choice([pre.N0(), pre.N1(), pre.UnivV(), pre.PowOne()])
    kind = g.rng.choice(["n0", "n1", "v", "p1", "list", "sum", "sigma", "pi",
                         "quot", "funp1", "compr", "propcol"])
    match kind:
        case "n0":
            return pre.N0()
        case "n1":
            return pre.N1()
        case "v":
            return pre.UnivV()
        case "p1":
            return pre.PowOne()
        case "list":
            return pre.ListC(_g_precol(g, depth - 1, scope))
        case "sum":
            return pre.Sum(_g_precol(g, depth - 1, scope), _g_precol(g, depth - 1, scope))
        case "sigma":
            x = g.binder()
            return pre.Sigma(x, _g_precol(g, depth - 1, scope),
                             _g_precol(g, depth - 1, scope + (x,)))
        case "pi":
            x = g.binder()
            return pre.Pi(x, _g_precol(g, depth - 1, scope),
                          _g_precol(g, depth - 1, scope + (x,)))
        case "quot":
            x, y = g.binder(), g.binder()
            return pre.Quot(_g_precol(g, depth - 1, scope), x, y,
                            _g_preprop(g, depth - 1, scope + (x, y)))
        case "funp1":
            return pre.FunPowOne(_g_precol(g, depth - 1, scope))
        case "compr":
            x = g.binder()
            return pre.Compr(x, _g_preprop(g, depth - 1, scope + (x,)))
        case "propcol":
            return pre.PropAsCol(_g_preprop(g, depth - 1, scope))


def _g_preterm(g: _Gen, depth: int, scope: tuple[str, ...], top: bool = False) -> pre.PreTerm:
    leaves = ["var", "star", "eps", "true", "emptyv"]
    if g.cfg.omega_allowed:
        leaves.append("omegav")
    if depth <= 0:
        kind = g.rng.choice(leaves)
    else:
        pool = leaves + ["emp0", "eln1", "cons", "inl", "inr", "elplus", "pairt",
                         "elsig", "lam", "ap", "eqcls", "elquot", "propp1", "name",
                         "pairv", "pairv", "unionv", "powv", "sepv"]
        if top or g.cfg.deep_el_list:
            pool.append("ellist")
        kind = g.rng.choice(pool)
    t = _g_preterm
    match kind:
        case "var":
            return pre.Var(g.rng.choice(scope + VARIABLES))
        case "star":
            return pre.Star()
        case "eps":
            return pre.Eps()
        case "true":
            return pre.TrueT()
        case "emptyv":
            return pre.EmptyV()
        case "omegav":
            return pre.OmegaV()
        case "emp0":
            # closed scrutinee: the value clause discards it
            return pre.Emp0(_g_closed_preterm(g))
        case "eln1":
            return pre.ElN1(_g_closed_preterm(g), t(g, depth - 1, scope))
        case "cons":
            return pre.Cons(t(g, depth - 1, scope), t(g, depth - 1, scope))
        case "inl":
            return pre.Inl(t(g, depth - 1, scope))
        case "inr":
            return pre.Inr(t(g, depth - 1, scope))
        case "elplus":
            x, y = g.binder(), g.binder()
            return pre.ElPlus(t(g, depth - 1, scope), x, t(g, depth - 1, scope + (x,)),
                              y, t(g, depth - 1, scope + (y,)))
        case "pairt":
            return pre.PairT(t(g, depth - 1, scope), t(g, depth - 1, scope))
        case "elsig":
            x, y = g.binder(), g.binder()
            return pre.ElSigma(t(g, depth - 1, scope), x, y, t(g, depth - 1, scope + (x, y)))
        case "lam":
            x = g.binder()
            return pre.Lam(x, _g_annot(g, depth - 1, scope), t(g, depth - 1, scope + (x,)))
        case "ap":
            return pre.Ap(t(g, depth - 1, scope), t(g, depth - 1, scope))
        case "eqcls":
            x, y = g.binder(), g.binder()
            return pre.EqCls(t(g, depth - 1, scope), _g_annot(g, depth - 1, scope),
                             x, y, _g_preprop(g, depth - 1, scope + (x, y)))
        case "elquot":
            x, y, z = g.binder(), g.binder(), g.binder()
            return pre.ElQuot(_g_closed_annot(g), x, y,
                              pre.EqP(pre.UnivV(), pre.Var(x), pre.Var(y)),
                              t(g, depth - 1, scope), z, t(g, depth - 1, scope + (z,)))
        case "propp1":
            return pre.PropIntoP1(_g_preprop(g, depth - 1, scope))
        case "name":
            return pre.Name(_g_annot(g, depth - 1, scope))
        case "pairv":
            return pre.PairV(t(g, depth - 1, scope), t(g, depth - 1, scope))
        case "unionv":
            return pre.UnionV(t(g, depth - 1, scope))
        case "powv":
            return pre.PowV(t(g, depth - 1, scope))
        case "sepv":
            x = g.binder()
            bound = t(g, depth - 1, scope)
            return pre.SepV(x, bound, _g_preprop(g, depth - 1, scope + (x,)))
        case "ellist":
            x, y, z = g.binder(), g.binder(), g.binder()
            return pre.ElList(_g_annot(g, 0, scope), t(g, 0, scope), t(g, 0, scope),
                              x, y, z, t(g, 0, scope + (x, y, z)))


def _g_annot(g: _Gen, depth: int, scope: tuple[str, ...]) -> pre.PreCollection:
    """Annotation pool: small collections, including comprehensions."""
    kind = g.rng.choice(["n0", "n1", "v", "v", "compr"])
    if kind == "n0":
        return pre.N0()
    if kind == "n1":
        return pre.N1()
    if kind == "compr" and depth > 0:
        x = g.binder()
        return pre.Compr(x, _g_preprop(g, 0, scope + (x,)))
    return pre.UnivV()


def _g_preprop(g: _Gen, depth: int, scope: tuple[str, ...]) -> pre.PreProposition:
    if depth <= 0:
        kind = g.rng.choice(["bot", "epst", "epst", "eqp"])
    else:
        kind = g.rng.choice(["bot", "epst", "epsc", "eqp", "and", "or", "imp",
                             "forall", "exists"])
    match kind:
        case "bot":
            return pre.BotP()
        case "epst":
            return pre.EpsTerm(_g_preterm(g, depth - 1, scope), _g_preterm(g, depth - 1, scope))
        case "epsc":
            return pre.EpsCol(_g_preterm(g, depth - 1, scope), _g_annot(g, depth - 1, scope))
        case "eqp":
            return pre.EqP(_g_annot(g, depth - 1, scope),
                           _g_preterm(g, depth - 1, scope), _g_preterm(g, depth - 1, scope))
        case "and":
            return pre.AndP(_g_preprop(g, depth - 1, scope), _g_preprop(g, depth - 1, scope))
        case "or":
            return pre.OrP(_g_preprop(g, depth - 1, scope), _g_preprop(g, depth - 1, scope))
        case "imp":
            return pre.ImpP(_g_preprop(g, depth - 1, scope), _g_preprop(g, depth - 1, scope))
        case "forall":
            x = g.binder()
            return pre.ForallP(x, _g_annot(g, depth - 1, scope),
                               _g_preprop(g, depth - 1, scope + (x,)))
        case "exists":
            x = g.binder()
            return pre.ExistsP(x, _g_annot(g, depth - 1, scope),
                               _g_preprop(g, depth - 1, scope + (x,)))


# -- check drivers -------------------------------------------------------------------

def _too_vacuous(rep: SweepReport) -> bool:
    return rep.total > 0 and rep.skipped / rep.total >= MAX_SKIP_FRACTION


_SORTS = (fol.SetFormula, fol.SetTerm, pre.PreProposition, pre.PreTerm, pre.PreCollection)
_ATOMS = {fol.SetFormula: fol.Bot(), fol.SetTerm: fol.Empty(),
          pre.PreProposition: pre.BotP(), pre.PreTerm: pre.Star(),
          pre.PreCollection: pre.N1()}


def _sort_of(node):
    for base in _SORTS:
        if isinstance(node, base):
            return base
    return None


def _shrink_steps(subject):
    """Same-sort replacement candidates for one subject (an AST, or a tuple of
    ASTs and names shrunk pointwise).  Every candidate is well-formed."""
    from .core import node_size, walk
    if isinstance(subject, tuple):
        for i, part in enumerate(subject):
            for cand in _shrink_steps(part):
                yield subject[:i] + (cand,) + subject[i + 1:]
        return
    sort = _sort_of(subject)
    if sort is None:
        return
    atom = _ATOMS[sort]
    if subject != atom:
        yield atom
    seen = {atom}
    subs = [n for n in walk(subject)
            if n is not subject and isinstance(n, sort) and n not in seen]
    for n in sorted(subs, key=node_size):
        if n not in seen:
            seen.add(n)
            yield n


def _minimize(subject, still_fails, budget: int = 150):
    """Greedy shrink: move to any smaller same-sort subject that still fails.
    Only well-formed ASTs are tried, and a move is taken only when the failure
    reproduces, so the minimized counterexample is itself a counterexample."""
    moved = True
    while moved and budget > 0:
        moved = False
        for cand in _shrink_steps(subject):
            budget -= 1
            if budget <= 0:
                break
            if still_fails(cand):
                subject = cand
                moved = True
                break
    return subject


def _sampled(cfg: GenConfig, gen, check, report: CheckReport, count: int) -> None:
    """Run `check(subject) -> (SweepReport, detail)` over `count` seeded
    subjects, regenerating shallower whenever the sweep skipped too much, and
    minimizing any failing subject before reporting it."""
    U = enumerate_universe(cfg.rank)
    for i in range(count):
        attempt = 0
        depth = cfg.max_depth
        while True:
            subject = gen(cfg, i, attempt, depth)
            rep, subject_str, detail = check(subject, U)
            if rep is None or not _too_vacuous(rep) or depth == 0:
                break
            attempt += 1
            depth -= 1
            report.regenerated += 1
        report.samples += 1
        if rep is not None:
            report.skipped_envs += rep.skipped
            if not rep.ok:
                def still_fails(cand):
                    r, _, _ = check(cand, U)
                    return r is not None and not r.ok and not _too_vacuous(r)
                small = _minimize(subject, still_fails)
                rep2, small_str, detail2 = check(small, U)
                report.failures.append(Failure(i, small_str, detail2 or detail,
                                               rep2.counterexample))


def _with_depth(base):
    def gen(cfg: GenConfig, i: int, attempt: int, depth: int):
        return base(replace(cfg, max_depth=depth), i, attempt)
    return gen


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

    _sampled(cfg, _with_depth(gen_set_formula), check_formula, report, cfg.sample_count)
    if term_count is None:
        term_count = max(1, cfg.sample_count // 2)
    _sampled(cfg, _with_depth(gen_set_term), check_term, report, term_count)
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

    _sampled(cfg, _with_depth(gen_preterm), check, report, cfg.sample_count)
    return report


def check_substitution(cfg: GenConfig) -> CheckReport:
    """Substitution commutes with the translation, relative to the value of
    the substituted term: delta_t[v/u] -> (X[t/x]-image <-> X-image[v/x])."""
    report = CheckReport("subst")

    def gen(cfg2: GenConfig, i: int, attempt: int, depth: int):
        little = replace(cfg2, max_depth=depth)
        g = _Gen(little, _rng(little, i, attempt))
        t = _g_preterm(g, max(depth - 1, 0), ())
        a = _g_preterm(g, depth, ())
        A = _g_precol(g, depth, ())
        phi = _g_preprop(g, depth, ())
        x = g.var()
        return t, a, A, phi, x

    def check(sample, U):
        t, a, A, phi, x = sample
        subject = (f"t={print_emtt(t)}  a={print_emtt(a)}  A={print_emtt(A)}  "
                   f"phi={print_emtt(phi)}  x={x}")
        tr = HatTranslator(FreshNames.for_nodes(t, a, A, phi))
        v = tr.fresh("v")
        dt_v = fol.subst_set(tr.delta(t), PLACEHOLDER, fol.Var(v), tr.fresh)
        total = None
        for node, trans in ((a, "delta"), (A, "eta"), (phi, "hat")):
            f = getattr(tr, trans)
            subbed = f(pre.subst_emtt(node, x, t, tr.fresh))
            image = fol.subst_set(f(node), x, fol.Var(v), tr.fresh)
            iff = fol.And(fol.Imp(subbed, image), fol.Imp(image, subbed))
            claim = fol.Imp(dt_v, iff)
            rep = check_valid(claim, free_vars(claim), U)
            if total is None:
                total = rep
            else:
                total = SweepReport(total.ok and rep.ok,
                                    total.counterexample or rep.counterexample,
                                    total.skipped + rep.skipped,
                                    total.total + rep.total)
            if not rep.ok:
                return total, subject, f"{trans}-form of the substitution property fails"
        return total, subject, ""

    _sampled(cfg, gen, check, report, cfg.sample_count)
    return report


def check_freevar_contracts(cfg: GenConfig) -> CheckReport:
    """free(hat(phi)) == free(phi); the collection and term translations stay
    within free(input) + the placeholder."""
    report = CheckReport("freevars")
    for i in range(cfg.sample_count):
        report.samples += 1
        phi = gen_preprop(cfg, i)
        got = free_vars(HatTranslator(FreshNames.for_nodes(phi)).hat(phi))
        want = free_vars(phi)
        if got != want:
            report.failures.append(Failure(i, print_emtt(phi),
                                           f"free vars {sorted(got)} != {sorted(want)}"))
        A = gen_precollection(cfg, i)
        gotA = free_vars(HatTranslator(FreshNames.for_nodes(A)).eta(A))
        if not gotA <= free_vars(A) | {PLACEHOLDER}:
            report.failures.append(Failure(i, print_emtt(A),
                                           f"collection image leaks variables {sorted(gotA - free_vars(A) - {PLACEHOLDER})}"))
        tm = gen_preterm(cfg, i)
        gotT = free_vars(HatTranslator(FreshNames.for_nodes(tm)).delta(tm))
        if not gotT <= free_vars(tm) | {PLACEHOLDER}:
            report.failures.append(Failure(i, print_emtt(tm),
                                           f"term image leaks variables {sorted(gotT - free_vars(tm) - {PLACEHOLDER})}"))
    return report


def check_axioms(cfg: GenConfig) -> CheckReport:
    """Standing sanity suite: the basic set axioms hold in the bounded
    universe wherever nothing overflows."""
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
    return report


CHECKS = {
    "oneside": check_oneside,
    "deltafun": check_delta_functional,
    "subst": check_substitution,
    "freevars": check_freevar_contracts,
    "axioms": check_axioms,
}
