"""Machine-readable catalog of the added rule schemas, with an instance checker.

The catalog ships as a text asset (rules/emtt_T.rules, s-expression syntax)
so every schema can be audited line by line.  This is NOT a derivation
checker: the base type theory's rules are not present, so the only question
ever answered is whether a concrete judgment list is an instance of one
catalogued schema.  Abbreviated side formulas (transitivity of omega, the
relation/single-valued/total function clauses, the two collection schemas)
are stored fully expanded.

Schema files use `?name` for metavariables; the rule header declares each
metavariable's kind (col, term, prop, props, var) and whether it must be
instantiated freshly.  `(subst X ((t x) ...))` denotes textual substitution,
performed at instantiation time.

One table of heads (`_HEADS`, lowercase head -> pre-syntax class) drives both
the reader and the renderer: a compound form lists its arguments in the
class's field order, each read at the sort its field annotation names, and a
form with the wrong number of arguments is rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import emtt_syntax as pre
from .core import alpha_eq_under, field_sorts, free_vars
from .emtt_syntax import subst_emtt_many
from .sexp import read_all
from .set_syntax import TheoryFlavor

KINDS = ("col", "term", "prop", "props", "var")
JUDGMENT_KINDS = ("col", "set", "prop", "props")


class RulesError(ValueError):
    pass


# -- pattern-only nodes -------------------------------------------------------------

class MCol(pre.PreCollection):
    name: str
    binding = ("X",)


class MTerm(pre.PreTerm):
    name: str
    binding = ("X",)


class MProp(pre.PreProposition):
    name: str
    binding = ("X",)


class SubstCol(pre.PreCollection):
    target: pre.PreCollection
    pairs: tuple  # ((replacement-pattern, var-meta-name), ...)
    binding = ((), "X")


class SubstProp(pre.PreProposition):
    target: pre.PreProposition
    pairs: tuple
    binding = ((), "X")


@dataclass(frozen=True)
class Judgment:
    form: str     # "is" | "eqtype" | "elem" | "eqelem" | "holds"
    parts: tuple  # form-specific: patterns and kind strings
    ctx: tuple = ()  # ((binder, collection-pattern), ...)


@dataclass(frozen=True)
class RuleSchema:
    id: str
    flavors: frozenset
    metas: tuple  # ((name, kind, fresh), ...)
    premises: tuple
    conclusion: Judgment
    derived: bool = False

    def meta_kind(self, name: str) -> str:
        for n, k, _ in self.metas:
            if n == name:
                return k
        raise RulesError(f"{self.id}: undeclared metavariable ?{name}")


@dataclass(frozen=True)
class RuleInstance:
    schema_id: str
    flavor: TheoryFlavor
    substitution: dict
    premises: tuple
    conclusion: Judgment


@dataclass(frozen=True)
class MatchReport:
    ok: bool
    detail: str = ""


# -- the s-expression vocabulary -------------------------------------------------------

_HEADS = {
    "V": pre.UnivV, "N0": pre.N0, "N1": pre.N1, "P1": pre.PowOne,
    "list": pre.ListC, "sum": pre.Sum, "sigma": pre.Sigma, "pi": pre.Pi,
    "quot": pre.Quot, "funp1": pre.FunPowOne, "compr": pre.Compr,
    "propcol": pre.PropAsCol,
    "star": pre.Star, "eps": pre.Eps, "tt": pre.TrueT, "emptyv": pre.EmptyV,
    "omegav": pre.OmegaV, "emp0": pre.Emp0, "eln1": pre.ElN1, "cons": pre.Cons,
    "ellist": pre.ElList, "inl": pre.Inl, "inr": pre.Inr, "elplus": pre.ElPlus,
    "pairt": pre.PairT, "elsig": pre.ElSigma, "lam": pre.Lam, "ap": pre.Ap,
    "cls": pre.EqCls, "elq": pre.ElQuot, "pr": pre.PropIntoP1, "name": pre.Name,
    "pairv": pre.PairV, "unionv": pre.UnionV, "powv": pre.PowV, "sepv": pre.SepV,
    "bot": pre.BotP, "epst": pre.EpsTerm, "epsc": pre.EpsCol, "eqp": pre.EqP,
    "imp": pre.ImpP, "and": pre.AndP, "or": pre.OrP, "allp": pre.ForallP,
    "exp": pre.ExistsP,
}
_HEAD_OF = {cls: head for head, cls in _HEADS.items()}
_SORT_NAMES = {pre.PreCollection: "collection", pre.PreTerm: "term",
               pre.PreProposition: "proposition"}
_METAS = {pre.PreCollection: MCol, pre.PreTerm: MTerm, pre.PreProposition: MProp}
_SUBSTS = {pre.PreCollection: SubstCol, pre.PreProposition: SubstProp}


def _form(tree, what: str):
    """The head and arguments of a compound form."""
    if isinstance(tree, str) or not tree or not isinstance(tree[0], str):
        raise RulesError(f"expected {what}, found {tree!r}")
    return tree[0], tree[1:]


def _arity(head: str, args, n: int) -> None:
    if len(args) != n:
        raise RulesError(f"{head} expects {n} arguments, got {len(args)}")


def _pairs(items, what: str):
    if isinstance(items, str) or any(isinstance(p, str) or len(p) != 2 for p in items):
        raise RulesError(f"{what} must list two-element forms, found {items!r}")
    return items


def _read(tree, sort):
    """Read a pattern at `sort`: a pre-syntax sort, or str for a binder atom.
    `?name` is a metavariable of the sort; in term position an atom that names
    no term constant is a variable."""
    if sort is str:
        if not isinstance(tree, str):
            raise RulesError(f"expected a binder atom, found {tree!r}")
        return tree
    what = _SORT_NAMES[sort]
    if isinstance(tree, str):
        if tree.startswith("?"):
            return _METAS[sort](tree[1:])
        cls = _HEADS.get(tree)
        if cls is not None and issubclass(cls, sort) and not field_sorts(cls):
            return cls()
        if sort is pre.PreTerm:
            return pre.Var(tree)
        raise RulesError(f"unknown {what} atom {tree!r}")
    head, args = _form(tree, f"a {what}")
    if head == "subst" and sort in _SUBSTS:
        _arity(head, args, 2)
        pairs = tuple((_read(t, pre.PreTerm), _read(x, str)) for t, x in _pairs(args[1], head))
        return _SUBSTS[sort](_read(args[0], sort), pairs)
    cls = _HEADS.get(head)
    if cls is None or not issubclass(cls, sort) or not field_sorts(cls):
        raise RulesError(f"unknown {what} form {head!r}")
    sorts = field_sorts(cls)
    _arity(head, args, len(sorts))
    return cls(*[_read(a, s) for a, s in zip(args, sorts)])


# judgment form -> the sorts of its parts; None stands for the sort named by
# the judgment kind that ends the form
_JUDGMENTS = {"is": (None,), "eqtype": (None, None),
              "elem": (pre.PreTerm, pre.PreCollection),
              "eqelem": (pre.PreTerm, pre.PreTerm, pre.PreCollection),
              "holds": (pre.PreProposition,)}


def _judgment(tree) -> Judgment:
    head, a = _form(tree, "a judgment")
    ctx: tuple = ()
    if a and not isinstance(a[-1], str) and a[-1] and a[-1][0] == "ctx":
        entries = _pairs(a.pop()[1:], "ctx")
        ctx = tuple((_read(x, str), _read(c, pre.PreCollection)) for x, c in entries)
    sorts = _JUDGMENTS.get(head)
    if sorts is None:
        raise RulesError(f"unknown judgment form {head!r}")
    if sorts[0] is not None:
        _arity(head, a, len(sorts))
        return Judgment(head, tuple(_read(x, s) for x, s in zip(a, sorts)), ctx)
    _arity(head, a, len(sorts) + 1)
    kind = a[-1]
    if kind not in JUDGMENT_KINDS:
        raise RulesError(f"unknown judgment kind {kind!r}")
    sort = pre.PreCollection if kind in ("col", "set") else pre.PreProposition
    return Judgment(head, tuple(_read(x, sort) for x in a[:-1]) + (kind,), ctx)


def _parse_rule(tree) -> RuleSchema:
    if tree[0] != "rule":
        raise RulesError(f"expected (rule ...), found {tree[0]!r}")
    rid = tree[1]
    flavors = None
    metas: list = []
    premises: list = []
    conclusion = None
    derived = False
    for item in tree[2:]:
        if item == "derived":
            derived = True
            continue
        head, args = _form(item, f"{rid}: a rule section")
        if head == "flavors":
            flavors = frozenset(args)
        elif head == "meta":
            for m in args:
                name, kind = m[0], m[1]
                if kind not in KINDS:
                    raise RulesError(f"{rid}: unknown metavariable kind {kind!r}")
                metas.append((name, kind, len(m) > 2 and m[2] == "fresh"))
        elif head == "premises":
            premises = [_judgment(j) for j in args]
        elif head == "conclusion":
            _arity(head, args, 1)
            conclusion = _judgment(args[0])
        else:
            raise RulesError(f"{rid}: unknown rule section {head!r}")
    if flavors is None or conclusion is None:
        raise RulesError(f"{rid}: rule needs (flavors ...) and (conclusion ...)")
    schema = RuleSchema(rid, flavors, tuple(metas), tuple(premises), conclusion, derived)
    _validate_schema(schema)
    return schema


def _metas(*nodes) -> set:
    """The metavariable names in patterns, binders written ?x included."""
    acc: set = set()
    for node in nodes:
        if isinstance(node, str):
            if node.startswith("?"):
                acc.add(node[1:])
        elif isinstance(node, (MCol, MTerm, MProp)):
            acc.add(node.name)
        elif isinstance(node, (SubstCol, SubstProp)):
            acc |= _metas(node.target, *(repl for repl, _ in node.pairs))
            acc |= {x.lstrip("?") for _, x in node.pairs}
        else:
            acc |= _metas(*(v for spec, v in zip(node.binding, node._values()) if spec != "X"))
    return acc


def _judgment_metas(j: Judgment) -> set:
    return _metas(*j.parts, *(p for entry in j.ctx for p in entry))


def _validate_schema(s: RuleSchema) -> None:
    declared = {n for n, _, _ in s.metas}
    fresh = {n for n, _, f in s.metas if f}
    in_premises = set().union(*map(_judgment_metas, s.premises))
    in_conclusion = _judgment_metas(s.conclusion)
    undecl = (in_premises | in_conclusion) - declared
    if undecl:
        raise RulesError(f"{s.id}: undeclared metavariables {sorted(undecl)}")
    loose = in_conclusion - in_premises - fresh
    if loose:
        raise RulesError(f"{s.id}: conclusion metavariables {sorted(loose)} "
                         "occur in no premise and are not declared fresh")


# -- rendering (inverse of the reader; round-trips through _parse_rule) ------------

def render_pattern(node) -> str:
    if isinstance(node, str):
        return node
    if isinstance(node, (MCol, MTerm, MProp)):
        return f"?{node.name}"
    if isinstance(node, pre.Var):
        return node.name
    if isinstance(node, (SubstCol, SubstProp)):
        inner = " ".join(f"({render_pattern(t)} {x})" for t, x in node.pairs)
        return f"(subst {render_pattern(node.target)} ({inner}))"
    head = _HEAD_OF.get(type(node))
    if head is None:
        raise RulesError(f"cannot render pattern {node!r}")
    vals = node._values()
    if not vals:
        return head
    return "(" + " ".join([head] + [render_pattern(v) for v in vals]) + ")"


def render_judgment(j: Judgment) -> str:
    body = " ".join(render_pattern(p) for p in j.parts)
    if j.ctx:
        ctx = " ".join(f"({x} {render_pattern(c)})" for x, c in j.ctx)
        return f"({j.form} {body} (ctx {ctx}))"
    return f"({j.form} {body})"


def render_rule(s: RuleSchema) -> str:
    lines = [f"(rule {s.id} (flavors {' '.join(sorted(s.flavors))})"]
    if s.derived:
        lines.append("  derived")
    metas = " ".join(f"({n} {k} fresh)" if f else f"({n} {k})" for n, k, f in s.metas)
    lines.append(f"  (meta {metas})")
    prem = " ".join(render_judgment(p) for p in s.premises)
    lines.append(f"  (premises {prem})")
    lines.append(f"  (conclusion {render_judgment(s.conclusion)}))")
    return "\n".join(lines)


@lru_cache(maxsize=None)
def load_catalog() -> tuple:
    text = resources.files("mfbridge").joinpath("rules/emtt_T.rules").read_text()
    schemas = tuple(_parse_rule(t) for t in read_all(text))
    ids = [s.id for s in schemas]
    if len(ids) != len(set(ids)):
        raise RulesError("duplicate rule ids in catalog")
    return schemas


def list_rules(flavor: TheoryFlavor, include_derived: bool = False):
    return [s for s in load_catalog()
            if flavor.value in s.flavors and (include_derived or not s.derived)]


def get_rule(rule_id: str) -> RuleSchema:
    for s in load_catalog():
        if s.id == rule_id:
            return s
    raise RulesError(f"no rule with id {rule_id!r}")


# -- instantiation and matching ---------------------------------------------------------

_KIND_TYPES = {"col": pre.PreCollection, "term": pre.PreTerm,
               "prop": pre.PreProposition, "props": pre.PreProposition, "var": str}


def instantiate(node, sub: dict, schema: RuleSchema):
    """Replace the metavariables of a pattern; a binder ?x becomes sub["x"]."""
    if isinstance(node, str):
        return sub[node[1:]] if node.startswith("?") else node
    if isinstance(node, (MCol, MTerm, MProp)):
        val = sub[node.name]
        if schema.meta_kind(node.name) == "var":
            return pre.Var(val)
        return val
    if isinstance(node, (SubstCol, SubstProp)):
        target = instantiate(node.target, sub, schema)
        mapping = {instantiate(x, sub, schema): instantiate(repl, sub, schema)
                   for repl, x in node.pairs}
        return subst_emtt_many(target, mapping)
    return type(node)(*[v if spec == "X" else instantiate(v, sub, schema)
                        for spec, v in zip(node.binding, node._values())])


def instantiate_judgment(j: Judgment, sub: dict, schema: RuleSchema) -> Judgment:
    parts = tuple(instantiate(p, sub, schema) for p in j.parts)
    ctx = tuple((instantiate(x, sub, schema), instantiate(col, sub, schema))
                for x, col in j.ctx)
    return Judgment(j.form, parts, ctx)


def _judgments_match(expected: Judgment, got: Judgment) -> str | None:
    """Compare a fully instantiated judgment with a concrete one, up to
    renaming of the context variables (which bind into every component)."""
    if expected.form != got.form:
        return f"judgment form differs: expected {expected.form}, got {got.form}"
    if len(expected.parts) != len(got.parts):
        return "judgment arity differs"
    if len(expected.ctx) != len(got.ctx):
        return "context length differs"
    pairs: list = []
    for i, ((xe, ce), (xg, cg)) in enumerate(zip(expected.ctx, got.ctx)):
        if not alpha_eq_under(ce, cg, pairs):
            return f"context collection {i + 1} differs from the schema instantiation"
        pairs.append((xe, xg))
    for i, (e, g) in enumerate(zip(expected.parts, got.parts)):
        if isinstance(e, str) or isinstance(g, str):
            if e != g:
                return f"judgment kind differs: expected {e!r}, got {g!r}"
        elif not alpha_eq_under(e, g, pairs):
            return f"component {i + 1} differs from the schema instantiation"
    return None


def match_instance(inst: RuleInstance) -> MatchReport:
    try:
        schema = get_rule(inst.schema_id)
    except RulesError as e:
        return MatchReport(False, str(e))
    if inst.flavor.value not in schema.flavors:
        return MatchReport(False, f"rule {schema.id} is not part of {inst.flavor.value}")
    sub = inst.substitution
    for name, kind, _ in schema.metas:
        if name not in sub:
            return MatchReport(False, f"substitution misses metavariable ?{name}")
        if not isinstance(sub[name], _KIND_TYPES[kind]):
            return MatchReport(False, f"?{name} must be a {kind}, got {type(sub[name]).__name__}")
    extra = set(sub) - {n for n, _, _ in schema.metas}
    if extra:
        return MatchReport(False, f"substitution has undeclared metavariables {sorted(extra)}")
    for name, kind, fresh in schema.metas:
        if not fresh:
            continue
        val = sub[name]
        for other, _, _ in schema.metas:
            if other == name:
                continue
            ov = sub[other]
            if isinstance(ov, str):
                if ov == val:
                    return MatchReport(False, f"fresh variable ?{name}={val!r} collides with ?{other}")
            elif val in free_vars(ov):
                return MatchReport(False, f"fresh variable ?{name}={val!r} occurs free in ?{other}")
    if len(inst.premises) != len(schema.premises):
        return MatchReport(False, f"expected {len(schema.premises)} premises, got {len(inst.premises)}")
    for i, (pat, got) in enumerate(zip(schema.premises, inst.premises)):
        err = _judgments_match(instantiate_judgment(pat, sub, schema), got)
        if err:
            return MatchReport(False, f"premise {i + 1}: {err}")
    err = _judgments_match(instantiate_judgment(schema.conclusion, sub, schema), inst.conclusion)
    if err:
        return MatchReport(False, f"conclusion: {err}")
    return MatchReport(True, "instance of " + schema.id)


def parse_instance(text: str) -> RuleInstance:
    trees = read_all(text)
    tree = trees[0] if len(trees) == 1 else None
    if isinstance(tree, str) or not tree or tree[0] != "instance" or len(tree) < 2:
        raise RulesError("instance file must contain one (instance ...) form")
    schema = get_rule(tree[1])
    flavor = None
    sub: dict = {}
    premises: list = []
    conclusion = None
    for item in tree[2:]:
        head, args = _form(item, "an instance section")
        if head == "flavor":
            _arity(head, args, 1)
            flavor = TheoryFlavor(args[0])
        elif head == "sub":
            for name, val in _pairs(args, head):
                sub[name] = _read(val, _KIND_TYPES[schema.meta_kind(name)])
        elif head == "premises":
            premises = [_judgment(j) for j in args]
        elif head == "conclusion":
            _arity(head, args, 1)
            conclusion = _judgment(args[0])
        else:
            raise RulesError(f"unknown instance section {head!r}")
    if flavor is None or conclusion is None:
        raise RulesError("instance needs (flavor ...) and (conclusion ...)")
    for name, val in sub.items():
        if not isinstance(val, str) and _metas(val):
            raise RulesError(f"substitution value for ?{name} contains metavariables")
    return RuleInstance(tree[1], flavor, sub, tuple(premises), conclusion)
