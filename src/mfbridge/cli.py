"""Command-line entry point wiring all modules.

Exit codes: 0 success, 1 check/classification failure, 2 usage or parse
errors.  All randomness flows from --seed (default: the MF_BRIDGE_SEED
environment variable); identical invocations produce identical output.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import delta0_k0, hf, properties, rules, sexp
from . import emtt_syntax as pre
from . import set_syntax as fol
from .core import FreshNames, free_vars, normalize_binders
from .hat import HatTranslator
from .parser import (ParseError, parse_collection, parse_context, parse_emtt,
                     parse_prop, parse_set, parse_set_formula, parse_set_term,
                     parse_term)
from .printer import print_emtt, print_set
from .set_syntax import TheoryFlavor
from .tilde import TranslationError, tilde


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _lang_of(path: str, override: str | None) -> str:
    if override:
        return override
    if path.endswith(".mt"):
        return "emtt"
    return "set"


_SET_KINDS = {"formula": parse_set_formula, "term": parse_set_term, "auto": parse_set}
_EMTT_KINDS = {"prop": parse_prop, "term": parse_term, "collection": parse_collection,
               "context": parse_context, "auto": parse_emtt}


def _parse_input(text: str, lang: str, kind: str):
    table = _SET_KINDS if lang == "set" else _EMTT_KINDS
    if kind not in table:
        raise ParseError(f"kind {kind!r} is not available for the {lang} language")
    return table[kind](text)


def _render(node, fmt: str) -> str:
    if fmt == "sexp":
        return sexp.dumps(node)
    if isinstance(node, (fol.SetTerm, fol.SetFormula)):
        return print_set(node)
    return print_emtt(node)


def cmd_parse(args) -> int:
    lang = _lang_of(args.file, args.lang)
    node = _parse_input(_read(args.file), lang, args.kind)
    print(_render(node, args.format))
    return 0


def cmd_translate(args) -> int:
    if args.dir == "set2emtt" and args.mode:
        raise ValueError("--mode applies only to --dir emtt2set")
    text = _read(args.file)
    if args.dir == "set2emtt":
        node = parse_set(text)
        fresh = FreshNames.for_nodes(node)
        node = normalize_binders(fol.elaborate(node, fresh), fresh)
        print(_render(tilde(node), args.format))
        return 0
    mode = args.mode or "hat"
    kind = {"eta": "collection", "delta": "term", "hat": "prop", "context": "context"}[mode]
    node = _parse_input(text, "emtt", kind)
    if isinstance(node, pre.PreContext):
        wf = pre.precontext_wf(node)
        if wf is not None:
            print(f"ill-formed pre-context at entry {wf.index}: {wf.reason}", file=sys.stderr)
            return 1
        fresh = FreshNames.for_nodes(*(c for _, c in node))
        node = pre.PreContext(tuple((x, normalize_binders(c, fresh)) for x, c in node))
        out = HatTranslator(fresh).hat_context(node)
    else:
        fresh = FreshNames.for_nodes(node)
        node = normalize_binders(node, fresh)
        out = getattr(HatTranslator(fresh), mode)(node)
    print(_render(out, args.format))
    return 0


def cmd_classify(args) -> int:
    flavor = TheoryFlavor(args.flavor)
    node = parse_set(_read(args.file))
    core = fol.elaborate(node)
    print(f"delta0: {'yes' if fol.is_delta0(core, flavor) else 'no'}")
    violations = fol.flavor_check(core, flavor)
    for v in violations:
        print(f"violation: {v.describe()}")
    if violations:
        return 1
    print(f"{flavor.value}: ok")
    return 0


def _is_variable(name: str) -> bool:
    """Whether the set-language parser reads `name` as a variable."""
    try:
        return parse_set_term(name) == fol.Var(name)
    except ParseError:
        return False


def cmd_eval(args) -> int:
    node = parse_set(_read(args.file))
    core = fol.elaborate(node)
    U = hf.enumerate_universe(args.rank)
    env = hf.parse_env(args.env or "")
    strange = [x for x in env if not _is_variable(x)]
    if strange:
        raise ValueError(f"--env name {strange[0]!r} is not a variable name")
    missing = free_vars(core) - set(env)
    if missing:
        print(f"environment misses variables: {', '.join(sorted(missing))}", file=sys.stderr)
        return 2
    outside = sorted(x for x, v in env.items() if hf.rank(v) > U.k)
    if outside:
        print(f"environment values outside V_{U.k}: {', '.join(outside)}", file=sys.stderr)
        return 2
    try:
        value = hf.evaluate(core, env, U)
    except hf.Overflow as e:
        print(f"overflow: {e}")
        return 1
    print(hf.print_hf(value) if isinstance(core, fol.SetTerm) else str(value).lower())
    return 0


_CHECK_DEFAULTS = {"samples": 500, "rank": 3, "depth": 3, "omega": False}
_UNREAD = {"axioms": ("samples", "depth", "omega"), "freevars": ("rank",)}  # by each property


def cmd_check(args) -> int:
    given = {k for k in _CHECK_DEFAULTS if getattr(args, k) is not None}
    for k in _CHECK_DEFAULTS.keys() - given:
        setattr(args, k, _CHECK_DEFAULTS[k])
    for flag, value, least in (("--samples", args.samples, 1), ("--depth", args.depth, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    hf.enumerate_universe(args.rank)  # refuses a rank outside 0..3, even where nothing sweeps
    unread = [k for k in _UNREAD.get(args.property, ()) if k in given]
    if unread:
        raise ValueError(f"--{unread[0]} is not read by --property {args.property}")
    cfg = properties.GenConfig(seed=args.seed, max_depth=args.depth, rank=args.rank,
                               omega_allowed=args.omega, sample_count=args.samples)
    report = properties.CHECKS[args.property](cfg)
    print(report.render())
    return 0 if report.ok else 1


def cmd_sigma(args) -> int:
    d = sexp.loads(_read(args.derivation), K0_REGISTRY, delta0_k0.K0Node)
    gamma = parse_set_formula(_read(args.gamma))
    fresh = FreshNames.for_nodes(gamma)
    gamma = normalize_binders(fol.elaborate(gamma, fresh), fresh)
    phi = delta0_k0.derived_formula(d)
    res = delta0_k0.k0_reconstruct(phi, gamma, d)
    if not res.ok:
        print(f"mismatch at {res.mismatch.path}: {res.mismatch.reason}", file=sys.stderr)
        return 1
    obligations = delta0_k0.discharge_obligations(res.obligations, args.rank)
    for ob in obligations:
        print(f"obligation for {ob.z}: {ob.status}"
              + (f" at rank {ob.rank}" if ob.rank is not None else ""))
        if ob.status == "refuted" and ob.counterexample:
            env = ", ".join(f"{k}={hf.print_hf(v)}" for k, v in sorted(ob.counterexample.items()))
            print(f"  counterexample: {env}")
    if any(ob.status != "hf_verified" for ob in obligations):
        return 1
    result = delta0_k0.sigma(d, obligations)
    print(f"sigma: {print_set(result.formula)}")
    print(f"leftover bound variables (free in output): "
          f"{', '.join(result.leftover_bounds) if result.leftover_bounds else 'none'}")
    print(f"delta0 (leftovers free): "
          f"{'yes' if result.is_delta0_with_leftovers_free() else 'no'}")
    return 0


def cmd_rules(args) -> int:
    if args.list and args.check:
        raise ValueError("--list and --check exclude each other")
    if args.list:
        flavor = TheoryFlavor(args.flavor or "czf")
        for schema in rules.list_rules(flavor, include_derived=args.derived):
            mark = " (derived)" if schema.derived else ""
            print(f"{schema.id}  [{', '.join(sorted(schema.flavors))}]{mark}")
        return 0
    if args.check:
        # an instance file names its own flavor, and --derived selects what --list shows
        for flag, given in (("--flavor", args.flavor is not None), ("--derived", args.derived)):
            if given:
                raise ValueError(f"{flag} applies only to --list")
        try:
            inst = rules.parse_instance(_read(args.check))
        except rules.RulesError as e:
            print(f"bad instance file: {e}", file=sys.stderr)
            return 2
        report = rules.match_instance(inst)
        print(("ok: " if report.ok else "mismatch: ") + report.detail)
        return 0 if report.ok else 1
    print("rules: nothing to do (use --list or --check)", file=sys.stderr)
    return 2


K0_REGISTRY = dict(sexp.SET_REGISTRY)
K0_REGISTRY.update({c.__name__: c for c in delta0_k0.K0_CLASSES})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfbridge",
                                 description="two-language symbolic toolkit with a finite-model oracle")
    # argparse applies `type` to a string default only for the chosen
    # subcommand, so a malformed MF_BRIDGE_SEED is a usage error of `check`
    default_seed = os.environ.get("MF_BRIDGE_SEED", "0")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a file and pretty-print it")
    p.add_argument("file")
    p.add_argument("--lang", choices=["set", "emtt"])
    p.add_argument("--kind", default="auto",
                   choices=["auto", "formula", "term", "collection", "prop", "context"])
    p.add_argument("--format", default="ascii", choices=["ascii", "sexp"])
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("translate", help="translate between the two languages")
    p.add_argument("file")
    p.add_argument("--dir", required=True, choices=["set2emtt", "emtt2set"])
    p.add_argument("--mode", choices=["eta", "delta", "hat", "context"])
    p.add_argument("--format", default="ascii", choices=["ascii", "sexp"])
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("classify", help="bounded-fragment and flavor legality report")
    p.add_argument("file")
    p.add_argument("--flavor", default="czf", choices=["czf", "izf", "zf"])
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("eval", help="evaluate over a rank-bounded universe")
    p.add_argument("file")
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--env", default="")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run a seeded property sweep")
    p.add_argument("--property", required=True, choices=sorted(properties.CHECKS))
    p.add_argument("--seed", type=int, default=default_seed)
    # defaults in _CHECK_DEFAULTS, so that cmd_check sees which were given
    p.add_argument("--samples", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--omega", action="store_true", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sigma", help="check a bounded-class derivation and erase its bounds")
    p.add_argument("--derivation", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--rank", type=int, default=3)
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("rules", help="list rule schemas or check an instance file")
    p.add_argument("--flavor", choices=["czf", "izf", "zf"], help="flavor to list (default czf)")
    p.add_argument("--list", action="store_true")
    p.add_argument("--check", metavar="FILE")
    p.add_argument("--derived", action="store_true", help="include derived-metadata rules in --list")
    p.set_defaults(fn=cmd_rules)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, sexp.SexpError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except TranslationError as e:
        print(f"translation error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, hf.EvalError, RecursionError) as e:
        # a TypeError is left to show its traceback: it is a fault of the program, not the input
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
