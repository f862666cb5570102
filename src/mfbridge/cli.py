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
    unused = [x for x in env if x not in free_vars(core)]
    if unused:
        raise ValueError(f"--env name {unused[0]!r} is not free in the input")
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


_CHECK_FIELDS = {"samples": "sample_count", "rank": "rank", "depth": "max_depth", "omega": "omega_allowed"}


def cmd_check(args) -> int:
    run, reads = properties.PROPERTIES[args.property]
    given = [k for k in _CHECK_FIELDS if getattr(args, k) is not None]
    cfg = properties.GenConfig(seed=args.seed, **{_CHECK_FIELDS[k]: getattr(args, k) for k in given})
    for flag, value, least in (("--samples", cfg.sample_count, 1), ("--depth", cfg.max_depth, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    hf.enumerate_universe(cfg.rank)  # refuses a rank outside 0..3, even where nothing sweeps
    unread = [k for k in given if k not in reads]
    if unread:
        raise ValueError(f"--{unread[0]} is not read by --property {args.property}")
    report = run(cfg)
    print(report.render())
    return 0 if report.ok else 1


def cmd_sigma(args) -> int:
    d, gamma = delta0_k0.read_case(_read(args.derivation), _read(args.gamma))
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
            print(f"  counterexample: {hf.print_env(ob.counterexample)}")
    if any(ob.status != "hf_verified" for ob in obligations):
        return 1
    result = delta0_k0.sigma(d, obligations)
    print(f"sigma: {print_set(result.formula)}")
    print(f"leftover bound variables (free in output): "
          f"{', '.join(result.leftover_bounds) if result.leftover_bounds else 'none'}")
    print(f"delta0 (leftovers free): "
          f"{'yes' if fol.is_delta0(result.formula) else 'no'}")
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


K0_REGISTRY = delta0_k0.K0_REGISTRY  # the derivation vocabulary, for importers of this module


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
    p.add_argument("--property", required=True, choices=sorted(properties.PROPERTIES))
    p.add_argument("--seed", type=int, default=default_seed)
    # no defaults: cmd_check sees which were given, and GenConfig holds them
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
