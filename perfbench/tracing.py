"""Per-layer tracing for the benchmark's traced runs.

Wrappers are installed from here, around the public functions at each
mfbridge module boundary, and removed again afterwards; the untraced runs
never install them.  A layer is named by its module.

* A span is timed only on the outermost call of its metric: a metric whose
  span is already open (recursion, or one printer function calling another)
  is not timed again.
* A span's self time is its duration minus the time of the spans opened
  inside it.  Observer work (counting claim nodes) is excluded from every
  open span, so it does not show in the layer times; the tracing overhead a
  run reports includes it.
* Spans are aggregated in memory; the run writes the table out at its end.

Functions that recurse through their own module-level name (`free_vars`,
`subst`, `eval_formula`) are wrapped only where other modules bound them, so
their inner recursion stays unwrapped and only calls crossing a module
boundary are timed.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

# metric, layer, defining module, attribute, also wrap in the defining module
_FUNCTIONS = [
    ("properties.check", "properties", "properties", "check_substitution", True),
    ("properties.check", "properties", "properties", "check_oneside", True),
    ("properties.gen", "properties", "properties", "gen_set_formula", True),
    ("properties.gen", "properties", "properties", "gen_set_term", True),
    ("properties.gen", "properties", "properties", "_g_preterm", True),
    ("properties.gen", "properties", "properties", "_g_precol", True),
    ("properties.gen", "properties", "properties", "_g_preprop", True),
    ("tilde.translate", "tilde", "tilde", "tilde_formula", True),
    ("tilde.translate", "tilde", "tilde", "tilde_term", True),
    ("tilde.translate", "tilde", "tilde", "tilde", True),
    ("core.subst", "core", "set_syntax", "subst_set", True),
    ("core.subst", "core", "emtt_syntax", "subst_emtt", True),
    ("core.subst", "core", "core", "subst", False),
    ("core.subst", "core", "core", "subst1", False),
    ("core.free_vars", "core", "core", "free_vars", False),
    ("printer.print", "printer", "printer", "print_set", True),
    ("printer.print", "printer", "printer", "print_set_formula", True),
    ("printer.print", "printer", "printer", "print_set_term", True),
    ("printer.print", "printer", "printer", "print_emtt", True),
    ("printer.print", "printer", "printer", "print_prop", True),
    ("printer.print", "printer", "printer", "print_term", True),
    ("printer.print", "printer", "printer", "print_collection", True),
    ("hf.sweep", "hf", "hf", "check_valid", True),
    ("hf.sweep", "hf", "hf", "check_equivalence", True),
    ("hf.eval", "hf", "hf", "eval_formula", False),
    ("hf.eval", "hf", "hf", "eval_term", False),
    ("hf.universe", "hf", "hf", "enumerate_universe", True),
    ("delta0_k0.reconstruct", "delta0_k0", "delta0_k0", "k0_reconstruct", True),
    ("delta0_k0.discharge", "delta0_k0", "delta0_k0", "discharge_obligations", True),
    ("delta0_k0.sigma", "delta0_k0", "delta0_k0", "sigma", True),
    ("delta0_k0.agreement", "delta0_k0", "delta0_k0", "check_sigma_agreement", True),
    ("sexp.loads", "sexp", "sexp", "loads", True),
    ("parser.parse", "parser", "parser", "parse_set", True),
    ("parser.parse", "parser", "parser", "parse_set_formula", True),
    ("parser.parse", "parser", "parser", "parse_set_term", True),
    ("parser.parse", "parser", "parser", "parse_emtt", True),
    ("parser.parse", "parser", "parser", "parse_prop", True),
    ("parser.parse", "parser", "parser", "parse_term", True),
    ("parser.parse", "parser", "parser", "parse_collection", True),
    ("parser.parse", "parser", "parser", "parse_context", True),
    ("rules.catalog", "rules", "rules", "load_catalog", True),
]

# metric, layer, module, class, method
_METHODS = [
    ("hat.translate", "hat", "hat", "HatTranslator", "eta"),
    ("hat.translate", "hat", "hat", "HatTranslator", "delta"),
    ("hat.translate", "hat", "hat", "HatTranslator", "hat"),
    ("hat.translate", "hat", "hat", "HatTranslator", "hat_context"),
    ("hf.universe", "hf", "hf", "Universe", "tables"),
]


def count_nodes(roots) -> tuple[int, int]:
    """(nodes, structurally distinct subtrees) over the trees in `roots`."""
    ids: dict[int, int] = {}
    table: dict[tuple, int] = {}
    nodes = 0

    def canon(node) -> int:
        nonlocal nodes
        known = ids.get(id(node))
        if known is not None:
            nodes += _size(node)
            return known
        nodes += 1
        key = (type(node),) + tuple(
            canon(v) if dataclasses.is_dataclass(v) else v
            for v in (getattr(node, f.name) for f in dataclasses.fields(node)))
        ids[id(node)] = cid = table.setdefault(key, len(table))
        return cid

    sizes: dict[int, int] = {}

    def _size(node) -> int:
        s = sizes.get(id(node))
        if s is None:
            s = 1 + sum(_size(getattr(node, f.name)) for f in dataclasses.fields(node)
                        if dataclasses.is_dataclass(getattr(node, f.name)))
            sizes[id(node)] = s
        return s

    for r in roots:
        canon(r)
    return nodes, len(table)


def _observe_claim(tracer: "Tracer", formulas, variables, report) -> None:
    nodes, distinct = count_nodes(formulas)
    c = tracer.counts
    c["hf.sweep_calls"] += 1
    c["hf.cells"] += report.total
    c["hf.cells_checked"] += report.total - report.skipped
    c["hf.max_vars"] = max(c["hf.max_vars"], len(set(variables)))
    c["hf.claim_nodes"] += nodes
    c["hf.claim_distinct"] += distinct


def observe_valid(tracer: "Tracer", args, kwargs, report) -> None:
    """check_valid(f, variables, U, strict=False)"""
    _observe_claim(tracer, args[:1], args[1], report)


def observe_equivalence(tracer: "Tracer", args, kwargs, report) -> None:
    """check_equivalence(f, g, variables, U)"""
    _observe_claim(tracer, args[:2], args[2], report)


def observe_check(tracer: "Tracer", args, kwargs, report) -> None:
    tracer.counts["properties.regenerated"] += report.regenerated


_OBSERVERS = {"check_valid": observe_valid, "check_equivalence": observe_equivalence,
              "check_substitution": observe_check, "check_oneside": observe_check}


class Tracer:
    """Aggregated spans: time and outermost calls per metric, self time per layer."""

    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: dict[str, int] = defaultdict(int)
        self._children: list[list[float]] = []
        self._excluded = 0.0
        self._undo: list[tuple] = []
        self.missing: set[str] = set()
        self.processes: list[dict[str, float]] = []  # set-up pieces of traced children

    def wrap(self, fn, metric: str, layer: str, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[metric]:
                return fn(*args, **kwargs)
            self._open[metric] += 1
            children = [0.0]
            self._children.append(children)
            excluded0 = self._excluded
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0 - (self._excluded - excluded0)
                self._children.pop()
                self._open[metric] -= 1
                self.time[metric] += dur
                self.calls[metric] += 1
                self.self_time[layer] += dur - children[0]
                if self._children:
                    self._children[-1][0] += dur
            if observe is not None:
                t1 = time.perf_counter()
                observe(self, args, kwargs, result)
                self._excluded += time.perf_counter() - t1
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding of the listed functions in the loaded mfbridge
        modules, including values of their module-level dicts."""
        mods = {name.split(".", 1)[1]: m for name, m in list(sys.modules.items())
                if name.startswith("mfbridge.") and m is not None}
        for metric, layer, home, attr, in_home in _FUNCTIONS:
            if home not in mods or not hasattr(mods[home], attr):
                self.missing.add(f"{home}.{attr}")
                continue
            orig = getattr(mods[home], attr)
            wrapped = self.wrap(orig, metric, layer, _OBSERVERS.get(attr))
            for name, m in mods.items():
                ns = vars(m)
                for key, val in list(ns.items()):
                    if val is orig and (in_home or name != home):
                        self._set(ns, key, wrapped)
                    elif isinstance(val, dict) and val is not ns:
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._set(val, k2, wrapped)
        for metric, layer, home, cls_name, meth in _METHODS:
            cls = getattr(mods.get(home), cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.add(f"{home}.{cls_name}.{meth}")
                continue
            orig = vars(cls)[meth]
            self._undo.append((cls, meth, orig, True))
            setattr(cls, meth, self.wrap(orig, metric, layer))

    def _set(self, container: dict, key, value) -> None:
        self._undo.append((container, key, container[key], False))
        container[key] = value

    def uninstall(self) -> None:
        for container, key, orig, is_attr in reversed(self._undo):
            if is_attr:
                setattr(container, key, orig)
            else:
                container[key] = orig
        self._undo.clear()

    def dump(self, path, setup: dict[str, float]) -> None:
        """Write this process's table for a parent to merge."""
        data = {"time": self.time, "calls": self.calls, "self": self.self_time,
                "counts": self.counts, "setup": setup}
        with open(path, "w") as fh:
            json.dump(data, fh)

    def merge_file(self, path) -> None:
        """Add a traced child's table (see dump) to this one and delete it."""
        with open(path) as fh:
            data = json.load(fh)
        path.unlink()
        for mine, theirs in ((self.time, data["time"]), (self.calls, data["calls"]),
                             (self.self_time, data["self"]), (self.counts, data["counts"])):
            for k, v in theirs.items():
                mine[k] = max(mine[k], v) if k == "hf.max_vars" else mine[k] + v
        self.processes.append({**data["setup"],
                               "hf.universe": data["time"].get("hf.universe", 0.0),
                               "rules.catalog": data["time"].get("rules.catalog", 0.0)})
