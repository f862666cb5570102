"""CLI behavior: dispatch, exit codes, determinism of output."""
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import mfbridge
from mfbridge.cli import main
from mfbridge.hf import EvalError
from mfbridge.parser import MAX_DEPTH
from mfbridge.sexp import MAX_DEPTH as MAX_SEXP_DEPTH

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_translate_set_to_pre_syntax(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "all x. x in y")
    code, out, _ = run(capsys, "translate", "--dir", "set2emtt", f)
    assert code == 0
    assert out.strip() == "all x:V. x eps y"


def test_eval_true(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "x = empty")
    code, out, _ = run(capsys, "eval", "--rank", "1", "--env", "x={}", f)
    assert code == 0 and out.strip() == "true"


def test_eval_term_value(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "p1(op(sing(empty), empty))")
    code, out, _ = run(capsys, "eval", "--rank", "3", f)
    assert code == 0 and out.strip() == "{{}}"


def test_eval_overflow_exit(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "Pow(Pow(empty))")
    code, out, _ = run(capsys, "eval", "--rank", "1", f)
    assert code == 1 and "overflow" in out


def test_eval_rejects_out_of_contract_input(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "x = x")
    for argv in (("--rank", "-1", "--env", "x={}"), ("--rank", "1", "--env", "x={{{}}}"),
                 ("--rank", "2", "--env", "x={},x={{}},y={{}}"),
                 ("--rank", "3", "--env", "x=" + "{" * 8 + "}" * 8),
                 ("--rank", "3", "--env", "x=" + "{" * 3000 + "}" * 3000)):
        t0 = time.monotonic()
        code, out, err = run(capsys, "eval", *argv, f)
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == "" and len(err.splitlines()) == 1, (argv, out, err)


def test_eval_over_the_cell_cap(tmp_path, capsys):
    # rank 4 is refused, and so is a grid of 16 ** 7 cells at rank 3, before
    # evaluation starts; six nested quantifiers over two used variables
    # sweep only a 16 ** 2 grid
    f = _write(tmp_path, "a.fm", "all x. all y. x = y")
    seven = _write(tmp_path, "seven.fm", "all a. all b. all c. all d. all e. all f. all g. "
                                         "{{a, b}, {c, d}} = {{e, f}, g}")
    six = _write(tmp_path, "six.fm", "all a. all b. all c. all d. all e. all f. a = b")
    for argv, want in ((("--rank", "4", f), "rank"), (("--rank", "3", seven), "cell cap")):
        t0 = time.monotonic()
        code, out, err = run(capsys, "eval", *argv)
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == "" and len(err.splitlines()) == 1, (out, err)
        assert err.startswith("error:") and want in err
    for path in (f, six):
        t0 = time.monotonic()
        code, out, _ = run(capsys, "eval", "--rank", "3", path)
        assert time.monotonic() - t0 < 1
        assert code == 0 and out.strip() == "false"


def test_eval_does_not_count_separations(tmp_path, capsys):
    for text, want in (("p1(x) = y", "true"),
                       ("{a in {b in y | b in x} | a in y} = x", "false")):
        f = _write(tmp_path, "a.fm", text)
        code, out, err = run(capsys, "eval", "--rank", "3", "--env", "x={{}},y={}", f)
        assert (code, out.strip(), err) == (0, want, ""), (text, out, err)


def test_eval_missing_env(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "x = y")
    code, _, err = run(capsys, "eval", "--rank", "2", f)
    assert code == 2 and "misses" in err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--property", "oneside",
                       "--seed", "7", "--samples", "50", "--rank", "3")
    assert code == 0 and "ok" in out


def test_check_rejects_sweeps_above_rank_3(capsys):
    code, out, err = run(capsys, "check", "--property", "axioms", "--rank", "4", "--samples", "1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "rank" in err


def test_check_rejects_out_of_contract_counts(capsys):
    for prop, flag, value in (("subst", "--samples", "0"), ("freevars", "--samples", "-1"),
                              ("oneside", "--samples", "-3"), ("axioms", "--depth", "-4"),
                              ("subst", "--depth", "-1")):
        code, out, err = run(capsys, "check", "--property", prop, flag, value)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, (prop, flag, value)
        assert err.startswith(f"error: {flag} must be at least "), err
    for value in ("9", "-1"):
        code, out, err = run(capsys, "check", "--property", "freevars", "--samples", "3",
                             "--rank", value)
        assert (code, out, err) == (2, "", f"error: rank {value} outside 0..3\n")


def test_check_deterministic_output(capsys):
    args = ("check", "--property", "freevars", "--seed", "3", "--samples", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical


def test_check_output_does_not_depend_on_the_hash_seed():
    # node hashes are addresses and string hashes follow PYTHONHASHSEED, so
    # a report that read a set's iteration order would differ between runs
    src = str(pathlib.Path(mfbridge.__file__).parents[1])
    argv = [sys.executable, "-m", "mfbridge.cli", "check", "--property", "subst",
            "--seed", "3", "--samples", "20"]
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1] and outs[0].startswith("property subst: ok (20 samples")


def test_parse_idempotent(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "all x. (x in y /\\ false) -> x = empty")
    _, once, _ = run(capsys, "parse", f)
    f2 = _write(tmp_path, "b.fm", once.strip())
    _, twice, _ = run(capsys, "parse", f2)
    assert once == twice


def test_parse_sexp_format(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "x in y")
    code, out, _ = run(capsys, "parse", "--format", "sexp", f)
    assert code == 0 and out.strip() == "(Mem (Var x) (Var y))"


def test_parse_emtt_by_extension(tmp_path, capsys):
    # a collection opening with `[ prop`, and a context whose first name starts with `prop`
    for text, printed in (("lam x:V. x", "lam x:V. x"), ("[ prop bot ]", "[prop bot]"),
                          ("[propx:V]", "[propx:V]")):
        code, out, _ = run(capsys, "parse", _write(tmp_path, "a.mt", text))
        assert code == 0 and out.strip() == printed, text


def test_parse_error_exit_2(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "all x. (((")
    code, _, err = run(capsys, "parse", f)
    assert code == 2 and "parse error" in err


def test_nesting_cap(tmp_path, capsys):
    # a quantifier per level: the most parser recursion a level can cost
    at_cap = "".join(f"all v{i}. " for i in range(MAX_DEPTH - 2)) + "x in y"
    for text, code in ((at_cap, 0), ("not " + at_cap, 2), ("not " * 3000 + "x in y", 2)):
        f = _write(tmp_path, "deep.fm", text)
        for argv in (("parse",), ("translate", "--dir", "set2emtt"), ("classify",),
                     ("eval", "--rank", "0", "--env", "x={},y={}")):
            got, out, err = run(capsys, *argv, f)
            assert got == code, (argv, err[-200:])
            if code:
                assert out == "" and len(err.splitlines()) == 1 and "nested deeper" in err
    pair = "emptyv"
    for _ in range(MAX_SEXP_DEPTH - 3):
        pair = f"(pairv {pair} emptyv)"
    for nest, code in ((pair, 1), (f"(pairv {pair} emptyv)", 2)):
        f = _write(tmp_path, "deep.ri", f"""(instance step3.pair-formation (flavor czf)
  (sub (a emptyv) (b omegav)) (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem {nest} V)))""")
        got, out, err = run(capsys, "rules", "--check", f)
        assert got == code, err[-200:]
        assert (out.startswith("mismatch") if code == 1 else "nested deeper" in err)


def test_translate_modes(tmp_path, capsys):
    f = _write(tmp_path, "a.mt", "N1")
    code, out, _ = run(capsys, "translate", "--dir", "emtt2set", "--mode", "eta", f)
    assert code == 0 and out.strip() == "u = empty"
    g = _write(tmp_path, "b.mt", "star")
    code, out, _ = run(capsys, "translate", "--dir", "emtt2set", "--mode", "delta", g)
    assert code == 0 and out.strip() == "u = empty"
    h = _write(tmp_path, "c.mt", "[x:V, y:N1]")
    code, out, _ = run(capsys, "translate", "--dir", "emtt2set", "--mode", "context", h)
    assert code == 0 and out.strip() == "(false -> false) /\\ x = x /\\ y = empty"


def test_translate_rejects_placeholder(tmp_path, capsys):
    f = _write(tmp_path, "a.mt", "u eps y")
    code, _, err = run(capsys, "translate", "--dir", "emtt2set", "--mode", "hat", f)
    assert code == 2 and "placeholder" in err


def test_translate_ill_formed_context(tmp_path, capsys):
    f = _write(tmp_path, "a.mt", "[x:V, x:N1]")
    code, _, err = run(capsys, "translate", "--dir", "emtt2set", "--mode", "context", f)
    assert code == 1 and "duplicate" in err


def test_classify(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "all x in y. x in y")
    code, out, _ = run(capsys, "classify", "--flavor", "czf", f)
    assert code == 0 and "delta0: yes" in out
    g = _write(tmp_path, "b.fm", "Pow(omega)")
    code, out, _ = run(capsys, "classify", "--flavor", "czf", g)
    assert code == 1 and "violation" in out


def test_sigma_command(tmp_path, capsys):
    d = DATA / "k0" / "03_exists_in_pair.k0"
    g = DATA / "k0" / "03_exists_in_pair.gamma.fm"
    code, out, _ = run(capsys, "sigma", "--derivation", str(d),
                       "--gamma", str(g), "--rank", "3")
    assert code == 0
    assert "hf_verified" in out
    assert "sigma: ex w. w in z /\\ w in x" in out
    assert "delta0 (leftovers free): yes" in out


def test_sigma_refuted_obligation(tmp_path, capsys):
    bad = _write(tmp_path, "bad.k0",
                 "(K0Bounded plain z (Mem (Var z) (Var x)) _ (K0Atom (Bot)))")
    g = _write(tmp_path, "g.fm", "x = x")
    code, out, _ = run(capsys, "sigma", "--derivation", bad, "--gamma", g)
    assert code == 1 and "refuted" in out


def test_sigma_rejects_witness_capture(tmp_path, capsys):
    # each inner step refers to a name the enclosing step binds; in the last
    # derivation the bounded variable z is the step's own witness variable
    g = _write(tmp_path, "g.fm", "x = x /\\ y = y")
    for text, where, why in (
            ("(K0Bounded existsIn z (Eq (Var z) (Pow (Var y))) x (K0Bounded forallIn u "
             "(Eq (Var u) (Union (Var x))) y (K0Atom (Mem (Var y) (Var x)))))",
             "root.body", "enclosing"),
            ("(K0Bounded existsIn z (Eq (Var z) (Pair (Var x) (Var x))) u (K0Bounded "
             "existsIn u (Eq (Var u) (Union (Var x))) w (K0Atom (Mem (Var w) (Var u)))))",
             "root.body", "enclosing"),
            ("(K0Bounded existsIn z (Eq (Var z) (Pair (Var x) (Var x))) z "
             "(K0Atom (Mem (Var z) (Var x))))", "root", "own witness")):
        d = _write(tmp_path, "d.k0", text)
        code, out, err = run(capsys, "sigma", "--derivation", d, "--gamma", g)
        assert code == 1 and out == "" and len(err.splitlines()) == 1, (text, out, err)
        assert err.startswith(f"mismatch at {where}:") and why in err


def test_sigma_ill_sorted_derivation(tmp_path, capsys):
    # a formula where a term goes, and a set term where a derivation goes
    g = str(DATA / "k0" / "03_exists_in_pair.gamma.fm")
    good = (DATA / "k0" / "03_exists_in_pair.k0").read_text()
    for text in (good.replace("(Pair (Var x) (Var x))", "(Pair (Bot) (Var x))"), "(Var x)"):
        assert text != good
        d = _write(tmp_path, "d.k0", text)
        code, out, err = run(capsys, "sigma", "--derivation", d, "--gamma", g)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, (text, out, err)
        assert err.startswith("parse error: expected a ")
    # an unknown connective or bounded-step kind, or a list where a node kind
    # goes, is refused as the file is read
    for text, reason in (
            ("(K0Conn xor (K0Atom (Bot)) (K0Atom (Bot)))", "unknown connective kind 'xor'"),
            ("(K0Bounded foo z (Eq (Var z) (Var x)) y (K0Atom (Bot)))",
             "unknown bounded-step kind 'foo'"),
            ("((K0Atom (Bot)))", "expected a node kind, found a list")):
        d = _write(tmp_path, "d.k0", text)
        code, out, err = run(capsys, "sigma", "--derivation", d, "--gamma", g)
        assert (code, out, err) == (2, "", f"parse error: {reason}\n"), text


def test_sigma_grid_over_the_cell_cap(tmp_path, capsys):
    g = _write(tmp_path, "g.fm", " /\\ ".join(f"x{i} = x{i}" for i in range(1, 8)))
    d = _write(tmp_path, "d.k0", "(K0Bounded plain z (Eq (Var z) (Empty)) _ "
                                 "(K0Atom (Mem (Var x1) (Var x2))))")
    code, out, err = run(capsys, "sigma", "--derivation", d, "--gamma", g)
    assert code == 2 and out == "" and len(err.splitlines()) == 1, (out, err)
    assert "cell cap" in err


def test_rules_list_counts(capsys):
    for flavor, n in (("czf", 61), ("izf", 62), ("zf", 63)):
        code, out, _ = run(capsys, "rules", "--flavor", flavor, "--list")
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip()]) == n


def test_rules_check(tmp_path, capsys):
    ok = _write(tmp_path, "ok.ri", """
(instance step3.pair-formation (flavor czf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))
""")
    code, out, _ = run(capsys, "rules", "--check", ok)
    assert code == 0 and "ok" in out
    bad = _write(tmp_path, "bad.ri", """
(instance step4.star-eq (flavor czf) (sub) (premises)
  (conclusion (eqelem star omegav N1)))
""")
    code, out, _ = run(capsys, "rules", "--check", bad)
    assert code == 1 and "mismatch" in out
    for conclusion in ("(elem (pairv emptyv omegav V) V)", "(elem (pairv emptyv omegav) V junk)",
                       "(elem (pairv emptyv) V)"):
        wrong = _write(tmp_path, "arity.ri", f"""
(instance step3.pair-formation (flavor czf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion {conclusion}))
""")
        code, out, err = run(capsys, "rules", "--check", wrong)
        assert code == 2 and out == "", conclusion
        assert err.startswith("bad instance file: ") and len(err.splitlines()) == 1, err


def test_rules_refuses_list_with_check(tmp_path, capsys):
    f = _write(tmp_path, "empty.ri", "")
    for target in (f, str(tmp_path / "nonexistent")):
        code, out, err = run(capsys, "rules", "--list", "--check", target)
        assert (code, out, err) == (2, "", "error: --list and --check exclude each other\n")


def test_rules_check_refuses_the_list_only_flags(tmp_path, capsys):
    # an instance file names its own flavor; --flavor and --derived select what --list shows
    f = _write(tmp_path, "empty.ri", "")
    for flags, flag in ((["--flavor", "zf"], "--flavor"), (["--flavor", "czf"], "--flavor"),
                        (["--derived"], "--derived"), (["--flavor", "zf", "--derived"], "--flavor")):
        code, out, err = run(capsys, "rules", *flags, "--check", f)
        assert (code, out, err) == (2, "", f"error: {flag} applies only to --list\n"), flags
    assert run(capsys, "rules", "--list") == run(capsys, "rules", "--flavor", "czf", "--list")


def test_translate_refuses_a_mode_for_set2emtt(tmp_path, capsys):
    f = _write(tmp_path, "a.fm", "x in y")
    for mode in ("eta", "delta", "hat", "context"):
        code, out, err = run(capsys, "translate", "--dir", "set2emtt", "--mode", mode, f)
        assert (code, out, err) == (2, "", "error: --mode applies only to --dir emtt2set\n")


@pytest.mark.parametrize("error", [EvalError("unbound variable 'x'"),
                                   RecursionError("maximum recursion depth exceeded")])
def test_main_turns_an_evaluation_or_recursion_error_into_exit_2(error, capsys, monkeypatch):
    def fail(args):
        raise error
    monkeypatch.setattr(mfbridge.cli, "cmd_parse", fail)
    assert run(capsys, "parse", "a.fm") == (2, "", f"error: {error}\n")


def test_main_leaves_a_type_error_to_show_its_traceback(monkeypatch):
    def fail(args):
        raise TypeError("a fault of the program")
    monkeypatch.setattr(mfbridge.cli, "cmd_parse", fail)
    with pytest.raises(TypeError, match="a fault of the program"):
        main(["parse", "a.fm"])


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["translate", "--dir", "sideways", "x"])
    assert e.value.code == 2


def test_malformed_seed_env_is_a_usage_error_of_check_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MF_BRIDGE_SEED", "abc")
    f = _write(tmp_path, "a.fm", "x = x")
    assert run(capsys, "parse", f) == (0, "x = x\n", "")
    code, out, _ = run(capsys, "check", "--property", "axioms", "--seed", "3", "--samples", "2")
    assert code == 0 and out.startswith("property axioms: ok")
    with pytest.raises(SystemExit) as e:
        main(["check", "--property", "axioms", "--samples", "2"])
    assert e.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


_NUMPY_PROBE = """
import contextlib, io, json, pkgutil, sys
import mfbridge, mfbridge.cli
unloaded = [m.name for m in pkgutil.iter_modules(mfbridge.__path__)
            if f"mfbridge.{m.name}" not in sys.modules]
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = mfbridge.cli.main(argv)
    seen.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps([unloaded, seen]))
"""


def _numpy_after(*argvs):
    """Run each argv through `main` in one fresh interpreter: the mfbridge
    modules that `import mfbridge.cli` left unloaded, and per argv its
    command, exit code and whether numpy was loaded by then."""
    src = str(pathlib.Path(mfbridge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_numpy_loads_at_the_first_sweep_only(tmp_path):
    f = _write(tmp_path, "a.fm", "x = empty")
    ri = _write(tmp_path, "ok.ri", """
(instance step3.pair-formation (flavor czf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))
""")
    unloaded, seen = _numpy_after(
        ("parse", f), ("translate", "--dir", "set2emtt", f), ("classify", f),
        ("rules", "--list"), ("rules", "--check", ri), ("eval", "--rank", "-1", "--env", "x={}", f),
        ("eval", "--rank", "1", "--env", "x={}", f))
    assert unloaded == []  # `import mfbridge.cli` loads every module
    assert seen == [["parse", 0, False], ["translate", 0, False], ["classify", 0, False],
                    ["rules", 0, False], ["rules", 0, False], ["eval", 2, False], ["eval", 0, True]]
    _, seen = _numpy_after(("check", "--property", "axioms", "--samples", "2"))
    assert seen == [["check", 0, True]]


# -- seeded fuzz: every input ends in an exit code ---------------------------------

FUZZ_RUNS = 2000
# tokens a mutant may take besides the seed inputs' own words: kind names no
# command knows, a reserved name, numerals, stray parentheses
_STRANGERS = ("xor", "foo", "u", "0", "-1", "#", "{}", "(", ")")
_RULE_INSTANCES = (
    """(instance step3.pair-formation (flavor izf)
  (sub (a emptyv) (b omegav))
  (premises (elem emptyv V) (elem omegav V))
  (conclusion (elem (pairv emptyv omegav) V)))""",
    """(instance step4.star-eq (flavor czf) (sub) (premises)
  (conclusion (eqelem star omegav N1)))""",
    """(instance step1.compr-formation (flavor czf)
  (sub (phi (epst w omegav)) (x w))
  (premises (is (epst q omegav) prop (ctx (q V))))
  (conclusion (is (compr q (epst q omegav)) col)))""",
)
# the commands that read each kind of input; 0 and 1 stand for its files
_FUZZ_COMMANDS = {
    "set": (["parse", 0], ["parse", "--format", "sexp", 0], ["classify", 0],
            ["classify", "--flavor", "zf", 0], ["translate", "--dir", "set2emtt", 0],
            ["eval", "--rank", "1", "--env", "x={},y={{}},z={}", 0]),
    "emtt": (["parse", "--lang", "emtt", 0],
             *(["translate", "--dir", "emtt2set", "--mode", m, 0]
               for m in ("eta", "delta", "hat", "context"))),
    "k0": (["sigma", "--rank", "2", "--derivation", 0, "--gamma", 1],),
    "rules": (["rules", "--check", 0],),
}


def _fuzz_corpus() -> dict[str, list[tuple[str, ...]]]:
    """Seed inputs by kind, each a tuple of file texts: printed set and
    pre-syntax ASTs, s-expression derivations with their gamma, and rule
    instances."""
    from mfbridge import sexp
    from mfbridge.printer import print_emtt, print_set
    from mfbridge.properties import (GenConfig, gen_precollection, gen_preprop,
                                     gen_preterm, gen_set_formula, gen_set_term)
    corpus = {"set": [], "emtt": [], "k0": [], "rules": [(t,) for t in _RULE_INSTANCES]}
    for seed in range(12):
        cfg = GenConfig(seed=seed, max_depth=2)
        f = gen_set_formula(cfg)
        corpus["set"] += [(print_set(f),), (print_set(gen_set_term(cfg)),)]
        corpus["emtt"] += [(print_emtt(gen(cfg)),)
                           for gen in (gen_preprop, gen_preterm, gen_precollection)]
        if seed < 4:
            corpus["k0"].append((f"(K0Atom {sexp.dumps(f)})", "x = x /\\ y = y /\\ z = z"))
    for d in sorted((DATA / "k0").glob("*.k0")):
        corpus["k0"].append((d.read_text(), d.with_suffix(".gamma.fm").read_text()))
    return corpus


def _mutate(text: str, rng, pool) -> str:
    """Delete, repeat, swap, replace (an atom) or insert a token, once or twice."""
    tokens = re.findall(r"[()]|[^\s()]+", text)
    for _ in range(rng.randint(1, 2)):
        if not tokens:
            break
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.randrange(5)
        if op == 0:
            del tokens[i]
        elif op == 1:
            tokens.insert(i, tokens[i])
        elif op == 2:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == 3:
            atoms = [k for k, t in enumerate(tokens) if t not in "()"] or [i]
            tokens[rng.choice(atoms)] = rng.choice(pool)
        else:
            tokens.insert(i, rng.choice(pool))
    return " ".join(tokens)


def test_fuzz_cli_ends_in_an_exit_code(tmp_path, capsys):
    # mutated inputs to every subcommand that reads a file: each ends in exit
    # 0, 1 or 2, never in an exception, and an exit 2 prints one line on stderr
    rng = random.Random(0)
    corpus = _fuzz_corpus()
    pools = {kind: sorted({t for entry in entries for text in entry
                           for t in re.findall(r"[^\s()]+", text)} | set(_STRANGERS))
             for kind, entries in corpus.items()}
    bad = []
    for _ in range(FUZZ_RUNS):
        kind = rng.choice(sorted(corpus))
        texts = list(rng.choice(corpus[kind]))
        k = rng.randrange(len(texts))
        texts[k] = _mutate(texts[k], rng, pools[kind])
        paths = [_write(tmp_path, f"in{i}", t) for i, t in enumerate(texts)]
        argv = [paths[a] if isinstance(a, int) else a for a in rng.choice(_FUZZ_COMMANDS[kind])]
        try:
            code, out, err = run(capsys, *argv)
        except Exception as e:
            bad.append((argv[0], texts, f"{type(e).__name__}: {e}"))
            continue
        if code not in (0, 1, 2) or (code == 2 and len(err.splitlines()) != 1):
            bad.append((argv[0], texts, code, err))
    assert not bad, f"{len(bad)} of {FUZZ_RUNS} inputs: {bad[:5]}"
