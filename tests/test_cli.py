"""CLI behavior: dispatch, exit codes, determinism of output."""
import hashlib
import io
import json
import os
import pathlib
import random
import re
import string
import subprocess
import sys
import time

import pytest

import mfbridge
from mfbridge import properties, set_syntax as fol
from mfbridge.cli import main
from mfbridge.core import free_vars
from mfbridge.hat import HatTranslator
from mfbridge.hf import EvalError
from mfbridge.parser import MAX_DEPTH, ParseError, parse_set, parse_set_formula
from mfbridge.set_syntax import elaborate
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


@pytest.mark.parametrize("name", ["", "x y", "all"])
@pytest.mark.parametrize("text", ["empty = empty", "x = x"])
def test_eval_refuses_an_env_name_that_is_not_a_variable(tmp_path, capsys, name, text):
    f = _write(tmp_path, "a.fm", text)
    code, out, err = run(capsys, "eval", "--env", f"{name}={{}}", f)
    assert (code, out, err) == (2, "", f"error: --env name {name!r} is not a variable name\n")


@pytest.mark.parametrize("text, env, name", [("empty = empty", "x={}", "x"),
                                             ("all x. x = x", "x={}", "x"),
                                             ("x = x", "x={},y={}", "y")])
def test_eval_refuses_an_env_name_that_is_not_free(tmp_path, capsys, text, env, name):
    f = _write(tmp_path, "a.fm", text)
    code, out, err = run(capsys, "eval", "--env", env, f)
    assert (code, out, err) == (2, "", f"error: --env name {name!r} is not free in the input\n")


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


def test_check_refuses_an_option_the_property_does_not_read(capsys):
    for prop, argv in (("axioms", ("--samples", "5")), ("axioms", ("--depth", "1")),
                       ("axioms", ("--omega",)), ("freevars", ("--rank", "2"))):
        code, out, err = run(capsys, "check", "--property", prop, *argv)
        assert (code, out, err) == (2, "", f"error: {argv[0]} is not read by --property {prop}\n")
    # --seed stays accepted with every property: the benchmark's cli case
    # (perfbench/cli_cases.py) passes it to axioms
    code, out, _ = run(capsys, "check", "--property", "axioms", "--rank", "2", "--seed", "9")
    assert code == 0 and out.startswith("property axioms: ok (8 samples")


def test_check_deterministic_output(capsys):
    args = ("check", "--property", "freevars", "--seed", "3", "--samples", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical


def test_check_axioms_renders_a_failing_report(monkeypatch, capsys):
    planted = [("planted-pair", parse_set_formula("x in y -> {x, x} = y")),
               ("planted-pow", parse_set_formula("Pow(x) in Pow(y)"))]
    monkeypatch.setattr(properties, "standard_axioms", lambda: planted)
    code, out, err = run(capsys, "check", "--property", "axioms", "--rank", "3")
    assert (code, err) == (1, "")
    assert out == (
        "property axioms: FAIL (2 samples, 192 overflow-skipped envs, 0 regenerated)\n"
        "  sample 0: axiom fails in the bounded universe\n"
        "    input: planted-pair\n"
        "    env: x={}, y={{},{{}}}\n"
        "  sample 1: axiom fails in the bounded universe\n"
        "    input: planted-pow\n"
        "    env: x={}, y={}\n")


@pytest.mark.parametrize("method, detail, subject", [
    ("hat", "free vars ['leak'] != []", "tt eps eps"),
    ("eta", "collection image leaks variables ['leak']", "V"),
    ("delta", "term image leaks variables ['leak']", "eps"),
])
def test_check_freevars_renders_a_leaked_variable(monkeypatch, capsys, method, detail, subject):
    translate = getattr(HatTranslator, method)
    monkeypatch.setattr(HatTranslator, method, lambda self, node: fol.And(
        translate(self, node), fol.Mem(fol.Var("leak"), fol.Var("leak"))))
    code, out, err = run(capsys, "check", "--property", "freevars", "--samples", "1", "--depth", "0")
    assert (code, err) == (1, "")
    assert out == ("property freevars: FAIL (1 samples, 0 overflow-skipped envs, 0 regenerated)\n"
                   f"  sample 0: {detail}\n    input: {subject}\n")


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


SIGMA_DIGESTS = {
    "01_atom_eq": "01aee8210fe77064fb6e72a896eca7b62d6569b7aa8d2d877823d3d325b56195",
    "02_conj_atoms": "716c7f7099bfc9e7c570f099de98e435b777a01446078c3c0b079954ba941c3c",
    "03_exists_in_pair": "2e903aadda08ee3ed46f2228d70f45d3fcd18d070b43113b9a10d24b905a554a",
    "04_forall_in_union": "a89cb0e83d4b05809779513a105bc4ecc21260ece747559034fb25777bb8de60",
    "05_plain_empty": "fccf8e96aa53e9c24aa57c03714fc40a582ba944fe675ef2e91d07f218a1bda1",
    "06_nested": "91595388e83e8a79120fe505bd835e40235a305eb5a023f0e3727e93663ba2a7",
    "07_pow_witness": "e81bf143422134a6474d5031cc1c731ca1cdb82cc74c9a5d004f471bca6dea40",
    "08_imp_atoms": "ebd5ca8988769d2992e976631084f011060584080532e0dfe05e7c2437a0eff4",
    "09_or_bounded": "8e835c02086f4c584d7a14c1890c6b9a2b65a854224e4cacc93233fc5b35a75a",
    "10_two_steps": "2bd0ada8a42a421b1a4b96f033740266818d181d943d15ed4be891b42aff3e2e",
}
# gamma, derivation, the one stderr line
SIGMA_REFUSALS = (
    ("x = x", "(K0Atom (Eq (Var x) (Var w)))",
     "root: free variables ['w'] of the formula are not free in gamma"),
    ("x = x", "(K0Atom (Eq (Empty) (Empty)))",
     "root: atoms must be falsum or equality/membership of variables"),
    ("x = x", "(K0Conn and (K0Atom (Bot)) (K0Atom (Mem (Empty) (Var x))))",
     "root.right: atoms must be falsum or equality/membership of variables"),
    ("x = x", "(K0Bounded plain z (Eq (Var z) (Var x)) _ "
              "(K0Bounded plain z (Eq (Var z) (Var x)) _ (K0Atom (Bot))))",
     "root.body: bound witness variable 'z' reused"),
    ("z = z", "(K0Bounded plain z (Eq (Var z) (Empty)) _ (K0Atom (Bot)))",
     "root: witness variable 'z' is not fresh for gamma"),
    ("x = x", "(K0Bounded plain z (Eq (Var z) (Var x)) _ "
              "(K0Bounded plain w (Eq (Var w) (Var z)) _ (K0Atom (Bot))))",
     "root.body: witness formula mentions ['z'] beyond gamma and 'w'"),
    ("x = x", "(K0Bounded existsIn z (Eq (Var z) (Pair (Var x) (Var x))) y "
              "(K0Bounded plain y (Eq (Var y) (Var x)) _ (K0Atom (Bot))))",
     "root.body: witness step mentions ['y'], bound by an enclosing step"),
    ("x = x", "(K0Bounded existsIn z (Eq (Var z) (Pair (Var x) (Var x))) z "
              "(K0Atom (Mem (Var z) (Var x))))",
     "root: bounded variable 'z' captures the step's own witness variable"),
)


def test_sigma_output_is_pinned(tmp_path, capsys):
    # the corpus prints the same report, and each side condition of the
    # derivation checker is refused with the same line
    for path in sorted((DATA / "k0").glob("*.k0")):
        g = path.with_name(path.name[:-3] + ".gamma.fm")
        code, out, err = run(capsys, "sigma", "--derivation", str(path), "--gamma", str(g),
                             "--rank", "3")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, err, digest) == (0, "", SIGMA_DIGESTS[path.name[:-3]]), path.name
    for gamma, text, line in SIGMA_REFUSALS:
        g, d = _write(tmp_path, "g.fm", gamma), _write(tmp_path, "d.k0", text)
        code, out, err = run(capsys, "sigma", "--derivation", d, "--gamma", g, "--rank", "3")
        assert (code, out, err) == (1, "", f"mismatch at {line}\n"), text


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


def test_rules_refuses_to_do_nothing(capsys):
    code, out, err = run(capsys, "rules")
    assert (code, out, err) == (2, "", "rules: nothing to do (use --list or --check)\n")


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
    code, out, _ = run(capsys, "check", "--property", "axioms", "--seed", "3", "--rank", "2")
    assert code == 0 and out.startswith("property axioms: ok")
    with pytest.raises(SystemExit) as e:
        main(["check", "--property", "axioms", "--rank", "2"])
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
    _, seen = _numpy_after(("check", "--property", "axioms", "--rank", "2"))
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
_FUZZ_ENV = "x={},y={{}},z={}"  # narrowed by _fuzz_env to the input's free names
_FUZZ_COMMANDS = {
    "set": (["parse", 0], ["parse", "--format", "sexp", 0], ["classify", 0],
            ["classify", "--flavor", "zf", 0], ["translate", "--dir", "set2emtt", 0],
            ["eval", "--rank", "1", "--env", _FUZZ_ENV, 0]),
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


def _fuzz_env(text: str) -> str:
    """The entries of _FUZZ_ENV for the names free in text, or all of them
    when text does not parse, so that eval is not refused an unused name."""
    try:
        names = free_vars(elaborate(parse_set(text)))
    except ParseError:
        return _FUZZ_ENV
    return ",".join(e for e in _FUZZ_ENV.split(",") if e[0] in names)


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
        argv = [paths[a] if isinstance(a, int) else _fuzz_env(texts[0]) if a == _FUZZ_ENV else a
                for a in rng.choice(_FUZZ_COMMANDS[kind])]
        try:
            code, out, err = run(capsys, *argv)
        except Exception as e:
            bad.append((argv[0], texts, f"{type(e).__name__}: {e}"))
            continue
        if code not in (0, 1, 2) or (code == 2 and len(err.splitlines()) != 1):
            bad.append((argv[0], texts, code, err))
    assert not bad, f"{len(bad)} of {FUZZ_RUNS} inputs: {bad[:5]}"


# -- seeded fuzz with random text, not only mutants of valid input -----------------

RANDOM_RUNS = 600
# words of the grammars and the s-expression files, so that random text gets
# past the tokenizer often enough to reach the later stages
_WORDS = ("all", "ex", "ex!", "in", "sub", "not", "false", "true", "empty", "omega", "Pow",
          "Un", "sing", "op", "p1", "lam", "eps", "V", "N1", "star", "prop", "col", "K0Atom",
          "K0Conn", "K0Bounded", "existsIn", "forallIn", "plain", "and", "Var", "Mem", "Eq",
          "instance", "flavor", "czf", "premises", "conclusion", "elem", "emptyv",
          "(", ")", "{", "}", "[", "]", ".", ",", "=", "|", ":", "->", "<->", "/\\", "\\/",
          "_", "x", "y", "z", "u", "v#1", "0", "1", "2")


def _random_text(rng) -> str:
    """Words and runs of printable characters, at random."""
    return " ".join(rng.choice(_WORDS) if rng.random() < 0.7
                    else "".join(rng.choices(string.printable, k=rng.randint(1, 3)))
                    for _ in range(rng.randrange(16)))


def test_fuzz_cli_random_text_ends_in_an_exit_code(tmp_path, capsys):
    # random text in place of one input file of every subcommand that reads
    # one, and random --env strings to eval: each ends in exit 0, 1 or 2,
    # never in an exception, and an exit 2 prints one line on stderr
    rng = random.Random(1)
    corpus = _fuzz_corpus()
    set_file = _write(tmp_path, "set", "x = y /\\ z in x")
    env_words = ("x", "y", "z", "all", "=", ",", "{", "}", "{}", "{{}}", "#")
    bad = []
    for _ in range(RANDOM_RUNS):
        if rng.random() < 0.2:
            env = "".join(rng.choice(env_words) if rng.random() < 0.8
                          else rng.choice(string.printable) for _ in range(rng.randrange(12)))
            # one word, so that an env starting with '-' is not read as an option
            argv = ["eval", "--rank", str(rng.randrange(4)), f"--env={env}", set_file]
            texts = [env]
        else:
            kind = rng.choice(sorted(corpus))
            texts = list(rng.choice(corpus[kind]))
            texts[rng.randrange(len(texts))] = _random_text(rng)
            paths = [_write(tmp_path, f"in{i}", t) for i, t in enumerate(texts)]
            argv = [paths[a] if isinstance(a, int) else a for a in rng.choice(_FUZZ_COMMANDS[kind])]
        try:
            code, out, err = run(capsys, *argv)
        except Exception as e:
            bad.append((argv[0], texts, f"{type(e).__name__}: {e}"))
            continue
        if code not in (0, 1, 2) or (code == 2 and len(err.splitlines()) != 1):
            bad.append((argv[0], texts, code, err))
    assert not bad, f"{len(bad)} of {RANDOM_RUNS} inputs: {bad[:5]}"
