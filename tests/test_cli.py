"""CLI behavior: dispatch, exit codes, determinism of output."""
import io
import pathlib
import sys
import time

import pytest

from mfbridge.cli import main
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
                 ("--rank", "2", "--env", "x={},x={{}},y={{}}")):
        code, out, err = run(capsys, "eval", *argv, f)
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


def test_check_deterministic_output(capsys):
    args = ("check", "--property", "freevars", "--seed", "3", "--samples", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical


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


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["translate", "--dir", "sideways", "x"])
    assert e.value.code == 2
