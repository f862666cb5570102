"""Bounded-class derivations: reconstruction, obligations, bound erasure."""
import functools
import itertools
import pathlib

import pytest

from mfbridge import delta0_k0, sexp
from mfbridge.cli import K0_REGISTRY
from mfbridge.core import alpha_eq, free_vars
from mfbridge.delta0_k0 import (AgreementReport, K0Atom, K0Bounded, K0Conn,
                                Mismatch, SigmaError, check_separation_lemma,
                                check_sigma_agreement, derived_formula,
                                discharge_obligations, k0_reconstruct, sigma)
from mfbridge.hf import Overflow, enumerate_universe, eval_formula
from mfbridge.parser import parse_set_formula
from mfbridge.set_syntax import (And, Bot, Empty, Eq, Exists, Forall, Imp, Mem, Or,
                                 Pair, Pow, TheoryFlavor, Union, Var, elaborate,
                                 is_delta0, normalize)

DATA = pathlib.Path(__file__).parent / "data" / "k0"
TOP = Imp(Bot(), Bot())


def test_atom_derivation():
    phi = Eq(Var("x"), Var("y"))
    gamma = And(Eq(Var("x"), Var("x")), Eq(Var("y"), Var("y")))
    res = k0_reconstruct(phi, gamma, K0Atom(phi))
    assert res.ok and res.obligations == ()


def test_conn_derivation():
    phi = And(Mem(Var("x"), Var("y")), Bot())
    gamma = And(Eq(Var("x"), Var("x")), Eq(Var("y"), Var("y")))
    d = K0Conn("and", K0Atom(Mem(Var("x"), Var("y"))), K0Atom(Bot()))
    assert k0_reconstruct(phi, gamma, d).ok


def test_root_free_variable_condition():
    phi = Eq(Var("x"), Var("y"))
    res = k0_reconstruct(phi, TOP, K0Atom(phi))
    assert not res.ok
    assert "free variables" in res.mismatch.reason


def test_atom_shape_restriction():
    phi = Eq(Empty(), Empty())
    gamma = TOP
    res = k0_reconstruct(phi, gamma, K0Atom(phi))
    assert not res.ok  # only variables may appear in atoms


def test_bounded_step_with_pow_witness():
    # one obligation: under gamma there is exactly one z equal to Pow(x)
    delta = Eq(Var("z"), Pow(Var("x")))
    body = K0Conn("imp", K0Atom(Mem(Var("y"), Var("x"))), K0Atom(Mem(Var("y"), Var("x"))))
    d = K0Bounded("forallIn", "z", delta, "y", body)
    gamma = Eq(Var("x"), Var("x"))
    phi = derived_formula(d)
    res = k0_reconstruct(phi, gamma, d)
    assert res.ok and len(res.obligations) == 1
    ob = res.obligations[0]
    assert free_vars(ob.formula) == {"x"}
    obs = discharge_obligations(res.obligations, 3)
    assert obs[0].status == "hf_verified" and obs[0].rank == 3


def test_refuted_obligation_blocks_sigma():
    # z in x does not determine z uniquely
    delta = Mem(Var("z"), Var("x"))
    d = K0Bounded("plain", "z", delta, "_", K0Atom(Bot()))
    gamma = Eq(Var("x"), Var("x"))
    res = k0_reconstruct(derived_formula(d), gamma, d)
    assert res.ok
    obs = discharge_obligations(res.obligations, 3)
    assert obs[0].status == "refuted"
    with pytest.raises(SigmaError):
        sigma(d, obs)


def test_mismatch_reports_path():
    phi = And(Bot(), Bot())
    d = K0Conn("and", K0Atom(Bot()), K0Atom(Eq(Var("x"), Var("x"))))
    res = k0_reconstruct(phi, TOP, d)
    assert not res.ok and res.mismatch.path == "root.right"


def test_bounded_step_mismatch_reasons():
    # the two bounded kinds differ only in quantifier, connective and wording
    delta = Eq(Var("z"), Var("x"))
    gamma = And(Eq(Var("x"), Var("x")), Eq(Var("v"), Var("v")))
    body = Mem(Var("y"), Var("x"))
    for kind, quant, conn, noun, shape in (
            ("existsIn", Exists, And, "existential", "ex y. y in z /\\ ..."),
            ("forallIn", Forall, Imp, "universal", "all y. y in z -> ...")):
        d = K0Bounded(kind, "z", delta, "y", K0Atom(body))

        def reason(rest):
            res = k0_reconstruct(Exists("z", And(delta, rest)), gamma, d)
            return res.mismatch and res.mismatch.reason

        assert reason(quant("y", conn(Mem(Var("y"), Var("z")), body))) is None
        assert reason(quant("u", conn(Mem(Var("u"), Var("z")), Mem(Var("u"), Var("x"))))) is None
        assert reason(Bot()) == f"expected a bounded {noun}"
        assert reason(quant("y", conn(Mem(Var("z"), Var("y")), body))) == \
            f"bounded {noun} must have shape {shape}"
        assert reason(quant("y", Or(Mem(Var("y"), Var("z")), body))) == \
            f"bounded {noun} must have shape {shape}"
    d = K0Bounded("existsIn", "z", delta, "v", K0Atom(body))
    res = k0_reconstruct(Exists("z", And(delta, Exists("u", And(Mem(Var("u"), Var("z")), Eq(
        Var("u"), Var("v")))))), gamma, d)
    assert res.mismatch == Mismatch("root.body", "formula does not match the atom certificate")
    # an unknown kind is refused when the node is built, before any check runs
    with pytest.raises(ValueError, match="^unknown bounded-step kind 'bogus'$"):
        K0Bounded("bogus", "z", delta, "y", K0Atom(body))
    with pytest.raises(ValueError, match="^unknown connective kind 'xor'$"):
        K0Conn("xor", K0Atom(body), K0Atom(body))


def test_witness_variable_must_be_fresh_for_gamma():
    delta = Eq(Var("z"), Empty())
    d = K0Bounded("plain", "z", delta, "_", K0Atom(Bot()))
    gamma = Eq(Var("z"), Var("z"))
    res = k0_reconstruct(derived_formula(d), gamma, d)
    assert not res.ok and "fresh" in res.mismatch.reason


def test_sigma_erases_bounds():
    delta = Eq(Var("z"), Pair(Var("x"), Var("x")))
    d = K0Bounded("existsIn", "z", delta, "w", K0Atom(Mem(Var("w"), Var("x"))))
    gamma = Eq(Var("x"), Var("x"))
    res = k0_reconstruct(derived_formula(d), gamma, d)
    obs = discharge_obligations(res.obligations, 3)
    sg = sigma(d, obs)
    assert sg.formula == Exists("w", And(Mem(Var("w"), Var("z")), Mem(Var("w"), Var("x"))))
    assert sg.leftover_bounds == ("z",)
    assert sg.is_delta0_with_leftovers_free()


def test_sigma_identity_without_bounded_steps():
    d = K0Conn("or", K0Atom(Bot()), K0Atom(Eq(Var("x"), Var("y"))))
    gamma = And(Eq(Var("x"), Var("x")), Eq(Var("y"), Var("y")))
    res = k0_reconstruct(derived_formula(d), gamma, d)
    sg = sigma(d, discharge_obligations(res.obligations, 3))
    assert sg.formula == derived_formula(d)
    assert sg.leftover_bounds == ()


def test_separation_lemma_examples():
    gamma = Eq(Var("x"), Var("x"))
    U2 = 2
    for d in [K0Atom(Eq(Var("x"), Var("x"))),
              K0Atom(Mem(Var("x"), Var("x"))),
              K0Atom(Bot())]:
        rep = check_separation_lemma(d, gamma, U2, var="x")
        assert rep.ok, rep.counterexample


def test_separation_lemma_two_vars():
    gamma = And(Eq(Var("x"), Var("x")), Eq(Var("y"), Var("y")))
    d = K0Conn("and", K0Atom(Mem(Var("x"), Var("y"))), K0Atom(Eq(Var("x"), Var("x"))))
    assert check_separation_lemma(d, gamma, 2, var="x").ok


def test_corpus_round_trips_through_files():
    cases = sorted(DATA.glob("*.k0"))
    assert len(cases) == 10
    for path in cases:
        d = sexp.loads(path.read_text(), K0_REGISTRY)
        gamma_src = (DATA / (path.name[:-3] + ".gamma.fm")).read_text()
        gamma = normalize(elaborate(parse_set_formula(gamma_src)))
        res = k0_reconstruct(derived_formula(d), gamma, d)
        assert res.ok, (path.name, res.mismatch)
        assert sexp.loads(sexp.dumps(d), K0_REGISTRY) == d


def _load(name: str):
    return sexp.loads((DATA / f"{name}.k0").read_text(), K0_REGISTRY)


def _gamma(text: str):
    return normalize(elaborate(parse_set_formula(text)))


def _corpus():
    for path in sorted(DATA.glob("*.k0")):
        yield path.name[:-3], _load(path.name[:-3]), \
            _gamma((DATA / (path.name[:-3] + ".gamma.fm")).read_text())


def test_capture_by_an_enclosing_bound_variable_is_a_mismatch():
    gamma = _gamma("x = x /\\ y = y")
    # u's witness formula mentions x, which the enclosing step binds
    inner = K0Bounded("forallIn", "u", Eq(Var("u"), Union(Var("x"))), "y",
                      K0Atom(Mem(Var("y"), Var("x"))))
    d = K0Bounded("existsIn", "z", Eq(Var("z"), Pow(Var("y"))), "x", inner)
    res = k0_reconstruct(derived_formula(d), gamma, d)
    assert not res.ok and res.mismatch.path == "root.body"
    assert "enclosing" in res.mismatch.reason
    # the inner witness variable is the enclosing bound variable u
    inner = K0Bounded("existsIn", "u", Eq(Var("u"), Union(Var("x"))), "w",
                      K0Atom(Mem(Var("w"), Var("u"))))
    d = K0Bounded("existsIn", "z", Eq(Var("z"), Pair(Var("x"), Var("x"))), "u", inner)
    res = k0_reconstruct(derived_formula(d), _gamma("x = x"), d)
    assert not res.ok and res.mismatch.path == "root.body"
    assert "enclosing" in res.mismatch.reason

    # the bounded variable z is the step's own witness variable:
    # ex z. (z = {x, x} /\ ex z. z in z /\ z in x)
    for kind, atom in (("existsIn", Mem(Var("z"), Var("x"))), ("forallIn", Bot())):
        d = K0Bounded(kind, "z", Eq(Var("z"), Pair(Var("x"), Var("x"))), "z", K0Atom(atom))
        res = k0_reconstruct(derived_formula(d), _gamma("x = x"), d)
        assert not res.ok and res.mismatch.path == "root"
        assert "own witness" in res.mismatch.reason


# -- differential test of the agreement check ---------------------------------
#
# The per-environment loop below is the reference check_sigma_agreement must
# reproduce, report for report, on the recursive evaluator.

def unique_witness(delta, z, env, U):
    """The unique value for z satisfying delta under env, or None if evaluation
    overflowed or the value is not unique."""
    hits = []
    for el in U.elements:
        try:
            if eval_formula(delta, {**env, z: el}, U):
                hits.append(el)
        except Overflow:
            return None
    return hits[0] if len(hits) == 1 else None


def reference_agreement(d, gamma, rank: int) -> AgreementReport:
    U = enumerate_universe(rank)
    phi = derived_formula(d)
    res = k0_reconstruct(phi, gamma, d)
    sg = delta0_k0.sigma(d, discharge_obligations(res.obligations, rank))
    gvars = tuple(sorted(free_vars(gamma)))
    checked = skipped = 0
    for combo in itertools.product(U.elements, repeat=len(gvars)):
        env = dict(zip(gvars, combo))
        try:
            if not eval_formula(gamma, env, U):
                continue
        except Overflow:
            skipped += 1
            continue
        wenv = dict(env)
        bad = False
        for ob in res.obligations:
            w = unique_witness(ob.delta, ob.z, wenv, U)
            if w is None:
                bad = True
                break
            wenv[ob.z] = w
        if bad:
            skipped += 1
            continue
        try:
            lhs = eval_formula(phi, env, U)
            rhs = eval_formula(sg.formula, wenv, U)
        except Overflow:
            skipped += 1
            continue
        checked += 1
        if lhs != rhs:
            return AgreementReport(False, checked, skipped, wenv)
    return AgreementReport(True, checked, skipped)


def test_unique_witness():
    U = enumerate_universe(3)
    delta = Eq(Var("z"), Union(Var("x")))
    w = unique_witness(delta, "z", {"x": U.elements[3]}, U)
    assert w == U.elements[U.index_of(w)]
    not_unique = Mem(Var("z"), Var("x"))
    assert unique_witness(not_unique, "z", {"x": U.elements[3]}, U) is None


def _agree(d, gamma, rank: int = 3) -> AgreementReport:
    rep = check_sigma_agreement(d, gamma, rank)
    assert rep == reference_agreement(d, gamma, rank), (d, gamma)
    return rep


CORPUS_COUNTS = {"01_atom_eq": (256, 0), "02_conj_atoms": (256, 0),
                 "03_exists_in_pair": (4, 12), "04_forall_in_union": (16, 0),
                 "05_plain_empty": (256, 0), "06_nested": (4, 12),
                 "07_pow_witness": (4, 12), "08_imp_atoms": (256, 0),
                 "09_or_bounded": (4, 12), "10_two_steps": (64, 192)}
SLOW = {"06_nested", "10_two_steps"}  # the reference runs these once only


def test_agreement_matches_reference_on_the_corpus():
    for name, d, gamma in _corpus():
        rep = _agree(d, gamma)
        assert rep.ok and (rep.envs_checked, rep.envs_skipped) == CORPUS_COUNTS[name], name


def test_agreement_matches_reference_under_other_gammas():
    for text in ("x in y /\\ y = y", "x = {y, y} /\\ y = y",
                 "Pow(Pow(x)) = Pow(Pow(x)) /\\ y = y"):
        gamma = _gamma(text)
        for name, d, _ in _corpus():
            if name not in SLOW:
                _agree(d, gamma)


def _bounded_chain(steps, atom):
    d = atom
    for kind, z, delta, y in reversed(steps):
        d = K0Bounded(kind, z, delta, y, d)
    return d


def test_agreement_matches_reference_with_shadowing_binders():
    x, y = Var("x"), Var("y")
    gamma = _gamma("x = x /\\ y = y")
    nested = K0Bounded("existsIn", "z", Eq(Var("z"), Union(y)), "y",
                       K0Bounded("forallIn", "z2", Eq(Var("z2"), Pair(x, x)), "x",
                                 K0Atom(Eq(x, y))))
    assert _agree(nested, _gamma("x = {y, y} /\\ y = y")).envs_checked > 0
    cases = [
        # the bound variable reuses a gamma name
        K0Bounded("existsIn", "z", Eq(Var("z"), Pair(x, y)), "x", K0Atom(Mem(x, y))),
        K0Bounded("forallIn", "z", Eq(Var("z"), Pair(x, y)), "y", K0Atom(Mem(x, y))),
        # the bound variable reuses a sibling's witness name
        K0Conn("and",
               K0Bounded("existsIn", "z1", Eq(Var("z1"), Pair(x, x)), "w",
                         K0Atom(Mem(Var("w"), x))),
               K0Bounded("existsIn", "z2", Eq(Var("z2"), Union(y)), "z1",
                         K0Atom(Mem(Var("z1"), x)))),
        K0Conn("or",
               K0Bounded("forallIn", "z1", Eq(Var("z1"), Union(x)), "z2",
                         K0Atom(Mem(Var("z2"), y))),
               K0Bounded("existsIn", "z2", Eq(Var("z2"), Pair(x, y)), "z1",
                         K0Atom(Eq(Var("z1"), y)))),
    ]
    for d in cases:
        assert k0_reconstruct(derived_formula(d), gamma, d).ok, d
        _agree(d, gamma)


def test_agreement_with_six_conjoined_steps():
    # the image mentions six witnesses; none of them widens the grid
    x = Var("x")
    deltas = [Pair(x, x), Union(x), Pow(x), Pair(x, Empty()), Union(Union(x)), Pair(Empty(), x)]
    steps = [K0Bounded("existsIn", f"z{i}", Eq(Var(f"z{i}"), t), f"w{i}",
                       K0Atom(Mem(Var(f"w{i}"), x))) for i, t in enumerate(deltas)]
    d = functools.reduce(lambda l, r: K0Conn("and", l, r), steps)
    rep = _agree(d, _gamma("x = x"))
    assert rep.ok and rep.envs_checked > 0


def _swap_bounds(f):
    match f:
        case Exists(y, And(Mem(Var(a), z) as m, body)) if a == y:
            return Forall(y, Imp(m, _swap_bounds(body)))
        case Forall(y, Imp(Mem(Var(a), z) as m, body)) if a == y:
            return Exists(y, And(m, _swap_bounds(body)))
        case And(l, r) | Or(l, r) | Imp(l, r):
            return type(f)(_swap_bounds(l), _swap_bounds(r))
    return f


@pytest.mark.parametrize("wrong", [lambda f: Imp(f, Bot()), lambda f: Bot(), _swap_bounds],
                         ids=["negated", "bot", "swapped"])
def test_agreement_matches_reference_on_wrong_images(monkeypatch, wrong):
    real = delta0_k0.sigma

    def planted(d, obligations):
        sg = real(d, obligations)
        return type(sg)(wrong(sg.formula), sg.leftover_bounds)

    monkeypatch.setattr(delta0_k0, "sigma", planted)
    refuted = 0
    for name, d, gamma in _corpus():
        if name not in SLOW:
            refuted += not _agree(d, gamma).ok
    assert refuted > 0
