import os
import random
import subprocess
import sys
import time

import pytest

import connexive
from connexive.embedding import embed_check, positive_goal, translate_f
from connexive.formula import Imp, Neg, Or, Var, parse, show
from connexive.prover import Verdict, _embedded, _native, decide, separation_matrix
from connexive.sequent import Calculus, Rule, Sequent, check_proof, fold, parse_sequent, seq

from helpers import all_formulas, has_negation, rand_formula, rand_sequent, size

p, q = Var("p"), Var("q")


def f(text):
    return show(translate_f(parse(text)))


def test_clauses():
    assert f("p") == "p"
    assert f("~p") == "p'"
    assert f("~~p") == "p"
    assert f("p & q") == "p & q"
    assert f("p | q") == "p | q"
    assert f("p -> q") == "p -> q"
    assert f("~(p & q)") == "p' | q'"
    assert f("~(p | q)") == "p' & q'"
    assert f("~(p -> q)") == "p -> q'"
    assert f("(p -> q) -> ~(p -> ~q)") == "(p -> q) -> p -> q"
    assert f("~~~p") == "p'"
    assert f("~(~p & q)") == "p | q'"


def test_fixes_negation_free():
    rng = random.Random(51)
    for _ in range(100):
        phi = rand_formula(rng, 10, allow_neg=False)
        assert translate_f(phi) == phi


def test_image_negation_free_and_bounded():
    rng = random.Random(52)
    for _ in range(200):
        phi = rand_formula(rng, 10)
        img = translate_f(phi)
        assert not has_negation(img)
        assert size(img) <= 2 * size(phi)


def test_rejects_primed_input():
    with pytest.raises(ValueError):
        translate_f(Or(Var("p", True), p))


def test_translate_sequent():
    """sc's positive goal is the image f(s) of the sequent, with no
    assumption added."""
    s = seq([Neg(p)], Neg(Imp(p, q)))
    assert positive_goal(Calculus.SC, s) == seq([Var("p", True)], Imp(p, Var("q", True)))


@pytest.mark.parametrize("calc, seed", [
    (Calculus.SC, 55), (Calculus.SC3, 56), (Calculus.SMC, 53), (Calculus.SCN, 54),
])
def test_embed_check_agreement(calc, seed):
    """On 100 random sequents, the connexive search's verdict in calc is
    the positive search's on positive_goal in POSITIVE[calc]."""
    rng = random.Random(seed)
    for _ in range(100):
        r = embed_check(calc, rand_sequent(rng, 7))
        assert r.agree, str(r.target_sequent)


def test_translate_deep_formula():
    """f keeps its own stack.  phi = ~(q -> ~(q -> ... ~(q -> p))) is
    5,000 levels of ~(q -> .); since f(~(q -> X)) = q -> f(~X) and
    f(~~Y) = f(Y), its image is q -> q -> ... -> p with 5,000 arrows."""
    phi, image = p, p
    for _ in range(5000):
        phi, image = Neg(Imp(q, phi)), Imp(q, image)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        got = translate_f(phi) == image
    except RecursionError:
        got = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert got is True


# ---------------------------------------------------------------------------
# decide's route through f for smc and scn

ROW_D = (
    "((~p | ~~q) -> (~((r | p) & q) | q)), (~(~q -> (p & ~p)) | ~q)"
    " => ((~(~r | ~p) -> (~p | q)) | (p -> ~(q -> r)))"
)


def test_positive_goal_adds_only_split_atoms():
    """For sc3 and scn, p | p' is assumed only for an atom of which both
    p and p' occur in the image; the goal of sc and smc is the image
    itself."""
    s = parse_sequent("~p, q => p & ~~r")
    img = positive_goal(Calculus.SC, s)
    assert positive_goal(Calculus.SMC, s) == img
    for calc in (Calculus.SC3, Calculus.SCN):
        assert positive_goal(calc, s) == Sequent(img.ctx | {Or(p, Var("p", True))}, img.suc)
        unsplit = positive_goal(calc, parse_sequent("~~p, q => ~r"))
        assert unsplit == positive_goal(Calculus.SC, parse_sequent("p, q => ~r"))


@pytest.mark.parametrize("calc, text, rules", [
    # a ~~ succedent, and a context formula seen only through ~~
    (Calculus.SMC, "~~(p & q) => ~~q", {Rule.NEG_RIGHT, Rule.NEG_LEFT, Rule.AND_LEFT, Rule.INIT1}),
    # init1 on p' is init2; a negated compound takes its negative rule
    (Calculus.SMC, "~(p | q) => ~q & ~p", {Rule.NEG_OR_LEFT, Rule.AND_RIGHT, Rule.INIT2}),
    (Calculus.SMC, "p -> ~q => ~(p -> q)", {Rule.NEG_IMP_RIGHT, Rule.IMP_LEFT}),
    # peirce's principal (q | (q -> ~p)) -> ~p reads the positive one's p' as ~p
    (Calculus.SMC, "q | (q -> ~p)", {Rule.PEIRCE}),
    # or_left on an assumption p | p' is ex_middle on p
    (Calculus.SCN, "~p | p", {Rule.OR_RIGHT1, Rule.OR_RIGHT2}),
    (Calculus.SCN, "(p -> q) => ~p | q", {Rule.EX_MIDDLE}),
])
def test_lift_cases(calc, text, rules):
    s = parse_sequent(text)
    res = _embedded(calc, s)
    assert res.verdict is Verdict.PROVABLE
    rep = check_proof(calc, res.proof)
    assert rep.ok and rep.cut_free, rep.message()
    used = set()
    fold(res.proof, lambda node, subs: used.add(node.rule))
    assert rules <= used


def test_route_agrees_with_the_connexive_search():
    """On acceptance test 8's 3,192 sequents over {p, q}, the route
    through f gives the connexive search's verdict in smc and scn, and
    every proof it returns is valid in the goal's calculus, cut-free and
    of the goal; decide, which runs the connexive search first, gives the
    same verdicts."""
    formulas = all_formulas((p, q), 4)
    sequents = [seq([], suc) for suc in formulas] + [seq([a], suc) for a in formulas for suc in formulas]
    assert len(sequents) == 3192
    proved = 0
    for s in sequents:
        for calc in (Calculus.SMC, Calculus.SCN):
            res = _embedded(calc, s)
            verdict = _native(calc, s).verdict
            assert res.verdict is verdict is decide(calc, s).verdict, (calc.value, str(s))
            if res.proof is not None:
                proved += 1
                rep = check_proof(calc, res.proof)
                assert rep.ok and rep.cut_free, (calc.value, str(s), rep.message())
                assert res.proof.conclusion == s
                assert res.stats.proof_size == rep.tree_size
    assert proved > 1000


# a lifted proof is certified with explicit checks, so a corrupted one is
# caught with assertions compiled out too
_BAD_LIFT = """
import connexive.prover as prover
from connexive.checking import InvalidProof
from connexive.sequent import Calculus, Rule, SequentProof, parse_sequent

assert False, "assertions are on"
prover.lift = lambda calc, proof, goal: SequentProof(goal, Rule.INIT1)
# goals that the connexive search does not settle in its first nodes
for calc, goal in (
    (Calculus.SMC, "~(q | q) => ~((~r | ~r) & (q & r -> r | p))"),
    (Calculus.SCN, "((~p | ~~q) -> (~((r | p) & q) | q)), (~(~q -> (p & ~p)) | ~q)"
                   " => ((~(~r | ~p) -> (~p | q)) | (p -> ~(q -> r)))"),
):
    try:
        prover.decide(calc, parse_sequent(goal))
    except InvalidProof as e:
        print(calc.value, e)
    else:
        raise SystemExit("an invalid lifted proof was returned")
"""


def test_routed_decide_rechecks_under_optimize():
    src = os.path.dirname(os.path.dirname(connexive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_LIFT], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["smc", "scn"]
    assert all("init1 succedent must be an atom" in line for line in lines), lines


def test_row_d_is_decided_through_f():
    """The scn row that the connexive search takes seconds on (20,323
    nodes) is proved through f in well under a second: its first 100
    nodes are the connexive search's, the rest the positive search's."""
    s = parse_sequent(ROW_D)
    t0 = time.perf_counter()
    res = decide(Calculus.SCN, s)
    assert time.perf_counter() - t0 < 1.0
    assert res.verdict is Verdict.PROVABLE and 100 < res.stats.nodes_expanded < 1000
    rep = check_proof(Calculus.SCN, res.proof)
    assert rep.ok and rep.cut_free


def test_row_d_nodes_add_up():
    """Routed, row D reports the connexive search's 100 nodes plus the
    positive search's."""
    s = parse_sequent(ROW_D)
    assert decide(Calculus.SCN, s).stats.nodes_expanded == 100 + _embedded(Calculus.SCN, s).stats.nodes_expanded


def test_row_d_matrix_row():
    """The matrix row of row D's formula (Γ₁ & Γ₂) -> C fills every cell
    under the default budget within a second: its smc cell alone would
    search for about half an hour natively."""
    phi = parse(
        "(((~p | ~~q) -> (~((r | p) & q) | q)) & (~(~q -> (p & ~p)) | ~q))"
        " -> ((~(~r | ~p) -> (~p | q)) | (p -> ~(q -> r)))"
    )
    t0 = time.perf_counter()
    (row,) = separation_matrix([phi])
    assert time.perf_counter() - t0 < 1.0
    assert [v.value for v in row.verdicts] == ["unprovable", "unprovable", "provable", "provable"]
