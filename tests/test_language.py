"""Each calculus has one language, and every entry point agrees on it: the
search, the checker, generalized identity, weakening and the command
line all accept a sequent or all reject it."""

import pytest

from connexive.cli import main
from connexive.formula import And, Var, parse, show
from connexive.prover import decide
from connexive.sequent import (
    CONNEXIVE_CALCULI,
    Calculus,
    Rule,
    SequentProof,
    check_proof,
    identity_proof,
    parse_sequent,
    proof_to_json,
    seq,
    weaken_proof,
)

p = Var("p")

# a primed atom, which only the positive calculi have, and a ~, which
# only the connexive ones have
GOALS = ("p' => p'", "~q, p => p")


def _raises_value_error(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("goal", GOALS)
@pytest.mark.parametrize("calc", list(Calculus), ids=lambda c: c.value)
def test_every_entry_point_agrees_on_the_language(calc, goal, capsys, tmp_path):
    s = parse_sequent(goal, allow_primed=True)
    leaf, base = SequentProof(s, Rule.INIT1), SequentProof(seq([p], p), Rule.INIT1)
    path, base_path = tmp_path / "leaf.json", tmp_path / "base.json"
    path.write_text(proof_to_json(leaf))
    base_path.write_text(proof_to_json(base))
    by = ", ".join(map(show, s.ctx))
    accepted = {
        "decide": not _raises_value_error(lambda: decide(calc, s)),
        "check_proof": check_proof(calc, leaf).ok,
        "identity_proof": not _raises_value_error(lambda: identity_proof(calc, s.suc, s.ctx - {s.suc})),
        "weaken_proof": not _raises_value_error(lambda: weaken_proof(calc, base, s.ctx)),
        "prove": main(["prove", calc.value, goal]) == 0,
        "check sc": main(["check", "sc", calc.value, str(path)]) == 0,
        "transform weaken": main(["transform", "weaken", str(base_path), "--calculus", calc.value, "--by", by]) == 0,
    }
    capsys.readouterr()
    in_language = (calc in CONNEXIVE_CALCULI) == ("~" in goal)
    assert accepted == dict.fromkeys(accepted, in_language)


@pytest.mark.parametrize(
    "calc, principal, reason",
    [
        (Calculus.SMC, "p -> q'", "primed atoms belong to the positive language only"),
        (Calculus.LJP_PEIRCE, "p -> ~q", "connexive negation not in the language of ljp-peirce"),
    ],
)
def test_peirce_principal_outside_the_language_is_invalid(calc, principal, reason):
    """(Peirce) instantiates its principal freely, so the checker checks
    its language: p => p by peirce over an init1 leaf fits the schema
    with any principal p -> beta."""

    def peirce(a):
        return SequentProof(seq([p], p), Rule.PEIRCE, a, (SequentProof(seq([a, p], p), Rule.INIT1),))

    assert check_proof(calc, peirce(parse("p -> q"))).ok
    rep = check_proof(calc, peirce(parse(principal, allow_primed=True)))
    assert (rep.ok, rep.path, rep.rule, rep.reason) == (False, (), "peirce", reason)


def test_unnamed_cut_formula_outside_the_language_is_invalid():
    """An unnamed cut's formula is its first premise's succedent, and it
    appears in no conclusion below the cut."""
    a = parse("p | q'", allow_primed=True)
    left = SequentProof(seq([p], a), Rule.OR_RIGHT1, None, (SequentProof(seq([p], p), Rule.INIT1),))
    cut = SequentProof(seq([p], p), Rule.CUT, None, (left, SequentProof(seq([a, p], p), Rule.INIT1)))
    assert check_proof(Calculus.LJP, cut).ok
    rep = check_proof(Calculus.SC, cut)
    assert (rep.ok, rep.path, rep.rule) == (False, (), "cut")
    assert rep.reason == "primed atoms belong to the positive language only"


def test_language_failure_names_the_first_node_in_pre_order():
    """Two (Peirce) nodes share one principal outside the language: the
    report names the first in pre-order, though the check walks the
    second first."""
    a = parse("p -> q'", allow_primed=True)

    def peirce():
        return SequentProof(seq([p], p), Rule.PEIRCE, a, (SequentProof(seq([a, p], p), Rule.INIT1),))

    rep = check_proof(Calculus.SMC, SequentProof(seq([p], And(p, p)), Rule.AND_RIGHT, None, (peirce(), peirce())))
    assert (rep.ok, rep.path, rep.rule) == (False, (0,), "peirce")
