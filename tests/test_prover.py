import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import connexive

from connexive.formula import And, Imp, Neg, Or, Var
from connexive.prover import (
    ResourceExceeded,
    SearchConfig,
    Tables,
    Verdict,
    decide,
    eliminate_cut,
    separation_matrix,
)
from connexive.sequent import (
    CONNEXIVE_CALCULI,
    LEFT_RULES,
    RIGHT_RULES,
    RULES_OF,
    SCHEMAS,
    Calculus,
    Rule,
    Sequent,
    SequentProof,
    check_proof,
    fold,
    identity_proof,
    parse_sequent,
    proof_from_json,
    proof_to_json,
    seq,
    shape,
    weaken_proof,
)

from helpers import atoms, brute_force_sc3, native_decide, rand_formula, rand_sequent, reference_proof_to_obj

p, q, r = Var("p"), Var("q"), Var("r")

LEM = Or(Neg(p), p)
PEIRCE = Imp(Imp(Imp(p, q), p), p)


def provable(calc, text):
    return decide(calc, parse_sequent(text)).verdict is Verdict.PROVABLE


def test_connexive_theses():
    for text in ["~(p -> ~p)", "(p -> q) -> ~(p -> ~q)", "(p -> ~q) -> ~(p -> q)"]:
        res = decide(Calculus.SC, parse_sequent(text))
        assert res.verdict is Verdict.PROVABLE
        assert res.proof.is_cut_free()
        assert check_proof(Calculus.SC, res.proof).ok


def test_separation():
    for calc, lem, peirce in [
        (Calculus.SC, False, False),
        (Calculus.SC3, True, False),
        (Calculus.SMC, False, True),
        (Calculus.SCN, True, True),
    ]:
        assert bool(decide(calc, seq([], LEM))) is lem
        assert bool(decide(calc, seq([], PEIRCE))) is peirce


def test_separation_matrix_cells():
    rows = separation_matrix([LEM, PEIRCE])
    assert [v.value for v in rows[0].verdicts] == ["unprovable", "provable", "unprovable", "provable"]
    assert [v.value for v in rows[1].verdicts] == ["unprovable", "unprovable", "provable", "provable"]
    assert rows[0].cells()[Calculus.SC3] is Verdict.PROVABLE


def _lattice_searches(verdicts: dict) -> list:
    """The calculi separation_matrix searches for a row with these
    verdicts, with the inclusions written out: sC first; sCN unless sC
    proves it; sC3 and sMC unless sC proves it or sCN refutes it."""
    if verdicts[Calculus.SC] is Verdict.PROVABLE:
        return [Calculus.SC]
    if verdicts[Calculus.SCN] is Verdict.UNPROVABLE:
        return [Calculus.SC, Calculus.SCN]
    return [Calculus.SC, Calculus.SCN, Calculus.SC3, Calculus.SMC]


def _root_refuted(calc, s) -> bool:
    """Whether the four-valued tables refute s itself in calc."""
    found = set().union(*map(atoms, (*s.ctx, s.suc)))
    return Tables(list(found)).restricted(Rule.EX_MIDDLE in RULES_OF[calc]).refutes(s)


def test_separation_matrix_analyses_each_row_once(monkeypatch):
    """Every cell is an independent decide's verdict; the searches the
    matrix runs are those the rule-set lattice leaves open, each expanding
    the nodes an independent decide does; and a row builds at most one
    closure of its own goal, shared by its connexive searches, and at
    most one of a positive goal per search routed through f, none when
    every search it runs refutes its root."""
    import connexive.prover as prover

    rng = random.Random(31)
    formulas = [rand_formula(rng, 10) for _ in range(300)]
    calculi = [Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN]
    closure, decide_ = prover.closure, prover.decide
    closures, shared = [], []

    def count_closure(*args, **kwargs):
        closures.append(kwargs["add_negations"])  # a positive goal's closure adds none
        return closure(*args, **kwargs)

    def record_decide(*args):
        shared.append((args[0], decide_(*args)))
        return shared[-1][1]

    monkeypatch.setattr(prover, "closure", count_closure)
    monkeypatch.setattr(prover, "decide", record_decide)
    lazy_rows = 0
    for phi in formulas:
        alone = {c: decide_(c, seq([], phi)) for c in calculi}
        closures.clear()
        shared.clear()
        (row,) = separation_matrix([phi])
        assert row.verdicts == tuple(alone[c].verdict for c in calculi)
        assert [c for c, _ in shared] == _lattice_searches({c: res.verdict for c, res in alone.items()})
        assert [res.stats.nodes_expanded for _, res in shared] == [
            alone[c].stats.nodes_expanded for c, _ in shared
        ]
        assert closures.count(True) <= 1
        assert closures.count(False) <= len([c for c, _ in shared if c in (Calculus.SMC, Calculus.SCN)])
        if all(_root_refuted(c, seq([], phi)) for c, _ in shared):
            assert not closures
            lazy_rows += 1
    assert lazy_rows > len(formulas) // 2


def test_matrix_lattice_inclusions_hold():
    """The inclusions separation_matrix settles cells by hold in RULES_OF:
    sC is below every calculus of the matrix, sCN above every one, and
    sC3 and sMC lie between them, neither below the other."""
    sc, sc3, smc, scn = (RULES_OF[c] for c in (Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN))
    assert sc < sc3 < scn and sc < smc < scn
    assert not sc3 <= smc and not smc <= sc3


def test_root_refuted_goal_builds_no_closure(monkeypatch):
    """decide on a goal whose root the tables refute builds no universe,
    with the verdict and search figures it had when it built one; a goal
    the search expands builds exactly one."""
    import connexive.prover as prover

    closure, closures = prover.closure, []

    def count_closure(*args, **kwargs):
        closures.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(prover, "closure", count_closure)
    for calc, text in [(Calculus.SC, "~p | p"), (Calculus.SMC, "~p | p"), (Calculus.SCN, "p, ~p => q"),
                       (Calculus.SMC_STAR, "p => q"), (Calculus.LJP, "p => q")]:
        s = parse_sequent(text)
        assert _root_refuted(calc, s)
        res = decide(calc, s)
        assert (res.verdict, res.proof, res.stats.nodes_expanded, res.stats.max_depth) == (
            Verdict.UNPROVABLE, None, 1, 0
        ), text
        assert not closures, text
    res = decide(Calculus.SC, seq([], PEIRCE))
    assert res.verdict is Verdict.UNPROVABLE and res.stats.nodes_expanded > 1
    assert len(closures) == 1


def test_positive_fragment():
    assert provable(Calculus.LJP, "p -> q -> p")
    assert provable(Calculus.LJP, "p & q -> q & p")
    assert not provable(Calculus.LJP, "((p -> q) -> p) -> p")
    assert provable(Calculus.LJP_PEIRCE, "((p -> q) -> p) -> p")
    assert not provable(Calculus.LJP, "p | (p -> q)")
    assert provable(Calculus.LJP_PEIRCE, "p | (p -> q)")
    # p and p' are unrelated atoms: excluded middle over them is no theorem
    split = Sequent(frozenset(), Or(Var("p", True), p))
    assert decide(Calculus.LJP_PEIRCE, split).verdict is Verdict.UNPROVABLE


def test_simple_verdicts():
    assert not provable(Calculus.SC, "p")
    assert not provable(Calculus.SCN, "p")
    assert not provable(Calculus.SC, "p => q")
    assert provable(Calculus.SC, "p => p | q")
    assert provable(Calculus.SC, "~(p -> q) => p -> ~q")
    assert provable(Calculus.SC, "p -> ~q => ~(p -> q)")
    assert provable(Calculus.SC, "~(p | q) => ~p & ~q")
    assert provable(Calculus.SC, "~p & ~q => ~(p | q)")


def test_non_explosive():
    # connexive C tolerates contradictory premises
    assert not provable(Calculus.SC, "p, ~p => q")
    assert not provable(Calculus.SCN, "p, ~p => q")


def test_soundness_random():
    rng = random.Random(10)
    for calc in sorted(CONNEXIVE_CALCULI, key=lambda c: c.value):
        for _ in range(60):
            s = rand_sequent(rng, 6)
            res = decide(calc, s)
            if res.verdict is Verdict.PROVABLE:
                assert res.proof.conclusion == s
                assert res.proof.is_cut_free()
                rep = check_proof(calc, res.proof)
                assert rep.ok, rep.message()
            else:
                assert res.verdict is Verdict.UNPROVABLE


def test_weakening_monotone():
    rng = random.Random(11)
    hits = 0
    for _ in range(150):
        s = rand_sequent(rng, 5)
        if decide(Calculus.SC, s):
            hits += 1
            extra = rand_formula(rng, 4)
            assert decide(Calculus.SC, Sequent(s.ctx | {extra}, s.suc))
    assert hits > 10


def test_generalized_identity():
    rng = random.Random(12)
    for _ in range(60):
        alpha = rand_formula(rng, 8)
        gamma = {rand_formula(rng, 4)}
        assert decide(Calculus.SC, Sequent(frozenset({alpha}) | gamma, alpha))


def test_star_equivalence_sample():
    rng = random.Random(13)
    for _ in range(60):
        phi = rand_formula(rng, 8)
        s = seq([], phi)
        assert decide(Calculus.SMC, s).verdict is decide(Calculus.SMC_STAR, s).verdict
        assert decide(Calculus.SCN, s).verdict is decide(Calculus.SCN_STAR, s).verdict


def test_star_proofs_use_gem():
    res = decide(Calculus.SMC_STAR, seq([], PEIRCE))
    assert res.verdict is Verdict.PROVABLE
    rep = check_proof(Calculus.SMC_STAR, res.proof)
    assert rep.ok, rep.message()

    def rules(pr):
        yield pr.rule
        for sub in pr.premises:
            yield from rules(sub)

    assert Rule.PEIRCE not in set(rules(res.proof))


def test_destar_keeps_sharing():
    s = parse_sequent("~(q | q) => ~((~r | ~r) & (q & r -> r | p))")
    res = decide(Calculus.SMC_STAR, s, SearchConfig(memo=False))
    assert res.verdict is Verdict.PROVABLE
    seen = []
    fold(res.proof, lambda node, subs: seen.append(node))
    assert len(seen) < 5_000
    assert res.proof.node_count() > 10**6
    text = proof_to_json(res.proof)
    assert proof_to_json(proof_from_json(text)) == text


# decide re-checks what the search returns with explicit checks, so an
# invalid proof is caught with assertions compiled out too
_BAD_SEARCH = """
import connexive.prover as prover
from connexive.checking import InvalidProof
from connexive.sequent import Calculus, Rule, SequentProof, parse_sequent

assert False, "assertions are on"
prover._Search.dfs = lambda self, s, depth: (SequentProof(s, Rule.INIT1), prover._NO_DEP)
try:
    prover.decide(Calculus.SC, parse_sequent("p -> p"), prover.SearchConfig(memo=False))
except InvalidProof as e:
    print(e)
else:
    raise SystemExit("an invalid proof was returned")
"""


def test_decide_rechecks_under_optimize():
    src = os.path.dirname(os.path.dirname(connexive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_SEARCH], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "init1 succedent must be an atom" in out.stdout


# decide's cut-freeness guard reads the check's report, and is explicit too
_CUT_SEARCH = """
import connexive.prover as prover
from connexive.sequent import Calculus, Rule, SequentProof, check_proof, parse_sequent

assert False, "assertions are on"
s = parse_sequent("p => p")
axiom = SequentProof(s, Rule.INIT1)
cut = SequentProof(s, Rule.CUT, s.suc, (axiom, axiom))
if not check_proof(Calculus.SC, cut).ok:
    raise SystemExit("the planted proof is not valid")
prover._Search.dfs = lambda self, s, depth: (cut, prover._NO_DEP)
try:
    prover.decide(Calculus.SC, s, prover.SearchConfig(memo=False))
except RuntimeError as e:
    print(e)
else:
    raise SystemExit("a proof with cut was returned")
"""


def test_decide_rejects_cut_under_optimize():
    src = os.path.dirname(os.path.dirname(connexive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CUT_SEARCH], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "proof search emitted a proof with cut" in out.stdout


def test_one_walk_certifies_each_proof(monkeypatch):
    """An unstarred decide, eliminate_cut on a cut-free proof, weaken_proof
    and sc_to_nd each walk the proof they certify once, in check_proof's
    fold, and read cut-freeness, depth and tree size off its report."""
    import connexive.bridge as bridge
    import connexive.prover as prover
    import connexive.sequent as sequent

    walks = []
    real = sequent.fold

    def counting(proof, combine):
        walks.append((combine.__qualname__.partition(".<locals>")[0], id(proof)))
        return real(proof, combine)

    for module in (sequent, prover):
        monkeypatch.setattr(module, "fold", counting)
    res = decide(Calculus.SC, parse_sequent("p & (q | ~r) => (p & q) | ~(~p -> r)"))
    proof = res.proof
    assert walks == [("check_proof", id(proof))]
    assert (res.stats.max_depth, res.stats.proof_size) == (proof.depth(), proof.node_count())

    for call, owners in (
        (lambda: eliminate_cut(Calculus.SC, proof), ["check_proof"]),
        (lambda: weaken_proof(Calculus.SC, proof, {r}), ["check_proof", "_weaken"]),
        (lambda: bridge.sc_to_nd(Calculus.SC, proof), ["check_proof"]),
    ):
        walks.clear()
        call()
        assert walks == [(owner, id(proof)) for owner in owners]


# the universe-escape check in _Search._emit is explicit too
_ESCAPE = """
import connexive.prover as prover
from connexive.sequent import Calculus, parse_sequent

assert False, "assertions are on"
build = prover.closure
prover.closure = lambda goal, add_negations: build(goal, add_negations) - goal.ctx
try:
    prover.decide(Calculus.SC, parse_sequent("p & q => p"), prover.SearchConfig(memo=False))
except RuntimeError as e:
    print(e)
else:
    raise SystemExit("a universe escape went unnoticed")
"""


def test_universe_escape_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(connexive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _ESCAPE], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "left its universe: p & q" in out.stdout


# the search checks only what each premise adds, so a formula that a rule
# adds outside the universe must raise as one of the goal's own does
_ADDED_ESCAPE = """
import connexive.prover as prover
from connexive.formula import parse
from connexive.sequent import Calculus, parse_sequent

assert False, "assertions are on"
build = prover.closure
prover.closure = lambda goal, add_negations: build(goal, add_negations) - {parse("p & q")}
try:
    prover.decide(Calculus.SC, parse_sequent("(p & q) & r => r"))
except RuntimeError as e:
    print(e)
else:
    raise SystemExit("a universe escape went unnoticed")
"""


def test_added_formula_escape_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(connexive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _ADDED_ESCAPE], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "left its universe: p & q" in out.stdout


def test_proof_json_digest_unchanged():
    """The connexive search's verdicts and proof JSON on a fixed corpus
    (native_decide: decide, with smc and scn not routed through f) hash
    to the digest recorded by running this same loop on commit 80e5207,
    a checkout made
    before formulas stored their hash and text.  Search order follows set
    iteration order and sort keys, so this holds both to what they were.
    Each proof goes through a proof file and is hashed in the nested
    layout that proof_to_json wrote then, so the digest pins both decide's
    proofs and the file round trip."""
    rng = random.Random(7)
    corpus = [rand_sequent(rng, 10) for _ in range(300)]
    cfg = SearchConfig(memo=False)
    digest = hashlib.sha256()
    for s in corpus:
        for calc in sorted(CONNEXIVE_CALCULI):
            res = native_decide(calc, s, cfg)
            digest.update(res.verdict.value.encode())
            if res.proof is not None:
                back = proof_from_json(proof_to_json(res.proof, indent=2))
                digest.update(json.dumps(reference_proof_to_obj(back), indent=2).encode())
    assert digest.hexdigest() == "dba1b298672b3626432257b40c815656ecec03ebf011b544e83300b34a715dee"


# the digest corpus again, hashed as the bytes of today's proof files
_FILE_DIGEST = """
import hashlib, random
from helpers import native_decide, rand_sequent
from connexive.sequent import CONNEXIVE_CALCULI, proof_to_json

rng = random.Random(7)
digest = hashlib.sha256()
for s in [rand_sequent(rng, 10) for _ in range(300)]:
    for calc in sorted(CONNEXIVE_CALCULI):
        res = native_decide(calc, s)
        digest.update(res.verdict.value.encode())
        if res.proof is not None:
            digest.update(proof_to_json(res.proof, indent=2).encode())
print(digest.hexdigest())
"""


def test_proof_file_digest_under_hash_seeds():
    """The proof files of the connexive search's proofs are the same
    bytes whatever the string hash seed, which sets the iteration order
    of formula sets."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(connexive.__file__)), tests])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _FILE_DIGEST], env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1", "2", "5")
    ]
    outs = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0] * 4, [err for _, err in outs]
    assert {out.strip() for out, _ in outs} == {"caf88ee229cf16ae34084fca7e24942b8eb6f19dd3e64e7a6a9893c8574bd49b"}


# the digest corpus in the two calculi decide routes through f, hashed as
# verdicts, nodes expanded and proof file bytes, of decide and of the
# route alone (_embedded, whose proofs are lifted ones)
_ROUTED_DIGEST = """
import hashlib, random
from helpers import rand_sequent
from connexive.prover import _embedded, decide
from connexive.sequent import Calculus, proof_to_json

rng = random.Random(7)
digest = hashlib.sha256()
for s in [rand_sequent(rng, 10) for _ in range(300)]:
    for calc in (Calculus.SMC, Calculus.SCN):
        for res in (decide(calc, s), _embedded(calc, s)):
            digest.update(f"{calc.value} {res.verdict.value} {res.stats.nodes_expanded}\\n".encode())
            if res.proof is not None:
                digest.update(proof_to_json(res.proof, indent=2).encode())
print(digest.hexdigest())
"""


def test_routed_proof_digest_under_hash_seeds():
    """decide in smc and scn, and the route through f alone, give the
    same verdicts, node counts and proof files on the digest corpus
    whatever the string hash seed: the digest this loop gave when the
    route was made (commit dd028fa), with 1 taken off decide's count on
    the 5 goals that take the route.  That count then included one node
    past the connexive search's budget of 100."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(connexive.__file__)), tests])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _ROUTED_DIGEST], env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1", "2", "5")
    ]
    outs = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0] * 4, [err for _, err in outs]
    assert {out.strip() for out, _ in outs} == {"2a805c4a757ce3398e139e0b1f75156dcea0b64d88b2e097e29924e6e27a5216"}


# the five hard rows of the prove benchmark, with their node counts
_HARD_ROWS = (
    ("smc-star", "(((r | p) & r) -> r), ((q & ~p) | ((~r -> ~q) -> (q & r))) => (~(r & ~q) | (~p & p))", 1111),
    ("smc", "((q -> ~((r & ~q) -> (~(r & r) -> (q -> p)))) -> r), ((r | q) -> ~~~r)"
     " => (((~p -> p) -> ((q & r) & (p | p))) | (~p | ~r))", 1523),
    ("smc-star", "~~(~r -> ~q), ~~(((~q & ~p) -> q) & (r | (r -> q))) => (((~r -> ((p & ~r) & q)) | ~q) | r)", 1544),
    ("smc", "~(q | q) => ~((~r | ~r) & (q & r -> r | p))", 2209),
    ("smc-star", "(~p -> ((r -> ~r) | ~q)) => ((~p -> (q -> r)) | ((q | r) & ~p))", 2443),
)


def test_exhausted_budget_counts_its_nodes():
    """A decide that runs out of its node budget n reports n nodes
    expanded: natively, and through f, where the connexive search's first
    100 nodes and the positive search's add up to n."""
    for calc, text, _ in _HARD_ROWS:
        s = parse_sequent(text)
        for n in (1, 40, 101, 150):
            res = decide(Calculus(calc), s, SearchConfig(node_budget=n))
            assert (res.verdict, res.stats.nodes_expanded) == (Verdict.RESOURCE_EXCEEDED, n), (calc, n, text)


def test_search_effort_unchanged():
    """The connexive search expands the same nodes however it is
    implemented: the calculus, verdict, nodes expanded and depth of every
    native_decide on the digest corpus hash to the digest recorded by
    running this same loop
    on commit 7b66426, the last recursive search, under string hash
    seeds 0 and 1 alike; and the hard rows keep their node counts."""
    rng = random.Random(7)
    digest = hashlib.sha256()
    for s in [rand_sequent(rng, 10) for _ in range(300)]:
        for calc in sorted(CONNEXIVE_CALCULI):
            res = native_decide(calc, s)
            digest.update(f"{calc.value} {res.verdict.value} {res.stats.nodes_expanded} {res.stats.max_depth}\n".encode())
    assert digest.hexdigest() == "9ce320cd0dac56664a5fe860afa5177aa3435503f90f94d1802eac5fe3cf4f07"
    for calc, text, nodes in _HARD_ROWS:
        res = native_decide(Calculus(calc), parse_sequent(text))
        assert (res.verdict, res.stats.nodes_expanded) == (Verdict.PROVABLE, nodes), text


def test_search_shapes_fit_schemas():
    """The search's shape index names each left and right rule once, under
    a shape whose formulas fit the rule's schema."""
    from connexive.prover import _LEFT, _RIGHT

    samples = [Neg(Neg(p)), Neg(And(p, q)), Neg(Or(p, q)), Neg(Imp(p, q)), And(p, q), Or(p, q), Imp(p, q)]
    by_shape = {shape(f): f for f in samples}
    for index, side, fits in ((_RIGHT, RIGHT_RULES, lambda rule, f: SCHEMAS[rule](f, None)),
                              (_LEFT, LEFT_RULES, lambda rule, f: SCHEMAS[rule](r, f))):
        indexed = [(rule, s) for s, groups in index.items() for group in groups for rule in group]
        assert sorted(rule for rule, _ in indexed) == sorted(side)
        assert all(fits(rule, by_shape[s]) is not None for rule, s in indexed)
    # a left candidate is one rule per formula
    assert all(len(inv) + len(choice) == 1 for inv, choice in _LEFT.values())


def test_decide_keeps_nothing_between_calls():
    """A verdict and its stats depend only on the calculus, the sequent
    and the budget, not on what was decided before."""
    s = seq([], Imp(Imp(Imp(q, p), q), q))
    assert decide(Calculus.SMC, s).verdict is Verdict.PROVABLE
    assert decide(Calculus.SMC, s, SearchConfig(node_budget=1)).verdict is Verdict.RESOURCE_EXCEEDED
    first, second = decide(Calculus.SMC, s), decide(Calculus.SMC, s)
    assert first.stats.nodes_expanded == second.stats.nodes_expanded > 0
    assert first.proof == second.proof


def test_decide_restores_the_recursion_limit():
    """decide leaves the caller's recursion limit in place on every
    verdict."""
    peirce = seq([], Imp(Imp(Imp(q, p), q), q))
    cases = [
        (Calculus.SC, seq([], Imp(p, p)), SearchConfig(), Verdict.PROVABLE),
        (Calculus.SC, seq([], LEM), SearchConfig(), Verdict.UNPROVABLE),
        (Calculus.SMC, peirce, SearchConfig(node_budget=1), Verdict.RESOURCE_EXCEEDED),
        (Calculus.SMC_STAR, peirce, SearchConfig(), Verdict.PROVABLE),
        (Calculus.SCN_STAR, seq([], Imp(p, q)), SearchConfig(), Verdict.UNPROVABLE),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1234)
    try:
        for calc, s, cfg, verdict in cases:
            assert decide(calc, s, cfg).verdict is verdict
            assert sys.getrecursionlimit() == 1234, (calc, verdict)
    finally:
        sys.setrecursionlimit(limit)


def test_oracle_restores_the_recursion_limit():
    """The test oracle raises the recursion limit only while it runs."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1234)
    try:
        assert brute_force_sc3(seq([p], Or(p, q)))
        assert sys.getrecursionlimit() == 1234
    finally:
        sys.setrecursionlimit(limit)


def test_budget():
    cfg = SearchConfig(node_budget=1, memo=False)
    res = decide(Calculus.SMC, seq([], Imp(Imp(Imp(q, r), q), q)), cfg)
    assert res.verdict is Verdict.RESOURCE_EXCEEDED
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)


def test_eliminate_cut_noop_on_cutfree():
    proof = identity_proof(Calculus.SC, Imp(p, q))
    assert eliminate_cut(Calculus.SC, proof) is proof


def test_eliminate_cut():
    prem1 = identity_proof(Calculus.SC, p, {q})
    prem2 = identity_proof(Calculus.SC, r, {p})
    cut = SequentProof(seq([q, p, r], r), Rule.CUT, p, (prem1, prem2))
    assert check_proof(Calculus.SC, cut).ok
    out = eliminate_cut(Calculus.SC, cut)
    assert out.is_cut_free()
    assert out.conclusion == cut.conclusion
    assert check_proof(Calculus.SC, out).ok


def test_language_preconditions():
    with pytest.raises(ValueError):
        decide(Calculus.SC, seq([], Var("p", True)))
    with pytest.raises(ValueError):
        decide(Calculus.LJP, seq([], Neg(p)))
    with pytest.raises(ValueError):
        decide(Calculus.LJP_PEIRCE, seq([Neg(p)], q))


def test_language_check_on_deep_formula():
    """The language check walks the goal with its own stack."""
    deep = Var("p", True)
    for i in range(5000):
        deep = Neg(deep) if i % 2 else And(q, deep)
    messages = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        for calc in (Calculus.SC, Calculus.LJP):
            try:
                decide(calc, seq([], deep))
            except ValueError as e:
                messages.append(str(e))
    except RecursionError:
        messages = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert messages is not None, "the language check recursed"
    assert "primed atoms" in messages[0] and "connexive negation" in messages[1]


# 20,000 levels: a comparison that recursed once per level would overflow the C stack
_LONG_GOAL = """
from connexive.formula import And, Var
from connexive.prover import decide
from connexive.sequent import Calculus, seq

p = Var("p")
chain = p
for _ in range(19_999):
    chain = And(chain, p)
print(decide(Calculus.SC, seq([p], chain)).verdict.value)
"""


def test_decide_long_conjunction_goal():
    """p => p & ... & p with 20,000 conjuncts is proved: the search
    compares each premise's succedent with its node's, and the
    comparison keeps its own stack."""
    src = os.path.dirname(os.path.dirname(connexive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _LONG_GOAL], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["provable"]


def test_conjunction_chain_proves_itself_under_default_limit():
    """chain => chain with 2,000 conjuncts, the two sides built apart as
    a parser builds them: the closure and the search compare them, and
    the search sorts the context by its text, under the default limit."""
    left, right = p, p
    for _ in range(1999):
        left, right = And(left, p), And(right, p)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        verdict = decide(Calculus.SC, seq([left], right)).verdict
    except RecursionError:
        verdict = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert verdict is Verdict.PROVABLE


def test_tables_examples():
    t = Tables([p]).restricted(require_t_or_f=False)
    assert t.refutes(seq([], p))
    assert not t.refutes(seq([], Imp(p, p)))
    assert not t.refutes(seq([], Neg(Imp(p, Neg(p)))))
    assert t.refutes(seq([], Or(Neg(p), p)))
    t3 = Tables([p]).restricted(require_t_or_f=True)
    assert not t3.refutes(seq([], Or(Neg(p), p)))
    assert t3.refutes(seq([], p))


def test_tables_evaluate_deep_formula():
    """tf evaluates a formula 5,000 levels deep under the default
    recursion limit.  Each level keeps p's masks (~~X, p & X and X | p
    all have X's), so the answer is known; an implication on top uses
    the falsity clause too."""
    deep = p
    for i in range(5000):
        deep = (lambda x: Neg(Neg(x)), lambda x: And(p, x), lambda x: Or(x, p))[i % 3](deep)
    t = Tables([p, q])
    (tp, fp), (tq, _) = t.tf(p), t.tf(q)
    not_q = ~tq & t.full
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        masks = t.tf(Imp(q, deep)), t.tf(deep)
    except RecursionError:
        masks = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert masks == ((not_q | tp, not_q | fp), (tp, fp))


def test_tables_never_refute_provable():
    # the countervaluation filter must preserve every rule of every
    # calculus: no node of a checker-valid proof may be table-refuted
    rng = random.Random(14)
    for calc in sorted(CONNEXIVE_CALCULI, key=lambda c: c.value) + [Calculus.LJP, Calculus.LJP_PEIRCE]:
        require = Rule.EX_MIDDLE in RULES_OF[calc]
        connexive = calc in CONNEXIVE_CALCULI
        for _ in range(40):
            s = rand_sequent(rng, 5, atoms=(p, q), allow_neg=connexive)
            res = decide(calc, s)
            if res.verdict is not Verdict.PROVABLE:
                continue
            seen_atoms = set()
            nodes = [res.proof]
            while nodes:
                n = nodes.pop()
                seen_atoms |= atoms(n.conclusion.suc)
                for f in n.conclusion.ctx:
                    seen_atoms |= atoms(f)
                nodes += list(n.premises)
            t = Tables(sorted(seen_atoms, key=str)).restricted(require_t_or_f=require)
            nodes = [res.proof]
            while nodes:
                n = nodes.pop()
                assert not t.refutes(n.conclusion), str(n.conclusion)
                nodes += list(n.premises)
