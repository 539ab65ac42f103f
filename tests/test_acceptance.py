"""Acceptance suite: the eight contract-level properties of the toolkit,
each at its stated corpus size."""

import random
import time

from connexive.bridge import PAIRED_CALCULUS, nd_to_sc, normalize, sc_to_nd
from connexive.embedding import translate_f
from connexive.formula import Imp, Neg, Or, Var, show
from connexive.natded import (
    NdSystem,
    check_derivation,
    is_normal,
    open_assumptions,
)
from connexive.prover import Verdict, decide
from connexive.reduction import normalize_by_reduction
from connexive.sequent import CONNEXIVE_CALCULI, Calculus, Sequent, check_proof, seq

from helpers import (
    all_formulas,
    brute_force_sc3,
    native_decide,
    plant_detours,
    rand_derivation,
    rand_formula,
    rand_sequent,
)

p, q = Var("p"), Var("q")


def test_1_connexive_theses():
    theses = [
        Imp(Imp(p, q), Neg(Imp(p, Neg(q)))),
        Imp(Imp(p, Neg(q)), Neg(Imp(p, q))),
        Neg(Imp(p, Neg(p))),
    ]
    t0 = time.perf_counter()
    for phi in theses:
        res = decide(Calculus.SC, seq([], phi))
        assert res.verdict is Verdict.PROVABLE, show(phi)
        assert res.proof.is_cut_free()
        rep = check_proof(Calculus.SC, res.proof)
        assert rep.ok, rep.message()
    assert time.perf_counter() - t0 < 1.0


def test_2_separation_matrix():
    lem = Or(Neg(p), p)
    peirce = Imp(Imp(Imp(p, q), p), p)
    expected = {
        (lem, Calculus.SC): Verdict.UNPROVABLE,
        (lem, Calculus.SC3): Verdict.PROVABLE,
        (lem, Calculus.SMC): Verdict.UNPROVABLE,
        (lem, Calculus.SCN): Verdict.PROVABLE,
        (peirce, Calculus.SC): Verdict.UNPROVABLE,
        (peirce, Calculus.SC3): Verdict.UNPROVABLE,
        (peirce, Calculus.SMC): Verdict.PROVABLE,
        (peirce, Calculus.SCN): Verdict.PROVABLE,
    }
    t0 = time.perf_counter()
    for (phi, calc), want in expected.items():
        got = decide(calc, seq([], phi)).verdict
        assert got is want, f"{calc.value} on {show(phi)}: {got.value}"
    assert time.perf_counter() - t0 < 10.0


def test_3_star_equivalence():
    rng = random.Random(101)
    for _ in range(500):
        s = seq([], rand_formula(rng, 10))
        assert decide(Calculus.SMC, s).verdict is decide(Calculus.SMC_STAR, s).verdict, str(s)
        assert decide(Calculus.SCN, s).verdict is decide(Calculus.SCN_STAR, s).verdict, str(s)


def test_4_cut_admissibility():
    rng = random.Random(102)
    triples = []
    for _ in range(300):
        gamma = frozenset(rand_formula(rng, 6) for _ in range(rng.randint(0, 2)))
        triples.append((gamma, rand_formula(rng, 6), rand_formula(rng, 6)))
    confirmed = 0
    for calc in sorted(CONNEXIVE_CALCULI, key=lambda c: c.value):
        for gamma, alpha, goal in triples:
            if not decide(calc, Sequent(gamma, alpha)):
                continue
            if not decide(calc, Sequent(gamma | {alpha}, goal)):
                continue
            assert decide(calc, Sequent(gamma, goal)), (
                calc.value,
                str(Sequent(gamma, goal)),
            )
            confirmed += 1
    assert confirmed >= 100


def test_5_embedding_agreement():
    # the source side is the connexive search: decide routes smc through
    # f, so decide(smc) would compare the route with itself
    rng = random.Random(103)
    for _ in range(300):
        phi = rand_formula(rng, 8)
        src = native_decide(Calculus.SMC, seq([], phi)).verdict
        tgt = decide(Calculus.LJP_PEIRCE, seq([], translate_f(phi))).verdict
        assert src is tgt, show(phi)


def test_6_bridge_soundness():
    rng = random.Random(104)
    # forward: 200 random checker-valid derivations per system
    for sys_id in NdSystem:
        calc = PAIRED_CALCULUS[sys_id]
        for _ in range(200):
            d = rand_derivation(rng, sys_id, max_nodes=15)
            proof = nd_to_sc(sys_id, d)
            rep = check_proof(calc, proof)
            assert rep.ok, rep.message()
            # a checker-valid derivation binds every labeled leaf, so its
            # open assumptions are exactly the unlabeled ones
            assert proof.conclusion == Sequent(open_assumptions(d), d.formula)
    # backward: 200 prover-found cut-free proofs
    pairs = [
        (Calculus.SC, NdSystem.NC),
        (Calculus.SC3, NdSystem.NC3),
        (Calculus.SMC, NdSystem.NMC),
        (Calculus.SCN, NdSystem.NCN),
    ]
    done = 0
    while done < 200:
        calc, sys_id = pairs[done % 4]
        s = rand_sequent(rng, 6)
        res = decide(calc, s)
        if res.verdict is not Verdict.PROVABLE:
            continue
        d = sc_to_nd(calc, res.proof)
        rep = check_derivation(sys_id, d)
        assert rep.ok, rep.message()
        assert is_normal(d)
        assert d.formula == s.suc
        assert open_assumptions(d) <= s.ctx
        done += 1


def test_7_normalization():
    rng = random.Random(105)
    corpus = []
    for i in range(200):
        sys_id = list(NdSystem)[i % 4]
        base = rand_derivation(rng, sys_id, max_nodes=10)
        corpus.append((sys_id, plant_detours(rng, sys_id, base, rng.randint(1, 3))))
    direct_ok = 0
    for sys_id, d in corpus:
        out = normalize(sys_id, d)
        rep = check_derivation(sys_id, out)
        assert rep.ok, rep.message()
        assert is_normal(out)
        assert out.formula == d.formula
        assert open_assumptions(out) <= open_assumptions(d)
        res = normalize_by_reduction(sys_id, d, max_steps=10_000)
        if res.completed:
            direct_ok += 1
            assert res.derivation.formula == out.formula
    assert direct_ok >= 0.95 * len(corpus), f"{direct_ok}/{len(corpus)}"


def test_8_restricted_rule_cross_check():
    formulas = all_formulas((p, q), 4)
    assert len(formulas) == 56
    sequents = [seq([], suc) for suc in formulas]
    sequents += [seq([a], suc) for a in formulas for suc in formulas]
    assert len(sequents) == 3192
    for s in sequents:
        fast = decide(Calculus.SC3, s).verdict
        assert fast is not Verdict.RESOURCE_EXCEEDED
        slow = brute_force_sc3(s)
        assert (fast is Verdict.PROVABLE) == slow, str(s)
