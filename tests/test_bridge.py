import hashlib
import json
import random

import pytest

from connexive.bridge import PAIRED_CALCULUS, nd_to_sc, normalize, sc_to_nd
from connexive.formula import And, Imp, Neg, Or, Var
from connexive.natded import (
    ELIM_RULES,
    Derivation,
    NdRule,
    NdSystem,
    assumption,
    check_derivation,
    derivation_to_json,
    is_normal,
    open_assumptions,
)
from connexive.prover import ResourceExceeded, SearchConfig, Verdict, decide, eliminate_cut
from connexive.reduction import normalize_by_reduction
from connexive.sequent import Calculus, Sequent, SequentProof, check_proof, seq

from helpers import derivation_to_obj, plant_detours, rand_derivation, rand_sequent, shared_or_chain

p, q, r = Var("p"), Var("q"), Var("r")


def oa_relevant(d):
    # open assumptions in the bridge's sense: leaves not discharged in d
    bound = set()

    def labels(n):
        if n.discharge is not None:
            bound.add(n.discharge)
        for sub in n.premises:
            labels(sub)

    labels(d)
    out = set()

    def leaves(n):
        if n.rule is NdRule.ASSUMPTION and (n.label is None or n.label not in bound):
            out.add(n.formula)
        for sub in n.premises:
            leaves(sub)

    leaves(d)
    return frozenset(out)


def test_nd_to_sc_identity():
    body = assumption(p, 1)
    d = Derivation(NdRule.IMP_I, Imp(p, p), (body,), 1)
    proof = nd_to_sc(NdSystem.NC, d)
    assert proof.conclusion == seq([], Imp(p, p))
    assert check_proof(Calculus.SC, proof).ok


def test_nd_to_sc_open_assumptions():
    d = Derivation(NdRule.AND_E1, p, (assumption(And(p, q)),))
    proof = nd_to_sc(NdSystem.NC, d)
    assert proof.conclusion == seq([And(p, q)], p)
    assert check_proof(Calculus.SC, proof).ok


def test_nd_to_sc_neg_imp_e():
    # the displayed two-cut composition for (~->E)
    minor = assumption(p)
    major = assumption(Neg(Imp(p, q)))
    d = Derivation(NdRule.NEG_IMP_E, Neg(q), (major, minor))
    proof = nd_to_sc(NdSystem.NC, d)
    assert proof.conclusion == seq([Neg(Imp(p, q)), p], Neg(q))
    rep = check_proof(Calculus.SC, proof)
    assert rep.ok, rep.message()


def imp_and_chain(n: int) -> Derivation:
    """n levels of (imp I) discharging q_k over (and I) of the level below
    and the assumption q_k; the bottom is the open assumption p."""
    d = assumption(p)
    for k in range(1, n + 1):
        qk = Var(f"q{k}")
        body = Derivation(NdRule.AND_I, And(d.formula, qk), (d, assumption(qk, k)))
        d = Derivation(NdRule.IMP_I, Imp(qk, body.formula), (body,), k)
    return d


def test_nd_to_sc_builds_each_node_once(monkeypatch):
    """Sequent nodes built by nd_to_sc grow linearly with the derivation:
    each node is built once, at the context in scope, and never rebuilt
    to weaken it."""
    built = [0]
    init = SequentProof.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SequentProof, "__init__", counting_init)
    counts = {}
    for n in (50, 100):
        built[0] = 0
        proof = nd_to_sc(NdSystem.NC, imp_and_chain(n))
        assert proof.conclusion == seq([p], imp_and_chain(n).formula)
        counts[n] = built[0]
    # (imp right), (and right) and an (init1) leaf per level, one leaf for p
    assert counts == {50: 3 * 50 + 1, 100: 3 * 100 + 1}


def test_nd_to_sc_random():
    rng = random.Random(41)
    for sys_id in NdSystem:
        calc = PAIRED_CALCULUS[sys_id]
        for _ in range(20):
            d = rand_derivation(rng, sys_id, max_nodes=12)
            proof = nd_to_sc(sys_id, d)
            rep = check_proof(calc, proof)
            assert rep.ok, rep.message()
            assert proof.conclusion == Sequent(oa_relevant(d), d.formula)


def test_sc_to_nd_on_prover_proofs():
    rng = random.Random(42)
    for calc, sys_id in [
        (Calculus.SC, NdSystem.NC),
        (Calculus.SC3, NdSystem.NC3),
        (Calculus.SMC, NdSystem.NMC),
        (Calculus.SCN, NdSystem.NCN),
    ]:
        done = 0
        while done < 15:
            s = rand_sequent(rng, 6)
            res = decide(calc, s)
            if res.verdict is not Verdict.PROVABLE:
                continue
            done += 1
            d = sc_to_nd(calc, res.proof)
            rep = check_derivation(sys_id, d)
            assert rep.ok, rep.message()
            assert is_normal(d)
            assert d.formula == s.suc
            assert oa_relevant(d) <= s.ctx


def test_sc_to_nd_gem():
    peirce = Imp(Imp(Imp(p, q), p), p)
    res = decide(Calculus.SMC_STAR, seq([], peirce))
    assert res.verdict is Verdict.PROVABLE
    d = sc_to_nd(Calculus.SMC_STAR, res.proof)
    rep = check_derivation(NdSystem.NMC, d)
    assert rep.ok, rep.message()
    assert is_normal(d)
    assert d.formula == peirce


def test_roundtrip_provability():
    rng = random.Random(43)
    for sys_id in NdSystem:
        calc = PAIRED_CALCULUS[sys_id]
        for _ in range(10):
            d = rand_derivation(rng, sys_id, max_nodes=10)
            proof = nd_to_sc(sys_id, d)
            back = sc_to_nd(calc, eliminate_cut(calc, proof))
            assert back.formula == d.formula
            assert oa_relevant(back) <= proof.conclusion.ctx


def test_normalize_pipeline():
    rng = random.Random(44)
    for sys_id in NdSystem:
        for _ in range(10):
            base = rand_derivation(rng, sys_id, max_nodes=8)
            d = plant_detours(rng, sys_id, base, 2)
            out = normalize(sys_id, d)
            rep = check_derivation(sys_id, out)
            assert rep.ok, rep.message()
            assert is_normal(out)
            assert out.formula == d.formula
            assert oa_relevant(out) <= oa_relevant(d)


class CheckCounter:
    """Counts, through monkeypatch, the checker calls of the bridge:
    check_derivation calls, check_proof calls made outside decide as
    (calculus, proof) pairs, and _to_sc calls."""

    def __init__(self, monkeypatch):
        import connexive.bridge as bridge
        import connexive.natded as natded
        import connexive.prover as prover

        self.derivations = 0
        self.proofs: list = []
        self.to_sc = 0
        self.deciding = 0
        check_d, check_p, decide_, to_sc = natded.check_derivation, prover.check_proof, prover.decide, bridge._to_sc

        def count_derivation(sys_id, d):
            self.derivations += 1
            return check_d(sys_id, d)

        def count_proof(calc, proof):
            if not self.deciding:
                self.proofs.append((calc, proof))
            return check_p(calc, proof)

        def count_decide(*args):
            self.deciding += 1
            try:
                return decide_(*args)
            finally:
                self.deciding -= 1

        def count_to_sc(*args):
            self.to_sc += 1
            return to_sc(*args)

        for module in (natded, bridge):
            monkeypatch.setattr(module, "check_derivation", count_derivation)
        for module in (prover, bridge):
            monkeypatch.setattr(module, "check_proof", count_proof)
            monkeypatch.setattr(module, "decide", count_decide, raising=False)
        monkeypatch.setattr(bridge, "_to_sc", count_to_sc)

    def reset(self):
        self.derivations, self.proofs, self.to_sc = 0, [], 0


def has_elimination(d: Derivation) -> bool:
    return d.rule in ELIM_RULES or any(has_elimination(sub) for sub in d.premises)


def test_bridge_checks_each_object_once(monkeypatch):
    """Each public call checks its input and its output once.  normalize
    checks d and its result, and re-derives oa(d) => end(d) when d has an
    elimination, without translating d: check_proof then runs only under
    decide."""
    counter = CheckCounter(monkeypatch)
    rng = random.Random(47)
    for sys_id in NdSystem:
        calc = PAIRED_CALCULUS[sys_id]
        for _ in range(5):
            d = plant_detours(rng, sys_id, rand_derivation(rng, sys_id, max_nodes=8), 2)
            assert has_elimination(d)
            counter.reset()
            out = normalize(sys_id, d, SearchConfig(memo=False))
            assert (counter.to_sc, counter.derivations, counter.proofs) == (0, 2, [])
            assert is_normal(out)

            counter.reset()
            proof = nd_to_sc(sys_id, d)
            assert counter.derivations == 1 and counter.proofs == [(calc, proof)]
            assert not proof.is_cut_free()

            counter.reset()
            cut_free = eliminate_cut(calc, proof, SearchConfig(memo=False))
            assert counter.derivations == 0 and counter.proofs == [(calc, proof)]

            counter.reset()
            sc_to_nd(calc, cut_free)
            assert counter.derivations == 1 and counter.proofs == [(calc, cut_free)]
    # a proof in a Peirce calculus is checked there, then re-derived
    peirce = Imp(Imp(Imp(p, q), p), p)
    for calc in (Calculus.SMC, Calculus.SCN):
        proof = decide(calc, seq([], peirce), SearchConfig(memo=False)).proof
        counter.reset()
        sc_to_nd(calc, proof, SearchConfig(memo=False))
        assert counter.derivations == 1 and counter.proofs == [(calc, proof)]


def test_normalize_elimination_free_is_the_roundtrip():
    """An elimination-free d translates to a cut-free proof, which
    normalize translates back as it is."""
    rng = random.Random(48)
    found = 0
    for sys_id in NdSystem:
        calc = PAIRED_CALCULUS[sys_id]
        for n in (1, 3):
            d = imp_and_chain(n)
            assert normalize(sys_id, d) == sc_to_nd(calc, nd_to_sc(sys_id, d))
        for _ in range(100):
            d = rand_derivation(rng, sys_id, max_nodes=6)
            if has_elimination(d):
                continue
            found += 1
            assert normalize(sys_id, d) == sc_to_nd(calc, nd_to_sc(sys_id, d))
    assert found >= 20


def test_nd_to_sc_rejects_invalid():
    from connexive.checking import InvalidProof

    with pytest.raises(InvalidProof):
        nd_to_sc(NdSystem.NC, Derivation(NdRule.AND_E1, p, (assumption(p),)))


def test_sc_to_nd_requires_cut_free():
    from connexive.checking import InvalidProof
    from connexive.sequent import Rule, SequentProof, identity_proof

    prem1 = identity_proof(Calculus.SC, p, {q})
    prem2 = identity_proof(Calculus.SC, r, {p})
    cut = SequentProof(seq([q, p, r], r), Rule.CUT, p, (prem1, prem2))
    with pytest.raises(InvalidProof, match="input proof contains cut"):
        sc_to_nd(Calculus.SC, cut)


def test_sc_to_nd_budget_bounds_tree_expansion():
    # within the budget, the shared chain expands into a normal derivation
    small = shared_or_chain(3)
    d = sc_to_nd(Calculus.SC, small, SearchConfig(node_budget=15))
    assert check_derivation(NdSystem.NC, d).ok and is_normal(d)
    with pytest.raises(ResourceExceeded):
        sc_to_nd(Calculus.SC, small, SearchConfig(node_budget=14))
    # 2^41 - 1 tree nodes from 41 distinct ones: refused, not expanded
    with pytest.raises(ResourceExceeded):
        sc_to_nd(Calculus.SC, shared_or_chain(40))


def relabelled_json(d: Derivation) -> str:
    """JSON of d with its labels renumbered 1, 2, ... by first appearance
    in pre-order, so that derivations equal up to renaming of discharge
    labels give the same text."""
    numbers: dict[int, int] = {}

    def renumber(obj: dict) -> dict:
        for field in ("discharge", "label"):
            if obj.get(field) is not None:
                obj[field] = numbers.setdefault(obj[field], len(numbers) + 1)
        for sub in obj.get("premises", ()):
            renumber(sub)
        return obj

    return json.dumps(renumber(derivation_to_obj(d)))


def test_bridge_output_digest_unchanged():
    """sc_to_nd on prover proofs and normalize on derivations with planted
    detours hash, up to renaming of discharge labels, to the digests that
    this same loop gives on commit a0d0c89, a checkout made before both
    translations ran top-down."""
    cfg = SearchConfig(memo=False)
    to_nd = hashlib.sha256()
    for calc in (Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN):
        k = done = 0
        while done < 40:
            s = rand_sequent(random.Random(k), 8)
            k += 1
            res = decide(calc, s, cfg)
            if res.verdict is Verdict.PROVABLE:
                done += 1
                to_nd.update(f"{calc.value} {s}\n".encode())
                to_nd.update(relabelled_json(sc_to_nd(calc, res.proof, cfg)).encode())
    normal = hashlib.sha256()
    rng = random.Random(45)
    for sys_id in NdSystem:
        for _ in range(50):
            d = plant_detours(rng, sys_id, rand_derivation(rng, sys_id, max_nodes=8), 2)
            normal.update(relabelled_json(normalize(sys_id, d, cfg)).encode())
    assert (to_nd.hexdigest(), normal.hexdigest()) == (
        "af578035c73bb0aec37699a3365d307a879f2c90518ba086ee544f4b705fac0f",
        "6251bb79d03782c953704cf31df4a52e33d5368cc05c9e6139a799d1b76e8c5c",
    )


def test_raw_output_digest_unchanged():
    """The JSON text of normalize_by_reduction, normalize and sc_to_nd
    outputs, labels included, hashes to the digest this same loop gives on
    commit 832dfee, before the natded walks became iterative: the fresh
    labels are drawn in the same order, and the JSON writer writes what
    json.dumps wrote."""
    cfg = SearchConfig(memo=False)
    digest = hashlib.sha256()
    rng = random.Random(46)
    for sys_id in NdSystem:
        for _ in range(25):
            d = plant_detours(rng, sys_id, rand_derivation(rng, sys_id, max_nodes=10), 3)
            digest.update(derivation_to_json(normalize_by_reduction(sys_id, d).derivation).encode())
            digest.update(derivation_to_json(normalize(sys_id, d, cfg)).encode())
    for calc in (Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN):
        k = done = 0
        while done < 15:
            s = rand_sequent(random.Random(1000 + k), 8)
            k += 1
            res = decide(calc, s, cfg)
            if res.verdict is Verdict.PROVABLE:
                done += 1
                digest.update(derivation_to_json(sc_to_nd(calc, res.proof, cfg), indent=2).encode())
    assert digest.hexdigest() == "df1144a8852c90cce11b593e185941712ea10339f65f968b51cdd03a1512feb6"
