import dataclasses
import json
import pickle
import random
import sys

import pytest

from connexive.checking import InvalidProof
from connexive.formula import And, Imp, Neg, Or, Var, show
from connexive.sequent import (
    ARITY,
    CONNEXIVE_CALCULI,
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
    weaken_proof,
)

from connexive import sequent
from connexive.natded import Derivation, NdRule, assumption
from connexive.prover import SearchConfig, decide

from helpers import (
    MALFORMED_TABLE_FILES,
    and_left_tower,
    mutated_proofs,
    native_decide,
    rand_formula,
    rand_sequent,
    reference_proof_to_obj,
    shared_or_chain,
    subformulas,
)

p, q, r = Var("p"), Var("q"), Var("r")


def leaf(rule, ctx, suc):
    return SequentProof(seq(ctx, suc), rule)


def test_kernel_values_keep_their_contract():
    """Formulas, sequents, and proof and derivation nodes are frozen,
    replaceable and picklable, and a sequent hashes as its field tuple."""
    c, g = frozenset({p, Neg(q)}), And(p, q)
    s = Sequent(c, g)
    assert s == (c, g) and hash(s) == hash((c, g))
    proof = SequentProof(seq([], Imp(p, p)), Rule.IMP_RIGHT, None, (leaf(Rule.INIT1, [p], p),))
    d = Derivation(NdRule.IMP_I, Imp(p, p), (assumption(p, 1),), discharge=1)
    for value, field in [(p, "name"), (g, "left"), (Neg(q), "body"), (s, "ctx"), (proof, "rule"), (d, "formula")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    named = dataclasses.replace(proof, principal=p)
    assert (named.conclusion, named.rule, named.principal, named.premises) == (*proof.own()[:2], p, proof.premises)
    relabelled = dataclasses.replace(d, discharge=2)
    assert relabelled.own() == (NdRule.IMP_I, Imp(p, p), 2, None) and relabelled.premises == d.premises
    for value in (s, proof, d):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
    with pytest.raises(ValueError):
        Var("P")


def test_parse_sequent():
    s = parse_sequent("p, q -> r => ~p")
    assert s == seq([p, Imp(q, r)], Neg(p))
    assert parse_sequent("p -> p") == seq([], Imp(p, p))
    assert str(parse_sequent("=> p")) == "=> p"


def test_init_rules():
    assert check_proof(Calculus.SC, leaf(Rule.INIT1, [p, q], p)).ok
    assert check_proof(Calculus.SC, leaf(Rule.INIT2, [Neg(p), q], Neg(p))).ok
    # init1 wants an atom in the context
    assert not check_proof(Calculus.SC, leaf(Rule.INIT1, [q], p)).ok
    assert not check_proof(Calculus.SC, leaf(Rule.INIT1, [Imp(p, p)], Imp(p, p))).ok
    # init2 is connexive only
    assert not check_proof(Calculus.LJP, leaf(Rule.INIT2, [Neg(p)], Neg(p))).ok


def test_imp_right():
    proof = SequentProof(
        seq([], Imp(p, p)), Rule.IMP_RIGHT, None, (leaf(Rule.INIT1, [p], p),)
    )
    assert check_proof(Calculus.LJP, proof).ok
    bad = SequentProof(seq([], Imp(p, q)), Rule.IMP_RIGHT, None, (leaf(Rule.INIT1, [p], p),))
    rep = check_proof(Calculus.LJP, bad)
    assert not rep.ok and rep.path == ()


def test_aristotle_proof_by_hand():
    goal = Neg(Imp(p, Neg(p)))
    inner = SequentProof(seq([p], Neg(Neg(p))), Rule.NEG_RIGHT, None, (leaf(Rule.INIT1, [p], p),))
    proof = SequentProof(seq([], goal), Rule.NEG_IMP_RIGHT, None, (inner,))
    assert check_proof(Calculus.SC, proof).ok
    assert proof.is_cut_free() and proof.node_count() == 3 and proof.depth() == 3


def test_left_rule_retention():
    # G3-style instance: the principal stays in the premise context
    conc = seq([And(p, q)], p)
    prem = leaf(Rule.INIT1, [And(p, q), p, q], p)
    proof = SequentProof(conc, Rule.AND_LEFT, And(p, q), (prem,))
    assert check_proof(Calculus.SC, proof).ok
    # and the plain instance where it is consumed
    prem2 = leaf(Rule.INIT1, [p, q], p)
    proof2 = SequentProof(conc, Rule.AND_LEFT, And(p, q), (prem2,))
    assert check_proof(Calculus.SC, proof2).ok


# (rule, principal, conclusion context without the principal, premises):
# valid once the principal is added to the context
LEFT_INSTANCES = [
    (Rule.AND_LEFT, And(p, q), [r], [leaf(Rule.INIT1, [p, q, r], r)]),
    (Rule.OR_LEFT, Or(p, q), [r], [leaf(Rule.INIT1, [p, r], r), leaf(Rule.INIT1, [q, r], r)]),
    (Rule.NEG_LEFT, Neg(Neg(p)), [r], [leaf(Rule.INIT1, [p, r], r)]),
    (Rule.NEG_AND_LEFT, Neg(And(p, q)), [r], [leaf(Rule.INIT1, [Neg(p), r], r), leaf(Rule.INIT1, [Neg(q), r], r)]),
    (Rule.NEG_OR_LEFT, Neg(Or(p, q)), [r], [leaf(Rule.INIT1, [Neg(p), Neg(q), r], r)]),
    (Rule.IMP_LEFT, Imp(p, q), [p, r], [leaf(Rule.INIT1, [p, r], p), leaf(Rule.INIT1, [q, r], r)]),
    (Rule.NEG_IMP_LEFT, Neg(Imp(p, q)), [p, r], [leaf(Rule.INIT1, [p, r], p), leaf(Rule.INIT1, [Neg(q), r], r)]),
]


@pytest.mark.parametrize("rule, phi, ctx, prems", LEFT_INSTANCES, ids=[i[0].value for i in LEFT_INSTANCES])
def test_left_rule_principal_must_be_in_context(rule, phi, ctx, prems):
    valid = SequentProof(seq([phi, *ctx], r), rule, phi, tuple(prems))
    assert check_proof(Calculus.SC, valid).ok
    rep = check_proof(Calculus.SC, SequentProof(seq(ctx, r), rule, phi, tuple(prems)))
    assert not rep.ok
    assert rep.path == () and rep.rule == rule.value
    assert rep.reason == "principal missing from context"


def test_axioms_and_right_rules_take_no_principal():
    """A principal on an axiom or a right rule means nothing, so a node
    that carries one is rejected; without it each node checks."""
    nodes = {}
    for phi in [And(p, q), Or(p, q), Imp(p, q), Neg(Neg(p)), Neg(Imp(p, q)), Neg(And(p, q)), Neg(Or(p, q))]:
        fold(identity_proof(Calculus.SC, phi), lambda node, subs: nodes.setdefault(node.rule, node))
    targets = sequent.RIGHT_RULES | {Rule.INIT1, Rule.INIT2}
    assert targets <= set(nodes)
    for rule in targets:
        assert check_proof(Calculus.SC, nodes[rule]).ok
        rep = check_proof(Calculus.SC, dataclasses.replace(nodes[rule], principal=And(q, q)))
        assert not rep.ok, rule
        assert rep.path == () and rep.reason == f"{rule.value} takes no principal formula"


def test_schema_table_complete():
    """Every rule but the axioms has a schema, and each fitting instance
    has as many premises as the rule's arity."""
    assert set(SCHEMAS) == set(Rule) - {Rule.INIT1, Rule.INIT2}
    samples = [p, q, Var("p", True), Neg(p), And(p, q), Or(p, q), Imp(p, q)]
    samples += [Neg(f) for f in samples[3:]]
    for rule, schema in SCHEMAS.items():
        fits = [schema(g, phi) for g in samples for phi in [None, *samples]]
        fits = [specs for specs in fits if specs is not None]
        assert fits, rule
        assert all(len(specs) == ARITY[rule] for specs in fits), rule


def test_rule_not_in_calculus():
    prem1 = leaf(Rule.INIT1, [Neg(q), p], p)
    prem2 = leaf(Rule.INIT1, [q, p], p)
    proof = SequentProof(seq([p], p), Rule.EX_MIDDLE, q, (prem1, prem2))
    assert not check_proof(Calculus.SC, proof).ok
    assert check_proof(Calculus.SC3, proof).ok


def test_peirce_and_gem():
    phi = Imp(p, q)
    prem = leaf(Rule.INIT1, [phi, p], p)
    proof = SequentProof(seq([p], p), Rule.PEIRCE, phi, (prem,))
    assert check_proof(Calculus.SMC, proof).ok
    assert not check_proof(Calculus.SC3, proof).ok
    gem = SequentProof(seq([p], p), Rule.G_EX_MIDDLE, phi, (prem, leaf(Rule.INIT1, [p], p)))
    assert check_proof(Calculus.SMC_STAR, gem).ok
    assert not check_proof(Calculus.SMC, gem).ok
    # the Peirce instantiation's antecedent must equal the succedent
    wrong = SequentProof(seq([q], q), Rule.PEIRCE, phi, (leaf(Rule.INIT1, [phi, q], q),))
    assert not check_proof(Calculus.SMC, wrong).ok


def test_arity_mismatch():
    proof = SequentProof(seq([], Imp(p, p)), Rule.IMP_RIGHT, None, ())
    assert not check_proof(Calculus.SC, proof).ok


def cut_proofs() -> list[SequentProof]:
    """Valid sc proofs with cuts: a cut on p over two axioms, the same cut
    unnamed, and a cut on r & r whose first premise takes the first cut
    twice, as one shared object."""
    named = SequentProof(seq([q, p, r], r), Rule.CUT, p, (leaf(Rule.INIT1, [q, p], p), leaf(Rule.INIT1, [p, r], r)))
    unnamed = dataclasses.replace(named, principal=None)
    rr = And(r, r)
    both = SequentProof(seq([q, p, r], rr), Rule.AND_RIGHT, None, (named, named))
    use = SequentProof(seq([q, p, r, rr], r), Rule.AND_LEFT, rr, (leaf(Rule.INIT1, [q, p, r, rr], r),))
    outer = SequentProof(seq([q, p, r], r), Rule.CUT, rr, (both, use))
    return [named, unnamed, outer]


def test_cut_node():
    # cut on p: (=> is not derivable here, use contexts) p => p and p => p
    proof = cut_proofs()[0]
    assert check_proof(Calculus.SC, proof).ok
    assert not proof.is_cut_free()


def test_identity_proof_random():
    rng = random.Random(3)
    for calc in (Calculus.SC, Calculus.SC3, Calculus.SMC_STAR, Calculus.LJP):
        for _ in range(40):
            allow_neg = calc is not Calculus.LJP
            alpha = rand_formula(rng, 8, allow_neg=allow_neg)
            gamma = frozenset({rand_formula(rng, 4, allow_neg=allow_neg)})
            proof = identity_proof(calc, alpha, gamma)
            assert proof.conclusion == Sequent(frozenset({alpha}) | gamma, alpha)
            rep = check_proof(calc, proof)
            assert rep.ok, rep.message()
            assert proof.is_cut_free()


def test_deep_identity_proof_under_default_limit():
    """Generalized identity runs on recurse, so a 1,500-deep formula gets
    its identity proof under the default limit."""
    alpha = p
    for i in range(1500):
        alpha = Imp(q, alpha) if i % 3 else Neg(Or(alpha, q))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        proof = identity_proof(Calculus.SC, alpha, {r})
    finally:
        sys.setrecursionlimit(limit)
    assert proof.conclusion == Sequent(frozenset({alpha, r}), alpha)
    assert check_proof(Calculus.SC, proof).ok and proof.is_cut_free()


def test_recurse_runs_a_generator_recursion():
    """recurse sends each yielded generator's value back, in order, and
    returns the outer generator's value; it is not bounded by the limit."""

    def count(n):
        return 0 if n == 0 else 1 + (yield count(n - 1))

    def tree(n):
        if n == 0:
            return "x"
        left = yield tree(n - 1)
        right = yield tree(n - 1)
        return f"({left} {right})"

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        deep = sequent.recurse(count(5000))
    finally:
        sys.setrecursionlimit(limit)
    assert deep == 5000
    assert sequent.recurse(tree(2)) == "((x x) (x x))"


def test_weaken_proof():
    rng = random.Random(4)
    for _ in range(40):
        alpha = rand_formula(rng, 6)
        extra = {rand_formula(rng, 4), rand_formula(rng, 4)}
        base = identity_proof(Calculus.SC, alpha)
        out = weaken_proof(Calculus.SC, base, extra)
        assert out.conclusion == Sequent(frozenset({alpha}) | extra, alpha)
        assert check_proof(Calculus.SC, out).ok


def test_weaken_rejects_invalid():
    bogus = leaf(Rule.INIT1, [q], p)
    with pytest.raises(InvalidProof):
        weaken_proof(Calculus.SC, bogus, {r})


def test_weaken_keeps_the_language():
    """Weakening adds formulas to every context, so in a calculus without
    connexive negation it may not add a formula with ~, as identity_proof
    may not use one."""
    base = identity_proof(Calculus.LJP, Imp(p, p))
    with pytest.raises(ValueError, match="negation not in the language of ljp"):
        weaken_proof(Calculus.LJP, base, {Neg(q)})
    assert check_proof(Calculus.LJP, weaken_proof(Calculus.LJP, base, {q})).ok


# identity_proof(sc, p & ~q) as proof_to_json writes it: a formula
# table, then each node after its premises, the root last
TABLE = (
    '{"formulas": ["p", "~q", "p & ~q"], "nodes": ['
    '{"rule": "init2", "ctx": [0, 1], "suc": 1, "principal": null, "premises": []}, '
    '{"rule": "and_left", "ctx": [2], "suc": 1, "principal": 2, "premises": [0]}, '
    '{"rule": "init1", "ctx": [0, 1], "suc": 0, "principal": null, "premises": []}, '
    '{"rule": "and_left", "ctx": [2], "suc": 0, "principal": 2, "premises": [2]}, '
    '{"rule": "and_right", "ctx": [2], "suc": 2, "principal": null, "premises": [3, 1]}]}'
)


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        proof = identity_proof(Calculus.SC, rand_formula(rng, 7))
        text = proof_to_json(proof)
        assert proof_from_json(text) == proof
        assert proof_from_json(proof_to_json(proof, indent=2)) == proof
        # the text is what json.dumps writes for the same object
        assert json.dumps(json.loads(text)) == text
        assert json.loads(proof_to_json(proof, indent=2)) == json.loads(text)
    proof = identity_proof(Calculus.SC, And(p, Neg(q)))
    assert proof_to_json(proof) == TABLE
    assert proof_from_json(TABLE) == proof


def distinct_nodes(proof):
    seen = []
    fold(proof, lambda node, subs: seen.append(node))
    return len(seen)


def test_fold_visits_shared_nodes_once():
    chain = shared_or_chain(40)
    assert distinct_nodes(chain) == 41
    assert chain.node_count() == 2**41 - 1
    assert chain.depth() == 41
    assert chain.is_cut_free()
    assert check_proof(Calculus.SC, chain).ok


def test_shared_proofs_compare_in_linear_time():
    """Two separately built proofs, each sharing one premise object per
    level, are equal without expanding their 2^41-node trees; another
    rule at the leaf makes them unequal; the hash and repr read the root
    alone."""
    import time

    a, b = shared_or_chain(40), shared_or_chain(40)
    t0 = time.perf_counter()
    assert a == b and not a != b
    assert time.perf_counter() - t0 < 1.0
    assert hash(a) == hash(b)
    assert repr(a) == f"SequentProof({str(a.conclusion)!r})"
    path, node = [], b
    while node.premises:
        path.append(node)
        node = node.premises[0]
    changed = SequentProof(node.conclusion, Rule.INIT2)
    for n in reversed(path):
        changed = SequentProof(n.conclusion, n.rule, n.principal, (changed, changed))
    assert a != changed and changed != a
    assert a != a.conclusion


def test_proof_check_report_digest_unchanged():
    """check_proof's reports (verdict, path, rule, reason) on prover
    proofs with one seeded fault each (a swapped rule, a dropped premise,
    a changed context formula or a changed principal) hash to the digest
    this same loop gives on commit dd028fa, under PYTHONHASHSEEDs 0, 1
    and 123 alike, with the rule p_ex_middle left out of mutate_proof's
    pool of swapped rules.  The pool is every rule, so deleting that rule
    moved the mutants; the reports are otherwise those pinned since
    commit 2ea3f24.  It guards the checker's reports through any later
    change to how proofs are certified."""
    import hashlib

    digest = hashlib.sha256()
    for calc, proof in mutated_proofs(random.Random(67), 600):
        rep = check_proof(calc, proof)
        digest.update(repr((rep.ok, rep.path, rep.rule, rep.reason)).encode())
    assert digest.hexdigest() == "0c41c392bdab7824a9ff32d4b22db006ee9dfbb56bf43bd01ba9e2776459f04e"


def test_check_proof_path_into_shared_dag():
    """The report names the first failing occurrence in pre-order, here
    after a premise whose tree has 2^41 nodes."""
    chain = shared_or_chain(40)
    ctx, r = chain.conclusion.ctx, chain.conclusion.suc
    q0 = Var("q0")
    bad = SequentProof(Sequent(ctx - {Or(q0, q0)} | {q0}, r), Rule.INIT2)
    second = SequentProof(Sequent(ctx, r), Rule.OR_LEFT, Or(q0, q0), (bad, bad))
    root = SequentProof(Sequent(ctx, And(r, r)), Rule.AND_RIGHT, None, (chain, second))
    rep = check_proof(Calculus.SC, root)
    assert not rep.ok
    assert rep.path == (1, 0) and rep.rule == "init2"
    assert rep.reason == "init2 succedent must be a negated atom"


def test_json_keeps_sharing():
    chain = shared_or_chain(40)
    text = proof_to_json(chain)
    assert len(text) < 40_000
    back = proof_from_json(text)
    assert distinct_nodes(back) == 41
    assert back.premises[0] is back.premises[1]
    assert proof_to_json(back) == text
    assert proof_to_json(proof_from_json(proof_to_json(chain, indent=2))) == text


ITEM2 = "~(q | q) => ~((~r | ~r) & (q & r -> r | p))"


@pytest.fixture(scope="module")
def item2_smc():
    """The connexive search's smc proof of the item-2 row: 241 distinct
    nodes, over 10^6 as a tree.  decide's route through f proves the row
    with a small proof, so the fixture asks the connexive search."""
    return native_decide(Calculus.SMC, parse_sequent(ITEM2), SearchConfig(memo=False)).proof


def test_check_proof_once_per_distinct_node(item2_smc, monkeypatch):
    calls = []
    real = sequent._node_error

    def counting(calc, node):
        calls.append(node)
        return real(calc, node)

    monkeypatch.setattr(sequent, "_node_error", counting)
    assert check_proof(Calculus.SMC, item2_smc).ok
    assert len(calls) == distinct_nodes(item2_smc) == 241
    assert item2_smc.node_count() > 10**6


def test_check_report_carries_cut_freeness_depth_and_tree_size(item2_smc):
    """A valid report's cut_free, depth and tree_size, from the checking
    fold, are what is_cut_free(), depth() and node_count() compute with
    walks of their own: on the 41-level shared chain and the item-2 smc
    proof, whose trees have 2^41 - 1 and over 10^6 nodes, on proofs with
    cuts, and on 200 proofs that decide finds, whose stats read the same
    figures."""

    def facts(proof):
        return proof.is_cut_free(), proof.depth(), proof.node_count()

    cases = [(Calculus.SC, shared_or_chain(40)), (Calculus.SMC, item2_smc)]
    cases += [(Calculus.SC, proof) for proof in cut_proofs()]
    assert facts(cases[0][1]) == (True, 41, 2**41 - 1)
    assert facts(item2_smc)[2] > 10**6
    assert {facts(proof)[0] for _, proof in cases[2:]} == {False}
    rng = random.Random(71)
    found = 0
    while found < 200:
        s = rand_sequent(rng, 8)
        calc = rng.choice(sorted(CONNEXIVE_CALCULI))
        res = decide(calc, s, SearchConfig(node_budget=20_000))
        if res.proof is not None:
            found += 1
            cases.append((calc, res.proof))
            assert res.stats.proof_size == res.proof.node_count()
            if calc not in (Calculus.SMC_STAR, Calculus.SCN_STAR):
                assert res.stats.max_depth == res.proof.depth()
    for calc, proof in cases:
        rep = check_proof(calc, proof)
        assert rep.ok, rep.message()
        assert (rep.cut_free, rep.depth, rep.tree_size) == facts(proof)
    # an invalid proof's report has none of them
    rep = check_proof(Calculus.SC, leaf(Rule.INIT1, [q], p))
    assert not rep.ok and (rep.cut_free, rep.depth, rep.tree_size) == (None, None, None)


def test_json_roundtrip_shared_search_proof(item2_smc):
    text = proof_to_json(item2_smc, indent=2)
    back = proof_from_json(text)
    assert distinct_nodes(back) == 241
    assert check_proof(Calculus.SMC, back).ok
    assert proof_to_json(back, indent=2) == text


def test_proof_from_json_shares_formulas(item2_smc):
    """Over one read-back file, equal formulas are one object, and so are
    equal subformulas, also where they sit in different formulas."""
    back = proof_from_json(proof_to_json(item2_smc))
    formulas = []

    def collect(node, subs):
        formulas.extend(node.conclusion.ctx)
        formulas.append(node.conclusion.suc)
        if node.principal is not None:
            formulas.append(node.principal)

    fold(back, collect)
    assert len({id(f) for f in formulas}) == len({show(f) for f in formulas})
    parts = [g for f in {id(f): f for f in formulas}.values() for g in subformulas(f)]
    texts = {show(g) for g in parts}
    assert len(texts) < len(parts)  # some subformula repeats
    assert len({id(g) for g in parts}) == len(texts)


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1], "must be a JSON object"),
        # the nested layout that files had before the formula table
        (reference_proof_to_obj(shared_or_chain(3)), "missing field 'formulas'"),
    ],
)
def test_proof_from_json_rejects_malformed(obj, message):
    with pytest.raises(ValueError, match=message):
        proof_from_json(json.dumps(obj))


@pytest.mark.parametrize("obj, message", MALFORMED_TABLE_FILES)
def test_proof_from_json_rejects_malformed_table(obj, message):
    with pytest.raises(ValueError) as caught:
        proof_from_json(json.dumps(obj))
    assert message in str(caught.value)


def test_deep_proof_roundtrip_under_default_limit():
    """Writing and reading a proof file recurses at no depth of the proof."""
    tower = and_left_tower(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = proof_to_json(tower, indent=2)
        back = proof_from_json(text)
        again = proof_to_json(back, indent=2)
    except RecursionError:
        back = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert back is not None, "the proof file round trip recursed"
    assert back == tower and back.depth() == 3001
    assert again == text
    # one line per formula and per node, none indented past the node list
    lines = text.splitlines()
    assert len(lines) == 2 + 3001 + 6
    assert max(len(ln) - len(ln.lstrip()) for ln in lines) == 4


def test_rule_tables():
    assert Rule.CUT in RULES_OF[Calculus.SC]
    assert Rule.EX_MIDDLE not in RULES_OF[Calculus.SMC]
    assert set(ARITY) == set(Rule)


def test_proof_from_json_too_deep():
    node = '{"rule": "imp_right", "sequent": {"ctx": [], "suc": "p -> p"}, "premises": ['
    leaf_ = '{"rule": "init1", "sequent": {"ctx": ["p"], "suc": "p"}}'
    text = node * 3000 + leaf_ + "]}" * 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        with pytest.raises(ValueError, match="nested too deeply"):
            proof_from_json(text)
    finally:
        sys.setrecursionlimit(limit)
