import hashlib
import json
import random
import sys

import pytest

from connexive.formula import And, Imp, Neg, Or, Var, show
from connexive.natded import (
    _ARITY,
    DISCHARGING_RULES,
    ELIM_RULES,
    INTRO_RULES,
    PAIRED_CALCULUS,
    RULES_OF_SYSTEM,
    SC_RULE,
    Derivation,
    MaxOccurrence,
    NdRule,
    NdSystem,
    assumption,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    discharge_labels,
    is_normal,
    max_label,
    maximum_formulas,
    open_assumptions,
    refresh_labels,
    replace_at,
    require_valid,
    subst_leaves,
)
from connexive.bridge import nd_to_sc
from connexive.reduction import reduce_step
from connexive.sequent import RULES_OF, Calculus, Sequent, check_proof

from helpers import bind_open, derivation_to_obj, mutated_derivations, rand_derivation

p, q, r = Var("p"), Var("q"), Var("r")


def imp_intro(body, alpha, label):
    return Derivation(NdRule.IMP_I, Imp(alpha, body.formula), (bind_open(body, alpha, label),), label)


def test_identity_derivation():
    d = imp_intro(assumption(p), p, 1)
    rep = check_derivation(NdSystem.NC, d)
    assert rep.ok, rep.message()
    assert d.formula == Imp(p, p)
    assert open_assumptions(d) == frozenset()
    assert is_normal(d)


def test_aristotle_derivation():
    # ~(p -> ~p) from no assumptions: double-negate the discharged p
    body = Derivation(NdRule.NEGNEG_I, Neg(Neg(p)), (assumption(p, 1),))
    d = Derivation(NdRule.NEG_IMP_I, Neg(Imp(p, Neg(p))), (body,), 1)
    rep = check_derivation(NdSystem.NC, d)
    assert rep.ok, rep.message()
    assert open_assumptions(d) == frozenset()


def test_vacuous_discharge():
    d = imp_intro(assumption(q), p, 1)
    assert check_derivation(NdSystem.NC, d).ok
    assert d.formula == Imp(p, q)
    assert open_assumptions(d) == frozenset({q})


def test_duplicate_labels_rejected():
    inner = imp_intro(assumption(p), p, 1)
    outer = Derivation(NdRule.IMP_I, Imp(q, inner.formula), (inner,), 1)
    assert not check_derivation(NdSystem.NC, outer).ok


def test_unbound_label_rejected():
    d = Derivation(NdRule.OR_I1, Or(p, q), (assumption(p, 7),))
    assert not check_derivation(NdSystem.NC, d).ok


def test_label_outside_its_scope_rejected():
    # label 1 is discharged in the left conjunct but also binds a leaf in the right
    d = Derivation(NdRule.AND_I, And(Imp(p, p), p), (imp_intro(assumption(p), p, 1), assumption(p, 1)))
    rep = check_derivation(NdSystem.NC, d)
    assert not rep.ok and rep.path == (0,)
    assert rep.reason == "label 1 binds leaves outside its permitted subtrees"


def test_wrong_discharge_formula_rejected():
    # label 1 binds a q leaf but (imp_I) concludes p -> q
    d = Derivation(NdRule.IMP_I, Imp(p, q), (assumption(q, 1),), 1)
    assert not check_derivation(NdSystem.NC, d).ok


def test_em_only_beyond_nc():
    # p | ~p via EM on p: both branches conclude the goal
    goal = Or(p, Neg(p))
    b1 = Derivation(NdRule.OR_I2, goal, (assumption(Neg(p), 1),))
    b2 = Derivation(NdRule.OR_I1, goal, (assumption(p, 1),))
    d = Derivation(NdRule.EM, goal, (b1, b2), 1)
    assert not check_derivation(NdSystem.NC, d).ok
    rep = check_derivation(NdSystem.NC3, d)
    assert rep.ok, rep.message()
    assert open_assumptions(d) == frozenset()


def test_gem():
    # Peirce's law from (GEM) on p -> q
    peirce = Imp(Imp(Imp(p, q), p), p)
    minor = assumption(Imp(Imp(p, q), p), 2)
    b1 = Derivation(NdRule.IMP_E, p, (minor, assumption(Imp(p, q), 1)))
    b2 = assumption(p, 1)
    gem = Derivation(NdRule.GEM, p, (b1, b2), 1)
    d = Derivation(NdRule.IMP_I, peirce, (gem,), 2)
    rep = check_derivation(NdSystem.NMC, d)
    assert rep.ok, rep.message()
    assert not check_derivation(NdSystem.NC3, d).ok
    assert open_assumptions(d) == frozenset()


def test_or_e_branch_formulas():
    major = assumption(Or(p, q))
    b1 = Derivation(NdRule.OR_I1, Or(p, q), (assumption(p, 1),))
    b2 = Derivation(NdRule.OR_I2, Or(p, q), (assumption(q, 1),))
    d = Derivation(NdRule.OR_E, Or(p, q), (major, b1, b2), 1)
    assert check_derivation(NdSystem.NC, d).ok
    # swapping the branches binds the wrong formulas
    bad = Derivation(NdRule.OR_E, Or(p, q), (major, b2, b1), 1)
    assert not check_derivation(NdSystem.NC, bad).ok


def test_maximum_formulas():
    # ((p & q) intro then immediately eliminated) is a maximum
    inner = Derivation(NdRule.AND_I, And(p, q), (assumption(p), assumption(q)))
    d = Derivation(NdRule.AND_E1, p, (inner,))
    maxima = maximum_formulas(d)
    assert len(maxima) == 1
    assert maxima[0].path == (0,)
    assert maxima[0].formula == And(p, q)
    assert not is_normal(d)


def test_at_rejects_a_path_that_leaves_the_derivation():
    inner = Derivation(NdRule.AND_I, And(p, q), (assumption(p), assumption(q)))
    d = Derivation(NdRule.AND_E1, p, (inner,))
    assert d.at(()) is d and d.at((0, 1)) == assumption(q)
    for path in ((1,), (0, 2), (0, 0, 0), (-1,), (0, -1)):
        with pytest.raises(ValueError, match=f"no node at path {'.'.join(map(str, path))}$"):
            d.at(path)


def test_elim_major_is_first_premise():
    # an assumption major premise is not a maximum
    d = Derivation(NdRule.AND_E1, p, (assumption(And(p, q)),))
    assert is_normal(d)
    # minor premises do not create maxima either
    minor = Derivation(NdRule.AND_I, And(p, q), (assumption(p), assumption(q)))
    e = Derivation(NdRule.IMP_E, r, (assumption(Imp(And(p, q), r)), minor))
    assert is_normal(e)


def test_require_valid_raises():
    from connexive.checking import InvalidProof

    with pytest.raises(InvalidProof):
        require_valid(NdSystem.NC, Derivation(NdRule.AND_E1, p, (assumption(p),)))


def test_subst_open():
    d = Derivation(NdRule.OR_I1, Or(p, q), (assumption(p),))
    repl = Derivation(NdRule.AND_E1, p, (assumption(And(p, r)),))
    out, _ = subst_leaves(d, lambda n: n.label is None and n.formula == p, repl, 10)
    assert check_derivation(NdSystem.NC, out).ok
    assert open_assumptions(out) == frozenset({And(p, r)})


def test_subst_label():
    d = imp_intro(assumption(p), p, 1)
    body = d.premises[0]
    out, _ = subst_leaves(body, lambda n: n.label == 1, assumption(q, None), 10)
    assert out.formula == p or out.rule is NdRule.ASSUMPTION
    # substituting for a bound leaf replaces it wholesale
    repl = Derivation(NdRule.AND_E1, p, (assumption(And(p, q)),))
    out2, _ = subst_leaves(body, lambda n: n.label == 1, repl, 10)
    assert out2 == repl


def test_random_derivations_valid():
    rng = random.Random(21)
    for sys_id in NdSystem:
        for _ in range(25):
            d = rand_derivation(rng, sys_id, max_nodes=15)
            assert d.node_count() >= 15
            rep = check_derivation(sys_id, d)
            assert rep.ok, rep.message()


def test_json_roundtrip():
    rng = random.Random(22)
    for _ in range(20):
        d = rand_derivation(rng, NdSystem.NCN, max_nodes=12)
        assert derivation_from_json(derivation_to_json(d)) == d
        assert derivation_from_json(derivation_to_json(d, indent=2)) == d


def test_json_reader_parses_each_text_once(monkeypatch):
    """derivation_from_json parses each distinct formula text of a file
    once, and every node with that text gets the same formula object."""
    import connexive.natded as natded

    parses = [0]
    parse = natded.parse

    def counting_parse(text):
        parses[0] += 1
        return parse(text)

    monkeypatch.setattr(natded, "parse", counting_parse)
    rng = random.Random(25)
    for sys_id in NdSystem:
        d = rand_derivation(rng, sys_id, max_nodes=20)
        parses[0] = 0
        back = derivation_from_json(derivation_to_json(d))
        nodes, stack = [], [back]
        while stack:
            n = stack.pop()
            nodes.append(n)
            stack.extend(n.premises)
        texts = {show(n.formula) for n in nodes}
        assert len(texts) < len(nodes)  # some text repeats
        assert len({id(n.formula) for n in nodes}) == len(texts) == parses[0]
        assert back == d


def test_json_text_is_stdlib_json():
    # the writer walks iteratively but must write what json.dumps writes
    rng = random.Random(24)
    for _ in range(20):
        d = rand_derivation(rng, NdSystem.NCN, max_nodes=12)
        for indent in (None, 0, 2):
            assert derivation_to_json(d, indent) == json.dumps(derivation_to_obj(d), indent=indent)


def test_replace_at_and_labels():
    rng = random.Random(23)
    d = rand_derivation(rng, NdSystem.NC, max_nodes=10)
    assert replace_at(d, (), assumption(p)) == assumption(p)
    assert max_label(d) >= max(discharge_labels(d), default=0)


def test_rule_tables():
    """The rule tables read off SC_RULE, written out: a change to SC_RULE
    that moves a rule in or out of a system, or changes its arity, shows
    here."""
    nc = {
        "assumption", "imp_I", "imp_E", "and_I", "and_E1", "and_E2", "or_I1", "or_I2", "or_E",
        "negneg_I", "negneg_E", "neg_imp_I", "neg_imp_E", "neg_and_I1", "neg_and_I2", "neg_and_E",
        "neg_or_I", "neg_or_E1", "neg_or_E2",
    }
    assert {s.value: {r.value for r in rules} for s, rules in RULES_OF_SYSTEM.items()} == {
        "nc": nc,
        "nc3": nc | {"EM"},
        "nmc": nc | {"GEM"},
        "ncn": nc | {"EM", "GEM"},
    }
    assert {r.value: k for r, k in _ARITY.items()} == {
        "assumption": 0, "imp_I": 1, "imp_E": 2, "and_I": 2, "and_E1": 1, "and_E2": 1, "or_I1": 1,
        "or_I2": 1, "or_E": 3, "negneg_I": 1, "negneg_E": 1, "neg_imp_I": 1, "neg_imp_E": 2,
        "neg_and_I1": 1, "neg_and_I2": 1, "neg_and_E": 3, "neg_or_I": 2, "neg_or_E1": 1,
        "neg_or_E2": 1, "EM": 2, "GEM": 2,
    }
    assert {r.value for r in INTRO_RULES} == {
        "imp_I", "and_I", "or_I1", "or_I2", "negneg_I", "neg_imp_I", "neg_and_I1", "neg_and_I2",
        "neg_or_I", "EM", "GEM",
    }
    assert {r.value for r in ELIM_RULES} == {
        "imp_E", "and_E1", "and_E2", "or_E", "negneg_E", "neg_imp_E", "neg_and_E", "neg_or_E1",
        "neg_or_E2",
    }
    assert {r.value for r in DISCHARGING_RULES} == {"imp_I", "neg_imp_I", "or_E", "neg_and_E", "EM", "GEM"}
    for sys_id, calc in PAIRED_CALCULUS.items():
        for r in NdRule:
            assert (r in RULES_OF_SYSTEM[sys_id]) == (SC_RULE[r] in RULES_OF[calc])


def test_check_report_digest_unchanged():
    """check_derivation's reports (verdict, path, rule, reason) on valid
    derivations with 0-3 random faults hash to the digest this same loop
    gives on commit 832dfee, whose checker walked each discharging node's
    subtree again.  It came out the same under several PYTHONHASHSEEDs."""
    digest = hashlib.sha256()
    for sys_id, d in mutated_derivations(random.Random(61), 1500):
        rep = check_derivation(sys_id, d)
        digest.update(repr((rep.ok, rep.path, rep.rule, rep.reason)).encode())
    assert digest.hexdigest() == "5a964a6518cba9701c1e0e95f7146acb3db787ce62f24ae912240eef2f753800"


class _Counted(Derivation):
    """A derivation node that counts the reads of its premises."""

    reads = 0

    def __getattribute__(self, name):
        if name == "premises":
            _Counted.reads += 1
        return object.__getattribute__(self, name)


def or_e_chain(n, node=Derivation):
    """n (or_E) levels, each discharging its own label, over a detour
    p & q / p whose p leaf the lowest level binds; every formula is small,
    so only the derivation is deep."""
    detour = node(NdRule.AND_I, And(p, q), (node(NdRule.ASSUMPTION, p, (), None, 1), node(NdRule.ASSUMPTION, q)))
    d = node(NdRule.AND_E1, p, (detour,))
    for k in range(1, n + 1):
        d = node(NdRule.OR_E, p, (node(NdRule.ASSUMPTION, Or(p, q)), d, node(NdRule.ASSUMPTION, p)), k)
    return d


def test_deep_derivations_compare_hash_and_repr():
    """Two separately built 3,000-level derivations compare, hash and
    repr under the interpreter's default recursion limit; a change at
    the bottom makes them unequal."""
    n = 3000
    a, b = or_e_chain(n), or_e_chain(n)
    path, node = [], b
    while node.rule is NdRule.OR_E:
        path.append(node)
        node = node.premises[1]
    changed = Derivation(node.rule, q, node.premises)
    for n_ in reversed(path):
        changed = Derivation(n_.rule, n_.formula, (n_.premises[0], changed, n_.premises[2]), n_.discharge)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert a == b and hash(a) == hash(b)
        assert a != changed and hash(a) == hash(changed)
        assert repr(a) == "Derivation('p')"
    finally:
        sys.setrecursionlimit(limit)


def test_nd_to_sc_on_a_deep_chain():
    """nd_to_sc runs on recurse, so a 3,000-level or_E chain translates
    under the default limit."""
    d = or_e_chain(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        proof = nd_to_sc(NdSystem.NC, d)
        ok = check_proof(Calculus.SC, proof).ok
    finally:
        sys.setrecursionlimit(limit)
    assert proof.conclusion == Sequent(open_assumptions(d), d.formula) and ok


def test_natded_walks_are_linear():
    for n in (500, 1000):
        d = or_e_chain(n, _Counted)
        _Counted.reads = 0
        assert check_derivation(NdSystem.NC, d).ok
        assert _Counted.reads <= 4 * (3 * n + 4)
    n = 3000
    d = or_e_chain(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert check_derivation(NdSystem.NC, d).ok
        assert open_assumptions(d) == frozenset({p, q, Or(p, q)})
        assert max_label(d) == n and discharge_labels(d) == set(range(1, n + 1))
        deep = (1,) * n + (0,)
        assert maximum_formulas(d) == [MaxOccurrence(deep, And(p, q))]
        assert d.node_count() == 3 * n + 4
        copy, nxt = refresh_labels(d, n + 1)
        assert nxt == 2 * n + 1 and check_derivation(NdSystem.NC, copy).ok
        reduced = reduce_step(NdSystem.NC, d, MaxOccurrence(deep, And(p, q)))
        assert is_normal(reduced) and reduced.at(deep[:-1]).label == 1
        swapped, _ = subst_leaves(d, lambda leaf: leaf.label == 1, assumption(p), 0)
        assert swapped.node_count() == 3 * n + 4 and check_derivation(NdSystem.NC, swapped).ok
        assert derivation_to_json(d).count('"rule"') == 3 * n + 4
        assert derivation_to_obj(d)["discharge"] == n
    finally:
        sys.setrecursionlimit(limit)
