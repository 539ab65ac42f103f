import random

import pytest

from connexive.formula import And, Imp, Neg, Or, Var
from connexive.natded import (
    Derivation,
    MaxOccurrence,
    NdRule,
    NdSystem,
    assumption,
    check_derivation,
    is_normal,
    maximum_formulas,
    open_assumptions,
)
from connexive.reduction import (
    ReductionKind,
    classify,
    normalize_by_reduction,
    reduce_step,
)

from helpers import bind_open, plant_detours, rand_derivation

p, q, r = Var("p"), Var("q"), Var("r")


def first_max(d):
    maxima = maximum_formulas(d)
    assert maxima
    return maxima[0]


def test_detour_and():
    inner = Derivation(NdRule.AND_I, And(p, q), (assumption(p), assumption(q)))
    d = Derivation(NdRule.AND_E2, q, (inner,))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_AND
    out = reduce_step(NdSystem.NC, d, at)
    assert out == assumption(q)


def test_detour_imp():
    # (p -> p & p) applied to an open p
    body = Derivation(NdRule.AND_I, And(p, p), (assumption(p, 1), assumption(p, 1)))
    intro = Derivation(NdRule.IMP_I, Imp(p, And(p, p)), (body,), 1)
    d = Derivation(NdRule.IMP_E, And(p, p), (intro, assumption(p)))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_IMP
    out = reduce_step(NdSystem.NC, d, at)
    assert out == Derivation(NdRule.AND_I, And(p, p), (assumption(p), assumption(p)))


def test_detour_neg_imp():
    body = Derivation(NdRule.NEGNEG_I, Neg(Neg(p)), (assumption(p, 1),))
    intro = Derivation(NdRule.NEG_IMP_I, Neg(Imp(p, Neg(p))), (body,), 1)
    d = Derivation(NdRule.NEG_IMP_E, Neg(Neg(p)), (intro, assumption(p)))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_NEG_IMP
    out = reduce_step(NdSystem.NC, d, at)
    assert out == Derivation(NdRule.NEGNEG_I, Neg(Neg(p)), (assumption(p),))


def test_detour_negneg():
    inner = Derivation(NdRule.NEGNEG_I, Neg(Neg(p)), (assumption(p),))
    d = Derivation(NdRule.NEGNEG_E, p, (inner,))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_NEGNEG
    assert reduce_step(NdSystem.NC, d, at) == assumption(p)


def test_detour_or():
    major = Derivation(NdRule.OR_I1, Or(p, q), (assumption(p),))
    b1 = Derivation(NdRule.OR_I1, Or(p, r), (assumption(p, 1),))
    b2 = Derivation(NdRule.OR_I2, Or(p, r), (assumption(r),))
    d = Derivation(NdRule.OR_E, Or(p, r), (major, b1, b2), 1)
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_OR
    out = reduce_step(NdSystem.NC, d, at)
    assert out == Derivation(NdRule.OR_I1, Or(p, r), (assumption(p),))


def test_detour_neg_and():
    major = Derivation(NdRule.NEG_AND_I2, Neg(And(p, q)), (assumption(Neg(q)),))
    b1 = assumption(r, None)
    b2 = Derivation(NdRule.AND_E1, r, (assumption(And(r, p)),))
    # branch 1 expects ~p leaves, branch 2 expects ~q leaves
    d = Derivation(NdRule.NEG_AND_E, r, (major, b1, b2), 1)
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_NEG_AND
    out = reduce_step(NdSystem.NC, d, at)
    assert out == b2


def test_detour_neg_or():
    inner = Derivation(NdRule.NEG_OR_I, Neg(Or(p, q)), (assumption(Neg(p)), assumption(Neg(q))))
    d = Derivation(NdRule.NEG_OR_E2, Neg(q), (inner,))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.DETOUR_NEG_OR
    assert reduce_step(NdSystem.NC, d, at) == assumption(Neg(q))


def test_perm_or_e():
    # and_E1 below or_E permutes into both branches
    major = assumption(Or(p, q))
    b1 = Derivation(NdRule.AND_I, And(p, p), (assumption(p, 1), assumption(p, 1)))
    b2 = assumption(And(p, p))
    node = Derivation(NdRule.OR_E, And(p, p), (major, b1, b2), 1)
    d = Derivation(NdRule.AND_E1, p, (node,))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.PERM_OR_E
    out = reduce_step(NdSystem.NC, d, at)
    assert out.rule is NdRule.OR_E
    assert out.formula == p
    assert out.premises[1].rule is NdRule.AND_E1
    assert out.premises[2].rule is NdRule.AND_E1
    rep = check_derivation(NdSystem.NC, out)
    assert rep.ok, rep.message()


def test_perm_em():
    goal = And(p, q)
    # vacuous (EM): neither branch uses its excluded-middle hypothesis
    b1 = assumption(goal)
    b2 = assumption(goal)
    node = Derivation(NdRule.EM, goal, (b1, b2), 1)
    d = Derivation(NdRule.AND_E2, q, (node,))
    at = first_max(d)
    assert classify(d, at) is ReductionKind.PERM_EM
    out = reduce_step(NdSystem.NC3, d, at)
    assert out.rule is NdRule.EM and out.formula == q
    assert check_derivation(NdSystem.NC3, out).ok


def test_reduce_rejects_non_maximum():
    d = Derivation(NdRule.AND_E1, p, (assumption(And(p, q)),))
    with pytest.raises(ValueError):
        reduce_step(NdSystem.NC, d, MaxOccurrence((0,), And(p, q)))


def test_normalize_by_reduction_step_limit():
    """max_steps=0 contracts nothing; a negative limit is refused."""
    d = Derivation(NdRule.AND_E1, p, (Derivation(NdRule.AND_I, And(p, q), (assumption(p), assumption(q))),))
    res = normalize_by_reduction(NdSystem.NC, d, max_steps=0)
    assert (res.derivation, res.steps, res.completed) == (d, 0, False)
    with pytest.raises(ValueError, match="must not be negative"):
        normalize_by_reduction(NdSystem.NC, d, max_steps=-1)


def test_normalize_by_reduction_random():
    rng = random.Random(31)
    for sys_id in NdSystem:
        for _ in range(20):
            base = rand_derivation(rng, sys_id, max_nodes=10)
            d = plant_detours(rng, sys_id, base, rng.randint(1, 3))
            assert not is_normal(d) or not maximum_formulas(d)
            res = normalize_by_reduction(sys_id, d, max_steps=10_000)
            assert res.completed, f"stuck after {res.steps} steps"
            assert is_normal(res.derivation)
            assert res.derivation.formula == d.formula
            assert open_assumptions(res.derivation) <= open_assumptions(d)
            rep = check_derivation(sys_id, res.derivation)
            assert rep.ok, rep.message()


def test_normalize_by_reduction_checks_each_step_once(monkeypatch):
    """The input is checked once and each contractum once: a step does not
    check again the derivation the previous step returned."""
    import connexive.natded
    import connexive.reduction

    calls = []
    real = connexive.natded.check_derivation

    def counting(sys_id, d):
        calls.append(d)
        return real(sys_id, d)

    monkeypatch.setattr(connexive.natded, "check_derivation", counting)
    monkeypatch.setattr(connexive.reduction, "check_derivation", counting)
    rng = random.Random(33)
    for sys_id in NdSystem:
        for _ in range(5):
            d = plant_detours(rng, sys_id, rand_derivation(rng, sys_id, max_nodes=10), 2)
            calls.clear()
            res = normalize_by_reduction(sys_id, d)
            assert res.completed and res.steps > 0
            assert len(calls) == 1 + res.steps


def test_reduction_preserves_end_formula_stepwise():
    rng = random.Random(32)
    for _ in range(30):
        base = rand_derivation(rng, NdSystem.NCN, max_nodes=8)
        d = plant_detours(rng, NdSystem.NCN, base, 2)
        while maximum_formulas(d):
            nxt = reduce_step(NdSystem.NCN, d, maximum_formulas(d)[0])
            assert nxt.formula == d.formula
            assert open_assumptions(nxt) <= open_assumptions(d)
            d = nxt
