"""Constructive translations between natural deduction and sequent
calculus, and the roundtrip normalizer.

nd_to_sc follows the inductive translation: assumptions become identity
proofs, eliminations become cuts against a left rule built from identity
leaves (the ∼-> case uses the displayed two-cut composition), discharging
rules become the matching right/structural rules, with weakening welding
the subproof contexts together.  The output proves a sequent whose
context is exactly oa(D); internally the invariant is containment, with
one final weakening.

sc_to_nd yields *normal* derivations: every elimination it builds has an
assumption leaf as major premise, and substituted subderivations are
always elimination-rooted, so no maximum formula can arise.
"""

from __future__ import annotations

from .checking import CheckReport, InvalidProof
from .formula import And, Formula, Imp, Neg, Or, Var, show
from .natded import (
    Derivation,
    NdRule,
    NdSystem,
    _em_alpha,
    _gem_witness,
    assumption,
    bind_open,
    check_derivation,
    discharge_labels,
    is_normal,
    open_assumptions,
    require_valid,
    subst_leaves,
)
from .prover import ResourceExceeded, SearchConfig, SearchStats, Verdict, decide, eliminate_cut
from .sequent import (
    Calculus,
    Rule,
    Sequent,
    SequentProof,
    _weaken,
    check_proof,
    identity_proof,
)

PAIRED_CALCULUS = {
    NdSystem.NC: Calculus.SC,
    NdSystem.NC3: Calculus.SC3,
    NdSystem.NMC: Calculus.SMC_STAR,
    NdSystem.NCN: Calculus.SCN_STAR,
}
PAIRED_SYSTEM = {calc: sys_id for sys_id, calc in PAIRED_CALCULUS.items()}


def _oa_rel(d: Derivation) -> frozenset[Formula]:
    """Assumption formulas open relative to d as a standalone tree: leaves
    whose label is not discharged within d count as open."""
    inner = discharge_labels(d)

    def go(n: Derivation):
        if n.rule is NdRule.ASSUMPTION:
            if n.label is None or n.label not in inner:
                yield n.formula
        for p in n.premises:
            yield from go(p)

    return frozenset(go(d))


# ---------------------------------------------------------------------------
# ND -> SC.

def nd_to_sc(sys_id: NdSystem, d: Derivation) -> SequentProof:
    require_valid(sys_id, d)
    calc = PAIRED_CALCULUS[sys_id]
    proof = _to_sc(calc, d)
    target = _oa_rel(d)
    proof = _weaken(proof, target - proof.conclusion.ctx)
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)
    if proof.conclusion != Sequent(target, d.formula):
        raise RuntimeError(f"nd_to_sc concluded {proof.conclusion}, not {Sequent(target, d.formula)}")
    return proof


def _seq(ctx, suc) -> Sequent:
    return Sequent(frozenset(ctx), suc)


def _cut(p1: SequentProof, p2: SequentProof) -> SequentProof:
    """Cut p1 (proving the cut formula) against p2 (using it)."""
    cutf = p1.conclusion.suc
    ctx = p1.conclusion.ctx | (p2.conclusion.ctx - {cutf})
    return SequentProof(_seq(ctx, p2.conclusion.suc), Rule.CUT, cutf, (p1, p2))


def _grow(p: SequentProof, ctx: frozenset[Formula]) -> SequentProof:
    return _weaken(p, ctx - p.conclusion.ctx)


def _to_sc(calc: Calculus, d: Derivation) -> SequentProof:
    r, g = d.rule, d.formula
    subs = [_to_sc(calc, p) for p in d.premises]

    if r is NdRule.ASSUMPTION:
        return identity_proof(calc, g)

    if r is NdRule.IMP_I or r is NdRule.NEG_IMP_I:
        inner = g.left if isinstance(g, Imp) else g.body.left
        rule = Rule.IMP_RIGHT if r is NdRule.IMP_I else Rule.NEG_IMP_RIGHT
        p1 = _grow(subs[0], frozenset({inner}))
        ctx = p1.conclusion.ctx - {inner}
        return SequentProof(_seq(ctx, g), rule, None, (p1,))

    if r is NdRule.IMP_E or r is NdRule.NEG_IMP_E:
        major = d.premises[0].formula
        if r is NdRule.IMP_E:
            a, b, rule = major.left, major.right, Rule.IMP_LEFT
        else:
            a, b, rule = major.body.left, Neg(major.body.right), Rule.NEG_IMP_LEFT
        left = SequentProof(
            _seq({major, a}, b), rule, major,
            (identity_proof(calc, a), identity_proof(calc, b)),
        )
        return _cut(subs[1], _cut(subs[0], left))

    if r is NdRule.AND_I:
        ctx = subs[0].conclusion.ctx | subs[1].conclusion.ctx
        return SequentProof(
            _seq(ctx, g), Rule.AND_RIGHT, None, (_grow(subs[0], ctx), _grow(subs[1], ctx))
        )

    if r in (NdRule.AND_E1, NdRule.AND_E2):
        major = d.premises[0].formula
        other = major.right if r is NdRule.AND_E1 else major.left
        left = SequentProof(
            _seq({major}, g), Rule.AND_LEFT, major, (identity_proof(calc, g, {other}),)
        )
        return _cut(subs[0], left)

    if r in (NdRule.OR_I1, NdRule.OR_I2):
        rule = Rule.OR_RIGHT1 if r is NdRule.OR_I1 else Rule.OR_RIGHT2
        return SequentProof(_seq(subs[0].conclusion.ctx, g), rule, None, (subs[0],))

    if r is NdRule.OR_E or r is NdRule.NEG_AND_E:
        major = d.premises[0].formula
        if r is NdRule.OR_E:
            a, b, rule = major.left, major.right, Rule.OR_LEFT
        else:
            a, b, rule = Neg(major.body.left), Neg(major.body.right), Rule.NEG_AND_LEFT
        delta = (
            (subs[1].conclusion.ctx - {a}) | (subs[2].conclusion.ctx - {b}) | {major}
        )
        node = SequentProof(
            _seq(delta, g), rule, major,
            (_grow(subs[1], delta | {a}), _grow(subs[2], delta | {b})),
        )
        return _cut(subs[0], node)

    if r is NdRule.NEGNEG_I:
        return SequentProof(_seq(subs[0].conclusion.ctx, g), Rule.NEG_RIGHT, None, (subs[0],))

    if r is NdRule.NEGNEG_E:
        major = Neg(Neg(g))
        left = SequentProof(
            _seq({major}, g), Rule.NEG_LEFT, major, (identity_proof(calc, g),)
        )
        return _cut(subs[0], left)

    if r in (NdRule.NEG_AND_I1, NdRule.NEG_AND_I2):
        rule = Rule.NEG_AND_RIGHT1 if r is NdRule.NEG_AND_I1 else Rule.NEG_AND_RIGHT2
        return SequentProof(_seq(subs[0].conclusion.ctx, g), rule, None, (subs[0],))

    if r is NdRule.NEG_OR_I:
        ctx = subs[0].conclusion.ctx | subs[1].conclusion.ctx
        return SequentProof(
            _seq(ctx, g), Rule.NEG_OR_RIGHT, None, (_grow(subs[0], ctx), _grow(subs[1], ctx))
        )

    if r in (NdRule.NEG_OR_E1, NdRule.NEG_OR_E2):
        major = d.premises[0].formula
        na, nb = Neg(major.body.left), Neg(major.body.right)
        mine, other = (na, nb) if r is NdRule.NEG_OR_E1 else (nb, na)
        left = SequentProof(
            _seq({major}, mine), Rule.NEG_OR_LEFT, major,
            (identity_proof(calc, mine, {other}),),
        )
        return _cut(subs[0], left)

    if r is NdRule.EM:
        alpha = _em_alpha(d)
        ctx = (subs[0].conclusion.ctx - {Neg(alpha)}) | (subs[1].conclusion.ctx - {alpha})
        return SequentProof(
            _seq(ctx, g), Rule.EX_MIDDLE, alpha,
            (_grow(subs[0], ctx | {Neg(alpha)}), _grow(subs[1], ctx | {alpha})),
        )

    if r is NdRule.GEM:
        wit = _gem_witness(d)
        ctx = (subs[0].conclusion.ctx - {wit}) | (subs[1].conclusion.ctx - {wit.left})
        return SequentProof(
            _seq(ctx, g), Rule.G_EX_MIDDLE, wit,
            (_grow(subs[0], ctx | {wit}), _grow(subs[1], ctx | {wit.left})),
        )

    raise AssertionError(f"unhandled rule {r.value}")


# ---------------------------------------------------------------------------
# SC -> ND.

_STARRED = {Calculus.SMC: Calculus.SMC_STAR, Calculus.SCN: Calculus.SCN_STAR}


def sc_to_nd(calc: Calculus, p: SequentProof, cfg: SearchConfig | None = None) -> Derivation:
    """Normal derivation of a cut-free proof's conclusion in the paired ND
    system.  cfg.node_budget bounds the proof search of the starred
    re-derivation and also the size of the cut-free proof as a tree:
    a proof whose tree expansion has more nodes raises ResourceExceeded,
    so normalize, which ends here, is bounded by it too."""
    if calc in _STARRED:
        # re-derive in the cut-free equivalent starred calculus first
        star = _STARRED[calc]
        result = decide(star, p.conclusion, cfg)
        if result.verdict is not Verdict.PROVABLE:
            raise RuntimeError(f"equivalent starred re-derivation failed: {result.verdict.value}")
        return sc_to_nd(star, result.proof, cfg)
    if calc not in PAIRED_SYSTEM:
        raise ValueError(f"unsupported calculus {calc.value}")
    rep = check_proof(calc, p)
    if not rep.ok:
        raise InvalidProof(rep)
    if not p.is_cut_free():
        raise ValueError("input proof contains cut")
    # ND derivations are trees: the translation walks the proof's tree
    # expansion, which sharing can make exponentially larger than the DAG
    budget = (cfg or SearchConfig()).node_budget
    size = p.node_count()
    if size > budget:
        raise ResourceExceeded(
            SearchStats(0, 0, 0.0),
            f"sc_to_nd: proof expands to {size} tree nodes, over the node budget of {budget}",
        )
    sys_id = PAIRED_SYSTEM[calc]
    counter = [1]
    d = _to_nd(p, counter)
    rep = check_derivation(sys_id, d)
    if not rep.ok:
        raise InvalidProof(rep)
    _require_normal(d, p.conclusion.suc, p.conclusion.ctx)
    return d


def _require_normal(d: Derivation, end: Formula, ctx: frozenset[Formula]) -> None:
    """The contract of sc_to_nd and normalize, checked even under -O."""
    if not is_normal(d):
        raise RuntimeError("derivation is not normal")
    if d.formula != end:
        raise RuntimeError(f"derivation ends in {show(d.formula)}, not {show(end)}")
    if not open_assumptions(d) <= ctx:
        raise RuntimeError("derivation has open assumptions outside the context")


def _open_leaf(phi: Formula):
    return lambda n: n.label is None and n.formula == phi


def _fresh(counter: list[int]) -> int:
    counter[0] += 1
    return counter[0] - 1


def _to_nd(p: SequentProof, counter: list[int]) -> Derivation:
    r = p.rule
    g = p.conclusion.suc
    phi = p.principal

    if r in (Rule.INIT1, Rule.INIT2):
        return assumption(g)

    if r is Rule.IMP_RIGHT or r is Rule.NEG_IMP_RIGHT:
        sub = _to_nd(p.premises[0], counter)
        inner = g.left if isinstance(g, Imp) else g.body.left
        rule = NdRule.IMP_I if r is Rule.IMP_RIGHT else NdRule.NEG_IMP_I
        l = _fresh(counter)
        return Derivation(rule, g, (bind_open(sub, inner, l),), discharge=l)

    if r is Rule.IMP_LEFT or r is Rule.NEG_IMP_LEFT:
        d1 = _to_nd(p.premises[0], counter)
        d2 = _to_nd(p.premises[1], counter)
        if r is Rule.IMP_LEFT:
            active, rule = phi.right, NdRule.IMP_E
        else:
            active, rule = Neg(phi.body.right), NdRule.NEG_IMP_E
        e = Derivation(rule, active, (assumption(phi), d1))
        out, counter[0] = subst_leaves(d2, _open_leaf(active), e, counter[0])
        return out

    if r is Rule.AND_RIGHT:
        d1 = _to_nd(p.premises[0], counter)
        d2 = _to_nd(p.premises[1], counter)
        return Derivation(NdRule.AND_I, g, (d1, d2))

    if r is Rule.AND_LEFT:
        d1 = _to_nd(p.premises[0], counter)
        e1 = Derivation(NdRule.AND_E1, phi.left, (assumption(phi),))
        e2 = Derivation(NdRule.AND_E2, phi.right, (assumption(phi),))
        d1, counter[0] = subst_leaves(d1, _open_leaf(phi.left), e1, counter[0])
        d1, counter[0] = subst_leaves(d1, _open_leaf(phi.right), e2, counter[0])
        return d1

    if r in (Rule.OR_RIGHT1, Rule.OR_RIGHT2):
        sub = _to_nd(p.premises[0], counter)
        rule = NdRule.OR_I1 if r is Rule.OR_RIGHT1 else NdRule.OR_I2
        return Derivation(rule, g, (sub,))

    if r is Rule.OR_LEFT or r is Rule.NEG_AND_LEFT:
        d1 = _to_nd(p.premises[0], counter)
        d2 = _to_nd(p.premises[1], counter)
        if r is Rule.OR_LEFT:
            a, b, rule = phi.left, phi.right, NdRule.OR_E
        else:
            a, b, rule = Neg(phi.body.left), Neg(phi.body.right), NdRule.NEG_AND_E
        l = _fresh(counter)
        return Derivation(
            rule, g, (assumption(phi), bind_open(d1, a, l), bind_open(d2, b, l)), discharge=l
        )

    if r is Rule.NEG_RIGHT:
        sub = _to_nd(p.premises[0], counter)
        return Derivation(NdRule.NEGNEG_I, g, (sub,))

    if r is Rule.NEG_LEFT:
        d1 = _to_nd(p.premises[0], counter)
        e = Derivation(NdRule.NEGNEG_E, phi.body.body, (assumption(phi),))
        out, counter[0] = subst_leaves(d1, _open_leaf(phi.body.body), e, counter[0])
        return out

    if r in (Rule.NEG_AND_RIGHT1, Rule.NEG_AND_RIGHT2):
        sub = _to_nd(p.premises[0], counter)
        rule = NdRule.NEG_AND_I1 if r is Rule.NEG_AND_RIGHT1 else NdRule.NEG_AND_I2
        return Derivation(rule, g, (sub,))

    if r is Rule.NEG_OR_RIGHT:
        d1 = _to_nd(p.premises[0], counter)
        d2 = _to_nd(p.premises[1], counter)
        return Derivation(NdRule.NEG_OR_I, g, (d1, d2))

    if r is Rule.NEG_OR_LEFT:
        d1 = _to_nd(p.premises[0], counter)
        na, nb = Neg(phi.body.left), Neg(phi.body.right)
        e1 = Derivation(NdRule.NEG_OR_E1, na, (assumption(phi),))
        e2 = Derivation(NdRule.NEG_OR_E2, nb, (assumption(phi),))
        d1, counter[0] = subst_leaves(d1, _open_leaf(na), e1, counter[0])
        d1, counter[0] = subst_leaves(d1, _open_leaf(nb), e2, counter[0])
        return d1

    if r is Rule.EX_MIDDLE:
        d1 = _to_nd(p.premises[0], counter)
        d2 = _to_nd(p.premises[1], counter)
        l = _fresh(counter)
        return Derivation(
            NdRule.EM, g, (bind_open(d1, Neg(phi), l), bind_open(d2, phi, l)), discharge=l
        )

    if r is Rule.G_EX_MIDDLE:
        d1 = _to_nd(p.premises[0], counter)
        d2 = _to_nd(p.premises[1], counter)
        l = _fresh(counter)
        return Derivation(
            NdRule.GEM, g, (bind_open(d1, phi, l), bind_open(d2, phi.left, l)), discharge=l
        )

    raise AssertionError(f"unhandled rule {r.value}")


# ---------------------------------------------------------------------------
# Roundtrip normalization.

def normalize(sys_id: NdSystem, d: Derivation, cfg: SearchConfig | None = None) -> Derivation:
    """Normal derivation with the same end formula and oa contained in
    oa(d), via translation, cut elimination, and translation back."""
    require_valid(sys_id, d)
    calc = PAIRED_CALCULUS[sys_id]
    proof = nd_to_sc(sys_id, d)
    cut_free = eliminate_cut(calc, proof, cfg)
    out = sc_to_nd(calc, cut_free, cfg)
    _require_normal(out, d.formula, open_assumptions(d))
    return out
