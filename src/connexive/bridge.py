"""Constructive translations between natural deduction and sequent
calculus, and the roundtrip normalizer.

Both translations work top-down and carry the assumptions in scope down
the tree, as the textbook translations do (Troelstra & Schwichtenberg,
Basic Proof Theory, 2nd ed., 3.3), so each node is built once.  Both
are written as recursions that sequent.recurse runs on its own stack, so
no depth of input overflows the interpreter's.  Neither has a rule table
of its own: each reads natded.SC_RULE, one way or the other, and builds
premises from the paired rule's sequent.SCHEMAS entry.

nd_to_sc proves oa(D) => end(D), and every subderivation from the
assumptions in scope at it: a discharging rule hands its premises that
context plus the formulas it discharges; an assumption becomes an
identity proof over the context; an introduction, EM or GEM becomes the
matching rule; an elimination becomes a cut against a left rule built
from identity leaves (the ∼-> case uses the displayed two-cut
composition), and the cut's context union lands on the context in scope.

sc_to_nd yields *normal* derivations.  It maps each context formula to
the derivation that stands for it: an open assumption at the root, a
labelled assumption above the rule that discharges it, and above a left
rule an elimination of the rule's principal.  Each of these is a chain
of eliminations over an assumption leaf, and every elimination built
takes one as its major premise, so no maximum formula can arise.
"""

from __future__ import annotations

from typing import Generator

from .checking import CheckReport, InvalidProof
from .formula import Formula, show
from .natded import (
    DISCHARGING_RULES,
    ELIM_RULES,
    INTRO_RULES,
    PAIRED_CALCULUS,
    SC_RULE,
    Derivation,
    NdRule,
    NdSystem,
    _ELIMS,
    _RECOVER,
    assumption,
    check_derivation,
    discharged_leaves,
    is_normal,
    open_assumptions,
    refresh_labels,
    require_valid,
)
from .prover import ResourceExceeded, SearchConfig, SearchStats, _rederive
from .sequent import (
    SCHEMAS,
    STARRED,
    Calculus,
    Rule,
    Sequent,
    SequentProof,
    _identity,
    check_proof,
    recurse,
    seq,
)

PAIRED_SYSTEM = {calc: sys_id for sys_id, calc in PAIRED_CALCULUS.items()}
# SC_RULE read backwards: a left rule whose eliminations conclude the
# formulas it adds maps to them in _ELIMS; every other rule to its one ND
# rule.
_ND_RULE = {sc: nd for nd, sc in SC_RULE.items() if sc not in _ELIMS}


# ---------------------------------------------------------------------------
# ND -> SC.

def nd_to_sc(sys_id: NdSystem, d: Derivation) -> SequentProof:
    require_valid(sys_id, d)
    calc = PAIRED_CALCULUS[sys_id]
    target = open_assumptions(d)
    proof = recurse(_to_sc(d, target, discharged_leaves(d)))
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)
    if proof.conclusion != Sequent(target, d.formula):
        raise RuntimeError(f"nd_to_sc concluded {proof.conclusion}, not {Sequent(target, d.formula)}")
    return proof


def _cut(p1: SequentProof, p2: SequentProof) -> SequentProof:
    """Cut p1 (proving the cut formula) against p2 (using it)."""
    cutf = p1.conclusion.suc
    ctx = p1.conclusion.ctx | (p2.conclusion.ctx - {cutf})
    return SequentProof(Sequent(ctx, p2.conclusion.suc), Rule.CUT, cutf, (p1, p2))


def _to_sc(d: Derivation, ctx: frozenset[Formula], discharged) -> Generator:
    """Proof of ctx => d.formula, where ctx holds the assumptions in scope
    at d; discharged is discharged_leaves of the whole derivation.  The
    paired calculi are all connexive, so _identity needs no language check."""
    r, g = d.rule, d.formula
    if r is NdRule.ASSUMPTION:
        return (yield _identity(g, ctx))
    rule = SC_RULE[r]
    if rule in _ELIMS:
        # a left rule over identity leaves; the major premise, then the
        # minor one of ->E and ∼->E, is cut in below it
        major, minors = d.premises[0].formula, d.premises[1:]
        leaves = []
        for added, s in SCHEMAS[rule](g, major):
            leaves.append((yield _identity(s, frozenset(added))))
        proof = SequentProof(seq([major, *(m.formula for m in minors)], g), rule, major, tuple(leaves))
        for prem in d.premises:
            proof = _cut((yield _to_sc(prem, ctx, discharged)), proof)
        return proof
    hyps = d.premises
    if r in INTRO_RULES:
        recover = _RECOVER.get(r)  # the principal of EM and GEM
        inst = None if recover is None else recover(*discharged.get(d.discharge, ((), ())))
    else:
        # or_E, neg_and_E: the minor premises are the left rule's premises
        inst, hyps = hyps[0].formula, hyps[1:]
    subs = []
    for h, (added, _) in zip(hyps, SCHEMAS[rule](g, inst)):
        subs.append((yield _to_sc(h, ctx.union(added), discharged)))
    if r in INTRO_RULES:
        return SequentProof(Sequent(ctx, g), rule, inst, tuple(subs))
    left = SequentProof(Sequent(ctx | {inst}, g), rule, inst, tuple(subs))
    return _cut((yield _to_sc(d.premises[0], ctx, discharged)), left)


# ---------------------------------------------------------------------------
# SC -> ND.

def sc_to_nd(calc: Calculus, p: SequentProof, cfg: SearchConfig | None = None) -> Derivation:
    """Normal derivation of a cut-free proof's conclusion in the paired ND
    system.  p is checked in calc first.  A proof in smc or scn, which may
    contain cuts, is then re-derived in the equivalent cut-free starred
    calculus, and that proof is translated; in any other calculus a proof
    with a cut raises InvalidProof.

    The translation runs from the root up, with the derivation that
    stands for each context formula; that derivation is copied, with
    fresh discharge labels, at each axiom and or_E/neg_and_E major premise
    that uses it.  cfg.node_budget bounds the proof search of the starred
    re-derivation and also the size of the cut-free proof as a tree: a
    proof whose tree expansion has more nodes raises ResourceExceeded, so
    normalize, which ends here, is bounded by it too."""
    if calc not in PAIRED_SYSTEM and calc not in STARRED:
        raise ValueError(f"unsupported calculus {calc.value}")
    rep = check_proof(calc, p)
    if not rep.ok:
        raise InvalidProof(rep)
    if calc in STARRED:
        calc = STARRED[calc]
        found = _rederive(calc, p.conclusion, cfg)
        return _sc_to_nd(calc, found.proof, found.stats.proof_size, cfg)
    if not rep.cut_free:
        raise InvalidProof(CheckReport(False, (), p.rule.value, "input proof contains cut"))
    return _sc_to_nd(calc, p, rep.tree_size, cfg)


def _sc_to_nd(calc: Calculus, p: SequentProof, size: int, cfg: SearchConfig | None) -> Derivation:
    """sc_to_nd of a checked cut-free proof p in a calculus of
    PAIRED_SYSTEM, whose size as a tree is size, without the input
    check: the output is still checked."""
    # ND derivations are trees: the translation walks the proof's tree
    # expansion, which sharing can make exponentially larger than the DAG
    budget = (cfg or SearchConfig()).node_budget
    if size > budget:
        raise ResourceExceeded(
            SearchStats(0, 0, 0.0),
            f"sc_to_nd: proof expands to {size} tree nodes, over the node budget of {budget}",
        )
    sys_id = PAIRED_SYSTEM[calc]
    d = recurse(_to_nd(p, {f: assumption(f) for f in p.conclusion.ctx}, [1]))
    rep = check_derivation(sys_id, d)
    if not rep.ok:
        raise InvalidProof(rep)
    _require_normal(d, p.conclusion.suc, p.conclusion.ctx)
    return d


def _require_normal(d: Derivation, end: Formula, ctx: frozenset[Formula]) -> None:
    """The contract of sc_to_nd, and so of normalize, checked even under -O."""
    if not is_normal(d):
        raise RuntimeError("derivation is not normal")
    if d.formula != end:
        raise RuntimeError(f"derivation ends in {show(d.formula)}, not {show(end)}")
    if not open_assumptions(d) <= ctx:
        raise RuntimeError("derivation has open assumptions outside the context")


def _copy(d: Derivation, counter: list[int]) -> Derivation:
    out, counter[0] = refresh_labels(d, counter[0])
    return out


def _to_nd(p: SequentProof, env: dict[Formula, Derivation], counter: list[int]) -> Generator:
    """Derivation of p's succedent from env[f] for each f in p's context.
    A value of env may sit raw inside another value; only where a value
    enters the derivation is it copied, so each use has its own labels."""
    r, g, phi = p.rule, p.conclusion.suc, p.principal
    if r is Rule.INIT1 or r is Rule.INIT2:
        return _copy(env[g], counter)
    specs = SCHEMAS[r](g, phi)
    if r in _ELIMS:
        # the first premise of -> and ∼-> left is the elimination's minor
        minors = [(yield _to_nd(p.premises[0], env, counter))] if len(p.premises) == 2 else []
        elims: dict[Formula, Derivation] = {}
        for f, rule in zip(specs[-1][0], _ELIMS[r]):
            # in p & p both components are one formula: the first rule derives it
            elims.setdefault(f, Derivation(rule, f, (env[phi], *minors)))
        return (yield _to_nd(p.premises[-1], {**env, **elims}, counter))
    rule = _ND_RULE[r]
    label = None
    if rule in DISCHARGING_RULES:
        label = counter[0]
        counter[0] += 1
    subs = []
    if rule not in INTRO_RULES:  # or_E, neg_and_E: the principal is the major premise
        subs.append(_copy(env[phi], counter))
    for q, (added, _) in zip(p.premises, specs):
        subs.append((yield _to_nd(q, {**env, **{a: assumption(a, label) for a in added}}, counter)))
    return Derivation(rule, g, tuple(subs), discharge=label)


# ---------------------------------------------------------------------------
# Roundtrip normalization.

def normalize(sys_id: NdSystem, d: Derivation, cfg: SearchConfig | None = None) -> Derivation:
    """Normal derivation with the same end formula and oa contained in
    oa(d), via translation, cut elimination, and translation back.

    Cut elimination re-derives the conclusion of the proof, the sequent
    oa(d) => end(d), so a d whose translation would contain a cut, as the
    translation of every elimination does, is not translated: the search
    proves oa(d) => end(d) cut-free directly.  An elimination-free d
    translates to a cut-free proof, which is used as it is.  d is checked
    once, on entry, and the result once, by the translation back."""
    require_valid(sys_id, d)
    calc = PAIRED_CALCULUS[sys_id]
    oa = open_assumptions(d)
    if _has_elimination(d):
        found = _rederive(calc, Sequent(oa, d.formula), cfg)
        return _sc_to_nd(calc, found.proof, found.stats.proof_size, cfg)
    # only an elimination translates to a cut, so this proof is cut-free
    proof = recurse(_to_sc(d, oa, discharged_leaves(d)))
    return _sc_to_nd(calc, proof, proof.node_count(), cfg)


def _has_elimination(d: Derivation) -> bool:
    stack = [d]
    while stack:
        n = stack.pop()
        if n.rule in ELIM_RULES:
            return True
        stack.extend(n.premises)
    return False
