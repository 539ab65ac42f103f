"""The negation-eliminating translation f into the positive language
over primed/unprimed atoms, the lift of positive proofs back into smc
and scn, and the embedding check.

f maps the connexive language onto formulas without ~: atoms are fixed,
~p becomes the fresh atom p', f commutes with the positive connectives,
and negated compounds are unfolded by the de-Morgan-style clauses with
the connexive implication clause f(~(a -> b)) = f(a) -> f(~b).

Through f, sc corresponds to ljp and smc to ljp-peirce (POSITIVE), and
sc3 and scn to the same calculi with the assumptions p | p', the images
of atomic excluded middle: a sequent s is provable in one of the four
exactly when positive_goal of it is provable in its positive calculus.
prover.decide decides this way the smc and scn goals that the connexive
search does not settle in its first nodes.  It searches positive_goal
in ljp-peirce, lifts the proof it finds into the goal's calculus (lift)
and certifies the lifted proof there, so a positive verdict rests on
the checker alone.  A negative rests on the correspondence and on the
positive search's completeness; embed_check compares it with the
connexive search in all four calculi.

The module imports only formula and sequent, so that prover can import
it; embed_check imports prover when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from .formula import And, Formula, Imp, Neg, Or, Var, key, pending, show
from .sequent import (
    RIGHT_RULES,
    RULES_OF,
    SCHEMAS,
    Calculus,
    Rule,
    Sequent,
    SequentProof,
    language_error,
    recurse,
    shape,
)

if TYPE_CHECKING:
    from .prover import ProveResult, SearchConfig


def translate_f(phi: Formula) -> Formula:
    """f: ~-free image of phi over the primed/unprimed atom language.
    phi must be in the language of sc."""
    if (reason := language_error(Calculus.SC, (phi,))) is not None:
        raise ValueError(reason)
    return _images(phi, {})[0]


def _images(phi: Formula, image: dict[Formula, tuple[Formula, Formula]]) -> tuple[Formula, Formula]:
    """The pair (f(phi), f(~phi)).  Each subformula a of phi gets its
    pair (f(a), f(~a)) in image, parts first, unless image has it."""
    hit = image.get(phi)
    if hit is not None:
        return hit
    for a in reversed(pending(phi, image.__contains__)):
        if isinstance(a, Var):
            image[a] = (a, Var(a.name, True))
        elif isinstance(a, Neg):
            pos, neg = image[a.body]
            image[a] = (neg, pos)
        else:
            (fl, fnl), (fr, fnr) = image[a.left], image[a.right]
            if isinstance(a, And):
                image[a] = (And(fl, fr), Or(fnl, fnr))
            elif isinstance(a, Or):
                image[a] = (Or(fl, fr), And(fnl, fnr))
            else:
                image[a] = (Imp(fl, fr), Imp(fl, fnr))
    return image[phi]


# the positive calculus that f embeds each connexive calculus of the
# matrix into: ljp-peirce when the calculus has (Peirce), else ljp
POSITIVE = {
    calc: Calculus.LJP_PEIRCE if Rule.PEIRCE in RULES_OF[calc] else Calculus.LJP
    for calc in (Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN)
}


def positive_goal(calc: Calculus, s: Sequent) -> Sequent:
    """The goal in POSITIVE[calc] that corresponds to s in calc: f(s),
    and when calc has ex_middle (sc3 and scn) also the assumption p | p'
    for each atom p such that p and p' both occur in f(s).  s must be in
    the connexive language.  For smc and scn, lift turns its proofs into
    proofs of s in calc.

    The assumption for an atom of which only p, or only p', occurs would
    be redundant.  Substituting p -> p for p' (or p' -> p' for p) in a
    proof that uses it gives a proof of the same sequent, since the atom
    occurs nowhere else, with p | (p -> p) (or p' | (p' -> p')) in its
    place.  That formula is provable, so a cut, which is admissible,
    removes it.  Leaving such assumptions out spares the positive search
    a split on each."""
    image: dict[Formula, tuple[Formula, Formula]] = {}
    ctx = {_images(a, image)[0] for a in s.ctx}
    suc = _images(s.suc, image)[0]
    if Rule.EX_MIDDLE in RULES_OF[calc]:
        seen: dict[int, Formula] = {}
        language_error(Calculus.LJP, (*ctx, suc), seen)
        found = {f for f in seen.values() if type(f) is Var}
        for a in found:
            primed = Var(a.name, True)
            if not a.primed and primed in found:
                ctx.add(Or(a, primed))
    return Sequent(frozenset(ctx), suc)


# The connexive rule that lifts a positive rule, by the shape of the
# formula the rule decomposes, read in the connexive goal: the succedent
# for a right rule and for init1, the principal for a left rule.
_LIFTED = {
    (Rule.INIT1, Var): Rule.INIT1,
    (Rule.INIT1, (Neg, Var)): Rule.INIT2,
    (Rule.IMP_RIGHT, Imp): Rule.IMP_RIGHT,
    (Rule.IMP_RIGHT, (Neg, Imp)): Rule.NEG_IMP_RIGHT,
    (Rule.AND_RIGHT, And): Rule.AND_RIGHT,
    (Rule.AND_RIGHT, (Neg, Or)): Rule.NEG_OR_RIGHT,
    (Rule.OR_RIGHT1, Or): Rule.OR_RIGHT1,
    (Rule.OR_RIGHT1, (Neg, And)): Rule.NEG_AND_RIGHT1,
    (Rule.OR_RIGHT2, Or): Rule.OR_RIGHT2,
    (Rule.OR_RIGHT2, (Neg, And)): Rule.NEG_AND_RIGHT2,
    (Rule.AND_LEFT, And): Rule.AND_LEFT,
    (Rule.AND_LEFT, (Neg, Or)): Rule.NEG_OR_LEFT,
    (Rule.OR_LEFT, Or): Rule.OR_LEFT,
    (Rule.OR_LEFT, (Neg, And)): Rule.NEG_AND_LEFT,
    (Rule.IMP_LEFT, Imp): Rule.IMP_LEFT,
    (Rule.IMP_LEFT, (Neg, Imp)): Rule.NEG_IMP_LEFT,
}


def lift(calc: Calculus, proof: SequentProof, goal: Sequent) -> SequentProof:
    """A cut-free proof of goal in calc, smc or scn, built from a cut-free
    ljp-peirce proof of positive_goal(calc, goal).  Nothing here is
    checked: decide certifies the result in calc.

    The walk goes from the root up.  It pairs each positive node with a
    connexive sequent Γ => C whose image f(Γ), with the assumptions, is
    the node's context, and f(C) its succedent:
    - a succedent ~~B gives neg_right, with Γ => B at the same node;
    - a left rule, and init1, read the formula they decompose in Γ: the
      first in key order of its preimages that is not a ~~ formula; when
      every preimage is one, neg_left peels one whose body is not yet in
      Γ, at the same node;
    - init1 on p gives init1, and on p' it gives init2 on ~p;
    - every other positive rule gives the connexive rule for the shape of
      the preimage, or of C for a right rule (_LIFTED);
    - peirce on f(C) -> b gives peirce on C -> b*, where b* reads each
      p' of b as ~p, so that f(b*) = b;
    - or_left on an assumption p | p' gives ex_middle on p.
    A lifted rule's premises are those of its schema, which pair in order
    with the positive rule's (ex_middle's first premise, which adds ~p,
    with or_left's second, which adds p').

    A ~~ preimage of least size has its body outside Γ, since that body
    would be a smaller ~~ preimage, so neg_left always finds one.  The
    walk runs on sequent.recurse, memoized on (positive node, Γ, C), so
    a positive subproof shared in one context is lifted once.  Every
    choice is made in key order, so the proof does not depend on the
    string hash seed."""
    image: dict[Formula, tuple[Formula, Formula]] = {}
    preimages: dict[Formula, list[Formula]] = {}  # f(a) -> each a met so far
    met: set[Formula] = set()
    starred: dict[Formula, Formula] = {}
    memo: dict[tuple, SequentProof] = {}

    def grow(ctx: frozenset[Formula], adds) -> frozenset[Formula]:
        for a in adds:
            if a not in met:
                met.add(a)
                preimages.setdefault(_images(a, image)[0], []).append(a)
        return ctx.union(adds)

    def star(beta: Formula) -> Formula:
        for b in reversed(pending(beta, starred.__contains__)):
            if type(b) is Var:
                starred[b] = Neg(Var(b.name)) if b.primed else b
            else:
                starred[b] = type(b)(starred[b.left], starred[b.right])
        return starred[beta]

    def up(node: SequentProof, ctx: frozenset[Formula], suc: Formula) -> Generator:
        k = (id(node), ctx, suc)
        out = memo.get(k)
        if out is not None:
            return out
        conclusion, rule, principal, premises = Sequent(ctx, suc), node.rule, None, node.premises
        if type(suc) is Neg and type(suc.body) is Neg:
            rule, premises = Rule.NEG_RIGHT, (node,)
        elif rule is Rule.PEIRCE:
            principal = Imp(suc, star(node.principal.right))
        elif rule in RIGHT_RULES:
            rule = _LIFTED[rule, shape(suc)]
        else:
            target = node.conclusion.suc if rule is Rule.INIT1 else node.principal
            found = [a for a in preimages.get(target, ()) if a in ctx]
            plain = [a for a in found if not (type(a) is Neg and type(a.body) is Neg)]
            if plain:
                principal = min(plain, key=key)
                rule = _LIFTED[rule, shape(principal)]
            elif found:
                rule, premises = Rule.NEG_LEFT, (node,)
                principal = min((a for a in found if a.body.body not in ctx), key=key)
            elif rule is Rule.OR_LEFT and _is_assumption(target):
                rule, principal, premises = Rule.EX_MIDDLE, target.left, premises[::-1]
            else:
                raise RuntimeError(f"lift: {show(target)} has no preimage in {conclusion}")
        if rule is Rule.INIT1 or rule is Rule.INIT2:
            out = SequentProof(conclusion, rule)
        else:
            subs = []
            for prem, (adds, g) in zip(premises, SCHEMAS[rule](suc, principal)):
                subs.append((yield up(prem, grow(ctx, adds), g)))
            out = SequentProof(conclusion, rule, principal, tuple(subs))
        memo[k] = out
        return out

    return recurse(up(proof, grow(frozenset(), goal.ctx), goal.suc))


def _is_assumption(phi: Formula) -> bool:
    """Whether phi is p | p' for an atom p: an assumption of
    positive_goal, or a formula equal to one."""
    p, q = (phi.left, phi.right) if type(phi) is Or else (None, None)
    return type(p) is Var and type(q) is Var and q.primed and not p.primed and p.name == q.name


@dataclass(frozen=True)
class EmbedReport:
    source: ProveResult
    target: ProveResult
    target_sequent: Sequent

    @property
    def agree(self) -> bool:
        return self.source.verdict is self.target.verdict


def embed_check(calc: Calculus, s: Sequent, cfg: SearchConfig | None = None) -> EmbedReport:
    """The connexive search's verdict on s in calc, one of sc, sc3, smc
    and scn, against the positive search's on positive_goal(calc, s) in
    POSITIVE[calc]."""
    from .prover import _native, decide

    image = positive_goal(calc, s)
    return EmbedReport(_native(calc, s, cfg), decide(POSITIVE[calc], image, cfg), image)
