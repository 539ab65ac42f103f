"""The negation-eliminating translation f into the positive language
over primed/unprimed atoms, and the embedding-check harness.

f maps the connexive language onto formulas without ~: atoms are fixed,
~p becomes the fresh atom p', f commutes with the positive connectives,
and negated compounds are unfolded by the de-Morgan-style clauses with
the connexive implication clause f(~(a -> b)) = f(a) -> f(~b).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import And, Formula, Imp, Neg, Or, Var, has_primed
from .prover import ProveResult, SearchConfig, decide
from .sequent import Calculus, Sequent


def translate_f(phi: Formula) -> Formula:
    """f: ~-free image of phi over the primed/unprimed atom language."""
    if has_primed(phi):
        raise ValueError("primed atom in embedding input")
    return _f(phi, {})


def _f(phi: Formula, memo: dict[Formula, Formula]) -> Formula:
    hit = memo.get(phi)
    if hit is not None:
        return hit
    if isinstance(phi, Var):
        out = phi
    elif isinstance(phi, And):
        out = And(_f(phi.left, memo), _f(phi.right, memo))
    elif isinstance(phi, Or):
        out = Or(_f(phi.left, memo), _f(phi.right, memo))
    elif isinstance(phi, Imp):
        out = Imp(_f(phi.left, memo), _f(phi.right, memo))
    else:
        out = _f_neg(phi.body, memo)
    memo[phi] = out
    return out


def _f_neg(body: Formula, memo: dict[Formula, Formula]) -> Formula:
    if isinstance(body, Var):
        return Var(body.name, True)
    if isinstance(body, Neg):
        return _f(body.body, memo)
    if isinstance(body, And):
        return Or(_f(Neg(body.left), memo), _f(Neg(body.right), memo))
    if isinstance(body, Or):
        return And(_f(Neg(body.left), memo), _f(Neg(body.right), memo))
    return Imp(_f(body.left, memo), _f(Neg(body.right), memo))


def translate_sequent(s: Sequent) -> Sequent:
    return Sequent(frozenset(translate_f(g) for g in s.ctx), translate_f(s.suc))


@dataclass(frozen=True)
class EmbedReport:
    source: ProveResult
    target: ProveResult
    target_sequent: Sequent

    @property
    def agree(self) -> bool:
        return self.source.verdict is self.target.verdict


def embed_check(s: Sequent, cfg: SearchConfig | None = None) -> EmbedReport:
    """decide(SMC, s) against decide(LJP_PEIRCE, f(s))."""
    image = translate_sequent(s)
    return EmbedReport(decide(Calculus.SMC, s, cfg), decide(Calculus.LJP_PEIRCE, image, cfg), image)


def embed_check_cn(s: Sequent, cfg: SearchConfig | None = None) -> EmbedReport:
    """Experimental: decide(SCN, s) against the positive target extended
    with excluded middle over matching primed/unprimed atom pairs."""
    image = translate_sequent(s)
    return EmbedReport(
        decide(Calculus.SCN, s, cfg), decide(Calculus.LJP_PEIRCE_PEM, image, cfg), image
    )
