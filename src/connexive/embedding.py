"""The negation-eliminating translation f into the positive language
over primed/unprimed atoms, and the embedding-check harness.

f maps the connexive language onto formulas without ~: atoms are fixed,
~p becomes the fresh atom p', f commutes with the positive connectives,
and negated compounds are unfolded by the de-Morgan-style clauses with
the connexive implication clause f(~(a -> b)) = f(a) -> f(~b).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import And, Formula, Imp, Neg, Or, Var, pending
from .prover import ProveResult, SearchConfig, decide
from .sequent import Calculus, Sequent, language_error


def translate_f(phi: Formula) -> Formula:
    """f: ~-free image of phi over the primed/unprimed atom language.
    Each subformula a gets the pair (f(a), f(~a)), parts first.  phi must
    be in the language of sc."""
    if (reason := language_error(Calculus.SC, (phi,))) is not None:
        raise ValueError(reason)
    image: dict[Formula, tuple[Formula, Formula]] = {}
    for a in reversed(pending(phi, lambda a: False)):
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
    return image[phi][0]


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
