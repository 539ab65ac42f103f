"""Terminating cut-free backward proof search for every calculus, plus
cut elimination realized as re-derivation.

The decision procedure is a depth-first backward search with
branch-repetition pruning: a branch never revisits a sequent already on
it.  Minimal proofs never repeat a sequent along a branch (a repeat
could be spliced out), so pruning preserves completeness, and the
closure-bounded sequent space is finite, so the search halts on every
input and Unprovable is definitive.  Failures are cached when they are
branch-independent: if a subtree's failure consulted no ancestor strictly
above the node, the node is absolutely unprovable (a proof revisiting the
node could be spliced), so caching it is sound.  Nothing is cached
across decide calls: a verdict depends only on the calculus, the
sequent and the budget.

Search is additionally pruned by a sound countervaluation filter: a
four-valued table semantics (independent truth and falsity bits per
atom, connexive falsity condition for implication) validates every rule
of every calculus here, with the t-or-f restriction when (ex-middle) is
present, so any sequent refuted by some valuation is unprovable and its
subtree is skipped.  The filter only removes unprovable nodes, so
completeness is untouched; its rule-wise soundness is property-tested.

What no rule changes is computed once per goal (_Analysis): the
language check, the universe, its sorted order, and the tables' masks.
Calculi of one language share it: separation_matrix analyses each row
once for its four calculi, and a starred calculus hands its analysis to
the unstarred search.  It holds only what the goal determines, so
sharing it moves no verdict, proof or node count.  An always-on guard
keeps every node's formulas in the universe: the goal's formulas are
checked once, and then each rule instance's added formulas and
succedent, since a premise inherits the rest from its node.

Rule premises come from sequent.SCHEMAS, the table the checker reads;
the search only chooses which rules to try, by the shape of the formula
each decomposes.  Invertible rules are applied eagerly (one committed
instance per node); this is completeness-preserving because each such
rule's premises are interderivable with its conclusion via cut,
weakening, and identity, all admissible in every calculus here.
"""

from __future__ import annotations

import copy
import sys
import time
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

from .checking import InvalidProof
from .formula import (
    And,
    Formula,
    Imp,
    Neg,
    Or,
    Var,
    closure,
    closure_set,
    has_negation,
    has_primed,
    key,
    show,
)
from .sequent import (
    CONNEXIVE_CALCULI,
    RULES_OF,
    SCHEMAS,
    STARRED,
    Calculus,
    Rule,
    Sequent,
    SequentProof,
    check_proof,
    fold,
    identity_proof,
    shape,
)


class Verdict(str, Enum):
    PROVABLE = "provable"
    UNPROVABLE = "unprovable"
    RESOURCE_EXCEEDED = "resource-exceeded"


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    max_depth: int
    wall_time: float


@dataclass(frozen=True)
class ProveResult:
    verdict: Verdict
    proof: SequentProof | None
    stats: SearchStats

    def __bool__(self) -> bool:
        return self.verdict is Verdict.PROVABLE


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int = 5_000_000
    # accepted and ignored: perfbench/workloads.py still passes memo=False,
    # and the keyword goes once the benchmark stops passing it
    memo: InitVar[bool] = True

    def __post_init__(self, memo: bool):
        if self.node_budget <= 0:
            raise ValueError("node_budget must be positive")


class ResourceExceeded(RuntimeError):
    def __init__(self, stats: SearchStats, message: str | None = None):
        super().__init__(message or f"node budget exhausted after {stats.nodes_expanded} expansions")
        self.stats = stats


# starred calculi are decided through their unstarred equivalents, then
# the (Peirce) nodes are rewritten into (g-ex-middle) nodes
_UNSTAR = {star: calc for calc, star in STARRED.items()}

# candidate rules by the shape of the formula they decompose, the
# succedent (right) or a context formula (left), as (invertible rules,
# committed eagerly; choices, each tried in turn)
_RIGHT = {
    And: ((Rule.AND_RIGHT,), ()),
    Or: ((), (Rule.OR_RIGHT1, Rule.OR_RIGHT2)),
    Imp: ((Rule.IMP_RIGHT,), ()),
    (Neg, Neg): ((Rule.NEG_RIGHT,), ()),
    (Neg, And): ((), (Rule.NEG_AND_RIGHT1, Rule.NEG_AND_RIGHT2)),
    (Neg, Or): ((Rule.NEG_OR_RIGHT,), ()),
    (Neg, Imp): ((Rule.NEG_IMP_RIGHT,), ()),
}
_LEFT = {
    And: ((Rule.AND_LEFT,), ()),
    Or: ((Rule.OR_LEFT,), ()),
    Imp: ((), (Rule.IMP_LEFT,)),
    (Neg, Neg): ((Rule.NEG_LEFT,), ()),
    (Neg, And): ((Rule.NEG_AND_LEFT,), ()),
    (Neg, Or): ((Rule.NEG_OR_LEFT,), ()),
    (Neg, Imp): ((), (Rule.NEG_IMP_LEFT,)),
}
_NO_RULES = ((), ())


def decide(
    calc: Calculus, s: Sequent, cfg: SearchConfig | None = None, _analysis: _Analysis | None = None
) -> ProveResult:
    """The verdict on s in calc, with a checked cut-free proof when it is
    provable.  _analysis is private to this module: separation_matrix and
    a starred decide pass the analysis of s that they already hold."""
    cfg = cfg or SearchConfig()
    analysis = _analysis or _Analysis(calc, s)
    if calc in _UNSTAR:
        inner = decide(_UNSTAR[calc], s, cfg, analysis)
        if inner.verdict is not Verdict.PROVABLE:
            return inner
        proof = _destar(inner.proof)
        rep = check_proof(calc, proof)
        if not rep.ok:
            raise InvalidProof(rep)
        return ProveResult(Verdict.PROVABLE, proof, inner.stats)

    t0 = time.perf_counter()
    search = _Search(calc, cfg, analysis)
    limit = sys.getrecursionlimit()
    if limit < 100_000:
        sys.setrecursionlimit(100_000)  # dfs recurses once per branch level
    try:
        proof, _ = search.dfs(s, 0)
    except _BudgetExhausted:
        wall = time.perf_counter() - t0
        return ProveResult(
            Verdict.RESOURCE_EXCEEDED, None, SearchStats(search.nodes, search.max_depth, wall)
        )
    finally:
        sys.setrecursionlimit(limit)  # the caller's limit, whatever the search did
    wall = time.perf_counter() - t0
    if proof is not None:
        rep = check_proof(calc, proof)
        if not rep.ok:
            raise InvalidProof(rep)
        if not proof.is_cut_free():
            raise RuntimeError("proof search emitted a proof with cut")
        return ProveResult(
            Verdict.PROVABLE, proof, SearchStats(search.nodes, proof.depth(), wall)
        )
    return ProveResult(Verdict.UNPROVABLE, None, SearchStats(search.nodes, search.max_depth, wall))


def _destar(proof: SequentProof) -> SequentProof:
    """Rewrite (Peirce) nodes as (g-ex-middle) nodes, closing the extra
    premise (alpha, Gamma => alpha) by generalized identity."""

    def combine(node: SequentProof, subs: list[SequentProof]) -> SequentProof:
        if node.rule is not Rule.PEIRCE:
            return SequentProof(node.conclusion, node.rule, node.principal, tuple(subs))
        alpha = node.conclusion.suc
        ident = identity_proof(Calculus.SMC_STAR, alpha, node.conclusion.ctx - {alpha})
        return SequentProof(node.conclusion, Rule.G_EX_MIDDLE, node.principal, (*subs, ident))

    return fold(proof, combine)


class _BudgetExhausted(Exception):
    pass


class Tables:
    """Bit-vector evaluation of the four-valued table semantics over all
    valuations of a fixed atom set.  Valuation v assigns atom i the truth
    bit (v >> 2i) & 1 and the falsity bit (v >> 2i+1) & 1; each formula
    gets a pair of masks with one bit per valuation."""

    def __init__(self, atoms_: list[Var], require_t_or_f: bool = False, pem_pairs: bool = False):
        self.index = {a: i for i, a in enumerate(sorted(atoms_, key=key))}
        n = len(self.index)
        self.nvals = 1 << (2 * n)
        self.full = (1 << self.nvals) - 1
        self._bit = [self._bit_mask(b) for b in range(2 * n)]
        self._memo: dict[Formula, tuple[int, int]] = {}
        self.allowed = self._allowed(require_t_or_f, pem_pairs)

    def restricted(self, require_t_or_f: bool, pem_pairs: bool) -> Tables:
        """These tables, masks and memo shared, with refutes limited to
        the valuations that the given restrictions allow: one calculus's
        view of tables that several calculi share."""
        view = copy.copy(self)
        view.allowed = self._allowed(require_t_or_f, pem_pairs)
        return view

    def _allowed(self, require_t_or_f: bool, pem_pairs: bool) -> int:
        allowed = self.full
        if require_t_or_f:
            for i in range(len(self.index)):
                allowed &= self._bit[2 * i] | self._bit[2 * i + 1]
        if pem_pairs:
            for a, i in self.index.items():
                if not a.primed:
                    j = self.index.get(Var(a.name, True))
                    if j is not None:
                        allowed &= self._bit[2 * i] | self._bit[2 * j]
        return allowed

    def _bit_mask(self, b: int) -> int:
        half = 1 << b
        mask = ((1 << half) - 1) << half
        width = half << 1
        while width < self.nvals:
            mask |= mask << width
            width <<= 1
        return mask

    def tf(self, phi: Formula) -> tuple[int, int]:
        hit = self._memo.get(phi)
        if hit is not None:
            return hit
        if isinstance(phi, Var):
            i = self.index[phi]
            out = (self._bit[2 * i], self._bit[2 * i + 1])
        elif isinstance(phi, Neg):
            t, f = self.tf(phi.body)
            out = (f, t)
        elif isinstance(phi, And):
            ta, fa = self.tf(phi.left)
            tb, fb = self.tf(phi.right)
            out = (ta & tb, fa | fb)
        elif isinstance(phi, Or):
            ta, fa = self.tf(phi.left)
            tb, fb = self.tf(phi.right)
            out = (ta | tb, fa & fb)
        else:
            ta, _ = self.tf(phi.left)
            tb, fb = self.tf(phi.right)
            nta = ~ta & self.full
            out = (nta | tb, nta | fb)
        self._memo[phi] = out
        return out

    def refutes(self, s: Sequent) -> bool:
        m = self.allowed
        for phi in s.ctx:
            m &= self.tf(phi)[0]
            if not m:
                return False
        return bool(m & ~self.tf(s.suc)[0] & self.full)


_NO_DEP = 1 << 60  # failure consulted no branch ancestor


class _Analysis:
    """What a search needs that depends only on the goal and its
    language: the language check, the universe, its sorted order, and
    the Tables masks and memo.  It also checks the goal's own formulas
    against the universe, the root of _Search._emit's guard.  Calculi
    with one universe share it, each with its own Tables.allowed."""

    def __init__(self, calc: Calculus, goal: Sequent):
        formulas = (*goal.ctx, goal.suc)
        if calc in CONNEXIVE_CALCULI:
            if any(has_primed(f) for f in formulas):
                raise ValueError("primed atoms belong to the positive language only")
        elif any(has_negation(f) for f in formulas):
            raise ValueError(f"connexive negation is outside the language of {calc.value}")
        self.universe = _Search._build_universe(calc, goal)
        for f in formulas:
            if not self.covered(f):
                raise RuntimeError(f"proof search left its universe: {show(f)}")
        self.tables = Tables([a for a in self.universe if isinstance(a, Var)])

    @cached_property
    def ordered(self) -> tuple[list[Formula], list[Var]]:
        """The universe sorted by key, and its unprimed atoms in that
        order: sorted once per goal, when a search first needs them."""
        uni = sorted(self.universe, key=key)
        return uni, [p for p in uni if isinstance(p, Var) and not p.primed]

    def covered(self, f: Formula) -> bool:
        """Universe membership modulo leading double negations: the
        universe truncates ~~~ chains because (neg left)/(neg right)
        peel them off immediately."""
        while isinstance(f, Neg) and isinstance(f.body, Neg) and f not in self.universe:
            f = f.body.body
        if f in self.universe:
            return True
        return isinstance(f, Imp) and f.left in self.universe and f.right in self.universe


class _Search:
    def __init__(self, calc: Calculus, cfg: SearchConfig, analysis: _Analysis):
        self.rules = RULES_OF[calc]
        self.cfg = cfg
        self.analysis = analysis
        self.tables = analysis.tables.restricted(
            require_t_or_f=Rule.EX_MIDDLE in self.rules,
            pem_pairs=Rule.P_EX_MIDDLE in self.rules,
        )
        self.proved: dict[Sequent, SequentProof] = {}
        self.failed: set[Sequent] = set()
        self.history: dict[Sequent, int] = {}
        self.nodes = 0
        self.max_depth = 0

    @staticmethod
    def _build_universe(calc: Calculus, goal: Sequent) -> frozenset[Formula]:
        uni = closure(goal, add_negations=calc in CONNEXIVE_CALCULI)
        if Rule.P_EX_MIDDLE in RULES_OF[calc]:
            extra = {Var(a.name, True) for a in uni if isinstance(a, Var) and not a.primed}
            uni = closure_set(uni | extra, add_negations=False)
        return uni

    def dfs(self, s: Sequent, depth: int) -> tuple[SequentProof | None, int]:
        """Returns (proof, dep) where dep is the shallowest branch depth
        of an ancestor whose presence on the branch influenced a failure;
        _NO_DEP for successes and absolute failures."""
        hit = self.proved.get(s)
        if hit is not None:
            return hit, _NO_DEP
        if s in self.failed:
            return None, _NO_DEP
        prior = self.history.get(s)
        if prior is not None:
            return None, prior
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise _BudgetExhausted
        self.max_depth = max(self.max_depth, depth)
        if self.tables.refutes(s):
            self.failed.add(s)
            return None, _NO_DEP
        ax = self._axiom(s)
        if ax is not None:
            proof = SequentProof(s, ax)
            self.proved[s] = proof
            return proof, _NO_DEP
        self.history[s] = depth
        min_dep = _NO_DEP
        try:
            for rule, principal, prems in self._instances(s):
                built: list[SequentProof] = []
                inst_dep = _NO_DEP
                for p in prems:
                    sub, dep = self.dfs(p, depth + 1)
                    if sub is None:
                        inst_dep = dep
                        break
                    built.append(sub)
                else:
                    proof = SequentProof(s, rule, principal, tuple(built))
                    self.proved[s] = proof
                    return proof, _NO_DEP
                min_dep = min(min_dep, inst_dep)
        finally:
            del self.history[s]
        if min_dep >= depth:
            self.failed.add(s)
            return None, _NO_DEP
        return None, min_dep

    def _axiom(self, s: Sequent) -> Rule | None:
        g = s.suc
        if isinstance(g, Var) and g in s.ctx:
            return Rule.INIT1
        if (
            Rule.INIT2 in self.rules
            and isinstance(g, Neg)
            and isinstance(g.body, Var)
            and g in s.ctx
        ):
            return Rule.INIT2
        return None

    def _instances(self, s: Sequent):
        """All rule instances with the node's full context retained in
        every premise (G3-style).  Instances with a premise equal to the
        node itself are dropped: any proof through such an instance
        contains a smaller proof of the node in that premise.  The first
        instance of an invertible rule is the only one tried."""
        right_inv, right_choice = _RIGHT.get(shape(s.suc), _NO_RULES)
        first = next(self._apply(s, [(right_inv, None)]), None)
        if first is None:
            left = [(_LEFT.get(shape(phi), _NO_RULES), phi) for phi in sorted(s.ctx, key=key)]
            first = next(self._apply(s, [(inv, phi) for (inv, _), phi in left]), None)
        if first is not None:
            yield first
            return
        yield from self._apply(s, [(right_choice, None)] + [(choice, phi) for (_, choice), phi in left])
        if Rule.EX_MIDDLE in self.rules:
            # atomic instantiation only (at-ex-middle form)
            yield from self._apply(s, (((Rule.EX_MIDDLE,), p) for p in self.analysis.ordered[1]))
        if Rule.PEIRCE in self.rules:
            # alpha is fixed by the goal succedent; beta ranges over the universe
            yield from self._apply(s, (((Rule.PEIRCE,), Imp(s.suc, beta)) for beta in self.analysis.ordered[0]))
        if Rule.P_EX_MIDDLE in self.rules:
            yield from self._apply(s, (((Rule.P_EX_MIDDLE,), p) for p in self.analysis.ordered[1]))

    def _apply(self, s: Sequent, candidates):
        """Instances of the calculus's rules among candidates, pairs of
        (rules, principal), built from the schema table."""
        for rules, principal in candidates:
            for rule in rules:
                if rule in self.rules:
                    inst = self._emit(s, rule, principal, SCHEMAS[rule](s.suc, principal))
                    if inst is not None:
                        yield inst

    def _emit(self, s, rule, principal, prem_specs):
        """The instance (rule, principal, premises) that prem_specs give at
        s, or None when a premise equals s.

        The guard, always on, keeps this invariant: every formula of every
        node is covered by the universe.  The root's formulas were checked
        when the analysis was built, and a premise is s's context plus the
        formulas its spec adds, with the spec's succedent; so checking just
        those keeps it, and the first formula outside the universe raises
        at the instance that adds it."""
        ctx, suc = s.ctx, s.suc
        if any(g == suc and ctx.issuperset(a) for a, g in prem_specs):
            return None
        covered = self.analysis.covered
        for a, g in prem_specs:
            for f in (*a, g):
                if not covered(f):
                    raise RuntimeError(f"proof search left its universe: {show(f)}")
        return rule, principal, tuple(Sequent(ctx | frozenset(a) if a else ctx, g) for a, g in prem_specs)


def eliminate_cut(calc: Calculus, proof: SequentProof, cfg: SearchConfig | None = None) -> SequentProof:
    """Checker-valid cut-free proof of the same conclusion, by re-derivation.
    Already-cut-free input is returned unchanged."""
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)
    if proof.is_cut_free():
        return proof
    return _rederive(calc, proof.conclusion, cfg)


def _rederive(calc: Calculus, s: Sequent, cfg: SearchConfig | None) -> SequentProof:
    """The cut-free proof of s that decide finds, for a sequent the caller
    knows to be provable in calc: decide has checked it."""
    result = decide(calc, s, cfg)
    if result.verdict is Verdict.RESOURCE_EXCEEDED:
        raise ResourceExceeded(result.stats)
    if result.verdict is Verdict.UNPROVABLE:
        raise RuntimeError("cut admissibility violated: no cut-free re-derivation found")
    return result.proof


_MATRIX_CALCULI = (Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN)


@dataclass(frozen=True)
class MatrixRow:
    formula: Formula
    verdicts: tuple[Verdict, ...] = field(default=())

    def cells(self) -> dict[Calculus, Verdict]:
        return dict(zip(_MATRIX_CALCULI, self.verdicts))


def separation_matrix(formulas, cfg: SearchConfig | None = None) -> list[MatrixRow]:
    """decide verdict for each formula across sC, sC3, sMC, sCN.  The
    four calculi share one language and universe, so each row is analysed
    once (_Analysis) and searched four times."""
    rows = []
    for phi in formulas:
        s = Sequent(frozenset(), phi)
        analysis = _Analysis(_MATRIX_CALCULI[0], s)
        verdicts = tuple(decide(c, s, cfg, analysis).verdict for c in _MATRIX_CALCULI)
        rows.append(MatrixRow(phi, verdicts))
    return rows
