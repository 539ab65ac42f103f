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
language check, the tables' masks, the universe and its sorted order.
The tables are built from the goal's atoms, and the universe only when
a search first builds a rule instance, so a goal whose root the tables
refute costs no closure.  Calculi of one language share the analysis:
separation_matrix analyses each row once for its calculi, and a starred
calculus hands its analysis to the unstarred search.  It holds only
what the goal determines, so sharing it moves no verdict, proof or node
count.  An always-on guard keeps every node's formulas in the universe:
the goal's formulas are checked when it is built, and then each rule
instance's added formulas and succedent, since a premise inherits the
rest from its node.

Every proof decide returns is certified by one walk, check_proof's fold
(_certify): its report says whether the proof is valid and cut-free,
and gives the depth and tree size that SearchStats reports, so nothing
walks the proof again.  Both failures raise explicitly, so they hold
under python -O.  A starred decide certifies twice: the unstarred
search's proof, inside the nested decide, and then the rewritten proof
it returns.

separation_matrix decides a row along the inclusions of the calculi's
rule sets: a proof in a calculus is one in every calculus with more
rules, and a negative holds in every calculus with fewer, so a row that
is unprovable throughout costs two searches and one that is provable
throughout costs one.  Each search it runs is an ordinary decide call.

Rule premises come from sequent.SCHEMAS, the table the checker reads;
the search only chooses which rules to try, by the shape of the formula
each decomposes.  Invertible rules are applied eagerly (one committed
instance per node); this is completeness-preserving because each such
rule's premises are interderivable with its conclusion via cut,
weakening, and identity, all admissible in every calculus here.

A premise is its node's context plus one or two formulas, so the search
makes each node cost what its premise adds.  The branch is an explicit
stack of frames (_Frame), one per expanded node.  Each frame carries its
context's truth mask: a premise's mask is its node's ANDed with the
truth masks of the formulas its rule adds, and it is computed only for a
premise that the proved, failed and history tables do not answer.  A
node that needs left rules takes its live left candidates, in key
order, from the nearest frame below that has them: adding formulas can
only drop a candidate, so only those whose premises meet the new
formulas are checked again, and the new formulas' candidates are merged
in.  (Peirce) principals are built once per succedent.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, replace
from enum import Enum
from functools import cached_property

from .checking import CheckReport, InvalidProof
from .formula import (
    And,
    Formula,
    Imp,
    Neg,
    Or,
    Var,
    closure,
    closure_set,
    key,
    pending,
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
    _identity,
    check_proof,
    fold,
    language_error,
    recurse,
    shape,
)


class Verdict(str, Enum):
    PROVABLE = "provable"
    UNPROVABLE = "unprovable"
    RESOURCE_EXCEEDED = "resource-exceeded"


@dataclass(frozen=True)
class SearchStats:
    """nodes_expanded and wall_time are the search's.  max_depth is the
    depth of the proof found, read off its certification (of the
    unstarred proof, for a starred calculus), or the deepest node
    expanded when there is none.  proof_size is the returned proof's
    size as a tree, from its certification, and 0 without a proof."""

    nodes_expanded: int
    max_depth: int
    wall_time: float
    proof_size: int = 0


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
        rep = _certify(calc, proof)
        return ProveResult(Verdict.PROVABLE, proof, replace(inner.stats, proof_size=rep.tree_size))

    t0 = time.perf_counter()
    search = _Search(calc, cfg, analysis)
    try:
        proof, _ = search.dfs(s, 0)
    except _BudgetExhausted:
        wall = time.perf_counter() - t0
        return ProveResult(
            Verdict.RESOURCE_EXCEEDED, None, SearchStats(search.nodes, search.max_depth, wall)
        )
    wall = time.perf_counter() - t0
    if proof is not None:
        rep = _certify(calc, proof)
        return ProveResult(
            Verdict.PROVABLE, proof, SearchStats(search.nodes, rep.depth, wall, rep.tree_size)
        )
    return ProveResult(Verdict.UNPROVABLE, None, SearchStats(search.nodes, search.max_depth, wall))


def _certify(calc: Calculus, proof: SequentProof) -> CheckReport:
    """The report of the one walk that certifies a proof decide returns:
    valid, and cut-free.  Both are explicit raises, so they hold under
    python -O.  check_proof is looked up here, in prover, where the
    benchmark's spans count it as certification."""
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)
    if not rep.cut_free:
        raise RuntimeError("proof search emitted a proof with cut")
    return rep


def _destar(proof: SequentProof) -> SequentProof:
    """Rewrite (Peirce) nodes as (g-ex-middle) nodes, closing the extra
    premise (alpha, Gamma => alpha) by generalized identity."""

    def combine(node: SequentProof, subs: list[SequentProof]) -> SequentProof:
        if node.rule is not Rule.PEIRCE:
            return SequentProof(node.conclusion, node.rule, node.principal, tuple(subs))
        # the proof was checked, so its formulas are in the language already
        alpha = node.conclusion.suc
        ident = recurse(_identity(alpha, node.conclusion.ctx - {alpha}))
        return SequentProof(node.conclusion, Rule.G_EX_MIDDLE, node.principal, (*subs, ident))

    return fold(proof, combine)


class _BudgetExhausted(Exception):
    pass


class Tables:
    """Bit-vector evaluation of the four-valued table semantics over all
    valuations of a fixed atom set.  Valuation v assigns atom i the truth
    bit (v >> 2i) & 1 and the falsity bit (v >> 2i+1) & 1; each formula
    gets a pair of masks with one bit per valuation."""

    def __init__(self, atoms_: list[Var]):
        self.index = {a: i for i, a in enumerate(sorted(atoms_, key=key))}
        n = len(self.index)
        self.nvals = 1 << (2 * n)
        self.full = (1 << self.nvals) - 1
        self._bit = [self._bit_mask(b) for b in range(2 * n)]
        self._memo: dict[Formula, tuple[int, int]] = {}
        self.allowed = self.full

    def restricted(self, require_t_or_f: bool, pem_pairs: bool) -> Tables:
        """These tables, masks and memo shared, with refutes limited to
        the valuations that the given restrictions allow: one calculus's
        view of tables that several calculi share."""
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
        view = object.__new__(Tables)
        view.__dict__.update(self.__dict__, allowed=allowed)
        return view

    def _bit_mask(self, b: int) -> int:
        half = 1 << b
        mask = ((1 << half) - 1) << half
        width = half << 1
        while width < self.nvals:
            mask |= mask << width
            width <<= 1
        return mask

    def tf(self, phi: Formula) -> tuple[int, int]:
        """The (truth, falsity) masks of phi, memoized for every
        subformula.  The subformulas not yet known are evaluated in the
        reverse of their pending() order, parts first."""
        memo = self._memo
        hit = memo.get(phi)
        if hit is not None:
            return hit
        for f in reversed(pending(phi, memo.__contains__)):
            if isinstance(f, Var):
                i = self.index[f]
                memo[f] = (self._bit[2 * i], self._bit[2 * i + 1])
            elif isinstance(f, Neg):
                t, fa = memo[f.body]
                memo[f] = (fa, t)
            else:
                (ta, fa), (tb, fb) = memo[f.left], memo[f.right]
                if isinstance(f, And):
                    memo[f] = (ta & tb, fa | fb)
                elif isinstance(f, Or):
                    memo[f] = (ta | tb, fa & fb)
                else:
                    nta = ~ta & self.full
                    memo[f] = (nta | tb, nta | fb)
        return memo[phi]

    def truth(self, ctx) -> int:
        """The allowed valuations that make every formula of ctx true."""
        m = self.allowed
        for phi in ctx:
            m &= self.tf(phi)[0]
        return m

    def refutes(self, s: Sequent, truth: int | None = None) -> bool:
        """Whether an allowed valuation makes s's context true and its
        succedent not true.  truth is self.truth(s.ctx) when the caller
        already has it: a search carries it from each node to its
        premises."""
        if truth is None:
            truth = self.truth(s.ctx)
        return bool(truth & ~self.tf(s.suc)[0] & self.full)


_NO_DEP = 1 << 60  # failure consulted no branch ancestor


class _Analysis:
    """What a search needs that depends only on the goal and its
    language: the language check, the Tables masks and memo, the
    universe and its sorted order.  Calculi with one universe share it,
    each with its own Tables.allowed.  The tables are built from the
    goal's atoms, so the universe waits until a search needs it."""

    def __init__(self, calc: Calculus, goal: Sequent):
        seen: dict[int, Formula] = {}
        reason = language_error(calc, (*goal.ctx, goal.suc), seen)
        if reason is not None:
            raise ValueError(reason)
        found = {f for f in seen.values() if type(f) is Var}
        if Rule.P_EX_MIDDLE in RULES_OF[calc]:
            # the primed partners that the universe adds
            found |= {Var(a.name, True) for a in found if not a.primed}
        self.calc, self.goal = calc, goal
        self.tables = Tables(list(found))

    @cached_property
    def universe(self) -> frozenset[Formula]:
        """The goal's closure, built when a search first builds a rule
        instance, so a goal whose root the tables refute never builds
        it.  The goal's own formulas are checked against it here, the
        root of _Search._emit's guard."""
        calc, goal = self.calc, self.goal
        universe = closure(goal, add_negations=calc in CONNEXIVE_CALCULI)
        if Rule.P_EX_MIDDLE in RULES_OF[calc]:
            extra = {Var(a.name, True) for a in universe if isinstance(a, Var) and not a.primed}
            universe = closure_set(universe | extra, add_negations=False)
        for f in (*goal.ctx, goal.suc):
            if not _covered(universe, f):
                raise RuntimeError(f"proof search left its universe: {show(f)}")
        return universe

    @cached_property
    def ordered(self) -> tuple[list[Formula], list[Var]]:
        """The universe sorted by key, and its unprimed atoms in that
        order: sorted once per goal, when a search first needs them."""
        uni = sorted(self.universe, key=key)
        return uni, [p for p in uni if isinstance(p, Var) and not p.primed]


def _covered(universe: frozenset[Formula], f: Formula) -> bool:
    """Universe membership modulo leading double negations: the universe
    truncates ~~~ chains because (neg left)/(neg right) peel them off
    immediately."""
    while isinstance(f, Neg) and isinstance(f.body, Neg) and f not in universe:
        f = f.body.body
    if f in universe:
        return True
    return isinstance(f, Imp) and f.left in universe and f.right in universe


def _live(cand, ctx: frozenset[Formula]) -> bool:
    """Whether a left candidate's instance keeps every premise apart
    from its node in a context ctx: no premise that keeps the node's
    succedent adds only formulas already in ctx."""
    for trigger in cand[4]:
        if trigger <= ctx:
            return False
    return True


class _Frame:
    """An expanded node on the search's branch: its sequent and depth,
    its context's truth mask, the nearest left candidates on the branch
    with their context (its own once it builds them), its instance
    iterator, the instance being tried with the premises proved so far,
    and the shallowest ancestor depth that its failed instances
    consulted."""

    __slots__ = ("s", "depth", "truth", "left", "instances", "inst", "built", "min_dep")

    def __init__(self, s: Sequent, depth: int, truth: int, left):
        self.s = s
        self.depth = depth
        self.truth = truth
        self.left = left
        self.min_dep = _NO_DEP


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
        # left candidates by principal; (Peirce) principals by succedent
        self._candidates: dict[Formula, tuple | None] = {}
        self._peirce: dict[Formula, list[Imp]] = {}

    def dfs(self, s: Sequent, depth: int) -> tuple[SequentProof | None, int]:
        """Searches s as a node at depth and returns (proof, dep), where
        dep is the shallowest branch depth of an ancestor whose presence
        on the branch influenced a failure; _NO_DEP for successes and
        absolute failures.

        The branch is a stack of frames, one per expanded node.  A node
        is visited as s or as the next premise of the top frame.  It is
        answered at once by the proved, failed and history tables, the
        table filter or an axiom, or else expanded and pushed.  An answer
        goes to the top frame, which then visits its next premise, tries
        its next instance, or pops and answers its own parent."""
        proved, failed, history = self.proved, self.failed, self.history
        tables = self.tables
        tf, refutes, budget = tables.tf, tables.refutes, self.cfg.node_budget
        stack: list[_Frame] = []
        top: _Frame | None = None  # the frame whose premise t is
        t, d, adds = s, depth, ()
        while True:
            # the three tables never share a sequent, so the most often
            # hit, history, is asked first
            sub, dep = None, history.get(t)
            if dep is None:
                sub, dep = proved.get(t), _NO_DEP
                if sub is None and t not in failed:
                    self.nodes += 1
                    if self.nodes > budget:
                        raise _BudgetExhausted
                    if d > self.max_depth:
                        self.max_depth = d
                    if top is None:
                        truth = tables.truth(t.ctx)
                    else:
                        truth = top.truth
                        for f in adds:
                            truth &= tf(f)[0]
                    if refutes(t, truth):
                        failed.add(t)
                    else:
                        ax = self._axiom(t)
                        if ax is not None:
                            sub = proved[t] = SequentProof(t, ax)
                        else:
                            history[t] = d
                            top = _Frame(t, d, truth, top and top.left)
                            top.instances = self._instances(top)
                            stack.append(top)
                            # a new frame goes on as if an instance had failed
            while top is not None:
                if sub is None:
                    if dep < top.min_dep:
                        top.min_dep = dep
                    inst = next(top.instances, None)
                    if inst is None:
                        stack.pop()
                        del history[top.s]
                        if top.min_dep >= top.depth:
                            failed.add(top.s)
                            dep = _NO_DEP
                        else:
                            dep = top.min_dep
                        top = stack[-1] if stack else None
                        continue
                    top.inst, top.built = inst, []
                else:
                    top.built.append(sub)
                rule, principal, specs = top.inst
                if len(top.built) < len(specs):
                    adds, g = specs[len(top.built)]
                    ctx = top.s.ctx
                    t, d = Sequent(ctx | frozenset(adds) if adds else ctx, g), top.depth + 1
                    break
                stack.pop()
                del history[top.s]
                sub = proved[top.s] = SequentProof(top.s, rule, principal, tuple(top.built))
                top = stack[-1] if stack else None
            else:
                return sub, dep

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

    def _instances(self, frame: _Frame):
        """The node's rule instances in search order, each (rule,
        principal, premise specs), with the node's full context retained
        in every premise (G3-style).  Instances with a premise equal to
        the node itself are dropped: any proof through such an instance
        contains a smaller proof of the node in that premise.  The first
        instance of an invertible rule is the only one tried.

        A node that commits a right rule never builds its left
        candidates.  Otherwise it builds them once (_left) and leaves them
        on its frame, for its premises to derive theirs from.  (Peirce)
        principals are built once per succedent, and those already in
        the context are skipped before any instance is built."""
        s = frame.s
        ctx, suc = s.ctx, s.suc
        rules, emit = self.rules, self._emit
        right_inv, right_choice = _RIGHT.get(shape(suc), _NO_RULES)
        for rule in right_inv:
            if rule in rules:
                inst = emit(s, rule, None)
                if inst is not None:
                    yield inst
                    return
        left = self._left(ctx, frame.left)
        frame.left = (ctx, left)
        for _, phi, rule, invertible, *_ in left:
            if invertible:
                inst = emit(s, rule, phi)
                if inst is not None:
                    yield inst
                    return
        for rule in right_choice:
            if rule in rules:
                inst = emit(s, rule, None)
                if inst is not None:
                    yield inst
        for _, phi, rule, invertible, *_ in left:
            if not invertible:
                inst = emit(s, rule, phi)
                if inst is not None:
                    yield inst
        if Rule.EX_MIDDLE in rules:
            # atomic instantiation only (at-ex-middle form)
            for p in self.analysis.ordered[1]:
                inst = emit(s, Rule.EX_MIDDLE, p)
                if inst is not None:
                    yield inst
        if Rule.PEIRCE in rules:
            # alpha is fixed by the goal succedent; beta ranges over the universe
            imps = self._peirce.get(suc)
            if imps is None:
                imps = self._peirce[suc] = [Imp(suc, beta) for beta in self.analysis.ordered[0]]
            for imp in imps:
                if imp not in ctx:
                    inst = emit(s, Rule.PEIRCE, imp)
                    if inst is not None:
                        yield inst
        if Rule.P_EX_MIDDLE in rules:
            for p in self.analysis.ordered[1]:
                inst = emit(s, Rule.P_EX_MIDDLE, p)
                if inst is not None:
                    yield inst

    def _candidate(self, phi: Formula):
        """phi's left candidate, (key, phi, rule, invertible, triggers,
        parts), or None when no left rule of the calculus decomposes phi.
        Each shape names one left rule (_LEFT).  The triggers are the
        context parts of the rule's premises that keep the node's
        succedent, read off the schema with no succedent, since a left
        rule passes it on untouched.  A context that includes a trigger
        drops the instance.  parts is the union of the triggers."""
        cand = self._candidates.get(phi, False)
        if cand is False:
            cand = None
            inv, choice = _LEFT.get(shape(phi), _NO_RULES)
            for rule in inv + choice:
                if rule in self.rules:
                    triggers = [frozenset(a) for a, g in SCHEMAS[rule](None, phi) if g is None]
                    cand = (key(phi), phi, rule, rule in inv, triggers, triggers[0].union(*triggers[1:]))
                    break
            self._candidates[phi] = cand
        return cand

    def _left(self, ctx: frozenset[Formula], base) -> list[tuple]:
        """The live left candidates of a node with context ctx, in key
        order.  base is the context and candidates of the nearest
        ancestor that built its own, or None at the first node of a
        branch that needs them, which builds them from ctx.  Adding
        formulas to a context can drop a candidate but never revive one,
        so only the candidates whose triggers meet the new formulas are
        checked again, and the new formulas' own candidates are merged
        in.  A list is never changed once built, so premises share it."""
        candidate = self._candidate
        if base is None:
            return sorted(c for c in map(candidate, ctx) if c is not None and _live(c, ctx))
        old_ctx, left = base
        new = ctx - old_ctx
        if not new:
            return left
        kept = [c for c in left if c[5].isdisjoint(new) or _live(c, ctx)]
        added = [c for c in map(candidate, new) if c is not None and _live(c, ctx)]
        return sorted(kept + added) if added else kept

    def _emit(self, s: Sequent, rule: Rule, principal: Formula | None):
        """The instance (rule, principal, premise specs) of rule at s, or
        None when a premise equals s.  A spec (a, g) from the schema table
        names the premise whose context is s's plus a and whose
        succedent is g.  dfs builds a premise only when it gets to it,
        and ANDs the truth masks of a into s's mask for a premise that it
        expands.  Left candidates and (Peirce) principals reach here only
        when no premise that keeps the succedent is already s.

        The guard, always on, keeps this invariant: every formula of every
        node is covered by the universe.  The root's formulas were checked
        when the universe was built, and a premise is s's context plus the
        formulas its spec adds, with the spec's succedent; so checking just
        those keeps it, and the first formula outside the universe raises
        at the instance that adds it."""
        ctx, suc = s.ctx, s.suc
        specs = SCHEMAS[rule](suc, principal)
        for a, g in specs:
            if g == suc and ctx.issuperset(a):
                return None
        universe = self.analysis.universe
        for a, g in specs:
            for f in (*a, g):
                if not _covered(universe, f):
                    raise RuntimeError(f"proof search left its universe: {show(f)}")
        return rule, principal, specs


def eliminate_cut(calc: Calculus, proof: SequentProof, cfg: SearchConfig | None = None) -> SequentProof:
    """Checker-valid cut-free proof of the same conclusion, by re-derivation.
    Already-cut-free input is returned unchanged: the check's report
    says whether it is, with no second walk."""
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)
    if rep.cut_free:
        return proof
    return _rederive(calc, proof.conclusion, cfg).proof


def _rederive(calc: Calculus, s: Sequent, cfg: SearchConfig | None) -> ProveResult:
    """decide's result on s, for a sequent the caller knows to be provable
    in calc: its proof is checked and cut-free, and its stats give the
    proof's tree size."""
    result = decide(calc, s, cfg)
    if result.verdict is Verdict.RESOURCE_EXCEEDED:
        raise ResourceExceeded(result.stats)
    if result.verdict is Verdict.UNPROVABLE:
        raise RuntimeError("cut admissibility violated: no cut-free re-derivation found")
    return result


_MATRIX_CALCULI = (Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN)
# the order separation_matrix decides a row's cells in: the calculus with
# the fewest rules, then the one with the most, then the two between
_MATRIX_ORDER = (Calculus.SC, Calculus.SCN, Calculus.SC3, Calculus.SMC)


@dataclass(frozen=True)
class MatrixRow:
    formula: Formula
    verdicts: tuple[Verdict, ...] = field(default=())

    def cells(self) -> dict[Calculus, Verdict]:
        return dict(zip(_MATRIX_CALCULI, self.verdicts))


def separation_matrix(formulas, cfg: SearchConfig | None = None) -> list[MatrixRow]:
    """decide verdict for each formula across sC, sC3, sMC, sCN.  The
    four calculi share one language and universe, so each row is analysed
    once (_Analysis).  The rows are decided along the inclusions of the
    calculi's rule sets: sC first, then sCN, then whichever of sC3 and
    sMC is still open.  A proof in one calculus is a proof in every
    calculus with more rules, and a definite negative holds in every
    calculus with fewer, so each definite verdict settles those cells
    without a search.  A row costs two searches if it is unprovable
    throughout, one if it is provable throughout, and at most four.
    Under a node budget, a cell whose own search would run out may
    instead be settled by another calculus's definite verdict; a
    resource-exceeded verdict settles nothing."""
    rows = []
    for phi in formulas:
        s = Sequent(frozenset(), phi)
        analysis = _Analysis(_MATRIX_CALCULI[0], s)
        cells: dict[Calculus, Verdict] = {}
        for c in _MATRIX_ORDER:
            if c in cells:
                continue
            verdict = cells[c] = decide(c, s, cfg, analysis).verdict
            for d in _MATRIX_CALCULI:
                if d not in cells and _settles(c, verdict, d):
                    cells[d] = verdict
        rows.append(MatrixRow(phi, tuple(cells[c] for c in _MATRIX_CALCULI)))
    return rows


def _settles(c: Calculus, verdict: Verdict, d: Calculus) -> bool:
    """Whether verdict in calculus c is also d's, read off the rule sets:
    a proof in c uses only rules of d when d has all of c's, and a search
    that fails in c fails in d when c has all of d's rules."""
    if verdict is Verdict.PROVABLE:
        return RULES_OF[c] <= RULES_OF[d]
    if verdict is Verdict.UNPROVABLE:
        return RULES_OF[d] <= RULES_OF[c]
    return False
