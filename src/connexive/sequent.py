"""Sequents, rule-annotated sequent proofs, per-calculus rule tables and
languages, the rule schemas, the proof checker, constructive weakening,
and generalized identity.

SCHEMAS is the one definition of the rules other than the two axioms:
for each rule it builds the premises from the succedent and the
principal formula.  The checker here and the proof search in prover
both read it, so a rule cannot be searched one way and checked another.
natded pairs each natural-deduction rule with a rule here (SC_RULE), so
the derivation checker and both bridge translations read it too.

Contexts are finite *sets*; the checker validates each node's context
against the set equation its rule schema determines, so contraction and
exchange are invisible and G3-style instances (full context retained in
both premises of the splitting rules) check directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator, Iterable, NamedTuple, TypeVar

from .checking import CheckReport, InvalidProof, json_field, json_list
from .formula import And, Formula, Imp, Neg, Or, Var, key, parse, show


class Calculus(str, Enum):
    LJP = "ljp"
    LJP_PEIRCE = "ljp-peirce"
    SC = "sc"
    SC3 = "sc3"
    SMC = "smc"
    SCN = "scn"
    SMC_STAR = "smc-star"
    SCN_STAR = "scn-star"


class Rule(str, Enum):
    INIT1 = "init1"
    INIT2 = "init2"
    CUT = "cut"
    IMP_LEFT = "imp_left"
    IMP_RIGHT = "imp_right"
    AND_LEFT = "and_left"
    AND_RIGHT = "and_right"
    OR_LEFT = "or_left"
    OR_RIGHT1 = "or_right1"
    OR_RIGHT2 = "or_right2"
    NEG_LEFT = "neg_left"
    NEG_RIGHT = "neg_right"
    NEG_IMP_LEFT = "neg_imp_left"
    NEG_IMP_RIGHT = "neg_imp_right"
    NEG_AND_LEFT = "neg_and_left"
    NEG_AND_RIGHT1 = "neg_and_right1"
    NEG_AND_RIGHT2 = "neg_and_right2"
    NEG_OR_LEFT = "neg_or_left"
    NEG_OR_RIGHT = "neg_or_right"
    EX_MIDDLE = "ex_middle"
    PEIRCE = "peirce"
    G_EX_MIDDLE = "g_ex_middle"


ARITY = {
    Rule.INIT1: 0,
    Rule.INIT2: 0,
    Rule.CUT: 2,
    Rule.IMP_LEFT: 2,
    Rule.IMP_RIGHT: 1,
    Rule.AND_LEFT: 1,
    Rule.AND_RIGHT: 2,
    Rule.OR_LEFT: 2,
    Rule.OR_RIGHT1: 1,
    Rule.OR_RIGHT2: 1,
    Rule.NEG_LEFT: 1,
    Rule.NEG_RIGHT: 1,
    Rule.NEG_IMP_LEFT: 2,
    Rule.NEG_IMP_RIGHT: 1,
    Rule.NEG_AND_LEFT: 2,
    Rule.NEG_AND_RIGHT1: 1,
    Rule.NEG_AND_RIGHT2: 1,
    Rule.NEG_OR_LEFT: 1,
    Rule.NEG_OR_RIGHT: 2,
    Rule.EX_MIDDLE: 2,
    Rule.PEIRCE: 1,
    Rule.G_EX_MIDDLE: 2,
}

_LJP_RULES = frozenset(
    {
        Rule.INIT1,
        Rule.CUT,
        Rule.IMP_LEFT,
        Rule.IMP_RIGHT,
        Rule.AND_LEFT,
        Rule.AND_RIGHT,
        Rule.OR_LEFT,
        Rule.OR_RIGHT1,
        Rule.OR_RIGHT2,
    }
)
_SC_RULES = _LJP_RULES | {
    Rule.INIT2,
    Rule.NEG_LEFT,
    Rule.NEG_RIGHT,
    Rule.NEG_IMP_LEFT,
    Rule.NEG_IMP_RIGHT,
    Rule.NEG_AND_LEFT,
    Rule.NEG_AND_RIGHT1,
    Rule.NEG_AND_RIGHT2,
    Rule.NEG_OR_LEFT,
    Rule.NEG_OR_RIGHT,
}

RULES_OF = {
    Calculus.LJP: _LJP_RULES,
    Calculus.LJP_PEIRCE: _LJP_RULES | {Rule.PEIRCE},
    Calculus.SC: _SC_RULES,
    Calculus.SC3: _SC_RULES | {Rule.EX_MIDDLE},
    Calculus.SMC: _SC_RULES | {Rule.PEIRCE},
    Calculus.SCN: _SC_RULES | {Rule.EX_MIDDLE, Rule.PEIRCE},
    Calculus.SMC_STAR: _SC_RULES | {Rule.G_EX_MIDDLE},
    Calculus.SCN_STAR: _SC_RULES | {Rule.EX_MIDDLE, Rule.G_EX_MIDDLE},
}

# the starred calculus equivalent to smc and to scn, in which
# (g-ex-middle) takes the place of (Peirce)
STARRED = {Calculus.SMC: Calculus.SMC_STAR, Calculus.SCN: Calculus.SCN_STAR}

CONNEXIVE_CALCULI = frozenset(
    {Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN, Calculus.SMC_STAR, Calculus.SCN_STAR}
)


def language_error(calc: Calculus, formulas: Iterable[Formula], seen: dict | None = None) -> str | None:
    """Why a formula of formulas lies outside calc's language, or None.  A
    connexive calculus has ~ and no primed atom; every other calculus has
    primed atoms and no ~.  The walk keeps its own stack and visits each
    subformula object once, so a formula shared as a DAG costs time
    linear in its distinct nodes.  seen maps the id of each subformula
    visited to it, which keeps the id from being reused; a caller that
    passes it shares the walk across calls, and after an error it may
    hold formulas outside the language."""
    connexive = calc in CONNEXIVE_CALCULI
    seen = {} if seen is None else seen
    todo = list(formulas)
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen[id(f)] = f
        cls = type(f)
        if cls is Var:
            if connexive and f.primed:
                return "primed atoms belong to the positive language only"
        elif cls is Neg:
            if not connexive:
                return f"connexive negation not in the language of {calc.value}"
            todo.append(f.body)
        else:
            todo.append(f.left)
            todo.append(f.right)
    return None


# ---------------------------------------------------------------------------
# Rule schemas.  An entry maps (succedent, principal) to the G3 premise
# specs [(formulas added to the context, succedent), ...], or None when
# the formulas do not fit the schema.  Right rules decompose the
# succedent and take no principal; the principal of a left rule must
# occur in the conclusion's context; the other rules instantiate it
# freely.


def shape(phi: Formula) -> type | tuple[type, type]:
    """The main connective, or ~ together with the body's connective."""
    return (Neg, type(phi.body)) if type(phi) is Neg else type(phi)


def _neg_of(phi: Formula | None, cls: type) -> bool:
    return isinstance(phi, Neg) and isinstance(phi.body, cls)


SCHEMAS: dict[Rule, Callable[[Formula, Formula | None], list | None]] = {
    Rule.CUT: lambda g, a: [((), a), ((a,), g)],
    Rule.IMP_RIGHT: lambda g, _: [((g.left,), g.right)] if isinstance(g, Imp) else None,
    Rule.AND_RIGHT: lambda g, _: [((), g.left), ((), g.right)] if isinstance(g, And) else None,
    Rule.OR_RIGHT1: lambda g, _: [((), g.left)] if isinstance(g, Or) else None,
    Rule.OR_RIGHT2: lambda g, _: [((), g.right)] if isinstance(g, Or) else None,
    Rule.NEG_RIGHT: lambda g, _: [((), g.body.body)] if _neg_of(g, Neg) else None,
    Rule.NEG_IMP_RIGHT: lambda g, _: [((g.body.left,), Neg(g.body.right))] if _neg_of(g, Imp) else None,
    Rule.NEG_AND_RIGHT1: lambda g, _: [((), Neg(g.body.left))] if _neg_of(g, And) else None,
    Rule.NEG_AND_RIGHT2: lambda g, _: [((), Neg(g.body.right))] if _neg_of(g, And) else None,
    Rule.NEG_OR_RIGHT: lambda g, _: [((), Neg(g.body.left)), ((), Neg(g.body.right))] if _neg_of(g, Or) else None,
    Rule.IMP_LEFT: lambda g, a: [((), a.left), ((a.right,), g)] if isinstance(a, Imp) else None,
    Rule.AND_LEFT: lambda g, a: [((a.left, a.right), g)] if isinstance(a, And) else None,
    Rule.OR_LEFT: lambda g, a: [((a.left,), g), ((a.right,), g)] if isinstance(a, Or) else None,
    Rule.NEG_LEFT: lambda g, a: [((a.body.body,), g)] if _neg_of(a, Neg) else None,
    Rule.NEG_IMP_LEFT: lambda g, a: [((), a.body.left), ((Neg(a.body.right),), g)] if _neg_of(a, Imp) else None,
    Rule.NEG_AND_LEFT: lambda g, a: [((Neg(a.body.left),), g), ((Neg(a.body.right),), g)] if _neg_of(a, And) else None,
    Rule.NEG_OR_LEFT: lambda g, a: [((Neg(a.body.left), Neg(a.body.right)), g)] if _neg_of(a, Or) else None,
    Rule.EX_MIDDLE: lambda g, a: [((Neg(a),), g), ((a,), g)],
    # (Peirce) instantiates alpha -> beta with alpha the succedent
    Rule.PEIRCE: lambda g, a: [((a,), g)] if isinstance(a, Imp) and a.left == g else None,
    Rule.G_EX_MIDDLE: lambda g, a: [((a,), g), ((a.left,), g)] if isinstance(a, Imp) else None,
}

# the rules whose principal is the succedent
RIGHT_RULES = frozenset({
    Rule.IMP_RIGHT, Rule.AND_RIGHT, Rule.OR_RIGHT1, Rule.OR_RIGHT2, Rule.NEG_RIGHT,
    Rule.NEG_IMP_RIGHT, Rule.NEG_AND_RIGHT1, Rule.NEG_AND_RIGHT2, Rule.NEG_OR_RIGHT,
})
# the rules whose principal must be in the conclusion's context
LEFT_RULES = frozenset({
    Rule.AND_LEFT, Rule.OR_LEFT, Rule.NEG_LEFT, Rule.NEG_AND_LEFT,
    Rule.NEG_OR_LEFT, Rule.IMP_LEFT, Rule.NEG_IMP_LEFT,
})
# premise 1 owns one context and premise 2 another
_SPLIT_RULES = frozenset({Rule.CUT, Rule.IMP_LEFT, Rule.NEG_IMP_LEFT})
# the rules whose principal need be neither in the conclusion nor a part of it
_FREE_RULES = frozenset({Rule.CUT, Rule.EX_MIDDLE, Rule.PEIRCE, Rule.G_EX_MIDDLE})
# what the checker reads of each rule, in one lookup: (arity, right rule,
# left rule, schema or None for the axioms, split contexts)
_CHECKS = {
    rule: (ARITY[rule], rule in RIGHT_RULES, rule in LEFT_RULES, SCHEMAS.get(rule), rule in _SPLIT_RULES)
    for rule in Rule
}


class Sequent(NamedTuple):
    """A sequent ctx => suc: a tuple record, equal to the tuple (ctx, suc)
    and hashed as it, which is the hash the frozen dataclass it once was
    computed; so set and dict order, and with them search order and
    proof output, are as they were, while the tuple's own hashing and
    comparison run in C."""

    ctx: frozenset[Formula]
    suc: Formula

    def sorted_ctx(self) -> list[Formula]:
        return sorted(self.ctx, key=key)

    def __str__(self) -> str:
        left = ", ".join(show(f) for f in self.sorted_ctx())
        return f"{left} => {show(self.suc)}" if left else f"=> {show(self.suc)}"


def seq(ctx: Iterable[Formula], suc: Formula) -> Sequent:
    return Sequent(frozenset(ctx), suc)


def parse_sequent(text: str, allow_primed: bool = False) -> Sequent:
    """Parse "a, b => c" (or a bare formula as "=> formula")."""
    if "=>" in text:
        left, _, right = text.partition("=>")
        ctx = [parse(p, allow_primed) for p in left.split(",") if p.strip()]
        return seq(ctx, parse(right, allow_primed))
    return seq([], parse(text, allow_primed))


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class SequentProof:
    """A proof node.  Premises may be shared, so a proof is a DAG; walk it
    with fold, which visits each node object once.  Equality is that of
    the proofs as trees, decided on the DAGs (same_dag); the hash and
    repr read the node alone.  The constructor writes the slots directly,
    past the frozen __setattr__."""

    conclusion: Sequent
    rule: Rule
    principal: Formula | None = None
    premises: tuple["SequentProof", ...] = ()

    def __init__(
        self, conclusion: Sequent, rule: Rule, principal: Formula | None = None, premises: tuple = ()
    ):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_principal(self, principal)
        _set_premises(self, premises)

    def __reduce__(self):
        # rebuilt by the constructor, as formulas are, so unpickling does
        # not rely on how a Python version restores frozen slots
        return SequentProof, (*self.own(), self.premises)

    def own(self) -> tuple:
        """What the node holds besides its premises."""
        return self.conclusion, self.rule, self.principal

    def __eq__(self, other) -> bool:
        return same_dag(self, other)

    def __hash__(self) -> int:
        return hash((*self.own(), len(self.premises)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.conclusion)!r})"

    def is_cut_free(self) -> bool:
        # a cut at the root settles it without a walk
        return self.rule is not Rule.CUT and fold(self, lambda node, subs: node.rule is not Rule.CUT and all(subs))

    def node_count(self) -> int:
        """Size of the proof as a tree: a shared subproof counts once per
        occurrence.  Computed on the DAG, without expanding the tree."""
        return fold(self, lambda node, subs: 1 + sum(subs))

    def depth(self) -> int:
        return fold(self, lambda node, subs: 1 + max(subs, default=0))


_set_conclusion, _set_rule, _set_principal, _set_premises = (
    getattr(SequentProof, name).__set__ for name in SequentProof.__match_args__
)

T = TypeVar("T")


def same_dag(a, b) -> bool:
    """Whether two proof nodes are equal as trees: of one class, with
    equal own() and pairwise equal premises.  NotImplemented when b is
    of another class.  The walk keeps its own stack.  It looks into a
    pair of nodes once however often the pair recurs, and not at all
    when the two are one object, so two equal proofs shared alike
    compare in time linear in their distinct nodes."""
    if type(b) is not type(a):
        return NotImplemented
    if a is b:
        return True
    seen: set[tuple[int, int]] = set()
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b) or len(a.premises) != len(b.premises) or a.own() != b.own():
            return False
        for x, y in zip(a.premises, b.premises):
            pair = (id(x), id(y))
            if x is not y and pair not in seen:
                seen.add(pair)
                todo.append((x, y))
    return True


def fold(proof: SequentProof, combine: Callable[[SequentProof, list[T]], T]) -> T:
    """Bottom-up fold over a proof DAG: combine(node, premise results)
    runs once per distinct node object, however often it is shared.

    Iterative, so proof depth is not bounded by the interpreter's
    recursion limit.  A stack entry names a node and the slot of the
    list that receives its result.  On its first visit a node goes back
    on the stack with a list for its premises' results, under those
    premises, so when it comes up again the list is full.  A leaf is
    combined when its parent is expanded and needs no visit of its own."""
    done: dict[int, T] = {}
    root: list = [None]
    stack: list = [(proof, root, 0, None)]
    while stack:
        node, into, slot, subs = stack.pop()
        key = id(node)
        if subs is not None:
            into[slot] = done[key] = combine(node, subs)
        elif key in done:
            into[slot] = done[key]
        else:
            subs = [None] * len(node.premises)
            stack.append((node, into, slot, subs))
            for i, p in enumerate(node.premises):
                if p.premises:
                    stack.append((p, subs, i, None))
                else:
                    k = id(p)
                    if k not in done:
                        done[k] = combine(p, [])
                    subs[i] = done[k]
    return root[0]


def recurse(gen: Generator) -> T:
    """Run a recursion written as generators on a stack of them, so its
    depth is not bounded by the interpreter's recursion limit.  A
    generator yields a generator for each recursive call, is sent that
    call's value, and returns its own value."""
    stack, value = [gen], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


# ---------------------------------------------------------------------------
# Checker.

def check_proof(calc: Calculus, proof: SequentProof) -> CheckReport:
    """Accept iff every node instantiates a rule schema of calc under set
    semantics and every formula is in calc's language; on failure
    pinpoint the first failing node (pre-order).  This is the one walk
    that certifies a proof: each distinct node is checked once, in one
    fold, and the path to a failure is built bottom-up, so it names the
    first failing occurrence in the tree.  A valid report also carries
    what the same fold finds out about the proof as a tree: cut_free,
    depth and tree_size (is_cut_free(), depth() and node_count(), with
    no walk of their own).

    The language is checked on the root's formulas and on each free
    principal (that of cut, ex_middle, peirce or g_ex_middle, an unnamed
    cut's being its first premise's succedent), and nowhere else.  That
    is enough: the set equations let a valid node's premises hold only
    formulas of its conclusion, parts of its principal or succedent, its
    free principal, and the formulas that the neg_* rules and ex_middle
    build from these.  Those add a ~, and only connexive calculi have
    them.  So one walk over distinct subformulas decides the language of
    every node."""
    seen: dict[int, Formula] = {}
    root = proof.conclusion
    reason = language_error(calc, (*root.ctx, root.suc), seen)
    if reason is not None:
        return CheckReport(False, (), proof.rule.value, reason)
    cut_free = True

    # a valid node's value is (depth, tree size), an invalid one's its report
    def combine(node: SequentProof, subs: list) -> tuple[int, int] | CheckReport:
        nonlocal cut_free
        reason = _node_error(calc, node)
        rule = node.rule
        if reason is None and rule in _FREE_RULES:
            if rule is Rule.CUT:
                cut_free = False
            phi = node.principal if node.principal is not None else node.premises[0].conclusion.suc
            if id(phi) not in seen:
                reason = language_error(calc, (phi,), seen)
                if reason is not None:
                    seen.clear()  # so a later walk cannot skip what this one found
        if reason is not None:
            return CheckReport(False, (), rule.value, reason)
        depth = size = 0
        for i, sub in enumerate(subs):
            if type(sub) is CheckReport:
                return CheckReport(False, (i, *sub.path), sub.rule, sub.reason)
            if sub[0] > depth:
                depth = sub[0]
            size += sub[1]
        return depth + 1, size + 1

    out = fold(proof, combine)
    if type(out) is CheckReport:
        return out
    return CheckReport(True, cut_free=cut_free, depth=out[0], tree_size=out[1])


def _split_ok(c: frozenset, phi: Formula | None, prems: tuple, specs: list) -> bool:
    """Two-context rules (cut, -> left, ~-> left): premise 1 owns Gamma,
    premise 2 owns Delta; each premise context may keep its active
    formulas A1, A2, and phi (a left rule's principal) joins them below.
    So c is core, the premise contexts less their active formulas with
    phi, plus none, either or both of A1 and A2."""
    (a1, g1), (a2, g2) = specs
    q1, q2 = prems[0].conclusion, prems[1].conclusion
    if not (q1.suc is g1 or q1.suc == g1) or not (q2.suc is g2 or q2.suc == g2):
        return False
    if not (q1.ctx.issuperset(a1) and q2.ctx.issuperset(a2)):
        return False
    core = q1.ctx.difference(a1) | q2.ctx.difference(a2)
    if phi is not None:
        core = core | {phi}
    return c == core or c == core.union(a1) or c == core.union(a2) or c == core.union(a1, a2)


def _node_error(calc: Calculus, node: SequentProof) -> str | None:
    rule = node.rule
    if rule not in RULES_OF[calc]:
        return f"rule not in calculus {calc.value}"
    arity, right, left, schema, split = _CHECKS[rule]
    prems = node.premises
    if len(prems) != arity:
        return f"arity mismatch: {rule.value} takes {arity} premises, got {len(prems)}"
    c, g = node.conclusion.ctx, node.conclusion.suc
    phi = node.principal

    if schema is None:
        if rule is Rule.INIT1:
            if type(g) is not Var:
                return "init1 succedent must be an atom"
            if g not in c:
                return "init1 atom missing from context"
        else:
            if not (type(g) is Neg and type(g.body) is Var):
                return "init2 succedent must be a negated atom"
            if g not in c:
                return "init2 formula missing from context"
        return None if phi is None else _no_principal(rule)

    if right:
        if phi is not None:
            return _no_principal(rule)
    elif phi is None:
        if rule is not Rule.CUT:
            return "principal formula required"
        phi = prems[0].conclusion.suc  # an unnamed cut formula is the first premise's succedent
    specs = schema(g, phi)
    if specs is None:
        return f"{'succedent' if right else 'principal'} does not fit the {rule.value} schema"
    if left and phi not in c:
        return "principal missing from context"
    if split:
        ok = _split_ok(c, phi if left else None, prems, specs)
    else:
        # one shared context Gamma, read off the conclusion: c itself, or
        # c less a left rule's principal (which may also occur in Gamma)
        ok = _shared_ok(c, prems, specs) or (left and _shared_ok(c - {phi}, prems, specs))
    return None if ok else f"premises do not match the {rule.value} schema"


def _shared_ok(gamma: frozenset, prems: tuple, specs: list) -> bool:
    """Whether each premise has the succedent of its spec (a, g) and the
    context gamma plus a."""
    for p, (a, g) in zip(prems, specs):
        q = p.conclusion
        # `is` first here and in _split_ok: == on formulas is a Python call
        if not (q.suc is g or q.suc == g) or q.ctx != (gamma.union(a) if a else gamma):
            return False
    return True


def _no_principal(rule: Rule) -> str:
    return f"{rule.value} takes no principal formula"


def _require_valid(calc: Calculus, proof: SequentProof) -> CheckReport:
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)
    return rep


# ---------------------------------------------------------------------------
# Constructive weakening (Prop-style structural transform).

def weaken_proof(calc: Calculus, proof: SequentProof, extra: Iterable[Formula]) -> SequentProof:
    """Checker-valid cut-free proof of (extra | ctx => suc); same rule
    skeleton, every node's context enlarged."""
    extra = frozenset(extra)
    if (reason := language_error(calc, extra)) is not None:
        raise ValueError(reason)
    if not _require_valid(calc, proof).cut_free:
        raise InvalidProof(CheckReport(False, (), proof.rule.value, "input contains cut"))
    return _weaken(proof, extra)


def _weaken(proof: SequentProof, extra: frozenset[Formula]) -> SequentProof:
    if not extra:
        return proof
    return fold(
        proof,
        lambda node, subs: SequentProof(
            Sequent(node.conclusion.ctx | extra, node.conclusion.suc),
            node.rule,
            node.principal,
            tuple(subs),
        ),
    )


# ---------------------------------------------------------------------------
# Generalized identity (alpha, Gamma => alpha), by induction on alpha.

def identity_proof(calc: Calculus, alpha: Formula, gamma: Iterable[Formula] = ()) -> SequentProof:
    gamma = frozenset(gamma)
    if (reason := language_error(calc, (*gamma, alpha))) is not None:
        raise ValueError(reason)
    return recurse(_identity(alpha, gamma))


def _identity(a: Formula, g: frozenset[Formula]) -> Generator:
    goal = Sequent(g | {a}, a)
    if isinstance(a, Var):
        return SequentProof(goal, Rule.INIT1)
    if isinstance(a, And):
        l, r = a.left, a.right
        h1 = SequentProof(Sequent(g | {a}, l), Rule.AND_LEFT, a, ((yield _identity(l, g | {r})),))
        h2 = SequentProof(Sequent(g | {a}, r), Rule.AND_LEFT, a, ((yield _identity(r, g | {l})),))
        return SequentProof(goal, Rule.AND_RIGHT, None, (h1, h2))
    if isinstance(a, Or):
        l, r = a.left, a.right
        p1 = SequentProof(Sequent(g | {l}, a), Rule.OR_RIGHT1, None, ((yield _identity(l, g)),))
        p2 = SequentProof(Sequent(g | {r}, a), Rule.OR_RIGHT2, None, ((yield _identity(r, g)),))
        return SequentProof(goal, Rule.OR_LEFT, a, (p1, p2))
    if isinstance(a, Imp):
        l, r = a.left, a.right
        left_prem = yield _identity(l, g)  # l, g => l
        right_prem = yield _identity(r, g | {l})  # r, l, g => r
        imp_left = SequentProof(
            Sequent(g | {a, l}, r), Rule.IMP_LEFT, a, (left_prem, right_prem)
        )
        return SequentProof(goal, Rule.IMP_RIGHT, None, (imp_left,))
    assert isinstance(a, Neg)
    b = a.body
    if isinstance(b, Var):
        return SequentProof(goal, Rule.INIT2)
    if isinstance(b, Neg):
        inner = yield _identity(b.body, g)  # b.body, g => b.body
        peel = SequentProof(Sequent(g | {a}, b.body), Rule.NEG_LEFT, a, (inner,))
        return SequentProof(goal, Rule.NEG_RIGHT, None, (peel,))
    if isinstance(b, And):
        l, r = Neg(b.left), Neg(b.right)
        p1 = SequentProof(Sequent(g | {l}, a), Rule.NEG_AND_RIGHT1, None, ((yield _identity(l, g)),))
        p2 = SequentProof(Sequent(g | {r}, a), Rule.NEG_AND_RIGHT2, None, ((yield _identity(r, g)),))
        return SequentProof(goal, Rule.NEG_AND_LEFT, a, (p1, p2))
    if isinstance(b, Or):
        l, r = Neg(b.left), Neg(b.right)
        q1 = yield _identity(l, g | {r})
        q2 = yield _identity(r, g | {l})
        pair = SequentProof(Sequent(g | {l, r}, a), Rule.NEG_OR_RIGHT, None, (q1, q2))
        return SequentProof(goal, Rule.NEG_OR_LEFT, a, (pair,))
    assert isinstance(b, Imp)
    l, nr = b.left, Neg(b.right)
    left_prem = yield _identity(l, g)
    right_prem = yield _identity(nr, g | {l})
    neg_imp_left = SequentProof(
        Sequent(g | {a, l}, nr), Rule.NEG_IMP_LEFT, a, (left_prem, right_prem)
    )
    return SequentProof(goal, Rule.NEG_IMP_RIGHT, None, (neg_imp_left,))


# ---------------------------------------------------------------------------
# JSON proof format.  A file is one object: "formulas" lists each distinct
# formula text once, and "nodes" lists each distinct proof node once,
# after every premise it names, so the root is the last entry.  A node is
# {"rule", "ctx": [formula indices], "suc": i, "principal": i or null,
# "premises": [indices of earlier nodes]}, so a shared subproof is one
# entry that several nodes name.  With indent, a line holds one formula
# or one node, at an indent that does not grow with the proof's depth.

def proof_to_json(proof: SequentProof, indent: int | None = None) -> str:
    """The proof in the table layout, written by one fold.  A context is
    written in key order, so the text does not depend on set order."""
    number: dict[str, str] = {}  # formula text -> its index, as text
    nodes: list[str] = []

    def index(text: str) -> str:
        i = number.get(text)
        if i is None:
            i = number[text] = str(len(number))
        return i

    def combine(node: SequentProof, subs: list[int]) -> int:
        ctx = ", ".join([index(t) for t in sorted(map(show, node.conclusion.ctx))])
        principal = "null" if node.principal is None else index(show(node.principal))
        nodes.append(
            f'{{"rule": "{node.rule.value}", "ctx": [{ctx}], "suc": {index(show(node.conclusion.suc))}, '
            f'"principal": {principal}, "premises": [{", ".join(map(str, subs))}]}}'
        )
        return len(nodes) - 1

    fold(proof, combine)
    texts = [json.dumps(t) for t in number]
    if indent is None:
        return '{"formulas": [' + ", ".join(texts) + '], "nodes": [' + ", ".join(nodes) + "]}"
    outer = "\n" + " " * indent
    inner = outer + " " * indent
    return (
        "{" + outer + '"formulas": [' + inner + ("," + inner).join(texts) + outer + "],"
        + outer + '"nodes": [' + inner + ("," + inner).join(nodes) + outer + "]\n}"
    )


def proof_from_json(text: str) -> SequentProof:
    """Inverse of proof_to_json, in one loop over the node list: a node or
    formula that several nodes name by index is read as one object, and
    the formulas of the file share their equal parts (parse's parts).  Every
    index must be an int in range, and a premise must come before its
    node.  Malformed input raises ValueError."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("proof file is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"proof file must be a JSON object with formulas and nodes, got {obj!r:.80}")
    parts: dict[tuple, Formula] = {}
    formulas = [_formula(t, parts) for t in json_list(json_field(obj, "formulas"), "formulas")]
    entries = json_list(json_field(obj, "nodes"), "nodes")
    if not entries:
        raise ValueError("nodes must not be empty: the root is the last node")
    nodes: list[SequentProof] = []
    for k, n in enumerate(entries):
        if not isinstance(n, dict):
            raise ValueError(f"node {k} must be a JSON object with a rule, got {n!r:.80}")
        ctx = frozenset([_at(formulas, i, k, "formula") for i in json_list(json_field(n, "ctx"), "ctx")])
        raw = n.get("principal")
        nodes.append(SequentProof(
            Sequent(ctx, _at(formulas, json_field(n, "suc"), k, "formula")),
            Rule(json_field(n, "rule")),
            None if raw is None else _at(formulas, raw, k, "formula"),
            tuple([_at(nodes, i, k, "premise") for i in json_list(n.get("premises", []), "premises")]),
        ))
    return nodes[-1]


def _formula(text, parts: dict[tuple, Formula]) -> Formula:
    if not isinstance(text, str):
        raise ValueError(f"formula must be a string, got {text!r:.80}")
    return parse(text, allow_primed=True, parts=parts)


def _at(table: list, i, k: int, what: str):
    """table[i], for an index i that node k gives as a formula or premise."""
    if type(i) is not int or not 0 <= i < len(table):
        raise ValueError(f"node {k} {what} index {i!r:.80} is not an integer in range({len(table)})")
    return table[i]
