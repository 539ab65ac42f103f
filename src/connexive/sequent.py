"""Sequents, rule-annotated sequent proofs, per-calculus rule tables,
the proof checker, constructive weakening, and generalized identity.

Contexts are finite *sets*; the checker validates each node's context
against the set equation its rule schema determines, so contraction and
exchange are invisible and G3-style instances (full context retained in
both premises of the splitting rules) check directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, TypeVar

from .checking import ACCEPT, CheckReport, InvalidProof, json_field, json_list
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
    # experimental target for embedding scn: LJ+ + Peirce + excluded
    # middle over matching primed/unprimed atom pairs
    LJP_PEIRCE_PEM = "ljp-peirce-pem"


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
    P_EX_MIDDLE = "p_ex_middle"  # experimental, ljp-peirce-pem only


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
    Rule.P_EX_MIDDLE: 2,
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
    Calculus.LJP_PEIRCE_PEM: _LJP_RULES | {Rule.PEIRCE, Rule.P_EX_MIDDLE},
}

CONNEXIVE_CALCULI = frozenset(
    {Calculus.SC, Calculus.SC3, Calculus.SMC, Calculus.SCN, Calculus.SMC_STAR, Calculus.SCN_STAR}
)


@dataclass(frozen=True)
class Sequent:
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


@dataclass(frozen=True)
class SequentProof:
    """A proof node.  Premises may be shared, so a proof is a DAG; walk it
    with fold, which visits each node object once."""

    conclusion: Sequent
    rule: Rule
    principal: Formula | None = None
    premises: tuple["SequentProof", ...] = ()

    def is_cut_free(self) -> bool:
        # a cut at the root settles it without a walk
        return self.rule is not Rule.CUT and fold(self, lambda node, subs: node.rule is not Rule.CUT and all(subs))

    def node_count(self) -> int:
        """Size of the proof as a tree: a shared subproof counts once per
        occurrence.  Computed on the DAG, without expanding the tree."""
        return fold(self, lambda node, subs: 1 + sum(subs))

    def depth(self) -> int:
        return fold(self, lambda node, subs: 1 + max(subs, default=0))


T = TypeVar("T")


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


# ---------------------------------------------------------------------------
# Checker.

def check_proof(calc: Calculus, proof: SequentProof) -> CheckReport:
    """Accept iff every node instantiates a rule schema of calc under set
    semantics; on failure pinpoint the first failing node (pre-order).
    Each distinct node is checked once; the path to a failure is built
    bottom-up, so it names the first failing occurrence in the tree."""

    def combine(node: SequentProof, subs: list[CheckReport]) -> CheckReport:
        reason = _node_error(calc, node)
        if reason is not None:
            return CheckReport(False, (), node.rule.value, reason)
        for i, rep in enumerate(subs):
            if not rep.ok:
                return CheckReport(False, (i,) + rep.path, rep.rule, rep.reason)
        return ACCEPT

    return fold(proof, combine)


def _mismatch(expected: Sequent, actual: Sequent) -> str:
    return f"schema mismatch: expected {expected}, got {actual}"


def _shared_ok(c: frozenset, phi: Formula | None, prems, specs) -> bool:
    """Rules with one shared context Gamma.  specs: [(active set, succedent)].
    Gamma is read off the conclusion: c minus the principal, or c itself
    (the principal may also occur in Gamma)."""
    cands = [c] if phi is None else [c - {phi}, c]
    for gamma in cands:
        if all(p.ctx == frozenset(a) | gamma and p.suc == s for p, (a, s) in zip(prems, specs)):
            return True
    return False


def _split_ok(c, phi, p1, p1_suc, p2, active2, p2_suc, g) -> bool:
    """Two-context rules (cut, -> left, ~-> left): premise1 owns Gamma,
    premise2 owns Delta plus its active formula."""
    if p1.suc != p1_suc or p2.suc != p2_suc or g != p2_suc:
        return False
    if not frozenset(active2) <= p2.ctx:
        return False
    head = frozenset() if phi is None else frozenset({phi})
    for delta in (p2.ctx - frozenset(active2), p2.ctx):
        if c == head | p1.ctx | delta:
            return True
    return False


def _node_error(calc: Calculus, node: SequentProof) -> str | None:
    rule = node.rule
    if rule not in RULES_OF[calc]:
        return f"rule not in calculus {calc.value}"
    if len(node.premises) != ARITY[rule]:
        return f"arity mismatch: {rule.value} takes {ARITY[rule]} premises, got {len(node.premises)}"
    c, g = node.conclusion.ctx, node.conclusion.suc
    phi = node.principal
    prems = [p.conclusion for p in node.premises]

    if rule is Rule.INIT1:
        if not isinstance(g, Var):
            return "init1 succedent must be an atom"
        if g not in c:
            return "init1 atom missing from context"
        return None
    if rule is Rule.INIT2:
        if not (isinstance(g, Neg) and isinstance(g.body, Var)):
            return "init2 succedent must be a negated atom"
        if g not in c:
            return "init2 formula missing from context"
        return None

    if rule is Rule.CUT:
        cutf = phi if phi is not None else prems[0].suc
        if prems[0].suc != cutf:
            return "cut formula does not match first premise succedent"
        if not _split_ok(c, None, prems[0], cutf, prems[1], {cutf}, g, g):
            return _mismatch(seq(prems[0].ctx | (prems[1].ctx - {cutf}), g), node.conclusion)
        return None

    # right rules: the shared context is exactly the conclusion context
    if rule is Rule.IMP_RIGHT:
        if not isinstance(g, Imp):
            return "succedent is not an implication"
        ok = _shared_ok(c | frozenset(), None, prems, [({g.left}, g.right)])
        return None if ok else _mismatch(seq({g.left} | c, g.right), prems[0])
    if rule is Rule.AND_RIGHT:
        if not isinstance(g, And):
            return "succedent is not a conjunction"
        ok = _shared_ok(c, None, prems, [(set(), g.left), (set(), g.right)])
        return None if ok else "premises must share the conclusion context"
    if rule in (Rule.OR_RIGHT1, Rule.OR_RIGHT2):
        if not isinstance(g, Or):
            return "succedent is not a disjunction"
        side = g.left if rule is Rule.OR_RIGHT1 else g.right
        ok = _shared_ok(c, None, prems, [(set(), side)])
        return None if ok else _mismatch(seq(c, side), prems[0])
    if rule is Rule.NEG_RIGHT:
        if not (isinstance(g, Neg) and isinstance(g.body, Neg)):
            return "succedent is not a double negation"
        ok = _shared_ok(c, None, prems, [(set(), g.body.body)])
        return None if ok else _mismatch(seq(c, g.body.body), prems[0])
    if rule is Rule.NEG_IMP_RIGHT:
        if not (isinstance(g, Neg) and isinstance(g.body, Imp)):
            return "succedent is not a negated implication"
        a, b = g.body.left, g.body.right
        ok = _shared_ok(c, None, prems, [({a}, Neg(b))])
        return None if ok else _mismatch(seq({a} | c, Neg(b)), prems[0])
    if rule in (Rule.NEG_AND_RIGHT1, Rule.NEG_AND_RIGHT2):
        if not (isinstance(g, Neg) and isinstance(g.body, And)):
            return "succedent is not a negated conjunction"
        side = g.body.left if rule is Rule.NEG_AND_RIGHT1 else g.body.right
        ok = _shared_ok(c, None, prems, [(set(), Neg(side))])
        return None if ok else _mismatch(seq(c, Neg(side)), prems[0])
    if rule is Rule.NEG_OR_RIGHT:
        if not (isinstance(g, Neg) and isinstance(g.body, Or)):
            return "succedent is not a negated disjunction"
        a, b = g.body.left, g.body.right
        ok = _shared_ok(c, None, prems, [(set(), Neg(a)), (set(), Neg(b))])
        return None if ok else "premises must share the conclusion context"

    # rules below need an explicit principal (or instantiation) formula
    if rule in (
        Rule.AND_LEFT,
        Rule.OR_LEFT,
        Rule.NEG_LEFT,
        Rule.NEG_AND_LEFT,
        Rule.NEG_OR_LEFT,
        Rule.IMP_LEFT,
        Rule.NEG_IMP_LEFT,
        Rule.EX_MIDDLE,
        Rule.PEIRCE,
        Rule.G_EX_MIDDLE,
        Rule.P_EX_MIDDLE,
    ) and phi is None:
        return "principal formula required"

    if rule is Rule.AND_LEFT:
        if not isinstance(phi, And):
            return "principal is not a conjunction"
        ok = _shared_ok(c, phi, prems, [({phi.left, phi.right}, g)])
        return None if ok else "premise does not match (and left) schema" if phi in c else "principal missing from context"
    if rule is Rule.OR_LEFT:
        if not isinstance(phi, Or):
            return "principal is not a disjunction"
        if phi not in c:
            return "principal missing from context"
        ok = _shared_ok(c, phi, prems, [({phi.left}, g), ({phi.right}, g)])
        return None if ok else "premises do not match (or left) schema"
    if rule is Rule.NEG_LEFT:
        if not (isinstance(phi, Neg) and isinstance(phi.body, Neg)):
            return "principal is not a double negation"
        if phi not in c:
            return "principal missing from context"
        ok = _shared_ok(c, phi, prems, [({phi.body.body}, g)])
        return None if ok else "premise does not match (neg left) schema"
    if rule is Rule.NEG_AND_LEFT:
        if not (isinstance(phi, Neg) and isinstance(phi.body, And)):
            return "principal is not a negated conjunction"
        if phi not in c:
            return "principal missing from context"
        ok = _shared_ok(c, phi, prems, [({Neg(phi.body.left)}, g), ({Neg(phi.body.right)}, g)])
        return None if ok else "premises do not match (neg and left) schema"
    if rule is Rule.NEG_OR_LEFT:
        if not (isinstance(phi, Neg) and isinstance(phi.body, Or)):
            return "principal is not a negated disjunction"
        if phi not in c:
            return "principal missing from context"
        ok = _shared_ok(c, phi, prems, [({Neg(phi.body.left), Neg(phi.body.right)}, g)])
        return None if ok else "premise does not match (neg or left) schema"
    if rule is Rule.IMP_LEFT:
        if not isinstance(phi, Imp):
            return "principal is not an implication"
        if phi not in c:
            return "principal missing from context"
        ok = _split_ok(c, phi, prems[0], phi.left, prems[1], {phi.right}, g, g)
        return None if ok else "premises do not match (imp left) schema"
    if rule is Rule.NEG_IMP_LEFT:
        if not (isinstance(phi, Neg) and isinstance(phi.body, Imp)):
            return "principal is not a negated implication"
        if phi not in c:
            return "principal missing from context"
        a, b = phi.body.left, phi.body.right
        ok = _split_ok(c, phi, prems[0], a, prems[1], {Neg(b)}, g, g)
        return None if ok else "premises do not match (neg imp left) schema"

    if rule is Rule.EX_MIDDLE:
        ok = _shared_ok(c, None, prems, [({Neg(phi)}, g), ({phi}, g)])
        return None if ok else "premises do not match (ex-middle) schema"
    if rule is Rule.PEIRCE:
        if not isinstance(phi, Imp):
            return "Peirce instantiation must be an implication"
        if phi.left != g:
            return "Peirce antecedent must equal the conclusion succedent"
        ok = _shared_ok(c, None, prems, [({phi}, g)])
        return None if ok else "premise does not match (Peirce) schema"
    if rule is Rule.G_EX_MIDDLE:
        if not isinstance(phi, Imp):
            return "g-ex-middle instantiation must be an implication"
        ok = _shared_ok(c, None, prems, [({phi}, g), ({phi.left}, g)])
        return None if ok else "premises do not match (g-ex-middle) schema"
    if rule is Rule.P_EX_MIDDLE:
        if not (isinstance(phi, Var) and not phi.primed):
            return "p-ex-middle instantiation must be an unprimed atom"
        primed = Var(phi.name, True)
        ok = _shared_ok(c, None, prems, [({primed}, g), ({phi}, g)])
        return None if ok else "premises do not match (p-ex-middle) schema"

    return f"unhandled rule {rule.value}"


def _require_valid(calc: Calculus, proof: SequentProof) -> None:
    rep = check_proof(calc, proof)
    if not rep.ok:
        raise InvalidProof(rep)


# ---------------------------------------------------------------------------
# Constructive weakening (Prop-style structural transform).

def weaken_proof(calc: Calculus, proof: SequentProof, extra: Iterable[Formula]) -> SequentProof:
    """Checker-valid cut-free proof of (extra | ctx => suc); same rule
    skeleton, every node's context enlarged."""
    _require_valid(calc, proof)
    if not proof.is_cut_free():
        raise InvalidProof(CheckReport(False, (), proof.rule.value, "input contains cut"))
    return _weaken(proof, frozenset(extra))


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
    if calc not in CONNEXIVE_CALCULI and _mentions_neg(alpha, gamma):
        raise ValueError(f"negation not in the language of {calc.value}")
    return _identity(alpha, gamma)


def _mentions_neg(alpha: Formula, gamma: frozenset[Formula]) -> bool:
    from .formula import has_negation

    return has_negation(alpha) or any(has_negation(f) for f in gamma)


def _identity(a: Formula, g: frozenset[Formula]) -> SequentProof:
    goal = Sequent(g | {a}, a)
    if isinstance(a, Var):
        return SequentProof(goal, Rule.INIT1)
    if isinstance(a, And):
        l, r = a.left, a.right
        def half(side: Formula, other: Formula) -> SequentProof:
            inner = _identity(side, g | {other})
            return SequentProof(Sequent(g | {a}, side), Rule.AND_LEFT, a, (inner,))
        return SequentProof(goal, Rule.AND_RIGHT, None, (half(l, r), half(r, l)))
    if isinstance(a, Or):
        l, r = a.left, a.right
        p1 = SequentProof(Sequent(g | {l}, a), Rule.OR_RIGHT1, None, (_identity(l, g),))
        p2 = SequentProof(Sequent(g | {r}, a), Rule.OR_RIGHT2, None, (_identity(r, g),))
        return SequentProof(goal, Rule.OR_LEFT, a, (p1, p2))
    if isinstance(a, Imp):
        l, r = a.left, a.right
        left_prem = _identity(l, g)  # l, g => l
        right_prem = _identity(r, g | {l})  # r, l, g => r
        imp_left = SequentProof(
            Sequent(g | {a, l}, r), Rule.IMP_LEFT, a, (left_prem, right_prem)
        )
        return SequentProof(goal, Rule.IMP_RIGHT, None, (imp_left,))
    assert isinstance(a, Neg)
    b = a.body
    if isinstance(b, Var):
        return SequentProof(goal, Rule.INIT2)
    if isinstance(b, Neg):
        inner = _identity(b.body, g)  # b.body, g => b.body
        peel = SequentProof(Sequent(g | {a}, b.body), Rule.NEG_LEFT, a, (inner,))
        return SequentProof(goal, Rule.NEG_RIGHT, None, (peel,))
    if isinstance(b, And):
        l, r = Neg(b.left), Neg(b.right)
        p1 = SequentProof(Sequent(g | {l}, a), Rule.NEG_AND_RIGHT1, None, (_identity(l, g),))
        p2 = SequentProof(Sequent(g | {r}, a), Rule.NEG_AND_RIGHT2, None, (_identity(r, g),))
        return SequentProof(goal, Rule.NEG_AND_LEFT, a, (p1, p2))
    if isinstance(b, Or):
        l, r = Neg(b.left), Neg(b.right)
        q1 = _identity(l, g | {r})
        q2 = _identity(r, g | {l})
        pair = SequentProof(Sequent(g | {l, r}, a), Rule.NEG_OR_RIGHT, None, (q1, q2))
        return SequentProof(goal, Rule.NEG_OR_LEFT, a, (pair,))
    assert isinstance(b, Imp)
    l, nr = b.left, Neg(b.right)
    left_prem = _identity(l, g)
    right_prem = _identity(nr, g | {l})
    neg_imp_left = SequentProof(
        Sequent(g | {a, l}, nr), Rule.NEG_IMP_LEFT, a, (left_prem, right_prem)
    )
    return SequentProof(goal, Rule.NEG_IMP_RIGHT, None, (neg_imp_left,))


# ---------------------------------------------------------------------------
# JSON proof format.  A node is {"rule", "sequent": {"ctx", "suc"},
# "principal", "premises"}.  A subproof that was already written in full
# is written again as {"ref": k}, where k counts the full nodes in the
# order they end (post-order), so a shared proof stays shared on disk.  A
# file without refs is a plain nested tree.

def proof_to_obj(proof: SequentProof) -> dict:
    index: dict[int, int] = {}

    def emit(node: SequentProof) -> dict:
        k = index.get(id(node))
        if k is not None:
            return {"ref": k}
        obj = {
            "rule": node.rule.value,
            "sequent": {
                "ctx": [show(f) for f in node.conclusion.sorted_ctx()],
                "suc": show(node.conclusion.suc),
            },
            "principal": None if node.principal is None else show(node.principal),
            "premises": [emit(p) for p in node.premises],
        }
        index[id(node)] = len(index)
        return obj

    return emit(proof)


class _ProofDecoder:
    """Builds proof nodes as the JSON decoder finishes each object,
    innermost first, so the decoded object tree is never held whole.
    That is also the order in which refs number the nodes.  Each distinct
    formula text is parsed once per file, and every occurrence of it gets
    the same object."""

    def __init__(self):
        self.table: list[SequentProof] = []
        self.formulas: dict[str, Formula] = {}

    def __call__(self, o: dict):
        if "ref" in o:
            k = o["ref"]
            if type(k) is not int or not 0 <= k < len(self.table):
                raise ValueError(f"ref {k!r:.80} names no subproof read before it")
            return self.table[k]
        if not ("rule" in o or "sequent" in o or "premises" in o):
            return seq(map(self.formula, json_list(json_field(o, "ctx"), "ctx")), self.formula(json_field(o, "suc")))
        rule = Rule(json_field(o, "rule"))
        conclusion = json_field(o, "sequent")
        if not isinstance(conclusion, Sequent):
            raise ValueError("sequent must be a JSON object with ctx and suc")
        raw = o.get("principal")
        principal = None if raw is None else self.formula(raw)
        premises = tuple(json_list(o.get("premises", []), "premises"))
        for p in premises:
            _require_node(p)
        node = SequentProof(conclusion, rule, principal, premises)
        self.table.append(node)
        return node

    def formula(self, text) -> Formula:
        if not isinstance(text, str):
            raise ValueError(f"formula must be a string, got {text!r:.80}")
        phi = self.formulas.get(text)
        if phi is None:
            phi = self.formulas[text] = parse(text, allow_primed=True)
        return phi


def _require_node(value) -> SequentProof:
    if not isinstance(value, SequentProof):
        raise ValueError(f"proof node must be a JSON object with a rule, got {value!r:.80}")
    return value


def proof_to_json(proof: SequentProof, indent: int | None = None) -> str:
    return json.dumps(proof_to_obj(proof), indent=indent)


def proof_from_json(text: str) -> SequentProof:
    """Inverse of proof_to_json: each ref resolves to the same object.
    Malformed input raises ValueError."""
    try:
        return _require_node(json.loads(text, object_hook=_ProofDecoder()))
    except RecursionError:
        raise ValueError("proof file is nested too deeply") from None
