"""Natural deduction for nC, nC3, nMC, nCN: derivation trees with
discharge labels, the checker, open-assumption and end-formula views,
maximum-formula detection, and the normality predicate.

Discharge labels are explicit integers (Prawitz-style assumption
classes).  A label is carried by exactly one discharging node and may
bind any number of assumption leaves (including zero: vacuous discharge
is permitted uniformly for every discharging rule).  Rules discharging
two assumption shapes (or_E, neg_and_E, EM, GEM) use a single label with
a branch-specific expected formula.

Each walk visits a derivation's nodes once and keeps its own stack, so
its cost is linear in the derivation's size and its depth is not bounded
by the interpreter's recursion limit.  The
checker makes one pre-order pass that files every labelled leaf under
the premise of its discharging node it sits in, then checks each node
against its rule schema, a discharging node against those leaf lists.
The other walks are bottom-up folds (fold), the JSON writer a pre-order
walk.  Only the JSON reader recurses, within the depth json.loads
accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, TypeVar

from .checking import ACCEPT, CheckReport, InvalidProof, json_field, json_list
from .formula import And, Formula, Imp, Neg, Or, Var, parse, show


class NdSystem(str, Enum):
    NC = "nc"
    NC3 = "nc3"
    NMC = "nmc"
    NCN = "ncn"


class NdRule(str, Enum):
    ASSUMPTION = "assumption"
    IMP_I = "imp_I"
    IMP_E = "imp_E"
    AND_I = "and_I"
    AND_E1 = "and_E1"
    AND_E2 = "and_E2"
    OR_I1 = "or_I1"
    OR_I2 = "or_I2"
    OR_E = "or_E"
    NEGNEG_I = "negneg_I"
    NEGNEG_E = "negneg_E"
    NEG_IMP_I = "neg_imp_I"
    NEG_IMP_E = "neg_imp_E"
    NEG_AND_I1 = "neg_and_I1"
    NEG_AND_I2 = "neg_and_I2"
    NEG_AND_E = "neg_and_E"
    NEG_OR_I = "neg_or_I"
    NEG_OR_E1 = "neg_or_E1"
    NEG_OR_E2 = "neg_or_E2"
    EM = "EM"
    GEM = "GEM"


# (EM) and (GEM) are treated as introduction rules; their premises are
# neither major nor minor.
INTRO_RULES = frozenset(
    {
        NdRule.IMP_I,
        NdRule.AND_I,
        NdRule.OR_I1,
        NdRule.OR_I2,
        NdRule.NEGNEG_I,
        NdRule.NEG_IMP_I,
        NdRule.NEG_AND_I1,
        NdRule.NEG_AND_I2,
        NdRule.NEG_OR_I,
        NdRule.EM,
        NdRule.GEM,
    }
)
ELIM_RULES = frozenset(
    {
        NdRule.IMP_E,
        NdRule.AND_E1,
        NdRule.AND_E2,
        NdRule.OR_E,
        NdRule.NEGNEG_E,
        NdRule.NEG_IMP_E,
        NdRule.NEG_AND_E,
        NdRule.NEG_OR_E1,
        NdRule.NEG_OR_E2,
    }
)
DISCHARGING_RULES = frozenset(
    {NdRule.IMP_I, NdRule.NEG_IMP_I, NdRule.OR_E, NdRule.NEG_AND_E, NdRule.EM, NdRule.GEM}
)

_ARITY = {
    NdRule.ASSUMPTION: 0,
    NdRule.IMP_I: 1,
    NdRule.IMP_E: 2,
    NdRule.AND_I: 2,
    NdRule.AND_E1: 1,
    NdRule.AND_E2: 1,
    NdRule.OR_I1: 1,
    NdRule.OR_I2: 1,
    NdRule.OR_E: 3,
    NdRule.NEGNEG_I: 1,
    NdRule.NEGNEG_E: 1,
    NdRule.NEG_IMP_I: 1,
    NdRule.NEG_IMP_E: 2,
    NdRule.NEG_AND_I1: 1,
    NdRule.NEG_AND_I2: 1,
    NdRule.NEG_AND_E: 3,
    NdRule.NEG_OR_I: 2,
    NdRule.NEG_OR_E1: 1,
    NdRule.NEG_OR_E2: 1,
    NdRule.EM: 2,
    NdRule.GEM: 2,
}

_NC_RULES = frozenset(_ARITY) - {NdRule.EM, NdRule.GEM}
RULES_OF_SYSTEM = {
    NdSystem.NC: _NC_RULES,
    NdSystem.NC3: _NC_RULES | {NdRule.EM},
    NdSystem.NMC: _NC_RULES | {NdRule.GEM},
    NdSystem.NCN: _NC_RULES | {NdRule.EM, NdRule.GEM},
}


@dataclass(frozen=True)
class Derivation:
    rule: NdRule
    formula: Formula
    premises: tuple["Derivation", ...] = ()
    discharge: int | None = None  # label this node discharges
    label: int | None = None  # assumption leaves only: binding label

    def node_count(self) -> int:
        return fold(self, lambda _, subs: 1 + sum(subs))

    def at(self, path: tuple[int, ...]) -> "Derivation":
        node = self
        for i in path:
            node = node.premises[i]
        return node


def assumption(phi: Formula, label: int | None = None) -> Derivation:
    return Derivation(NdRule.ASSUMPTION, phi, label=label)


@dataclass(frozen=True)
class MaxOccurrence:
    path: tuple[int, ...]
    formula: Formula


def end_formula(d: Derivation) -> Formula:
    return d.formula


T = TypeVar("T")


def fold(d: Derivation, combine: Callable[[Derivation, Sequence[T]], T]) -> T:
    """Bottom-up fold: combine(node, premise results) runs once per node
    occurrence, in post-order from left to right, so a combine that draws
    fresh labels draws them in the order of the leaves.

    Iterative, so derivation depth is not bounded by the interpreter's
    recursion limit.  A first pass lists the nodes in pre-order taking
    premises from right to left; that list reversed is the post-order
    wanted.  Walking it, each node finds its premises' results as the
    last ones on a stack of results, and replaces them with its own."""
    order = []
    stack = [d]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(n.premises)
    results: list = []
    for n in reversed(order):
        k = len(n.premises)
        if k:
            subs = results[-k:]
            del results[-k:]
            results.append(combine(n, subs))
        else:
            results.append(combine(n, ()))
    return results[0]


def open_assumptions(d: Derivation) -> frozenset[Formula]:
    found: set[Formula] = set()

    def combine(n: Derivation, _) -> None:
        if n.label is None and n.rule is NdRule.ASSUMPTION:
            found.add(n.formula)

    fold(d, combine)
    return frozenset(found)


def discharge_labels(d: Derivation) -> set[int]:
    # a plain walk, not a fold: refresh_labels runs this on every copy
    # sc_to_nd makes, and a fold costs two to three times as much here
    out: set[int] = set()
    stack = [d]
    while stack:
        n = stack.pop()
        if n.discharge is not None:
            out.add(n.discharge)
        stack.extend(n.premises)
    return out


def max_label(d: Derivation) -> int:
    """The largest discharge or leaf label in d, and at least 0."""
    return fold(d, lambda n, subs: max(0, n.discharge or 0, n.label or 0, *subs))


# ---------------------------------------------------------------------------
# Checker.

_UNBOUND = ((), (), ())  # the leaf lists of a node that discharges no label


class _Scan:
    """One pre-order pass over d that files every labelled assumption leaf
    under the premise of its label's discharging node that it sits in.

    trail[k] is (node, index of its parent, premise slot) for the k-th
    node in pre-order, the root's parent being -1; a path is rebuilt from
    it only for a node that fails.  leaves maps each discharge label to
    the formulas of the leaves it binds, one list per premise of its
    discharging node, each in pre-order.  count maps each leaf label to
    the number of leaves that carry it anywhere in d, and strays holds the
    pre-order indices of the leaves outside their label's scope.

    While a premise of a discharging node is walked, scope maps its label
    to that premise's list: a switch entry (None, label, list) goes on the
    stack above each premise, and (None, label, None) below the last one
    takes the label out of scope.  error is the first discharge fault in
    pre-order, as (index, reason); it ends the pass, since a duplicate
    label would confuse the scopes."""

    def __init__(self, d: Derivation):
        self.trail: list[tuple[Derivation, int, int]] = []
        self.leaves: dict[int, list[list[Formula]]] = {}
        self.count: dict[int, int] = {}
        self.strays: list[int] = []
        self.error: tuple[int, str] | None = None
        trail, leaves, count, strays = self.trail, self.leaves, self.count, self.strays
        scope: dict[int, list[Formula]] = {}
        stack: list = [(d, -1, 0)]
        while stack:
            entry = stack.pop()
            n, parent, slot = entry
            if n is None:  # a scope switch: parent is the label, slot its list
                if slot is None:
                    scope.pop(parent, None)  # absent if the node has no premises
                else:
                    scope[parent] = slot
                continue
            k = len(trail)
            trail.append(entry)
            prems = n.premises
            l = n.discharge
            if l is None:
                if n.label is not None and n.rule is NdRule.ASSUMPTION:
                    count[n.label] = count.get(n.label, 0) + 1
                    into = scope.get(n.label)
                    if into is None:
                        strays.append(k)
                    else:
                        into.append(n.formula)
                for i in range(len(prems) - 1, -1, -1):
                    stack.append((prems[i], k, i))
                continue
            if n.rule not in DISCHARGING_RULES:
                self.error = (k, "rule cannot discharge")
                return
            if l in leaves:
                self.error = (k, f"duplicate discharge label {l}")
                return
            lists = leaves[l] = [[] for _ in prems]
            stack.append((None, l, None))
            for i in range(len(prems) - 1, -1, -1):
                stack.append((prems[i], k, i))
                stack.append((None, l, lists[i]))

    def fail(self, k: int, reason: str) -> CheckReport:
        node = self.trail[k][0]
        path = []
        while k > 0:
            _, k, slot = self.trail[k]
            path.append(slot)
        return CheckReport(False, tuple(reversed(path)), node.rule.value, reason)


def discharged_leaves(d: Derivation) -> dict[int, list[list[Formula]]]:
    """For each label discharged in a checked derivation d, the formulas of
    the leaves it binds: one list per premise of its discharging node, in
    pre-order."""
    return _Scan(d).leaves


def check_derivation(sys_id: NdSystem, d: Derivation) -> CheckReport:
    """Accept iff every node instantiates a rule of sys_id and every label
    binds only leaves in its permitted premises.  On failure name, first
    in pre-order, a discharge fault (a rule that cannot discharge, or a
    duplicate label); else a leaf label that no node discharges; else a
    node that does not fit its rule."""
    table = RULES_OF_SYSTEM[sys_id]
    scan = _Scan(d)
    if scan.error is not None:
        return scan.fail(*scan.error)
    for k in scan.strays:
        label = scan.trail[k][0].label
        if label not in scan.leaves:
            return scan.fail(k, f"leaf label {label} has no discharging node")
    leaves, count = scan.leaves, scan.count
    for k, (n, _, _) in enumerate(scan.trail):
        reason = _node_error(table, n, leaves.get(n.discharge, _UNBOUND), count)
        if reason is not None:
            return scan.fail(k, reason)
    return ACCEPT


def _uniform(leaves: Sequence[Formula]) -> bool:
    return all(f == leaves[0] for f in leaves)


def _node_error(table, n: Derivation, leaves, count: dict[int, int]) -> str | None:
    """Why n does not instantiate a rule of table, or None.  leaves holds
    the formulas of the leaves n's label binds, one list per premise."""
    r = n.rule
    if r not in table:
        return "rule not in system"
    if len(n.premises) != _ARITY[r]:
        return f"arity mismatch: expected {_ARITY[r]}, got {len(n.premises)}"
    if n.label is not None and r is not NdRule.ASSUMPTION:
        return "label field only valid on assumption leaves"
    return _schema_error(n, leaves, count)


def _discharge_ok(l: int | None, count: dict[int, int], branch_specs) -> str | None:
    """branch_specs: list of (leaf formulas of a premise, the formula its
    discharged leaves must have)."""
    if l is None:
        return None  # binds nothing; vacuous discharge
    total = 0
    for leaves, expected in branch_specs:
        total += len(leaves)
        for f in leaves:
            if f != expected:
                return f"discharged leaf {show(f)} does not match expected {show(expected)}"
    if total != count.get(l, 0):
        return f"label {l} binds leaves outside its permitted subtrees"
    return None


def _schema_error(n: Derivation, leaves, count: dict[int, int]) -> str | None:
    r, g, prems, l = n.rule, n.formula, n.premises, n.discharge
    if r is NdRule.ASSUMPTION:
        return None
    if r is NdRule.IMP_I:
        if not isinstance(g, Imp):
            return "conclusion is not an implication"
        if prems[0].formula != g.right:
            return "premise must be the consequent"
        return _discharge_ok(l, count, [(leaves[0], g.left)])
    if r is NdRule.IMP_E:
        major = prems[0].formula
        if not isinstance(major, Imp):
            return "major premise is not an implication"
        if prems[1].formula != major.left or g != major.right:
            return "minor premise or conclusion mismatch"
        return None
    if r is NdRule.AND_I:
        if not isinstance(g, And) or prems[0].formula != g.left or prems[1].formula != g.right:
            return "conclusion must conjoin the premises"
        return None
    if r in (NdRule.AND_E1, NdRule.AND_E2):
        major = prems[0].formula
        if not isinstance(major, And):
            return "major premise is not a conjunction"
        want = major.left if r is NdRule.AND_E1 else major.right
        return None if g == want else "conclusion must be the selected conjunct"
    if r in (NdRule.OR_I1, NdRule.OR_I2):
        if not isinstance(g, Or):
            return "conclusion is not a disjunction"
        want = g.left if r is NdRule.OR_I1 else g.right
        return None if prems[0].formula == want else "premise must be the selected disjunct"
    if r is NdRule.OR_E:
        major = prems[0].formula
        if not isinstance(major, Or):
            return "major premise is not a disjunction"
        if prems[1].formula != g or prems[2].formula != g:
            return "minor premises must both conclude the conclusion"
        return _discharge_ok(l, count, [(leaves[1], major.left), (leaves[2], major.right)])
    if r is NdRule.NEGNEG_I:
        ok = g == Neg(Neg(prems[0].formula))
        return None if ok else "conclusion must doubly negate the premise"
    if r is NdRule.NEGNEG_E:
        major = prems[0].formula
        ok = isinstance(major, Neg) and isinstance(major.body, Neg) and major.body.body == g
        return None if ok else "major premise must doubly negate the conclusion"
    if r is NdRule.NEG_IMP_I:
        if not (isinstance(g, Neg) and isinstance(g.body, Imp)):
            return "conclusion is not a negated implication"
        if prems[0].formula != Neg(g.body.right):
            return "premise must be the negated consequent"
        return _discharge_ok(l, count, [(leaves[0], g.body.left)])
    if r is NdRule.NEG_IMP_E:
        major = prems[0].formula
        if not (isinstance(major, Neg) and isinstance(major.body, Imp)):
            return "major premise is not a negated implication"
        if prems[1].formula != major.body.left or g != Neg(major.body.right):
            return "minor premise or conclusion mismatch"
        return None
    if r in (NdRule.NEG_AND_I1, NdRule.NEG_AND_I2):
        if not (isinstance(g, Neg) and isinstance(g.body, And)):
            return "conclusion is not a negated conjunction"
        want = Neg(g.body.left if r is NdRule.NEG_AND_I1 else g.body.right)
        return None if prems[0].formula == want else "premise must be the selected negated conjunct"
    if r is NdRule.NEG_AND_E:
        major = prems[0].formula
        if not (isinstance(major, Neg) and isinstance(major.body, And)):
            return "major premise is not a negated conjunction"
        if prems[1].formula != g or prems[2].formula != g:
            return "minor premises must both conclude the conclusion"
        return _discharge_ok(
            l, count, [(leaves[1], Neg(major.body.left)), (leaves[2], Neg(major.body.right))]
        )
    if r is NdRule.NEG_OR_I:
        if not (isinstance(g, Neg) and isinstance(g.body, Or)):
            return "conclusion is not a negated disjunction"
        if prems[0].formula != Neg(g.body.left) or prems[1].formula != Neg(g.body.right):
            return "premises must be the negated disjuncts"
        return None
    if r in (NdRule.NEG_OR_E1, NdRule.NEG_OR_E2):
        major = prems[0].formula
        if not (isinstance(major, Neg) and isinstance(major.body, Or)):
            return "major premise is not a negated disjunction"
        want = Neg(major.body.left if r is NdRule.NEG_OR_E1 else major.body.right)
        return None if g == want else "conclusion must be the selected negated disjunct"
    if r is NdRule.EM:
        if prems[0].formula != g or prems[1].formula != g:
            return "premises must both conclude the conclusion"
        alpha = _em_alpha(leaves[0], leaves[1])
        if alpha is None:
            return "discharged leaves do not determine a single excluded-middle formula"
        return _discharge_ok(l, count, [(leaves[0], Neg(alpha)), (leaves[1], alpha)])
    if r is NdRule.GEM:
        if prems[0].formula != g or prems[1].formula != g:
            return "premises must both conclude the conclusion"
        wit = _gem_witness(leaves[0], leaves[1])
        if wit is None:
            return "discharged leaves do not determine a single implication witness"
        return _discharge_ok(l, count, [(leaves[0], wit), (leaves[1], wit.left)])
    raise AssertionError(f"unhandled rule {r}")


def _em_alpha(negs: Sequence[Formula], poss: Sequence[Formula]) -> Formula | None:
    """Recover the (EM) instantiation alpha from the formulas of the leaves
    bound in its first (~alpha) and second (alpha) premise; any alpha
    serves when the discharge is fully vacuous."""
    if poss and _uniform(poss):
        alpha = poss[0]
    elif negs and _uniform(negs) and isinstance(negs[0], Neg):
        alpha = negs[0].body
    elif not negs and not poss:
        return _FALLBACK
    else:
        return None
    if all(f == Neg(alpha) for f in negs) and all(f == alpha for f in poss):
        return alpha
    return None


def _gem_witness(imps: Sequence[Formula], alphas: Sequence[Formula]) -> Imp | None:
    """Recover the (GEM) instantiation alpha -> beta from the formulas of
    the leaves bound in its first (alpha -> beta) and second (alpha)
    premise."""
    if imps and _uniform(imps) and isinstance(imps[0], Imp):
        wit = imps[0]
    elif not imps and alphas and _uniform(alphas):
        wit = Imp(alphas[0], alphas[0])
    elif not imps and not alphas:
        return _GEM_FALLBACK
    else:
        return None
    if all(f == wit for f in imps) and all(f == wit.left for f in alphas):
        return wit
    return None


_FALLBACK = Var("p")
_GEM_FALLBACK = Imp(Var("p"), Var("p"))


def require_valid(sys_id: NdSystem, d: Derivation) -> None:
    rep = check_derivation(sys_id, d)
    if not rep.ok:
        raise InvalidProof(rep)


# ---------------------------------------------------------------------------
# Maximum formulas and normality.

_MAX_CANDIDATES = INTRO_RULES | {NdRule.OR_E, NdRule.NEG_AND_E}


def maximum_formulas(d: Derivation) -> list[MaxOccurrence]:
    """Occurrences that are conclusions of an introduction rule, (or_E),
    or (neg_and_E) and the major premise of an elimination, in
    leftmost-innermost order."""

    def combine(n: Derivation, subs) -> list:
        # each path is linked from the node up: (premise index, rest or None)
        found = [((i, rest), f) for i, sub in enumerate(subs) for rest, f in sub]
        if n.rule in ELIM_RULES and n.premises[0].rule in _MAX_CANDIDATES:
            found.append(((0, None), n.premises[0].formula))
        return found

    out = []
    for link, f in fold(d, combine):
        path = []
        while link is not None:
            i, link = link
            path.append(i)
        out.append(MaxOccurrence(tuple(path), f))
    return out


def is_normal(d: Derivation) -> bool:
    return not maximum_formulas(d)


# ---------------------------------------------------------------------------
# Structural helpers used by reduction and the bridge.

def _rebuilt(n: Derivation, prems, discharge: int | None, label: int | None) -> Derivation:
    """n with new premises and labels, or n itself if none of them changed."""
    if discharge == n.discharge and label == n.label and all(a is b for a, b in zip(prems, n.premises)):
        return n
    return Derivation(n.rule, n.formula, tuple(prems), discharge, label)


def relabel(d: Derivation, mapping: dict[int, int]) -> Derivation:
    def combine(n: Derivation, prems) -> Derivation:
        return _rebuilt(n, prems, mapping.get(n.discharge, n.discharge), mapping.get(n.label, n.label))

    return fold(d, combine)


def refresh_labels(d: Derivation, start: int) -> tuple[Derivation, int]:
    """Rename the labels discharged within d to fresh ones starting at
    start; leaf labels bound outside d are left alone.  Returns the
    renamed tree and the next unused label."""
    inner = sorted(discharge_labels(d))
    if not inner:
        return d, start
    mapping = {l: start + i for i, l in enumerate(inner)}
    return relabel(d, mapping), start + len(inner)


def subst_leaves(
    d: Derivation, hit: Callable[[Derivation], bool], replacement: Derivation, next_label: int
) -> tuple[Derivation, int]:
    """Substitute a copy of replacement for every assumption leaf n of d
    with hit(n); each copy gets fresh internal labels, drawn from left to
    right.  Returns the new tree and the next unused label."""
    counter = next_label

    def combine(n: Derivation, prems) -> Derivation:
        nonlocal counter
        if n.rule is NdRule.ASSUMPTION and hit(n):
            copy, counter = refresh_labels(replacement, counter)
            return copy
        return _rebuilt(n, prems, n.discharge, n.label)

    return fold(d, combine), counter


def replace_at(d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    """d with the node at path replaced by new; only the nodes on the path
    are rebuilt."""
    spine = []
    for i in path:
        spine.append(d)
        d = d.premises[i]
    for node, i in zip(reversed(spine), reversed(path)):
        prems = list(node.premises)
        prems[i] = new
        new = Derivation(node.rule, node.formula, tuple(prems), node.discharge, node.label)
    return new


# ---------------------------------------------------------------------------
# JSON derivation format.

def derivation_to_obj(d: Derivation) -> dict:
    def combine(n: Derivation, prems) -> dict:
        if n.rule is NdRule.ASSUMPTION:
            return {"rule": n.rule.value, "formula": show(n.formula), "label": n.label}
        return {
            "rule": n.rule.value,
            "formula": show(n.formula),
            "discharge": n.discharge,
            "premises": list(prems),
        }

    return fold(d, combine)


def derivation_from_obj(obj: dict) -> Derivation:
    """Inverse of derivation_to_obj.  Malformed input raises ValueError."""
    return _from_obj(obj, {})


def _from_obj(obj: dict, formulas: dict[str, Formula]) -> Derivation:
    """derivation_from_obj, parsing each distinct formula text once:
    formulas maps the texts read so far to their formulas, and every
    occurrence of a text gets the same object."""
    if not isinstance(obj, dict):
        raise ValueError(f"derivation node must be a JSON object with a rule, got {obj!r:.80}")
    rule = NdRule(json_field(obj, "rule"))
    text = json_field(obj, "formula")
    if not isinstance(text, str):
        raise ValueError(f"formula must be a string, got {text!r:.80}")
    phi = formulas.get(text)
    if phi is None:
        phi = formulas[text] = parse(text)
    if rule is NdRule.ASSUMPTION:
        return Derivation(rule, phi, label=_label(obj, "label"))
    prems = tuple(_from_obj(p, formulas) for p in json_list(obj.get("premises", []), "premises"))
    return Derivation(rule, phi, prems, _label(obj, "discharge"))


def _label(obj: dict, name: str) -> int | None:
    value = obj.get(name)
    if value is not None and type(value) is not int:
        raise ValueError(f"{name} must be an integer or null, got {value!r:.80}")
    return value


def derivation_to_json(d: Derivation, indent: int | None = None) -> str:
    """The text of json.dumps(derivation_to_obj(d), indent=indent).  It is
    written by a pre-order walk, because json's encoder recurses once per
    level of nesting and a derivation may be deeper than the recursion
    limit allows."""

    def newline(level: int) -> str:
        return "" if indent is None else "\n" + " " * (indent * level)

    sep = ", " if indent is None else ","
    out: list[str] = []
    stack: list = [(d, 0)]  # a node and its nesting level, or text to write
    while stack:
        n, level = stack.pop()
        if isinstance(n, str):
            out.append(n)
            continue
        inner = newline(level + 1)
        out.append(
            "{" + inner + '"rule": ' + json.dumps(n.rule.value) + sep
            + inner + '"formula": ' + json.dumps(show(n.formula)) + sep + inner
        )
        if n.rule is NdRule.ASSUMPTION:
            out.append('"label": ' + json.dumps(n.label) + newline(level) + "}")
            continue
        out.append('"discharge": ' + json.dumps(n.discharge) + sep + inner + '"premises": ')
        prems = n.premises
        if not prems:
            out.append("[]" + newline(level) + "}")
            continue
        item = newline(level + 2)
        stack.append((inner + "]" + newline(level) + "}", 0))
        for i in range(len(prems) - 1, -1, -1):
            stack.append((prems[i], level + 2))
            stack.append(((sep if i else "[") + item, 0))
    return "".join(out)


def derivation_from_json(text: str) -> Derivation:
    try:
        return derivation_from_obj(json.loads(text))
    except RecursionError:
        raise ValueError("derivation file is nested too deeply") from None
