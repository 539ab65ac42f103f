"""Natural deduction for nC, nC3, nMC, nCN: derivation trees with
discharge labels, the checker, open-assumption and end-formula views,
maximum-formula detection, and the normality predicate.

Discharge labels are explicit integers (Prawitz-style assumption
classes).  A label is carried by exactly one discharging node and may
bind any number of assumption leaves (including zero: vacuous discharge
is permitted uniformly for every discharging rule).  Rules discharging
two assumption shapes (or_E, neg_and_E, EM, GEM) use a single label with
a branch-specific expected formula.

Every rule pairs with one sequent rule (SC_RULE), and each system with
one calculus (PAIRED_CALCULUS), as in the paper's equivalence proofs.
The checker reads a node's rule schema from sequent.SCHEMAS: an
introduction, EM or GEM applies it to the conclusion, an elimination to
its major premise.  The rule tables, arities and systems are read off
SC_RULE, and so are the bridge's translations in both directions.

Each walk visits a derivation's nodes once and keeps its own stack, so
its cost is linear in the derivation's size and its depth is not bounded
by the interpreter's recursion limit.  The
checker makes one pre-order pass that files every labelled leaf under
the premise of its discharging node it sits in, then checks each node
against its rule schema, a discharging node against those leaf lists.
The other walks are bottom-up folds (fold).  The JSON writer and reader
are recursions run by sequent.recurse; a file is bounded only by the
depth json.loads accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator, Sequence, TypeVar

from .checking import ACCEPT, CheckReport, InvalidProof, json_field, json_list
from .formula import Formula, Imp, Neg, Var, parse, show
from .sequent import ARITY, LEFT_RULES, RULES_OF, SCHEMAS, Calculus, Rule, language_error, recurse, same_dag


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


# An assumption pairs with an axiom, an introduction with a right rule,
# an elimination with a left rule, EM with ex-middle and GEM with
# g-ex-middle.  The eliminations of one left rule come in the order its
# schema adds the formulas they conclude.
SC_RULE = {
    NdRule.ASSUMPTION: Rule.INIT1,
    NdRule.IMP_I: Rule.IMP_RIGHT,
    NdRule.IMP_E: Rule.IMP_LEFT,
    NdRule.AND_I: Rule.AND_RIGHT,
    NdRule.AND_E1: Rule.AND_LEFT,
    NdRule.AND_E2: Rule.AND_LEFT,
    NdRule.OR_I1: Rule.OR_RIGHT1,
    NdRule.OR_I2: Rule.OR_RIGHT2,
    NdRule.OR_E: Rule.OR_LEFT,
    NdRule.NEGNEG_I: Rule.NEG_RIGHT,
    NdRule.NEGNEG_E: Rule.NEG_LEFT,
    NdRule.NEG_IMP_I: Rule.NEG_IMP_RIGHT,
    NdRule.NEG_IMP_E: Rule.NEG_IMP_LEFT,
    NdRule.NEG_AND_I1: Rule.NEG_AND_RIGHT1,
    NdRule.NEG_AND_I2: Rule.NEG_AND_RIGHT2,
    NdRule.NEG_AND_E: Rule.NEG_AND_LEFT,
    NdRule.NEG_OR_I: Rule.NEG_OR_RIGHT,
    NdRule.NEG_OR_E1: Rule.NEG_OR_LEFT,
    NdRule.NEG_OR_E2: Rule.NEG_OR_LEFT,
    NdRule.EM: Rule.EX_MIDDLE,
    NdRule.GEM: Rule.G_EX_MIDDLE,
}
PAIRED_CALCULUS = {
    NdSystem.NC: Calculus.SC,
    NdSystem.NC3: Calculus.SC3,
    NdSystem.NMC: Calculus.SMC_STAR,
    NdSystem.NCN: Calculus.SCN_STAR,
}

# (EM) and (GEM) are treated as introduction rules; their premises are
# neither major nor minor.
ELIM_RULES = frozenset(r for r, sc in SC_RULE.items() if sc in LEFT_RULES)
INTRO_RULES = frozenset(SC_RULE) - ELIM_RULES - {NdRule.ASSUMPTION}
DISCHARGING_RULES = frozenset(
    {NdRule.IMP_I, NdRule.NEG_IMP_I, NdRule.OR_E, NdRule.NEG_AND_E, NdRule.EM, NdRule.GEM}
)
# (or_E) and (neg_and_E) take the major premise on top of their left
# rule's premises; every other elimination takes it in place of the last.
_ARITY = {r: ARITY[sc] + (r in ELIM_RULES and r in DISCHARGING_RULES) for r, sc in SC_RULE.items()}
RULES_OF_SYSTEM = {
    sys_id: frozenset(r for r, sc in SC_RULE.items() if sc in RULES_OF[calc])
    for sys_id, calc in PAIRED_CALCULUS.items()
}
# For a left rule whose eliminations each conclude a formula it adds to
# its last premise: those eliminations, in the order the schema adds them.
_ELIMS = {
    sc: tuple(e for e in SC_RULE if SC_RULE[e] is sc)
    for r, sc in SC_RULE.items()
    if r in ELIM_RULES and r not in DISCHARGING_RULES
}


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Derivation:
    """A derivation node.  Equality is that of the derivations as trees,
    decided without recursion (sequent.same_dag); the hash and repr read
    the node alone.  The constructor writes the slots directly, past the
    frozen __setattr__."""

    rule: NdRule
    formula: Formula
    premises: tuple["Derivation", ...] = ()
    discharge: int | None = None  # label this node discharges
    label: int | None = None  # assumption leaves only: binding label

    def __init__(
        self,
        rule: NdRule,
        formula: Formula,
        premises: tuple = (),
        discharge: int | None = None,
        label: int | None = None,
    ):
        _set_rule(self, rule)
        _set_formula(self, formula)
        _set_premises(self, premises)
        _set_discharge(self, discharge)
        _set_label(self, label)

    def __reduce__(self):
        # rebuilt by the constructor, as sequent.SequentProof is
        return Derivation, (self.rule, self.formula, self.premises, self.discharge, self.label)

    def own(self) -> tuple:
        """What the node holds besides its premises."""
        return self.rule, self.formula, self.discharge, self.label

    def __eq__(self, other) -> bool:
        return same_dag(self, other)

    def __hash__(self) -> int:
        return hash((*self.own(), len(self.premises)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({show(self.formula)!r})"

    def node_count(self) -> int:
        return fold(self, lambda _, subs: 1 + sum(subs))

    def at(self, path: tuple[int, ...]) -> "Derivation":
        """The node reached by taking premise path[0], then path[1], ...;
        ValueError if an index is negative or past the last premise."""
        node = self
        for i in path:
            if not 0 <= i < len(node.premises):
                raise ValueError(f"no node at path {'.'.join(map(str, path))}")
            node = node.premises[i]
        return node


_set_rule, _set_formula, _set_premises, _set_discharge, _set_label = (
    getattr(Derivation, name).__set__ for name in Derivation.__match_args__
)


def assumption(phi: Formula, label: int | None = None) -> Derivation:
    return Derivation(NdRule.ASSUMPTION, phi, label=label)


@dataclass(frozen=True)
class MaxOccurrence:
    path: tuple[int, ...]
    formula: Formula


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


# Why a node does not fit its rule: its formulas do not fit the schema,
# or (for EM and GEM) its leaves determine no principal; and its premises
# are not the ones the schema gives.
_REASONS = {
    NdRule.IMP_I: ("conclusion is not an implication", "premise must be the consequent"),
    NdRule.IMP_E: ("major premise is not an implication", "minor premise or conclusion mismatch"),
    NdRule.AND_I: ("conclusion must conjoin the premises",) * 2,
    NdRule.AND_E1: ("major premise is not a conjunction", "conclusion must be the selected conjunct"),
    NdRule.AND_E2: ("major premise is not a conjunction", "conclusion must be the selected conjunct"),
    NdRule.OR_I1: ("conclusion is not a disjunction", "premise must be the selected disjunct"),
    NdRule.OR_I2: ("conclusion is not a disjunction", "premise must be the selected disjunct"),
    NdRule.OR_E: ("major premise is not a disjunction", "minor premises must both conclude the conclusion"),
    NdRule.NEGNEG_I: ("conclusion must doubly negate the premise",) * 2,
    NdRule.NEGNEG_E: ("major premise must doubly negate the conclusion",) * 2,
    NdRule.NEG_IMP_I: ("conclusion is not a negated implication", "premise must be the negated consequent"),
    NdRule.NEG_IMP_E: ("major premise is not a negated implication", "minor premise or conclusion mismatch"),
    NdRule.NEG_AND_I1: ("conclusion is not a negated conjunction", "premise must be the selected negated conjunct"),
    NdRule.NEG_AND_I2: ("conclusion is not a negated conjunction", "premise must be the selected negated conjunct"),
    NdRule.NEG_AND_E: (
        "major premise is not a negated conjunction",
        "minor premises must both conclude the conclusion",
    ),
    NdRule.NEG_OR_I: ("conclusion is not a negated disjunction", "premises must be the negated disjuncts"),
    NdRule.NEG_OR_E1: (
        "major premise is not a negated disjunction",
        "conclusion must be the selected negated disjunct",
    ),
    NdRule.NEG_OR_E2: (
        "major premise is not a negated disjunction",
        "conclusion must be the selected negated disjunct",
    ),
    NdRule.EM: (
        "discharged leaves do not determine a single excluded-middle formula",
        "premises must both conclude the conclusion",
    ),
    NdRule.GEM: (
        "discharged leaves do not determine a single implication witness",
        "premises must both conclude the conclusion",
    ),
}


def _schema_error(n: Derivation, leaves, count: dict[int, int]) -> str | None:
    """Why n does not instantiate the schema of its sequent rule, or None.

    An introduction, EM or GEM applies the schema to its conclusion, the
    principal of EM and GEM being the one its discharged leaves determine:
    the premises must conclude the specs' succedents.  An elimination
    applies it to its major premise.  The minor premises of (or_E) and
    (neg_and_E) must conclude the specs' succedents; those of the other
    eliminations the first specs' succedents, and the conclusion must be
    the formula the last spec adds that the rule selects.  A discharged
    leaf must be the formula its premise's spec adds."""
    r = n.rule
    if r is NdRule.ASSUMPTION:
        return None
    g, prems, rule = n.formula, n.premises, SC_RULE[r]
    misfit, mismatch = _REASONS[r]
    inst = None
    if r in ELIM_RULES:
        specs = SCHEMAS[rule](g, prems[0].formula)
        if specs is None:
            return misfit
        prems, leaves = prems[1:], leaves[1:]
        if rule in _ELIMS:
            if g != specs[-1][0][_ELIMS[rule].index(r)]:
                return mismatch
            specs = specs[:-1]
    else:
        recover = _RECOVER.get(r)
        if recover is not None and n.discharge is not None:
            inst = recover(*leaves)
        # a right rule ignores the principal, and the succedents of EM and
        # GEM do not depend on it; GEM's schema wants an implication
        specs = SCHEMAS[rule](g, _GEM_FALLBACK if inst is None else inst)
        if specs is None:
            return misfit
    for p, (_, s) in zip(prems, specs):
        if p.formula != s:
            return mismatch
    l = n.discharge
    if l is None:
        return None  # binds nothing; vacuous discharge
    if inst is None and r in _RECOVER:
        return misfit
    total = 0
    for bound, (added, _) in zip(leaves, specs):
        total += len(bound)
        for f in bound:
            if f != added[0]:
                return f"discharged leaf {show(f)} does not match expected {show(added[0])}"
    if total != count.get(l, 0):
        return f"label {l} binds leaves outside its permitted subtrees"
    return None


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
_RECOVER = {NdRule.EM: _em_alpha, NdRule.GEM: _gem_witness}


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
# JSON derivation format.  A node is an object: an assumption is {"rule",
# "formula", "label"}, any other node {"rule", "formula", "discharge",
# "premises": [the premises' objects]}.

def _from_obj(obj: dict, formulas: dict[str, Formula], parts: dict[tuple, Formula]) -> Generator:
    """The derivation whose node object is obj, as a generator for
    recurse, parsing each distinct formula text once: formulas maps the
    texts read so far to their formulas, and every occurrence of a text
    gets the same object; parts is parse's table, so the formulas share
    their equal parts too.  Malformed input raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"derivation node must be a JSON object with a rule, got {obj!r:.80}")
    rule = NdRule(json_field(obj, "rule"))
    text = json_field(obj, "formula")
    if not isinstance(text, str):
        raise ValueError(f"formula must be a string, got {text!r:.80}")
    phi = formulas.get(text)
    if phi is None:
        phi = formulas[text] = parse(text, parts=parts)
    if rule is NdRule.ASSUMPTION:
        return Derivation(rule, phi, label=_label(obj, "label"))
    prems = []
    for p in json_list(obj.get("premises", []), "premises"):
        prems.append((yield _from_obj(p, formulas, parts)))
    return Derivation(rule, phi, tuple(prems), _label(obj, "discharge"))


def _label(obj: dict, name: str) -> int | None:
    value = obj.get(name)
    if value is not None and type(value) is not int:
        raise ValueError(f"{name} must be an integer or null, got {value!r:.80}")
    return value


def derivation_to_json(d: Derivation, indent: int | None = None) -> str:
    """d in the JSON derivation format, as json.dumps would write its
    object with indent.  It is written by recurse, because json's encoder
    recurses once per level of nesting and a derivation may be deeper
    than the recursion limit allows."""

    def newline(level: int) -> str:
        return "" if indent is None else "\n" + " " * (indent * level)

    sep = ", " if indent is None else ","
    out: list[str] = []

    def write(n: Derivation, level: int) -> Generator:
        inner = newline(level + 1)
        out.append(
            "{" + inner + '"rule": ' + json.dumps(n.rule.value) + sep
            + inner + '"formula": ' + json.dumps(show(n.formula)) + sep + inner
        )
        if n.rule is NdRule.ASSUMPTION:
            out.append('"label": ' + json.dumps(n.label) + newline(level) + "}")
            return
        out.append('"discharge": ' + json.dumps(n.discharge) + sep + inner + '"premises": ')
        item = newline(level + 2)
        for i, p in enumerate(n.premises):
            out.append((sep if i else "[") + item)
            yield write(p, level + 2)
        out.append((inner + "]" if n.premises else "[]") + newline(level) + "}")

    recurse(write(d, 0))
    return "".join(out)


def derivation_from_json(text: str) -> Derivation:
    """Inverse of derivation_to_json.  The formulas of the file are parsed
    once per distinct text and share their equal parts (parse's parts).
    Malformed input, or a formula outside the connexive language of every
    ND system (language_error), raises ValueError."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("derivation file is nested too deeply") from None
    formulas: dict[str, Formula] = {}
    d = recurse(_from_obj(obj, formulas, {}))
    if (reason := language_error(Calculus.SC, formulas.values())) is not None:
        raise ValueError(reason)
    return d
