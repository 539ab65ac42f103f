"""Natural deduction for nC, nC3, nMC, nCN: derivation trees with
discharge labels, the checker, open-assumption and end-formula views,
maximum-formula detection, and the normality predicate.

Discharge labels are explicit integers (Prawitz-style assumption
classes).  A label is carried by exactly one discharging node and may
bind any number of assumption leaves (including zero: vacuous discharge
is permitted uniformly for every discharging rule).  Rules discharging
two assumption shapes (or_E, neg_and_E, EM, GEM) use a single label with
a branch-specific expected formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

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
        return 1 + sum(p.node_count() for p in self.premises)

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


def _walk(d: Derivation, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Derivation]]:
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _walk(p, path + (i,))


def open_assumptions(d: Derivation) -> frozenset[Formula]:
    return frozenset(
        n.formula for _, n in _walk(d) if n.rule is NdRule.ASSUMPTION and n.label is None
    )


def discharge_labels(d: Derivation) -> set[int]:
    out: set[int] = set()
    stack = [d]
    while stack:
        n = stack.pop()
        if n.discharge is not None:
            out.add(n.discharge)
        stack.extend(n.premises)
    return out


def max_label(d: Derivation) -> int:
    labels = [0]
    for _, n in _walk(d):
        if n.discharge is not None:
            labels.append(n.discharge)
        if n.label is not None:
            labels.append(n.label)
    return max(labels)


def _bound_leaves(d: Derivation, label: int) -> list[Formula]:
    return [
        n.formula
        for _, n in _walk(d)
        if n.rule is NdRule.ASSUMPTION and n.label == label
    ]


# ---------------------------------------------------------------------------
# Checker.

def check_derivation(sys_id: NdSystem, d: Derivation) -> CheckReport:
    table = RULES_OF_SYSTEM[sys_id]
    seen: dict[int, tuple[int, ...]] = {}
    for path, n in _walk(d):
        if n.discharge is not None:
            if n.rule not in DISCHARGING_RULES:
                return CheckReport(False, path, n.rule.value, "rule cannot discharge")
            if n.discharge in seen:
                return CheckReport(False, path, n.rule.value, f"duplicate discharge label {n.discharge}")
            seen[n.discharge] = path
    leaf_count: dict[int, int] = {}
    for path, n in _walk(d):
        if n.rule is NdRule.ASSUMPTION and n.label is not None:
            if n.label not in seen:
                return CheckReport(False, path, n.rule.value, f"leaf label {n.label} has no discharging node")
            leaf_count[n.label] = leaf_count.get(n.label, 0) + 1
    return _check_node(table, d, (), leaf_count)


def _fail(path, rule, reason):
    return CheckReport(False, path, rule.value, reason)


def _uniform(leaves: list[Formula]) -> bool:
    return all(f == leaves[0] for f in leaves)


def _check_node(table, n: Derivation, path, leaf_count) -> CheckReport:
    r = n.rule
    if r not in table:
        return _fail(path, r, "rule not in system")
    if len(n.premises) != _ARITY[r]:
        return _fail(path, r, f"arity mismatch: expected {_ARITY[r]}, got {len(n.premises)}")
    if n.label is not None and r is not NdRule.ASSUMPTION:
        return _fail(path, r, "label field only valid on assumption leaves")
    err = _schema_error(n, leaf_count)
    if err is not None:
        return _fail(path, r, err)
    for i, p in enumerate(n.premises):
        rep = _check_node(table, p, path + (i,), leaf_count)
        if not rep.ok:
            return rep
    return ACCEPT


def _discharge_ok(n: Derivation, leaf_count, branch_specs) -> str | None:
    """branch_specs: list of (premise, expected formula | None).  Expected
    None means the formula is determined by the leaves themselves (EM/GEM
    with nothing else pinning it down) and was resolved by the caller."""
    l = n.discharge
    if l is None:
        return None  # binds nothing; vacuous discharge
    total = 0
    for prem, expected in branch_specs:
        leaves = _bound_leaves(prem, l)
        total += len(leaves)
        for f in leaves:
            if expected is not None and f != expected:
                return f"discharged leaf {show(f)} does not match expected {show(expected)}"
    if total != leaf_count.get(l, 0):
        return f"label {l} binds leaves outside its permitted subtrees"
    return None


def _schema_error(n: Derivation, leaf_count) -> str | None:
    r, g, prems = n.rule, n.formula, n.premises
    if r is NdRule.ASSUMPTION:
        return None
    if r is NdRule.IMP_I:
        if not isinstance(g, Imp):
            return "conclusion is not an implication"
        if prems[0].formula != g.right:
            return "premise must be the consequent"
        return _discharge_ok(n, leaf_count, [(prems[0], g.left)])
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
        return _discharge_ok(n, leaf_count, [(prems[1], major.left), (prems[2], major.right)])
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
        return _discharge_ok(n, leaf_count, [(prems[0], g.body.left)])
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
            n, leaf_count, [(prems[1], Neg(major.body.left)), (prems[2], Neg(major.body.right))]
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
        alpha = _em_alpha(n)
        if alpha is None:
            return "discharged leaves do not determine a single excluded-middle formula"
        return _discharge_ok(n, leaf_count, [(prems[0], Neg(alpha)), (prems[1], alpha)])
    if r is NdRule.GEM:
        if prems[0].formula != g or prems[1].formula != g:
            return "premises must both conclude the conclusion"
        wit = _gem_witness(n)
        if wit is None:
            return "discharged leaves do not determine a single implication witness"
        return _discharge_ok(n, leaf_count, [(prems[0], wit), (prems[1], wit.left)])
    raise AssertionError(f"unhandled rule {r}")


def _em_alpha(n: Derivation) -> Formula | None:
    """Recover the (EM) instantiation alpha from the bound leaves; any
    alpha serves when the discharge is fully vacuous."""
    if n.discharge is None:
        return _FALLBACK
    negs = _bound_leaves(n.premises[0], n.discharge)
    poss = _bound_leaves(n.premises[1], n.discharge)
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


def _gem_witness(n: Derivation) -> Imp | None:
    """Recover the (GEM) instantiation alpha -> beta from the bound leaves."""
    if n.discharge is None:
        return _GEM_FALLBACK
    imps = _bound_leaves(n.premises[0], n.discharge)
    alphas = _bound_leaves(n.premises[1], n.discharge)
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
    out: list[MaxOccurrence] = []

    def visit(n: Derivation, path: tuple[int, ...]) -> None:
        for i, p in enumerate(n.premises):
            visit(p, path + (i,))
        if n.rule in ELIM_RULES and n.premises[0].rule in _MAX_CANDIDATES:
            out.append(MaxOccurrence(path + (0,), n.premises[0].formula))

    visit(d, ())
    return out


def is_normal(d: Derivation) -> bool:
    return not maximum_formulas(d)


# ---------------------------------------------------------------------------
# Structural helpers used by reduction and the bridge.

def relabel(d: Derivation, mapping: dict[int, int]) -> Derivation:
    prems = tuple(relabel(p, mapping) for p in d.premises)
    discharge = mapping.get(d.discharge, d.discharge) if d.discharge is not None else None
    label = mapping.get(d.label, d.label) if d.label is not None else None
    if prems == d.premises and discharge == d.discharge and label == d.label:
        return d
    return Derivation(d.rule, d.formula, prems, discharge, label)


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
    with hit(n); each copy gets fresh internal labels.  Returns the new
    tree and the next unused label."""

    def go(n: Derivation, counter: list[int]) -> Derivation:
        if n.rule is NdRule.ASSUMPTION and hit(n):
            copy, counter[0] = refresh_labels(replacement, counter[0])
            return copy
        prems = tuple(go(p, counter) for p in n.premises)
        if prems == n.premises:
            return n
        return Derivation(n.rule, n.formula, prems, n.discharge, n.label)

    box = [next_label]
    return go(d, box), box[0]


def bind_open(d: Derivation, target: Formula, label: int) -> Derivation:
    """Attach label to every open assumption leaf with the target formula
    (used just before adding the discharging node)."""
    if d.rule is NdRule.ASSUMPTION and d.label is None and d.formula == target:
        return Derivation(d.rule, d.formula, (), None, label)
    prems = tuple(bind_open(p, target, label) for p in d.premises)
    if prems == d.premises:
        return d
    return Derivation(d.rule, d.formula, prems, d.discharge, d.label)


def replace_at(d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    if not path:
        return new
    i = path[0]
    prems = list(d.premises)
    prems[i] = replace_at(prems[i], path[1:], new)
    return Derivation(d.rule, d.formula, tuple(prems), d.discharge, d.label)


# ---------------------------------------------------------------------------
# JSON derivation format.

def derivation_to_obj(d: Derivation) -> dict:
    if d.rule is NdRule.ASSUMPTION:
        return {"rule": d.rule.value, "formula": show(d.formula), "label": d.label}
    return {
        "rule": d.rule.value,
        "formula": show(d.formula),
        "discharge": d.discharge,
        "premises": [derivation_to_obj(p) for p in d.premises],
    }


def derivation_from_obj(obj: dict) -> Derivation:
    """Inverse of derivation_to_obj.  Malformed input raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"derivation node must be a JSON object with a rule, got {obj!r:.80}")
    rule = NdRule(json_field(obj, "rule"))
    text = json_field(obj, "formula")
    if not isinstance(text, str):
        raise ValueError(f"formula must be a string, got {text!r:.80}")
    phi = parse(text)
    if rule is NdRule.ASSUMPTION:
        return Derivation(rule, phi, label=_label(obj, "label"))
    prems = tuple(derivation_from_obj(p) for p in json_list(obj.get("premises", []), "premises"))
    return Derivation(rule, phi, prems, _label(obj, "discharge"))


def _label(obj: dict, name: str) -> int | None:
    value = obj.get(name)
    if value is not None and type(value) is not int:
        raise ValueError(f"{name} must be an integer or null, got {value!r:.80}")
    return value


def derivation_to_json(d: Derivation, indent: int | None = None) -> str:
    return json.dumps(derivation_to_obj(d), indent=indent)


def derivation_from_json(text: str) -> Derivation:
    try:
        return derivation_from_obj(json.loads(text))
    except RecursionError:
        raise ValueError("derivation file is nested too deeply") from None
