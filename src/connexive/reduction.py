"""The single-step reduction relation on natural deduction derivations
and a bounded direct normalizer.

Detour contractions remove an introduction immediately eliminated;
permutations push an elimination above (or_E), (neg_and_E), (EM), or
(GEM), copying the elimination's minor premises into both branches with
fresh labels for everything duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .checking import InvalidProof
from .natded import (
    Derivation,
    MaxOccurrence,
    NdRule,
    NdSystem,
    check_derivation,
    discharge_labels,
    is_normal,
    max_label,
    maximum_formulas,
    relabel,
    replace_at,
    require_valid,
    subst_leaves,
)


class ReductionKind(str, Enum):
    DETOUR_IMP = "DetourImp"
    DETOUR_AND = "DetourAnd"
    DETOUR_OR = "DetourOr"
    PERM_OR_E = "PermOrE"
    DETOUR_NEGNEG = "DetourNegNeg"
    DETOUR_NEG_IMP = "DetourNegImp"
    DETOUR_NEG_AND = "DetourNegAnd"
    PERM_NEG_AND_E = "PermNegAndE"
    DETOUR_NEG_OR = "DetourNegOr"
    PERM_EM = "PermEM"
    PERM_GEM = "PermGEM"


_KIND_OF_MAJOR = {
    NdRule.IMP_I: ReductionKind.DETOUR_IMP,
    NdRule.AND_I: ReductionKind.DETOUR_AND,
    NdRule.OR_I1: ReductionKind.DETOUR_OR,
    NdRule.OR_I2: ReductionKind.DETOUR_OR,
    NdRule.OR_E: ReductionKind.PERM_OR_E,
    NdRule.NEGNEG_I: ReductionKind.DETOUR_NEGNEG,
    NdRule.NEG_IMP_I: ReductionKind.DETOUR_NEG_IMP,
    NdRule.NEG_AND_I1: ReductionKind.DETOUR_NEG_AND,
    NdRule.NEG_AND_I2: ReductionKind.DETOUR_NEG_AND,
    NdRule.NEG_AND_E: ReductionKind.PERM_NEG_AND_E,
    NdRule.NEG_OR_I: ReductionKind.DETOUR_NEG_OR,
    NdRule.EM: ReductionKind.PERM_EM,
    NdRule.GEM: ReductionKind.PERM_GEM,
}


def classify(d: Derivation, at: MaxOccurrence) -> ReductionKind:
    return _KIND_OF_MAJOR[d.at(at.path).rule]


def reduce_step(sys_id: NdSystem, d: Derivation, at: MaxOccurrence) -> Derivation:
    require_valid(sys_id, d)
    if at not in maximum_formulas(d):
        raise ValueError("not a maximum occurrence of the derivation")
    return _reduce_step(sys_id, d, at)


def _reduce_step(sys_id: NdSystem, d: Derivation, at: MaxOccurrence) -> Derivation:
    """reduce_step on a derivation already checked, at one of its maximum
    occurrences; the contractum is still checked."""
    parent_path = at.path[:-1]
    parent = d.at(parent_path)
    fresh = max_label(d) + 1
    new = _contract(parent, fresh)
    out = replace_at(d, parent_path, new)
    rep = check_derivation(sys_id, out)
    if not rep.ok:
        raise InvalidProof(rep)
    return out


def _contract(parent: Derivation, fresh: int) -> Derivation:
    """parent is an elimination whose major premise is an introduction,
    or_E, neg_and_E, EM, or GEM conclusion; returns the contractum."""
    major = parent.premises[0]
    r = major.rule
    if r in (NdRule.IMP_I, NdRule.NEG_IMP_I):
        body, minor = major.premises[0], parent.premises[1]
        if major.discharge is None:
            return body
        return subst_leaves(body, lambda n: n.label == major.discharge, minor, fresh)[0]
    if r is NdRule.AND_I:
        return major.premises[0] if parent.rule is NdRule.AND_E1 else major.premises[1]
    if r is NdRule.NEG_OR_I:
        return major.premises[0] if parent.rule is NdRule.NEG_OR_E1 else major.premises[1]
    if r is NdRule.NEGNEG_I:
        return major.premises[0]
    if r in (NdRule.OR_I1, NdRule.NEG_AND_I1, NdRule.OR_I2, NdRule.NEG_AND_I2):
        branch = parent.premises[1 if r in (NdRule.OR_I1, NdRule.NEG_AND_I1) else 2]
        inner = major.premises[0]
        if parent.discharge is None:
            return branch
        return subst_leaves(branch, lambda n: n.label == parent.discharge, inner, fresh)[0]
    if r in (NdRule.OR_E, NdRule.NEG_AND_E, NdRule.EM, NdRule.GEM):
        return _permute(parent, 0, fresh)
    raise AssertionError(f"no reduction clause for major rule {r.value}")


def _permute(parent: Derivation, idx: int, fresh: int) -> Derivation:
    """Push rule R' (the parent) above the branching node at premise idx,
    duplicating R' and its other premises into both branches."""
    node = parent.premises[idx]
    branch_at = 1 if node.rule in (NdRule.OR_E, NdRule.NEG_AND_E) else 0
    branches = node.premises[branch_at : branch_at + 2]

    def wrap(branch: Derivation, refresh: bool) -> Derivation:
        prems = list(parent.premises)
        prems[idx] = branch
        copy = Derivation(parent.rule, parent.formula, tuple(prems), parent.discharge)
        if not refresh:
            return copy
        # rename every duplicated label: those of the parent and of its
        # other premises, but not those inside the branch itself
        dup = set(discharge_labels(copy)) - set(discharge_labels(branch))
        mapping = {l: fresh + i for i, l in enumerate(sorted(dup))}
        return relabel(copy, mapping)

    new_prems = list(node.premises)
    new_prems[branch_at] = wrap(branches[0], refresh=False)
    new_prems[branch_at + 1] = wrap(branches[1], refresh=True)
    return Derivation(node.rule, parent.formula, tuple(new_prems), node.discharge)


@dataclass(frozen=True)
class NormalizationResult:
    derivation: Derivation
    steps: int
    completed: bool  # False means the step limit was hit first


def normalize_by_reduction(
    sys_id: NdSystem, d: Derivation, max_steps: int = 10_000
) -> NormalizationResult:
    """Repeatedly contract the leftmost-innermost maximum occurrence."""
    require_valid(sys_id, d)
    steps = 0
    while steps < max_steps:
        maxima = maximum_formulas(d)
        if not maxima:
            return NormalizationResult(d, steps, True)
        d = _reduce_step(sys_id, d, maxima[0])
        steps += 1
    return NormalizationResult(d, steps, is_normal(d))
