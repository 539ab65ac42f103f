"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from typing import Iterator

from connexive.formula import And, Formula, Imp, Neg, Or, Var, closure_set, key, show
from connexive.natded import (
    RULES_OF_SYSTEM,
    Derivation,
    NdRule,
    NdSystem,
    assumption,
    check_derivation,
    max_label,
    open_assumptions,
    replace_at,
)
from connexive.natded import fold as nd_fold
from connexive.sequent import CONNEXIVE_CALCULI, STARRED, Rule, Sequent, SequentProof, fold, seq

ATOMS = (Var("p"), Var("q"), Var("r"))


# ---------------------------------------------------------------------------
# Walks over a formula's occurrences, for checks on what the program builds.

def size(phi: Formula) -> int:
    """Number of connective and atom nodes."""
    return sum(1 for _ in subformulas(phi))


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformulas including phi itself, one per occurrence, in
    pre-order (a node, then its left, then its right part).  The walk
    keeps its own stack, so no depth of formula can overflow it."""
    todo = [phi]
    while todo:
        f = todo.pop()
        yield f
        if isinstance(f, Neg):
            todo.append(f.body)
        elif not isinstance(f, Var):
            todo.append(f.right)
            todo.append(f.left)


def atoms(phi: Formula) -> set[Var]:
    return {f for f in subformulas(phi) if isinstance(f, Var)}


def has_negation(phi: Formula) -> bool:
    return any(isinstance(f, Neg) for f in subformulas(phi))


def has_primed(phi: Formula) -> bool:
    return any(f.primed for f in atoms(phi))


# ---------------------------------------------------------------------------
# A proof whose sharing makes its tree exponential.

def shared_or_chain(n: int) -> SequentProof:
    """Valid sc proof of r, q0 | q0, ..., q{n-1} | q{n-1} => r: n (or left)
    nodes, each taking one object as both premises, over an (init1) leaf.
    It has n + 1 distinct nodes and 2^(n+1) - 1 as a tree."""
    r = Var("r")
    qs = [Var(f"q{i}") for i in range(n)]
    ors = [Or(q, q) for q in qs]
    node = SequentProof(seq([r, *qs], r), Rule.INIT1)
    for k in reversed(range(n)):
        node = SequentProof(seq([r, *qs[:k], *ors[k:]], r), Rule.OR_LEFT, ors[k], (node, node))
    return node


def and_left_tower(n: int) -> SequentProof:
    """Valid sc proof of p & p, p => p that is n + 1 levels deep: n
    (and left) nodes that keep their principal, over an (init1) leaf."""
    p = Var("p")
    pp = And(p, p)
    node = SequentProof(seq([pp, p], p), Rule.INIT1)
    for _ in range(n):
        node = SequentProof(seq([pp, p], p), Rule.AND_LEFT, pp, (node,))
    return node


# ---------------------------------------------------------------------------
# The nested proof layout, which proof files had before the formula table.
# proof_from_json no longer reads it; it stays as the reference writer
# whose output test_proof_json_digest_unchanged hashes.

def reference_proof_to_obj(proof: SequentProof) -> dict:
    """A proof as an object of the nested layout: a node is {"rule",
    "sequent": {"ctx", "suc"}, "principal", "premises"}, and a node
    already written in full is written again as {"ref": k}, where k counts
    the full nodes in the order they end.  Recursive, so only for proofs
    shallower than the recursion limit."""
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


# A derivation as the object that derivation_to_json writes: an assumption
# is {"rule", "formula", "label"}, any other node {"rule", "formula",
# "discharge", "premises"}.  One dict per occurrence, since relabelled_json
# changes the dicts in place.

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

    return nd_fold(d, combine)


# Files in the table layout that proof_from_json rejects, each with a part
# of its message: a valid file is {"formulas": ["p", "p -> p"], "nodes":
# [<init1 p => p>, <imp_right => p -> p over node 0>]}.
def _table_file(nodes, formulas=("p", "p -> p")) -> dict:
    return {"formulas": list(formulas), "nodes": nodes}


_LEAF = {"rule": "init1", "ctx": [0], "suc": 0, "principal": None, "premises": []}
MALFORMED_TABLE_FILES = [
    (_table_file([{**_LEAF, "premises": [0]}]), "node 0 premise index 0 is not an integer in range(0)"),
    (_table_file([{**_LEAF, "rule": "imp_right", "ctx": [], "suc": 1, "premises": [1]}, _LEAF]),
     "node 0 premise index 1"),
    (_table_file([_LEAF, {**_LEAF, "rule": "imp_right", "ctx": [], "suc": 1, "premises": [-1]}]),
     "node 1 premise index -1"),
    (_table_file([{**_LEAF, "ctx": [2]}]), "node 0 formula index 2 is not an integer in range(2)"),
    (_table_file([{**_LEAF, "suc": True}]), "node 0 formula index True"),
    (_table_file([{**_LEAF, "principal": 0.0}]), "node 0 formula index 0.0"),
    (_table_file([{**_LEAF, "ctx": 0}]), "ctx must be a list"),
    (_table_file([[]]), "node 0 must be a JSON object"),
    (_table_file([{"ctx": [0], "suc": 0}]), "missing field 'rule'"),
    ({"nodes": [_LEAF]}, "missing field 'formulas'"),
    ({"formulas": ["p"]}, "missing field 'nodes'"),
    (_table_file([]), "nodes must not be empty"),
    (_table_file([_LEAF], formulas=["p &&"]), "expected"),
    (_table_file([_LEAF], formulas=[1]), "formula must be a string"),
    (_table_file([{**_LEAF, "premises": 0}]), "premises must be a list"),
    ({"formulas": "p", "nodes": [_LEAF]}, "formulas must be a list"),
    (_table_file({}), "nodes must be a list"),
    (_table_file([{**_LEAF, "rule": ["x"]}]), "not a valid"),
    (_table_file([{**_LEAF, "rule": 1}]), "not a valid"),
]


# ---------------------------------------------------------------------------
# Random formulas and sequents.

def rand_formula(rng: random.Random, max_size: int, atoms=ATOMS, allow_neg: bool = True) -> Formula:
    return _build(rng, rng.randint(1, max_size), atoms, allow_neg)


def _build(rng, n, atoms, allow_neg):
    if n <= 1 or (n == 2 and not allow_neg):
        return rng.choice(atoms)
    if allow_neg and (n == 2 or rng.random() < 0.3):
        return Neg(_build(rng, n - 1, atoms, allow_neg))
    k = rng.randint(1, n - 2)
    conn = rng.choice((And, Or, Imp))
    return conn(_build(rng, k, atoms, allow_neg), _build(rng, n - 1 - k, atoms, allow_neg))


def rand_sequent(
    rng: random.Random, max_size: int, max_ctx: int = 2, atoms=ATOMS, allow_neg: bool = True
) -> Sequent:
    ctx = [rand_formula(rng, max_size, atoms, allow_neg) for _ in range(rng.randint(0, max_ctx))]
    return seq(ctx, rand_formula(rng, max_size, atoms, allow_neg))


def bind_open(d: Derivation, target: Formula, label: int) -> Derivation:
    """Attach label to every open assumption leaf with the target formula
    (used just before adding the discharging node)."""
    if d.rule is NdRule.ASSUMPTION and d.label is None and d.formula == target:
        return Derivation(d.rule, d.formula, (), None, label)
    prems = tuple(bind_open(p, target, label) for p in d.premises)
    if prems == d.premises:
        return d
    return Derivation(d.rule, d.formula, prems, d.discharge, d.label)


# ---------------------------------------------------------------------------
# Random checker-valid natural deduction derivations, built bottom-up by
# wrapping a growing derivation in randomly chosen rule applications.

def rand_derivation(rng: random.Random, sys_id: NdSystem, max_nodes: int = 15, atoms=ATOMS) -> Derivation:
    counter = [1]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    def small() -> Formula:
        return rand_formula(rng, 3, atoms)

    d = assumption(small())
    while d.node_count() < max_nodes:
        d = _grow(rng, sys_id, d, fresh, small)
    rep = check_derivation(sys_id, d)
    assert rep.ok, rep.message()
    return d


def _grow(rng, sys_id, d, fresh, small):
    phi = d.formula
    rules = RULES_OF_SYSTEM[sys_id]

    def pick_hyp() -> Formula:
        opened = sorted(open_assumptions(d), key=key)
        if opened and rng.random() < 0.7:
            return rng.choice(opened)
        return small()

    options = []

    def imp_i():
        a = pick_hyp()
        l = fresh()
        return Derivation(NdRule.IMP_I, Imp(a, phi), (bind_open(d, a, l),), l)

    def imp_e():
        b = small()
        return Derivation(NdRule.IMP_E, b, (assumption(Imp(phi, b)), d))

    def and_i():
        other = small()
        return Derivation(NdRule.AND_I, And(phi, other), (d, assumption(other)))

    def or_i():
        if rng.random() < 0.5:
            return Derivation(NdRule.OR_I1, Or(phi, small()), (d,))
        return Derivation(NdRule.OR_I2, Or(small(), phi), (d,))

    def negneg_i():
        return Derivation(NdRule.NEGNEG_I, Neg(Neg(phi)), (d,))

    def or_e():
        a, b = pick_hyp(), small()
        l = fresh()
        major = assumption(Or(a, b))
        return Derivation(NdRule.OR_E, phi, (major, bind_open(d, a, l), assumption(phi)), l)

    def neg_imp_e():
        b = small()
        return Derivation(NdRule.NEG_IMP_E, Neg(b), (assumption(Neg(Imp(phi, b))), d))

    options += [imp_i, imp_e, and_i, or_i, negneg_i, or_e, neg_imp_e]

    if isinstance(phi, And):
        options.append(lambda: Derivation(NdRule.AND_E1, phi.left, (d,)))
        options.append(lambda: Derivation(NdRule.AND_E2, phi.right, (d,)))
    if isinstance(phi, Neg) and isinstance(phi.body, Neg):
        options.append(lambda: Derivation(NdRule.NEGNEG_E, phi.body.body, (d,)))
    if isinstance(phi, Neg) and isinstance(phi.body, Or):
        options.append(lambda: Derivation(NdRule.NEG_OR_E1, Neg(phi.body.left), (d,)))
        options.append(lambda: Derivation(NdRule.NEG_OR_E2, Neg(phi.body.right), (d,)))
    if isinstance(phi, Neg):

        def neg_imp_i():
            a = pick_hyp()
            l = fresh()
            return Derivation(NdRule.NEG_IMP_I, Neg(Imp(a, phi.body)), (bind_open(d, a, l),), l)

        def neg_and_i():
            if rng.random() < 0.5:
                return Derivation(NdRule.NEG_AND_I1, Neg(And(phi.body, small())), (d,))
            return Derivation(NdRule.NEG_AND_I2, Neg(And(small(), phi.body)), (d,))

        def neg_or_i():
            other = small()
            return Derivation(
                NdRule.NEG_OR_I, Neg(Or(phi.body, other)), (d, assumption(Neg(other)))
            )

        def neg_and_e():
            a, b = phi.body, small()
            l = fresh()
            major = assumption(Neg(And(a, b)))
            # branch 1 binds ~a leaves; phi is ~a so d's own open ~a leaves qualify
            return Derivation(NdRule.NEG_AND_E, phi, (major, bind_open(d, Neg(a), l), assumption(phi)), l)

        options += [neg_imp_i, neg_and_i, neg_or_i, neg_and_e]

    if NdRule.EM in rules:

        def em():
            a = small()
            l = fresh()
            return Derivation(NdRule.EM, phi, (bind_open(d, Neg(a), l), assumption(phi)), l)

        options.append(em)
    if NdRule.GEM in rules:

        def gem():
            a, b = small(), small()
            l = fresh()
            return Derivation(NdRule.GEM, phi, (bind_open(d, Imp(a, b), l), assumption(phi)), l)

        options.append(gem)

    return rng.choice(options)()


# ---------------------------------------------------------------------------
# Detour planting: wrap a subderivation in an introduction immediately
# eliminated, creating a maximum formula at a known spot.

def plant_detour(rng: random.Random, d: Derivation, path: tuple[int, ...] = ()) -> Derivation:
    node = d.at(path)
    phi = node.formula
    fresh = max_label(d) + 1
    kind = rng.randrange(4)
    if kind == 0:
        inner = Derivation(NdRule.NEGNEG_I, Neg(Neg(phi)), (node,))
        new = Derivation(NdRule.NEGNEG_E, phi, (inner,))
    elif kind == 1:
        other = rand_formula(rng, 3)
        inner = Derivation(NdRule.AND_I, And(phi, other), (node, assumption(other)))
        new = Derivation(NdRule.AND_E1, phi, (inner,))
    elif kind == 2:
        a = rand_formula(rng, 3)
        body = Derivation(NdRule.IMP_I, Imp(a, phi), (bind_open(node, a, fresh),), fresh)
        new = Derivation(NdRule.IMP_E, phi, (body, assumption(a)))
    else:
        a, b = rand_formula(rng, 2), rand_formula(rng, 2)
        major = Derivation(NdRule.OR_I1, Or(a, b), (assumption(a),))
        new = Derivation(
            NdRule.OR_E, phi, (major, bind_open(node, a, fresh), assumption(phi)), fresh
        )
    return replace_at(d, path, new)


def plant_detours(rng: random.Random, sys_id: NdSystem, d: Derivation, count: int) -> Derivation:
    for _ in range(count):
        paths = [()]
        if d.premises:
            paths.append((rng.randrange(len(d.premises)),))
        d = plant_detour(rng, d, rng.choice(paths))
    rep = check_derivation(sys_id, d)
    assert rep.ok, rep.message()
    return d


# ---------------------------------------------------------------------------
# Mutated derivations: valid ones with random faults, for checker tests.

def _node_paths(d: Derivation) -> list[tuple[int, ...]]:
    paths, stack = [], [((), d)]
    while stack:
        path, n = stack.pop()
        paths.append(path)
        stack.extend((path + (i,), p) for i, p in enumerate(n.premises))
    return paths


def mutate(rng: random.Random, d: Derivation) -> Derivation:
    """d with one node changed: its formula, rule, discharge label, leaf
    label, or premise list."""
    paths = _node_paths(d)
    path = rng.choice(paths)
    n = d.at(path)
    rule, phi, prems, discharge, label = n.rule, n.formula, list(n.premises), n.discharge, n.label
    labels = [None, *range(1, max_label(d) + 2)]
    kind = rng.randrange(5)
    if kind == 0:
        phi = rng.choice([d.at(q).formula for q in paths] + [rand_formula(rng, 3)])
    elif kind == 1:
        rule = rng.choice(list(NdRule))
    elif kind == 2:
        discharge = rng.choice(labels)
    elif kind == 3:
        label = rng.choice(labels)
    elif prems and rng.random() < 0.5:
        i = rng.randrange(len(prems))
        if rng.random() < 0.5:
            del prems[i]
        else:
            prems.insert(rng.randrange(len(prems) + 1), prems[i])
    else:
        prems.insert(rng.randrange(len(prems) + 1), assumption(rand_formula(rng, 3), rng.choice(labels)))
    return replace_at(d, path, Derivation(rule, phi, tuple(prems), discharge, label))


def mutated_derivations(rng: random.Random, count: int):
    """count pairs (system, derivation): a random derivation, with planted
    detours half the time, after 0-3 mutations."""
    systems = list(NdSystem)
    for k in range(count):
        sys_id = systems[k % len(systems)]
        d = rand_derivation(rng, sys_id, max_nodes=rng.randint(2, 16))
        if rng.random() < 0.5:
            d = plant_detours(rng, sys_id, d, rng.randint(1, 2))
        for _ in range(rng.randint(0, 3)):
            d = mutate(rng, d)
        yield sys_id, d


def mutate_proof(rng: random.Random, proof: SequentProof) -> SequentProof:
    """proof with one distinct node changed, in every place it is shared:
    its rule swapped for another, a premise dropped, a context formula of
    its conclusion replaced, or its principal replaced."""
    nodes = []
    fold(proof, lambda node, subs: nodes.append(node))
    kind = rng.randrange(4) if proof.premises else rng.choice((0, 2, 3))
    target = rng.choice([node for node in nodes if node.premises or kind != 1])
    if kind == 2:
        ctx = target.conclusion.sorted_ctx()
        if ctx:
            ctx[rng.randrange(len(ctx))] = rand_formula(rng, 3)
        else:
            ctx = [rand_formula(rng, 3)]
        new_ctx = frozenset(ctx)
    replacement = rand_formula(rng, 3) if kind == 3 else None
    swapped = rng.choice([rule for rule in Rule if rule is not target.rule]) if kind == 0 else None
    dropped = rng.randrange(len(target.premises)) if kind == 1 else None

    def combine(node: SequentProof, subs: list[SequentProof]) -> SequentProof:
        conclusion, rule, principal = node.conclusion, node.rule, node.principal
        if node is target:
            if kind == 0:
                rule = swapped
            elif kind == 1:
                del subs[dropped]
            elif kind == 2:
                conclusion = Sequent(new_ctx, conclusion.suc)
            elif kind == 3:
                principal = replacement
        return SequentProof(conclusion, rule, principal, tuple(subs))

    return fold(proof, combine)


def native_decide(calc, s: Sequent, cfg=None):
    """decide by the connexive search alone: smc and scn without the
    route through the embedding f, and the other calculi as decide
    decides them.  The digests that pin the connexive search, which the
    starred calculi still use, hash what this returns."""
    from connexive.prover import _native, decide

    return _native(calc, s, cfg) if calc in STARRED else decide(calc, s, cfg)


def mutated_proofs(rng: random.Random, count: int):
    """count pairs (calculus, proof): the proof the connexive search finds
    for a random provable sequent, after one mutation (mutate_proof)."""
    from connexive.prover import Verdict

    calculi = sorted(CONNEXIVE_CALCULI)
    made = 0
    while made < count:
        calc = calculi[made % len(calculi)]
        res = native_decide(calc, rand_sequent(rng, 8))
        if res.verdict is Verdict.PROVABLE:
            made += 1
            yield calc, mutate_proof(rng, res.proof)


# ---------------------------------------------------------------------------
# Independent brute-force decision procedure for sC3 with the (ex-middle)
# rule instantiated by every formula of the goal's closure.  Backward search
# with full context retention (weakening is admissible, so retention loses
# no provable sequents), branch-history loop pruning, and caching of
# successes plus of failures that consulted no branch ancestor.  Instances
# whose premises all follow from the conclusion by weakening or a cut
# against an identity (the invertible ones) are committed to eagerly.
# Successes are shared across oracles; failures only within one universe.

_NO_DEP = 1 << 30
_ORACLE_PROVED: set[Sequent] = set()
_ORACLES: dict[frozenset[Formula], "_BruteOracle"] = {}


class _BruteOracle:
    def __init__(self, universe: frozenset[Formula]):
        self.universe = sorted(universe, key=key)
        self.failed: set[Sequent] = set()
        self.onpath: dict[Sequent, int] = {}

    def committed(self, t: Sequent):
        """Premises of an invertible instance, or None."""
        c, g = t.ctx, t.suc
        if isinstance(g, Imp):
            return [Sequent(c | {g.left}, g.right)]
        if isinstance(g, And):
            return [Sequent(c, g.left), Sequent(c, g.right)]
        if isinstance(g, Neg):
            b = g.body
            if isinstance(b, Neg):
                return [Sequent(c, b.body)]
            if isinstance(b, Imp):
                return [Sequent(c | {b.left}, Neg(b.right))]
            if isinstance(b, Or):
                return [Sequent(c, Neg(b.left)), Sequent(c, Neg(b.right))]
        for f in c:
            prems = None
            if isinstance(f, And):
                prems = [Sequent(c | {f.left, f.right}, g)]
            elif isinstance(f, Or):
                prems = [Sequent(c | {f.left}, g), Sequent(c | {f.right}, g)]
            elif isinstance(f, Neg):
                b = f.body
                if isinstance(b, Neg):
                    prems = [Sequent(c | {b.body}, g)]
                elif isinstance(b, And):
                    prems = [Sequent(c | {Neg(b.left)}, g), Sequent(c | {Neg(b.right)}, g)]
                elif isinstance(b, Or):
                    prems = [Sequent(c | {Neg(b.left), Neg(b.right)}, g)]
            if prems is not None and not any(x == t for x in prems):
                return prems
        return None

    def choices(self, t: Sequent):
        c, g = t.ctx, t.suc
        if isinstance(g, Or):
            yield [Sequent(c, g.left)]
            yield [Sequent(c, g.right)]
        if isinstance(g, Neg) and isinstance(g.body, And):
            yield [Sequent(c, Neg(g.body.left))]
            yield [Sequent(c, Neg(g.body.right))]
        for f in c:
            if isinstance(f, Imp):
                yield [Sequent(c, f.left), Sequent(c | {f.right}, g)]
            elif isinstance(f, Neg) and isinstance(f.body, Imp):
                b = f.body
                yield [Sequent(c, b.left), Sequent(c | {Neg(b.right)}, g)]
        for a in self.universe:
            yield [Sequent(c | {Neg(a)}, g), Sequent(c | {a}, g)]

    def axiom(self, t: Sequent) -> bool:
        g = t.suc
        if isinstance(g, Var):
            return g in t.ctx
        return isinstance(g, Neg) and isinstance(g.body, Var) and g in t.ctx

    def search(self, t: Sequent, depth: int) -> tuple[bool, int]:
        if t in _ORACLE_PROVED:
            return True, _NO_DEP
        if t in self.failed:
            return False, _NO_DEP
        if t in self.onpath:
            return False, self.onpath[t]
        if self.axiom(t):
            _ORACLE_PROVED.add(t)
            return True, _NO_DEP
        committed = self.committed(t)
        instances = [committed] if committed is not None else [
            prems for prems in self.choices(t) if not any(p == t for p in prems)
        ]
        self.onpath[t] = depth
        min_dep = _NO_DEP
        try:
            for prems in instances:
                inst_dep = _NO_DEP
                ok = True
                for prem in prems:
                    good, dep = self.search(prem, depth + 1)
                    if not good:
                        ok = False
                        inst_dep = dep
                        break
                if ok:
                    _ORACLE_PROVED.add(t)
                    return True, _NO_DEP
                min_dep = min(min_dep, inst_dep)
        finally:
            del self.onpath[t]
        if min_dep >= depth:
            self.failed.add(t)
            return False, _NO_DEP
        return False, min_dep


def brute_force_sc3(s: Sequent) -> bool:
    import sys

    limit = sys.getrecursionlimit()
    if limit < 100_000:
        sys.setrecursionlimit(100_000)  # the oracle recurses once per branch level
    try:
        universe = closure_set({s.suc} | s.ctx)
        oracle = _ORACLES.get(universe)
        if oracle is None:
            oracle = _ORACLES[universe] = _BruteOracle(universe)
        return oracle.search(s, 0)[0]
    finally:
        sys.setrecursionlimit(limit)  # the caller's limit


# ---------------------------------------------------------------------------
# Exhaustive enumeration of formulas over a fixed atom set.

def all_formulas(atoms: tuple[Var, ...], max_size: int) -> list[Formula]:
    by_size: dict[int, list[Formula]] = {1: list(atoms)}
    for n in range(2, max_size + 1):
        layer: list[Formula] = [Neg(f) for f in by_size[n - 1]]
        for k in range(1, n - 1):
            for left in by_size[k]:
                for right in by_size[n - 1 - k]:
                    layer += [And(left, right), Or(left, right), Imp(left, right)]
        by_size[n] = layer
    return [f for n in range(1, max_size + 1) for f in by_size[n]]
