"""Seeded inputs for the benchmark workloads, owned by the benchmark.

Formulas are plain tuples, independent of the program's own classes:
("var", name), ("neg", a), ("and", a, b), ("or", a, b), ("imp", a, b).
They reach the program as text (the `connexive` CLI's input form) or as
derivation JSON in the format `derivation_from_json` reads.  The
generators mirror the test suite's helpers but are copied here, so an
edit to the tests never changes a workload.

The four-valued evaluator here is written independently of
`connexive.prover.Tables`: it enumerates valuations one at a time.  A
valuation gives each atom a truth bit and a falsity bit; implication
is false when the antecedent is untrue or the consequent is false (the
connexive falsity condition).  Calculi with excluded middle admit only
valuations where every atom is true or false.  Every rule of every
connexive calculus is sound for this semantics, so a sequent it refutes
is unprovable.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

ATOMS = (("var", "p"), ("var", "q"), ("var", "r"))
P, Q, R = ATOMS

# calculi whose rules include excluded middle (the t-or-f restriction)
EX_MIDDLE_CALCULI = frozenset({"sc3", "scn", "scn-star"})
PROVE_CALCULI = ("sc", "sc3", "smc", "scn", "smc-star", "scn-star")
MATRIX_CALCULI = ("sc", "sc3", "smc", "scn")
ND_SYSTEMS = ("nc", "nc3", "nmc", "ncn")


def neg(a):
    return ("neg", a)


def conj(a, b):
    return ("and", a, b)


def disj(a, b):
    return ("or", a, b)


def imp(a, b):
    return ("imp", a, b)


_SYMBOL = {"and": "&", "or": "|", "imp": "->"}


def text(f) -> str:
    """Concrete syntax with every binary connective parenthesized."""
    if f[0] == "var":
        return f[1]
    if f[0] == "neg":
        return "~" + text(f[1])
    return f"({text(f[1])} {_SYMBOL[f[0]]} {text(f[2])})"


def sequent_text(ctx, suc) -> str:
    return ", ".join(text(f) for f in ctx) + " => " + text(suc)


def to_formula(f):
    """The program's formula object for f, built with its public
    constructors rather than its parser."""
    from connexive import And, Imp, Neg, Or, Var

    if f[0] == "var":
        return Var(f[1])
    if f[0] == "neg":
        return Neg(to_formula(f[1]))
    cls = {"and": And, "or": Or, "imp": Imp}[f[0]]
    return cls(to_formula(f[1]), to_formula(f[2]))


# ---------------------------------------------------------------------------
# Four-valued evaluator.

_FOUR = ((1, 0), (0, 1), (1, 1), (0, 0))
_THREE = _FOUR[:3]


def _value(f, v):
    """(truth bit, falsity bit) of f under valuation v (atom -> pair)."""
    tag = f[0]
    if tag == "var":
        return v[f[1]]
    if tag == "neg":
        t, fl = _value(f[1], v)
        return fl, t
    ta, fa = _value(f[1], v)
    tb, fb = _value(f[2], v)
    if tag == "and":
        return ta & tb, fa | fb
    if tag == "or":
        return ta | tb, fa & fb
    return (1 - ta) | tb, (1 - ta) | fb


def _atoms(f, out: set) -> set:
    if f[0] == "var":
        out.add(f[1])
    else:
        for x in f[1:]:
            _atoms(x, out)
    return out


def refuted(ctx, suc, t_or_f: bool) -> bool:
    """True iff some valuation makes every ctx formula true and suc untrue."""
    names = set()
    for f in (*ctx, suc):
        _atoms(f, names)
    names = sorted(names)
    for pairs in itertools.product(_THREE if t_or_f else _FOUR, repeat=len(names)):
        v = dict(zip(names, pairs))
        if all(_value(f, v)[0] for f in ctx) and not _value(suc, v)[0]:
            return True
    return False


# ---------------------------------------------------------------------------
# Random formulas and sequents (mirrors tests/helpers.py).

def rand_formula(rng: random.Random, max_size: int):
    return _build(rng, rng.randint(1, max_size))


def _build(rng, n):
    if n <= 1:
        return rng.choice(ATOMS)
    if n == 2 or rng.random() < 0.3:
        return neg(_build(rng, n - 1))
    k = rng.randint(1, n - 2)
    tag = rng.choice(("and", "or", "imp"))
    return (tag, _build(rng, k), _build(rng, n - 1 - k))


def rand_sequent(rng: random.Random, max_size: int, max_ctx: int):
    ctx = [rand_formula(rng, max_size) for _ in range(rng.randint(0, max_ctx))]
    return tuple(dict.fromkeys(ctx)), rand_formula(rng, max_size)


# ---------------------------------------------------------------------------
# Hand-picked rows, each with the reason it was picked and its expected
# verdicts.

LEM = disj(neg(P), P)
PEIRCE = imp(imp(imp(P, Q), P), P)

# Aristotle's and Boethius' theses: the logic's defining validities.
# They must stay provable, with small proofs.
THESES = (
    imp(imp(P, Q), neg(imp(P, neg(Q)))),
    imp(imp(P, neg(Q)), neg(imp(P, Q))),
    neg(imp(P, neg(P))),
)

# A provable smc sequent whose proof has 241 distinct nodes but about
# 1.27 million nodes when walked as a tree; today it misses the
# deadline, and it must show up as a failure rather than be dropped.
SHARED_PROOF_CTX = (neg(disj(Q, Q)),)
SHARED_PROOF_SUC = neg(conj(disj(neg(R), neg(R)), imp(conj(Q, R), disj(R, P))))

PROVE_HAND_ROWS = tuple(
    ("connexive thesis", "sc", (), t, "provable") for t in THESES
) + (("proof shared as a DAG", "smc", SHARED_PROOF_CTX, SHARED_PROOF_SUC, "provable"),)

# The separation cells of the paper: excluded middle needs (ex-middle),
# Peirce's law needs (Peirce).  Verdicts in MATRIX_CALCULI order.
MATRIX_HAND_ROWS = (
    ("excluded middle", LEM, ("unprovable", "provable", "unprovable", "provable")),
    ("Peirce's law", PEIRCE, ("unprovable", "unprovable", "provable", "provable")),
)


# ---------------------------------------------------------------------------
# Random natural deduction derivations with planted detours (mirrors
# tests/helpers.py).  A node is (rule, formula, premises, discharge, label).

def _nd(rule, formula, premises=(), discharge=None, label=None):
    return (rule, formula, tuple(premises), discharge, label)


def assumption(f, label=None):
    return _nd("assumption", f, label=label)


def _walk(d):
    yield d
    for p in d[2]:
        yield from _walk(p)


def node_count(d) -> int:
    return sum(1 for _ in _walk(d))


def open_assumptions(d) -> set:
    return {n[1] for n in _walk(d) if n[0] == "assumption" and n[4] is None}


def max_label(d) -> int:
    return max([0] + [x for n in _walk(d) for x in (n[3], n[4]) if x is not None])


def bind_open(d, target, label):
    """Attach label to every open assumption leaf with formula target."""
    if d[0] == "assumption" and d[4] is None and d[1] == target:
        return assumption(d[1], label)
    prems = tuple(bind_open(p, target, label) for p in d[2])
    return d if prems == d[2] else _nd(d[0], d[1], prems, d[3], d[4])


def replace_at(d, path, new):
    if not path:
        return new
    prems = list(d[2])
    prems[path[0]] = replace_at(prems[path[0]], path[1:], new)
    return _nd(d[0], d[1], prems, d[3], d[4])


def at(d, path):
    for i in path:
        d = d[2][i]
    return d


def rand_derivation(rng: random.Random, system: str, max_nodes: int):
    counter = [1]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    def small():
        return rand_formula(rng, 3)

    d = assumption(small())
    while node_count(d) < max_nodes:
        d = _grow(rng, system, d, fresh, small)
    return d


def _grow(rng, system, d, fresh, small):
    phi = d[1]

    def pick_hyp():
        opened = sorted(open_assumptions(d), key=text)
        if opened and rng.random() < 0.7:
            return rng.choice(opened)
        return small()

    def imp_i():
        a = pick_hyp()
        l = fresh()
        return _nd("imp_I", imp(a, phi), (bind_open(d, a, l),), l)

    def imp_e():
        b = small()
        return _nd("imp_E", b, (assumption(imp(phi, b)), d))

    def and_i():
        other = small()
        return _nd("and_I", conj(phi, other), (d, assumption(other)))

    def or_i():
        if rng.random() < 0.5:
            return _nd("or_I1", disj(phi, small()), (d,))
        return _nd("or_I2", disj(small(), phi), (d,))

    def negneg_i():
        return _nd("negneg_I", neg(neg(phi)), (d,))

    def or_e():
        a, b = pick_hyp(), small()
        l = fresh()
        return _nd("or_E", phi, (assumption(disj(a, b)), bind_open(d, a, l), assumption(phi)), l)

    def neg_imp_e():
        b = small()
        return _nd("neg_imp_E", neg(b), (assumption(neg(imp(phi, b))), d))

    options = [imp_i, imp_e, and_i, or_i, negneg_i, or_e, neg_imp_e]
    if phi[0] == "and":
        options.append(lambda: _nd("and_E1", phi[1], (d,)))
        options.append(lambda: _nd("and_E2", phi[2], (d,)))
    if phi[0] == "neg" and phi[1][0] == "neg":
        options.append(lambda: _nd("negneg_E", phi[1][1], (d,)))
    if phi[0] == "neg" and phi[1][0] == "or":
        options.append(lambda: _nd("neg_or_E1", neg(phi[1][1]), (d,)))
        options.append(lambda: _nd("neg_or_E2", neg(phi[1][2]), (d,)))
    if phi[0] == "neg":
        body = phi[1]

        def neg_imp_i():
            a = pick_hyp()
            l = fresh()
            return _nd("neg_imp_I", neg(imp(a, body)), (bind_open(d, a, l),), l)

        def neg_and_i():
            if rng.random() < 0.5:
                return _nd("neg_and_I1", neg(conj(body, small())), (d,))
            return _nd("neg_and_I2", neg(conj(small(), body)), (d,))

        def neg_or_i():
            other = small()
            return _nd("neg_or_I", neg(disj(body, other)), (d, assumption(neg(other))))

        def neg_and_e():
            a, b = body, small()
            l = fresh()
            major = assumption(neg(conj(a, b)))
            # branch 1 binds ~a leaves; phi is ~a so d's own open ~a leaves qualify
            return _nd("neg_and_E", phi, (major, bind_open(d, neg(a), l), assumption(phi)), l)

        options += [neg_imp_i, neg_and_i, neg_or_i, neg_and_e]
    if system in ("nc3", "ncn"):

        def em():
            a = small()
            l = fresh()
            return _nd("EM", phi, (bind_open(d, neg(a), l), assumption(phi)), l)

        options.append(em)
    if system in ("nmc", "ncn"):

        def gem():
            a, b = small(), small()
            l = fresh()
            return _nd("GEM", phi, (bind_open(d, imp(a, b), l), assumption(phi)), l)

        options.append(gem)
    return rng.choice(options)()


def plant_detour(rng: random.Random, d, path):
    """Wrap the subderivation at path in an introduction that is
    immediately eliminated, creating a maximum formula there."""
    node = at(d, path)
    phi = node[1]
    fresh = max_label(d) + 1
    kind = rng.randrange(4)
    if kind == 0:
        new = _nd("negneg_E", phi, (_nd("negneg_I", neg(neg(phi)), (node,)),))
    elif kind == 1:
        other = rand_formula(rng, 3)
        new = _nd("and_E1", phi, (_nd("and_I", conj(phi, other), (node, assumption(other))),))
    elif kind == 2:
        a = rand_formula(rng, 3)
        body = _nd("imp_I", imp(a, phi), (bind_open(node, a, fresh),), fresh)
        new = _nd("imp_E", phi, (body, assumption(a)))
    else:
        a, b = rand_formula(rng, 2), rand_formula(rng, 2)
        major = _nd("or_I1", disj(a, b), (assumption(a),))
        new = _nd("or_E", phi, (major, bind_open(node, a, fresh), assumption(phi)), fresh)
    return replace_at(d, path, new)


def rand_detour_derivation(rng: random.Random, system: str, max_nodes: int = 20):
    """A derivation of 10 nodes or more with 1-3 planted detours and at
    most max_nodes nodes; oversized draws are discarded."""
    while True:
        d = rand_derivation(rng, system, 10)
        for _ in range(rng.randint(1, 3)):
            paths = [()]
            if d[2]:
                paths.append((rng.randrange(len(d[2])),))
            d = plant_detour(rng, d, rng.choice(paths))
        if node_count(d) <= max_nodes:
            return d


def derivation_obj(d) -> dict:
    """The derivation in the JSON format `derivation_from_json` reads."""
    rule, formula, premises, discharge, label = d
    if rule == "assumption":
        return {"rule": rule, "formula": text(formula), "label": label}
    return {
        "rule": rule,
        "formula": text(formula),
        "discharge": discharge,
        "premises": [derivation_obj(p) for p in premises],
    }


# ---------------------------------------------------------------------------
# Corpora.  Each is a fixed library, the same for every seed, plus one
# fiftieth as many inputs that the seed draws from a reserve, in an order
# drawn from the seed, after the hand-picked rows.  Per-query cost is
# heavy-tailed on every workload, so the few hard inputs a fresh random
# sample happens to hold would move the figures of a run by more than
# any bound worth setting; prover benchmarks keep fixed problem sets for
# this reason.  The seeded inputs keep a change tuned to the library from
# going unnoticed.  They are few because on `prove` each seeded sequent
# that lands in the sparse tail moves the 95th percentile by a rank: with
# one tenth seeded, its spread across seeds reached the 0.25 bound.
# Entry k of the library or the reserve comes from its own generator, so
# it never depends on the seed or on the corpus size.
#
# Library and reserve entries listed in screened.json are left out.  Their
# time to a result, on the program as it stood when the benchmark was
# defined, lay within a factor of screen.BAND of the per-query deadline:
# such a query meets the deadline on some runs and misses it on others,
# so the failure count of a run would follow the host's load rather than
# the program.  Entries clearly past the deadline stay in and count as
# failures.  `python3 perfbench/screen.py` re-derives the list.

POOLS = {  # workload: (library size, reserve size)
    "prove": (500, 500),
    "matrix": (3000, 1500),
    "normalize": (600, 300),
}
SEEDED_SHARE = 50  # one seeded input per this many library entries
SCREENED = Path(__file__).resolve().parent / "screened.json"


def pool_keys(workload: str) -> tuple[list, list]:
    """The generator keys of the library and of the reserve, unscreened."""
    library, reserve = POOLS[workload]
    return (
        [f"{workload}-library:{k}" for k in range(library)],
        [f"{workload}-reserve:{k}" for k in range(reserve)],
    )


def make_item(workload: str, key: str):
    """The input that generator `key` makes."""
    make = {"prove": _prove_item, "matrix": _matrix_item, "normalize": _normalize_item}[workload]
    return make(random.Random(key), int(key.rsplit(":", 1)[1]))


def _corpus(workload: str, seed: int) -> list:
    skip = set(json.loads(SCREENED.read_text())["excluded"][workload])
    library, reserve = (
        [k for k in keys if k not in skip] for keys in pool_keys(workload)
    )
    drawn = random.Random(f"{workload}-draw:{seed}").sample(reserve, POOLS[workload][0] // SEEDED_SHARE)
    items = [make_item(workload, key) for key in library + drawn]
    random.Random(f"{workload}-order:{seed}").shuffle(items)
    return items


def _prove_item(rng: random.Random, k: int):
    """A random sequent (size <= 18, context <= 2) that the evaluator
    cannot refute in its calculus.  Sequents the tables refute are
    decided at the root in one node, so they are skipped: the search,
    certification and serialization really run."""
    calc = PROVE_CALCULI[k % len(PROVE_CALCULI)]
    while True:
        ctx, suc = rand_sequent(rng, 18, 2)
        if not refuted(ctx, suc, calc in EX_MIDDLE_CALCULI):
            return ("random", calc, ctx, suc, None)


def _matrix_item(rng: random.Random, k: int):
    """A random formula of size <= 16, not filtered: most are refuted by
    the tables at the root, which is what a matrix over arbitrary
    formulas looks like."""
    return ("random", rand_formula(rng, 16), None)


def _normalize_item(rng: random.Random, k: int):
    """A derivation cycling over ND_SYSTEMS, with its JSON text."""
    system = ND_SYSTEMS[k % len(ND_SYSTEMS)]
    d = rand_detour_derivation(rng, system)
    return system, d, json.dumps(derivation_obj(d), indent=2)


def prove_corpus(seed: int) -> list:
    """(why, calculus, ctx, suc, expected verdict or None)"""
    return list(PROVE_HAND_ROWS) + _corpus("prove", seed)


def matrix_corpus(seed: int) -> list:
    """(why, formula, expected verdicts or None)"""
    return list(MATRIX_HAND_ROWS) + _corpus("matrix", seed)


def normalize_corpus(seed: int) -> list:
    """(system, derivation, JSON text)"""
    return _corpus("normalize", seed)
