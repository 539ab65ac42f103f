"""Spans around calls into each module of the program, recorded from the
benchmark's own files: each public function is replaced, at the module
attribute where its callers look it up, by a wrapper that records a
span (name, parent span, query, start, end).  Spans stay in memory in
one flat array and are written out when the run ends; the per-layer
metrics are derived from them afterwards.

Time metrics are inclusive span time per query unless marked "self",
which subtracts the time covered by child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (span name, [(module, attribute), ...]); a span name's prefix is its layer
WRAP_POINTS = (
    ("formula.parse", [("formula", "parse"), ("sequent", "parse"), ("natded", "parse")]),
    ("formula.closure", [("prover", "closure")]),
    ("prover.decide", [("prover", "decide"), ("bridge", "decide")]),
    ("prover.eliminate_cut", [("prover", "eliminate_cut"), ("bridge", "eliminate_cut")]),
    ("prover.tables", [("prover.Tables", "__init__")]),
    ("prover.refutes", [("prover.Tables", "refutes")]),
    ("sequent.to_json", [("sequent", "proof_to_json")]),
    ("sequent.from_json", [("sequent", "proof_from_json")]),
    ("sequent.check_proof", [("sequent", "check_proof"), ("prover", "check_proof"), ("bridge", "check_proof")]),
    ("natded.from_json", [("natded", "derivation_from_json")]),
    ("natded.check", [("natded", "check_derivation"), ("bridge", "check_derivation"), ("reduction", "check_derivation")]),
    ("bridge.nd_to_sc", [("bridge", "nd_to_sc")]),
    ("bridge.sc_to_nd", [("bridge", "sc_to_nd")]),
    ("bridge.normalize", [("bridge", "normalize")]),
    ("reduction.normalize", [("reduction", "normalize_by_reduction")]),
)
LAYERS = ("formula", "prover", "sequent", "natded", "bridge", "reduction")
_STARRED = {"smc-star", "scn-star"}

# per_layer metric -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "formula.parse_s": "s/query",
    "formula.closure_s": "s/query",
    "formula.universe_size": "formulas",
    "prover.tables_s": "s/query",
    "prover.refute_s": "s/query",
    "prover.refute_calls": "count/query",
    "prover.refute_hit_ratio": "ratio",
    "prover.search_s": "s/query",
    "prover.nodes": "count/query",
    "prover.nodes_per_s": "1/s",
    "prover.useful_node_ratio": "ratio",
    "prover.certify_s": "s/query",
    "prover.destar_s": "s/query",
    "prover.eliminate_cut_s": "s/query",
    "prover.verdicts.provable": "count/query",
    "prover.verdicts.unprovable": "count/query",
    "prover.verdicts.resource_exceeded": "count/query",
    "sequent.to_json_s": "s/query",
    "sequent.json_bytes": "B/query",
    "sequent.from_json_s": "s/query",
    "sequent.check_s": "s/query",
    "sequent.proof_distinct_nodes": "nodes/proof",
    "sequent.proof_tree_nodes": "nodes/proof",
    "natded.from_json_s": "s/query",
    "natded.check_s": "s/query",
    "bridge.nd_to_sc_s": "s/query",
    "bridge.sc_to_nd_s": "s/query",
    "bridge.normalize_s": "s/query",
    "reduction.normalize_s": "s/query",
    "reduction.steps": "count/query",
    "reduction.completed_ratio": "ratio",
    **{f"{layer}.timeouts": "count/query" for layer in LAYERS},
    "trace.overhead_s": "s/query",
}


def proof_sizes(proof) -> tuple[int, int]:
    """Distinct nodes of a proof (by identity) and its node count when
    walked as a tree, found without expanding the tree."""
    tree: dict[int, int] = {}
    stack = [proof]
    while stack:
        node = stack[-1]
        if id(node) in tree:
            stack.pop()
            continue
        todo = [p for p in node.premises if id(p) not in tree]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            tree[id(node)] = 1 + sum(tree[id(p)] for p in node.premises)
    return len(tree), tree[id(proof)]


def _decide_info(info: dict, out) -> None:
    """Adds the verdict, and for unstarred calls the node counts, in one
    update: a deadline in between leaves the span marked as raised."""
    extra = {"verdict": out.verdict.value}
    if info["calc"] not in _STARRED:
        extra["nodes"] = out.stats.nodes_expanded
        extra["distinct"] = proof_sizes(out.proof)[0] if out.proof is not None else 0
    info.update(extra)


# what a span records about its result, as one number
_RESULT_VALUE = {
    "formula.closure": lambda out: len(getattr(out, "members", out)),
    "prover.refutes": lambda out: int(bool(out)),
    "sequent.to_json": lambda out: len(out.encode()),
}


# One span is _WIDTH consecutive doubles in Tracer.rec, written by a
# single extend so that the deadline signal, which may fire between any
# two bytecodes, never leaves a span half-recorded.
KIND, PARENT, QUERY, START, END, VALUE = range(6)
_WIDTH = 6


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.rec = array("d")
        self.info: dict[int, dict] = {}  # decide spans: calculus, verdict, nodes, distinct
        self.stack: list[int] = []  # offsets in rec of the open spans
        self.query = -1
        self.active = False
        self.missing: list[str] = []
        self.installed: list[tuple] = []  # (owner, attribute, original)
        self.timeouts: dict[str, int] = defaultdict(int)
        self.proofs: list[tuple[int, int]] = []
        self.reductions: list[tuple[int, bool]] = []

    # -- recording ----------------------------------------------------------

    def install(self) -> None:
        """Replace every wrap point that exists in this version of the
        program; names that are gone are listed in self.missing."""
        self.missing = []
        for name, points in WRAP_POINTS:
            kind = self.name_id.setdefault(name, len(self.names))
            if kind == len(self.names):
                self.names.append(name)
            for modname, attr in points:
                owner = _resolve("connexive." + modname)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"connexive.{modname}.{attr}")
                    continue
                self.installed.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(kind, name, fn))

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, fn = self.installed.pop()
            setattr(owner, attr, fn)

    def begin_query(self) -> None:
        """Start the spans of the next query run, with an id of its own."""
        self.query += 1
        self.stack.clear()  # a missed deadline can leave spans open
        self.active = True

    def _wrap(self, kind: int, name: str, fn):
        tracer = self
        rec = self.rec
        clock = time.perf_counter
        stack = self.stack
        is_decide = name == "prover.decide"
        result_value = _RESULT_VALUE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            at = len(rec)
            if is_decide:
                tracer.info[at] = {"calc": args[0].value}
            rec.extend((kind, stack[-1] if stack else -1, tracer.query, clock(), 0.0, -1))
            stack.append(at)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[at + END] = clock()
                stack.pop()
            if is_decide:
                _decide_info(tracer.info[at], out)
            elif result_value is not None:
                rec[at + VALUE] = result_value(out)
            return out

        return wrapper

    def on_deadline(self) -> None:
        layer = "bench"
        if self.stack:
            layer = self.names[int(self.rec[self.stack[-1] + KIND])].split(".")[0]
        self.timeouts[layer] += 1

    def proof_sizes(self, proof) -> None:
        self.proofs.append(proof_sizes(proof))

    def reduction(self, steps: int, completed: bool) -> None:
        self.reductions.append((steps, completed))

    # -- output -------------------------------------------------------------

    def spans(self):
        """(offset, name, parent offset, query, start, end, value) per
        span.  A span cut off before its end was recorded ends at its start."""
        rec, names = self.rec, self.names
        for at in range(0, len(rec), _WIDTH):
            start, end = rec[at + START], rec[at + END]
            yield (at, names[int(rec[at + KIND])], int(rec[at + PARENT]), int(rec[at + QUERY]),
                   start, end if end else start, int(rec[at + VALUE]))

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, parent id, query, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tquery\tname\tstart\tend\n")
            for at, name, parent, query, start, end, _ in self.spans():
                fh.write(f"{at // _WIDTH}\t{parent // _WIDTH if parent >= 0 else -1}\t{query}"
                         f"\t{name}\t{start:.9f}\t{end:.9f}\n")

    def metrics(self, queries: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans over `queries` queries."""
        spans = list(self.spans())
        name_at = {at: name for at, name, *_ in spans}
        child: dict[int, float] = defaultdict(float)
        certify_under: dict[int, float] = defaultdict(float)
        for at, name, parent, _, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "sequent.check_proof" and name_at[parent] == "prover.decide":
                    certify_under[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        certify = check = search = destar = normalize_self = sc_to_nd = 0.0
        nodes = distinct = refute_hits = json_bytes = 0
        search_returned = 0.0
        verdicts: dict[str, int] = defaultdict(int)
        universe = []
        for at, name, parent, _, start, end, value in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            parent_name = name_at[parent] if parent >= 0 else ""
            if name == "sequent.check_proof":
                if parent_name == "prover.decide":
                    certify += dur
                else:
                    check += dur
            elif name == "prover.decide":
                data = self.info[at]
                starred = data["calc"] in _STARRED
                if starred:
                    destar += dur - child[at]
                else:
                    search += dur - child[at]
                if "verdict" not in data:
                    continue  # the call raised: a missed deadline
                if parent_name != "prover.decide":
                    verdicts[data["verdict"]] += 1
                if not starred:
                    nodes += data["nodes"]
                    distinct += data["distinct"]
                    search_returned += dur - certify_under[at]
            elif name == "bridge.sc_to_nd" and parent_name != "bridge.sc_to_nd":
                sc_to_nd += dur
            elif name == "bridge.normalize":
                normalize_self += dur - child[at]
            elif name == "prover.refutes" and value > 0:
                refute_hits += 1
            elif name == "formula.closure" and value >= 0:
                universe.append(value)
            elif name == "sequent.to_json" and value >= 0:
                json_bytes += value
        q = max(queries, 1)
        refutes = calls["prover.refutes"]
        return {
            "formula.parse_s": total["formula.parse"] / q,
            "formula.closure_s": total["formula.closure"] / q,
            "formula.universe_size": _mean(universe),
            "prover.tables_s": total["prover.tables"] / q,
            "prover.refute_s": total["prover.refutes"] / q,
            "prover.refute_calls": refutes / q,
            "prover.refute_hit_ratio": refute_hits / refutes if refutes else 0.0,
            "prover.search_s": search / q,
            "prover.nodes": nodes / q,
            "prover.nodes_per_s": nodes / search_returned if search_returned else 0.0,
            "prover.useful_node_ratio": distinct / nodes if nodes else 0.0,
            "prover.certify_s": certify / q,
            "prover.destar_s": destar / q,
            "prover.eliminate_cut_s": total["prover.eliminate_cut"] / q,
            "prover.verdicts.provable": verdicts["provable"] / q,
            "prover.verdicts.unprovable": verdicts["unprovable"] / q,
            "prover.verdicts.resource_exceeded": verdicts["resource-exceeded"] / q,
            "sequent.to_json_s": total["sequent.to_json"] / q,
            "sequent.json_bytes": json_bytes / q,
            "sequent.from_json_s": total["sequent.from_json"] / q,
            "sequent.check_s": check / q,
            "sequent.proof_distinct_nodes": _mean([d for d, _ in self.proofs]),
            "sequent.proof_tree_nodes": _mean([t for _, t in self.proofs]),
            "natded.from_json_s": total["natded.from_json"] / q,
            "natded.check_s": total["natded.check"] / q,
            "bridge.nd_to_sc_s": total["bridge.nd_to_sc"] / q,
            "bridge.sc_to_nd_s": sc_to_nd / q,
            "bridge.normalize_s": normalize_self / q,
            "reduction.normalize_s": total["reduction.normalize"] / q,
            "reduction.steps": sum(s for s, _ in self.reductions) / q,
            "reduction.completed_ratio": _mean([float(c) for _, c in self.reductions]),
            **{f"{layer}.timeouts": self.timeouts[layer] / q for layer in LAYERS},
            "trace.overhead_s": overhead_s / q,
        }


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _resolve(path: str):
    """A module, or a class inside one ("connexive.prover.Tables")."""
    try:
        return importlib.import_module(path)
    except ImportError:
        modname, _, attr = path.rpartition(".")
        try:
            return getattr(importlib.import_module(modname), attr, None)
        except ImportError:
            return None


def report_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print("trace: not wrapped (absent): " + ", ".join(tracer.missing), file=sys.stderr)
