"""The three workloads: seeded queries through the public API, a fixed
per-query deadline, and a correctness check on every output.

Every call into the program goes through a module attribute looked up
at call time (`prover.decide`, not a local alias), so the traced run
sees the benchmark's own calls as well as the program's internal ones.
Checks run with tracing paused and are not part of any timing.
"""

from __future__ import annotations

import signal
import time

from connexive import bridge, formula, natded, prover, reduction, sequent

import corpus

# Per-query deadline.  Short, so that a run measures hundreds or thousands
# of queries rather than a handful of misses, and slow queries show as
# failures.  Long enough that failures stay well under 5% on `prove`:
# there, at 0.1 s, the failure count set the 95th percentile.
DEADLINE_S = 0.25
RESOURCE = "resource-exceeded"  # what check() returns for that verdict
COLD = prover.SearchConfig(memo=False)


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no
    `except Exception` in the program can swallow it."""


class _Timer:
    armed = False
    on_deadline = None  # tracer hook: charges the miss to the open span

    def fire(self, signum, frame):
        if self.armed:
            self.armed = False
            if self.on_deadline is not None:
                self.on_deadline()
            raise DeadlineExceeded


TIMER = _Timer()


def install_deadline() -> None:
    signal.signal(signal.SIGALRM, TIMER.fire)


class Outcome:
    """One query's result: status "ok" or a failure kind, the latency
    charged to it, and what the check needs."""

    __slots__ = ("status", "latency", "spent", "detail", "value")

    def __init__(self, status, latency, spent, detail="", value=None):
        self.status = status
        self.latency = latency
        self.spent = spent
        self.detail = detail
        self.value = value


def timed(fn, *args) -> Outcome:
    """Run fn under the per-query deadline.  Failures are charged the
    deadline as latency; `spent` is the wall time really used."""
    t0 = time.perf_counter()
    try:
        TIMER.armed = True
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            value = fn(*args)
        finally:
            TIMER.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Outcome("deadline", DEADLINE_S, time.perf_counter() - t0, f"over {DEADLINE_S} s")
    except Exception as e:  # any raised error, RecursionError too, fails the query; the run goes on
        return Outcome("raised", DEADLINE_S, time.perf_counter() - t0, f"{type(e).__name__}: {e}")
    spent = time.perf_counter() - t0
    return Outcome("ok", spent, spent, value=value)


# ---------------------------------------------------------------------------
# prove: parse_sequent -> decide -> proof_to_json -> proof_from_json -> check_proof

class Prove:
    name = "prove"

    @staticmethod
    def query(item):
        why, calc, ctx, suc, expected = item
        return why, sequent.Calculus(calc), ctx, suc, expected, corpus.sequent_text(ctx, suc)

    @classmethod
    def queries(cls, seed: int) -> list:
        return [cls.query(item) for item in corpus.prove_corpus(seed)]

    @staticmethod
    def run(query, tracer=None):
        calc, text = query[1], query[5]
        goal = sequent.parse_sequent(text)
        res = prover.decide(calc, goal, COLD)
        if res.verdict is not prover.Verdict.PROVABLE:
            return res.verdict, None, None
        if tracer is not None:
            tracer.proof_sizes(res.proof)
        dumped = sequent.proof_to_json(res.proof, indent=2)
        back = sequent.proof_from_json(dumped)
        return res.verdict, back, sequent.check_proof(calc, back)

    @staticmethod
    def check(query, value) -> str | None:
        why, calc, ctx, suc, expected, _ = query
        verdict, back, report = value
        if verdict is prover.Verdict.RESOURCE_EXCEEDED:
            return RESOURCE
        if expected is not None and verdict.value != expected:
            return f"wrong verdict {verdict.value}, expected {expected}"
        if back is None:
            return None
        if not report.ok:
            return "proof read back from JSON fails the checker: " + report.message()
        if not back.is_cut_free():
            return "proof contains cut"
        want = sequent.Sequent(
            frozenset(corpus.to_formula(f) for f in ctx), corpus.to_formula(suc)
        )
        if back.conclusion != want:
            return f"proof concludes {back.conclusion}, not the query"
        return None

    @staticmethod
    def describe(query) -> str:
        return f"{query[1].value}: {query[5]} ({query[0]})"


# ---------------------------------------------------------------------------
# matrix: parse -> separation_matrix -> show, as `connexive matrix` does per line

class Matrix:
    name = "matrix"

    @staticmethod
    def query(item):
        why, f, expected = item
        return why, f, expected, corpus.text(f)

    @classmethod
    def queries(cls, seed: int) -> list:
        return [cls.query(item) for item in corpus.matrix_corpus(seed)]

    @staticmethod
    def run(query, tracer=None):
        phi = formula.parse(query[3])
        row = prover.separation_matrix([phi], COLD)[0]
        formula.show(phi)
        return tuple(v.value for v in row.verdicts)

    @staticmethod
    def check(query, verdicts) -> str | None:
        why, f, expected, _ = query
        if RESOURCE in verdicts:
            return RESOURCE
        if expected is not None and verdicts != expected:
            return f"verdicts {verdicts}, expected {expected}"
        cells = dict(zip(corpus.MATRIX_CALCULI, verdicts))
        if cells["sc"] == "provable" and "unprovable" in verdicts:
            return f"provable in sc but not in every calculus: {verdicts}"
        if cells["scn"] == "unprovable" and "provable" in verdicts:
            return f"unprovable in scn but provable elsewhere: {verdicts}"
        for calc, v in cells.items():
            if v == "provable" and corpus.refuted((), f, calc in corpus.EX_MIDDLE_CALCULI):
                return f"provable in {calc} but refuted by the four-valued tables"
        return None

    @staticmethod
    def describe(query) -> str:
        return f"{query[3]} ({query[0]})"


# ---------------------------------------------------------------------------
# normalize: derivation_from_json -> nd_to_sc -> normalize -> normalize_by_reduction

class Normalize:
    name = "normalize"

    @staticmethod
    def query(item):
        system, d, text = item
        return natded.NdSystem(system), d, text

    @classmethod
    def queries(cls, seed: int) -> list:
        return [cls.query(item) for item in corpus.normalize_corpus(seed)]

    @staticmethod
    def run(query, tracer=None):
        sys_id, _, text = query
        d = natded.derivation_from_json(text)
        proof = bridge.nd_to_sc(sys_id, d)
        out = bridge.normalize(sys_id, d, COLD)
        red = reduction.normalize_by_reduction(sys_id, d, max_steps=10_000)
        if tracer is not None:
            tracer.reduction(red.steps, red.completed)
        return proof, out, red

    @staticmethod
    def check(query, value) -> str | None:
        sys_id, d, _ = query
        proof, out, red = value
        end = corpus.to_formula(d[1])
        opened = frozenset(corpus.to_formula(f) for f in corpus.open_assumptions(d))
        if proof.conclusion != sequent.Sequent(opened, end):
            return f"nd_to_sc concludes {proof.conclusion}"
        for name, result in (("normalize", out), ("normalize_by_reduction", red.derivation)):
            report = natded.check_derivation(sys_id, result)
            if not report.ok:
                return f"{name} output fails the checker: {report.message()}"
            if result.formula != end:
                return f"{name} changed the end formula"
            if not _open_assumptions(result) <= opened:
                return f"{name} opened new assumptions"
        if not natded.is_normal(out):
            return "normalize output is not normal"
        if red.completed and not natded.is_normal(red.derivation):
            return "normalize_by_reduction reports completion on a non-normal derivation"
        return None

    @staticmethod
    def describe(query) -> str:
        sys_id, d, _ = query
        return f"{sys_id.value}: derivation of {corpus.text(d[1])} with {corpus.node_count(d)} nodes"


def _open_assumptions(d) -> frozenset:
    out = set()
    stack = [d]
    while stack:
        n = stack.pop()
        if n.rule is natded.NdRule.ASSUMPTION and n.label is None:
            out.add(n.formula)
        stack.extend(n.premises)
    return frozenset(out)


WORKLOADS = {w.name: w for w in (Prove, Matrix, Normalize)}
