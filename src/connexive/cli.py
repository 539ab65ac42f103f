"""Command-line front end.

Exit codes are a stable contract: 0 success/provable/valid, 1 definitive
negative, 2 input error, 3 resource bound.  Inputs are files or "-" for
stdin; results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .bridge import nd_to_sc, normalize, sc_to_nd
from .checking import InvalidProof
from .embedding import translate_f
from .formula import ParseError, parse, show
from .natded import (
    MaxOccurrence,
    NdSystem,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
)
from .prover import (
    ResourceExceeded,
    SearchConfig,
    Verdict,
    decide,
    eliminate_cut,
    separation_matrix,
)
from .reduction import normalize_by_reduction, reduce_step
from .sequent import (
    CONNEXIVE_CALCULI,
    STARRED,
    Calculus,
    check_proof,
    parse_sequent,
    proof_from_json,
    proof_to_json,
    weaken_proof,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}") from e


def _calculus(name: str) -> Calculus:
    try:
        return Calculus(name)
    except ValueError:
        raise _UsageError(f"unknown calculus {name!r}") from None


def _system(name: str) -> NdSystem:
    try:
        return NdSystem(name)
    except ValueError:
        raise _UsageError(f"unknown system {name!r}") from None


def _config(args) -> SearchConfig:
    if args.budget is None:
        return SearchConfig()
    try:
        return SearchConfig(node_budget=args.budget)
    except ValueError as e:
        raise _UsageError(str(e)) from None


def cmd_prove(args) -> int:
    calc = _calculus(args.calculus)
    goal = parse_sequent(args.goal, allow_primed=calc not in CONNEXIVE_CALCULI)
    result = decide(calc, goal, _config(args))
    if result.verdict is Verdict.PROVABLE:
        print(proof_to_json(result.proof, indent=2))
        return EXIT_OK
    if result.verdict is Verdict.UNPROVABLE:
        print("unprovable", file=sys.stderr)
        return EXIT_NEGATIVE
    print("resource budget exhausted", file=sys.stderr)
    return EXIT_RESOURCE


def cmd_check(args) -> int:
    text = _read(args.file)
    if args.kind == "sc":
        report = check_proof(_calculus(args.system), proof_from_json(text))
    else:
        report = check_derivation(_system(args.system), derivation_from_json(text))
    print(report.message())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_transform(args) -> int:
    verb = args.verb
    if verb == "translate":
        print(show(translate_f(parse(args.input))))
        return EXIT_OK
    text = _read(args.input)
    if verb == "nd2sc":
        sys_id = _system(args.system)
        print(proof_to_json(nd_to_sc(sys_id, derivation_from_json(text)), indent=2))
        return EXIT_OK
    if verb == "sc2nd":
        calc = _calculus(args.calculus)
        proof = proof_from_json(text)
        if not proof.is_cut_free() and calc not in STARRED:
            print("input proof contains cut", file=sys.stderr)
            return EXIT_NEGATIVE
        print(derivation_to_json(sc_to_nd(calc, proof, _config(args)), indent=2))
        return EXIT_OK
    if verb == "normalize":
        sys_id = _system(args.system)
        print(derivation_to_json(normalize(sys_id, derivation_from_json(text), _config(args)), indent=2))
        return EXIT_OK
    if verb == "reduce":
        sys_id = _system(args.system)
        d = derivation_from_json(text)
        if args.at is not None:
            path = tuple(int(x) for x in args.at.split(".") if x != "")
            d = reduce_step(sys_id, d, MaxOccurrence(path, d.at(path).formula))
            print(derivation_to_json(d, indent=2))
            return EXIT_OK
        result = normalize_by_reduction(sys_id, d, args.steps)
        print(derivation_to_json(result.derivation, indent=2))
        if not result.completed:
            print(f"step limit reached after {result.steps} steps", file=sys.stderr)
            return EXIT_NEGATIVE
        return EXIT_OK
    if verb == "weaken":
        calc = _calculus(args.calculus)
        extra = frozenset(parse(t, allow_primed=calc not in CONNEXIVE_CALCULI) for t in args.by.split(",") if t.strip())
        print(proof_to_json(weaken_proof(calc, proof_from_json(text), extra), indent=2))
        return EXIT_OK
    if verb == "cutfree":
        calc = _calculus(args.calculus)
        print(proof_to_json(eliminate_cut(calc, proof_from_json(text), _config(args)), indent=2))
        return EXIT_OK
    raise _UsageError(f"unknown transform verb {verb!r}")


def cmd_matrix(args) -> int:
    lines = [ln.strip() for ln in _read(args.file).splitlines()]
    writer = csv.writer(sys.stdout)
    writer.writerow(["formula", "sC", "sC3", "sMC", "sCN"])
    cfg = _config(args)
    status = EXIT_OK
    mark = {Verdict.PROVABLE: "Y", Verdict.UNPROVABLE: "N", Verdict.RESOURCE_EXCEEDED: "T"}
    for line in lines:
        if not line:
            continue
        try:
            phi = parse(line)
            row = [show(phi)] + [mark[v] for v in separation_matrix([phi], cfg)[0].verdicts]
        except ParseError:
            row = [line, "ERR", "ERR", "ERR", "ERR"]
            status = EXIT_INPUT
        writer.writerow(row)
    return status


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="connexive", description="Connexive proof toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a sequent and print a proof")
    p.add_argument("calculus")
    p.add_argument("goal", help='formula or sequent "a, b => c"')
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_prove)

    c = sub.add_parser("check", help="check a proof or derivation file")
    c.add_argument("kind", choices=["sc", "nd"])
    c.add_argument("system", help="calculus or ND system name")
    c.add_argument("file", help='JSON file or "-" for stdin')
    c.set_defaults(fn=cmd_check)

    t = sub.add_parser("transform", help="proof transformations")
    t.add_argument("verb", choices=["nd2sc", "sc2nd", "normalize", "reduce", "weaken", "translate", "cutfree"])
    t.add_argument("input", help='file, "-" for stdin, or a formula for translate')
    t.add_argument("--system", default="nc", help="ND system for nd2sc/normalize/reduce")
    t.add_argument("--calculus", default="sc", help="calculus for sc2nd/weaken/cutfree")
    t.add_argument("--at", default=None, help="dot-separated node path for reduce")
    t.add_argument("--steps", type=int, default=10_000, help="step limit for reduce")
    t.add_argument("--by", default="", help="comma-separated formulas for weaken")
    t.add_argument("--budget", type=int, default=None)
    t.set_defaults(fn=cmd_transform)

    m = sub.add_parser("matrix", help="separation matrix CSV for a file of formulas")
    m.add_argument("file", help='one formula per line, "-" for stdin')
    m.add_argument("--budget", type=int, default=None)
    m.set_defaults(fn=cmd_matrix)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ResourceExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except (InvalidProof, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (_UsageError, ValueError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
