"""The command line under fuzzing: argv and stdin drawn from the commands'
grammar, with formulas both well formed and not, and proof and
derivation files mutated field by field or cut short, end with an exit
code of 0 to 3, and no exception escapes main.  The examples are drawn
from a fixed seed, and they run under the interpreter's default
recursion limit."""

import contextlib
import io
import json
import random
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from connexive.bridge import sc_to_nd
from connexive.cli import main
from connexive.formula import And, Imp, Neg, Or, Var, show
from connexive.natded import NdSystem, derivation_to_json
from connexive.prover import decide
from connexive.sequent import Calculus, parse_sequent, proof_to_json

from helpers import plant_detours, rand_derivation, shared_or_chain

CALCULI = [c.value for c in Calculus] + ["nope"]
SYSTEMS = [s.value for s in NdSystem] + ["nope"]
BUDGETS = [None, None, None, "1", "40", "3000", "0", "x"]
TOKENS = ["p", "q", "r", "p'", "~", "&", "|", "->", "(", ")", "=>", ",", "P", "!", ""]


def _proof_files() -> list[str]:
    goals = [
        (Calculus.SC, "p & ~q -> p"),
        (Calculus.SMC, "((p -> q) -> p) -> p"),
        (Calculus.SCN, "~p | p"),
        (Calculus.LJP_PEIRCE, "p' -> p' | q"),
    ]
    files = [proof_to_json(decide(c, parse_sequent(g)).proof) for c, g in goals]
    return files + [proof_to_json(shared_or_chain(3))]


def _derivation_files() -> list[str]:
    rng = random.Random(7)
    files = [derivation_to_json(sc_to_nd(Calculus.SC, decide(Calculus.SC, parse_sequent("p & q => q | r")).proof))]
    for sys_id in NdSystem:
        files.append(derivation_to_json(plant_detours(rng, sys_id, rand_derivation(rng, sys_id, 8), 1)))
    return files


PROOFS = _proof_files()
DERIVATIONS = _derivation_files()

atom = st.sampled_from([Var("p"), Var("q"), Var("r"), Var("p"), Var("q"), Var("q", True)])
formula = st.recursive(
    atom,
    lambda sub: st.one_of(
        sub.map(Neg), st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Imp, sub, sub)
    ),
    max_leaves=5,
)
# three in four texts are well formed
well_formed = formula.map(show)
formula_text = st.one_of(well_formed, well_formed, well_formed, st.lists(st.sampled_from(TOKENS), max_size=7).map(" ".join))
sequent_text = st.one_of(
    formula_text,
    st.builds(lambda ctx, suc: ", ".join(ctx) + " => " + suc, st.lists(formula_text, max_size=2), formula_text),
)
json_leaf = st.sampled_from([None, True, 0, 1, -1, 2, 10**6, 1.5, "", "p", "p -> p", "init1", "and_E", [], {}])


@st.composite
def mutated(draw, files: list[str]) -> str:
    """One of files with up to three of its values replaced or deleted,
    and perhaps cut short."""
    holder = [json.loads(draw(st.sampled_from(files)))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        spots, todo = [], [holder]
        while todo:
            box = todo.pop()
            for k in range(len(box)) if isinstance(box, list) else list(box):
                spots.append((box, k))
                if isinstance(box[k], (list, dict)):
                    todo.append(box[k])
        box, k = draw(st.sampled_from(spots))
        if box is not holder and draw(st.booleans()):
            del box[k]
        else:
            box[k] = draw(json_leaf)
    text = json.dumps(holder[0])
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def command(draw) -> tuple[list[str], str]:
    """argv and stdin for one run of main."""
    kind = draw(st.sampled_from(["prove", "prove", "check", "check", "transform", "transform", "matrix", "junk"]))
    value = draw(st.sampled_from(BUDGETS))
    budget = [] if value is None else ["--budget", value]
    if kind == "prove":
        return ["prove", draw(st.sampled_from(CALCULI)), draw(sequent_text), *budget], ""
    if kind == "check":
        if draw(st.booleans()):
            return ["check", "sc", draw(st.sampled_from(CALCULI)), "-"], draw(mutated(PROOFS))
        return ["check", "nd", draw(st.sampled_from(SYSTEMS)), "-"], draw(mutated(DERIVATIONS))
    if kind == "matrix":
        return ["matrix", "-", *budget], "\n".join(draw(st.lists(formula_text, max_size=3)))
    if kind == "junk":
        words = ["prove", "check", "transform", "matrix", "sc", "nd", "-", "--budget", "--at", "-x", "p"]
        return draw(st.lists(st.sampled_from(words), max_size=5)), ""
    verb = draw(st.sampled_from(["nd2sc", "sc2nd", "normalize", "reduce", "weaken", "translate", "cutfree"]))
    if verb == "translate":
        return ["transform", "translate", draw(formula_text)], ""
    options = [*budget, "--calculus", draw(st.sampled_from(CALCULI)), "--system", draw(st.sampled_from(SYSTEMS))]
    if verb == "weaken":
        options += ["--by", ", ".join(draw(st.lists(formula_text, max_size=2)))]
    if verb == "reduce":
        at = draw(st.one_of(st.none(), st.sampled_from(["", "0", "0.1", "1.0.0", "-1", "x", "0.0.0.0"])))
        options += ["--steps", str(draw(st.integers(0, 20)))] + ([] if at is None else ["--at", at])
    files = PROOFS if verb in ("sc2nd", "weaken", "cutfree") else DERIVATIONS
    return ["transform", verb, "-", *options], draw(mutated(files))


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(command())
def test_main_exits_with_a_contract_code(case):
    argv, stdin = case
    out, limit, saved = io.StringIO(), sys.getrecursionlimit(), sys.stdin
    sys.setrecursionlimit(1000)  # the interpreter's default
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
    finally:
        sys.stdin = saved
        sys.setrecursionlimit(limit)
    assert code in (0, 1, 2, 3), (argv, stdin, out.getvalue())
