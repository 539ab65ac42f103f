import json
import sys

import pytest

from connexive.cli import main
from connexive.natded import NdSystem, check_derivation, derivation_from_json
from connexive.sequent import Calculus, Rule, check_proof, proof_from_json, proof_to_json
from connexive.bridge import nd_to_sc
from connexive.natded import Derivation, NdRule, assumption, derivation_to_json
from connexive.formula import Imp, Var

from helpers import (
    MALFORMED_TABLE_FILES,
    and_left_tower,
    reference_proof_to_json,
    reference_proof_to_obj,
    shared_or_chain,
)

p, q = Var("p"), Var("q")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_provable(capsys):
    code, out, _ = run(capsys, "prove", "sc", "(p -> q) -> ~(p -> ~q)")
    assert code == 0
    proof = proof_from_json(out)
    assert check_proof(Calculus.SC, proof).ok


def test_prove_sequent_syntax(capsys):
    code, out, _ = run(capsys, "prove", "sc", "p, q => p & q")
    assert code == 0
    assert check_proof(Calculus.SC, proof_from_json(out)).ok


def test_prove_unprovable(capsys):
    code, _, err = run(capsys, "prove", "sc", "~p | p")
    assert code == 1
    assert "unprovable" in err


def test_prove_bad_calculus(capsys):
    code, _, err = run(capsys, "prove", "nosuch", "p")
    assert code == 2
    assert "error" in err


def test_pem_calculus_is_gone(capsys, monkeypatch):
    """No calculus ljp-peirce-pem and no rule p_ex_middle exist: naming
    either is an input error.  The proof file derives => p' | p by a
    p_ex_middle on p."""
    import io

    code, _, err = run(capsys, "prove", "ljp-peirce-pem", "p")
    assert code == 2 and "unknown calculus" in err
    text = json.dumps({"formulas": ["p", "p'", ["|", 1, 0]], "nodes": [
        {"rule": "init1", "ctx": [1], "suc": 1, "principal": None, "premises": []},
        {"rule": "or_right1", "ctx": [1], "suc": 2, "principal": None, "premises": [0]},
        {"rule": "init1", "ctx": [0], "suc": 0, "principal": None, "premises": []},
        {"rule": "or_right2", "ctx": [0], "suc": 2, "principal": None, "premises": [2]},
        {"rule": "p_ex_middle", "ctx": [], "suc": 2, "principal": 0, "premises": [1, 3]},
    ]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, err = run(capsys, "check", "sc", "ljp-peirce", "-")
    assert code == 2 and "p_ex_middle" in err


def test_prove_parse_error(capsys):
    code, _, _ = run(capsys, "prove", "sc", "p &&")
    assert code == 2


def test_prove_budget_exhausted(capsys):
    code, _, _ = run(capsys, "prove", "smc", "((q -> p) -> q) -> q", "--budget", "1")
    assert code == 3


def test_check_sc(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "sc", "~(p -> ~p)")
    path = tmp_path / "proof.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check", "sc", "sc", str(path))
    assert code == 0
    # the proof uses connexive rules, so it is not an LJ+ proof
    code, _, _ = run(capsys, "check", "sc", "ljp", str(path))
    assert code == 1


def test_prove_scn_row_through_f(capsys, tmp_path):
    """The scn row the connexive search needs 20,323 nodes for is proved
    through the embedding f, and its proof file checks in scn."""
    goal = (
        "((~p | ~~q) -> (~((r | p) & q) | q)), (~(~q -> (p & ~p)) | ~q)"
        " => ((~(~r | ~p) -> (~p | q)) | (p -> ~(q -> r)))"
    )
    code, out, _ = run(capsys, "prove", "scn", goal)
    assert code == 0
    path = tmp_path / "proof.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check", "sc", "scn", str(path))
    assert code == 0 and out.strip() == "valid"


def test_check_nd(capsys, tmp_path):
    d = Derivation(NdRule.IMP_I, Imp(p, p), (assumption(p, 1),), 1)
    path = tmp_path / "d.json"
    path.write_text(derivation_to_json(d))
    code, _, _ = run(capsys, "check", "nd", "nc", str(path))
    assert code == 0
    bad = Derivation(NdRule.IMP_I, Imp(p, q), (assumption(p, 1),), 1)
    path.write_text(derivation_to_json(bad))
    code, _, _ = run(capsys, "check", "nd", "nc", str(path))
    assert code == 1


def test_check_rejects_principal_outside_context(capsys, monkeypatch):
    """(and left) on p & q under the conclusion => p, whose context lacks
    p & q: not a proof, and => p is unprovable."""
    import io

    text = json.dumps({"formulas": ["p", "q", ["&", 0, 1]], "nodes": [
        {"rule": "init1", "ctx": [0, 1], "suc": 0, "principal": None, "premises": []},
        {"rule": "and_left", "ctx": [], "suc": 0, "principal": 2, "premises": [0]},
    ]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "check", "sc", "sc", "-")
    assert code == 1
    assert out.startswith("invalid") and "principal missing from context" in out
    code, _, err = run(capsys, "prove", "sc", "=> p")
    assert code == 1 and "unprovable" in err


def test_check_rejects_principal_on_right_rule(capsys, monkeypatch):
    """(-> right) on => p -> p over an (init1) leaf, both carrying the
    principal q & q: a principal on those rules is not a proof field."""
    import io

    text = json.dumps({"formulas": ["p", "q", ["&", 1, 1], ["->", 0, 0]], "nodes": [
        {"rule": "init1", "ctx": [0], "suc": 0, "principal": 2, "premises": []},
        {"rule": "imp_right", "ctx": [], "suc": 3, "principal": 2, "premises": [0]},
    ]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "check", "sc", "sc", "-")
    assert code == 1
    assert out.startswith("invalid") and "imp_right takes no principal formula" in out


@pytest.mark.parametrize("obj, message", MALFORMED_TABLE_FILES)
def test_check_malformed_table(capsys, monkeypatch, obj, message):
    """Each malformed file is an input error, found within a second: the
    table naming a formula of 2^60 - 1 nodes as a tree is refused before
    anything walks that tree."""
    import io
    import time

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj, indent=2)))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "sc", "sc", "-")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == "" and message in err


def test_readme_proof_file(capsys, monkeypatch):
    """connexive prove prints the proof file that README's "Proof files"
    shows, and connexive check calls it valid."""
    import io
    import pathlib
    import re

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("### Proof files"):]
    assert 'connexive prove sc "p & ~q -> p"' in section
    shown = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    code, out, _ = run(capsys, "prove", "sc", "p & ~q -> p")
    assert code == 0 and out == shown
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "check", "sc", "sc", "-")
    assert code == 0 and out.strip() == "valid"


def test_prove_check_repeated_parts(capsys, monkeypatch):
    """connexive check accepts the short file that connexive prove writes
    for a goal whose formula repeats a part: X, p => p, where X is p & p
    squared twelve times, 8,191 nodes as a tree."""
    import io

    x = "p & p"
    for _ in range(12):
        x = f"({x}) & ({x})"
    code, out, _ = run(capsys, "prove", "sc", f"{x}, p => p")
    assert code == 0 and len(out) < len(x)
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, err = run(capsys, "check", "sc", "sc", "-")
    assert (code, out.strip(), err) == (0, "valid", "")


def test_check_deep_proof(capsys, tmp_path):
    """A proof 3,001 levels deep is checked under the default limit."""
    path = tmp_path / "deep.json"
    path.write_text(proof_to_json(and_left_tower(3000), indent=2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, _ = run(capsys, "check", "sc", "sc", str(path))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and out.strip() == "valid"


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "check", "sc", "sc", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"rule": "init1", "sequent": {"ctx": "p", "suc": "p"}, "premises": []}',
        '{"ref": 0}',
        pytest.param(json.dumps(reference_proof_to_obj(shared_or_chain(3))), id="nested-layout"),
        pytest.param(reference_proof_to_json(shared_or_chain(3)), id="text-table-layout"),
    ],
)
def test_check_malformed_proof(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "check", "sc", "sc", "-")
    assert code == 2
    assert out == "" and "error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "must be a JSON object"),
        ("null", "must be a JSON object"),
        ('{"formula": "p"}', "missing field 'rule'"),
        ('{"rule": "bogus", "formula": "p"}', "not a valid"),
        ('{"rule": ["x"], "formula": "p"}', "not a valid"),
        ('{"rule": 1, "formula": "p"}', "not a valid"),
        ('{"rule": "assumption"}', "missing field 'formula'"),
        ('{"rule": "assumption", "formula": ["p"]}', "formula must be a string"),
        ('{"rule": "imp_I", "formula": "p -> p", "discharge": 1, "premises": "p"}', "premises must be a list"),
        ('{"rule": "imp_I", "formula": "p -> p", "discharge": 1, "premises": [7]}', "must be a JSON object"),
        ('{"rule": "imp_I", "formula": "p -> p", "discharge": [1], "premises": []}', "discharge must be an integer"),
        ('{"rule": "assumption", "formula": "p", "label": "x"}', "label must be an integer"),
        ("[" * 3000 + "]" * 3000, "nested too deeply"),
    ],
)
def test_check_malformed_derivation(capsys, monkeypatch, text, message):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, err = run(capsys, "check", "nd", "nc", "-")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize(
    "goal, expected",
    [
        ("p => " + "~" * 1200 + "p", 0),
        ("p => " + "(" * 3000 + "p" + ")" * 3000, 0),
        ("=> " + " -> ".join(["p"] * 1000), 0),
        ("=> " + "~" * 1200 + "p", 1),
    ],
    ids=["negations", "parentheses", "implications", "unprovable"],
)
def test_prove_deep_formula_is_decided(capsys, tmp_path, goal, expected):
    """The parser is one loop over the tokens, so deep nesting is decided
    under the default limit, and the proof it prints checks as valid."""
    path = tmp_path / "proof.json"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, err = run(capsys, "prove", "sc", goal)
        if code == 0:
            path.write_text(out)
            checked = run(capsys, "check", "sc", "sc", str(path))
    finally:
        sys.setrecursionlimit(limit)
    assert code == expected, err
    if expected == 0:
        assert checked[:2] == (0, "valid\n")
    else:
        assert out == "" and "unprovable" in err


def test_matrix_decides_deep_parentheses(capsys, monkeypatch):
    """A matrix line nested in 300 parentheses gets verdicts, not ERR."""
    import io

    line = "(" * 300 + "p -> p" + ")" * 300
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, err = run(capsys, "matrix", "-")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    assert out.splitlines()[1:] == ["p -> p,Y,Y,Y,Y"]


def test_sc2nd_deep_proof(capsys, tmp_path):
    """A proof 3,001 levels deep translates to a derivation under the
    default limit."""
    path = tmp_path / "deep.json"
    path.write_text(proof_to_json(and_left_tower(3000), indent=2))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, err = run(capsys, "transform", "sc2nd", str(path), "--calculus", "sc")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    d = derivation_from_json(out)
    assert check_derivation(NdSystem.NC, d).ok and d.formula == p


def test_deep_conjunction_chain_is_proved(capsys):
    """decide's language check, its search and the formula walks keep
    their own stacks, so a long & chain is proved under the default
    limit."""
    chain = " & ".join(["p"] * 2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, _ = run(capsys, "prove", "sc", f"{chain} => p")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    proof = proof_from_json(out)
    assert proof.rule is Rule.AND_LEFT and proof.premises[0].rule is Rule.INIT1


@pytest.mark.parametrize(
    "argv, last_line",
    [(("matrix", "-"), "{chain},N,N,N,N"), (("transform", "translate", "{chain}"), "{chain}")],
    ids=["matrix", "translate"],
)
def test_deep_conjunction_chain_succeeds(capsys, monkeypatch, argv, last_line):
    """A long & chain parses, since the parser loops over &, and the
    walks after it keep their own stacks, so it is decided or translated
    under the default limit."""
    import io

    chain = " & ".join(["p"] * 2000)
    monkeypatch.setattr("sys.stdin", io.StringIO(chain + "\n"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, err = run(capsys, *(a.format(chain=chain) for a in argv))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    assert out.splitlines()[-1] == last_line.format(chain=chain)


def test_matrix_goes_on_after_an_err_row(capsys, monkeypatch):
    """A line that fails to parse gets an ERR row, and the lines after it
    are still decided; a long & chain before it is decided under the
    default limit."""
    import io

    chain = " & ".join(["p"] * 2000)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{chain}\np & (q\nq -> q\n"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        code, out, _ = run(capsys, "matrix", "-")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert out.splitlines()[1:] == [f"{chain},N,N,N,N", "p & (q,ERR,ERR,ERR,ERR", "q -> q,Y,Y,Y,Y"]


def test_shared_proof_file(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(proof_to_json(shared_or_chain(40)))
    code, out, _ = run(capsys, "check", "sc", "sc", str(path))
    assert code == 0 and out.strip() == "valid"
    # as a derivation the proof is a tree of 2^41 - 1 nodes
    code, out, err = run(capsys, "transform", "sc2nd", str(path), "--calculus", "sc")
    assert code == 3
    assert out == "" and "node budget" in err


def test_transform_translate(capsys):
    code, out, _ = run(capsys, "transform", "translate", "~(p & ~(q -> r))")
    assert code == 0
    assert out.strip() == "p' | (q -> r)"


def test_transform_nd2sc_sc2nd(capsys, tmp_path):
    d = Derivation(NdRule.IMP_I, Imp(p, p), (assumption(p, 1),), 1)
    path = tmp_path / "d.json"
    path.write_text(derivation_to_json(d))
    code, out, _ = run(capsys, "transform", "nd2sc", str(path), "--system", "nc")
    assert code == 0
    proof = proof_from_json(out)
    assert check_proof(Calculus.SC, proof).ok
    back = tmp_path / "p.json"
    back.write_text(proof_to_json(proof))
    code, out, _ = run(capsys, "transform", "sc2nd", str(back), "--calculus", "sc")
    assert code == 0
    nd = derivation_from_json(out)
    assert check_derivation(NdSystem.NC, nd).ok


@pytest.mark.parametrize("calculus", ["sc", "smc", "smc-star", "scn"])
def test_transform_sc2nd_checks_input(capsys, tmp_path, calculus):
    """sc2nd checks its input in the calculus named, before smc and scn
    re-derive its conclusion in their starred calculi: an (init1) leaf
    is no proof of q => p -> p, though q => p -> p is provable."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"formulas": ["q", "p", ["->", 1, 1]], "nodes": [
        {"rule": "init1", "ctx": [0], "suc": 2, "principal": None, "premises": []},
    ]}))
    code, out, err = run(capsys, "transform", "sc2nd", str(path), "--calculus", calculus)
    assert code == 1
    assert out == "" and "init1 succedent must be an atom" in err


def test_transform_weaken_keeps_the_language(capsys, tmp_path):
    """ljp has no ~, so weakening an ljp proof by ~q is an input error."""
    code, out, _ = run(capsys, "prove", "ljp", "p -> p")
    assert code == 0
    path = tmp_path / "pp.json"
    path.write_text(out)
    code, out, err = run(capsys, "transform", "weaken", str(path), "--calculus", "ljp", "--by", "~q")
    assert code == 2
    assert out == "" and "negation not in the language of ljp" in err
    code, out, _ = run(capsys, "transform", "weaken", str(path), "--calculus", "ljp", "--by", "q")
    assert code == 0
    assert check_proof(Calculus.LJP, proof_from_json(out)).ok


def test_transform_sc2nd_starred_budget_exhausted(capsys, tmp_path):
    """A budget too small for the starred re-derivation is a resource
    limit (exit 3), as it is for prove."""
    code, out, _ = run(capsys, "prove", "smc", "((q -> p) -> q) -> q")
    assert code == 0
    path = tmp_path / "peirce.json"
    path.write_text(out)
    code, out, err = run(capsys, "transform", "sc2nd", str(path), "--calculus", "smc", "--budget", "1")
    assert code == 3
    assert out == "" and "error" in err
    code, out, _ = run(capsys, "transform", "sc2nd", str(path), "--calculus", "smc")
    assert code == 0
    assert check_derivation(NdSystem.NMC, derivation_from_json(out)).ok


def test_transform_normalize_and_reduce(capsys, tmp_path):
    detour = Derivation(
        NdRule.IMP_E,
        p,
        (Derivation(NdRule.IMP_I, Imp(p, p), (assumption(p, 1),), 1), assumption(p)),
    )
    path = tmp_path / "d.json"
    path.write_text(derivation_to_json(detour))
    code, out, _ = run(capsys, "transform", "normalize", str(path), "--system", "nc")
    assert code == 0
    assert derivation_from_json(out).rule is NdRule.ASSUMPTION
    code, out, _ = run(capsys, "transform", "reduce", str(path), "--system", "nc")
    assert code == 0
    assert derivation_from_json(out) == assumption(p)


def test_transform_reduce_at_path_outside_derivation(capsys, tmp_path):
    detour = Derivation(
        NdRule.IMP_E,
        p,
        (Derivation(NdRule.IMP_I, Imp(p, p), (assumption(p, 1),), 1), assumption(p)),
    )
    path = tmp_path / "d.json"
    path.write_text(derivation_to_json(detour))
    code, out, err = run(capsys, "transform", "reduce", str(path), "--at", "3")
    assert code == 2
    assert out == "" and "error: no node at path 3" in err


def test_transform_normalize_budget_caps_tree(capsys, tmp_path):
    """The node budget also caps the tree size of the cut-free proof that
    normalize translates back; this one has 2 nodes and needs no search."""
    d = Derivation(NdRule.IMP_I, Imp(p, p), (assumption(p, 1),), 1)
    path = tmp_path / "d.json"
    path.write_text(derivation_to_json(d))
    code, out, err = run(capsys, "transform", "normalize", str(path), "--system", "nc", "--budget", "1")
    assert code == 3
    assert out == "" and "node budget" in err
    code, out, _ = run(capsys, "transform", "normalize", str(path), "--system", "nc", "--budget", "2")
    assert code == 0
    assert derivation_from_json(out).rule is NdRule.IMP_I


def test_transform_weaken_and_cutfree(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "sc", "p -> p")
    path = tmp_path / "p.json"
    path.write_text(out)
    code, out, _ = run(capsys, "transform", "weaken", str(path), "--calculus", "sc", "--by", "q, r")
    assert code == 0
    proof = proof_from_json(out)
    assert check_proof(Calculus.SC, proof).ok
    assert len(proof.conclusion.ctx) == 2
    code, out, _ = run(capsys, "transform", "cutfree", str(path), "--calculus", "sc")
    assert code == 0
    assert proof_from_json(out).is_cut_free()


def test_matrix(capsys, tmp_path):
    path = tmp_path / "formulas.txt"
    path.write_text("~p | p\n((p -> q) -> p) -> p\n\n~(p -> ~p)\n")
    code, out, _ = run(capsys, "matrix", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "formula,sC,sC3,sMC,sCN"
    assert lines[1] == "~p | p,N,Y,N,Y"
    assert lines[2] == "((p -> q) -> p) -> p,N,N,Y,Y"
    assert lines[3] == "~(p -> ~p),Y,Y,Y,Y"


def test_matrix_parse_error_row(capsys, tmp_path):
    path = tmp_path / "formulas.txt"
    path.write_text("p -> p\nnot a formula((\n")
    code, out, _ = run(capsys, "matrix", str(path))
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[2].endswith("ERR,ERR,ERR,ERR")


def test_matrix_empty(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run(capsys, "matrix", str(path))
    assert code == 0
    assert out.strip() == "formula,sC,sC3,sMC,sCN"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("p -> p\n"))
    code, out, _ = run(capsys, "matrix", "-")
    assert code == 0
    assert "p -> p,Y,Y,Y,Y" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "matrix", "/nonexistent/file.txt")
    assert code == 2
    assert "error" in err


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["prove"]) == 2
    capsys.readouterr()
