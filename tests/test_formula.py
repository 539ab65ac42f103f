import hashlib
import pickle
import random
import sys

import pytest

from connexive.formula import (
    And,
    Imp,
    Neg,
    Or,
    ParseError,
    Var,
    closure_set,
    key,
    parse,
    pending,
    show,
)

from helpers import atoms, has_negation, has_primed, rand_formula, size, subformulas

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_precedence():
    assert parse("~p & q -> r | p") == Imp(And(Neg(p), q), Or(r, p))
    assert parse("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse("p & q & r") == And(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("~~p") == Neg(Neg(p))
    assert parse("~(p -> q)") == Neg(Imp(p, q))
    assert parse("(p -> q) -> r") == Imp(Imp(p, q), r)


def test_parse_errors():
    for bad in ["", "p &", "(p", "p q", "P", "p -> ", "~", "&p"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_primed_atoms():
    assert parse("p'") == Var("p", True)
    assert has_primed(parse("p' -> q"))
    assert not has_primed(parse("p -> q"))


def test_show_examples():
    assert show(Imp(And(Neg(p), q), Or(r, p))) == "~p & q -> r | p"
    assert show(Neg(Imp(p, Neg(q)))) == "~(p -> ~q)"
    assert show(And(p, And(q, r))) == "p & (q & r)"
    assert show(Imp(Imp(p, q), r)) == "(p -> q) -> r"


def test_roundtrip_random():
    rng = random.Random(1)
    for _ in range(500):
        phi = rand_formula(rng, 40)
        assert parse(show(phi)) == phi


def test_size_and_atoms():
    phi = parse("~(p -> ~q) & r")
    assert size(phi) == 7
    assert atoms(phi) == {p, q, r}
    assert has_negation(phi)
    assert not has_negation(parse("p -> q | r"))
    assert len(list(subformulas(phi))) == 7


def test_closure_neg_and():
    got = closure_set({Neg(And(p, q))})
    want = {
        Neg(And(p, q)),
        And(p, q),
        p,
        q,
        Neg(Neg(And(p, q))),
        Neg(p),
        Neg(q),
        Neg(Neg(p)),
        Neg(Neg(q)),
    }
    assert got == want
    assert len(got) == 9


def test_closure_truncates_triple_negation():
    got = closure_set({Neg(Neg(p))})
    assert got == {Neg(Neg(p)), Neg(p), p}


def test_closure_idempotent():
    rng = random.Random(2)
    for _ in range(50):
        phi = rand_formula(rng, 8)
        c = closure_set({phi})
        assert closure_set(c) == c


def test_closure_without_negations():
    got = closure_set({Imp(p, q)}, add_negations=False)
    assert got == {Imp(p, q), p, q}


def test_deep_formula_hashes_in_constant_depth():
    phi = p
    for i in range(5000):
        phi = Neg(phi) if i % 2 else Imp(q, phi)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        hashed = phi in {phi, p}
    except RecursionError:
        hashed = False  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert hashed, "hashing a 5,000-deep formula recursed"


def test_deep_formula_walks_in_constant_depth():
    phi = Var("p", True)
    for i in range(5000):
        phi = Neg(phi) if i % 2 else And(q, phi)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        got = (size(phi), atoms(phi), has_negation(phi), has_primed(phi), sum(1 for _ in subformulas(phi)))
    except RecursionError:
        got = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert got == (7501, {q, Var("p", True)}, True, True, 7501)
    assert list(subformulas(Imp(And(p, q), Neg(r)))) == [Imp(And(p, q), Neg(r)), And(p, q), p, q, Neg(r), r]


def test_stored_hash_is_the_field_tuple_hash():
    # the hash a frozen dataclass would compute, so set iteration order,
    # search order and proof output do not depend on the stored hash
    x, y = Neg(p), Or(q, r)
    for conn in (And, Or, Imp):
        assert hash(conn(x, y)) == hash((x, y))
    assert hash(Neg(x)) == hash((x,))
    assert hash(Var("p", True)) == hash(("p", True))
    assert hash(Var("q")) == hash(("q", False))


def test_pickle_rebuilds_stored_fields():
    phi = Imp(And(p, Neg(q)), Or(r, p))
    show(phi)
    back = pickle.loads(pickle.dumps(phi))
    assert back == phi and hash(back) == hash(phi)
    assert show(back) == show(phi)


def test_key_is_show():
    rng = random.Random(3)
    for _ in range(300):
        phi = rand_formula(rng, 30)
        assert key(phi) == show(phi)


def _deep(bottom):
    phi = bottom
    for i in range(5000):
        phi = (lambda x: Neg(x), lambda x: Imp(q, x), lambda x: Or(x, r), lambda x: And(p, x))[i % 4](phi)
    return phi


def test_deep_formulas_compare_in_constant_depth():
    """Equality keeps its own stack: separately built 5,000-deep
    formulas compare equal, and unequal when only the deepest atom
    differs."""
    a, b, c = _deep(p), _deep(Var("p")), _deep(q)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        got = (a == b, a != b, a == c, a != c)
    except RecursionError:
        got = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert a is not b and hash(a) == hash(b)
    assert got == (True, False, False, True)


def test_formula_is_not_equal_to_other_objects():
    assert Var("p") != "p" and not Var("p") == "p"
    assert And(p, q) != (p, q) and Neg(p) != None  # noqa: E711
    assert Var("p") == Var("p") and Var("p") != Var("p", True)
    assert And(p, q) != Or(p, q) and Imp(p, q) != Imp(q, p)


def test_deep_formula_shows_and_parses_in_constant_depth():
    """show keeps its own stack; a 5,000-long & chain also parses back,
    since the parser loops over &."""
    chain = Var("a0")
    for i in range(1, 5000):
        chain = And(chain, Var(f"a{i}"))
    deep, text = p, "p"
    for i in range(5000):
        deep = Imp(q, deep) if i % 2 else Neg(deep)
        text = f"q -> {text}" if i % 2 else (f"~({text})" if i else "~p")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        got = (show(chain), parse(show(chain)) == chain, show(deep))
    except RecursionError:
        got = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert got == (" & ".join(f"a{i}" for i in range(5000)), True, text)


def test_repr_is_class_and_text_in_constant_depth():
    """A formula's repr is its class and its text, so a failing assertion
    on a deep formula can be printed."""
    assert repr(Imp(And(p, Neg(q)), p)) == "Imp('p & ~q -> p')"
    assert repr(Var("p", True)) == "Var(\"p'\")"
    deep = p
    for i in range(5000):
        deep = Imp(q, deep) if i % 2 else Neg(deep)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        got = repr(deep)
    except RecursionError:
        got = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert got == f"Imp({show(deep)!r})"


def test_pending_lists_each_node_before_its_parts():
    phi = Imp(And(p, q), Neg(p))
    assert pending(phi, lambda f: False) == [phi, And(p, q), Neg(p), p, q, p]
    assert pending(phi, {And(p, q)}.__contains__) == [phi, Neg(p), p]


# token pieces for random parser input: atoms, a primed atom, the
# connectives, parentheses, a space, and characters that are no token
_PIECES = ["p", "q", "r1", "p'", "~", "&", "|", "->", "(", ")", " ", "!", "-", ">", "P"]
_WEIGHTS = [6, 5, 3, 2, 5, 3, 3, 3, 4, 4, 3, 1, 1, 1, 1]


def test_parse_outcome_digest_unchanged():
    """What parse makes of 4,000 seeded random token strings: the
    formula's text, or the ParseError's message, offset and expected
    tokens.  The digest was recorded with the parser that still took a
    flag for primed atoms, with primed atoms allowed."""
    rng = random.Random(2022)
    digest = hashlib.sha256()
    for _ in range(4000):
        text = "".join(rng.choices(_PIECES, _WEIGHTS, k=rng.randint(0, 14)))
        try:
            outcome = show(parse(text))
        except ParseError as e:
            outcome = (str(e), e.offset, e.expected)
        digest.update(repr((text, outcome)).encode())
    assert digest.hexdigest() == "a672cae6e6278caa3895cf094dc4711ec12cc1586e2850e0e79eaf4f4b4a0b81"
