import random
import sys

import pytest

from connexive.embedding import embed_check, embed_check_cn, translate_f, translate_sequent
from connexive.formula import Imp, Neg, Or, Var, parse, show
from connexive.sequent import seq

from helpers import has_negation, rand_formula, rand_sequent, size

p, q = Var("p"), Var("q")


def f(text):
    return show(translate_f(parse(text)))


def test_clauses():
    assert f("p") == "p"
    assert f("~p") == "p'"
    assert f("~~p") == "p"
    assert f("p & q") == "p & q"
    assert f("p | q") == "p | q"
    assert f("p -> q") == "p -> q"
    assert f("~(p & q)") == "p' | q'"
    assert f("~(p | q)") == "p' & q'"
    assert f("~(p -> q)") == "p -> q'"
    assert f("(p -> q) -> ~(p -> ~q)") == "(p -> q) -> p -> q"
    assert f("~~~p") == "p'"
    assert f("~(~p & q)") == "p | q'"


def test_fixes_negation_free():
    rng = random.Random(51)
    for _ in range(100):
        phi = rand_formula(rng, 10, allow_neg=False)
        assert translate_f(phi) == phi


def test_image_negation_free_and_bounded():
    rng = random.Random(52)
    for _ in range(200):
        phi = rand_formula(rng, 10)
        img = translate_f(phi)
        assert not has_negation(img)
        assert size(img) <= 2 * size(phi)


def test_rejects_primed_input():
    with pytest.raises(ValueError):
        translate_f(Or(Var("p", True), p))


def test_translate_sequent():
    s = seq([Neg(p)], Neg(Imp(p, q)))
    assert translate_sequent(s) == seq([Var("p", True)], Imp(p, Var("q", True)))


def test_embed_check_agreement():
    rng = random.Random(53)
    for _ in range(100):
        r = embed_check(rand_sequent(rng, 7))
        assert r.agree, str(r.target_sequent)


def test_embed_check_cn_agreement():
    rng = random.Random(54)
    for _ in range(100):
        r = embed_check_cn(rand_sequent(rng, 7))
        assert r.agree, str(r.target_sequent)


def test_translate_deep_formula():
    """f keeps its own stack.  phi = ~(q -> ~(q -> ... ~(q -> p))) is
    5,000 levels of ~(q -> .); since f(~(q -> X)) = q -> f(~X) and
    f(~~Y) = f(Y), its image is q -> q -> ... -> p with 5,000 arrows."""
    phi, image = p, p
    for _ in range(5000):
        phi, image = Neg(Imp(q, phi)), Imp(q, image)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        got = translate_f(phi) == image
    except RecursionError:
        got = None  # not re-raised: pytest's report of it runs to gigabytes
    finally:
        sys.setrecursionlimit(limit)
    assert got is True
