"""Formula syntax: AST, parser, printer, and the subformula/negation closure.

The connexive language has atoms, & (conjunction), | (disjunction),
-> (implication), and ~ (strong negation).  Primed atoms (p') form a
disjoint namespace used only by the negation-eliminating translation
into the positive intuitionistic target language.

Formulas are immutable trees, whose equal parts may be one object (see
parse's parts).  Each node stores its hash, computed once by its
constructor from the constructor's arguments, and its ASCII text,
filled in by show() on first use; so hashing a formula and sorting by
key() cost O(1) however deep it is.  The stored hash equals the hash of
the tuple of the node's fields, e.g. hash(And(a, b)) == hash((a, b)),
which is what a frozen dataclass computes: set and dict iteration order,
and with it search order and proof output, do not depend on the stored
hash being there.  The node classes are frozen dataclasses with slots,
built with init=False, eq=False and repr=False: each has an __init__
that writes its slots through their descriptors, past the frozen
__setattr__, and they share Formula's __hash__, its structural __eq__,
which walks both formulas with its own stack, and its __repr__, which
gives the class name and the text.  The walks that build something per
subformula (show, the translation f, the prover's tables) take their
order from pending(), and the parser is one loop over the tokens with a
stack of pending operators, so no depth of formula overflows the
interpreter's stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


class ParseError(ValueError):
    """Syntax error with a byte offset and the token set that was expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class Formula:
    """Base of the node classes; holds the stored hash and text."""

    __slots__ = ("_hash", "_text")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Structural equality without recursion.  Parts that are one
        object are equal without a look inside, and parts whose class or
        stored hash differ are unequal; the walk goes down the left parts
        and keeps the right ones on a list."""
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, Formula) else NotImplemented
        a, b, todo = self, other, []
        while True:
            cls = type(a)
            if cls is not type(b):
                return False
            if cls is Var:
                if a.name != b.name or a.primed != b.primed:
                    return False
            elif a._hash != b._hash:
                return False
            elif cls is Neg:
                if a.body is not b.body:
                    a, b = a.body, b.body
                    continue
            else:
                if a.right is not b.right:
                    todo.append((a.right, b.right))
                if a.left is not b.left:
                    a, b = a.left, b.left
                    continue
            if not todo:
                return True
            a, b = todo.pop()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({show(self)!r})"

    def __reduce__(self):
        # rebuilt by the constructor: a stored hash of str fields is only
        # valid in the process that computed it
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# A slot's __set__ writes a field of a frozen node without going through
# the __setattr__ that freezes it.
_set_hash, _set_text = Formula._hash.__set__, Formula._text.__set__


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Var(Formula):
    name: str
    primed: bool = False

    def __init__(self, name: str, primed: bool = False):
        if not _ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name: {name!r}")
        _set_name(self, name)
        _set_primed(self, primed)
        _set_hash(self, hash((name, primed)))


_set_name, _set_primed = Var.name.__set__, Var.primed.__set__


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set_and_left(self, left)
        _set_and_right(self, right)
        _set_hash(self, hash((left, right)))


_set_and_left, _set_and_right = And.left.__set__, And.right.__set__


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set_or_left(self, left)
        _set_or_right(self, right)
        _set_hash(self, hash((left, right)))


_set_or_left, _set_or_right = Or.left.__set__, Or.right.__set__


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set_imp_left(self, left)
        _set_imp_right(self, right)
        _set_hash(self, hash((left, right)))


_set_imp_left, _set_imp_right = Imp.left.__set__, Imp.right.__set__


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Neg(Formula):
    body: Formula

    def __init__(self, body: Formula):
        _set_body(self, body)
        _set_hash(self, hash((body,)))


_set_body = Neg.body.__set__


def pending(phi: Formula, known: Callable[[Formula], bool]) -> list[Formula]:
    """phi and, below it, the parts that known rejects, one entry per
    occurrence, each listed before its parts.  Walked in reverse, the
    list gives every node after its parts, so a walk that builds a value
    per subformula needs no recursion."""
    order = [phi]
    for f in order:
        if isinstance(f, Neg):
            if not known(f.body):
                order.append(f.body)
        elif not isinstance(f, Var):
            if not known(f.left):
                order.append(f.left)
            if not known(f.right):
                order.append(f.right)
    return order


# ---------------------------------------------------------------------------
# Printing.  Precedence: ~ binds tightest, then &, then |, then ->.
# -> is right-associative; & and | are left-associative.

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NEG = 1, 2, 3, 4
_PREC = {Var: _PREC_NEG, Neg: _PREC_NEG, And: _PREC_AND, Or: _PREC_OR, Imp: _PREC_IMP}


def show(phi: Formula) -> str:
    """Minimal-parenthesis rendering of a formula.  The text is stored on
    each node the first time it is asked for, parts first."""
    try:
        return phi._text
    except AttributeError:
        pass
    for f in reversed(pending(phi, lambda g: hasattr(g, "_text"))):
        if isinstance(f, Var):
            text = f.name + ("'" if f.primed else "")
        elif isinstance(f, Neg):
            text = "~" + _sub(f.body, _PREC_NEG)
        elif isinstance(f, And):
            # left-associative: left child keeps &-chains unparenthesized
            text = _sub(f.left, _PREC_AND) + " & " + _sub(f.right, _PREC_AND + 1)
        elif isinstance(f, Or):
            text = _sub(f.left, _PREC_OR) + " | " + _sub(f.right, _PREC_OR + 1)
        else:
            # right-associative: right child keeps ->-chains unparenthesized
            text = _sub(f.left, _PREC_IMP + 1) + " -> " + _sub(f.right, _PREC_IMP)
        _set_text(f, text)
    return phi._text


def _sub(phi: Formula, need: int) -> str:
    s = phi._text
    return s if _PREC[type(phi)] >= need else "(" + s + ")"


def key(phi: Formula) -> str:
    """Deterministic sort key for formulas: the stored ASCII text."""
    return show(phi)


# ---------------------------------------------------------------------------
# Parsing.

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<atom>[a-z][a-zA-Z0-9_]*'?)
      | (?P<imp>->)
      | (?P<op>[~&|()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "op" else m.group()
            toks.append((kind, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


_OPERAND = ("~", "(", "atom")
# a binary operator's token kind -> its precedence and node class
_BINARY = {"&": (_PREC_AND, And), "|": (_PREC_OR, Or), "imp": (_PREC_IMP, Imp)}


def parse(text: str, allow_primed: bool = False, *, parts: dict[tuple, Formula] | None = None) -> Formula:
    """Parse a formula; primed atoms (p') only with allow_primed.

    parts is the caller's table of the formulas read so far, each under
    its class and what it is built from: (Var, name, primed), (Neg,
    id(body)) or (cls, id(left), id(right)).  A node is looked up there
    before it is built, and built and entered only when it is missing;
    so the formulas one table sees share their equal parts, and == on
    them settles by identity at the first shared part.  The ids name
    parts that the table itself holds, so they stay valid while it
    lives.  A reader passes one table per file; without one, nothing is
    shared.

    One loop over the tokens, with a stack of pending operators: Neg for
    a ~, None for a (, and (precedence, class, left operand) for a binary
    operator.  An operand takes the ~s above it at once; a binary operator
    first applies the pending ones that bind at least as tightly, and )
    applies all of them down to its (."""
    if not text.strip():
        raise ParseError("empty input", 0, _OPERAND)
    stack: list = []
    f = None  # the operand just read; None where an operand is expected
    for kind, tok, pos in _tokenize(text):
        if f is None:
            if kind == "~" or kind == "(":
                stack.append(Neg if kind == "~" else None)
                continue
            if kind != "atom":
                raise ParseError(f"unexpected token {tok or 'end of input'!r}", pos, _OPERAND)
            primed = tok.endswith("'")
            if primed and not allow_primed:
                raise ParseError("primed atom outside embedding-target mode", pos)
            name = tok.rstrip("'")
            if parts is None:
                f = Var(name, primed)
            else:
                f = parts.get((Var, name, primed))
                if f is None:
                    f = parts[Var, name, primed] = Var(name, primed)
        else:
            prec, cls = _BINARY.get(kind, (_PREC_IMP, None))
            least = prec + 1 if cls is Imp else prec  # -> groups to the right
            while stack and type(stack[-1]) is tuple and stack[-1][0] >= least:
                _, op, left = stack.pop()
                if parts is None:
                    f = op(left, f)
                else:
                    k = (op, id(left), id(f))
                    shared = parts.get(k)
                    f = parts[k] = op(left, f) if shared is None else shared
            if cls is not None:
                stack.append((prec, cls, f))
                f = None
                continue
            if kind == ")" and stack:
                stack.pop()  # its (
            elif stack:
                raise ParseError(f"unexpected token {tok or 'end of input'!r}", pos, (")",))
            elif kind == "eof":
                return f
            else:
                raise ParseError(f"trailing input {tok!r}", pos, ("end of input",))
        while stack and stack[-1] is Neg:
            stack.pop()
            if parts is None:
                f = Neg(f)
            else:
                k = (Neg, id(f))
                shared = parts.get(k)
                f = parts[k] = Neg(f) if shared is None else shared
    raise AssertionError("the token list ends with eof")


# ---------------------------------------------------------------------------
# Closure.

def closure_set(formulas: Iterable[Formula], add_negations: bool = True) -> frozenset[Formula]:
    """Smallest superset closed under immediate subformulas and, when
    add_negations, one ~ per member with the ~~~ chains truncated."""
    todo = list(formulas)
    seen: set[Formula] = set()
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        if isinstance(f, Neg):
            todo.append(f.body)
        elif not isinstance(f, Var):
            todo.append(f.left)
            todo.append(f.right)
        if add_negations and not (isinstance(f, Neg) and isinstance(f.body, Neg)):
            todo.append(Neg(f))
    return frozenset(seen)


def closure(sequent, add_negations: bool = True) -> frozenset[Formula]:
    """Closure of every formula in a sequent (duck-typed: .ctx and .suc);
    the finite formula set that bounds backward proof search for it."""
    return closure_set([*sequent.ctx, sequent.suc], add_negations)
