"""Propositional formulas over integer-indexed Boolean variables.

Formulas are the input language of the circuit compiler.  Variables are
positive integers; assignments are mappings ``var -> bool``.  A tiny
s-expression reader is provided for formula files, e.g.::

    (and (or x1 x2 x3 x4) (or (and (not x1) (not x2)) (and (not x3) (not x4))))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class FormulaError(ValueError):
    """Malformed formula text or an out-of-range variable."""


class Formula:
    """Base class for formula nodes.  Supports ``&``, ``|`` and ``~``."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def postorder(self) -> Iterator["Formula"]:
        """Every node occurrence, children first and left to right, from an
        explicit stack that reaches any depth."""
        stack: list[Formula | None] = [self]  # a None marks the node under it as expanded
        while stack:
            node = stack.pop()
            if node is None:
                yield stack.pop()
            elif isinstance(node, Not):
                stack += (node, None, node.child)
            elif isinstance(node, (And, Or)):
                stack += (node, None, *reversed(node.children))
            else:
                yield node

    def variables(self) -> frozenset[int]:
        return frozenset(node.var for node in self.postorder() if isinstance(node, Var))

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Truth under ``assignment``, which must cover every variable."""
        values: list[bool] = []  # the values of visited nodes awaiting their parent
        for node in self.postorder():
            if isinstance(node, (And, Or)):
                start = len(values) - len(node.children)
                values[start:] = [(all if isinstance(node, And) else any)(values[start:])]
            elif isinstance(node, Not):
                values[-1] = not values[-1]
            else:
                values.append(node.value if isinstance(node, Const) else bool(assignment[node.var]))
        return values[0]


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    var: int

    def __post_init__(self) -> None:
        if self.var < 1:
            raise FormulaError(f"variable ids are positive, got {self.var}")


# Not, And and Or compare, hash and print as their dataclasses would, but
# from explicit stacks, so a formula of any depth can do all three


def _eq(self: Formula, other: object) -> bool:
    # the dataclass __eq__, (self.field,) == (other.field,), with the
    # pairs still to compare on an explicit stack, left to right
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or not isinstance(a, (Not, And, Or)):
            if not a == b:  # a leaf, or classes that differ: one shallow comparison
                return False
        elif isinstance(a, Not):
            stack.append((a.child, b.child))
        elif len(a.children) != len(b.children):
            return False
        else:
            stack += zip(reversed(a.children), reversed(b.children))
    return True


class _Hashed:
    """Stands in a tuple for an item whose hash is known."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _hash(self: Formula) -> int:
    # the dataclass __hash__, hash((self.field,)), bottom-up: a tuple's hash
    # reads only its items' hashes, so each node leaves a stand-in of its hash
    items: list = []
    for node in self.postorder():
        if isinstance(node, (And, Or)):
            start = len(items) - len(node.children)
            items[start:] = [_Hashed(hash((tuple(items[start:]),)))]
        elif isinstance(node, Not):
            items[-1] = _Hashed(hash((items[-1],)))
        else:
            items.append(node)
    return hash(items[0])


def _repr(self: Formula) -> str:
    # the dataclass __repr__, Name(field=...), from pieces on an explicit stack
    parts: list[str] = []
    stack: list[tuple[bool, object]] = [(False, self)]  # (is a finished piece, item)
    while stack:
        piece, item = stack.pop()
        if piece:
            parts.append(item)
        elif isinstance(item, Not):
            parts.append(f"{item.__class__.__qualname__}(child=")
            stack += ((True, ")"), (False, item.child))
        elif isinstance(item, (And, Or)):
            children = item.children
            parts.append(f"{item.__class__.__qualname__}(children=(")
            stack.append((True, ",))" if len(children) == 1 else "))"))
            for i in reversed(range(len(children))):
                stack.append((False, children[i]))
                if i:
                    stack.append((True, ", "))
        else:
            parts.append(repr(item))
    return "".join(parts)


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula
    __eq__, __hash__, __repr__ = _eq, _hash, _repr


@dataclass(frozen=True, slots=True)
class And(Formula):
    children: tuple[Formula, ...]
    __eq__, __hash__, __repr__ = _eq, _hash, _repr


@dataclass(frozen=True, slots=True)
class Or(Formula):
    children: tuple[Formula, ...]
    __eq__, __hash__, __repr__ = _eq, _hash, _repr


def conj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def _tokenize(text: str) -> Iterator[str]:
    for line in text.split("\n"):  # only "\n" ends a line, and with it a ";" comment
        body = line.split(";", 1)[0]
        for tok in body.replace("(", " ( ").replace(")", " ) ").split():
            yield tok


def parse_formula(text: str) -> Formula:
    """Parse an s-expression formula.

    Grammar: ``true`` | ``false`` | ``x<N>`` | ``(not F)`` | ``(and F...)``
    | ``(or F...)``, where ``N`` is ASCII digits.  Lines may carry ``;``
    comments.  Open lists wait on an explicit stack, so any depth parses.
    """
    tokens = _tokenize(text)
    lists: list[tuple[str, list[Formula]]] = []  # operator and arguments of each open list
    while True:
        tok = next(tokens, None)
        if tok is None:
            raise FormulaError("missing ')'" if lists else "unexpected end of input")
        if tok == "(":
            op = next(tokens, None)
            if op is None:
                raise FormulaError("unexpected end of input after '('")
            lists.append((op, []))
            continue
        if tok == ")" and lists:
            op, args = lists.pop()
            if op == "not" and len(args) != 1:
                raise FormulaError("'not' takes exactly one argument")
            if op not in ("not", "and", "or"):
                raise FormulaError(f"unknown operator {op!r}")
            node = Not(args[0]) if op == "not" else conj(args) if op == "and" else disj(args)
        elif tok == ")":
            raise FormulaError("unexpected ')'")
        elif tok in ("true", "false"):
            node = TRUE if tok == "true" else FALSE
        elif tok.startswith("x") and tok[1:].isascii() and tok[1:].isdigit():
            node = Var(int(tok[1:]))
        else:
            raise FormulaError(f"unknown token {tok!r}")
        if not lists:
            break
        lists[-1][1].append(node)
    tok = next(tokens, None)
    if tok is not None:
        raise FormulaError(f"trailing tokens starting at {tok!r}")
    return node
