"""One traversal for every expression sort, derived from the dataclass fields.

A node's subterms are the values of its fields that are themselves nodes.
Each node class keeps a field either always or never holding a node, so the
names of the subterm fields are looked up once per class and cached.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Callable

_SUBTERM_FIELDS: dict[type, tuple[str, ...]] = {}


class Node:
    """Base class of the flat, process, state and first-order ASTs.

    `additive` names the subterm fields in which the operator distributes
    over union, op(.., A | B, ..) = op(.., A, ..) | op(.., B, ..); the
    fixpoint loop reads it to decide when a body may be iterated on deltas.
    `crossing` names the subterm fields that hold a term of another sort (a
    state formula in a process, a process in a state formula); walk stops
    there when asked to stay within one sort.
    """

    __slots__ = ()
    additive: tuple[str, ...] = ()
    crossing: tuple[str, ...] = ()


def _subterm_fields(node: Node) -> tuple[str, ...]:
    names = _SUBTERM_FIELDS.get(type(node))
    if names is None:
        names = tuple(f.name for f in fields(node) if isinstance(getattr(node, f.name), Node))
        _SUBTERM_FIELDS[type(node)] = names
    return names


def children(node: Node) -> tuple[Node, ...]:
    """The direct subterms of node, in field order."""
    return tuple([getattr(node, name) for name in _subterm_fields(node)])


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """node with fn applied to each direct subterm, in field order.

    Rebuilt through the constructor, so the class's validation runs again.
    """
    names = _subterm_fields(node)
    if not names:
        return node
    return replace(node, **{name: fn(getattr(node, name)) for name in names})


def walk(node: Node, within_sort: bool = False) -> list[Node]:
    """node and its subterms, post-order and left to right.

    Within a sort, the walk does not descend into a field that crosses
    sorts (the class's `crossing`).
    """
    # pre-order with the right subterm first, reversed, is left-to-right post-order
    out: list[Node] = []
    stack = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        for name in _subterm_fields(current):
            if not (within_sort and name in current.crossing):
                stack.append(getattr(current, name))
    out.reverse()
    return out
