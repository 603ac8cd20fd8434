"""Reference answers computed without the engine's set code.

Everything here works on plain Python values: states are universe indices
decoded by `common.UnaryLayout`, relations are frozensets of tuples, and
graph predicates are written out from their definitions.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

# ---------------------------------------------------------------------------
# Hamiltonian circuit and 2-colouring, from the definitions


def is_hamiltonian_circuit(vertices: frozenset, x: frozenset, y: frozenset) -> bool:
    """Y is a directed cycle through every vertex exactly once, Y within X."""
    if not vertices or not y <= x or len(y) != len(vertices):
        return False
    succ = {}
    for a, b in y:
        if a not in vertices or b not in vertices or a in succ:
            return False
        succ[a] = b
    if set(succ) != vertices:
        return False
    start = min(vertices)
    node, seen = start, set()
    for _ in vertices:
        if node in seen:
            return False
        seen.add(node)
        node = succ[node]
    return node == start and seen == vertices


def is_two_colouring(vertices: frozenset, edges: frozenset, z: frozenset, t: frozenset) -> bool:
    """Z and T partition V and no edge stays inside one colour."""
    if z | t != vertices or z & t:
        return False
    return all(not ({a, b} <= z or {a, b} <= t) for a, b in edges)


def subsets(items) -> Iterable[frozenset]:
    items = list(items)
    for bits in range(1 << len(items)):
        yield frozenset(v for k, v in enumerate(items) if bits >> k & 1)


def circuit_colourings(elements: tuple[str, ...], x_edges: frozenset) -> frozenset:
    """All (Y, Z, T) with Y a Hamiltonian circuit of (V, X) and (Z, T) a
    2-colouring of Y; Y as a set of pairs, Z and T as sets of elements."""
    vertices = frozenset(elements)
    pairs = [(a, b) for a in elements for b in elements]
    found = set()
    for y in subsets(pairs):
        if not is_hamiltonian_circuit(vertices, x_edges, y):
            continue
        for z in subsets(elements):
            for t in subsets(elements):
                if is_two_colouring(vertices, y, z, t):
                    found.add((y, z, t))
    return frozenset(found)


# ---------------------------------------------------------------------------
# Explicit successor functions: closures and layers by breadth-first search


def successors(size: int, succ: Callable[[int], Iterable[int]]) -> list[tuple[int, ...]]:
    """The successor function as a table, one entry per state."""
    return [tuple(succ(s)) for s in range(size)]


def reachable(start: int, table) -> set[int]:
    """States reachable from start in zero or more steps."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in table[s]:
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def can_reach(table, targets: Iterable[int]) -> frozenset[int]:
    """States from which some target is reachable (search backwards)."""
    preds: list[list[int]] = [[] for _ in table]
    for s, succs in enumerate(table):
        for t in succs:
            preds[t].append(s)
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for s in preds[t]:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(seen)


def star_pairs(table) -> frozenset[tuple[int, int]]:
    return frozenset((s, t) for s in range(len(table)) for t in reachable(s, table))


def step_pairs(table, low: int, high: int) -> frozenset[tuple[int, int]]:
    """Pairs joined by a path of low..high steps."""
    out = set()
    for s in range(len(table)):
        layer = {s}
        for k in range(high + 1):
            if k >= low:
                out.update((s, t) for t in layer)
            layer = {t for m in layer for t in table[m]}
    return frozenset(out)


def least_fixpoint(step: Callable[[frozenset], frozenset]) -> frozenset:
    current = frozenset()
    while True:
        nxt = step(current)
        if nxt == current:
            return current
        current = nxt


# ---------------------------------------------------------------------------
# Small formulas over the 16-structure P/Q universe
#
# Formulas are nested tuples, e.g. ("or", ("atom", "FullP"), ("not", ("bot",))).
# A state s has P = s >> 2 and Q = s & 3, with bit 1 for element a and bit 0
# for element b.

PQ_STATES = range(16)
PQ_FULL = 3


def _p(s: int) -> int:
    return s >> 2


def _q(s: int) -> int:
    return s & 3


PQ_ATOMS = {
    "FullP": lambda s: _p(s) == PQ_FULL,
    "EmptyQ": lambda s: _q(s) == 0,
    "NonemptyP": lambda s: _p(s) != 0,
    "Copy": lambda s: _p(s) == _q(s),
}


def _states(pred) -> frozenset[int]:
    return frozenset(s for s in PQ_STATES if pred(s))


def _project(states: frozenset, keep: frozenset) -> frozenset:
    """States agreeing on the kept symbols with some member."""
    def key(s):
        return (_p(s) if "P" in keep else None, _q(s) if "Q" in keep else None)

    keys = {key(s) for s in states}
    return _states(lambda s: key(s) in keys)


def pq_flat(f, env: dict | None = None) -> frozenset[int]:
    env = env or {}
    op = f[0]
    if op == "bot":
        return frozenset()
    if op == "atom":
        return _states(PQ_ATOMS[f[1]])
    if op == "var":
        return env[f[1]]
    if op == "or":
        return pq_flat(f[1], env) | pq_flat(f[2], env)
    if op == "and":
        return pq_flat(f[1], env) & pq_flat(f[2], env)
    if op == "not":
        return frozenset(PQ_STATES) - pq_flat(f[1], env)
    if op == "proj":
        return _project(pq_flat(f[2], env), f[1])
    if op == "sel":  # P == Q, or P == {(a)}
        test = (lambda s: _p(s) == _q(s)) if f[1] == "Q" else (lambda s: _p(s) == 2)
        return pq_flat(f[2], env) & _states(test)
    if op == "mu":
        return least_fixpoint(lambda z: pq_flat(f[2], {**env, f[1]: z}))
    raise ValueError(f"unknown flat node {op}")


def _setp(s: int) -> int:
    return (s & 3) | (PQ_FULL << 2)


def _copyq(s: int) -> int:
    return (s & 12) | _p(s)


ALL_PAIRS = frozenset(itertools.product(PQ_STATES, PQ_STATES))
DIAGONAL = frozenset((s, s) for s in PQ_STATES)


def compose(a: frozenset, b: frozenset) -> frozenset:
    by_source: dict[int, list[int]] = {}
    for m, j in b:
        by_source.setdefault(m, []).append(j)
    return frozenset((i, j) for i, m in a for j in by_source.get(m, ()))


def pq_proc(a) -> frozenset[tuple[int, int]]:
    op = a[0]
    if op == "bot":
        return frozenset()
    if op == "diag":
        return DIAGONAL
    if op == "setp":
        return frozenset((s, _setp(s)) for s in PQ_STATES)
    if op == "copyq":
        return frozenset((s, _copyq(s)) for s in PQ_STATES)
    if op == "test-fullp":
        return frozenset((s, s) for s in PQ_STATES if _p(s) == PQ_FULL)
    if op == "p-is-a":
        return frozenset((s, s) for s in PQ_STATES if _p(s) == 2)
    if op == "or":
        return pq_proc(a[1]) | pq_proc(a[2])
    if op == "seq":
        return compose(pq_proc(a[1]), pq_proc(a[2]))
    if op == "not":
        return ALL_PAIRS - pq_proc(a[1])
    if op == "dn":
        return frozenset((i, i) for i, _ in pq_proc(a[1]))
    if op == "star":
        inner = pq_proc(a[1])
        return least_fixpoint(lambda z: DIAGONAL | compose(z, inner))
    if op == "count":
        inner, low, high = pq_proc(a[1]), a[2], a[3]
        power, out = DIAGONAL, set()
        for k in range(high + 1):
            if k >= low:
                out |= power
            power = compose(power, inner)
        return frozenset(out)
    raise ValueError(f"unknown process node {op}")


def pq_state(phi, env: dict | None = None) -> frozenset[int]:
    env = env or {}
    op = phi[0]
    if op == "prop":
        return _states(PQ_ATOMS[phi[1]])
    if op == "var":
        return env[phi[1]]
    if op == "or":
        return pq_state(phi[1], env) | pq_state(phi[2], env)
    if op == "and":
        return pq_state(phi[1], env) & pq_state(phi[2], env)
    if op == "not":
        return frozenset(PQ_STATES) - pq_state(phi[1], env)
    if op == "dia":
        targets = pq_state(phi[2], env)
        return frozenset(i for i, j in pq_proc(phi[1]) if j in targets)
    if op == "box":
        targets = pq_state(phi[2], env)
        bad = {i for i, j in pq_proc(phi[1]) if j not in targets}
        return frozenset(PQ_STATES) - bad
    if op == "mu":
        return least_fixpoint(lambda z: pq_state(phi[2], {**env, phi[1]: z}))
    raise ValueError(f"unknown state node {op}")
