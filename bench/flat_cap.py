"""Workload `flat-cap`: flat and boolean-state queries on one 20-bit universe.

Domain {a,b} and unary symbols P0..P9 give 2^20 = 1,048,576 structures, the
default universe cap. Extension construction and set algebra over sets of
10^5..10^6 members dominate; no pairs are built. The seed only permutes which
symbols a query uses, and the symbols are interchangeable, so every round
does the same amount of work.

Every answer is a structure count, checked against a closed form: the
symbols are independent, so a query over m symbols has
(models over those m symbols) * 4^(10-m) structures.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from common import Query, count_models, nonempty, same

NAME = "flat-cap"
SYMBOLS = tuple(f"P{i}" for i in range(10))
WIDTH = 2  # bits per unary symbol over {a,b}
TAIL_PERCENTILE = 75
MIN_ROUNDS = 3  # 48 samples, so p75 has 12 beyond it
NOMINAL_ROUND_S = 10.0


def setup(eng) -> SimpleNamespace:
    core = eng.core
    domain = core.Domain(("a", "b"))
    vocab = core.Vocabulary(tuple((s, 1) for s in SYMBOLS))
    modules = {
        "Nonempty": core.AtomicModule.builtin("Nonempty", [("N", 1)], fn=nonempty),
        "Copy": core.AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=same),
    }
    return SimpleNamespace(
        eng=eng,
        universe=core.build_universe(domain, vocab),
        valuation=core.Valuation(domain, {}, modules),
    )


def _models(symbols: int, pred) -> int:
    return count_models(symbols, WIDTH, len(SYMBOLS), pred)


def _projected_models(kept: int, hidden: int, pred) -> int:
    """Models of (exists hidden: pred) over the kept symbols; pred takes the
    kept values first, then the hidden ones."""
    values = range(1 << WIDTH)
    return _models(kept, lambda *k: any(
        pred(*k, *h) for h in itertools.product(values, repeat=hidden)))


def make_round(ctx, rng) -> list[Query]:
    F, S = ctx.eng.flat, ctx.eng.lmumu
    u, val = ctx.universe, ctx.valuation

    def ne(s):
        return F.Atom("Nonempty", (s,))

    def copy(s, t):
        return F.Atom("Copy", (s, t))

    def conj(*atoms):
        return atoms[0] if len(atoms) == 1 else F.intersect(atoms[0], conj(*atoms[1:]))

    def flat(name, expr, count):
        return Query(name, lambda: F.eval_flat(expr, val, u), len, lambda: count)

    def state(name, phi, count):
        return Query(name, lambda: S.eval_state(phi, val, u), len, lambda: count)

    # A round, cheapest first: 4 queries of ~0.1 s, 7 of ~0.2 s, 3 of ~1 s,
    # then the fixpoint and the ten-atom conjunction. The median and p75 fall
    # inside the 0.2 s and 1 s groups.
    queries = []
    for _ in range(4):
        i, j = rng.sample(SYMBOLS, 2)
        queries.append(flat("sel-top", F.Select(F.Var(i), F.Var(j), F.Complement(F.Bottom())),
                            _models(2, lambda x, y: x == y)))
    for _ in range(2):
        a, b, c, d = rng.sample(SYMBOLS, 4)
        queries.append(flat("conj-copy2", conj(copy(a, b), copy(c, d)),
                            _models(4, lambda w, x, y, z: w == x and y == z)))
    for name, connective, pred in (
        ("state-copy-or", S.Or, lambda w, x, y, z: w == x or y != z),
        ("state-copy-and", S.And, lambda w, x, y, z: w == x and y != z),
        ("state-copy-or", S.Or, lambda w, x, y, z: w == x or y != z),
    ):
        a, b, c, d = rng.sample(SYMBOLS, 4)
        phi = connective(S.Prop("Copy", (a, b)), S.Not(S.Prop("Copy", (c, d))))
        queries.append(state(name, phi, _models(4, pred)))
    for _ in range(2):
        i, j, a, b = rng.sample(SYMBOLS, 4)
        queries.append(flat("sel-copy", F.Select(F.Var(i), F.Var(j), copy(a, b)),
                            _models(4, lambda w, x, y, z: w == x and y == z)))

    for _ in range(3):
        a, b, c, d = rng.sample(SYMBOLS, 4)
        # keep {a, c}: b and d are hidden, so only a's constraint survives
        queries.append(flat(
            "pi-conj3",
            F.Project(frozenset({a, c}), conj(ne(a), ne(b), copy(c, d))),
            _projected_models(2, 2, lambda w, y, x, z: w and x and y == z),
        ))

    i, j = rng.sample(SYMBOLS, 2)
    mu = F.Lfp("Z", F.Union(conj(ne(i), ne(j)),
                            F.Project(frozenset({i}), conj(F.ModuleVar("Z"), ne(i)))))
    # Z1 = ne(i) & ne(j); Z2 = Z1 | ne(i) = ne(i), which is closed
    queries.append(flat("mu-pi", mu, _models(1, lambda x: x != 0)))

    # the ten-atom conjunction at the cap, projected onto one seeded symbol
    keep = rng.choice(SYMBOLS)
    order = list(SYMBOLS)
    rng.shuffle(order)
    queries.append(flat("pi-conj10", F.Project(frozenset({keep}), conj(*map(ne, order))),
                        _models(1, lambda x: x != 0)))
    return queries
