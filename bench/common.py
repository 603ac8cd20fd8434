"""Pieces shared by the workloads: the query record, the engine loader and
the index layout of unary universes over small domains.

The benchmark imports `modalg` from the checkout's own `src/` directory. A
workload only builds inputs and references; every call into the engine goes
through a `Query`, so the harness can time it and check its answer apart.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Layers named after the engine's modules; `cli` only dispatches to `tasks`.
ENGINE_MODULES = (
    "core", "indexsets", "flat", "dynamic", "lmumu", "tasks", "parser", "printer", "export",
)


@dataclass
class Query:
    """One request a user makes and waits for.

    `call` is the timed engine call. `answer` turns its result into a plain
    value and `expected` computes the reference value; both run after the
    timer stopped. The query is correct iff the two are equal.
    """

    name: str
    call: Callable[[], Any]
    answer: Callable[[Any], Any]
    expected: Callable[[], Any]


def engine_available() -> bool:
    return (SRC / "modalg" / "__init__.py").is_file()


def import_engine() -> SimpleNamespace:
    """Import `modalg` afresh from the checkout (earlier imports are dropped,
    so repeated set-ups each pay the full import)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "modalg" or m.startswith("modalg.")]:
        del sys.modules[name]
    eng = SimpleNamespace()
    for name in ENGINE_MODULES:
        try:
            module = importlib.import_module(f"modalg.{name}")
        except ModuleNotFoundError:
            module = None  # a layer a later version folded away
        setattr(eng, name, module)
    return eng


def read_spec(name: str) -> str:
    """Text of a spec shipped at the root of the checkout."""
    return (ROOT / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Unary universes: the documented index layout, written out independently.
# One bit per (symbol, element), symbols in declaration order, elements in
# domain order, first slot most significant.


class UnaryLayout:
    """Decode/encode indices of a universe of unary symbols."""

    def __init__(self, elements: tuple[str, ...], symbols: tuple[str, ...]):
        self.elements = elements
        self.symbols = symbols
        self.width = len(elements)
        self.bits = self.width * len(symbols)
        self.size = 1 << self.bits
        self.full_value = (1 << self.width) - 1

    def shift(self, symbol: str) -> int:
        return self.bits - self.width * (self.symbols.index(symbol) + 1)

    def value(self, index: int, symbol: str) -> int:
        return (index >> self.shift(symbol)) & self.full_value

    def with_value(self, index: int, symbol: str, value: int) -> int:
        shift = self.shift(symbol)
        return (index & ~(self.full_value << shift)) | (value << shift)

    def tuples(self, value: int) -> frozenset[tuple[str, ...]]:
        """Relation tuples of a per-symbol value (first element = top bit)."""
        return frozenset(
            (e,) for k, e in enumerate(self.elements) if value >> (self.width - 1 - k) & 1
        )


def nonempty(domain, rels) -> bool:
    """Oracle: the first argument is a nonempty relation."""
    return bool(rels[0].tuples)


def same(domain, rels) -> bool:
    """Oracle: the first two arguments are the same relation."""
    return rels[0] == rels[1]


def unary(elements) -> frozenset[tuple[str]]:
    """Tuples of a unary relation over the given elements."""
    return frozenset((e,) for e in elements)


def count_models(symbols: int, width: int, total: int, pred: Callable[..., bool]) -> int:
    """Structures over `total` independent unary symbols whose first `symbols`
    values satisfy `pred`; the other symbols are free."""
    values = range(1 << width)
    hits = sum(1 for combo in itertools.product(values, repeat=symbols) if pred(*combo))
    return hits << (width * (total - symbols))


def corrupt_value(value: Any) -> Any:
    """A value that differs from `value`; used by the self-test."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, frozenset):
        return value | {("corrupted",)}
    if isinstance(value, tuple):
        return value + ("corrupted",)
    return ("corrupted", value)
