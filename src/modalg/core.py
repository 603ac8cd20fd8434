"""Domains, vocabularies, structures, the enumerable universe, valuations,
and atomic modules.

A structure interprets every vocabulary symbol as a relation over a finite
domain. The universe of all such structures is indexed by a bit vector: one
bit per (symbol, tuple) slot, symbols in declaration order, tuples in
lexicographic element order, first slot most significant. Index 0 is the
all-empty structure and index order is lexicographic on the bit vector.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    CapExceeded,
    ModalgError,
    UnknownBuiltin,
    UnmappedVariable,
)
from .indexsets import IndexSet, cylinder

DEFAULT_UNIVERSE_CAP = 20


@dataclass(frozen=True)
class Domain:
    """Ordered finite set of element names; iteration order is canonical."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ModalgError("domain must be non-empty")
        if len(set(self.elements)) != len(self.elements):
            raise ModalgError(f"duplicate domain elements: {self.elements}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, name: str) -> bool:
        return name in self.elements

    def index(self, name: str) -> int:
        return self.elements.index(name)


@dataclass(frozen=True)
class Vocabulary:
    """Ordered relational vocabulary; names unique, arities >= 1."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ModalgError(f"duplicate vocabulary symbols: {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise ModalgError(f"symbol {name} has arity {arity}; relations need arity >= 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)

    def arity(self, name: str) -> int:
        for n, a in self.symbols:
            if n == name:
                return a
        raise UnmappedVariable(f"symbol {name!r} not in vocabulary {self.names}")

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class RelationValue:
    """A concrete relation: a set of equal-length tuples of element names."""

    arity: int
    tuples: frozenset[tuple[str, ...]]

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise ArityMismatch(f"tuple {t} has length {len(t)}, expected {self.arity}")

    @classmethod
    def of(cls, arity: int, tuples: Iterable[Sequence[str]] = ()) -> "RelationValue":
        return cls(arity, frozenset(tuple(t) for t in tuples))

    def __contains__(self, t: tuple[str, ...]) -> bool:
        return t in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __str__(self) -> str:
        items = ",".join("(" + ",".join(t) + ")" for t in sorted(self.tuples))
        return "{" + items + "}"


@dataclass(frozen=True)
class Structure:
    """Total interpretation of a vocabulary over a domain.

    Two structures are equal iff domain, vocabulary and every interpreted
    relation coincide.
    """

    domain: Domain
    vocabulary: Vocabulary
    relations: tuple[RelationValue, ...]  # one per symbol, declaration order

    @classmethod
    def make(
        cls,
        domain: Domain,
        vocabulary: Vocabulary,
        interpretation: Mapping[str, Union[RelationValue, Iterable[Sequence[str]]]],
    ) -> "Structure":
        rels = []
        for name, arity in vocabulary.symbols:
            if name not in interpretation:
                raise ModalgError(f"symbol {name!r} is not interpreted")
            value = interpretation[name]
            if not isinstance(value, RelationValue):
                value = RelationValue.of(arity, value)
            if value.arity != arity:
                raise ArityMismatch(
                    f"symbol {name!r} has arity {arity}, got value of arity {value.arity}"
                )
            for t in value.tuples:
                for el in t:
                    if el not in domain:
                        raise ModalgError(f"element {el!r} of {name!r} not in domain")
            rels.append(value)
        extra = set(interpretation) - set(vocabulary.names)
        if extra:
            raise ModalgError(f"interpretation mentions unknown symbols: {sorted(extra)}")
        return cls(domain, vocabulary, tuple(rels))

    def rel(self, name: str) -> RelationValue:
        for (n, _), value in zip(self.vocabulary.symbols, self.relations):
            if n == name:
                return value
        raise UnmappedVariable(f"symbol {name!r} not interpreted")

    def with_rel(self, name: str, value: RelationValue) -> "Structure":
        rels = tuple(
            value if n == name else old
            for (n, _), old in zip(self.vocabulary.symbols, self.relations)
        )
        if all(a is b for a, b in zip(rels, self.relations)):
            raise UnmappedVariable(f"symbol {name!r} not in vocabulary")
        return Structure(self.domain, self.vocabulary, rels)

    def agrees_with(self, other: "Structure", symbols: Iterable[str]) -> bool:
        return all(self.rel(s) == other.rel(s) for s in symbols)

    def describe(self) -> str:
        parts = [f"{n}={r}" for (n, _), r in zip(self.vocabulary.symbols, self.relations)]
        return " ".join(parts)


_KEPT_VALUE_SLOTS = 12


def all_relation_values(domain: Domain, arity: int) -> Iterator[RelationValue]:
    """All relations of the given arity, ascending in canonical slot order.

    Canonical order mirrors the universe index: the bit pattern over the
    lexicographic tuple list, first tuple most significant. A space of at
    most 12 slots (2^12 relations) is built once and kept for the last
    (domain, arity) pair only, so the kept values stay within one space; a
    larger space is generated on demand.
    """
    if len(domain) ** arity <= _KEPT_VALUE_SLOTS:
        yield from _kept_relation_values(domain, arity)
    else:
        yield from _relation_values(domain, arity)


@functools.lru_cache(maxsize=1)
def _kept_relation_values(domain: Domain, arity: int) -> tuple[RelationValue, ...]:
    return tuple(_relation_values(domain, arity))


def _relation_values(domain: Domain, arity: int) -> Iterator[RelationValue]:
    tuples = [
        tuple(domain.elements[i] for i in idx)
        for idx in itertools.product(range(len(domain)), repeat=arity)
    ]
    width = len(tuples)
    for pattern in range(1 << width):
        chosen = [tuples[k] for k in range(width) if pattern & (1 << (width - 1 - k))]
        yield RelationValue.of(arity, chosen)


# ---------------------------------------------------------------------------
# Atomic modules


def _hamiltonian_circuit(domain: Domain, rels: Sequence[RelationValue]) -> bool:
    """Y forms a directed cycle visiting every element of V exactly once, Y <= X."""
    v_set, x_rel, y_rel = rels
    vertices = {t[0] for t in v_set.tuples}
    if not vertices:
        return False
    if not y_rel.tuples <= x_rel.tuples:
        return False
    if len(y_rel.tuples) != len(vertices):
        return False
    succ: dict[str, str] = {}
    for a, b in y_rel.tuples:
        if a not in vertices or b not in vertices or a in succ:
            return False
        succ[a] = b
    if set(succ) != vertices:
        return False
    # walk the unique successor chain: one cycle covering all vertices
    start = next(iter(vertices))
    seen = set()
    node = start
    for _ in range(len(vertices)):
        if node in seen:
            return False
        seen.add(node)
        node = succ[node]
    return node == start and seen == vertices


def _two_col(domain: Domain, rels: Sequence[RelationValue]) -> bool:
    """Z, T partition V and no X-edge joins two Z- or two T-elements."""
    v_set, x_rel, z_rel, t_rel = rels
    vertices = {t[0] for t in v_set.tuples}
    z = {t[0] for t in z_rel.tuples}
    t = {u[0] for u in t_rel.tuples}
    if z | t != vertices or z & t:
        return False
    for a, b in x_rel.tuples:
        if (a in z and b in z) or (a in t and b in t):
            return False
    return True


BUILTIN_ORACLES: dict[str, Callable[[Domain, Sequence[RelationValue]], bool]] = {
    "hamiltonian_circuit": _hamiltonian_circuit,
    "two_col": _two_col,
}


@dataclass(frozen=True)
class AtomicModule:
    """An oracle over structures, reading only its variable vocabulary.

    kind 'extensional' lists the accepted vvoc interpretations explicitly;
    kind 'builtin' delegates to a named predicate. Locality holds by
    construction: membership reads only the vvoc images.
    """

    name: str
    vvoc: tuple[tuple[str, int], ...]
    kind: str  # 'extensional' | 'builtin'
    structures: frozenset[tuple[RelationValue, ...]] = frozenset()
    oracle: Optional[Callable[[Domain, Sequence[RelationValue]], bool]] = None
    propositional: bool = False

    @classmethod
    def extensional(
        cls,
        name: str,
        vvoc: Sequence[tuple[str, int]],
        structures: Iterable[Sequence[RelationValue]],
    ) -> "AtomicModule":
        vv = tuple(vvoc)
        frozen = set()
        for s in structures:
            rels = tuple(s)
            if len(rels) != len(vv):
                raise ArityMismatch(f"module {name}: vvoc has {len(vv)} variables, got {len(rels)}")
            for (var, arity), rel in zip(vv, rels):
                if rel.arity != arity:
                    raise ArityMismatch(f"module {name}: {var} expects arity {arity}")
            frozen.add(rels)
        return cls(name, vv, "extensional", structures=frozenset(frozen))

    @classmethod
    def builtin(
        cls,
        name: str,
        vvoc: Sequence[tuple[str, int]],
        oracle_name: Optional[str] = None,
        fn: Optional[Callable[[Domain, Sequence[RelationValue]], bool]] = None,
        propositional: bool = False,
    ) -> "AtomicModule":
        if fn is None:
            key = oracle_name or name
            if key not in BUILTIN_ORACLES:
                raise UnknownBuiltin(f"no builtin oracle named {key!r}")
            fn = BUILTIN_ORACLES[key]
        return cls(name, tuple(vvoc), "builtin", oracle=fn, propositional=propositional)

    def accepts(self, domain: Domain, rels: Sequence[RelationValue]) -> bool:
        if len(rels) != len(self.vvoc):
            raise ArityMismatch(
                f"module {self.name} expects {len(self.vvoc)} relations, got {len(rels)}"
            )
        for (var, arity), rel in zip(self.vvoc, rels):
            if rel.arity != arity:
                raise ArityMismatch(
                    f"module {self.name}: variable {var} has arity {arity}, got {rel.arity}"
                )
        if self.kind == "extensional":
            return tuple(rels) in self.structures
        assert self.oracle is not None
        return self.oracle(domain, rels)


def propositional_module(
    name: str, variables: Sequence[str], truth: Callable[[tuple[bool, ...]], bool]
) -> AtomicModule:
    """Module whose membership depends only on per-variable nonemptiness."""

    def fn(domain: Domain, rels: Sequence[RelationValue]) -> bool:
        return truth(tuple(bool(r.tuples) for r in rels))

    return AtomicModule.builtin(
        name, [(v, 1) for v in variables], fn=fn, propositional=True
    )


@dataclass(frozen=True)
class Valuation:
    """The pair (V, v): variable-to-symbol map, domain, module interpretations,
    plus bindings for free module/set variables."""

    domain: Domain
    var_map: Mapping[str, str]  # v; identity where a variable is missing
    modules: Mapping[str, AtomicModule]
    env: Mapping[str, object] = None  # module-variable bindings (sets / edge sets)

    def __post_init__(self):
        if self.env is None:
            object.__setattr__(self, "env", {})

    def symbol(self, var: str) -> str:
        return self.var_map.get(var, var)

    def module(self, name: str) -> AtomicModule:
        if name not in self.modules:
            raise UnknownBuiltin(f"no atomic module named {name!r}")
        return self.modules[name]

    def bind(self, name: str, value: object) -> "Valuation":
        env = dict(self.env)
        env[name] = value
        return Valuation(self.domain, self.var_map, self.modules, env)

    def with_modules(self, extra: Mapping[str, AtomicModule]) -> "Valuation":
        mods = dict(self.modules)
        mods.update(extra)
        return Valuation(self.domain, self.var_map, mods, dict(self.env))


def _bound_symbols(
    module: AtomicModule, var_to_symbol: Mapping[str, str], vocabulary: Vocabulary
) -> list[str]:
    """The symbols the v-image binds vvoc(module) to, in vvoc order; checks
    that each is in the vocabulary at its variable's arity."""
    symbols = []
    for var, arity in module.vvoc:
        if var not in var_to_symbol:
            raise UnmappedVariable(f"variable {var!r} of module {module.name} is unmapped")
        sym = var_to_symbol[var]
        if sym not in vocabulary:
            raise UnmappedVariable(f"symbol {sym!r} not in vocabulary")
        if vocabulary.arity(sym) != arity:
            raise ArityMismatch(
                f"module {module.name}: variable {var} (arity {arity}) bound to "
                f"symbol {sym} (arity {vocabulary.arity(sym)})"
            )
        symbols.append(sym)
    return symbols


def module_membership(
    module: AtomicModule, var_to_symbol: Mapping[str, str], structure: Structure
) -> bool:
    """Does the structure belong to the module under the given v-image?

    Reads only the v-images of vvoc(module); raises ArityMismatch when the
    bound symbol's arity differs from the variable's.
    """
    symbols = _bound_symbols(module, var_to_symbol, structure.vocabulary)
    return module.accepts(structure.domain, [structure.rel(sym) for sym in symbols])


# ---------------------------------------------------------------------------
# The universe of all τ-structures, as an indexed bit space


class Universe:
    """All structures over a fixed domain and vocabulary, bit-indexed.

    size = 2^(sum over symbols of |domain|^arity); structure_at/index_of is a
    deterministic bijection.
    """

    def __init__(self, domain: Domain, vocabulary: Vocabulary, cap: int = DEFAULT_UNIVERSE_CAP):
        self.domain = domain
        self.vocabulary = vocabulary
        bits = 0
        self._slots: dict[str, tuple[int, int]] = {}  # name -> (offset, width)
        self._tuples: dict[str, list[tuple[str, ...]]] = {}
        for name, arity in vocabulary.symbols:
            tuples = [
                tuple(domain.elements[i] for i in idx)
                for idx in itertools.product(range(len(domain)), repeat=arity)
            ]
            self._slots[name] = (bits, len(tuples))
            self._tuples[name] = tuples
            bits += len(tuples)
        if bits > cap:
            raise CapExceeded(
                f"universe needs {bits} bits (> cap {cap}): too large for explicit enumeration"
            )
        self.total_bits = bits
        self.size = 1 << bits

    # bit position of slot k at (offset, width): MSB-first over the whole vector
    def _bit(self, offset: int, k: int) -> int:
        return 1 << (self.total_bits - 1 - (offset + k))

    def mask(self, symbols: Iterable[str]) -> int:
        m = 0
        for name in symbols:
            if name not in self._slots:
                raise UnmappedVariable(f"symbol {name!r} not in vocabulary")
            offset, width = self._slots[name]
            m |= ((1 << width) - 1) << (self.total_bits - offset - width)
        return m

    @property
    def full_mask(self) -> int:
        return (1 << self.total_bits) - 1

    def rel_of_index(self, index: int, symbol: str) -> RelationValue:
        offset, width = self._slots[symbol]
        tuples = self._tuples[symbol]
        chosen = [tuples[k] for k in range(width) if index & self._bit(offset, k)]
        return RelationValue.of(self.vocabulary.arity(symbol), chosen)

    def encode_rel(self, symbol: str, value: RelationValue) -> int:
        offset, width = self._slots[symbol]
        tuples = self._tuples[symbol]
        bits = 0
        for t in value.tuples:
            try:
                k = tuples.index(t)
            except ValueError:
                raise ModalgError(f"tuple {t} of {symbol} not over the domain")
            bits |= self._bit(offset, k)
        return bits

    def structure_at(self, index: int) -> Structure:
        if not 0 <= index < self.size:
            raise ModalgError(f"index {index} out of range 0..{self.size - 1}")
        rels = tuple(self.rel_of_index(index, name) for name in self.vocabulary.names)
        return Structure(self.domain, self.vocabulary, rels)

    def index_of(self, structure: Structure) -> int:
        if structure.domain != self.domain or structure.vocabulary != self.vocabulary:
            raise ModalgError("structure is not over this universe's domain/vocabulary")
        index = 0
        for (name, _), value in zip(self.vocabulary.symbols, structure.relations):
            index |= self.encode_rel(name, value)
        return index

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Structure]:
        for i in range(self.size):
            yield self.structure_at(i)


def build_universe(
    domain: Domain, vocabulary: Vocabulary, cap: int = DEFAULT_UNIVERSE_CAP
) -> Universe:
    """Materializable universe of all τ-structures; CapExceeded above the bit cap."""
    return Universe(domain, vocabulary, cap)


class UniverseSet:
    """A set of the universe's structures (arity 1) or of its structure pairs
    (arity 2), held in `iset`, an index set of that sort (see indexsets).
    The set algebra is one for both; StructureSet and dynamic.EdgeSet add
    only their readers."""

    __slots__ = ("universe", "iset")
    arity = 1
    build = IndexSet  # build(n, members=()): the iset over n = universe.size states

    def __init__(self, universe: Universe, iset) -> None:
        if iset.space != universe.size ** self.arity:
            raise ModalgError(f"{iset!r} does not match the universe's {universe.size} structures")
        self.universe = universe
        self.iset = iset

    @classmethod
    def empty(cls, universe: Universe):
        return cls(universe, cls.build(universe.size))

    def __len__(self) -> int:
        return len(self.iset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.universe is other.universe and self.iset == other.iset

    def __hash__(self) -> int:
        return hash((id(self.universe), len(self.iset)))

    def union(self, other):
        return type(self)(self.universe, self.iset.union(other.iset))

    def intersection(self, other):
        return type(self)(self.universe, self.iset.intersection(other.iset))

    def complement(self):
        return type(self)(self.universe, self.iset.complement())

    def issubset(self, other) -> bool:
        return self.iset.issubset(other.iset)

    def __repr__(self) -> str:
        power = "^2" if self.arity == 2 else ""
        return f"{type(self).__name__}({len(self)} of {self.universe.size}{power})"


class StructureSet(UniverseSet):
    """Set of universe structures backed by a state bitmap (see indexsets)."""

    __slots__ = ()

    @classmethod
    def of_indices(cls, universe: Universe, indices: Iterable[int]) -> "StructureSet":
        return cls(universe, IndexSet(universe.size, indices))

    def indices(self) -> Iterator[int]:
        return self.iset.indices()

    def structures(self) -> Iterator[Structure]:
        for i in self.iset.indices():
            yield self.universe.structure_at(i)

    def __contains__(self, item: Union[Structure, int]) -> bool:
        i = item if isinstance(item, int) else self.universe.index_of(item)
        return i in self.iset


def extension_index_set(
    universe: Universe,
    module: AtomicModule,
    var_to_symbol: Mapping[str, str],
    cache: Optional[dict] = None,
) -> IndexSet:
    """Indices of structures accepted by the module under the v-image.

    Enumerates only the vvoc slot patterns (locality), then expands over the
    untouched slots, so the membership oracle runs 2^(vvoc bits) times, not
    2^(total bits). Each bound symbol's 2^width values are decoded once, and
    a pattern is one choice of value per symbol. The cache is keyed by the
    module object, as two valuations may give one name different modules.
    """
    symbols = _bound_symbols(module, var_to_symbol, universe.vocabulary)
    key = (module, tuple(symbols))
    if cache is not None and key in cache:
        return cache[key]
    distinct = list(dict.fromkeys(symbols))
    decoded = []  # per distinct symbol: (its bits in an index, its value)
    for sym in distinct:
        m = universe.mask([sym])
        shift = (m & -m).bit_length() - 1
        values = all_relation_values(universe.domain, universe.vocabulary.arity(sym))
        decoded.append([(p << shift, value) for p, value in enumerate(values)])
    position = [distinct.index(sym) for sym in symbols]
    accepted = [
        sum(bits for bits, _ in choice)
        for choice in itertools.product(*decoded)
        if module.accepts(universe.domain, [choice[k][1] for k in position])
    ]
    vmask = universe.mask(symbols)
    result = cylinder(universe.size, accepted, universe.full_mask & ~vmask)
    if cache is not None:
        cache[key] = result
    return result


def values_index_set(universe: Universe, values: Mapping[str, RelationValue]) -> IndexSet:
    """Indices of the structures that interpret each given symbol by its value."""
    pattern = 0
    for sym, value in values.items():
        pattern |= universe.encode_rel(sym, value)
    return cylinder(universe.size, [pattern], universe.full_mask & ~universe.mask(values))


def extension_of(module: AtomicModule, valuation: Valuation, universe: Universe) -> StructureSet:
    """All universe structures belonging to the module under the valuation."""
    binding = {var: valuation.symbol(var) for var, _ in module.vvoc}
    iset = extension_index_set(universe, module, binding)
    return StructureSet(universe, iset)
