"""Surface syntax: tokenizer and precedence-climbing parser for spec files
and for the three expression sorts.

The operators come from one table, printer.OPERATORS, which the printer
reads too (Pratt, Top down operator precedence, POPL 1973): parse_expr
climbs a sort's infix rows, and parse_unary reads its prefix rows, or a
primary and its postfix rows, reading each row's text around the holes for
the node's other fields. parse_primary reads the leaves by hand. A
parenthesised process may be a state test, (phi)?: that is tried first,
once per position.

Declarations end with ';'. Sequential composition also uses ';', inside
expressions: the parser disambiguates with one token of lookahead, since a
declaration never starts with an expression token. Definitions may refer to
earlier definitions by name; references are inlined at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from . import dynamic, flat, lmumu
from .core import AtomicModule, Domain, RelationValue, Valuation, Vocabulary
from .errors import ModalgError, SpecSyntaxError
from .printer import INFIX, OPERATORS, POSTFIX, PREFIX, Operator
from .syntax import Node

T = TypeVar("T")

KEYWORDS = {
    "domain", "vocab", "module", "flat", "dyn", "state", "task",
    "builtin", "structures", "truth", "in", "out", "prop", "mu", "sel",
    "pi", "dn", "up", "neg", "rev", "diag", "bot", "const",
    "sigma", "with", "kind",
}

_DECL_KEYWORDS = {"domain", "vocab", "module", "flat", "dyn", "state", "task"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<const>'[^']*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<op>!=\?|=\?|==|!=|[{}()\[\]<>,;.|&\-!?*^=/:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, INT, CONST, OP, EOF
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "ws":
            pass
        elif m.lastgroup == "const":
            tokens.append(Token("CONST", lexeme[1:-1], line, col))
        elif m.lastgroup == "name":
            tokens.append(Token("NAME", lexeme, line, col))
        elif m.lastgroup == "int":
            tokens.append(Token("INT", lexeme, line, col))
        else:
            tokens.append(Token("OP", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass
class TaskDirective:
    name: str
    kind: str
    formula: str
    sigma: frozenset[str] = frozenset()
    bindings: dict[str, RelationValue] = field(default_factory=dict)
    outputs: dict[str, RelationValue] = field(default_factory=dict)


@dataclass
class SpecFile:
    domain: Optional[Domain] = None
    vocabulary: Optional[Vocabulary] = None
    modules: dict[str, AtomicModule] = field(default_factory=dict)
    flat_defs: dict[str, flat.FlatExpr] = field(default_factory=dict)
    dyn_defs: dict[str, dynamic.ProcExpr] = field(default_factory=dict)
    state_defs: dict[str, flat.StateExpr] = field(default_factory=dict)
    tasks: dict[str, TaskDirective] = field(default_factory=dict)

    def valuation(self) -> Valuation:
        if self.domain is None:
            raise SpecSyntaxError("spec declares no domain", 0, 0)
        return Valuation(self.domain, {}, dict(self.modules))


# the tokens that start an expression: the prefix operators' and the leaves'
_EXPR_START = {row.token for row in OPERATORS if row.fixity == PREFIX} | {
    "(", "bot", "diag", "const", "prop"}
# the parser names each sort by the keyword of its definitions
_SORTS = {"flat": flat.FlatExpr, "dyn": flat.ProcExpr, "state": flat.StateExpr}
_ROWS = {(sort, fixity): {row.token: row for row in OPERATORS
                          if row.fixity == fixity and base in row.sorts}
         for sort, base in _SORTS.items() for fixity in (PREFIX, INFIX, POSTFIX)}


class _Parser:
    def __init__(self, tokens: list[Token], spec: Optional[SpecFile] = None):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec if spec is not None else SpecFile()
        # start position -> (the (phi)? test there or None, its end position)
        self.state_tests: dict[int, tuple[Optional[dynamic.StateTest], int]] = {}

    # -- token plumbing

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.check(kind, value):
            want = value if value is not None else kind
            raise SpecSyntaxError(f"expected {want!r}, found {tok.value!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message: str) -> SpecSyntaxError:
        tok = self.peek()
        return SpecSyntaxError(message, tok.line, tok.column)

    def build(self, start: Token, make: Callable[..., T], *args) -> T:
        """make(*args). Any other error it raises, such as a node
        constructor's check, becomes a syntax error at start, the first token
        of the construct, with the same message."""
        try:
            return make(*args)
        except SpecSyntaxError:
            raise
        except ModalgError as exc:
            raise SpecSyntaxError(str(exc), start.line, start.column) from exc

    def starts_expression(self, offset: int = 0) -> bool:
        tok = self.peek(offset)
        if tok.kind == "NAME":
            return tok.value in _EXPR_START or tok.value not in KEYWORDS
        return tok.kind == "OP" and tok.value in _EXPR_START

    # -- shared literals

    def parse_items(self, item: Callable[[], object]) -> list:
        """item (',' item)*"""
        items = [item()]
        while self.accept("OP", ","):
            items.append(item())
        return items

    def parse_name(self) -> str:
        return self.expect("NAME").value

    def parse_int(self) -> int:
        return int(self.expect("INT").value)

    def parse_name_list(self) -> list[str]:
        self.expect("OP", "{")
        names = [] if self.check("OP", "}") else self.parse_items(self.parse_name)
        self.expect("OP", "}")
        return names

    def parse_tuple(self) -> tuple[str, ...]:
        self.expect("OP", "(")
        items = self.parse_items(self.parse_name)
        self.expect("OP", ")")
        return tuple(items)

    def parse_relation_literal(self) -> flat.Const:
        self.expect("OP", "{")
        tuples = [] if self.check("OP", "}") else self.parse_items(self.parse_tuple)
        self.expect("OP", "}")
        return flat.Const.of(tuples)

    def parse_relation(self) -> RelationValue:
        """A relation literal as a value: '{}' has arity 1."""
        const = self.parse_relation_literal()
        return RelationValue(1 if const.arity is None else const.arity, const.tuples)

    def parse_const_token(self) -> flat.Const:
        tok = self.expect("CONST")
        return self.build(tok, _parse_whole, tok.value, _Parser.parse_relation_literal)

    def parse_operand(self) -> flat.Var | flat.Const:
        if self.check("CONST"):
            return self.parse_const_token()
        return flat.Var(self.expect("NAME").value)

    # -- expressions: one precedence climber over printer.OPERATORS

    def _row(self, sort: str, fixity: str) -> Optional[Operator]:
        """The sort's operator of this fixity whose token is next; a quoted constant is none."""
        tok = self.peek()
        return None if tok.kind == "CONST" else _ROWS[sort, fixity].get(tok.value)

    def parse_expr(self, sort: str, level: int) -> Node:
        """An expression of the sort, joined by infix operators that bind at
        level or tighter. A ';' not followed by an expression ends the
        declaration, so it is left unread."""
        start = self.peek()
        left = self.parse_unary(sort)
        while True:
            row = self._row(sort, INFIX)
            if row is None or row.power < level or (
                    row.token == ";" and not self.starts_expression(1)):
                return left
            self.advance()
            left = self.build(start, row.ctor, left, self.parse_expr(sort, row.power + 1))

    def parse_unary(self, sort: str) -> Node:
        """A prefix operator and its operand, or a primary and its postfix
        operators: postfix binds tighter, so `dn a*` is `dn (a*)`."""
        start = self.peek()
        row = self._row(sort, PREFIX)
        if row is not None:
            self.advance()
            holes = self._parse_holes(row)
            return self.build(start, row.ctor, *holes, self.parse_expr(sort, row.power))
        expr = self.parse_primary(sort)
        while (row := self._row(sort, POSTFIX)) is not None:
            self.advance()
            expr = self.build(start, row.ctor, expr, *self._parse_holes(row))
        return expr

    def _parse_holes(self, row: Operator) -> list:
        """The row's text after its token: literal tokens, and the holes
        between them."""
        holes = []
        for literal, hole in row.pieces:
            for value in literal.split():
                self.expect("OP", value)
            if hole:
                holes.append(_HOLES[hole](self))
        return holes

    def parse_primary(self, sort: str) -> Node:
        """A leaf, by hand: a group, bot, the sort's own leaves, or a name."""
        if self.check("OP", "("):
            test = self._try_state_test() if sort == "dyn" else None
            if test is not None:
                return test
            self.advance()
            inner = self.parse_expr(sort, 0)
            self.expect("OP", ")")
            return inner
        if self.accept("NAME", "bot"):
            return flat.Bottom()
        if sort == "dyn" and self.accept("NAME", "diag"):
            return dynamic.Diagonal()
        if sort == "dyn" and self.accept("NAME", "const"):
            self.expect("OP", "[")
            var = self.expect("NAME").value
            if self.accept("OP", "=="):
                equal = True
            elif self.accept("OP", "!="):
                equal = False
            else:
                raise self.fail("expected '==' or '!=' in constant test")
            value = self.parse_const_token()
            self.expect("OP", "]")
            return dynamic.ConstTest(var, value, equal)
        if sort == "state" and self.accept("NAME", "prop"):
            name = self.expect("NAME").value
            if self.accept("OP", "("):
                args = self.parse_items(self.parse_name)
                self.expect("OP", ")")
                return lmumu.Prop(name, tuple(args))
            if name in self.spec.modules:
                formals = tuple(v for v, _ in self.spec.modules[name].vvoc)
                return lmumu.Prop(name, formals)
            raise self.fail(f"prop {name} without arguments needs a declared module")
        tok = self.expect("NAME")
        if tok.value in KEYWORDS:
            raise SpecSyntaxError(f"unexpected keyword {tok.value!r}", tok.line, tok.column)
        if sort != "state" and self.check("OP", "("):
            return self._parse_atom(tok.value, sort)
        defs = getattr(self.spec, f"{sort}_defs")
        if tok.value in defs:
            return defs[tok.value]
        return flat.ModuleVar(tok.value)

    def _parse_atom(self, name: str, sort: str) -> Node:
        """name(args): a flat atom, or in a process an action, its arguments
        marked in/out, or a test, M(args)?."""
        self.expect("OP", "(")
        if sort == "dyn" and (self.check("NAME", "in") or self.check("NAME", "out")):
            args: list[str] = []
            markers: dict[str, str] = {}  # argument -> in or out
            while True:  # a marker holds until the next one
                if self.accept("NAME", "in"):
                    marker = "in"
                elif self.accept("NAME", "out"):
                    marker = "out"
                tok = self.expect("NAME")
                if markers.setdefault(tok.value, marker) != marker:
                    raise SpecSyntaxError(
                        f"argument {tok.value} is marked both in and out", tok.line, tok.column
                    )
                args.append(tok.value)
                if self.accept("OP", ",") or self.accept("OP", ";"):
                    continue
                break
            self.expect("OP", ")")
            inputs = frozenset(a for a, m in markers.items() if m == "in")
            return dynamic.Action(name, tuple(args), inputs, frozenset(args) - inputs)
        args = self.parse_items(self.parse_name)
        self.expect("OP", ")")
        if sort == "flat":
            return flat.Atom(name, tuple(args))
        self.expect("OP", "?")  # a plain atom in a process is a test
        return dynamic.Test(name, tuple(args))

    def _try_state_test(self) -> Optional[dynamic.StateTest]:
        """(phi)? here, or None with the position unchanged. The attempt is
        made once per start position, so a group that turns out to be a
        process is not tried again from each enclosing attempt."""
        start = self.pos
        if start not in self.state_tests:
            try:
                self.expect("OP", "(")
                phi = self.parse_expr("state", 0)
                self.expect("OP", ")")
                self.expect("OP", "?")
                self.state_tests[start] = dynamic.StateTest(phi), self.pos
            except ModalgError:
                self.state_tests[start] = None, start
        test, self.pos = self.state_tests[start]
        return test

    # -- declarations

    def parse_spec(self) -> SpecFile:
        while not self.check("EOF"):
            self.parse_declaration()
        return self.spec

    def parse_declaration(self) -> None:
        tok = self.peek()
        if tok.kind != "NAME" or tok.value not in _DECL_KEYWORDS:
            raise self.fail(f"expected a declaration keyword, found {tok.value!r}")
        self.advance()
        if tok.value in _SORTS:
            self._decl_definition(tok.value)
        else:  # a value the declaration builds fails at its keyword
            self.build(tok, getattr(self, f"_decl_{tok.value}"))
        self.expect("OP", ";")

    def _decl_domain(self) -> None:
        if self.spec.domain is not None:
            raise self.fail("duplicate domain declaration")
        self.spec.domain = Domain(tuple(self.parse_name_list()))

    def _decl_vocab(self) -> None:
        if self.spec.vocabulary is not None:
            raise self.fail("duplicate vocab declaration")
        self.expect("OP", "{")
        symbols = self.parse_items(self._parse_sym)
        self.expect("OP", "}")
        self.spec.vocabulary = Vocabulary(tuple(symbols))

    def _parse_sym(self) -> tuple[str, int]:
        name = self.expect("NAME").value
        self.expect("OP", "/")
        return name, self.parse_int()

    def _decl_module(self) -> None:
        name = self.expect("NAME").value
        self.expect("OP", "(")
        vvoc = self.parse_items(self._parse_sym)
        self.expect("OP", ")")
        self.expect("OP", "=")
        if self.accept("NAME", "builtin"):
            oracle = self.expect("NAME").value
            self.spec.modules[name] = AtomicModule.builtin(name, vvoc, oracle)
            return
        if self.accept("NAME", "truth"):
            patterns = self._parse_truth_patterns(len(vvoc))
            table = frozenset(patterns)
            self.spec.modules[name] = AtomicModule.builtin(
                name, vvoc,
                fn=lambda domain, rels, _t=table: tuple(bool(r.tuples) for r in rels) in _t,
                propositional=True,
            )
            return
        self.expect("NAME", "structures")
        self.expect("OP", "{")
        structures = []
        while self.check("OP", "{"):
            structures.append(self._parse_vvoc_structure(vvoc))
            if not self.accept("OP", ","):
                break
        self.expect("OP", "}")
        self.spec.modules[name] = AtomicModule.extensional(name, vvoc, structures)

    def _parse_truth_patterns(self, width: int) -> list[tuple[bool, ...]]:
        self.expect("OP", "{")
        patterns = []
        while self.check("OP", "("):
            self.advance()
            bits = self.parse_items(lambda: self.expect("INT").value)
            self.expect("OP", ")")
            if len(bits) != width or any(b not in ("0", "1") for b in bits):
                raise self.fail(f"truth pattern must be {width} bits of 0/1")
            patterns.append(tuple(b == "1" for b in bits))
            if not self.accept("OP", ","):
                break
        self.expect("OP", "}")
        return patterns

    def _parse_vvoc_structure(self, vvoc: list[tuple[str, int]]) -> list[RelationValue]:
        self.expect("OP", "{")
        given: dict[str, flat.Const] = {}
        while self.check("NAME"):
            var = self.expect("NAME").value
            self.expect("OP", ":")
            given[var] = self.parse_relation_literal()
            if not self.accept("OP", ","):
                break
        self.expect("OP", "}")
        rels = []
        for var, arity in vvoc:
            if var not in given:
                raise self.fail(f"module structure misses variable {var}")
            rels.append(given[var].value(arity))
        return rels

    def _decl_definition(self, keyword: str) -> None:
        """flat, dyn or state: NAME = expression of the keyword's sort"""
        name = self.expect("NAME").value
        self.expect("OP", "=")
        getattr(self.spec, f"{keyword}_defs")[name] = self.parse_expr(keyword, 0)

    def _decl_task(self) -> None:
        name = self.expect("NAME").value
        self.expect("OP", "=")
        kind = self.expect("NAME").value
        while self.accept("OP", "-"):
            kind += "-" + self.expect("NAME").value
        formula = self.expect("NAME").value
        directive = TaskDirective(name, kind, formula)
        while True:
            if self.accept("NAME", "sigma"):
                directive.sigma = frozenset(self.parse_name_list())
            elif self.accept("NAME", "with"):
                directive.bindings = self._parse_binding_block()
            elif self.accept("NAME", "out"):
                directive.outputs = self._parse_binding_block()
            else:
                break
        self.spec.tasks[name] = directive

    def _parse_binding_block(self) -> dict[str, RelationValue]:
        self.expect("OP", "{")
        out: dict[str, RelationValue] = {}
        while self.check("NAME"):
            name = self.expect("NAME").value
            self.expect("OP", ":")
            out[name] = self.parse_relation()
            if not self.accept("OP", ","):
                break
        self.expect("OP", "}")
        return out


def _parse_whole(text: str, read: Callable[[_Parser], T], spec: Optional[SpecFile] = None) -> T:
    """What read parses from the whole of text."""
    parser = _Parser(tokenize(text), spec)
    result = read(parser)
    parser.expect("EOF")
    return result


def parse_spec(text: str) -> SpecFile:
    """Parse a .mod file."""
    return _Parser(tokenize(text)).parse_spec()


def parse_flat(text: str, spec: Optional[SpecFile] = None) -> flat.FlatExpr:
    return _parse_whole(text, lambda parser: parser.parse_expr("flat", 0), spec)


def parse_dyn(text: str, spec: Optional[SpecFile] = None) -> dynamic.ProcExpr:
    return _parse_whole(text, lambda parser: parser.parse_expr("dyn", 0), spec)


def parse_state(text: str, spec: Optional[SpecFile] = None) -> flat.StateExpr:
    return _parse_whole(text, lambda parser: parser.parse_expr("state", 0), spec)


def parse_relation(text: str) -> RelationValue:
    """A relation literal such as {(a,b),(b,c)}; '{}' has arity 1."""
    return _parse_whole(text, _Parser.parse_relation)


# how each hole of an operator's text is parsed, by field name (printer._HOLES
# prints them)
_HOLES: dict[str, Callable[[_Parser], object]] = {
    "keep": lambda parser: frozenset(parser.parse_name_list()),
    "left": _Parser.parse_operand,
    "right": _Parser.parse_operand,
    "process": lambda parser: parser.parse_expr("dyn", 0),
    "var": _Parser.parse_name,
    "low": _Parser.parse_int,
    "high": _Parser.parse_int,
}
