"""Surface syntax: tokenizer and recursive-descent parser for spec files
and for the three expression sorts.

Declarations end with ';'. Sequential composition also uses ';', inside
expressions: the parser disambiguates with one token of lookahead, since a
declaration never starts with an expression token. Definitions may refer to
earlier definitions by name; references are inlined at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import dynamic, flat, lmumu
from .core import AtomicModule, Domain, RelationValue, Valuation, Vocabulary
from .errors import SpecSyntaxError
from .syntax import Node

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


_EXPR_START_OPS = {"(", "-", "!", "<", "["}
_EXPR_START_NAMES = {"dn", "up", "neg", "rev", "diag", "bot", "mu", "pi", "sel",
                     "const", "prop"}


class _Parser:
    def __init__(self, tokens: list[Token], spec: Optional[SpecFile] = None):
        self.tokens = tokens
        self.pos = 0
        self.spec = spec if spec is not None else SpecFile()

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

    def starts_expression(self) -> bool:
        tok = self.peek()
        if tok.kind in ("CONST",):
            return False
        if tok.kind == "NAME":
            return tok.value in _EXPR_START_NAMES or tok.value not in KEYWORDS
        return tok.kind == "OP" and tok.value in _EXPR_START_OPS

    # -- shared literals

    def parse_items(self, item: Callable[[], object]) -> list:
        """item (',' item)*"""
        items = [item()]
        while self.accept("OP", ","):
            items.append(item())
        return items

    def parse_name(self) -> str:
        return self.expect("NAME").value

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

    def parse_const_token(self) -> flat.Const:
        tok = self.expect("CONST")
        sub = _Parser(tokenize(tok.value))
        const = sub.parse_relation_literal()
        sub.expect("EOF")
        return const

    def parse_operand(self) -> flat.Operand:
        if self.check("CONST"):
            return self.parse_const_token()
        return flat.Var(self.expect("NAME").value)

    # -- flat expressions

    def parse_flat(self) -> flat.FlatExpr:
        left = self.parse_flat_inter()
        while self.accept("OP", "|"):
            left = flat.Union(left, self.parse_flat_inter())
        return left

    def parse_flat_inter(self) -> flat.FlatExpr:
        left = self.parse_flat_unary()
        while self.accept("OP", "&"):
            left = flat.intersect(left, self.parse_flat_unary())
        return left

    def parse_shared_prefix(
        self, unary: Callable[[], Node], body: Callable[[], Node]
    ) -> Optional[Node]:
        """The prefix operators of the flat and process sorts: -, pi, sel and
        mu, in the sort whose `unary` parses an operand and whose `body`
        parses a fixpoint body. None when none of them is next."""
        if self.accept("OP", "-"):
            return flat.Complement(unary())
        if self.accept("NAME", "pi"):
            keep = frozenset(self.parse_name_list())
            return flat.Project(keep, unary())
        if self.accept("NAME", "sel"):
            self.expect("OP", "[")
            left = self.parse_operand()
            self.expect("OP", "==")
            right = self.parse_operand()
            self.expect("OP", "]")
            return flat.Select(left, right, unary())
        if self.accept("NAME", "mu"):
            var = self.parse_name()
            self.expect("OP", ".")
            return flat.Lfp(var, body())
        return None

    def parse_flat_unary(self) -> flat.FlatExpr:
        expr = self.parse_shared_prefix(self.parse_flat_unary, self.parse_flat)
        return self.parse_flat_primary() if expr is None else expr

    def parse_flat_primary(self) -> flat.FlatExpr:
        if self.accept("OP", "("):
            inner = self.parse_flat()
            self.expect("OP", ")")
            return inner
        if self.check("NAME", "bot"):
            self.advance()
            return flat.Bottom()
        tok = self.expect("NAME")
        if tok.value in KEYWORDS:
            raise SpecSyntaxError(f"unexpected keyword {tok.value!r}", tok.line, tok.column)
        if self.accept("OP", "("):
            args = self.parse_items(self.parse_name)
            self.expect("OP", ")")
            return flat.Atom(tok.value, tuple(args))
        if tok.value in self.spec.flat_defs:
            return self.spec.flat_defs[tok.value]
        return flat.ModuleVar(tok.value)

    # -- dynamic expressions

    def parse_dyn(self) -> dynamic.ProcExpr:
        left = self.parse_dyn_seq()
        while self.accept("OP", "|"):
            left = flat.Union(left, self.parse_dyn_seq())
        return left

    def parse_dyn_seq(self) -> dynamic.ProcExpr:
        left = self.parse_dyn_unary()
        while True:
            if self.check("OP", ";") and self._compose_ahead():
                self.advance()
                left = dynamic.Compose(left, self.parse_dyn_unary())
            elif self.accept("OP", "&"):
                left = flat.intersect(left, self.parse_dyn_unary())
            else:
                return left

    def _compose_ahead(self) -> bool:
        save = self.pos
        self.pos += 1
        ahead = self.starts_expression()
        self.pos = save
        return ahead

    def parse_dyn_unary(self) -> dynamic.ProcExpr:
        expr = self.parse_shared_prefix(self.parse_dyn_unary, self.parse_dyn)
        if expr is not None:
            return expr
        for keyword, ctor in (("dn", dynamic.Down), ("up", dynamic.Up),
                              ("neg", dynamic.UnaryNeg), ("rev", dynamic.Reverse)):
            if self.accept("NAME", keyword):
                return ctor(self.parse_dyn_unary())
        return self.parse_dyn_postfix()

    def parse_dyn_postfix(self) -> dynamic.ProcExpr:
        expr = self.parse_dyn_primary()
        while True:
            if self.accept("OP", "*"):
                expr = dynamic.kleene_star(expr)
            elif self.check("OP", "^"):
                self.advance()
                self.expect("OP", "{")
                low = int(self.expect("INT").value)
                self.expect("OP", ",")
                high = int(self.expect("INT").value)
                self.expect("OP", "}")
                expr = dynamic.Count(expr, low, high)
            elif self.accept("OP", "=?"):
                expr = dynamic.TestEq(expr)
            elif self.accept("OP", "!=?"):
                expr = dynamic.TestNeq(expr)
            else:
                return expr

    def parse_dyn_primary(self) -> dynamic.ProcExpr:
        if self.check("OP", "("):
            state_test = self._try_state_test()
            if state_test is not None:
                return state_test
            self.advance()
            inner = self.parse_dyn()
            self.expect("OP", ")")
            return inner
        if self.accept("NAME", "bot"):
            return flat.Bottom()
        if self.check("NAME", "diag"):
            self.advance()
            return dynamic.Diagonal()
        if self.check("NAME", "const"):
            self.advance()
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
        tok = self.expect("NAME")
        if tok.value in KEYWORDS:
            raise SpecSyntaxError(f"unexpected keyword {tok.value!r}", tok.line, tok.column)
        if self.check("OP", "("):
            return self._parse_atom_tail(tok)
        if tok.value in self.spec.dyn_defs:
            return self.spec.dyn_defs[tok.value]
        return flat.ModuleVar(tok.value)

    def _parse_atom_tail(self, name: Token) -> dynamic.ProcExpr:
        self.expect("OP", "(")
        if self.check("NAME", "in") or self.check("NAME", "out"):
            args: list[str] = []
            inputs: set[str] = set()
            marker = None
            while True:
                if self.accept("NAME", "in"):
                    marker = "in"
                elif self.accept("NAME", "out"):
                    marker = "out"
                elif marker is None:
                    raise self.fail("the first action argument needs an in/out marker")
                arg = self.expect("NAME").value
                args.append(arg)
                if marker == "in":
                    inputs.add(arg)
                if self.accept("OP", ",") or self.accept("OP", ";"):
                    continue
                break
            self.expect("OP", ")")
            argset = frozenset(args)
            return dynamic.Action(name.value, tuple(args), frozenset(inputs),
                                  argset - frozenset(inputs))
        args = self.parse_items(self.parse_name)
        self.expect("OP", ")")
        self.expect("OP", "?")  # a plain atom in a process is a test
        return dynamic.Test(name.value, tuple(args))

    def _try_state_test(self) -> Optional[dynamic.ProcExpr]:
        from .errors import ModalgError

        save = self.pos
        try:
            self.expect("OP", "(")
            phi = self.parse_state()
            self.expect("OP", ")")
            self.expect("OP", "?")
            return dynamic.StateTest(phi)
        except ModalgError:
            self.pos = save
            return None

    # -- state expressions

    def parse_state(self) -> flat.StateExpr:
        left = self.parse_state_and()
        while self.accept("OP", "|"):
            left = flat.Union(left, self.parse_state_and())
        return left

    def parse_state_and(self) -> flat.StateExpr:
        left = self.parse_state_unary()
        while self.accept("OP", "&"):
            left = lmumu.And(left, self.parse_state_unary())
        return left

    def parse_state_unary(self) -> flat.StateExpr:
        if self.accept("OP", "!"):
            return lmumu.Not(self.parse_state_unary())
        if self.check("OP", "<"):
            self.advance()
            process = self.parse_dyn()
            self.expect("OP", ">")
            return lmumu.Diamond(process, self.parse_state_unary())
        if self.check("OP", "["):
            self.advance()
            process = self.parse_dyn()
            self.expect("OP", "]")
            return lmumu.Box(process, self.parse_state_unary())
        if self.check("NAME", "mu"):
            self.advance()
            var = self.expect("NAME").value
            self.expect("OP", ".")
            return flat.Lfp(var, self.parse_state())
        return self.parse_state_primary()

    def parse_state_primary(self) -> flat.StateExpr:
        if self.accept("OP", "("):
            inner = self.parse_state()
            self.expect("OP", ")")
            return inner
        if self.accept("NAME", "bot"):
            return flat.Bottom()
        if self.check("NAME", "prop"):
            self.advance()
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
        if tok.value in self.spec.state_defs:
            return self.spec.state_defs[tok.value]
        return flat.ModuleVar(tok.value)

    # -- declarations

    def parse_spec(self) -> SpecFile:
        while not self.check("EOF"):
            self.parse_declaration()
        return self.spec

    def parse_declaration(self) -> None:
        tok = self.peek()
        if tok.kind != "NAME" or tok.value not in _DECL_KEYWORDS:
            raise self.fail(f"expected a declaration keyword, found {tok.value!r}")
        handler = getattr(self, f"_decl_{tok.value}")
        self.advance()
        handler()
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
        arity = int(self.expect("INT").value)
        return name, arity

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

    def _decl_flat(self) -> None:
        name = self.expect("NAME").value
        self.expect("OP", "=")
        self.spec.flat_defs[name] = self.parse_flat()

    def _decl_dyn(self) -> None:
        name = self.expect("NAME").value
        self.expect("OP", "=")
        self.spec.dyn_defs[name] = self.parse_dyn()

    def _decl_state(self) -> None:
        name = self.expect("NAME").value
        self.expect("OP", "=")
        self.spec.state_defs[name] = self.parse_state()

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
            const = self.parse_relation_literal()
            arity = const.arity if const.arity is not None else 1
            out[name] = RelationValue(arity, const.tuples)
            if not self.accept("OP", ","):
                break
        self.expect("OP", "}")
        return out


def parse_spec(text: str) -> SpecFile:
    """Parse a .mod file."""
    return _Parser(tokenize(text)).parse_spec()


def parse_flat(text: str, spec: Optional[SpecFile] = None) -> flat.FlatExpr:
    parser = _Parser(tokenize(text), spec)
    expr = parser.parse_flat()
    parser.expect("EOF")
    return expr


def parse_dyn(text: str, spec: Optional[SpecFile] = None) -> dynamic.ProcExpr:
    parser = _Parser(tokenize(text), spec)
    expr = parser.parse_dyn()
    parser.expect("EOF")
    return expr


def parse_state(text: str, spec: Optional[SpecFile] = None) -> flat.StateExpr:
    parser = _Parser(tokenize(text), spec)
    expr = parser.parse_state()
    parser.expect("EOF")
    return expr
