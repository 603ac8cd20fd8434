"""Concrete syntax of the three expression sorts: the operator table, which
the parser reads too, and the canonical printer.

Every operator with a subterm is one row of OPERATORS: its constructor, its
token, its fixity, its binding power and the text between the token and the
subterm, with the node's other fields as holes. A class row's sorts are the
sort bases it derives from; the parse-only sugar rows name theirs and are
never printed. The printer emits each class row's nodes through that row,
and the leaves through the hand-written emitters below.

The output is valid surface syntax and deterministic (sets are emitted
sorted), so it doubles as the subformula-labelling key for transition
systems. parse(to_text(ast)) == ast is a tested invariant.
"""

from __future__ import annotations

from dataclasses import fields
from string import Formatter
from typing import Callable, Optional

from . import dynamic, flat, lmumu
from .flat import Const, Var

# precedence levels: 0 mu, 1 union, 2 compose/and, 3 prefix unary, 4 primary
_MU, _UNION, _SEQ, _PREFIX, _PRIMARY = 0, 1, 2, 3, 4

PREFIX, INFIX, POSTFIX = "prefix", "infix", "postfix"
SORTS = (flat.FlatExpr, flat.ProcExpr, flat.StateExpr)


def _paren(text: str, level: int, required: int) -> str:
    return f"({text})" if level < required else text


def _operand(op) -> str:
    if isinstance(op, Var):
        return op.name
    if isinstance(op, Const):
        items = ",".join("(" + ",".join(t) + ")" for t in sorted(op.tuples))
        return "'{" + items + "}'"
    raise TypeError(f"not a selection operand: {op!r}")


def _names(names) -> str:
    return ",".join(sorted(names))


# how each hole of an operator's text is printed, by field name
_HOLES = {
    "keep": lambda keep: "{" + _names(keep) + "}",
    "left": _operand,
    "right": _operand,
    "process": lambda process: _emit(process)[0],
    "var": str,
    "low": str,
    "high": str,
}


class Operator:
    """One row of the syntax table.

    A prefix row's operand binds at its own power, so `mu`, at power 0,
    takes the widest body; an infix row is left-associative, its right
    operand binding one level tighter. `text`, in str.format's syntax, has
    a hole for each of the node's other fields, in constructor order: the
    node is ctor(*holes, operand) for a prefix row, ctor(operand, *holes)
    for a postfix row and ctor(left, right) for an infix row.
    """

    def __init__(self, ctor: Callable, token: str, fixity: str, power: int, text: str = "",
                 sorts: Optional[tuple[type, ...]] = None):
        self.ctor, self.token, self.fixity, self.power = ctor, token, fixity, power
        self.text = text
        # (literal text, the hole after it or None)
        self.pieces = [(literal, hole) for literal, hole, _, _ in Formatter().parse(text)]
        self.holes = [hole for _, hole in self.pieces if hole]
        self.sorts = sorts or tuple(sort for sort in SORTS if issubclass(ctor, sort))
        if sorts is None:  # the field of a prefix or postfix row's subterm
            self.operand = next(f.name for f in fields(ctor) if f.name not in self.holes)

    def emit(self, e) -> tuple[str, int]:
        power = self.power
        if self.fixity == INFIX:
            lt, ll = _emit(e.left)
            rt, rl = _emit(e.right)
            return f"{_paren(lt, ll, power)} {self.token} {_paren(rt, rl, power + 1)}", power
        it, il = _emit(getattr(e, self.operand))
        text = self.text.format_map({hole: _HOLES[hole](getattr(e, hole))
                                     for hole in self.holes}) if self.holes else self.text
        if self.fixity == PREFIX:
            return self.token + text + _paren(it, il, power), power
        return _paren(it, il, power) + self.token + text, power


OPERATORS = (
    Operator(flat.Union, "|", INFIX, _UNION),
    Operator(dynamic.Compose, ";", INFIX, _SEQ),
    Operator(lmumu.And, "&", INFIX, _SEQ),
    Operator(flat.intersect, "&", INFIX, _SEQ, sorts=(flat.FlatExpr, flat.ProcExpr)),
    Operator(flat.Lfp, "mu", PREFIX, _MU, " {var} . "),
    Operator(flat.Complement, "-", PREFIX, _PREFIX),
    Operator(lmumu.Not, "!", PREFIX, _PREFIX),
    Operator(dynamic.Down, "dn", PREFIX, _PREFIX, " "),
    Operator(dynamic.Up, "up", PREFIX, _PREFIX, " "),
    Operator(dynamic.UnaryNeg, "neg", PREFIX, _PREFIX, " "),
    Operator(dynamic.Reverse, "rev", PREFIX, _PREFIX, " "),
    Operator(flat.Project, "pi", PREFIX, _PREFIX, "{keep} "),
    Operator(flat.Select, "sel", PREFIX, _PREFIX, "[{left} == {right}] "),
    Operator(lmumu.Diamond, "<", PREFIX, _PREFIX, "{process}> "),
    Operator(lmumu.Box, "[", PREFIX, _PREFIX, "{process}] "),
    Operator(dynamic.Count, "^", POSTFIX, _PRIMARY, "{{{low},{high}}}"),
    Operator(dynamic.TestEq, "=?", POSTFIX, _PRIMARY),
    Operator(dynamic.TestNeq, "!=?", POSTFIX, _PRIMARY),
    Operator(dynamic.kleene_star, "*", POSTFIX, _PRIMARY, sorts=(flat.ProcExpr,)),
)


def to_text(e) -> str:
    text, _ = _emit(e)
    return text


def _emit(e) -> tuple[str, int]:
    emit = _EMITTERS.get(type(e))
    if emit is None:
        raise TypeError(f"not an expression: {e!r}")
    return emit(e)


def _primary(text):
    return lambda e: (text(e), _PRIMARY)


def _atom(e) -> str:
    return f"{e.module}({','.join(e.args)})"


def _action_args(e: dynamic.Action) -> str:
    parts = []
    previous = None
    for arg in e.args:
        marker = "in" if arg in e.inputs else "out"
        if marker != previous:
            sep = "; " if parts else ""
            parts.append(f"{sep}{marker} {arg}")
            previous = marker
        else:
            parts.append(f", {arg}")
    return "".join(parts)


def _const_test(e: dynamic.ConstTest) -> str:
    op = "==" if e.equal else "!="
    return f"const[{e.var} {op} {_operand(e.value)}]"


# the leaves, and one emitter per class row of the table
_EMITTERS = {
    flat.Bottom: _primary(lambda e: "bot"),
    flat.ModuleVar: _primary(lambda e: e.name),
    flat.Atom: _primary(_atom),
    dynamic.Test: _primary(lambda e: _atom(e) + "?"),
    lmumu.Prop: _primary(lambda e: "prop " + _atom(e)),
    dynamic.Action: _primary(lambda e: f"{e.module}({_action_args(e)})"),
    dynamic.Diagonal: _primary(lambda e: "diag"),
    dynamic.ConstTest: _primary(_const_test),
    dynamic.StateTest: _primary(lambda e: f"({to_text(e.phi)})?"),
    **{row.ctor: row.emit for row in OPERATORS if isinstance(row.ctor, type)},
}
