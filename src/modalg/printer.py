"""Canonical printer for the three expression sorts.

The output is valid surface syntax and deterministic (sets are emitted
sorted), so it doubles as the subformula-labelling key for transition
systems. parse(to_text(ast)) == ast is a tested invariant.
"""

from __future__ import annotations

from . import dynamic, flat, lmumu
from .flat import Const, Var

# precedence levels: 0 mu, 1 union, 2 compose/and, 3 prefix unary, 4 primary
_MU, _UNION, _SEQ, _PREFIX, _PRIMARY = 0, 1, 2, 3, 4


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


def _binary(op: str, level: int):
    """Left-associative: the right operand binds one level tighter."""

    def emit(e):
        lt, ll = _emit(e.left)
        rt, rl = _emit(e.right)
        return f"{_paren(lt, ll, level)}{op}{_paren(rt, rl, level + 1)}", level

    return emit


def _prefix(word):
    """word(e) is the operator text printed before the inner term."""

    def emit(e):
        it, il = _emit(e.inner)
        return word(e) + _paren(it, il, _PREFIX), _PREFIX

    return emit


def _postfix(word):
    """word(e) is the operator text printed after the inner term."""

    def emit(e):
        it, il = _emit(e.inner)
        return _paren(it, il, _PRIMARY) + word(e), _PRIMARY

    return emit


def _mu(e) -> tuple[str, int]:
    return f"mu {e.var} . {_emit(e.body)[0]}", _MU


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


# one emitter per operator shape, shared by the sorts that have the operator
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
    flat.Union: _binary(" | ", _UNION),
    dynamic.Compose: _binary(" ; ", _SEQ),
    lmumu.And: _binary(" & ", _SEQ),
    flat.Complement: _prefix(lambda e: "-"),
    lmumu.Not: _prefix(lambda e: "!"),
    dynamic.Down: _prefix(lambda e: "dn "),
    dynamic.Up: _prefix(lambda e: "up "),
    dynamic.UnaryNeg: _prefix(lambda e: "neg "),
    dynamic.Reverse: _prefix(lambda e: "rev "),
    flat.Project: _prefix(lambda e: f"pi{{{_names(e.keep)}}} "),
    flat.Select: _prefix(lambda e: f"sel[{_operand(e.left)} == {_operand(e.right)}] "),
    lmumu.Diamond: _prefix(lambda e: f"<{to_text(e.process)}> "),
    lmumu.Box: _prefix(lambda e: f"[{to_text(e.process)}] "),
    dynamic.Count: _postfix(lambda e: f"^{{{e.low},{e.high}}}"),
    dynamic.TestEq: _postfix(lambda e: "=?"),
    dynamic.TestNeq: _postfix(lambda e: "!=?"),
    flat.Lfp: _mu,
}
