"""Tiny arithmetic-expression compiler for config files.

Rate and growth laws appear in configs as strings like ``"1 + x"`` or
``"2*exp(-x)"``.  Expressions are parsed with :mod:`ast` and validated against
a whitelist (arithmetic, the named variables, and a few math functions), so a
config can never execute arbitrary code.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import ConfigError, InvalidParam

_FUNCS = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "abs": abs,
    "min": min,
    "max": max,
    "pow": pow,
}
_CONSTS = {"pi": math.pi, "e": math.e}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
    ast.Load,
)


def compile_expr(src: str, variables: Sequence[str] = ("x",)) -> Callable[..., float]:
    """Compile a whitelisted arithmetic expression into a positional callable."""
    if not isinstance(src, str) or not src.strip():
        raise ConfigError("expression must be a nonempty string")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc.msg}") from exc

    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"disallowed syntax {type(node).__name__!r} in {src!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError(f"only numeric constants allowed in {src!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ConfigError(f"unknown function call in {src!r}")
            if node.keywords:
                raise ConfigError(f"keyword arguments not allowed in {src!r}")
        if isinstance(node, ast.Name):
            ok = node.id in _FUNCS or node.id in _CONSTS or node.id in variables
            if not ok:
                raise ConfigError(f"unknown name {node.id!r} in {src!r}; "
                                  f"variables here are {tuple(variables)}")

    def fail(exc, *at):
        where = ", ".join(f"{v}={a}" for v, a in zip(variables, at))
        raise InvalidParam(f"expression {src!r} failed at {where}: {exc}") from exc

    # the checked tree becomes the body of one real function; a TypeError (an
    # array argument) passes through, other evaluation errors become InvalidParam
    args = ", ".join(variables)
    fdef = ast.parse(f"def _expr({args}):\n try: return _float(_body)\n"
                     f" except _RAISES as exc: _fail(exc, {args})").body[0]
    fdef.body[0].body[0].value.args = [tree.body]
    scope = {"__builtins__": {}, **_FUNCS, **_CONSTS, "_float": float,
             "_RAISES": (ArithmeticError, ValueError), "_fail": fail}
    exec(compile(ast.Module([fdef], []), "<expr>", "exec"), scope)
    fn = scope.pop("_expr")   # no cycle through __globals__: freed by refcount
    fn.source = src  # type: ignore[attr-defined]
    return fn


def rate_from_config(value, name: str, variables: Sequence[str] = ("x",)):
    """Numbers pass through (keeping their constant-rate fast path); strings compile."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number or expression string")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return compile_expr(value, variables)
    raise ConfigError(f"{name} must be a number or expression string, got {type(value).__name__}")
