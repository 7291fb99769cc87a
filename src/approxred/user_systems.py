"""User-defined systems from JSON config files.

A config file is a single JSON document describing one system:

    {
      "name": "decoupled-demo",
      "state": ["y", "z"],
      "m": 1,
      "params": {"a": 1.0},
      "rhs": ["-a*y", "-z + 0.5*y"],
      "x0": [1.0, 0.5]
    }

``state`` names the coordinates in order (retained block first), ``m`` is the
retained dimension, ``params`` maps parameter names to default values, and
``rhs`` gives one expression per coordinate in a small arithmetic language:
literals, state and parameter names, ``+ - * /``, unary minus, ``**`` powers,
and the functions ``sin`` and ``cos``. Expressions are evaluated in IEEE
double precision with Python's standard precedence and left-to-right
association. ``x0`` optionally sets the default initial condition.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Callable

import numpy as np

from .core import Decomposition, EvaluationError, InputError, VectorFieldDef
from .systems import SystemEntry

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)
_REAL = np.dtype(float)


def _validate_expr(tree: ast.AST, names: set[str], source: str) -> None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load, ast.operator, ast.unaryop)):
            continue  # operator kinds are vetted on their BinOp/UnaryOp parents
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise InputError(f"non-numeric literal in expression {source!r}")
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id not in _ALLOWED_CALLS:
                raise InputError(
                    f"unknown name {node.id!r} in expression {source!r}; "
                    f"known: {', '.join(sorted(names))}"
                )
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BINOPS):
                raise InputError(f"operator not allowed in expression {source!r}")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, _ALLOWED_UNARY):
                raise InputError(f"operator not allowed in expression {source!r}")
        elif isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_CALLS
                or node.keywords
                or len(node.args) != 1
            ):
                raise InputError(
                    f"only sin(.) and cos(.) calls are allowed, got {source!r}"
                )
        else:
            raise InputError(
                f"construct {type(node).__name__} not allowed in expression {source!r}"
            )


def _parse(source: str, names: list[str]) -> ast.Expression:
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as err:
        raise InputError(f"cannot parse expression {source!r}: {err}") from err
    _validate_expr(tree, set(names), source)
    return tree


def _is_complex(value) -> bool:
    # complex arises only from ** on Python numbers and survives every later
    # operation, so the result's type shows it (np.iscomplexobj costs 3x as
    # much per call)
    return isinstance(value, complex) or getattr(value, "dtype", _REAL).kind == "c"


def _error(source: str, what: str) -> EvaluationError:
    return EvaluationError(f"expression {source!r} {what}")


def compile_expression(source: str, names: list[str]) -> Callable:
    """Compile one expression to a function of a name -> value environment.

    An arithmetic error (division by zero, float overflow) or a complex value
    raises ``EvaluationError`` naming the expression.
    """
    code = compile(_parse(source, names), f"<rhs {source!r}>", "eval")

    def fn(env: dict):
        try:
            value = eval(code, {"__builtins__": {}, **_ALLOWED_CALLS}, env)
        except ArithmeticError as err:
            raise _error(source, f"failed with {type(err).__name__}") from err
        if _is_complex(value):
            raise _error(source, "has a complex value")
        return value

    return fn


def _compile_system(sources: list[str], state: list[str], params: list[str]):
    """One code object for all of a system's expressions: a ``lambda`` of the
    state columns returning the tuple of their values, to ``eval`` with the
    parameters, ``sin`` and ``cos`` as its globals. Its values are bit for
    bit those of evaluating the expressions one by one."""
    args = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in state],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    body = ast.Tuple([_parse(src, state + params).body for src in sources], ast.Load())
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body)))
    return compile(tree, "<rhs>", "eval")


def system_from_dict(doc: dict) -> tuple[SystemEntry, dict]:
    """Build a SystemEntry from a parsed config document.

    Returns the entry built with the document's default parameters plus a
    registry item (factory, defaults) so the CLI can apply --set overrides.
    """
    try:
        name = str(doc["name"])
        state = list(doc["state"])
        m = int(doc["m"])
        rhs_sources = list(doc["rhs"])
    except KeyError as err:
        raise InputError(f"config file is missing required key {err}") from err
    n = len(state)
    if n < 2:
        raise InputError("config systems need at least two state variables")
    if not (1 <= m < n):
        raise InputError(f"retained dimension m={m} must satisfy 1 <= m < {n}")
    if len(rhs_sources) != n:
        raise InputError(
            f"config declares {n} state variables but {len(rhs_sources)} rhs expressions"
        )
    if len(set(state)) != n:
        raise InputError("state variable names must be distinct")
    params = {str(k): float(v) for k, v in dict(doc.get("params", {})).items()}
    clash = set(state) & set(params)
    if clash:
        raise InputError(f"names used for both state and parameter: {sorted(clash)}")
    names = state + list(params)
    exprs = [compile_expression(src, names) for src in rhs_sources]
    code = _compile_system(rhs_sources, state, list(params))
    x0 = doc.get("x0")
    if x0 is not None:
        x0 = np.asarray([float(v) for v in x0], dtype=float)
        if x0.shape != (n,):
            raise InputError(f"x0 must have {n} entries")
    else:
        x0 = np.zeros(n)

    def factory(resolved_params: dict) -> SystemEntry:
        pvals = dict(resolved_params)
        columns = eval(code, {"__builtins__": {}, **_ALLOWED_CALLS, **pvals})

        def rhs(s):
            s = np.asarray(s, dtype=float)
            try:
                values = columns(*[s[..., i] for i in range(n)])
            except ArithmeticError:
                # evaluate one by one to name the first expression that fails
                env = {nm: s[..., i] for i, nm in enumerate(state)}
                env.update(pvals)
                for f in exprs:
                    f(env)
                raise
            out = np.empty(s.shape)
            for i, value in enumerate(values):
                if _is_complex(value):  # never cast, which would drop it
                    raise _error(rhs_sources[i], "has a complex value")
                try:
                    out[..., i] = value  # a constant fills the batch
                except ArithmeticError as err:  # an integer beyond float range
                    raise _error(rhs_sources[i], f"failed with {type(err).__name__}") from err
            return out

        field = VectorFieldDef(n=n, rhs=rhs, params=pvals, name=name)
        return SystemEntry(
            name=name,
            params=pvals,
            field=field,
            decomp=Decomposition.retain(n, m),
            default_ic=x0.copy(),
            notes={"source": "user config file", "state": ", ".join(state)},
        )

    return factory(params), {name: (factory, params)}


def load_system_config(path: str | Path) -> tuple[SystemEntry, dict]:
    """Parse a JSON config file into a system entry plus a registry item."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise InputError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return system_from_dict(doc)
