"""Systems from JSON documents, and the compiler that builds every vector field.

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
and the functions ``sin`` and ``cos``. No name may be used twice, nor be
``sin`` or ``cos``. Expressions are evaluated in IEEE double precision with
Python's standard precedence and left-to-right association. ``x0``
optionally sets the default initial condition. The bundled systems of
:mod:`approxred.systems` are documents of this schema too. A system compiles
to one function of its state columns, with a lone state's bits equal to a
batch row's (see :func:`_pow`) and repeated subexpressions computed once.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .core import Decomposition, EvaluationError, InputError, SystemEntry, VectorFieldDef

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


def _pow(a, b):
    """``a ** b`` with a batch's bits, for a power that mentions the state: a
    lone state's float64 scalars would call libm ``pow`` where arrays square,
    take roots or call numpy's vector ``pow``. A 0-d base takes the array's
    path; a state exponent, an array in a batch, takes no shortcut."""
    if isinstance(b, (np.ndarray, np.generic)):
        return np.power(a, b)
    return np.asarray(a) ** b if isinstance(a, np.generic) else a ** b


def _lower(bodies: list[ast.expr], args: set[str], prefix: str) -> list[ast.expr]:
    """The expression trees with each ``**`` that mentions an argument as a
    call of ``<prefix>pow`` and each repeated subtree bound to a temporary
    ``<prefix><i>`` at its first occurrence and read back at the others."""
    # per node: its operands, its structure, and whether it names an argument
    children, keys, mentions = {}, {}, {}

    def scan(node):
        kids = children[node] = node.args if isinstance(node, ast.Call) else [
            kid for kid in ast.iter_child_nodes(node) if isinstance(kid, ast.expr)]
        for kid in kids:
            scan(kid)
        if isinstance(node, ast.Name):
            keys[node] = node.id
        elif isinstance(node, ast.Constant):
            keys[node] = (repr(node.value),)  # no name equals it; 1 and 1.0 differ
        else:
            op = node.func.id if isinstance(node, ast.Call) else type(node.op)
            keys[node] = (op, *map(keys.get, kids))
        mentions[node] = keys[node] in args or any(map(mentions.get, kids))

    for body in bodies:
        scan(body)
    counts, temps = Counter(keys.values()), {}

    def visit(node):
        if keys[node] in temps:
            return ast.Name(temps[keys[node]], ast.Load())
        kids = [visit(kid) for kid in children[node]]
        if not kids:  # a name or a literal
            return node
        if isinstance(node, ast.UnaryOp):
            new = ast.UnaryOp(node.op, *kids)
        elif isinstance(node, ast.Call):
            new = ast.Call(node.func, kids, [])
        elif isinstance(node.op, ast.Pow) and mentions[node]:
            new = ast.Call(ast.Name(prefix + "pow", ast.Load()), kids, [])
        else:
            new = ast.BinOp(kids[0], node.op, kids[1])
        if counts[keys[node]] > 1:
            temps[keys[node]] = f"{prefix}{len(temps)}"
            new = ast.NamedExpr(ast.Name(temps[keys[node]], ast.Store()), new)
        return new

    return [visit(body) for body in bodies]


def _compile(sources: list[str], args: list[str], names: list[str]) -> Callable:
    """``bind``, where ``bind(values)`` is one function of ``args`` returning
    the tuple of the expressions' values, reading the rest of ``names`` (a
    superset of ``args``) from ``values``."""
    prefix = "_"
    while any(name.startswith(prefix) for name in names):
        prefix += "_"  # temporaries never clash with a user's name
    bodies = _lower([_parse(src, names).body for src in sources], set(args), prefix)
    params = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in args],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    tree = ast.Expression(ast.Lambda(params, ast.Tuple(bodies, ast.Load())))
    code = compile(ast.fix_missing_locations(tree), "<rhs>", "eval")
    builtins = {"__builtins__": {}, **_ALLOWED_CALLS, prefix + "pow": _pow}
    return lambda values: eval(code, {**builtins, **values})


def compile_expression(source: str, names: list[str]) -> Callable:
    """Compile one expression to a function of a name -> value environment.
    An arithmetic error (division by zero, float overflow) or a complex value
    raises ``EvaluationError`` naming the expression."""
    fn = _compile([source], names, names)({})

    def evaluate(env: dict):
        try:
            (value,) = fn(*[env[name] for name in names])
        except ArithmeticError as err:
            raise _error(source, f"failed with {type(err).__name__}") from err
        if _is_complex(value):
            raise _error(source, "has a complex value")
        return value

    return evaluate


def system_factory(doc: dict) -> tuple[Callable[[dict], SystemEntry], dict]:
    """Compile a document into ``(factory, defaults)``: ``factory`` builds its
    SystemEntry for resolved parameters, ``defaults`` are the document's."""
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
    clash = (set(state) | set(params)) & set(_ALLOWED_CALLS)
    if clash:
        raise InputError(f"names used for both a variable and a function: {sorted(clash)}")
    names = state + list(params)
    bind = _compile(rhs_sources, state, names)
    batch_columns = itemgetter(*[(..., i) for i in range(n)])
    may_be_complex = any("**" in src for src in rhs_sources)  # see _is_complex
    x0 = doc.get("x0")
    x0 = np.zeros(n) if x0 is None else np.asarray([float(v) for v in x0], dtype=float)
    if x0.shape != (n,):
        raise InputError(f"x0 must have {n} entries")

    def factory(resolved_params: dict) -> SystemEntry:
        pvals = dict(resolved_params)
        columns = bind(pvals)

        def rhs(s):
            s = np.asarray(s, dtype=float)
            cols = s if s.ndim == 1 else batch_columns(s)
            try:
                values = columns(*cols)
            except ArithmeticError:
                # evaluate one by one to name the first expression that fails
                env = {**dict(zip(state, cols)), **pvals}
                for src in rhs_sources:
                    compile_expression(src, names)(env)
                raise
            if s.ndim == 1:
                out = np.array(values)
                if out.dtype is _REAL:  # else a column is complex or a constant
                    return out
            out = np.empty(s.shape)
            for i, value in enumerate(values):
                if may_be_complex and _is_complex(value):  # casting would drop it
                    raise _error(rhs_sources[i], "has a complex value")
                try:
                    out[..., i] = value  # a constant fills the batch
                except ArithmeticError as err:  # an integer beyond float range
                    raise _error(rhs_sources[i], f"failed with {type(err).__name__}") from err
            return out

        return SystemEntry(
            name=name,
            params=pvals,
            field=VectorFieldDef(n=n, rhs=rhs, params=pvals, name=name),
            decomp=Decomposition.retain(n, m),
            default_ic=x0.copy(),
        )

    return factory, params


def system_from_dict(doc: dict) -> tuple[SystemEntry, dict]:
    """A document's SystemEntry at its default parameters, and its registry
    item ``{name: (factory, defaults)}`` so the CLI can apply --set overrides."""
    factory, params = system_factory(doc)
    return factory(params), {str(doc["name"]): (factory, params)}


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
