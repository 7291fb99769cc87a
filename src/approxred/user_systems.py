"""Systems from JSON documents, and the compiler behind every bundled expression.

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
``sin`` or ``cos``. Every literal, integers included, is an IEEE double, and
expressions are evaluated in double precision with Python's standard
precedence and left-to-right association. ``x0`` optionally sets the default
initial condition. The bundled systems of :mod:`approxred.systems` are
documents of this schema and expressions, with gradients derived by
:func:`_derivative`. Expressions compile to one function of their argument
columns (:func:`compile_map`), which returns each expression's value and,
if asked, its partials, a lone state's bits equal to a batch row's (see
:func:`_pow`).
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .core import EvaluationError, InputError, SystemEntry, VectorFieldDef

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)
_REAL = np.dtype(float)


def _double(value) -> float:
    """A number as a double; an integer beyond float range is infinite, as 1e400 is."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def _parse(source: str, names: list[str]) -> ast.expr:
    """The vetted tree of one expression, its literals made doubles."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as err:
        raise InputError(f"cannot parse expression {source!r}: {err}") from err
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load, ast.operator, ast.unaryop)):
            continue  # operator kinds are vetted on their BinOp/UnaryOp parents
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise InputError(f"non-numeric literal in expression {source!r}")
            node.value = _double(node.value)  # every literal is a double
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id not in _ALLOWED_CALLS:
                raise InputError(
                    f"unknown name {node.id!r} in expression {source!r}; "
                    f"known: {', '.join(sorted(names))}"
                )
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if not isinstance(node.op, _ALLOWED_OPS):
                raise InputError(f"operator not allowed in expression {source!r}")
        elif isinstance(node, ast.Call):
            if (getattr(node.func, "id", None) not in _ALLOWED_CALLS or node.keywords
                    or len(node.args) != 1):
                raise InputError(f"only sin(.) and cos(.) calls are allowed, got {source!r}")
        else:
            raise InputError(
                f"construct {type(node).__name__} not allowed in expression {source!r}"
            )
    return tree.body


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


def _neg(node: ast.expr) -> ast.expr:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return node.operand  # -(-x) is x, bit for bit
    return ast.UnaryOp(ast.USub(), node)


def _mul(a: ast.expr, b: ast.expr) -> ast.expr:
    for x, y in ((a, b), (b, a)):
        if isinstance(x, ast.Constant) and x.value == 1.0:
            return y  # 1.0*y is y, bit for bit
    return ast.BinOp(a, ast.Mult(), b)


def _derivative(tree: ast.expr, var: str, source: str) -> ast.expr | None:
    """``d tree / d var`` by the forward-mode chain rule, as a tree sharing the
    subtrees of ``tree``. None is a structural zero: a vanishing term is
    dropped, never written ``0*x``, which an infinite ``x`` would make NaN."""

    def d(node):
        if isinstance(node, (ast.Constant, ast.Name)):
            return ast.Constant(1.0) if getattr(node, "id", None) == var else None
        if isinstance(node, ast.UnaryOp):
            du = d(node.operand)
            return du if du is None or isinstance(node.op, ast.UAdd) else _neg(du)
        if isinstance(node, ast.Call):  # sin' = cos, cos' = -sin
            sin = node.func.id == "sin"
            other = ast.Call(ast.Name("cos" if sin else "sin", ast.Load()), node.args, [])
            du = d(node.args[0])
            return du and _mul(other if sin else _neg(other), du)
        a, b, op = node.left, node.right, type(node.op)
        da, db = d(a), d(b)
        if op is ast.Sub and da is None:
            return db and _neg(db)
        if op is ast.Mult:
            op, da, db = ast.Add, da and _mul(da, b), db and _mul(a, db)
        if op is ast.Add or op is ast.Sub:
            return da if db is None else db if da is None else ast.BinOp(da, op(), db)
        if op is ast.Div:  # (a/b)' = (a' - (a/b)*b')/b, reusing the quotient
            if db is None:
                return da and ast.BinOp(da, ast.Div(), b)
            t = _mul(node, db)
            return ast.BinOp(_neg(t) if da is None else ast.BinOp(da, ast.Sub(), t),
                             ast.Div(), b)
        if db is not None:
            raise InputError(f"cannot differentiate expression {source!r} in {var!r}: "
                             "a ** exponent depends on it")
        if da is None or (isinstance(b, ast.Constant) and b.value == 0.0):
            return None
        if isinstance(b, ast.Constant):  # b*a**(b - 1.0), with b - 1.0 folded
            e = b.value - 1.0
            power = a if e == 1.0 else ast.BinOp(a, ast.Pow(), ast.Constant(e))
        else:
            power = ast.BinOp(a, ast.Pow(), ast.BinOp(b, ast.Sub(), ast.Constant(1.0)))
        return _mul(_mul(b, power), da)

    return d(tree)


def _lower(bodies: list[ast.expr], args: set[str], prefix: str) -> list[ast.expr]:
    """The expression trees with each ``**`` that mentions an argument as a
    call of ``<prefix>pow`` and each repeated subtree bound to a temporary
    ``<prefix><i>`` at its first occurrence and read back at the others.
    Trees may share nodes, as derivatives do; each reference is one."""
    # per node: its operands, its structure, and whether it names an argument
    children, keys, mentions, counts = {}, {}, {}, Counter()

    def scan(node):
        if node not in keys:
            kids = children[node] = node.args if isinstance(node, ast.Call) else [
                kid for kid in ast.iter_child_nodes(node) if isinstance(kid, ast.expr)]
            for kid in kids:
                scan(kid)
            if isinstance(node, ast.Name):
                keys[node] = node.id
            elif isinstance(node, ast.Constant):
                keys[node] = (repr(node.value),)  # no name equals it
            else:
                op = node.func.id if isinstance(node, ast.Call) else type(node.op)
                keys[node] = (op, *map(keys.get, kids))
            mentions[node] = keys[node] in args or any(map(mentions.get, kids))
        counts[keys[node]] += 1

    for body in bodies:
        scan(body)
    temps = {}

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


def compile_map(sources: list[str], blocks: list[list[str]], params: list[str],
                wrt=()) -> Callable[[dict], Callable]:
    """``bind``, where ``bind(values)`` (the values of ``params``) is one
    function of ``len(blocks)`` arrays, each a lone state ``(n_j,)`` or a
    batch ``(..., n_j)`` whose columns ``blocks[j]`` names. It returns the
    ``(..., k)`` array of each expression's value followed, given the names
    ``wrt``, by its partials along them, so ``k = len(sources) * (1 +
    len(wrt))``, all computed by one code object. An arithmetic error or a
    complex value raises ``EvaluationError`` naming the first expression
    that fails."""
    args = [name for block in blocks for name in block]
    names = args + list(params)
    prefix = "_"
    while any(name.startswith(prefix) for name in names):
        prefix += "_"  # temporaries never clash with a user's name
    bodies = []
    for src in sources:
        tree = _parse(src, names)
        bodies += [tree, *(_derivative(tree, var, src) or ast.Constant(0.0) for var in wrt)]
    lambda_args = ast.arguments(posonlyargs=[], args=[ast.arg(name) for name in args],
                                kwonlyargs=[], kw_defaults=[], defaults=[])
    body = ast.Tuple(_lower(bodies, set(args), prefix), ast.Load())
    tree = ast.Expression(ast.Lambda(lambda_args, body))
    code = compile(ast.fix_missing_locations(tree), "<rhs>", "eval")
    builtins = {"__builtins__": {}, **_ALLOWED_CALLS, prefix + "pow": _pow}
    getters = [itemgetter(*[(..., i) for i in range(len(block))]) if len(block) > 1
               else lambda a: (a[..., 0],) for block in blocks]
    may_be_complex = any("**" in src for src in sources)  # see _is_complex

    def bind(values: dict) -> Callable:
        columns = eval(code, {**builtins, **values})  # parameters are its globals

        def evaluate(*arrays):
            if len(arrays) == 1:  # one block, as a field has: its hot path, no loop
                a = np.asarray(arrays[0], dtype=float)
                cols = a if a.ndim == 1 else getters[0](a)
            else:
                cols = []
                for a, get in zip(arrays, getters):
                    a = np.asarray(a, dtype=float)
                    cols.extend(a if a.ndim == 1 else get(a))
            try:
                results = columns(*cols)
            except ArithmeticError as err:
                if len(sources) > 1:  # evaluate one by one to name the failure
                    for src in sources:
                        compile_map([src], blocks, params, wrt)(values)(*arrays)
                raise _error(sources[0], f"failed with {type(err).__name__}") from err
            if a.ndim == 1:
                out = np.array(results)
                if out.dtype is _REAL:  # else a column is complex
                    return out
            out = np.empty((*a.shape[:-1], len(results)))
            for i, value in enumerate(results):
                if may_be_complex and _is_complex(value):  # casting would drop it
                    raise _error(sources[i // (1 + len(wrt))], "has a complex value")
                out[..., i] = value  # a constant fills the batch
            return out

        return evaluate

    return bind


# each key's type, in words and as a test; JSON's true and false are no numbers
_KEY_TYPES = {
    "name": ("a string", lambda v: type(v) is str),
    "state": ("a list of strings", lambda v: type(v) is list and {*map(type, v)} <= {str}),
    "m": ("an integer", lambda v: type(v) is int),
    "rhs": ("a list of strings", lambda v: type(v) is list and {*map(type, v)} <= {str}),
    "params": ("an object of numbers",
               lambda v: type(v) is dict and {*map(type, v.values())} <= {int, float}),
    "x0": ("a list of numbers",
           lambda v: v is None or type(v) is list and {*map(type, v)} <= {int, float}),
}


def system_factory(doc: dict) -> tuple[Callable[[dict], SystemEntry], dict]:
    """Compile a document into ``(factory, defaults)``: ``factory`` builds its
    SystemEntry for resolved parameters, ``defaults`` are the document's."""
    for key in ("name", "state", "m", "rhs"):
        if key not in doc:
            raise InputError(f"config file is missing required key {key!r}")
    for key, (kind, ok) in _KEY_TYPES.items():
        if key in doc and not ok(doc[key]):
            raise InputError(f"config file holds a value of the wrong type: "
                             f"{key!r} must be {kind}, got {doc[key]!r}")
    name, state, m, rhs_sources = doc["name"], doc["state"], doc["m"], doc["rhs"]
    params = {k: _double(v) for k, v in doc.get("params", {}).items()}
    x0 = doc.get("x0")
    x0 = np.zeros(len(state)) if x0 is None else np.array([_double(v) for v in x0])
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
    clash = set(state) & set(params)
    if clash:
        raise InputError(f"names used for both state and parameter: {sorted(clash)}")
    clash = (set(state) | set(params)) & set(_ALLOWED_CALLS)
    if clash:
        raise InputError(f"names used for both a variable and a function: {sorted(clash)}")
    bind = compile_map(rhs_sources, [state], list(params))
    if x0.shape != (n,):
        raise InputError(f"x0 must have {n} entries")
    if not np.all(np.isfinite(x0)):
        raise InputError(f"config key 'x0' must be finite, got {x0.tolist()}")

    def factory(resolved_params: dict) -> SystemEntry:
        pvals = dict(resolved_params)
        return SystemEntry(
            name=name,
            params=pvals,
            field=VectorFieldDef(n=n, rhs=bind(pvals), name=name),
            m=m,
            default_ic=x0.copy(),
        )

    return factory, params


def system_from_dict(doc: dict) -> tuple[SystemEntry, dict]:
    """A document's SystemEntry at its default parameters, and its registry
    item ``{name: (factory, defaults)}`` so the CLI can apply --set overrides."""
    factory, params = system_factory(doc)
    return factory(params), {doc["name"]: (factory, params)}


def load_system_config(path: str | Path) -> tuple[SystemEntry, dict]:
    """Parse a JSON config file into a system entry plus a registry item."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise InputError(f"config file not found: {path}") from err
    except OSError as err:  # a directory, or no permission to read
        raise InputError(f"config file {path} cannot be read: {err.strerror}") from err
    except ValueError as err:  # malformed, not UTF-8, or an integer of too many digits
        raise InputError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return system_from_dict(doc)
