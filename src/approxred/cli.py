"""approxred command line interface.

Subcommands:

* ``simulate``       integrate a system and emit the trajectory
* ``compare``        run full vs reduced dynamics and emit the deviation series
* ``sweep``          repeat compare over a list of parameter values
* ``check-exact``    sampled test for exact reducibility
* ``check-lyapunov`` falsify a bundled stability certificate
* ``bound``          sampled estimate of the uniform deviation bound

Exit codes: 0 success or positive verdict, 1 usage error, 2 numerical
failure, 3 negative verdict (not reducible / counterexample found).

Every output file embeds the fully resolved run configuration (as ``#``
key=value lines in CSV, as a ``config`` object in JSON), and identical
configurations give byte-identical outputs. Floats are printed in the
shortest representation that round-trips.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (
    Box,
    ConstraintError,
    Decomposition,
    InputError,
    NumericalError,
    SystemEntry,
    UnknownSystemError,
)
from .integrate import IntegratorConfig, integrate_field
from .reduction import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    check_exact_reducible,
    estimate_delta,
    measure_deviation,
    sweep_deviation,
)
from .sampling import DEFAULT_SEED
from .stability import (
    COUNTEREXAMPLE,
    check_fiberwise,
    check_iiss,
    check_iubibss,
)
from .systems import lookup
from .user_systems import load_system_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERDICT = 3

SEED_ENV_VAR = "APPROXRED_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exceptions, not sys.exit(2)."""

    def error(self, message):
        raise UsageError(message)


def to_jsonable(obj):
    """Recursively convert reports, arrays and boxes to JSON-safe values."""
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, Box):
        return {"lower": obj.lower.tolist(), "upper": obj.upper.tolist()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def parse_metadata(text: str) -> dict:
    """Recover the embedded run configuration from a CSV's comment header."""
    meta = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            continue
        key, _, value = line[2:].partition("=")
        meta[key] = json.loads(value)
    return meta


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in meta.items()]


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _csv_document(meta: dict, header: list[str], rows) -> str:
    lines = _meta_lines(meta)
    lines.append(",".join(header))
    # Python floats, whose repr is the shortest decimal that round-trips
    for row in np.asarray(rows, dtype=float).tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _json_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ----------------------------------------------------------------- parsing


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        try:
            out[key] = float(value)
        except ValueError as err:
            raise UsageError(f"--set {key}: {value!r} is not a number") from err
    return out


def _parse_floats(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated list; an empty entry is an error
    unless every entry is empty."""
    tokens = text.split(",")
    if not any(tokens):
        return []
    try:
        return [float(tok) for tok in tokens]
    except ValueError as err:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from err


def _parse_box(text: str, flag: str) -> Box:
    pairs = []
    for part in text.split(";"):
        vals = _parse_floats(part, flag)
        if len(vals) != 2:
            raise UsageError(
                f"{flag} expects 'lo1,hi1;lo2,hi2;...', got segment {part!r}"
            )
        pairs.append((vals[0], vals[1]))
    try:
        return Box.from_pairs(pairs)
    except InputError as err:
        raise UsageError(f"{flag}: {err}") from err


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer") from err
    return DEFAULT_SEED


def _resolver(args):
    """A map from parameter overrides to the system the arguments name, with
    ``--set`` and then the overrides merged into its parameters and ``--m``
    applied to its decomposition. A ``--config`` file is read once, here."""
    sets = _parse_set(args.set)
    extra = None
    if getattr(args, "config", None):
        _entry, extra = load_system_config(args.config)
        if args.system is None:
            args.system = _entry.name
    if args.system is None:
        raise UsageError("--system is required (or provide --config)")

    def resolve(overrides: dict | None = None) -> SystemEntry:
        entry = lookup(args.system, {**sets, **(overrides or {})}, extra_registry=extra)
        n = entry.field.n
        if args.m is not None and not (1 <= args.m < n):
            raise UsageError(f"--m must be in [1, {n - 1}] for system {entry.name!r}")
        if args.m not in (None, entry.decomp.m):
            # the bundled reduction is for the stock split
            entry = dataclasses.replace(
                entry, decomp=Decomposition.retain(n, args.m), reduced_override=None
            )
        return entry

    return resolve


def _resolve_x0(args, entry: SystemEntry) -> np.ndarray:
    if args.x0 is None:
        return entry.default_ic.copy()
    vals = _parse_floats(args.x0, "--x0")
    if len(vals) != entry.field.n:
        raise UsageError(
            f"--x0 has {len(vals)} entries but system {entry.name!r} has "
            f"dimension {entry.field.n}"
        )
    return np.array(vals)


def _integrator_config(args) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            t_end=args.t_end,
            method=args.method,
            dt=args.dt,
            rtol=args.rtol,
            atol=args.atol,
        )
    except InputError as err:
        raise UsageError(str(err)) from err


def _config(command: str, args, entry: SystemEntry, x0, **extra) -> dict:
    """The fully resolved settings of one run, embedded in every output;
    ``extra`` appends keys, or replaces a value in its place."""
    return to_jsonable({
        "tool": "approxred",
        "version": __version__,
        "command": command,
        "system": entry.name,
        "params": entry.params,
        "m": entry.decomp.m,
        "method": args.method,
        "dt": args.dt,
        "rtol": args.rtol,
        "atol": args.atol,
        "t_end": args.t_end,
        "x0": x0,
        "seed": _resolve_seed(args),
        "format": args.format,
        **extra,
    })


def _default_box(entry: SystemEntry) -> Box:
    """Fallback check box: the bundled invariant box, else ic +- 1 per axis."""
    sub = entry.aux.get("sublevel_box")
    if sub is not None:
        return sub()
    ic = entry.default_ic
    return Box(ic - 1.0, ic + 1.0)


def _resolve_box(args, entry: SystemEntry) -> Box:
    """``--box``, else the default box, checked against the system's dimension."""
    box = _default_box(entry) if args.box is None else _parse_box(args.box, "--box")
    if box.dim != entry.field.n:
        raise UsageError(
            f"--box has dimension {box.dim} but system {entry.name!r} has "
            f"dimension {entry.field.n}"
        )
    return box


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    entry = _resolver(args)()
    x0 = _resolve_x0(args, entry)
    cfg = _integrator_config(args)
    traj = integrate_field(entry.field, x0, cfg)
    meta = _config("simulate", args, entry, x0)
    if args.format == "json":
        doc = to_jsonable({"config": meta, "times": traj.times, "states": traj.states})
        _emit(args.out, _json_document(doc))
    else:
        header = ["t"] + [f"x{i}" for i in range(entry.field.n)]
        rows = np.column_stack([traj.times, traj.states])
        _emit(args.out, _csv_document(meta, header, rows))
    return EXIT_OK


def cmd_compare(args) -> int:
    entry = _resolver(args)()
    x0 = _resolve_x0(args, entry)
    cfg = _integrator_config(args)
    rep = measure_deviation(
        entry.field,
        entry.decomp,
        x0,
        cfg,
        reduced=entry.reduced_override,
        n_grid=args.n_grid,
    )
    meta = _config("compare", args, entry, x0, n_grid=args.n_grid)
    summary = {"sup_dev": rep.sup_dev, "t_of_sup": rep.t_of_sup}
    m = entry.decomp.m
    if args.format == "json":
        doc = to_jsonable({
            "config": meta,
            "summary": summary,
            "times": rep.times,
            "full_projected": rep.full_projected,
            "reduced": rep.reduced_states,
            "deviation": rep.dev_series,
        })
        _emit(args.out, _json_document(doc))
    else:
        header = (
            ["t"]
            + [f"full_proj_{i}" for i in range(m)]
            + [f"reduced_{i}" for i in range(m)]
            + ["deviation"]
        )
        rows = np.column_stack(
            [rep.times, rep.full_projected, rep.reduced_states, rep.dev_series]
        )
        _emit(args.out, _csv_document(meta, header, rows))
        if args.out is not None:
            sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _parse_floats(args.values, "--values")
    if not values:
        raise UsageError("--values must list at least one number")
    cfg = _integrator_config(args)
    resolve = _resolver(args)
    entries = [resolve({args.param: values[0]})]
    x0 = _resolve_x0(args, entries[0])  # the ic stays fixed across rows
    failed = None  # the first value that does not resolve, raised in turn
    for value in values[1:]:
        try:
            entries.append(resolve({args.param: value}))
        except (UsageError, InputError, ConstraintError, UnknownSystemError) as err:
            failed = err
            break
    sweep = sweep_deviation(
        [e.field for e in entries],
        entries[0].decomp,
        x0,
        cfg,
        reduced=[e.reduced_override for e in entries],
        n_grid=args.n_grid,
    )
    # list() runs the sweep to its end, so that no error it raises is lost
    rows = [(value, *dev) for value, dev in zip(values, list(sweep))]
    if failed is not None:
        raise failed
    entry = entries[-1]
    meta = _config(
        "sweep", args, entry, x0,
        params={k: v for k, v in entry.params.items() if k != args.param},
        param=args.param, values=values, n_grid=args.n_grid,
    )
    if args.format == "json":
        doc = {
            "config": meta,
            "rows": [
                {"param_value": v, "sup_dev": s, "t_of_sup": t} for v, s, t in rows
            ],
        }
        _emit(args.out, _json_document(doc))
    else:
        header = ["param_value", "sup_dev", "t_of_sup"]
        _emit(args.out, _csv_document(meta, header, rows))
    return EXIT_OK


def cmd_check_exact(args) -> int:
    entry = _resolver(args)()
    box = _resolve_box(args, entry)
    seed = _resolve_seed(args)
    report = check_exact_reducible(
        entry.field, entry.decomp, box, n_samples=args.samples, tol=args.tol, seed=seed
    )
    meta = _config(
        "check-exact", args, entry, None, samples=args.samples, tol=args.tol, box=box
    )
    doc = to_jsonable({"config": meta, "report": report})
    _emit(args.out, _json_document(doc))
    return EXIT_OK if report.reducible else EXIT_VERDICT


def cmd_check_lyapunov(args) -> int:
    entry = _resolver(args)()
    if args.certificate not in entry.certificates:
        have = ", ".join(sorted(entry.certificates)) or "none"
        raise UsageError(
            f"system {entry.name!r} has no certificate {args.certificate!r}; "
            f"available: {have}"
        )
    seed = _resolve_seed(args)
    state_box = None if args.box is None else _parse_box(args.box, "--box")
    input_box = None if args.input_box is None else _parse_box(args.input_box, "--input-box")
    spec = entry.certificates[args.certificate](
        state_box=state_box, input_box=input_box, seed=seed
    )
    cert = spec.certificate
    if args.negate_v:
        cert = _negate_certificate(cert)
    if spec.kind == "fiberwise":
        report = check_fiberwise(
            entry.field, entry.decomp, cert, spec.state_box, n_samples=args.samples,
            seed=seed,
        )
    else:
        check = {"iiss": check_iiss, "iubibss": check_iubibss}[spec.kind]
        report = check(
            spec.control, cert, spec.state_box, spec.input_box,
            n_samples=args.samples, seed=seed,
        )
    meta = _config(
        "check-lyapunov", args, entry, None, certificate=args.certificate,
        kind=spec.kind, samples=args.samples, negate_v=bool(args.negate_v),
    )
    doc = to_jsonable({"config": meta, "report": report})
    _emit(args.out, _json_document(doc))
    return EXIT_VERDICT if report.verdict == COUNTEREXAMPLE else EXIT_OK


def _negate_certificate(cert):
    """Diagnostic corruption: check -V instead of V.

    A healthy falsifier must produce a counterexample for the negated
    function; this gives a one-flag self test that verdicts are not
    vacuously green.
    """
    V = cert.V  # -V's value and gradient are V's, negated
    return dataclasses.replace(cert, V=lambda *xs: -np.asarray(V(*xs), dtype=float))


def cmd_bound(args) -> int:
    entry = _resolver(args)()
    if args.n_ic < 1:
        raise UsageError("--n-ic must be at least 1")
    box = _resolve_box(args, entry)
    cfg = _integrator_config(args)
    seed = _resolve_seed(args)
    est = estimate_delta(
        entry.field,
        entry.decomp,
        box,
        args.n_ic,
        cfg,
        pair_mode=args.mode,
        reduced=entry.reduced_override,
        seed=seed,
        n_grid=args.n_grid,
    )
    meta = _config(
        "bound", args, entry, None, mode=args.mode, n_ic=args.n_ic, box=box,
        n_grid=args.n_grid,
    )
    _emit(args.out, _json_document({"config": meta, **to_jsonable(est)}))
    return EXIT_OK


# ------------------------------------------------------------------ wiring


def _add_common(p: _Parser, needs_integrator: bool = True) -> None:
    p.add_argument("--system", help="registered system name")
    p.add_argument("--config", help="JSON config file defining a user system")
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a parameter"
    )
    p.add_argument("--m", type=int, help="override the retained dimension")
    p.add_argument("--seed", type=int, help=f"sampling seed (default {DEFAULT_SEED}; "
                   f"env {SEED_ENV_VAR})")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if needs_integrator:
        p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
        p.add_argument("--dt", type=float, help="fixed step (rk4 only)")
        p.add_argument("--rtol", type=float, default=1e-9)
        p.add_argument("--atol", type=float, default=1e-9)
        p.add_argument("--method", choices=("rk4", "rk45"), default="rk45")
    else:
        p.set_defaults(t_end=10.0, dt=None, rtol=1e-9, atol=1e-9, method="rk45")


def build_parser() -> _Parser:
    parser = _Parser(prog="approxred", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"approxred {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate a system and emit the trajectory")
    _add_common(p)
    p.add_argument("--x0", help="comma-separated initial condition")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="full vs reduced run with deviation series")
    _add_common(p)
    p.add_argument("--x0", help="comma-separated initial condition")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="compare over a list of parameter values")
    _add_common(p)
    p.add_argument("--x0", help="comma-separated initial condition (fixed across rows)")
    p.add_argument("--param", required=True, help="parameter to sweep")
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-exact", help="sampled exact-reducibility test")
    _add_common(p, needs_integrator=False)
    p.add_argument("--box", help="sampling box 'lo1,hi1;lo2,hi2;...'")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check_exact)

    p = sub.add_parser("check-lyapunov", help="falsify a bundled certificate")
    _add_common(p, needs_integrator=False)
    p.add_argument("--certificate", required=True, help="bundled certificate name")
    p.add_argument("--box", help="state box 'lo1,hi1;...' (default: bundled box)")
    p.add_argument("--input-box", dest="input_box", help="input box for iiss/iubibss")
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument(
        "--negate-v",
        dest="negate_v",
        action="store_true",
        help="diagnostic: check -V instead of V (must fail on a healthy setup)",
    )
    p.set_defaults(func=cmd_check_lyapunov)

    p = sub.add_parser("bound", help="sampled uniform deviation bound estimate")
    _add_common(p)
    p.add_argument("--box", help="initial condition box 'lo1,hi1;...'")
    p.add_argument("--n-ic", type=int, default=100, dest="n_ic")
    p.add_argument("--mode", choices=("projected", "cross"), default="projected")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"approxred: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as err:
        # EvaluationError is both an input and a numerical error; it lands
        # here so that bad evaluations never masquerade as usage mistakes
        print(f"approxred: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InputError, ConstraintError, UnknownSystemError) as err:
        msg = err.args[0] if err.args else str(err)
        print(f"approxred: error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
