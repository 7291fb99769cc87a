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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (
    Box,
    ConstraintError,
    Decomposition,
    InputError,
    NumericalError,
    UnknownSystemError,
)
from .integrate import IntegratorConfig, integrate_field
from .reduction import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    check_exact_reducible,
    estimate_delta,
    measure_deviation,
)
from .sampling import DEFAULT_SEED
from .stability import (
    COUNTEREXAMPLE,
    ScalarFunctionDef,
    check_fiberwise,
    check_iiss,
    check_iubibss,
)
from .systems import SystemEntry, lookup
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


def fmt_float(x: float) -> str:
    """Shortest decimal representation that round-trips a float64."""
    return repr(float(x))


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


@dataclass
class RunConfig:
    """The fully resolved settings of one CLI run, embedded in every output."""

    command: str
    system: str
    params: dict
    m: int
    method: str
    dt: float | None
    rtol: float
    atol: float
    t_end: float
    x0: list | None
    seed: int
    format: str
    extra: dict = field(default_factory=dict)

    def to_meta(self) -> dict:
        meta = {
            "tool": "approxred",
            "version": __version__,
            "command": self.command,
            "system": self.system,
            "params": to_jsonable(self.params),
            "m": self.m,
            "method": self.method,
            "dt": self.dt,
            "rtol": self.rtol,
            "atol": self.atol,
            "t_end": self.t_end,
            "x0": to_jsonable(self.x0),
            "seed": self.seed,
            "format": self.format,
        }
        meta.update(to_jsonable(self.extra))
        return meta


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
    for row in rows:
        lines.append(",".join(fmt_float(v) for v in row))
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
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as err:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from err


def _parse_box(text: str) -> Box:
    pairs = []
    for part in text.split(";"):
        vals = _parse_floats(part, "--box")
        if len(vals) != 2:
            raise UsageError(
                f"--box expects 'lo1,hi1;lo2,hi2;...', got segment {part!r}"
            )
        pairs.append((vals[0], vals[1]))
    try:
        return Box.from_pairs(pairs)
    except InputError as err:
        raise UsageError(str(err)) from err


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


def _resolve_entry(args, overrides: dict | None = None) -> SystemEntry:
    """The system the arguments name, with ``--set`` and then ``overrides``
    merged into its parameters and ``--m`` applied to its decomposition."""
    overrides = {**_parse_set(args.set), **(overrides or {})}
    extra = None
    if getattr(args, "config", None):
        _entry, extra = load_system_config(args.config)
        if args.system is None:
            args.system = _entry.name
    if args.system is None:
        raise UsageError("--system is required (or provide --config)")
    entry = lookup(args.system, overrides, extra_registry=extra)
    if args.m is not None:
        if not (1 <= args.m < entry.field.n):
            raise UsageError(
                f"--m must be in [1, {entry.field.n - 1}] for system {entry.name!r}"
            )
        if args.m != entry.decomp.m:
            entry = dataclasses.replace(
                entry,
                decomp=Decomposition.retain(entry.field.n, args.m),
                reduced_override=None,  # the bundled reduction is for the stock split
            )
    return entry


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


def _run_config(command: str, args, entry: SystemEntry, x0, **extra) -> RunConfig:
    return RunConfig(
        command=command,
        system=entry.name,
        params=dict(entry.params),
        m=entry.decomp.m,
        method=args.method,
        dt=args.dt,
        rtol=args.rtol,
        atol=args.atol,
        t_end=args.t_end,
        x0=None if x0 is None else [float(v) for v in x0],
        seed=_resolve_seed(args),
        format=args.format,
        extra=extra,
    )


def _default_box(entry: SystemEntry) -> Box:
    """Fallback check box: the bundled invariant box, else ic +- 1 per axis."""
    sub = entry.aux.get("sublevel_box")
    if sub is not None:
        return sub()
    ic = entry.default_ic
    return Box(ic - 1.0, ic + 1.0)


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    entry = _resolve_entry(args)
    x0 = _resolve_x0(args, entry)
    cfg = _integrator_config(args)
    traj = integrate_field(entry.field, x0, cfg)
    rc = _run_config("simulate", args, entry, x0)
    if args.format == "json":
        doc = {
            "config": rc.to_meta(),
            "times": to_jsonable(traj.times),
            "states": to_jsonable(traj.states),
        }
        _emit(args.out, _json_document(doc))
    else:
        header = ["t"] + [f"x{i}" for i in range(entry.field.n)]
        rows = np.column_stack([traj.times, traj.states])
        _emit(args.out, _csv_document(rc.to_meta(), header, rows))
    return EXIT_OK


def cmd_compare(args) -> int:
    entry = _resolve_entry(args)
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
    rc = _run_config("compare", args, entry, x0, n_grid=args.n_grid)
    summary = {"sup_dev": rep.sup_dev, "t_of_sup": rep.t_of_sup}
    m = entry.decomp.m
    if args.format == "json":
        doc = {
            "config": rc.to_meta(),
            "summary": summary,
            "times": to_jsonable(rep.times),
            "full_projected": to_jsonable(rep.full_projected),
            "reduced": to_jsonable(rep.reduced_states),
            "deviation": to_jsonable(rep.dev_series),
        }
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
        _emit(args.out, _csv_document(rc.to_meta(), header, rows))
        if args.out is not None:
            sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.values:
        raise UsageError("--values must list at least one number")
    values = _parse_floats(args.values, "--values")
    cfg = _integrator_config(args)
    rows = []
    x0 = None
    for value in values:
        entry = _resolve_entry(args, {args.param: value})
        if x0 is None:
            x0 = _resolve_x0(args, entry)  # the ic stays fixed across rows
        rep = measure_deviation(
            entry.field,
            entry.decomp,
            x0,
            cfg,
            reduced=entry.reduced_override,
            n_grid=args.n_grid,
        )
        rows.append((value, rep.sup_dev, rep.t_of_sup))
    rc = _run_config(
        "sweep",
        args,
        entry,
        x0,
        param=args.param,
        values=values,
        n_grid=args.n_grid,
    )
    rc.params = {k: v for k, v in rc.params.items() if k != args.param}
    if args.format == "json":
        doc = {
            "config": rc.to_meta(),
            "rows": [
                {"param_value": v, "sup_dev": s, "t_of_sup": t} for v, s, t in rows
            ],
        }
        _emit(args.out, _json_document(doc))
    else:
        header = ["param_value", "sup_dev", "t_of_sup"]
        _emit(args.out, _csv_document(rc.to_meta(), header, rows))
    return EXIT_OK


def cmd_check_exact(args) -> int:
    entry = _resolve_entry(args)
    box = _parse_box(args.box) if args.box else _default_box(entry)
    if box.dim != entry.field.n:
        raise UsageError(
            f"--box has dimension {box.dim} but system {entry.name!r} has "
            f"dimension {entry.field.n}"
        )
    seed = _resolve_seed(args)
    report = check_exact_reducible(
        entry.field, entry.decomp, box, n_samples=args.samples, tol=args.tol, seed=seed
    )
    rc = _run_config(
        "check-exact", args, entry, None, samples=args.samples, tol=args.tol, box=box
    )
    doc = {"config": rc.to_meta(), "report": to_jsonable(report)}
    _emit(args.out, _json_document(doc))
    return EXIT_OK if report.reducible else EXIT_VERDICT


def cmd_check_lyapunov(args) -> int:
    entry = _resolve_entry(args)
    if args.certificate not in entry.certificates:
        have = ", ".join(sorted(entry.certificates)) or "none"
        raise UsageError(
            f"system {entry.name!r} has no certificate {args.certificate!r}; "
            f"available: {have}"
        )
    seed = _resolve_seed(args)
    state_box = _parse_box(args.box) if args.box else None
    input_box = _parse_box(args.input_box) if args.input_box else None
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
    elif spec.kind == "iiss":
        report = check_iiss(
            spec.control, cert, spec.state_box, spec.input_box,
            n_samples=args.samples, seed=seed,
        )
    elif spec.kind == "iubibss":
        report = check_iubibss(
            spec.control, cert, spec.state_box, spec.input_box,
            n_samples=args.samples, seed=seed,
        )
    else:
        raise InputError(f"unknown certificate kind {spec.kind!r}")
    rc = _run_config(
        "check-lyapunov",
        args,
        entry,
        None,
        certificate=args.certificate,
        kind=spec.kind,
        samples=args.samples,
        negate_v=bool(args.negate_v),
    )
    doc = {"config": rc.to_meta(), "report": to_jsonable(report)}
    _emit(args.out, _json_document(doc))
    return EXIT_VERDICT if report.verdict == COUNTEREXAMPLE else EXIT_OK


def _negate_certificate(cert):
    """Diagnostic corruption: check -V instead of V.

    A healthy falsifier must produce a counterexample for the negated
    function; this gives a one-flag self test that verdicts are not
    vacuously green.
    """
    V = cert.V
    neg_fn = lambda *xs: -np.asarray(V.fn(*xs), dtype=float)
    if V.grad is not None:
        if V.arity == "pair":
            def neg_grad(x1, x2):
                g1, g2 = V.grad(x1, x2)
                return -np.asarray(g1, dtype=float), -np.asarray(g2, dtype=float)
        else:
            neg_grad = lambda x: -np.asarray(V.grad(x), dtype=float)
    else:
        neg_grad = None
    neg_V = ScalarFunctionDef(
        arity=V.arity, fn=neg_fn, grad=neg_grad, name=f"-{V.name}"
    )
    return dataclasses.replace(cert, V=neg_V)


def cmd_bound(args) -> int:
    entry = _resolve_entry(args)
    if args.n_ic < 1:
        raise UsageError("--n-ic must be at least 1")
    box = _parse_box(args.box) if args.box else _default_box(entry)
    if box.dim != entry.field.n:
        raise UsageError(
            f"--box has dimension {box.dim} but system {entry.name!r} has "
            f"dimension {entry.field.n}"
        )
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
    rc = _run_config(
        "bound", args, entry, None, mode=args.mode, n_ic=args.n_ic, box=box,
        n_grid=args.n_grid,
    )
    doc = {
        "config": rc.to_meta(),
        "delta_hat": est.delta_hat,
        "mode": est.mode,
        "n_ic": est.n_ic,
        "failures": est.failures,
        "seed": est.seed,
        "note": est.note,
    }
    _emit(args.out, _json_document(doc))
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
