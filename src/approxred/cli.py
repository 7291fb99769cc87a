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

Every output file embeds the resolved settings its command used (as ``#``
key=value lines in CSV, as a ``config`` object in JSON), and identical
configurations give byte-identical outputs. Floats are printed in the
shortest representation that round-trips.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .core import Box, InputError, NumericalError, SystemEntry
from .integrate import DEFAULT_ATOL, DEFAULT_RTOL, IntegratorConfig, integrate_field
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


class _Parser(argparse.ArgumentParser):
    """argparse that takes whole flag names only, so that a flag one command
    lacks is never read as a prefix of another (``--m`` of ``--method``), and
    reports usage problems as :class:`InputError`, not sys.exit(2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def _jsonable(obj):
    """``json.dumps``'s hook for what it cannot write itself: arrays and numpy
    scalars become lists and numbers, a Box its bounds, a report dataclass its
    fields in order."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Box):
        return {"lower": obj.lower, "upper": obj.upper}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write --out {path}: {err.strerror}") from err


def _csv_document(meta: dict, header: list[str], rows) -> str:
    lines = [f"# {k}={json.dumps(v, sort_keys=True, default=_jsonable)}"
             for k, v in meta.items()]
    lines.append(",".join(header))
    # Python floats, whose repr is the shortest decimal that round-trips
    for row in np.asarray(rows, dtype=float).tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _json_document(doc) -> str:
    return json.dumps(doc, indent=2, default=_jsonable) + "\n"


def _write_series(args, meta: dict, columns, summary: dict | None = None) -> None:
    """Write ``columns`` of ``(JSON key, CSV header or prefix, array)``: in
    JSON after the config and ``summary``, in CSV as columns, a 2-d array's
    headed by its prefix and column index. A CSV sent to ``--out`` leaves
    the summary on stdout."""
    if args.format == "json":
        doc = {"config": meta} if summary is None else {"config": meta, "summary": summary}
        doc.update((key, array) for key, _, array in columns)
        _emit(args.out, _json_document(doc))
        return
    header = []
    for _, name, array in columns:
        header += [name] if array.ndim == 1 else [f"{name}{i}" for i in range(array.shape[1])]
    rows = np.column_stack([array for *_, array in columns])
    _emit(args.out, _csv_document(meta, header, rows))
    if summary is not None and args.out is not None:
        sys.stdout.write(json.dumps(summary) + "\n")


# ----------------------------------------------------------------- parsing


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise InputError(f"--set expects key=value, got {pair!r}")
        try:
            out[key] = float(value)
        except ValueError as err:
            raise InputError(f"--set {key}: {value!r} is not a number") from err
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
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}") from err


def _parse_box(text: str, flag: str) -> Box:
    pairs = []
    for part in text.split(";"):
        vals = _parse_floats(part, flag)
        if len(vals) != 2:
            raise InputError(
                f"{flag} expects 'lo1,hi1;lo2,hi2;...', got segment {part!r}"
            )
        pairs.append((vals[0], vals[1]))
    try:
        return Box.from_pairs(pairs)
    except InputError as err:
        raise InputError(f"{flag}: {err}") from err


def _resolver(args):
    """A map from parameter overrides to the system the arguments name, with
    ``--set`` and then the overrides merged into its parameters and ``--m``
    as its retained dimension. A ``--config`` file is read once, here."""
    sets = _parse_set(args.set)
    m = getattr(args, "m", None)  # commands that reduce nothing take no --m
    extra = None
    if getattr(args, "config", None):
        _entry, extra = load_system_config(args.config)
        if args.system not in (None, _entry.name):
            raise InputError(f"--system {args.system!r} differs from the system "
                             f"{_entry.name!r} that --config {args.config} defines")
        args.system = _entry.name
    if args.system is None:
        raise InputError("--system is required (or provide --config)")

    def resolve(overrides: dict | None = None) -> SystemEntry:
        entry = lookup(args.system, {**sets, **(overrides or {})}, extra_registry=extra)
        n = entry.field.n
        if m is not None and not (1 <= m < n):
            raise InputError(f"--m must be in [1, {n - 1}] for system {entry.name!r}")
        if m not in (None, entry.m):
            # the bundled reduction is for the stock split
            entry = dataclasses.replace(entry, m=m, reduced_override=None)
        return entry

    return resolve


def _resolve_x0(args, entry: SystemEntry) -> np.ndarray:
    if args.x0 is None:
        return entry.default_ic.copy()
    vals = _parse_floats(args.x0, "--x0")
    if len(vals) != entry.field.n:
        raise InputError(
            f"--x0 has {len(vals)} entries but system {entry.name!r} has "
            f"dimension {entry.field.n}"
        )
    if not np.all(np.isfinite(vals)):
        raise InputError(f"--x0 must be finite, got {args.x0!r}")
    return np.array(vals)


def _integrator_config(args) -> IntegratorConfig:
    return IntegratorConfig(
        t_end=args.t_end, method=args.method, dt=args.dt, rtol=args.rtol, atol=args.atol
    )


# the shared settings a config records, in order, for the commands that take them
_SHARED = ("method", "dt", "rtol", "atol", "t_end", "x0", "seed", "format")


def _config(command: str, args, entry: SystemEntry, **settings) -> dict:
    """The settings one run used, embedded in every output: the system's, the
    shared ones among the command's flags, then ``settings`` in order. A
    resolved value in ``settings`` (``x0``, ``params``) keeps its key's
    place."""
    config = {"tool": "approxred", "version": __version__, "command": command,
              "system": entry.name, "params": entry.params, "m": entry.m}
    given = {**vars(args), **settings}
    config.update((key, given[key]) for key in _SHARED if key in given)
    config.update(settings)
    return config


def _default_box(entry: SystemEntry) -> Box:
    """Fallback check box: the bundled invariant box, else ic +- 1 per axis."""
    if entry.default_box is not None:
        return entry.default_box()
    ic = entry.default_ic
    return Box(ic - 1.0, ic + 1.0)


def _resolve_box(args, entry: SystemEntry) -> Box:
    """``--box``, else the default box, checked against the system's dimension."""
    box = _default_box(entry) if args.box is None else _parse_box(args.box, "--box")
    if box.dim != entry.field.n:
        raise InputError(
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
    meta = _config("simulate", args, entry, x0=x0)
    _write_series(args, meta, [("times", "t", traj.times), ("states", "x", traj.states)])
    return EXIT_OK


def cmd_compare(args) -> int:
    entry = _resolver(args)()
    x0 = _resolve_x0(args, entry)
    cfg = _integrator_config(args)
    rep = measure_deviation(
        entry.field,
        entry.m,
        x0,
        cfg,
        reduced=entry.reduced_override,
        n_grid=args.n_grid,
    )
    meta = _config("compare", args, entry, x0=x0, n_grid=args.n_grid)
    columns = [
        ("times", "t", rep.times),
        ("full_projected", "full_proj_", rep.full_projected),
        ("reduced", "reduced_", rep.reduced_states),
        ("deviation", "deviation", rep.dev_series),
    ]
    summary = {"sup_dev": rep.sup_dev, "t_of_sup": rep.t_of_sup}
    _write_series(args, meta, columns, summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _parse_floats(args.values, "--values")
    if not values:
        raise InputError("--values must list at least one number")
    cfg = _integrator_config(args)
    resolve = _resolver(args)
    entries = [resolve({args.param: values[0]})]
    x0 = _resolve_x0(args, entries[0])  # the ic stays fixed across rows
    failed = None  # the first value that does not resolve, raised in turn
    for value in values[1:]:
        try:
            entries.append(resolve({args.param: value}))
        except InputError as err:
            failed = err
            break
    sweep = sweep_deviation(
        [e.field for e in entries],
        entries[0].m,
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
        "sweep", args, entry, x0=x0,
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
    report = check_exact_reducible(
        entry.field, entry.m, box, n_samples=args.samples, tol=args.tol, seed=args.seed
    )
    meta = _config("check-exact", args, entry, samples=args.samples, tol=args.tol, box=box)
    _emit(args.out, _json_document({"config": meta, "report": report}))
    return EXIT_OK if report.reducible else EXIT_VERDICT


def cmd_check_lyapunov(args) -> int:
    entry = _resolver(args)()
    if args.certificate not in entry.certificates:
        have = ", ".join(sorted(entry.certificates)) or "none"
        raise InputError(
            f"system {entry.name!r} has no certificate {args.certificate!r}; "
            f"available: {have}"
        )
    state_box = None if args.box is None else _parse_box(args.box, "--box")
    input_box = None if args.input_box is None else _parse_box(args.input_box, "--input-box")
    spec = entry.certificates[args.certificate](
        state_box=state_box, input_box=input_box, seed=args.seed
    )
    cert = spec.certificate
    if args.negate_v:
        cert = _negate_certificate(cert)
    if spec.kind == "fiberwise":
        report = check_fiberwise(
            entry.field, entry.m, cert, spec.state_box, n_samples=args.samples,
            seed=args.seed,
        )
    else:
        check = {"iiss": check_iiss, "iubibss": check_iubibss}[spec.kind]
        report = check(
            spec.control, cert, spec.state_box, spec.input_box,
            n_samples=args.samples, seed=args.seed,
        )
    meta = _config(
        "check-lyapunov", args, entry, certificate=args.certificate,
        kind=spec.kind, samples=args.samples, negate_v=args.negate_v,
    )
    _emit(args.out, _json_document({"config": meta, "report": report}))
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
        raise InputError("--n-ic must be at least 1")
    box = _resolve_box(args, entry)
    cfg = _integrator_config(args)
    est = estimate_delta(
        entry.field, entry.m, box, args.n_ic, cfg, pair_mode=args.mode,
        reduced=entry.reduced_override, seed=args.seed, n_grid=args.n_grid,
    )
    meta = _config(
        "bound", args, entry, mode=args.mode, n_ic=args.n_ic, box=box, n_grid=args.n_grid
    )
    _emit(args.out, _json_document({"config": meta, **dataclasses.asdict(est)}))
    return EXIT_OK


# ------------------------------------------------------------------ wiring


def _add_common(p: _Parser, *uses: str) -> None:
    """The system flags and ``--out``, then the shared flags of what the
    command ``uses``: "m" (a retained dimension), "seed" (sampling), "format"
    (CSV output) and "integrator"."""
    p.add_argument("--system", help="registered system name")
    p.add_argument("--config", help="JSON config file defining a user system")
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a parameter"
    )
    if "m" in uses:
        p.add_argument("--m", type=int, help="override the retained dimension")
    if "seed" in uses:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"sampling seed (default {DEFAULT_SEED})")
    p.add_argument("--out", help="output path (default: stdout)")
    if "format" in uses:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    if "integrator" in uses:
        p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
        p.add_argument("--dt", type=float, help="fixed step (rk4 only)")
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
        p.add_argument("--method", choices=("rk4", "rk45"), default="rk45")


def build_parser() -> _Parser:
    parser = _Parser(prog="approxred", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"approxred {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate a system and emit the trajectory")
    _add_common(p, "format", "integrator")
    p.add_argument("--x0", help="comma-separated initial condition")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="full vs reduced run with deviation series")
    _add_common(p, "m", "format", "integrator")
    p.add_argument("--x0", help="comma-separated initial condition")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="compare over a list of parameter values")
    _add_common(p, "m", "format", "integrator")
    p.add_argument("--x0", help="comma-separated initial condition (fixed across rows)")
    p.add_argument("--param", required=True, help="parameter to sweep")
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-exact", help="sampled exact-reducibility test")
    _add_common(p, "m", "seed")
    p.add_argument("--box", help="sampling box 'lo1,hi1;lo2,hi2;...'")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check_exact)

    p = sub.add_parser("check-lyapunov", help="falsify a bundled certificate")
    _add_common(p, "seed")
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
    _add_common(p, "m", "seed", "integrator")
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
    except NumericalError as err:
        # EvaluationError is both an input and a numerical error; it lands
        # here so that bad evaluations never masquerade as usage mistakes
        print(f"approxred: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InputError as err:
        print(f"approxred: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
