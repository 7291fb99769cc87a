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

This module parses the command line and imports nothing that loads numpy, so
``--version``, ``--help`` and usage errors answer at interpreter speed. Once
the flags parse, :func:`main` imports :mod:`approxred.cli`, which holds the
commands, and runs the one named.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from . import __version__
from .base import (
    DEFAULT_ATOL,
    DEFAULT_EXACT_SAMPLES,
    DEFAULT_GRID_POINTS,
    DEFAULT_LYAPUNOV_SAMPLES,
    DEFAULT_RTOL,
    DEFAULT_SEED,
    DEFAULT_TOL,
    InputError,
    NumericalError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERDICT = 3


def _drain_stdout() -> None:
    """At exit, point a stdout that still cannot flush at the null device:
    the interpreter's own flush would fail on it again, print "Exception
    ignored" and exit 120."""
    try:
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it, or raise :class:`InputError`;
    the caller keeps its stdout until :func:`_drain_stdout` runs at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        atexit.register(_drain_stdout)
        raise InputError(f"cannot write to stdout: {err.strerror}") from err


class _Parser(argparse.ArgumentParser):
    """argparse that takes whole flag names only, so that a flag one command
    lacks is never read as a prefix of another (``--m`` of ``--method``),
    reports usage problems as :class:`InputError`, not sys.exit(2), and
    writes help and version text with :func:`write_stdout`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            write_stdout(message)
        else:
            super()._print_message(message, file)


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

    p = sub.add_parser("compare", help="full vs reduced run with deviation series")
    _add_common(p, "m", "format", "integrator")
    p.add_argument("--x0", help="comma-separated initial condition")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")

    p = sub.add_parser("sweep", help="compare over a list of parameter values")
    _add_common(p, "m", "format", "integrator")
    p.add_argument("--x0", help="comma-separated initial condition (fixed across rows)")
    p.add_argument("--param", required=True, help="parameter to sweep")
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")

    p = sub.add_parser("check-exact", help="sampled exact-reducibility test")
    _add_common(p, "m", "seed")
    p.add_argument("--box", help="sampling box 'lo1,hi1;lo2,hi2;...'")
    p.add_argument("--samples", type=int, default=DEFAULT_EXACT_SAMPLES)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("check-lyapunov", help="falsify a bundled certificate")
    _add_common(p, "seed")
    p.add_argument("--certificate", required=True, help="bundled certificate name")
    p.add_argument("--box", help="state box 'lo1,hi1;...' (default: bundled box)")
    p.add_argument("--input-box", dest="input_box", help="input box for iiss/iubibss")
    p.add_argument("--samples", type=int, default=DEFAULT_LYAPUNOV_SAMPLES)
    p.add_argument(
        "--negate-v",
        dest="negate_v",
        action="store_true",
        help="diagnostic: check -V instead of V (must fail on a healthy setup)",
    )

    p = sub.add_parser("bound", help="sampled uniform deviation bound estimate")
    _add_common(p, "m", "seed", "integrator")
    p.add_argument("--box", help="initial condition box 'lo1,hi1;...'")
    p.add_argument("--n-ic", type=int, default=100, dest="n_ic")
    p.add_argument("--mode", choices=("projected", "cross"), default="projected")
    p.add_argument("--n-grid", type=int, default=DEFAULT_GRID_POINTS, dest="n_grid")

    return parser


def main(argv=None) -> int:
    try:
        # no name keeps the parser, so the import below reuses its memory
        args = build_parser().parse_args(argv)
        from . import cli  # loads numpy: only once the flags parse

        return getattr(cli, "cmd_" + args.subcommand.replace("-", "_"))(args)
    except NumericalError as err:
        # EvaluationError is both an input and a numerical error; it lands
        # here so that bad evaluations never masquerade as usage mistakes
        print(f"approxred: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InputError as err:
        print(f"approxred: error: {err}", file=sys.stderr)
        return EXIT_USAGE
