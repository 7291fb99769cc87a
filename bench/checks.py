"""Correctness checks on one approxred command's exit code and output.

A command passes when it exits with the code its workload expects, its output
parses (CSV with ``#`` key=value header lines, or JSON), every number in it is
finite, the embedded ``config`` echoes the generated argv, a verdict agrees
with the exit code, and a pinned command reproduces its reference value.
"""

from __future__ import annotations

import json
import math
import runpy
from pathlib import Path

from workloads import EXIT_VERDICT, PINNED_BOUND, PINNED_COMPARE, Command

# the tolerances the test suite pins these reference values to
REFERENCE_REL_TOL = 1e-4
T_OF_SUP_ABS_TOL = 0.05

NEGATIVE_VERDICTS = ("COUNTEREXAMPLE", "NOT_REDUCIBLE")


def load_references(root: Path) -> dict:
    """The pinned values of ``tests/reference_values.py``, read without importing."""
    return runpy.run_path(str(root / "tests" / "reference_values.py"))


def parse_csv(text: str) -> tuple[dict, list[str], list[list[float]]]:
    """Split an approxred CSV into its config header, column names and rows."""
    lines = text.splitlines()
    config = {}
    while lines and lines[0].startswith("# "):
        key, sep, value = lines.pop(0)[2:].partition("=")
        if not sep:
            raise ValueError(f"header line without '=': {key!r}")
        config[key] = json.loads(value)
    if not lines:
        raise ValueError("no column header")
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("no rows, or a row whose width differs from the header")
    return config, header, rows


def _non_finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return False
    if isinstance(obj, (int, float)):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    return True


def _echo_problems(config: dict, expect: dict) -> list[str]:
    problems = []
    for key, want in expect.items():
        got = config.get(key)
        if key == "params":
            got = {k: (got or {}).get(k) for k in want}
        if got != want:
            problems.append(f"config {key}={got!r}, argv asked for {want!r}")
    return problems


def _close(got, want: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= max(rel * abs(want), abs_)


def _reference_problems(name: str, doc: dict, refs: dict) -> list[str]:
    if name == PINNED_COMPARE:
        sup, t_sup = doc.get("sup_dev"), doc.get("t_of_sup")
        problems = []
        if not _close(sup, refs["HOOP_SUP_DEV_R5"], rel=REFERENCE_REL_TOL):
            problems.append(f"sup_dev {sup!r} is not HOOP_SUP_DEV_R5 within rel "
                            f"{REFERENCE_REL_TOL}")
        if not _close(t_sup, refs["HOOP_T_OF_SUP_R5"], abs_=T_OF_SUP_ABS_TOL):
            problems.append(f"t_of_sup {t_sup!r} is not HOOP_T_OF_SUP_R5 within "
                            f"{T_OF_SUP_ABS_TOL}")
        return problems
    if name == PINNED_BOUND:
        delta = doc.get("delta_hat")
        if not _close(delta, refs["HOOP_DELTA_R10"], rel=REFERENCE_REL_TOL):
            return [f"delta_hat {delta!r} is not HOOP_DELTA_R10 within rel "
                    f"{REFERENCE_REL_TOL}"]
        return []
    return [f"unknown reference {name!r}"]


def check(cmd: Command, code: int, out: bytes, stdout: bytes, refs: dict) -> list[str]:
    """Every way this command's run falls short; an empty list means it passed."""
    if code != cmd.exit_code:
        return [f"exit code {code}, expected {cmd.exit_code}"]
    try:
        if cmd.out_ext == "csv":
            config, _header, rows = parse_csv(out.decode())
            doc = {"rows": rows}
        else:
            doc = json.loads(out)
            config = doc.get("config", {})
        # compare with a CSV --out prints its summary on stdout
        summary = json.loads(stdout) if stdout.strip() else {}
    except (UnicodeDecodeError, ValueError) as err:
        return [f"unparsable output: {err}"]
    problems = _echo_problems(config, cmd.expect)
    if _non_finite(doc) or _non_finite(summary):
        problems.append("output holds a non-finite number")
    verdict = doc.get("report", {}).get("verdict")
    if verdict is not None and (verdict in NEGATIVE_VERDICTS) != (
        code == EXIT_VERDICT
    ):
        problems.append(f"verdict {verdict} disagrees with exit code {code}")
    if cmd.reference is not None:
        problems += _reference_problems(cmd.reference, {**doc, **summary}, refs)
    return problems
