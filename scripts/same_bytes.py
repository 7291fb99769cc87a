"""Check that two source trees write the same bytes on the benchmark's commands.

    python scripts/same_bytes.py PARENT_SRC CHANGE_SRC \
        [--workloads interactive,deviation,falsify,errors,front] [--seeds 0,1,2]

PARENT_SRC and CHANGE_SRC are directories holding the ``approxred`` package,
such as the ``src/`` of two checkouts. Every command that
``bench/workloads.generate`` yields for each workload and seed runs as
``python -m approxred`` once with each tree on ``PYTHONPATH``, in the same
scratch directory, with the benchmark's environment (no ``APPROXRED_SEED``,
one BLAS thread). The script compares stdout, stderr, exit code and the
``--out`` file, and prints for each command SAME, CONFIG when only the
``--out`` file differs and only inside its config (a JSON document's top-level
``"config"`` object, a CSV's ``# `` header lines), or DIFF naming the parts
that differ. It exits 1 unless every command is SAME. It reads ``bench/`` and
changes nothing there.

The ``errors`` workload is the fixed table ``ERRORS`` of failing commands, one
per kind of failure that exits 1 or 2, and of ``bound`` commands that exit 0
counting the initial conditions whose runs fail inside a batch. It runs once
whatever the seeds: the benchmark's commands all succeed, so they never reach
an error path. The
``front`` workload is the fixed table ``FRONT`` of what the parser answers
alone with exit 0: ``--version``, ``--help`` and each command's ``--help``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/ is not a package)

PARTS = ("stdout", "stderr", "exit code", "--out file")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# user systems whose runs fail: y' = y^2 diverges before t = 1, so does
# y' = a y^2 + z for a > 0 from some starts, and the square root of a negative y
# is NaN
_ERROR_FILES = {
    "blowup.json": json.dumps({"name": "blowup", "state": ["y", "z"], "m": 1,
                               "rhs": ["y*y", "-z"], "x0": [2.0, 0.0]}),
    "gain.json": json.dumps({"name": "gain", "state": ["y", "z"], "m": 1, "params": {"a": 0.0},
                             "rhs": ["a*y*y + z", "-z"], "x0": [2.0, 0.0]}),
    "root.json": json.dumps({"name": "root", "state": ["y", "z"], "m": 1,
                             "rhs": ["y**0.5 + 0*z", "-z"]}),
}
_HOOP = ("--system", "ball-hoop")
_GAIN_BOUND = ("bound", "--config", "{tmp}/gain.json", "--set", "a=1", "--n-ic", "16",
               "--t-end", "2", "--box=-2,1;-1,1")
_ERROR_ARGV = {0: [
    # 5 of the 16 initial conditions fail inside the batch
    _GAIN_BOUND,
    (*_GAIN_BOUND, "--method", "rk4", "--dt", "0.01"),
], 1: [
    # names, parameters and flags
    ("simulate", "--system", "nope"),
    ("simulate", "--system", "it's"),
    ("simulate", *_HOOP, "--set", "xi_hoop=2", "--set", "R=5"),
    ("simulate", *_HOOP, "--set", "spring=2"),
    ("simulate", *_HOOP, "--set", "R"),
    ("simulate", *_HOOP, "--set", "R=abc"),
    ("simulate",),
    ("simulate", *_HOOP, "--bogus"),
    ("simulate", *_HOOP, "--method", "euler"),
    ("simulate", *_HOOP, "--x0", "1,2,3"),
    ("simulate", *_HOOP, "--config", "{tmp}/blowup.json"),
    ("compare", *_HOOP, "--m", "2"),
    ("sweep", *_HOOP, "--param", "R", "--values", ","),
    ("sweep", *_HOOP, "--param", "R", "--values", "5,-1", "--t-end", "1"),
    # boxes, certificates and sampling settings
    ("check-exact", *_HOOP, "--box", "1,2,3"),
    ("check-exact", *_HOOP, "--box=1,0;0,1"),
    ("check-exact", *_HOOP, "--box=0,1"),
    ("check-exact", *_HOOP, "--seed", "-1"),
    ("check-lyapunov", *_HOOP, "--certificate", "nope"),
    ("check-lyapunov", *_HOOP, "--certificate", "iiss", "--box=0.3,0.3", "--samples", "256"),
    ("bound", *_HOOP, "--n-ic", "0"),
], 2: [
    # integration and evaluation
    ("simulate", *_HOOP, "--method", "rk4", "--dt", "1e-320", "--t-end", "1"),
    ("simulate", "--system", "cart-pendulum", "--set", "d=1e200", "--t-end", "1"),
    ("simulate", "--config", "{tmp}/blowup.json", "--t-end", "1"),
    ("simulate", "--config", "{tmp}/blowup.json", "--method", "rk4", "--dt", "0.01",
     "--t-end", "1"),
    ("sweep", "--config", "{tmp}/gain.json", "--param", "a", "--values", "0,1,2", "--t-end", "1",
     "--method", "rk4", "--dt", "0.01"),
    ("compare", *_HOOP, "--t-end", "1e-300"),
    ("check-exact", "--config", "{tmp}/root.json", "--box=-2,-1;0,1", "--samples", "64"),
    ("check-lyapunov", *_HOOP, "--certificate", "iiss", "--box=-1e200,1e200",
     "--samples", "64"),
]}
ERRORS = workloads.Workload(
    name="errors", seed=0, work_unit="command", files=_ERROR_FILES,
    commands=tuple(workloads.Command(argv, "json", exit_code=code)
                   for code, table in _ERROR_ARGV.items() for argv in table),
)
# argparse acts on --version and --help as it reaches them, so the --out that
# outcome() appends after them is never read
FRONT = workloads.Workload(
    name="front", seed=0, work_unit="command",
    commands=tuple(workloads.Command(argv, "txt") for argv in [
        ("--version",), ("--help",),
        *((command, "--help") for command in ("simulate", "compare", "sweep", "check-exact",
                                              "check-lyapunov", "bound")),
    ]),
)
FIXED = {"errors": ERRORS, "front": FRONT}  # fixed tables: run once, not once per seed
WORKLOADS = (*workloads.GENERATORS, *FIXED)


def outcome(src: Path, cmd: workloads.Command, files: dict, work: Path) -> tuple:
    """Run one command against the tree ``src`` in ``work``; return its
    stdout, stderr, exit code and ``--out`` bytes (None if it wrote none)."""
    for name, text in files.items():
        (work / name).write_text(text)
    out = work / f"out.{cmd.out_ext}"
    out.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "APPROXRED_SEED"}
    env.update({var: "1" for var in THREAD_VARS}, PYTHONPATH=str(src))
    argv = [a.replace("{tmp}", str(work)) for a in cmd.argv] + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "approxred", *argv], capture_output=True,
                          env=env, cwd=work)
    return proc.stdout, proc.stderr, proc.returncode, out.read_bytes() if out.exists() else None


def outside_config(data: bytes | None) -> bytes | None:
    """An output file's bytes without the lines of its config."""
    if data is None:
        return None
    lines = data.splitlines(keepends=True)
    if b'  "config": {\n' in lines:  # a JSON document, indented by two
        start = lines.index(b'  "config": {\n')
        end = next(i for i in range(start, len(lines)) if lines[i].startswith(b"  }"))
        return b"".join(lines[:start] + lines[end + 1:])
    return b"".join(line for line in lines if not line.startswith(b"# "))


def verdict(parent: tuple, change: tuple) -> str:
    """SAME, CONFIG or DIFF for two outcomes of one command."""
    parts = [part for part, a, b in zip(PARTS, parent, change) if a != b]
    if not parts:
        return "SAME"
    if parts == ["--out file"] and outside_config(parent[-1]) == outside_config(change[-1]):
        return "CONFIG"
    return f"DIFF ({', '.join(parts)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args(argv)
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for tree in trees:
        if not (tree / "approxred" / "__init__.py").is_file():
            parser.error(f"{tree} holds no approxred package")
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds expects comma-separated integers, got {args.seeds!r}")
    counts = {"SAME": 0, "CONFIG": 0, "DIFF": 0}
    runs = []
    for name in names:
        if name in FIXED:
            runs.append((name, FIXED[name]))
        else:
            runs += [(f"{name}:{seed}", workloads.generate(name, seed)) for seed in seeds]
    with tempfile.TemporaryDirectory() as tmp:
        for label, workload in runs:
            for i, cmd in enumerate(workload.commands):
                parent, change = (outcome(tree, cmd, workload.files, Path(tmp))
                                  for tree in trees)
                found = verdict(parent, change)
                print(f"{found} {label}:{i} {' '.join(cmd.argv)}", flush=True)
                counts[found.split()[0]] += 1
    total = sum(counts.values())
    print(f"{counts['SAME']} of {total} commands wrote the same bytes, "
          f"{counts['CONFIG']} the same bytes outside their config")
    return 0 if counts["SAME"] == total else 1


if __name__ == "__main__":
    sys.exit(main())
