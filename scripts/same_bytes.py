"""Check that two source trees write the same bytes on the benchmark's commands.

    python scripts/same_bytes.py PARENT_SRC CHANGE_SRC \
        [--workloads interactive,deviation,falsify] [--seeds 0,1,2]

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
"""

from __future__ import annotations

import argparse
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
    parser.add_argument("--workloads", default=",".join(workloads.GENERATORS))
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args(argv)
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for tree in trees:
        if not (tree / "approxred" / "__init__.py").is_file():
            parser.error(f"{tree} holds no approxred package")
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.GENERATORS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds expects comma-separated integers, got {args.seeds!r}")
    counts = {"SAME": 0, "CONFIG": 0, "DIFF": 0}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for seed in seeds:
                workload = workloads.generate(name, seed)
                for i, cmd in enumerate(workload.commands):
                    parent, change = (outcome(tree, cmd, workload.files, Path(tmp))
                                      for tree in trees)
                    found = verdict(parent, change)
                    print(f"{found} {name}:{seed}:{i} {' '.join(cmd.argv)}", flush=True)
                    counts[found.split()[0]] += 1
    total = sum(counts.values())
    print(f"{counts['SAME']} of {total} commands wrote the same bytes, "
          f"{counts['CONFIG']} the same bytes outside their config")
    return 0 if counts["SAME"] == total else 1


if __name__ == "__main__":
    sys.exit(main())
