"""Compare the peak RSS of two source trees on the benchmark's commands.

    python scripts/peak_rss.py PARENT_SRC CHANGE_SRC [--workloads interactive] \
        [--seeds 1] [--repeats 5] [--commands 0,3]

PARENT_SRC and CHANGE_SRC are directories holding the ``approxred`` package,
such as the ``src/`` of two checkouts. Every command that
``bench/workloads.generate`` yields for each workload and seed (or only those
whose indices ``--commands`` lists) runs ``--repeats`` times per tree as
``python -m approxred`` with ``--out`` appended, as the benchmark runs it, the
two trees alternating command by command and which goes first alternating
from one repeat to the next.

Each command is started by a small launcher process that reads its peak RSS
from ``os.wait4``. The kernel counts in a child's peak the memory of the
process it was forked from, so a child of a large process reads large; the
launcher keeps that floor at the size of a bare interpreter for both trees.

For each command the script prints the median peak RSS in MB of the parent
and of the change, the relative change, and the command; then, per workload
and seed, the largest of those medians, which is how the benchmark's
``peak_rss_mb`` is formed. A command that exits with another code than its
workload expects is reported as FAILED and makes the script exit 1. It reads
``bench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/ is not a package)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# forks and execs argv[2:] with stdout and stderr sent to the file argv[1],
# then prints the child's exit code and peak RSS in KiB
LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss(src: Path, cmd: workloads.Command, work: Path) -> tuple[int, float]:
    """Run one command against the tree ``src`` in ``work`` from the
    launcher; return its exit code and peak RSS in MB."""
    env = {k: v for k, v in os.environ.items() if k != "APPROXRED_SEED"}
    env.update({var: "1" for var in THREAD_VARS}, PYTHONPATH=str(src))
    out = work / f"out.{cmd.out_ext}"
    out.unlink(missing_ok=True)
    argv = [a.replace("{tmp}", str(work)) for a in cmd.argv] + ["--out", str(out)]
    launched = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, str(work / "output"),
         sys.executable, "-m", "approxred", *argv],
        capture_output=True, text=True, env=env, cwd=work, check=True)
    code, kib = launched.stdout.split()
    return int(code), int(kib) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", default="interactive")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--commands", help="comma-separated command indices (default: all)")
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
        picked = None if args.commands is None else {int(i) for i in args.commands.split(",")}
    except ValueError:
        parser.error("--seeds and --commands expect comma-separated integers")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in names:
            for seed in seeds:
                workload = workloads.generate(name, seed)
                for file_name, text in workload.files.items():
                    (work / file_name).write_text(text)
                peaks = ([], [])
                for i, cmd in enumerate(workload.commands):
                    if picked is not None and i not in picked:
                        continue
                    rss = ([], [])
                    for repeat in range(args.repeats):
                        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
                            code, mb = peak_rss(trees[side], cmd, work)
                            if code != cmd.exit_code:
                                failed += 1
                                print(f"FAILED {name}:{seed}:{i} exit {code} from "
                                      f"{trees[side]}", flush=True)
                            rss[side].append(mb)
                    parent, change = (statistics.median(values) for values in rss)
                    peaks[0].append(parent)
                    peaks[1].append(change)
                    print(f"{parent:8.2f} {change:8.2f} {change / parent - 1:+7.2%} "
                          f"{name}:{seed}:{i} {' '.join(cmd.argv)}", flush=True)
                if peaks[0]:
                    parent, change = max(peaks[0]), max(peaks[1])
                    print(f"{parent:8.2f} {change:8.2f} {change / parent - 1:+7.2%} "
                          f"{name}:{seed} peak", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
