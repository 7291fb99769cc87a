"""End-to-end benchmark of the approxred command line.

    python3 bench/run.py --workload interactive|deviation|falsify \
        --seed N --seconds S --trace 0|1

Run it from the repository root; approxred is imported from ``src/``. A
single closed-loop client runs the workload's commands one at a time, each as
a fresh ``python -m approxred`` process, so every wall time includes
interpreter start and imports, which is what a user waits for. The commands
come from ``workloads.generate(workload, seed)``.

A run cycles through the commands for ``--seconds`` seconds, running each at
least once, and spreads SETUP_PROBES ``--version`` probes evenly over that
time, so they sample the same stretch of host speed as the commands; probe
time does not count towards ``--seconds``. Every command's exit code and
output are checked (``checks.py``), and every repeat of a command must write
the same bytes. Outputs go to a temporary directory
under ``.bench_tmp/``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: median wall of the ``--version`` probes;
* ``wall_s``: sum over the commands of each command's median wall over its
  executions;
* ``cmd_p50_s``: median wall over every execution of every command in the
  run (``executions`` in the run record counts them). Pooling the executions
  keeps it steady where a median of per-command medians would hang on one
  command; a run has fewer than 40 executions, so no higher percentile has
  ten samples beyond it and none is reported;
* ``work_per_s``: units of the workload's work per second of the summed
  median wall of the commands that do it: commands on ``interactive``,
  sampled initial conditions (``bound``) on ``deviation``, checked samples
  (``check-*``) on ``falsify``;
* ``peak_rss_mb``: largest per-command median peak RSS, from ``os.wait4``;
* ``ok_frac``: share of attempted processes that passed every check.

With ``--trace 1`` every execution is followed by a traced one of the same
command, under ``trace_shim.py`` and ``-X importtime``; the last line reports
the per-layer metrics of ``layers.py`` and ``trace.overhead_frac``, the traced
``wall_s`` over the untraced one, minus one. The line before the last holds
the machine and run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
COMMAND_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class Execution:
    """One finished child process and what the checks found."""

    wall: float
    rss_mb: float
    bytes_out: int = 0
    problems: list = field(default_factory=list)
    imports: dict = field(default_factory=dict)
    trace: dict | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "APPROXRED_SEED"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:  # one client, one thread: at most nproc
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run ``argv`` to completion; return (exit code, wall s, peak RSS MB).

    ``os.wait4`` gives this child's own rusage, so its peak RSS is not mixed
    with earlier children's as RUSAGE_CHILDREN would be.
    """
    killed = []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed else proc.returncode
    return code, wall, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload: workloads.Workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.env = child_env()
        self.refs = checks.load_references(ROOT)
        self.digests = {}  # command index -> digest of its first run
        for name, text in workload.files.items():
            (tmp / name).write_text(text)

    def probe(self) -> Execution:
        argv = [sys.executable, "-m", "approxred", "--version"]
        code, wall, rss = spawn(argv, self.env, self.tmp / "stdout", self.tmp / "stderr")
        ex = Execution(wall, rss)
        stdout = (self.tmp / "stdout").read_bytes()
        if code != 0 or not stdout.startswith(b"approxred "):
            ex.problems.append(f"--version gave exit {code} and {stdout[:80]!r}")
        return ex

    def measure(self, seconds: float, trace: bool):
        """Cycle through the commands until ``seconds`` have passed.

        Every command runs at least once, and the run stops at a command
        boundary, so it lasts ``seconds`` plus at most one command, plus the
        probes. Probe ``i`` runs once ``i / SETUP_PROBES`` of ``seconds`` has
        passed, so the first one, which fills caches and bytecode, runs before
        any command and the median passes over it. With ``trace`` each execution is followed by
        a traced one of the same command. Returns the probes and the
        executions of each command, untraced and traced.
        """
        commands = self.workload.commands
        execs = [[] for _ in commands]
        traced = [[] for _ in commands]
        probes = []
        start, done = perf_counter(), 0
        while done < len(commands) or perf_counter() - start < seconds:
            if len(probes) < SETUP_PROBES and (
                    (perf_counter() - start) * SETUP_PROBES >= len(probes) * seconds):
                probes.append(self.probe())
                start += probes[-1].wall
                continue
            k = done % len(commands)
            execs[k].append(self.execute(k, commands[k], traced=False))
            if trace:
                traced[k].append(self.execute(k, commands[k], traced=True))
            done += 1
        while len(probes) < SETUP_PROBES:  # commands outlasted ``seconds``
            probes.append(self.probe())
        return probes, execs, traced

    def execute(self, index: int, cmd: workloads.Command, traced: bool) -> Execution:
        out = self.tmp / f"cmd{index:02d}.{cmd.out_ext}"
        spans = self.tmp / "spans.json"
        for stale in (out, spans):
            stale.unlink(missing_ok=True)
        argv = [a.replace("{tmp}", str(self.tmp)) for a in cmd.argv] + ["--out", str(out)]
        if traced:
            prefix = [sys.executable, "-X", "importtime", str(BENCH_DIR / "trace_shim.py"),
                      str(spans), "--"]
        else:
            prefix = [sys.executable, "-m", "approxred"]
        stdout_path, stderr_path = self.tmp / "stdout", self.tmp / "stderr"
        code, wall, rss = spawn(prefix + argv, self.env, stdout_path, stderr_path)
        ex = Execution(wall, rss)
        body = out.read_bytes() if out.exists() else b""
        stdout = stdout_path.read_bytes()
        ex.bytes_out = len(body) + len(stdout)
        digest = hashlib.sha256(body + b"\0" + stdout).hexdigest()
        if code is None:
            ex.problems.append(f"timed out after {COMMAND_TIMEOUT_S} s")
        else:
            ex.problems += checks.check(cmd, code, body, stdout, self.refs)
        if self.digests.setdefault(index, digest) != digest:
            ex.problems.append("output bytes differ from this command's first run")
        if traced:
            ex.imports = layers.parse_importtime(stderr_path.read_text(errors="replace"))
            if spans.exists():
                ex.trace = json.loads(spans.read_text())
            else:
                ex.problems.append("the trace shim wrote no spans")
        if ex.problems:
            print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(ex.problems)}", file=sys.stderr)
        return ex


def per_command(execs: list[list[Execution]], attr: str) -> list[float]:
    """Median over each command's executions of one attribute."""
    return [statistics.median(getattr(ex, attr) for ex in runs) for runs in execs]


def end_to_end(commands, probes, execs, attempted, failed) -> dict:
    walls = per_command(execs, "wall")
    worked = [(c.work, w) for c, w in zip(commands, walls) if c.work]
    return {
        "setup_s": statistics.median(p.wall for p in probes),
        "wall_s": sum(walls),
        "cmd_p50_s": statistics.median(ex.wall for runs in execs for ex in runs),
        "work_per_s": sum(u for u, _ in worked) / sum(w for _, w in worked),
        "peak_rss_mb": max(per_command(execs, "rss_mb")),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(execs, traced) -> dict:
    no_spans = {"spans": [], "leaves": []}  # a failed shim run, already counted
    out = layers.workload_layers([[ex.trace or no_spans for ex in runs] for runs in traced])
    traced_all = [ex for runs in traced for ex in runs]
    for metric, module in layers.IMPORTS.items():
        out[metric] = statistics.median(ex.imports.get(module, 0.0) for ex in traced_all)
    out["cli.bytes_out"] = sum(runs[0].bytes_out for runs in traced)
    traced_wall = sum(per_command(traced, "wall"))
    out["trace.overhead_frac"] = traced_wall / sum(per_command(execs, "wall")) - 1.0
    return {name: out[name] for name in layers.UNITS}


def machine_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "child_threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/approxred/cli.py", "tests/reference_values.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not an approxred checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = workloads.generate(args.workload, args.seed)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            runner = Runner(workload, Path(tmp))
            probes, execs, traced = runner.measure(args.seconds, args.trace)
    finally:
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    executions = probes + [ex for runs in execs + traced for ex in runs]
    attempted = len(executions)
    failed = sum(1 for ex in executions if ex.problems)
    if args.trace:
        values, units = per_layer(execs, traced), layers.UNITS
    else:
        values = end_to_end(workload.commands, probes, execs, attempted, failed)
        units = END_TO_END
    record = {
        "machine": machine_record(),
        "run": {
            **workload.record(),
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_probes": SETUP_PROBES,
            "commands": len(workload.commands),
            "executions": [len(runs) for runs in execs],
            "command_median_wall_s": per_command(execs, "wall"),
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
