"""The study runner regenerates the committed results byte for byte, and the
same-bytes check tells equal outputs from changed ones."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_results_regenerate_byte_identically(tmp_path, monkeypatch, capsys):
    module = load_script("run_studies")
    monkeypatch.setattr(module, "RESULTS", tmp_path)
    assert module.run() == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    committed = sorted(path.name for path in (ROOT / "results").glob("*.csv"))
    assert written == committed and len(written) == 10  # two tables, eight series
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes(), name


def run_same_bytes(parent_src, change_src, workloads="deviation"):
    import subprocess
    import sys

    argv = [sys.executable, str(ROOT / "scripts" / "same_bytes.py"), str(parent_src),
            str(change_src), "--workloads", workloads, "--seeds", "0"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_same_bytes_passes_a_tree_against_itself():
    proc = run_same_bytes(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and all(line.startswith("SAME ") for line in lines[:5])


def test_same_bytes_reports_a_changed_output(tmp_path):
    import shutil

    # a copy whose JSON documents end in one more space
    shutil.copytree(ROOT / "src" / "approxred", tmp_path / "approxred",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "approxred" / "cli.py"
    source = cli.read_text()
    old = 'iterencode(doc)\n    yield "\\n"'
    assert source.count(old) == 1
    cli.write_text(source.replace(old, old.replace('"\\n"', '" \\n"')))
    proc = run_same_bytes(ROOT / "src", tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "DIFF (--out file) deviation:0:0 bound" in proc.stdout


def test_same_bytes_reports_a_config_only_difference(tmp_path):
    import shutil

    # a copy whose configs record one more key
    shutil.copytree(ROOT / "src" / "approxred", tmp_path / "approxred",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "approxred" / "cli.py"
    source = cli.read_text()
    old = "    return config\n"
    assert source.count(old) == 1
    cli.write_text(source.replace(old, '    return {**config, "extra": 1}\n'))
    proc = run_same_bytes(ROOT / "src", tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and all(line.startswith("CONFIG ") for line in lines[:5])


def test_same_bytes_reports_a_changed_error_message(tmp_path):
    import shutil

    # a copy whose exit-1 messages carry another prefix
    shutil.copytree(ROOT / "src" / "approxred", tmp_path / "approxred",
                    ignore=shutil.ignore_patterns("__pycache__"))
    front = tmp_path / "approxred" / "front.py"
    source = front.read_text()
    old = 'print(f"approxred: error: {err}", file=sys.stderr)'
    assert source.count(old) == 1
    front.write_text(source.replace(old, old.replace("error:", "usage error:")))
    proc = run_same_bytes(ROOT / "src", tmp_path, workloads="errors")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    commands = load_script("same_bytes").ERRORS.commands
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands) + 1
    for i, (line, cmd) in enumerate(zip(lines, commands)):
        found = "DIFF (stderr)" if cmd.exit_code == 1 else "SAME"
        assert line == f"{found} errors:{i} {' '.join(cmd.argv)}"


def test_same_bytes_reports_a_changed_help_text(tmp_path):
    import shutil

    from approxred.front import build_parser

    # the front table asks every command for its help
    commands = load_script("same_bytes").FRONT.commands
    (subparsers,) = build_parser()._subparsers._group_actions
    assert [cmd.argv for cmd in commands[2:]] == [(c, "--help") for c in subparsers.choices]
    # a copy whose commands describe --system in other words
    shutil.copytree(ROOT / "src" / "approxred", tmp_path / "approxred",
                    ignore=shutil.ignore_patterns("__pycache__"))
    front = tmp_path / "approxred" / "front.py"
    source = front.read_text()
    old = 'help="registered system name"'
    assert source.count(old) == 1
    front.write_text(source.replace(old, 'help="a registered system name"'))
    proc = run_same_bytes(ROOT / "src", tmp_path, workloads="front")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands) + 1
    for i, (line, cmd) in enumerate(zip(lines, commands)):
        found = "SAME" if i < 2 else "DIFF (stdout)"  # --version and --help list no flag
        assert line == f"{found} front:{i} {' '.join(cmd.argv)}"


def test_peak_rss_reports_each_command_and_the_workload_peak():
    import subprocess
    import sys

    argv = [sys.executable, str(ROOT / "scripts" / "peak_rss.py"), str(ROOT / "src"),
            str(ROOT / "src"), "--workloads", "interactive", "--seeds", "0", "--repeats", "2",
            "--commands", "0,7"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split(maxsplit=3) for line in proc.stdout.splitlines()]
    labels = [rest for *_, rest in rows]
    assert [label.split()[0] for label in labels] == ["interactive:0:0", "interactive:0:7",
                                                      "interactive:0"]
    assert labels[0].split()[1] == "simulate" and labels[1].split()[1] == "check-exact"
    assert labels[2] == "interactive:0 peak"
    medians = [(float(parent), float(change)) for parent, change, *_ in rows]
    assert all(10 < mb < 500 for pair in medians for mb in pair), medians
    assert medians[2] == tuple(max(column) for column in zip(*medians[:2]))
