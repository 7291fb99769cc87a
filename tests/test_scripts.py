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
    old = 'return json.dumps(doc, indent=2, default=_jsonable) + "\\n"'
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
    cli = tmp_path / "approxred" / "cli.py"
    source = cli.read_text()
    old = 'print(f"approxred: error: {err}", file=sys.stderr)'
    assert source.count(old) == 1
    cli.write_text(source.replace(old, old.replace("error:", "usage error:")))
    proc = run_same_bytes(ROOT / "src", tmp_path, workloads="errors")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    commands = load_script("same_bytes").ERRORS.commands
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands) + 1
    for i, (line, cmd) in enumerate(zip(lines, commands)):
        found = "DIFF (stderr)" if cmd.exit_code == 1 else "SAME"
        assert line == f"{found} errors:{i} {' '.join(cmd.argv)}"
