"""The study scripts regenerate the committed results byte for byte."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["run_hoop_radius_sweep", "run_cart_friction_sweep"])
def test_results_regenerate_byte_identically(script, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS", tmp_path)
    assert module.run() == 0
    written = sorted(tmp_path.iterdir())
    assert len(written) == 5  # the sweep table and four comparison series
    for path in written:
        assert path.read_bytes() == (ROOT / "results" / path.name).read_bytes(), path.name
