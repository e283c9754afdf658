"""Every example script's ``main()`` runs to completion."""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)
EXAMPLES = sorted(
    entry for entry in os.listdir(EXAMPLES_DIR)
    if entry.endswith(".py") and not entry.startswith("_")
)


def test_examples_present():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("filename", EXAMPLES)
def test_example_main_runs(filename, tmp_path, monkeypatch, capsys):
    # Examples write their artifacts (e.g. quickstart's Verilog) into the
    # working directory.
    monkeypatch.chdir(tmp_path)
    path = os.path.join(EXAMPLES_DIR, filename)
    spec = importlib.util.spec_from_file_location(
        f"example_{filename[:-3]}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
    if filename == "quickstart.py":
        assert (tmp_path / "matmul_accelerator.v").read_text().startswith("//")
