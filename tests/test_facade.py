"""The `qsdiag` package facade: one name table, layers loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsdiag
import qsdiag.core

LAYERS = ("bloch", "channels", "cli", "composite", "core", "diagram", "kraus", "purify")
GOLDEN_DIR = Path(__file__).parent / "golden"


def modules_after(statement: str) -> list:
    """The modules a fresh interpreter holds after running `statement`."""
    probe = f"import sys; {statement}; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def loaded_after(statement: str) -> list:
    """The qsdiag modules a fresh interpreter holds after running `statement`."""
    return [m for m in modules_after(statement) if "qsdiag" in m]


def test_one_name_loads_only_its_layer():
    assert loaded_after("from qsdiag import DensityMatrix") == ["qsdiag", "qsdiag.core"]


def test_cli_import_loads_every_layer():
    assert loaded_after("import qsdiag.cli") == ["qsdiag"] + [f"qsdiag.{m}" for m in LAYERS]


@pytest.mark.parametrize("statement, loads_decoder", [
    ("import qsdiag.cli", False),
    (f"from qsdiag.cli import main; main(['diagram', {str(GOLDEN_DIR / 'cnot.qs')!r}, "
     f"'--out', {os.devnull!r}])", False),
    ("from qsdiag import matrix_from_json as f, matrix_to_json as g; f(g([[1]]))", True),
], ids=["import-cli", "diagram", "matrix-decode"])
def test_orjson_loads_with_the_first_matrix_decode_only(statement, loads_decoder):
    """So does the standard library's `array`, which numpy does not load either."""
    modules = modules_after(statement)
    assert ("orjson" in modules, "array" in modules) == (loads_decoder, loads_decoder)


def test_every_public_name_is_its_home_modules_attribute():
    for module, names in qsdiag._EXPORTS.items():
        home = importlib.import_module(f"qsdiag.{module}")
        for name in names:
            assert getattr(qsdiag, name) is getattr(home, name)
    assert qsdiag.__all__ == sorted(qsdiag._HOME) and len(qsdiag.__all__) == 52


def test_replaced_attribute_shows_through_the_facade(monkeypatch):
    monkeypatch.setattr(qsdiag.core, "parse_number", float)
    assert qsdiag.parse_number is float


def test_dir_lists_every_public_name():
    assert set(qsdiag.__all__) <= set(dir(qsdiag))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        qsdiag.nope
    assert not hasattr(qsdiag, "nope")
