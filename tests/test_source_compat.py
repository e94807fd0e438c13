"""The package declares ``requires-python = ">=3.10"``: every module must
parse with the Python 3.10 grammar, whatever interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "doilyspace"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_found():
    assert {m.stem for m in MODULES} >= {
        "__init__", "checks", "cli", "doily", "gf2", "incidence", "magicline", "render",
        "veldkamp"}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_parses_with_the_python_3_10_grammar(module):
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module),
              feature_version=(3, 10))
