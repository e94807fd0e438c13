"""A cold ``doilyspace`` start must not pay for heavy standard-library modules,
nor compile package code it does not run.

``dataclasses`` compiles generated methods for every class it builds and
pulls in ``inspect`` (and through it ``ast``, ``dis`` and ``tokenize``);
``typing`` is only needed by annotations, which ``from __future__ import
annotations`` never evaluates.  ``-S`` skips ``site``, whose ``.pth`` files
may load these modules for their own reasons.

The ``export`` and ``tables`` code lives in ``doilyspace.render``, which
``verify`` never loads, and the ``verify`` suites in ``doilyspace.checks``,
which ``cli`` loads on the first ``run_suite``: ``export``, ``tables`` and a
bare ``import doilyspace.cli`` never load it.  Run as ``python -m
doilyspace.cli``, the CLI module is ``__main__``: should anything import
``doilyspace.cli`` by name, it would be compiled and executed a second time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("dataclasses", "inspect", "typing")


def imported(argv: list[str]) -> list[str]:
    """The modules a fresh ``python -S -X importtime ARGV...`` imports, in order."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv], env=env,
                         capture_output=True, text=True, check=True)
    return [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2]


def test_cold_verify_never_loads_the_render_module():
    code = ("import io, contextlib, doilyspace.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert doilyspace.cli.main(['verify', 'all']) == 0\n")
    modules = imported(["-c", code])
    assert "doilyspace.magicline" in modules
    assert "doilyspace.render" not in modules


def test_verify_under_python_m_loads_the_checks_but_not_the_cli_by_name():
    modules = imported(["-m", "doilyspace.cli", "verify", "all"])
    assert "doilyspace.checks" in modules
    assert "doilyspace.cli" not in modules
    assert "doilyspace.render" not in modules


def test_export_and_tables_under_python_m_never_import_the_cli_by_name():
    for argv in (["tables", "hyperplanes"],
                 ["export", "--figure", "hyperbolic", "--point", "146", "--format", "json"]):
        modules = imported(["-m", "doilyspace.cli", *argv])
        assert "doilyspace.render" in modules
        assert "doilyspace.cli" not in modules


def test_export_and_tables_under_python_m_never_load_the_checks():
    for argv in (["tables", "hyperplanes"],
                 ["export", "--figure", "hyperbolic", "--point", "146", "--format", "json"]):
        modules = imported(["-m", "doilyspace.cli", *argv])
        assert "doilyspace.magicline" in modules
        assert "doilyspace.checks" not in modules


def test_a_bare_cli_import_loads_neither_the_checks_nor_render():
    modules = imported(["-c", "import doilyspace.cli"])
    assert "doilyspace.cli" in modules
    assert "doilyspace.checks" not in modules
    assert "doilyspace.render" not in modules


def test_cli_import_loads_no_forbidden_module():
    code = ("import json, sys; import doilyspace.cli; "
            f"print(json.dumps(sorted(m for m in {FORBIDDEN!r} if m in sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
