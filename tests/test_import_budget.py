"""A cold ``doilyspace`` start must not pay for heavy standard-library modules.

``dataclasses`` compiles generated methods for every class it builds and
pulls in ``inspect`` (and through it ``ast``, ``dis`` and ``tokenize``);
``typing`` is only needed by annotations, which ``from __future__ import
annotations`` never evaluates.  ``-S`` skips ``site``, whose ``.pth`` files
may load these modules for their own reasons.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("dataclasses", "inspect", "typing")


def test_cli_import_loads_no_forbidden_module():
    code = ("import json, sys; import doilyspace.cli; "
            f"print(json.dumps(sorted(m for m in {FORBIDDEN!r} if m in sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
