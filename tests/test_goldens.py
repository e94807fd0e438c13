"""Every command pinned in benchmarks/goldens.json still gives the pinned exit
status and byte-identical stdout (compared by SHA-256)."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from doilyspace import cli

GOLDENS = Path(__file__).resolve().parent.parent / "benchmarks" / "goldens.json"
OUTPUTS = json.loads(GOLDENS.read_text(encoding="utf-8"))["outputs"]


@pytest.mark.parametrize("golden", OUTPUTS, ids=[" ".join(g["argv"]) for g in OUTPUTS])
def test_golden_output(golden):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(golden["argv"])
        except SystemExit as exc:  # argparse usage errors exit with 2
            code = exc.code
    assert code == golden["exit"]
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == golden["sha256"]
