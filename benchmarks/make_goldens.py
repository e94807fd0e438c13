"""Write goldens.json: the exit status and SHA-256 of the stdout of every
command the benchmark runs.

    python3 benchmarks/make_goldens.py

The digests pin the outputs of the commit they were taken at; the
benchmark counts an operation whose output differs from them as failed.
Regenerate them only when an output is meant to change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import doilyspace.cli as cli  # noqa: E402
from doilyspace import build_magic_line  # noqa: E402

from run import VERIFY_ARGV, digest  # noqa: E402


def commands() -> list[list[str]]:
    ml = build_magic_line()
    argvs = [list(VERIFY_ARGV)]
    for figure, constituent in (("hyperbolic", ml.q_plus), ("elliptic", ml.q_minus),
                                ("cone", ml.cone)):
        labels = sorted(ml.label_of[w] for w in constituent.w_points
                        if w not in ml.core_set and w != ml.nucleus_w)
        for label in labels:
            base = ["export", "--figure", figure, "--point", label]
            argvs += [base, base + ["--line-nodes"], base + ["--format", "json"]]
    for what in ("hyperplanes", "veldkamp_lines", "sector_maps"):
        argvs += [["tables", what], ["tables", what, "--format", "structured"]]
    return argvs


def main() -> None:
    outputs = []
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outputs.append({"argv": argv, "exit": code,
                        "sha256": digest(buf.getvalue().encode("utf-8"))})
    with open(HERE / "goldens.json", "w", encoding="utf-8") as fh:
        json.dump({"outputs": outputs}, fh, indent=1)
        fh.write("\n")
    print(f"{len(outputs)} digests written")


if __name__ == "__main__":
    main()
