"""Command-line interface: parses arguments and renders the reports of
``doilyspace.checks`` and the tables and figure exports of ``doilyspace.render``,
each module loaded by the first command that runs it.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors and when an ``--out`` file or standard output cannot be written
(reported on stderr as ``error: cannot write <path>: <reason>``, the path
being ``<stdout>`` for standard output).  The structured output is stable
across runs so it can be diffed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .magicline import CONE_SECTOR, ELLIPTIC_SECTOR, HYPERBOLIC_SECTOR

SUITES = ("doily", "veldkamp", "magicline")  # the order `verify all` runs them in


class UsageError(Exception):
    """Bad command usage detected after argument parsing."""


def run_suite(name: str):
    from . import checks  # loaded on first use, so export and tables never compile it
    return checks.run_suite(name)


def cmd_verify(suite: str, out: str | None = None, fmt: str = "text") -> int:
    names = SUITES if suite == "all" else (suite,)
    reports = [run_suite(n) for n in names]
    if fmt == "structured":
        payload = json.dumps([r.to_structured() for r in reports], indent=2) + "\n"
    else:
        payload = "\n".join(r.to_text() for r in reports) + "\n"
    _emit(payload, out)
    return 0 if all(r.passed for r in reports) else 1


def _emit(payload: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(payload)
            sys.stdout.flush()
            return
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        target = "<stdout>" if out is None else out
        raise UsageError(f"cannot write {target}: {exc.strerror or exc}") from exc


def cmd_export(figure: str, point: str, fmt: str = "dot",
               line_nodes: bool = False, out: str | None = None) -> int:
    from . import render  # loaded on first use, so verify never compiles it
    try:
        data = render.export_roles(figure, point)
    except render.NotAnOffPoint as exc:
        raise UsageError(str(exc)) from exc
    _emit(json.dumps(data, indent=2) + "\n" if fmt == "json"
          else render.render_dot(data, line_nodes), out)
    return 0


def cmd_tables(what: str, fmt: str = "text", out: str | None = None) -> int:
    from . import render
    _emit(render.table(what, fmt), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doilyspace",
        description="Verify and export the doily, its Veldkamp space, and the "
                    "magic Veldkamp line of W(5,2).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=(*SUITES, "all"))
    p_verify.add_argument("--out", help="write the report to a file")
    p_verify.add_argument("--format", choices=("text", "structured"),
                          default="text")

    p_export = sub.add_parser("export", help="export a highlighted sector figure")
    p_export.add_argument("--figure", required=True,
                          choices=(HYPERBOLIC_SECTOR, ELLIPTIC_SECTOR, CONE_SECTOR))
    p_export.add_argument("--point", required=True,
                          help="label of the off point to highlight")
    p_export.add_argument("--format", choices=("dot", "json"), default="dot")
    p_export.add_argument("--line-nodes", action="store_true",
                          help="emit explicit line nodes instead of clique triples")
    p_export.add_argument("--out", help="write the export to a file")

    p_tables = sub.add_parser("tables", help="emit full structured listings")
    p_tables.add_argument("what",
                          choices=("hyperplanes", "veldkamp_lines", "sector_maps"))
    p_tables.add_argument("--format", choices=("text", "structured"),
                          default="text")
    p_tables.add_argument("--out", help="write the listing to a file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.out, args.format)
        if args.command == "export":
            return cmd_export(args.figure, args.point, args.format,
                              args.line_nodes, args.out)
        return cmd_tables(args.what, args.format, args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
