"""Tests for the command-line interface."""

import errno
import json
import os
import re
import sys

import pytest

from doilyspace import checks, cli
from doilyspace.cli import main, run_suite


def test_verify_all_exits_zero(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for suite in ("doily", "veldkamp", "magicline"):
        assert f"suite {suite}:" in out


def test_verify_single_suite(capsys):
    assert main(["verify", "doily"]) == 0
    out = capsys.readouterr().out
    assert "hyperplane census" in out
    assert "suite veldkamp" not in out


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_cli_and_checks_name_the_same_suites():
    # cli keeps its own suite names so that a bare import never loads checks
    assert cli.SUITES == tuple(checks.SUITES)
    parser = cli.build_parser()
    for suite in (*cli.SUITES, "all"):
        assert parser.parse_args(["verify", suite]).suite == suite
    for suite in ("Doily", "magic", "", "doily,veldkamp"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["verify", suite])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, choices", [
    ([], ["{verify,export,tables}"]),
    (["verify"], ["{doily,veldkamp,magicline,all}", "{text,structured}"]),
    (["export"], ["{hyperbolic,elliptic,cone}", "{dot,json}"]),
    (["tables"], ["{hyperplanes,veldkamp_lines,sector_maps}", "{text,structured}"]),
], ids=["doilyspace", "verify", "export", "tables"])
def test_help_exits_zero_and_names_every_choice(argv, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for group in choices:
        assert group in captured.out


def test_verify_structured_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "veldkamp", "--format", "structured",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    data = json.loads(text)
    assert json.dumps(data, indent=2) + "\n" == text
    (report,) = data
    assert report["suite"] == "veldkamp"
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == len(report["checks"])
    assert all(c["provenance"] in ("PAPER", "DERIVED") for c in report["checks"])


def test_structured_report_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["verify", "doily", "--format", "structured", "--out", str(first)])
    main(["verify", "doily", "--format", "structured", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_all_suites_pass():
    for suite in ("doily", "veldkamp", "magicline"):
        report = run_suite(suite)
        assert report.passed, [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize("suite", ["doily", "veldkamp", "magicline"])
def test_text_report_agrees_with_the_structured_one(suite, capsys):
    # line k of the text report is check k of the structured report, with
    # the reprs of the values the JSON holds; the summary differs only by
    # the runtime the structured report leaves out
    assert main(["verify", suite]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert main(["verify", suite, "--format", "structured"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert len(lines) == len(report["checks"])
    for line, c in zip(lines, report["checks"]):
        status = "PASS" if c["passed"] else "FAIL"
        assert line == (f"[{status}] {report['suite']}: {c['name']} ({c['provenance']}) "
                        f"expected={c['expected']!r} actual={c['actual']!r}")
    counts = report["summary"]
    assert re.fullmatch(r"(.*) \(\d+\.\d\ds\)", summary)[1] == (
        f"suite {report['suite']}: {counts['passed']} passed, {counts['failed']} failed")


def test_verify_exits_one_on_failed_check(monkeypatch, capsys):
    monkeypatch.setitem(
        checks.SUITES, "doily",
        lambda: [checks.Check("forced failure", 1, 2, checks.DERIVED)])
    assert main(["verify", "doily"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_export_dot_hyperbolic(capsys):
    assert main(["export", "--figure", "hyperbolic", "--point", "146"]) == 0
    out = capsys.readouterr().out
    assert '"146" [role=chosen];' in out
    assert "role=concurrent" in out
    assert out.count("[role=trace]") == 9


def test_export_dot_line_nodes(capsys):
    assert main(["export", "--figure", "hyperbolic", "--point", "146",
                 "--line-nodes"]) == 0
    out = capsys.readouterr().out
    assert '[shape=point, role=line_' in out


def test_export_json_elliptic_prime(capsys):
    assert main(["export", "--figure", "elliptic", "--point", "3'",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trace"]["name"] == "o_3"
    concurrent = [l for l in data["lines"] if l["role"] == "concurrent"]
    assert len(concurrent) == 5
    for line in concurrent:
        assert "3'" in line["points"]


def test_export_json_cone_vertex_line(capsys):
    assert main(["export", "--figure", "cone", "--point", "3456",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trace"]["name"] == "p_12"
    concurrent = [l["points"] for l in data["lines"] if l["role"] == "concurrent"]
    assert sorted(["12", "123456", "3456"]) in concurrent


def test_export_references_only_constituent_labels(capsys):
    assert main(["export", "--figure", "elliptic", "--point", "4",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    labels = {n["label"] for n in data["nodes"]}
    for line in data["lines"]:
        assert set(line["points"]) <= labels


def test_export_invalid_label(capsys):
    assert main(["export", "--figure", "cone", "--point", "146"]) == 2
    err = capsys.readouterr().err
    assert "valid labels" in err
    assert "3456" in err


def test_tables_hyperplanes(capsys):
    assert main(["tables", "hyperplanes"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 31
    assert out[0].startswith("o_1")


def test_tables_veldkamp_lines(capsys):
    assert main(["tables", "veldkamp_lines"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 155
    assert all("ovoid" in row or "perp" in row or "grid" in row for row in out)


def test_tables_sector_maps(capsys):
    assert main(["tables", "sector_maps"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 31
    o3_row = next(row for row in out if row.startswith("o_3"))
    assert "3/3'" in o3_row and "elliptic" in o3_row
    p12_row = next(row for row in out if row.startswith("p_12"))
    assert "3456" in p12_row and "cone" in p12_row


def test_tables_structured(capsys):
    assert main(["tables", "sector_maps", "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 31
    by_name = {row["hyperplane"]: row for row in data}
    assert by_name["g_146"]["image"] == "146/235"


def test_tables_structured_roundtrip(tmp_path):
    out = tmp_path / "lines.json"
    assert main(["tables", "veldkamp_lines", "--format", "structured",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_export_structured_roundtrip(tmp_path):
    out = tmp_path / "figure.json"
    assert main(["export", "--figure", "hyperbolic", "--point", "146",
                 "--format", "json", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


@pytest.mark.parametrize("argv", [
    ["verify", "doily"],
    ["tables", "hyperplanes"],
    ["export", "--figure", "hyperbolic", "--point", "146"],
], ids=["verify", "tables", "export"])
def test_unwritable_out_is_a_one_line_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {target}: "
                            "No such file or directory\n")


class _FullStdout:
    """A standard output on a full disk: every write or flush fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullOnFlush(_FullStdout):
    """Writes land in a buffer; the failure shows when it is flushed."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("stdout", [_FullStdout, _FullOnFlush], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["verify", "all", "--format", "structured"],
    ["tables", "hyperplanes"],
    ["export", "--figure", "hyperbolic", "--point", "146"],
], ids=["verify", "tables", "export"])
def test_unwritable_stdout_is_a_one_line_error(argv, stdout, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", stdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n")
