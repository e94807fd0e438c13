"""What tools/bench_pairs.py counts for its report: source lines, tail ranks and
the phases of a cold ``verify all``."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    # loaded from its path, since tools/ is not a package; no bytecode is written
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_src_nonblank_lines_counts_each_module_of_a_tree(bench_pairs, tmp_path):
    package = tmp_path / "src" / "doilyspace"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n   \n\tdef f():\n        pass\n")
    (package / "b.py").write_text("")
    (package / "notes.txt").write_text("not a module\n")
    (tmp_path / "src" / "other.py").write_text("outside the package\n")
    assert bench_pairs.src_nonblank_lines(tmp_path) == {
        "files": {"a.py": 3, "b.py": 0}, "total": 3}


def test_src_nonblank_lines_of_this_checkout(bench_pairs):
    counts = bench_pairs.src_nonblank_lines(TOOL.parent.parent)
    assert "doily.py" in counts["files"] and counts["total"] == sum(counts["files"].values())


def test_tail_at_rank_names_the_operation_at_the_rank_and_counts_each_name_beyond(bench_pairs):
    ops = [(0.5, "cone"), (0.1, "doily"), (0.4, "q_plus"), (0.2, "doily"), (0.3, "pg32"),
           (0.6, "cone")]
    assert bench_pairs.tail_at_rank(ops, 4) == (
        "q_plus", {"cone": 2, "doily": 0, "q_plus": 1, "pg32": 0})
    assert bench_pairs.tail_at_rank(ops, 1) == (
        "doily", {"cone": 2, "doily": 2, "q_plus": 1, "pg32": 1})
    assert bench_pairs.tail_at_rank(ops, 6) == (
        "cone", {"cone": 1, "doily": 0, "q_plus": 0, "pg32": 0})
    # equal times are ordered by name
    assert bench_pairs.tail_at_rank([(0.2, "b"), (0.2, "a")], 1) == ("a", {"b": 1, "a": 1})


def test_phase_medians_takes_each_phase_and_the_total_over_a_batch(bench_pairs):
    children = [{"import": 0.030, "render": 0.0010},
                {"import": 0.032, "render": 0.0004},
                {"import": 0.029, "render": 0.0020}]
    # the total is the median of the sums (31.0, 32.4, 31.0 ms), not the sum of the medians
    assert bench_pairs.phase_medians(children) == {"import": 30.0, "render": 1.0, "total": 31.0}
    assert bench_pairs.phase_medians(children[:1]) == {"import": 30.0, "render": 1.0,
                                                       "total": 31.0}


def test_the_verify_attribution_child_reports_each_phase_of_this_checkout(bench_pairs):
    # one fresh process, as attribute_verify runs it; it exits non-zero if the
    # rendered output does not match the golden digest
    root = TOOL.parent.parent
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", bench_pairs.VERIFY_ATTRIBUTION_CODE], cwd=root,
                         env=env, check=True, capture_output=True, text=True).stdout
    phases = json.loads(out)
    assert list(phases) == ["import", "parser", "suite doily", "suite veldkamp",
                            "suite magicline", "build_magic_line", "render"]
    assert all(seconds > 0 for seconds in phases.values())
