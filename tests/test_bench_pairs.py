"""What tools/bench_pairs.py counts for its report: source lines and tail ranks."""

import importlib.util
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
