"""What the benchmark harness under benchmarks/ needs from the package.

The harness's own tests are not part of the tier-1 suite, so these checks
keep a change to src/ from breaking the benchmark unnoticed.  The harness
modules are imported read-only from benchmarks/.
"""

import importlib
import sys
from pathlib import Path

import pytest

import doilyspace
from doilyspace.incidence import check_gamma_space

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def harness():
    # no bytecode is written under benchmarks/
    sys.path.insert(0, str(BENCHMARKS))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import run
        import tracer
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.dont_write_bytecode = dont_write
    return run, tracer


def test_traced_functions_and_methods_resolve(harness):
    _, tracer = harness
    for module, name, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"doilyspace.{module}"), name))
    for module, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"doilyspace.{module}"), cls_name)
        assert callable(cls.__dict__[method])


def test_cached_builders_report_cache_info(harness):
    _, tracer = harness
    for module, name in tracer.CACHED:
        builder = getattr(importlib.import_module(f"doilyspace.{module}"), name)
        assert hasattr(builder, "cache_info"), f"{module}.{name}"


def test_relabel_search_builds_pg32_from_projective_points(harness):
    run, _ = harness
    g = run.pg32(doilyspace)
    assert g.point_count == 15
    assert len(g.lines) == 35
    assert check_gamma_space(g)
