"""Layer spans for the benchmark's traced run.

The wrappers are installed from outside the package: each listed public
function is replaced, in every ``doilyspace.*`` namespace that holds it, by a
wrapper that records a span.  ``from .x import y`` copies the binding into
each importing module, so rebinding only the defining module would miss the
calls made through the other namespaces.  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent, op, value]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the operation id that was
current when the span opened, and ``value`` an optional count recorded at
the boundary (hyperplanes found and line tests made, mask classified, search
outcome).

Line tests are counted, not derived from the input size: ``incidence.popcount``
is replaced in the ``incidence`` namespace by a counting wrapper, so a scan
that tests fewer lines shows it.  A scan that stops calling
``incidence.popcount`` altogether reports 0 line tests.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

NAME, START, END, PARENT, OP, VALUE = range(6)


def _scan_note(args, result, line_tests):
    # (hyperplanes found, incidence.popcount calls made during the scan)
    return [len(result), line_tests]


# (module, function, note(args, result, line tests made)).  The axiom checks share one layer
# metric, as do the three CLI renderers.
FUNCTIONS = (
    ("incidence", "enumerate_hyperplanes", _scan_note),
    ("incidence", "find_isomorphism", lambda args, result, _: int(result is not None)),
    ("incidence", "check_gq", None),
    ("incidence", "check_gamma_space", None),
    ("incidence", "has_triangle", None),
    ("incidence", "induced_substructure", None),
    ("doily", "classify_hyperplane", lambda args, result, _: result.mask),
    ("veldkamp", "build_veldkamp_space", None),
    ("veldkamp", "classify_veldkamp_line", None),
    ("veldkamp", "family_census", None),
    ("magicline", "build_w52", None),
    ("magicline", "build_magic_line", None),
    ("magicline", "veldkamp_line_image", None),
    ("magicline", "doily_trace", None),
    ("magicline", "polar_pair_check", None),
    ("magicline", "build_sector_models", None),
    ("magicline", "image_matches_family", None),
    ("cli", "run_suite", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_tables", None),
    ("cli", "cmd_export", None),
)

METHODS = (
    ("gf2", "QuadraticForm", "evaluate"),
    ("gf2", "SymplecticForm", "evaluate"),
)

# lru_cache'd builders whose hit counts the traced run reports
CACHED = (
    ("doily", "build_doily"),
    ("magicline", "build_w52"),
    ("magicline", "build_magic_line"),
)


class Tracer:
    """Collects spans in memory; ``op`` tags every span opened while it is set.

    ``caches`` holds the builder cache ``[hits, misses]`` over the traced
    operations, summed over the children when they ran out of process.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.caches: dict[str, list[int]] = {}
        self.line_tests = 0  # calls of incidence.popcount so far
        self._stack: list[int] = []

    def count_line_tests(self, fn):
        @functools.wraps(fn)
        def counted(mask):
            self.line_tests += 1
            return fn(mask)

        return counted

    def wrap(self, name: str, fn, note=None):
        spans = self.spans
        stack = self._stack
        per_call_name = name == "cli.run_suite"  # one span name per suite

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{args[0]}" if per_call_name else name
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            tests0 = self.line_tests
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[VALUE] = note(args, result, self.line_tests - tests0)
            return result

        return wrapper


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "doilyspace" or n.startswith("doilyspace."))]


def install(tracer: Tracer):
    """Install the wrappers; returns a function that restores the originals."""
    import doilyspace.cli  # noqa: F401  (loads every layer module)

    modules = _package_modules()
    undo = []
    for module, attr, note in FUNCTIONS:
        original = getattr(sys.modules[f"doilyspace.{module}"], attr)
        wrapper = tracer.wrap(f"{module}.{attr}", original, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    incidence = sys.modules["doilyspace.incidence"]
    original = incidence.popcount  # only the incidence namespace: the scan's lookups
    incidence.popcount = tracer.count_line_tests(original)
    undo.append((incidence, "popcount", original))
    for module, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"doilyspace.{module}"], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(f"{module}.{method}", original))
        undo.append((cls, method, original))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def cache_counts() -> dict[str, list[int]]:
    """``{"module.function": [hits, misses]}`` for the cached builders."""
    counts = {}
    for module, attr in CACHED:
        fn = inspect.unwrap(getattr(sys.modules[f"doilyspace.{module}"], attr),
                            stop=lambda f: hasattr(f, "cache_info"))
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        counts[f"{module}.{attr}"] = [info.hits, info.misses] if info else [0, 0]
    return counts


def cache_delta(before: dict, after: dict) -> dict[str, list[int]]:
    return {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in after}


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    out = []
    for s, kids in zip(spans, children):
        inside = [(max(k[START], s[START]), min(k[END], s[END])) for k in kids]
        out.append(s[END] - s[START] - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def summarize(spans, round_of_op: dict, rounds: int, caches: dict) -> dict:
    """Per-layer metrics, per round: counts are means, times are medians.

    ``round_of_op`` maps each operation id to its round, and ``caches`` holds
    the ``[hits, misses]`` deltas over the traced operations.
    """
    selfs = self_times(spans)
    by_round: list[dict[str, list[int]]] = [{} for _ in range(rounds)]
    for i, s in enumerate(spans):
        by_round[round_of_op[s[OP]]].setdefault(s[NAME], []).append(i)

    def indices(idx: dict, names) -> list[int]:
        return [i for n in names for i in idx.get(n, ())]

    def count(*names) -> float:
        return sum(len(indices(idx, names)) for idx in by_round) / rounds

    def busy(*names) -> float:
        return statistics.median(
            _covered([(spans[i][START], spans[i][END]) for i in indices(idx, names)])
            for idx in by_round)

    def self_s(*names) -> float:
        return statistics.median(sum(selfs[i] for i in indices(idx, names))
                                 for idx in by_round)

    def values(name) -> list:
        return [spans[i][VALUE] for idx in by_round for i in idx.get(name, ())]

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    scans = values("incidence.enumerate_hyperplanes")
    searches = values("incidence.find_isomorphism")
    distinct = sum(len({spans[i][VALUE] for i in idx.get("doily.classify_hyperplane", ())})
                   for idx in by_round)
    doily_hits, doily_misses = caches["doily.build_doily"]
    ml_hits = caches["magicline.build_w52"][0] + caches["magicline.build_magic_line"][0]
    ml_calls = ml_hits + caches["magicline.build_w52"][1] + caches["magicline.build_magic_line"][1]
    classify_calls = count("doily.classify_hyperplane") * rounds

    return {
        "gf2.evaluate.calls": count("gf2.evaluate"),
        "gf2.evaluate.busy_s": busy("gf2.evaluate"),
        "incidence.enumerate_hyperplanes.calls": count("incidence.enumerate_hyperplanes"),
        "incidence.enumerate_hyperplanes.busy_s": busy("incidence.enumerate_hyperplanes"),
        "incidence.enumerate_hyperplanes.found": sum(v[0] for v in scans) / rounds,
        "incidence.enumerate_hyperplanes.line_tests": sum(v[1] for v in scans) / rounds,
        "incidence.enumerate_hyperplanes.yield": ratio(sum(v[0] for v in scans),
                                                       sum(v[1] for v in scans)),
        "incidence.find_isomorphism.calls": count("incidence.find_isomorphism"),
        "incidence.find_isomorphism.busy_s": busy("incidence.find_isomorphism"),
        "incidence.find_isomorphism.found_ratio": ratio(sum(searches), len(searches)),
        "incidence.axioms.busy_s": busy("incidence.check_gq", "incidence.check_gamma_space",
                                        "incidence.has_triangle"),
        "incidence.induced_substructure.busy_s": busy("incidence.induced_substructure"),
        "doily.classify_hyperplane.calls": count("doily.classify_hyperplane"),
        "doily.classify_hyperplane.self_s": self_s("doily.classify_hyperplane"),
        "doily.classify_hyperplane.distinct_ratio": ratio(distinct, classify_calls),
        "doily.build_doily.calls": (doily_hits + doily_misses) / rounds,
        "doily.build_doily.hit_ratio": ratio(doily_hits, doily_hits + doily_misses),
        "veldkamp.build_veldkamp_space.calls": count("veldkamp.build_veldkamp_space"),
        "veldkamp.build_veldkamp_space.self_s": self_s("veldkamp.build_veldkamp_space"),
        "veldkamp.classify_veldkamp_line.calls": count("veldkamp.classify_veldkamp_line"),
        "veldkamp.classify_veldkamp_line.self_s": self_s("veldkamp.classify_veldkamp_line"),
        "veldkamp.family_census.busy_s": busy("veldkamp.family_census"),
        "magicline.build_w52.busy_s": busy("magicline.build_w52"),
        "magicline.build_magic_line.self_s": self_s("magicline.build_magic_line"),
        "magicline.cache_calls": ml_calls / rounds,
        "magicline.cache_hit_ratio": ratio(ml_hits, ml_calls),
        "magicline.veldkamp_line_image.calls": count("magicline.veldkamp_line_image"),
        "magicline.veldkamp_line_image.self_s": self_s("magicline.veldkamp_line_image"),
        "magicline.doily_trace.calls": count("magicline.doily_trace"),
        "magicline.doily_trace.self_s": self_s("magicline.doily_trace"),
        "magicline.polar_pair_check.busy_s": busy("magicline.polar_pair_check"),
        "magicline.build_sector_models.busy_s": busy("magicline.build_sector_models"),
        "magicline.image_matches_family.busy_s": busy("magicline.image_matches_family"),
        "cli.run_suite.doily.busy_s": busy("cli.run_suite.doily"),
        "cli.run_suite.veldkamp.busy_s": busy("cli.run_suite.veldkamp"),
        "cli.run_suite.magicline.busy_s": busy("cli.run_suite.magicline"),
        "cli.render.self_s": self_s("cli.cmd_verify", "cli.cmd_tables", "cli.cmd_export"),
    }
