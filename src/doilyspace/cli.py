"""Command-line interface: verification suites, structured tables, and
incidence-graph exports of the highlighted sector figures.

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
import time
from itertools import combinations

from .doily import (
    DUADS,
    S_ELEMENTS,
    all_named_hyperplanes,
    apply_duad_permutation,
    build_doily,
    classify_hyperplane,
    grid,
    ovoid,
    perp_set,
    veldkamp_sum,
)
from .incidence import (
    check_gamma_space,
    check_gq,
    deep_points_mask,
    has_triangle,
    is_isomorphism,
    null_space_hyperplanes,
    popcount,
)
from .magicline import (
    CONE_SECTOR,
    ELLIPTIC_SECTOR,
    HYPERBOLIC_SECTOR,
    SECTOR_KIND,
    build_magic_line,
    build_sector_models,
    complementary_point,
    doily_trace,
    image_matches_family,
    label_map,
    polar_pair_check,
    sector_labels,
    veldkamp_line_image,
)
from .veldkamp import (
    VeldkampLine,
    classify_veldkamp_line,
    doily_veldkamp_space,
    family_census,
)

PAPER = "PAPER"
DERIVED = "DERIVED"

SUITE_NAMES = ("doily", "veldkamp", "magicline")


class UsageError(Exception):
    """Bad command usage detected after argument parsing."""


class Check:
    def __init__(self, name: str, expected: object, actual: object, provenance: str) -> None:
        self.name = name
        self.expected = expected
        self.actual = actual
        self.provenance = provenance

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class VerificationReport:
    def __init__(self, suite: str, checks: list[Check], runtime_seconds: float) -> None:
        self.suite = suite
        self.checks = checks
        self.runtime_seconds = runtime_seconds

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for c in self.checks if c.passed)
        return ok, len(self.checks) - ok

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {self.suite}: {c.name} ({c.provenance}) "
                         f"expected={c.expected!r} actual={c.actual!r}")
        ok, bad = self.counts
        lines.append(f"suite {self.suite}: {ok} passed, {bad} failed "
                     f"({self.runtime_seconds:.2f}s)")
        return "\n".join(lines)

    def to_structured(self) -> dict:
        # runtime is deliberately left out so the artifact is byte-stable
        ok, bad = self.counts
        return {
            "suite": self.suite,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "passed": c.passed,
                    "provenance": c.provenance,
                }
                for c in self.checks
            ],
            "summary": {"passed": ok, "failed": bad, "total": len(self.checks)},
        }


def _doily_checks() -> list[Check]:
    g = build_doily()
    checks = [
        Check("point count", 15, g.point_count, PAPER),
        Check("line count", 15, len(g.lines), PAPER),
        Check("points per line", [3], sorted({len(l) for l in g.lines}), PAPER),
        Check("lines per point", [3],
              sorted({g.degree(p) for p in range(g.point_count)}), PAPER),
        Check("generalized quadrangle of order (2,2)", True, check_gq(g, 2, 2), PAPER),
        Check("triangle-free", False, has_triangle(g), PAPER),
        Check("gamma space", True, check_gamma_space(g), DERIVED),
    ]
    hyperplanes = null_space_hyperplanes(g)
    kinds = [classify_hyperplane(m).kind for m in hyperplanes]
    checks.append(Check("hyperplane census (ovoid/perp-set/grid)", [6, 15, 10],
                        [kinds.count("ovoid"), kinds.count("perp-set"),
                         kinds.count("grid")], PAPER))
    checks.append(Check("hyperplane total", 31, len(hyperplanes), PAPER))

    perp_identity = all(
        veldkamp_sum(ovoid(i), ovoid(j)).mask == perp_set(i, j).mask
        for i, j in DUADS)
    checks.append(Check("perp-sets are ovoid sums (all 15)", True, perp_identity, PAPER))
    grid_identity = all(
        veldkamp_sum(veldkamp_sum(ovoid(i), ovoid(j)), ovoid(k)).mask
        == grid(i, j, k).mask
        for i, j, k in combinations(S_ELEMENTS, 3))
    checks.append(Check("grids are triple ovoid sums (all 20)", True, grid_identity, PAPER))
    complement_law = all(
        grid(i, j, k).mask == grid(*sorted({1, 2, 3, 4, 5, 6} - {i, j, k})).mask
        for i, j, k in combinations(S_ELEMENTS, 3))
    checks.append(Check("complementary grid triples give one grid", True,
                        complement_law, PAPER))

    ovoid_meets = all(
        popcount(ovoid(i).mask & lm) == 1 for i in S_ELEMENTS for lm in g.line_masks)
    checks.append(Check("every ovoid meets every syntheme once", True, ovoid_meets, PAPER))
    deep_ok = all(
        deep_points_mask(g, perp_set(i, j).mask)
        == 1 << DUADS.index((i, j)) for i, j in DUADS)
    checks.append(Check("perp-set deep point is its duad", True, deep_ok, PAPER))
    ovoid_coclique = all(
        popcount(ovoid(i).mask & lm) <= 1 for i in S_ELEMENTS for lm in g.line_masks)
    checks.append(Check("ovoid points pairwise non-collinear", True,
                        ovoid_coclique, DERIVED))

    masks = set(hyperplanes)
    closed = all(
        g.full_mask ^ m1 ^ m2 in masks for m1, m2 in combinations(hyperplanes, 2))
    checks.append(Check("Veldkamp sum closed on the 31 hyperplanes", True,
                        closed, PAPER))
    span = {ovoid(i).mask for i in range(1, 6)}
    grown = True
    while grown:
        grown = False
        for m1, m2 in combinations(sorted(span), 2):
            s = g.full_mask ^ m1 ^ m2
            if s not in span:
                span.add(s)
                grown = True
    checks.append(Check("ovoids o_1..o_5 generate all 31 hyperplanes", True,
                        span == masks, DERIVED))
    return checks


def _veldkamp_checks() -> list[Check]:
    g = build_doily()
    vs = doily_veldkamp_space()
    checks = [
        Check("Veldkamp point count", 31, len(vs.points), PAPER),
        Check("Veldkamp line count", 155, len(vs.lines), PAPER),
    ]
    per_point: dict[int, int] = {}
    for line in vs.lines:
        for m in line.members:
            per_point[m] = per_point.get(m, 0) + 1
    checks.append(Check("lines per Veldkamp point", [15],
                        sorted(set(per_point.values())), DERIVED))
    pair_seen = set()
    duplicated = False
    for line in vs.lines:
        for m1, m2 in combinations(line.members, 2):
            key = (min(m1, m2), max(m1, m2))
            if key in pair_seen:
                duplicated = True
            pair_seen.add(key)
    checks.append(Check("every hyperplane pair on exactly one line", True,
                        not duplicated and len(pair_seen) == 31 * 30 // 2, DERIVED))
    coincide = all(
        line.members[0] & line.members[1] == line.members[0] & line.members[2]
        == line.members[1] & line.members[2] for line in vs.lines)
    checks.append(Check("member intersections coincide per line", True, coincide, PAPER))

    census = family_census(vs.lines)
    checks.append(Check("all 155 lines classified", 155, sum(census.values()), PAPER))
    checks.append(Check("family census", {
        "perp-grid-grid": 45,
        "perp-perp-perp-disjoint": 15,
        "perp-perp-perp-triangle": 20,
        "ovoid-perp-grid": 60,
        "ovoid-ovoid-perp": 15,
    }, dict(census), DERIVED))

    def line_of(h1, h2) -> VeldkampLine:
        third = g.full_mask ^ h1.mask ^ h2.mask
        return VeldkampLine(g, tuple(sorted((h1.mask, h2.mask, third))))

    representatives = [
        (line_of(perp_set(1, 2), grid(1, 3, 4)), "perp-grid-grid"),
        (line_of(perp_set(1, 2), perp_set(3, 4)), "perp-perp-perp-disjoint"),
        (line_of(perp_set(1, 2), perp_set(1, 3)), "perp-perp-perp-triangle"),
        (line_of(ovoid(1), perp_set(2, 3)), "ovoid-perp-grid"),
        (line_of(ovoid(1), ovoid(2)), "ovoid-ovoid-perp"),
    ]
    rep_ok = all(classify_veldkamp_line(l) == fam for l, fam in representatives)
    checks.append(Check("representative lines fall in the expected families", True,
                        rep_ok, PAPER))

    stable = True
    for perm in ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6},
                 {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}):
        image = {m: apply_duad_permutation(m, perm) for m in vs.points}
        permuted = [VeldkampLine(g, tuple(sorted(image[m] for m in line.members)))
                    for line in vs.lines]
        if family_census(permuted) != census:
            stable = False
    checks.append(Check("census invariant under relabelling generators", True,
                        stable, DERIVED))
    return checks


def _magicline_checks() -> list[Check]:
    ml = build_magic_line()
    w = ml.space.structure
    constituents = ml.constituents.values()
    checks = [
        Check("W(5,2) point count", 63, w.point_count, DERIVED),
        Check("W(5,2) line count", 315, len(w.lines), DERIVED),
        Check("W(5,2) lines per point", [15],
              sorted({w.degree(p) for p in range(w.point_count)}), DERIVED),
        Check("W(5,2) gamma space", True, check_gamma_space(w), DERIVED),
        Check("constituent sizes (Q+/Q-/cone/core)", [35, 27, 31, 15],
              [len(c.w_points) for c in constituents] + [len(ml.core_w)], PAPER),
        Check("sector sizes (hyperbolic/elliptic/cone)", [20, 12, 16],
              [len(c.w_points) - 15 for c in constituents], PAPER),
        Check("constituent line counts (Q+/Q-/cone)", [105, 45, 75],
              [len(c.structure.lines) for c in constituents], DERIVED),
    ]

    core_images = {
        frozenset(DUADS.index(ml.core_duads[ml.core_w[q]]) for q in line)
        for line in ml.core_structure.lines}
    checks.append(Check("core lines map onto the synthemes", True,
                        core_images == set(build_doily().lines), PAPER))

    nucleus_ok = (
        ml.sector_of(ml.nucleus_w) == CONE_SECTOR
        and all(ml.space.form.evaluate(ml.space.points[ml.nucleus_w],
                                       ml.space.points[v]) == 0
                for v in ml.cone.w_points)
        and deep_points_mask(w, sum(1 << v for v in ml.cone.w_points))
        == 1 << ml.nucleus_w)
    checks.append(Check("nucleus is the cone radical and unique deep point", True,
                        nucleus_ok, PAPER))

    off = [[v for v in c.w_points if v not in ml.core_set and v != ml.nucleus_w]
           for c in constituents]
    hyp_off, ell_off, _ = off
    for c, c_off, degree, source in zip(constituents, off, (9, 5, 7), (PAPER, PAPER, DERIVED)):
        checks.append(Check(f"{c.name} off-point line count", [degree],
                            sorted({c.structure.degree(c.local_index(v)) for v in c_off}),
                            source))
    checks.append(Check("nucleus line count", 15,
                        ml.cone.structure.degree(ml.cone.local_index(ml.nucleus_w)),
                        DERIVED))

    checks.append(Check("trace sizes per sector (hyperbolic/elliptic/cone)",
                        [[9], [5], [7]],
                        [sorted({doily_trace(ml, v).size for v in c_off}) for c_off in off],
                        PAPER))

    # sector -> each hyperplane of its kind -> the points its sector_labels
    # name: they must trace it, and be exactly the sector's off points
    pairs = {c.name: {h: [ml.w_of_label[lab] for lab in sector_labels(h)]
                      for h in all_named_hyperplanes() if h.kind == SECTOR_KIND[c.name]}
             for c in constituents}
    read_off = [sorted(sum(named.values(), [])) == sorted(c_off)
                and all(doily_trace(ml, v) == h for h, vs in named.items() for v in vs)
                for named, c_off in zip(pairs.values(), off)]
    checks.append(Check("10 complementary pairs onto the 10 grids", True, read_off[0], PAPER))
    checks.append(Check("6 complementary pairs onto the 6 ovoids", True, read_off[1], PAPER))
    checks.append(Check("15 cone points onto the 15 perp-sets", True, read_off[2], PAPER))

    coherent = all(
        doily_trace(ml, v).mask == doily_trace(ml, complementary_point(ml, v)).mask
        for v in hyp_off + ell_off)
    checks.append(Check("complementary pairs share their trace", True, coherent, PAPER))

    spots = (
        doily_trace(ml, ml.w_of_label["146"]).name == "g_146"
        and ml.label_of[complementary_point(ml, ml.w_of_label["146"])] == "235"
        and doily_trace(ml, ml.w_of_label["3"]).name == "o_3"
        and doily_trace(ml, ml.w_of_label["3'"]).name == "o_3"
        and doily_trace(ml, ml.w_of_label["3456"]).name == "p_12")
    checks.append(Check("figure spot values (146/235, 3/3', 3456)", True, spots, PAPER))

    vs = doily_veldkamp_space()
    images_ok = all(image_matches_family(veldkamp_line_image(ml, l)) for l in vs.lines)
    checks.append(Check("all 155 line images match their family pattern", True,
                        images_ok, PAPER))
    image = veldkamp_line_image(
        ml, VeldkampLine(build_doily(), tuple(sorted((
            ovoid(1).mask, ovoid(2).mask,
            build_doily().full_mask ^ ovoid(1).mask ^ ovoid(2).mask)))))
    checks.append(Check("image of {o_1, o_2, p_12}", ["1/1'", "2/2'", "3456"],
                        sorted(str(m) for m in image.members), PAPER))

    hyp_reports = [polar_pair_check(ml, a, b) for a, b in pairs[HYPERBOLIC_SECTOR].values()]
    checks.append(Check("hyperbolic mutual perps are rank-2 grids (10 pairs)", True,
                        all(r.is_rank_two_polar_space
                            and len(r.mutual_perp_labels) == 9 for r in hyp_reports),
                        PAPER))
    ell_reports = [polar_pair_check(ml, a, b) for a, b in pairs[ELLIPTIC_SECTOR].values()]
    checks.append(Check("elliptic mutual perps are rank-1 ovoids (6 pairs)", True,
                        all(r.is_rank_one_polar_space
                            and len(r.mutual_perp_labels) == 5 for r in ell_reports),
                        PAPER))

    checks.append(Check("gamma spaces (Q+/Q-/core)", [True, True, True],
                        [check_gamma_space(ml.q_plus.structure),
                         check_gamma_space(ml.q_minus.structure),
                         check_gamma_space(ml.core_structure)], DERIVED))

    models = build_sector_models()
    model_ok = []
    for model, constituent in ((models.hyperbolic, ml.q_plus),
                               (models.elliptic, ml.q_minus),
                               (models.cone, ml.cone)):
        struct = constituent.structure  # the certified labels give the bijection
        model_ok.append(set(model.labels) == set(struct.labels)
                        and is_isomorphism(model, struct, label_map(model, struct)))
    checks.append(Check("sector models isomorphic to the coordinate constituents",
                        [True, True, True], model_ok, DERIVED))
    checks.append(Check("elliptic model is a GQ(2,4)", True,
                        check_gq(models.elliptic, 2, 4), PAPER))
    return checks


def run_suite(name: str) -> VerificationReport:
    builders = {
        "doily": _doily_checks,
        "veldkamp": _veldkamp_checks,
        "magicline": _magicline_checks,
    }
    start = time.perf_counter()
    checks = builders[name]()
    return VerificationReport(name, checks, time.perf_counter() - start)


def cmd_verify(suite: str, out: str | None = None, fmt: str = "text") -> int:
    names = SUITE_NAMES if suite == "all" else (suite,)
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
                          choices=SUITE_NAMES + ("all",))
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
