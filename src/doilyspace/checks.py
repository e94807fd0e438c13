"""Verification suites: each builds the list of checks that certifies the
doily, its Veldkamp space or the magic Veldkamp line of W(5,2).

Never imports ``doilyspace.cli``: under ``python -m doilyspace.cli`` that
module is ``__main__``, and importing it by name would run it a second time.
"""

from __future__ import annotations

import time
from collections import Counter
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


def _line_of(h1, h2) -> VeldkampLine:
    """The doily's Veldkamp line through two of its named hyperplanes."""
    members = (h1.mask, h2.mask, veldkamp_sum(h1, h2).mask)
    return VeldkampLine(build_doily(), tuple(sorted(members)))


def _doily_checks() -> list[Check]:
    g = build_doily()
    hyperplanes = null_space_hyperplanes(g)
    masks = set(hyperplanes)
    kinds = [classify_hyperplane(m).kind for m in hyperplanes]
    ovoids = {i: ovoid(i) for i in S_ELEMENTS}
    perps = {d: perp_set(*d) for d in DUADS}
    grids = {t: grid(*t) for t in combinations(S_ELEMENTS, 3)}
    span = [0]  # the hyperplane complements form a GF(2) space
    for i in range(1, 6):
        span += [v ^ g.full_mask ^ ovoids[i].mask for v in span]
    return [
        Check("point count", 15, g.point_count, PAPER),
        Check("line count", 15, len(g.lines), PAPER),
        Check("points per line", [3], sorted({len(l) for l in g.lines}), PAPER),
        Check("lines per point", [3],
              sorted({g.degree(p) for p in range(g.point_count)}), PAPER),
        Check("generalized quadrangle of order (2,2)", True, check_gq(g, 2, 2), PAPER),
        Check("triangle-free", False, has_triangle(g), PAPER),
        Check("gamma space", True, check_gamma_space(g), DERIVED),
        Check("hyperplane census (ovoid/perp-set/grid)", [6, 15, 10],
              [kinds.count("ovoid"), kinds.count("perp-set"), kinds.count("grid")], PAPER),
        Check("hyperplane total", 31, len(hyperplanes), PAPER),
        Check("perp-sets are ovoid sums (all 15)", True,
              all(veldkamp_sum(ovoids[i], ovoids[j]).mask == p.mask
                  for (i, j), p in perps.items()), PAPER),
        Check("grids are triple ovoid sums (all 20)", True,
              all(veldkamp_sum(veldkamp_sum(ovoids[i], ovoids[j]), ovoids[k]).mask == h.mask
                  for (i, j, k), h in grids.items()), PAPER),
        Check("complementary grid triples give one grid", True,
              all(h.mask == grids[tuple(sorted(set(S_ELEMENTS) - set(t)))].mask
                  for t, h in grids.items()), PAPER),
        Check("every ovoid meets every syntheme once", True,
              all(popcount(h.mask & lm) == 1 for h in ovoids.values() for lm in g.line_masks),
              PAPER),
        Check("perp-set deep point is its duad", True,
              all(deep_points_mask(g, h.mask) == 1 << DUADS.index(d) for d, h in perps.items()),
              PAPER),
        Check("ovoid points pairwise non-collinear", True,
              all(popcount(h.mask & lm) <= 1 for h in ovoids.values() for lm in g.line_masks),
              DERIVED),
        Check("Veldkamp sum closed on the 31 hyperplanes", True,
              all(g.full_mask ^ m1 ^ m2 in masks
                  for m1, m2 in combinations(hyperplanes, 2)), PAPER),
        Check("ovoids o_1..o_5 generate all 31 hyperplanes", True,
              {g.full_mask ^ v for v in span if v} == masks, DERIVED),
    ]


def _veldkamp_checks() -> list[Check]:
    vs = doily_veldkamp_space()
    pairs = [pair for line in vs.lines for pair in combinations(line.members, 2)]
    census = family_census(vs.lines)
    representatives = [
        (_line_of(perp_set(1, 2), grid(1, 3, 4)), "perp-grid-grid"),
        (_line_of(perp_set(1, 2), perp_set(3, 4)), "perp-perp-perp-disjoint"),
        (_line_of(perp_set(1, 2), perp_set(1, 3)), "perp-perp-perp-triangle"),
        (_line_of(ovoid(1), perp_set(2, 3)), "ovoid-perp-grid"),
        (_line_of(ovoid(1), ovoid(2)), "ovoid-ovoid-perp"),
    ]
    # each generator maps the 31 points once; the lines read their images
    images = [{m: apply_duad_permutation(m, perm) for m in vs.points}
              for perm in ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6},
                           {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1})]
    return [
        Check("Veldkamp point count", 31, len(vs.points), PAPER),
        Check("Veldkamp line count", 155, len(vs.lines), PAPER),
        Check("lines per Veldkamp point", [15],
              sorted(set(Counter(m for line in vs.lines for m in line.members).values())),
              DERIVED),
        Check("every hyperplane pair on exactly one line", True,
              len(set(pairs)) == len(pairs) == 31 * 30 // 2, DERIVED),
        Check("member intersections coincide per line", True,
              all(line.members[0] & line.members[1] == line.members[0] & line.members[2]
                  == line.members[1] & line.members[2] for line in vs.lines), PAPER),
        Check("all 155 lines classified", 155, sum(census.values()), PAPER),
        Check("family census", {
            "perp-grid-grid": 45,
            "perp-perp-perp-disjoint": 15,
            "perp-perp-perp-triangle": 20,
            "ovoid-perp-grid": 60,
            "ovoid-ovoid-perp": 15,
        }, dict(census), DERIVED),
        Check("representative lines fall in the expected families", True,
              all(classify_veldkamp_line(l) == fam for l, fam in representatives), PAPER),
        Check("census invariant under relabelling generators", True,
              all(family_census([VeldkampLine(vs.geometry,
                                              tuple(sorted(image[m] for m in line.members)))
                                 for line in vs.lines]) == census for image in images),
              DERIVED),
    ]


def _magicline_checks() -> list[Check]:
    ml = build_magic_line()
    w = ml.space.structure
    constituents = ml.constituents.values()
    off = [[v for v in c.w_points if v in ml.traces] for c in constituents]
    trace = {v: doily_trace(ml, v) for c_off in off for v in c_off}  # each looked up once
    # sector -> each hyperplane of its kind -> the points its sector_labels
    # name: they must trace it, and be exactly the sector's off points
    pairs = {c.name: {h: [ml.w_of_label[lab] for lab in sector_labels(h)]
                      for h in all_named_hyperplanes() if h.kind == SECTOR_KIND[c.name]}
             for c in constituents}
    read_off = [sorted(sum(named.values(), [])) == sorted(c_off)
                and all(trace[v] == h for h, vs in named.items() for v in vs)
                for named, c_off in zip(pairs.values(), off)]
    image = veldkamp_line_image(ml, _line_of(ovoid(1), ovoid(2)))
    hyp_reports = [polar_pair_check(ml, a, b) for a, b in pairs[HYPERBOLIC_SECTOR].values()]
    ell_reports = [polar_pair_check(ml, a, b) for a, b in pairs[ELLIPTIC_SECTOR].values()]
    models = build_sector_models()
    # the certified labels give each model's bijection onto its constituent
    model_ok = [set(models[c.name].labels) == set(c.structure.labels)
                and is_isomorphism(models[c.name], c.structure,
                                   label_map(models[c.name], c.structure))
                for c in constituents]
    return [
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
        Check("core lines map onto the synthemes", True,
              {frozenset(DUADS.index(ml.core_duads[ml.core_w[q]]) for q in line)
               for line in ml.core_structure.lines} == set(build_doily().lines), PAPER),
        Check("nucleus is the cone radical and unique deep point", True,
              ml.sector_of(ml.nucleus_w) == CONE_SECTOR
              and all(ml.space.form.evaluate(ml.space.points[ml.nucleus_w],
                                             ml.space.points[v]) == 0
                      for v in ml.cone.w_points)
              and deep_points_mask(w, ml.cone.mask) == 1 << ml.nucleus_w, PAPER),
        *(Check(f"{c.name} off-point line count", [degree],
                sorted({c.structure.degree(c.local_index(v)) for v in c_off}), source)
          for c, c_off, degree, source
          in zip(constituents, off, (9, 5, 7), (PAPER, PAPER, DERIVED))),
        Check("nucleus line count", 15,
              ml.cone.structure.degree(ml.cone.local_index(ml.nucleus_w)), DERIVED),
        Check("trace sizes per sector (hyperbolic/elliptic/cone)", [[9], [5], [7]],
              [sorted({trace[v].size for v in c_off}) for c_off in off], PAPER),
        Check("10 complementary pairs onto the 10 grids", True, read_off[0], PAPER),
        Check("6 complementary pairs onto the 6 ovoids", True, read_off[1], PAPER),
        Check("15 cone points onto the 15 perp-sets", True, read_off[2], PAPER),
        Check("complementary pairs share their trace", True,
              all(trace[v] == trace[complementary_point(ml, v)] for v in off[0] + off[1]), PAPER),
        Check("figure spot values (146/235, 3/3', 3456)", True,
              trace[ml.w_of_label["146"]].name == "g_146"
              and ml.label_of[complementary_point(ml, ml.w_of_label["146"])] == "235"
              and trace[ml.w_of_label["3"]].name == trace[ml.w_of_label["3'"]].name == "o_3"
              and trace[ml.w_of_label["3456"]].name == "p_12", PAPER),
        Check("all 155 line images match their family pattern", True,
              all(image_matches_family(veldkamp_line_image(ml, l))
                  for l in doily_veldkamp_space().lines), PAPER),
        Check("image of {o_1, o_2, p_12}", ["1/1'", "2/2'", "3456"],
              sorted(str(m) for m in image.members), PAPER),
        Check("hyperbolic mutual perps are rank-2 grids (10 pairs)", True,
              all(r.is_rank_two_polar_space and len(r.mutual_perp_labels) == 9
                  for r in hyp_reports), PAPER),
        Check("elliptic mutual perps are rank-1 ovoids (6 pairs)", True,
              all(r.is_rank_one_polar_space and len(r.mutual_perp_labels) == 5
                  for r in ell_reports), PAPER),
        Check("gamma spaces (Q+/Q-/core)", [True, True, True],
              [check_gamma_space(ml.q_plus.structure), check_gamma_space(ml.q_minus.structure),
               check_gamma_space(ml.core_structure)], DERIVED),
        Check("sector models isomorphic to the coordinate constituents",
              [True, True, True], model_ok, DERIVED),
        Check("elliptic model is a GQ(2,4)", True, check_gq(models[ELLIPTIC_SECTOR], 2, 4), PAPER),
    ]


SUITES = {
    "doily": _doily_checks,
    "veldkamp": _veldkamp_checks,
    "magicline": _magicline_checks,
}


def run_suite(name: str) -> VerificationReport:
    start = time.perf_counter()
    checks = SUITES[name]()
    return VerificationReport(name, checks, time.perf_counter() - start)
