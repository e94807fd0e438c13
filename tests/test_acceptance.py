"""Acceptance suite: one test per criterion, every check exact.

All spaces involved are tiny, so each criterion is verified by full
exhaustion.  Each test prints a PASS line on success (run with -v or -s to
see them); an assertion failure marks the criterion failed.
"""

from collections import Counter
from itertools import combinations

from doilyspace.doily import (
    DUADS,
    DUAD_INDEX,
    GRID,
    OVOID,
    PERP_SET,
    S_ELEMENTS,
    S_SET,
    build_doily,
    classify_hyperplane,
    grid,
    ovoid,
    perp_set,
    veldkamp_sum,
)
from doilyspace.incidence import (
    check_gamma_space,
    check_gq,
    deep_points_mask,
    enumerate_hyperplanes,
    find_isomorphism,
    has_triangle,
    popcount,
    veldkamp_sum_mask,
)
from doilyspace.magicline import (
    CONE_SECTOR,
    ELLIPTIC_SECTOR,
    HYPERBOLIC_SECTOR,
    build_magic_line,
    build_sector_models,
    build_w52,
    complementary_point,
    doily_trace,
    image_matches_family,
    label_elements,
    polar_pair_check,
    veldkamp_line_image,
)
from doilyspace.veldkamp import (
    FAMILIES,
    build_veldkamp_space,
    classify_veldkamp_line,
    family_census,
)


def _passed(number: int, text: str) -> None:
    print(f"[PASS] criterion {number:02d}: {text}")


def test_criterion_01_doily_structure():
    g = build_doily()
    assert g.point_count == 15
    assert len(g.lines) == 15
    assert all(len(line) == 3 for line in g.lines)
    assert all(g.degree(p) == 3 for p in range(g.point_count))
    assert check_gq(g, 2, 2)
    assert not has_triangle(g)
    _passed(1, "doily is the triangle-free GQ(2,2) with 15 points and 15 lines")


def test_criterion_02_hyperplane_census():
    g = build_doily()
    hyperplanes = enumerate_hyperplanes(g)  # full 2^15 scan
    assert len(hyperplanes) == 31
    classified = [classify_hyperplane(m) for m in hyperplanes]
    census = Counter(c.kind for c in classified)
    assert census == {OVOID: 6, PERP_SET: 15, GRID: 10}
    for c in classified:
        if c.kind == OVOID:
            assert c.size == 5
        elif c.kind == PERP_SET:
            assert c.size == 7
            assert popcount(deep_points_mask(g, c.mask)) == 1
        else:
            assert c.size == 9
    _passed(2, "exhaustive scan yields 31 hyperplanes: 6 ovoids, 15 perp-sets, 10 grids")


def test_criterion_03_veldkamp_identities():
    for i, j in DUADS:
        assert veldkamp_sum(ovoid(i), ovoid(j)).mask == perp_set(i, j).mask
    for i, j, k in combinations(S_ELEMENTS, 3):
        triple = veldkamp_sum(veldkamp_sum(ovoid(i), ovoid(j)), ovoid(k))
        assert triple.mask == grid(i, j, k).mask
    _passed(3, "p_ij = o_i + o_j (15 cases) and g_ijk = o_i + o_j + o_k (20 cases)")


def test_criterion_04_veldkamp_space():
    g = build_doily()
    vs = build_veldkamp_space(g)
    assert len(vs.points) == 31
    assert len(vs.lines) == 155
    pairs = set()
    for line in vs.lines:
        for pair in combinations(line.members, 2):
            key = frozenset(pair)
            assert key not in pairs
            pairs.add(key)
    assert len(pairs) == 31 * 30 // 2
    through = Counter(m for line in vs.lines for m in line.members)
    assert set(through.values()) == {15}
    masks = set(vs.points)
    for m1, m2 in combinations(sorted(masks), 2):
        assert veldkamp_sum_mask(g.full_mask, m1, m2) in masks
    _passed(4, "Veldkamp space has PG(4,2) parameters 31/155 and is sum-closed")


def test_criterion_05_family_classification():
    vs = build_veldkamp_space(build_doily())
    tags = [classify_veldkamp_line(line) for line in vs.lines]
    assert all(tag in FAMILIES for tag in tags)
    census = family_census(vs.lines)
    assert sum(census.values()) == 155
    # per-family counts pinned from the first oracle run
    assert census == {
        "perp-grid-grid": 45,
        "perp-perp-perp-disjoint": 15,
        "perp-perp-perp-triangle": 20,
        "ovoid-perp-grid": 60,
        "ovoid-ovoid-perp": 15,
    }
    _passed(5, "all 155 lines classified into the five families (45/15/20/60/15)")


def test_criterion_06_quadric_counts():
    ml = build_magic_line()
    assert len(ml.q_plus.w_points) == 35
    assert len(ml.q_minus.w_points) == 27
    assert len(ml.cone.w_points) == 31
    assert len(ml.core_w) == 15
    assert len(ml.q_plus.w_points) - len(ml.core_w) == 20
    assert len(ml.q_minus.w_points) - len(ml.core_w) == 12
    assert len(ml.cone.w_points) - len(ml.core_w) == 16
    _passed(6, "constituent sizes 35/27/31 with core 15 and sectors 20/12/16")


def test_criterion_07_core_isomorphism():
    ml = build_magic_line()
    doily = build_doily()
    mapping = find_isomorphism(ml.core_structure, doily)
    assert mapping is not None
    images = {frozenset(mapping[q] for q in line) for line in ml.core_structure.lines}
    assert images == set(doily.lines)
    # the certified labelling does the same
    stored = {frozenset(DUAD_INDEX[ml.core_duads[ml.core_w[q]]] for q in line)
              for line in ml.core_structure.lines}
    assert stored == set(doily.lines)
    _passed(7, "core is isomorphic to the doily, lines onto synthemes bijectively")


def test_criterion_08_hyperbolic_sector():
    ml = build_magic_line()
    off = [w for w in ml.q_plus.w_points if w not in ml.core_set]
    assert len(off) == 20
    struct = ml.q_plus.structure
    for w in off:
        local = ml.q_plus.local_index(w)
        through = struct.lines_through[local]
        assert len(through) == 9
        for idx in through:
            core_hits = [q for q in struct.lines[idx]
                         if ml.q_plus.w_points[q] in ml.core_set]
            assert len(core_hits) == 1
        assert doily_trace(ml, w).kind == GRID
    pair_traces = {}
    for w in off:
        partner = complementary_point(ml, w)
        assert partner in off and partner != w
        assert complementary_point(ml, partner) == w
        assert doily_trace(ml, w).mask == doily_trace(ml, partner).mask
        pair_traces[frozenset((w, partner))] = doily_trace(ml, w).index
    assert len(pair_traces) == 10
    assert sorted(pair_traces.values()) == sorted(
        {grid(*t).index for t in combinations(S_ELEMENTS, 3)})
    w146 = ml.w_of_label["146"]
    assert doily_trace(ml, w146).name == "g_146"
    assert ml.label_of[complementary_point(ml, w146)] == "235"
    _passed(8, "hyperbolic sector: 9 lines per point, 10 pairs onto the 10 grids, 146/235 -> g_146")


def test_criterion_09_elliptic_sector():
    ml = build_magic_line()
    off = [w for w in ml.q_minus.w_points if w not in ml.core_set]
    assert len(off) == 12
    struct = ml.q_minus.structure
    for w in off:
        local = ml.q_minus.local_index(w)
        through = struct.lines_through[local]
        assert len(through) == 5
        mine = ml.label_of[w]
        primed = mine.endswith("'")
        for idx in through:
            labels = {ml.label_of[ml.q_minus.w_points[q]] for q in struct.lines[idx]}
            others = labels - {mine}
            duad = [lab for lab in others if len(lab) == 2 and not lab.endswith("'")]
            partner = [lab for lab in others if lab not in duad]
            assert len(duad) == 1 and len(partner) == 1
            # {i, j', ij}: the partner carries the opposite priming
            assert partner[0].endswith("'") != primed
            i = int(mine.rstrip("'"))
            j = int(partner[0].rstrip("'"))
            assert label_elements(duad[0]) == {i, j}
    pair_traces = {}
    for w in off:
        partner = complementary_point(ml, w)
        assert doily_trace(ml, w).mask == doily_trace(ml, partner).mask
        pair_traces[frozenset((w, partner))] = doily_trace(ml, w).index
    assert len(pair_traces) == 6
    assert sorted(t[0] for t in pair_traces.values()) == list(S_ELEMENTS)
    w3 = ml.w_of_label["3"]
    w3p = ml.w_of_label["3'"]
    assert complementary_point(ml, w3) == w3p
    assert doily_trace(ml, w3).name == "o_3"
    assert doily_trace(ml, w3p).name == "o_3"
    _passed(9, "elliptic sector: lines {i, j', ij}, 6 pairs onto the 6 ovoids, 3/3' -> o_3")


def test_criterion_10_cone_sector():
    ml = build_magic_line()
    off = [w for w in ml.cone.w_points
           if w not in ml.core_set and w != ml.nucleus_w]
    assert len(off) == 15
    seen = {}
    for w in off:
        trace = doily_trace(ml, w)
        assert trace.kind == PERP_SET
        deep_duad = trace.index
        assert label_elements(ml.label_of[w]) == S_SET - set(deep_duad)
        seen[deep_duad] = w
    assert sorted(seen) == list(DUADS)
    # the vertex lines {123456, klmn, ij} exist in the cone
    struct = ml.cone.structure
    core_point = {d: v for v, d in ml.core_duads.items()}
    for duad, w in seen.items():
        triple = {ml.nucleus_w, w, core_point[duad]}
        locals_ = frozenset(ml.cone.local_index(v) for v in triple)
        assert locals_ in set(struct.lines)
    # nucleus identified as the radical point of the restricted form
    radical = [v for v in ml.cone.w_points
               if all(ml.space.form.evaluate(ml.space.points[v], ml.space.points[u]) == 0
                      for u in ml.cone.w_points)]
    assert radical == [ml.nucleus_w]
    _passed(10, "cone sector: 15 points onto the 15 perp-sets, vertex lines exist, nucleus is the radical")


def test_criterion_11_sector_images():
    ml = build_magic_line()
    vs = build_veldkamp_space(build_doily())
    by_family = Counter()
    for line in vs.lines:
        image = veldkamp_line_image(ml, line)
        assert image_matches_family(image)
        by_family[image.family] += 1
    assert sum(by_family.values()) == 155
    _passed(11, "all 155 Veldkamp lines map to sector images matching their family pattern")


def test_criterion_12_combinatorial_vs_coordinate():
    ml = build_magic_line()
    models = build_sector_models()
    for model, constituent in ((models[HYPERBOLIC_SECTOR], ml.q_plus),
                               (models[ELLIPTIC_SECTOR], ml.q_minus),
                               (models[CONE_SECTOR], ml.cone)):
        mapping = find_isomorphism(model, constituent.structure)
        assert mapping is not None
        image = {frozenset(mapping[p] for p in line) for line in model.lines}
        assert image == set(constituent.structure.lines)
    assert check_gq(models[ELLIPTIC_SECTOR], 2, 4)
    _passed(12, "combinatorial sector models are isomorphic to the coordinate quadrics; elliptic model is GQ(2,4)")


def test_criterion_13_polar_pairs():
    ml = build_magic_line()
    # the pairs are the off quadric points grouped by their trace
    by_trace = {}
    for c in (ml.q_plus, ml.q_minus):
        for w in c.w_points:
            if w not in ml.core_set:
                by_trace.setdefault(doily_trace(ml, w).mask, []).append(w)
    grids = {m: p for m, p in by_trace.items() if classify_hyperplane(m).kind == GRID}
    ovoids = {m: p for m, p in by_trace.items() if classify_hyperplane(m).kind == OVOID}
    assert len(grids) == 10 and len(ovoids) == 6
    for m, (a, b) in grids.items():
        report = polar_pair_check(ml, a, b)
        assert len(report.mutual_perp_labels) == 9
        assert report.matches_trace
        assert report.trace_name == classify_hyperplane(m).name
        assert report.is_rank_two_polar_space
    for m, (a, b) in ovoids.items():
        report = polar_pair_check(ml, a, b)
        assert len(report.mutual_perp_labels) == 5
        assert report.matches_trace
        assert report.trace_name == classify_hyperplane(m).name
        assert report.induced_line_count == 0
        assert report.is_rank_one_polar_space
    _passed(13, "hyperbolic pairs have rank-2 grid perps, elliptic pairs rank-1 ovoid perps")


def test_criterion_14_gamma_spaces():
    ml = build_magic_line()
    assert check_gamma_space(build_doily())
    assert check_gamma_space(ml.q_plus.structure)
    assert check_gamma_space(ml.q_minus.structure)
    assert check_gamma_space(ml.core_structure)
    assert check_gamma_space(build_w52().structure)
    _passed(14, "doily, Q+, Q-, core and W(5,2) are all gamma spaces")
