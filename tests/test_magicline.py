"""Tests for W(5,2), the magic Veldkamp line, and the sector correspondences."""

from itertools import combinations

import pytest

from doilyspace.doily import (
    DUADS,
    GRID,
    OVOID,
    PERP_SET,
    S_ELEMENTS,
    S_SET,
    build_doily,
    grid,
    ovoid,
    perp_set,
)
from doilyspace.gf2 import (
    elliptic_form,
    hyperbolic_form,
    polarize,
    projective_points,
    standard_symplectic,
)
from doilyspace.incidence import (
    IncidenceStructure,
    check_gamma_space,
    deep_points_mask,
    perp,
    veldkamp_sum_mask,
)
from doilyspace.magicline import (
    CONE_SECTOR,
    CORE,
    ConsistencyError,
    Constituent,
    ELLIPTIC_SECTOR,
    HYPERBOLIC_SECTOR,
    NUCLEUS_LABEL,
    LineImage,
    build_magic_line,
    build_sector_models,
    build_w52,
    complementary_point,
    doily_trace,
    image_matches_family,
    label_elements,
    polar_pair_check,
    sector_image,
    veldkamp_line_image,
    _certify,
    _constituent,
    _off_traces,
    _trace_hyperplane,
)
from doilyspace.veldkamp import (
    FAMILIES,
    VeldkampLine,
    build_veldkamp_space,
    classify_veldkamp_line,
)


def w_off(ml, constituent):
    return [w for w in constituent.w_points if w not in ml.core_set]


def test_w52_counts():
    space = build_w52()
    assert space.structure.point_count == 63
    assert len(space.structure.lines) == 315
    assert all(space.structure.degree(p) == 15 for p in range(63))


def test_w52_lines_totally_isotropic():
    space = build_w52()
    for line in space.structure.lines:
        for p, q in combinations(sorted(line), 2):
            assert space.form.evaluate(space.points[p], space.points[q]) == 0


def test_w52_matches_the_vector_construction():
    # the line set and labels as built before the forms evaluated int masks:
    # from BinaryVector sums and the coordinate-tuple symplectic form
    space = build_w52()
    points = projective_points(6)
    lines = set()
    for i, j in combinations(range(len(points)), 2):
        x, y = points[i].bits, points[j].bits
        if sum(x[k] & y[k ^ 1] for k in range(6)) % 2 == 0:
            lines.add(frozenset((i, j, (points[i] ^ points[j]).to_int() - 1)))
    assert len(lines) == 315
    assert set(space.structure.lines) == lines
    assert space.points == tuple(v.to_int() for v in points)
    assert space.structure.labels == tuple(str(v) for v in points)


def test_w52_gamma_space():
    assert check_gamma_space(build_w52().structure)


def test_constituent_sizes_and_intersections():
    ml = build_magic_line()
    assert len(ml.q_plus.w_points) == 35
    assert len(ml.q_minus.w_points) == 27
    assert len(ml.cone.w_points) == 31
    assert len(ml.core_w) == 15
    qp, qm, cone = (set(ml.q_plus.w_points), set(ml.q_minus.w_points),
                    set(ml.cone.w_points))
    core = set(ml.core_w)
    assert qp & qm == core and qp & cone == core and qm & cone == core
    assert qp | qm | cone == set(range(63))


def test_cone_is_complement_of_symmetric_difference():
    ml = build_magic_line()
    full = ml.space.structure.full_mask
    qp = sum(1 << w for w in ml.q_plus.w_points)
    qm = sum(1 << w for w in ml.q_minus.w_points)
    cone = sum(1 << w for w in ml.cone.w_points)
    assert veldkamp_sum_mask(full, qp, qm) == cone


def test_sector_sizes():
    ml = build_magic_line()
    assert len(w_off(ml, ml.q_plus)) == 20
    assert len(w_off(ml, ml.q_minus)) == 12
    assert len(w_off(ml, ml.cone)) == 16  # nucleus included


def test_forms_polarize_to_theta():
    ml = build_magic_line()
    theta = standard_symplectic(6).gram()
    assert ml.q_plus_form == hyperbolic_form(6)
    assert ml.q_minus_form == elliptic_form(6)
    assert polarize(ml.q_plus_form).gram == theta
    assert polarize(ml.q_minus_form).gram == theta
    assert ml.cone_form.kind == "degenerate"


def test_constituent_line_counts():
    # derived regression values from the induced-line enumeration
    ml = build_magic_line()
    assert len(ml.q_plus.structure.lines) == 105
    assert len(ml.q_minus.structure.lines) == 45
    assert len(ml.cone.structure.lines) == 75
    assert len(ml.core_structure.lines) == 15


def test_per_point_line_counts():
    ml = build_magic_line()
    for w in w_off(ml, ml.q_plus):
        assert ml.q_plus.structure.degree(ml.q_plus.local_index(w)) == 9
    for w in w_off(ml, ml.q_minus):
        assert ml.q_minus.structure.degree(ml.q_minus.local_index(w)) == 5
    for w in w_off(ml, ml.cone):
        expected = 15 if w == ml.nucleus_w else 7
        assert ml.cone.structure.degree(ml.cone.local_index(w)) == expected


def test_perp_size_in_q_plus():
    ml = build_magic_line()
    struct = ml.q_plus.structure
    for p in range(struct.point_count):
        assert len(perp(struct, p)) == 19


def test_core_isomorphism_carries_lines_onto_synthemes():
    ml = build_magic_line()
    doily = build_doily()
    images = set()
    for line in ml.core_structure.lines:
        images.add(frozenset(DUADS.index(ml.core_duads[ml.core_w[q]]) for q in line))
    assert images == set(doily.lines)
    assert len(images) == 15


def test_nucleus_identification():
    ml = build_magic_line()
    space = ml.space
    n = ml.nucleus_w
    assert ml.label_of[n] == NUCLEUS_LABEL
    assert n not in ml.core_set
    # radical of the ambient form restricted to the cone's span, by exhaustion
    radical = [w for w in ml.cone.w_points
               if all(space.form.evaluate(space.points[w], space.points[v]) == 0
                      for v in ml.cone.w_points)]
    assert radical == [n]
    cone_mask = sum(1 << w for w in ml.cone.w_points)
    assert deep_points_mask(space.structure, cone_mask) == 1 << n
    # the nucleus lies on both quadrics' complements
    assert ml.q_plus_form.evaluate(space.points[n]) == 1
    assert ml.q_minus_form.evaluate(space.points[n]) == 1


def test_labels_cover_everything():
    ml = build_magic_line()
    labels = ml.label_of
    assert len(labels) == 63
    assert len(set(labels.values())) == 63
    sizes = sorted(len(lab.rstrip("'")) for lab in labels.values())
    assert sizes == [1] * 12 + [2] * 15 + [3] * 20 + [4] * 15 + [6]


def test_traces_by_sector():
    ml = build_magic_line()
    for w in w_off(ml, ml.q_plus):
        h = doily_trace(ml, w)
        assert h.kind == GRID and h.size == 9
    for w in w_off(ml, ml.q_minus):
        h = doily_trace(ml, w)
        assert h.kind == OVOID and h.size == 5
    for w in w_off(ml, ml.cone):
        if w == ml.nucleus_w:
            assert doily_trace(ml, w) is None
        else:
            h = doily_trace(ml, w)
            assert h.kind == PERP_SET and h.size == 7


def test_trace_bijections():
    ml = build_magic_line()
    assert sorted(ml.pairs.grid_pairs) == sorted(
        {grid(*t).index for t in combinations(S_ELEMENTS, 3)})
    assert sorted(ml.pairs.ovoid_pairs) == list(S_ELEMENTS)
    assert sorted(ml.pairs.perp_points) == list(DUADS)
    covered = sorted(sum(ml.pairs.grid_pairs.values(), ()))
    assert covered == sorted(w_off(ml, ml.q_plus))
    covered = sorted(sum(ml.pairs.ovoid_pairs.values(), ()))
    assert covered == sorted(w_off(ml, ml.q_minus))
    covered = sorted(ml.pairs.perp_points.values())
    assert covered == sorted(w for w in w_off(ml, ml.cone) if w != ml.nucleus_w)


def test_pair_coherence_and_figure_spot_values():
    ml = build_magic_line()
    for w in w_off(ml, ml.q_plus) + w_off(ml, ml.q_minus):
        partner = complementary_point(ml, w)
        assert partner != w
        assert doily_trace(ml, w).mask == doily_trace(ml, partner).mask
    w146 = ml.w_of_label["146"]
    assert doily_trace(ml, w146).name == "g_146"
    assert ml.label_of[complementary_point(ml, w146)] == "235"
    assert doily_trace(ml, ml.w_of_label["136"]).name == "g_136"
    assert ml.label_of[complementary_point(ml, ml.w_of_label["136"])] == "245"
    assert doily_trace(ml, ml.w_of_label["3"]).name == "o_3"
    assert doily_trace(ml, ml.w_of_label["3'"]).name == "o_3"
    assert complementary_point(ml, ml.w_of_label["3"]) == ml.w_of_label["3'"]
    assert doily_trace(ml, ml.w_of_label["3456"]).name == "p_12"


def test_complementary_point_edge_cases():
    ml = build_magic_line()
    for w in w_off(ml, ml.cone):
        assert complementary_point(ml, w) is None
    with pytest.raises(ValueError):
        complementary_point(ml, ml.core_w[0])
    with pytest.raises(ValueError):
        doily_trace(ml, ml.core_w[0])


def test_complement_is_translation_by_the_nucleus():
    # derived law: the partner of an off quadric point is its sum with the nucleus
    ml = build_magic_line()
    nucleus = ml.space.points[ml.nucleus_w]
    for w in w_off(ml, ml.q_plus) + w_off(ml, ml.q_minus):
        shifted = (ml.space.points[w] ^ nucleus) - 1
        assert complementary_point(ml, w) == shifted


def test_hyperbolic_line_shapes():
    # every line through an off point joins triples X, Y with |X n Y| = 1
    # and the duad (X n Y) u (S \ (X u Y))
    ml = build_magic_line()
    struct = ml.q_plus.structure
    for line in struct.lines:
        ws = [ml.q_plus.w_points[q] for q in line]
        off = [w for w in ws if w not in ml.core_set]
        core = [w for w in ws if w in ml.core_set]
        if not off:
            continue
        assert len(off) == 2 and len(core) == 1
        x = label_elements(ml.label_of[off[0]])
        y = label_elements(ml.label_of[off[1]])
        assert len(x & y) == 1
        assert (x & y) | (S_SET - (x | y)) == set(ml.core_duads[core[0]])


def test_elliptic_line_shapes():
    # every line through an off point has the shape {i, j', ij}
    ml = build_magic_line()
    struct = ml.q_minus.structure
    for line in struct.lines:
        ws = [ml.q_minus.w_points[q] for q in line]
        off = [w for w in ws if w not in ml.core_set]
        core = [w for w in ws if w in ml.core_set]
        if not off:
            continue
        assert len(off) == 2 and len(core) == 1
        labels = sorted(ml.label_of[w] for w in off)
        primed = [lab for lab in labels if lab.endswith("'")]
        plain = [lab for lab in labels if not lab.endswith("'")]
        assert len(primed) == 1 and len(plain) == 1
        i = int(plain[0])
        j = int(primed[0].rstrip("'"))
        assert i != j
        assert set(ml.core_duads[core[0]]) == {i, j}
    # the five lines through point i hit every j' once
    for i in S_ELEMENTS:
        w = ml.w_of_label[f"{i}"]
        local = ml.q_minus.local_index(w)
        others = set()
        for idx in struct.lines_through[local]:
            for q in struct.lines[idx]:
                lab = ml.label_of[ml.q_minus.w_points[q]]
                if lab.endswith("'"):
                    others.add(lab)
        assert others == {f"{j}'" for j in S_ELEMENTS if j != i}


def test_cone_vertex_lines_and_imported_shape():
    ml = build_magic_line()
    struct = ml.cone.structure
    nucleus_local = ml.cone.local_index(ml.nucleus_w)
    vertex_duads = set()
    for idx in struct.lines_through[nucleus_local]:
        ws = [ml.cone.w_points[q] for q in struct.lines[idx]]
        core = [w for w in ws if w in ml.core_set]
        off = [w for w in ws if w not in ml.core_set and w != ml.nucleus_w]
        assert len(core) == 1 and len(off) == 1
        duad = ml.core_duads[core[0]]
        assert label_elements(ml.label_of[off[0]]) == S_SET - set(duad)
        vertex_duads.add(duad)
    assert vertex_duads == set(DUADS)
    # remaining lines pair two off points with the third syntheme duad:
    # {S \ d1, S \ d2, d3} for collinear duads d1, d2, d3
    from doilyspace.doily import SYNTHEMES
    imported = 0
    for line in struct.lines:
        ws = [ml.cone.w_points[q] for q in line]
        if ml.nucleus_w in ws:
            continue
        off = [w for w in ws if w not in ml.core_set]
        core = [w for w in ws if w in ml.core_set]
        if not off:
            continue
        assert len(off) == 2 and len(core) == 1
        d1 = tuple(sorted(S_SET - label_elements(ml.label_of[off[0]])))
        d2 = tuple(sorted(S_SET - label_elements(ml.label_of[off[1]])))
        d3 = ml.core_duads[core[0]]
        assert frozenset((d1, d2, d3)) in SYNTHEMES
        imported += 1
    assert imported == 45


def test_label_complement_laws():
    ml = build_magic_line()
    for _, (w1, w2) in ml.pairs.grid_pairs.items():
        assert label_elements(ml.label_of[w1]) | label_elements(ml.label_of[w2]) == S_SET
        assert not label_elements(ml.label_of[w1]) & label_elements(ml.label_of[w2])
    for duad, w in ml.pairs.perp_points.items():
        assert label_elements(ml.label_of[w]) == S_SET - set(duad)


def test_sector_images_of_all_155_lines():
    ml = build_magic_line()
    vs = build_veldkamp_space(build_doily())
    for line in vs.lines:
        image = veldkamp_line_image(ml, line)
        assert image_matches_family(image)


def test_line_images_fit_exactly_their_own_family():
    ml = build_magic_line()
    vs = build_veldkamp_space(build_doily())
    for line in vs.lines:
        image = veldkamp_line_image(ml, line)
        family = classify_veldkamp_line(line)
        assert image.family == family
        fitting = [f for f in FAMILIES if image_matches_family(LineImage(f, image.members))]
        assert fitting == [family]


def test_trace_rejects_a_wrong_sector_kind():
    ml = build_magic_line()
    w = w_off(ml, ml.q_plus)[0]
    renamed = Constituent(ELLIPTIC_SECTOR, ml.q_plus.w_points, ml.q_plus.structure)
    message = (rf"^elliptic point {ml.label_of[w]} \(W\(5,2\) index {w}\): "
               "its trace must be of kind ovoid, got grid$")
    with pytest.raises(ConsistencyError, match=message):
        _trace_hyperplane(renamed, w, ml.core_duads)


def test_trace_needs_every_off_line_to_meet_the_core():
    ml = build_magic_line()
    w = w_off(ml, ml.q_minus)[0]
    trace = doily_trace(ml, w)
    missing = ml.duad_to_w[trace.duads[0]]
    core_duads = {v: d for v, d in ml.core_duads.items() if v != missing}
    message = (rf"^elliptic point {ml.label_of[w]} \(W\(5,2\) index {w}\): "
               "a line through it must meet the core exactly once, got 0$")
    with pytest.raises(ConsistencyError, match=message):
        _trace_hyperplane(ml.q_minus, w, core_duads)


@pytest.mark.parametrize("sector, label, w", [
    (HYPERBOLIC_SECTOR, "101000", 4),
    (ELLIPTIC_SECTOR, "101100", 12),
    (CONE_SECTOR, "111000", 6),
])
def test_labelling_reports_a_corrupted_core_map(sector, label, w):
    # each labelling pass traces its off points over the coordinate-labelled
    # constituent, as build_magic_line does; the first broken trace is named
    ml = build_magic_line()
    constituent = _constituent(ml.space, sector, ml.constituents[sector].w_points)
    core_duads = dict(ml.core_duads)  # with the duads 12 and 13 exchanged
    core_duads[ml.duad_to_w[(1, 2)]], core_duads[ml.duad_to_w[(1, 3)]] = (1, 3), (1, 2)
    passes = {
        HYPERBOLIC_SECTOR: lambda: _off_traces(constituent, core_duads),
        ELLIPTIC_SECTOR: lambda: _off_traces(constituent, core_duads),
        CONE_SECTOR: lambda: _off_traces(constituent, core_duads, skip=ml.nucleus_w),
    }
    message = (rf"^{sector} point {label} \(W\(5,2\) index {w}\): "
               "its trace is not a hyperplane of the doily$")
    with pytest.raises(ConsistencyError, match=message):
        passes[sector]()


def test_seeds_fix_the_free_choices():
    # swapping every complementary pair at once, or the primed and unprimed
    # classes, keeps each model; the off point with the smallest coordinate
    # label fixes the choice
    ml = build_magic_line()
    coordinates = ml.space.structure.label_of
    seed = min(w_off(ml, ml.q_plus), key=coordinates)
    assert ml.label_of[seed] == "".join(str(e) for e in doily_trace(ml, seed).index)
    assert ml.label_of[seed].startswith("1")
    seed = min(w_off(ml, ml.q_minus), key=coordinates)
    assert not ml.label_of[seed].endswith("'")


@pytest.mark.parametrize("sector, swapped, line", [
    (HYPERBOLIC_SECTOR, ("146", "235"), "12, 135, 235"),
    (ELLIPTIC_SECTOR, ("3", "3'"), "1, 13, 3"),
    (CONE_SECTOR, ("3456", "1234"), "12, 1234, 123456"),
])
def test_certificate_names_a_labelled_line_off_the_model(sector, swapped, line):
    ml = build_magic_line()
    model = getattr(build_sector_models(), sector)
    constituent = ml.constituents[sector]
    _certify(constituent, ml.label_of, model)
    label_of = dict(ml.label_of)  # with two labels of the sector exchanged
    a, b = swapped
    label_of[ml.w_of_label[a]], label_of[ml.w_of_label[b]] = b, a
    message = rf"^{sector} line \{{{line}\}} is not a line of its sector model$"
    with pytest.raises(ConsistencyError, match=message):
        _certify(constituent, label_of, model)


def test_certificate_names_a_model_line_the_quadric_lacks():
    ml = build_magic_line()
    structure = ml.q_minus.structure
    first, *rest = structure.lines
    constituent = Constituent(ml.q_minus.name, ml.q_minus.w_points, IncidenceStructure.from_lines(
        structure.point_count, rest, structure.labels))
    line = ", ".join(sorted(structure.label_of(q) for q in first))
    message = (rf"^elliptic line \{{{line}\}} of the sector model "
               "is missing from the labelled quadric$")
    with pytest.raises(ConsistencyError, match=message):
        _certify(constituent, ml.label_of, build_sector_models().elliptic)


def test_sector_image_spot_values():
    ml = build_magic_line()
    g = build_doily()

    def line_of(h1, h2):
        return VeldkampLine(g, tuple(sorted(
            (h1.mask, h2.mask, veldkamp_sum_mask(g.full_mask, h1.mask, h2.mask)))))

    image = veldkamp_line_image(ml, line_of(ovoid(1), ovoid(2)))
    assert sorted(str(m) for m in image.members) == ["1/1'", "2/2'", "3456"]
    image = veldkamp_line_image(ml, line_of(perp_set(1, 2), perp_set(3, 4)))
    assert sorted(str(m) for m in image.members) == ["1234", "1256", "3456"]
    image = veldkamp_line_image(ml, line_of(ovoid(1), perp_set(2, 3)))
    assert sorted(str(m) for m in image.members) == ["1/1'", "123/456", "1456"]
    assert str(sector_image(ml, ovoid(3))) == "3/3'"
    assert str(sector_image(ml, grid(1, 4, 6))) == "146/235"
    assert str(sector_image(ml, perp_set(1, 2))) == "3456"


def test_polar_pair_reports_hyperbolic():
    ml = build_magic_line()
    for t, (a, b) in ml.pairs.grid_pairs.items():
        report = polar_pair_check(ml, a, b)
        assert not report.pair_collinear
        assert report.matches_trace
        assert len(report.mutual_perp_labels) == 9
        assert report.induced_line_count == 6
        assert report.is_rank_two_polar_space
        assert not report.is_rank_one_polar_space
        assert report.trace_name == grid(*t).name


def test_polar_pair_reports_elliptic():
    ml = build_magic_line()
    for i, (a, b) in ml.pairs.ovoid_pairs.items():
        report = polar_pair_check(ml, a, b)
        assert not report.pair_collinear
        assert report.matches_trace
        assert len(report.mutual_perp_labels) == 5
        assert report.induced_line_count == 0
        assert report.pairwise_non_collinear
        assert report.is_rank_one_polar_space
        assert not report.is_rank_two_polar_space
        assert report.trace_name == f"o_{i}"


def test_polar_pair_errors():
    ml = build_magic_line()
    a, b = ml.pairs.grid_pairs[(1, 2, 3)]
    with pytest.raises(ValueError):
        polar_pair_check(ml, a, a)
    other = ml.pairs.grid_pairs[(1, 2, 4)][0]
    with pytest.raises(ValueError):
        polar_pair_check(ml, a, other)
    cone_point = ml.pairs.perp_points[(1, 2)]
    with pytest.raises(ValueError):
        polar_pair_check(ml, cone_point, ml.nucleus_w)


def test_constituents_are_gamma_spaces():
    ml = build_magic_line()
    assert check_gamma_space(ml.q_plus.structure)
    assert check_gamma_space(ml.q_minus.structure)
    assert check_gamma_space(ml.core_structure)


def test_sector_of():
    ml = build_magic_line()
    assert ml.sector_of(ml.core_w[0]) == CORE
    assert ml.sector_of(ml.nucleus_w) == CONE_SECTOR
    assert ml.sector_of(ml.w_of_label["146"]) == HYPERBOLIC_SECTOR
    assert ml.sector_of(ml.w_of_label["3'"]) == ELLIPTIC_SECTOR
    with pytest.raises(IndexError):
        ml.sector_of(63)
    assert list(ml.constituents) == [HYPERBOLIC_SECTOR, ELLIPTIC_SECTOR, CONE_SECTOR]
    for sector, constituent in ml.constituents.items():
        assert constituent.name == sector
        assert all(ml.constituent_of(w) is constituent for w in w_off(ml, constituent))


def test_construction_is_deterministic():
    from doilyspace.doily import build_doily
    ml = build_magic_line()
    labels = dict(ml.label_of)
    nucleus = ml.nucleus_w
    pairs = dict(ml.pairs.grid_pairs)
    build_magic_line.cache_clear()
    build_w52.cache_clear()
    build_doily.cache_clear()
    rebuilt = build_magic_line()
    assert dict(rebuilt.label_of) == labels
    assert rebuilt.nucleus_w == nucleus
    assert dict(rebuilt.pairs.grid_pairs) == pairs
