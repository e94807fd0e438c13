"""Tests for W(5,2), the magic Veldkamp line, and the sector correspondences."""

import re
from collections import Counter
from itertools import combinations, product

import pytest

from doilyspace import magicline
from doilyspace.doily import (
    DUAD_INDEX,
    DUADS,
    GRID,
    OVOID,
    PERP_SET,
    S_ELEMENTS,
    S_SET,
    all_named_hyperplanes,
    build_doily,
    classify_hyperplane,
    duad_label,
    grid,
    ovoid,
    perp_set,
)
from doilyspace.gf2 import (
    DEGENERATE,
    QuadraticForm,
    SymplecticForm,
    classify_form,
    elliptic_form,
    hyperbolic_form,
    polarize,
    projective_points,
)
from doilyspace.incidence import (
    IncidenceStructure,
    check_gamma_space,
    collinear,
    deep_points_mask,
    mask_of,
    points_of,
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
    SECTOR_KIND,
    LineImage,
    SymplecticSpace,
    build_magic_line,
    build_sector_models,
    build_w52,
    complementary_point,
    doily_trace,
    image_matches_family,
    label_elements,
    polar_pair_check,
    sector_image,
    sector_labels,
    veldkamp_line_image,
    _certify,
    _model_labels,
    _off_traces,
    _perp_trace,
)
from doilyspace.veldkamp import (
    FAMILIES,
    FAMILY_RULES,
    VeldkampLine,
    _member_subsets,
    build_veldkamp_space,
    classify_veldkamp_line,
    family_of,
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
    theta = SymplecticForm(6).gram()
    assert ml.q_plus_form == hyperbolic_form(6)
    assert ml.q_minus_form == elliptic_form(6)
    assert polarize(ml.q_plus_form).gram == theta
    assert polarize(ml.q_minus_form).gram == theta
    assert classify_form(ml.cone_form) == DEGENERATE


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
        assert len(points_of(struct.perp_masks[p])) == 19


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


def test_sector_labels_rule():
    assert sector_labels(ovoid(3)) == ("3", "3'")
    assert sector_labels(grid(1, 4, 6)) == ("146", "235")
    assert sector_labels(grid(2, 3, 5)) == ("146", "235")
    assert sector_labels(perp_set(1, 2)) == ("3456",)
    labels = [lab for h in all_named_hyperplanes() for lab in sector_labels(h)]
    assert len(labels) == len(set(labels)) == 6 * 2 + 10 * 2 + 15


def test_trace_bijections():
    # the off points tracing each hyperplane are exactly those its sector labels name
    ml = build_magic_line()
    for kind, constituent, count in ((GRID, ml.q_plus, 10), (OVOID, ml.q_minus, 6),
                                     (PERP_SET, ml.cone, 15)):
        named = [h for h in all_named_hyperplanes() if h.kind == kind]
        assert len(named) == count
        covered = sorted(ml.w_of_label[lab] for h in named for lab in sector_labels(h))
        assert covered == sorted(w for w in w_off(ml, constituent) if w != ml.nucleus_w)
        for h in named:
            assert all(doily_trace(ml, ml.w_of_label[lab]) == h for lab in sector_labels(h))
    for w, h in ml.traces.items():
        assert ml.label_of[w] in sector_labels(h)


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


def line_walk_trace(space, sector, quadric, w, core_duads):
    """A second method for the trace: walk each line through w inside its
    quadric point by point, and take the one core point it must hold."""
    struct = space.structure
    mask = 0
    for idx in struct.lines_through[w]:
        if struct.line_masks[idx] & ~quadric:
            continue
        core = [v for v in struct.lines[idx] if v in core_duads]
        assert len(core) == 1, f"a line through {w} meets the core {len(core)} times"
        bit = 1 << DUAD_INDEX[core_duads[core[0]]]
        assert not mask & bit, f"the trace points of {w} are not distinct"
        mask |= bit
    h = classify_hyperplane(mask)
    assert h.kind == SECTOR_KIND[sector]
    return h


def duad_bits(core_duads):
    """The W(5,2) index -> duad bit table that _perp_trace reads."""
    return {v: 1 << DUAD_INDEX[d] for v, d in core_duads.items()}


def test_recorded_traces_equal_fresh_traces():
    ml = build_magic_line()
    off = [w for c in ml.constituents.values() for w in w_off(ml, c) if w != ml.nucleus_w]
    assert sorted(ml.traces) == sorted(off) and len(off) == 47
    for w in off:
        c = ml.constituents[ml.sector_of(w)]
        walked = line_walk_trace(ml.space, c.name, c.mask, w, ml.core_duads)
        recorded = doily_trace(ml, w)
        assert recorded is ml.traces[w]
        assert (recorded.mask, recorded.kind, recorded.index) == (
            walked.mask, walked.kind, walked.index)
    with pytest.raises(TypeError):
        ml.traces[off[0]] = ml.traces[off[1]]


def test_complementary_points_differ_by_the_nucleus_coordinates():
    # the two points tracing one hyperplane lie on a line of PG(5,2) with the
    # nucleus: x' = x + n in coordinates, for all 32 hyperbolic and elliptic
    # off points
    ml = build_magic_line()
    points = ml.space.points
    off = [w for c in (ml.q_plus, ml.q_minus) for w in w_off(ml, c)]
    assert len(off) == 32
    for w in off:
        partner = points.index(points[w] ^ points[ml.nucleus_w])
        assert complementary_point(ml, w) == partner


def test_doily_trace_errors_are_unchanged():
    ml = build_magic_line()
    assert doily_trace(ml, ml.nucleus_w) is None
    for w in ml.core_w:
        message = rf"^point {w} lies on the core doily and has no trace$"
        with pytest.raises(ValueError, match=message):
            doily_trace(ml, w)
    for w in (-1, 63):
        with pytest.raises(IndexError, match=rf"^point index {w} out of range \(0\.\.62\)$"):
            doily_trace(ml, w)


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
    for w1 in w_off(ml, ml.q_plus):
        w2 = complementary_point(ml, w1)
        assert label_elements(ml.label_of[w1]) | label_elements(ml.label_of[w2]) == S_SET
        assert not label_elements(ml.label_of[w1]) & label_elements(ml.label_of[w2])
    for w in w_off(ml, ml.cone):
        if w != ml.nucleus_w:
            duad = doily_trace(ml, w).index
            assert label_elements(ml.label_of[w]) == S_SET - set(duad)


def test_sector_images_of_all_155_lines():
    ml = build_magic_line()
    vs = build_veldkamp_space(build_doily())
    for line in vs.lines:
        image = veldkamp_line_image(ml, line)
        assert image_matches_family(image)


def _image_reading(image):
    """A line image's members as (kind, subsets of S) pairs, read from their sectors."""
    return [(SECTOR_KIND[m.sector], m.subsets) for m in image.members]


def _fitting_families(members):
    """Every family whose counts and rule in FAMILY_RULES the members fit."""
    o, p, g = ([s for k, s in members if k == kind] for kind in (OVOID, PERP_SET, GRID))
    return [f for f, (counts, rule) in FAMILY_RULES.items()
            if counts == (len(o), len(p), len(g)) and rule(o, p, g)]


def test_line_images_fit_exactly_their_own_family():
    # every family's counts and rule run on both readings of each line, so a
    # rule that also accepted the lines of another family fails here, although
    # family_of, which stops at the first fit, would still answer right
    ml = build_magic_line()
    vs = build_veldkamp_space(build_doily())
    for line in vs.lines:
        image = veldkamp_line_image(ml, line)
        family = classify_veldkamp_line(line)
        assert image.family == family
        from_masks = [_member_subsets(classify_hyperplane(m)) for m in line.members]
        from_images = _image_reading(image)
        assert _fitting_families(from_masks) == _fitting_families(from_images) == [family]
        fitting = [f for f in FAMILIES if image_matches_family(LineImage(f, image.members))]
        assert fitting == [family]


def test_image_matches_family_rejects_an_unknown_family():
    ml = build_magic_line()
    image = veldkamp_line_image(ml, build_veldkamp_space(build_doily()).lines[0])
    with pytest.raises(KeyError, match="^'perp-perp'$"):
        image_matches_family(LineImage("perp-perp", image.members))


def test_mask_and_sector_image_readings_agree_member_by_member():
    # classify_veldkamp_line reads a line's members from their masks and
    # image_matches_family from their sector images; both hand family_of
    # the same (kind, subsets) pairs, member by member
    ml = build_magic_line()
    for line in build_veldkamp_space(build_doily()).lines:
        from_masks = [_member_subsets(classify_hyperplane(m)) for m in line.members]
        assert _image_reading(veldkamp_line_image(ml, line)) == from_masks
        assert family_of(from_masks) == classify_veldkamp_line(line)


def _tracers(ml):
    """Doily hyperplane mask -> the off points tracing it: two for a grid or
    an ovoid, one for a perp-set (the nucleus traces no single hyperplane)."""
    tracers = {}
    for w, h in ml.traces.items():
        tracers.setdefault(h.mask, []).append(w)
    return tracers


def _transversal_sums(ml, tracers, members):
    """Each transversal (one tracing point per member) with the XOR of its coordinates."""
    coords = ml.space.points
    return [(t, coords[t[0]] ^ coords[t[1]] ^ coords[t[2]])
            for t in product(*(tracers[m] for m in members))]


def test_transversals_in_w52_tell_the_family_without_labels():
    # a second reading of the paper's model: from W(5,2)'s coordinates and
    # lines alone, with no label and no family rule, a line's family is its
    # members' sectors and how its transversals sum
    ml = build_magic_line()
    tracers = _tracers(ml)
    w_lines = set(ml.space.structure.line_masks)
    nucleus = ml.space.points[ml.nucleus_w]
    keys = Counter()
    for line in build_veldkamp_space(build_doily()).lines:
        sums = _transversal_sums(ml, tracers, line.members)
        assert {x for _, x in sums} <= {0, nucleus}
        closed = [t for t, x in sums if x == 0]
        on_lines = sum(mask_of(t) in w_lines for t in closed)
        sectors = tuple(sorted(ml.sector_of(tracers[m][0]) for m in line.members))
        keys[sectors, len(closed), on_lines, classify_veldkamp_line(line)] += 1
    cone, ell, hyp = CONE_SECTOR, ELLIPTIC_SECTOR, HYPERBOLIC_SECTOR
    assert keys == {
        ((cone, ell, ell), 2, 0, "ovoid-ovoid-perp"): 15,
        ((cone, ell, hyp), 2, 2, "ovoid-perp-grid"): 60,
        ((cone, hyp, hyp), 2, 0, "perp-grid-grid"): 45,
        ((cone, cone, cone), 0, 0, "perp-perp-perp-disjoint"): 15,
        ((cone, cone, cone), 1, 0, "perp-perp-perp-triangle"): 20,
    }


def test_only_veldkamp_lines_have_a_transversal_summing_to_zero_or_the_nucleus():
    ml = build_magic_line()
    tracers = _tracers(ml)
    nucleus = ml.space.points[ml.nucleus_w]
    triples = list(combinations(sorted(tracers), 3))
    assert len(triples) == 4495
    hit = {members for members in triples
           if any(x in (0, nucleus) for _, x in _transversal_sums(ml, tracers, members))}
    assert hit == {line.members for line in build_veldkamp_space(build_doily()).lines}


def test_trace_rejects_a_wrong_sector_kind():
    ml = build_magic_line()
    w = w_off(ml, ml.q_plus)[0]
    message = (rf"^elliptic point {ml.space.structure.label_of(w)} \(W\(5,2\) index {w}\): "
               "its trace must be of kind ovoid, got grid$")
    with pytest.raises(ConsistencyError, match=message):
        _perp_trace(ml.space, ELLIPTIC_SECTOR, ml.q_plus.mask, mask_of(ml.core_w),
                    duad_bits(ml.core_duads), w)


def test_trace_needs_every_off_line_to_meet_the_core():
    # without one of its core points the trace of an elliptic point has 4
    # points, while 5 lines through it lie in Q-
    ml = build_magic_line()
    w = w_off(ml, ml.q_minus)[0]
    trace = doily_trace(ml, w)
    missing = ml.w_of_label[duad_label(trace.duads[0])]
    bits = {v: bit for v, bit in duad_bits(ml.core_duads).items() if v != missing}
    message = (rf"^elliptic point {ml.space.structure.label_of(w)} \(W\(5,2\) index {w}\): "
               "its trace must have one point on each of the 5 lines through it inside "
               "its quadric, got 4$")
    with pytest.raises(ConsistencyError, match=message):
        _perp_trace(ml.space, ELLIPTIC_SECTOR, ml.q_minus.mask, mask_of(bits), bits, w)


def test_trace_needs_distinct_duads_for_its_core_points():
    # a table giving two core points of the perp one duad bit loses a trace
    # point, which the line count catches before the hyperplane check
    ml = build_magic_line()
    w = w_off(ml, ml.q_minus)[0]
    first, second = (ml.w_of_label[duad_label(d)] for d in doily_trace(ml, w).duads[:2])
    bits = duad_bits(ml.core_duads)
    bits[second] = bits[first]
    message = (rf"^elliptic point {ml.space.structure.label_of(w)} \(W\(5,2\) index {w}\): "
               "its trace must have one point on each of the 5 lines through it inside "
               "its quadric, got 4$")
    with pytest.raises(ConsistencyError, match=message):
        _perp_trace(ml.space, ELLIPTIC_SECTOR, ml.q_minus.mask, mask_of(bits), bits, w)


@pytest.mark.parametrize("sector, label, w", [
    (HYPERBOLIC_SECTOR, "101000", 4),
    (ELLIPTIC_SECTOR, "101100", 12),
    (CONE_SECTOR, "111000", 6),
])
def test_labelling_reports_a_corrupted_core_map(sector, label, w):
    # each labelling pass traces its off points over W(5,2), as
    # build_magic_line does; the first broken trace is named by coordinates
    ml = build_magic_line()
    quadric = mask_of(ml.constituents[sector].w_points)
    core_duads = dict(ml.core_duads)  # with the duads 12 and 13 exchanged
    core_duads[ml.w_of_label["12"]], core_duads[ml.w_of_label["13"]] = (1, 3), (1, 2)
    skip = ml.nucleus_w if sector == CONE_SECTOR else None
    message = (rf"^{sector} point {label} \(W\(5,2\) index {w}\): "
               "its trace is not a hyperplane of the doily$")
    with pytest.raises(ConsistencyError, match=message):
        _off_traces(ml.space, sector, quadric, duad_bits(core_duads), skip=skip)


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


@pytest.mark.parametrize("sector", [HYPERBOLIC_SECTOR, ELLIPTIC_SECTOR])
def test_any_seed_leaves_one_label_of_each_trace_collinear_with_it(sector):
    # the labeller's condition: whichever hyperplane of the sector's kind the
    # seed traces, exactly one of the two labels of every such hyperplane is
    # collinear in the model with the seed's first label
    model = build_sector_models()[sector]
    index = {lab: k for k, lab in enumerate(model.labels)}
    traces = [h for h in all_named_hyperplanes() if h.kind == SECTOR_KIND[sector]]
    for seed in traces:
        seed_label = index[sector_labels(seed)[0]]
        for h in traces:
            assert [collinear(model, seed_label, index[lab])
                    for lab in sector_labels(h)].count(True) == 1


def test_a_cone_point_takes_its_only_label_whatever_the_model_says():
    # a cone model without off-lines makes no off point collinear with the
    # seed, while W(5,2) does; each point still gets its one label, and
    # _certify is left to reject the labelling
    ml = build_magic_line()
    traces = {w: h for w, h in ml.traces.items() if ml.sector_of(w) == CONE_SECTOR}
    seed = min(traces, key=ml.space.structure.label_of)
    assert any(collinear(ml.space.structure, seed, w) for w in traces if w != seed)
    labels = build_sector_models()[CONE_SECTOR].labels
    no_off_lines = IncidenceStructure(len(labels), build_doily().lines, labels)
    assert _model_labels(ml.space, traces, no_off_lines) == {w: ml.label_of[w] for w in traces}


def named(ml, *points):
    return ", ".join(f"{ml.space.structure.label_of(w)} (W(5,2) index {w})" for w in points)


def with_ambient_evaluate(monkeypatch, evaluate):
    # W(5,2) whose form keeps its Gram matrix but pairs points by evaluate
    space = build_w52()
    form = SymplecticForm(6)
    form.evaluate = evaluate
    monkeypatch.setattr(magicline, "build_w52",
                        lambda: SymplecticSpace(form, space.points, space.structure))


def test_construction_names_the_points_of_a_wrong_radical(monkeypatch):
    ml = build_magic_line()
    with_ambient_evaluate(monkeypatch, lambda x, y: 0)
    message = ("^radical of the form restricted to the cone span must be one point, "
               f"got {re.escape(named(ml, *ml.cone.w_points))}$")
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


def test_construction_names_a_nucleus_on_the_core(monkeypatch):
    ml = build_magic_line()
    on_core = ml.core_w[0]
    with_ambient_evaluate(monkeypatch, lambda x, y: int(x != on_core + 1))
    message = f"^nucleus {re.escape(named(ml, on_core))} must lie off the core$"
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


def test_construction_names_the_deep_points_of_the_cone(monkeypatch):
    ml = build_magic_line()
    other = next(w for w in ml.cone.w_points if w != ml.nucleus_w)
    deep = sorted((ml.nucleus_w, other))
    monkeypatch.setattr(magicline, "deep_points_mask", lambda g, m: mask_of(deep))
    message = (f"^nucleus {re.escape(named(ml, ml.nucleus_w))} must be the unique deep "
               f"point of the cone hyperplane, got {re.escape(named(ml, *deep))}$")
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


@pytest.mark.parametrize("sector, swapped, line", [
    (HYPERBOLIC_SECTOR, ("146", "235"), "12, 135, 235"),
    (ELLIPTIC_SECTOR, ("3", "3'"), "1, 13, 3"),
    (CONE_SECTOR, ("3456", "1234"), "12, 1234, 123456"),
])
def test_certificate_names_a_labelled_line_off_the_model(sector, swapped, line):
    ml = build_magic_line()
    model = build_sector_models()[sector]
    constituent = ml.constituents[sector]
    _certify(constituent, model)
    structure = constituent.structure
    labels = list(structure.labels)  # with two labels of the sector exchanged
    i, j = map(labels.index, swapped)
    labels[i], labels[j] = labels[j], labels[i]
    relabelled = Constituent(sector, constituent.w_points, IncidenceStructure(
        structure.point_count, structure.lines, labels))
    message = rf"^{sector} line \{{{line}\}} is not a line of its sector model$"
    with pytest.raises(ConsistencyError, match=message):
        _certify(relabelled, model)


def test_construction_certifies_the_polarization(monkeypatch):
    # x1x3 + x2x4 + x5x6 is hyperbolic with the 35 zeros of Q+, but it
    # polarizes to a form pairing (1,3), (2,4), (5,6): not W(5,2)'s form
    wrong = QuadraticForm(6, {(0, 2), (1, 3), (4, 5)})
    assert classify_form(wrong) == "hyperbolic" and len(wrong.zero_points()) == 35
    monkeypatch.setattr(magicline, "hyperbolic_form", lambda dim: wrong)
    message = "^Q\\+ and Q- must polarize to the standard alternating form$"
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


def test_construction_certifies_the_elliptic_kind(monkeypatch):
    # Q+ + x1^2 = Q+ + theta(e2, x), and Q+(e2) = 0: a hyperbolic form with
    # 35 zeros polarizing to theta, so only the kind check tells it from Q-
    wrong = hyperbolic_form(6) + QuadraticForm(6, {(0, 0)})
    assert polarize(wrong).gram == SymplecticForm(6).gram()
    assert classify_form(wrong) == "hyperbolic" and len(wrong.zero_points()) == 35
    monkeypatch.setattr(magicline, "elliptic_form", lambda dim: wrong)
    with pytest.raises(ConsistencyError, match="^Q- must be an elliptic quadric, got hyperbolic$"):
        build_magic_line.__wrapped__()


def test_construction_certifies_the_hyperbolic_kind(monkeypatch):
    monkeypatch.setattr(magicline, "hyperbolic_form", elliptic_form)
    message = "^Q\\+ must be a hyperbolic quadric, got elliptic$"
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


@pytest.mark.parametrize("name, size", [("Q+", 35), ("Q-", 27), ("cone", 31)])
def test_construction_certifies_each_member_is_a_hyperplane(monkeypatch, name, size):
    real = magicline.is_geometric_hyperplane
    monkeypatch.setattr(magicline, "is_geometric_hyperplane",
                        lambda g, m: m.bit_count() != size and real(g, m))
    message = rf"^{re.escape(name)} must be a geometric hyperplane of W\(5,2\)$"
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


def test_construction_certifies_the_veldkamp_line(monkeypatch):
    ml = build_magic_line()
    calls = []
    monkeypatch.setattr(magicline, "VeldkampLine", lambda g, members: calls.append((g, members)))
    build_magic_line.__wrapped__()
    masks = (mask_of(c.w_points) for c in (ml.q_plus, ml.q_minus, ml.cone))
    assert calls == [(ml.space.structure, tuple(sorted(masks)))]

    def reject(geometry, members):
        raise ValueError("members are not closed under the Veldkamp sum")

    monkeypatch.setattr(magicline, "VeldkampLine", reject)
    message = r"^Q\+, Q- and the cone must form a line of the Veldkamp space of W\(5,2\)$"
    with pytest.raises(ConsistencyError, match=message):
        build_magic_line.__wrapped__()


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
        _certify(constituent, build_sector_models()[ELLIPTIC_SECTOR])


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


def labelled_pairs(ml, kind):
    return [(h, *(ml.w_of_label[lab] for lab in sector_labels(h)))
            for h in all_named_hyperplanes() if h.kind == kind]


def test_polar_pair_reports_hyperbolic():
    ml = build_magic_line()
    for h, a, b in labelled_pairs(ml, GRID):
        report = polar_pair_check(ml, a, b)
        assert not report.pair_collinear
        assert report.matches_trace
        assert len(report.mutual_perp_labels) == 9
        assert report.induced_line_count == 6
        assert report.is_rank_two_polar_space
        assert not report.is_rank_one_polar_space
        assert report.trace_name == h.name


def test_polar_pair_reports_elliptic():
    ml = build_magic_line()
    for h, a, b in labelled_pairs(ml, OVOID):
        report = polar_pair_check(ml, a, b)
        assert not report.pair_collinear
        assert report.matches_trace
        assert len(report.mutual_perp_labels) == 5
        assert report.induced_line_count == 0
        assert report.pairwise_non_collinear
        assert report.is_rank_one_polar_space
        assert not report.is_rank_two_polar_space
        assert report.trace_name == h.name


def local_polar_report(ml, a, b):
    """The report polar_pair_check must give, computed in the constituent's
    local indices with collinearity read off its own lines."""
    c = ml.constituents[ml.sector_of(a)]
    struct = c.structure

    def perp_of(x):
        return {x} | {y for line in struct.lines if x in line for y in line}

    mutual = sorted(perp_of(c.local_index(a)) & perp_of(c.local_index(b)))
    inside = [line for line in struct.lines if line <= set(mutual)]
    trace = doily_trace(ml, a)
    return {
        "sector": c.name,
        "pair_labels": (ml.label_of[a], ml.label_of[b]),
        "pair_collinear": c.local_index(b) in perp_of(c.local_index(a)),
        "mutual_perp_labels": tuple(struct.labels[x] for x in mutual),
        "trace_name": trace.name,
        "matches_trace": ({struct.labels[x] for x in mutual}
                          == {duad_label(d) for d in trace.duads}),
        "induced_line_count": len(inside),
        "every_point_on_induced_line": all(any(x in line for line in inside) for x in mutual),
        "has_universal_point": any(set(mutual) <= perp_of(x) for x in mutual),
        "pairwise_non_collinear": all(perp_of(x) & set(mutual) == {x} for x in mutual),
    }


def test_polar_pair_reports_match_the_constituent_local_oracle():
    # the check reads W(5,2)'s perps and lines cut to the quadric's mask
    ml = build_magic_line()
    pairs = labelled_pairs(ml, GRID) + labelled_pairs(ml, OVOID)
    assert len(pairs) == 16
    for _, a, b in pairs:
        for p, q in ((a, b), (b, a)):
            assert vars(polar_pair_check(ml, p, q)) == local_polar_report(ml, p, q)


def test_polar_pair_errors():
    ml = build_magic_line()
    a = ml.w_of_label["123"]
    with pytest.raises(ValueError):
        polar_pair_check(ml, a, a)
    other = ml.w_of_label["124"]
    with pytest.raises(ValueError):
        polar_pair_check(ml, a, other)
    cone_point = ml.w_of_label["3456"]
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
        assert all(ml.constituents[ml.sector_of(w)] is constituent
                   for w in w_off(ml, constituent))


@pytest.mark.parametrize("bad", [1.5, True, "3", None])
def test_point_arguments_must_be_ints(bad):
    ml = build_magic_line()
    message = rf"^point index must be an int, got {type(bad).__name__}$"
    one, one_prime = ml.w_of_label["1"], ml.w_of_label["1'"]  # a complementary pair
    for call in (lambda: ml.sector_of(bad), lambda: doily_trace(ml, bad),
                 lambda: complementary_point(ml, bad), lambda: polar_pair_check(ml, bad, bad),
                 lambda: polar_pair_check(ml, one_prime, bad),
                 lambda: polar_pair_check(ml, bad, one)):
        with pytest.raises(TypeError, match=message):
            call()


def test_magic_line_records_are_plain_data():
    ml = build_magic_line()
    assert {"core_set", "constituents"} <= set(vars(ml))
    assert ml.core_set == frozenset(ml.core_w)
    for c in ml.constituents.values():
        assert vars(c)["mask"] == mask_of(c.w_points)
        assert all(c.local_index(w) == k for k, w in enumerate(c.w_points))


def test_construction_is_deterministic():
    from doilyspace.doily import build_doily
    ml = build_magic_line()
    labels = dict(ml.label_of)
    nucleus = ml.nucleus_w
    traces = dict(ml.traces)
    build_magic_line.cache_clear()
    build_w52.cache_clear()
    build_doily.cache_clear()
    rebuilt = build_magic_line()
    assert dict(rebuilt.label_of) == labels
    assert rebuilt.nucleus_w == nucleus
    assert dict(rebuilt.traces) == traces
