"""Tests for the generic incidence machinery."""

import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilyspace import incidence
from doilyspace.doily import DUAD_INDEX, build_doily, grid, ovoid, perp_set
from doilyspace.gf2 import QuadraticForm, SymplecticForm, projective_points
from doilyspace.incidence import (
    CapacityError,
    IncidenceStructure,
    check_gamma_space,
    check_gq,
    collinear,
    deep_points_mask,
    enumerate_hyperplanes,
    find_isomorphism,
    has_triangle,
    induced_substructure,
    is_geometric_hyperplane,
    is_isomorphism,
    mask_of,
    null_space_hyperplanes,
    points_of,
)
from doilyspace.magicline import build_magic_line, build_w52

SINGLE_LINE = IncidenceStructure.from_lines(3, [[0, 1, 2]])
GRID9 = IncidenceStructure.from_lines(
    9, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]])


def test_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure(3, (frozenset({0}),))
    with pytest.raises(ValueError):
        IncidenceStructure(3, (frozenset({0, 5}),))
    with pytest.raises(ValueError):
        IncidenceStructure(3, (frozenset({0, 1}),), labels=("a",))
    # a repeated line is dropped, and a line of any iterable type is converted
    # to the frozenset of its points, so each geometry has one value
    g = IncidenceStructure(3, (frozenset({0, 1}), frozenset({1, 0})))
    assert g.lines == (frozenset({0, 1}),) and g.line_masks == (0b011,)
    for line in [(0, 1, 2), [2, 1, 0], {0, 1, 2}, range(3)]:
        assert IncidenceStructure(3, [line]) == SINGLE_LINE
    g = IncidenceStructure(3, [(1, 2), frozenset({0, 1}), [2, 1]])
    assert g.lines == (frozenset({0, 1}), frozenset({1, 2}))
    mapping = find_isomorphism(g, g)
    assert mapping == {0: 0, 1: 1, 2: 2} and is_isomorphism(g, g, mapping)


@pytest.mark.parametrize("images, kind", [
    ({1: 1.0}, "float"), ({1: True}, "bool"), ({1: "1"}, "str"),
    # every point to the float equal to it
    ({p: float(p) for p in range(15)}, "float"),
], ids=["float", "bool", "str", "all-float"])
def test_isomorphism_check_rejects_a_non_int_image(images, kind):
    g = build_doily()
    mapping = {p: p for p in range(g.point_count)} | images
    with pytest.raises(TypeError, match=rf"^mapping value must be an int, got {kind}$"):
        is_isomorphism(g, g, mapping)


def test_lines_and_labels_are_stored_as_tuples():
    line = frozenset({0, 1, 2})
    from_list = IncidenceStructure(3, [line], ["a", "b", "c"])
    from_tuple = IncidenceStructure(3, (line,), ("a", "b", "c"))
    assert from_list.lines == (line,) and from_list.labels == ("a", "b", "c")
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    d = build_doily()
    rebuilt = IncidenceStructure(15, list(d.lines), d.labels)
    assert rebuilt == d and hash(rebuilt) == hash(d)
    # the lines come out in the order of their ascending point tuples,
    # whatever order they came in
    shuffled = list(d.lines)
    random.Random(7).shuffle(shuffled)
    assert IncidenceStructure(15, shuffled, d.labels) == d
    assert list(d.lines) == sorted(d.lines, key=sorted)
    assert IncidenceStructure.from_lines(15, shuffled, d.labels) == d


def test_from_lines_rejects_a_line_that_names_a_point_twice():
    with pytest.raises(ValueError, match=re.escape("line [0, 0, 1] names a point twice")):
        IncidenceStructure.from_lines(3, [[0, 0, 1]])
    with pytest.raises(ValueError, match=re.escape("line [2, 1, 2] names a point twice")):
        IncidenceStructure.from_lines(3, [[0, 1, 2], (p for p in (2, 1, 2))])
    assert IncidenceStructure.from_lines(3, [[0, 1]]).lines == (frozenset({0, 1}),)


def test_an_error_raised_while_iterating_a_line_is_kept():
    # only a line that cannot be iterated is named as such
    def points():
        yield 0
        raise TypeError("from inside the line")

    with pytest.raises(TypeError, match="^from inside the line$"):
        IncidenceStructure(3, [[1, 2], points()])


@pytest.mark.parametrize("count", [-1, 2.5, "3", None, True])
def test_point_count_must_be_a_non_negative_int(count):
    with pytest.raises(ValueError, match=re.escape(f"point count {count!r} is not a non-negative int")):
        IncidenceStructure(count, ())


def test_collinear_examples():
    g = build_doily()
    assert collinear(g, DUAD_INDEX[(1, 2)], DUAD_INDEX[(3, 4)])
    # duads sharing a letter never lie in a common syntheme
    assert not collinear(g, DUAD_INDEX[(1, 2)], DUAD_INDEX[(1, 3)])
    assert collinear(g, 4, 4)
    with pytest.raises(IndexError):
        collinear(g, 0, 99)


def test_perp_examples():
    g = build_doily()
    expected = {DUAD_INDEX[d]
                for d in [(1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]}
    assert set(points_of(g.perp_masks[DUAD_INDEX[(1, 2)]])) == expected
    assert points_of(SINGLE_LINE.perp_masks[0]) == (0, 1, 2)


def test_perp_symmetry():
    g = build_doily()
    for p in range(g.point_count):
        for q in range(g.point_count):
            assert (q in points_of(g.perp_masks[p])) == (p in points_of(g.perp_masks[q]))


def test_is_geometric_hyperplane():
    g = build_doily()
    assert is_geometric_hyperplane(g, ovoid(1).mask)
    # the full point set satisfies the predicate (excluded from enumeration)
    assert is_geometric_hyperplane(g, g.full_mask)
    assert not is_geometric_hyperplane(g, g.line_masks[0])
    assert not is_geometric_hyperplane(g, 0)
    assert is_geometric_hyperplane(g, mask_of(DUAD_INDEX[(1, j)] for j in range(2, 7)))


@pytest.mark.parametrize("subset", [
    [DUAD_INDEX[(1, j)] for j in range(2, 7)], {DUAD_INDEX[(1, j)] for j in range(2, 7)},
    frozenset(), (0, 1), True, False,
], ids=["list", "set", "frozenset", "tuple", "True", "False"])
def test_is_geometric_hyperplane_takes_int_masks_only(subset):
    message = f"^subset must be an int mask, got {type(subset).__name__}$"
    with pytest.raises(TypeError, match=message):
        is_geometric_hyperplane(build_doily(), subset)


def test_subsets_outside_the_point_set_are_not_hyperplanes():
    # every line lies inside a mask with bits beyond the points or a negative one
    g = build_doily()
    for mask in (-1, g.full_mask | 1 << 20):
        assert not is_geometric_hyperplane(g, mask)
    assert not is_geometric_hyperplane(g, 1 << 99)
    assert not is_geometric_hyperplane(g, ovoid(1).mask | 1 << 99)


def test_negative_point_indices_are_named():
    with pytest.raises(ValueError, match="^point index -1 is negative$"):
        mask_of([-1])
    with pytest.raises(ValueError, match="^point index -3 is negative$"):
        mask_of([2, -3])


@pytest.mark.parametrize("p", [True, 1.0])
def test_mask_of_rejects_a_non_int_point(p):
    # True is not read as point 1
    with pytest.raises(TypeError, match=rf"^point index must be an int, got {type(p).__name__}$"):
        mask_of([2, p])


def test_enumerate_hyperplanes_doily():
    g = build_doily()
    hyperplanes = enumerate_hyperplanes(g)
    assert len(hyperplanes) == 31 and hyperplanes == sorted(hyperplanes)
    sizes = sorted(h.bit_count() for h in hyperplanes)
    assert sizes == [5] * 6 + [7] * 15 + [9] * 10
    for h in hyperplanes:
        for lm in g.line_masks:
            assert bin(lm & h).count("1") in (1, 3)


def test_enumerate_hyperplanes_single_line():
    hyperplanes = enumerate_hyperplanes(SINGLE_LINE)
    assert hyperplanes == [1, 2, 4]


def test_enumerate_hyperplanes_grid():
    # regression value from this exhaustive scan: 9 perps and 6 transversals
    hyperplanes = enumerate_hyperplanes(GRID9)
    assert len(hyperplanes) == 15
    assert sorted(h.bit_count() for h in hyperplanes) == [3] * 6 + [5] * 9


def test_enumerate_capacity_limit():
    big = IncidenceStructure.from_lines(26, [[0, 1, 2]])
    with pytest.raises(CapacityError):
        enumerate_hyperplanes(big)


def _pg32():
    points = projective_points(4)
    lines = {frozenset((i, j, (points[i] ^ points[j]).to_int() - 1))
             for i, j in combinations(range(15), 2)}
    return IncidenceStructure.from_lines(15, lines)


@pytest.mark.parametrize("g", [build_doily(), GRID9, SINGLE_LINE, _pg32()],
                         ids=["doily", "grid9", "single_line", "pg32"])
def test_null_space_matches_scan(g):
    assert null_space_hyperplanes(g) == enumerate_hyperplanes(g)


def test_null_space_pg32_hyperplanes_are_planes():
    hyperplanes = null_space_hyperplanes(_pg32())
    assert len(hyperplanes) == 15
    assert {h.bit_count() for h in hyperplanes} == {7}


@st.composite
def three_per_line_geometries(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    triples = list(combinations(range(n), 3))
    lines = draw(st.lists(st.sampled_from(triples), max_size=12))
    return IncidenceStructure.from_lines(n, lines)


@settings(max_examples=60, deadline=None)
@given(three_per_line_geometries())
def test_null_space_agrees_with_scan_on_random_geometries(g):
    assert null_space_hyperplanes(g) == enumerate_hyperplanes(g)


# hyperplane count and sizes {size: how many}: the doily's 6 ovoids, 15
# perp-sets and 10 grids; W(5,2)'s 28 elliptic quadrics, 63 perp-sets and
# 36 hyperbolic quadrics
HYPERPLANE_SIZES = {
    "doily": (31, {5: 6, 7: 15, 9: 10}),
    "w52": (127, {27: 28, 31: 63, 35: 36}),
    "q_plus": (63, {15: 28, 19: 35}),
    "q_minus": (63, {11: 27, 15: 36}),
    "cone": (63, {11: 6, 15: 47, 19: 10}),
}


def _named_geometry(name: str) -> IncidenceStructure:
    if name == "doily":
        return build_doily()
    if name == "w52":
        return build_w52().structure
    ml = build_magic_line()
    return {"q_plus": ml.q_plus, "q_minus": ml.q_minus, "cone": ml.cone}[name].structure


@pytest.mark.parametrize("name", list(HYPERPLANE_SIZES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_hyperplane_census_is_invariant_under_relabelling(name, data):
    g = _named_geometry(name)
    perm = data.draw(st.permutations(range(g.point_count)))
    relabelled = IncidenceStructure.from_lines(
        g.point_count, ([perm[p] for p in line] for line in g.lines))
    count, sizes = HYPERPLANE_SIZES[name]
    for geometry in (g, relabelled):
        hyperplanes = null_space_hyperplanes(geometry)
        assert len(hyperplanes) == count
        assert Counter(h.bit_count() for h in hyperplanes) == sizes


def test_null_space_self_check_rejects_non_hyperplanes():
    # called directly, the check names the smallest mask that some line meets
    # in 0 or 2 points; moving one point in or out breaks the 3 lines through it
    g = build_doily()
    masks = null_space_hyperplanes(g)
    assert incidence._require_hyperplanes(g, masks) is None
    for k in (0, 17, 30):
        corrupted = sorted(masks[:k] + [masks[k] ^ 1 << 4] + masks[k + 1:])
        with pytest.raises(ValueError, match=f"^mask {masks[k] ^ 1 << 4} is not a geometric "
                                             "hyperplane of the 15-point geometry$"):
            incidence._require_hyperplanes(g, corrupted)
    two = sorted(masks[1:-1] + [masks[0] ^ 1 << 4, masks[-1] ^ 1])
    with pytest.raises(ValueError, match=f"^mask {min(masks[0] ^ 1 << 4, masks[-1] ^ 1)} "):
        incidence._require_hyperplanes(g, two)


def test_null_space_hands_every_mask_to_the_self_check(monkeypatch):
    g = build_doily()
    checked = []
    original = incidence._require_hyperplanes
    monkeypatch.setattr(incidence, "_require_hyperplanes",
                        lambda geometry, masks: checked.append((geometry, list(masks)))
                        or original(geometry, masks))
    found = null_space_hyperplanes(g)
    assert checked == [(g, found)] and len(found) == 31


@st.composite
def _three_point_geometries(draw):
    n = draw(st.integers(3, 9))
    triples = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=3, max_size=3),
                            max_size=12))
    return IncidenceStructure.from_lines(n, triples)


@settings(max_examples=200, deadline=None)
@given(g=_three_point_geometries(), data=st.data())
def test_null_space_self_check_agrees_with_the_hyperplane_predicate(g, data):
    masks = data.draw(st.lists(st.integers(0, g.full_mask), unique=True, max_size=8))
    for m in masks:
        try:
            incidence._require_hyperplanes(g, [m])
        except ValueError as e:
            assert not is_geometric_hyperplane(g, m)
            assert str(e) == (f"mask {m} is not a geometric hyperplane of the "
                              f"{g.point_count}-point geometry")
        else:
            assert is_geometric_hyperplane(g, m)
    masks.sort()
    failing = [m for m in masks if not is_geometric_hyperplane(g, m)]
    if failing:
        with pytest.raises(ValueError, match=f"^mask {failing[0]} "):
            incidence._require_hyperplanes(g, masks)
    else:
        incidence._require_hyperplanes(g, masks)


def test_deep_points():
    g = build_doily()
    assert deep_points_mask(g, perp_set(1, 2).mask) == 1 << DUAD_INDEX[(1, 2)]
    assert deep_points_mask(g, ovoid(1).mask) == 0
    assert deep_points_mask(g, grid(1, 2, 3).mask) == 0


@pytest.mark.parametrize("mask", [1 << 15, 1 << 20, -1])
def test_deep_points_reject_a_mask_outside_the_point_set(mask):
    with pytest.raises(ValueError, match=rf"^mask {mask} is outside 0\.\.32767$"):
        deep_points_mask(build_doily(), mask)


@pytest.mark.parametrize("mask", [True, 1.0, frozenset({1})])
def test_deep_points_reject_a_non_int_mask(mask):
    message = rf"^subset must be an int mask, got {type(mask).__name__}$"
    with pytest.raises(TypeError, match=message):
        deep_points_mask(build_doily(), mask)


def test_deep_points_of_the_mask_equal_to_the_point_count():
    # 15 is the mask of points 0..3; deep points computed by hand from the lines
    g = build_doily()
    mask = g.point_count
    expected = mask_of(p for p in points_of(mask)
                       if all(line <= set(points_of(mask)) for line in g.lines if p in line))
    assert deep_points_mask(g, mask) == expected


def _point_lookups(g: IncidenceStructure) -> list:
    """Each entry point that takes a point index, as a function of it."""
    return [g.label_of, g.degree, lambda p: collinear(g, p, 2), lambda p: collinear(g, 2, p)]


@pytest.mark.parametrize("g", [build_doily(), GRID9], ids=["labelled", "unlabelled"])
def test_point_lookups_reject_an_out_of_range_index(g):
    n = g.point_count
    for p in (-1, n):
        message = rf"^point index {p} out of range \(0\.\.{n - 1}\)$"
        for lookup in _point_lookups(g):
            with pytest.raises(IndexError, match=message):
                lookup(p)
    assert g.label_of(n - 1) == (g.labels[n - 1] if g.labels else str(n - 1))
    assert g.degree(n - 1) == len(g.lines_through[n - 1])
    assert collinear(g, n - 1, n - 1)


@pytest.mark.parametrize("g", [build_doily(), GRID9], ids=["labelled", "unlabelled"])
@pytest.mark.parametrize("p", [True, 1.0])
def test_point_lookups_reject_a_non_int_index(g, p):
    # a bool or a float that equals a valid index is refused, not read as that index
    message = rf"^point index must be an int, got {type(p).__name__}$"
    for lookup in _point_lookups(g):
        with pytest.raises(TypeError, match=message):
            lookup(p)


def test_check_gq():
    assert check_gq(build_doily(), 2, 2)
    assert not check_gq(build_doily(), 2, 1)
    assert check_gq(GRID9, 2, 1)
    digons = IncidenceStructure.from_lines(4, [[0, 1, 2], [0, 1, 3]])
    assert not check_gq(digons, 2, 1)
    # complete quadrilateral: uniform parameters but full of triangles
    quadrilateral = IncidenceStructure.from_lines(
        6, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]])
    assert has_triangle(quadrilateral)
    assert not check_gq(quadrilateral, 2, 1)


def test_check_gamma_space():
    assert check_gamma_space(build_doily())
    assert check_gamma_space(GRID9)
    # perp of b meets the line {a,d,e} in exactly two points
    example = IncidenceStructure.from_lines(5, [[0, 1, 2], [1, 2, 3], [0, 3, 4]])
    assert not check_gamma_space(example)
    # every perp is the whole point set, but the first two lines share 0 and 1
    digon = IncidenceStructure.from_lines(4, [(0, 1, 2), (0, 1, 3), (2, 3)])
    assert not digon.partial_linear
    assert not check_gamma_space(digon)


def test_find_isomorphism_relabelled_doily():
    g = build_doily()
    relabel = {p: (p * 7 + 3) % 15 for p in range(15)}
    g2 = IncidenceStructure.from_lines(
        15, [{relabel[p] for p in line} for line in g.lines])
    mapping = find_isomorphism(g, g2)
    assert mapping is not None
    assert is_isomorphism(g, g2, mapping)


def test_find_isomorphism_negative():
    assert find_isomorphism(build_doily(), GRID9) is None
    lopsided = IncidenceStructure.from_lines(
        9, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [0, 4, 8]])
    assert find_isomorphism(GRID9, lopsided) is None


def test_find_isomorphism_is_bounded(monkeypatch):
    monkeypatch.setattr(incidence, "SEARCH_NODE_LIMIT", 10)
    with pytest.raises(CapacityError,
                       match="^isomorphism search passed 10 nodes on 15 points$"):
        find_isomorphism(build_doily(), build_doily())


def test_pg32_relabellings_stay_far_below_the_node_limit(monkeypatch):
    # pins PG(3,2)'s search tail: line closure keeps every relabelling
    # below 30 nodes, where the perp filter alone prunes nothing
    monkeypatch.setattr(incidence, "SEARCH_NODE_LIMIT", 200)
    g = _pg32()
    rng = random.Random("pg32-tail")
    for _ in range(200):
        perm = rng.sample(range(15), 15)
        h = IncidenceStructure.from_lines(15, ([perm[p] for p in line] for line in g.lines))
        mapping = find_isomorphism(h, g)
        assert mapping is not None and is_isomorphism(h, g, mapping)


def test_find_isomorphism_result_verified_independently():
    mapping = find_isomorphism(GRID9, GRID9)
    assert mapping is not None
    image = {frozenset(mapping[p] for p in line) for line in GRID9.lines}
    assert image == set(GRID9.lines)


def test_induced_substructure():
    g = build_doily()
    sub, original = induced_substructure(g, points_of(grid(1, 2, 3).mask))
    assert sub.point_count == 9
    assert len(sub.lines) == 6
    assert check_gq(sub, 2, 1)
    assert [g.labels[p] for p in original] == list(sub.labels)


def test_induced_substructure_rejects_an_out_of_range_point():
    unlabelled = IncidenceStructure.from_lines(5, [[0, 1, 2]])
    with pytest.raises(ValueError, match=r"^point index 99 is not in 0\.\.4$"):
        induced_substructure(unlabelled, [0, 1, 99])
    with pytest.raises(ValueError, match=r"^point index 15 is not in 0\.\.14$"):
        induced_substructure(build_doily(), [0, 15, 1])
    sub, original = induced_substructure(unlabelled, [4, 0])
    assert original == (0, 4) and sub.point_count == 2 and not sub.lines


def _quadric_model(form):
    points = form.zero_points()
    index = {v: k for k, v in enumerate(points)}
    lines = set()
    for a, b in combinations(points, 2):
        c = a ^ b
        if c in index:
            lines.add(frozenset((index[a], index[b], index[c])))
    return IncidenceStructure.from_lines(len(points), lines)


def test_doily_isomorphic_to_parabolic_quadric_model():
    model = _quadric_model(QuadraticForm(5, {(0, 1), (2, 3), (4, 4)}))
    assert model.point_count == 15 and len(model.lines) == 15
    mapping = find_isomorphism(model, build_doily())
    assert mapping is not None
    assert is_isomorphism(model, build_doily(), mapping)


def test_doily_isomorphic_to_w32_model():
    # point index p has the coordinate mask p + 1
    theta = SymplecticForm(4)
    lines = set()
    for x, y in combinations(range(1, 16), 2):
        if theta.evaluate(x, y) == 0:
            lines.add(frozenset((x - 1, y - 1, (x ^ y) - 1)))
    model = IncidenceStructure.from_lines(15, lines)
    assert len(model.lines) == 15
    mapping = find_isomorphism(model, build_doily())
    assert mapping is not None
    assert is_isomorphism(model, build_doily(), mapping)
