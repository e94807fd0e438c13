"""Tests for Veldkamp spaces: the doily's, W(5,2)'s, and input validation."""

from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilyspace.doily import (
    OVOID,
    PERP_SET,
    S_ELEMENTS,
    apply_duad_permutation,
    build_doily,
    grid,
    ovoid,
    perp_set,
)
from doilyspace.gf2 import projective_points
from doilyspace.incidence import (
    CapacityError,
    IncidenceStructure,
    mask_of,
    null_space_hyperplanes,
    veldkamp_sum_mask,
)
from doilyspace.magicline import build_magic_line, build_w52
from doilyspace.veldkamp import (
    FAMILIES,
    FAMILY_RULES,
    VeldkampLine,
    _classify_members,
    build_veldkamp_space,
    classify_veldkamp_line,
    doily_veldkamp_space,
    family_census,
    family_of,
)

# pinned from the enumeration oracle on its first run
PINNED_CENSUS = {
    "perp-grid-grid": 45,
    "perp-perp-perp-disjoint": 15,
    "perp-perp-perp-triangle": 20,
    "ovoid-perp-grid": 60,
    "ovoid-ovoid-perp": 15,
}


def doily_line(h1, h2) -> VeldkampLine:
    g = build_doily()
    third = veldkamp_sum_mask(g.full_mask, h1.mask, h2.mask)
    return VeldkampLine(g, tuple(sorted((h1.mask, h2.mask, third))))


def test_space_counts():
    vs = build_veldkamp_space(build_doily())
    assert len(vs.points) == 31
    assert len(vs.lines) == 155


def test_every_pair_on_exactly_one_line():
    vs = build_veldkamp_space(build_doily())
    pairs = []
    for line in vs.lines:
        pairs.extend(frozenset(p) for p in combinations(line.members, 2))
    assert len(pairs) == 465
    assert len(set(pairs)) == 465  # = C(31, 2): all pairs, none twice


def test_fifteen_lines_per_point():
    vs = build_veldkamp_space(build_doily())
    through = dict.fromkeys(vs.points, 0)
    for line in vs.lines:
        for m in line.members:
            through[m] += 1
    assert set(through.values()) == {15}


def test_member_intersections_coincide():
    vs = build_veldkamp_space(build_doily())
    for line in vs.lines:
        m1, m2, m3 = line.members
        assert m1 & m2 == m1 & m3 == m2 & m3


def test_sum_closure_within_the_31():
    vs = build_veldkamp_space(build_doily())
    masks = set(vs.points)
    full = build_doily().full_mask
    for m1, m2 in combinations(sorted(masks), 2):
        assert veldkamp_sum_mask(full, m1, m2) in masks


def test_line_validation():
    g = build_doily()
    good = doily_line(ovoid(1), ovoid(2))
    assert good.members[0] & good.members[1] == good.core_mask
    with pytest.raises(ValueError):
        VeldkampLine(g, (ovoid(1).mask, ovoid(2).mask, ovoid(3).mask))
    with pytest.raises(ValueError):
        VeldkampLine(g, (ovoid(1).mask, ovoid(1).mask, ovoid(2).mask))


def test_line_members_are_stored_as_a_tuple():
    members = doily_line(ovoid(1), ovoid(2)).members
    for given in (list(members), iter(members)):
        line = VeldkampLine(build_doily(), given)
        assert line.members == members and type(line.members) is tuple
        assert classify_veldkamp_line(line) == "ovoid-ovoid-perp"
    assert not hasattr(line, "__dict__")


def test_line_validation_messages():
    g = build_doily()
    a, b, c = doily_line(ovoid(1), ovoid(2)).members
    cases = [
        ((a, a, b), "Veldkamp line members must be distinct"),
        ((b, a, a), "Veldkamp line members must be distinct"),
        ((b, a, c), "members must be in ascending mask order"),
        ((a, c, b), "members must be in ascending mask order"),
        (tuple(sorted((ovoid(1).mask, ovoid(2).mask, ovoid(3).mask))),
         "members are not closed under the Veldkamp sum"),
        ((a, b), "^a Veldkamp line has 3 members, got 2$"),
        ((a, b, c, a), "^a Veldkamp line has 3 members, got 4$"),
    ]
    for members, message in cases:
        with pytest.raises(ValueError, match=message):
            VeldkampLine(g, members)
    # within the point set the sum check implies equal intersections, so a
    # member with a bit outside it is named before the sum is checked
    with pytest.raises(ValueError, match=r"^mask 10 is outside 0\.\.7$"):
        VeldkampLine(IncidenceStructure.from_lines(3, [[0, 1, 2]]), (0b0001, 0b1010, 0b1100))


@pytest.mark.parametrize("name", ["doily", "single_line", "w52"])
def test_lines_match_the_pairwise_sum_construction(name):
    g = {"doily": build_doily(), "single_line": IncidenceStructure.from_lines(3, [[0, 1, 2]]),
         "w52": build_w52().structure}[name]
    space = build_veldkamp_space(g)
    masks = space.points
    triples = {tuple(sorted((m1, m2, veldkamp_sum_mask(g.full_mask, m1, m2))))
               for m1, m2 in combinations(masks, 2)}
    assert [line.members for line in space.lines] == sorted(triples)


def _assert_lines_pass_the_checked_constructor(g: IncidenceStructure) -> None:
    space = build_veldkamp_space(g)
    for line in space.lines:
        checked = VeldkampLine(g, line.members)
        assert type(line) is VeldkampLine and line.geometry is g
        assert type(line.members) is tuple and line.members == checked.members


def _pg32() -> IncidenceStructure:
    points = projective_points(4)
    return IncidenceStructure.from_lines(15, {
        frozenset((i, j, (points[i] ^ points[j]).to_int() - 1))
        for i, j in combinations(range(15), 2)})


@pytest.mark.parametrize("name", ["doily", "pg32", "w52"])
def test_built_lines_pass_the_checked_constructor(name):
    # build_veldkamp_space makes its lines without VeldkampLine's checks
    g = {"doily": build_doily, "pg32": _pg32, "w52": lambda: build_w52().structure}[name]()
    _assert_lines_pass_the_checked_constructor(g)


@st.composite
def partial_linear_three_per_line_geometries(draw):
    """Random 3-point lines, each kept when it shares at most one point
    with every line kept before it."""
    n = draw(st.integers(min_value=3, max_value=12))
    lines: list[frozenset] = []
    for line in draw(st.lists(st.sampled_from(list(combinations(range(n), 3))),
                              min_size=1, max_size=12)):
        if all(len(frozenset(line) & kept) <= 1 for kept in lines):
            lines.append(frozenset(line))
    return IncidenceStructure.from_lines(n, lines)


@settings(max_examples=60, deadline=None)
@given(partial_linear_three_per_line_geometries())
def test_built_lines_pass_the_checked_constructor_on_random_geometries(g):
    _assert_lines_pass_the_checked_constructor(g)


def test_classify_representatives():
    assert classify_veldkamp_line(
        doily_line(perp_set(1, 2), grid(1, 3, 4))) == "perp-grid-grid"
    assert classify_veldkamp_line(
        doily_line(perp_set(1, 2), perp_set(3, 4))) == "perp-perp-perp-disjoint"
    assert classify_veldkamp_line(
        doily_line(perp_set(1, 2), perp_set(1, 3))) == "perp-perp-perp-triangle"
    assert classify_veldkamp_line(
        doily_line(ovoid(1), perp_set(2, 3))) == "ovoid-perp-grid"
    assert classify_veldkamp_line(
        doily_line(ovoid(1), ovoid(2))) == "ovoid-ovoid-perp"


def test_representative_membership_details():
    # {p_12, g_134, g_234} really is the line spanned by p_12 and g_134
    line = doily_line(perp_set(1, 2), grid(1, 3, 4))
    assert set(line.members) == {perp_set(1, 2).mask, grid(1, 3, 4).mask,
                                 grid(2, 3, 4).mask}
    line = doily_line(ovoid(1), perp_set(2, 3))
    assert set(line.members) == {ovoid(1).mask, perp_set(2, 3).mask,
                                 grid(1, 2, 3).mask}
    line = doily_line(perp_set(1, 2), perp_set(3, 4))
    assert set(line.members) == {perp_set(1, 2).mask, perp_set(3, 4).mask,
                                 perp_set(5, 6).mask}


def test_census_pinned_values():
    vs = build_veldkamp_space(build_doily())
    census = family_census(vs.lines)
    assert census == PINNED_CENSUS
    assert sum(census.values()) == 155
    assert tuple(census) == FAMILIES


def test_census_invariant_under_relabelling():
    g = build_doily()
    vs = build_veldkamp_space(g)
    base = family_census(vs.lines)
    transposition = {1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}
    cycle = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}
    for perm in (transposition, cycle):
        permuted = [
            VeldkampLine(g, tuple(sorted(apply_duad_permutation(m, perm)
                                         for m in line.members)))
            for line in vs.lines]
        assert family_census(permuted) == base


def test_each_line_keeps_its_family_under_all_of_s6():
    vs = build_veldkamp_space(build_doily())
    family_by_members = {line.members: classify_veldkamp_line(line) for line in vs.lines}
    for images in permutations(S_ELEMENTS):
        perm = dict(zip(S_ELEMENTS, images))
        moved = {m: apply_duad_permutation(m, perm) for m in vs.points}
        for members, family in family_by_members.items():
            assert family_by_members[tuple(sorted(moved[m] for m in members))] == family


def test_family_rule_table():
    assert FAMILIES == tuple(FAMILY_RULES) == (
        "perp-grid-grid", "perp-perp-perp-disjoint", "perp-perp-perp-triangle",
        "ovoid-perp-grid", "ovoid-ovoid-perp")
    d12, d13, d15, d23, d34, d56 = (frozenset(d) for d in
                                    ((1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (5, 6)))

    def perps(*duads):
        return [(PERP_SET, d) for d in duads]

    assert family_of(perps(d12, d13, d23)) == "perp-perp-perp-triangle"
    assert family_of(perps(d12, d34, d56)) == "perp-perp-perp-disjoint"
    # three deep duads that neither partition S nor form a triangle fit no family
    assert family_of(perps(d12, d34, d15)) is None
    # a repeated deep duad is no triangle, though its union has 3 elements
    assert family_of(perps(d12, d12, d13)) is None
    o1, o2 = frozenset({1}), frozenset({2})
    assert family_of([(OVOID, o1), (OVOID, o2), (PERP_SET, d12)]) == "ovoid-ovoid-perp"
    assert family_of([(PERP_SET, d12), (OVOID, o2), (OVOID, o1)]) == "ovoid-ovoid-perp"
    assert family_of([(OVOID, o1), (OVOID, o2), (PERP_SET, d13)]) is None
    # the member counts are compared before the rule runs: the rules of the
    # count-(1, 1, x) families would index a grid or a second ovoid
    assert family_of([(OVOID, o1), (PERP_SET, d12)]) is None


def test_single_line_geometry_space():
    single = IncidenceStructure.from_lines(3, [[0, 1, 2]])
    vs = build_veldkamp_space(single)
    assert vs.points == (1, 2, 4)
    assert len(vs.lines) == 1
    assert vs.lines[0].members == (1, 2, 4)


def test_build_requires_three_points_per_line():
    pair_line = IncidenceStructure.from_lines(4, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="3 points per line"):
        build_veldkamp_space(pair_line)


def test_build_requires_a_partial_linear_space():
    two_shared = IncidenceStructure.from_lines(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(ValueError,
                       match=r"lines \{0, 1, 2\} and \{1, 2, 3\} share two points"):
        build_veldkamp_space(two_shared)


def test_build_requires_a_line():
    with pytest.raises(ValueError, match="at least one line"):
        build_veldkamp_space(IncidenceStructure.from_lines(2, []))


def test_build_capacity_limit():
    big = IncidenceStructure.from_lines(26, [[0, 1, 2]])
    with pytest.raises(CapacityError, match="dimension 25 on 26 points"):
        build_veldkamp_space(big)


def test_w52_veldkamp_space_has_pg62_parameters():
    # 63 points exceed the exhaustive scan; the null space reaches them
    vs = build_veldkamp_space(build_w52().structure)
    assert len(vs.points) == 127
    assert len(vs.lines) == 2667
    assert Counter(m.bit_count() for m in vs.points) == {31: 63, 35: 36, 27: 28}
    ml = build_magic_line()
    constituents = (ml.q_plus, ml.q_minus, ml.cone)
    for c in constituents:
        assert len(null_space_hyperplanes(c.structure)) == 63
    magic = tuple(sorted(mask_of(c.w_points) for c in constituents))
    assert magic in {line.members for line in vs.lines}


def test_classify_rejects_foreign_lines():
    single = IncidenceStructure.from_lines(3, [[0, 1, 2]])
    vs = build_veldkamp_space(single)
    with pytest.raises(ValueError):
        classify_veldkamp_line(vs.lines[0])


def test_a_rebuilt_doily_keeps_its_lines_classified():
    d = build_doily()
    rebuilt = IncidenceStructure(15, list(d.lines), d.labels)
    census = family_census(build_veldkamp_space(rebuilt).lines)
    assert census == family_census(build_veldkamp_space(d).lines)


def test_doily_space_is_built_once_per_doily_instance():
    vs = doily_veldkamp_space()
    assert doily_veldkamp_space() is vs and vs.geometry is build_doily()
    assert [l.members for l in vs.lines] == [
        l.members for l in build_veldkamp_space(build_doily()).lines]
    build_doily.cache_clear()
    rebuilt = doily_veldkamp_space()
    assert rebuilt is not vs and rebuilt.geometry is build_doily()
    assert [l.members for l in rebuilt.lines] == [l.members for l in vs.lines]


def test_memoized_family_equals_the_structural_rules():
    vs = build_veldkamp_space(build_doily())
    for line in vs.lines:
        assert classify_veldkamp_line(line) == _classify_members.__wrapped__(line.members)
    assert _classify_members.cache_info().currsize <= 155


def test_a_failed_classification_is_not_cached():
    # sum-closed, so VeldkampLine accepts it, but {0,1} is no hyperplane
    g = build_doily()
    line = VeldkampLine(g, tuple(sorted((0b11, 0b101, g.full_mask ^ 0b110))))
    before = _classify_members.cache_info().currsize
    message = "^subset is not a geometric hyperplane of the doily$"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            classify_veldkamp_line(line)
    assert _classify_members.cache_info().currsize == before
