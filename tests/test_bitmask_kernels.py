"""Oracle tests for the bitmask kernels of ``incidence``.

Each kernel is checked against a plain reference that loops over every
point and line (or every mapped pair), as the kernels did before they were
rewritten as word operations on the cached masks.
"""

import random
from collections import Counter
from itertools import combinations
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doilyspace import incidence
from doilyspace.doily import build_doily
from doilyspace.gf2 import projective_points
from doilyspace.incidence import (
    CapacityError,
    IncidenceStructure,
    check_gamma_space,
    check_gq,
    find_isomorphism,
    has_triangle,
    is_isomorphism,
    mask_of,
    points_of,
)
from doilyspace.magicline import build_magic_line, build_sector_models


def ref_points_of(mask: int) -> tuple[int, ...]:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def ref_has_triangle(g: IncidenceStructure) -> bool:
    for p, q, r in combinations(range(g.point_count), 3):
        if ((g.perp_masks[p] >> q) & 1 and (g.perp_masks[p] >> r) & 1
                and (g.perp_masks[q] >> r) & 1):
            m = (1 << p) | (1 << q) | (1 << r)
            if not any(lm & m == m for lm in g.line_masks):
                return True
    return False


def ref_check_gq(g: IncidenceStructure, s: int, t: int) -> bool:
    if any(len(line) != s + 1 for line in g.lines):
        return False
    if any(g.degree(p) != t + 1 for p in range(g.point_count)):
        return False
    for m1, m2 in combinations(g.line_masks, 2):
        if (m1 & m2).bit_count() >= 2:
            return False
    if ref_has_triangle(g):
        return False
    for p in range(g.point_count):
        pm = g.perp_masks[p]
        for lm in g.line_masks:
            if (lm >> p) & 1:
                continue
            if (lm & pm).bit_count() != 1:
                return False
    return True


def ref_check_gamma_space(g: IncidenceStructure) -> bool:
    # a gamma space is a partial linear space: no two lines share two points
    for m1, m2 in combinations(g.line_masks, 2):
        if (m1 & m2).bit_count() >= 2:
            return False
    for p in range(g.point_count):
        pm = g.perp_masks[p]
        for lm in g.line_masks:
            hit = (lm & pm).bit_count()
            if hit not in (0, 1, lm.bit_count()):
                return False
    return True


def ref_closing_table(g: IncidenceStructure) -> dict[int, int]:
    return {mask_of(set(line) - {p}): 1 << p for line in g.lines for p in line}


def _ref_point_invariants(g: IncidenceStructure) -> list[tuple]:
    degs = [g.degree(p) for p in range(g.point_count)]
    return [(degs[p], tuple(sorted(degs[q] for q in ref_points_of(g.perp_masks[p] & ~(1 << p)))))
            for p in range(g.point_count)]


def ref_point_invariants_comprehension(g: IncidenceStructure) -> list[tuple]:
    # incidence._point_invariants as a nested comprehension, as it was
    # before its loops were written out
    degrees = [len(t) for t in g.lines_through]
    by_degree: dict[int, int] = {}
    for p, d in enumerate(degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << p
    classes = sorted(by_degree.items())
    return [(d, tuple([(e, c) for e, m in classes if (c := (nbrs & m).bit_count())]))
            for d, nbrs in zip(degrees, [pm & ~(1 << p) for p, pm in enumerate(g.perp_masks)])]


def ref_is_isomorphism(g1: IncidenceStructure, g2: IncidenceStructure,
                       mapping: dict[int, int]) -> bool:
    # is_isomorphism as it was before it compared line masks
    if sorted(mapping) != list(range(g1.point_count)):
        return False
    if sorted(mapping.values()) != list(range(g2.point_count)):
        return False
    image = {frozenset(mapping[p] for p in line) for line in g1.lines}
    return image == set(g2.lines)


def ref_find_isomorphism(g1: IncidenceStructure,
                         g2: IncidenceStructure) -> Optional[dict[int, int]]:
    if g1.point_count != g2.point_count or len(g1.lines) != len(g2.lines):
        return None
    if sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
        return None
    inv1 = _ref_point_invariants(g1)
    inv2 = _ref_point_invariants(g2)
    if Counter(inv1) != Counter(inv2):
        return None

    n = g1.point_count
    freq = Counter(inv1)
    order: list[int] = []
    placed_mask = 0
    remaining = set(range(n))
    while remaining:
        adjacent = [p for p in remaining if g1.perp_masks[p] & placed_mask]
        pool = adjacent if adjacent else sorted(remaining)
        nxt = min(pool, key=lambda p: (freq[inv1[p]], p))
        order.append(nxt)
        remaining.remove(nxt)
        placed_mask |= 1 << nxt

    by_inv: dict[tuple, list[int]] = {}
    for q in range(n):
        by_inv.setdefault(inv2[q], []).append(q)

    line_set2 = set(g2.lines)
    mapping: dict[int, int] = {}
    used = [False] * n

    def lines_ready(p: int) -> list[frozenset[int]]:
        return [g1.lines[idx] for idx in g1.lines_through[p]
                if all(pt in mapping for pt in g1.lines[idx])]

    def extend(k: int) -> bool:
        if k == n:
            return True
        p = order[k]
        for q in by_inv.get(inv1[p], ()):
            if used[q]:
                continue
            if any(bool((g1.perp_masks[p] >> p2) & 1) != bool((g2.perp_masks[q] >> q2) & 1)
                   for p2, q2 in mapping.items()):
                continue
            mapping[p] = q
            used[q] = True
            if all(frozenset(mapping[pt] for pt in line) in line_set2
                   for line in lines_ready(p)):
                if extend(k + 1):
                    return True
            del mapping[p]
            used[q] = False
        return False

    if not extend(0):
        return None
    if {frozenset(mapping[p] for p in line) for line in g1.lines} != line_set2:
        return None
    return dict(mapping)


def ref_find_isomorphism_scan(g1: IncidenceStructure, g2: IncidenceStructure
                              ) -> tuple[Optional[dict[int, int]], int]:
    """find_isomorphism as it was before the closing table: it finds the
    image of a half-mapped line by scanning g2's lines through q, reads the
    collinearity filter off p's perp in a loop of its own, and compares the
    images of all lines with g2's once the search succeeds.  Also returns
    the count of search nodes entered."""
    inv1, freq, sizes1 = g1.search_profile
    inv2, freq2, sizes2 = g2.search_profile
    if sizes1 != sizes2 or freq != freq2:
        return None, 0
    by_inv: dict[tuple, list[int]] = {}
    for q, inv in enumerate(inv2):
        by_inv.setdefault(inv, []).append(q)
    line_masks2 = frozenset(g2.line_masks)
    propagate = g2.partial_linear

    n = g1.point_count
    perp1, perp2 = g1.perp_masks, g2.perp_masks
    by_freq: dict[int, int] = {}
    for p, inv in enumerate(inv1):
        by_freq[freq[inv]] = by_freq.get(freq[inv], 0) | 1 << p
    freq_masks = [m for _, m in sorted(by_freq.items())]
    order: list[int] = []
    placed = reach = 0
    while placed != g1.full_mask:
        pool = reach & ~placed or g1.full_mask & ~placed
        for m in freq_masks:
            if pool & m:
                break
        pick = pool & m
        nxt = (pick & -pick).bit_length() - 1
        order.append(nxt)
        placed |= 1 << nxt
        reach |= perp1[nxt]

    masks1, masks2, through2 = g1.line_masks, g2.line_masks, g2.lines_through
    image = [0] * n
    forced = [0] * n
    nodes = 0

    def extend(k: int, placed: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if k == n:
            return True
        p = order[k]
        want = 0
        for r in points_of(perp1[p] & placed):
            want |= image[r]
        placed |= 1 << p
        ready = []
        closing = []
        for idx in g1.lines_through[p]:
            rest = masks1[idx] & ~placed
            if rest and (not propagate or rest & (rest - 1)):
                continue
            img = 0
            for r in points_of(masks1[idx] & placed & ~(1 << p)):
                img |= image[r]
            if not rest:
                ready.append(img)
            elif img:
                closing.append((rest.bit_length() - 1, img))
        if forced[p]:
            q = forced[p].bit_length() - 1
            candidates = (q,) if inv2[q] == inv1[p] else ()
        else:
            candidates = by_inv.get(inv1[p], ())
        for q in candidates:
            bit = 1 << q
            if used & bit or perp2[q] & used != want:
                continue
            if all(img | bit in line_masks2 for img in ready):
                image[p] = bit
                set_here = []
                for r, img in closing:
                    img |= bit
                    last = 0
                    for idx in through2[q]:
                        if masks2[idx] & img == img:
                            last = masks2[idx] ^ img
                            break
                    if (not last or last & (last - 1) or last & used
                            or forced[r] and forced[r] != last):
                        break
                    if not forced[r]:
                        forced[r] = last
                        set_here.append(r)
                else:
                    if extend(k + 1, placed, used | bit):
                        return True
                for r in set_here:
                    forced[r] = 0
        return False

    if not extend(0, 0, 0):
        return None, nodes
    if {mask_of(image[p].bit_length() - 1 for p in line) for line in g1.lines} != line_masks2:
        return None, nodes
    return {p: image[p].bit_length() - 1 for p in order}, nodes


# ---------------------------------------------------------------- geometries

GRID9 = IncidenceStructure.from_lines(
    9, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8]])


def _pg32() -> IncidenceStructure:
    points = projective_points(4)
    lines = {frozenset((i, j, (points[i] ^ points[j]).to_int() - 1))
             for i, j in combinations(range(15), 2)}
    return IncidenceStructure.from_lines(15, lines)


def _disjoint_union(g: IncidenceStructure, h: IncidenceStructure) -> IncidenceStructure:
    shift = g.point_count
    return IncidenceStructure.from_lines(
        shift + h.point_count,
        list(g.lines) + [[p + shift for p in line] for line in h.lines])


# Named geometries and the (s, t) at which each passes the size and degree
# tests of check_gq, so that each later GQ axiom is reached:
NAMED = {
    # passes every axiom
    "doily": (build_doily(), 2, 2),
    "grid9": (GRID9, 2, 1),
    "q_minus": (build_magic_line().q_minus.structure, 2, 4),
    # two lines sharing two points
    "digon": (IncidenceStructure.from_lines(4, [[0, 1, 2], [0, 1, 3]]), 2, 1),
    # complete quadrilateral: uniform parameters but full of triangles
    "quadrilateral": (IncidenceStructure.from_lines(
        6, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]), 2, 1),
    # no digon or triangle, but a point sees no point of a far line
    "pentagon": (IncidenceStructure.from_lines(
        5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]), 1, 1),
    "two_grids": (_disjoint_union(GRID9, GRID9), 2, 1),
    # a perp meeting a line in two of its three points: not a gamma space
    "not_gamma": (IncidenceStructure.from_lines(
        5, [[0, 1, 2], [1, 2, 3], [0, 3, 4]]), 2, 1),
    "pg32": (_pg32(), 2, 6),
    "w52": (build_magic_line().space.structure, 2, 6),
    # lines of 4 points, which check_gamma_space tests bit-sliced: the 4x4
    # grid, and a point (4) that sees two points (0, 1) of a line
    "grid16": (IncidenceStructure.from_lines(
        16, [range(k, k + 4) for k in range(0, 16, 4)] + [range(k, 16, 4) for k in range(4)]),
        3, 1),
    "not_gamma4": (IncidenceStructure.from_lines(
        9, [[0, 1, 2, 3], [0, 4, 5, 6], [1, 4, 7, 8]]), 3, 1),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_axiom_checks_match_reference_on_named_geometries(name):
    g, s, t = NAMED[name]
    assert has_triangle(g) == ref_has_triangle(g)
    assert check_gamma_space(g) == ref_check_gamma_space(g)
    assert check_gq(g, s, t) == ref_check_gq(g, s, t)


def test_named_geometries_fail_each_axiom():
    verdicts = {name: (check_gq(g, s, t), has_triangle(g), check_gamma_space(g))
                for name, (g, s, t) in NAMED.items()}
    assert verdicts["doily"] == verdicts["grid9"] == verdicts["q_minus"] == (True, False, True)
    assert verdicts["digon"][0] is False
    assert verdicts["quadrilateral"][:2] == (False, True)
    assert verdicts["pentagon"][:2] == (False, False)
    assert verdicts["two_grids"] == (False, False, True)
    assert verdicts["not_gamma"][2] is False
    assert verdicts["grid16"] == (True, False, True)
    assert verdicts["not_gamma4"] == (False, True, False)


@st.composite
def small_geometries(draw):
    """Random geometries of 3-10 points whose lines have 2-4 points."""
    n = draw(st.integers(min_value=3, max_value=10))
    subsets = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=4)
    return IncidenceStructure.from_lines(n, draw(st.lists(subsets, max_size=14)))


@settings(max_examples=300, deadline=None)
@given(small_geometries())
@example(NAMED["pentagon"][0])
@example(NAMED["two_grids"][0])
def test_axiom_checks_match_reference_on_random_geometries(g):
    assert has_triangle(g) == ref_has_triangle(g)
    assert check_gamma_space(g) == ref_check_gamma_space(g)
    # (s, t) read off the geometry, so the uniformity tests can pass and
    # the later axioms are reached
    s = len(g.lines[0]) - 1 if g.lines else 1
    for t in {g.degree(0) - 1, 1}:
        assert check_gq(g, s, t) == ref_check_gq(g, s, t)


@settings(max_examples=300, deadline=None)
@given(small_geometries())
@example(NAMED["digon"][0])
def test_constructor_tables_match_reference_on_random_geometries(g):
    # the tables are plain attributes, set by the constructor
    assert {"full_mask", "line_masks", "lines_through", "perp_masks",
            "partial_linear"} <= vars(g).keys()
    n = g.point_count
    assert g.full_mask == (1 << n) - 1
    assert g.line_masks == tuple(mask_of(line) for line in g.lines)
    through = [tuple(idx for idx, line in enumerate(g.lines) if p in line) for p in range(n)]
    assert g.lines_through == tuple(through)
    assert g.perp_masks == tuple(mask_of([p, *(q for idx in t for q in g.lines[idx])])
                                 for p, t in enumerate(through))
    assert g.partial_linear == all(len(l1 & l2) < 2 for l1, l2 in combinations(g.lines, 2))


@st.composite
def partial_linear_geometries(draw):
    """Random partial linear geometries with 3 points per line, relabelled:
    random triples of 3-12 points, each kept if it shares at most one point
    with every kept one (gamma spaces or not), or some of the lines of the
    doily (always a gamma space: a point off a line of a generalized
    quadrangle sees one of its points) or of PG(3,2) (often not one)."""
    kind = draw(st.sampled_from(["random", "doily", "pg32"]))
    if kind == "random":
        n = draw(st.integers(min_value=3, max_value=12))
        triples = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=3, max_size=3)
        lines: list[frozenset[int]] = []
        for t in draw(st.lists(triples, max_size=20)):
            if all(len(t & line) < 2 for line in lines):
                lines.append(frozenset(t))
    else:
        source = NAMED[kind][0]
        n = source.point_count
        lines = draw(st.lists(st.sampled_from(source.lines), unique=True))
    perm = draw(st.permutations(range(n)))
    return IncidenceStructure.from_lines(n, [[perm[p] for p in line] for line in lines])


@settings(max_examples=300, deadline=None)
@given(partial_linear_geometries())
@example(NAMED["doily"][0])
@example(NAMED["pg32"][0])
@example(NAMED["not_gamma"][0])
def test_gamma_check_matches_reference_on_three_point_lines(g):
    assert check_gamma_space(g) == ref_check_gamma_space(g)


@pytest.mark.parametrize("name", ["doily", "grid9", "q_minus", "pg32", "w52", "grid16",
                                  "not_gamma4"])
def test_closing_table_maps_each_line_less_a_point_to_that_point(name):
    g = NAMED[name][0]
    _, line_masks, last_of = IncidenceStructure(g.point_count, g.lines).target_profile
    assert line_masks == frozenset(g.line_masks)
    assert last_of == ref_closing_table(g) and len(last_of) == sum(map(len, g.lines))


@settings(max_examples=300, deadline=None)
@given(partial_linear_geometries())
def test_closing_table_matches_reference_on_partial_linear_geometries(g):
    assert g.partial_linear
    last_of = g.target_profile[2]
    assert last_of == ref_closing_table(g) and len(last_of) == 3 * len(g.lines)


@given(st.integers(min_value=0, max_value=(1 << 130) - 1))
def test_points_of_matches_reference(mask):
    assert points_of(mask) == ref_points_of(mask)


def test_points_of_rejects_negative_masks():
    with pytest.raises(ValueError, match="mask -1 is negative"):
        points_of(-1)


# ---------------------------------------------------------- isomorphism search

def _same_result(g1: IncidenceStructure, g2: IncidenceStructure) -> dict[int, int]:
    """find_isomorphism(g1, g2), asserted equal to the reference, key order included."""
    mapping = find_isomorphism(g1, g2)
    expected = ref_find_isomorphism(g1, g2)
    assert mapping == expected
    assert list(mapping.items()) == list(expected.items())
    return mapping


def test_core_isomorphism_matches_reference():
    ml = build_magic_line()
    # the labels of the magic line come from this mapping
    _same_result(ml.core_structure, build_doily())


def test_sector_model_isomorphisms_match_reference():
    ml = build_magic_line()
    models = build_sector_models()
    for sector, constituent in ml.constituents.items():
        _same_result(models[sector], constituent.structure)


def _relabelled(g: IncidenceStructure, rng: random.Random) -> IncidenceStructure:
    perm = rng.sample(range(g.point_count), g.point_count)
    return IncidenceStructure.from_lines(
        g.point_count, ([perm[p] for p in line] for line in g.lines))


SEARCHED = {
    "doily": NAMED["doily"][0],
    "pg32": NAMED["pg32"][0],
    "q_minus": NAMED["q_minus"][0],
    "cone": build_magic_line().cone.structure,
    "q_plus": build_magic_line().q_plus.structure,
    "w52": NAMED["w52"][0],
}


@pytest.mark.parametrize("name", list(SEARCHED))
def test_relabelled_search_matches_reference(name):
    g = SEARCHED[name]
    rng = random.Random(f"relabel-{name}")
    for _ in range(50):
        _same_result(_relabelled(g, rng), g)


def _assert_invariants_match_reference(g: IncidenceStructure) -> None:
    invs = incidence._point_invariants(g)
    assert invs == ref_point_invariants_comprehension(g)
    # a fresh structure, so that the profile is built from the loops above
    fresh = IncidenceStructure(g.point_count, g.lines, g.labels)
    profile_invs, freq, sizes = fresh.search_profile
    assert profile_invs == invs
    assert type(freq) is dict and freq == Counter(ref_point_invariants_comprehension(g))
    assert sizes == sorted(map(len, g.lines))


def _same_as_scan(g1: IncidenceStructure, g2: IncidenceStructure) -> None:
    """find_isomorphism(g1, g2) equals the scan-based search, key order
    included, and enters as many nodes: it succeeds with SEARCH_NODE_LIMIT
    at the scan's node count and raises one below it."""
    expected, nodes = ref_find_isomorphism_scan(g1, g2)
    mapping = find_isomorphism(g1, g2)
    assert mapping == expected
    if expected is not None:
        assert list(mapping.items()) == list(expected.items())
    if nodes:
        with mock.patch.object(incidence, "SEARCH_NODE_LIMIT", nodes):
            assert find_isomorphism(g1, g2) == expected
        with mock.patch.object(incidence, "SEARCH_NODE_LIMIT", nodes - 1):
            with pytest.raises(CapacityError):
                find_isomorphism(g1, g2)


@pytest.mark.parametrize("name", list(SEARCHED))
def test_relabelled_search_matches_the_scan_based_closing(name):
    g = SEARCHED[name]
    rng = random.Random(f"closing-{name}")
    for _ in range(50):
        _same_as_scan(_relabelled(g, rng), g)


@st.composite
def partial_linear_pairs(draw):
    """A random partial linear geometry with 3 points per line and either a
    relabelling of it, possibly with one line redrawn, or an independent one
    on as many points."""
    g1 = draw(partial_linear_geometries())
    n = g1.point_count
    kind = draw(st.sampled_from(["relabelled", "perturbed", "independent"]))
    if kind == "independent":
        g2 = draw(partial_linear_geometries())
        return g1, IncidenceStructure.from_lines(n, [line for line in g2.lines
                                                     if max(line) < n])
    perm = draw(st.permutations(range(n)))
    lines = [[perm[p] for p in line] for line in g1.lines]
    if kind == "perturbed" and lines:
        lines[0] = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 min_size=3, max_size=3, unique=True))
    return g1, IncidenceStructure.from_lines(n, lines)


@settings(max_examples=400, deadline=None)
@given(partial_linear_pairs())
def test_search_matches_the_scan_based_closing_on_random_pairs(pair):
    _same_as_scan(*pair)


@pytest.mark.parametrize("name", list(SEARCHED))
def test_point_invariants_match_reference(name):
    g = SEARCHED[name]
    _assert_invariants_match_reference(g)
    _assert_invariants_match_reference(_relabelled(g, random.Random(f"invariants-{name}")))


@settings(max_examples=300, deadline=None)
@given(small_geometries())
def test_point_invariants_match_reference_on_random_geometries(g):
    _assert_invariants_match_reference(g)


@pytest.mark.parametrize("name", list(SEARCHED))
def test_isomorphism_check_matches_reference(name):
    g = SEARCHED[name]
    rng = random.Random(f"check-{name}")
    for _ in range(5):
        h = _relabelled(g, rng)
        mapping = find_isomorphism(h, g)
        swapped = dict(mapping)
        p, q = rng.sample(range(g.point_count), 2)
        swapped[p], swapped[q] = swapped[q], swapped[p]
        for m in (mapping, swapped, {p: p for p in range(g.point_count)}):
            assert is_isomorphism(h, g, m) == ref_is_isomorphism(h, g, m)
        assert is_isomorphism(h, g, mapping) and not is_isomorphism(h, g, swapped)


@st.composite
def mapped_pairs(draw):
    """A random geometry g1, a relabelling g2 of it (or an independent
    geometry on as many points) and a mapping of g1's points: the
    relabelling, the identity or a random permutation, possibly with two
    images swapped, two points sent to one image, or a key missing."""
    g1 = draw(small_geometries())
    n = g1.point_count
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        g2 = IncidenceStructure.from_lines(n, [[perm[p] for p in line] for line in g1.lines])
    else:
        subsets = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=4)
        g2 = IncidenceStructure.from_lines(n, draw(st.lists(subsets, max_size=14)))
    base = draw(st.sampled_from(["relabelling", "identity", "random"]))
    images = {"relabelling": perm, "identity": list(range(n)),
              "random": draw(st.permutations(range(n)))}[base]
    mapping = dict(enumerate(images))
    p, q = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=2, max_size=2, unique=True))
    change = draw(st.sampled_from(["none", "swap", "collapse", "drop"]))
    if change == "swap":
        mapping[p], mapping[q] = mapping[q], mapping[p]
    elif change == "collapse":
        mapping[p] = mapping[q]
    elif change == "drop":
        del mapping[p]
    return g1, g2, mapping


@settings(max_examples=300, deadline=None)
@given(mapped_pairs())
def test_isomorphism_check_matches_reference_on_random_mappings(case):
    g1, g2, mapping = case
    assert is_isomorphism(g1, g2, mapping) == ref_is_isomorphism(g1, g2, mapping)


# nodes that find_isomorphism(h, g) enters for the first twelve relabellings
# h of each geometry drawn by _relabelled from random.Random(f"nodes-{name}"),
# measured before the search loops were rewritten; n + 1 nodes on n points
# mean that no candidate was backtracked
SEARCH_NODES = {
    "doily": (16, 16, 16, 17, 16, 16, 16, 16, 16, 16, 16, 16),
    "pg32": (17, 16, 17, 17, 16, 17, 17, 16, 29, 17, 17, 16),
    "q_minus": (28,) * 12,
    "cone": (33, 32, 34, 34, 32, 37, 33, 35, 32, 38, 32, 45),
    "q_plus": (36, 36, 38, 36, 36, 36, 40, 36, 36, 36, 36, 39),
    "w52": (64, 69, 64, 65, 65, 69, 64, 64, 64, 74, 64, 64),
}


@pytest.mark.parametrize("name", list(SEARCHED))
def test_relabelled_search_node_counts_are_pinned(name, monkeypatch):
    # the search succeeds with SEARCH_NODE_LIMIT at its node count and
    # raises one below it
    g = SEARCHED[name]
    rng = random.Random(f"nodes-{name}")
    for count in SEARCH_NODES[name]:
        h = _relabelled(g, rng)
        monkeypatch.setattr(incidence, "SEARCH_NODE_LIMIT", count)
        mapping = find_isomorphism(h, g)
        assert mapping is not None and is_isomorphism(h, g, mapping)
        monkeypatch.setattr(incidence, "SEARCH_NODE_LIMIT", count - 1)
        with pytest.raises(CapacityError,
                           match=f"^isomorphism search passed {count - 1} nodes "):
            find_isomorphism(h, g)


def test_search_into_a_geometry_with_digons_matches_reference():
    # g2 has two points on two common lines ({3,4} lies on 345 and 347), so
    # the image of a half-mapped line is not forced by two of its points
    g1 = IncidenceStructure.from_lines(8, [
        [0, 2, 6], [0, 2, 7], [0, 3, 5], [0, 3, 6], [0, 4, 6],
        [0, 6, 7], [1, 6, 7], [2, 3, 6], [2, 3, 7], [2, 4, 6]])
    g2 = IncidenceStructure.from_lines(8, [
        [0, 5, 7], [1, 3, 6], [2, 4, 7], [2, 6, 7], [3, 4, 5],
        [3, 4, 7], [3, 6, 7], [4, 5, 6], [4, 6, 7], [5, 6, 7]])
    mapping = _same_result(g1, g2)
    assert list(mapping.items()) == [(0, 6), (2, 4), (4, 2), (5, 1), (6, 7),
                                     (1, 0), (3, 3), (7, 5)]


@st.composite
def geometry_pairs(draw):
    """A random geometry and either a relabelling of it, possibly with one
    line redrawn, or an independent geometry on as many points."""
    g1 = draw(small_geometries())
    n = g1.point_count
    kind = draw(st.sampled_from(["relabelled", "perturbed", "independent"]))
    if kind == "independent":
        subsets = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=4)
        return g1, IncidenceStructure.from_lines(n, draw(st.lists(subsets, max_size=14)))
    perm = draw(st.permutations(range(n)))
    lines = [[perm[p] for p in line] for line in g1.lines]
    if kind == "perturbed" and lines:
        size = len(lines[0])
        lines[0] = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 min_size=size, max_size=size, unique=True))
    return g1, IncidenceStructure.from_lines(n, lines)


@settings(max_examples=400, deadline=None)
@given(geometry_pairs())
def test_search_matches_reference_on_random_pairs(pair):
    g1, g2 = pair
    mapping = find_isomorphism(g1, g2)
    expected = ref_find_isomorphism(g1, g2)
    assert mapping == expected
    if expected is not None:
        assert list(mapping.items()) == list(expected.items())

