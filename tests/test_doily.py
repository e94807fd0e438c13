"""Tests for the duad-syntheme doily and its named hyperplanes."""

import re
from collections import Counter
from itertools import combinations, permutations

import pytest

from doilyspace import doily
from doilyspace.doily import (
    DUADS,
    DUAD_INDEX,
    DoilyHyperplane,
    FULL_MASK,
    GRID,
    OVOID,
    PERP_SET,
    S_ELEMENTS,
    SYNTHEMES,
    all_named_hyperplanes,
    apply_duad_permutation,
    build_doily,
    classify_hyperplane,
    grid,
    ovoid,
    perp_set,
    veldkamp_sum,
    _classify_table,
    _named_table,
)
from doilyspace.incidence import (
    collinear,
    enumerate_hyperplanes,
    points_of,
    popcount,
)


def test_duads_and_synthemes():
    assert len(DUADS) == 15
    assert DUADS[0] == (1, 2) and DUADS[-1] == (5, 6)
    assert len(SYNTHEMES) == 15
    for syn in SYNTHEMES:
        elems = [x for d in syn for x in d]
        assert sorted(elems) == list(S_ELEMENTS)
    assert frozenset({(1, 2), (3, 4), (5, 6)}) in SYNTHEMES


def test_build_doily_counts():
    g = build_doily()
    assert g.point_count == 15
    assert len(g.lines) == 15
    assert all(len(line) == 3 for line in g.lines)
    assert all(g.degree(p) == 3 for p in range(15))
    assert g.labels[DUAD_INDEX[(1, 2)]] == "12"


def test_triangle_free_independent_scan():
    # no 3 pairwise-collinear points without a common line, checked directly
    g = build_doily()
    for p, q, r in combinations(range(15), 3):
        if collinear(g, p, q) and collinear(g, p, r) and collinear(g, q, r):
            m = (1 << p) | (1 << q) | (1 << r)
            assert any(lm & m == m for lm in g.line_masks)


def test_ovoid_examples():
    assert set(ovoid(1).duads) == {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)}
    assert all(ovoid(i).size == 5 for i in S_ELEMENTS)
    assert points_of(ovoid(1).mask & ovoid(2).mask) == (DUAD_INDEX[(1, 2)],)
    assert ovoid(3).name == "o_3"
    with pytest.raises(ValueError):
        ovoid(7)


def test_perp_set_examples():
    p12 = perp_set(1, 2)
    assert set(p12.duads) == {(1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)}
    assert p12.mask == sum(1 << p for p in points_of(build_doily().perp_masks[DUAD_INDEX[(1, 2)]]))
    assert p12.name == "p_12"
    with pytest.raises(ValueError):
        perp_set(2, 2)


def test_grid_examples():
    g123 = grid(1, 2, 3)
    assert set(g123.duads) == {(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6),
                               (3, 4), (3, 5), (3, 6)}
    assert g123.mask == grid(4, 5, 6).mask
    assert grid(4, 5, 6).index == (1, 2, 3)
    assert grid(2, 5, 6).name == "g_134"
    with pytest.raises(ValueError):
        grid(1, 1, 2)


def test_named_constructors_look_up_one_table():
    named = {h.name: h for h in all_named_hyperplanes()}
    for i in S_ELEMENTS:
        assert ovoid(i) is named[f"o_{i}"]
    for i, j in permutations(S_ELEMENTS, 2):
        assert perp_set(i, j) is named[f"p_{min(i, j)}{max(i, j)}"]
    for triple in permutations(S_ELEMENTS, 3):
        assert grid(*triple).mask == grid(*sorted(set(S_ELEMENTS) - set(triple))).mask
        assert grid(*triple) is named[grid(*triple).name]
    for call, message in [
            (lambda: ovoid(0), "ovoid label must be in 1..6: 0"),
            (lambda: perp_set(1, 7), "perp-set labels must be in 1..6: 1, 7"),
            (lambda: perp_set(3, 3), "perp-set needs two distinct labels"),
            (lambda: grid(1, 2, 2), "grid needs three distinct labels in 1..6: 1, 2, 2"),
            (lambda: grid(1, 2, 7), "grid needs three distinct labels in 1..6: 1, 2, 7")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_veldkamp_sum_identities():
    s = veldkamp_sum(ovoid(1), ovoid(2))
    assert s.mask == perp_set(1, 2).mask and s.kind == PERP_SET
    # expand through the ovoid sums: (o1+o3)+(o2+o3) = o1+o2
    assert veldkamp_sum(perp_set(1, 3), perp_set(2, 3)).mask == perp_set(1, 2).mask
    for i, j in DUADS:
        assert veldkamp_sum(ovoid(i), ovoid(j)).mask == perp_set(i, j).mask
    for i, j, k in combinations(S_ELEMENTS, 3):
        triple = veldkamp_sum(veldkamp_sum(ovoid(i), ovoid(j)), ovoid(k))
        assert triple.mask == grid(i, j, k).mask
    with pytest.raises(ValueError):
        veldkamp_sum(perp_set(1, 2), perp_set(1, 2))


def test_classify_roundtrip():
    for h in all_named_hyperplanes():
        again = classify_hyperplane(h.mask)
        assert (again.mask, again.kind, again.index) == (h.mask, h.kind, h.index)


def test_classify_rejects_non_hyperplanes():
    not_hyperplane = "^subset is not a geometric hyperplane of the doily$"
    with pytest.raises(ValueError, match=not_hyperplane):
        classify_hyperplane(sum(1 << DUAD_INDEX[d] for d in ((1, 2), (3, 5), (4, 6))))
    with pytest.raises(ValueError, match=not_hyperplane):
        classify_hyperplane(build_doily().line_masks[0])
    with pytest.raises(ValueError, match="^no doily hyperplane has 15 points$"):
        classify_hyperplane(FULL_MASK)


def test_classify_names_bad_input():
    with pytest.raises(ValueError, match="^mask -1 is outside 0..32767$"):
        classify_hyperplane(-1)
    with pytest.raises(ValueError, match="^mask 32799 is outside 0..32767$"):
        classify_hyperplane(ovoid(1).mask | 1 << 15)


@pytest.mark.parametrize("subset", [
    {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)}, set(points_of(ovoid(1).mask)),
    list(points_of(grid(1, 2, 3).mask)), [], ovoid(1).mask * 1.0, True, False,
], ids=["duad set", "index set", "index list", "empty list", "float", "True", "False"])
def test_classify_takes_int_masks_only(subset):
    message = f"^subset must be an int mask, got {type(subset).__name__}$"
    with pytest.raises(TypeError, match=message):
        classify_hyperplane(subset)


def test_classify_table_is_the_named_table():
    table = _classify_table()
    assert sorted(table) == sorted(h.mask for h in all_named_hyperplanes())
    for h in all_named_hyperplanes():
        assert classify_hyperplane(h.mask) is h


def _swap(key, kind, index):
    """Replace the named entry at key by its mask under another kind and index."""
    return lambda named: named.update({key: DoilyHyperplane(named[key].mask, kind, index)})


@pytest.mark.parametrize("tamper, message", [
    (_swap((GRID, (1, 2, 3)), OVOID, (1, 2, 3)),
     f"named doily hyperplane o_123 (mask {grid(1, 2, 3).mask}) does not have the ovoid shape"),
    (_swap((GRID, (1, 2, 3)), PERP_SET, (1, 2, 3)),
     f"named doily hyperplane p_123 (mask {grid(1, 2, 3).mask}) does not have the perp-set shape"),
    (_swap((PERP_SET, (1, 2)), PERP_SET, (3, 4)),
     f"named doily hyperplane p_34 (mask {perp_set(1, 2).mask}) does not have the perp-set shape"),
    (_swap((PERP_SET, (1, 2)), GRID, (1, 2, 3)),
     f"named doily hyperplane g_123 (mask {perp_set(1, 2).mask}) does not have the grid shape"),
    (lambda named: named.pop((GRID, (1, 4, 5))),
     f"doily hyperplane mask {grid(1, 4, 5).mask} is not named"),
    (lambda named: named.update({(OVOID, (1,)): DoilyHyperplane(ovoid(1).mask ^ 1, OVOID, (1,))}),
     f"named doily hyperplane o_1 (mask {ovoid(1).mask ^ 1}) is not a hyperplane"),
], ids=["grid as ovoid", "grid as perp-set", "perp-set with another duad", "perp-set as grid",
        "mask dropped", "mask not a hyperplane"])
def test_classify_table_rejects_a_wrong_named_table(monkeypatch, tamper, message):
    named = dict(_named_table())
    tamper(named)
    monkeypatch.setattr(doily, "_named_table", lambda: named)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        _classify_table.__wrapped__()


def test_census_and_distinctness():
    hyperplanes = enumerate_hyperplanes(build_doily())
    kinds = Counter(classify_hyperplane(m).kind for m in hyperplanes)
    assert kinds == {OVOID: 6, PERP_SET: 15, GRID: 10}
    named = {h.mask for h in all_named_hyperplanes()}
    assert named == set(hyperplanes)
    assert len(named) == 31


def test_ovoids_meet_every_syntheme_once():
    g = build_doily()
    for i in S_ELEMENTS:
        for lm in g.line_masks:
            assert popcount(ovoid(i).mask & lm) == 1


def test_ovoid_points_pairwise_non_collinear():
    g = build_doily()
    for i in S_ELEMENTS:
        pts = points_of(ovoid(i).mask)
        for p, q in combinations(pts, 2):
            assert not collinear(g, p, q)


def test_five_ovoids_generate_everything():
    full = FULL_MASK
    span = {ovoid(i).mask for i in range(1, 6)}
    grown = True
    while grown:
        grown = False
        for m1, m2 in combinations(sorted(span), 2):
            s = full ^ m1 ^ m2
            if s not in span:
                span.add(s)
                grown = True
    assert span == {h.mask for h in all_named_hyperplanes()}


def test_every_hyperplane_is_a_sum_of_at_most_three_ovoids():
    singles = {ovoid(i).mask for i in S_ELEMENTS}
    pairs = {veldkamp_sum(ovoid(i), ovoid(j)).mask for i, j in DUADS}
    triples = {veldkamp_sum(veldkamp_sum(ovoid(i), ovoid(j)), ovoid(k)).mask
               for i, j, k in combinations(S_ELEMENTS, 3)}
    assert singles | pairs | triples == {h.mask for h in all_named_hyperplanes()}


def test_apply_duad_permutation():
    swap12 = {1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}
    assert apply_duad_permutation(ovoid(1).mask, swap12) == ovoid(2).mask
    assert apply_duad_permutation(perp_set(1, 3).mask, swap12) == perp_set(2, 3).mask
    assert apply_duad_permutation(grid(1, 2, 3).mask, swap12) == grid(1, 2, 3).mask


def test_apply_duad_permutation_matches_the_duad_by_duad_image():
    for images in permutations(S_ELEMENTS):
        perm = dict(zip(S_ELEMENTS, images))
        for h in all_named_hyperplanes():
            expected = 0
            for i, j in h.duads:
                expected |= 1 << DUADS.index(tuple(sorted((perm[i], perm[j]))))
            assert apply_duad_permutation(h.mask, perm) == expected


@pytest.mark.parametrize("mask, perm, message", [
    (1, {1: 2, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}, "is not a permutation of"),
    (1, {1: 7, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}, "is not a permutation of"),
    (1, {1: 1, 2: 2, 3: 3}, "is not a permutation of"),
    (1, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}, "is not a permutation of"),
    (1 << 15, {i: i for i in S_ELEMENTS}, "mask 32768 is outside 0..32767"),
    (-1, {i: i for i in S_ELEMENTS}, "mask -1 is outside 0..32767"),
])
def test_apply_duad_permutation_rejects_bad_input(mask, perm, message):
    with pytest.raises(ValueError, match=message):
        apply_duad_permutation(mask, perm)
