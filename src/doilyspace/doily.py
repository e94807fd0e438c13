"""The duad-syntheme model of the doily and its named geometric hyperplanes.

Points are the 15 two-element subsets (duads) of S = {1,...,6} in
lexicographic order; lines are the 15 synthemes (partitions of S into three
duads).  The three hyperplane families are ovoids o_i, perp-sets p_ij and
grids g_ijk, and the Veldkamp sum of two hyperplanes is the complement of
their symmetric difference.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations

from .incidence import (
    IncidenceStructure,
    collinear,
    deep_points_mask,
    is_geometric_hyperplane,
    mask_of,
    null_space_hyperplanes,
    points_of,
    popcount,
    veldkamp_sum_mask,
)

S_ELEMENTS = (1, 2, 3, 4, 5, 6)
S_SET = frozenset(S_ELEMENTS)

OVOID = "ovoid"
PERP_SET = "perp-set"
GRID = "grid"

DUADS: tuple[tuple[int, int], ...] = tuple(combinations(S_ELEMENTS, 2))
DUAD_INDEX: dict[tuple[int, int], int] = {d: k for k, d in enumerate(DUADS)}

FULL_MASK = (1 << len(DUADS)) - 1


def duad_label(duad: tuple[int, int]) -> str:
    return f"{duad[0]}{duad[1]}"


def _pairings(elems: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    if not elems:
        return [()]
    first, rest = elems[0], elems[1:]
    out = []
    for partner in rest:
        others = tuple(e for e in rest if e != partner)
        for sub in _pairings(others):
            out.append(((first, partner),) + sub)
    return out


SYNTHEMES: tuple[frozenset[tuple[int, int]], ...] = tuple(
    sorted((frozenset(p) for p in _pairings(S_ELEMENTS)), key=sorted))


@lru_cache(maxsize=None)
def build_doily() -> IncidenceStructure:
    """The 15-point, 15-line duad-syntheme geometry."""
    lines = [frozenset(DUAD_INDEX[d] for d in syn) for syn in SYNTHEMES]
    return IncidenceStructure.from_lines(
        len(DUADS), lines, labels=[duad_label(d) for d in DUADS])


class DoilyHyperplane:
    """A geometric hyperplane of the doily with its kind and defining labels.

    Two are equal when their masks, kinds and indices are."""

    def __init__(self, mask: int, kind: str, index: tuple[int, ...]) -> None:
        self.mask = mask
        self.kind = kind
        self.index = index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DoilyHyperplane):
            return NotImplemented
        return (self.mask == other.mask and self.kind == other.kind
                and self.index == other.index)

    def __hash__(self) -> int:
        return hash((self.mask, self.kind, self.index))

    @property
    def name(self) -> str:
        prefix = {OVOID: "o", PERP_SET: "p", GRID: "g"}[self.kind]
        return f"{prefix}_{''.join(str(i) for i in self.index)}"

    @property
    def points(self) -> frozenset[int]:
        return frozenset(points_of(self.mask))

    @property
    def duads(self) -> tuple[tuple[int, int], ...]:
        return tuple(DUADS[p] for p in points_of(self.mask))

    @property
    def size(self) -> int:
        return popcount(self.mask)

    def __str__(self) -> str:
        return self.name


def _duad_index(pair) -> int:
    index = DUAD_INDEX.get(tuple(sorted(pair)))
    if index is None:
        raise ValueError(f"{pair!r} is not a duad of {{1,...,6}}")
    return index


def _mask_from_duads(duads: Iterable[tuple[int, int]]) -> int:
    return mask_of(_duad_index(d) for d in duads)


def ovoid(i: int) -> DoilyHyperplane:
    """The five duads containing i."""
    if i not in S_SET:
        raise ValueError(f"ovoid label must be in 1..6: {i}")
    return _named_table()[OVOID, (i,)]


def perp_set(i: int, j: int) -> DoilyHyperplane:
    """The duad {i,j} together with the six duads avoiding both i and j."""
    if i not in S_SET or j not in S_SET:
        raise ValueError(f"perp-set labels must be in 1..6: {i}, {j}")
    if i == j:
        raise ValueError("perp-set needs two distinct labels")
    return _named_table()[PERP_SET, tuple(sorted((i, j)))]


def grid(i: int, j: int, k: int) -> DoilyHyperplane:
    """The nine duads with one element in {i,j,k} and one in the complement.

    grid(i,j,k) equals grid(l,m,n) for the complementary triple; the
    canonical index is the triple containing 1.
    """
    triple = {i, j, k}
    if len(triple) != 3 or not triple <= S_SET:
        raise ValueError(f"grid needs three distinct labels in 1..6: {i}, {j}, {k}")
    canon = triple if 1 in triple else S_SET - triple
    return _named_table()[GRID, tuple(sorted(canon))]


@lru_cache(maxsize=None)
def _named_table() -> dict[tuple[str, tuple[int, ...]], DoilyHyperplane]:
    """The 31 named hyperplanes keyed by (kind, canonical index), in canonical order."""
    duads = {}
    for i in S_ELEMENTS:
        duads[OVOID, (i,)] = [e for e in DUADS if i in e]
    for d in DUADS:
        duads[PERP_SET, d] = [e for e in DUADS if e == d or not set(d) & set(e)]
    for j, k in combinations(range(2, 7), 2):
        duads[GRID, (1, j, k)] = [e for e in DUADS if len({1, j, k} & set(e)) == 1]
    return {key: DoilyHyperplane(mask_of(DUAD_INDEX[e] for e in members), *key)
            for key, members in duads.items()}


def classify_hyperplane(subset: int | Iterable) -> DoilyHyperplane:
    """Identify a point subset as an ovoid, perp-set or grid of the doily.

    Accepts a bitmask over point indices, an iterable of point indices, or
    an iterable of duads.  The answer is looked up in a table of the 31
    hyperplanes that was classified structurally and certified when built;
    any other subset goes through the structural classification, which
    rejects it.
    """
    mask = _coerce_mask(subset)
    h = _classify_table().get(mask)
    return h if h is not None else _classify_structurally(mask)


@lru_cache(maxsize=None)
def _classify_table() -> dict[int, DoilyHyperplane]:
    """The structural class of each of the doily's hyperplanes, keyed by mask."""
    table = {h.mask: _classify_structurally(h.mask)
             for h in null_space_hyperplanes(build_doily())}
    kinds = Counter(h.kind for h in table.values())
    if kinds != {OVOID: 6, PERP_SET: 15, GRID: 10}:
        raise RuntimeError(f"doily classify table has census {dict(kinds)}, "
                           "expected 6 ovoids, 15 perp-sets and 10 grids")
    if table != {h.mask: h for h in all_named_hyperplanes()}:
        raise RuntimeError("doily classify table differs from the named hyperplanes")
    return table


def _classify_structurally(mask: int) -> DoilyHyperplane:
    """Classify by size, cross-checked structurally (ovoid: pairwise
    non-collinear; perp-set: unique deep point; grid: a 3x3 subgeometry) and
    against the matching named constructor."""
    g = build_doily()
    if not is_geometric_hyperplane(g, mask):
        raise ValueError("subset is not a geometric hyperplane of the doily")
    size = popcount(mask)
    if size == 5:
        pts = points_of(mask)
        if any(collinear(g, p, q) for p, q in combinations(pts, 2)):
            raise ValueError("5-point hyperplane with collinear points is not an ovoid")
        common = frozenset.intersection(*(frozenset(DUADS[p]) for p in pts))
        if len(common) != 1:
            raise ValueError("ovoid duads must share exactly one element")
        (i,) = common
        h = ovoid(i)
    elif size == 7:
        deep = deep_points_mask(g, mask)
        if popcount(deep) != 1:
            raise ValueError("7-point hyperplane must have a unique deep point")
        (p,) = points_of(deep)
        h = perp_set(*DUADS[p])
    elif size == 9:
        inside = [lm for lm in g.line_masks if lm & ~mask == 0]
        if len(inside) != 6:
            raise ValueError("grid must contain exactly 6 lines")
        for p in points_of(mask):
            if sum(1 for lm in inside if (lm >> p) & 1) != 2:
                raise ValueError("every grid point must lie on exactly 2 internal lines")
        # elements in the same class of the defining partition never form a
        # duad of the grid; the two classes are the components of that graph
        triple = _grid_triple(mask)
        h = grid(*triple)
    else:
        raise ValueError(f"no doily hyperplane has {size} points")
    if h.mask != mask:
        raise ValueError("structural classification failed to reproduce the subset")
    return h


def _grid_triple(mask: int) -> tuple[int, int, int]:
    present = {DUADS[p] for p in points_of(mask)}
    cls = {1}
    changed = True
    while changed:
        changed = False
        for x in list(cls):
            for y in S_ELEMENTS:
                if y not in cls and tuple(sorted((x, y))) not in present:
                    cls.add(y)
                    changed = True
    if len(cls) != 3:
        raise ValueError("grid duads do not arise from a 3+3 partition")
    return tuple(sorted(cls))


def _coerce_mask(subset: int | Iterable) -> int:
    """A bitmask from a mask, point indices or duads; ValueError names a bad value."""
    if isinstance(subset, int):
        if not 0 <= subset <= FULL_MASK:
            raise ValueError(f"mask {subset} is outside 0..{FULL_MASK}")
        return subset
    items = list(subset)
    if items and isinstance(items[0], int):
        for p in items:
            if not (isinstance(p, int) and 0 <= p < len(DUADS)):
                raise ValueError(f"point index {p!r} is not in 0..{len(DUADS) - 1}")
        return mask_of(items)
    return _mask_from_duads(items)


def veldkamp_sum(h1: DoilyHyperplane, h2: DoilyHyperplane) -> DoilyHyperplane:
    """Complement of the symmetric difference, again a doily hyperplane."""
    if h1.mask == h2.mask:
        raise ValueError("Veldkamp sum requires two distinct hyperplanes")
    return classify_hyperplane(veldkamp_sum_mask(FULL_MASK, h1.mask, h2.mask))


def apply_duad_permutation(mask: int, perm: dict[int, int]) -> int:
    """Point-set image of a duad subset under a permutation of {1,...,6}."""
    if not 0 <= mask <= FULL_MASK:
        raise ValueError(f"mask {mask} is outside 0..{FULL_MASK}")
    images = tuple(perm.get(i) for i in S_ELEMENTS)
    if len(perm) != len(S_ELEMENTS) or set(images) != S_SET:
        raise ValueError(f"{perm!r} is not a permutation of {{1,...,6}}")
    point_images = _duad_point_images(images)
    out = 0
    for p in points_of(mask):
        out |= point_images[p]
    return out


@lru_cache(maxsize=None)  # at most 720 keys: apply_duad_permutation validates them
def _duad_point_images(images: tuple[int, ...]) -> tuple[int, ...]:
    """The bit of each duad's image under the permutation i -> images[i - 1]."""
    return tuple(1 << DUAD_INDEX[tuple(sorted((images[i - 1], images[j - 1])))]
                 for i, j in DUADS)


def all_named_hyperplanes() -> tuple[DoilyHyperplane, ...]:
    """The 31 hyperplanes in canonical order: 6 ovoids, 15 perp-sets, 10 grids."""
    return tuple(_named_table().values())
