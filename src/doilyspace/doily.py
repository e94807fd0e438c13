"""The duad-syntheme model of the doily and its named geometric hyperplanes.

Points are the 15 two-element subsets (duads) of S = {1,...,6} in
lexicographic order; lines are the 15 synthemes (partitions of S into three
duads).  The three hyperplane families are ovoids o_i, perp-sets p_ij and
grids g_ijk, and the Veldkamp sum of two hyperplanes is the complement of
their symmetric difference.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations

from .incidence import (
    IncidenceStructure,
    _check_mask,
    _check_point,
    collinear,
    deep_points_mask,
    is_geometric_hyperplane,
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


# combinations yields the synthemes in ascending order of their sorted duads
SYNTHEMES: tuple[frozenset[tuple[int, int]], ...] = tuple(
    frozenset(t) for t in combinations(DUADS, 3) if set().union(*t) == S_SET)


@lru_cache(maxsize=None)
def build_doily() -> IncidenceStructure:
    """The 15-point, 15-line duad-syntheme geometry."""
    lines = [frozenset(DUAD_INDEX[d] for d in syn) for syn in SYNTHEMES]
    return IncidenceStructure(
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
    def duads(self) -> tuple[tuple[int, int], ...]:
        return tuple(DUADS[p] for p in points_of(self.mask))

    @property
    def size(self) -> int:
        return popcount(self.mask)

    def __str__(self) -> str:
        return self.name


def _in_s(*labels: int) -> bool:
    """Whether every label is in S; one that is not an int, or is a bool, raises TypeError."""
    for i in labels:
        _check_point(i, name="S element")
    return S_SET.issuperset(labels)


def ovoid(i: int) -> DoilyHyperplane:
    """The five duads containing i."""
    if not _in_s(i):
        raise ValueError(f"ovoid label must be in 1..6: {i}")
    return _named_table()[OVOID, (i,)]


def perp_set(i: int, j: int) -> DoilyHyperplane:
    """The duad {i,j} together with the six duads avoiding both i and j."""
    if not _in_s(i, j):
        raise ValueError(f"perp-set labels must be in 1..6: {i}, {j}")
    if i == j:
        raise ValueError("perp-set needs two distinct labels")
    return _named_table()[PERP_SET, tuple(sorted((i, j)))]


def grid(i: int, j: int, k: int) -> DoilyHyperplane:
    """The nine duads with one element in {i,j,k} and one in the complement.

    grid(i,j,k) equals grid(l,m,n) for the complementary triple; the
    canonical index is the triple containing 1.
    """
    if not _in_s(i, j, k) or len(triple := {i, j, k}) != 3:
        raise ValueError(f"grid needs three distinct labels in 1..6: {i}, {j}, {k}")
    canon = triple if 1 in triple else S_SET - triple
    return _named_table()[GRID, tuple(sorted(canon))]


@lru_cache(maxsize=None)
def _named_table() -> dict[tuple[str, tuple[int, ...]], DoilyHyperplane]:
    """The 31 named hyperplanes keyed by (kind, canonical index), in canonical order:
    the one statement of the doily's hyperplanes, which _classify_table certifies."""
    duads = {}
    for i in S_ELEMENTS:
        duads[OVOID, (i,)] = [e for e in DUADS if i in e]
    for d in DUADS:
        duads[PERP_SET, d] = [e for e in DUADS if e == d or set(d).isdisjoint(e)]
    for j, k in combinations(range(2, 7), 2):
        duads[GRID, (1, j, k)] = [e for e in DUADS if len({1, j, k}.intersection(e)) == 1]
    return {key: DoilyHyperplane(sum(1 << DUAD_INDEX[e] for e in members), *key)
            for key, members in duads.items()}


def classify_hyperplane(mask: int) -> DoilyHyperplane:
    """Identify a point subset, given as a bitmask over point indices, as an
    ovoid, perp-set or grid of the doily: its entry in the certified table of
    the 31 named hyperplanes.  Any other mask in range is rejected."""
    h = _classify_table().get(mask) if type(mask) is int else None
    if h is not None:
        return h
    _check_mask(mask, FULL_MASK)
    if not is_geometric_hyperplane(build_doily(), mask):
        raise ValueError("subset is not a geometric hyperplane of the doily")
    raise ValueError(f"no doily hyperplane has {popcount(mask)} points")


@lru_cache(maxsize=None)
def _classify_table() -> dict[int, DoilyHyperplane]:
    """The named hyperplanes keyed by mask, certified to be the doily's
    hyperplanes, each with the shape of its kind: an ovoid has no two
    collinear points; a perp-set holds the 3 lines through its duad, its
    only deep point; a grid holds 6 lines, 2 through each of its points,
    and has no deep point."""
    g = build_doily()
    table = {h.mask: h for h in _named_table().values()}
    if sorted(table) != (found := null_space_hyperplanes(g)):
        m = min(set(table) ^ set(found))
        raise RuntimeError(f"named doily hyperplane {table[m]} (mask {m}) is not a hyperplane"
                           if m in table else f"doily hyperplane mask {m} is not named")
    for mask, h in table.items():
        inside = [lm for lm in g.line_masks if not lm & ~mask]
        deep = deep_points_mask(g, mask)
        if h.kind == OVOID:
            fits = not any(collinear(g, p, q) for p, q in combinations(points_of(mask), 2))
        elif h.kind == PERP_SET:
            fits = points_of(deep) == (DUAD_INDEX.get(h.index),) and inside == [
                lm for lm in g.line_masks if lm & deep]
        else:
            fits = not deep and len(inside) == 6 and all(
                sum(lm >> p & 1 for lm in inside) == 2 for p in points_of(mask))
        if not fits:
            raise RuntimeError(
                f"named doily hyperplane {h} (mask {mask}) does not have the {h.kind} shape")
    return table


def _check_hyperplane(h: DoilyHyperplane, name: str) -> None:
    """TypeError naming the argument unless h is a DoilyHyperplane."""
    if not isinstance(h, DoilyHyperplane):
        raise TypeError(f"{name} must be a DoilyHyperplane, got {type(h).__name__}; "
                        "classify_hyperplane(mask) gives the one of a mask")


def veldkamp_sum(h1: DoilyHyperplane, h2: DoilyHyperplane) -> DoilyHyperplane:
    """Complement of the symmetric difference, again a doily hyperplane."""
    _check_hyperplane(h1, "h1")
    _check_hyperplane(h2, "h2")
    if h1.mask == h2.mask:
        raise ValueError("Veldkamp sum requires two distinct hyperplanes")
    return classify_hyperplane(veldkamp_sum_mask(FULL_MASK, h1.mask, h2.mask))


def apply_duad_permutation(mask: int, perm: dict[int, int]) -> int:
    """Point-set image of a duad subset under a permutation of {1,...,6}."""
    _check_mask(mask, FULL_MASK)
    if not isinstance(perm, Mapping):
        raise TypeError(f"perm must be a mapping, got {type(perm).__name__}")
    items = (*perm, *perm.values())
    try:
        image = _duad_images(*items)
    except (TypeError, ValueError):  # the cache cannot hash every bad element
        _in_s(*items)  # TypeError naming the first that is not an int
        raise ValueError(f"{perm!r} is not a permutation of {{1,...,6}}") from None
    return sum(image[p] for p in points_of(mask))


@lru_cache(maxsize=None, typed=True)  # typed: the key True is not the key 1
def _duad_images(*items: int) -> tuple[int, ...]:
    """Each duad's image bit under items' keys -> values, which must permute {1,...,6}."""
    perm = dict(zip(items[:len(items) // 2], items[len(items) // 2:]))
    if not _in_s(*items) or not set(perm) == set(perm.values()) == S_SET:
        raise ValueError
    return tuple(1 << DUAD_INDEX[tuple(sorted((perm[i], perm[j])))] for i, j in DUADS)


def all_named_hyperplanes() -> tuple[DoilyHyperplane, ...]:
    """The 31 hyperplanes in canonical order: 6 ovoids, 15 perp-sets, 10 grids."""
    return tuple(_named_table().values())
