"""Generic point-line incidence structures and the machinery built on them:
collinearity, perps, geometric hyperplanes, generalized-quadrangle and
gamma-space axiom checks, and incidence-preserving isomorphism search.

Point subsets are handled as bitmasks indexed by point index, so that the
Veldkamp sum (complement of symmetric difference) is a single word operation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

HYPERPLANE_SCAN_LIMIT = 25
# W(5,2), the largest geometry the package builds, has nullity 7; every
# geometry of at most 16 points is within the limit.
NULLITY_LIMIT = 16


class CapacityError(ValueError):
    """Raised when an exhaustive enumeration would be too large to be sensible."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask: int) -> tuple[int, ...]:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def popcount(mask: int) -> int:
    return mask.bit_count()


def veldkamp_sum_mask(full_mask: int, m1: int, m2: int) -> int:
    """Complement (within full_mask) of the symmetric difference of two subsets."""
    return full_mask ^ m1 ^ m2


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..point_count-1 together with lines given as point subsets."""

    point_count: int
    lines: tuple[frozenset[int], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for line in self.lines:
            if len(line) < 2:
                raise ValueError(f"line {set(line)} has fewer than 2 points")
            if any(not 0 <= p < self.point_count for p in line):
                raise ValueError(f"line {set(line)} has out-of-range points")
        if len(set(self.lines)) != len(self.lines):
            raise ValueError("repeated lines are not allowed")
        if self.labels is not None and len(self.labels) != self.point_count:
            raise ValueError("labels must match the point count")

    @classmethod
    def from_lines(cls, point_count: int, lines: Iterable[Iterable[int]],
                   labels: Optional[Iterable[str]] = None) -> IncidenceStructure:
        """Build a structure with the lines deduplicated and canonically ordered."""
        canon = sorted({frozenset(l) for l in lines}, key=sorted)
        return cls(point_count, tuple(canon),
                   None if labels is None else tuple(labels))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.point_count) - 1

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(l) for l in self.lines)

    @cached_property
    def lines_through(self) -> tuple[tuple[int, ...], ...]:
        through: list[list[int]] = [[] for _ in range(self.point_count)]
        for idx, line in enumerate(self.lines):
            for p in line:
                through[p].append(idx)
        return tuple(tuple(t) for t in through)

    @cached_property
    def perp_masks(self) -> tuple[int, ...]:
        masks = []
        for p in range(self.point_count):
            m = 1 << p
            for idx in self.lines_through[p]:
                m |= self.line_masks[idx]
            masks.append(m)
        return tuple(masks)

    def degree(self, p: int) -> int:
        return len(self.lines_through[p])

    def label_of(self, p: int) -> str:
        return self.labels[p] if self.labels is not None else str(p)

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise ValueError("structure has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    def __repr__(self) -> str:
        return f"IncidenceStructure({self.point_count} points, {len(self.lines)} lines)"


@dataclass(frozen=True)
class Hyperplane:
    """A point subset meeting every line in one point or containing it."""

    geometry: IncidenceStructure = field(repr=False)
    mask: int
    kind: Optional[str] = None

    def __post_init__(self) -> None:
        if not is_geometric_hyperplane(self.geometry, self.mask):
            raise ValueError("subset is not a geometric hyperplane")

    @property
    def points(self) -> frozenset[int]:
        return frozenset(points_of(self.mask))

    @property
    def size(self) -> int:
        return popcount(self.mask)

    def __repr__(self) -> str:
        return f"Hyperplane({sorted(self.points)}, kind={self.kind!r})"


def _check_index(g: IncidenceStructure, p: int) -> None:
    if not 0 <= p < g.point_count:
        raise IndexError(f"point index {p} out of range (0..{g.point_count - 1})")


def collinear(g: IncidenceStructure, p: int, q: int) -> bool:
    """True iff p equals q or some line contains both."""
    _check_index(g, p)
    _check_index(g, q)
    return bool((g.perp_masks[p] >> q) & 1)


def perp(g: IncidenceStructure, p: int) -> frozenset[int]:
    """All points collinear with p, including p itself."""
    _check_index(g, p)
    return frozenset(points_of(g.perp_masks[p]))


def _as_mask(subset: int | Iterable[int]) -> int:
    return subset if isinstance(subset, int) else mask_of(subset)


def is_geometric_hyperplane(g: IncidenceStructure, subset: int | Iterable[int]) -> bool:
    """Every line is contained in the subset or meets it in exactly one point."""
    m = _as_mask(subset)
    for lm in g.line_masks:
        hit = popcount(lm & m)
        if hit != 1 and hit != popcount(lm):
            return False
    return True


def deep_points_mask(g: IncidenceStructure, mask: int) -> int:
    """Points of the subset all of whose lines lie inside the subset."""
    out = 0
    for p in points_of(mask):
        if all(g.line_masks[idx] & ~mask == 0 for idx in g.lines_through[p]):
            out |= 1 << p
    return out


def deep_points(h: Hyperplane) -> frozenset[int]:
    return frozenset(points_of(deep_points_mask(h.geometry, h.mask)))


def enumerate_hyperplanes(g: IncidenceStructure) -> list[Hyperplane]:
    """All proper nonempty geometric hyperplanes, found by a full 2^n scan."""
    if g.point_count > HYPERPLANE_SCAN_LIMIT:
        raise CapacityError(
            f"exhaustive hyperplane scan limited to {HYPERPLANE_SCAN_LIMIT} points, "
            f"geometry has {g.point_count}")
    sizes = [popcount(lm) for lm in g.line_masks]
    found = []
    for m in range(1, g.full_mask):
        ok = True
        for lm, sz in zip(g.line_masks, sizes):
            hit = popcount(lm & m)
            if hit != 1 and hit != sz:
                ok = False
                break
        if ok:
            found.append(Hyperplane(g, m))
    return found


def null_space_hyperplanes(g: IncidenceStructure) -> list[Hyperplane]:
    """All proper nonempty geometric hyperplanes of a geometry with 3 points per line.

    A 3-point line meets a subset in 1 or 3 points exactly when it meets the
    complement in an even number, so the hyperplanes are the complements of
    the nonzero vectors of the GF(2) null space of the line-by-point
    incidence matrix.  Returns the same list as ``enumerate_hyperplanes``,
    in ascending mask order, with each member verified by ``Hyperplane``.
    """
    if any(len(line) != 3 for line in g.lines):
        raise ValueError("null-space hyperplane enumeration requires 3 points per line")
    # reduced row echelon form: pivot bit -> row holding no other pivot bit
    rows: dict[int, int] = {}
    for row in g.line_masks:
        for pivot, prow in rows.items():
            if row & pivot:
                row ^= prow
        if row:
            pivot = row & -row
            for other, orow in rows.items():
                if orow & pivot:
                    rows[other] = orow ^ row
            rows[pivot] = row
    free = [1 << p for p in points_of(g.full_mask & ~sum(rows))]  # keys are distinct bits
    if len(free) > NULLITY_LIMIT:
        raise CapacityError(
            f"hyperplane null space has dimension {len(free)} on {g.point_count} points; "
            f"enumeration is limited to dimension {NULLITY_LIMIT}")
    null_vectors = [0]
    for f in free:
        basis = f | sum(pivot for pivot, prow in rows.items() if prow & f)
        null_vectors += [v ^ basis for v in null_vectors]
    # v = 0 gives the full point set; v = full, possible only without lines, the empty set
    masks = sorted(g.full_mask ^ v for v in null_vectors if v and v != g.full_mask)
    return [Hyperplane(g, m) for m in masks]


def check_gq(g: IncidenceStructure, s: int, t: int) -> bool:
    """Generalized-quadrangle test for order (s, t).

    Requires s+1 points per line, t+1 lines per point, no digons or
    triangles, and for every non-incident point-line pair exactly one point
    of the line collinear with the point.
    """
    if any(len(line) != s + 1 for line in g.lines):
        return False
    if any(g.degree(p) != t + 1 for p in range(g.point_count)):
        return False
    for m1, m2 in combinations(g.line_masks, 2):
        if popcount(m1 & m2) >= 2:
            return False
    if _has_triangle(g):
        return False
    for p in range(g.point_count):
        pm = g.perp_masks[p]
        for lm in g.line_masks:
            if (lm >> p) & 1:
                continue
            if popcount(lm & pm) != 1:
                return False
    return True


def _has_triangle(g: IncidenceStructure) -> bool:
    """Three pairwise-collinear points not all on one common line."""
    for p, q, r in combinations(range(g.point_count), 3):
        if ((g.perp_masks[p] >> q) & 1 and (g.perp_masks[p] >> r) & 1
                and (g.perp_masks[q] >> r) & 1):
            m = (1 << p) | (1 << q) | (1 << r)
            if not any(lm & m == m for lm in g.line_masks):
                return True
    return False


def has_triangle(g: IncidenceStructure) -> bool:
    return _has_triangle(g)


def check_gamma_space(g: IncidenceStructure) -> bool:
    """True iff every point's perp is a subspace: each line meets it in 0, 1 or all points."""
    for p in range(g.point_count):
        pm = g.perp_masks[p]
        for lm in g.line_masks:
            hit = popcount(lm & pm)
            if hit not in (0, 1, popcount(lm)):
                return False
    return True


def _point_invariants(g: IncidenceStructure) -> list[tuple]:
    degs = [g.degree(p) for p in range(g.point_count)]
    invs = []
    for p in range(g.point_count):
        nbrs = points_of(g.perp_masks[p] & ~(1 << p))
        invs.append((degs[p], tuple(sorted(degs[q] for q in nbrs))))
    return invs


def find_isomorphism(g1: IncidenceStructure,
                     g2: IncidenceStructure) -> Optional[dict[int, int]]:
    """Search for a point bijection of g1 onto g2 carrying lines onto lines.

    Backtracking over points ordered to stay adjacent to the mapped part,
    with candidates filtered by (degree, neighbour-degree multiset) and full
    collinearity consistency; candidate images are tried in index order, so
    the result is deterministic.  Returns None when no isomorphism exists.
    """
    if g1.point_count != g2.point_count or len(g1.lines) != len(g2.lines):
        return None
    if sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
        return None
    inv1 = _point_invariants(g1)
    inv2 = _point_invariants(g2)
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
        ready = []
        for idx in g1.lines_through[p]:
            line = g1.lines[idx]
            if all(pt in mapping for pt in line):
                ready.append(line)
        return ready

    def extend(k: int) -> bool:
        if k == n:
            return True
        p = order[k]
        for q in by_inv.get(inv1[p], ()):
            if used[q]:
                continue
            ok = True
            for p2, q2 in mapping.items():
                if bool((g1.perp_masks[p] >> p2) & 1) != bool((g2.perp_masks[q] >> q2) & 1):
                    ok = False
                    break
            if not ok:
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


def is_isomorphism(g1: IncidenceStructure, g2: IncidenceStructure,
                   mapping: dict[int, int]) -> bool:
    """Independent re-check that a point bijection maps lines exactly onto lines."""
    if sorted(mapping) != list(range(g1.point_count)):
        return False
    if sorted(mapping.values()) != list(range(g2.point_count)):
        return False
    image = {frozenset(mapping[p] for p in line) for line in g1.lines}
    return image == set(g2.lines)


def induced_substructure(g: IncidenceStructure,
                         points: Iterable[int],
                         labels: Optional[Iterable[str]] = None,
                         ) -> tuple[IncidenceStructure, tuple[int, ...]]:
    """Substructure on the given points with the lines fully contained in them.

    Returns the renumbered structure together with the original indices of
    its points (ascending), so local index k corresponds to original[k].
    """
    original = tuple(sorted(set(points)))
    local = {p: k for k, p in enumerate(original)}
    keep = mask_of(original)
    lines = [frozenset(local[p] for p in line)
             for line, lm in zip(g.lines, g.line_masks) if lm & ~keep == 0]
    if labels is None and g.labels is not None:
        labels = [g.labels[p] for p in original]
    return (IncidenceStructure.from_lines(len(original), lines, labels), original)
