"""Generic point-line incidence structures and the machinery built on them:
collinearity, perps, geometric hyperplanes, generalized-quadrangle and
gamma-space axiom checks, and incidence-preserving isomorphism search.

Point subsets are handled as bitmasks indexed by point index, so that the
Veldkamp sum (complement of symmetric difference) is a single word operation;
the axiom checks and the isomorphism search work on the line and perp masks
each structure caches.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cached_property

HYPERPLANE_SCAN_LIMIT = 25
# W(5,2), the largest geometry the package builds, has nullity 7; every
# geometry of at most 16 points is within the limit.
NULLITY_LIMIT = 16
# find_isomorphism enters at most 294 search nodes on 2,000 seeded relabellings
# of W(5,2), 95 on the cone, 43 on Q+ and 29 or fewer on the doily, PG(3,2)
# and Q-, 36 on a sector model and 59 on 20,000 random geometries of at most
# 10 points: the limit is 170 times the largest.
SEARCH_NODE_LIMIT = 50_000


class CapacityError(ValueError):
    """Raised when an exhaustive enumeration would be too large to be sensible."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        if p < 0:
            raise ValueError(f"point index {p} is negative")
        m |= 1 << p
    return m


def points_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending; the cost is the popcount."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def popcount(mask: int) -> int:
    return mask.bit_count()


def veldkamp_sum_mask(full_mask: int, m1: int, m2: int) -> int:
    """Complement (within full_mask) of the symmetric difference of two subsets."""
    return full_mask ^ m1 ^ m2


class IncidenceStructure:
    """Points 0..point_count-1 together with lines given as point subsets.

    Two structures are equal when their point counts, lines (in order) and
    labels are."""

    def __init__(self, point_count: int, lines: tuple[frozenset[int], ...],
                 labels: tuple[str, ...] | None = None) -> None:
        for line in lines:
            if len(line) < 2:
                raise ValueError(f"line {set(line)} has fewer than 2 points")
            if any(not 0 <= p < point_count for p in line):
                raise ValueError(f"line {set(line)} has out-of-range points")
        if len(set(lines)) != len(lines):
            raise ValueError("repeated lines are not allowed")
        if labels is not None and len(labels) != point_count:
            raise ValueError("labels must match the point count")
        self.point_count = point_count
        self.lines = lines
        self.labels = labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceStructure):
            return NotImplemented
        return self is other or (self.point_count == other.point_count
                                 and self.lines == other.lines and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.point_count, self.lines, self.labels))

    @classmethod
    def from_lines(cls, point_count: int, lines: Iterable[Iterable[int]],
                   labels: Iterable[str] | None = None) -> IncidenceStructure:
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


class Hyperplane:
    """A point subset meeting every line in one point or containing it."""

    def __init__(self, geometry: IncidenceStructure, mask: int) -> None:
        if not is_geometric_hyperplane(geometry, mask):
            raise ValueError(f"mask {mask} is not a geometric hyperplane of the "
                             f"{geometry.point_count}-point geometry")
        self.geometry = geometry
        self.mask = mask

    @property
    def points(self) -> frozenset[int]:
        return frozenset(points_of(self.mask))

    @property
    def size(self) -> int:
        return popcount(self.mask)

    def __repr__(self) -> str:
        return f"Hyperplane({sorted(self.points)})"


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


def is_geometric_hyperplane(g: IncidenceStructure, subset: int | Iterable[int]) -> bool:
    """Inside the point set, with every line contained in it or met once."""
    m = subset if isinstance(subset, int) else mask_of(subset)
    if m & ~g.full_mask:  # also true of every negative mask
        return False
    for lm in g.line_masks:
        hit = lm & m
        if hit != lm and (not hit or hit & (hit - 1)):  # neither all nor one point
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


def _perp_counts(g: IncidenceStructure, line: Iterable[int]) -> tuple[int, int, int]:
    """How many points of the line each point is collinear with, bit-sliced
    over the line's perps: the masks of the points collinear with at least
    one, at least two and all of them."""
    ones = twos = 0
    every = g.full_mask
    for q in line:
        pm = g.perp_masks[q]
        twos |= ones & pm
        ones |= pm
        every &= pm
    return ones, twos, every


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
    if not is_partial_linear_space(g):  # no digons
        return False
    if has_triangle(g):
        return False
    for line, lm in zip(g.lines, g.line_masks):
        ones, twos, _ = _perp_counts(g, line)
        if g.full_mask & ~lm & ~(ones & ~twos):
            return False
    return True


def is_partial_linear_space(g: IncidenceStructure) -> bool:
    """True iff two lines through a point meet only there.

    The perps count each ordered pair of collinear points once, the lines
    once per line through both: the counts agree exactly when no two
    points share two lines."""
    pairs = sum(m.bit_count() for m in g.perp_masks) - g.point_count
    return pairs == sum(len(line) * (len(line) - 1) for line in g.lines)


def has_triangle(g: IncidenceStructure) -> bool:
    """Three pairwise-collinear points not all on one common line."""
    for p in range(g.point_count):
        joined: dict[int, int] = {}  # q > p -> union of the lines through p and q
        for idx in g.lines_through[p]:
            lm = g.line_masks[idx]
            for q in points_of(lm & (-2 << p)):
                joined[q] = joined.get(q, 0) | lm
        for q, lm in joined.items():
            if g.perp_masks[p] & g.perp_masks[q] & ~lm:
                return True
    return False


def check_gamma_space(g: IncidenceStructure) -> bool:
    """True iff every point's perp is a subspace: each line meets it in 0, 1 or all points."""
    for line in g.lines:
        _, twos, every = _perp_counts(g, line)
        if twos & ~every:
            return False
    return True


def _point_invariants(g: IncidenceStructure) -> list[tuple]:
    """(degree, neighbour-degree multiset) of each point, the multiset given
    as ascending (degree, count) pairs counted on the masks of equal degree."""
    by_degree: dict[int, int] = {}
    for p in range(g.point_count):
        by_degree[g.degree(p)] = by_degree.get(g.degree(p), 0) | 1 << p
    classes = sorted(by_degree.items())
    invs = []
    for p in range(g.point_count):
        nbrs = g.perp_masks[p] & ~(1 << p)
        invs.append((g.degree(p), tuple((d, c) for d, m in classes
                                        if (c := (nbrs & m).bit_count()))))
    return invs


def find_isomorphism(g1: IncidenceStructure,
                     g2: IncidenceStructure) -> dict[int, int] | None:
    """Search for a point bijection of g1 onto g2 carrying lines onto lines.

    Backtracking over points ordered to stay adjacent to the mapped part,
    with candidates filtered by (degree, neighbour-degree multiset) and full
    collinearity consistency; candidate images are tried in index order, so
    the result is deterministic.  Returns None when no isomorphism exists.

    When g2 is a partial linear space, the search also propagates line
    closure: once a line of g1 has all but one point mapped, and at least
    two of them, its image can only be the one line of g2 through their
    images, so the last point may only take that line's remaining point,
    and the branch is cut if there is no such line or that point is taken.
    This only cuts branches that hold no isomorphism, so the mapping found
    is the same, key order included, as without it.  The search is bounded:
    it raises CapacityError after SEARCH_NODE_LIMIT nodes.
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
    perp1, perp2 = g1.perp_masks, g2.perp_masks
    # points whose invariant has the same frequency, rarest first
    freq = Counter(inv1)
    by_freq: dict[int, int] = {}
    for p, inv in enumerate(inv1):
        by_freq[freq[inv]] = by_freq.get(freq[inv], 0) | 1 << p
    freq_masks = [m for _, m in sorted(by_freq.items())]
    order: list[int] = []
    placed = reach = 0
    while placed != g1.full_mask:
        # the rarest unplaced point collinear with a placed one, if any,
        # lowest index first
        pool = reach & ~placed or g1.full_mask & ~placed
        pick = next(pool & m for m in freq_masks if pool & m)
        nxt = (pick & -pick).bit_length() - 1
        order.append(nxt)
        placed |= 1 << nxt
        reach |= perp1[nxt]

    by_inv: dict[tuple, list[int]] = {}
    for q in range(n):
        by_inv.setdefault(inv2[q], []).append(q)

    masks1, masks2, through2 = g1.line_masks, g2.line_masks, g2.lines_through
    line_masks2 = set(masks2)
    # through two points of g2 passes at most one line only in a partial
    # linear space; elsewhere the image line of a half-mapped line is not forced
    propagate = is_partial_linear_space(g2)
    image = [0] * n  # image[p] = 1 << (the image of p), valid for placed points
    forced = [0] * n  # forced[p] = 1 << (the only image p may take), or 0
    nodes = 0

    def extend(k: int, placed: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_NODE_LIMIT:
            raise CapacityError(
                f"isomorphism search passed {SEARCH_NODE_LIMIT} nodes on {n} points")
        if k == n:
            return True
        p = order[k]
        # q keeps collinearity with every placed point exactly when the
        # placed part of its perp is the image of the placed part of p's
        want = 0
        m = perp1[p] & placed
        while m:
            low = m & -m
            want |= image[low.bit_length() - 1]
            m ^= low
        placed |= 1 << p
        ready = []
        closing = []  # (last unplaced point, image of the other placed points)
        for idx in g1.lines_through[p]:
            rest = masks1[idx] & ~placed
            if not rest:
                ready.append(g1.lines[idx])
            elif (propagate and not rest & (rest - 1)
                  and (m := masks1[idx] & placed & ~(1 << p))):
                img = 0
                while m:
                    low = m & -m
                    img |= image[low.bit_length() - 1]
                    m ^= low
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
            image[p] = bit
            if not all(sum(image[pt] for pt in line) in line_masks2 for line in ready):
                continue
            # the one line of g2 through q and the images of the other placed
            # points must have exactly one point left, unused and agreeing
            # with any earlier forcing of r: the image of the last point r
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
        return None
    if {sum(image[p] for p in line) for line in g1.lines} != line_masks2:
        return None
    return {p: image[p].bit_length() - 1 for p in order}


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
                         labels: Iterable[str] | None = None,
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
