"""Generic point-line incidence structures and the machinery built on them:
collinearity, perps, geometric hyperplanes, generalized-quadrangle and
gamma-space axiom checks, and incidence-preserving isomorphism search.

Point subsets are handled as bitmasks indexed by point index, so that the
Veldkamp sum (complement of symmetric difference) is a single word operation;
the axiom checks and the isomorphism search work on the line and perp masks
each structure builds when it is constructed.
"""

from __future__ import annotations

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


def _check_point(p: int, n: int | None = None, name: str = "point index") -> None:
    """TypeError unless p is an int, not a bool; IndexError unless 0 <= p < n, if n is given."""
    if type(p) is not int:
        raise TypeError(f"{name} must be an int, got {type(p).__name__}")
    if n is not None and not 0 <= p < n:
        raise IndexError(f"{name} {p} out of range (0..{n - 1})")


def _check_mask(m: int, full_mask: int | None = None) -> None:
    """TypeError unless m is an int, not a bool; ValueError if it has a bit outside full_mask."""
    if type(m) is not int:
        raise TypeError(f"subset must be an int mask, got {type(m).__name__}")
    if full_mask is not None and m & ~full_mask:
        raise ValueError(f"mask {m} is outside 0..{full_mask}")


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        _check_point(p)
        if p < 0:
            raise ValueError(f"point index {p} is negative")
        m |= 1 << p
    return m


def points_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending; the cost is the popcount."""
    _check_mask(mask)
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
    """Points 0..point_count-1 together with lines stored as frozensets of points.

    The constructor takes each line as any iterable of int points (not
    bools, checked before any sort), rejects a line that names a point twice,
    drops a repeated line and orders the lines by their ascending point
    tuples.  In the loop that builds the tables the checks read
    (``full_mask``, ``line_masks``, ``lines_through``, ``perp_masks`` and
    ``partial_linear``) it checks each line's size and range.  Only searches
    build the two search profiles.

    Two structures are equal when their point counts, lines (in order) and
    labels are.  Each label must be a str.  Lines and labels are stored as
    tuples, whatever sequence they came in, so equality and hashing do not
    depend on it."""

    def __init__(self, point_count: int, lines: Iterable[Iterable[int]],
                 labels: Iterable[str] | None = None) -> None:
        canon: dict[tuple[int, ...], frozenset[int]] = {}
        for line in lines:
            try:
                points = tuple(line)
            except TypeError:
                if isinstance(line, Iterable):  # raised while iterating it
                    raise
                raise TypeError(f"line {line!r} is not an iterable of points") from None
            for p in points:  # before the sort, which cannot order every bad point
                if type(p) is not int:
                    _check_point(p)  # raises
            unique = frozenset(points)
            if len(unique) != len(points):
                raise ValueError(f"line {list(points)} names a point twice")
            canon.setdefault(tuple(sorted(points)), unique)
        if type(point_count) is not int or point_count < 0:
            raise ValueError(f"point count {point_count!r} is not a non-negative int")
        keys = sorted(canon)
        line_masks = []
        through: list[list[int]] = [[] for _ in range(point_count)]
        perps = [1 << p for p in range(point_count)]
        line_pairs = 0  # ordered pairs of distinct points of a line, summed over the lines
        for idx, t in enumerate(keys):
            size = len(t)
            if size < 2:
                raise ValueError(f"line {set(canon[t])} has fewer than 2 points")
            if t[0] < 0 or t[-1] >= point_count:
                raise ValueError(f"line {set(canon[t])} has out-of-range points")
            m = 0
            for p in t:
                m |= 1 << p
                through[p].append(idx)
            for p in t:
                perps[p] |= m
            line_masks.append(m)
            line_pairs += size * (size - 1)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != point_count:
                raise ValueError("labels must match the point count")
            for i, label in enumerate(labels):
                if not isinstance(label, str):
                    raise TypeError(f"label {i} must be a str, got "
                                    f"{type(label).__name__}: {label!r}")
        self.point_count = point_count
        self.lines = tuple([canon[k] for k in keys])
        self.labels = labels
        self.full_mask = (1 << point_count) - 1
        self.line_masks = tuple(line_masks)
        self.lines_through = tuple(map(tuple, through))
        self.perp_masks = tuple(perps)
        # the perps count each ordered pair of collinear points once, the lines
        # once per line through both: the counts agree exactly when no two
        # points share two lines, that is, when the structure is partial linear
        pairs = -point_count
        for m in perps:
            pairs += m.bit_count()
        self.partial_linear = pairs == line_pairs

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
        """The constructor, under its older name."""
        return cls(point_count, lines, labels)

    @cached_property
    def search_profile(self) -> tuple:
        """What find_isomorphism reads of either side: the point invariants,
        their multiset (a dict from invariant to count) and the sorted line
        sizes."""
        invs = _point_invariants(self)
        freq: dict[tuple, int] = {}
        for inv in invs:
            freq[inv] = freq.get(inv, 0) + 1
        return invs, freq, sorted(map(len, self.lines))

    @cached_property
    def target_profile(self) -> tuple:
        """What find_isomorphism reads of its target only: the points of each
        invariant (ascending), the line-mask set and the closing table, from
        each line mask less one of its points to that point's bit."""
        by_inv: dict[tuple, list[int]] = {}
        for q, inv in enumerate(self.search_profile[0]):
            by_inv.setdefault(inv, []).append(q)
        last_of = {lm ^ 1 << p: 1 << p for lm in self.line_masks for p in points_of(lm)}
        return by_inv, frozenset(self.line_masks), last_of

    def degree(self, p: int) -> int:
        _check_point(p, self.point_count)
        return len(self.lines_through[p])

    def label_of(self, p: int) -> str:
        _check_point(p, self.point_count)
        return self.labels[p] if self.labels is not None else str(p)

    def __repr__(self) -> str:
        return f"IncidenceStructure({self.point_count} points, {len(self.lines)} lines)"


def collinear(g: IncidenceStructure, p: int, q: int) -> bool:
    """True iff p equals q or some line contains both."""
    _check_point(p, g.point_count)
    _check_point(q, g.point_count)
    return bool((g.perp_masks[p] >> q) & 1)


def is_geometric_hyperplane(g: IncidenceStructure, m: int) -> bool:
    """The point mask m lies inside the point set, with every line contained
    in it or met once."""
    _check_mask(m)
    if m & ~g.full_mask:  # also true of every negative mask
        return False
    for lm in g.line_masks:
        hit = lm & m
        if hit != lm and (not hit or hit & (hit - 1)):  # neither all nor one point
            return False
    return True


def deep_points_mask(g: IncidenceStructure, mask: int) -> int:
    """Points of the subset all of whose lines, so whose perp, lie inside the subset."""
    _check_mask(mask, g.full_mask)
    return mask_of(p for p in points_of(mask) if not g.perp_masks[p] & ~mask)


def enumerate_hyperplanes(g: IncidenceStructure) -> list[int]:
    """The masks of all proper nonempty geometric hyperplanes, ascending,
    found by a full 2^n scan."""
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
            found.append(m)
    return found


def null_space_hyperplanes(g: IncidenceStructure) -> list[int]:
    """The masks of all proper nonempty geometric hyperplanes of a geometry
    with 3 points per line.

    A 3-point line meets a subset in 1 or 3 points exactly when it meets the
    complement in an even number, so the hyperplanes are the complements of
    the nonzero vectors of the GF(2) null space of the line-by-point
    incidence matrix.  Returns the same list as ``enumerate_hyperplanes``,
    in ascending order, after checking every mask on every line at once,
    bit-sliced; a mask that fails raises ValueError naming the smallest.
    """
    if any(len(line) != 3 for line in g.lines):
        raise ValueError("null-space hyperplane enumeration requires 3 points per line")
    # reduced row echelon form: pivot bit -> row holding no other pivot bit,
    # so reducing by one pivot row leaves the other pivot bits of a row as
    # they are, and a row is reduced by exactly the pivots it holds at first
    rows: dict[int, int] = {}
    pivots = 0
    for row in g.line_masks:
        held = row & pivots
        while held:
            pivot = held & -held
            row ^= rows[pivot]
            held ^= pivot
        if row:
            pivot = row & -row
            for other, orow in rows.items():
                if orow & pivot:
                    rows[other] = orow ^ row
            rows[pivot] = row
            pivots |= pivot
    free = [1 << p for p in points_of(g.full_mask & ~pivots)]
    if len(free) > NULLITY_LIMIT:
        raise CapacityError(
            f"hyperplane null space has dimension {len(free)} on {g.point_count} points; "
            f"enumeration is limited to dimension {NULLITY_LIMIT}")
    null_vectors = [0]
    for f in free:
        basis = f
        for pivot, prow in rows.items():
            if prow & f:
                basis |= pivot
        null_vectors += [v ^ basis for v in null_vectors]
    # v = 0 gives the full point set; v = full, possible only without lines, the empty set
    masks = sorted(g.full_mask ^ v for v in null_vectors if v and v != g.full_mask)
    _require_hyperplanes(g, masks)
    return masks


def _require_hyperplanes(g: IncidenceStructure, masks: list[int]) -> None:
    """Raise ValueError naming the first of the masks, each inside the point
    set, that some line (of 3 points) meets in 0 or 2 points.  With bit j of
    column p set when masks[j] holds p, the masks met in 1 or 3 points are
    the set bits of the XOR of the line's three columns."""
    if not masks:
        return
    # blocks "0b1" + a mask's n bits, highest point first, the last mask
    # first: column p takes the (n - 1 - p)-th bit of every block
    n = g.point_count
    step = n + 3
    rows = "".join([bin(m | 1 << n) for m in reversed(masks)])
    columns = [int(rows[k::step], 2) for k in range(step - 1, 2, -1)]
    ok = every = (1 << len(masks)) - 1
    for a, b, c in g.lines:
        ok &= columns[a] ^ columns[b] ^ columns[c]
    failed = every & ~ok
    if failed:
        m = masks[(failed & -failed).bit_length() - 1]
        raise ValueError(f"mask {m} is not a geometric hyperplane of the {n}-point geometry")


def check_gq(g: IncidenceStructure, s: int, t: int) -> bool:
    """Generalized-quadrangle test for order (s, t).

    Requires s+1 points per line, t+1 lines per point, and for every
    non-incident point-line pair exactly one point of the line collinear
    with the point.  That last axiom rules out digons and triangles: two
    lines L != M of equal size sharing two points leave a point of M off L
    that sees two points of L, and of three pairwise-collinear points not on
    one line, the first lies off the line through the other two and sees
    two of its points.  An order that is not an int, or is a bool, raises
    TypeError naming it.
    """
    _check_point(s, name="GQ order s")
    _check_point(t, name="GQ order t")
    if any(len(line) != s + 1 for line in g.lines):
        return False
    if any(len(through) != t + 1 for through in g.lines_through):
        return False
    perps = g.perp_masks
    for line, lm in zip(g.lines, g.line_masks):
        # bit-sliced counts over the line's perps: the points collinear with
        # at least one and with at least two of its points
        ones = twos = 0
        for q in line:
            pm = perps[q]
            twos |= ones & pm
            ones |= pm
        if g.full_mask & ~lm & ~(ones & ~twos):
            return False
    return True


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
    """True iff g is a partial linear space (two lines share at most one
    point) in which every point's perp is a subspace: each line meets it in
    0, 1 or all points."""
    if not g.partial_linear:
        return False
    perps = g.perp_masks
    for line in g.lines:
        if len(line) == 3:
            a, b, c = line
            pa, pb, pc = perps[a], perps[b], perps[c]
            # the points in some of the three perps and in an even number: in two
            if (pa | pb | pc) & ~(pa ^ pb ^ pc):
                return False
            continue
        # the points collinear with at least two and with all of its points
        ones = twos = 0
        every = g.full_mask
        for q in line:
            pm = perps[q]
            twos |= ones & pm
            ones |= pm
            every &= pm
        if twos & ~every:
            return False
    return True


def _point_invariants(g: IncidenceStructure) -> list[tuple]:
    """(degree, neighbour-degree multiset) of each point, the multiset given
    as ascending (degree, count) pairs counted on the masks of equal degree."""
    degrees = [len(t) for t in g.lines_through]
    by_degree: dict[int, int] = {}
    for p, d in enumerate(degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << p
    classes = sorted(by_degree.items())
    invs = []
    for p, d in enumerate(degrees):
        nbrs = g.perp_masks[p] & ~(1 << p)
        counts = []
        for e, m in classes:
            c = (nbrs & m).bit_count()
            if c:
                counts.append((e, c))
        invs.append((d, tuple(counts)))
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
    it raises CapacityError after SEARCH_NODE_LIMIT nodes.  Both sides are
    read through their cached ``search_profile``, the target also through
    its ``target_profile``.
    """
    inv1, freq, sizes1 = g1.search_profile
    inv2, freq2, sizes2 = g2.search_profile
    # equal invariant multisets have equal point counts, equal sizes equal line counts
    if sizes1 != sizes2 or freq != freq2:
        return None
    by_inv, line_masks2, last_of = g2.target_profile
    # only in a partial linear space is the image of a half-mapped line forced
    propagate = g2.partial_linear

    n = g1.point_count
    perp1, perp2 = g1.perp_masks, g2.perp_masks
    # points whose invariant has the same frequency, rarest first
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
        for m in freq_masks:
            if pool & m:
                break
        pick = pool & m
        nxt = (pick & -pick).bit_length() - 1
        order.append(nxt)
        placed |= 1 << nxt
        reach |= perp1[nxt]

    masks1, lines_through = g1.line_masks, g1.lines_through
    image = [0] * n  # image[p] = 1 << (the image of p), valid for placed points
    line_img = [0] * len(masks1)  # line_img[i] = the OR of image[p] over line i's placed p
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
        placed |= 1 << p
        left = ~placed
        # img, read from line_img, is the image of the other placed points
        # of a line through p.  q keeps collinearity with every placed point
        # exactly when the placed part of its perp is the union of these,
        # want.  A line placed now keeps its img (the line's image holds it
        # and q's bit), a line with one point r left the pair of r and its img
        want = 0
        ready = []
        closing = []
        for idx in lines_through[p]:
            img = line_img[idx]
            want |= img
            rest = masks1[idx] & left
            if not rest:
                ready.append(img)
            elif img and propagate and not rest & (rest - 1):
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
            for img in ready:
                if img | bit not in line_masks2:
                    break
            else:
                image[p] = bit
                # the one line of g2 through q and the images of the other
                # placed points must have exactly one point left, unused and
                # agreeing with any earlier forcing of r: the image of r, read
                # from the closing table, which has no entry otherwise (a set of
                # two or more points lies on one line at most, as g2 is partial linear)
                set_here = []
                for r, img in closing:
                    last = last_of.get(img | bit, 0)
                    if not last or last & used or forced[r] and forced[r] != last:
                        break
                    if not forced[r]:
                        forced[r] = last
                        set_here.append(r)
                else:
                    # q's bit joins the image of each line through p until the branch fails
                    for idx in lines_through[p]:
                        line_img[idx] |= bit
                    if extend(k + 1, placed, used | bit):
                        return True
                    for idx in lines_through[p]:
                        line_img[idx] ^= bit
                for r in set_here:
                    forced[r] = 0
        return False

    if not extend(0, 0, 0):
        return None
    # each line of g1 was checked onto a line of g2 when its last point was
    # placed; the images of distinct lines differ, and both structures have
    # as many lines, so the images are g2's lines
    return {p: image[p].bit_length() - 1 for p in order}


def is_isomorphism(g1: IncidenceStructure, g2: IncidenceStructure,
                   mapping: dict[int, int]) -> bool:
    """Independent re-check that a point bijection maps lines exactly onto lines, each
    line's image compared with g2's as a point mask.  A key or value that is not a point
    of its structure raises TypeError or IndexError."""
    for points, n, name in ((mapping.keys(), g1.point_count, "mapping key"),
                            (mapping.values(), g2.point_count, "mapping value")):
        if not set(map(type, points)) <= {int} or sorted(points) != list(range(n)):
            for p in points:
                _check_point(p, n, name)
            return False
    bits = [1 << mapping[p] for p in range(g1.point_count)]
    images = set()
    for line in g1.lines:
        m = 0
        for p in line:
            m |= bits[p]
        images.add(m)
    return images == set(g2.line_masks)


def induced_substructure(g: IncidenceStructure,
                         points: Iterable[int],
                         labels: Iterable[str] | None = None,
                         ) -> tuple[IncidenceStructure, tuple[int, ...]]:
    """Substructure on the given points with the lines fully contained in them.

    Returns the renumbered structure together with the original indices of
    its points (ascending), so local index k corresponds to original[k].
    """
    points = tuple(points)
    for p in points:
        _check_point(p)
    original = tuple(sorted(set(points)))
    if original and original[-1] >= g.point_count:
        raise ValueError(f"point index {original[-1]} is not in 0..{g.point_count - 1}")
    local = {p: k for k, p in enumerate(original)}
    keep = mask_of(original)
    lines = [frozenset(local[p] for p in line)
             for line, lm in zip(g.lines, g.line_masks) if lm & ~keep == 0]
    if labels is None and g.labels is not None:
        labels = [g.labels[p] for p in original]
    return (IncidenceStructure(len(original), lines, labels), original)
