"""Veldkamp spaces of geometries with three points per line.

Points of the Veldkamp space are the geometric hyperplanes; lines are the
triples {H', H'', H' (+) H''} where (+) is the Veldkamp sum.  For the doily
the space has the PG(4,2) parameters 31 points / 155 lines, and the lines
fall into five families named after the kinds of their members.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from .doily import (
    GRID,
    OVOID,
    PERP_SET,
    S_SET,
    build_doily,
    classify_hyperplane,
)
from .incidence import IncidenceStructure, _check_mask, null_space_hyperplanes

class VeldkampLine:
    """Three masks inside the point set, a tuple in ascending order, closed under
    the Veldkamp sum and so with one common core; null_space_hyperplanes (in
    build_veldkamp_space) or classify_hyperplane (in classify_veldkamp_line) certifies
    them hyperplanes.  build_veldkamp_space makes its lines without the constructor,
    whose checks hold there by construction."""

    __slots__ = ("geometry", "members")

    def __init__(self, geometry: IncidenceStructure, members: tuple[int, int, int]) -> None:
        members = tuple(members)
        if len(members) != 3:
            raise ValueError(f"a Veldkamp line has 3 members, got {len(members)}")
        for m in members:
            _check_mask(m, geometry.full_mask)
        m1, m2, m3 = members
        if not m1 < m2 < m3:
            if len({m1, m2, m3}) != 3:
                raise ValueError("Veldkamp line members must be distinct")
            raise ValueError("members must be in ascending mask order")
        if geometry.full_mask ^ m1 ^ m2 != m3:  # the Veldkamp sum of m1 and m2
            raise ValueError("members are not closed under the Veldkamp sum")
        self.geometry = geometry
        self.members = members

    @property
    def core_mask(self) -> int:
        return self.members[0] & self.members[1]

    def __repr__(self) -> str:
        return f"VeldkampLine(members={self.members})"


class VeldkampSpace:
    """The hyperplane masks of a geometry, ascending, and its Veldkamp lines."""

    def __init__(self, geometry: IncidenceStructure, points: tuple[int, ...],
                 lines: tuple[VeldkampLine, ...]) -> None:
        self.geometry = geometry
        self.points = points
        self.lines = lines

    def __repr__(self) -> str:
        return f"VeldkampSpace({len(self.points)} points, {len(self.lines)} lines)"


def build_veldkamp_space(g: IncidenceStructure) -> VeldkampSpace:
    """Enumerate all hyperplanes and all Veldkamp lines of a 3-per-line geometry.

    The geometry must be a partial linear space with at least one line.  The
    hyperplane complements form a GF(2) subspace, and a 3-point line keeps
    the full point set out of it, so the Veldkamp sum of two distinct
    hyperplanes is again a hyperplane.
    """
    if not g.lines:
        raise ValueError("Veldkamp space construction requires at least one line")
    _require_partial_linear_space(g)
    masks = null_space_hyperplanes(g)  # ascending, each inside full_mask
    full = g.full_mask
    # each line {m1 < m2 < m3 = m1 (+) m2} comes once, from m1 and m2, in
    # order.  It skips VeldkampLine's checks, which hold by construction: the
    # members lie inside full_mask, ascend, and m3 is the Veldkamp sum.
    new = VeldkampLine.__new__
    lines = []
    for m1, m2 in combinations(masks, 2):
        m3 = full ^ m1 ^ m2
        if m2 < m3:
            line = new(VeldkampLine)
            line.geometry = g
            line.members = (m1, m2, m3)
            lines.append(line)
    return VeldkampSpace(g, tuple(masks), tuple(lines))


def doily_veldkamp_space() -> VeldkampSpace:
    """The Veldkamp space of ``build_doily()``, built once per doily instance.

    build_veldkamp_space stays uncached: it also serves geometries built on
    the fly, which a cache would keep alive.
    """
    return _space_of_doily(id(build_doily()))


@lru_cache(maxsize=1)
def _space_of_doily(doily_id: int) -> VeldkampSpace:
    # the cached space holds the doily it was built from, so no other object
    # can take that id while the entry lives
    return build_veldkamp_space(build_doily())


def _require_partial_linear_space(g: IncidenceStructure) -> None:
    """Raise ValueError naming two lines that share two points, if any do."""
    if g.partial_linear:
        return
    line_of_pair: dict[tuple[int, int], int] = {}
    for idx, line in enumerate(g.lines):
        for pair in combinations(sorted(line), 2):
            first = line_of_pair.setdefault(pair, idx)
            if first != idx:
                names = [", ".join(g.label_of(p) for p in sorted(l))
                         for l in (g.lines[first], line)]
                raise ValueError(
                    f"lines {{{names[0]}}} and {{{names[1]}}} share two points; "
                    "Veldkamp space construction requires a partial linear space")


# A member of a doily Veldkamp line stands for subsets of S: an ovoid o_i for
# {i}, a perp-set p_ij for its deep duad {i,j}, and a grid for its two
# complementary triples.  Each family is named by its key and fixed by its
# member counts (ovoids, perp-sets, grids) and a rule on those subsets;
# family_of reads the table, both to classify doily lines and to check their
# magic-line sector images.
FAMILY_RULES = {
    # {p_ij, g, g'}: a triple of g and one of g' differ exactly in {i,j}
    "perp-grid-grid": ((0, 1, 2), lambda o, p, g: any(
        u ^ v == p[0] for u in g[0] for v in g[1])),
    # three deep duads partitioning S
    "perp-perp-perp-disjoint": ((0, 3, 0), lambda o, p, g: len(p[0] | p[1] | p[2]) == 6),
    # three deep duads forming the triangle on a triple
    "perp-perp-perp-triangle": ((0, 3, 0), lambda o, p, g: (
        len(p[0] | p[1] | p[2]) == 3
        and len(p[0] & p[1]) == len(p[0] & p[2]) == len(p[1] & p[2]) == 1)),
    # {o_i, p_jk, g_ijk} with i outside {j,k}
    "ovoid-perp-grid": ((1, 1, 1), lambda o, p, g: (
        not (o[0] & p[0]) and (o[0] | p[0]) in g[0])),
    # {o_i, o_j, p_ij}
    "ovoid-ovoid-perp": ((2, 1, 0), lambda o, p, g: o[0] | o[1] == p[0]),
}

FAMILIES = tuple(FAMILY_RULES)
KINDS = (OVOID, PERP_SET, GRID)  # the order of a family's member counts


def family_of(members) -> str | None:
    """The first family whose counts and rule fit the members, given as
    (kind, subsets of S) pairs (see FAMILY_RULES), or None."""
    o, p, g = parts = [], [], []
    for kind, subsets in members:  # members of any other kind are left out
        if kind in KINDS:
            parts[KINDS.index(kind)].append(subsets)
    for family, (counts, rule) in FAMILY_RULES.items():
        if counts == (len(o), len(p), len(g)) and rule(o, p, g):
            return family
    return None


def _member_subsets(h) -> tuple:
    """A classified doily hyperplane as the (kind, subsets of S) pair family_of reads."""
    t = frozenset(h.index)
    return h.kind, ((t, S_SET - t) if h.kind == GRID else t)


def classify_veldkamp_line(line: VeldkampLine) -> str:
    """The first of the five doily families whose rule the members fit."""
    if not isinstance(line, VeldkampLine):
        raise TypeError(f"line must be a VeldkampLine, got {type(line).__name__}")
    if line.geometry != build_doily():
        raise ValueError("not a Veldkamp line of the doily")
    return _classify_members(line.members)


@lru_cache(maxsize=None)
def _classify_members(masks: tuple[int, int, int]) -> str:
    """The family of a doily Veldkamp line, by its member masks.  Only doily
    lines reach the cache, so it holds at most 155 entries; a failure raises
    and is not cached."""
    members = [classify_hyperplane(m) for m in masks]
    family = family_of(_member_subsets(h) for h in members)
    if family is None:
        raise ValueError("no Veldkamp line family fits the members "
                         + ", ".join(h.name for h in members))
    return family


def family_census(lines) -> dict[str, int]:
    """Count the doily's Veldkamp lines per family, in canonical family order."""
    counts = Counter(classify_veldkamp_line(l) for l in lines)
    return {fam: counts.get(fam, 0) for fam in FAMILIES}
