"""Veldkamp spaces of geometries with three points per line.

Points of the Veldkamp space are the geometric hyperplanes; lines are the
triples {H', H'', H' (+) H''} where (+) is the Veldkamp sum.  For the doily
the space has the PG(4,2) parameters 31 points / 155 lines, and the lines
fall into five families named after the kinds of their members.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .doily import (
    GRID,
    OVOID,
    PERP_SET,
    S_SET,
    build_doily,
    classify_hyperplane,
)
from .incidence import (
    Hyperplane,
    IncidenceStructure,
    is_partial_linear_space,
    null_space_hyperplanes,
    veldkamp_sum_mask,
)

FAMILY_PERP_GRID_GRID = "perp-grid-grid"
FAMILY_PERP_TRIPLE_DISJOINT = "perp-perp-perp-disjoint"
FAMILY_PERP_TRIPLE_TRIANGLE = "perp-perp-perp-triangle"
FAMILY_OVOID_PERP_GRID = "ovoid-perp-grid"
FAMILY_OVOID_OVOID_PERP = "ovoid-ovoid-perp"

FAMILIES = (
    FAMILY_PERP_GRID_GRID,
    FAMILY_PERP_TRIPLE_DISJOINT,
    FAMILY_PERP_TRIPLE_TRIANGLE,
    FAMILY_OVOID_PERP_GRID,
    FAMILY_OVOID_OVOID_PERP,
)


class VeldkampLine:
    """An unordered hyperplane triple closed under the Veldkamp sum."""

    def __init__(self, geometry: IncidenceStructure, members: tuple[int, int, int]) -> None:
        m1, m2, m3 = members
        if not m1 < m2 < m3:
            if len({m1, m2, m3}) != 3:
                raise ValueError("Veldkamp line members must be distinct")
            raise ValueError("members must be in ascending mask order")
        if veldkamp_sum_mask(geometry.full_mask, m1, m2) != m3:
            raise ValueError("members are not closed under the Veldkamp sum")
        core = m1 & m2
        if m1 & m3 != core or m2 & m3 != core:
            raise ValueError("pairwise intersections of the members differ")
        self.geometry = geometry
        self.members = members

    @property
    def core_mask(self) -> int:
        return self.members[0] & self.members[1]

    def __repr__(self) -> str:
        return f"VeldkampLine(members={self.members})"


class VeldkampSpace:
    def __init__(self, geometry: IncidenceStructure, points: tuple[Hyperplane, ...],
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
    hyperplanes = null_space_hyperplanes(g)
    full = g.full_mask
    masks = [h.mask for h in hyperplanes]  # ascending
    # each line {m1 < m2 < m3} is kept once, from its two smallest members,
    # and the lines come out in ascending order
    lines = []
    for m1, m2 in combinations(masks, 2):
        m3 = veldkamp_sum_mask(full, m1, m2)
        if m2 < m3:
            lines.append(VeldkampLine(g, (m1, m2, m3)))
    return VeldkampSpace(g, tuple(hyperplanes), tuple(lines))


def _require_partial_linear_space(g: IncidenceStructure) -> None:
    """Raise ValueError naming two lines that share two points, if any do."""
    if is_partial_linear_space(g):
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
# complementary triples.  Each family is fixed by its member counts
# (ovoids, perp-sets, grids) and a rule on those subsets; the same table
# classifies doily lines and checks their magic-line sector images.
FAMILY_RULES = {
    # {p_ij, g, g'}: a triple of g and one of g' differ exactly in {i,j}
    FAMILY_PERP_GRID_GRID: ((0, 1, 2), lambda o, p, g: any(
        u ^ v == p[0] for u in g[0] for v in g[1])),
    # three deep duads partitioning S
    FAMILY_PERP_TRIPLE_DISJOINT: ((0, 3, 0), lambda o, p, g: len(p[0] | p[1] | p[2]) == 6),
    # three deep duads forming the triangle on a triple
    FAMILY_PERP_TRIPLE_TRIANGLE: ((0, 3, 0), lambda o, p, g: (
        len(p[0] | p[1] | p[2]) == 3
        and len(p[0] & p[1]) == len(p[0] & p[2]) == len(p[1] & p[2]) == 1)),
    # {o_i, p_jk, g_ijk} with i outside {j,k}
    FAMILY_OVOID_PERP_GRID: ((1, 1, 1), lambda o, p, g: (
        not (o[0] & p[0]) and (o[0] | p[0]) in g[0])),
    # {o_i, o_j, p_ij}
    FAMILY_OVOID_OVOID_PERP: ((2, 1, 0), lambda o, p, g: o[0] | o[1] == p[0]),
}


def fits_family(family: str, ovoids: list, perp_sets: list, grids: list) -> bool:
    """Whether members given by their subsets of S (see FAMILY_RULES) form
    a line of the family: ovoids as {i}, perp-sets as deep duads, grids as
    pairs of complementary triples."""
    counts, rule = FAMILY_RULES[family]
    return (counts == (len(ovoids), len(perp_sets), len(grids))
            and rule(ovoids, perp_sets, grids))


def classify_veldkamp_line(line: VeldkampLine) -> str:
    """The first of the five doily families whose rule the members fit."""
    if line.geometry != build_doily():
        raise ValueError("not a Veldkamp line of the doily")
    members = [classify_hyperplane(m) for m in line.members]
    by_kind = {OVOID: [], PERP_SET: [], GRID: []}
    for h in members:
        t = frozenset(h.index)
        by_kind[h.kind].append((t, S_SET - t) if h.kind == GRID else t)
    for family in FAMILIES:
        if fits_family(family, by_kind[OVOID], by_kind[PERP_SET], by_kind[GRID]):
            return family
    raise ValueError("no Veldkamp line family fits the members "
                     + ", ".join(h.name for h in members))


def family_census(lines) -> dict[str, int]:
    """Count the doily's Veldkamp lines per family, in canonical family order."""
    counts = Counter(classify_veldkamp_line(l) for l in lines)
    return {fam: counts.get(fam, 0) for fam in FAMILIES}
